"""Positivity cones and order comparisons along inductive systems.

Stage cones come from the complexes themselves (kernel coordinates with
nonnegative point ranks); limit cones are supplied as exact membership
oracles.  Unperforation checking is a bounded, sampled verifier, never a
prover.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .fgab.intmat import Frozen
from .homind import IndSystem, LimitElement


class ConeOracle(Frozen):
    """Exact membership predicate."""

    __slots__ = ("membership",)

    def __init__(self, membership: Callable):
        object.__setattr__(self, "membership", membership)

    def contains(self, g) -> bool:
        return bool(self.membership(g))


class GradedElement(Frozen):
    """An element of K_0 (+) K_1, components in whatever exact coordinates
    the ambient cone oracle expects.  Equality reads both components (the
    tests compare the elements an oracle was asked about), and the repr
    names them in graded_witness_cone's error."""

    __slots__ = ("g0", "g1")

    def __init__(self, g0: tuple, g1: tuple):
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.g0 == other.g0 and self.g1 == other.g1

    def __repr__(self):
        return f"GradedElement(g0={self.g0!r}, g1={self.g1!r})"

    @staticmethod
    def of(g0: Sequence, g1: Sequence) -> "GradedElement":
        return GradedElement(tuple(g0), tuple(g1))

    def scale(self, n: int) -> "GradedElement":
        return GradedElement(tuple(n * x for x in self.g0), tuple(n * x for x in self.g1))


def stage_dominates(sys: IndSystem, u: Sequence[int], v: Sequence[int], stage: int) -> bool:
    """u >= v at the given stage: the image difference lies in that stage's cone.

    u and v are stage-0 elements.
    """
    if stage < 0:
        raise ValueError("stage out of range")
    pu = sys.push(LimitElement(0, tuple(u)), stage)
    pv = sys.push(LimitElement(0, tuple(v)), stage)
    diff = tuple(a - b for a, b in zip(pu, pv))
    return sys.cone_membership(stage)(diff)


def eventual_dominates(sys: IndSystem, u: Sequence[int], v: Sequence[int],
                       bound: int) -> Optional[int]:
    """Least stage <= bound where u dominates v, or None.

    Description-induced K_0 bondings preserve the cones (image ranks are
    nonnegative combinations of nonnegative ranks), so dominance persists
    once it holds; this is checked on the scanned stages and a violation
    raises rather than reporting a misleading first stage.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    first = None
    walks = zip(sys.walk(LimitElement(0, tuple(u)), 0, bound),
                sys.walk(LimitElement(0, tuple(v)), 0, bound))
    for (s, pu), (_, pv) in walks:
        holds = sys.cone_membership(s)(tuple(a - b for a, b in zip(pu, pv)))
        if holds and first is None:
            first = s
        if not holds and first is not None:
            raise ValueError(f"dominance is not monotone along this system: "
                             f"holds at stage {first}, fails at stage {s}")
    return first


def check_unperforated(cone: ConeOracle, samples: Iterable, nmax: int) -> Optional[Tuple]:
    """Search for a perforation violation: g outside the cone with n*g
    inside, 2 <= n <= nmax.  None means no violation among the samples;
    a bounded verifier, not a proof (unless the cone is dilation invariant).

    The bare predicate cone.membership is asked once per sample and once per
    (outside sample, n) pair, n ascending, so a run without violation makes
    len(samples) + outside * (nmax - 1) calls.  A tuple sample outside the
    cone dilates coordinatewise: each coordinate's row of dilations
    n*x, n = 2..nmax, is built once per call, as Fraction(a * n, d) for a
    Fraction a/d and x * n for anything else, and shared by every sample
    with that coordinate.  Rows are keyed so that equal coordinates of
    different types (2, Fraction(2), True) keep their own rows.  A
    GradedElement dilates through its scale.
    """
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    contains = cone.membership
    factors = range(2, nmax + 1)
    rows = {}

    def row(x):
        exact = type(x) is Fraction
        # a Fraction's value is its two slots (Fraction.__slots__), read without a call
        key = (x._numerator, x._denominator) if exact else (type(x), x)
        r = rows.get(key)
        if r is None:
            r = rows[key] = ([Fraction(key[0] * n, key[1]) for n in factors]
                             if exact else [x * n for n in factors])
        return r

    for g in samples:
        if contains(g):
            continue
        if hasattr(g, "scale"):
            dilations = map(g.scale, factors)
        else:
            dilations = zip(*map(row, g)) if g else repeat(())
        for n, h in zip(factors, dilations):
            if contains(h):
                return (g, n)
    return None


def verify_perforation_witness(cone: ConeOracle, g, n: int) -> bool:
    """Confirm a perforation witness: n*g positive but g not."""
    if n < 2:
        raise ValueError("a witness needs n >= 2")
    ng = g.scale(n) if hasattr(g, "scale") else tuple([x * n for x in g])
    return cone.contains(ng) and not cone.contains(g)


# -- the concrete cones of the inductive-limit constructions -----------------

def _check_localized(d: int, prime: int) -> bool:
    """Is the denominator d a power of prime?"""
    while d % prime == 0:
        d //= prime
    return d == 1


_EXACT = (int, Fraction)


def halfplane_cone(first_prime: int, second_prime: int) -> ConeOracle:
    """{(x, y) : x > 0, or x = 0 and y >= 0} on Z[1/p] (+) Z[1/q].

    Dilation invariant: n x > 0 iff x > 0 and n y >= 0 iff y >= 0 for
    n >= 1, so n*g in cone iff g in cone and sampled search cannot find a
    violation.

    Elements are pairs of int or Fraction (bool and subclasses included);
    anything else, floats too, raises ValueError, as does a coordinate
    outside the localized group.  An exact Fraction is read from its two
    slots and any other coordinate through as_integer_ratio(), so the
    unperforation sweep's questions cost no Python call beyond this one.
    """

    # denominators already found to be powers of each prime, for this cone
    x_ok, y_ok = set(), set()

    def member(g) -> bool:
        try:
            x, y = g
        except ValueError:
            raise ValueError(f"cone elements are pairs, not {len(g)}-tuples") from None
        if not ((type(x) is Fraction or type(x) is int or isinstance(x, _EXACT))
                and (type(y) is Fraction or type(y) is int or isinstance(y, _EXACT))):
            raise ValueError(f"coordinates must be int or Fraction, not {x!r}, {y!r}")
        # a Fraction's value is its two slots (Fraction.__slots__), read without a call
        xn, dx = (x._numerator, x._denominator) if type(x) is Fraction else x.as_integer_ratio()
        yn, dy = (y._numerator, y._denominator) if type(y) is Fraction else y.as_integer_ratio()
        if dx not in x_ok or dy not in y_ok:
            if not (_check_localized(dx, first_prime) and _check_localized(dy, second_prime)):
                raise ValueError("element outside the localized ambient group")
            x_ok.add(dx)
            y_ok.add(dy)
        return xn > 0 or (xn == 0 and yn >= 0)

    return ConeOracle(member)


def graded_witness_cone(k0_cone: ConeOracle, table: dict) -> ConeOracle:
    """Partial graded order on K_0 (+) K_1 supplied by a scenario.

    Membership is table-driven for graded elements with nonzero K_1 part
    and falls back to the K_0 cone when the K_1 part vanishes; anything
    else is undefined and raises.  The table entries come from the cited
    order computation, not from a derivation performed here.
    """

    def member(g: GradedElement) -> bool:
        if all(x == 0 for x in g.g1):
            return k0_cone.contains(g.g0)
        key = (tuple(Fraction(x) for x in g.g0), tuple(int(x) for x in g.g1))
        if key in table:
            return table[key]
        raise ValueError(f"graded cone oracle is undefined on {g}")

    return ConeOracle(member)


_SAMPLE_SEED = 20250809


def deterministic_localized_samples(first_prime: int, second_prime: int, count: int):
    """Deterministic sample stream of Z[1/p] (+) Z[1/q] pairs
    (Fraction(a, p**i), Fraction(b, q**j)), a and b in [-40, 40], i and j in
    [0, 4].  Each side's 405 coordinates are built once and shared.

    The stream is that of random.Random(_SAMPLE_SEED).randint, drawn a, i, b,
    j per sample, but read from getrandbits directly: randint(lo, hi) is
    lo + r for the first r = getrandbits(k) below n = hi - lo + 1, k the bit
    length of n - 1 (and of n, for n = 81 and 5), which is how Random draws
    below n.  One builtin call per draw replaces randint's three Python
    frames, and the values, so the pinned samples, stay the same.
    """
    import random

    bits = random.Random(_SAMPLE_SEED).getrandbits
    xs = [[Fraction(a, first_prime ** i) for i in range(5)] for a in range(-40, 41)]
    ys = [[Fraction(b, second_prime ** j) for j in range(5)] for b in range(-40, 41)]
    for _ in range(count):
        a = bits(7)
        while a > 80:
            a = bits(7)
        i = bits(3)
        while i > 4:
            i = bits(3)
        b = bits(7)
        while b > 80:
            b = bits(7)
        j = bits(3)
        while j > 4:
            j = bits(3)
        yield (xs[a][i], ys[b][j])
