"""Positivity cones and order comparisons along inductive systems.

Stage cones come from the complexes themselves (kernel coordinates with
nonnegative point ranks); limit cones are supplied as exact membership
oracles.  Unperforation checking is a bounded, sampled verifier, never a
prover; closed-form cones additionally carry a dilation-invariance flag
when n*g in cone iff g in cone holds symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .homind import IndSystem, LimitElement, _walk


@dataclass(frozen=True)
class ConeOracle:
    """Exact membership predicate."""

    membership: Callable
    scaling_invariant: bool = False  # n*g in cone iff g in cone, symbolically

    def contains(self, g) -> bool:
        return bool(self.membership(g))


@dataclass(frozen=True)
class GradedElement:
    """An element of K_0 (+) K_1, components in whatever exact coordinates
    the ambient cone oracle expects."""

    g0: tuple
    g1: tuple

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
    walks = zip(_walk(sys, LimitElement(0, tuple(u)), 0, bound),
                _walk(sys, LimitElement(0, tuple(v)), 0, bound))
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
    """
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    contains = cone.contains
    for g in samples:
        if contains(g):
            continue
        for n in range(2, nmax + 1):
            if contains(_dilate(g, n)):
                return (g, n)
    return None


def verify_perforation_witness(cone: ConeOracle, g, n: int) -> bool:
    """Confirm a perforation witness: n*g positive but g not."""
    if n < 2:
        raise ValueError("a witness needs n >= 2")
    return cone.contains(_dilate(g, n)) and not cone.contains(g)


def _dilate(g, n: int):
    """n*g for a GradedElement or a plain coordinate tuple."""
    return g.scale(n) if hasattr(g, "scale") else tuple([x * n for x in g])


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
    violation; the flag records that symbolic argument.
    """

    def member(g) -> bool:
        x, y = g[0], g[1]
        if not (isinstance(x, _EXACT) and isinstance(y, _EXACT)):
            raise ValueError(f"coordinates must be int or Fraction, not {x!r}, {y!r}")
        if not (_check_localized(x.denominator, first_prime)
                and _check_localized(y.denominator, second_prime)):
            raise ValueError("element outside the localized ambient group")
        xn = x.numerator
        return xn > 0 or (xn == 0 and y.numerator >= 0)

    return ConeOracle(member, scaling_invariant=True)


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


def deterministic_localized_samples(first_prime: int, second_prime: int,
                                    count: int, seed: int = 20250809):
    """Deterministic sample stream of Z[1/p] (+) Z[1/q] pairs."""
    import random

    rng = random.Random(seed)
    for _ in range(count):
        a = rng.randint(-40, 40)
        i = rng.randint(0, 4)
        b = rng.randint(-40, 40)
        j = rng.randint(0, 4)
        yield (Fraction(a, first_prime ** i), Fraction(b, second_prime ** j))
