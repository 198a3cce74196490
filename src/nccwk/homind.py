"""Connecting maps between complexes and the inductive systems they generate.

A map between complexes is described symbolically: each target block lists
the multiset of source evaluations it carries (point evaluations, interior
evaluations, or full paths).  Only this data matters at the K level: ranks
of point evaluations drive K_0 and full-path multiplicities drive K_1.

Inductive systems are stage generators with memoized groups and bondings;
limits are probed by truncation, and the eventually-constant triangulariz-
able systems of interest get identified as localizations of Z^r.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional, Sequence

from .fgab.intmat import (
    IntMatrix,
    invert_unimodular,
    kernel,
    solve_matrix,
    unimodular_completion,
)
from .fgab.groups import (
    FgGroup,
    GroupHom,
    ShortExactSeq,
    is_exact,
    is_pure,
)
from .nccw import (
    CompactIdealSpec,
    KData,
    NccwComplex,
    _complement,
    ideal_complex,
    inclusion_k_maps,
    k_theory,
    make_ideal_spec,
    quotient_complex,
    quotient_k_maps,
)


# -- symbolic evaluations ----------------------------------------------------

@dataclass(frozen=True, order=True)
class AtPoint:
    """Evaluation at the j-th source point (0-based)."""
    j: int


@dataclass(frozen=True, order=True)
class AtInterior:
    """Evaluation at an interior parameter of the i-th source interval block."""
    i: int


@dataclass(frozen=True, order=True)
class FullPath:
    """Identity on the i-th source interval block (a full path in the target)."""
    i: int


def _atom_key(a):
    return (a.__class__.__name__, a.j if isinstance(a, AtPoint) else a.i)


def _atom_size(a, src: NccwComplex) -> int:
    if isinstance(a, AtPoint):
        return src.k[a.j]
    return src.h[a.i]


@dataclass(frozen=True)
class MapDescription:
    """Multiplicity-level description of a homomorphism between complexes.

    f1[j'] is the multiset of evaluations filling the j'-th target point,
    f2[i'] the multiset filling the i'-th target interval block.  Size
    accounting is enforced: consumed dimension per block is at most the
    block size, with equality when the description is flagged unital.
    """

    source: NccwComplex
    target: NccwComplex
    f1: tuple  # length target.p, entries tuples of atoms
    f2: tuple  # length target.l
    unital: bool = True

    def __post_init__(self):
        object.__setattr__(self, "f1", tuple(tuple(sorted(ms, key=_atom_key)) for ms in self.f1))
        object.__setattr__(self, "f2", tuple(tuple(sorted(ms, key=_atom_key)) for ms in self.f2))
        if len(self.f1) != self.target.p or len(self.f2) != self.target.l:
            raise ValueError("one assignment needed per target block")
        for ms in self.f1:
            for a in ms:
                if isinstance(a, FullPath):
                    raise ValueError("a full path cannot land in a point block")
                self._check_atom(a)
        for ms in self.f2:
            for a in ms:
                self._check_atom(a)
        for j, ms in enumerate(self.f1):
            used = sum(_atom_size(a, self.source) for a in ms)
            if used > self.target.k[j]:
                raise ValueError(f"target point {j + 1} overfilled: {used} > {self.target.k[j]}")
            if self.unital and used != self.target.k[j]:
                raise ValueError(f"unital description must fill target point {j + 1}: {used} != {self.target.k[j]}")
        for i, ms in enumerate(self.f2):
            used = sum(_atom_size(a, self.source) for a in ms)
            if used > self.target.h[i]:
                raise ValueError(f"target block {i + 1} overfilled: {used} > {self.target.h[i]}")
            if self.unital and used != self.target.h[i]:
                raise ValueError(f"unital description must fill target block {i + 1}: {used} != {self.target.h[i]}")

    def _check_atom(self, a):
        if isinstance(a, AtPoint):
            if not 0 <= a.j < self.source.p:
                raise ValueError(f"point index {a.j} out of range")
        elif isinstance(a, (AtInterior, FullPath)):
            if not 0 <= a.i < self.source.l:
                raise ValueError(f"interval index {a.i} out of range")
        else:
            raise ValueError(f"unknown evaluation {a!r}")

    def full_path_matrix(self) -> IntMatrix:
        rows = []
        for ms in self.f2:
            counts = [0] * self.source.l
            for a in ms:
                if isinstance(a, FullPath):
                    counts[a.i] += 1
            rows.append(tuple(counts))
        return IntMatrix.from_rows(rows, cols=self.source.l)


def induced_k0(m: MapDescription,
               kd_src: Optional[KData] = None,
               kd_tgt: Optional[KData] = None) -> GroupHom:
    """K_0 of a described map, in the kernel bases of source and target.

    A kernel vector v has rank (alpha v)_i at any interior point of block i,
    so the image rank at a target point is the sum of v_j over point
    evaluations plus (alpha v)_i over interior ones; the result must land
    back in the target kernel.
    """
    kd_src = kd_src or k_theory(m.source)
    kd_tgt = kd_tgt or k_theory(m.target)
    image_cols = []
    for c in range(kd_src.rank):
        v = kd_src.k0_basis.col(c)
        av = m.source.alpha.apply(v)
        w = []
        for ms in m.f1:
            total = 0
            for a in ms:
                total += v[a.j] if isinstance(a, AtPoint) else av[a.i]
            w.append(total)
        if any(x != 0 for x in m.target.delta.apply(w)):
            raise ValueError("image of a K_0 class escapes the target kernel; "
                             "the description is not realizable")
        image_cols.append(tuple(w))
    image = IntMatrix.from_columns(image_cols, rows=m.target.p)
    coords = solve_matrix(kd_tgt.k0_basis, image)
    assert coords is not None  # basis columns span the kernel lattice
    return GroupHom(kd_src.k0, kd_tgt.k0, coords)


def induced_k1(m: MapDescription,
               kd_src: Optional[KData] = None,
               kd_tgt: Optional[KData] = None) -> GroupHom:
    """K_1 of a described map: the full-path multiplicity matrix pushed
    through the cokernel presentations."""
    kd_src = kd_src or k_theory(m.source)
    kd_tgt = kd_tgt or k_theory(m.target)
    N = m.full_path_matrix()
    try:
        return GroupHom(kd_src.k1, kd_tgt.k1, N)
    except ValueError as exc:
        raise ValueError(f"full-path matrix does not descend to cokernels: {exc}") from exc


def maps_equal_on_k(m1: MapDescription, m2: MapDescription) -> bool:
    """Do two descriptions induce the same K_0 and K_1 maps?"""
    if m1.source != m2.source or m1.target != m2.target:
        raise ValueError("descriptions must share source and target")
    kd_s = k_theory(m1.source)
    kd_t = k_theory(m1.target)
    k0_equal = induced_k0(m1, kd_s, kd_t).equals(induced_k0(m2, kd_s, kd_t))
    k1_equal = induced_k1(m1, kd_s, kd_t).equals(induced_k1(m2, kd_s, kd_t))
    return k0_equal and k1_equal


def compose_descriptions(outer: MapDescription, inner: MapDescription) -> MapDescription:
    """Substitution composite outer o inner (inner first)."""
    if inner.target != outer.source:
        raise ValueError("descriptions are not composable")

    def subst(atom, as_interior: bool):
        if isinstance(atom, AtPoint):
            return inner.f1[atom.j]
        ms = inner.f2[atom.i]
        if isinstance(atom, AtInterior) or as_interior:
            return tuple(AtInterior(a.i) if isinstance(a, FullPath) else a for a in ms)
        return ms

    f1 = []
    for ms in outer.f1:
        out = []
        for a in ms:
            out.extend(subst(a, as_interior=True))
        f1.append(tuple(out))
    f2 = []
    for ms in outer.f2:
        out = []
        for a in ms:
            if isinstance(a, FullPath):
                out.extend(subst(a, as_interior=False))
            else:
                out.extend(subst(a, as_interior=True))
        f2.append(tuple(out))
    return MapDescription(inner.source, outer.target, tuple(f1), tuple(f2),
                          unital=inner.unital and outer.unital)


# -- restriction of descriptions to compact ideals and quotients -------------

def description_maps_ideal(m: MapDescription, spec_src: CompactIdealSpec,
                           spec_tgt: CompactIdealSpec) -> bool:
    """Does the described map carry the source ideal into the target ideal?

    Equivalently, no target block outside the ideal consumes an evaluation
    supported on the source ideal.
    """
    s_src, t_src = set(spec_src.S), set(spec_src.T)

    def supported(a):
        if isinstance(a, AtPoint):
            return a.j in s_src
        return a.i in t_src

    for j, ms in enumerate(m.f1):
        if j not in spec_tgt.S and any(supported(a) for a in ms):
            return False
    for i, ms in enumerate(m.f2):
        if i not in spec_tgt.T and any(supported(a) for a in ms):
            return False
    return True


def _relabel(ms, src_pt: dict, src_bl: dict) -> tuple:
    """Evaluations renumbered into a sub-complex of the source; those at
    points or blocks missing from src_pt / src_bl are dropped."""
    out = []
    for a in ms:
        if isinstance(a, AtPoint) and a.j in src_pt:
            out.append(AtPoint(src_pt[a.j]))
        elif isinstance(a, AtInterior) and a.i in src_bl:
            out.append(AtInterior(src_bl[a.i]))
        elif isinstance(a, FullPath) and a.i in src_bl:
            out.append(FullPath(src_bl[a.i]))
    return tuple(out)


def restrict_to_ideal(m: MapDescription, spec_src: CompactIdealSpec,
                      spec_tgt: CompactIdealSpec) -> MapDescription:
    """The induced description between ideal complexes.  Evaluations not
    supported on the source ideal vanish there and are dropped."""
    if not description_maps_ideal(m, spec_src, spec_tgt):
        raise ValueError("description does not map the ideal into the ideal")
    src_pt = {j: a for a, j in enumerate(spec_src.S)}
    src_bl = {i: a for a, i in enumerate(spec_src.T)}

    f1 = tuple(_relabel(m.f1[j], src_pt, src_bl) for j in spec_tgt.S)
    f2 = tuple(_relabel(m.f2[i], src_pt, src_bl) for i in spec_tgt.T)
    return MapDescription(ideal_complex(m.source, spec_src),
                          ideal_complex(m.target, spec_tgt), f1, f2, unital=False)


def restrict_to_quotient(m: MapDescription, spec_src: CompactIdealSpec,
                         spec_tgt: CompactIdealSpec) -> MapDescription:
    """The induced description between quotient complexes; evaluations
    supported on the source ideal are zero in the quotient and are dropped."""
    if not description_maps_ideal(m, spec_src, spec_tgt):
        raise ValueError("description does not map the ideal into the ideal")
    sc, tc = _complement(m.source, spec_src)
    src_pt = {j: a for a, j in enumerate(sc)}
    src_bl = {i: a for a, i in enumerate(tc)}

    tgt_sc, tgt_tc = _complement(m.target, spec_tgt)
    f1 = tuple(_relabel(m.f1[j], src_pt, src_bl) for j in tgt_sc)
    f2 = tuple(_relabel(m.f2[i], src_pt, src_bl) for i in tgt_tc)
    return MapDescription(quotient_complex(m.source, spec_src),
                          quotient_complex(m.target, spec_tgt), f1, f2,
                          unital=m.unital)


# -- inductive systems -------------------------------------------------------

class IndSystem:
    """Sequence of f.g. groups with bonding homs, generated lazily.

    group_at(n) and bonding_at(n) produce the stage-n group and the hom
    from stage n to n + 1; results are memoized.  eventually_constant_from
    is caller-supplied metadata asserting the bonding hom is literally the
    same from that stage on.
    """

    def __init__(self, group_at: Callable[[int], FgGroup],
                 bonding_at: Callable[[int], GroupHom],
                 eventually_constant_from: Optional[int] = None,
                 cone_at: Optional[Callable[[int], Callable]] = None):
        self._group_at = group_at
        self._bonding_at = bonding_at
        self.eventually_constant_from = eventually_constant_from
        self._cone_at = cone_at
        self._groups = {}
        self._bondings = {}

    @staticmethod
    def constant(hom: GroupHom, cone=None) -> "IndSystem":
        if hom.source.generators != hom.target.generators or hom.source.relations != hom.target.relations:
            raise ValueError("constant system needs an endomorphism")
        return IndSystem(lambda n: hom.source, lambda n: hom,
                         eventually_constant_from=0,
                         cone_at=(lambda n: cone) if cone is not None else None)

    @staticmethod
    def from_matrix(M: IntMatrix, cone=None) -> "IndSystem":
        if M.rows != M.cols:
            raise ValueError("bonding matrix must be square")
        G = FgGroup.free(M.rows)
        return IndSystem.constant(GroupHom(G, G, M), cone=cone)

    def group(self, n: int) -> FgGroup:
        if n < 0:
            raise ValueError("stage index must be nonnegative")
        if n not in self._groups:
            self._groups[n] = self._group_at(n)
        return self._groups[n]

    def bonding(self, n: int) -> GroupHom:
        if n not in self._bondings:
            self._bondings[n] = self._bonding_at(n)
        return self._bondings[n]

    def cone_membership(self, n: int) -> Callable:
        if self._cone_at is None:
            raise ValueError("system carries no positivity data")
        return self._cone_at(n)

    def push(self, x: "LimitElement", stage: int) -> tuple:
        """Image of x's vector at the requested (later or equal) stage."""
        if stage < x.stage:
            raise ValueError("cannot push an element to an earlier stage")
        v = self.group(x.stage).check_element(x.vector)
        for s in range(x.stage, stage):
            v = self.bonding(s).apply(v)
        return v


@dataclass(frozen=True)
class LimitElement:
    stage: int
    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(int(x) for x in self.vector))


@dataclass(frozen=True)
class TruncatedSystem:
    groups: tuple    # stages 0..N
    bondings: tuple  # homs n -> n+1 for n < N

    def orbit(self, vec: Sequence[int]) -> list:
        out = [tuple(int(x) for x in vec)]
        for hom in self.bondings:
            out.append(hom.apply(out[-1]))
        return out


def truncate(sys: IndSystem, N: int) -> TruncatedSystem:
    """Materialize stages 0..N (N >= 1): N + 1 groups and N bondings."""
    if N < 1:
        raise ValueError("need at least one bonding")
    groups = tuple(sys.group(n) for n in range(N + 1))
    bondings = tuple(sys.bonding(n) for n in range(N))
    for n in range(N):
        if bondings[n].source.generators != groups[n].generators:
            raise ValueError(f"bonding at stage {n} does not match its group")
    return TruncatedSystem(groups, bondings)


def _walk(sys: IndSystem, x: LimitElement, start: int, stop: int):
    """(s, image of x at stage s) for s = start..stop, carried forward one
    bonding per stage; nothing when stop < start."""
    if stop < start:
        return
    v = sys.push(x, start)
    yield start, v
    for s in range(start, stop):
        v = sys.bonding(s).apply(v)
        yield s + 1, v


@dataclass(frozen=True)
class EqualityVerdict:
    kind: str  # "equal" | "distinct" | "unknown"
    stage: int

    def __str__(self):
        return f"{self.kind} (stage {self.stage})"


def limit_equal(sys: IndSystem, x: LimitElement, y: LimitElement, bound: int) -> EqualityVerdict:
    """Colimit equality of two elements, decided up to the stage bound.

    Distinct needs a certificate: every inspected bonding injective and the
    system declared eventually constant within the bound, so the surviving
    discrepancy can never die later.
    """
    start = max(x.stage, y.stage)
    if bound < start:
        raise ValueError("bound precedes the elements' stages")
    all_injective = True
    for (s, vx), (_, vy) in zip(_walk(sys, x, start, bound), _walk(sys, y, start, bound)):
        if sys.group(s).elements_equal(vx, vy):
            return EqualityVerdict("equal", s)
        if s < bound and not sys.bonding(s).is_injective():
            all_injective = False
    certified = (sys.eventually_constant_from is not None
                 and sys.eventually_constant_from <= bound
                 and all_injective
                 and sys.bonding(bound).is_injective())
    return EqualityVerdict("distinct" if certified else "unknown", bound)


def divisible_in_limit(sys: IndSystem, x: LimitElement, n: int, stage_bound: int) -> Optional[int]:
    """First stage <= bound where the image of x becomes divisible by n
    (divisibility persists forward), or None."""
    if n < 1:
        raise ValueError("divisor must be positive")
    for s, v in _walk(sys, x, x.stage, stage_bound):
        if sys.group(s).divide_element(v, n) is not None:
            return s
    return None


# -- identification of localized limits --------------------------------------

def _char_poly(M: IntMatrix):
    """det(xI - M) as ascending coefficient list (monic), by Berkowitz's
    division-free algorithm (Inf. Proc. Letters 18, 1984).

    Grows the polynomial from the trailing 1x1 block outwards: with
    M = [[a, R], [C, B]], det(xI - M) = T q where q lists det(xI - B)
    descending and T is the lower-triangular Toeplitz matrix with first
    column 1, -a, -RC, -RBC, -RB^2C, ...  O(r^4) integer operations.
    """
    r = M.rows
    rows = M.entries
    q = [1]  # descending coefficients of the trailing block's polynomial
    for k in range(r - 1, -1, -1):
        m = r - 1 - k
        R = rows[k][k + 1:]
        B = [row[k + 1:] for row in rows[k + 1:]]
        t = [1, -rows[k][k]]
        v = [row[k] for row in rows[k + 1:]]
        for _ in range(m):
            t.append(-sum(a * b for a, b in zip(R, v)))
            v = [sum(a * b for a, b in zip(row, v)) for row in B]
        q = [sum(t[i - j] * q[j] for j in range(max(0, i - m - 1), min(i, m) + 1))
             for i in range(m + 2)]
    return q[::-1]


def _deflate(poly, lam):
    """(quotient, remainder) of an ascending poly divided by x - lam; the
    remainder is poly(lam) by Horner's rule."""
    acc = 0
    out = []
    for c in reversed(poly):
        acc = acc * lam + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _sturm_chain(poly):
    """p, p', then negated pseudo-remainders made primitive: each entry is
    a positive multiple of the classical Sturm sequence's, so sign
    variation counts are unchanged."""
    chain = [poly, [k * c for k, c in enumerate(poly)][1:]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        db, lb = len(b) - 1, b[-1]
        scale, sign = abs(lb), 1 if lb > 0 else -1
        while len(a) > db:
            la, shift = a[-1], len(a) - 1 - db
            a = [scale * x for x in a]
            for i, y in enumerate(b):
                a[shift + i] -= sign * la * y
            while a and a[-1] == 0:
                a.pop()
        if not a:
            break
        g = 0
        for x in a:
            g = gcd(g, x)
        chain.append([-(x // g) for x in a])
    return chain


def _variations(chain, m):
    """Sign variations of the chain at m/2, from 2^deg p(m/2) in integers."""
    count = last = 0
    for p in chain:
        acc, w = 0, 1
        for c in reversed(p):
            acc = acc * m + c * w
            w <<= 1
        if acc:
            if last and (acc > 0) != (last > 0):
                count += 1
            last = acc
    return count


def _integer_roots(poly):
    """Distinct integer roots of a monic ascending poly, sorted (-|v|, v).

    Zero roots are stripped first.  The others lie inside the Cauchy bound
    B = 1 + max|c_i|; Sturm counts bisect (-B - 1/2, B + 1/2) at half-
    integers, which are never roots (a rational root of a monic integer
    polynomial is an integer), down to width-1 intervals whose integer is
    confirmed by Horner evaluation.  O(d log B) chain evaluations.
    """
    roots = []
    if poly[0] == 0:
        roots.append(0)
        while poly[0] == 0:
            poly = poly[1:]
    if len(poly) > 1:
        chain = _sturm_chain(poly)
        edge = 2 * max(abs(c) for c in poly[:-1]) + 3  # 2B + 1
        stack = [(-edge, _variations(chain, -edge), edge, _variations(chain, edge))]
        while stack:
            lo, vlo, hi, vhi = stack.pop()
            if vlo == vhi:
                continue
            if hi - lo == 2:
                if _deflate(poly, (lo + 1) // 2)[1] == 0:
                    roots.append((lo + 1) // 2)
                continue
            mid = lo + 2 * ((hi - lo) // 4)
            vmid = _variations(chain, mid)
            stack.append((lo, vlo, mid, vmid))
            stack.append((mid, vmid, hi, vhi))
    return sorted(roots, key=lambda v: (-abs(v), v))


def _integer_eigenvalues(M: IntMatrix):
    """Distinct integer eigenvalues of M, sorted (-|v|, v), in time
    polynomial in the rank and the entries' bit size."""
    return _integer_roots(_char_poly(M))


def _triangularize(M: IntMatrix) -> Optional[IntMatrix]:
    """Unimodular P with P^-1 M P upper triangular, via integer eigenflags,
    or None when none exists.

    Such a P exists iff det(xI - M) splits into integer linear factors: an
    integer eigenvalue has a primitive integer eigenvector, which completes
    to a unimodular basis, and the complementary block's polynomial is the
    quotient.  So the roots are taken with multiplicity by synthetic
    division, a leftover factor of positive degree returns None, and the
    flags are split off in (-|v|, v) order, one kernel and one completion
    per eigenvalue: polynomial in r and the entries' bit size.
    """
    r = M.rows
    poly = _char_poly(M)
    roots = []
    for lam in _integer_roots(poly):
        while True:
            quotient, rem = _deflate(poly, lam)
            if rem:
                break
            poly = quotient
            roots.append(lam)
    if len(poly) > 1:
        return None
    P = IntMatrix.identity(r)
    N = M
    for k, lam in enumerate(roots[:-1]):
        n = r - k
        K = kernel(N - IntMatrix.identity(n).scale(lam))
        v = list(K.col(0))
        g = 0
        for x in v:
            g = gcd(g, x)
        P1 = unimodular_completion([x // g for x in v])
        N = (invert_unimodular(P1) @ N @ P1).submatrix(range(1, n), range(1, n))
        emb = [[int(i == j) for j in range(r)] for i in range(r)]
        for i in range(n):
            for j in range(n):
                emb[k + i][k + j] = P1[i, j]
        P = P @ IntMatrix.from_rows(emb, cols=r)
    return P


def _decouple(T: IntMatrix, P: IntMatrix):
    """Kill off-diagonal entries of an upper-triangular T by unimodular
    conjugation wherever (t_ii - t_jj) divides the entry."""
    r = T.rows
    T = [list(row) for row in T.entries]
    P = [list(row) for row in P.entries]
    for offset in range(1, r):
        for i in range(r - offset):
            j = i + offset
            c = T[i][j]
            d = T[i][i] - T[j][j]
            if c == 0 or d == 0 or c % d != 0:
                continue
            x = -c // d
            # conjugate by I + x E_ij: T stays upper triangular
            for kk in range(r):
                T[kk][j] += x * T[kk][i]
            for kk in range(r):
                T[i][kk] -= x * T[j][kk]
            for kk in range(r):
                P[kk][j] += x * P[kk][i]
    return (IntMatrix.from_rows([tuple(row) for row in T], cols=r),
            IntMatrix.from_rows([tuple(row) for row in P], cols=r))


def _prime_set(n: int) -> frozenset:
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def _radical(n: int) -> int:
    out = 1
    for q in _prime_set(n):
        out *= q
    return out


@dataclass(frozen=True)
class LocalizedLimit:
    """Limit identified as (+) Z[1/s_i] (+) fixed torsion.

    basis columns are stage coordinates (at the constancy stage) of the
    free generators; the i-th one becomes divisible by every power of s_i.
    """

    stage: int
    diagonal: tuple    # one positive integer per free summand
    basis: IntMatrix
    torsion: tuple     # invariant factors of the fixed torsion part

    def localization_multiset(self) -> tuple:
        return tuple(sorted(_radical(s) for s in self.diagonal))

    def describe(self) -> str:
        parts = []
        for s in sorted(_radical(x) for x in self.diagonal):
            parts.append("Z" if s == 1 else f"Z[1/{s}]")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def identify_localized_limit(sys: IndSystem, confirm_stages: int = 2) -> Optional[LocalizedLimit]:
    """Pattern-match the limit of an eventually constant system.

    Free stage group: search a unimodular basis making the bonding matrix
    upper triangular and then decoupled; accepted when fully diagonal, or
    when every residual coupling only feeds summands sharing all primes of
    the leaking diagonal entry.  Torsion groups are identified only when
    the constant bonding is an isomorphism.  Returns None when the pattern
    is not detected.
    """
    n0 = sys.eventually_constant_from
    if n0 is None:
        return None
    hom = sys.bonding(n0)
    G = sys.group(n0)
    for extra in range(1, confirm_stages + 1):
        later = sys.bonding(n0 + extra)
        if later.matrix != hom.matrix or later.source.relations != hom.source.relations:
            return None
    if G.torsion_orders:
        ident = GroupHom.identity(G)
        if hom.equals(ident):
            return LocalizedLimit(n0, (1,) * G.free_rank,
                                  IntMatrix.identity(G.generators), G.torsion_orders)
        return None
    if hom.matrix.rows != hom.matrix.cols:
        return None
    # pass to diagonal coordinates and keep the honestly free block; the
    # presentation may carry redundant generators killed by unit factors
    snf = G.presentation_smith
    free_idx = [i for i, d in enumerate(G.diagonal_orders) if d == 0]
    Md = snf.U @ hom.matrix @ snf.Uinv
    M = Md.submatrix(free_idx, free_idx)
    gen_basis = snf.Uinv.submatrix(range(G.generators), free_idx)
    if M.rows == 0:
        return LocalizedLimit(n0, (), gen_basis, ())
    P = _triangularize(M)
    if P is None:
        return None
    T = invert_unimodular(P) @ M @ P
    T, P = _decouple(T, P)
    P = gen_basis @ P
    r = T.rows
    diag = tuple(T[i, i] for i in range(r))
    if any(s == 0 for s in diag):
        return None
    # residual couplings must stay inside compatible prime support
    reach = {i: {i} for i in range(r)}
    for _ in range(r):
        for j in range(r):
            for i in range(j):
                if T[i, j] != 0:
                    reach[j] |= reach[i]
    for j in range(r):
        pj = _prime_set(diag[j])
        for i in reach[j]:
            if i != j and not pj <= _prime_set(diag[i]):
                return None
    return LocalizedLimit(n0, tuple(abs(s) for s in diag), P, ())


# -- purity along a compatible ladder of systems ------------------------------

@dataclass(frozen=True)
class LadderPurity:
    kind: str  # "pure_through" | "nonpure_witness" | "stationary_verdict"
    stage: int
    limit_pure: Optional[bool] = None

    def __str__(self):
        if self.kind == "pure_through":
            return f"pure through stage {self.stage}"
        if self.kind == "nonpure_witness":
            return f"purity fails at stage {self.stage} (limit verdict open)"
        return (f"stationary from stage {self.stage}: the limit sequence itself is "
                + ("pure" if self.limit_pure else "not pure"))


def limit_ses_purity(sys_i: IndSystem, sys_e: IndSystem, sys_q: IndSystem,
                     incl_at: Callable[[int], GroupHom],
                     proj_at: Callable[[int], GroupHom],
                     N: int) -> LadderPurity:
    """Stage-wise purity along 0 -> I_n -> E_n -> Q_n -> 0 up to stage N.

    All ladder squares must commute.  A purity failure at a stage where all
    three systems have become stationary (identity bondings onward) is a
    verdict about the limit sequence itself, since the sequence no longer
    changes.
    """
    for n in range(N):
        if not incl_at(n + 1).compose(sys_i.bonding(n)).equals(sys_e.bonding(n).compose(incl_at(n))):
            raise ValueError(f"inclusion square does not commute at stage {n}")
        if not proj_at(n + 1).compose(sys_e.bonding(n)).equals(sys_q.bonding(n).compose(proj_at(n))):
            raise ValueError(f"projection square does not commute at stage {n}")
    first_bad = None
    for n in range(N + 1):
        seq = ShortExactSeq(incl_at(n), proj_at(n))
        if not is_exact(seq):
            raise ValueError(f"stage {n} sequence is not exact")
        if not is_pure(seq):
            first_bad = n
            break
    if first_bad is None:
        return LadderPurity("pure_through", N)

    # isomorphism bondings from the failing stage on (identities up to
    # presentation) freeze the sequence, so the stage verdict is the limit's
    def stationary(sys):
        return all(sys.bonding(s).is_isomorphism() for s in range(first_bad, N))

    if stationary(sys_i) and stationary(sys_e) and stationary(sys_q):
        return LadderPurity("stationary_verdict", first_bad, limit_pure=False)
    return LadderPurity("nonpure_witness", first_bad)


# -- families of complexes ----------------------------------------------------

class ComplexFamily:
    """A stage-indexed family of complexes with self-similar bonding maps."""

    def __init__(self, complex_at: Callable[[int], NccwComplex],
                 bonding_at: Callable[[int], MapDescription],
                 basis_at: Optional[Callable[[int], IntMatrix]] = None):
        self.complex_at = complex_at
        self.bonding_at = bonding_at
        self.basis_at = basis_at
        self._kd = {}

    def complex(self, n: int) -> NccwComplex:
        return self.complex_at(n)

    def kdata(self, n: int) -> KData:
        if n not in self._kd:
            basis = self.basis_at(n) if self.basis_at else None
            self._kd[n] = k_theory(self.complex_at(n), basis)
        return self._kd[n]

    def bonding(self, n: int) -> MapDescription:
        m = self.bonding_at(n)
        if m.source != self.complex_at(n) or m.target != self.complex_at(n + 1):
            raise ValueError(f"bonding at stage {n} does not connect the right complexes")
        return m

    def k0_system(self, eventually_constant_from: Optional[int] = None) -> IndSystem:
        return IndSystem(
            lambda n: self.kdata(n).k0,
            lambda n: induced_k0(self.bonding(n), self.kdata(n), self.kdata(n + 1)),
            eventually_constant_from=eventually_constant_from,
            cone_at=lambda n: self.kdata(n).cone_contains)

    def k1_system(self, eventually_constant_from: Optional[int] = None) -> IndSystem:
        return IndSystem(
            lambda n: self.kdata(n).k1,
            lambda n: induced_k1(self.bonding(n), self.kdata(n), self.kdata(n + 1)),
            eventually_constant_from=eventually_constant_from)

    def ideal_spec(self, n: int, S: Sequence[int]) -> CompactIdealSpec:
        return make_ideal_spec(self.complex_at(n), S)

    def ideal_family(self, S: Sequence[int]) -> "ComplexFamily":
        S = tuple(S)
        return ComplexFamily(
            lambda n: ideal_complex(self.complex_at(n), self.ideal_spec(n, S)),
            lambda n: restrict_to_ideal(self.bonding(n), self.ideal_spec(n, S),
                                        self.ideal_spec(n + 1, S)))

    def quotient_family(self, S: Sequence[int]) -> "ComplexFamily":
        S = tuple(S)
        return ComplexFamily(
            lambda n: quotient_complex(self.complex_at(n), self.ideal_spec(n, S)),
            lambda n: restrict_to_quotient(self.bonding(n), self.ideal_spec(n, S),
                                           self.ideal_spec(n + 1, S)))


@dataclass(frozen=True)
class IdealLadder:
    """The three systems of a compact-ideal extension along a family, with
    the stage-wise inclusion and projection homs, per K degree."""

    sys_ideal: IndSystem
    sys_total: IndSystem
    sys_quotient: IndSystem
    incl_at: Callable[[int], GroupHom]
    proj_at: Callable[[int], GroupHom]


def compact_ideal_ladder(family: ComplexFamily, S: Sequence[int], degree: int,
                         eventually_constant_from: Optional[int] = None) -> IdealLadder:
    S = tuple(S)
    fam_i = family.ideal_family(S)
    fam_q = family.quotient_family(S)
    if degree == 0:
        sys_i, sys_e, sys_q = fam_i.k0_system(eventually_constant_from), \
            family.k0_system(eventually_constant_from), fam_q.k0_system(eventually_constant_from)
    elif degree == 1:
        sys_i, sys_e, sys_q = fam_i.k1_system(eventually_constant_from), \
            family.k1_system(eventually_constant_from), fam_q.k1_system(eventually_constant_from)
    else:
        raise ValueError("degree must be 0 or 1")

    def incl_at(n: int) -> GroupHom:
        spec = family.ideal_spec(n, S)
        maps = inclusion_k_maps(family.complex_at(n), spec, family.kdata(n), fam_i.kdata(n))
        return maps[degree]

    def proj_at(n: int) -> GroupHom:
        spec = family.ideal_spec(n, S)
        maps = quotient_k_maps(family.complex_at(n), spec, family.kdata(n), fam_q.kdata(n))
        return maps[degree]

    return IdealLadder(sys_i, sys_e, sys_q, incl_at, proj_at)
