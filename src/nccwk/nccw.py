"""1-dimensional NCCW complexes as multiplicity data, and their K-theory.

A complex is the tuple (p, l, k, h, alpha, beta): p matrix-algebra points
with sizes k, l interval blocks with sizes h, and two nonnegative l x p
multiplicity matrices recording the endpoint conditions.  K_0 is the
kernel of alpha - beta and K_1 its cokernel; the positivity cone on K_0
is the set of kernel vectors with nonnegative point coordinates.

Compact ideals (those generated by projections) are parameterized by the
set S of points they contain; the adjacent interval blocks are forced.
The K data of a complex and of its compact ideals and quotients depend on
delta = alpha - beta alone, so the K layer takes delta; for the odd tower:

>>> kd = k_theory(IntMatrix.from_rows([[2, -2, 0], [1, -1, 0]]))
>>> str(kd.k0), str(kd.k1), str(kd.k0_basis)
('Z (+) Z', 'Z', '[1 0; 1 0; 0 1]')

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .fgab.intmat import Frozen, IntMatrix, Value, kernel, solve_matrix, spans
from .fgab.groups import FgGroup, GroupHom, ShortExactSeq, cokernel


class NccwComplex(Value):
    """Multiplicity data of a 1-NCCW complex; indices are 0-based internally.
    A hashable Value (maps_equal_on_k and compose_descriptions compare
    complexes); delta and pattern are remembered in the instance __dict__."""

    __slots__ = ("k", "h", "alpha", "beta", "unital", "__dict__")
    __hash__ = Value.field_hash

    def __init__(self, k: tuple, h: tuple, alpha: IntMatrix, beta: IntMatrix, unital: bool = True):
        # k: point block sizes, length p; h: interval block sizes, length l;
        # alpha and beta: l x p
        p, l = len(k), len(h)
        if alpha.rows != l or alpha.cols != p or beta.rows != l or beta.cols != p:
            raise ValueError(f"alpha and beta must be {l}x{p}")
        if any(s <= 0 for s in k) or any(s <= 0 for s in h):
            raise ValueError("block sizes must be positive")
        rows = (alpha.entries, beta.entries)
        for M in rows:
            if any(x < 0 for row in M for x in row):
                raise ValueError("multiplicities must be nonnegative")
        for i in range(l):
            for M in rows:
                s = sum(m * kk for m, kk in zip(M[i], k))
                if s > h[i]:
                    raise ValueError(f"size accounting fails in interval block {i + 1}: {s} > {h[i]}")
                if unital and s != h[i]:
                    raise ValueError(f"unital complex needs equality in block {i + 1}: {s} != {h[i]}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "unital", unital)

    @property
    def p(self) -> int:
        return len(self.k)

    @property
    def l(self) -> int:
        return len(self.h)

    @cached_property
    def delta(self) -> IntMatrix:
        return self.alpha - self.beta

    @cached_property
    def pattern(self) -> tuple:
        """Where alpha or beta is nonzero, as rows: with delta, all the verdicts read."""
        return tuple(tuple(bool(x or y) for x, y in zip(ra, rb))
                     for ra, rb in zip(self.alpha.entries, self.beta.entries))

    @staticmethod
    def direct_sum(*parts: "NccwComplex") -> "NccwComplex":
        return NccwComplex(tuple(x for c in parts for x in c.k), tuple(x for c in parts for x in c.h),
                           IntMatrix.block_diag(*(c.alpha for c in parts)),
                           IntMatrix.block_diag(*(c.beta for c in parts)),
                           unital=all(c.unital for c in parts))

    def __str__(self):
        return f"NCCW(p={self.p}, l={self.l}, k={list(self.k)}, h={list(self.h)})"


class KData(Value):
    """K-groups of alpha - beta with the kernel basis made explicit.  It is a
    Value: the tests compare the K data of two complexes with one delta."""

    __slots__ = ("k0",        # free group on the kernel basis columns
                 "k0_basis",  # p x rank, a Z-basis of ker(alpha - beta)
                 "k1",        # presented on Z^l by the columns of delta
                 "delta")     # the alpha - beta these groups are for

    @property
    def rank(self) -> int:
        return self.k0_basis.cols

    def check_delta(self, delta: IntMatrix, name: str) -> None:
        """Raise a ValueError naming the argument `name` unless this is the
        K data of a complex with this alpha - beta."""
        if self.delta != delta:
            raise ValueError(f"{name} is the K data of another complex: it was computed "
                             f"for alpha - beta = {self.delta}, not {delta}")

    def ambient(self, v: Sequence[int]) -> tuple:
        """Kernel coordinates -> point coordinates in Z^p."""
        return self.k0_basis.apply(v)

    def cone_contains(self, v: Sequence[int]) -> bool:
        """Membership of a K_0 class (kernel coordinates) in the cone."""
        return all(x >= 0 for x in self.ambient(v))


def k_theory(delta: IntMatrix, basis: Optional[IntMatrix] = None) -> KData:
    """K data of every complex with this delta = alpha - beta; an explicit
    kernel basis may be supplied and is verified to span the kernel lattice."""
    computed = kernel(delta)
    if basis is None:
        basis = computed
    else:
        if basis.rows != delta.cols:
            raise ValueError("basis has wrong ambient dimension")
        if not (delta @ basis).is_zero():
            raise ValueError("supplied basis does not lie in the kernel")
        if not (spans(basis, computed) and spans(computed, basis)):
            raise ValueError("supplied columns do not span the kernel lattice")
    return KData(FgGroup.free(basis.cols), basis, cokernel(delta), delta)


class CompactIdealSpec(Value):
    """Support of a projection-generated ideal, as plain index sets: the
    points S it contains plus the forced adjacent interval blocks T.  A
    hashable Value: the tests compare and collect the witnesses."""

    __slots__ = ("S",  # sorted 0-based point indices
                 "T")  # sorted 0-based interval indices, always adj(S)
    __hash__ = Value.field_hash


def adjacent_blocks(pattern: tuple, S: Sequence[int]) -> tuple:
    return tuple(i for i, row in enumerate(pattern) if any(row[j] for j in S))


def _minimal_supports(delta: IntMatrix, points: Sequence[int]) -> list:
    """The minimal supports inside `points` of the nonnegative vectors in
    ker(delta), each as a frozenset of points.

    S is minimal iff delta[:, S] has nullity 1 and its kernel generator has
    one strict sign: an elementary vector of ker(delta) (Rockafellar, "The
    elementary vectors of a subspace of R^N", 1969).  Subsets are scanned by
    size up to rank(delta) + 1 (a larger delta[:, S] has nullity at least
    2), and supersets of a minimal support found so far are skipped.
    """
    nullity = kernel(delta).cols
    largest = min(len(points), delta.cols - nullity + 1) if nullity else 0
    found = []
    for size in range(1, largest + 1):
        for S in combinations(points, size):
            if any(m.issubset(S) for m in found):
                continue
            K = kernel(delta.submatrix(range(delta.rows), S))
            if K.cols == 1 and (all(x > 0 for x in K.col(0)) or all(x < 0 for x in K.col(0))):
                found.append(frozenset(S))
    return found


def make_ideal_spec(A: NccwComplex, S: Sequence[int]) -> CompactIdealSpec:
    """Validated ideal support; raises if no projection has exactly this
    point support, that is unless S is the union of the minimal supports
    inside it (a witness for delta[T, S], padded with zeros, lies in
    ker(delta), so S must be the support of a vector in its cone)."""
    S = tuple(sorted(set(S)))
    if any(j < 0 or j >= A.p for j in S):
        raise ValueError("S must be a subset of the point indices")
    if set().union(*_minimal_supports(A.delta, S)) != set(S):
        raise ValueError(
            f"no projection-generated ideal has point support {[j + 1 for j in S]}")
    return CompactIdealSpec(S, adjacent_blocks(A.pattern, S))


def all_ideal_specs(delta: IntMatrix, pattern: tuple, minimal: Optional[list] = None) -> list:
    """Every valid compact-ideal support, by size then lexicographically:
    the unions of the minimal supports, point sets as _minimal_supports
    lists them (default: one scan over all points, made here)."""
    minimal = _minimal_supports(delta, range(delta.cols)) if minimal is None else minimal
    closure = {frozenset()}
    for m in minimal:
        closure |= {c.union(m) for c in closure}
    supports = sorted((tuple(sorted(c)) for c in closure), key=lambda S: (len(S), S))
    return [CompactIdealSpec(S, adjacent_blocks(pattern, S)) for S in supports]


def _complement(delta: IntMatrix, spec: CompactIdealSpec):
    """The points S^c and interval blocks T^c of the quotient."""
    return (tuple(j for j in range(delta.cols) if j not in spec.S),
            tuple(i for i in range(delta.rows) if i not in spec.T))


def _subcomplex(A: NccwComplex, points: tuple, blocks: tuple) -> NccwComplex:
    k = tuple(A.k[j] for j in points)
    h = tuple(A.h[i] for i in blocks)
    alpha = A.alpha.submatrix(blocks, points)
    beta = A.beta.submatrix(blocks, points)
    unital = all(sum(M[i, j] * k[j] for j in range(len(k))) == h[i]
                 for i in range(len(h)) for M in (alpha, beta))
    return NccwComplex(k, h, alpha, beta, unital=unital)


def ideal_complex(A: NccwComplex, spec: CompactIdealSpec) -> NccwComplex:
    return _subcomplex(A, spec.S, spec.T)


def quotient_complex(A: NccwComplex, spec: CompactIdealSpec) -> NccwComplex:
    return _subcomplex(A, *_complement(A.delta, spec))


def inclusion_k_maps(delta: IntMatrix, spec: CompactIdealSpec, kd: KData, kd_ideal: KData):
    """(K_0, K_1) of the embedding of the compact ideal, in the K_0 bases of
    kd (the K data of delta) and kd_ideal (that of delta[T, S]).

    K_0 zero-pads ideal kernel coordinates into Z^p and re-expresses them in
    kd's kernel basis; K_1 zero-pads Z^T into Z^l and descends to cokernels.
    """
    p, l = delta.cols, delta.rows
    kd.check_delta(delta, "kd")
    kd_ideal.check_delta(delta.submatrix(spec.T, spec.S), "kd_ideal")
    padded = IntMatrix.identity(p).submatrix(range(p), spec.S) @ kd_ideal.k0_basis
    coords = solve_matrix(kd.k0_basis, padded)
    if coords is None:
        raise ValueError("padded ideal kernel escapes the kernel of the complex")
    k0 = GroupHom(kd_ideal.k0, kd.k0, coords)
    k1 = GroupHom(kd_ideal.k1, kd.k1, IntMatrix.identity(l).submatrix(range(l), spec.T))
    return k0, k1


def quotient_k_maps(delta: IntMatrix, spec: CompactIdealSpec, kd: KData, kd_quot: KData):
    """(K_0, K_1) of the quotient map onto the complement blocks, in the K_0
    bases of kd (the K data of delta) and kd_quot (that of delta[T^c, S^c])."""
    Sc, Tc = _complement(delta, spec)
    kd.check_delta(delta, "kd")
    kd_quot.check_delta(delta.submatrix(Tc, Sc), "kd_quot")
    restricted = kd.k0_basis.submatrix(Sc, range(kd.rank))
    coords = solve_matrix(kd_quot.k0_basis, restricted)
    if coords is None:
        raise ValueError("restricted kernel escapes the quotient kernel")
    k0 = GroupHom(kd.k0, kd_quot.k0, coords)
    k1 = GroupHom(kd.k1, kd_quot.k1, IntMatrix.identity(delta.rows).submatrix(Tc, range(delta.rows)))
    return k0, k1


def k_sequences(delta: IntMatrix, spec: CompactIdealSpec, kd: Optional[KData] = None,
                kd_ideal: Optional[KData] = None, kd_quot: Optional[KData] = None):
    """The candidate rows 0 -> K_j(I) -> K_j(A) -> K_j(A/I) -> 0, j = 0, 1, of
    a complex A with this delta, from the K data of delta, delta[T, S] and
    delta[T^c, S^c] where supplied, computed here otherwise: the one
    K-level builder that fills in K data it was not given."""
    Sc, Tc = _complement(delta, spec)
    kd = kd or k_theory(delta)
    i0, i1 = inclusion_k_maps(delta, spec, kd, kd_ideal or k_theory(delta.submatrix(spec.T, spec.S)))
    q0, q1 = quotient_k_maps(delta, spec, kd, kd_quot or k_theory(delta.submatrix(Tc, Sc)))
    return ShortExactSeq(i0, q0), ShortExactSeq(i1, q1)


def _boundary_vanishes(delta: IntMatrix, spec: CompactIdealSpec) -> bool:
    """Whether both K rows of the support are exact.

    With delta_I = delta[T, S] and delta_Q = delta[T^c, S^c], delta[T^c, S]
    is zero, so 0 -> I -> A -> A/I -> 0 is a short exact sequence of
    two-term complexes.  The snake lemma makes
    0 -> K_0(I) -> K_0(A) -> K_0(A/I) -> K_1(I) -> K_1(A) -> K_1(A/I) -> 0
    exact, with boundary x -> delta[T, S^c] x mod im(delta_I) on
    ker(delta_Q), so both rows are exact iff it vanishes on a basis (the
    empty and the full support need no test).
    """
    if len(spec.S) in (0, delta.cols):
        return True
    Sc, Tc = _complement(delta, spec)
    delta_i = delta.submatrix(spec.T, spec.S)
    link = delta.submatrix(spec.T, Sc)
    return spans(delta_i, link @ kernel(delta.submatrix(Tc, Sc)))


@lru_cache(maxsize=None)
def _torsion_cokernel(rows: tuple) -> Optional[FgGroup]:
    """The cokernel of the matrix with these rows if it has torsion, else
    None: the guard of odd_witnesses, cached on the rows it reads."""
    G = cokernel(IntMatrix.from_rows(rows))
    return G if G.torsion_orders else None


def odd_witnesses(delta: IntMatrix, pattern: tuple, minimal: Optional[list] = None):
    """The supports whose K rows are exact but not pure, in all_ideal_specs
    order, of every complex with this delta = alpha - beta and this nonzero
    pattern of alpha or beta.

    K_0(A/I) is free, and an exact row onto a free K_1(A/I) = coker delta_Q
    splits, so only a support with torsion in coker delta_Q can be a
    witness.  The blocks T^c touch no point of S, so coker delta_Q =
    coker delta[T^c, :] depends on T = adj(S) alone; it is read first, for
    every union T of the points' adjacent blocks, from _torsion_cokernel,
    which builds each group once per tuple of delta's rows outside T: its
    cache, like smith_normal_form's, lives for the process, and the many
    deltas of a search share few such tuples.  A witness lies inside
    P, the points j with adj(j) inside some T with torsion, and a minimal
    support inside P is one of ker(delta): minimal supports are scanned
    inside P alone, or, given the scan over all points (minimal, from
    classify_block), its members inside P are kept.  For an exact row,
    Miyata's theorem makes the K_1 row split iff K_1(A) is isomorphic to
    K_1(I) (+) K_1(A/I), which is FgGroup.is_sum_of, as in is_pure.  No K
    row is built: harness.search re-verifies both properties on built rows.
    """
    adjacent = [frozenset(i for i, row in enumerate(pattern) if row[j]) for j in range(delta.cols)]
    unions = set()
    for blocks in adjacent:
        unions |= {u | blocks for u in unions} | {blocks}
    k1_q = {T: G for T in (tuple(sorted(u)) for u in unions)
            if (G := _torsion_cokernel(tuple(row for i, row in enumerate(delta.entries)
                                             if i not in T))) is not None}
    if not k1_q:
        return
    k1 = cokernel(delta)
    points = [j for j, blocks in enumerate(adjacent) if any(blocks.issubset(T) for T in k1_q)]
    minimal = (_minimal_supports(delta, points) if minimal is None
               else [m for m in minimal if m.issubset(points)])
    for spec in all_ideal_specs(delta, pattern, minimal):
        if 0 < len(spec.S) < delta.cols and spec.T in k1_q and _boundary_vanishes(delta, spec):
            if not k1.is_sum_of(cokernel(delta.submatrix(spec.T, spec.S)), k1_q[spec.T]):
                yield spec


class BlockClass(Enum):
    NICE = "nice"
    ODD = "odd"


class Classification(Frozen):
    """classify_block's verdict; nothing compares verdicts."""

    # specs whose rows fail exactness (boundary maps nonzero), then the
    # exact but non-pure specs
    __slots__ = ("nonexact_witnesses", "nonpure_witnesses", "specs_checked")

    @property
    def odd_witness(self) -> Optional[CompactIdealSpec]:
        return self.nonpure_witnesses[0] if self.nonpure_witnesses else None

    @property
    def verdict(self) -> BlockClass:
        return BlockClass.ODD if self.nonpure_witnesses else BlockClass.NICE

    def __str__(self):
        extra = ""
        if self.nonexact_witnesses:
            bad = [[j + 1 for j in s.S] for s in self.nonexact_witnesses]
            extra = f"; supports with nontrivial boundary maps: {bad}"
        if self.verdict is BlockClass.ODD:
            return f"odd (witness S = {[j + 1 for j in self.odd_witness.S]}{extra})"
        return f"nice ({self.specs_checked} ideal supports checked{extra})"


def classify_block(A: NccwComplex) -> Classification:
    """Odd or nice, by exhausting the compact-ideal supports.

    Odd means: some compact ideal has trivial boundary maps (both K rows
    exact) but a non-pure row.  Nice means no such witness exists; purity
    is only meaningful for exact rows, so supports with nontrivial
    boundary maps do not disqualify a complex: they are diagnostics, one
    boundary test per support of all_ideal_specs (the supports checked).
    One scan over all points lists the minimal supports; the verdict is
    decided first from it, by odd_witnesses, then the diagnostics list
    its unions.  A is read through delta and pattern.

    Cost: the minimal supports take up to 2^p rank tests, and the supports,
    the faces of a cone, can be exponential in number; every one is
    visited.  The double description method (Fukuda & Prodon, "Double
    description method revisited", 1996) gives the extreme rays directly.
    """
    minimal = _minimal_supports(A.delta, range(A.p))
    witnesses = tuple(odd_witnesses(A.delta, A.pattern, minimal))
    specs = all_ideal_specs(A.delta, A.pattern, minimal)
    nonexact = tuple(spec for spec in specs if not _boundary_vanishes(A.delta, spec))
    return Classification(nonexact, witnesses, len(specs))
