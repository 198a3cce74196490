"""Finitely generated abelian groups as presentations, and their homs.

A group is Z^g modulo the column span of a relation matrix; it reads its
invariants off the Smith form once, when it is built, and smith_normal_form's
cache is the only copy of that form.  Elements are integer vectors on the
generators; equality, divisibility and exactness reduce to integer linear
solvability, which the Smith form decides exactly, and splitting of an exact
row reduces to isomorphism type: FgGroup.is_sum_of is the one such test
(Miyata's theorem, see is_pure).  Homs meet only at equal groups (FgGroup
==: same generators, same relations), never at equal generator counts;
compose, equals, exact_at, ShortExactSeq and check_ladder share this rule.

>>> G = FgGroup.from_cyclic([2, 0])
>>> str(G)
'Z (+) Z/2'
>>> G.is_isomorphic_to(FgGroup.direct_sum(FgGroup.free(1), FgGroup.from_cyclic([2])))
True
>>> G.is_sum_of(FgGroup.free(1), FgGroup.from_cyclic([2])), G.is_sum_of(FgGroup.free(1), G)
(True, False)
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import index
from typing import Optional, Sequence

from .intmat import (
    Frozen,
    IntMatrix,
    _solve_columns,
    lattice_preimage,
    smith_normal_form,
    solve,
    spans,
)


class FgGroup(Frozen):
    """Z^generators / columnspan(relations); equality, hashing and repr
    read these two fields alone, not the invariants __init__ sets.  The
    homs compare groups (compose, equals, exact_at), and the repr is a
    value: an equal group built apart has the same repr."""

    __slots__ = ("generators", "relations", "diagonal_orders", "free_rank", "torsion_orders")

    def __init__(self, generators: int, relations: IntMatrix):
        if relations.rows != generators:
            raise ValueError("relation matrix must have one row per generator")
        # one order per generator (0 = Z): the invariant-factor chain,
        # padded with 0 for generators no relation hits
        d = smith_normal_form(relations).invariant_factors
        orders = d + (0,) * (generators - len(d))
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "diagonal_orders", orders)
        object.__setattr__(self, "free_rank", orders.count(0))
        object.__setattr__(self, "torsion_orders", tuple([x for x in orders if x > 1]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.relations) == (other.generators, other.relations)

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __repr__(self):
        return f"FgGroup({self.generators}, {self.relations!r})"

    @staticmethod
    def free(rank: int) -> "FgGroup":
        return FgGroup(rank, IntMatrix.zero(rank, 0))

    @staticmethod
    def from_cyclic(orders: Sequence[int]) -> "FgGroup":
        """Direct sum of cyclic groups Z/d (d = 0 meaning Z)."""
        g = len(orders)
        cols = [tuple(orders[i] if i == j else 0 for i in range(g)) for j in range(g) if orders[j] != 0]
        return FgGroup(g, IntMatrix.from_columns(cols, rows=g))

    @staticmethod
    def direct_sum(*parts: "FgGroup") -> "FgGroup":
        return FgGroup(sum(p.generators for p in parts),
                       IntMatrix.block_diag(*(p.relations for p in parts)))

    def iso_class(self) -> tuple:
        return (self.free_rank, self.torsion_orders)

    def is_isomorphic_to(self, other: "FgGroup") -> bool:
        return self.iso_class() == other.iso_class()

    def is_sum_of(self, H: "FgGroup", Q: "FgGroup") -> bool:
        """Whether this group is isomorphic to H (+) Q."""
        return self.is_isomorphic_to(FgGroup.from_cyclic(H.diagonal_orders + Q.diagonal_orders))

    # -- elements ---------------------------------------------------------

    def check_element(self, v: Sequence[int]) -> tuple:
        v = tuple(map(index, v))
        if len(v) != self.generators:
            raise ValueError(f"element length {len(v)} != {self.generators} generators")
        return v

    def canonical_form(self, v: Sequence[int]) -> tuple:
        """Coordinates in the diagonalized presentation; a complete equality
        invariant for classes of elements."""
        v = self.check_element(v)
        y = smith_normal_form(self.relations).apply_U(v)
        out = []
        for yi, d in zip(y, self.diagonal_orders):
            out.append(yi % d if d > 0 else yi)
        return tuple(out)

    def elements_equal(self, v, w) -> bool:
        return self.canonical_form(v) == self.canonical_form(w)

    def cyclic_generators(self) -> list:
        """(order, generator vector) per nontrivial cyclic summand,
        free summands last with order 0."""
        cols = smith_normal_form(self.relations).Uinv
        out = []
        for i, d in enumerate(self.diagonal_orders):
            if d != 1:
                out.append((d, cols.col(i)))
        out.sort(key=lambda t: (t[0] == 0, t[0]))
        return out

    def divide_element(self, v, n: int) -> Optional[tuple]:
        """x with n*x = v in the group, or None; n >= 1 required."""
        if n <= 0:
            raise ValueError("divisor must be a positive integer")
        v = self.check_element(v)
        A = IntMatrix.identity(self.generators).scale(n).hstack(self.relations)
        sol = solve(A, v)
        if sol is None:
            return None
        return tuple(sol[: self.generators])

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion_orders]
        return " (+) ".join(parts) if parts else "0"


def cokernel(A: IntMatrix) -> FgGroup:
    """Z^rows / columnspan(A)."""
    return FgGroup(A.rows, A)


class GroupHom(Frozen):
    """Hom given by a matrix on generator lifts; must map relations into
    relations to be well defined.  It meets other homs at equal groups.
    Equality reads the three fields: an inductive system compares its
    bondings (identify_localized_limit)."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgGroup, target: FgGroup, matrix: IntMatrix):
        if matrix.rows != target.generators or matrix.cols != source.generators:
            raise ValueError(
                f"hom matrix must be {target.generators}x{source.generators}, "
                f"got {matrix.rows}x{matrix.cols}")
        if not hom_is_well_defined(source, target, matrix):
            raise ValueError("hom does not map relations into relations")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.matrix) == (other.source, other.target, other.matrix)

    @staticmethod
    def identity(G: FgGroup) -> "GroupHom":
        return GroupHom(G, G, IntMatrix.identity(G.generators))

    @staticmethod
    def multiplication(G: FgGroup, n: int) -> "GroupHom":
        return GroupHom(G, G, IntMatrix.identity(G.generators).scale(n))

    def apply(self, v) -> tuple:
        return self.matrix.apply(self.source.check_element(v))

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self after first."""
        if first.target != self.source:
            raise ValueError("composition shape mismatch")
        return GroupHom(first.source, self.target, self.matrix @ first.matrix)

    def equals(self, other: "GroupHom") -> bool:
        """Equal groups at both ends, matrices equal modulo target relations."""
        if self.source != other.source or self.target != other.target:
            return False
        return spans(self.target.relations, self.matrix - other.matrix)

    def is_zero_hom(self) -> bool:
        return spans(self.target.relations, self.matrix)

    def kernel_generators(self) -> IntMatrix:
        """Columns generating {x : self(x) = 0 in target} inside Z^source."""
        return lattice_preimage(self.matrix, self.target.relations)

    def is_injective(self) -> bool:
        return spans(self.source.relations, self.kernel_generators())

    def is_surjective(self) -> bool:
        return spans(self.matrix.hstack(self.target.relations),
                     IntMatrix.identity(self.target.generators))

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()


def hom_is_well_defined(source: FgGroup, target: FgGroup, matrix: IntMatrix) -> bool:
    """Does the matrix define a hom of presented groups?"""
    if matrix.rows != target.generators or matrix.cols != source.generators:
        raise ValueError("dimension mismatch")
    return spans(target.relations, matrix @ source.relations)


def exact_at(first: GroupHom, second: GroupHom) -> bool:
    """Exactness of A -> B -> C at one group B: image(first) = kernel(second)."""
    if first.target != second.source:
        raise ValueError("homs not composable")
    if not second.compose(first).is_zero_hom():
        return False
    return spans(first.matrix.hstack(first.target.relations), second.kernel_generators())


class ShortExactSeq(Frozen):
    """0 -> left -> mid -> right -> 0 candidate, inj and surj meeting at one
    group mid; exactness is a check, not an invariant of construction, and
    is remembered in the instance __dict__.  Equality reads inj and surj:
    the tests compare the K rows of two complexes with one delta."""

    def __init__(self, inj: GroupHom, surj: GroupHom):
        if inj.target != surj.source:
            raise ValueError("inj target and surj source do not match")
        object.__setattr__(self, "inj", inj)
        object.__setattr__(self, "surj", surj)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.inj, self.surj) == (other.inj, other.surj)

    @property
    def left(self) -> FgGroup:
        return self.inj.source

    @property
    def mid(self) -> FgGroup:
        return self.inj.target

    @property
    def right(self) -> FgGroup:
        return self.surj.target

    @cached_property
    def _exact(self) -> bool:
        return self.inj.is_injective() and self.surj.is_surjective() and exact_at(self.inj, self.surj)

    def __str__(self):
        return f"0 -> {self.left} -> {self.mid} -> {self.right} -> 0"


def is_exact(s: ShortExactSeq) -> bool:
    """Exactness of the row, decided once per row and then remembered."""
    return s._exact


def is_pure(s: ShortExactSeq) -> bool:
    """Purity of an exact row 0 -> H -> G -> Q -> 0 of f.g. groups.

    The row must be exact; a row that is not raises ValueError.  With
    finitely generated quotient, a pure subgroup is a direct summand (the
    quotient is pure-projective), so purity is splitness.  By Miyata's
    theorem (T. Miyata, "Note on direct summands of modules", J. Math.
    Kyoto Univ. 7 (1967) 65-69) an exact row of f.g. abelian groups splits
    iff G is isomorphic to H (+) Q, so purity is FgGroup.is_sum_of, the
    one isomorphism-type comparison behind every purity verdict, on the
    invariants each group computed when it was built.
    """
    if not is_exact(s):
        raise ValueError("purity is only defined for exact sequences")
    return s.mid.is_sum_of(s.left, s.right)


def _splits(s: ShortExactSeq) -> bool:
    """Splitness of an exact row by one integer linear solve: a section
    matrix S with surj*S = id on the quotient presentation and S mapping
    quotient relations into mid relations.  Independent of is_pure; the
    search's re-verifier and the tests use it as a second opinion."""
    Mpi = s.surj.matrix
    R_G = s.mid.relations
    R_H = s.right.relations
    gG, gH, rG, rH = s.mid.generators, s.right.generators, R_G.cols, R_H.cols
    # unknowns: S (gG x gH), Y (rH x gH), W (rG x rH)
    nS, nY, nW = gG * gH, rH * gH, rG * rH
    ncols = nS + nY + nW
    rows = []
    rhs = []
    # Mpi S + R_H Y = I
    for i in range(gH):
        for b in range(gH):
            row = [0] * ncols
            for a in range(gG):
                row[a * gH + b] = Mpi[i, a]
            for c in range(rH):
                row[nS + c * gH + b] = R_H[i, c]
            rows.append(tuple(row))
            rhs.append(1 if i == b else 0)
    # S R_H - R_G W = 0
    for i in range(gG):
        for f in range(rH):
            row = [0] * ncols
            for b in range(gH):
                row[i * gH + b] = R_H[b, f]
            for e in range(rG):
                row[nS + nY + e * rH + f] = -R_G[i, e]
            rows.append(tuple(row))
            rhs.append(0)
    A = IntMatrix.from_rows(rows, cols=ncols)
    return _solve_columns(A, [rhs], False) is not None


def check_ladder(top: ShortExactSeq, bottom: ShortExactSeq,
                 v_left: GroupHom, v_mid: GroupHom, v_right: GroupHom) -> bool:
    """Commutativity of the two squares between two short sequences; each
    vertical hom must run between the two rows' groups of its column."""
    if ((v_left.source, v_left.target, v_mid.source, v_mid.target, v_right.source, v_right.target)
            != (top.left, bottom.left, top.mid, bottom.mid, top.right, bottom.right)):
        raise ValueError("ladder shape mismatch")
    left_square = v_mid.compose(top.inj).equals(bottom.inj.compose(v_left))
    right_square = v_right.compose(top.surj).equals(bottom.surj.compose(v_mid))
    return left_square and right_square


def tensor_zn(G: FgGroup, n: int) -> FgGroup:
    """G (x) Z_n as a presentation (n = 0 gives G back, n = 1 kills all)."""
    if n < 0:
        raise ValueError("modulus must be nonnegative")
    if n == 0:
        return G
    return FgGroup(G.generators, G.relations.hstack(IntMatrix.identity(G.generators).scale(n)))


def tor_zn(G: FgGroup, n: int) -> FgGroup:
    """Tor(G, Z_n) = (+) Z_gcd(d, n) over the nonzero invariant factors
    (unit factors contribute the zero group and are skipped, keeping one
    generator per nontrivial torsion summand of G, aligned with
    tor_zn_embedding and the coefficient-change blocks)."""
    if n < 0:
        raise ValueError("modulus must be nonnegative")
    if n == 0:
        return FgGroup.free(0)
    return FgGroup.from_cyclic([gcd(d, n) for d in G.torsion_orders])


def tor_zn_embedding(G: FgGroup, n: int) -> GroupHom:
    """Tor(G, Z_n) -> G identifying Tor with the n-torsion subgroup.

    The summand from a cyclic factor of order d is generated by
    (d / gcd(d, n)) times that factor's generator.
    """
    if n <= 0:
        raise ValueError("modulus must be positive")
    orders = []
    cols = []
    for d, gen in G.cyclic_generators():
        if d <= 1:
            continue
        t = gcd(d, n)
        orders.append(t)
        cols.append(tuple((d // t) * x for x in gen))
    T = FgGroup.from_cyclic(orders)
    M = IntMatrix.from_columns(cols, rows=G.generators)
    return GroupHom(T, G, M)
