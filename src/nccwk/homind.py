"""Connecting maps between complexes and the inductive systems they generate.

A map between complexes is described symbolically: each target block lists
the multiset of source evaluations it carries (point evaluations, interior
evaluations, or full paths).  Only this data matters at the K level: ranks
of point evaluations drive K_0 and full-path multiplicities drive K_1.

Inductive systems are stage generators with memoized groups and bondings;
limits are probed by truncation, and the eventually-constant triangulariz-
able systems of interest get identified as localizations of Z^r.

A family of complexes owns its stages: it builds each stage complex, its
K data, each bonding description (from a per-stage assignment), each
ideal spec, its ideal and quotient families, its K_0 and K_1 systems and
the K rows of each ideal at each stage once.  It hands out the ladders
along an ideal, and every ladder reads those memoized stages and rows.
Stages count from 0; a negative stage is rejected where it would be built.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Callable, Optional, Sequence

from .fgab.intmat import (
    Frozen,
    IntMatrix,
    kernel,
    smith_normal_form,
    solve_matrix,
    unimodular_completion,
)
from .fgab.groups import (
    FgGroup,
    GroupHom,
    ShortExactSeq,
    check_ladder,
    is_exact,
    is_pure,
)
from .nccw import (
    CompactIdealSpec,
    KData,
    NccwComplex,
    _complement,
    _subcomplex,
    k_sequences,
    k_theory,
    make_ideal_spec,
)


# -- symbolic evaluations ----------------------------------------------------

# An evaluation compares and hashes by class and index: inputfmt renders a
# multiset of them as runs counted by collections.Counter.  _atom_key
# orders them.

class AtPoint(Frozen):
    """Evaluation at the j-th source point (0-based)."""

    __slots__ = ("j",)

    def __init__(self, j: int):
        object.__setattr__(self, "j", j)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.j == other.j

    def __hash__(self):
        return hash((self.j,))


class _OnBlock(Frozen):
    """An evaluation on the i-th source interval block."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        object.__setattr__(self, "i", i)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.i == other.i

    def __hash__(self):
        return hash((self.i,))


class AtInterior(_OnBlock):
    """Evaluation at an interior parameter of the i-th source interval block."""

    __slots__ = ()


class FullPath(_OnBlock):
    """Identity on the i-th source interval block (a full path in the target)."""

    __slots__ = ()


def _atom_key(a):
    return (a.__class__.__name__, a.j if isinstance(a, AtPoint) else a.i)


def _atom_size(a, src: NccwComplex) -> int:
    if isinstance(a, AtPoint):
        return src.k[a.j]
    return src.h[a.i]


class MapDescription(Frozen):
    """Multiplicity-level description of a homomorphism between complexes.

    f1[j'] is the multiset of evaluations filling the j'-th target point,
    f2[i'] the multiset filling the i'-th target interval block, each kept
    in _atom_key order.  Size accounting is enforced: consumed dimension per
    block is at most the block size, with equality when the description is
    flagged unital.  Equality reads the five fields: the tests compare
    descriptions built in different orders.
    """

    __slots__ = ("source", "target", "f1", "f2", "unital")

    def __init__(self, source: NccwComplex, target: NccwComplex, f1: tuple, f2: tuple,
                 unital: bool = True):
        # f1: length target.p, entries tuples of atoms; f2: length target.l
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "f1", tuple(tuple(sorted(ms, key=_atom_key)) for ms in f1))
        object.__setattr__(self, "f2", tuple(tuple(sorted(ms, key=_atom_key)) for ms in f2))
        object.__setattr__(self, "unital", unital)
        if len(self.f1) != target.p or len(self.f2) != target.l:
            raise ValueError("one assignment needed per target block")
        for ms in self.f1:
            for a in ms:
                if isinstance(a, FullPath):
                    raise ValueError("a full path cannot land in a point block")
                self._check_atom(a)
        for ms in self.f2:
            for a in ms:
                self._check_atom(a)
        for kind, assigned, sizes in (("point", self.f1, target.k), ("block", self.f2, target.h)):
            for j, (ms, size) in enumerate(zip(assigned, sizes)):
                used = sum(_atom_size(a, source) for a in ms)
                if used > size:
                    raise ValueError(f"target {kind} {j + 1} overfilled: {used} > {size}")
                if unital and used != size:
                    raise ValueError(f"unital description must fill target {kind} {j + 1}: {used} != {size}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.f1, self.f2, self.unital)
                == (other.source, other.target, other.f1, other.f2, other.unital))

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


def induced_k0(m: MapDescription, kd_src: KData, kd_tgt: KData) -> GroupHom:
    """K_0 of a described map, in the kernel bases of kd_src and kd_tgt, the
    K data of its source and target (a family's kdata(n), or k_theory).

    A kernel vector v has rank (alpha v)_i at any interior point of block i,
    so the image rank at a target point is the sum of v_j over point
    evaluations plus (alpha v)_i over interior ones; the result must land
    back in the target kernel.
    """
    kd_src.check_delta(m.source.delta, "kd_src")
    kd_tgt.check_delta(m.target.delta, "kd_tgt")
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
    if coords is None:  # basis columns span the kernel lattice
        raise AssertionError("image of a K_0 class is not in the span of the target's K_0 basis")
    return GroupHom(kd_src.k0, kd_tgt.k0, coords)


def induced_k1(m: MapDescription, kd_src: KData, kd_tgt: KData) -> GroupHom:
    """K_1 of a described map: the full-path multiplicity matrix pushed
    through the cokernel presentations of kd_src and kd_tgt, the K data of
    its source and target."""
    kd_src.check_delta(m.source.delta, "kd_src")
    kd_tgt.check_delta(m.target.delta, "kd_tgt")
    try:
        return GroupHom(kd_src.k1, kd_tgt.k1, m.full_path_matrix())
    except ValueError as exc:
        raise ValueError(f"full-path matrix does not descend to cokernels: {exc}") from exc


def maps_equal_on_k(m1: MapDescription, m2: MapDescription,
                    kd_src: KData, kd_tgt: KData) -> bool:
    """Do two descriptions induce the same K_0 and K_1 maps?  kd_src and
    kd_tgt are the K data of their shared source and target."""
    if m1.source != m2.source or m1.target != m2.target:
        raise ValueError("descriptions must share source and target")
    k0_equal = induced_k0(m1, kd_src, kd_tgt).equals(induced_k0(m2, kd_src, kd_tgt))
    k1_equal = induced_k1(m1, kd_src, kd_tgt).equals(induced_k1(m2, kd_src, kd_tgt))
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


def _restrict(m: MapDescription, src: tuple, tgt: tuple) -> tuple:
    """(f1, f2) of m between sub-complexes, each given as (points, blocks)
    index lists of m's source (src) and target (tgt): the kept target
    blocks keep their evaluations at kept source blocks, renumbered, and
    the others vanish."""
    pt = {j: a for a, j in enumerate(src[0])}
    bl = {i: a for a, i in enumerate(src[1])}

    def kept(ms):
        out = []
        for a in ms:
            if isinstance(a, AtPoint):
                if a.j in pt:
                    out.append(AtPoint(pt[a.j]))
            elif a.i in bl:
                out.append(type(a)(bl[a.i]))
        return tuple(out)

    return (tuple(kept(m.f1[j]) for j in tgt[0]), tuple(kept(m.f2[i]) for i in tgt[1]))


# -- inductive systems -------------------------------------------------------

class _Memo(dict):
    """Values by key, each built by build(key) on its first lookup; stage keys
    (by_stage) count from 0, and a negative one raises before any build."""

    def __init__(self, build: Callable[[object], object], by_stage: bool = True):
        super().__init__()
        self.build, self.by_stage = build, by_stage

    def __missing__(self, key):
        if self.by_stage and key < 0:
            raise ValueError("stage index must be nonnegative")
        value = self[key] = self.build(key)
        return value


class IndSystem:
    """Sequence of f.g. groups with bonding homs, generated lazily.

    group_at(n) and bonding_at(n) produce the stage-n group and the hom
    from stage n to n + 1; results are memoized, and each bonding is checked
    to run from group(n) to group(n + 1) once, where it is built.
    eventually_constant_from is caller-supplied metadata asserting the
    bonding hom is literally the same from that stage on.
    """

    def __init__(self, group_at: Callable[[int], FgGroup],
                 bonding_at: Callable[[int], GroupHom],
                 eventually_constant_from: Optional[int] = None,
                 cone_at: Optional[Callable[[int], Callable]] = None):
        self.eventually_constant_from = eventually_constant_from
        self._groups = _Memo(group_at)
        self._bondings = _Memo(lambda n: self._checked(n, bonding_at(n)))
        self._cones = _Memo(cone_at) if cone_at is not None else None

    def _checked(self, n: int, hom: GroupHom) -> GroupHom:
        if hom.source != self.group(n):
            raise ValueError(f"bonding at stage {n} does not match its group")
        if hom.target != self.group(n + 1):
            raise ValueError(f"bonding at stage {n} does not land in the group at stage {n + 1}")
        return hom

    @staticmethod
    def constant(hom: GroupHom) -> "IndSystem":
        if hom.source != hom.target:
            raise ValueError("constant system needs an endomorphism")
        return IndSystem(lambda n: hom.source, lambda n: hom, eventually_constant_from=0)

    @staticmethod
    def from_matrix(M: IntMatrix) -> "IndSystem":
        if M.rows != M.cols:
            raise ValueError("bonding matrix must be square")
        G = FgGroup.free(M.rows)
        return IndSystem.constant(GroupHom(G, G, M))

    def group(self, n: int) -> FgGroup:
        return self._groups[n]

    def bonding(self, n: int) -> GroupHom:
        return self._bondings[n]

    def cone_membership(self, n: int) -> Callable:
        if self._cones is None:
            raise ValueError("system carries no positivity data")
        return self._cones[n]

    def push(self, x: "LimitElement", stage: int) -> tuple:
        """Image of x's vector at the requested (later or equal) stage."""
        if stage < x.stage:
            raise ValueError("cannot push an element to an earlier stage")
        v = self.group(x.stage).check_element(x.vector)
        for s in range(x.stage, stage):
            v = self.bonding(s).apply(v)
        return v

    def walk(self, x: "LimitElement", start: int, stop: int):
        """(s, image of x at stage s) for s = start..stop, carried forward one
        bonding per stage; nothing when stop < start."""
        if stop < start:
            return
        v = self.push(x, start)
        yield start, v
        for s in range(start, stop):
            v = self.bonding(s).apply(v)
            yield s + 1, v


class LimitElement(Frozen):
    __slots__ = ("stage", "vector")

    def __init__(self, stage: int, vector: tuple):
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "vector", tuple(map(index, vector)))


class TruncatedSystem(Frozen):
    __slots__ = ("groups", "bondings")

    def __init__(self, groups: tuple, bondings: tuple):
        object.__setattr__(self, "groups", groups)      # stages 0..N
        object.__setattr__(self, "bondings", bondings)  # homs n -> n+1 for n < N


def truncate(sys: IndSystem, N: int) -> TruncatedSystem:
    """Materialize stages 0..N (N >= 1): N + 1 groups and N bondings, checked where sys built them."""
    if N < 1:
        raise ValueError("need at least one bonding")
    return TruncatedSystem(tuple(sys.group(n) for n in range(N + 1)),
                           tuple(sys.bonding(n) for n in range(N)))


class EqualityVerdict(Frozen):
    __slots__ = ("kind", "stage")

    def __init__(self, kind: str, stage: int):
        object.__setattr__(self, "kind", kind)  # "equal" | "distinct" | "unknown"
        object.__setattr__(self, "stage", stage)

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
    for (s, vx), (_, vy) in zip(sys.walk(x, start, bound), sys.walk(y, start, bound)):
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
    if stage_bound < 0:
        raise ValueError("bound must be nonnegative")
    if stage_bound < x.stage:
        raise ValueError("bound precedes the element's stage")
    for s, v in sys.walk(x, x.stage, stage_bound):
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


def _triangularize(M: IntMatrix) -> Optional[tuple]:
    """(P, P^-1) with P unimodular and P^-1 M P upper triangular, via
    integer eigenflags, or None when no such P exists.

    Such a P exists iff det(xI - M) splits into integer linear factors: an
    integer eigenvalue has a primitive integer eigenvector, which completes
    to a unimodular basis, and the complementary block's polynomial is the
    quotient.  So the roots are taken with multiplicity by synthetic
    division, a leftover factor of positive degree returns None, and the
    flags are split off in (-|v|, v) order, one kernel and one completion
    per eigenvalue, whose inverse extends P^-1 as the completion extends P
    (past the first flag, only P's last r - k columns and P^-1's last r - k
    rows change): polynomial in r and the entries' bit size.
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
    P = Pinv = IntMatrix.identity(r)
    N = M
    for k, lam in enumerate(roots[:-1]):
        n = r - k
        K = kernel(N - IntMatrix.identity(n).scale(lam))
        v = list(K.col(0))
        g = gcd(*v)
        P1, P1inv = unimodular_completion([x // g for x in v])
        N = P1inv.submatrix(range(1, n), range(n)) @ N @ P1.submatrix(range(n), range(1, n))
        if k:
            rows, tail = range(r), range(k, r)
            P1 = P.submatrix(rows, range(k)).hstack(P.submatrix(rows, tail) @ P1)
            P1inv = IntMatrix(r, r, Pinv.entries[:k] + (P1inv @ Pinv.submatrix(tail, rows)).entries)
        P, Pinv = P1, P1inv
    return P, Pinv


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


class LocalizedLimit(Frozen):
    """Limit identified as (+) Z[1/s_i] (+) fixed torsion.

    basis columns are stage coordinates (at the constancy stage) of the
    free generators; the i-th one becomes divisible by every power of s_i.
    """

    __slots__ = ("stage", "diagonal", "basis", "torsion")

    def __init__(self, stage: int, diagonal: tuple, basis: IntMatrix, torsion: tuple):
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "diagonal", diagonal)  # one positive integer per free summand
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "torsion", torsion)    # invariant factors of the fixed torsion part

    def localization_multiset(self) -> tuple:
        return tuple(sorted(_radical(s) for s in self.diagonal))

    def describe(self) -> str:
        parts = ["Z" if s == 1 else f"Z[1/{s}]" for s in self.localization_multiset()]
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def identify_localized_limit(sys: IndSystem) -> Optional[LocalizedLimit]:
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
    if sys.bonding(n0 + 1) != hom or sys.bonding(n0 + 2) != hom:
        return None
    if G.torsion_orders:
        ident = GroupHom.identity(G)
        if hom.equals(ident):
            return LocalizedLimit(n0, (1,) * G.free_rank,
                                  IntMatrix.identity(G.generators), G.torsion_orders)
        return None
    # pass to diagonal coordinates and keep the honestly free block; the
    # presentation may carry redundant generators killed by unit factors
    snf = smith_normal_form(G.relations)
    free_idx = [i for i, d in enumerate(G.diagonal_orders) if d == 0]
    Md = snf.U @ hom.matrix @ snf.Uinv
    M = Md.submatrix(free_idx, free_idx)
    gen_basis = snf.Uinv.submatrix(range(G.generators), free_idx)
    if M.rows == 0:
        return LocalizedLimit(n0, (), gen_basis, ())
    flag = _triangularize(M)
    if flag is None:
        return None
    P, Pinv = flag
    T = Pinv @ M @ P
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

class LadderPurity(Frozen):
    __slots__ = ("kind", "stage", "limit_pure")

    def __init__(self, kind: str, stage: int, limit_pure: Optional[bool] = None):
        object.__setattr__(self, "kind", kind)  # "pure_through" | "nonpure_witness" | "stationary_verdict"
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "limit_pure", limit_pure)

    def __str__(self):
        if self.kind == "pure_through":
            return f"pure through stage {self.stage}"
        if self.kind == "nonpure_witness":
            return f"purity fails at stage {self.stage} (limit verdict open)"
        return (f"stationary from stage {self.stage}: the limit sequence itself is "
                + ("pure" if self.limit_pure else "not pure"))


def limit_ses_purity(ladder: "IdealLadder", N: int) -> LadderPurity:
    """Stage-wise purity along 0 -> I_n -> E_n -> Q_n -> 0 up to stage N.

    All ladder squares must commute.  A purity failure at a stage where all
    three systems have become stationary (identity bondings onward) is a
    verdict about the limit sequence itself, since the sequence no longer
    changes; that takes at least one checked bonding, so a first failure
    at stage N itself leaves the limit verdict open.
    """
    sys_i, sys_e, sys_q = ladder.sys_ideal, ladder.sys_total, ladder.sys_quotient
    for n in range(N):
        if not check_ladder(ladder.row_at(n), ladder.row_at(n + 1),
                            sys_i.bonding(n), sys_e.bonding(n), sys_q.bonding(n)):
            raise ValueError(f"ladder square does not commute at stage {n}")
    first_bad = None
    for n in range(N + 1):
        seq = ladder.row_at(n)
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

    if first_bad < N and stationary(sys_i) and stationary(sys_e) and stationary(sys_q):
        return LadderPurity("stationary_verdict", first_bad, limit_pure=False)
    return LadderPurity("nonpure_witness", first_bad)


# -- families of complexes ----------------------------------------------------

def _support(S: Sequence[int]) -> tuple:
    """The memo key of an ideal support: one spelling per point set, the
    one make_ideal_spec validates."""
    return tuple(sorted(set(S)))


class ComplexFamily:
    """A stage-indexed family of complexes with self-similar bonding maps.

    assignment_at(n) gives (f1, f2, unital) of the bonding from stage n to
    n + 1; the family builds it as a description between its own stages.
    constant_from is the stage from which the induced K matrices repeat
    (None when they keep changing); the K systems and the ideal and
    quotient families carry it.  basis, when given, is the K_0 basis of
    every stage (k_theory checks it), and the induced K_0 maps are matrices
    in it.  Stage complexes, bondings, ideal specs, derived families, K
    systems and ideal rows are built once and memoized, and K data once per
    distinct delta; ladder(S, degree) assembles a ladder from them.
    """

    def __init__(self, complex_at: Callable[[int], NccwComplex],
                 assignment_at: Callable[[int], tuple],
                 constant_from: Optional[int] = None,
                 basis: Optional[IntMatrix] = None):
        self.constant_from = constant_from
        self._cx = _Memo(complex_at)
        # K data is a function of delta alone: stages with equal deltas share it
        by_delta = _Memo(lambda delta: k_theory(delta, basis), by_stage=False)
        self._kd = _Memo(lambda n: by_delta[self._cx[n].delta])
        self._bond = _Memo(lambda n: MapDescription(self._cx[n], self._cx[n + 1],
                                                    *assignment_at(n)))
        self._spec = _Memo(lambda S: _Memo(lambda n: make_ideal_spec(self._cx[n], S)), by_stage=False)
        self._rows = _Memo(lambda S: _Memo(lambda n: k_sequences(
            self._cx[n].delta, self.ideal_spec(n, S), self._kd[n],
            self.ideal_family(S).kdata(n), self.quotient_family(S).kdata(n))), by_stage=False)
        self._derived = _Memo(lambda key: self._restricted(*key), by_stage=False)
        self._systems = {}

    def complex_at(self, n: int) -> NccwComplex:
        return self._cx[n]

    def kdata(self, n: int) -> KData:
        return self._kd[n]

    def bonding(self, n: int) -> MapDescription:
        return self._bond[n]

    def k0_system(self) -> IndSystem:
        if 0 not in self._systems:
            self._systems[0] = IndSystem(
                lambda n: self._kd[n].k0,
                lambda n: induced_k0(self._bond[n], self._kd[n], self._kd[n + 1]),
                eventually_constant_from=self.constant_from,
                cone_at=lambda n: self._kd[n].cone_contains)
        return self._systems[0]

    def k1_system(self) -> IndSystem:
        if 1 not in self._systems:
            self._systems[1] = IndSystem(
                lambda n: self._kd[n].k1,
                lambda n: induced_k1(self._bond[n], self._kd[n], self._kd[n + 1]),
                eventually_constant_from=self.constant_from)
        return self._systems[1]

    def ideal_spec(self, n: int, S: Sequence[int]) -> CompactIdealSpec:
        return self._spec[_support(S)][n]

    def ideal_rows(self, n: int, S: Sequence[int]) -> tuple:
        """The (K_0, K_1) rows 0 -> K_j(I_n) -> K_j(E_n) -> K_j(E_n/I_n) -> 0 over
        support S, from the stage-n K data of this family and its derived ones."""
        return self._rows[_support(S)][n]

    def ladder(self, S: Sequence[int], degree: int) -> "IdealLadder":
        """The K_degree ladder of the ideal over support S along the family."""
        if degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")
        S = _support(S)
        sys_i, sys_e, sys_q = (f.k1_system() if degree else f.k0_system()
                               for f in (self.ideal_family(S), self, self.quotient_family(S)))
        return IdealLadder(sys_i, sys_e, sys_q, lambda n: self.ideal_rows(n, S)[degree])

    def ideal_family(self, S: Sequence[int]) -> "ComplexFamily":
        return self._derived[_support(S), False]

    def quotient_family(self, S: Sequence[int]) -> "ComplexFamily":
        return self._derived[_support(S), True]

    def _restricted(self, S: tuple, quotient: bool) -> "ComplexFamily":
        """The family of ideal (or quotient) complexes over support S, its
        bondings restricted from this family's; _derived builds it once per support."""
        def kept(n):  # (points, blocks) of the sub-complex at stage n
            spec = self.ideal_spec(n, S)
            return _complement(self._cx[n].delta, spec) if quotient else (spec.S, spec.T)

        def assignment_at(n):
            m = self._bond[n]
            if not description_maps_ideal(m, self.ideal_spec(n, S), self.ideal_spec(n + 1, S)):
                raise ValueError("description does not map the ideal into the ideal")
            # a restriction to ideals is never unital
            return _restrict(m, blocks[n], blocks[n + 1]) + (quotient and m.unital,)

        blocks = _Memo(kept)
        return ComplexFamily(
            lambda n: _subcomplex(self._cx[n], *blocks[n]), assignment_at, self.constant_from)


class IdealLadder(Frozen):
    """The three K_j systems of a compact-ideal extension along a family,
    with the stage-n row 0 -> K_j(I_n) -> K_j(E_n) -> K_j(E_n/I_n) -> 0;
    ComplexFamily.ladder hands it out, reading the family's memoized rows."""

    __slots__ = ("sys_ideal", "sys_total", "sys_quotient", "row_at")

    def __init__(self, sys_ideal: IndSystem, sys_total: IndSystem, sys_quotient: IndSystem,
                 row_at: Callable[[int], ShortExactSeq]):
        object.__setattr__(self, "sys_ideal", sys_ideal)
        object.__setattr__(self, "sys_total", sys_total)
        object.__setattr__(self, "sys_quotient", sys_quotient)
        object.__setattr__(self, "row_at", row_at)
