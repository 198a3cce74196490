"""Exact integer matrices and Smith normal form.

Everything downstream (K-groups, induced maps, purity checks) reduces to
integer linear algebra on small matrices, so this module keeps entries as
plain Python ints (arbitrary precision) and never touches floats.

The Smith normal form here reduces A to D = U*A*V, U and V unimodular,
and records the row and column operations it applies instead of carrying
U and V.  One function, _replay, applies a record to a list of vectors:
the reduction applies each operation to the columns of D as it records
it, and U, V and their inverses (the cyclic decomposition of a cokernel
reads Uinv) are the records replayed onto the unit vectors when first
read.  A solve builds neither U nor V: it replays the row record once onto
all its right-hand sides and the column record, transposed and reversed,
onto their quotient vectors; spans, which asks only whether solutions
exist, replays no column record; a kernel replays the transposed record
onto the unit vectors of its free columns alone.  The reduction takes
two passes (Kannan & Bachem, SIAM J. Comput. 8, 1979):

1. Hermite passes.  The rows are put in Hermite normal form one row at a
   time, each new row eliminated against the pivots found so far, with
   every entry above a pivot kept reduced modulo it; then the same pass
   runs on the columns, and so on until D is diagonal (a row pass and a
   column pass suffice on most inputs).
2. The diagonal is folded into the divisibility chain d_i | d_{i+1}.

Every entry of U, V, Uinv, Vinv and D then stays within
n * (ceil(log2 H) + 1) bits, n the larger side of A and H its Hadamard
bound; the test suite checks this bound on random and seeded matrices.

>>> A = IntMatrix.from_rows([[2, -2, 0], [1, -1, 0]])
>>> smith_normal_form(A).invariant_factors
(1, 0)
>>> spans(A, IntMatrix.from_rows([[4], [2]])), spans(A, IntMatrix.from_rows([[1], [0]]))
(True, False)
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from math import gcd
from operator import floordiv, index, mod, mul
from typing import Iterable, Optional, Sequence


class Frozen:
    """Base of the package's value classes, which are plain classes (no
    generated code): each sets its attributes once, in __init__, through
    object.__setattr__, and setting or deleting one afterwards raises
    AttributeError, so values are immutable after construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class IntMatrix(Frozen):
    """Immutable rectangular integer matrix; degenerate shapes allowed.  The
    from_* and column builders raise TypeError on a float or a Fraction, and
    the from_* builders ValueError on ragged data or on a stated row or
    column count that the data contradicts.  Equality and the hash read the
    three fields: the Smith cache is keyed by the matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):  # entries: tuple of row tuples
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.rows}, {self.cols}, {self.entries!r})"

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(tuple(map(index, row)) for row in rows)
        ncols = cols if cols is not None else len(data[0]) if data else 0
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def block_diag(*blocks: "IntMatrix") -> "IntMatrix":
        """The blocks down the diagonal and zeros elsewhere.  Blocks with no
        rows or no columns are allowed, so [I; 0] and [0 | E] are
        block_diag(I, zero(t, 0)) and block_diag(zero(0, g), E)."""
        ncols = sum(B.cols for B in blocks)
        data = []
        left = 0
        for B in blocks:
            before, after = (0,) * left, (0,) * (ncols - left - B.cols)
            data.extend(before + row + after for row in B.entries)
            left += B.cols
        return IntMatrix(len(data), ncols, tuple(data))

    @staticmethod
    def column(vec: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(vec), 1, tuple(zip(map(index, vec))))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if not cols:
            return IntMatrix.zero(rows if rows is not None else 0, 0)
        nrows = rows if rows is not None else len(cols[0])
        return IntMatrix(nrows, len(cols), tuple(zip(*(map(index, c) for c in cols), strict=True)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j: int) -> tuple:
        return tuple([row[j] for row in self.entries])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # an other with no rows has empty columns, each giving a zero column
        cols = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        data = tuple([tuple([sum(map(mul, row, c)) for c in cols]) for row in self.entries])
        return IntMatrix(self.rows, other.cols, data)

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple([sum(map(mul, row, vec)) for row in self.entries])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        rows = self.entries
        return IntMatrix(len(row_idx), len(col_idx),
                         tuple([tuple([rows[i][j] for j in col_idx]) for i in row_idx]))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __str__(self):
        if self.rows == 0 or self.cols == 0:
            return f"[{self.rows}x{self.cols}]"
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = [list(row) for row in A.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class SmithDecomposition(Frozen):
    """D = U*A*V with U, V unimodular and D diagonal, d_i | d_{i+1}, d_i >= 0.

    row_ops and col_ops are the engine's records (see _replay); col_ops
    acts on V^T.  U, V and their exact inverses Uinv and Vinv are the
    records replayed onto the unit vectors on first read; apply_U replays
    the row record onto one vector and apply_V the column record,
    transposed and reversed, onto a list of vectors, so neither builds its
    matrix.  Columns of Uinv realize the cyclic decomposition of coker(A)
    on the original generators.  Nothing compares decompositions; the
    cached matrices live in the instance __dict__.
    """

    def __init__(self, D: IntMatrix, invariant_factors: tuple, row_ops: tuple, col_ops: tuple):
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "row_ops", row_ops)
        object.__setattr__(self, "col_ops", col_ops)

    @cached_property
    def U(self) -> IntMatrix:
        return _replayed_identity(self.row_ops, self.D.rows, by_columns=True)

    @cached_property
    def V(self) -> IntMatrix:
        # the column record acts on V^T, whose columns are the rows of V
        return _replayed_identity(self.col_ops, self.D.cols, by_columns=False)

    @cached_property
    def Uinv(self) -> IntMatrix:
        # U = E_N ... E_1, so Uinv^T = E_N^-T ... E_1^-T: the inverse-transposed
        # operations replayed in recorded order
        return _replayed_identity(_transposed(self.row_ops, inverse=True), self.D.rows, by_columns=False)

    @cached_property
    def Vinv(self) -> IntMatrix:
        # V = F_1^T ... F_M^T, so Vinv = F_M^-T ... F_1^-T
        return _replayed_identity(_transposed(self.col_ops, inverse=True), self.D.cols, by_columns=True)

    @cached_property
    def _col_ops_transposed(self) -> tuple:
        # V = F_1^T ... F_M^T, so V v replays F_M^T first
        return tuple(_transposed(reversed(self.col_ops), inverse=False))

    def apply_U(self, vec: Sequence[int]) -> tuple:
        """U vec, replayed from the row record without building U."""
        if len(vec) != self.D.rows:
            raise ValueError("vector length mismatch")
        v = list(vec)
        _replay(self.row_ops, [v])
        return tuple(v)

    def apply_V(self, vecs: Iterable[Sequence[int]]) -> list:
        """[V v for v in vecs], replayed from the column record without
        building V."""
        vs = []
        for v in vecs:
            if len(v) != self.D.cols:
                raise ValueError("vector length mismatch")
            vs.append(list(v))
        _replay(self._col_ops_transposed, vs)
        return list(map(tuple, vs))

    def verify(self, A: IntMatrix) -> bool:
        ok = (self.U @ A @ self.V) == self.D
        ok = ok and all(P.rows == P.cols and abs(det(P)) == 1 for P in (self.U, self.V))
        d = self.invariant_factors
        for i in range(len(d) - 1):
            if d[i] != 0 and d[i + 1] % d[i] != 0:
                return False
            if d[i] == 0 and d[i + 1] != 0:
                return False
        return ok


def _replay(ops, vecs) -> None:
    """Apply a record of row operations, in order and in place, to each
    vector in vecs (a row operation acts on every column of a matrix
    alike).  A record is a sequence of small tuples,

        (0, i, k, q)           v[i] += q * v[k],
        (1, i, j, a, b, c, d)  (v[i], v[j]) <- (a*v[i] + b*v[j], c*v[i] + d*v[j]),
                               a*d - b*c = +-1,
        (2, i)                 v[i] negated,
        (3, order)             new v[b] is old v[order[b]].
    """
    for op in ops:
        kind = op[0]
        if kind == 0:
            _, i, k, q = op
            for v in vecs:
                if v[k]:
                    v[i] += q * v[k]
        elif kind == 1:
            _, i, j, a, b, c, d = op
            for v in vecs:
                x, y = v[i], v[j]
                if x or y:
                    v[i] = a * x + b * y
                    v[j] = c * x + d * y
        elif kind == 2:
            i = op[1]
            for v in vecs:
                v[i] = -v[i]
        else:
            order = op[1]
            for v in vecs:
                v[:] = [v[i] for i in order]


def _replayed_identity(ops, n: int, by_columns: bool) -> IntMatrix:
    """The n x n matrix whose columns (or rows) are the unit vectors after
    the recorded operations."""
    vecs = [[0] * n for _ in range(n)]
    for i in range(n):
        vecs[i][i] = 1
    _replay(ops, vecs)
    return IntMatrix(n, n, tuple(zip(*vecs)) if by_columns else tuple(map(tuple, vecs)))


def _transposed(ops, inverse: bool):
    """Each recorded operation E as the operation E^T, or E^-T if inverse.
    A negation is its own transpose and inverse; a permutation's transpose
    is its inverse; a combine has determinant e = ad - bc = +-1, so its
    inverse is e * [[d, -b], [-c, a]]."""
    for op in ops:
        kind = op[0]
        if kind == 0:
            _, i, k, q = op
            yield (0, k, i, -q if inverse else q)
        elif kind == 1:
            _, i, j, a, b, c, d = op
            if inverse:
                e = a * d - b * c
                a, b, c, d = e * d, -e * b, -e * c, e * a
            yield (1, i, j, a, c, b, d)
        elif kind == 3 and not inverse:
            order = op[1]
            back = [0] * len(order)
            for new_pos, old_pos in enumerate(order):
                back[old_pos] = new_pos
            yield (3, tuple(back))
        else:
            yield op


def _xgcd(a: int, b: int):
    """g, s, t with g = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _columns(B: IntMatrix) -> list:
    """The columns of B as lists."""
    return [list(c) for c in zip(*B.entries)] if B.rows else [[] for _ in range(B.cols)]


class _Worker:
    """Mutable state for the reduction: D, held by its columns C, and a
    record of each side's operations on it (see _replay).  A row operation
    on D acts on every column of D alike, so it is _replay on C.  The
    column side records its operations as row operations on V^T, so
    transposing the state swaps the records and transposes D.
    """

    def __init__(self, A: IntMatrix):
        self.m = A.rows
        self.n = A.cols
        self.C = _columns(A)
        self.row_ops = []
        self.col_ops = []

    def do(self, *op):
        """Record the row operation op and apply it to D."""
        self.row_ops.append(op)
        _replay((op,), self.C)

    def transpose(self):
        # U A V = D  iff  V^T A^T U^T = D^T: row operations on the
        # transposed state are column operations on this one (called only
        # with m, n >= 1, so zip sees every row); in place, so a caller's
        # reference to C stays current
        self.m, self.n = self.n, self.m
        self.C[:] = [list(r) for r in zip(*self.C)]
        self.row_ops, self.col_ops = self.col_ops, self.row_ops


def _hermite(w: _Worker):
    """Row-incremental Hermite pass, row operations only.

    Row i is eliminated column by column against the pivots of rows
    0..i-1 (a subtraction when the pivot divides the entry, an xgcd
    combine otherwise) until its first nonzero entry outside the pivot
    columns, which becomes a new positive pivot.  After each row the pivot
    rows are the Hermite normal form of the rows seen so far: every entry
    above a pivot lies in [0, pivot).  The pivot rows end on top, in
    column order; rows that eliminated to zero follow.
    """
    C = w.C
    cols = []  # pivot columns, ascending
    owner = [None] * w.n  # pivot column -> row holding that pivot
    zero_rows = []
    for i in range(w.m):
        lead = None
        for j in range(w.n):
            x = C[j][i]
            if x == 0:
                continue
            k = owner[j]
            if k is None:
                lead = j
                break
            p = C[j][k]
            if x % p == 0:
                w.do(0, i, k, -(x // p))
            else:
                g, s, t = _xgcd(p, x)
                w.do(1, k, i, s, t, -(x // g), p // g)
                _restore(w, cols, owner, j)
        if lead is None:
            zero_rows.append(i)
            continue
        if C[lead][i] < 0:
            w.do(2, i)
        cols.insert(bisect_left(cols, lead), lead)
        owner[lead] = i
        _restore(w, cols, owner, lead)
    order = [owner[c] for c in cols] + zero_rows
    if order != list(range(w.m)):
        w.do(3, tuple(order))


def _restore(w: _Worker, cols, owner, j):
    """The pivot row of column j changed: reduce it modulo the later pivots,
    then every earlier pivot row modulo this pivot and the later ones."""
    if len(cols) == 1:
        return
    C = w.C
    pos = bisect_left(cols, j)
    for rows, tail in (((owner[j],), cols[pos + 1:]),
                       ([owner[c] for c in cols[:pos]], cols[pos:])):
        for h in rows:
            for c in tail:
                k = owner[c]
                q = C[c][h] // C[c][k]
                if q:
                    w.do(0, h, k, -q)


def _is_diagonal(C) -> bool:
    for i, row in enumerate(C):
        for j, x in enumerate(row):
            if x and i != j:
                return False
    return True


def _chain(w: _Worker):
    """Turn a diagonal D with its zeros last into a divisibility chain; its
    two column operations are row operations on the transposed state."""
    C = w.C
    r = min(w.m, w.n)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = C[i][i], C[i + 1][i + 1]
            if (a == 0 and b == 0) or (a != 0 and b % a == 0):
                continue
            # fold gcd(a, b) into position i and lcm into position i+1
            w.transpose()
            w.do(0, i, i + 1, 1)  # column i += column i + 1
            w.transpose()
            g, s, u = _xgcd(C[i][i], C[i][i + 1])
            aa, bb = C[i][i] // g, C[i][i + 1] // g
            w.do(1, i, i + 1, s, u, -bb, aa)
            if C[i + 1][i] != 0:
                q = C[i + 1][i] // C[i][i]
                w.transpose()
                w.do(0, i + 1, i, -q)
                w.transpose()
            if C[i][i] < 0:
                w.do(2, i)
            if C[i + 1][i + 1] < 0:
                w.do(2, i + 1)
            changed = True


def _smith_raw(A: IntMatrix) -> SmithDecomposition:
    w = _Worker(A)
    # a pass either leaves the first unfinished pivot alone in its row and
    # column or replaces it by a proper divisor, so the alternation ends
    flipped = False
    _hermite(w)
    while not _is_diagonal(w.C):
        w.transpose()
        flipped = not flipped
        _hermite(w)
    if flipped:
        w.transpose()
    _chain(w)
    r = min(A.rows, A.cols)
    factors = tuple([w.C[i][i] for i in range(r)])
    D = IntMatrix(A.rows, A.cols, tuple(zip(*w.C)) if A.cols else ((),) * A.rows)
    return SmithDecomposition(D, factors, tuple(w.row_ops), tuple(w.col_ops))


@lru_cache(maxsize=None)
def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith decomposition of A; total, cached (IntMatrix is hashable)."""
    return _smith_raw(A)


def kernel(A: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {v : A v = 0}  (an A.cols x nullity matrix)."""
    snf = smith_normal_form(A)
    d = snf.invariant_factors
    n = A.cols
    units = []
    for j in range(n):
        if j >= len(d) or d[j] == 0:
            e = [0] * n
            e[j] = 1
            units.append(e)
    cols = snf.apply_V(units)
    return IntMatrix(n, len(cols), tuple(zip(*cols)) if cols else ((),) * n)


def _solve_columns(A: IntMatrix, cols: list, solutions: bool) -> Optional[list]:
    """Integer solutions of A x = c for the lists c in cols, onto which the
    row record is replayed in place.  None if some c has none; else the
    solutions (free coordinates 0) if `solutions`, which alone replays the
    column record, and the replayed cols if not."""
    snf = smith_normal_form(A)
    _replay(snf.row_ops, cols)
    d = snf.invariant_factors
    k = len(d) - d.count(0)  # the zero factors come last
    nonzero = d[:k]
    for c in cols:
        if any(c[k:]) or any(map(mod, c, nonzero)):
            return None
    if not solutions:
        return cols
    free = [0] * (A.cols - k)
    return snf.apply_V([list(map(floordiv, c, nonzero)) + free for c in cols])


def solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of A x = b, or None. Free coordinates are set to 0."""
    if len(b) != A.rows:
        raise ValueError("rhs length mismatch")
    xs = _solve_columns(A, [list(b)], True)
    return None if xs is None else xs[0]


def solve_matrix(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """X with A X = B over the integers, or None."""
    if B.rows != A.rows:
        raise ValueError("shape mismatch")
    xs = _solve_columns(A, _columns(B), True)
    return None if xs is None else IntMatrix.from_columns(xs, rows=A.cols)


def spans(A: IntMatrix, B: IntMatrix) -> bool:
    """Whether every column of B lies in the column lattice of A."""
    if B.rows != A.rows:
        raise ValueError("shape mismatch")
    return _solve_columns(A, _columns(B), False) is not None


def lattice_preimage(M: IntMatrix, R: IntMatrix) -> IntMatrix:
    """Generators (columns) of {x : M x lies in the column span of R}.

    R may have zero columns, in which case this is just ker(M).
    """
    if M.rows != R.rows:
        raise ValueError("shape mismatch")
    K = kernel(M.hstack(R.scale(-1)))
    return K.submatrix(range(M.cols), range(K.cols))


def unimodular_completion(v: Sequence[int]) -> tuple:
    """(P, P^-1) with P unimodular and its first column the primitive v."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g != 1:
        raise ValueError("vector is not primitive")
    snf = smith_normal_form(IntMatrix.column(v))
    # U v = +-e1, so Uinv has +-v as first column; negating that column of
    # P negates the first row of P^-1
    P, Pinv = snf.Uinv, snf.U
    if P.col(0) != tuple(v):
        P = IntMatrix.from_columns([tuple(-x for x in P.col(0))] + [P.col(j) for j in range(1, P.cols)])
        Pinv = IntMatrix(Pinv.rows, Pinv.cols, (tuple(-x for x in Pinv.entries[0]),) + Pinv.entries[1:])
    if P.col(0) != tuple(v):
        raise AssertionError(f"completion of {tuple(v)} has first column {P.col(0)}")
    return P, Pinv

