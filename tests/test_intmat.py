import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from nccwk.fgab import intmat
from nccwk.fgab.intmat import (
    IntMatrix,
    SmithDecomposition,
    det,
    kernel,
    lattice_preimage,
    smith_normal_form,
    solve,
    solve_matrix,
    spans,
    unimodular_completion,
)

from oracles import (
    invert_unimodular,
    lattice_contains_reference,
    loop_apply,
    loop_col,
    loop_matmul,
    loop_submatrix,
    minor_gcd_invariant_factors,
    nonnegative_kernel_witness,
    rational_rank,
    reduction_invariant_factors,
)


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


class TestSmithExamples:
    def test_rank_one_difference_matrix(self):
        # gcd of 1x1 minors is 1 and all 2x2 minors vanish
        A = M([[2, -2, 0], [1, -1, 0]])
        assert minor_gcd_invariant_factors([[2, -2, 0], [1, -1, 0]]) == (1, 0)
        assert smith_normal_form(A).invariant_factors == (1, 0)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.zero(2, 3)).invariant_factors == (0, 0)

    def test_torsion_four_matrix(self):
        rows = [[4, -2, 0, 0], [0, 1, 2, -2]]
        # gcd of 1x1 minors = 1, gcd of 2x2 minors = 4
        assert minor_gcd_invariant_factors(rows) == (1, 4)
        assert smith_normal_form(M(rows)).invariant_factors == (1, 4)

    def test_transforms_verify(self):
        A = M([[6, 4], [2, 8]])
        s = smith_normal_form(A)
        assert s.verify(A)
        assert reduction_invariant_factors([[6, 4], [2, 8]]) == s.invariant_factors


class TestKernelSolve:
    def test_kernel_of_difference_matrix(self):
        K = kernel(M([[2, -2, 0], [1, -1, 0]]))
        assert K.cols == 2
        # the stated basis spans the same lattice
        stated = IntMatrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3)
        assert solve_matrix(K, stated) is not None
        assert solve_matrix(stated, K) is not None

    def test_kernel_of_identity_is_empty(self):
        assert kernel(IntMatrix.identity(3)).cols == 0

    def test_kernel_rank_two(self):
        assert kernel(M([[4, -2, 0, 0], [0, 1, 2, -2]])).cols == 2

    def test_solve_and_unsolvable(self):
        A = M([[2, 0], [0, 3]])
        assert A.apply(solve(A, (4, 9))) == (4, 9)
        assert solve(A, (1, 0)) is None

    def test_lattice_preimage(self):
        # x with 2x in 4Z is exactly 2Z
        L = lattice_preimage(M([[2]]), M([[4]]))
        assert L.cols == 1 and abs(L[0, 0]) == 2


class TestWitness:
    """The Fourier-Motzkin reference for nonnegative kernel vectors."""

    def test_dimension_drop_kernel_has_positive_vector(self):
        assert nonnegative_kernel_witness(M([[2, -2]]), [0, 1]) == (1, 1)

    def test_column_matrix_has_none(self):
        assert nonnegative_kernel_witness(M([[2], [1]]), [0]) is None

    def test_empty_requirement_is_trivial(self):
        assert nonnegative_kernel_witness(M([[2], [1]]), []) == (0,)

    def test_mixed_sign_kernel(self):
        # kernel spanned by (1, -1): no nonnegative vector positive anywhere
        assert nonnegative_kernel_witness(M([[1, 1]]), [0]) is None
        # kernel spanned by (2, 1): scaling gives positive integer points
        w = nonnegative_kernel_witness(M([[1, -2]]), [0, 1])
        assert w is not None and M([[1, -2]]).apply(w) == (0,)


small_matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda rows: IntMatrix.from_rows(rows, cols=n))))


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_smith_properties(A):
    s = smith_normal_form(A)
    assert (s.U @ A @ s.V) == s.D
    assert abs(det(s.U)) == 1 and abs(det(s.V)) == 1
    d = s.invariant_factors
    for i in range(len(d) - 1):
        assert (d[i] == 0 and d[i + 1] == 0) or (d[i] != 0 and d[i + 1] % d[i] == 0)
    assert all(x >= 0 for x in d)


def entry_bit_bound(A):
    """n * (ceil(log2 H) + 1) bits, n the larger side of A and H its Hadamard
    bound: the smaller of the products of its row and of its column norms,
    a norm below 1 read as 1."""
    def squared(vectors):
        h2 = 1
        for v in vectors:
            h2 *= max(1, sum(x * x for x in v))
        return h2
    h2 = min(squared(A.entries), squared([A.col(j) for j in range(A.cols)]))
    log_h = ((h2 - 1).bit_length() + 1) // 2  # ceil(log2 sqrt(h2))
    return max(A.rows, A.cols) * (log_h + 1)


def largest_entry_bits(s):
    return max((x.bit_length() if x >= 0 else (-x).bit_length()
                for M in (s.U, s.V, s.Uinv, s.Vinv, s.D) for row in M.entries for x in row),
               default=0)


rectangular_matrices = st.integers(0, 12).flatmap(
    lambda m: st.integers(0, 12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda rows: IntMatrix.from_rows(rows, cols=n))))


@settings(max_examples=60, deadline=None)
@given(rectangular_matrices)
def test_smith_bounded_and_matches_minor_gcds(A):
    s = smith_normal_form(A)
    assert s.verify(A)
    assert s.invariant_factors == minor_gcd_invariant_factors([list(r) for r in A.entries])
    assert largest_entry_bits(s) <= entry_bit_bound(A)


def test_smith_large_seeded_matrices():
    rng = random.Random(40)
    full = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    deficient = [[rng.randint(-3, 3) for _ in range(32)] for _ in range(29)]
    deficient += [[a - b for a, b in zip(deficient[i], deficient[i + 1])] for i in range(3)]
    for rows in (full, deficient):
        A = M(rows)
        s = smith_normal_form(A)
        assert s.verify(A)
        assert s.invariant_factors == reduction_invariant_factors(rows)
        assert largest_entry_bits(s) <= entry_bit_bound(A)
    assert smith_normal_form(M(deficient)).invariant_factors[-3:] == (0, 0, 0)


def engine_digest(matrices):
    """sha256 over (D, U, V) of each matrix's Smith decomposition, in order."""
    h = hashlib.sha256()
    for A in matrices:
        s = smith_normal_form(A)
        h.update(repr((s.D.entries, s.U.entries, s.V.entries)).encode())
    return h.hexdigest()


def seeded_small_matrices():
    """23 seeded matrices with entries in -4..4 for each shape 0..7 x 0..7,
    then diagonals whose divisibility chain needs folding."""
    rng = random.Random(25)
    cases = [M([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], cols=n)
             for m in range(8) for n in range(8) for _ in range(23)]
    folds = [[[2, 0], [0, 3]], [[4, 0, 0], [0, 6, 0], [0, 0, 10]], [[6, 0], [0, 4]],
             [[2, 0, 0], [0, 3, 0]], [[9, 0], [0, 6], [0, 0]], [[0, 0], [0, 5]],
             [[-4, 0, 0], [0, 0, 0], [0, 0, -6]], [[12, 0, 0], [0, 18, 0], [0, 0, 8]]]
    return cases + [M(rows) for rows in folds]


# (D, U, V) as the engine produced them when the digests were recorded:
# a change to the reduction that keeps every transform valid but alters one
# of them shows here before it shows in a pinned report
SMALL_MATRICES_DIGEST = "9da085c821392e0bf8977396ed0d7bec82ef6b5d15fd0d0fea6af3beea66726a"
BENCHMARK_SIZES_DIGEST = "b2765ca99e1801b566e523762187a12ecfff1b4061f97c5972e70004ea9f42d7"


def test_engine_outputs_pinned():
    assert engine_digest(seeded_small_matrices()) == SMALL_MATRICES_DIGEST


@pytest.mark.slow
def test_replayed_transforms_at_benchmark_sizes():
    """The sizes of the lattices benchmark: one full-rank n x n matrix for
    n = 8, 12, ..., 32 and one n = 32 matrix with three dependent rows."""
    rng = random.Random(24)
    cases = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for n in range(8, 33, 4)]
    deficient = [[rng.randint(-3, 3) for _ in range(32)] for _ in range(29)]
    deficient += [[a - b for a, b in zip(deficient[i], deficient[i + 1])] for i in range(3)]
    for rows in cases + [deficient]:
        A = M(rows)
        s = smith_normal_form(A)
        n = A.rows
        assert s.U @ A @ s.V == s.D
        assert s.U @ s.Uinv == IntMatrix.identity(n) and s.V @ s.Vinv == IntMatrix.identity(n)
        assert largest_entry_bits(s) <= entry_bit_bound(A)
        assert s.invariant_factors.count(0) == (3 if rows is deficient else 0)
    assert engine_digest(M(rows) for rows in cases + [deficient]) == BENCHMARK_SIZES_DIGEST


transform_cases = st.integers(0, 8).flatmap(
    lambda m: st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                     min_size=m, max_size=m).map(lambda rows: M(rows, cols=n)),
            st.lists(st.integers(-9, 9), min_size=m, max_size=m))))


@settings(max_examples=100, deadline=None)
@given(transform_cases)
@example((IntMatrix.zero(0, 3), []))
@example((IntMatrix.zero(4, 0), [1, -2, 0, 5]))
@example((IntMatrix.zero(0, 0), []))
def test_replayed_transforms_and_inverses(case):
    A, b = case
    s = smith_normal_form(A)
    assert s.U @ A @ s.V == s.D
    assert s.U @ s.Uinv == IntMatrix.identity(A.rows)
    assert s.V @ s.Vinv == IntMatrix.identity(A.cols)
    assert s.Uinv == invert_unimodular(s.U) and s.Vinv == invert_unimodular(s.V)
    assert s.apply_U(b) == s.U.apply(b)


def test_verify_rejects_a_wrong_inverse():
    # U A V = D holds, but U = [2] has no integer inverse: the record's one
    # operation adds row 0 to itself, which the reduction never records
    A = M([[0]])
    bad = SmithDecomposition(M([[0]]), (0,), ((0, 0, 0, 1),), ())
    assert (bad.U, bad.V) == (M([[2]]), M([[1]]))
    assert bad.U @ A @ bad.V == bad.D
    assert not bad.verify(A)


def test_inverses_are_computed_when_read(monkeypatch):
    A = M([[61, 44, 1], [2, 83, 35]])
    misses = smith_normal_form.cache_info().misses
    kernel(A)
    assert solve(A, A.apply((1, 2, 3))) is not None
    s = smith_normal_form(A)
    assert smith_normal_form.cache_info().misses == misses + 1
    # kernel and solve replay the records without building a transform
    assert not {"U", "V", "Uinv", "Vinv"} & set(vars(s))
    raw = intmat._smith_raw
    calls = []
    monkeypatch.setattr(intmat, "_smith_raw", lambda B: calls.append(B) or raw(B))
    before = smith_normal_form.cache_info()
    assert s.U @ s.Uinv == IntMatrix.identity(A.rows)
    assert s.V @ s.Vinv == IntMatrix.identity(A.cols)
    assert calls == [] and smith_normal_form.cache_info() == before


records_cases = st.integers(0, 7).flatmap(
    lambda m: st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                     min_size=m, max_size=m).map(lambda rows: M(rows, cols=n)),
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=n, max_size=n))))

# [[0, 1]]: the column pass finds its pivot in the second column, so the
# column record ends in a permutation
PERMUTING = M([[0, 1]])


def test_permuting_example_records_a_permutation():
    assert [op[0] for op in smith_normal_form(PERMUTING).col_ops] == [3]


@settings(max_examples=150, deadline=None)
@given(records_cases)
@example((PERMUTING, [3, -2], [[1, 0], [2, 5]]))
@example((M([[0, 0, 2], [0, 3, 0], [0, 0, 0]]), [1, 2, 3], [[1, 1], [0, 4], [-1, 2]]))
@example((IntMatrix.zero(0, 3), [1, -2, 4], [[1, 0], [0, 1], [2, 2]]))
@example((IntMatrix.zero(3, 0), [], []))
@example((IntMatrix.zero(0, 0), [], []))
def test_replayed_records_match_the_built_transform(case):
    """kernel, solve and apply_V replay V's record; each equals the same
    product with V built, and the products and submatrices equal plain
    loops."""
    A, x, B = case
    m, n = A.rows, A.cols
    s = smith_normal_form(A)
    d = s.invariant_factors
    free = [j for j in range(n) if j >= len(d) or d[j] == 0]
    assert kernel(A) == s.V.submatrix(range(n), free)
    b = A.apply(x)
    c = s.U.apply(b)
    y = [c[i] // d[i] if i < len(d) and d[i] else 0 for i in range(n)]
    assert solve(A, b) == s.V.apply(y)
    assert s.apply_V([x, y]) == [s.V.apply(x), s.V.apply(y)]
    AB = A @ M(B, cols=2)
    assert (AB.rows, AB.cols) == (m, 2) and AB.entries == loop_matmul(A.entries, B, 2)
    assert A.apply(x) == loop_apply(A.entries, x)
    assert (s.D @ s.V).entries == loop_matmul(s.D.entries, s.V.entries, n)
    assert all(A.col(j) == loop_col(A.entries, j) for j in range(n))
    rows = range(m - 1, -1, -1)
    sub = A.submatrix(rows, free)
    assert (sub.rows, sub.cols) == (m, len(free))
    assert sub.entries == loop_submatrix(A.entries, rows, free)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-4, 4)),
                       max_size=12).map(lambda ops: (n, ops))))
def test_invert_unimodular(case):
    n, ops = case
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:  # row i += c * row j
        if i != j:
            P[i] = [a + c * b for a, b in zip(P[i], P[j])]
    P = M(P)
    assert invert_unimodular(P) @ P == IntMatrix.identity(n)


block_lists = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda rc: st.lists(st.lists(st.integers(-9, 9), min_size=rc[1], max_size=rc[1]),
                            min_size=rc[0], max_size=rc[0]).map(lambda rows: M(rows, cols=rc[1]))),
    max_size=4)


@settings(max_examples=100, deadline=None)
@given(block_lists)
@example([])
@example([IntMatrix.zero(0, 0), IntMatrix.zero(0, 2), M([[5]]), IntMatrix.zero(2, 0)])
def test_block_diag_matches_the_entrywise_definition(blocks):
    B = IntMatrix.block_diag(*blocks)
    assert (B.rows, B.cols) == (sum(b.rows for b in blocks), sum(b.cols for b in blocks))
    placed = {}
    top = left = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                placed[top + i, left + j] = b[i, j]
        top, left = top + b.rows, left + b.cols
    assert all(B[i, j] == placed.get((i, j), 0) for i in range(B.rows) for j in range(B.cols))


def _matrix(m, n, lo=-6, hi=6):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                    min_size=m, max_size=m).map(lambda rows: M(rows, cols=n))


# (A, B, built): B is A X for a random integer X when built is True
span_cases = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)).flatmap(
    lambda mnk: st.tuples(_matrix(mnk[0], mnk[1]), _matrix(mnk[1], mnk[2], -3, 3),
                          _matrix(mnk[0], mnk[2]), st.booleans())).map(
    lambda t: (t[0], t[0] @ t[1], True) if t[3] else (t[0], t[2], False))


@settings(max_examples=100, deadline=None)
@given(span_cases)
@example((IntMatrix.zero(3, 0), IntMatrix.zero(3, 0), True))
@example((IntMatrix.zero(2, 0), M([[0], [0]]), True))
@example((IntMatrix.zero(2, 0), M([[1], [0]]), False))
@example((M([[2, 4], [0, 6]]), IntMatrix.zero(2, 0), True))
def test_spans_is_columnwise_solvability(case):
    # spans and solve share one solver, so this is a regression check; the
    # reference below decides membership without it
    A, B, built = case
    assert spans(A, B) == all(solve(A, B.col(j)) is not None for j in range(B.cols))
    if built:
        assert spans(A, B)


@settings(max_examples=150, deadline=None)
@given(span_cases)
@example((IntMatrix.zero(3, 0), IntMatrix.zero(3, 0), True))
@example((IntMatrix.zero(2, 0), M([[0], [0]]), True))
@example((IntMatrix.zero(2, 0), M([[1], [0]]), False))
@example((M([[2, 4], [0, 6]]), IntMatrix.zero(2, 0), True))
@example((IntMatrix.zero(0, 3), IntMatrix.zero(0, 2), True))
@example((IntMatrix.zero(2, 3), M([[0, 0], [0, 0]]), True))
@example((M([[2, 0], [0, 3]]), M([[4, 1], [3, 3]]), False))
def test_lattice_membership_matches_the_reference(case):
    A, B, built = case
    inside = lattice_contains_reference([list(r) for r in A.entries], [list(r) for r in B.entries])
    assert inside or not built
    assert spans(A, B) == inside
    X = solve_matrix(A, B)
    assert (X is None) == (not inside)
    if X is not None:
        assert (X.rows, X.cols) == (A.cols, B.cols)
        assert loop_matmul(A.entries, X.entries, B.cols) == B.entries


def test_row_record_replayed_once_column_record_only_for_solutions(monkeypatch):
    A = M([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    B = A @ M([[1, 0, 2], [0, 1, -1], [3, 1, 0]])
    snf = smith_normal_form(A)
    calls = Counter()
    replay, apply_V = intmat._replay, SmithDecomposition.apply_V

    def counting_replay(ops, vecs):
        calls["row replays"] += ops is snf.row_ops
        return replay(ops, vecs)

    def counting_apply_V(self, vecs):
        calls["apply_V"] += 1
        return apply_V(self, vecs)

    monkeypatch.setattr(intmat, "_replay", counting_replay)
    monkeypatch.setattr(SmithDecomposition, "apply_V", counting_apply_V)
    assert spans(A, B)
    assert calls == {"row replays": 1}
    calls.clear()
    X = solve_matrix(A, B)
    assert A @ X == B
    assert calls == {"row replays": 1, "apply_V": 1}


def test_invert_unimodular_refuses():
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[1, 0, 0]]):
        with pytest.raises(ValueError):
            invert_unimodular(M(rows))


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_rank_nullity(A):
    K = kernel(A)
    assert (A @ K).is_zero()
    if A.rows and A.cols:
        assert K.cols + rational_rank([list(r) for r in A.entries]) == A.cols


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_invariant_factors_match_minor_gcds(A):
    if A.rows == 0 or A.cols == 0:
        return
    rows = [list(r) for r in A.entries]
    assert smith_normal_form(A).invariant_factors == minor_gcd_invariant_factors(rows)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
def test_unimodular_completion(v):
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, x)
    if g != 1:
        with pytest.raises(ValueError):
            unimodular_completion(v)
        return
    P, Pinv = unimodular_completion(v)
    assert P.col(0) == tuple(v)
    assert abs(det(P)) == 1
    assert Pinv @ P == IntMatrix.identity(len(v))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_invariant_factors_match_sympy(A):
    """Cross-check against an external implementation."""
    import sympy
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    if A.rows == 0 or A.cols == 0:
        return
    ours = tuple(d for d in smith_normal_form(A).invariant_factors if d != 0)
    theirs = tuple(int(abs(d)) for d in sympy_factors(sympy.Matrix([list(r) for r in A.entries])) if d != 0)
    assert ours == theirs


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda m: st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=m, max_size=m))))
def test_witness_infeasibility_is_honest(rows):
    """When the elimination reports no nonnegative kernel vector positive on
    every coordinate, a bounded brute-force search over kernel-lattice
    combinations must come up empty too."""
    from itertools import product as iproduct

    A = IntMatrix.from_rows(rows)
    strict = list(range(A.cols))
    w = nonnegative_kernel_witness(A, strict)
    if w is not None:
        assert A.apply(w) == tuple(0 for _ in range(A.rows))
        assert all(x >= 1 for x in w)
        return
    K = kernel(A)
    box = range(-4, 5)
    for combo in iproduct(box, repeat=K.cols):
        v = K.apply(combo)
        assert not all(x >= 1 for x in v), (rows, combo, v)


def test_solve_consistency_random():
    rng = random.Random(3)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        b = A.apply(x)
        y = solve(A, b)
        assert y is not None and A.apply(y) == b
