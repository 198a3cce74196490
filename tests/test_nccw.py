import hashlib
import random
import re
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nccwk.fgab.intmat import IntMatrix
from nccwk.fgab.groups import GroupHom, _splits, is_exact, is_pure
from nccwk.nccw import (
    BlockClass,
    NccwComplex,
    _boundary_vanishes,
    adjacent_blocks,
    all_ideal_specs,
    classify_block,
    dimension_drop,
    ideal_complex,
    inclusion_k_maps,
    k_sequences,
    k_theory,
    make_ideal_spec,
    odd_witnesses,
    quotient_complex,
    quotient_k_maps,
)
from nccwk.harness.scenarios import (
    odd_tower_complex,
    torsion_tower_complex,
)
from oracles import (
    all_images_orderly_candidates,
    full_path_odd_witnesses,
    nonnegative_kernel_witness,
    quotient_k1_torsion,
)

DATA = Path(__file__).resolve().parent / "data"

CASES = ("unital", "non-unital", "isolated point")


def quotient_torsion(A, S):
    return quotient_k1_torsion(A.alpha.entries, A.beta.entries, S)


def draw_complex(data, case):
    """A random complex with p <= 4 points, l <= 3 interval blocks and
    multiplicities <= 3; in the "isolated point" case the last point touches
    no interval block."""
    p = data.draw(st.integers(1, 4), label="p")
    l = data.draw(st.integers(1, 3), label="l")
    k = tuple(data.draw(st.lists(st.integers(1, 2), min_size=p, max_size=p), label="k"))
    touching = p - 1 if case == "isolated point" else p
    rows = [r + (0,) * (p - touching) for r in product(range(4), repeat=touching)]
    alpha, beta, h = [], [], []
    for _ in range(l):
        a = data.draw(st.sampled_from(rows), label="alpha row")
        sa = sum(x * y for x, y in zip(a, k))
        if case == "unital":
            b = data.draw(st.sampled_from(
                [r for r in rows if sum(x * y for x, y in zip(r, k)) == sa]), label="beta row")
            size = sa
        else:
            b = data.draw(st.sampled_from(rows), label="beta row")
            size = max(sa, sum(x * y for x, y in zip(b, k)), 1) + data.draw(st.integers(0, 2))
        if size == 0:
            # a unital block needs a positive size: use the multiplicity-1 row
            a = b = (1,) + (0,) * (p - 1)
            size = k[0]
        alpha.append(a)
        beta.append(b)
        h.append(size)
    return NccwComplex(k, tuple(h), IntMatrix.from_rows(alpha), IntMatrix.from_rows(beta),
                       unital=(case == "unital"))


class TestKTheory:
    def test_odd_tower_block(self):
        kd = k_theory(odd_tower_complex(0))
        assert kd.k0.iso_class() == (2, ())
        assert kd.k1.iso_class() == (1, ())

    def test_dimension_drop(self):
        kd = k_theory(dimension_drop(2))
        assert kd.k0.iso_class() == (1, ())
        assert kd.k1.iso_class() == (0, (2,))

    def test_torsion_tower_block(self):
        kd = k_theory(torsion_tower_complex(0))
        assert kd.k0.iso_class() == (2, ())
        assert kd.k1.iso_class() == (0, (4,))

    def test_supplied_basis_is_checked(self):
        bad = IntMatrix.from_columns([(1, 0, 0)], rows=3)
        with pytest.raises(ValueError):
            k_theory(odd_tower_complex(0), basis=bad)

    def test_cone_membership(self):
        kd = k_theory(odd_tower_complex(0))
        assert kd.cone_contains((1, 1))
        assert not kd.cone_contains((1, -1)) or kd.ambient((1, -1)) >= (0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NccwComplex((1,), (1,), IntMatrix.from_rows([[2]]),
                        IntMatrix.from_rows([[0]]), unital=False)
        with pytest.raises(ValueError):
            NccwComplex((1,), (2,), IntMatrix.from_rows([[-1]]),
                        IntMatrix.from_rows([[1]]), unital=False)


class TestIdealSpecs:
    def test_the_odd_witness_support(self):
        spec = make_ideal_spec(odd_tower_complex(0), [2])
        assert spec.S == (2,) and spec.T == (1,)

    def test_empty_support(self):
        spec = make_ideal_spec(odd_tower_complex(0), [])
        assert spec.S == () and spec.T == ()

    def test_single_endpoint_supports_rejected(self):
        for S in ([0], [1]):
            with pytest.raises(ValueError):
                make_ideal_spec(odd_tower_complex(0), S)

    def test_all_supports_of_odd_block(self):
        A = odd_tower_complex(0)
        specs = all_ideal_specs(A.delta, A.pattern)
        assert [s.S for s in specs] == [(), (2,), (0, 1), (0, 1, 2)]

    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_supports_match_fourier_motzkin(self, case, data):
        """The supports are the unions of minimal supports; the reference
        accepts S iff delta[adj(S), S] has a kernel vector >= 1 on S."""
        A = draw_complex(data, case)
        accepted = [S for size in range(A.p + 1) for S in combinations(range(A.p), size)
                    if nonnegative_kernel_witness(
                        A.delta.submatrix(adjacent_blocks(A.pattern, S), S), range(len(S))) is not None]
        specs = all_ideal_specs(A.delta, A.pattern)
        assert [spec.S for spec in specs] == accepted
        for spec in specs:
            assert make_ideal_spec(A, spec.S) == spec
            assert all(x >= 1 for x in spec.witness)
            assert A.delta.submatrix(spec.T, spec.S).apply(spec.witness) == (0,) * len(spec.T)
        for size in range(A.p + 1):
            for S in combinations(range(A.p), size):
                if S not in accepted:
                    with pytest.raises(ValueError):
                        make_ideal_spec(A, S)

    def test_torsion_tower_projection_class_support(self):
        spec = make_ideal_spec(torsion_tower_complex(0), [2, 3])
        assert spec.T == (1,)
        assert spec.witness == (1, 1)


class TestIdealCalculus:
    def test_ideal_and_quotient_k(self):
        A = odd_tower_complex(0)
        spec = make_ideal_spec(A, [2])
        kd_i = k_theory(ideal_complex(A, spec))
        assert kd_i.k0.iso_class() == (1, ()) and kd_i.k1.iso_class() == (1, ())
        Q = quotient_complex(A, spec)
        assert str(Q.alpha) == "[2 0]" and str(Q.beta) == "[0 2]"
        kd_q = k_theory(Q)
        assert kd_q.k0.iso_class() == (1, ()) and kd_q.k1.iso_class() == (0, (2,))

    def test_block_sizes_partition(self):
        A = torsion_tower_complex(1)
        spec = make_ideal_spec(A, [2, 3])
        I, Q = ideal_complex(A, spec), quotient_complex(A, spec)
        assert sorted(I.k + Q.k) == sorted(A.k)
        assert sorted(I.h + Q.h) == sorted(A.h)
        assert I.alpha == A.alpha.submatrix(spec.T, spec.S)

    def test_k_data_of_another_complex_is_named(self):
        A = odd_tower_complex(0)
        spec = make_ideal_spec(A, [2])
        kd = k_theory(A)
        kd_i, kd_q = k_theory(ideal_complex(A, spec)), k_theory(quotient_complex(A, spec))
        for call, name in ((lambda: inclusion_k_maps(A, spec, kd_i, kd_i), "kd"),
                           (lambda: inclusion_k_maps(A, spec, kd, kd_q), "kd_ideal"),
                           (lambda: quotient_k_maps(A, spec, kd_q, kd_q), "kd"),
                           (lambda: quotient_k_maps(A, spec, kd, kd_i), "kd_quot")):
            with pytest.raises(ValueError, match=f"^{name} is the K data of another complex"):
                call()
        assert k_theory(A).delta == A.delta and kd_q.delta == A.delta.submatrix((0,), (0, 1))

    def test_k1_inclusion_is_doubling(self):
        A = odd_tower_complex(0)
        spec = make_ideal_spec(A, [2])
        kd = k_theory(A)
        _, i1 = inclusion_k_maps(A, spec, kd, k_theory(ideal_complex(A, spec)))
        target = kd.k1
        assert target.elements_equal(i1.apply((1,)), (2, 2))

    def test_k0_inclusion_pads_into_kernel_basis(self):
        A = odd_tower_complex(0)
        spec = make_ideal_spec(A, [2])
        kd = k_theory(A)
        i0, _ = inclusion_k_maps(A, spec, kd, k_theory(ideal_complex(A, spec)))
        assert kd.ambient(i0.apply((1,))) == (0, 0, 1)

    def test_empty_support_maps_are_zero(self):
        A = odd_tower_complex(0)
        spec = make_ideal_spec(A, [])
        i0, i1 = inclusion_k_maps(A, spec, k_theory(A), k_theory(ideal_complex(A, spec)))
        assert i0.source.generators == 0 and i1.source.generators == 0

    def test_inclusion_then_quotient_is_zero(self):
        A = torsion_tower_complex(0)
        kd = k_theory(A)
        for spec in all_ideal_specs(A.delta, A.pattern):
            i0, i1 = inclusion_k_maps(A, spec, kd, k_theory(ideal_complex(A, spec)))
            q0, q1 = quotient_k_maps(A, spec, kd, k_theory(quotient_complex(A, spec)))
            assert q0.compose(i0).is_zero_hom()
            assert q1.compose(i1).is_zero_hom()


class TestExtensions:
    def test_odd_tower_rows(self):
        A = odd_tower_complex(0)
        s0, s1 = k_sequences(A, make_ideal_spec(A, [2]))
        assert is_exact(s0) and is_exact(s1)
        assert not (is_pure(s0) and is_pure(s1))

    def test_empty_support_pure(self):
        A = odd_tower_complex(0)
        s0, s1 = k_sequences(A, make_ideal_spec(A, []))
        assert is_exact(s0) and is_exact(s1)
        assert is_pure(s0) and is_pure(s1)

    def test_trivial_supports_split(self):
        """The empty support and the support of every point pass the
        boundary test and are never odd witnesses, without a test."""
        isolated = NccwComplex((1, 1), (2, 3), IntMatrix.from_rows([[2, 0], [0, 0]]),
                               IntMatrix.from_rows([[0, 2], [0, 0]]), unital=False)
        for A in (odd_tower_complex(0), torsion_tower_complex(0), dimension_drop(3), isolated):
            for S in ([], range(A.p)):
                for s in k_sequences(A, make_ideal_spec(A, S)):
                    assert is_exact(s) and is_pure(s) and _splits(s)

    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_boundary_verdicts_match_built_rows(self, case, data):
        """The boundary test decides exactness and odd_witnesses yields the
        exact, non-pure supports in all_ideal_specs order; building both K
        rows and deciding them with is_exact and the splitting system must
        agree, and every witness has torsion in K_1(A/I)."""
        A = draw_complex(data, case)
        exact_nonpure = []
        for spec in all_ideal_specs(A.delta, A.pattern):
            s0, s1 = k_sequences(A, spec)
            # the snake lemma: one row is exact iff the other is
            assert is_exact(s0) == is_exact(s1)
            assert _boundary_vanishes(A.delta, spec) == is_exact(s0)
            if is_exact(s0) and not (_splits(s0) and _splits(s1)):
                exact_nonpure.append(spec)
        assert list(odd_witnesses(A.delta, A.pattern)) == exact_nonpure
        for spec in exact_nonpure:
            assert quotient_torsion(A, spec.S)

    def test_boundary_verdicts_match_built_rows_on_odd_blocks(self, default_search):
        """The same comparison on the odd blocks of the default census and the
        paper's two towers, where non-pure exact rows occur."""
        blocks = [b.complex for b in default_search]
        for A in blocks + [odd_tower_complex(0), torsion_tower_complex(0)]:
            specs = all_ideal_specs(A.delta, A.pattern)
            witnesses = list(odd_witnesses(A.delta, A.pattern))
            verdicts = [(_boundary_vanishes(A.delta, spec), spec not in witnesses) for spec in specs]
            built = []
            for spec in specs:
                s0, s1 = k_sequences(A, spec)
                exact = is_exact(s0) and is_exact(s1)
                built.append((exact, not exact or (_splits(s0) and _splits(s1))))
            assert verdicts == built
            assert (True, False) in verdicts
            assert witnesses == [spec for spec, v in zip(specs, verdicts) if v == (True, False)]
            assert all(quotient_torsion(A, spec.S) for spec in witnesses)

    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_no_quotient_torsion_no_witness(self, case, data):
        """A complex with no torsion in K_1(A/I) = coker delta[T^c(S), S^c]
        for any proper point subset S gets no non-pure witness."""
        A = draw_complex(data, case)
        cls = classify_block(A)
        if not any(quotient_torsion(A, S)
                   for size in range(1, A.p) for S in combinations(range(A.p), size)):
            assert cls.odd_witness is None and cls.nonpure_witnesses == ()
        assert cls.nonpure_witnesses == tuple(odd_witnesses(A.delta, A.pattern))

    def test_torsion_tower_rows(self):
        A = torsion_tower_complex(0)
        spec = make_ideal_spec(A, [2, 3])
        s0, s1 = k_sequences(A, spec)
        assert is_exact(s0) and is_pure(s0)
        assert is_exact(s1) and not is_pure(s1)
        assert (s1.left.iso_class(), s1.mid.iso_class(), s1.right.iso_class()) == \
            ((0, (2,)), (0, (4,)), (0, (2,)))

    def test_rank_additivity_when_boundary_trivial(self):
        for A in (odd_tower_complex(0), torsion_tower_complex(0), dimension_drop(3)):
            kd = k_theory(A)
            for spec in all_ideal_specs(A.delta, A.pattern):
                s0, s1 = k_sequences(A, spec)
                if not (is_exact(s0) and is_exact(s1)):
                    continue
                r_i = k_theory(ideal_complex(A, spec)).k0.free_rank
                r_q = k_theory(quotient_complex(A, spec)).k0.free_rank
                assert r_i + r_q == kd.k0.free_rank


def census_keys():
    """(delta rows, nonzero pattern) of the odd blocks pinned in the default
    census, and of the stage-0 blocks of the paper's two towers."""
    keys = []
    for line in (DATA / "search_default.txt").read_text().splitlines():
        alpha, beta = ([[int(x) for x in row.split()] for row in M.split(";")]
                       for M in re.search(r"alpha=\[([^]]*)\] beta=\[([^]]*)\]", line).groups())
        keys.append((tuple(tuple(x - y for x, y in zip(a, b)) for a, b in zip(alpha, beta)),
                     tuple(tuple(bool(x or y) for x, y in zip(a, b)) for a, b in zip(alpha, beta))))
    for A in (odd_tower_complex(0), torsion_tower_complex(0)):
        keys.append((A.delta.entries, A.pattern))
    return keys


@st.composite
def verdict_keys(draw):
    """A random sparse (delta rows, pattern) with p <= 6 points and l <= 3
    blocks; the pattern is any superset of delta's support, the key of some
    complex, unital or not."""
    p, l = draw(st.integers(1, 6), label="p"), draw(st.integers(1, 3), label="l")
    entries = st.one_of(st.just(0), st.integers(-2, 2))
    delta = tuple(tuple(draw(entries) for _ in range(p)) for _ in range(l))
    pattern = tuple(tuple(bool(x) or draw(st.booleans()) for x in row) for row in delta)
    return delta, pattern


def with_census_examples(test):
    for key in census_keys():
        test = example(key=key)(test)
    return test


class TestClassification:
    @settings(max_examples=300, deadline=None)
    @given(key=verdict_keys())
    @with_census_examples
    # points 1 and 2 touch no block, yet lie in witnesses over block 3 (1-based)
    @example(key=(((0, 0, 0, 0, 2), (0, 0, 1, 0, 1), (0, 0, 0, 0, 1)),
                  ((False, False, False, False, True), (False, False, True, False, True),
                   (False, False, False, True, True))))
    def test_odd_witnesses_match_the_full_path(self, key):
        """Listing supports only among the points whose blocks lie inside a
        union T with torsion in coker delta[T^c, :] gives the witnesses, in
        order and with their vectors, that filtering every valid support
        gives."""
        delta = IntMatrix(len(key[0]), len(key[0][0]), key[0])
        assert list(odd_witnesses(delta, key[1])) == full_path_odd_witnesses(delta, key[1])

    def test_census_examples_are_odd(self):
        for delta, pattern in census_keys():
            assert full_path_odd_witnesses(IntMatrix(len(delta), len(delta[0]), delta), pattern)

    def test_classify_block_pinned_on_every_default_candidate(self):
        """str(classify_block(A)) + newline over the 1,853 default candidates
        in census order, as the orderly oracle lists them (1,457 nice, 380
        nice with nontrivial-boundary diagnostics, 16 odd), by sha256, as
        recorded before odd_witnesses listed supports only among the torsion
        points."""
        digest = hashlib.sha256()
        for k, h, a, b in all_images_orderly_candidates(3, 2, 2, 1):
            A = NccwComplex(k, h, IntMatrix.from_rows(a, cols=len(k)), IntMatrix.from_rows(b, cols=len(k)))
            digest.update((str(classify_block(A)) + "\n").encode())
        assert digest.hexdigest() == "e9696636a50434bbedb38f8b11e69ab0ca6bb9d4ba3bea323f640be3504dae9c"

    def test_classify_block_strings(self):
        ones = IntMatrix.from_rows([[1] * 10])
        assert str(classify_block(NccwComplex((1,) * 10, (10,), ones, ones))) == \
            "nice (1024 ideal supports checked)"
        A = NccwComplex((1, 1, 1), (2,), IntMatrix.from_rows([[0, 1, 1]]), IntMatrix.from_rows([[1, 0, 1]]))
        assert str(classify_block(A)) == \
            "nice (4 ideal supports checked; supports with nontrivial boundary maps: [[3]])"

    def test_odd_tower_is_odd(self):
        cls = classify_block(odd_tower_complex(0))
        assert cls.verdict is BlockClass.ODD
        assert cls.odd_witness.S == (2,)

    def test_dimension_drop_is_nice(self):
        assert classify_block(dimension_drop(2)).verdict is BlockClass.NICE

    def test_torsion_tower_is_odd(self):
        cls = classify_block(torsion_tower_complex(0))
        assert cls.verdict is BlockClass.ODD
        assert cls.odd_witness.S == (2, 3)

    def test_single_interval_blocks_are_nice(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rng.randint(1, 3)
            k = tuple(rng.randint(1, 2) for _ in range(p))
            while True:
                a = [rng.randint(0, 2) for _ in range(p)]
                b = [rng.randint(0, 2) for _ in range(p)]
                sa = sum(x * y for x, y in zip(a, k))
                if sa > 0 and sa == sum(x * y for x, y in zip(b, k)):
                    break
            A = NccwComplex(k, (sa,), IntMatrix.from_rows([a]), IntMatrix.from_rows([b]))
            cls = classify_block(A)
            assert cls.verdict is BlockClass.NICE, (A, cls)

    def test_single_interval_exact_rows_are_automatically_pure(self):
        """With one interval block, a trivial-boundary ideal extension has a
        free or vanishing quotient row, so purity is forced."""
        rng = random.Random(6)
        for _ in range(40):
            p = rng.randint(1, 3)
            k = tuple(rng.randint(1, 2) for _ in range(p))
            while True:
                a = [rng.randint(0, 2) for _ in range(p)]
                b = [rng.randint(0, 2) for _ in range(p)]
                sa = sum(x * y for x, y in zip(a, k))
                if sa > 0 and sa == sum(x * y for x, y in zip(b, k)):
                    break
            A = NccwComplex(k, (sa,), IntMatrix.from_rows([a]), IntMatrix.from_rows([b]))
            for spec in all_ideal_specs(A.delta, A.pattern):
                s0, s1 = k_sequences(A, spec)
                if is_exact(s0) and is_exact(s1):
                    assert is_pure(s0) and is_pure(s1)

    def test_nontrivial_boundary_supports_are_diagnostics_not_disqualifiers(self):
        # this block has an ideal whose K_1 row cannot be exact
        A = NccwComplex((1, 1, 1), (2,), IntMatrix.from_rows([[0, 1, 1]]),
                        IntMatrix.from_rows([[1, 1, 0]]))
        cls = classify_block(A)
        assert cls.verdict is BlockClass.NICE
        assert cls.nonexact_witnesses

    def test_nice_verdict_rechecks(self):
        A = dimension_drop(2)
        for spec in all_ideal_specs(A.delta, A.pattern):
            s0, s1 = k_sequences(A, spec)
            assert is_pure(s0) and is_pure(s1)
