import dataclasses
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nccwk.fgab.intmat import IntMatrix
from nccwk.fgab.groups import (
    FgGroup,
    GroupHom,
    ShortExactSeq,
    _splits,
    check_ladder,
    cokernel,
    exact_at,
    hom_is_well_defined,
    is_exact,
    is_pure,
    tensor_zn,
    tor_zn,
    tor_zn_embedding,
)
from nccwk.homind import LimitElement

from oracles import (
    cyclic_normal_form,
    minor_gcd_invariant_factors,
    purity_bruteforce,
    tensor_with_zn_oracle,
    tor_with_zn_oracle,
)


Z = FgGroup.free(1)
Z2 = FgGroup.from_cyclic([2])
Z4 = FgGroup.from_cyclic([4])


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


class TestCokernel:
    def test_infinite_cyclic(self):
        assert cokernel(M([[2, -2, 0], [1, -1, 0]])).iso_class() == (1, ())

    def test_torsion_four(self):
        assert cokernel(M([[4, -2, 0, 0], [0, 1, 2, -2]])).iso_class() == (0, (4,))

    def test_no_relations(self):
        assert cokernel(IntMatrix.zero(2, 0)).iso_class() == (2, ())


class TestHoms:
    def test_projection_well_defined(self):
        assert hom_is_well_defined(Z, Z2, M([[1]]))

    def test_torsion_into_free_is_not(self):
        assert not hom_is_well_defined(Z2, Z, M([[1]]))

    def test_relation_killing_map(self):
        G = FgGroup(2, IntMatrix.from_columns([(2, 1)], rows=2))
        assert hom_is_well_defined(G, Z, M([[1, -2]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hom_is_well_defined(Z, Z2, M([[1, 0]]))

    def test_injective_surjective(self):
        assert GroupHom.multiplication(Z, 2).is_injective()
        assert not GroupHom.multiplication(Z, 2).is_surjective()
        proj = GroupHom(Z4, Z2, M([[1]]))
        assert proj.is_surjective() and not proj.is_injective()


class TestDivide:
    def test_presented_group(self):
        G = FgGroup(2, IntMatrix.from_columns([(2, 1)], rows=2))
        x = G.divide_element((0, 1), 2)
        assert x is not None
        assert G.elements_equal((2 * x[0], 2 * x[1]), (0, 1))
        # the quoted coset identity: (0,1) and (2,2) name the same class
        assert G.elements_equal((0, 1), (2, 2))

    def test_odd_in_free(self):
        assert Z.divide_element((3,), 2) is None

    def test_torsion(self):
        x = Z4.divide_element((2,), 2)
        assert x is not None and x[0] % 4 in (1, 3)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            Z.divide_element((2,), 0)


def seq_z_times2_z2():
    return ShortExactSeq(GroupHom.multiplication(Z, 2), GroupHom(Z, Z2, M([[1]])))


def seq_z2_z4_z2():
    return ShortExactSeq(GroupHom(Z2, Z4, M([[2]])), GroupHom(Z4, Z2, M([[1]])))


def seq_split_free():
    mid = FgGroup.free(2)
    return ShortExactSeq(GroupHom(Z, mid, IntMatrix.from_columns([(1, 0)], rows=2)),
                         GroupHom(mid, Z, M([[0, 1]])))


class TestExactness:
    def test_multiplication_sequence(self):
        assert is_exact(seq_z_times2_z2())

    def test_wrong_quotient(self):
        s = ShortExactSeq(GroupHom.multiplication(Z, 2), GroupHom(Z, Z4, M([[1]])))
        assert not is_exact(s)

    def test_torsion_extension(self):
        assert is_exact(seq_z2_z4_z2())

    def test_exact_at_middle_only(self):
        # Z --x2--> Z --proj--> Z_4 fails at the right but the middle junction holds
        h1 = GroupHom.multiplication(Z, 2)
        h2 = GroupHom(Z, Z4, M([[1]]))
        assert not exact_at(h1, h2)


class TestPurity:
    def test_multiplication_sequence_not_pure(self):
        assert not is_pure(seq_z_times2_z2())

    def test_split_inclusion_pure(self):
        assert is_pure(seq_split_free())

    def test_torsion_extension_not_pure(self):
        assert not is_pure(seq_z2_z4_z2())

    def test_split_torsion_control(self):
        mid = FgGroup.from_cyclic([2, 2])
        s = ShortExactSeq(GroupHom(Z2, mid, IntMatrix.from_columns([(1, 0)], rows=2)),
                          GroupHom(mid, Z2, M([[0, 1]])))
        assert is_pure(s)

    def test_purity_needs_exactness(self):
        s = ShortExactSeq(GroupHom.multiplication(Z, 2), GroupHom(Z, Z4, M([[1]])))
        with pytest.raises(ValueError):
            is_pure(s)

    def test_brute_force_agrees_on_named_sequences(self):
        # the raw divisibility definition, n <= 8, on diagonalized data
        assert purity_bruteforce([[2]], [0], [0], 8) is False          # Z --x2--> Z
        assert purity_bruteforce([[2]], [2], [4], 8) is False          # Z_2 --x2--> Z_4
        assert purity_bruteforce([[1], [0]], [0], [0, 0], 8) is True   # split inclusion


class TestLadder:
    def test_identity_ladder(self):
        s = seq_z_times2_z2()
        assert check_ladder(s, s, GroupHom.identity(Z), GroupHom.identity(Z),
                            GroupHom.identity(Z2))

    def test_scaling_breaks_commutativity(self):
        zero = FgGroup.free(0)
        s = ShortExactSeq(GroupHom.identity(Z), GroupHom(Z, zero, IntMatrix.zero(0, 1)))
        assert not check_ladder(s, s, GroupHom.multiplication(Z, 2),
                                GroupHom.identity(Z), GroupHom.identity(zero))

    def test_torsion_identity_ladder(self):
        s = seq_z2_z4_z2()
        assert check_ladder(s, s, GroupHom.identity(Z2), GroupHom.identity(Z4),
                            GroupHom.identity(Z2))

    def test_shape_mismatch(self):
        """The left vertical starts at Z/2 and the top row's left group is Z:
        one generator each, but not one group."""
        s = seq_z_times2_z2()
        with pytest.raises(ValueError, match="ladder shape mismatch"):
            check_ladder(s, s, GroupHom.identity(Z2), GroupHom.identity(Z),
                         GroupHom.identity(Z2))


class TestEndpointRule:
    """Homs meet where their groups are equal; Z, Z/2 and Z/4 all have one
    generator, and an equal count does not make them one endpoint."""

    def test_a_row_meets_at_one_group(self):
        with pytest.raises(ValueError, match="inj target and surj source do not match"):
            ShortExactSeq(GroupHom(Z, Z, M([[2]])), GroupHom(Z4, Z2, M([[1]])))

    def test_composition_and_exactness_meet_at_one_group(self):
        f, g = GroupHom(Z, Z2, M([[1]])), GroupHom(Z, Z, M([[1]]))
        with pytest.raises(ValueError, match="composition shape mismatch"):
            g.compose(f)
        with pytest.raises(ValueError, match="homs not composable"):
            exact_at(f, g)

    def test_homs_on_different_sources_are_not_equal(self):
        assert not GroupHom(Z, Z2, M([[1]])).equals(GroupHom(Z4, Z2, M([[1]])))
        assert GroupHom(Z4, Z2, M([[3]])).equals(GroupHom(Z4, Z2, M([[1]])))


class TestCoefficientFunctors:
    def test_tensor_free(self):
        assert tensor_zn(Z, 2).iso_class() == (0, (2,))
        assert tor_zn(Z, 2).iso_class() == (0, ())

    def test_tor_torsion(self):
        assert tor_zn(Z4, 2).iso_class() == (0, (2,))

    def test_tensor_rank_two(self):
        assert tensor_zn(FgGroup.free(2), 2).iso_class() == (0, (2, 2))

    def test_embedding_lands_in_torsion(self):
        emb = tor_zn_embedding(Z4, 2)
        img = emb.apply((1,))
        assert Z4.elements_equal(tuple(2 * x for x in img), (0,) * Z4.generators)
        assert not Z4.elements_equal(img, (0,) * Z4.generators)


groups = st.builds(
    lambda free, torsion: FgGroup.from_cyclic([0] * free + sorted(torsion)),
    st.integers(0, 2),
    st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), max_size=2))


@settings(max_examples=60, deadline=None)
@given(groups, st.integers(0, 12))
def test_tensor_tor_match_classification(G, n):
    ours = tensor_zn(G, n).iso_class()
    oracle = cyclic_normal_form(tensor_with_zn_oracle(G.diagonal_orders, n))
    assert ours == oracle
    ours_tor = tor_zn(G, n).iso_class()
    assert ours_tor == cyclic_normal_form(tor_with_zn_oracle(G.diagonal_orders, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.lists(st.integers(1, 6), min_size=1, max_size=2))
def test_purity_matches_bruteforce_for_diagonal_inclusions(rank, mults):
    """Free mid term, inclusion multiplying each coordinate by m_i."""
    r = max(rank, len(mults))
    mults = (mults + [1] * r)[:r]
    mid = FgGroup.free(r)
    inj = GroupHom(mid, mid, IntMatrix.from_rows(
        [[mults[i] if i == j else 0 for j in range(r)] for i in range(r)]))
    quot = FgGroup.from_cyclic(mults)
    surj = GroupHom(mid, quot, IntMatrix.identity(r))
    s = ShortExactSeq(inj, surj)
    assert is_exact(s)
    n_max = math.lcm(1, *quot.torsion_orders) + 1
    brute = purity_bruteforce(inj.matrix.entries, [0] * r, [0] * r, n_max)
    assert is_pure(s) == brute
    assert _splits(s) == brute


def presentations(max_generators, max_relations):
    return st.tuples(st.integers(0, max_generators), st.integers(0, max_relations)).flatmap(
        lambda gr: st.lists(st.lists(st.integers(-6, 6), min_size=gr[1], max_size=gr[1]),
                            min_size=gr[0], max_size=gr[0]).map(
            lambda rows: cokernel(IntMatrix.from_rows(rows, cols=gr[1]))))


presented_groups = presentations(3, 3)


@settings(max_examples=100, deadline=None)
@given(presented_groups, presented_groups, presented_groups)
def test_is_sum_of_matches_the_direct_sum(G, H, Q):
    assert G.is_sum_of(H, Q) == G.is_isomorphic_to(FgGroup.direct_sum(H, Q))
    assert FgGroup.direct_sum(H, Q).is_sum_of(H, Q)
    assert FgGroup.direct_sum(Q, H).is_sum_of(H, Q)


@settings(max_examples=40, deadline=None)
@given(groups, st.integers(0, 2 ** 32 - 1))
def test_cokernel_iso_invariance_under_unimodular_change(G, seed):
    """Left and right unimodular multiplication of the relation matrix does
    not change the isomorphism class."""
    import random as _random

    R = G.relations
    if R.rows == 0 or R.cols == 0:
        return
    rng = _random.Random(seed)

    def random_unimodular(n):
        M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    M[i][k] += c * M[j][k]
        return IntMatrix.from_rows(M, cols=n)

    U = random_unimodular(R.rows)
    V = random_unimodular(R.cols)
    moved = FgGroup(G.generators, U @ R @ V)
    assert moved.iso_class() == G.iso_class()


@settings(max_examples=150, deadline=None)
@given(presentations(4, 5))
def test_invariants_set_at_construction_match_minor_gcds(G):
    """The invariants a group sets when it is built, against the minor-gcd
    oracle; fewer columns than rows leave generators no relation hits."""
    rows = [list(r) for r in G.relations.entries]
    d = minor_gcd_invariant_factors(rows)
    orders = d + (0,) * (G.generators - len(d))
    assert G.diagonal_orders == orders
    assert G.free_rank == orders.count(0)
    assert G.torsion_orders == tuple(x for x in orders if x > 1)
    assert [f.name for f in dataclasses.fields(FgGroup)] == ["generators", "relations"]
    twin = FgGroup(G.generators, IntMatrix.from_rows(rows, cols=G.relations.cols))
    assert twin is not G
    assert twin == G and hash(twin) == hash(G) and repr(twin) == repr(G)


INTEGER_INPUTS = (
    lambda x: IntMatrix.from_rows([[1, x]]),
    lambda x: IntMatrix.column([1, x]),
    lambda x: IntMatrix.from_columns([(1, x)]),
    lambda x: FgGroup.free(2).check_element((1, x)),
    lambda x: LimitElement(0, (1, x)),
)


@pytest.mark.parametrize("x", [1.5, Fraction(1, 2)], ids=["float", "Fraction"])
def test_non_integers_are_refused_not_truncated(x):
    for make in INTEGER_INPUTS:
        with pytest.raises(TypeError):
            make(x)
        make(True)
        make(sympy.Integer(3))


@pytest.mark.parametrize("make", [
    lambda: IntMatrix.from_columns([(1,), (2, 3)]),
    lambda: IntMatrix.from_columns([(1, 2), (3,)]),
    lambda: IntMatrix.from_columns([(1,), (2, 3)], rows=2),
    lambda: IntMatrix.from_columns([(1, 2), (3, 4)], rows=3),
    lambda: IntMatrix.from_columns([()], rows=1),
    lambda: IntMatrix.from_rows([[1, 2], [3]]),
    lambda: IntMatrix.from_rows([[1, 2]], cols=3),
    lambda: IntMatrix.from_rows([[]], cols=1),
], ids=["ragged-columns", "short-last-column", "ragged-columns-rows-stated",
        "rows-contradicted", "empty-column-rows-contradicted", "ragged-rows",
        "cols-contradicted", "empty-row-cols-contradicted"])
def test_builders_refuse_data_that_disagrees_with_its_size(make):
    """Ragged data and a stated size the data contradicts are refused, not
    truncated to the shortest row or column."""
    with pytest.raises(ValueError):
        make()

