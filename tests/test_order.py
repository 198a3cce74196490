import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nccwk.fgab.groups import FgGroup, GroupHom
from nccwk.fgab.intmat import IntMatrix
from nccwk.homind import IndSystem
from nccwk.order import (
    ConeOracle,
    GradedElement,
    check_unperforated,
    deterministic_localized_samples,
    eventual_dominates,
    graded_witness_cone,
    halfplane_cone,
    stage_dominates,
    verify_perforation_witness,
)
from nccwk.harness import scenarios
from nccwk.harness.scenarios import _sweeps, odd_tower_family, run_scenario

from oracles import halfplane_reference, localized_samples_reference


def k0_system():
    return odd_tower_family().k0_system()


class TestStageDominance:
    def test_first_three_stages(self):
        sys0 = k0_system()
        assert not stage_dominates(sys0, (1, 0), (0, 1), 0)
        assert not stage_dominates(sys0, (1, 0), (0, 1), 1)
        assert stage_dominates(sys0, (1, 0), (0, 1), 2)

    def test_eventual(self):
        sys0 = k0_system()
        assert eventual_dominates(sys0, (1, 0), (0, 1), 6) == 2
        assert eventual_dominates(sys0, (1, 0), (1, 0), 6) == 0
        assert eventual_dominates(sys0, (0, 1), (1, 0), 6) is None

    def test_eventual_walks_each_vector_once(self, monkeypatch):
        sys0 = k0_system()
        calls = []
        bonding = IndSystem.bonding

        def counting(self, n):
            calls.append(n)
            return bonding(self, n)

        monkeypatch.setattr(IndSystem, "bonding", counting)
        assert eventual_dominates(sys0, (1, 0), (0, 1), 12) == 2
        assert len(calls) <= 2 * 12

    def test_eventual_rejects_non_monotone_dominance(self):
        G = FgGroup.free(1)
        hom = GroupHom(G, G, IntMatrix.from_rows([[-1]]))
        flip = IndSystem(lambda n: G, lambda n: hom, 0, cone_at=lambda n: lambda g: g[0] >= 0)
        with pytest.raises(ValueError, match="holds at stage 0, fails at stage 1"):
            eventual_dominates(flip, (1,), (0,), 3)

    def test_monotone_once_true(self):
        sys0 = k0_system()
        for s in range(2, 7):
            assert stage_dominates(sys0, (1, 0), (0, 1), s)

    def test_reflexive_transitive_at_fixed_stage(self):
        sys0 = k0_system()
        triples = [((1, 0), (0, 1)), ((2, 1), (0, 1)), ((1, 1), (1, 0))]
        for stage in (0, 2, 4):
            for u, v in triples:
                assert stage_dominates(sys0, u, u, stage)
                if stage_dominates(sys0, u, v, stage) and stage_dominates(sys0, v, (0, 0), stage):
                    assert stage_dominates(sys0, u, (0, 0), stage)

    def test_cone_addition_compatibility(self):
        sys0 = k0_system()
        # adding a positive class to the left preserves dominance
        for stage in (0, 2):
            if stage_dominates(sys0, (1, 0), (0, 1), stage):
                assert stage_dominates(sys0, (2, 1), (0, 1), stage)

    def test_transitivity_along_stages(self):
        sys0 = k0_system()
        s1 = eventual_dominates(sys0, (1, 0), (0, 1), 6)
        s2 = eventual_dominates(sys0, (0, 1), (0, 0), 6)
        s3 = eventual_dominates(sys0, (1, 0), (0, 0), 6)
        assert s3 is not None and s3 <= max(s1, s2)


class TestUnperforation:
    def test_halfplane_cone_clean(self):
        cone = halfplane_cone(3, 2)
        samples = list(deterministic_localized_samples(3, 2, 2000))
        assert check_unperforated(cone, samples, 12) is None
        assert check_unperforated(cone, samples, 24) is None

    def test_gap_cone_violation(self):
        cone = ConeOracle(lambda g: g[0] == 0 or g[0] >= 2)
        assert check_unperforated(cone, [(1,)], 4) == ((1,), 2)

    def test_full_cone(self):
        cone = ConeOracle(lambda g: True)
        assert check_unperforated(cone, [(x,) for x in range(-5, 5)], 6) is None

    def test_ambient_validation(self):
        cone = halfplane_cone(3, 2)
        with pytest.raises(ValueError):
            cone.contains((Fraction(1, 5), Fraction(0)))
        # inexact or non-numeric coordinates are refused, not converted
        with pytest.raises(ValueError):
            cone.contains((0.5, Fraction(0)))
        with pytest.raises(ValueError):
            cone.contains((Fraction(1), "1/3"))
        # elements are pairs: a third coordinate is not dropped, a lone one
        # is not an IndexError
        with pytest.raises(ValueError, match="pairs, not 3-tuples"):
            cone.contains((1, 0, -5))
        with pytest.raises(ValueError, match="pairs, not 1-tuples"):
            cone.contains((1,))

    def test_accepted_denominators_are_per_cone(self):
        """A denominator that is not a power of the prime raises on every
        call; one accepted by a cone is accepted by that cone only."""
        cone = halfplane_cone(3, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the localized ambient group"):
                cone.contains((Fraction(1, 5), 0))
            with pytest.raises(ValueError, match="outside the localized ambient group"):
                cone.contains((0, Fraction(1, 3)))
        assert cone.contains((Fraction(1, 3), 0))
        swapped = halfplane_cone(2, 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the localized ambient group"):
                swapped.contains((Fraction(1, 3), 0))
        assert cone.contains((Fraction(1, 3), 0))


def recording(cone):
    """The cone's oracle, recording every argument it is asked about."""
    calls = []
    return ConeOracle(lambda g: calls.append(g) or cone.contains(g)), calls


class TestSweepOracleCalls:
    def test_one_call_per_sample_and_per_outside_dilation(self):
        cone = halfplane_cone(3, 2)
        samples = list(deterministic_localized_samples(3, 2, 2000))
        outside = sum(not cone.contains(g) for g in samples)
        for nmax in (2, 12):
            oracle, calls = recording(cone)
            assert check_unperforated(oracle, samples, nmax) is None
            assert len(calls) == len(samples) + outside * (nmax - 1)

    def test_stops_at_first_violation(self):
        oracle, calls = recording(ConeOracle(lambda g: g[0] <= 0 or g[0] >= 6))
        assert check_unperforated(oracle, [(0,), (2,), (1,), (7,)], 8) == ((2,), 3)
        assert calls == [(0,), (2,), (4,), (6,)]

    def test_dilations_match_coordinatewise_products(self):
        samples = [(Fraction(-1, 3), 2), (-4, Fraction(5, 8)), (Fraction(3, 4), Fraction(0)),
                   (Fraction(7), Fraction(-9, 2)), (True, Fraction(-1, 6))]
        oracle, calls = recording(ConeOracle(lambda g: False))
        assert check_unperforated(oracle, samples, 7) is None
        expected = []
        for g in samples:
            expected.append(g)
            expected.extend(tuple(n * x for x in g) for n in range(2, 8))
        assert calls == expected
        for got, want in zip(calls, expected):
            for x, y in zip(got, want):
                assert type(x) is type(y)
                assert (x.numerator, x.denominator) == (y.numerator, y.denominator)

    def test_repeated_mixed_coordinates_keep_their_types(self):
        """Coordinates that repeat across samples and compare equal but have
        different types (2, Fraction(2), True) each dilate by their own rule."""
        column = [2, Fraction(2), True, Fraction(-1, 3), -4]
        samples = [(x, y) for x in column for y in column] + [(True, 2), (Fraction(2), True)]
        oracle, calls = recording(ConeOracle(lambda g: False))
        assert check_unperforated(oracle, samples, 9) is None
        expected = []
        for g in samples:
            expected.append(g)
            expected.extend(tuple(n * x for x in g) for n in range(2, 10))
        assert calls == expected
        for got, want in zip(calls, expected):
            assert type(got) is tuple
            for x, y in zip(got, want):
                assert type(x) is type(y)
                assert (x.numerator, x.denominator) == (y.numerator, y.denominator)

    def test_empty_sample_is_asked_once_per_n(self):
        oracle, calls = recording(ConeOracle(lambda g: False))
        assert check_unperforated(oracle, [()], 4) is None
        assert calls == [()] * 4

    def test_graded_samples_dilate_through_scale(self):
        factors = []

        class Recorded(GradedElement):
            def scale(self, n):
                factors.append(n)
                return super().scale(n)

        g = Recorded((Fraction(-1, 2), Fraction(1, 3)), (1,))
        oracle, calls = recording(ConeOracle(lambda h: False))
        assert check_unperforated(oracle, [g], 5) is None
        assert factors == [2, 3, 4, 5]
        assert calls[1:] == [GradedElement((-n * Fraction(1, 2), n * Fraction(1, 3)), (n,))
                             for n in range(2, 6)]


class TestSweeps:
    """thm3.3's two dilation bounds from one sweep, against one direct
    check_unperforated call per bound."""

    def both(self, cone, samples, small, large):
        oracle, calls = recording(cone)
        got = _sweeps(oracle, samples, small, large)
        direct = [recording(cone) for _ in range(2)]
        want = (check_unperforated(direct[0][0], samples, small),
                check_unperforated(direct[1][0], samples, large))
        assert got == want
        return got, len(calls), [len(c) for _, c in direct]

    def test_clean_cone_takes_one_sweep(self):
        samples = list(deterministic_localized_samples(3, 2, 500))
        got, asked, (_, wide) = self.both(halfplane_cone(3, 2), samples, 12, 24)
        assert got == (None, None)
        assert asked == wide

    def test_small_violation_takes_one_sweep(self):
        cone = ConeOracle(lambda g: g[0] == 0 or g[0] >= 2)
        got, asked, (_, wide) = self.both(cone, [(0,), (1,), (3,)], 3, 6)
        assert got == (((1,), 2), ((1,), 2))
        assert asked == wide

    def test_large_violation_falls_back(self):
        # (2,) first lands inside at n = 5 > small; the later (5,) at n = 2
        cone = ConeOracle(lambda g: g[0] <= 0 or g[0] >= 10)
        got, asked, (narrow, wide) = self.both(cone, [(0,), (2,), (5,)], 3, 6)
        assert got == (((5,), 2), ((2,), 5))
        assert asked == narrow + wide


def test_sample_coordinates_are_shared():
    samples = list(deterministic_localized_samples(3, 2, 10000))
    assert len({id(x) for x, _ in samples}) <= 405
    assert len({id(y) for _, y in samples}) <= 405


def test_thm33_cone_questions(monkeypatch):
    """One sweep to 24 answers both bounds: 10^4 samples, 4,942 of them
    outside, each asked at n = 2..24, plus the two graded checks' K_0
    questions.  Two sweeps (to 12 and to 24) asked 188,030."""
    calls = []

    def counting(p, q):
        cone = halfplane_cone(p, q)
        return ConeOracle(lambda g: calls.append(g) or cone.membership(g))

    monkeypatch.setattr(scenarios, "halfplane_cone", counting)
    run_scenario("thm3.3")
    assert len(calls) == 10000 + 4942 * 23 + 2 == 123668


@pytest.mark.parametrize("p, q, count", [(3, 2, 10000), (5, 7, 3000), (2, 3, 0)])
def test_sample_stream_is_randints(p, q, count):
    """The getrandbits draw gives randint's stream, value for value."""
    got = list(deterministic_localized_samples(p, q, count))
    want = list(localized_samples_reference(p, q, count))
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        assert [type(x) for x in g] == [Fraction, Fraction]
        assert ([(x.numerator, x.denominator) for x in g]
                == [(x.numerator, x.denominator) for x in w])


def test_sample_stream_is_pinned():
    # sha256 of the repr of the 10^4 samples that thm3.3's sweeps check
    samples = list(deterministic_localized_samples(3, 2, 10000))
    assert hashlib.sha256(repr(samples).encode()).hexdigest() == (
        "754f13a4d4144216c8d97a26ae89ff0fb4123d5cb5f467e0596f88d946d21789")


class SubFraction(Fraction):
    """A Fraction subclass: read through as_integer_ratio, not the slots."""


coordinates = st.one_of(
    st.integers(-10, 10),
    st.booleans(),
    st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10, 27])),
    st.builds(SubFraction, st.integers(-20, 20), st.sampled_from([1, 3, 5, 9])),
    st.floats(-4, 4, allow_nan=False),
)


class TestHalfplaneCone:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.tuples(coordinates, coordinates),
                              st.tuples(coordinates),
                              st.tuples(coordinates, coordinates, coordinates)),
                    max_size=12))
    def test_membership_matches_reference(self, gs):
        """One cone asked in turn, its accepted-denominator memo filling, gives
        the reference's verdicts and ValueErrors."""
        cone = halfplane_cone(3, 2)
        for g in gs:
            try:
                want = halfplane_reference(g, 3, 2)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    cone.membership(g)
                assert str(got.value) == str(e)
            else:
                assert cone.membership(g) is want

    def test_fraction_keeps_its_value_in_slots(self):
        assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
        x = Fraction(-6, 4)
        assert (x._numerator, x._denominator) == (x.numerator, x.denominator) == (-3, 2)

    def test_sweep_reads_no_fraction_accessor(self, monkeypatch):
        """thm3.3's sweep over the pinned samples reads each Fraction's slots,
        never as_integer_ratio, numerator or denominator."""
        samples = list(deterministic_localized_samples(3, 2, 10000))
        cone = halfplane_cone(3, 2)
        reads = []

        def counted(name):
            attr = getattr(Fraction, name)
            if isinstance(attr, property):
                return property(lambda x: reads.append(name) or attr.fget(x))
            return lambda x: reads.append(name) or attr(x)

        for name in ("as_integer_ratio", "numerator", "denominator"):
            monkeypatch.setattr(Fraction, name, counted(name))
        x = Fraction(3, 4)
        assert (x.as_integer_ratio(), x.numerator, x.denominator) == ((3, 4), 3, 4)
        assert reads == ["as_integer_ratio", "numerator", "denominator"]
        reads.clear()
        assert _sweeps(cone, samples, 12, 24) == (None, None)
        assert reads == []


class TestGradedWitness:
    def cone(self):
        table = {
            ((Fraction(0), Fraction(1)), (2,)): True,
            ((Fraction(0), Fraction(1, 2)), (1,)): False,
        }
        return graded_witness_cone(halfplane_cone(3, 2), table)

    def test_witness_confirmed(self):
        g = GradedElement.of((Fraction(0), Fraction(1, 2)), (1,))
        assert verify_perforation_witness(self.cone(), g, 2)

    def test_member_is_no_witness(self):
        g = GradedElement.of((Fraction(1), Fraction(0)), (0,))
        assert not verify_perforation_witness(self.cone(), g, 2)

    def test_k0_lift_is_no_witness(self):
        g = GradedElement.of((Fraction(0), Fraction(1, 2)), (0,))
        assert not verify_perforation_witness(self.cone(), g, 2)

    def test_undefined_inputs_raise(self):
        g = GradedElement.of((Fraction(1), Fraction(1)), (5,))
        with pytest.raises(ValueError):
            self.cone().contains(g)

    def test_small_n_rejected(self):
        g = GradedElement.of((Fraction(0), Fraction(1, 2)), (1,))
        with pytest.raises(ValueError):
            verify_perforation_witness(self.cone(), g, 1)
