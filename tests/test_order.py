from fractions import Fraction

import pytest

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
from nccwk.harness.scenarios import odd_tower_family


def k0_system():
    return odd_tower_family().k0_system(eventually_constant_from=0)


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
        flip = IndSystem.constant(GroupHom(G, G, IntMatrix.from_rows([[-1]])),
                                  cone=lambda g: g[0] >= 0)
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
        assert cone.scaling_invariant

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
