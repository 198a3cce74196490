import itertools
import random
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from nccwk.fgab.intmat import IntMatrix, solve_matrix
from nccwk.fgab.groups import FgGroup, GroupHom, ShortExactSeq, is_exact, is_pure
from nccwk import homind, nccw
from nccwk.nccw import NccwComplex, all_ideal_specs, k_sequences, k_theory
from nccwk.homind import (
    AtInterior,
    AtPoint,
    ComplexFamily,
    FullPath,
    IdealLadder,
    IndSystem,
    LimitElement,
    MapDescription,
    compose_descriptions,
    description_maps_ideal,
    divisible_in_limit,
    identify_localized_limit,
    induced_k0,
    induced_k1,
    limit_equal,
    limit_ses_purity,
    maps_equal_on_k,
    truncate,
)
from nccwk.homind import _char_poly, _integer_roots, _triangularize
from nccwk.harness.inputfmt import FamilySpec, parse
from nccwk.harness.scenarios import (
    ODD_ASSIGNMENT,
    ODD_BASIS,
    SCENARIOS,
    odd_tower_complex,
    odd_tower_family,
    tailed_family,
    matrix_tail_sizes,
    run_scenario,
    torsion_tower_family,
    uhf_tail_sizes,
)

from oracles import cofactor_char_poly, divisor_scan_integer_roots

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


class TestDescriptions:
    def test_unital_accounting_enforced(self):
        src = odd_tower_complex(0)
        with pytest.raises(ValueError):
            MapDescription(src, odd_tower_complex(1),
                           f1=((AtPoint(0),), (AtPoint(1), AtInterior(0)), (AtPoint(2), AtInterior(1))),
                           f2=((FullPath(0), AtInterior(0), AtInterior(0)),
                               (FullPath(1), AtInterior(0), AtInterior(1))))

    def test_overfill_rejected(self):
        src = odd_tower_complex(0)
        with pytest.raises(ValueError):
            MapDescription(src, src,
                           f1=((AtPoint(0), AtPoint(1)), (AtPoint(1),), (AtPoint(2),)),
                           f2=((FullPath(0),), (FullPath(1),)), unital=False)

    @pytest.mark.parametrize("f1, f2, unital, message", [
        (((AtPoint(0), AtPoint(1)), (AtPoint(1),), (AtPoint(2),)), ((FullPath(0),), (FullPath(1),)),
         False, "target point 1 overfilled: 2 > 1"),
        (((AtPoint(0),), (), (AtPoint(2),)), ((FullPath(0),), (FullPath(1),)),
         True, "unital description must fill target point 2: 0 != 1"),
        (((AtPoint(0),), (AtPoint(1),), (AtPoint(2),)), ((FullPath(0),), (FullPath(1), AtPoint(0))),
         False, "target block 2 overfilled: 3 > 2"),
        (((AtPoint(0),), (AtPoint(1),), (AtPoint(2),)), ((AtPoint(0),), (FullPath(1),)),
         True, "unital description must fill target block 1: 1 != 2"),
    ])
    def test_size_accounting_messages(self, f1, f2, unital, message):
        src = odd_tower_complex(0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            MapDescription(src, src, f1=f1, f2=f2, unital=unital)

    def test_full_path_not_allowed_in_points(self):
        src = odd_tower_complex(0)
        with pytest.raises(ValueError):
            MapDescription(src, src,
                           f1=((FullPath(0),), (), ()),
                           f2=((), ()), unital=False)

    def test_multiset_order_is_canonical(self):
        src = odd_tower_complex(0)
        a = MapDescription(src, odd_tower_complex(1),
                           f1=((AtPoint(0), AtInterior(0)), (AtPoint(1), AtInterior(0)),
                               (AtPoint(2), AtInterior(1))),
                           f2=((FullPath(0), AtInterior(0), AtInterior(0)),
                               (AtInterior(0), FullPath(1), AtInterior(1))))
        b = odd_tower_family().bonding(0)
        assert a == b


class TestInducedMaps:
    def test_odd_tower_k0_matrix(self):
        fam = odd_tower_family()
        hom = induced_k0(fam.bonding(0), fam.kdata(0), fam.kdata(1))
        assert hom.matrix == IntMatrix.from_rows([[3, 0], [1, 2]])

    def test_odd_tower_k1_identity(self):
        fam = odd_tower_family()
        hom = induced_k1(fam.bonding(0), fam.kdata(0), fam.kdata(1))
        assert hom.equals(GroupHom.identity(fam.kdata(0).k1))

    def test_no_full_path_means_zero_k1(self):
        src = odd_tower_complex(0)
        m = MapDescription(src, src,
                           f1=((), (), ()), f2=(((AtInterior(0),)), (AtInterior(1),)),
                           unital=False)
        kd = k_theory(src.delta)
        hom = induced_k1(m, kd, kd)
        assert hom.is_zero_hom()

    def test_unit_class_goes_to_unit_class(self):
        for fam in (odd_tower_family(), torsion_tower_family()):
            src, tgt = fam.complex_at(0), fam.complex_at(1)
            kd_s, kd_t = fam.kdata(0), fam.kdata(1)
            unit_src = solve_matrix(kd_s.k0_basis, IntMatrix.column(src.k)).col(0)
            unit_tgt = solve_matrix(kd_t.k0_basis, IntMatrix.column(tgt.k)).col(0)
            hom = induced_k0(fam.bonding(0), kd_s, kd_t)
            assert hom.apply(unit_src) == unit_tgt

    def test_escaping_image_detected(self):
        # only one endpoint slot is filled, so the image rank vector
        # (1, 0) falls outside ker(2, -2)
        src = NccwComplex((1, 1), (2,), IntMatrix.from_rows([[2, 0]]),
                          IntMatrix.from_rows([[0, 2]]))
        m = MapDescription(src, src, f1=((AtPoint(0),), ()),
                           f2=((FullPath(0),),), unital=False)
        kd = k_theory(src.delta)
        with pytest.raises(ValueError):
            induced_k0(m, kd, kd)


class TestMapsEqual:
    def test_tailed_tower_pairs_agree(self):
        plain = tailed_family(matrix_tail_sizes, 1, twisted=False)
        twisted = tailed_family(matrix_tail_sizes, 1, twisted=True)
        for n in range(3):
            assert maps_equal_on_k(plain.bonding(n), twisted.bonding(n),
                                   plain.kdata(n), plain.kdata(n + 1))

    def test_uhf_pairs_agree(self):
        plain = tailed_family(uhf_tail_sizes, 3, twisted=False)
        twisted = tailed_family(uhf_tail_sizes, 3, twisted=True)
        for n in range(3):
            assert maps_equal_on_k(plain.bonding(n), twisted.bonding(n),
                                   plain.kdata(n), plain.kdata(n + 1))

    def test_self_equality(self):
        fam = odd_tower_family()
        m = fam.bonding(0)
        assert maps_equal_on_k(m, m, fam.kdata(0), fam.kdata(1))

    def test_extra_full_path_detected(self):
        base = NccwComplex((1, 1), (2,), IntMatrix.from_rows([[2, 0]]),
                           IntMatrix.from_rows([[0, 2]]))
        big = NccwComplex((2, 2), (4,), IntMatrix.from_rows([[2, 0]]),
                          IntMatrix.from_rows([[0, 2]]))
        one = MapDescription(base, big, f1=((AtPoint(0),), (AtPoint(1),)),
                             f2=((FullPath(0),),), unital=False)
        two = MapDescription(base, big, f1=((AtPoint(0),), (AtPoint(1),)),
                             f2=((FullPath(0), FullPath(0)),), unital=False)
        assert not maps_equal_on_k(one, two, k_theory(base.delta), k_theory(big.delta))

    def test_shape_mismatch(self):
        fam = odd_tower_family()
        with pytest.raises(ValueError):
            maps_equal_on_k(fam.bonding(0), fam.bonding(1), fam.kdata(0), fam.kdata(1))

    def test_k_data_of_another_stage_is_named(self):
        """ex4.3's stage 1 has more tail points than stage 0, so stage-0 K
        data cannot describe the bonding out of stage 1."""
        plain = tailed_family(matrix_tail_sizes, 1, twisted=False)
        twisted = tailed_family(matrix_tail_sizes, 1, twisted=True)
        with pytest.raises(ValueError, match="^kd_src is the K data of another complex"):
            maps_equal_on_k(plain.bonding(1), twisted.bonding(1), plain.kdata(0), plain.kdata(1))
        for induced in (induced_k0, induced_k1):
            with pytest.raises(ValueError, match="^kd_tgt is the K data of another complex"):
                induced(plain.bonding(1), plain.kdata(1), plain.kdata(1))

    def test_stages_sharing_delta_share_k_data(self):
        """The torsion tower's stages differ in k and h but share alpha - beta,
        so stage-0 and stage-1 K data serve the bonding out of stage 1 and
        give the family's own matrix in TORSION_BASIS."""
        fam = torsion_tower_family()
        assert fam.complex_at(1).k != fam.complex_at(0).k != fam.complex_at(2).k
        hom = induced_k0(fam.bonding(1), fam.kdata(0), fam.kdata(1))
        assert hom.matrix == IntMatrix.from_rows([[5, 0], [2, 3]])

    def test_equivalence_relation_on_tower_maps(self):
        plain = tailed_family(matrix_tail_sizes, 1, twisted=False)
        twisted = tailed_family(matrix_tail_sizes, 1, twisted=True)
        a, b = plain.bonding(0), twisted.bonding(0)
        kds = plain.kdata(0), plain.kdata(1)
        assert maps_equal_on_k(a, a, *kds)
        assert maps_equal_on_k(a, b, *kds) == maps_equal_on_k(b, a, *kds)


class TestComposition:
    def test_functoriality_on_towers(self):
        for fam in (odd_tower_family(), torsion_tower_family()):
            m1, m2 = fam.bonding(0), fam.bonding(1)
            comp = compose_descriptions(m2, m1)
            kd0, kd2 = fam.kdata(0), fam.kdata(2)
            left = induced_k0(comp, kd0, kd2)
            right = induced_k0(m2, fam.kdata(1), kd2).compose(
                induced_k0(m1, kd0, fam.kdata(1)))
            assert left.equals(right)
            left1 = induced_k1(comp, kd0, kd2)
            right1 = induced_k1(m2, fam.kdata(1), kd2).compose(
                induced_k1(m1, kd0, fam.kdata(1)))
            assert left1.equals(right1)

    def test_functoriality_on_random_chains(self):
        rng = random.Random(17)
        plain = tailed_family(matrix_tail_sizes, 1, twisted=False)
        twisted = tailed_family(matrix_tail_sizes, 1, twisted=True)
        for _ in range(6):
            fams = [rng.choice((plain, twisted)) for _ in range(2)]
            m1 = fams[0].bonding(0)
            m2 = fams[1].bonding(1)
            comp = compose_descriptions(m2, m1)
            kd0 = k_theory(m1.source.delta)
            kd2 = k_theory(m2.target.delta)
            kdm = k_theory(m1.target.delta)
            assert induced_k0(comp, kd0, kd2).equals(
                induced_k0(m2, kdm, kd2).compose(induced_k0(m1, kd0, kdm)))

    def test_composite_unitality(self):
        fam = odd_tower_family()
        comp = compose_descriptions(fam.bonding(1), fam.bonding(0))
        assert comp.unital
        assert comp.source == fam.complex_at(0) and comp.target == fam.complex_at(2)


class TestRestriction:
    def test_odd_tower_bonding_respects_ideal(self):
        fam = odd_tower_family()
        s0 = fam.ideal_spec(0, (2,))
        s1 = fam.ideal_spec(1, (2,))
        assert description_maps_ideal(fam.bonding(0), s0, s1)
        fam_i = fam.ideal_family((2,))
        hom = induced_k0(fam_i.bonding(0), fam_i.kdata(0), fam_i.kdata(1))
        assert hom.matrix == IntMatrix.from_rows([[2]])

    def test_ideal_violation_detected(self):
        # a constant family whose self-map sends the ideal's point into an
        # outside slot
        src = odd_tower_complex(0)
        fam = ComplexFamily(lambda n: src, lambda n: (((AtPoint(2),), (), ()), ((), ()), False))
        spec = fam.ideal_spec(0, (2,))
        assert not description_maps_ideal(fam.bonding(0), spec, spec)
        with pytest.raises(ValueError):
            fam.ideal_family((2,)).bonding(0)

    def test_both_restrictions_check_the_ideal(self):
        # the ideal over points {1, 2} spans both interval blocks; target
        # point 3 lies outside it but takes interior 2, an evaluation on it
        fam = odd_tower_family()
        m, s0, s1 = fam.bonding(0), fam.ideal_spec(0, (0, 1)), fam.ideal_spec(1, (0, 1))
        assert not description_maps_ideal(m, s0, s1)
        for derived in (fam.ideal_family((0, 1)), fam.quotient_family((0, 1))):
            with pytest.raises(ValueError, match="does not map the ideal into the ideal"):
                derived.bonding(0)


class TestFamilyStages:
    def test_k0sys_truncation_builds_each_stage_once(self, monkeypatch):
        built = []
        stage_complex = FamilySpec.complex_at

        def counting(self, n):
            built.append(n)
            return stage_complex(self, n)

        doc = parse((SAMPLES / "odd_tower.nccw").read_text())
        monkeypatch.setattr(FamilySpec, "complex_at", counting)
        truncate(doc.system_object("k0sys"), 4)
        assert len(built) == 5 and len(set(built)) == 5

    def test_derived_families_reuse_the_stages(self):
        built = []

        def counting(n):
            built.append(n)
            return odd_tower_complex(n)

        fam = ComplexFamily(counting, lambda n: ODD_ASSIGNMENT, basis=ODD_BASIS)
        for degree in (0, 1):
            lad = fam.ladder((2,), degree)
            for sys in (lad.sys_ideal, lad.sys_total, lad.sys_quotient):
                truncate(sys, 4)
            for n in range(5):
                lad.row_at(n)
        assert built == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("make", [odd_tower_family, torsion_tower_family,
                                      lambda: tailed_family(matrix_tail_sizes, 1, False)])
    def test_ideal_rows_match_an_independent_build(self, make):
        """The family's rows agree with k_sequences computing its own K data
        (groups, exactness and purity; the families keep their own K_0
        bases, so the matrices may differ) and are built once."""
        fam = make()
        for n in range(3):
            A = fam.complex_at(n)
            for spec in all_ideal_specs(A.delta, A.pattern):
                rows = fam.ideal_rows(n, spec.S)
                assert rows is fam.ideal_rows(n, spec.S)
                for row, ref in zip(rows, k_sequences(A.delta, spec)):
                    assert ([str(row.left), str(row.mid), str(row.right), is_exact(row), is_pure(row)]
                            == [str(ref.left), str(ref.mid), str(ref.right), is_exact(ref), is_pure(ref)])

    def test_derived_families_and_systems_are_built_once(self):
        fam = odd_tower_family()
        assert fam.ideal_family((2,)) is fam.ideal_family([2])
        assert fam.quotient_family((2,)) is fam.quotient_family((2,))
        assert fam.ideal_family((2,)) is not fam.quotient_family((2,))
        assert fam.k0_system() is fam.k0_system() and fam.k1_system() is fam.k1_system()

    def test_one_support_spelled_three_ways_is_one_memo_entry(self):
        fam = torsion_tower_family()
        for get in (lambda S: fam.ideal_spec(0, S), lambda S: fam.ideal_rows(0, S),
                    fam.ideal_family, fam.quotient_family,
                    lambda S: fam.ladder(S, 1).sys_quotient):
            assert get((3, 2)) is get((2, 3)) is get((2, 2, 3))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios_compute_k_data_once_per_stage(self, name, monkeypatch):
        """Every K computation in homind and nccw is one family stage's: no
        complex has its K data computed twice, through repeated
        ideal_family(S) calls, both ladder degrees, the stage rows or the
        paired towers' comparisons.  K data is a function of delta, and a
        family computes it once per distinct delta, so the stages of a
        tower, which share one delta, share their K data: the scenarios make
        3, 13, 13, 4 and 3 k_theory calls (before, 21, 17, 17, 4 and 15, one
        per stage), each for a delta no other call had."""
        deltas = []

        def counting(delta, basis=None):
            deltas.append(delta)
            return k_theory(delta, basis)

        monkeypatch.setattr(homind, "k_theory", counting)
        monkeypatch.setattr(nccw, "k_theory", counting)
        run_scenario(name)
        assert all(a != b for a, b in itertools.combinations(deltas, 2))
        totals = {"thm3.3": 3, "ex4.3": 13, "ex4.7": 13, "sec5": 4, "ex6.1": 3}
        assert len(deltas) == totals[name]

    @pytest.mark.parametrize("name, rows", [("thm3.3", 6), ("ex4.3", 5), ("ex4.7", 5),
                                            ("sec5", 0), ("ex6.1", 5)])
    def test_scenarios_build_each_row_once(self, name, rows, monkeypatch):
        """The inclusion and the quotient K maps run once per (support,
        stage): every ladder square, stage row and scenario claim reads the
        family's memoized rows (before, 57, 34, 34, 0 and 20 calls of the two).
        A stage is told by its complex's delta object, as equal stages of a
        tower have equal deltas."""
        calls = {"inclusion_k_maps": [], "quotient_k_maps": []}
        for fname, seen in calls.items():
            def counting(delta, spec, *kds, fn=getattr(nccw, fname), seen=seen):
                seen.append((delta, spec))
                return fn(delta, spec, *kds)

            monkeypatch.setattr(nccw, fname, counting)
        run_scenario(name)
        for seen in calls.values():
            assert len(seen) == len({(id(delta), spec) for delta, spec in seen}) == rows

    @pytest.mark.parametrize("name, most", [("thm3.3", 21), ("ex4.3", 58), ("sec5", 44),
                                            ("ex6.1", 16)])
    def test_scenario_complex_builds(self, name, most, monkeypatch):
        """Stage complexes are built by their families only (thm3.3 has 21
        distinct shapes; before, 112, 166, 45 and 18 complexes were built)."""
        built = []
        init = NccwComplex.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NccwComplex, "__init__", counting)
        run_scenario(name)
        assert len(built) <= most

    def test_negative_stage_rejected(self):
        fam = odd_tower_family()
        sys0 = fam.k0_system()
        for lookup in (fam.complex_at, fam.bonding, sys0.group, sys0.bonding,
                       sys0.cone_membership, IndSystem.from_matrix(IntMatrix.identity(1)).bonding):
            with pytest.raises(ValueError, match="stage index must be nonnegative"):
                lookup(-1)


class TestSystems:
    def test_truncate_constant(self):
        sys2 = IndSystem.from_matrix(IntMatrix.from_rows([[2]]))
        tr = truncate(sys2, 3)
        assert len(tr.groups) == 4 and len(tr.bondings) == 3
        assert all(h.matrix == IntMatrix.from_rows([[2]]) for h in tr.bondings)

    def test_truncate_rejects_a_bonding_into_the_wrong_group(self):
        Z, Z2 = FgGroup.free(1), FgGroup.free(2)
        widening = GroupHom(Z, Z2, IntMatrix.from_rows([[1], [0]]))
        sys = IndSystem(lambda n: Z, lambda n: widening)
        with pytest.raises(ValueError, match="bonding at stage 0 does not land in the group at stage 1"):
            truncate(sys, 2)

    def test_truncate_rejects_a_bonding_on_groups_of_the_same_rank(self):
        """Z/2 and Z both have one generator: the groups are compared, not
        their generator counts."""
        Z, Z2 = FgGroup.free(1), FgGroup(1, IntMatrix.from_rows([[2]]))
        sys = IndSystem(lambda n: Z2, lambda n: GroupHom(Z, Z, IntMatrix.from_rows([[1]])))
        with pytest.raises(ValueError, match="bonding at stage 0 does not match its group"):
            truncate(sys, 2)

    def test_every_reader_gets_a_checked_bonding(self):
        """The system checks a bonding where it builds it, so limit_equal
        refuses bondings on Z over stages Z/2 instead of answering about
        the wrong groups."""
        Z, Z2 = FgGroup.free(1), FgGroup(1, IntMatrix.from_rows([[2]]))
        sys = IndSystem(lambda n: Z2, lambda n: GroupHom(Z, Z, IntMatrix.from_rows([[1]])))
        with pytest.raises(ValueError, match="bonding at stage 0 does not match its group"):
            limit_equal(sys, LimitElement(0, (0,)), LimitElement(0, (1,)), 2)

    def test_truncate_orbits(self):
        sys0 = odd_tower_family().k0_system()

        def orbit(vec):
            return [v for _, v in sys0.walk(LimitElement(0, vec), 0, 2)]

        assert orbit((1, 0)) == [(1, 0), (3, 1), (9, 5)]
        assert orbit((0, 1)) == [(0, 1), (0, 2), (0, 4)]

    def test_truncate_k1_all_identity(self):
        sys1 = odd_tower_family().k1_system()
        tr = truncate(sys1, 5)
        assert all(h.equals(GroupHom.identity(h.source)) for h in tr.bondings)

    def test_limit_equal_orbit(self):
        sys0 = odd_tower_family().k0_system()
        v = limit_equal(sys0, LimitElement(0, (1, 0)), LimitElement(1, (3, 1)), 4)
        assert v.kind == "equal"

    def test_limit_distinct_with_certificate(self):
        sys2 = IndSystem.from_matrix(IntMatrix.from_rows([[2]]))
        v = limit_equal(sys2, LimitElement(0, (1,)), LimitElement(0, (2,)), 5)
        assert v.kind == "distinct"

    def test_limit_unknown_without_certificate(self):
        # non-injective bonding that keeps the two elements apart
        G = FgGroup.free(2)
        collapse = GroupHom(G, G, IntMatrix.from_rows([[1, 0], [0, 0]]))
        sys_c = IndSystem.constant(collapse)
        v = limit_equal(sys_c, LimitElement(0, (1, 0)), LimitElement(0, (2, 0)), 1)
        assert v.kind == "unknown"

    def test_divisibility_probes(self):
        sys2 = IndSystem.from_matrix(IntMatrix.from_rows([[2]]))
        assert divisible_in_limit(sys2, LimitElement(0, (1,)), 8, 6) == 3
        assert divisible_in_limit(sys2, LimitElement(0, (1,)), 3, 10) is None
        sys0 = odd_tower_family().k0_system()
        assert divisible_in_limit(sys0, LimitElement(0, (0, 1)), 2, 5) == 1

    def test_divisibility_bound_before_the_element_is_refused(self):
        """A bound before x's stage inspects no stage, so it is refused, as
        limit_equal refuses one, instead of reading "not divisible"."""
        sys2 = IndSystem.from_matrix(IntMatrix.from_rows([[2]]))
        assert divisible_in_limit(sys2, LimitElement(3, (1,)), 2, 4) == 4
        for x, bound in ((LimitElement(3, (1,)), 1), (LimitElement(4, (2,)), 3)):
            with pytest.raises(ValueError, match="bound precedes the element's stage"):
                divisible_in_limit(sys2, x, 2, bound)


class TestIdentification:
    def test_odd_tower_k0(self):
        ident = identify_localized_limit(odd_tower_family().k0_system())
        assert ident.localization_multiset() == (2, 3)

    def test_a_group_change_past_the_declared_stage_is_not_constant(self):
        """Stages Z up to 2 and Z/2 from 3 on, each bonding the matrix [1]:
        the bonding at stage 2 lands in Z/2, so it is not the bonding at
        stage 0, and the declared constancy from 0 identifies nothing."""
        Z, Z2 = FgGroup.free(1), FgGroup.from_cyclic([2])

        def group_at(n):
            return Z if n < 3 else Z2

        sys = IndSystem(group_at, lambda n: GroupHom(group_at(n), group_at(n + 1), IntMatrix.identity(1)),
                        eventually_constant_from=0)
        assert identify_localized_limit(sys) is None

    def test_constant_doubling(self):
        ident = identify_localized_limit(IndSystem.from_matrix(IntMatrix.from_rows([[2]])))
        assert ident.describe() == "Z[1/2]"

    def test_identity_is_plain_z(self):
        ident = identify_localized_limit(IndSystem.from_matrix(IntMatrix.identity(1)))
        assert ident.describe() == "Z"

    def test_torsion_tower_k0(self):
        ident = identify_localized_limit(torsion_tower_family().k0_system())
        assert ident.localization_multiset() == (3, 5)

    def test_fixed_torsion(self):
        ident = identify_localized_limit(torsion_tower_family().k1_system())
        assert ident.describe() == "Z/4"

    def test_no_metadata_means_none(self):
        fam = ComplexFamily(odd_tower_complex, lambda n: ODD_ASSIGNMENT)
        assert identify_localized_limit(fam.k0_system()) is None

    def test_undetected_pattern(self):
        # irrational eigenvalues: no integer flag exists
        M = IntMatrix.from_rows([[1, 1], [1, 0]])
        assert identify_localized_limit(IndSystem.from_matrix(M)) is None

    def test_same_prime_coupling_accepted(self):
        # a nilpotent coupling over a repeated diagonal still localizes
        M = IntMatrix.from_rows([[2, 1], [0, 2]])
        ident = identify_localized_limit(IndSystem.from_matrix(M))
        assert ident is not None and ident.localization_multiset() == (2, 2)
        sys_m = IndSystem.from_matrix(M)
        for i, s in enumerate(ident.diagonal):
            x = LimitElement(0, ident.basis.col(i))
            for e in (1, 3):
                assert divisible_in_limit(sys_m, x, s ** e, e + 3) is not None

    def test_free_quotient_flag_splits(self):
        # the eigen-3 flag makes the subobject Z[1/3] with free quotient Z,
        # so the extension splits and identification succeeds
        M = IntMatrix.from_rows([[1, 1], [0, 3]])
        ident = identify_localized_limit(IndSystem.from_matrix(M))
        assert ident is not None and ident.localization_multiset() == (1, 3)
        sys_m = IndSystem.from_matrix(M)
        i3 = ident.diagonal.index(3)
        b3 = LimitElement(0, ident.basis.col(i3))
        assert divisible_in_limit(sys_m, b3, 27, 5) is not None
        b1 = LimitElement(0, ident.basis.col(1 - i3))
        assert divisible_in_limit(sys_m, b1, 2, 6) is None

    def test_cross_prime_stuck_coupling_rejected(self):
        # neither flag order gives a split pattern: Ext(Z[1/5], Z[1/2]) and
        # Ext(Z[1/2], Z[1/5]) obstructions both stay, so the tool declines
        M = IntMatrix.from_rows([[2, 1], [0, 5]])
        assert identify_localized_limit(IndSystem.from_matrix(M)) is None

    def test_decoupling_across_distinct_diagonals(self):
        M = IntMatrix.from_rows([[2, 1], [0, 3]])
        ident = identify_localized_limit(IndSystem.from_matrix(M))
        assert ident is not None and ident.localization_multiset() == (2, 3)

    def test_probe_consistency(self):
        for sysname, sys0 in (
                ("odd", odd_tower_family().k0_system()),
                ("torsion", torsion_tower_family().k0_system())):
            ident = identify_localized_limit(sys0)
            for i, s in enumerate(ident.diagonal):
                x = LimitElement(ident.stage, ident.basis.col(i))
                for e in range(1, 7):
                    assert divisible_in_limit(sys0, x, s ** e, ident.stage + e + 2) is not None
                assert divisible_in_limit(sys0, x, 7 if s != 7 else 11, 8) is None

    def test_rank9_jordan_eigenvalue_27(self):
        # |det| = 27^9: finding the roots must not cost time in the size of det
        ident = identify_localized_limit(IndSystem.from_matrix(_conjugated(_jordan(9, 27))))
        assert ident is not None and ident.diagonal == (27,) * 9
        assert ident.describe() == " (+) ".join(["Z[1/3]"] * 9)

    def test_rank16_eigenvalue_3_pow_10(self):
        ident = identify_localized_limit(IndSystem.from_matrix(_conjugated(_jordan(16, 3 ** 10))))
        assert ident is not None and ident.localization_multiset() == (3,) * 16

    def test_nonsplitting_block_k10(self):
        # eigenvalues 2..11 above the golden-ratio block [[1, 1], [1, 0]]:
        # no eigenvalue order gives a full integer flag
        k = 10
        rows = [[int(j > i) for j in range(k + 2)] for i in range(k + 2)]
        for i in range(k):
            rows[i][i] = i + 2
        rows[k][k], rows[k + 1][k], rows[k + 1][k + 1] = 1, 1, 0
        M = _conjugated(rows)
        assert _triangularize(M) is None
        assert identify_localized_limit(IndSystem.from_matrix(M)) is None


def _jordan(r, lam):
    return [[lam if j == i else int(j == i + 1) for j in range(r)] for i in range(r)]


def _conjugated(rows):
    """P M P^-1 for P = I + (ones on the superdiagonal), a unimodular matrix."""
    r = len(rows)
    P = [[int(j in (i, i + 1)) for j in range(r)] for i in range(r)]
    Pinv = [[(-1) ** (j - i) if j >= i else 0 for j in range(r)] for i in range(r)]
    return IntMatrix.from_rows(P) @ IntMatrix.from_rows(rows) @ IntMatrix.from_rows(Pinv)


def _square(max_rank, bound):
    return st.integers(1, max_rank).flatmap(lambda r: st.lists(
        st.lists(st.integers(-bound, bound), min_size=r, max_size=r), min_size=r, max_size=r))


@st.composite
def _split(draw, max_rank=6):
    """P T P^-1 with T integer upper triangular and P a product of
    elementary matrices: a characteristic polynomial that splits over Z."""
    r = draw(st.integers(1, max_rank))
    T = [[draw(st.integers(-6, 6)) if j == i else draw(st.integers(-3, 3)) if j > i else 0
          for j in range(r)] for i in range(r)]
    P = [[int(i == j) for j in range(r)] for i in range(r)]
    Pinv = [row[:] for row in P]
    if r > 1:
        for _ in range(draw(st.integers(0, 2 * r))):
            i, j = draw(st.permutations(range(r)))[:2]
            x = draw(st.sampled_from((-1, 1)))
            for row in P:
                row[j] += x * row[i]  # P <- P (I + x E_ij)
            Pinv[i] = [a - x * b for a, b in zip(Pinv[i], Pinv[j])]  # (I - x E_ij) Pinv
    return [list(row) for row in (IntMatrix.from_rows(P) @ IntMatrix.from_rows(T)
                                  @ IntMatrix.from_rows(Pinv)).entries]


@settings(max_examples=40, deadline=None)
@given(st.one_of(_square(7, 9), _split()))
def test_char_poly_matches_cofactor_and_sympy(rows):
    x = sympy.Symbol("x")
    poly = _char_poly(IntMatrix.from_rows(rows))
    assert poly == cofactor_char_poly(rows)
    assert poly == [int(c) for c in reversed(sympy.Matrix(rows).charpoly(x).all_coeffs())]


@settings(max_examples=80, deadline=None)
@given(st.one_of(_square(6, 4), _split()))
def test_integer_eigenvalues_match_divisor_scan(rows):
    poly = cofactor_char_poly(rows)
    assume(abs(next(c for c in poly if c != 0)) <= 10 ** 4)
    assert _integer_roots(_char_poly(IntMatrix.from_rows(rows))) == divisor_scan_integer_roots(poly)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_square(5, 3), _split()))
def test_triangularize_iff_char_poly_splits(rows):
    r = len(rows)
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Matrix(rows).charpoly(x).as_expr(), x)
    linear = sum(e for f, e in factors if sympy.degree(f, x) == 1)
    flag = _triangularize(IntMatrix.from_rows(rows))
    assert (flag is None) == (linear < r)
    if flag is not None:
        P, Pinv = flag
        assert P @ Pinv == IntMatrix.identity(r)
        Ps = sympy.Matrix([list(row) for row in P.entries])
        assert abs(Ps.det()) == 1
        T = Ps.inv() * sympy.Matrix(rows) * Ps
        assert all(T[i, j] == 0 for i in range(r) for j in range(i))
        diag = [int(T[i, i]) for i in range(r)]
        assert diag == sorted(diag, key=lambda v: (-abs(v), v))


class TestLadderPurity:
    def test_odd_tower_k1_stationary_not_pure(self):
        lad = odd_tower_family().ladder((2,), 1)
        v = limit_ses_purity(lad, 4)
        assert v.kind == "stationary_verdict" and v.limit_pure is False

    def test_odd_tower_k0_pure_through(self):
        lad = odd_tower_family().ladder((2,), 0)
        v = limit_ses_purity(lad, 4)
        assert v.kind == "pure_through" and v.stage == 4

    def test_zero_ideal_is_pure_through(self):
        lad = odd_tower_family().ladder((), 0)
        v = limit_ses_purity(lad, 3)
        assert v.kind == "pure_through"

    def test_failure_at_stage_n_leaves_the_limit_open(self):
        # every row is 0 -> Z/2 -x2-> Z/4 -> Z/2 -> 0 and all three bondings
        # are zero, so the limit is 0; a first failure at stage N checks no
        # bonding and says nothing about the limit
        Z2, Z4 = FgGroup.from_cyclic([2]), FgGroup.from_cyclic([4])
        row = ShortExactSeq(GroupHom(Z2, Z4, IntMatrix.from_rows([[2]])),
                            GroupHom(Z4, Z2, IntMatrix.from_rows([[1]])))

        def zero_system(G):
            return IndSystem(lambda n: G, lambda n: GroupHom(G, G, IntMatrix.zero(1, 1)))

        lad = homind.IdealLadder(zero_system(Z2), zero_system(Z4), zero_system(Z2), lambda n: row)
        for N in (0, 1, 2):
            v = limit_ses_purity(lad, N)
            assert (v.kind, v.stage) == ("nonpure_witness", 0)
        assert str(limit_ses_purity(lad, 0)) == "purity fails at stage 0 (limit verdict open)"

    def test_noncommuting_ladder_rejected(self):
        fam = odd_tower_family()
        lad = fam.ladder((2,), 1)

        def bad_row(n):
            row = lad.row_at(n)
            if n != 1:
                return row
            return ShortExactSeq(GroupHom(row.inj.source, row.inj.target, row.inj.matrix.scale(3)),
                                 row.surj)

        with pytest.raises(ValueError):
            limit_ses_purity(IdealLadder(lad.sys_ideal, lad.sys_total, lad.sys_quotient, bad_row), 3)

    def test_noncommuting_projection_square_rejected(self):
        # the stage-1 K_0 row with its projection tripled: the inclusion
        # squares still commute, the projection square into stage 1 does not
        lad = odd_tower_family().ladder((2,), 0)

        def bad_row(n):
            row = lad.row_at(n)
            if n != 1:
                return row
            return ShortExactSeq(row.inj, GroupHom(row.surj.source, row.surj.target,
                                                   row.surj.matrix.scale(3)))

        with pytest.raises(ValueError, match="ladder square does not commute at stage 0"):
            limit_ses_purity(IdealLadder(lad.sys_ideal, lad.sys_total, lad.sys_quotient, bad_row), 3)
