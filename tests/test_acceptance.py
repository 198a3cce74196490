"""Acceptance suite: one check per numbered criterion, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Everything is exact integer or rational arithmetic.
"""

import random
from fractions import Fraction

from nccwk.fgab.intmat import IntMatrix, det, smith_normal_form
from nccwk.fgab.groups import FgGroup, GroupHom, ShortExactSeq, is_exact, is_pure
from nccwk.nccw import (
    BlockClass,
    NccwComplex,
    classify_block,
    ideal_complex,
    inclusion_k_maps,
    k_sequences,
    k_theory,
    make_ideal_spec,
    quotient_complex,
)
from nccwk.homind import (
    IndSystem,
    LimitElement,
    compose_descriptions,
    divisible_in_limit,
    identify_localized_limit,
    induced_k0,
    induced_k1,
    limit_ses_purity,
    maps_equal_on_k,
)
from nccwk.order import (
    GradedElement,
    check_unperforated,
    deterministic_localized_samples,
    eventual_dominates,
    graded_witness_cone,
    halfplane_cone,
    stage_dominates,
    verify_perforation_witness,
)
from nccwk.coeff import bockstein_segment_exact
from nccwk.harness.scenarios import (
    odd_tower_complex,
    odd_tower_family,
    tailed_family,
    matrix_tail_sizes,
    torsion_tower_complex,
    torsion_tower_family,
    uhf_tail_sizes,
)
from nccwk.harness.search import _canonical_key

from complexes import dimension_drop
from oracles import purity_bruteforce


def conclude(number: int, description: str, ok: bool):
    print(f"criterion {number}: {'pass' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_k_theory_engine():
    kd_c = k_theory(odd_tower_complex(0).delta)
    kd_dd = k_theory(dimension_drop(2).delta)
    kd_t = k_theory(torsion_tower_complex(0).delta)
    ok = (kd_c.k0.diagonal_orders == (0, 0) and kd_c.k1.iso_class() == (1, ())
          and kd_dd.k0.iso_class() == (1, ()) and kd_dd.k1.iso_class() == (0, (2,))
          and kd_t.k1.iso_class() == (0, (4,)))
    conclude(1, "K-groups of the three named blocks match exactly", ok)


def test_criterion_02_ideal_calculus():
    A = odd_tower_complex(0)
    spec = make_ideal_spec(A, [2])
    kd_i = k_theory(ideal_complex(A, spec).delta)
    kd_q = k_theory(quotient_complex(A, spec).delta)
    kd = k_theory(A.delta)
    _, i1 = inclusion_k_maps(A.delta, spec, kd, kd_i)
    target = kd.k1
    doubling = target.elements_equal(i1.apply((1,)), (2, 2))
    ok = (kd_i.k0.iso_class() == (1, ()) and kd_i.k1.iso_class() == (1, ())
          and kd_q.k0.iso_class() == (1, ()) and kd_q.k1.iso_class() == (0, (2,))
          and doubling)
    conclude(2, "witness ideal has (Z, Z), quotient (Z, Z/2), K_1 inclusion doubles", ok)


def test_criterion_03_purity():
    Z = FgGroup.free(1)
    Z2 = FgGroup.from_cyclic([2])
    Z4 = FgGroup.from_cyclic([4])
    s_mult = ShortExactSeq(GroupHom.multiplication(Z, 2),
                           GroupHom(Z, Z2, IntMatrix.from_rows([[1]])))
    s_tors = ShortExactSeq(GroupHom(Z2, Z4, IntMatrix.from_rows([[2]])),
                           GroupHom(Z4, Z2, IntMatrix.from_rows([[1]])))
    mid = FgGroup.free(2)
    s_split = ShortExactSeq(GroupHom(Z, mid, IntMatrix.from_columns([(1, 0)], rows=2)),
                            GroupHom(mid, Z, IntMatrix.from_rows([[0, 1]])))
    ok = (not is_pure(s_mult) and not is_pure(s_tors) and is_pure(s_split))
    # brute-force cross-check of the raw divisibility definition, n <= 8
    ok = ok and purity_bruteforce([[2]], [0], [0], 8) is False
    ok = ok and purity_bruteforce([[2]], [2], [4], 8) is False
    ok = ok and purity_bruteforce([[1], [0]], [0], [0, 0], 8) is True
    conclude(3, "splitness verdicts agree with the literal purity definition up to n = 8", ok)


def test_criterion_04_induced_maps():
    fam = odd_tower_family()
    k0 = induced_k0(fam.bonding(0), fam.kdata(0), fam.kdata(1))
    k1 = induced_k1(fam.bonding(0), fam.kdata(0), fam.kdata(1))
    ok = (k0.matrix == IntMatrix.from_rows([[3, 0], [1, 2]])
          and k1.equals(GroupHom.identity(fam.kdata(0).k1)))
    conclude(4, "connecting map induces [3 0; 1 2] on K_0 and the identity on K_1", ok)


def test_criterion_05_stage_order():
    sys0 = odd_tower_family().k0_system()
    ok = (not stage_dominates(sys0, (1, 0), (0, 1), 0)
          and not stage_dominates(sys0, (1, 0), (0, 1), 1)
          and stage_dominates(sys0, (1, 0), (0, 1), 2)
          and eventual_dominates(sys0, (1, 0), (0, 1), 6) == 2)
    conclude(5, "dominance of (1,0) over (0,1) first holds at stage 2", ok)


def test_criterion_06_limit_identification():
    ident_e = identify_localized_limit(odd_tower_family().k0_system())
    ident_2 = identify_localized_limit(IndSystem.from_matrix(IntMatrix.from_rows([[2]])))
    ident_t = identify_localized_limit(torsion_tower_family().k0_system())
    ok = (ident_e is not None and ident_e.localization_multiset() == (2, 3)
          and ident_2 is not None and ident_2.describe() == "Z[1/2]"
          and ident_t is not None and ident_t.localization_multiset() == (3, 5))
    for sys0, ident in ((odd_tower_family().k0_system(), ident_e),
                        (torsion_tower_family().k0_system(), ident_t)):
        for i, s in enumerate(ident.diagonal):
            x = LimitElement(ident.stage, ident.basis.col(i))
            for e in range(1, 7):
                ok = ok and divisible_in_limit(sys0, x, s ** e, ident.stage + e + 2) is not None
            q = 7 if s % 7 else 11
            ok = ok and divisible_in_limit(sys0, x, q, 8) is None
    conclude(6, "limits identified as Z[1/3]+Z[1/2], Z[1/2], Z[1/3]+Z[1/5]; probes consistent", ok)


def test_criterion_07_non_k_pure_verdicts():
    lad = odd_tower_family().ladder((2,), 1)
    v1 = limit_ses_purity(lad, 4)
    fam_t = torsion_tower_family()
    spec = fam_t.ideal_spec(0, (2, 3))
    _, s1 = k_sequences(fam_t.complex_at(0).delta, spec)
    lad_t = fam_t.ladder((2, 3), 1)
    v2 = limit_ses_purity(lad_t, 4)
    ok = (v1.kind == "stationary_verdict" and v1.limit_pure is False
          and (s1.left.iso_class(), s1.mid.iso_class(), s1.right.iso_class())
          == ((0, (2,)), (0, (4,)), (0, (2,)))
          and is_exact(s1) and not is_pure(s1)
          and v2.kind == "stationary_verdict" and v2.limit_pure is False)
    conclude(7, "both towers report non-K-pure limits from raw multiplicity input", ok)


def test_criterion_08_map_equality_through_stage_five():
    ok = True
    for tail, mult in ((matrix_tail_sizes, 1), (uhf_tail_sizes, 3)):
        plain = tailed_family(tail, mult, twisted=False)
        twisted = tailed_family(tail, mult, twisted=True)
        for n in range(6):
            ok = ok and maps_equal_on_k(plain.bonding(n), twisted.bonding(n),
                                        plain.kdata(n), plain.kdata(n + 1))
    conclude(8, "the paired connecting maps agree on K at stages 0..5 in both towers", ok)


def test_criterion_09_classifier_and_search(default_search):
    cls = classify_block(odd_tower_complex(0))
    ok = cls.verdict is BlockClass.ODD and cls.odd_witness.S == (2,)
    rng = random.Random(9)
    for _ in range(25):
        p = rng.randint(1, 3)
        k = tuple(rng.randint(1, 2) for _ in range(p))
        while True:
            a = [rng.randint(0, 2) for _ in range(p)]
            b = [rng.randint(0, 2) for _ in range(p)]
            sa = sum(x * y for x, y in zip(a, k))
            if sa > 0 and sa == sum(x * y for x, y in zip(b, k)):
                break
        one_block = NccwComplex(k, (sa,), IntMatrix.from_rows([a]), IntMatrix.from_rows([b]))
        ok = ok and classify_block(one_block).verdict is BlockClass.NICE
    blocks = default_search  # default bounds

    def canon(c):
        return _canonical_key(c.k, c.h, [tuple(r) for r in c.alpha.entries],
                              [tuple(r) for r in c.beta.entries])

    ok = ok and canon(odd_tower_complex(0)) in {canon(b.complex) for b in blocks}
    conclude(9, "odd verdict with witness {3}; single-interval blocks nice; search rediscovers the tower block", ok)


def test_criterion_10_perforation():
    cone = halfplane_cone(3, 2)
    samples = list(deterministic_localized_samples(3, 2, 10000))
    ok = check_unperforated(cone, samples, 12) is None
    table = {
        ((Fraction(0), Fraction(1)), (2,)): True,
        ((Fraction(0), Fraction(1, 2)), (1,)): False,
    }
    graded = graded_witness_cone(cone, table)
    witness = GradedElement.of((Fraction(0), Fraction(1, 2)), (1,))
    ok = ok and verify_perforation_witness(graded, witness, 2)
    conclude(10, "no sampled perforation in the limit cone; the graded witness is confirmed", ok)


def test_criterion_11_property_suites():
    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix.from_rows([[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)])
        s = smith_normal_form(A)
        ok = ok and (s.U @ A @ s.V) == s.D
        ok = ok and abs(det(s.U)) == 1 and abs(det(s.V)) == 1
        d = s.invariant_factors
        for i in range(len(d) - 1):
            ok = ok and ((d[i] == 0 and d[i + 1] == 0)
                         or (d[i] != 0 and d[i + 1] % d[i] == 0))
        if not ok:
            break
    for _ in range(200):
        f0, f1 = rng.randint(0, 2), rng.randint(0, 2)
        t0 = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(0, 2))]
        t1 = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(0, 2))]
        k0 = FgGroup.from_cyclic([0] * f0 + t0)
        k1 = FgGroup.from_cyclic([0] * f1 + t1)
        nmod = rng.randint(1, 12)
        ok = ok and bockstein_segment_exact(k0, k1, nmod, 0)
        ok = ok and bockstein_segment_exact(k0, k1, nmod, 1)
        if not ok:
            break
    plain = tailed_family(matrix_tail_sizes, 1, twisted=False)
    twisted = tailed_family(matrix_tail_sizes, 1, twisted=True)
    fams = [odd_tower_family(), torsion_tower_family()]
    for fam in fams:
        m1, m2 = fam.bonding(0), fam.bonding(1)
        comp = compose_descriptions(m2, m1)
        kd0, kd1, kd2 = fam.kdata(0), fam.kdata(1), fam.kdata(2)
        ok = ok and induced_k0(comp, kd0, kd2).equals(
            induced_k0(m2, kd1, kd2).compose(induced_k0(m1, kd0, kd1)))
        ok = ok and induced_k1(comp, kd0, kd2).equals(
            induced_k1(m2, kd1, kd2).compose(induced_k1(m1, kd0, kd1)))
    for a, b in ((plain, plain), (plain, twisted), (twisted, twisted)):
        m1, m2 = a.bonding(0), b.bonding(1)
        comp = compose_descriptions(m2, m1)
        kd0, kd1, kd2 = a.kdata(0), a.kdata(1), b.kdata(2)
        ok = ok and induced_k0(comp, kd0, kd2).equals(
            induced_k0(m2, kd1, kd2).compose(induced_k0(m1, kd0, kd1)))
    conclude(11, "SNF identities (10^3 matrices), Bockstein exactness (200), functoriality: zero failures", ok)
