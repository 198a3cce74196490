"""Built-in verification scenarios for the shipped counterexample towers.

Every scenario rebuilds its tower from raw multiplicity data (sizes and
the two endpoint matrices), recomputes all K-data exactly, and checks the
claims the construction makes, each tagged with where the expected value
comes from: quoted from the source construction ("paper"), recomputed by
an independent route here ("derived"), or immediate ("trivial").
"""

from __future__ import annotations

from fractions import Fraction

from ..fgab.intmat import IntMatrix
from ..fgab.groups import GroupHom, ShortExactSeq, check_ladder, is_exact, is_pure
from ..nccw import (
    NccwComplex,
    classify_block,
    ideal_complex,
    inclusion_k_maps,
    k_sequences,
    k_theory,
    make_ideal_spec,
    quotient_complex,
)
from ..homind import (
    AtInterior,
    AtPoint,
    ComplexFamily,
    FullPath,
    LimitElement,
    MapDescription,
    compact_ideal_ladder,
    divisible_in_limit,
    identify_localized_limit,
    induced_k0,
    induced_k1,
    limit_equal,
    limit_ses_purity,
    maps_equal_on_k,
    truncate,
)
from ..order import (
    GradedElement,
    check_unperforated,
    deterministic_localized_samples,
    eventual_dominates,
    graded_witness_cone,
    halfplane_cone,
    stage_dominates,
    verify_perforation_witness,
)
from .inputfmt import l5_value
from .report import ClaimSink, ScenarioReport


# -- the odd tower C_n and its connecting maps --------------------------------

ODD_ALPHA = IntMatrix.from_rows([[2, 0, 0], [1, 0, 1]])
ODD_BETA = IntMatrix.from_rows([[0, 2, 0], [0, 1, 1]])
ODD_BASIS = IntMatrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3)


def odd_tower_complex(n: int) -> NccwComplex:
    s = 3 ** n
    return NccwComplex((s, s, s), (2 * s, 2 * s), ODD_ALPHA, ODD_BETA)


def odd_tower_bonding(n: int) -> MapDescription:
    return MapDescription(
        odd_tower_complex(n), odd_tower_complex(n + 1),
        f1=((AtPoint(0), AtInterior(0)),
            (AtPoint(1), AtInterior(0)),
            (AtPoint(2), AtInterior(1))),
        f2=((FullPath(0), AtInterior(0), AtInterior(0)),
            (FullPath(1), AtInterior(0), AtInterior(1))))


def odd_tower_family() -> ComplexFamily:
    return ComplexFamily(odd_tower_complex, odd_tower_bonding,
                         basis_at=lambda n: ODD_BASIS)


# -- matrix tails D_n ----------------------------------------------------------

def matrix_tail_sizes(n: int) -> tuple:
    """Sizes of the 2n+1 matrix summands M_{3^|m|}, m = -n..n."""
    return tuple(3 ** abs(m) for m in range(-n, n + 1))


def matrix_algebra_complex(sizes) -> NccwComplex:
    p = len(sizes)
    return NccwComplex(tuple(sizes), (), IntMatrix.zero(0, p), IntMatrix.zero(0, p))


def tailed_stage_complex(n: int, tail_sizes) -> NccwComplex:
    return NccwComplex.direct_sum(odd_tower_complex(n + 1),
                                  matrix_algebra_complex(tail_sizes(n)))


def tailed_stage_bonding(n: int, tail_sizes, tail_multiplicity, twisted: bool) -> MapDescription:
    """Connecting map: the odd-tower bonding on the first factor, the tail
    shifting with given multiplicity, a point evaluation filling each new end
    slot; the twisted variant ends with the second endpoint evaluation."""
    src = tailed_stage_complex(n, tail_sizes)
    tgt = tailed_stage_complex(n + 1, tail_sizes)
    width = len(tail_sizes(n))
    f1 = [
        (AtPoint(0), AtInterior(0)),
        (AtPoint(1), AtInterior(0)),
        (AtPoint(2), AtInterior(1)),
        (AtPoint(0),),
    ]
    for m in range(width):
        f1.append((AtPoint(3 + m),) * tail_multiplicity)
    f1.append((AtPoint(1),) if twisted else (AtPoint(0),))
    f2 = ((FullPath(0), AtInterior(0), AtInterior(0)),
          (FullPath(1), AtInterior(0), AtInterior(1)))
    return MapDescription(src, tgt, tuple(f1), f2)


def tailed_family(tail_sizes, tail_multiplicity, twisted: bool) -> ComplexFamily:
    def basis_at(n):
        width = len(tail_sizes(n))
        cols = []
        for j in range(2):
            cols.append(tuple(ODD_BASIS[i, j] for i in range(3)) + (0,) * width)
        for m in range(width):
            cols.append((0, 0, 0) + tuple(1 if i == m else 0 for i in range(width)))
        return IntMatrix.from_columns(cols, rows=3 + width)

    return ComplexFamily(lambda n: tailed_stage_complex(n, tail_sizes),
                         lambda n: tailed_stage_bonding(n, tail_sizes, tail_multiplicity, twisted),
                         basis_at=basis_at)


def uhf_tail_sizes(n: int) -> tuple:
    return tuple(3 ** n for _ in range(2 * n + 1))


# -- the torsion tower of section-six type ------------------------------------

TORSION_ALPHA = IntMatrix.from_rows([[4, 0, 0, 0], [0, 1, 2, 0]])
TORSION_BETA = IntMatrix.from_rows([[0, 2, 0, 0], [0, 0, 0, 2]])
TORSION_BASIS = IntMatrix.from_columns([(1, 2, 0, 1), (0, 0, 1, 1)], rows=4)


def torsion_tower_complex(n: int) -> NccwComplex:
    s = 5 ** n
    return NccwComplex((s, 2 * s, s, 2 * s), (4 * s, 4 * s), TORSION_ALPHA, TORSION_BETA)


def torsion_tower_bonding(n: int) -> MapDescription:
    return MapDescription(
        torsion_tower_complex(n), torsion_tower_complex(n + 1),
        f1=((AtPoint(0), AtInterior(0)),
            (AtPoint(1), AtInterior(0), AtInterior(0)),
            (AtPoint(2), AtInterior(1)),
            (AtPoint(3), AtInterior(0), AtInterior(1))),
        f2=((FullPath(0),) + (AtInterior(0),) * 4,
            (FullPath(1),) + (AtInterior(0),) * 2 + (AtInterior(1),) * 2))


def torsion_tower_family() -> ComplexFamily:
    return ComplexFamily(torsion_tower_complex, torsion_tower_bonding,
                         basis_at=lambda n: TORSION_BASIS)


# -- the full-extension tower with the block-size recursion -------------------

def recursion_tower_complex(n: int) -> NccwComplex:
    """Stage n >= 1: sizes (3^n, 3^n, l_n) and (2*3^n, l_n + 3^n), same
    endpoint matrices as the odd tower."""
    s = 3 ** n
    ln = l5_value(n)
    return NccwComplex((s, s, ln), (2 * s, ln + s), ODD_ALPHA, ODD_BETA)


def recursion_stage_complex(n: int) -> NccwComplex:
    """Stage n >= 1: big block at stage n+1 plus the matrix tail D_n."""
    return NccwComplex.direct_sum(recursion_tower_complex(n + 1),
                                  matrix_algebra_complex(matrix_tail_sizes(n)))


def recursion_stage_bonding(n: int, twisted: bool) -> MapDescription:
    """The tail is absorbed into the third point block with multiplicity
    2*4^(n-1) and also shifts one slot outward; not unital (the remaining
    corank is absorbed by interior evaluations left unspecified)."""
    src = recursion_stage_complex(n)
    tgt = recursion_stage_complex(n + 1)
    width = len(matrix_tail_sizes(n))
    mult = 2 * 4 ** (n - 1)
    third = [AtPoint(2), AtInterior(1)]
    for m in range(width):
        third.extend([AtPoint(3 + m)] * mult)
    f1 = [
        (AtPoint(0), AtInterior(0)),
        (AtPoint(1), AtInterior(0)),
        tuple(third),
        (AtPoint(0),),
    ]
    for m in range(width):
        f1.append((AtPoint(3 + m),))
    f1.append((AtPoint(1),) if twisted else (AtPoint(0),))
    f2 = [
        (FullPath(0), AtInterior(0), AtInterior(0)),
        tuple([FullPath(1), AtInterior(0), AtInterior(1)]
              + [AtPoint(3 + m) for m in range(width)] * mult),
    ]
    return MapDescription(src, tgt, tuple(f1), tuple(f2), unital=False)


# -- scenario implementations --------------------------------------------------

def _iso(sink, claim_id, anchor, source, group, expected: str):
    sink.check(claim_id, anchor, source, expected, str(group))


def build_thm33(stages: int = 5) -> ScenarioReport:
    sink = ClaimSink()
    fam = odd_tower_family()
    for n in range(3):
        kd = fam.kdata(n)
        _iso(sink, f"k0.C{n}", "K_0(C_n) = Z (+) Z", "paper", kd.k0, "Z (+) Z")
        _iso(sink, f"k1.C{n}", "K_1(C_n) = Z^2 / Im[2 -2 0; 1 -1 0] = Z", "paper", kd.k1, "Z")
    kd0 = fam.kdata(0)
    gen_coord = kd0.k1.canonical_form((1, 1))
    sink.check("k1.generator", "the class of (1,1) generates K_1(C_n)", "paper",
               True, tuple(abs(c) for c in gen_coord if c != 0) == (1,))

    spec = fam.ideal_spec(0, (2,))
    sink.check("ideal.support", "I_n sits over the third point and the second interval block",
               "paper", ((3,), (2,)),
               (tuple(j + 1 for j in spec.S), tuple(i + 1 for i in spec.T)))
    fam_i = fam.ideal_family((2,))
    fam_q = fam.quotient_family((2,))
    _iso(sink, "ideal.k0", "K_0(I_n) = Z", "paper", fam_i.kdata(0).k0, "Z")
    _iso(sink, "ideal.k1", "K_1(I_n) = Z", "paper", fam_i.kdata(0).k1, "Z")
    quot = quotient_complex(fam.complex_at(0), spec)
    sink.check("quotient.data", "C_n / I_n is the size-two dimension drop block", "paper",
               ("[2 0]", "[0 2]"), (str(quot.alpha), str(quot.beta)))
    _iso(sink, "quotient.k0", "K_0 of the quotient = Z", "paper", fam_q.kdata(0).k0, "Z")
    _iso(sink, "quotient.k1", "K_1 of the quotient = Z_2", "paper", fam_q.kdata(0).k1, "Z/2")

    _, incl1 = inclusion_k_maps(fam.complex_at(0), spec, kd0, fam_i.kdata(0))
    doubled = kd0.k1.elements_equal(incl1.apply((1,)), (2, 2))
    sink.check("iota.k1.doubling",
               "the K_1 generator of I_n maps to the double of the generator of K_1(C_n)",
               "paper", True, doubled)

    s0, s1 = k_sequences(fam.complex_at(0), spec)
    sink.check("rows.k0", "the K_0 row is exact and pure", "paper",
               (True, True), (is_exact(s0), is_pure(s0)))
    sink.check("rows.k1", "0 -> Z -x2-> Z -> Z_2 -> 0 is exact but not pure exact", "paper",
               (True, False), (is_exact(s1), is_pure(s1)))
    cls = classify_block(fam.complex_at(0))
    sink.check("classify", "C_n is an odd 1-NCCW complex", "paper", "odd",
               cls.verdict.value)
    sink.check("classify.witness", "the odd witness is the ideal over the third point", "paper",
               (3,), tuple(j + 1 for j in cls.odd_witness.S) if cls.odd_witness else "none")

    k0m = induced_k0(fam.bonding(0), kd0, fam.kdata(1))
    sink.check("bonding.k0", "the K_0 of the connecting map is [3 0; 1 2]", "paper",
               "[3 0; 1 2]", str(k0m.matrix))
    k1m = induced_k1(fam.bonding(0), kd0, fam.kdata(1))
    sink.check("bonding.k1", "the K_1 of the connecting map is the identity", "paper",
               True, k1m.equals(GroupHom.identity(kd0.k1)))

    sys0 = fam.k0_system(eventually_constant_from=0)
    tr = truncate(sys0, 2)
    sink.check("orbit.first", "(1,0) |-> (3,1) |-> (9,5)", "paper",
               ((1, 0), (3, 1), (9, 5)), tuple(tr.orbit((1, 0))))
    sink.check("orbit.second", "(0,1) |-> (0,2) |-> (0,4)", "paper",
               ((0, 1), (0, 2), (0, 4)), tuple(tr.orbit((0, 1))))
    sink.check("orbit.colimit", "(1,0) at stage 0 and (3,1) at stage 1 agree in the limit",
               "trivial", "equal", limit_equal(sys0, LimitElement(0, (1, 0)),
                                               LimitElement(1, (3, 1)), 4).kind)

    sink.check("order.stage0", "(1,0) >= (0,1) fails in K_0(C_0)", "paper",
               False, stage_dominates(sys0, (1, 0), (0, 1), 0))
    sink.check("order.stage1", "(3,1) >= (0,2) fails in K_0(C_1)", "paper",
               False, stage_dominates(sys0, (1, 0), (0, 1), 1))
    sink.check("order.stage2", "(9,5) >= (0,4) holds in K_0(C_2)", "paper",
               True, stage_dominates(sys0, (1, 0), (0, 1), 2))
    sink.check("order.eventual", "hence (1,0) >= (0,1) in K_0(E)", "paper",
               2, eventual_dominates(sys0, (1, 0), (0, 1), 6))

    ident = identify_localized_limit(sys0)
    sink.check("limit.k0", "K_0(E) = Z[1/3] (+) Z[1/2]", "paper",
               (2, 3), ident.localization_multiset() if ident else "unidentified")
    sys_i0 = fam_i.k0_system(eventually_constant_from=0)
    ident_i = identify_localized_limit(sys_i0)
    sink.check("limit.ideal.k0", "K_0(I) = Z[1/2]", "paper",
               "Z[1/2]", ident_i.describe() if ident_i else "unidentified")
    sys_q0 = fam_q.k0_system(eventually_constant_from=0)
    ident_q = identify_localized_limit(sys_q0)
    sink.check("limit.quotient.k0", "K_0(E/I) = Z[1/3]", "paper",
               "Z[1/3]", ident_q.describe() if ident_q else "unidentified")
    sys1 = fam.k1_system(eventually_constant_from=0)
    ident1 = identify_localized_limit(sys1)
    sink.check("limit.k1", "K_1(E) = Z", "paper",
               "Z", ident1.describe() if ident1 else "unidentified")
    ident_i1 = identify_localized_limit(fam_i.k1_system(eventually_constant_from=0))
    sink.check("limit.ideal.k1", "K_1(I) = Z", "paper",
               "Z", ident_i1.describe() if ident_i1 else "unidentified")
    ident_q1 = identify_localized_limit(fam_q.k1_system(eventually_constant_from=0))
    sink.check("limit.quotient.k1", "K_1(E/I) = Z_2", "paper",
               "Z/2", ident_q1.describe() if ident_q1 else "unidentified")

    if ident:
        probes_ok = True
        for i, s in enumerate(ident.diagonal):
            x = LimitElement(ident.stage, ident.basis.col(i))
            for e in (1, 3, 6):
                if divisible_in_limit(sys0, x, s ** e, ident.stage + 6 + e) is None:
                    probes_ok = False
            if divisible_in_limit(sys0, x, 7, 8) is not None:
                probes_ok = False
        sink.check("limit.divisibility", "localization summands absorb exactly their own primes",
                   "derived", True, probes_ok)
    sink.check("divisible.two", "(0,1) becomes divisible by 2 at the next stage", "paper",
               1, divisible_in_limit(sys0, LimitElement(0, (0, 1)), 2, 5))

    lad1 = compact_ideal_ladder(fam, (2,), 1, eventually_constant_from=0)
    verdict1 = limit_ses_purity(lad1.sys_ideal, lad1.sys_total, lad1.sys_quotient,
                                lad1.incl_at, lad1.proj_at, stages)
    sink.check("limit.k1.nonpure",
               "the K_1 sequence of 0 -> I -> E -> E/I -> 0 is stationary and not pure, so E is not K-pure",
               "paper", ("stationary_verdict", False),
               (verdict1.kind, verdict1.limit_pure))
    lad0 = compact_ideal_ladder(fam, (2,), 0, eventually_constant_from=0)
    verdict0 = limit_ses_purity(lad0.sys_ideal, lad0.sys_total, lad0.sys_quotient,
                                lad0.incl_at, lad0.proj_at, stages)
    sink.check("limit.k0.pure", "the K_0 sequence stays pure exact at every stage", "paper",
               "pure_through", verdict0.kind)

    cone = halfplane_cone(3, 2)
    sink.note("the K_0(E) cone {x > 0, or x = 0 and y >= 0} is dilation invariant, "
              "so no sampled dilation can exhibit perforation; the sampled check "
              "below confirms this on 10^4 deterministic points")
    samples = list(deterministic_localized_samples(3, 2, 10000))
    sink.check("cone.unperforated", "K_0(E) is unperforated", "paper",
               "none", check_unperforated(cone, samples, 12) or "none")
    sink.check("cone.unperforated.stable", "enlarging the dilation bound finds nothing new",
               "derived", "none", check_unperforated(cone, samples, 24) or "none")

    table = {
        ((Fraction(0), Fraction(1)), (2,)): True,
        ((Fraction(0), Fraction(1, 2)), (1,)): False,
    }
    graded = graded_witness_cone(cone, table)
    sink.note("graded positivity of ((0,1),2) and non-positivity of ((0,1/2),1) are "
              "cited order data supplied to the oracle, not derived here")
    witness = GradedElement.of((Fraction(0), Fraction(1, 2)), (1,))
    sink.check("graded.witness", "((0,1),2) is a positive element but ((0,1/2),1) is not",
               "paper", True, verify_perforation_witness(graded, witness, 2))
    lifted = GradedElement.of((Fraction(0), Fraction(1, 2)), (0,))
    sink.check("graded.k0lift", "the same point with zero K_1 part is no witness",
               "derived", False, verify_perforation_witness(graded, lifted, 2))
    return sink.report("thm3.3", "an odd tower whose limit is not K-pure")


def _equal_maps_scenario(name: str, title: str, tail_sizes, tail_multiplicity,
                         stages: int) -> ScenarioReport:
    sink = ClaimSink()
    plain = tailed_family(tail_sizes, tail_multiplicity, twisted=False)
    twisted = tailed_family(tail_sizes, tail_multiplicity, twisted=True)
    for n in range(min(stages, 3) + 1):
        kd = plain.kdata(n)
        width = len(tail_sizes(n))
        _iso(sink, f"k0.stage{n}", "K_0 of the stage algebra is free of rank 2 + (2n+1)",
             "derived", kd.k0, " (+) ".join(["Z"] * (2 + width)))
        _iso(sink, f"k1.stage{n}", "K_1 of the stage algebra = Z", "derived", kd.k1, "Z")
    for n in range(stages + 1):
        sink.check(f"equal.stage{n}",
                   "the two connecting maps differ by endpoint evaluations that agree on K-classes",
                   "paper", True,
                   maps_equal_on_k(plain.bonding(n), twisted.bonding(n)))
    sink.check("equal.self", "a connecting map equals itself on K", "trivial",
               True, maps_equal_on_k(plain.bonding(0), plain.bonding(0)))
    # the cross-tower ladder: rows of the first tower, verticals induced by
    # the second tower's connecting maps; commutes exactly because the paired
    # maps agree on K
    lad0 = compact_ideal_ladder(plain, (2,), 0, eventually_constant_from=0)
    lad1 = compact_ideal_ladder(plain, (2,), 1, eventually_constant_from=0)
    pl_i, pl_q = plain.ideal_family((2,)), plain.quotient_family((2,))
    tw_i, tw_q = twisted.ideal_family((2,)), twisted.quotient_family((2,))
    ladder_ok = True
    for n in range(2):
        for lad, ind in ((lad0, induced_k0), (lad1, induced_k1)):
            top = ShortExactSeq(lad.incl_at(n), lad.proj_at(n))
            bottom = ShortExactSeq(lad.incl_at(n + 1), lad.proj_at(n + 1))
            v_left = ind(tw_i.bonding(n), pl_i.kdata(n), pl_i.kdata(n + 1))
            v_mid = ind(twisted.bonding(n), plain.kdata(n), plain.kdata(n + 1))
            v_right = ind(tw_q.bonding(n), pl_q.kdata(n), pl_q.kdata(n + 1))
            ladder_ok = ladder_ok and check_ladder(top, bottom, v_left, v_mid, v_right)
    sink.check("ladder.cross",
               "the second tower's induced maps commute with the first tower's ideal rows",
               "derived", True, ladder_ok)
    verdict = limit_ses_purity(lad1.sys_ideal, lad1.sys_total, lad1.sys_quotient,
                               lad1.incl_at, lad1.proj_at, min(stages, 4))
    sink.check("limit.k1.nonpure",
               "the K_1 sequence over the embedded ideal is stationary and not pure",
               "paper", ("stationary_verdict", False), (verdict.kind, verdict.limit_pure))
    return sink.report(name, title)


def build_ex43(stages: int = 5) -> ScenarioReport:
    return _equal_maps_scenario(
        "ex4.3", "two towers with matrix tails and K-equal connecting maps",
        matrix_tail_sizes, 1, stages)


def build_ex47(stages: int = 5) -> ScenarioReport:
    return _equal_maps_scenario(
        "ex4.7", "the same towers with constant-size tails absorbed with multiplicity three",
        uhf_tail_sizes, 3, stages)


def build_sec5(stages: int = 3) -> ScenarioReport:
    sink = ClaimSink()
    sink.check("recursion.values", "l_1 = 9 and l_{n+1} = 2 l_n + 3^(n+1) + 2*4^(n-1) + (3 + ... + 3^n) 4^n",
               "paper", (9, 41, 309, 3227), tuple(l5_value(m) for m in (1, 2, 3, 4)))
    for n in range(1, 4):
        c = recursion_tower_complex(n)
        sink.check(f"block.valid.{n}", "the recursion block sizes satisfy unital size accounting",
                   "derived", True, c.unital)
        kd = k_theory(c)
        _iso(sink, f"block.k0.{n}", "K_0 of the recursion block = Z (+) Z", "paper", kd.k0, "Z (+) Z")
        _iso(sink, f"block.k1.{n}", "K_1 of the recursion block = Z", "paper", kd.k1, "Z")
    cls = classify_block(recursion_tower_complex(1))
    sink.check("block.odd", "the recursion block is odd with the same witness ideal", "derived",
               ("odd", (3,)),
               (cls.verdict.value, tuple(j + 1 for j in cls.odd_witness.S) if cls.odd_witness else "none"))
    spec = make_ideal_spec(recursion_tower_complex(1), (2,))
    ideal_kd = k_theory(ideal_complex(recursion_tower_complex(1), spec))
    quot_kd = k_theory(quotient_complex(recursion_tower_complex(1), spec))
    sink.check("ideal.k", "the witness ideal has K_0 = K_1 = Z", "derived",
               ("Z", "Z"), (str(ideal_kd.k0), str(ideal_kd.k1)))
    sink.check("quotient.k", "the quotient is the dimension drop with (Z, Z/2)", "derived",
               ("Z", "Z/2"), (str(quot_kd.k0), str(quot_kd.k1)))
    for n in range(1, stages + 1):
        plain = recursion_stage_bonding(n, twisted=False)
        twisted = recursion_stage_bonding(n, twisted=True)
        sink.check(f"equal.stage{n}",
                   "the full-extension connecting maps agree on K like the tailed towers do",
                   "paper", True, maps_equal_on_k(plain, twisted))
    sink.note("the displayed tail multiplicities of this construction do not saturate "
              "the recursion block sizes, so the connecting maps are modeled as "
              "non-unital descriptions; all K-level claims are unaffected")
    return sink.report("sec5", "the full-extension variant built on the block-size recursion")


def build_ex61(stages: int = 4) -> ScenarioReport:
    sink = ClaimSink()
    fam = torsion_tower_family()
    for n in range(2):
        kd = fam.kdata(n)
        _iso(sink, f"k0.stage{n}", "K_0(E_n) = Ker[4 -2 0 0; 0 1 2 -2] = Z (+) Z", "paper",
             kd.k0, "Z (+) Z")
        _iso(sink, f"k1.stage{n}", "K_1(E_n) = Z_4", "paper", kd.k1, "Z/4")
    kd0 = fam.kdata(0)
    sink.check("k0.basis", "(0,0,1,1) and (1,2,0,1) generate the kernel", "paper",
               True, kd0.k0_basis == TORSION_BASIS)

    spec = fam.ideal_spec(0, (2, 3))
    sink.check("ideal.support", "the ideal of the class (0,0,1,1) sits over points 3,4 and block 2",
               "paper", ((3, 4), (2,)),
               (tuple(j + 1 for j in spec.S), tuple(i + 1 for i in spec.T)))
    fam_b = fam.ideal_family((2, 3))
    fam_q = fam.quotient_family((2, 3))
    _iso(sink, "ideal.k0", "K_0 of the stage ideal = Z", "derived", fam_b.kdata(0).k0, "Z")
    _iso(sink, "ideal.k1", "K_1(B) = Z_2", "paper", fam_b.kdata(0).k1, "Z/2")
    _iso(sink, "quotient.k0", "K_0 of the stage quotient = Z", "derived", fam_q.kdata(0).k0, "Z")
    _iso(sink, "quotient.k1", "K_1(A) = Z_2", "paper", fam_q.kdata(0).k1, "Z/2")

    k0m = induced_k0(fam.bonding(0), kd0, fam.kdata(1))
    sink.check("bonding.k0", "the connecting map multiplies the two kernel generators by 5 and 3",
               "derived", "[5 0; 2 3]", str(k0m.matrix))
    k1m = induced_k1(fam.bonding(0), kd0, fam.kdata(1))
    sink.check("bonding.k1", "the connecting map is the identity on K_1", "derived",
               True, k1m.equals(GroupHom.identity(kd0.k1)))
    ident = identify_localized_limit(fam.k0_system(eventually_constant_from=0))
    sink.check("limit.k0", "K_0(E) = Z[1/3] (+) Z[1/5]", "paper",
               (3, 5), ident.localization_multiset() if ident else "unidentified")
    ident1 = identify_localized_limit(fam.k1_system(eventually_constant_from=0))
    sink.check("limit.k1", "K_1(E) = Z_4", "paper",
               "Z/4", ident1.describe() if ident1 else "unidentified")
    ident_b = identify_localized_limit(fam_b.k0_system(eventually_constant_from=0))
    sink.check("limit.ideal.k0", "K_0(B) = Z[1/3]", "paper",
               "Z[1/3]", ident_b.describe() if ident_b else "unidentified")
    ident_q = identify_localized_limit(fam_q.k0_system(eventually_constant_from=0))
    sink.check("limit.quotient.k0", "K_0(A) = Z[1/5]", "paper",
               "Z[1/5]", ident_q.describe() if ident_q else "unidentified")

    s0, s1 = k_sequences(fam.complex_at(0), spec)
    sink.check("rows.k1", "0 -> Z_2 -> Z_4 -> Z_2 -> 0 is exact and not a pure group extension",
               "paper", ("Z/2", "Z/4", "Z/2", True, False),
               (str(s1.left), str(s1.mid), str(s1.right), is_exact(s1), is_pure(s1)))
    sink.check("rows.k0", "the K_0 row is exact and pure", "derived",
               (True, True), (is_exact(s0), is_pure(s0)))
    lad1 = compact_ideal_ladder(fam, (2, 3), 1, eventually_constant_from=0)
    verdict = limit_ses_purity(lad1.sys_ideal, lad1.sys_total, lad1.sys_quotient,
                               lad1.incl_at, lad1.proj_at, stages)
    sink.check("limit.k1.nonpure",
               "the K_1 sequence is stationary and not pure, so E is a non-K-pure ASH algebra",
               "paper", ("stationary_verdict", False), (verdict.kind, verdict.limit_pure))
    cls = classify_block(torsion_tower_complex(0))
    sink.check("classify", "the bounded-torsion block is odd", "derived", "odd", cls.verdict.value)

    from ..coeff import mod_n
    md = mod_n(kd0.k0, kd0.k1, 2)
    sink.check("coeff.mod2", "mod-2 coefficient groups of (Z^2, Z_4)", "derived",
               ("Z/2 (+) Z/2 (+) Z/2", "Z/2"), (str(md.k0n), str(md.k1n)))
    return sink.report("ex6.1", "a torsion tower that is not K-pure with bounded torsion K_1")


SCENARIOS = {
    "thm3.3": build_thm33,
    "ex4.3": build_ex43,
    "ex4.7": build_ex47,
    "sec5": build_sec5,
    "ex6.1": build_ex61,
}


def run_scenario(name: str, **kwargs) -> ScenarioReport:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}")
    return SCENARIOS[name](**kwargs)
