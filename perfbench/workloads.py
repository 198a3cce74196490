"""The three workloads: their seeded inputs, operations and output checks.

Every operation calls the program's public API and returns its output;
every check compares that output with reference.py or with a property
stated by the paper, never with a stored copy of an earlier run.

* census   - odd-block searches (enumeration, ideal supports, exactness and
             purity solves on thousands of tiny cached matrices).
* towers   - the five paper scenarios and CLI commands on docs/samples
             (parsing, systems, ideal ladders, limits, cones, coefficients).
* lattices - large seeded matrices through smith_normal_form, kernel and
             solve, and seeded bondings through identify_localized_limit.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional

import reference as ref


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # cheap fingerprint of an output: the first output of an operation gets
    # the full check, later ones must have the same fingerprint
    digest: Optional[Callable[[Any], Any]] = None


def rows_of(M):
    return [list(r) for r in M.entries]


# -- census -------------------------------------------------------------------

DEFAULT_BOUNDS = (3, 2, 2, 1)
# componentwise below the default bounds, so their blocks must reappear there
SMALLER_BOUNDS = ((2, 2, 2, 1), (3, 1, 2, 1), (3, 2, 1, 1))

# the odd tower's first stage C_0 (paper, Theorem 3.3): odd through S = {3}
ODD_TOWER_C0 = dict(k=(1, 1, 1), h=(2, 2),
                    alpha=[[2, 0, 0], [1, 0, 1]], beta=[[0, 2, 0], [0, 1, 1]])
# the torsion tower's first stage F_0 (paper, Example 6.1): K_1 = Z/4
TORSION_TOWER_F0 = dict(k=(1, 2, 1, 2), h=(4, 4),
                        alpha=[[4, 0, 0, 0], [0, 1, 2, 0]], beta=[[0, 2, 0, 0], [0, 0, 0, 2]])


def census_prepare(nc, seed: int, quick: bool, root: str):
    bounds = [DEFAULT_BOUNDS] + list(SMALLER_BOUNDS[:1] if quick else SMALLER_BOUNDS)
    return {"bounds": bounds}


def _block_data(block):
    cx = block.complex
    return cx.k, cx.h, rows_of(cx.alpha), rows_of(cx.beta)


def census_digest(blocks):
    return tuple(sorted(ref.block_key(*_block_data(b)) for b in blocks))


def _census_check(bounds):
    max_p, max_l, max_mult, max_size = bounds
    c0 = ODD_TOWER_C0
    c0_key = ref.block_key(c0["k"], c0["h"], c0["alpha"], c0["beta"])
    c0_inside = (3 <= max_p and 2 <= max_l and 2 <= max_mult and 1 <= max_size)

    def check(blocks):
        keys = set()
        for b in blocks:
            k, h, alpha, beta = _block_data(b)
            p, l = len(k), len(h)
            where = f"block k={k} h={h} alpha={alpha} beta={beta}"
            expect(1 <= p <= max_p and 1 <= l <= max_l, f"{where} outside p, l bounds")
            expect(all(1 <= s <= max_size for s in k), f"{where} point size out of bounds")
            expect(all(0 <= x <= max_mult for M in (alpha, beta) for r in M for x in r),
                   f"{where} multiplicity out of bounds")
            for i in range(l):
                for M in (alpha, beta):
                    expect(sum(M[i][j] * k[j] for j in range(p)) == h[i],
                           f"{where} not unital in interval block {i + 1}")
            S = tuple(b.witness.S)
            expect(0 < len(S) < p, f"{where} witness S={S} is not a proper ideal")
            expect(tuple(b.witness.T) == ref.adjacent_blocks(alpha, beta, S),
                   f"{where} witness blocks T={b.witness.T} are not adj(S)")
            expect(ref.nonpure_row(alpha, beta, p, S),
                   f"{where} witness S={S}: every row's middle group is the sum of its ends")
            key = ref.block_key(k, h, alpha, beta)
            expect(key not in keys, f"{where} reported twice up to block permutation")
            keys.add(key)
        if c0_inside:
            expect(c0_key in keys, "the odd tower's C_0 is missing from the census")
    return check


def census_operations(nc, inputs):
    search = nc.search.search_odd_blocks
    return [Op(f"search{b}", (lambda b=b: search(*b)), _census_check(b), census_digest)
            for b in inputs["bounds"]]


def census_cross_check(inputs, digests):
    """Blocks found within smaller bounds reappear within larger bounds."""
    for small in inputs["bounds"]:
        for large in inputs["bounds"]:
            if small != large and all(a <= b for a, b in zip(small, large)):
                missing = set(digests[f"search{small}"]) - set(digests[f"search{large}"])
                expect(not missing, f"{len(missing)} blocks within {small} missing "
                                    f"from the census within {large}")


# -- towers -------------------------------------------------------------------

# K_0 bondings in the kernel coordinates printed by `ktheory complex`, read
# off the sample maps: psi sends point 1 <- point 1 + interior 1, where the
# interior of block 1 carries rank (2 0 0).r, so r1' = 3 r1, and point 3 <-
# point 3 + interior 2 gives r3' = r1 + 2 r3; likewise phi on the torsion tower.
ODD_K0_BONDING = [[3, 0], [1, 2]]
TORSION_K0_BONDING = [[5, 0], [2, 3]]


def _kgroups(data, S=None):
    """Reference K-groups of a sample complex, or of its ideal / quotient over S."""
    alpha, beta, p = data["alpha"], data["beta"], len(data["k"])
    if S is None:
        return ref.KGroups(alpha, beta, p)
    T = ref.adjacent_blocks(alpha, beta, S)
    Sc = [j for j in range(p) if j not in S]
    Tc = [i for i in range(len(alpha)) if i not in T]
    return (ref.KGroups(*ref.restrict(alpha, beta, T, S), len(S)),
            ref.KGroups(*ref.restrict(alpha, beta, Tc, Sc), len(Sc)))


def _localization(M):
    """Name of the limit of Z^2 under a lower-triangular bonding M."""
    rads = sorted(ref.radical(M[i][i]) for i in range(len(M)))
    return " (+) ".join("Z" if s == 1 else f"Z[1/{s}]" for s in rads)


def _paper_claims():
    """Claims whose computed values are fixed by the paper or by reference.py."""
    odd, tor = _kgroups(ODD_TOWER_C0), _kgroups(TORSION_TOWER_F0)
    odd_i, odd_q = _kgroups(ODD_TOWER_C0, (2,))
    tor_i, tor_q = _kgroups(TORSION_TOWER_F0, (2, 3))
    orbit = lambda v: "(" + ", ".join(
        "(" + ", ".join(map(str, ref.mat_power_apply(ODD_K0_BONDING, v, s))) + ")"
        for s in range(3)) + ")"
    claims = {
        ("thm3.3", "ideal.k0"): odd_i.name(0), ("thm3.3", "ideal.k1"): odd_i.name(1),
        ("thm3.3", "quotient.k0"): odd_q.name(0), ("thm3.3", "quotient.k1"): odd_q.name(1),
        ("thm3.3", "bonding.k0"): "[3 0; 1 2]",
        ("thm3.3", "orbit.first"): orbit([1, 0]), ("thm3.3", "orbit.second"): orbit([0, 1]),
        ("thm3.3", "limit.k0"): "(2, 3)",
        ("thm3.3", "limit.ideal.k0"): "Z[1/2]", ("thm3.3", "limit.quotient.k0"): "Z[1/3]",
        ("thm3.3", "limit.k1"): "Z", ("thm3.3", "limit.quotient.k1"): odd_q.name(1),
        ("ex6.1", "bonding.k0"): "[5 0; 2 3]",
        ("ex6.1", "limit.k0"): "(3, 5)", ("ex6.1", "limit.k1"): tor.name(1),
        ("ex6.1", "limit.ideal.k0"): "Z[1/3]", ("ex6.1", "limit.quotient.k0"): "Z[1/5]",
        ("ex6.1", "ideal.k1"): tor_i.name(1), ("ex6.1", "quotient.k1"): tor_q.name(1),
        ("ex6.1", "coeff.mod2"): "(%s, %s)" % ref.mod_n_groups(tor.k0, tor.k1, 2),
    }
    for n in range(3):
        claims[("thm3.3", f"k0.C{n}")] = odd.name(0)
        claims[("thm3.3", f"k1.C{n}")] = odd.name(1)
    for n in range(2):
        claims[("ex6.1", f"k0.stage{n}")] = tor.name(0)
        claims[("ex6.1", f"k1.stage{n}")] = tor.name(1)
    for name in ("ex4.3", "ex4.7"):
        for n in range(4):
            # the odd tower's Z^2 plus one Z per matrix summand, 2n + 1 of them
            claims[(name, f"k0.stage{n}")] = ref.group_name(2 + 2 * n + 1, ())
            claims[(name, f"k1.stage{n}")] = odd.name(1)
    for n in (1, 2, 3):  # the recursion blocks of Section 5: K_0 = Z^2, K_1 = Z
        claims[("sec5", f"block.k0.{n}")] = ref.group_name(2, ())
        claims[("sec5", f"block.k1.{n}")] = ref.group_name(1, ())
    return claims


def _scenario_check(name, claims):
    def check(report):
        expect(report.scenario == name, f"scenario {name} reported as {report.scenario}")
        bad = [c.claim_id for c in report.claims if not c.passed]
        expect(not bad, f"scenario {name}: failed claims {bad}")
        got = {c.claim_id: c.computed for c in report.claims}
        for (scen, cid), value in claims.items():
            if scen == name:
                expect(got.get(cid) == value,
                       f"scenario {name} claim {cid}: computed {got.get(cid)!r}, paper {value!r}")
    return check


def _scenario_digest(report):
    return tuple((c.claim_id, c.computed, c.passed) for c in report.claims)


def towers_prepare(nc, seed: int, quick: bool, root: str):
    samples = os.path.join(root, "docs", "samples")
    files = {}
    for key, fname in (("odd", "odd_tower.nccw"), ("torsion", "torsion_tower.nccw")):
        path = os.path.join(samples, fname)
        with open(path) as fh:
            text = fh.read()
        nc.inputfmt.parse(text)  # the inputs must be valid documents
        files[key] = (path, text)
    rng = random.Random(seed)
    return {
        "files": files,
        "stages": rng.randint(3, 6),
        "moduli_odd": sorted(rng.sample(range(2, 13), 3)),
        "moduli_torsion": sorted(rng.sample(range(2, 13), 3)),
        "divisible": ([rng.randint(0, 4), rng.randint(1, 4)], rng.choice((2, 3, 4, 6, 8, 9))),
        "dominates": ([rng.randint(0, 3), rng.randint(0, 3)],
                      [rng.randint(0, 3), rng.randint(0, 3)]),
        "perforation": ([rng.randint(-3, 3), rng.randint(-3, -1)], rng.randint(2, 5),
                        rng.randint(0, 3)),
        "scenarios": ["thm3.3", "ex4.3", "ex4.7", "sec5", "ex6.1"],
    }


def _run_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
            if not isinstance(exc.code, int):
                print(exc.code)
    return status, out.getvalue()


def _cli_check(expected_status, patterns):
    """Exit status, then each regex must match one output line in order;
    a pattern's groups are handed to its optional test."""
    def check(result):
        status, text = result
        expect(status == expected_status, f"exit status {status}, expected "
                                          f"{expected_status}; output {text!r}")
        lines = text.splitlines()
        pos = 0
        for pat, test in patterns:
            rx = re.compile(pat)
            while pos < len(lines) and not rx.search(lines[pos]):
                pos += 1
            expect(pos < len(lines), f"no output line matches {pat!r} in {text!r}")
            if test is not None:
                test(rx.search(lines[pos]))
            pos += 1
    return check


def _vec(v):
    return ",".join(map(str, v))


def _odd_witness_test(data):
    def test(m):
        S = tuple(int(x) - 1 for x in m.group(1).split(","))
        expect(ref.nonpure_row(data["alpha"], data["beta"], len(data["k"]), S),
               f"classify witness S={S} has only split rows")
    return test


def towers_operations(nc, inputs):
    main = nc.cli.main
    odd_path, odd_text = inputs["files"]["odd"]
    tor_path, tor_text = inputs["files"]["torsion"]
    odd, tor = _kgroups(ODD_TOWER_C0), _kgroups(TORSION_TOWER_F0)
    odd_i, odd_q = _kgroups(ODD_TOWER_C0, (2,))
    tor_i, tor_q = _kgroups(TORSION_TOWER_F0, (2, 3))
    ops = []
    claims = _paper_claims()
    for name in inputs["scenarios"]:
        ops.append(Op(f"scenario {name}", (lambda name=name: nc.scenarios.run_scenario(name)),
                      _scenario_check(name, claims), _scenario_digest))

    def cli(argv, status, patterns):
        ops.append(Op("nccwk " + " ".join(os.path.basename(a) for a in argv),
                      (lambda: _run_cli(main, argv)), _cli_check(status, patterns)))

    q = re.escape
    cli(["ktheory", "complex", odd_path], 0,
        [(q(f"K_0 = {odd.name(0)}   (kernel basis columns: [1 0; 1 0; 0 1])"), None),
         (q(f"K_1 = {odd.name(1)}") + "$", None)])
    cli(["ktheory", "complex", tor_path], 0,
        [(q(f"K_0 = {tor.name(0)}   "), None), (q(f"K_1 = {tor.name(1)}") + "$", None)])
    cli(["ktheory", "ideal", odd_path, "--summands", "3"], 0,
        [(r"ideal over points \[3\], interval blocks \[2\]", None),
         (q(f"K_0 = {odd_i.name(0)}, K_1 = {odd_i.name(1)}") + "$", None),
         (q(f"K_0 = {odd_q.name(0)}, K_1 = {odd_q.name(1)}") + "$", None)])
    cli(["ktheory", "ideal", tor_path, "--name", "F0", "--summands", "3,4"], 0,
        [(r"ideal over points \[3, 4\], interval blocks \[2\]", None),
         (q(f"K_0 = {tor_i.name(0)}, K_1 = {tor_i.name(1)}") + "$", None),
         (q(f"K_0 = {tor_q.name(0)}, K_1 = {tor_q.name(1)}") + "$", None)])
    cli(["classify", odd_path], 0,
        [(r"^C0: odd \(witness S = \[([0-9, ]+)\]", _odd_witness_test(ODD_TOWER_C0))])
    cli(["classify", tor_path], 0,
        [(r"^F0: odd \(witness S = \[([0-9, ]+)\]", _odd_witness_test(TORSION_TOWER_F0))])

    n = inputs["stages"]
    cli(["limit", odd_path, "--system", "k0sys", "--stages", str(n)], 0,
        [(rf"stages 0\.\.{n}$", None)]
        + [(q(f"stage {s}: {odd.name(0)}") + "$", None) for s in range(n + 1)]
        + [(q(f"bonding {s} -> {s + 1}: [3 0; 1 2]") + "$", None) for s in range(n)])
    for path, system, expected in (
            (odd_path, "k0sys", _localization(ODD_K0_BONDING)), (odd_path, "k1sys", odd.name(1)),
            (tor_path, "k0sys", _localization(TORSION_K0_BONDING)), (tor_path, "k1sys", tor.name(1))):
        cli(["limit", path, "--system", system, "--identify"], 0,
            [(q(f"{system}: limit = {expected}  (diagonal"), None)])

    g, d = inputs["divisible"]
    stage = next((s for s in range(7)
                  if all(x % d == 0 for x in ref.mat_power_apply(ODD_K0_BONDING, g, s))), None)
    gt = "(" + ", ".join(map(str, g)) + ")"
    cli(["limit", odd_path, "--system", "k0sys", "--divisible", _vec(g), str(d), "--bound", "6"], 0,
        [(q(f"{gt} becomes divisible by {d} at stage {stage}") + "$"
          if stage is not None else q(f"{gt} is not divisible by {d} within 6 stages") + "$", None)])

    for path, data, moduli, flags in ((odd_path, odd, inputs["moduli_odd"], []),
                                      (tor_path, tor, inputs["moduli_torsion"], ["--name", "F0"])):
        cli(["coeff", path, "--n", _vec(moduli)] + flags, 0,
            [(q(f"K_0 = {data.name(0)}, K_1 = {data.name(1)}") + "$", None)]
            + [(q("mod %d: K_0(;Z_%d) = %s   K_1(;Z_%d) = %s" %
                  (m, m, ref.mod_n_groups(data.k0, data.k1, m)[0], m,
                   ref.mod_n_groups(data.k0, data.k1, m)[1])) + "$", None) for m in moduli])

    u, v = inputs["dominates"]
    # stage cones are the nonnegative kernel coordinates (basis [1 0; 1 0; 0 1])
    diff = [a - b for a, b in zip(u, v)]
    first = next((s for s in range(7)
                  if all(x >= 0 for x in ref.mat_power_apply(ODD_K0_BONDING, diff, s))), None)
    ut, vt = ("(" + ", ".join(map(str, w)) + ")" for w in (u, v))
    cli(["order", odd_path, "--dominates", _vec(u), _vec(v), "--bound", "6"],
        0 if first is not None else 1,
        [(q(f"{ut} >= {vt} first holds at stage {first}") + "$" if first is not None
          else q(f"{ut} >= {vt} fails through stage 6") + "$", None)])
    g, m, s = inputs["perforation"]
    # g has a negative coordinate and the cone is dilation invariant: never a
    # witness.  The parentheses keep argparse from reading "-2,-1" as an option.
    cli(["order", odd_path, "--perforation-witness", f"({_vec(g)})", str(m), "--stage", str(s)], 1,
        [(q(f"stage {s} witness ({', '.join(map(str, g))}) with n = {m}: not a witness") + "$",
          None)])

    for key, (path, text) in inputs["files"].items():
        ops.append(Op(f"parse+render {os.path.basename(path)}",
                      (lambda text=text: _parse_render(nc.inputfmt, text)),
                      _roundtrip_check(key)))
    return ops


def _parse_render(inputfmt, text):
    doc = inputfmt.parse(text)
    first = inputfmt.render(doc)
    second = inputfmt.render(inputfmt.parse(first))
    return doc, first, second


def _roundtrip_check(key):
    data, name = (ODD_TOWER_C0, "C0") if key == "odd" else (TORSION_TOWER_F0, "F0")

    def check(result):
        doc, first, second = result
        expect(first == second, f"{name}: render(parse(render(doc))) differs from render(doc)")
        cx = doc.get_complex(name)
        expect((tuple(cx.k), tuple(cx.h), rows_of(cx.alpha), rows_of(cx.beta))
               == (data["k"], data["h"], data["alpha"], data["beta"]),
               f"{name}: parsed multiplicity data differs from the paper's")
    return check


# -- lattices -----------------------------------------------------------------

SIZES = (8, 12, 16, 20, 24, 28, 32)
# From n = 28 on, the Smith-form cost of a random matrix jumps between 0.03 s
# and 3 s with its entries (coefficient explosion: transform entries from 2k
# to 230k bits).  A seeded draw there would make work_s measure the draw, so
# these sizes use the same matrices for every seed.
CLIFF = 28
CLIFF_SEED = "lattices-cliff-0"
RANKS = (3, 4, 5, 6, 7, 8)
MAX_DET = 216  # keeps the divisor scan of the eigenvalue search short


def _random_matrix(rng, n):
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


def _deficient_matrix(rng, n):
    """Entries in [-3, 3] except 1-3 rows replaced by differences of two others."""
    A = _random_matrix(rng, n)
    for i in rng.sample(range(n), rng.randint(1, 3)):
        a, b = rng.sample([j for j in range(n) if j != i], 2)
        A[i] = [x - y for x, y in zip(A[a], A[b])]
    return A


def _conjugated_diagonal(rng, r):
    """M = P D P^-1 for a seeded diagonal D with |det D| <= MAX_DET and a
    unimodular P made of 2r elementary column operations."""
    while True:
        diag = [rng.choice((1, 1, 2, 3, 4, 5, 6)) for _ in range(r)]
        det = 1
        for x in diag:
            det *= x
        if det <= MAX_DET:
            break
    P = [[int(i == j) for j in range(r)] for i in range(r)]
    Pinv = [row[:] for row in P]
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        x = rng.choice((-1, 1))
        for k in range(r):
            P[k][j] += x * P[k][i]   # P <- P (I + x E_ij)
        Pinv[i] = [a - x * b for a, b in zip(Pinv[i], Pinv[j])]  # (I - x E_ij) Pinv
    D = [[diag[i] if i == j else 0 for j in range(r)] for i in range(r)]
    return diag, ref.matmul(ref.matmul(P, D), Pinv)


def lattices_prepare(nc, seed: int, quick: bool, root: str):
    rng = random.Random(seed)
    cliff_rng = random.Random(CLIFF_SEED)
    sizes = SIZES[:2] if quick else SIZES
    ranks = RANKS[:3] if quick else RANKS
    mats = []
    for n in sizes:
        source = cliff_rng if n >= CLIFF else rng
        full = _random_matrix(source, n)
        deficient = _deficient_matrix(source, n)
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        mats.append((n, full, deficient, x0))
    bondings = [(r,) + _conjugated_diagonal(rng, r) for r in ranks]
    return {"matrices": mats, "bondings": bondings}


def _snf_digest(snf):
    return snf.invariant_factors, hash((snf.U.entries, snf.V.entries))


def _snf_check(A):
    def check(snf):
        n = len(A)
        expected = ref.invariant_factors_by_reduction(A, n)
        d = list(snf.invariant_factors)
        expect([x for x in d if x != 0] == expected,
               f"invariant factors {d} differ from the reference {expected}")
        expect(all(x == 0 for x in d[len(expected):]), "zero factors are not last")
        D = rows_of(snf.D)
        expect(all(D[i][j] == (d[i] if i == j else 0) for i in range(n) for j in range(n)),
               "D is not the diagonal of the invariant factors")
        expect(ref.matmul(ref.matmul(rows_of(snf.U), A), rows_of(snf.V)) == D, "U*A*V != D")
    return check


def _kernel_check(A):
    def check(K):
        n = len(A)
        width = n - ref.bareiss_rank(A)
        expect(K.rows == n and K.cols == width,
               f"kernel is {K.rows}x{K.cols}, expected {n}x{width}")
        cols = list(zip(*rows_of(K))) if K.cols else []
        expect(all(ref.matvec(A, c) == [0] * n for c in cols), "A*K != 0")
        expect(ref.bareiss_rank(rows_of(K)) == width, "kernel columns are dependent")
    return check


def _solve_check(A, b):
    def check(x):
        expect(x is not None, "solve found no solution of A x = A x0")
        expect(ref.matvec(A, list(x)) == b, "A * solve(A, b) != b")
    return check


def _identify_check(diag):
    expected = tuple(sorted(ref.radical(s) for s in diag))

    def check(lim):
        expect(lim is not None, f"limit of a conjugate of diag{tuple(diag)} unidentified")
        expect(lim.localization_multiset() == expected,
               f"localizations {lim.localization_multiset()}, expected {expected}")
        expect(lim.stage == 0 and not lim.torsion, "limit not free from stage 0")
    return check


def _identify_digest(lim):
    return None if lim is None else (lim.localization_multiset(), lim.diagonal)


def lattices_operations(nc, inputs):
    IntMatrix = nc.intmat.IntMatrix
    im = nc.intmat
    ops = []
    for n, full, deficient, x0 in inputs["matrices"]:
        b_full = ref.matvec(full, x0)
        b_def = ref.matvec(deficient, x0)
        ops.append(Op(f"smith n={n}", (lambda A=full: im.smith_normal_form(IntMatrix.from_rows(A))),
                      _snf_check(full), _snf_digest))
        ops.append(Op(f"kernel n={n}", (lambda A=deficient: im.kernel(IntMatrix.from_rows(A))),
                      _kernel_check(deficient), lambda K: K.entries))
        ops.append(Op(f"solve n={n}", (lambda A=full, b=b_full: im.solve(IntMatrix.from_rows(A), b)),
                      _solve_check(full, b_full), lambda x: x))
        ops.append(Op(f"solve deficient n={n}",
                      (lambda A=deficient, b=b_def: im.solve(IntMatrix.from_rows(A), b)),
                      _solve_check(deficient, b_def), lambda x: x))
    for r, diag, M in inputs["bondings"]:
        ops.append(Op(f"identify rank={r}",
                      (lambda M=M: nc.homind.identify_localized_limit(
                          nc.homind.IndSystem.from_matrix(IntMatrix.from_rows(M)))),
                      _identify_check(diag), _identify_digest))
    return ops


# name -> (prepare inputs, build operations, check across operations or None)
WORKLOADS = {
    "census": (census_prepare, census_operations, census_cross_check),
    "towers": (towers_prepare, towers_operations, None),
    "lattices": (lattices_prepare, lattices_operations, None),
}
