import inspect
import os
import subprocess
import sys
from collections import Counter
from dataclasses import astuple
from itertools import combinations, permutations
from pathlib import Path

import pytest

from nccwk import nccw
from nccwk.fgab.groups import _splits, cokernel, is_exact
from nccwk.fgab.intmat import IntMatrix
from nccwk.harness.cli import build_parser
from nccwk.harness.report import render_report
from nccwk.harness.scenarios import SCENARIOS, odd_tower_complex, run_scenario
from nccwk.harness import search as search_module
from nccwk.harness.search import (
    OddBlock,
    SearchBounds,
    _canonical_key,
    _enumerate_unital,
    census_lines,
    reverify_odd_witness,
    search_odd_blocks,
)
from nccwk.nccw import (
    CompactIdealSpec,
    NccwComplex,
    _boundary_vanishes,
    _minimal_supports,
    all_ideal_specs,
    classify_block,
    k_sequences,
    make_ideal_spec,
    odd_witnesses,
)

from oracles import (
    all_images_orderly_candidates,
    burnside_key_orbit_counts,
    burnside_orbit_counts,
    first_appearance_candidates,
    nonnegative_kernel_witness,
    quotient_k1_torsion,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "docs" / "samples"
DATA = Path(__file__).resolve().parent / "data"


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes(self, name):
        report = run_scenario(name)
        assert report.passed, [c for c in report.claims if not c.passed]

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_scenario("nope")

    def test_every_claim_is_tagged(self):
        for name in SCENARIOS:
            for c in run_scenario(name).claims:
                assert c.source in ("paper", "derived", "trivial")

    def test_reports_are_deterministic(self):
        for name in ("ex4.3", "ex6.1"):
            a = render_report(run_scenario(name), "json-like")
            b = render_report(run_scenario(name), "json-like")
            assert a == b
        ta = render_report(run_scenario("sec5"), "text")
        tb = render_report(run_scenario("sec5"), "text")
        assert ta == tb

    def test_render_formats(self):
        r = run_scenario("sec5")
        assert "sec5" in render_report(r, "text")
        assert '"passed": true' in render_report(r, "json-like")
        with pytest.raises(ValueError):
            render_report(r, "yaml")


def as_candidate(c):
    """A complex in the shape the search generates candidates in."""
    return c.k, c.h, c.alpha.entries, c.beta.entries


def canonical(c):
    return _canonical_key(*as_candidate(c))


def verdict_key(k, h, alpha, beta):
    """alpha - beta with the entries where alpha or beta is nonzero: all
    that odd_witnesses reads of a complex, here given as rows."""
    return (tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(alpha, beta)),
            tuple(tuple(bool(x or y) for x, y in zip(ra, rb)) for ra, rb in zip(alpha, beta)))


def past_guard(k, h, alpha, beta):
    """Whether K_1(A/I) has torsion for some proper point subset S."""
    return any(quotient_k1_torsion(alpha, beta, S) for r in range(1, len(k))
               for S in combinations(range(len(k)), r))


def permuted(c, points, blocks):
    """c with point j' = points[j] and interval block i' = blocks[i]."""
    def move(M):
        rows = [[0] * c.p for _ in range(c.l)]
        for i, row in enumerate(M.entries):
            for j, x in enumerate(row):
                rows[blocks[i]][points[j]] = x
        return IntMatrix.from_rows(rows)

    k, h = [0] * c.p, [0] * c.l
    for j, s in enumerate(c.k):
        k[points[j]] = s
    for i, s in enumerate(c.h):
        h[blocks[i]] = s
    return NccwComplex(tuple(k), tuple(h), move(c.alpha), move(c.beta))


class TestSearch:
    def test_default_bounds_rediscover_the_odd_tower(self, default_search):
        blocks = default_search
        keys = {canonical(b.complex) for b in blocks}
        assert canonical(odd_tower_complex(0)) in keys

    def test_single_interval_bounds_find_nothing(self):
        assert search_odd_blocks(max_p=2, max_l=1) == []

    def test_all_bounds_one_find_nothing(self):
        assert search_odd_blocks(max_p=1, max_l=1, max_mult=1, max_size=1) == []

    def test_witnesses_reverify(self, default_search):
        blocks = default_search
        assert blocks
        for b in blocks:
            assert reverify_odd_witness(b.complex, b.witness)

    def test_reverify_rejects_non_witnesses(self):
        A = odd_tower_complex(0)
        assert not reverify_odd_witness(A, make_ideal_spec(A, []))
        # neither K row over point 2 is exact (nonzero boundary maps)
        B = NccwComplex((1, 1, 1), (2,), IntMatrix.from_rows([[0, 1, 1]]),
                        IntMatrix.from_rows([[1, 1, 0]]))
        spec = make_ideal_spec(B, [1])
        assert spec in classify_block(B).nonexact_witnesses
        assert not reverify_odd_witness(B, spec)

    def test_results_deduplicated(self, default_search):
        blocks = default_search
        keys = [canonical(b.complex) for b in blocks]
        assert len(keys) == len(set(keys))

    def test_default_census_bytes(self, default_search):
        """The default census, pinned byte for byte (search_default.txt holds
        census_lines(search_odd_blocks()) as printed before the ideal-support
        search was rebuilt on cone faces and the snake lemma)."""
        expected = (DATA / "search_default.txt").read_text()
        assert "\n".join(census_lines(default_search)) + "\n" == expected

    @pytest.mark.parametrize("bound", ["max_p", "max_l", "max_mult", "max_size"])
    def test_bounds_below_one_are_refused(self, bound):
        with pytest.raises(ValueError, match=f"search bound {bound} must be at least 1"):
            search_odd_blocks(**{bound: 0})

    def test_bounds_description(self):
        assert "p <= 3" in str(SearchBounds())

    def test_default_bounds_stated_once(self):
        args = build_parser().parse_args(["search"])
        assert SearchBounds(args.max_p, args.max_l, args.max_mult, args.max_size) == SearchBounds()
        defaults = [p.default for p in inspect.signature(search_odd_blocks).parameters.values()]
        assert tuple(defaults[:4]) == astuple(SearchBounds())

    @pytest.mark.parametrize("bounds", [(3, 2, 2, 1), (3, 2, 1, 1), (2, 3, 2, 2)])
    def test_orderly_generation_matches_first_appearance(self, bounds):
        """One candidate per orbit, in the order a seen set over every raw
        candidate finds them; candidates are emitted as generated, so each is
        compared by its canonical form.  (2,3,2,2) has point sizes up to 2,
        so only size-keeping point permutations act."""
        orderly = [_canonical_key(*c) for c in _enumerate_unital(SearchBounds(*bounds))]
        assert orderly == list(first_appearance_candidates(*bounds, _canonical_key))

    @pytest.mark.parametrize("bounds", [
        (3, 2, 2, 1), (3, 2, 1, 1), (2, 3, 2, 2), (3, 2, 3, 1),
        pytest.param((4, 2, 2, 1), marks=pytest.mark.slow),
        pytest.param((3, 3, 2, 1), marks=pytest.mark.slow),
    ])
    def test_pruned_generation_matches_all_images_test(self, bounds):
        """The prefix-pruned orderly test emits the same rows in the same
        order as the test against every size-keeping point permutation."""
        pruned = list(_enumerate_unital(SearchBounds(*bounds)))
        assert pruned == list(all_images_orderly_candidates(*bounds))

    @pytest.mark.parametrize("bounds, total", [
        ((3, 2, 2, 1), 1_853), ((3, 2, 3, 1), 28_943), ((4, 2, 2, 1), 28_879),
        ((3, 3, 2, 1), 80_883), ((3, 2, 2, 2), 8_429),
        pytest.param((5, 2, 2, 1), 393_172, marks=pytest.mark.slow),
    ])
    def test_emission_counts(self, bounds, total):
        """The candidates emitted for each (point sizes k, l) are as many as
        Burnside's lemma counts orbits, on a path that shares no code with
        the search; the totals are those of the pinned censuses."""
        emitted = Counter((k, len(h)) for k, h, _, _ in _enumerate_unital(SearchBounds(*bounds)))
        orbits = burnside_orbit_counts(*bounds)
        assert emitted == orbits and sum(orbits.values()) == total

    @pytest.mark.parametrize("bounds, keys, orbits", [((3, 2, 2), 394, 164), ((4, 2, 2), 5_058, 1_111)])
    def test_key_orbit_counts(self, bounds, keys, orbits, monkeypatch):
        """The verdict keys the search decides fall into as many orbits under
        permuting points and rows as Burnside's lemma counts over row types,
        per (p, l).  Each key is put in canonical form by brute force over
        the orders of its rows: for each order, its columns sorted, and the
        least of those.  The verdicts are stubbed, so no block is odd."""
        decided = []

        def deciding(delta, pattern):
            decided.append((delta.entries, pattern))
            return iter(())

        monkeypatch.setattr(search_module, "odd_witnesses", deciding)
        assert search_odd_blocks(*bounds) == []
        canonical = {min(tuple(sorted(zip(*(delta[i] for i in order), *(pattern[i] for i in order))))
                         for order in permutations(range(len(delta))))
                     for delta, pattern in decided}
        assert len(decided) == len(set(decided)) == keys
        assert Counter((len(c), len(c[0]) // 2) for c in canonical) == burnside_key_orbit_counts(*bounds)
        assert len(canonical) == orbits

    @pytest.mark.parametrize("bounds", [(3, 2, 2, 1), (3, 2, 1, 1), (2, 3, 2, 2)])
    def test_candidates_are_valid_unital_complexes(self, bounds):
        """The search builds a complex only for an odd block, so candidates
        are never validated at run time: here every one builds a valid
        unital complex within its bounds, whose delta and pattern are the
        memo key the search reads off its rows."""
        max_p, max_l, max_mult, max_size = bounds
        for k, h, a, b in _enumerate_unital(SearchBounds(*bounds)):
            A = NccwComplex(k, h, IntMatrix.from_rows(a, cols=len(k)),
                            IntMatrix.from_rows(b, cols=len(k)))
            assert A.unital and 1 <= A.p <= max_p and 1 <= A.l <= max_l
            assert max(A.k) <= max_size
            assert max(max(row) for M in (A.alpha, A.beta) for row in M.entries) <= max_mult
            assert verdict_key(k, h, a, b) == (A.delta.entries, A.pattern)

    def test_complex_built_once_per_odd_block(self, monkeypatch):
        """Candidates stay rows: a verdict-memo miss passes odd_witnesses
        alpha - beta and the nonzero pattern, not a complex, so among the
        1,853 default candidates (394 keys) a complex is built only for each
        odd block, once, in canonical form: 16 builds."""
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return NccwComplex(*args, **kwargs)

        monkeypatch.setattr(search_module, "NccwComplex", counted)
        blocks = search_odd_blocks()
        assert len(blocks) == len(built) == 16
        assert [args[:2] for args in built] == [(b.complex.k, b.complex.h) for b in blocks]

    @pytest.mark.parametrize("bounds", [
        pytest.param((3, 2, 2, 1), id="default"),
        pytest.param((3, 2, 3, 1), marks=pytest.mark.slow, id="max_mult3"),
    ])
    def test_census_matches_independent_oracle(self, bounds, default_search):
        """The census, rebuilt without the search's reasoning (orderly
        generation, verdict memo, torsion guard, minimal supports, boundary
        test): every orbit from the brute-force first-appearance oracle, and
        for each one the point subsets S with 0 < |S| < p by size then
        lexicographically, S a support iff delta[:, S] has a kernel vector
        >= 1 on all of S (Fourier-Motzkin), T the interval blocks meeting S.
        The first S whose K rows are exact and not both split is the
        witness; a candidate with none is not odd.  At --max-mult 3 (318
        blocks, about 30 s) it is marked slow and left out of the default
        run."""
        blocks = []
        for k, h, a, b in first_appearance_candidates(*bounds, _canonical_key):
            A = NccwComplex(k, h, IntMatrix.from_rows(a, cols=len(k)),
                            IntMatrix.from_rows(b, cols=len(k)))
            for S in (S for r in range(1, A.p) for S in combinations(range(A.p), r)):
                v = nonnegative_kernel_witness(A.delta.submatrix(range(A.l), S), range(len(S)))
                if v is None:
                    continue
                T = tuple(i for i in range(A.l) if any(a[i][j] or b[i][j] for j in S))
                spec = CompactIdealSpec(S, T, v)
                rows = k_sequences(A, spec)
                if all(map(is_exact, rows)) and not all(map(_splits, rows)):
                    blocks.append(OddBlock(A, spec))
                    break
        search = default_search if bounds == astuple(SearchBounds()) else search_odd_blocks(*bounds)
        assert census_lines(blocks) == census_lines(search)

    def test_canonical_key_once_per_odd_block(self, monkeypatch):
        """Only the printed blocks are put in canonical form: 16 calls for
        the 16 odd blocks among the 1,853 default candidates."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _canonical_key(*args)

        monkeypatch.setattr(search_module, "_canonical_key", counted)
        assert len(search_odd_blocks()) == len(calls) == 16

    def test_supports_built_only_past_the_torsion_guard(self, monkeypatch):
        """At the default bounds 132 candidates have torsion in K_1(A/I) for
        some proper point subset; they fall into 39 (delta, pattern) keys,
        and only the first candidate of each key reaches odd_witnesses.  So
        minimal supports are scanned 39 times for the memo misses and 16
        more times, once for each odd block put in canonical form: 55.  Each
        scan covers only the points whose blocks lie inside a union T with
        torsion in coker delta[T^c, :]: it makes 116 kernel calls, its
        nullity call included, and its closure lists 85 supports, each empty
        union included.  The boundary test runs only on supports with that
        torsion: 14 times over the 39 misses, and once for each odd block,
        whose first support with torsion is its witness: 30.  Each call's
        arguments lead back to a candidate: a printed block's by the
        identity of its delta, a memo miss's through verdict_key."""
        built, minimal, kernels, listed, tested = [], [], [], [], []
        scanning = []

        def counted_minimal(delta, points):
            minimal.append(delta)
            scanning.append(True)
            try:
                return _minimal_supports(delta, points)
            finally:
                scanning.pop()

        def counted_kernel(M):
            if scanning:
                kernels.append(M)
            return nccw_kernel(M)

        def counted_spec(pattern, S, minimal_supports):
            listed.append(S)
            return nccw_spec(pattern, S, minimal_supports)

        def counted_specs(delta, pattern, points=None):
            built.append((delta, pattern))
            return all_ideal_specs(delta, pattern, points)

        def counted_boundary(delta, spec):
            tested.append((delta, spec))
            return _boundary_vanishes(delta, spec)

        nccw_kernel, nccw_spec = nccw.kernel, nccw._spec
        by_key = {verdict_key(*c): c for c in _enumerate_unital(SearchBounds())}
        guarded = [c for c in _enumerate_unital(SearchBounds()) if past_guard(*c)]
        assert len(guarded) == 132 and len({verdict_key(*c) for c in guarded}) == 39
        monkeypatch.setattr(nccw, "all_ideal_specs", counted_specs)
        monkeypatch.setattr(nccw, "_minimal_supports", counted_minimal)
        monkeypatch.setattr(nccw, "kernel", counted_kernel)
        monkeypatch.setattr(nccw, "_spec", counted_spec)
        monkeypatch.setattr(nccw, "_boundary_vanishes", counted_boundary)
        blocks = search_odd_blocks()
        assert len(blocks) == 16
        assert len(built) == len(minimal) == 55
        assert (len(kernels), len(listed)) == (116, 85)
        printed = {id(b.complex.delta): as_candidate(b.complex) for b in blocks}
        candidate = {id(delta): printed.get(id(delta)) or by_key[delta.entries, pattern]
                     for delta, pattern in built}
        misses = [candidate[id(delta)] for delta, _ in built if id(delta) not in printed]
        assert len(misses) == len({verdict_key(*c) for c in misses}) == 39
        assert all(past_guard(*c) for c in candidate.values())
        assert len(tested) == 30
        assert sum(id(delta) in printed for delta, _ in tested) == 16
        assert all(quotient_k1_torsion(*candidate[id(delta)][2:], spec.S) for delta, spec in tested)

    def test_odd_witnesses_once_per_key_and_odd_block(self, monkeypatch):
        """odd_witnesses runs once per distinct (delta, pattern) key, 394 of
        them among 1,853 default candidates, and once more per odd block, on
        its canonical form: 410 runs.  The memo-miss runs are given exactly
        the keys verdict_key builds, which shares no code with the search's
        per-row key memo: a memo that merged or split keys would differ."""
        keys = {verdict_key(*c) for c in _enumerate_unital(SearchBounds())}
        runs = []

        def counted(delta, pattern):
            runs.append((delta, pattern))
            return odd_witnesses(delta, pattern)

        monkeypatch.setattr(search_module, "odd_witnesses", counted)
        blocks = search_odd_blocks()
        assert (len(keys), len(blocks)) == (394, 16)
        assert len(runs) == len(keys) + len(blocks) == 410
        printed = {id(b.complex.delta) for b in blocks}
        misses = [(delta.entries, pattern) for delta, pattern in runs if id(delta) not in printed]
        assert len(misses) == len(set(misses)) == 394
        assert set(misses) == keys

    def test_guard_memo_builds_one_group_per_row_tuple(self, monkeypatch, default_search):
        """The torsion guard of odd_witnesses builds coker delta[T^c, :] once
        per distinct tuple of delta's rows outside T, over every union T of
        the points' adjacent blocks, for the default candidates' keys and
        their odd blocks' canonical forms; it returns that group when it has
        torsion and None otherwise, and a search on the warm cache prints
        the same census."""
        def unions(pattern):
            p = len(pattern[0]) if pattern else 0
            adjacent = [frozenset(i for i, row in enumerate(pattern) if row[j]) for j in range(p)]
            return {frozenset().union(*(adjacent[j] for j in J))
                    for r in range(1, p + 1) for J in combinations(range(p), r)}

        keys = ({verdict_key(*c) for c in _enumerate_unital(SearchBounds())}
                | {verdict_key(*as_candidate(b.complex)) for b in default_search})
        outside = {(rows, T): tuple(row for i, row in enumerate(rows) if i not in T)
                   for rows, pattern in keys for T in unions(pattern)}
        built, guarding = [], []

        def guard(rows):
            guarding.append(True)
            try:
                return torsion_cokernel(rows)
            finally:
                guarding.pop()

        def counted_cokernel(M):
            if guarding:
                built.append(M.entries)
            return nccw_cokernel(M)

        torsion_cokernel, nccw_cokernel = nccw._torsion_cokernel, nccw.cokernel
        torsion_cokernel.cache_clear()
        monkeypatch.setattr(nccw, "_torsion_cokernel", guard)
        monkeypatch.setattr(nccw, "cokernel", counted_cokernel)
        assert census_lines(search_odd_blocks()) == census_lines(default_search)
        assert len(built) == len(set(built)) == len(set(outside.values())) == 33
        assert set(built) == set(outside.values())
        monkeypatch.undo()
        for (rows, T), kept in outside.items():
            delta = IntMatrix.from_rows(rows)
            G = cokernel(delta.submatrix([i for i in range(delta.rows) if i not in T],
                                         range(delta.cols)))
            assert nccw._torsion_cokernel(kept) == (G if G.torsion_orders else None)
        assert census_lines(search_odd_blocks()) == census_lines(default_search)

    def test_one_key_one_witness_list(self, default_search):
        """Complexes sharing delta and the nonzero pattern of alpha, beta get
        the same witnesses, though k, h, alpha and beta differ: here k is
        doubled and 1 added to alpha and beta wherever either is nonzero.
        Permuting both the same way keeps them equal, and moves every
        witness support along with the points."""
        for block in default_search:
            A = block.complex
            a = [[x + (x > 0 or y > 0) for x, y in zip(ra, rb)]
                 for ra, rb in zip(A.alpha.entries, A.beta.entries)]
            b = [[y + (x > 0 or y > 0) for x, y in zip(ra, rb)]
                 for ra, rb in zip(A.alpha.entries, A.beta.entries)]
            k = tuple(2 * s for s in A.k)
            h = tuple(sum(m * s for m, s in zip(row, k)) for row in a)
            B = NccwComplex(k, h, IntMatrix.from_rows(a), IntMatrix.from_rows(b))
            assert verdict_key(*as_candidate(A)) == verdict_key(*as_candidate(B))
            assert (B.k, B.h) != (A.k, A.h) and B.alpha != A.alpha and B.beta != A.beta
            witnesses = list(odd_witnesses(A.delta, A.pattern))
            assert witnesses and list(odd_witnesses(B.delta, B.pattern)) == witnesses
            points, blocks = list(reversed(range(A.p))), list(reversed(range(A.l)))
            A2, B2 = (permuted(C, points, blocks) for C in (A, B))
            assert verdict_key(*as_candidate(A2)) == verdict_key(*as_candidate(B2))
            moved = list(odd_witnesses(A2.delta, A2.pattern))
            assert list(odd_witnesses(B2.delta, B2.pattern)) == moved
            assert ({frozenset(points[j] for j in w.S) for w in moved}
                    == {frozenset(w.S) for w in witnesses})


def cli_env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "nccwk", *argv],
                          capture_output=True, text=True, timeout=600, env=cli_env())
    return proc.returncode, proc.stdout, proc.stderr


class TestCli:
    @pytest.mark.parametrize("argv", [("scenario", "all"), ("search",)])
    def test_closed_stdout_ends_quietly(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "nccwk", *argv], env=cli_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # before the child writes its first line
        err = proc.stderr.read()
        assert proc.wait(timeout=600) == 1 and err == b""

    def test_scenario_subcommand(self):
        code, out, _ = run_cli("scenario", "ex6.1")
        assert code == 0
        assert "checks passed" in out

    def test_scenario_json_format(self):
        code, out, _ = run_cli("scenario", "sec5", "--format", "json-like")
        assert code == 0 and '"scenario": "sec5"' in out

    def test_ktheory_complex(self):
        code, out, _ = run_cli("ktheory", "complex", str(SAMPLES / "odd_tower.nccw"))
        assert code == 0 and "K_0 = Z (+) Z" in out

    def test_ktheory_ideal(self):
        code, out, _ = run_cli("ktheory", "ideal", str(SAMPLES / "torsion_tower.nccw"),
                               "--name", "F0", "--summands", "3,4")
        assert code == 0 and "K_1 = Z/2" in out

    def test_classify(self):
        code, out, _ = run_cli("classify", str(SAMPLES / "odd_tower.nccw"))
        assert code == 0 and "odd" in out

    def test_limit_identify(self):
        code, out, _ = run_cli("limit", str(SAMPLES / "odd_tower.nccw"),
                               "--system", "k0sys", "--identify")
        assert code == 0 and "Z[1/2] (+) Z[1/3]" in out

    def test_limit_divisible(self):
        code, out, _ = run_cli("limit", str(SAMPLES / "odd_tower.nccw"), "--system",
                               "k0sys", "--divisible", "0,1", "8", "--bound", "6")
        assert code == 0 and "stage 3" in out

    def test_limit_divisible_rejects_negative_bound(self):
        code, out, err = run_cli("limit", str(SAMPLES / "odd_tower.nccw"), "--system",
                                 "k0sys", "--divisible", "0,1", "2", "--bound", "-3")
        assert code == 1 and out == "" and "bound must be nonnegative" in err

    def test_order_rejects_stage_before_n0(self, tmp_path):
        # with n0 = 1, stage -1 would be the family's stage 0
        doc = tmp_path / "odd_from_1.nccw"
        text = (SAMPLES / "odd_tower.nccw").read_text()
        assert "n0 = 0" in text
        doc.write_text(text.replace("n0 = 0", "n0 = 1"))
        code, out, err = run_cli("order", str(doc), "--perforation-witness", "1,0", "2",
                                 "--stage", "-1")
        assert code == 1 and out == "" and "stage index must be nonnegative" in err

    def test_order_rejects_a_degree_one_system(self):
        code, out, err = run_cli("order", str(SAMPLES / "odd_tower.nccw"), "--system", "k1sys",
                                 "--dominates", "1,0", "0,1")
        assert code == 1 and out == ""
        assert err == "error: no degree-0 system named 'k1sys'; available: k0sys\n"

    @pytest.mark.parametrize("argv, header", [
        ((), "odd blocks with p <= 3, l <= 2, multiplicities <= 2, point sizes <= 1: 16"),
        (("--max-p", "2"), "odd blocks with p <= 2, l <= 2, multiplicities <= 2, point sizes <= 1: 0"),
    ])
    def test_search_header(self, argv, header):
        code, out, _ = run_cli("search", *argv)
        assert code == 0 and out.splitlines()[0] == header

    def test_coeff(self):
        code, out, _ = run_cli("coeff", str(SAMPLES / "torsion_tower.nccw"),
                               "--n", "2,3", "--name", "F0")
        assert code == 0 and "K_1(;Z_3) = 0" in out

    def test_order_dominates(self):
        code, out, _ = run_cli("order", str(SAMPLES / "odd_tower.nccw"),
                               "--dominates", "1,0", "0,1", "--bound", "6")
        assert code == 0 and "stage 2" in out

    def test_order_dominates_failure_exit_code(self):
        code, out, _ = run_cli("order", str(SAMPLES / "odd_tower.nccw"),
                               "--dominates", "0,1", "1,0", "--bound", "4")
        assert code == 1

    def test_parse_error_is_positioned(self, tmp_path):
        bad = tmp_path / "bad.nccw"
        bad.write_text("complex X {\n  k = 1\n  h = 2\n  alpha = [-1]\n  beta = [1]\n}\n")
        code, _, err = run_cli("ktheory", "complex", str(bad))
        assert code != 0 and "line 4: multiplicities must be nonnegative" in err

    def test_search_cli(self):
        code, out, _ = run_cli("search", "--max-p", "2", "--max-l", "2",
                               "--max-mult", "2", "--max-size", "1")
        assert code == 0 and "odd blocks" in out

    @pytest.mark.parametrize("flag, value, name", [
        ("--max-p", "0", "max_p"), ("--max-mult", "-1", "max_mult"),
    ])
    def test_search_refuses_bounds_below_one(self, flag, value, name):
        code, out, err = run_cli("search", flag, value)
        assert code == 1 and out == ""
        assert err == f"error: search bound {name} must be at least 1\n"

    def test_search_has_no_jobs_option(self):
        code, out, err = run_cli("search", "--jobs", "2")
        assert code == 2 and out == "" and "unrecognized arguments: --jobs 2" in err
