import hashlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from dataclasses import astuple
from itertools import combinations
from pathlib import Path

import pytest

from nccwk import nccw
from nccwk.fgab.groups import cokernel
from nccwk.fgab.intmat import IntMatrix
from nccwk.harness.cli import build_parser
from nccwk.harness.report import render_report
from nccwk.harness.scenarios import SCENARIOS, odd_tower_complex, run_scenario
from nccwk.harness import search as search_module
from nccwk.harness.search import (
    OddBlock,
    SearchBounds,
    _canonical_key,
    _fibre,
    _key_orbits,
    _order_key,
    census_lines,
    reverify_odd_witness,
    search_odd_blocks,
)
from nccwk.nccw import (
    NccwComplex,
    _boundary_vanishes,
    _minimal_supports,
    all_ideal_specs,
    classify_block,
    make_ideal_spec,
    odd_witnesses,
)

from oracles import (
    all_images_orderly_candidates,
    burnside_key_orbit_counts,
    burnside_orbit_counts,
    built_rows_odd,
    canonical_verdict_key,
    first_appearance_candidates,
    fourier_motzkin_odd_witness,
    key_orbit_candidates,
    nonnegative_kernel_witness,
    orderly_rank,
    quotient_k1_torsion,
    size_keeping_permutations,
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
    """A complex as rows (k, h, alpha rows, beta rows)."""
    return c.k, c.h, c.alpha.entries, c.beta.entries


def census_candidates(bounds):
    """Every candidate within bounds, one per orbit, in census order: the
    fibres of every key orbit, odd or not, deduplicated by their order keys
    and sorted by them, each as rows (k, h, alpha rows, beta rows)."""
    bounds = SearchBounds(*bounds)
    found = {_order_key(k, rows) for k, delta, pattern in _key_orbits(bounds)
             for rows in _fibre(k, delta, pattern, bounds.max_mult)}
    return [(k, *zip(*rows)) for _, k, _, rows in sorted(found)]


def realised(k, delta, pattern):
    """A candidate with the verdict key (delta, pattern), as rows: alpha is
    delta's positive part, or 1 where delta is 0 and the pattern set, and
    beta = alpha - delta."""
    alpha = tuple(tuple(max(d, 0) + int(d == 0 and u) for d, u in zip(dr, pr))
                  for dr, pr in zip(delta, pattern))
    beta = tuple(tuple(a - d for a, d in zip(ar, dr)) for ar, dr in zip(alpha, delta))
    return k, tuple(sum(a * s for a, s in zip(ar, k)) for ar in alpha), alpha, beta


def canonical(c):
    return _canonical_key(*as_candidate(c))


def verdict_key(k, h, alpha, beta):
    """alpha - beta with the entries where alpha or beta is nonzero: all
    that odd_witnesses reads of a complex, here given as rows."""
    return (tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(alpha, beta)),
            tuple(tuple(bool(x or y) for x, y in zip(ra, rb)) for ra, rb in zip(alpha, beta)))


def as_complex(k, h, alpha, beta):
    """The complex of candidate rows, built and validated."""
    return NccwComplex(k, h, IntMatrix.from_rows(alpha, cols=len(k)),
                       IntMatrix.from_rows(beta, cols=len(k)))


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
        """The fibres of every key orbit, odd or not, deduplicated and
        sorted by the order key, give one candidate per orbit, in the order
        a seen set over every raw candidate finds them, so per (k, l) the
        same set; each is compared by its canonical form.  (2,3,2,2) has
        point sizes up to 2, so only size-keeping point permutations act."""
        ordered = [_canonical_key(*c) for c in census_candidates(bounds)]
        assert ordered == list(first_appearance_candidates(*bounds, _canonical_key))

    @pytest.mark.parametrize("bounds", [
        (3, 2, 2, 1), (3, 2, 1, 1), (2, 3, 2, 2), (3, 2, 3, 1),
        pytest.param((4, 2, 2, 1), marks=pytest.mark.slow),
        pytest.param((3, 3, 2, 1), marks=pytest.mark.slow),
    ])
    def test_pruned_generation_matches_all_images_test(self, bounds):
        """Sorted by the order key, the deduplicated fibres give the same
        rows in the same order as the orderly test against every
        size-keeping point permutation: a block's order key is the least
        row-pair tuple of its orbit, read as rows."""
        assert census_candidates(bounds) == list(all_images_orderly_candidates(*bounds))

    @pytest.mark.parametrize("bounds, total", [
        ((3, 2, 2, 1), 1_853), ((3, 2, 3, 1), 28_943), ((4, 2, 2, 1), 28_879),
        ((3, 3, 2, 1), 80_883), ((3, 2, 2, 2), 8_429),
        pytest.param((5, 2, 2, 1), 393_172, marks=pytest.mark.slow),
    ])
    def test_emission_counts(self, bounds, total):
        """The blocks the fibres of all key orbits give, one per orbit, are
        for each (point sizes k, l) as many as Burnside's lemma counts
        orbits, on a path that shares no code with the search; the totals
        are those of the pinned censuses."""
        found = Counter((k, len(h)) for k, h, *_ in census_candidates(bounds))
        orbits = burnside_orbit_counts(*bounds)
        assert found == orbits and sum(orbits.values()) == total

    @pytest.mark.parametrize("bounds, total", [
        ((3, 2, 2, 1), 164), ((4, 2, 2, 1), 1_111), ((3, 3, 2, 1), 1_794), ((3, 2, 2, 2), 786),
        pytest.param((6, 2, 2, 1), 38_331, marks=pytest.mark.slow),
    ])
    def test_key_orbits_listed_once_each(self, bounds, total):
        """The key orbits listed number, per (point sizes k, l), what
        Burnside's lemma summed over conjugacy classes counts over row
        types, and their canonical forms (brute force over row orders,
        canonical_verdict_key) are pairwise distinct: every orbit is listed,
        and once."""
        listed = list(_key_orbits(SearchBounds(*bounds)))
        assert Counter((k, len(delta)) for k, delta, _ in listed) == burnside_key_orbit_counts(*bounds)
        assert len({canonical_verdict_key(delta, pattern, k) for k, delta, pattern in listed}) == total
        assert len(listed) == total

    @pytest.mark.parametrize("bounds, keys, orbits", [((3, 2, 2), 394, 164), ((4, 2, 2), 5_058, 1_111)])
    def test_key_orbit_counts(self, bounds, keys, orbits, monkeypatch):
        """The search decides one key per listed orbit, and the verdict keys
        of the candidates (394 distinct keys at the defaults) fall into
        exactly those orbits, as Burnside's lemma counts them per (p, l).
        Each key is put in canonical form by brute force over the orders of
        its rows: for each order, its columns sorted, and the least of
        those.  The verdicts are stubbed, so no block is odd."""
        decided = []

        def deciding(delta, pattern):
            decided.append(canonical_verdict_key(delta.entries, pattern))
            return iter(())

        monkeypatch.setattr(search_module, "odd_witnesses", deciding)
        assert search_odd_blocks(*bounds) == []
        candidate_keys = {verdict_key(*c) for c in census_candidates(bounds + (1,))}
        assert len(candidate_keys) == keys
        assert len(decided) == len(set(decided)) == orbits
        assert set(decided) == {canonical_verdict_key(*key) for key in candidate_keys}
        assert (Counter(((1,) * len(c), len(c[0]) // 2) for c in decided)
                == burnside_key_orbit_counts(*bounds))

    @pytest.mark.parametrize("bounds", [(4, 2, 2, 1), (4, 2, 2, 2), (3, 3, 2, 2), (4, 3, 2, 1)])
    def test_class_summed_burnside_matches_per_permutation(self, bounds):
        """Burnside's lemma summed over one point permutation per conjugacy
        class, weighted by the class size, counts as many orbits per (k, l),
        of candidates and of verdict keys, as the sum over every size-keeping
        permutation, at point sizes 1 and 2."""
        assert (burnside_orbit_counts(*bounds)
                == burnside_orbit_counts(*bounds, group=size_keeping_permutations))
        assert (burnside_key_orbit_counts(*bounds)
                == burnside_key_orbit_counts(*bounds, group=size_keeping_permutations))

    def test_class_summed_key_orbit_totals(self):
        """Verdict keys up to relabelling with point sizes 1, l <= 2 and
        multiplicities <= 2, by the class-summed count: 164, 1,111, 6,841
        and 38,331 orbits at p <= 3, 4, 5 and 6."""
        totals = [sum(burnside_key_orbit_counts(p, 2, 2).values()) for p in (3, 4, 5, 6)]
        assert totals == [164, 1_111, 6_841, 38_331]

    @pytest.mark.parametrize("bounds", [(3, 2, 2, 1), (3, 2, 1, 1), (2, 3, 2, 2)])
    def test_candidates_are_valid_unital_complexes(self, bounds):
        """The search builds a complex only for a printed block, so fibres
        are never validated at run time: here every realisation of every key
        orbit builds a valid unital complex within its bounds, whose delta
        and pattern are the key it realises, and the key verdict_key
        builds."""
        bounds = SearchBounds(*bounds)
        for k, delta, pattern in _key_orbits(bounds):
            for rows in _fibre(k, delta, pattern, bounds.max_mult):
                A = as_complex(k, *zip(*rows))
                assert A.unital and 1 <= A.p <= bounds.max_p and 1 <= A.l <= bounds.max_l
                assert max(A.k) <= bounds.max_size
                assert max(max(row) for M in (A.alpha, A.beta) for row in M.entries) <= bounds.max_mult
                assert (delta, pattern) == (A.delta.entries, A.pattern) == verdict_key(*as_candidate(A))

    def test_complex_built_once_per_odd_block(self, monkeypatch):
        """Key orbits stay rows: a verdict passes odd_witnesses alpha - beta
        and the nonzero pattern, not a complex, so among the 164 default key
        orbits (1,853 candidates) a complex is built only for each odd
        block, once, in canonical form: 16 builds."""
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
        """The census, rebuilt without the search's reasoning (key orbits,
        fibres, order keys, torsion guard, minimal supports, boundary test):
        every orbit from the brute-force first-appearance oracle, each
        decided by fourier_motzkin_odd_witness, whose first support with K
        rows exact and not both split is the witness; a candidate with none
        is not odd.  At --max-mult 3 (318 blocks, about 30 s) it is marked
        slow and left out of the default run."""
        blocks = []
        for c in first_appearance_candidates(*bounds, _canonical_key):
            A = as_complex(*c)
            spec = fourier_motzkin_odd_witness(A)
            if spec is not None:
                blocks.append(OddBlock(A, spec))
        search = default_search if bounds == astuple(SearchBounds()) else search_odd_blocks(*bounds)
        assert census_lines(blocks) == census_lines(search)

    @pytest.mark.slow
    @pytest.mark.parametrize("bounds, candidates, orbits", [
        pytest.param((4, 2, 2, 1), 28_879, 1_111, id="max_p4"),
        pytest.param((3, 3, 2, 1), 80_883, 1_794, id="max_l3"),
        pytest.param((3, 2, 2, 2), 8_429, 786, id="max_size2"),
        pytest.param((5, 2, 2, 1), 393_172, 6_841, id="max_p5"),
    ])
    def test_census_verdicts_per_key_orbit(self, bounds, candidates, orbits):
        """The census decided once per key orbit, on a path independent of
        the search: the oracle lists every candidate grouped by its key
        orbit (key_orbit_candidates, brute force over multisets of row
        types), one candidate of each orbit is decided by
        fourier_motzkin_odd_witness, and the census's blocks are exactly the
        candidates of the odd orbits, in canonical form, in the order of
        orderly_rank (every point permutation tried).  Each printed witness
        is a Fourier-Motzkin support whose K rows pass built_rows_odd on its
        printed block."""
        by_orbit = key_orbit_candidates(*bounds, _canonical_key)
        assert (sum(map(len, by_orbit.values())), len(by_orbit)) == (candidates, orbits)
        odd = [o for o, found in by_orbit.items() if fourier_motzkin_odd_witness(as_complex(*found[0]))]
        expected = sorted((c for o in odd for c in by_orbit[o]), key=lambda c: orderly_rank(*c))
        blocks = search_odd_blocks(*bounds)
        assert [as_candidate(b.complex) for b in blocks] == expected
        for b in blocks:
            A, S = b.complex, b.witness.S
            assert nonnegative_kernel_witness(A.delta.submatrix(range(A.l), S), range(len(S)))
            assert built_rows_odd(A, b.witness)

    def test_canonical_key_once_per_odd_block(self, monkeypatch):
        """Only the printed blocks are put in canonical form: 16 calls for
        the 16 odd blocks; the realisations of the odd key orbits are told
        apart by their order keys."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _canonical_key(*args)

        monkeypatch.setattr(search_module, "_canonical_key", counted)
        assert len(search_odd_blocks()) == len(calls) == 16

    def test_supports_built_only_past_the_torsion_guard(self, monkeypatch):
        """At the default bounds 35 of the 164 key orbits have torsion in
        K_1(A/I) for some proper point subset (decided by minor gcds on a
        realisation), and only those reach all_ideal_specs.  So minimal
        supports are scanned 35 times for the key orbits and 16 more times,
        once for each odd block put in canonical form: 51.  Each scan covers
        only the points whose blocks lie inside a union T with torsion in
        coker delta[T^c, :]: it makes 108 kernel calls, its nullity call
        included, and its closure lists 81 supports, each empty union
        included.  The boundary test runs only on supports with that
        torsion: 14 times over the key orbits, and once for each odd block,
        whose first support with torsion is its witness: 30.  Each call's
        arguments lead back to a key: a printed block's by the identity of
        its delta, a key orbit's by its rows."""
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

        def counted_specs(delta, pattern, minimal_supports=None):
            built.append((delta, pattern))
            specs = all_ideal_specs(delta, pattern, minimal_supports)
            listed.extend(spec.S for spec in specs)
            return specs

        def counted_boundary(delta, spec):
            tested.append((delta, spec))
            return _boundary_vanishes(delta, spec)

        nccw_kernel = nccw.kernel
        by_key = {(delta, pattern): realised(k, delta, pattern)
                  for k, delta, pattern in _key_orbits(SearchBounds())}
        guarded = [key for key, c in by_key.items() if past_guard(*c)]
        assert (len(by_key), len(guarded)) == (164, 35)
        monkeypatch.setattr(nccw, "all_ideal_specs", counted_specs)
        monkeypatch.setattr(nccw, "_minimal_supports", counted_minimal)
        monkeypatch.setattr(nccw, "kernel", counted_kernel)
        monkeypatch.setattr(nccw, "_boundary_vanishes", counted_boundary)
        blocks = search_odd_blocks()
        assert len(blocks) == 16
        assert len(built) == len(minimal) == 51
        assert (len(kernels), len(listed)) == (108, 81)
        printed = {id(b.complex.delta): as_candidate(b.complex) for b in blocks}
        candidate = {id(delta): printed.get(id(delta)) or by_key[delta.entries, pattern]
                     for delta, pattern in built}
        decided = [(delta.entries, pattern) for delta, pattern in built if id(delta) not in printed]
        assert decided == guarded
        assert all(past_guard(*c) for c in candidate.values())
        assert len(tested) == 30
        assert sum(id(delta) in printed for delta, _ in tested) == 16
        assert all(quotient_k1_torsion(*candidate[id(delta)][2:], spec.S) for delta, spec in tested)

    def test_odd_witnesses_once_per_key_and_odd_block(self, monkeypatch):
        """odd_witnesses runs once per key orbit, 164 of them at the
        defaults, and once more per odd block, on its canonical form: 180
        runs (410 when every distinct key of the 1,853 candidates was
        decided).  The key-orbit runs are given pairwise inequivalent keys,
        whose canonical forms are exactly those of the keys verdict_key
        builds from the orderly oracle's candidates, which share no code
        with the search: a key orbit missed or decided twice would differ."""
        keys = {canonical_verdict_key(*verdict_key(*c))
                for c in all_images_orderly_candidates(*astuple(SearchBounds()))}
        runs = []

        def counted(delta, pattern):
            runs.append((delta, pattern))
            return odd_witnesses(delta, pattern)

        monkeypatch.setattr(search_module, "odd_witnesses", counted)
        blocks = search_odd_blocks()
        assert (len(keys), len(blocks)) == (164, 16)
        assert len(runs) == len(keys) + len(blocks) == 180
        printed = {id(b.complex.delta) for b in blocks}
        decided = [canonical_verdict_key(delta.entries, pattern) for delta, pattern in runs
                   if id(delta) not in printed]
        assert len(decided) == len(set(decided)) == 164
        assert set(decided) == keys

    def test_guard_memo_builds_one_group_per_row_tuple(self, monkeypatch, default_search):
        """The torsion guard of odd_witnesses builds coker delta[T^c, :] once
        per distinct tuple of delta's rows outside T, over every union T of
        the points' adjacent blocks, for the default key orbits and their
        odd blocks' canonical forms; it returns that group when it has
        torsion and None otherwise, and a search on the warm cache prints
        the same census."""
        def unions(pattern):
            p = len(pattern[0]) if pattern else 0
            adjacent = [frozenset(i for i, row in enumerate(pattern) if row[j]) for j in range(p)]
            return {frozenset().union(*(adjacent[j] for j in J))
                    for r in range(1, p + 1) for J in combinations(range(p), r)}

        keys = ({(delta, pattern) for _, delta, pattern in _key_orbits(SearchBounds())}
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
        assert len(built) == len(set(built)) == len(set(outside.values())) == 23
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
        with subprocess.Popen([sys.executable, "-m", "nccwk", *argv], env=cli_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
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

    @pytest.mark.slow
    def test_search_max_p6_bytes(self):
        """The --max-p 6 census, 4,208 blocks, pinned by the sha256 of its
        whole stdout (search_max_p6.sha256, whose prefix was recorded when
        the census was generated by the orderly test on row pairs)."""
        code, out, _ = run_cli("search", "--max-p", "6")
        assert code == 0
        assert out.startswith("odd blocks with p <= 6, l <= 2, multiplicities <= 2, point sizes <= 1: 4208\n")
        pinned = (DATA / "search_max_p6.sha256").read_text().split()[0]
        assert hashlib.sha256(out.encode()).hexdigest() == pinned

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
