"""Exhaustive census of small odd blocks.

Generates unital complexes within the given bounds (point count, interval
count, multiplicity, point block size; interval sizes are forced by
unitality) as rows (k, h, alpha rows, beta rows), one per orbit under
permuting point and interval blocks, by an orderly test pruned by prefix
(McKay 1998) that keeps no set of the orbits seen.
Whether a candidate is odd depends only on alpha - beta and on which
entries of alpha or beta are nonzero, the arguments of nccw.odd_witnesses;
a verdict memo on their rows lives for one call of search_odd_blocks.
Each (alpha row, beta row) gets its two rows computed once per call, and
the memo key is assembled from them.  An NccwComplex is built only for an
odd candidate, once, in canonical form, where its printed witness is taken.
odd_witnesses reads the torsion of K_1(A/I) first (K_0(A/I) is free, and
an exact row onto a free K_1(A/I) splits): a candidate without it for any
proper point subset gets no ideal support built, supports are listed only
among the points whose blocks lie in some T with it, and a support without
it gets no boundary test.  Every reported witness is re-verified on a path
independent of the search for exactness as well as purity: its K rows are
built and decided by is_exact and the splitting-system solve, not by the
boundary test and isomorphism type that found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from ..fgab.intmat import IntMatrix
from ..fgab.groups import _splits, is_exact
from ..nccw import CompactIdealSpec, NccwComplex, k_sequences, odd_witnesses


@dataclass(frozen=True)
class SearchBounds:
    max_p: int = 3
    max_l: int = 2
    max_mult: int = 2
    max_size: int = 1

    def __post_init__(self):
        for name in ("max_p", "max_l", "max_mult", "max_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"search bound {name} must be at least 1")

    def __str__(self):
        return (f"p <= {self.max_p}, l <= {self.max_l}, "
                f"multiplicities <= {self.max_mult}, point sizes <= {self.max_size}")


@dataclass(frozen=True)
class OddBlock:
    complex: NccwComplex
    witness: CompactIdealSpec


def _canonical_key(k, h, alpha_rows, beta_rows):
    """Canonical form under simultaneous permutation of point blocks and of
    interval blocks (rows permuted brute force, columns sorted per row order).

    The search calls it once per odd block, to print that block in
    canonical form; the tests use it as the orbit oracle that the orderly
    generation is checked against."""
    l = len(h)
    best = None
    for perm in permutations(range(l)):
        a = [alpha_rows[i] for i in perm]
        b = [beta_rows[i] for i in perm]
        hh = [h[i] for i in perm]
        cols = sorted(range(len(k)),
                      key=lambda j: (k[j], tuple(a[i][j] for i in range(l)),
                                     tuple(b[i][j] for i in range(l))))
        key = (tuple(k[j] for j in cols), tuple(hh),
               tuple(tuple(a[i][j] for j in cols) for i in range(l)),
               tuple(tuple(b[i][j] for j in cols) for i in range(l)))
        if best is None or key < best:
            best = key
    return best


def _row_pairs(k, max_mult):
    """The (alpha row, beta row, interval size) triples of a unital complex
    with point sizes k: both rows have the same positive weighted sum."""
    by_sum = {}
    for row in product(range(max_mult + 1), repeat=len(k)):
        s = sum(m * kk for m, kk in zip(row, k))
        if s > 0:
            by_sum.setdefault(s, []).append(row)
    return [(ra, rb, s) for s, rows in sorted(by_sum.items())
            for ra in rows for rb in rows]


def _pair_images(k, pairs):
    """For every permutation of the points other than the identity that keeps
    the sizes k, the index of the image of each pair.  Such a permutation
    keeps weighted row sums, so it maps pairs to pairs."""
    rows = {ra: r for r, ra in enumerate(dict.fromkeys(ra for ra, _, _ in pairs))}
    index = {(rows[ra], rows[rb]): i for i, (ra, rb, _) in enumerate(pairs)}
    points = tuple(range(len(k)))
    images = []
    for perm in permutations(points):
        if perm == points or any(k[j] != k[perm[j]] for j in points):
            continue
        moved = [rows[tuple(map(row.__getitem__, perm))] for row in rows]
        images.append(tuple(index[moved[a], moved[b]] for a, b in index))
    return images


def _enumerate_unital(bounds: SearchBounds):
    """All unital complexes within bounds, one per orbit under permuting
    point blocks and interval blocks, each as rows (k, h, alpha, beta) in the
    form it is generated in (point sizes non-decreasing, rows in pair order).

    For point sizes k (non-decreasing) a candidate is a multiset of l row
    pairs, listed as a non-decreasing tuple of pair indices; permuting the
    interval blocks leaves that tuple as it is, and a permutation of the
    points that keeps k maps it to the re-sorted tuple of the images of its
    pairs.  The generation is orderly (Read, "Every one a winner", 1978): a
    tuple is emitted iff none of its images is lexicographically smaller, so
    each orbit is emitted once, where combinations_with_replacement first
    reaches it, and no record of the orbits already emitted is kept.
    The test is pruned by prefix (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998): an image sending an entry below the
    first entry f sorts below the tuple, so every entry j needs low[j] >= f,
    low[j] the least image of pair j; an image sending no entry onto f sorts
    above it, so only images onto f are tested.  Same tuples, same order.
    """
    for p in range(1, bounds.max_p + 1):
        for k in combinations_with_replacement(range(1, bounds.max_size + 1), p):
            pairs = _row_pairs(k, bounds.max_mult)
            images = _pair_images(k, pairs)
            n = len(pairs)
            low = [min((image[j] for image in images), default=j) for j in range(n)]
            inverses = [sorted(range(n), key=image.__getitem__) for image in images]
            firsts = []
            for f in (f for f in range(n) if low[f] >= f):
                onto = {j: [] for j in range(f, n) if low[j] >= f}
                for image, inverse in zip(images, inverses):
                    onto.get(inverse[f], []).append(image)
                firsts.append((f, onto))
            for l in range(1, bounds.max_l + 1):
                for f, onto in firsts:
                    for rest in combinations_with_replacement(onto, l - 1):
                        combo = (f, *rest)
                        least = list(combo)
                        if not any(sorted(map(image.__getitem__, combo)) < least
                                   for j in set(combo) for image in onto[j]):
                            alpha, beta, h = zip(*map(pairs.__getitem__, combo))
                            yield k, h, alpha, beta


class _KeyRows(dict):
    """(alpha row, beta row) -> (its row of alpha - beta, its row of the
    nonzero pattern of alpha or beta), each computed on its first lookup."""

    def __missing__(self, pair):
        ra, rb = pair
        rows = self[pair] = (tuple(x - y for x, y in zip(ra, rb)),
                             tuple(bool(x or y) for x, y in zip(ra, rb)))
        return rows


def reverify_odd_witness(A: NccwComplex, spec: CompactIdealSpec) -> bool:
    """Second-opinion check of an odd witness: both built K rows are exact
    and not both split, with splitting decided by solving the splitting
    system; the search decided neither property this way."""
    s0, s1 = k_sequences(A, spec)
    return is_exact(s0) and is_exact(s1) and not (_splits(s0) and _splits(s1))


def search_odd_blocks(max_p: int = SearchBounds.max_p, max_l: int = SearchBounds.max_l,
                      max_mult: int = SearchBounds.max_mult,
                      max_size: int = SearchBounds.max_size):
    """All odd blocks within bounds, each in canonical form with its first
    odd witness, re-verified.

    verdicts, a memo that lives for this call, holds whether a candidate is
    odd per rows of (alpha - beta, nonzero pattern of alpha or beta), the
    arguments of odd_witnesses, made a matrix only on a miss.  Its key is
    assembled from rows, a second memo for this call that maps each
    (alpha row, beta row) to its rows of the two, so a row pair seen before
    costs one lookup.  The witness is taken on the canonical form, since the
    order of all_ideal_specs, and so the first witness, depends on the order
    of the points."""
    rows, verdicts, out = _KeyRows(), {}, []
    for k, h, a, b in _enumerate_unital(SearchBounds(max_p, max_l, max_mult, max_size)):
        key = tuple(zip(*map(rows.__getitem__, zip(a, b))))
        odd = verdicts.get(key)
        if odd is None:
            delta = IntMatrix(len(h), len(k), key[0])
            odd = verdicts[key] = next(odd_witnesses(delta, key[1]), None) is not None
        if not odd:
            continue
        k, h, a, b = _canonical_key(k, h, a, b)
        B = NccwComplex(k, h, IntMatrix.from_rows(a), IntMatrix.from_rows(b))
        spec = next(odd_witnesses(B.delta, B.pattern))
        if not reverify_odd_witness(B, spec):
            raise AssertionError(f"re-verification failed for {B} with witness {spec.S}")
        out.append(OddBlock(B, spec))
    return out


def census_lines(blocks) -> list:
    return [f"odd: k={list(b.complex.k)} h={list(b.complex.h)} "
            f"alpha={b.complex.alpha} beta={b.complex.beta} "
            f"witness S={[j + 1 for j in b.witness.S]}" for b in blocks]
