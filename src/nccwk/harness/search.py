"""Exhaustive census of small odd blocks.

A candidate is a unital complex within the given bounds (point count,
interval count, multiplicity, point block size; interval sizes are forced
by unitality) as rows (k, h, alpha rows, beta rows).  Whether it is odd
depends only on its verdict key, alpha - beta and where alpha or beta is
nonzero (the arguments of nccw.odd_witnesses), and not on how its points
and interval blocks are labelled.  So the search lists the keys, one per
orbit under relabelling, decides each once, and expands only the odd ones
to candidates, kept one per orbit by their order key, which is also the
print order.  An NccwComplex is built only for a printed block, once, in
canonical form, where its printed witness is taken.
odd_witnesses reads the torsion of K_1(A/I) first (K_0(A/I) is free, and
an exact row onto a free K_1(A/I) splits): a key without it for any
proper point subset gets no ideal support built, supports are listed only
among the points whose blocks lie in some T with it, and a support without
it gets no boundary test.  Every reported witness is re-verified on a path
independent of the search for exactness as well as purity: its K rows are
built and decided by is_exact and the splitting-system solve, not by the
boundary test and isomorphism type that found it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import reduce
from itertools import chain, combinations_with_replacement, permutations, product, repeat

from ..fgab.intmat import Frozen, IntMatrix, Value
from ..fgab.groups import _splits, is_exact
from ..nccw import CompactIdealSpec, NccwComplex, k_sequences, odd_witnesses


class SearchBounds(Value):
    """The census bounds, named in BOUNDS in search_odd_blocks' argument
    order; the CLI reads its options and defaults from BOUNDS.  It is a
    Value: the tests compare the CLI's bounds with the defaults."""

    BOUNDS = __slots__ = ("max_p", "max_l", "max_mult", "max_size")

    def __init__(self, max_p: int = 3, max_l: int = 2, max_mult: int = 2, max_size: int = 1):
        for name, value in zip(self.BOUNDS, (max_p, max_l, max_mult, max_size)):
            if value < 1:
                raise ValueError(f"search bound {name} must be at least 1")
            object.__setattr__(self, name, value)

    def __str__(self):
        return (f"p <= {self.max_p}, l <= {self.max_l}, "
                f"multiplicities <= {self.max_mult}, point sizes <= {self.max_size}")


DEFAULT_BOUNDS = SearchBounds()


class OddBlock(Frozen):
    __slots__ = ("complex", "witness")


def _canonical_key(k, h, alpha_rows, beta_rows):
    """Canonical form under simultaneous permutation of point blocks and of
    interval blocks (rows permuted brute force, columns sorted per row order).

    The search calls it once per printed block, to print that block in
    canonical form; the tests use it as the orbit oracle that the fibres
    are checked against."""
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


def _key_orbits(bounds: SearchBounds):
    """One verdict key per orbit under relabelling points and rows, as
    (point sizes k, rows of alpha - beta, rows of where alpha or beta is
    nonzero), k non-decreasing.

    A point is a column: its size and per row an entry (delta, set), one of
    (0, unset), (0, set) and (d, set) for 0 < |d| <= max_mult.  Up to
    relabelling the points a key is a multiset of p columns (Kerber,
    Applied Finite Group Actions, 1999), here a non-decreasing tuple of
    column indices, so no point permutation is tried.  The last column is
    solved for, so that every row has sum_j delta_ij k_j = 0, among the
    columns from the previous one on.  A tuple is kept if every row has a
    set entry and no row order maps it to a smaller sorted tuple."""
    m, sizes = bounds.max_mult, range(1, bounds.max_size + 1)
    entries = [(0, False), (0, True), *((d, True) for d in range(-m, m + 1) if d)]
    for l in range(1, bounds.max_l + 1):
        columns = [(s, *e) for s in sizes for e in product(entries, repeat=l)]
        index = {c: j for j, c in enumerate(columns)}
        reordered = [[index[(c[0], *map(c[1:].__getitem__, order))] for c in columns].__getitem__
                     for order in permutations(range(l))][1:]
        size = [c[0] for c in columns]
        deltas = [tuple(d for d, _ in c[1:]) for c in columns]
        patterns = [tuple(u for _, u in c[1:]) for c in columns]
        masks = [sum(u << i for i, u in enumerate(c)) for c in patterns]
        weighted = [tuple(d * s for d in c) for s, c in zip(size, deltas)]
        solving = {}  # row sums -> the columns that cancel them, in index order
        for j, w in enumerate(weighted):
            solving.setdefault(tuple(map(operator.neg, w)), []).append(j)
        zero, full = (0,) * l, (1 << l) - 1
        # map and reduce keep each tuple's work in C calls, no Python frame per column
        for p in range(1, bounds.max_p + 1):
            for head in combinations_with_replacement(range(len(columns)), p - 1):
                lasts = solving.get(tuple(map(sum, zip(zero, *map(weighted.__getitem__, head)))), ())
                for last in lasts[bisect_left(lasts, head[-1]) if head else 0:]:
                    key = [*head, last]
                    if (reduce(operator.or_, map(masks.__getitem__, key)) == full and
                            not any(map(key.__gt__, map(sorted, map(map, reordered, repeat(key)))))):
                        yield (tuple(map(size.__getitem__, key)), tuple(zip(*map(deltas.__getitem__, key))),
                               tuple(zip(*map(patterns.__getitem__, key))))


def _fibre(k, delta, pattern, max_mult):
    """Every candidate with the key (k, delta, pattern), as rows (h_i,
    alpha_i, beta_i), some relabellings of others.  Each entry is realised
    on its own: delta > 0, beta in [0, m - delta], alpha = beta + delta;
    delta < 0, alpha in [0, m + delta], beta = alpha - delta; delta = 0 and
    set, alpha = beta in [1, m]; otherwise both 0.  Each is unital, since
    every row of delta has weighted sum 0 and a set entry."""
    m = max_mult
    realised = {(0, False): [(0, 0)], (0, True): [(v, v) for v in range(1, m + 1)]}
    for d in range(1, m + 1):
        realised[d, True] = [(b + d, b) for b in range(m - d + 1)]
        realised[-d, True] = [(a, a + d) for a in range(m - d + 1)]

    def rows(delta_row, pattern_row):
        for pairs in product(*map(realised.__getitem__, zip(delta_row, pattern_row))):
            a, b = zip(*pairs)
            yield sum(map(operator.mul, a, k)), a, b

    return product(*map(rows, delta, pattern))


def _order_key(k, rows):
    """(p, k, l, the least tuple of rows (h_i, alpha_i, beta_i) over the row
    orders and the size-keeping point orders): the block's place in the
    census, equal for two blocks iff one relabels the other.  For one row
    order, sorting the points by (size, alpha and beta entries of the first
    row, of the second, ...) makes its rows least, so l! sorts stand in
    for the p! point orders."""
    first, ends = operator.itemgetter(0), operator.itemgetter(1, 2)

    def arranged(order):
        t = tuple(zip(*sorted(zip(k, *chain.from_iterable(map(ends, order))))))
        return tuple(zip(map(first, order), t[1::2], t[2::2]))

    return len(k), k, len(rows), min(map(arranged, permutations(rows)))


def reverify_odd_witness(A: NccwComplex, spec: CompactIdealSpec) -> bool:
    """Second-opinion check of an odd witness: both built K rows are exact
    and not both split, with splitting decided by solving the splitting
    system; the search decided neither property this way."""
    s0, s1 = k_sequences(A.delta, spec)
    return is_exact(s0) and is_exact(s1) and not (_splits(s0) and _splits(s1))


def search_odd_blocks(max_p: int = DEFAULT_BOUNDS.max_p, max_l: int = DEFAULT_BOUNDS.max_l,
                      max_mult: int = DEFAULT_BOUNDS.max_mult,
                      max_size: int = DEFAULT_BOUNDS.max_size):
    """All odd blocks within bounds, each in canonical form with its first
    odd witness, re-verified, in the order of their order keys.

    Each key orbit is decided once, and only an odd one's fibre is
    expanded; its realisations are deduplicated by their order keys.  The
    witness is taken on the canonical form, since the order of
    all_ideal_specs, and so the first witness, depends on the order of the
    points."""
    found, out = set(), []
    for k, delta, pattern in _key_orbits(SearchBounds(max_p, max_l, max_mult, max_size)):
        if next(odd_witnesses(IntMatrix(len(delta), len(k), delta), pattern), None) is not None:
            found.update(map(_order_key, repeat(k), _fibre(k, delta, pattern, max_mult)))
    for _, k, _, rows in sorted(found):
        k, h, a, b = _canonical_key(k, *zip(*rows))
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
