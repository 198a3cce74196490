"""Exhaustive census of small odd blocks.

Enumerates unital complexes within the given bounds (point count, interval
count, multiplicity, point block size; interval sizes are forced by
unitality), deduplicates up to permuting point and interval blocks, and
keeps those classified odd.  Every reported witness is re-verified on a
path independent of the search for exactness as well as purity: its K
rows are built and decided by is_exact and the splitting-system solve,
not by the boundary test and isomorphism type that found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Optional

from ..fgab.intmat import IntMatrix
from ..fgab.groups import _splits, is_exact
from ..nccw import CompactIdealSpec, NccwComplex, ideal_row_verdicts, k_sequences


@dataclass(frozen=True)
class SearchBounds:
    max_p: int = 3
    max_l: int = 2
    max_mult: int = 2
    max_size: int = 1

    def __str__(self):
        return (f"p <= {self.max_p}, l <= {self.max_l}, "
                f"multiplicities <= {self.max_mult}, point sizes <= {self.max_size}")


@dataclass(frozen=True)
class OddBlock:
    complex: NccwComplex
    witness: CompactIdealSpec


def _canonical_key(k, h, alpha_rows, beta_rows):
    """Canonical form under simultaneous permutation of point blocks and of
    interval blocks (rows permuted brute force, columns sorted per row order)."""
    from itertools import permutations

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


def _enumerate_unital(bounds: SearchBounds):
    """All unital complexes within bounds, deduplicated up to block permutation."""
    seen = set()
    for p in range(1, bounds.max_p + 1):
        size_choices = list(combinations_with_replacement(range(1, bounds.max_size + 1), p))
        row_choices = list(product(range(bounds.max_mult + 1), repeat=p))
        for k in size_choices:
            # group candidate rows by weighted sum; alpha and beta rows must agree
            by_sum = {}
            for row in row_choices:
                s = sum(m * kk for m, kk in zip(row, k))
                if s > 0:
                    by_sum.setdefault(s, []).append(row)
            pairs = [(ra, rb, s) for s, rows in sorted(by_sum.items())
                     for ra in rows for rb in rows]
            for l in range(1, bounds.max_l + 1):
                for combo in combinations_with_replacement(pairs, l):
                    alpha_rows = [c[0] for c in combo]
                    beta_rows = [c[1] for c in combo]
                    h = tuple(c[2] for c in combo)
                    key = _canonical_key(k, h, alpha_rows, beta_rows)
                    if key in seen:
                        continue
                    seen.add(key)
                    kk, hh, aa, bb = key
                    yield NccwComplex(kk, hh,
                                      IntMatrix.from_rows(aa, cols=p),
                                      IntMatrix.from_rows(bb, cols=p))


def reverify_odd_witness(A: NccwComplex, spec: CompactIdealSpec) -> bool:
    """Second-opinion check of an odd witness: both built K rows are exact
    and not both split, with splitting decided by solving the splitting
    system; the search decided neither property this way."""
    s0, s1 = k_sequences(A, spec)
    return is_exact(s0) and is_exact(s1) and not (_splits(s0) and _splits(s1))


def search_odd_blocks(max_p: int = 3, max_l: int = 2, max_mult: int = 2,
                      max_size: int = 1, jobs: int = 1):
    """All odd blocks within bounds, each with its first odd witness."""
    bounds = SearchBounds(max_p, max_l, max_mult, max_size)
    candidates = list(_enumerate_unital(bounds))
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            verdicts = pool.map(_first_odd_witness, candidates)
    else:
        verdicts = [_first_odd_witness(c) for c in candidates]
    out = []
    for cx, spec in zip(candidates, verdicts):
        if spec is None:
            continue
        if not reverify_odd_witness(cx, spec):
            raise AssertionError(f"re-verification failed for {cx} with witness {spec.S}")
        out.append(OddBlock(cx, spec))
    return out


def _first_odd_witness(A: NccwComplex) -> Optional[CompactIdealSpec]:
    """First ideal support with exact but non-pure K rows, if any."""
    return next((spec for spec, exact, pure in ideal_row_verdicts(A)
                 if exact and not pure), None)


def census_lines(blocks) -> list:
    lines = []
    for b in blocks:
        lines.append(f"odd: k={list(b.complex.k)} h={list(b.complex.h)} "
                     f"alpha={b.complex.alpha} beta={b.complex.beta} "
                     f"witness S={[j + 1 for j in b.witness.S]}")
    return lines
