"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's own code paths: invariant factors
via gcds of minors and via plain elementary reduction without transform
tracking (modulo the determinant when it is nonzero), determinants by
fraction-free elimination, inverses of unimodular matrices as adjugates
of those determinants, purity via the raw divisibility definition,
tensor/Tor via the classification of finitely generated abelian groups,
characteristic polynomials by cofactor expansion, integer roots by
scanning divisors, nonnegative kernel vectors by Fourier-Motzkin
elimination, search candidates by brute-force first appearance, by
the orderly test against every point permutation and by key orbit
(every multiset of row types, expanded to every choice of row pairs),
their place in the census by every point permutation, their number and
the number of their verdict keys up to relabelling by Burnside's lemma
(over every size-keeping permutation, or one per conjugacy class), a
verdict key's canonical form by brute force over its row orders, and
the torsion of a quotient's K_1 by gcds of minors.

Three references do call the library: full_path_odd_witnesses, the odd
witnesses filtered from every valid support, against which the listing of
supports among the torsion points alone is checked; and built_rows_odd
and fourier_motzkin_odd_witness, which decide a support on K rows built
by k_sequences with is_exact and the splitting-system solve, not by the
search's boundary test and isomorphism type.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, permutations, product
from math import factorial, gcd


def minor_gcd_invariant_factors(rows):
    """d_k = gcd(k-minors) / gcd((k-1)-minors); zero once minors vanish.

    Zero rows and columns, sets of dependent rows, and k above the
    rational rank carry no nonzero minor and are skipped.  The scan over the
    k-minors stops once their gcd reaches D_{k-1} * d_{k-1}, the least
    value the chain d_{k-1} | d_k allows.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    live_rows = [i for i in range(m) if any(rows[i])]
    live_cols = [j for j in range(n) if any(row[j] for row in rows)]
    rank = rational_rank(rows)
    prev, last = 1, 1
    out = []
    for k in range(1, rank + 1):
        floor = prev * last
        g = 0
        for ri in combinations(live_rows, k):
            if rational_rank([rows[i] for i in ri]) < k:
                continue  # dependent rows: every minor on them vanishes
            for ci in combinations(live_cols, k):
                g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
                if g == floor:
                    break
            if g == floor:
                break
        last = g // prev
        out.append(last)
        prev = g
    return tuple(out) + (0,) * (min(m, n) - rank)


def quotient_k1_torsion(alpha, beta, S):
    """Invariant factors > 1 of coker delta[T^c, S^c], where delta is
    alpha - beta (lists of rows) and T the rows nonzero in alpha or beta on
    the points S: the torsion of K_1 of the quotient by the ideal over S."""
    p = len(alpha[0])
    rows = [tuple(a[j] - b[j] for j in range(p) if j not in S)
            for a, b in zip(alpha, beta) if not any(a[j] or b[j] for j in S)]
    return tuple(d for d in minor_gcd_invariant_factors(rows) if d > 1)


def _det(sq):
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in sq]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            a[i] = [(x * a[k][k] - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * prev


def invert_unimodular(P):
    """P^-1 for a square integer matrix P with det P = +-1, as det(P) * adj(P),
    every cofactor a Bareiss determinant; a matrix of P's type.  P is any
    matrix with row tuples `entries` and sizes `rows` and `cols`.  Raises
    ValueError for any other P."""
    n = P.rows
    a = [list(row) for row in P.entries]
    e = _det(a) if P.cols == n else 0
    if e not in (1, -1):
        raise ValueError("matrix is not invertible over the integers")

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i]
        return (-1) ** (i + j) * _det(minor)

    # (P^-1)[i][j] = e * C[j][i], since 1/e = e
    return type(P)(n, n, tuple(tuple(e * cofactor(j, i) for j in range(n)) for i in range(n)))


def reduction_invariant_factors(rows):
    """Elementary row/column reduction to diagonal form, no transforms.

    Each step moves an entry of least magnitude to the pivot and clears its
    row and column by floor-division remainders; a nonzero remainder is
    smaller than the pivot and becomes the new one.  A nonsingular square
    matrix is reduced modulo d = |det A|: d*Z^n lies in the column lattice
    of A, so adding multiples of d to an entry keeps the invariant
    factors, and a diagonal entry x stands for gcd(x, d).
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    d = abs(_det(rows)) if nrows == ncols and nrows else 0

    def red(x):
        return x % d if d else x

    m = [[red(x) for x in r] for r in rows]
    diag = []
    for t in range(min(nrows, ncols)):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        dirty = True
        while dirty:
            dirty = False
            p = m[t][t]
            for i in range(t + 1, nrows):
                q = m[i][t] // p
                if q:
                    m[i] = [red(a - q * b) for a, b in zip(m[i], m[t])]
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                q = m[t][j] // p
                if q:
                    for row in m:
                        row[j] = red(row[j] - q * row[t])
                if m[t][j] != 0:
                    for row in m:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
                    break
        diag.append(abs(m[t][t]))
    diag += [0] * (min(nrows, ncols) - len(diag))
    if d:
        diag = [gcd(x, d) for x in diag]
    # repair divisibility with gcd/lcm swaps on the diagonal
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            l = 0 if g == 0 else a * b // g
            diag[i], diag[j] = g, l
    return tuple(diag)


def cyclic_normal_form(factors):
    """Torsion coefficients > 1 plus free rank, a complete isomorphism invariant."""
    torsion = tuple(d for d in factors if d > 1)
    free = sum(1 for d in factors if d == 0)
    return free, torsion


def tensor_with_zn_oracle(factors, n):
    """Invariant factors of G (x) Z_n from the cyclic decomposition of G."""
    if n == 0:
        return tuple(factors)
    out = []
    for d in factors:
        out.append(gcd(d, n) if d != 0 else n)
    return tuple(out)


def tor_with_zn_oracle(factors, n):
    if n == 0:
        return ()
    return tuple(gcd(d, n) for d in factors if d != 0)


def purity_bruteforce(inj_matrix, source_moduli, target_moduli, n_max, box=6):
    """Literal purity test: for n <= n_max and k in the source,
    n | inj(k) in G must imply n | k in K.

    Groups are given in diagonal form: moduli lists with 0 meaning a Z
    summand; free coordinates of k range over [-box, box].
    """
    ranges = []
    for d in source_moduli:
        ranges.append(range(d) if d > 0 else range(-box, box + 1))
    for k in product(*ranges):
        img = _apply(inj_matrix, k)
        for n in range(1, n_max + 1):
            if _divisible(img, n, target_moduli) and not _divisible(k, n, source_moduli):
                return False
    return True


def _apply(matrix, vec):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in matrix)


def _divisible(vec, n, moduli):
    """Is vec in n * (prod Z_{d_i}) for the diagonal group with these moduli?"""
    for x, d in zip(vec, moduli):
        if d == 0:
            if x % n != 0:
                return False
        else:
            # n*y = x mod d solvable iff gcd(n, d) | x
            if x % gcd(n, d) != 0:
                return False
    return True


def rational_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def cofactor_char_poly(rows):
    """det(xI - M) as ascending coefficient list, by cofactor expansion
    along the first row: r! terms."""
    r = len(rows)
    entries = [[([-rows[i][j]] if i != j else [-rows[i][j], 1]) for j in range(r)]
               for i in range(r)]

    def pdet(rows_idx, cols_idx):
        if not rows_idx:
            return [1]
        i = rows_idx[0]
        total = [0]
        for pos, j in enumerate(cols_idx):
            term = _poly_mul(entries[i][j], pdet(rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1:]))
            total = _poly_add(total, term if pos % 2 == 0 else [-c for c in term])
        return total

    return pdet(tuple(range(r)), tuple(range(r)))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def divisor_scan_integer_roots(poly):
    """Distinct integer roots of an ascending poly, sorted (-|v|, v): 0 when
    the constant term vanishes, else every divisor +-d of the lowest
    nonzero coefficient is tried."""
    low = next(c for c in poly if c != 0)
    cands = {0} if poly[0] == 0 else set()
    for d in range(1, abs(low) + 1):
        if low % d == 0:
            cands.update((d, -d))
    roots = [lam for lam in cands if sum(c * lam ** i for i, c in enumerate(poly)) == 0]
    return sorted(roots, key=lambda v: (-abs(v), v))


def nonnegative_kernel_witness(A, strict_rows):
    """An integer v >= 0 with A v = 0 and v[j] >= 1 for every j in strict_rows,
    or None.  A is any matrix with row tuples `entries` and a column count
    `cols`, such as an IntMatrix.

    Decided exactly by Fourier-Motzkin elimination on the coordinates of v
    (each row of A v = 0 as two inequalities); a rational solution scales to
    an integer one because the constraint cone is invariant under positive
    dilation.
    """
    cols = A.cols
    strict = set(strict_rows)
    if not strict:
        return tuple(0 for _ in range(cols))
    cons = []
    for row in A.entries:
        for sign in (1, -1):
            cons.append((tuple(Fraction(sign * x) for x in row), Fraction(0)))
    for j in range(cols):
        unit = tuple(Fraction(int(i == j)) for i in range(cols))
        cons.append((unit, Fraction(1) if j in strict else Fraction(0)))
    sol = _fourier_motzkin(cons, cols)
    if sol is None:
        return None
    lcm = 1
    for c in sol:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    v = tuple(int(c * lcm) for c in sol)
    assert all(x >= 0 for x in v) and all(v[j] >= 1 for j in strict)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A.entries)
    return v


def _fourier_motzkin(cons, nvars):
    """Feasible rational point for constraints (coeffs . c >= rhs), or None."""
    if nvars == 0:
        return () if all(rhs <= 0 for _, rhs in cons) else None
    k = nvars - 1
    lower, upper, rest = [], [], []
    for coeffs, rhs in cons:
        a = coeffs[k]
        head = coeffs[:k]
        if a > 0:
            # c_k >= (rhs - head.c)/a
            lower.append((tuple(x / a for x in head), rhs / a))
        elif a < 0:
            # c_k <= (rhs - head.c)/a  (inequality flips)
            upper.append((tuple(x / a for x in head), rhs / a))
        else:
            rest.append((head, rhs))
    projected = list(rest)
    for lo_c, lo_r in lower:
        for up_c, up_r in upper:
            # need lo_bound <= up_bound: (up - lo).c >= ... rearranged below
            coeffs = tuple(lo - up for lo, up in zip(lo_c, up_c))
            projected.append((coeffs, lo_r - up_r))
    tail = _fourier_motzkin(projected, k)
    if tail is None:
        return None
    lo_val = None
    for lo_c, lo_r in lower:
        b = lo_r - sum(c * t for c, t in zip(lo_c, tail))
        lo_val = b if lo_val is None or b > lo_val else lo_val
    up_val = None
    for up_c, up_r in upper:
        b = up_r - sum(c * t for c, t in zip(up_c, tail))
        up_val = b if up_val is None or b < up_val else up_val
    if lo_val is None and up_val is None:
        ck = Fraction(0)
    elif lo_val is None:
        ck = up_val
    elif up_val is None:
        ck = lo_val
    else:
        ck = (lo_val + up_val) / 2
    return tail + (ck,)


def first_appearance_candidates(max_p, max_l, max_mult, max_size, canonical_key):
    """Canonical forms (k, h, alpha rows, beta rows) of the unital complexes
    within bounds, one per block-permutation orbit, in the order the orbits
    first appear.

    Brute force: every multiset of (alpha row, beta row) pairs is put in
    canonical form by canonical_key and kept unless that form was seen
    before.
    """
    seen = set()
    for p in range(1, max_p + 1):
        for k in combinations_with_replacement(range(1, max_size + 1), p):
            pairs = _unital_row_pairs(k, max_mult)
            for l in range(1, max_l + 1):
                for combo in combinations_with_replacement(pairs, l):
                    key = canonical_key(k, tuple(c[2] for c in combo),
                                        [c[0] for c in combo], [c[1] for c in combo])
                    if key not in seen:
                        seen.add(key)
                        yield key


def key_orbit_candidates(max_p, max_l, max_mult, max_size, canonical_key):
    """The unital complexes within bounds, one per orbit under permuting
    point and interval blocks, grouped by the orbit of their verdict key: a
    dict from each key orbit, as (k, canonical_verdict_key with the sizes
    k), to the canonical forms (canonical_key) of its complexes.

    Brute force per point sizes k and l: the row pairs of _unital_row_pairs
    are grouped by row type (row of alpha - beta, row of where alpha or beta
    is nonzero), and each multiset of l row types whose key orbit is new is
    expanded to every choice of one row pair per type, each put in
    canonical form and kept once.  A complex whose key lies in that orbit
    is a relabelling of one whose key has exactly these rows, so every
    complex of the orbit is found there."""
    out = {}
    for p in range(1, max_p + 1):
        for k in combinations_with_replacement(range(1, max_size + 1), p):
            by_type = {}
            for ra, rb, s in _unital_row_pairs(k, max_mult):
                by_type.setdefault(_row_type(ra, rb), []).append((ra, rb, s))
            for l in range(1, max_l + 1):
                for types in combinations_with_replacement(by_type, l):
                    orbit = (k, canonical_verdict_key(*zip(*types), k))
                    if orbit not in out:
                        out[orbit] = list(dict.fromkeys(
                            canonical_key(k, tuple(s for _, _, s in choice),
                                          [ra for ra, _, _ in choice], [rb for _, rb, _ in choice])
                            for choice in product(*(by_type[t] for t in types))))
    return out


def orderly_rank(k, h, alpha, beta):
    """The place of a complex in the census: (p, k, l, the least over the
    size-keeping point permutations of its rows (h_i, alpha_i, beta_i),
    sorted), the least row-pair tuple of its orbit, which
    all_images_orderly_candidates keeps.  Every permutation is tried."""
    rows = range(len(h))
    return len(k), tuple(k), len(h), min(
        tuple(sorted((h[i], tuple(alpha[i][j] for j in perm), tuple(beta[i][j] for j in perm)) for i in rows))
        for perm, _ in size_keeping_permutations(k))


def _row_type(ra, rb):
    """(row of alpha - beta, row of where alpha or beta is nonzero)."""
    return tuple(x - y for x, y in zip(ra, rb)), tuple(bool(x or y) for x, y in zip(ra, rb))


def _unital_row_pairs(k, max_mult):
    """(alpha row, beta row, interval size) triples with the same positive
    weighted sum, by sum, then alpha row, then beta row."""
    by_sum = {}
    for row in product(range(max_mult + 1), repeat=len(k)):
        s = sum(m * kk for m, kk in zip(row, k))
        if s > 0:
            by_sum.setdefault(s, []).append(row)
    return [(ra, rb, s) for s, rows in sorted(by_sum.items())
            for ra in rows for rb in rows]


def all_images_orderly_candidates(max_p, max_l, max_mult, max_size):
    """The unital complexes within bounds as (k, h, alpha rows, beta rows),
    one per orbit, by the orderly test with no pruning: a non-decreasing
    tuple of pair indices is kept iff no size-keeping point permutation
    maps it to a lexicographically smaller sorted tuple.  Every tuple is
    tested against every non-identity permutation."""
    for p in range(1, max_p + 1):
        for k in combinations_with_replacement(range(1, max_size + 1), p):
            pairs = _unital_row_pairs(k, max_mult)
            index = {(ra, rb): i for i, (ra, rb, _) in enumerate(pairs)}
            points = tuple(range(p))
            images = [tuple(index[tuple(ra[j] for j in perm), tuple(rb[j] for j in perm)]
                            for ra, rb, _ in pairs)
                      for perm in permutations(points)
                      if perm != points and all(k[j] == k[perm[j]] for j in points)]
            for l in range(1, max_l + 1):
                for combo in combinations_with_replacement(range(len(pairs)), l):
                    least = list(combo)
                    for image in images:
                        if sorted(map(image.__getitem__, combo)) < least:
                            break
                    else:
                        alpha, beta, h = zip(*map(pairs.__getitem__, combo))
                        yield k, h, alpha, beta


def size_keeping_permutations(k):
    """Every permutation of the points that keeps the sizes k, each as a class
    of its own: the reference group for the class-summed Burnside counts."""
    p = len(k)
    return [(perm, 1) for perm in permutations(range(p)) if all(k[j] == k[perm[j]] for j in range(p))]


def size_keeping_classes(k):
    """One permutation per conjugacy class of the permutations of the points
    that keep the non-decreasing sizes k, with the size of its class.  The
    group is a product of symmetric groups, one per run of equal sizes, so a
    class is a tuple of cycle types, one partition lambda of each run's
    length n; it has prod n! / z_lambda elements, z_lambda = prod over part
    sizes i of i^m_i m_i! (m_i parts of size i)."""
    runs = [len(list(run)) for _, run in groupby(k)]
    for types in product(*map(_partitions, runs)):
        perm, weight = [], 1
        for n, parts in zip(runs, types):
            for c in parts:  # one c-cycle on the next c points
                start = len(perm)
                perm += [start + (i + 1) % c for i in range(c)]
            weight *= factorial(n)
            for i in set(parts):
                weight //= i ** parts.count(i) * factorial(parts.count(i))
        yield tuple(perm), weight


def _partitions(n, most=None):
    """The partitions of n into parts of at most most, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _multiset_orbits(items, classes, max_l):
    """The number of multisets of l items up to a group of point
    permutations, for l = 0..max_l, by Burnside's lemma (Cauchy-Frobenius):
    the mean over sigma in the group of the multisets that sigma fixes.  The
    group is given as (sigma, weight) pairs, weight the number of elements
    that fix as many multisets as sigma, such as sigma's conjugacy class.  An
    item is a tuple of rows, and sigma permutes the entries of each row;
    sigma fixes as many multisets of l items as the coefficient of x^l in the
    product over the cycles c of sigma on the items of 1 / (1 - x^|c|)
    (Polya 1937)."""
    index = {item: i for i, item in enumerate(items)}
    fixed, order = [0] * (max_l + 1), 0
    for perm, weight in classes:
        image = [index[tuple(tuple(row[j] for j in perm) for row in item)] for item in items]
        series = [1] + [0] * max_l
        seen = [False] * len(items)
        for start in range(len(items)):
            if seen[start]:
                continue
            length, i = 0, start
            while not seen[i]:
                seen[i], i, length = True, image[i], length + 1
            for d in range(length, max_l + 1):  # times 1 / (1 - x^length)
                series[d] += series[d - length]
        fixed = [f + weight * x for f, x in zip(fixed, series)]
        order += weight
    assert all(f % order == 0 for f in fixed), fixed
    return [f // order for f in fixed]


def burnside_orbit_counts(max_p, max_l, max_mult, max_size, group=size_keeping_classes):
    """The number of unital complexes within bounds up to permuting point
    and interval blocks, per (point sizes k, l): the multisets of l row
    pairs up to the size-keeping point permutations (_multiset_orbits),
    summed over group(k), by default one permutation per class."""
    counts = {}
    for p in range(1, max_p + 1):
        for k in combinations_with_replacement(range(1, max_size + 1), p):
            pairs = [(ra, rb) for ra, rb, _ in _unital_row_pairs(k, max_mult)]
            orbits = _multiset_orbits(pairs, group(k), max_l)
            for l in range(1, max_l + 1):
                counts[k, l] = orbits[l]
    return counts


def burnside_key_orbit_counts(max_p, max_l, max_mult, max_size=1, group=size_keeping_classes):
    """The number of verdict keys (delta rows, nonzero-pattern rows) of the
    unital complexes within bounds, up to permuting points and rows, per
    (point sizes k, l): the multisets of l row types up to the size-keeping
    point permutations (_multiset_orbits), summed over group(k), by default
    one permutation per class.  A row type is the (row of alpha - beta, row
    of where alpha or beta is nonzero) of some row pair with entries <=
    max_mult and equal positive weighted sums."""
    counts = {}
    for p in range(1, max_p + 1):
        for k in combinations_with_replacement(range(1, max_size + 1), p):
            types = list(dict.fromkeys(_row_type(ra, rb) for ra, rb, _ in _unital_row_pairs(k, max_mult)))
            orbits = _multiset_orbits(types, group(k), max_l)
            for l in range(1, max_l + 1):
                counts[k, l] = orbits[l]
    return counts


def canonical_verdict_key(delta, pattern, k=None):
    """The canonical form of a verdict key (delta rows, nonzero-pattern rows)
    under permuting points and rows, by brute force over the orders of its
    rows: for each order, its columns (the point's size when the sizes k are
    given, then the delta entries, then the pattern entries of one point)
    sorted, and the least of those.  With k, only points of equal size are
    exchanged."""
    sizes = () if k is None else (k,)
    return min(tuple(sorted(zip(*sizes, *(delta[i] for i in order), *(pattern[i] for i in order))))
               for order in permutations(range(len(delta))))


def built_rows_odd(A, spec):
    """Whether the K rows of spec on the complex A, built by k_sequences,
    are exact and not both split, decided by is_exact and the
    splitting-system solve."""
    from nccwk.fgab.groups import _splits, is_exact
    from nccwk.nccw import k_sequences

    rows = k_sequences(A, spec)
    return all(map(is_exact, rows)) and not all(map(_splits, rows))


def fourier_motzkin_odd_witness(A):
    """The first odd witness of the complex A, found without the search's
    reasoning (torsion guard, minimal supports, boundary test): the point
    subsets S with 0 < |S| < p by size then lexicographically, S a support
    iff delta[:, S] has a kernel vector >= 1 on all of S
    (nonnegative_kernel_witness), T the interval blocks where alpha or beta
    is nonzero on S, and the first support that passes built_rows_odd;
    None if there is none."""
    from nccwk.nccw import CompactIdealSpec

    for S in (S for r in range(1, A.p) for S in combinations(range(A.p), r)):
        if nonnegative_kernel_witness(A.delta.submatrix(range(A.l), S), range(len(S))) is None:
            continue
        T = tuple(i for i in range(A.l) if any(A.alpha[i, j] or A.beta[i, j] for j in S))
        spec = CompactIdealSpec(S, T)
        if built_rows_odd(A, spec):
            return spec
    return None


def full_path_odd_witnesses(delta, pattern):
    """The odd witnesses of (delta, pattern) from every valid support: each
    support of all_ideal_specs that is proper, has torsion in
    coker delta[T^c, :], passes the boundary test and fails is_sum_of."""
    from nccwk.fgab.groups import cokernel
    from nccwk.nccw import _boundary_vanishes, all_ideal_specs

    k1 = cokernel(delta)
    out = []
    for spec in all_ideal_specs(delta, pattern):
        k1_q = cokernel(delta.submatrix([i for i in range(delta.rows) if i not in spec.T],
                                        range(delta.cols)))
        if (0 < len(spec.S) < delta.cols and k1_q.torsion_orders and _boundary_vanishes(delta, spec)
                and not k1.is_sum_of(cokernel(delta.submatrix(spec.T, spec.S)), k1_q)):
            out.append(spec)
    return out
