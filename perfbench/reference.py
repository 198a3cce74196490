"""Reference computations kept apart from the program under test.

Nothing here imports nccwk.  Each routine is a plain, slow-but-obvious
method chosen to share no code path with the program's Smith engine:
invariant factors come from gcds of minors or from a reduction that keeps
no transforms, ranks from fraction-free elimination, and group names from
elementary divisors.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd


def matmul(A, B):
    """Plain product of two matrices given as lists of rows."""
    cols = list(zip(*B)) if B else []
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def matvec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def bareiss_rank(rows) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, nrows):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], m[rank])]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _det_small(M) -> int:
    """Determinant by cofactor expansion; only for the tiny minors below."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det_small([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(n) if M[0][j] != 0)


def invariant_factors_by_minors(rows, ncols: int):
    """Invariant factors d_k = D_k / D_(k-1), with D_k the gcd of all k x k
    minors.  Exponential in size: for the small matrices of complexes."""
    nrows = len(rows)
    out = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                g = gcd(g, _det_small([[rows[i][j] for j in ci] for i in ri]))
                if g == prev:
                    break
            if g == prev:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out  # nonzero factors only, in divisibility order


def invariant_factors_by_reduction(rows, ncols: int):
    """Nonzero invariant factors by elimination on the matrix alone (no
    transforms kept), then gcd/lcm repair of the diagonal."""
    m = [list(r) for r in rows]
    nrows = len(m)
    diag = []
    t = 0
    while t < min(nrows, ncols):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, i0, j0 = best
        m[t], m[i0] = m[i0], m[t]
        for r in m:
            r[t], r[j0] = r[j0], r[t]
        while True:
            p = m[t][t]
            moved = False
            for i in range(t + 1, nrows):
                q = m[i][t] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, ncols):
                q = m[t][j] // p
                if q:
                    for r in m:
                        r[j] -= q * r[t]
                if m[t][j] != 0:
                    for r in m:
                        r[t], r[j] = r[j], r[t]
                    moved = True
                    break
            if not moved:
                break
        diag.append(abs(m[t][t]))
        t += 1
    return _chain(diag)


def _chain(diag):
    """Invariant factors of a diagonal matrix: merge into a divisibility chain."""
    d = [x for x in diag if x != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                a, b = d[i], d[j]
                g = gcd(a, b)
                if g != a:
                    d[i], d[j] = g, a * b // g
                    changed = True
    return sorted(d)


def _prime_powers(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def radical(n: int) -> int:
    out = 1
    for p, _ in _prime_powers(abs(n)):
        out *= p
    return out


def iso_class(free_rank: int, cyclic_orders):
    """Isomorphism invariant of Z^free (+) (+) Z/d: free rank and the sorted
    elementary divisors (prime powers)."""
    elem = []
    for d in cyclic_orders:
        if d > 1:
            elem.extend(q for _, q in _prime_powers(d))
    return free_rank, tuple(sorted(elem))


def group_name(free_rank: int, cyclic_orders) -> str:
    """Name in the program's display convention: free summands first, then
    the invariant factors in divisibility order; '0' for the trivial group."""
    _, elem = iso_class(free_rank, cyclic_orders)
    by_prime = {}
    for q in elem:
        p = _prime_powers(q)[0][0]
        by_prime.setdefault(p, []).append(q)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    length = max((len(qs) for qs in by_prime.values()), default=0)
    factors = []
    for k in range(length):
        f = 1
        for qs in by_prime.values():
            if k < len(qs):
                f *= qs[k]
        factors.append(f)
    factors.sort()
    parts = ["Z"] * free_rank + [f"Z/{d}" for d in factors]
    return " (+) ".join(parts) if parts else "0"


class KGroups:
    """K_0 = ker(alpha - beta) and K_1 = coker(alpha - beta) of multiplicity
    data, from the rank and the gcds of minors of alpha - beta."""

    def __init__(self, alpha, beta, p: int):
        delta = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(alpha, beta)]
        factors = invariant_factors_by_minors(delta, p)
        rank = len(factors)
        self.k0 = (p - rank, ())
        self.k1 = (len(delta) - rank, tuple(d for d in factors if d > 1))

    def name(self, j: int) -> str:
        return group_name(*(self.k0 if j == 0 else self.k1))


def restrict(alpha, beta, rows_idx, cols_idx):
    return ([[alpha[i][j] for j in cols_idx] for i in rows_idx],
            [[beta[i][j] for j in cols_idx] for i in rows_idx])


def adjacent_blocks(alpha, beta, S):
    return tuple(i for i in range(len(alpha))
                 if any(alpha[i][j] or beta[i][j] for j in S))


def nonpure_row(alpha, beta, p: int, S) -> bool:
    """Does the ideal over the points S give a K row whose middle group is
    not isomorphic to the sum of its ends?  For an exact row of f.g. groups
    that is exactly non-splitting, i.e. non-purity (Miyata 1967)."""
    l = len(alpha)
    T = adjacent_blocks(alpha, beta, S)
    Sc = [j for j in range(p) if j not in S]
    Tc = [i for i in range(l) if i not in T]
    whole = KGroups(alpha, beta, p)
    ideal = KGroups(*restrict(alpha, beta, T, S), len(S))
    quot = KGroups(*restrict(alpha, beta, Tc, Sc), len(Sc))
    for j in (0, 1):
        mid = whole.k0 if j == 0 else whole.k1
        left = ideal.k0 if j == 0 else ideal.k1
        right = quot.k0 if j == 0 else quot.k1
        ends = (left[0] + right[0], left[1] + right[1])
        if iso_class(*mid) != iso_class(*ends):
            return True
    return False


def block_key(k, h, alpha, beta):
    """Canonical key of a complex under permuting point blocks and interval
    blocks, by brute force over both permutation groups."""
    p, l = len(k), len(h)
    best = None
    for rp in permutations(range(l)):
        for cp in permutations(range(p)):
            key = (tuple(k[j] for j in cp), tuple(h[i] for i in rp),
                   tuple(tuple(alpha[i][j] for j in cp) for i in rp),
                   tuple(tuple(beta[i][j] for j in cp) for i in rp))
            if best is None or key < best:
                best = key
    return best


def mod_n_groups(k0, k1, n: int):
    """Universal-coefficient groups K_i(;Z_n) = K_i (x) Z_n (+) Tor(K_(i+1), Z_n)
    for K-groups given as (free rank, cyclic orders)."""
    def tensor(G):
        free, tors = G
        return [n] * free + [gcd(d, n) for d in tors]

    def tor(G):
        return [gcd(d, n) for d in G[1]]

    return (group_name(0, tensor(k0) + tor(k1)), group_name(0, tensor(k1) + tor(k0)))


def mat_power_apply(M, v, s: int):
    for _ in range(s):
        v = matvec(M, v)
    return v
