"""Independent oracles and generators shared by the test modules.

Nothing here imports the code paths it is used to check: the Witt formula
is closed-form number theory, and the random generators only build raw
input data.
"""

from math import gcd

from kahlercheck.presentation import free_reduce


def moebius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt(num_gens, n):
    """Rank of the degree-n part of the free Lie algebra on num_gens
    generators: (1/n) * sum over e | n of mu(e) * g^(n/e)."""
    total = 0
    for e in range(1, n + 1):
        if n % e == 0:
            total += moebius(e) * num_gens ** (n // e)
    assert total % n == 0
    return total // n


def random_word(rng, num_gens, length):
    letters = [(rng.randrange(num_gens), rng.choice((1, -1)))
               for _ in range(length)]
    return free_reduce(letters)


def random_nonempty_word(rng, num_gens, max_length):
    while True:
        w = random_word(rng, num_gens, rng.randint(1, max_length))
        if not w.is_identity():
            return w


def brute_force_snf_invariants(rows):
    """Invariant factors from gcds of k x k minors (valid for small
    matrices): d_1...d_k = gcd of all k x k minors."""
    from itertools import combinations
    if not rows or not rows[0]:
        return []
    nr, nc = len(rows), len(rows[0])
    size = min(nr, nc)
    minor_gcds = []
    for k in range(1, size + 1):
        g = 0
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, _det(sub))
        minor_gcds.append(abs(g))
    invariants = []
    prev = 1
    for g in minor_gcds:
        if g == 0 or prev == 0:
            invariants.append(0)
            prev = 0
        else:
            invariants.append(g // prev)
            prev = g
    return invariants


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += sign * rows[0][j] * _det(minor)
        sign = -sign
    return total


def bareiss_rank(rows):
    """Rank over Q by fraction-free (Bareiss) elimination.

    Each row is first scaled to integers, so every step is an exact
    integer division; no Fraction arithmetic and no kahlercheck code.
    """
    from fractions import Fraction
    from math import lcm
    a = []
    for r in rows:
        r = [Fraction(x) for x in r]
        den = lcm(1, *(x.denominator for x in r))
        a.append([int(x * den) for x in r])
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                q, rem = divmod(a[i][j] * a[rank][col]
                                - a[i][col] * a[rank][j], prev)
                assert rem == 0
                a[i][j] = q
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == m:
            break
    return rank


def pivot_columns(rows, width):
    """Columns j where the rank of the first j+1 columns jumps: the pivot
    columns of the reduced row echelon form."""
    pivots = []
    prev = 0
    for j in range(width):
        r = bareiss_rank([row[:j + 1] for row in rows]) if rows else 0
        if r > prev:
            pivots.append(j)
        prev = r
    return pivots
