"""Independent oracles and generators shared by the test modules.

Nothing here imports the code paths it is used to check: the Witt formula
and the orbifold kernel order are closed-form number theory, the word and
Magnus oracles work letter by letter on raw letter tuples, the integer
solve oracles are the per-call loops the solvers had before they moved onto
SNFResult (they take a Smith form, which the SymPy test checks on its own),
and the random generators only build raw input data.
"""

from fractions import Fraction
from math import gcd, lcm, prod

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


def prefix_cup_values(relators, alpha, beta):
    """Cup product values of two 1-cocycles (values per generator) on each
    relator (a letter sequence), re-evaluating alpha on the exponent vector
    of every prefix: a positive letter y after prefix p adds
    alpha(p) * beta(y), a negative one subtracts alpha(p y^-1) * beta(y)."""
    out = []
    for letters in relators:
        total = 0
        prefix = [0] * len(alpha)
        for g, e in letters:
            if e == 1:
                total += sum(a * x for a, x in zip(alpha, prefix)) * beta[g]
                prefix[g] += 1
            else:
                prefix[g] -= 1
                total -= sum(a * x for a, x in zip(alpha, prefix)) * beta[g]
        out.append(total)
    return out


def orbifold_kernel_order(orders):
    """Order of the kernel of H1(O) -> H1(surface) for the orbifold surface
    group with cone points of the given orders m_1, ..., m_r.

    The relators abelianize to q_1 + ... + q_r = 0 and m_j q_j = 0, with no
    surface terms, so the kernel is (Z/m_1 + ... + Z/m_r) / <(1, ..., 1)>:
    prod(m_j) / lcm(m_j), which is 1 when r = 0.
    """
    return prod(orders) // lcm(*orders)


def letterwise_magnus(letters, degree):
    """Truncated Magnus expansion of a letter sequence as {monomial:
    Fraction}, one full series product per letter: x -> 1 + x and
    x^-1 -> 1 - x + x^2 - ... (the expansion before it ran by syllables)."""
    out = {(): Fraction(1)}
    for g, e in letters:
        if e == 1:
            factor = {(): Fraction(1), (g,): Fraction(1)}
        else:
            factor = {(g,) * k: Fraction((-1) ** k) for k in range(degree + 1)}
        product = {}
        for m1, c1 in out.items():
            for m2, c2 in factor.items():
                if len(m1) + len(m2) <= degree:
                    product[m1 + m2] = product.get(m1 + m2, 0) + c1 * c2
        out = {m: c for m, c in product.items() if c}
    return out


def slicing_cyclic_reduction(letters):
    """Cyclic reduction by slicing off one cancelling end pair at a time."""
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == (letters[-1][0],
                                               -letters[-1][1]):
        letters = letters[1:-1]
    return tuple(letters)


def loop_solve(snf, b):
    """Integer x with A*x = b for the matrix A factored as snf, or None:
    c = U*b must be divisible by the diagonal row by row (zero where the
    diagonal is zero or missing), and then x = V*(c_i / d_i)."""
    rows, cols = snf.D.rows, snf.D.cols
    cb = snf.U.mul_vec(b)
    y = [0] * cols
    for i in range(rows):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d:
            if cb[i] % d:
                return None
            y[i] = cb[i] // d
        elif cb[i]:
            return None
    return snf.V.mul_vec(y)


def loop_minimal_multiple(snf, b):
    """Minimal n >= 1 with A*x = n*b solvable over Z for the matrix A
    factored as snf, or None when there is no rational solution."""
    c = snf.U.mul_vec(b)
    n = 1
    for i in range(snf.D.rows):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d:
            # row i needs d | n*c_i
            n = lcm(n, d // gcd(d, c[i] % d))
        elif c[i]:
            return None
    return n


def row_lattice_by_transpose(snf_of_transpose, vec):
    """Is vec an integer combination of the rows of A?  Solve A^T*y = vec
    with the Smith form of A^T."""
    return loop_solve(snf_of_transpose, list(vec)) is not None


def greedy_dehn(g, letters):
    """Dehn's algorithm in the genus-g surface group on a raw letter tuple,
    as first written: every pass tries all 8g rotations of the relator and
    its inverse, each materialized, at every start of the doubled word and
    replaces the leftmost longest match of more than half a rotation."""
    relator = []
    for i in range(g):
        relator += [(i, 1), (g + i, 1), (i, -1), (g + i, -1)]
    inverse = [(x, -e) for x, e in reversed(relator)]
    rots = [tuple(w[s:] + w[:s]) for w in (relator, inverse)
            for s in range(len(w))]
    half = len(relator) // 2
    w = list(slicing_cyclic_reduction(free_reduce(letters).letters))
    while w:
        n = len(w)
        doubled = w + w
        limit = min(len(relator), n)
        best = None
        for start in range(n):
            for rot in rots:
                length = 0
                while length < limit and doubled[start + length] == rot[length]:
                    length += 1
                if length > half and (best is None or length > best[1]):
                    best = (start, length, rot)
            if best is not None and best[0] == start and best[1] == limit:
                break
        if best is None:
            return False
        start, length, rot = best
        replacement = [(x, -e) for x, e in reversed(rot[length:])]
        rest = doubled[start + length:start + n]
        w = list(slicing_cyclic_reduction(
            free_reduce(replacement + rest).letters))
    return True
