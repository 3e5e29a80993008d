"""Independent answers for the benchmark's correctness gate.

Nothing here imports kahlercheck.  Lie ranks come from closed formulas
(Witt, Labute, additivity over direct products) and H1 ranks from exact
rational elimination written from scratch, so an answer never comes from
the program under test.
"""

from fractions import Fraction
from math import comb


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
    return -result if n > 1 else result


def _ranks_from_power_sums(p, degree):
    ranks = []
    for n in range(1, degree + 1):
        total = sum(moebius(n // d) * p[d] for d in range(1, n + 1)
                    if n % d == 0)
        if total % n:
            raise ArithmeticError("power sums give a non-integral rank")
        ranks.append(total // n)
    return tuple(ranks)


def labute_ranks(num_gens, relator_degree, degree):
    """Ranks of gr_n(G) (x) Q, n = 1..degree, for a group on num_gens
    generators with at most one relator whose initial form has degree
    relator_degree (None: no relator, i.e. Witt's formula).

    The enveloping algebra has Hilbert series 1/P(t) with
    P(t) = 1 - g t + t^e = prod (1 - a_i t); with p_n the power sums of the
    a_i, rank_n = (1/n) sum over d | n of mu(n/d) p_d.
    """
    c = [0] * (degree + 1)
    c[0] = 1
    if degree >= 1:
        c[1] -= num_gens
    if relator_degree is not None and relator_degree <= degree:
        c[relator_degree] += 1
    p = [0] * (degree + 1)
    for n in range(1, degree + 1):  # Newton's identities
        p[n] = -n * c[n] - sum(c[k] * p[n - k] for k in range(1, n))
    return _ranks_from_power_sums(p, degree)


def witt(num_gens, n):
    """Rank of the degree-n part of the free Lie algebra on num_gens
    generators."""
    return labute_ranks(num_gens, None, n)[-1]


def surface_ranks(genus, degree):
    return labute_ranks(2 * genus, 2, degree)


def free_abelian_ranks(n, degree):
    return (n,) + (0,) * (degree - 1)


def heisenberg_ranks(n, degree):
    """The 2n+1-dimensional Heisenberg group: class 2, centre of rank 1."""
    return ((2 * n, 1) + (0,) * (degree - 2))[:degree]


def circle_bundle_ranks(genus, degree):
    """Central extension of the genus-g surface group by Z with nonzero
    Euler class, known through degree 3: rationally its Malcev algebra is
    the free Lie algebra on 2g generators modulo [x, omega] for every
    generator x, so gr_3 loses 2g dimensions.  Returns at most 3 ranks."""
    n = 2 * genus
    known = (n, comb(n, 2), witt(n, 3) - n)
    return known[:degree]


def free_ranks(num_gens, degree):
    return labute_ranks(num_gens, None, degree)


def add_ranks(a, b):
    """Ranks of a direct product (LCS quotients are additive)."""
    if a is None or b is None:
        return None
    m = min(len(a), len(b))
    return tuple(x + y for x, y in zip(a[:m], b[:m]))


# ---------------------------------------------------------------------------
# exact rational ranks


def rational_rank(rows):
    """Rank over Q of an integer matrix given by rows."""
    m = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                f = m[i][j] / m[rank][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def exponent_sums(letters, num_gens):
    vec = [0] * num_gens
    for g, e in letters:
        vec[g] += e
    return vec


def betti1(num_gens, relators):
    """First Betti number from the exponent sums of the relators."""
    rows = [exponent_sums(r, num_gens) for r in relators]
    return num_gens - rational_rank(rows)


def hom_parity_ranks(src_gens, src_rels, tgt_gens, tgt_rels, images):
    """Ranks of image, kernel and cokernel of the map induced on
    H1 (x) Q, from exponent sums alone."""
    rt = [exponent_sums(r, tgt_gens) for r in tgt_rels]
    m = [exponent_sums(w, tgt_gens) for w in images]
    rank_rt = rational_rank(rt)
    image = rational_rank(m + rt) - rank_rt
    b1_src = betti1(src_gens, src_rels)
    b1_tgt = tgt_gens - rank_rt
    return image, b1_src - image, b1_tgt - image
