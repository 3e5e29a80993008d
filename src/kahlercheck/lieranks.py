"""Truncated Magnus expansions and graded ranks of rationalized
lower-central-series quotients.

A word maps into the degree-d truncated free associative algebra by the
substitution x -> 1 + x, x^-1 -> 1 - x + x^2 - ...  The expansion runs over
the integers, one syllable x^k at a time: it multiplies by the truncated
binomial series (1 + x)^k = sum_j C(k, j) x^j, where
C(k, j) = (-1)^j C(|k| + j - 1, j) for k < 0.  That only shifts monomials,
so the cost is linear in the number of syllables.  The coefficients become
Fractions once, at the end.

The two-sided ideal generated by (expansion(r) - 1) over all relators r,
built degree by degree, realizes the class-d Malcev quotient of the group:
the dimension of the span of left-normed bracket monomials in the degree-n
graded piece is the rank of the n-th lower-central-series quotient
tensored with Q.

The holonomy (quadratic) model uses the same engine with degree-2 seeds
read off the cup product: its degree-2 relation space is the annihilator
of the cup-product kernel inside the wedge square of H1 tensor Q.  The
formality test compares the two rank sequences; a mismatch in degree >= 3
certifies that the Malcev Lie algebra has no quadratic presentation.

Every elimination here (the ideal, its leading terms, the graded Lie
parts, the strictness spans) runs on the one exact rational kernel,
intlinalg.SparseEchelon, keyed by monomial indices that grow with degree.
The only knob is the basis budget (the truncated algebra has g^n monomials
in degree n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .intlinalg import SparseEchelon, nullspace
from .presentation import (DEFAULT_DIM_BUDGET, IN_NILPOTENT, InternalError,
                           VerificationError, _trivial_in_h1)

_F0 = Fraction(0)
_F1 = Fraction(1)


class BudgetExceededError(RuntimeError):
    def __init__(self, required, budget):
        super().__init__(
            "truncated algebra needs %d basis monomials, budget is %d"
            % (required, budget))
        self.required = required
        self.budget = budget


# ---------------------------------------------------------------------------
# truncated series


@dataclass
class TruncatedSeries:
    """Noncommutative polynomial truncated above degree_bound.

    Monomials are tuples of generator indices; only finitely many nonzero
    coefficients, all rational.
    """

    degree_bound: int
    coeffs: dict

    @classmethod
    def zero(cls, degree_bound):
        return cls(degree_bound, {})

    @classmethod
    def one(cls, degree_bound):
        return cls(degree_bound, {(): _F1})

    def add_term(self, mon, coeff):
        if len(mon) > self.degree_bound:
            return
        val = self.coeffs.get(mon, _F0) + coeff
        if val:
            self.coeffs[mon] = val
        else:
            self.coeffs.pop(mon, None)

    def mul(self, other):
        d = self.degree_bound
        out = TruncatedSeries.zero(d)
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if len(m1) + len(m2) <= d:
                    out.add_term(m1 + m2, c1 * c2)
        return out

    def constant_term(self):
        return self.coeffs.get((), _F0)

    def valuation(self):
        """Lowest degree with a nonzero coefficient, or None if zero."""
        if not self.coeffs:
            return None
        return min(len(m) for m in self.coeffs)

    def is_zero(self):
        return not self.coeffs


def magnus_expansion(word, degree, num_gens):
    """Magnus expansion of a word, truncated at the given degree.

    >>> from kahlercheck.presentation import Word
    >>> s = magnus_expansion(Word(((0, 1),)), 2, 2)
    >>> sorted(s.coeffs.items())
    [((), Fraction(1, 1)), ((0,), Fraction(1, 1))]
    """
    if degree < 1:
        raise ValueError("degree bound must be >= 1")
    coeffs = {(): 1}
    for g, k in word.syllables():
        if g >= num_gens:
            raise ValueError("word uses generator index %d" % g)
        series = _power_series(k, degree)
        out = {}
        for mon, c in coeffs.items():
            key = mon
            for cj in series[:degree - len(mon) + 1]:
                out[key] = out.get(key, 0) + c * cj
                key += (g,)
        coeffs = {m: c for m, c in out.items() if c}
    return TruncatedSeries(degree, {m: Fraction(c) for m, c in coeffs.items()})


def _power_series(k, degree):
    """Coefficients C(k, j) of x^j in (1 + x)^k for j <= degree, stopping
    at j = k when k > 0; for k < 0, C(k, j) = (-1)^j C(|k| + j - 1, j)."""
    out = [1]
    for j in range(min(k, degree) if k > 0 else degree):
        out.append(out[-1] * (k - j) // (j + 1))
    return out


def magnus_minus_one(word, degree, num_gens):
    s = magnus_expansion(word, degree, num_gens)
    s.coeffs.pop((), None)
    return s


def substitute(monomial_items, images_minus_one, degree):
    """Apply the algebra map x_i -> images_minus_one[i] to a polynomial
    given as (monomial, coefficient) pairs.

    The images must have no constant term (use magnus_minus_one), so the
    map respects the augmentation filtration.
    """
    out = TruncatedSeries.zero(degree)
    cache = {}
    for mon, coeff in monomial_items:
        if mon not in cache:
            prod = TruncatedSeries.one(degree)
            for i in mon:
                prod = prod.mul(images_minus_one[i])
                if prod.is_zero():
                    break
            cache[mon] = prod
        for m, c in cache[mon].coeffs.items():
            out.add_term(m, c * coeff)
    return out


# ---------------------------------------------------------------------------
# monomial bookkeeping


class MonomialTable:
    """Graded-lex indexing of monomials of degree <= d over g generators."""

    def __init__(self, num_gens, degree):
        self.num_gens = num_gens
        self.degree = degree
        self.by_degree = []
        self.rank = []
        self.offset = []
        total = 0
        for n in range(degree + 1):
            mons = [tuple(m) for m in iter_product(range(num_gens), repeat=n)]
            self.by_degree.append(mons)
            self.rank.append({m: i for i, m in enumerate(mons)})
            self.offset.append(total)
            total += len(mons)
        self.total = total

    def global_index(self, mon):
        return self.offset[len(mon)] + self.rank[len(mon)][mon]

    def degree_of(self, idx):
        for n in range(self.degree, -1, -1):
            if idx >= self.offset[n]:
                return n
        raise IndexError(idx)

    def monomial_of(self, idx):
        n = self.degree_of(idx)
        return self.by_degree[n][idx - self.offset[n]]


# ---------------------------------------------------------------------------
# the quotient algebra


@dataclass(frozen=True)
class GradedRanks:
    """Per-degree ranks r_1, ..., r_d of a graded Lie algebra."""

    ranks: tuple

    def __getitem__(self, n):
        """Rank in degree n (1-based)."""
        return self.ranks[n - 1]

    def __len__(self):
        return len(self.ranks)


class TruncatedQuotientAlgebra:
    """Degree-d truncation of the free associative algebra modulo the
    closed ideal generated by the given seeds.

    Exposes graded dimensions, the graded Lie (left-normed bracket) parts,
    normal forms for elements, and filtered bracket representatives.
    presentation names the group the seeds come from and is not stored:
    the presentation's memo keeps the algebra, and a reference back would
    make a cycle that outlives the presentation until garbage collection.
    """

    def __init__(self, num_gens, seeds, degree, dim_budget=DEFAULT_DIM_BUDGET,
                 presentation=None):
        if degree < 1:
            raise ValueError("degree bound must be >= 1")
        self.num_gens = num_gens
        self.degree = degree
        self.table = MonomialTable(num_gens, degree)
        if self.table.total > dim_budget:
            raise BudgetExceededError(self.table.total, dim_budget)

        self._ideal = SparseEchelon()
        for seed in seeds:
            val = seed.valuation()
            if val is None:
                continue
            for a in range(degree - val + 1):
                for b in range(degree - val - a + 1):
                    for m1 in self.table.by_degree[a]:
                        for m2 in self.table.by_degree[b]:
                            vec = {}
                            for mon, c in seed.coeffs.items():
                                if a + len(mon) + b <= degree:
                                    idx = self.table.global_index(m1 + mon + m2)
                                    vec[idx] = vec.get(idx, _F0) + c
                            self._ideal.insert(vec)

        # leading-term spaces per degree: degree-n slices of ideal rows
        # whose pivot sits in degree n
        self._lt = [SparseEchelon() for _ in range(degree + 1)]
        for pivot, row in self._ideal.rows.items():
            n = self.table.degree_of(pivot)
            local = {}
            for k, c in row.items():
                if self.table.degree_of(k) == n:
                    local[k - self.table.offset[n]] = c
            self._lt[n].rows[pivot - self.table.offset[n]] = local

        self.graded_dims = [len(self.table.by_degree[n]) - self._lt[n].dim
                            for n in range(degree + 1)]

        # graded Lie parts: left-normed brackets, reduced mod leading terms
        self._lie = [SparseEchelon() for _ in range(degree + 1)]
        reps = []
        for i in range(num_gens):
            rank = self.table.rank[1][(i,)]
            v = self._lt[1].reduce({rank: _F1})
            if self._lie[1].insert(v) is not None:
                reps.append(v)
        self.lie_ranks = [0] * (degree + 1)
        self.lie_ranks[1] = self._lie[1].dim
        for n in range(2, degree + 1):
            new_reps = []
            for u in reps:
                for j in range(num_gens):
                    br = {}
                    for rank, c in u.items():
                        mon = self.table.by_degree[n - 1][rank]
                        r1 = self.table.rank[n][mon + (j,)]
                        r2 = self.table.rank[n][(j,) + mon]
                        br[r1] = br.get(r1, _F0) + c
                        br[r2] = br.get(r2, _F0) - c
                    v = self._lt[n].reduce(br)
                    if self._lie[n].insert(v) is not None:
                        new_reps.append(v)
            reps = new_reps
            self.lie_ranks[n] = self._lie[n].dim

    # -- normal forms ------------------------------------------------------

    def nf(self, series_or_vec):
        """Normal form (reduction mod the ideal) as a sparse global vector."""
        if isinstance(series_or_vec, TruncatedSeries):
            vec = {self.table.global_index(m): c
                   for m, c in series_or_vec.coeffs.items()}
        else:
            vec = series_or_vec
        return self._ideal.reduce(vec)

    def element_is_trivial(self, word):
        """Is the word trivial in the class-d rational nilpotent quotient?"""
        return not self.nf(magnus_minus_one(word, self.degree, self.num_gens))

    # -- graded structure ---------------------------------------------------

    def graded_lie_basis(self, n):
        """Canonical basis of the degree-n Lie part, as local-rank dicts."""
        return [dict(self._lie[n].rows[p]) for p in self._lie[n].pivots()]

    def lie_coordinates(self, n, local_vec):
        """Coordinates in the degree-n Lie basis of a local vector already
        implicitly taken mod leading terms; None if outside the span."""
        reduced = self._lt[n].reduce(local_vec)
        return self._lie[n].coordinates(reduced)

    def graded_slice(self, nf_vec, n):
        """Degree-n slice of a normal-form vector, in local ranks."""
        off = self.table.offset[n]
        return {k - off: c for k, c in nf_vec.items()
                if self.table.degree_of(k) == n}

    # -- quotient multiplication ---------------------------------------------

    def multiply_nf(self, u, v):
        """Product of two normal-form vectors, again in normal form."""
        prod = {}
        for k1, c1 in u.items():
            m1 = self.table.monomial_of(k1)
            for k2, c2 in v.items():
                m2 = self.table.monomial_of(k2)
                if len(m1) + len(m2) <= self.degree:
                    idx = self.table.global_index(m1 + m2)
                    val = prod.get(idx, _F0) + c1 * c2
                    if val:
                        prod[idx] = val
                    else:
                        del prod[idx]
        return self.nf(prod)


def _quotient_algebra(p, degree, dim_budget):
    seeds = [magnus_minus_one(r, degree, p.num_generators)
             for r in p.relators]
    return TruncatedQuotientAlgebra(p.num_generators, seeds, degree,
                                    dim_budget=dim_budget, presentation=p)


def build_quotient_algebra(p, degree, dim_budget=DEFAULT_DIM_BUDGET):
    """Truncated quotient algebra of a presentation: ideal seeded by
    magnus(r) - 1 over all relators r.

    Built once per presentation and degree; callers only read it.  A kept
    algebra over dim_budget raises as a fresh build would.
    """
    key = ("algebra", degree)
    if key not in p._memo:
        p._memo[key] = _quotient_algebra(p, degree, dim_budget)
    alg = p._memo[key]
    if alg.table.total > dim_budget:
        raise BudgetExceededError(alg.table.total, dim_budget)
    return alg


def lcs_ranks(p, degree, dim_budget=DEFAULT_DIM_BUDGET):
    """Ranks of the rationalized lower-central-series quotients, degrees
    1..degree; nothing else reads this algebra, so it is not kept."""
    alg = _quotient_algebra(p, degree, dim_budget)
    return GradedRanks(tuple(alg.lie_ranks[1:degree + 1]))


def holonomy_ranks(p, degree, dim_budget=DEFAULT_DIM_BUDGET):
    """Ranks of the quadratic (holonomy) model on H1 tensor Q.

    The degree-2 relation space is the annihilator, inside the wedge
    square, of the kernel of the cup product; the engine then runs with
    those homogeneous quadratic seeds only.
    """
    from .homology import cup_injectivity_check
    report = cup_injectivity_check(p)
    b1 = len(report.cocycle_basis)
    if b1 == 0:
        return GradedRanks((0,) * degree)
    pairs = report.wedge_pairs
    # annihilator of the kernel inside Q^pairs
    ann = nullspace([list(v) for v in report.kernel_basis], width=len(pairs))
    seeds = []
    for rel in ann:
        s = TruncatedSeries.zero(degree)
        for coeff, (i, j) in zip(rel, pairs):
            if coeff:
                s.add_term((i, j), coeff)
                s.add_term((j, i), -coeff)
        seeds.append(s)
    alg = TruncatedQuotientAlgebra(b1, seeds, degree, dim_budget=dim_budget)
    return GradedRanks(tuple(alg.lie_ranks[1:degree + 1]))


@dataclass(frozen=True)
class FormalityReport:
    consistent: bool
    witness_degree: int          # 0 when consistent
    lcs: GradedRanks
    holonomy: GradedRanks

    @property
    def obstructed(self):
        return not self.consistent


def formality_test(p, degree, dim_budget=DEFAULT_DIM_BUDGET):
    """Compare lower-central-series ranks against the quadratic model.

    A mismatch in some degree >= 3 certifies the Malcev Lie algebra has no
    quadratic presentation, hence the group is not Kahler.  Agreement up
    to the degree bound proves nothing and is reported as consistent.
    """
    if degree < 3:
        raise ValueError("the formality test needs degree >= 3")
    lcs = lcs_ranks(p, degree, dim_budget)
    hol = holonomy_ranks(p, degree, dim_budget)
    if lcs[1] != hol[1] or lcs[2] != hol[2]:
        raise InternalError(
            "internal inconsistency: degree 1-2 ranks must agree "
            "(%r vs %r)" % (lcs.ranks, hol.ranks))
    for n in range(3, degree + 1):
        if lcs[n] != hol[n]:
            return FormalityReport(consistent=False, witness_degree=n,
                                   lcs=lcs, holonomy=hol)
    return FormalityReport(consistent=True, witness_degree=0,
                           lcs=lcs, holonomy=hol)


# ---------------------------------------------------------------------------
# induced maps on truncated quotients


def _require_nilpotent_verification(h, degree, who):
    if not h.at_least(IN_NILPOTENT, degree):
        raise VerificationError(
            "%s needs a hom verified in the class-%d nilpotent quotient "
            "or better (have %s)" % (who, degree, h.level))


@dataclass(frozen=True)
class MalcevMapReport:
    """Graded pieces of the induced map on truncated Malcev quotients.

    graded_matrices[n] is the matrix of gr_n (rows = target degree-n Lie
    basis, columns = source degree-n Lie basis).  nonzero_degrees lists the
    degrees in which some generator image has a nonzero normal-form
    component; the induced map is nonzero iff this is nonempty.
    """

    degree: int
    graded_matrices: dict
    nonzero_degrees: tuple
    source_ranks: GradedRanks
    target_ranks: GradedRanks

    def is_zero(self):
        return not self.nonzero_degrees


def malcev_map(h, degree, dim_budget=DEFAULT_DIM_BUDGET):
    _require_nilpotent_verification(h, degree, "malcev_map")
    src = build_quotient_algebra(h.source, degree, dim_budget)
    tgt = build_quotient_algebra(h.target, degree, dim_budget)
    images = [magnus_minus_one(w, degree, tgt.num_gens) for w in h.images]

    matrices = {}
    for n in range(1, degree + 1):
        cols = []
        for local in src.graded_lie_basis(n):
            poly = {src.table.by_degree[n][rank]: c
                    for rank, c in local.items()}
            series = substitute(poly.items(), images, degree)
            nf = tgt.nf(series)
            coords = tgt.lie_coordinates(n, tgt.graded_slice(nf, n))
            if coords is None:
                raise InternalError(
                    "graded image slice escaped the Lie part in degree %d" % n)
            cols.append(coords)
        rank_t = tgt.lie_ranks[n]
        matrices[n] = [[cols[j][i] for j in range(len(cols))]
                       for i in range(rank_t)]

    nonzero = set()
    for series in images:
        for k in tgt.nf(series):
            nonzero.add(tgt.table.degree_of(k))
    return MalcevMapReport(degree=degree, graded_matrices=matrices,
                           nonzero_degrees=tuple(sorted(nonzero)),
                           source_ranks=GradedRanks(tuple(src.lie_ranks[1:])),
                           target_ranks=GradedRanks(tuple(tgt.lie_ranks[1:])))


@dataclass(frozen=True)
class StrictnessReport:
    """Per-degree comparison h(C^n L1) against h(L1) meet C^n L2."""

    degree: int
    strict_at: dict              # n -> bool
    image_dims: dict             # n -> dim h(C^n L1)
    intersection_dims: dict      # n -> dim (h(L1) meet C^n L2)

    @property
    def failures(self):
        return tuple(n for n in sorted(self.strict_at) if not self.strict_at[n])

    @property
    def obstructed(self):
        """A strict inclusion means the map cannot be Kahler."""
        return bool(self.failures)


def strictness_check(h, degree, dim_budget=DEFAULT_DIM_BUDGET):
    """Does the induced map strictly preserve the lower central series?

    Checked on the augmentation-power filtration of the truncated group
    algebras, where the n-th filtration level is spanned exactly by
    products of n factors (image of a generator or its inverse, minus 1);
    on the target itself this filtration coincides with the valuation
    filtration.  Strictness at level n is the equality of

        span of products of >= n image factors

    with the intersection of the full image span and valuation >= n.
    Strictness of the map of Malcev Lie algebras implies it, so a failure
    obstructs the homomorphism from being Kahler.
    """
    _require_nilpotent_verification(h, degree, "strictness_check")
    tgt = build_quotient_algebra(h.target, degree, dim_budget)

    factors = []
    seen = SparseEchelon()
    for img in h.images:
        for w in (img, img.inverse()):
            nf = tgt.nf(magnus_minus_one(w, degree, tgt.num_gens))
            if seen.insert(nf) is not None:
                factors.append(nf)

    # products of exactly k factors, echelon-pruned level by level
    levels = [factors]
    for _ in range(2, degree + 1):
        ech = SparseEchelon()
        nxt = []
        for u in levels[-1]:
            for f in factors:
                prod = tgt.multiply_nf(u, f)
                if ech.insert(prod) is not None:
                    nxt.append(prod)
        levels.append(nxt)

    # Global indices grow with degree, so a pivot is its row's lowest-degree
    # term and the image meets valuation >= n in as many dimensions as it
    # has pivots in degree >= n.  Inserting the levels from the top down,
    # the dimension after level n is that of h(C^n L1).
    image = SparseEchelon()
    image_dims = {}
    for n in range(degree, 0, -1):
        for v in levels[n - 1]:
            image.insert(v)
        image_dims[n] = image.dim
    pivot_degrees = [tgt.table.degree_of(p) for p in image.rows]
    inter_dims = {n: sum(1 for d in pivot_degrees if d >= n)
                  for n in range(1, degree + 1)}
    strict_at = {n: image_dims[n] == inter_dims[n]
                 for n in range(1, degree + 1)}
    return StrictnessReport(degree=degree, strict_at=strict_at,
                            image_dims=image_dims, intersection_dims=inter_dims)


@dataclass(frozen=True)
class DerivedImageReport:
    """Image inside the derived subgroup with nonzero induced Malcev map."""

    image_in_derived_subgroup: bool
    map_nonzero: bool
    witness_degree: int          # 0 when the map is zero

    @property
    def obstructed(self):
        return self.image_in_derived_subgroup and self.map_nonzero


def derived_image_check(h, degree, dim_budget=DEFAULT_DIM_BUDGET):
    """Obstruction for maps landing in the derived subgroup.

    If every generator image is trivial in the target's integral H1 and
    the induced map on truncated Malcev quotients is nonzero, the map
    cannot be Kahler (a strictly filtered map vanishing on the graded
    level vanishes).
    """
    _require_nilpotent_verification(h, degree, "derived_image_check")
    in_derived = all(
        _trivial_in_h1(h.target, img.exponent_vector(h.target.num_generators))
        for img in h.images)
    tgt = build_quotient_algebra(h.target, degree, dim_budget)
    images = [magnus_minus_one(w, degree, tgt.num_gens) for w in h.images]
    witness = 0
    for series in images:
        nf = tgt.nf(series)
        if nf:
            val = min(tgt.table.degree_of(k) for k in nf)
            witness = val if witness == 0 else min(witness, val)
    return DerivedImageReport(image_in_derived_subgroup=in_derived,
                              map_nonzero=witness > 0,
                              witness_degree=witness)
