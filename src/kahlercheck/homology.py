"""Low-dimensional (co)homology of a presented group through its
presentation 2-complex.

H1 and induced maps come from exponent-sum matrices.  H2 classes live on
relator 2-cells: a 2-cochain is a rational value per relator, considered
modulo the coboundaries (delta f)(r_j) = sum_i a_ji f(x_i) with a the
exponent matrix.  Vanishing of a group cohomology class is faithfully
detected there because H2 of the group injects into H2 of the 2-complex.

The cup product of two 1-cocycles is evaluated on a relator by the edge
path transport: walking the relator word, a positively oriented letter y
after prefix p contributes alpha(p) * beta(y), a negatively oriented one
contributes -alpha(p y^-1) * beta(y).  This is the convention under which
coboundary consistency holds (alpha cup alpha vanishes as a class over Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import (QSpace, cokernel, nullspace, rational_rank,
                        solve_rational)
from .presentation import IN_ABELIANIZATION, VerificationError


def h1(p):
    """Abelianization of the presented group (rank = first Betti number)."""
    return cokernel(p.exponent_matrix())


@dataclass(frozen=True)
class H1ParityReport:
    rank_image: int
    rank_kernel: int
    rank_cokernel: int

    @property
    def odd_parts(self):
        out = []
        for label, r in (("image", self.rank_image), ("kernel", self.rank_kernel),
                         ("cokernel", self.rank_cokernel)):
            if r % 2:
                out.append(label)
        return tuple(out)

    @property
    def obstructed(self):
        """True when some rank is odd, i.e. the map cannot come from a
        holomorphic map of compact Kahler manifolds."""
        return bool(self.odd_parts)


def h1_parity_check(h):
    """Ranks of image, kernel and cokernel of the induced map on H1 tensor Q.

    Any odd rank obstructs the homomorphism from being Kahler.  Requires a
    homomorphism verified at least in the abelianization.
    """
    if not h.at_least(IN_ABELIANIZATION):
        raise VerificationError(
            "h1_parity_check needs a hom verified at least in the abelianization")
    Rs = h.source.exponent_matrix()
    Rt = h.target.exponent_matrix()
    M = h.induced_h1_matrix()
    rank_rs = rational_rank(Rs.to_rows())
    rank_rt = rational_rank(Rt.to_rows())
    b1_source = h.source.num_generators - rank_rs
    b1_target = h.target.num_generators - rank_rt
    stacked = M.to_rows() + Rt.to_rows()
    rank_image = rational_rank(stacked) - rank_rt
    return H1ParityReport(rank_image=rank_image,
                          rank_kernel=b1_source - rank_image,
                          rank_cokernel=b1_target - rank_image)


# ---------------------------------------------------------------------------
# cocycles, cup products


@dataclass(frozen=True)
class OneCocycle:
    """Homomorphism G -> Q, one rational per generator; must kill every
    relator's exponent vector."""

    values: tuple

    def __call__(self, exponent_vector):
        return sum(v * x for v, x in zip(self.values, exponent_vector))


def one_cocycle(p, values):
    values = tuple(Fraction(v) for v in values)
    if len(values) != p.num_generators:
        raise ValueError("need one value per generator")
    c = OneCocycle(values)
    for idx, r in enumerate(p.relators):
        if c(r.exponent_vector(p.num_generators)) != 0:
            raise ValueError("values do not vanish on relator %d" % idx)
    return c


def h1_cocycle_basis(p):
    """Basis of H^1(G, Q) = null space of the exponent matrix."""
    A = p.exponent_matrix()
    if A.rows == 0:
        basis = [[Fraction(1) if i == j else Fraction(0)
                  for i in range(A.cols)] for j in range(A.cols)]
    else:
        basis = nullspace([[Fraction(x) for x in A.row(i)]
                           for i in range(A.rows)], width=A.cols)
    return [OneCocycle(tuple(v)) for v in basis]


@dataclass(frozen=True)
class TwoCochainClass:
    """Rational value per relator, taken modulo im(delta^1)."""

    presentation: object
    values: tuple

    def is_zero(self):
        A = self.presentation.exponent_matrix()
        if all(v == 0 for v in self.values):
            return True
        return solve_rational(A, list(self.values)) is not None

    def same_class(self, other):
        if self.presentation is not other.presentation and \
                not self.presentation.same_presentation(other.presentation):
            raise ValueError("classes live on different presentations")
        diff = TwoCochainClass(self.presentation,
                               tuple(a - b for a, b in
                                     zip(self.values, other.values)))
        return diff.is_zero()


def cup_product(p, alpha, beta):
    """Cup product of two 1-cocycles as a 2-complex cochain class."""
    for c in (alpha, beta):
        for idx, r in enumerate(p.relators):
            if c(r.exponent_vector(p.num_generators)) != 0:
                raise ValueError("input is not a cocycle (fails on relator %d)"
                                 % idx)
    n = p.num_generators
    values = []
    for r in p.relators:
        total = Fraction(0)
        prefix = [0] * n
        for g, e in r.letters:
            if e == 1:
                total += alpha(prefix) * beta.values[g]
                prefix[g] += 1
            else:
                prefix[g] -= 1
                total -= alpha(prefix) * beta.values[g]
        values.append(total)
    return TwoCochainClass(presentation=p, values=tuple(values))


@dataclass(frozen=True)
class CupInjectivityReport:
    injective: bool
    wedge_pairs: tuple        # (s, t) index pairs into the cocycle basis
    cocycle_basis: tuple      # OneCocycle basis of H^1(G, Q)
    kernel_basis: tuple       # vectors of wedge coordinates spanning the kernel
    cup_values: tuple         # per wedge pair, value vector over relators


def cup_injectivity_check(p):
    """Is wedge^2 H^1(G,Q) -> H^2 injective on the presentation 2-complex?

    Returns the verdict together with a basis of the kernel in wedge
    coordinates of the computed H^1 basis.
    """
    basis = h1_cocycle_basis(p)
    b1 = len(basis)
    pairs = [(s, t) for s in range(b1) for t in range(s + 1, b1)]
    nrel = len(p.relators)
    cup_vals = [cup_product(p, basis[s], basis[t]).values for s, t in pairs]
    A = p.exponent_matrix()
    # kernel = wedge coefficient vectors whose cup values land in im(delta^1)
    ncols = len(pairs) + p.num_generators
    rows = []
    for j in range(nrel):
        row = [Fraction(cup_vals[k][j]) for k in range(len(pairs))]
        row += [Fraction(A[j, i]) for i in range(p.num_generators)]
        rows.append(row)
    if rows:
        combos = nullspace(rows, width=ncols)
    else:
        combos = [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                  for j in range(ncols)]
    kernel = QSpace(len(pairs))
    for combo in combos:
        kernel.add(combo[:len(pairs)])
    return CupInjectivityReport(
        injective=(kernel.dim == 0),
        wedge_pairs=tuple(pairs),
        cocycle_basis=tuple(basis),
        kernel_basis=tuple(tuple(v) for v in kernel.basis()),
        cup_values=tuple(tuple(v) for v in cup_vals))
