"""Central extensions read off from presentations.

A presentation with designated central generators c_1..c_k decomposes: each
relator is either a centrality relator [x, c_l], or contributes a base
relator r_j over the remaining generators together with a lift vector
v_j in Z^k (the relator has the form r_j(x) * c^{-v_j} up to placement of
the central letters, which is immaterial once centrality holds).

With A the base exponent matrix, a set-theoretic section x_i -> x_i c^{w_i}
of the quotient map is a homomorphism iff A w = -v, so the splitting
obstruction class is zero iff that system solves over Z, torsion of order n
iff n is minimal with an integer solution for n*v, and non-torsion iff
there is no rational solution.  The section search is the independent
witness mechanism for the same criterion and the two are cross-checked in
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .homology import cup_injectivity_check, h1
from .intlinalg import (IntMatrix, SparseEchelon, inverse_unimodular,
                        smith_normal_form, solve_rational)
from .lieranks import (DEFAULT_DIM_BUDGET, build_quotient_algebra,
                       magnus_minus_one)
from .presentation import (IN_NILPOTENT, GroupHom, InternalError, Word,
                           _commutator_pair, _exponent_snf,
                           build_presentation, commutator, free_reduce,
                           verify_hom)

VERDICT_ZERO = "zero"
VERDICT_TORSION = "torsion"
VERDICT_NON_TORSION = "non_torsion"


class ExtensionShapeError(ValueError):
    """A relator mixes central generators in a pattern this model does not
    recognize, or required centrality relators are missing."""

    def __init__(self, message, relator_index=None):
        super().__init__(message)
        self.relator_index = relator_index


@dataclass(frozen=True)
class CentralExtension:
    """Presented group with designated central kernel generators."""

    total: Presentation
    central_names: tuple
    central_indices: tuple
    base_indices: tuple           # position in total of each base generator
    base: Presentation
    lift_vectors: tuple           # one Z^k tuple per base relator
    base_exponent_matrix: IntMatrix
    kernel_hypothesis_verified: bool
    # per base relator, the index of the originating relator of `total`
    base_relator_sources: tuple

    @property
    def kernel_rank(self):
        return len(self.central_indices)


@dataclass(frozen=True)
class ExtensionClass:
    """Splitting obstruction of a recognized central extension."""

    vectors: tuple
    verdict: str
    order: int            # minimal n with n*e = 0; 0 when non-torsion
    certificate: dict
    kernel_caveat: bool

    def is_torsion(self):
        return self.verdict in (VERDICT_ZERO, VERDICT_TORSION)


def recognize_extension(p, central_names, dim_budget=DEFAULT_DIM_BUDGET):
    """Decompose a presentation as a central extension over the subgroup
    generated by the non-central generators.

    Requires a centrality relator [g, c] for every central c and every
    other generator g.  The claim that the central generators span a free
    abelian kernel of full rank is checked in the class-2 rational
    quotient and recorded, not assumed.
    """
    central_indices = tuple(p.gen_index(name) for name in central_names)
    central_set = set(central_indices)
    if len(central_set) != len(central_indices):
        raise ValueError("duplicate central generator")

    commuting_pairs = set()
    base_items = []
    for idx, rel in enumerate(p.relators):
        pair = _commutator_pair(rel)
        if pair is not None and (pair[0] in central_set or pair[1] in central_set):
            commuting_pairs.add(pair)
            continue
        stripped = [(g, e) for g, e in rel.letters if g not in central_set]
        lift = [0] * len(central_indices)
        for g, e in rel.letters:
            if g in central_set:
                lift[central_indices.index(g)] -= e
        base_word = free_reduce(stripped).cyclically_reduced()
        if base_word.is_identity() and any(lift):
            raise ExtensionShapeError(
                "relator %d imposes a relation among the central generators"
                % idx, relator_index=idx)
        if base_word.is_identity() and not any(lift):
            continue
        base_items.append((idx, base_word, tuple(lift)))

    for c in central_indices:
        for g in range(p.num_generators):
            if g == c:
                continue
            if (min(g, c), max(g, c)) not in commuting_pairs:
                raise ExtensionShapeError(
                    "missing centrality relator for [%s, %s]"
                    % (p.generator_names[g], p.generator_names[c]))

    base_indices = tuple(i for i in range(p.num_generators)
                         if i not in central_set)
    reindex = {old: new for new, old in enumerate(base_indices)}
    base_names = [p.generator_names[i] for i in base_indices]
    base_relators = []
    lift_vectors = []
    sources = []
    for idx, word, lift in base_items:
        base_relators.append(Word(tuple((reindex[g], e)
                                        for g, e in word.letters)))
        lift_vectors.append(lift)
        sources.append(idx)
    base = build_presentation(base_names, base_relators,
                              name=p.name + "_base")

    # kernel hypothesis: central generators rationally independent in the
    # class-2 quotient of the total group
    alg = build_quotient_algebra(p, 2, dim_budget)
    ech = SparseEchelon()
    independent = 0
    for c in central_indices:
        nf = alg.nf({alg.table.global_index((c,)): Fraction(1)})
        if ech.insert(nf) is not None:
            independent += 1
    kernel_ok = independent == len(central_indices)

    return CentralExtension(
        total=p,
        central_names=tuple(central_names),
        central_indices=central_indices,
        base_indices=base_indices,
        base=base,
        lift_vectors=tuple(lift_vectors),
        base_exponent_matrix=base.exponent_matrix(),
        kernel_hypothesis_verified=kernel_ok,
        base_relator_sources=tuple(sources))


def class_and_torsion(E):
    """Verdict for the splitting obstruction of a recognized extension.

    zero iff A*w = -v solves over Z; torsion of order n iff n is minimal
    with an integer solution for n*v; non-torsion iff no rational solution
    exists.  Certificates carry the witnesses.  Every system is solved
    from the base's one Smith form.
    """
    A = E.base_exponent_matrix
    snf = _exponent_snf(E.base)
    rhs = [[-v[l] for v in E.lift_vectors] for l in range(E.kernel_rank)]
    orders = [snf.minimal_multiple(b) for b in rhs]
    order = 0 if None in orders else math.lcm(*orders)
    if order == 0:
        verdict = VERDICT_NON_TORSION
        cert = {"reason": "no rational solution",
                "coordinate": orders.index(None),
                "rational_solution": None}
    elif order == 1:
        verdict = VERDICT_ZERO
        witness = [snf.solve(b) for b in rhs]
        assert all(A.mul_vec(w) == b for w, b in zip(witness, rhs))
        cert = {"reason": "integer section exists", "integer_witness": witness}
    else:
        verdict = VERDICT_TORSION
        rational = [solve_rational(A, b) for b in rhs]
        cert = {"reason": "rational but not integral solution",
                "rational_witness": [[str(x) for x in w] for w in rational]}
    return ExtensionClass(vectors=E.lift_vectors, verdict=verdict,
                          order=order, certificate=cert,
                          kernel_caveat=not E.kernel_hypothesis_verified)


def pushout_extension(E, n):
    """Presentation of the pushout along multiplication by n on the kernel:
    base relators lift as r_j(x) * c^{-n*v_j}, centrality relators kept.

    n = 1 reproduces the total presentation up to relator normalization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = E.total
    lifted = {}
    for j, src in enumerate(E.base_relator_sources):
        letters = [(E.base_indices[g], e)
                   for g, e in E.base.relators[j].letters]
        for l, c in enumerate(E.central_indices):
            _extend_power(letters, c, -n * E.lift_vectors[j][l])
        lifted[src] = free_reduce(letters).cyclically_reduced()
    relators = []
    for idx, rel in enumerate(total.relators):
        relators.append(lifted.get(idx, rel))
    return build_presentation(list(total.generator_names), relators,
                              name="%s_pushout_%d" % (total.name, n))


def _extend_power(letters, g, k):
    """Append the letters of generator g to the power k."""
    letters.extend([(g, 1 if k > 0 else -1)] * abs(k))


def section_search(E, n):
    """Integer vectors w_i making x_i -> x_i * c^{w_i} a section of the
    multiplication-by-n pushout, or None.

    Because the c's are central, the candidate is a homomorphism iff
    A*w = -n*v over Z.  A found witness is validated by verifying the
    induced homomorphism into the pushout at class-2 level.
    """
    A = E.base_exponent_matrix
    snf = _exponent_snf(E.base)
    k = E.kernel_rank
    solution_cols = []
    for l in range(k):
        b = [-n * v[l] for v in E.lift_vectors]
        w = snf.solve(b)
        if w is None:
            return None
        assert A.mul_vec(w) == b
        solution_cols.append(w)
    witness = [tuple(solution_cols[l][i] for l in range(k))
               for i in range(E.base.num_generators)]
    _validate_section(E, n, witness)
    return witness


def _validate_section(E, n, witness):
    target = pushout_extension(E, n)
    images = []
    for i, w in enumerate(witness):
        letters = [(E.base_indices[i], 1)]
        for l, c in enumerate(E.central_indices):
            _extend_power(letters, c, w[l])
        images.append(free_reduce(letters))
    hom = GroupHom(source=E.base, target=target, images=tuple(images),
                   name="section")
    verify_hom(hom, IN_NILPOTENT, 2)  # raises if the witness is bogus


# ---------------------------------------------------------------------------
# the canonical class-2 extension of an arbitrary presentation


@dataclass(frozen=True)
class ClassTwoPushforward:
    """Pushforward of the abelianization extension to the rational class-2
    quotient.

    A non-torsion verdict here certifies the splitting obstruction of the
    abelianization map itself is non-torsion; a zero verdict says nothing
    about it and is flagged inconclusive.
    """

    extension: CentralExtension
    ext_class: ExtensionClass
    b1: int
    conclusive: bool
    note: str


def canonical_class2_extension(p, dim_budget=DEFAULT_DIM_BUDGET):
    """Extension 1 -> gr_2 lattice -> (class-2 quotient mod torsion)
    -> H1/torsion -> 1, with lift vectors from degree-2 Magnus parts."""
    alg = build_quotient_algebra(p, 2, dim_budget)
    k2 = alg.lie_ranks[2]
    snf = _exponent_snf(p)
    g = p.num_generators
    b1 = g - snf.rank

    vinv = inverse_unimodular(snf.V)
    basis_words = []
    for i in range(snf.rank, g):  # the free coordinates of H1
        letters = []
        for j in range(g):
            e = vinv[i, j]
            _extend_power(letters, j, e)
        basis_words.append(free_reduce(letters))

    pair_list = [(s, t) for s in range(b1) for t in range(s + 1, b1)]
    lambdas = []
    for s, t in pair_list:
        word = commutator(basis_words[s], basis_words[t])
        series = magnus_minus_one(word, 2, g)
        nf = alg.nf(series)
        coords = alg.lie_coordinates(2, alg.graded_slice(nf, 2))
        if coords is None:
            raise InternalError("degree-2 Magnus part escaped the Lie part")
        lambdas.append(coords)

    base_names = ["u%d" % (s + 1) for s in range(b1)]
    central = ["z%d" % (l + 1) for l in range(k2)]
    if k2 == 0:
        total = build_presentation(
            base_names,
            [commutator(Word(((s, 1),)), Word(((t, 1),)))
             for s, t in pair_list],
            name=p.name + "_class2")
        ext = recognize_extension(total, [], dim_budget=dim_budget)
        cls = class_and_torsion(ext)
        return ClassTwoPushforward(
            extension=ext, ext_class=cls, b1=b1, conclusive=False,
            note="degree-2 part is trivial; pushforward class is zero")

    # integral lattice spanned by the rational coefficient vectors
    denom = math.lcm(*(x.denominator for lam in lambdas for x in lam))
    M = IntMatrix.from_rows([[int(x * denom) for x in lam] for lam in lambdas])
    msnf = smith_normal_form(M)
    UM = msnf.U.mul(M)
    lattice_rows = [list(UM.row(i)) for i in range(UM.rows)
                    if any(UM.row(i))]
    if len(lattice_rows) != k2:
        raise InternalError("degree-2 lattice rank %d != gr_2 rank %d"
                           % (len(lattice_rows), k2))
    Lt = IntMatrix.from_rows(lattice_rows).transpose()
    lsnf = smith_normal_form(Lt)
    lift_vectors = [lsnf.solve(list(M.row(j))) for j in range(M.rows)]
    assert all(v is not None and Lt.mul_vec(v) == list(M.row(j))
               for j, v in enumerate(lift_vectors))

    names = base_names + central
    nb = len(base_names)
    relators = []
    for (s, t), v in zip(pair_list, lift_vectors):
        letters = list(commutator(Word(((s, 1),)), Word(((t, 1),))).letters)
        for l in range(k2):
            _extend_power(letters, nb + l, -v[l])
        relators.append(letters)
    for s in range(nb):
        for l in range(k2):
            relators.append(commutator(Word(((s, 1),)), Word(((nb + l, 1),))))
    for l in range(k2):
        for m in range(l + 1, k2):
            relators.append(commutator(Word(((nb + l, 1),)),
                                       Word(((nb + m, 1),))))
    total = build_presentation(names, relators, name=p.name + "_class2")
    ext = recognize_extension(total, central, dim_budget=dim_budget)
    cls = class_and_torsion(ext)
    conclusive = cls.verdict == VERDICT_NON_TORSION
    note = ("non-torsion pushforward: the abelianization's splitting "
            "obstruction is itself non-torsion" if conclusive else
            "pushforward does not obstruct; inconclusive for the full class")
    return ClassTwoPushforward(extension=ext, ext_class=cls, b1=b1,
                               conclusive=conclusive, note=note)


@dataclass(frozen=True)
class AbelianizationObstructionReport:
    """Torsion test for the splitting obstruction of the abelianization,
    applicable when b1 = 2, or b1 = 4 with injective cup product."""

    applicable: bool
    reason: str
    b1: int
    cup_injective: object        # bool, or None when not consulted
    pushforward: object          # ClassTwoPushforward, or None
    obstructed: bool


def abelianization_obstruction(p, dim_budget=DEFAULT_DIM_BUDGET):
    """Kahler obstruction via the abelianization's splitting class.

    For a Kahler group with b1 = 2, or b1 = 4 and injective cup product,
    that class must be torsion; a non-torsion rational class-2 pushforward
    therefore certifies the group is not Kahler.  Anything else is
    inconclusive.
    """
    b1 = h1(p).rank
    cup_injective = None
    if b1 == 2:
        applicable = True
        reason = "b1 = 2"
    elif b1 == 4:
        cup_injective = cup_injectivity_check(p).injective
        applicable = cup_injective
        reason = ("b1 = 4 and cup product injective" if cup_injective
                  else "b1 = 4 but cup product is not injective")
    else:
        applicable = False
        reason = "b1 = %d (test needs 2, or 4 with injective cup product)" % b1
    if not applicable:
        return AbelianizationObstructionReport(
            applicable=False, reason=reason, b1=b1,
            cup_injective=cup_injective, pushforward=None, obstructed=False)
    push = canonical_class2_extension(p, dim_budget=dim_budget)
    return AbelianizationObstructionReport(
        applicable=True, reason=reason, b1=b1, cup_injective=cup_injective,
        pushforward=push, obstructed=push.conclusive)
