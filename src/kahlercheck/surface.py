"""Surface groups, orbifold surface groups, and Dehn's algorithm.

The genus-g surface group has the single relator
[a_1, a_{g+1}] ... [a_g, a_{2g}].  For g >= 2 every piece shared by two
cyclic rotations of the relator (or its inverse) has length 1, far below a
sixth of the relator length 4g, so Dehn's greedy shortening decides the
word problem: repeatedly cyclically reduce and replace any subword that
matches more than half of some rotation by the inverse of the complement.

Orbifold surface groups add cone generators q_i with q_i^{m_i} = 1 and the
cone product appended to the surface relator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extensions import (ExtensionShapeError, class_and_torsion,
                         recognize_extension)
from .homology import h1
from .intlinalg import IntMatrix, cokernel
from .presentation import (EXACT, Word, _inverse_letters, _surface_relator,
                           build_presentation, free_reduce, surface_genus,
                           verify_hom)


@dataclass(frozen=True)
class SurfaceGroup:
    genus: int
    presentation: object

    @property
    def relator(self):
        return self.presentation.relators[0]


@dataclass(frozen=True)
class OrbifoldSurfaceGroup:
    genus: int
    orders: tuple
    presentation: object


def surface_group(g):
    """Standard presentation of the genus-g surface group."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    names = ["a%d" % (i + 1) for i in range(2 * g)]
    pres = build_presentation(names, [Word(_surface_relator(g))],
                              name="gamma%d" % g)
    return SurfaceGroup(genus=g, presentation=pres)


def orbifold_group(g, orders):
    """Orbifold surface group: genus g with cone points of the given
    orders (each >= 2)."""
    if g < 1:
        raise ValueError("genus must be >= 1 here (no genus-0 orbifolds)")
    orders = tuple(int(m) for m in orders)
    if any(m < 2 for m in orders):
        raise ValueError("cone orders must be >= 2")
    cones = tuple((2 * g + j, 1) for j in range(len(orders)))
    names = ["a%d" % (i + 1) for i in range(2 * g)] + \
            ["q%d" % (j + 1) for j in range(len(orders))]
    relators = [Word(_surface_relator(g) + cones)]
    relators += [Word((q,) * m) for q, m in zip(cones, orders)]
    pres = build_presentation(names, relators,
                        name="orb_g%d_%s" % (g, "_".join(map(str, orders))))
    return OrbifoldSurfaceGroup(genus=g, orders=orders, presentation=pres)


# ---------------------------------------------------------------------------
# Dehn's algorithm


def dehn_trivial(g, word):
    """Decide triviality in the genus-g surface group, g >= 2.

    Greedy shortening with the leftmost longest match against the
    rotations of the relator and then of its inverse; rotation s is read
    at offset s of the doubled relator, and only the rotations that begin
    with the word's letter at a start are tried there.  Each replacement
    strictly shortens the word, so this terminates, and small cancellation
    makes it complete.
    """
    if g < 2:
        raise ValueError("Dehn's algorithm needs genus >= 2")
    relator = _surface_relator(g)
    size = len(relator)
    half = size // 2  # match length must exceed this
    starting = {}  # letter -> [(doubled relator, offset)] in rotation order
    for rel in (relator, _inverse_letters(relator)):
        doubled_rel = rel + rel
        for s, letter in enumerate(rel):
            starting.setdefault(letter, []).append((doubled_rel, s))
    w = word.cyclically_reduced()
    while not w.is_identity():
        letters = w.letters
        n = len(letters)
        best = None  # (start, length, doubled relator, offset)
        # search on the doubled word so cyclic subwords are visible
        doubled = letters + letters
        limit = min(size, n)
        for start in range(n):
            for rel, s in starting.get(letters[start], ()):
                length = 0
                while (length < limit
                       and doubled[start + length] == rel[s + length]):
                    length += 1
                if length > half and (best is None or length > best[1]):
                    best = (start, length, rel, s)
            if best is not None and best[0] == start and best[1] == limit:
                break
        if best is None:
            return False
        start, length, rel, s = best
        # u matches the rotation's first length letters; replace u by the
        # inverse of the rest of the rotation
        replacement = _inverse_letters(rel[s + length:s + size])
        rest = doubled[start + length:start + n]
        w = free_reduce(replacement + rest).cyclically_reduced()
    return True


# ---------------------------------------------------------------------------
# orbifold H1 check


@dataclass(frozen=True)
class OrbifoldH1Report:
    h1_total: object             # AbelianStructure of the orbifold group
    h1_kernel: object            # AbelianStructure of ker(H1(O) -> H1(surface))
    kernel_is_torsion: bool
    free_rank: int


def orbifold_kernel_h1_check(orb):
    """H1 of the orbifold group and the kernel of the induced map onto the
    surface group's H1 (kill the cone generators).

    The kernel must be finite: the cone loops are torsion, so the
    abelianized kernel of the surjection onto the surface group is torsion.

    Every relator's exponent vector is zero in the surface columns (the
    commutator product abelianizes to 0), so H1 = Z^2g x coker(Q) with Q
    the q-columns, and the map kills exactly the coker(Q) factor: the
    kernel is coker(Q).  In closed form, the relators give
    q_1 + ... + q_r = 0 and m_j q_j = 0, so the kernel is
    (Z/m_1 x ... x Z/m_r) / <(1, ..., 1)>, of order prod(m_j) / lcm(m_j)
    (trivial for r <= 1, Z/gcd(m_1, m_2) for r = 2).
    """
    p = orb.presentation
    g2 = 2 * orb.genus
    r = len(orb.orders)
    total = h1(p)
    # the kernel is generated by the images of the q's: the quotient of Z^r
    # by the q-columns of the relator matrix
    A = p.exponent_matrix()
    q_block = IntMatrix(A.rows, r,
                        [[A[i, g2 + j] for j in range(r)]
                         for i in range(A.rows)])
    kernel = cokernel(q_block)
    return OrbifoldH1Report(h1_total=total, h1_kernel=kernel,
                            kernel_is_torsion=kernel.is_finite(),
                            free_rank=total.rank)


# ---------------------------------------------------------------------------
# obstruction for central extensions over surface groups


def surface_base_verdict(E, cls, maximality_asserted):
    """The surface-base obstruction for a recognized extension E with
    splitting class cls: (verdict, notes).

    A non-torsion class over a surface base of genus g >= 2 rules out a
    Kahler total group provided the projection onto the base is maximal
    (does not factor through a higher-genus surface group).  Maximality is
    the caller's assertion or, automatically, b1(total) = 2g.  The verdict
    is "not_kahler", "caveat" (it would fire, but the kernel hypothesis of
    E was not verified), "inconclusive" or "consistent"; notes holds the
    base genus and maximality when they were consulted, and the reason for
    an inconclusive verdict.
    """
    if cls.verdict != "non_torsion":
        return "consistent", {}
    genus = surface_genus(E.base)
    if genus is None or genus < 2:
        return "inconclusive", {
            "reason": "non-torsion class, but the base is not a surface "
                      "presentation of genus >= 2"}
    if maximality_asserted:
        maximality = "asserted"
    elif h1(E.total).rank == 2 * genus:
        maximality = "automatic (b1 = 2g caps the genus)"
    else:
        return "inconclusive", {
            "base_surface_genus": genus, "maximality": None,
            "reason": "non-torsion class over a surface base, but maximality "
                      "is not established; pass --assert-maximal if it holds"}
    notes = {"base_surface_genus": genus, "maximality": maximality}
    return ("caveat" if cls.kernel_caveat else "not_kahler"), notes


@dataclass(frozen=True)
class SurfaceMapReport:
    """The surface-base obstruction for a surjection onto a surface group,
    with maximality and verdict as surface_base_verdict gives them
    (maximality is None unless it was consulted and established)."""

    genus: int
    h1_surjective: bool
    ext_class: object            # ExtensionClass
    maximality: object           # "asserted" | "automatic (...)" | None
    verdict: str                 # "not_kahler" | "caveat" | "inconclusive"
                                 # | "consistent"

    @property
    def obstructed(self):
        return self.verdict == "not_kahler"


def maximal_surface_map_check(h, central_names, maximality_asserted=False):
    """Obstruction for a surjection of a presented group onto a surface
    group of genus >= 2.

    Requires the source presented as a central extension whose base is the
    standard surface presentation and the map the canonical projection;
    the map is verified exactly with Dehn's algorithm and surjectivity is
    certified at the H1 level.  The verdict is surface_base_verdict's.
    """
    g = surface_genus(h.target)
    if g is None or g < 2:
        raise ValueError("target must be a standard surface presentation "
                         "of genus >= 2")
    verified = verify_hom(h, EXACT)

    E = recognize_extension(h.source, central_names)
    if surface_genus(E.base) != g:
        raise ExtensionShapeError(
            "source does not present a central extension over the "
            "genus-%d surface group" % g)
    base_positions = [i for i in range(h.source.num_generators)
                      if i not in set(E.central_indices)]
    for pos, i in enumerate(base_positions):
        if verified.images[i] != Word(((pos, 1),)):
            raise ExtensionShapeError(
                "map is not the canonical projection: generator %s"
                % h.source.generator_names[i])
    for i in E.central_indices:
        if not verified.images[i].is_identity():
            raise ExtensionShapeError(
                "central generator %s has a nontrivial image"
                % h.source.generator_names[i])

    M = verified.induced_h1_matrix()
    h1_onto = cokernel(M).is_trivial()
    if not h1_onto:
        raise ValueError("map is not surjective on H1; not a surjection "
                         "onto the surface group")

    cls = class_and_torsion(E)
    verdict, notes = surface_base_verdict(E, cls, maximality_asserted)
    return SurfaceMapReport(genus=g, h1_surjective=h1_onto, ext_class=cls,
                            maximality=notes.get("maximality"),
                            verdict=verdict)
