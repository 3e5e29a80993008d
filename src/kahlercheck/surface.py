"""Surface groups, orbifold surface groups, and Dehn's algorithm.

The genus-g surface group has the single relator
[a_1, a_{g+1}] ... [a_g, a_{2g}].  For g >= 2 two different rotations of
the relator or its inverse begin alike in at most one letter, far below a
sixth of its length 4g, so by small cancellation a nonempty cyclically
reduced trivial word has a cyclic subword that is more than half of a
rotation (Lyndon-Schupp V.4), and Dehn's algorithm decides the word problem.

Orbifold surface groups add cone generators q_i with q_i^{m_i} = 1 and the
cone product appended to the surface relator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extensions import (ExtensionShapeError, class_and_torsion,
                         recognize_extension)
from .homology import h1
from .intlinalg import IntMatrix, cokernel
from .presentation import (EXACT, Word, _surface_relator, build_presentation,
                           surface_genus, verify_hom)


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

    A piece is 2g+1 letters of a rotation of the relator R or R^-1: more
    than half, and the inverse of the rest of the rotation.  The letters of
    the cyclically reduced word go onto a stack, cancelling against the
    top, and a piece on top is replaced by that shorter inverse.  The
    cyclic tail moves letters from the front to the back the same way until
    2g moves in a row change nothing: every window across the ends has been
    on top, so the cyclic word is reduced with no piece and, by Dehn's
    theorem, trivial only if it is empty.  At most 2g moves lie between two
    shortenings, so the run is linear (Domanski-Anshel 1985).

    >>> w = Word(_surface_relator(2)) ** 3
    >>> dehn_trivial(2, w), dehn_trivial(2, w * Word(((0, 1),)))
    (True, False)
    """
    if g < 2:
        raise ValueError("Dehn's algorithm needs genus >= 2")
    width = 2 * g + 1
    # a_i^e as the int 2i + (e < 0), so that x ^ 1 is the inverse of x
    code = {(i, e): 2 * i + (e < 0) for i in range(2 * g) for e in (1, -1)}
    if not code.keys() >= set(word.letters):
        raise ValueError("letter outside a1..a%d" % (2 * g))
    relator = [code[x] for x in _surface_relator(g)]
    pieces = [[] for _ in code]  # each letter begins one of R, one of R^-1
    for rel in (relator, [x ^ 1 for x in reversed(relator)]):
        doubled = rel + rel
        for s, x in enumerate(rel):
            # the rest inverted, in the order the pending stack pops it
            rest = [y ^ 1 for y in doubled[s + width:s + len(rel)]]
            pieces[x].append((doubled[s:s + width], rest))
    stack = []

    def push(pending, floor):
        """Push the pending letters, last first, on the stack above floor."""
        while pending:
            x = pending.pop()
            if len(stack) > floor and stack[-1] == x ^ 1:
                stack.pop()
                continue
            stack.append(x)
            if len(stack) - floor >= width:
                for piece, rest in pieces[stack[-width]]:
                    if x == piece[-1] and stack[-width:] == piece:
                        del stack[-width:]
                        pending += rest
                        break

    push([code[x] for x in reversed(word.cyclically_reduced().letters)], 0)
    head = quiet = 0  # the word is stack[head:]; a change shortens it
    while quiet < 2 * g and head < len(stack):
        size = len(stack) - head
        head += 1
        push([stack[head - 1]], head)
        quiet = quiet + 1 if len(stack) - head == size else 0
    return head == len(stack)


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
    for pos, i in enumerate(E.base_indices):
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
