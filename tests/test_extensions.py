import random

import pytest

from kahlercheck.extensions import (ExtensionShapeError, VERDICT_NON_TORSION,
                                    VERDICT_TORSION, VERDICT_ZERO,
                                    abelianization_obstruction,
                                    canonical_class2_extension,
                                    class_and_torsion, pushout_extension,
                                    recognize_extension, section_search)
from kahlercheck.intlinalg import smith_normal_form
from kahlercheck.presentation import (parse_presentation, surface_genus,
                                      word_str)

from _oracles import random_word


def build_extension_text(base_names, base_relator_strs, lifts, k=1):
    """Presentation text for a central extension with k central generators:
    base relators pick up c^{-v}, all centrality relators included."""
    central = ["cz%d" % (l + 1) for l in range(k)]
    names = list(base_names) + central
    rels = []
    for rel, v in zip(base_relator_strs, lifts):
        suffix = "".join(" %s^%d" % (central[l], -v[l])
                         for l in range(k) if v[l])
        rels.append(rel + suffix)
    for g in base_names:
        for c in central:
            rels.append("[%s,%s]" % (g, c))
    for i in range(k):
        for j in range(i + 1, k):
            rels.append("[%s,%s]" % (central[i], central[j]))
    text = "gens: %s; rels: %s;" % (", ".join(names), ", ".join(rels))
    return parse_presentation(text), central


# ---------------------------------------------------------------------------
# recognition


def test_recognize_intro(pool):
    E = recognize_extension(pool["intro"], ["c"])
    assert surface_genus(E.base) == 2
    assert E.lift_vectors == ((1,),)
    assert E.base_exponent_matrix.to_rows() == [[0, 0, 0, 0]]
    assert E.kernel_hypothesis_verified


def test_recognize_heisenberg(pool):
    E = recognize_extension(pool["heisenberg"], ["c"])
    assert E.base.generator_names == ("x", "y")
    assert word_str(E.base, E.base.relators[0]) == "x y x^-1 y^-1"
    assert E.lift_vectors == ((1,),)
    assert E.kernel_hypothesis_verified


def test_recognize_split_product():
    p = parse_presentation(
        "gens: a1,a2,a3,a4,c; rels: [a1,a3][a2,a4], [a1,c],[a2,c],[a3,c],[a4,c];")
    E = recognize_extension(p, ["c"])
    assert E.lift_vectors == ((0,),)
    assert class_and_torsion(E).verdict == VERDICT_ZERO


def test_recognize_missing_centrality():
    p = parse_presentation("gens: x,y,c; rels: [x,y]c^-1, [x,c];")
    with pytest.raises(ExtensionShapeError, match="missing centrality"):
        recognize_extension(p, ["c"])


def test_recognize_central_relation_rejected():
    p = parse_presentation("gens: x,c; rels: [x,c], c^3;")
    with pytest.raises(ExtensionShapeError, match="relation among the central"):
        recognize_extension(p, ["c"])


def test_kernel_hypothesis_failure_is_recorded():
    # both relators force c = [x,y] = d, so the claimed rank-2 kernel is
    # really rank 1; the class-2 check must notice
    p = parse_presentation(
        "gens: x,y,c,d; rels: [x,y]c^-1, [x,y]d^-1, "
        "[x,c],[y,c],[x,d],[y,d],[c,d];")
    E = recognize_extension(p, ["c", "d"])
    assert not E.kernel_hypothesis_verified
    cls = class_and_torsion(E)
    assert cls.kernel_caveat


def test_recognize_interleaved_central_letters():
    # central letters sprinkled through the relator recognize the same way
    a = parse_presentation("gens: x,y,c; rels: x c y x^-1 y^-1, [x,c],[y,c];")
    b = parse_presentation("gens: x,y,c; rels: [x,y]c, [x,c],[y,c];")
    Ea = recognize_extension(a, ["c"])
    Eb = recognize_extension(b, ["c"])
    assert Ea.lift_vectors == Eb.lift_vectors == ((-1,),)
    assert Ea.base.relators == Eb.base.relators


# ---------------------------------------------------------------------------
# class verdicts


def test_intro_class_non_torsion(pool):
    cls = class_and_torsion(recognize_extension(pool["intro"], ["c"]))
    assert cls.verdict == VERDICT_NON_TORSION
    assert cls.vectors == ((1,),)


def test_order_two_example():
    p = parse_presentation("gens: x,y,c; rels: x^2 y^-2 c^-1, [x,c], [y,c];")
    E = recognize_extension(p, ["c"])
    assert E.base_exponent_matrix.to_rows() == [[2, -2]]
    cls = class_and_torsion(E)
    assert cls.verdict == VERDICT_TORSION and cls.order == 2
    assert section_search(E, 1) is None
    witness = section_search(E, 2)
    assert witness is not None
    # A w = -2v: 2*w1 - 2*w2 = -2
    assert 2 * witness[0][0] - 2 * witness[1][0] == -2


def test_non_torsion_certificate_names_the_coordinate():
    # column 0 solves (v = 0); column 1 has no rational solution
    p, central = build_extension_text(["x", "y"], ["[x,y]"], [(0, 1)], k=2)
    cls = class_and_torsion(recognize_extension(p, central))
    assert cls.verdict == VERDICT_NON_TORSION and cls.order == 0
    assert cls.certificate == {"reason": "no rational solution",
                               "coordinate": 1, "rational_solution": None}


def test_surface_base_zero_iff_trivial_lift():
    for v in ((0,), (1,), (-2,)):
        p, central = build_extension_text(
            ["a1", "a2", "a3", "a4"], ["[a1,a3][a2,a4]"], [v])
        cls = class_and_torsion(recognize_extension(p, central))
        if v == (0,):
            assert cls.verdict == VERDICT_ZERO
        else:
            assert cls.verdict == VERDICT_NON_TORSION


def test_redundant_relator_keeps_verdict():
    base_rels = ["x^2 y^-2"]
    p1, central = build_extension_text(["x", "y"], base_rels, [(1,)])
    e1 = class_and_torsion(recognize_extension(p1, central))
    # duplicating a base relator (same lift) adds no information
    p2, central = build_extension_text(["x", "y"], base_rels * 2,
                                       [(1,), (1,)])
    e2 = class_and_torsion(recognize_extension(p2, central))
    assert (e1.verdict, e1.order) == (e2.verdict, e2.order)


# ---------------------------------------------------------------------------
# pushouts and sections


def test_pushout_intro(pool):
    E = recognize_extension(pool["intro"], ["c"])
    h2 = pushout_extension(E, 2)
    assert word_str(h2, h2.relators[0]).endswith("c^-2")
    assert pushout_extension(E, 1).same_presentation(pool["intro"])
    E2 = recognize_extension(h2, ["c"])
    assert E2.lift_vectors == ((2,),)


def test_pushout_recovers_scaled_lifts():
    rng = random.Random(43)
    for _ in range(10):
        p, central = build_extension_text(
            ["x", "y"],
            [_relator_str(random_word(rng, 2, rng.randint(1, 6)))],
            [(rng.randint(-2, 2),)])
        E = recognize_extension(p, central)
        n = rng.randint(1, 4)
        En = recognize_extension(pushout_extension(E, n), central)
        assert En.lift_vectors == tuple(tuple(n * x for x in v)
                                        for v in E.lift_vectors)


def test_split_pushout_unchanged(pool):
    p = parse_presentation(
        "gens: a1,a2,a3,a4,c; rels: [a1,a3][a2,a4], [a1,c],[a2,c],[a3,c],[a4,c];")
    E = recognize_extension(p, ["c"])
    for n in (1, 2, 5):
        assert pushout_extension(E, n).same_presentation(p)
    assert section_search(E, 1) == [(0,), (0,), (0,), (0,)]


def _relator_str(word):
    parts = []
    for g, e in word.letters:
        name = "xy"[g]
        parts.append(name if e == 1 else name + "^-1")
    return " ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# oracle equivalence of the two torsion criteria


def scan_bound(E):
    snf = smith_normal_form(E.base_exponent_matrix)
    prod = 1
    for d in snf.diagonal:
        if d > 1:
            prod *= d
    return max(1, prod)


@pytest.mark.parametrize("seed", range(24))
def test_class_verdict_matches_section_scan(seed):
    rng = random.Random(1000 + seed)
    num_gens = rng.randint(2, 3)
    names = ["x%d" % i for i in range(num_gens)]
    relators = []
    for _ in range(rng.randint(1, 2)):
        w = random_word(rng, num_gens, rng.randint(2, 6))
        if w.is_identity():
            w = random_word(rng, num_gens, 4)
        parts = []
        for g, e in w.letters:
            parts.append(names[g] if e == 1 else names[g] + "^-1")
        relators.append(" ".join(parts))
    k = rng.choice((1, 1, 2))
    lifts = [tuple(rng.randint(-2, 2) for _ in range(k))
             for _ in relators]
    p, central = build_extension_text(names, relators, lifts, k=k)
    E = recognize_extension(p, central)
    cls = class_and_torsion(E)
    bound = min(scan_bound(E), 36)
    found = {n: section_search(E, n) for n in range(1, bound + 1)}
    first = next((n for n in range(1, bound + 1) if found[n] is not None),
                 None)
    if cls.verdict == VERDICT_ZERO:
        assert first == 1
    elif cls.verdict == VERDICT_TORSION:
        assert first == cls.order
        for n in range(1, bound + 1):
            assert (found[n] is not None) == (n % cls.order == 0)
    else:
        assert first is None
        assert cls.certificate["reason"] == "no rational solution"


# ---------------------------------------------------------------------------
# the canonical class-2 extension


def test_canonical_heisenberg(pool):
    push = canonical_class2_extension(pool["heisenberg"])
    assert push.b1 == 2
    assert push.extension.kernel_rank == 1
    assert push.extension.base_exponent_matrix.to_rows() == [[0, 0]]
    assert push.ext_class.verdict == VERDICT_NON_TORSION
    assert push.conclusive
    v = push.extension.lift_vectors[0][0]
    assert abs(v) == 1


def test_canonical_z4_zero(pool):
    push = canonical_class2_extension(pool["z4"])
    assert push.extension.kernel_rank == 0
    assert push.ext_class.verdict == VERDICT_ZERO
    assert not push.conclusive


def test_canonical_surface_non_torsion(pool):
    push = canonical_class2_extension(pool["gamma2"])
    assert push.extension.kernel_rank == 5
    assert push.ext_class.verdict == VERDICT_NON_TORSION


def test_canonical_total_rerecognizes(pool):
    push = canonical_class2_extension(pool["heisenberg"])
    E = push.extension
    again = recognize_extension(E.total, list(E.central_names))
    assert again.lift_vectors == E.lift_vectors
    assert again.kernel_hypothesis_verified


def test_abelianization_obstruction_table(pool):
    rep = abelianization_obstruction(pool["heisenberg"])
    assert rep.applicable and rep.obstructed and rep.b1 == 2
    rep = abelianization_obstruction(pool["z4"])
    assert rep.applicable and not rep.obstructed
    rep = abelianization_obstruction(pool["gamma2"])
    assert not rep.applicable and rep.cup_injective is False
    rep = abelianization_obstruction(pool["heisenberg_rank5"])
    assert not rep.applicable and rep.cup_injective is False
    rep = abelianization_obstruction(pool["z2"])
    assert rep.applicable and not rep.obstructed
    z5 = parse_presentation(
        "gens: a,b,c,d,e; rels: [a,b],[a,c],[a,d],[a,e],[b,c],[b,d],[b,e],"
        "[c,d],[c,e],[d,e];")
    rep = abelianization_obstruction(z5)
    assert not rep.applicable and rep.b1 == 5


def test_canonical_rationally_abelian_class2():
    # x^2 = y^2 c with c central forces [x, y^2] = 1, so the rational
    # class-2 part is trivial and the pushforward class is zero
    p = parse_presentation("gens: x,y,c; rels: x^2 y^-2 c^-1, [x,c], [y,c];")
    push = canonical_class2_extension(p)
    assert push.extension.kernel_rank == 0
    assert push.ext_class.verdict == VERDICT_ZERO
    assert not push.conclusive


def test_canonical_construction_on_random_presentations():
    # the construction self-checks (lattice rank, integral coordinates,
    # re-recognition); it must go through on arbitrary small inputs
    rng = random.Random(31415)
    built = 0
    tried = 0
    while built < 8 and tried < 200:
        tried += 1
        n = rng.randint(2, 3)
        names = ["g%d" % i for i in range(n)]
        rels = []
        for _ in range(rng.randint(1, 2)):
            w = random_word(rng, n, rng.randint(2, 6))
            if not w.is_identity():
                rels.append(w.cyclically_reduced())
        from kahlercheck.presentation import build_presentation
        p = build_presentation(names, rels, name="rnd")
        push = canonical_class2_extension(p)
        assert (push.extension.kernel_hypothesis_verified
                or push.extension.kernel_rank == 0)
        built += 1
    assert built == 8
