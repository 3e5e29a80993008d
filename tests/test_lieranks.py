import gc
import random
import weakref
from fractions import Fraction

import pytest

from kahlercheck.intlinalg import QSpace
from kahlercheck.lieranks import (BudgetExceededError, TruncatedSeries,
                                  build_quotient_algebra, derived_image_check,
                                  formality_test, holonomy_ranks, lcs_ranks,
                                  magnus_expansion, magnus_minus_one,
                                  malcev_map, strictness_check)
from kahlercheck.presentation import (EXACT, IN_NILPOTENT, GroupHom,
                                      VerificationError, Word, compose,
                                      free_reduce, parse_presentation,
                                      parse_word_in, verify_hom)

from _oracles import letterwise_magnus, random_word, witt


def exact_hom(source, target, images):
    h = GroupHom(source=source, target=target,
                 images=tuple(parse_word_in(target, w) for w in images))
    return verify_hom(h, EXACT)


# ---------------------------------------------------------------------------
# Magnus expansions


def test_quotient_algebra_is_built_once_per_presentation():
    text = "gens: x,y,c; rels: [x,y]c^-1, [x,c], [y,c];"
    p = parse_presentation(text)
    alg = build_quotient_algebra(p, 3)
    assert build_quotient_algebra(p, 3) is alg
    assert build_quotient_algebra(p, 2) is not alg
    # a stored algebra still answers to the budget, as a fresh build does
    with pytest.raises(BudgetExceededError) as stored:
        build_quotient_algebra(p, 3, dim_budget=10)
    with pytest.raises(BudgetExceededError) as fresh:
        build_quotient_algebra(parse_presentation(text), 3, dim_budget=10)
    assert (stored.value.required, stored.value.budget) == (40, 10)
    assert stored.value.args == fresh.value.args
    assert build_quotient_algebra(p, 3) is alg


def test_kept_algebra_dies_with_its_presentation():
    # no reference cycle: reference counting alone frees the presentation
    # and what its memo keeps
    p = parse_presentation("gens: x,y; rels: [x,y];")
    alg = weakref.ref(build_quotient_algebra(p, 3))
    gc.disable()
    try:
        del p
        assert alg() is None
    finally:
        gc.enable()


def test_magnus_single_letter(pool):
    s = magnus_expansion(parse_word_in(pool["free2"], "x"), 2, 2)
    assert s.coeffs == {(): 1, (0,): 1}


def test_magnus_commutator_degree2(pool):
    # expand (1+x)(1+y)(1-x+x^2)(1-y+y^2) and truncate
    s = magnus_expansion(parse_word_in(pool["free2"], "[x,y]"), 2, 2)
    assert s.coeffs == {(): 1, (0, 1): 1, (1, 0): -1}


def test_magnus_cancellation(pool):
    s = magnus_expansion(parse_word_in(pool["free2"], "x x^-1"), 3, 2)
    assert s.coeffs == {(): 1}


def test_magnus_multiplicative(pool):
    rng = random.Random(17)
    for _ in range(25):
        u = random_word(rng, 2, rng.randint(0, 6))
        v = random_word(rng, 2, rng.randint(0, 6))
        d = rng.randint(1, 3)
        lhs = magnus_expansion(u * v, d, 2)
        rhs = magnus_expansion(u, d, 2).mul(magnus_expansion(v, d, 2))
        assert lhs.coeffs == rhs.coeffs


def random_syllable_word(rng, num_gens, syllables, max_exponent):
    letters = []
    for _ in range(syllables):
        g = rng.randrange(num_gens)
        k = rng.choice((1, -1)) * rng.randint(1, max_exponent)
        letters += [(g, 1 if k > 0 else -1)] * abs(k)
    return free_reduce(letters)


def test_magnus_matches_letterwise_product():
    rng = random.Random(29)
    words = [(parse_word_in(parse_presentation("gens: x; rels: ;"), w), 1)
             for w in ("x^60", "x^-60", "x^-1", "x^2 x^-1")]
    for _ in range(40):
        g = rng.randint(1, 4)
        words.append((random_syllable_word(rng, g, rng.randint(0, 4), 60), g))
    for w, g in words:
        for degree in range(1, 6):
            s = magnus_expansion(w, degree, g)
            assert s.degree_bound == degree
            assert s.coeffs == letterwise_magnus(w.letters, degree), w
            assert all(type(c) is Fraction for c in s.coeffs.values())


def test_magnus_degree1_is_exponent_vector(pool):
    rng = random.Random(23)
    for _ in range(20):
        w = random_word(rng, 3, rng.randint(0, 8))
        s = magnus_expansion(w, 2, 3)
        vec = w.exponent_vector(3)
        for i in range(3):
            assert s.coeffs.get((i,), 0) == vec[i]


# ---------------------------------------------------------------------------
# quotient algebras


def test_free_quotient_dims(pool):
    alg = build_quotient_algebra(pool["free2"], 3)
    assert alg.graded_dims == [1, 2, 4, 8]


def test_z2_quotient_dims(pool):
    alg = build_quotient_algebra(pool["z2"], 2)
    assert alg.graded_dims == [1, 2, 3]


def test_heisenberg_degree3_brackets_die(pool):
    alg = build_quotient_algebra(pool["heisenberg"], 3)
    assert alg.lie_ranks[3] == 0


def test_budget_error(pool):
    with pytest.raises(BudgetExceededError):
        build_quotient_algebra(pool["free2"], 3, dim_budget=10)


def test_element_triviality(pool):
    g2 = pool["gamma2"]
    alg = build_quotient_algebra(g2, 3)
    rel = g2.relators[0]
    assert alg.element_is_trivial(rel)
    assert not alg.element_is_trivial(parse_word_in(g2, "a1"))
    assert not alg.element_is_trivial(parse_word_in(g2, "[a1,a2]"))


# ---------------------------------------------------------------------------
# graded ranks


def test_lcs_free_groups_match_witt():
    for g in (2, 3, 4):
        names = ", ".join("x%d" % i for i in range(g))
        p = parse_presentation("gens: %s; rels: ;" % names)
        ranks = lcs_ranks(p, 4)
        for n, r in enumerate(ranks.ranks, start=1):
            assert r == witt(g, n), (g, n)


def test_free_quotient_dims_are_powers():
    for g in (2, 3):
        names = ", ".join("x%d" % i for i in range(g))
        p = parse_presentation("gens: %s; rels: ;" % names)
        alg = build_quotient_algebra(p, 3)
        assert alg.graded_dims == [g ** n for n in range(4)]


def test_lcs_examples(pool):
    assert lcs_ranks(pool["free2"], 4).ranks == (2, 1, 2, 3)
    assert lcs_ranks(pool["heisenberg"], 4).ranks == (2, 1, 0, 0)
    for n in (2, 3, 4):
        names = ", ".join("x%d" % i for i in range(n))
        rels = ", ".join("[x%d,x%d]" % (i, j)
                         for i in range(n) for j in range(i + 1, n))
        p = parse_presentation("gens: %s; rels: %s;" % (names, rels))
        assert lcs_ranks(p, 3).ranks == (n, 0, 0)


def test_holonomy_examples(pool):
    # Heisenberg: cup product vanishes, so the quadratic model is free
    assert holonomy_ranks(pool["heisenberg"], 3).ranks == \
        tuple(witt(2, n) for n in (1, 2, 3))
    assert holonomy_ranks(pool["gamma2"], 2).ranks == (4, 5)
    g3 = parse_presentation(
        "gens: a1,a2,a3,a4,a5,a6; rels: [a1,a4][a2,a5][a3,a6];")
    assert holonomy_ranks(g3, 2).ranks == (6, 14)
    assert holonomy_ranks(pool["z2"], 3).ranks == (2, 0, 0)


def test_degree_one_two_agreement(pool):
    from kahlercheck.homology import h1
    for name, p in pool.items():
        lcs = lcs_ranks(p, 2)
        hol = holonomy_ranks(p, 2)
        assert lcs[1] == hol[1] == h1(p).rank, name
        assert lcs[2] == hol[2], name


def test_formality_heisenberg(pool):
    rep = formality_test(pool["heisenberg"], 3)
    assert rep.obstructed and rep.witness_degree == 3
    assert rep.lcs[3] == 0 and rep.holonomy[3] == 2


def test_formality_surface_and_abelian(pool):
    assert formality_test(pool["gamma2"], 3).consistent
    assert formality_test(pool["z4"], 4).consistent
    assert formality_test(pool["free2"], 4).consistent


def test_formality_needs_degree3(pool):
    with pytest.raises(ValueError):
        formality_test(pool["z2"], 2)


# ---------------------------------------------------------------------------
# induced maps


def test_malcev_identity(pool):
    free2 = pool["free2"]
    ident = exact_hom(free2, free2, ["x", "y"])
    rep = malcev_map(ident, 3)
    for n, matrix in rep.graded_matrices.items():
        size = rep.source_ranks[n]
        assert matrix == [[1 if i == j else 0 for j in range(size)]
                          for i in range(size)]


def test_malcev_heisenberg_abelianization(pool):
    h = GroupHom(source=pool["heisenberg"], target=pool["z2"],
                 images=(parse_word_in(pool["z2"], "x"),
                         parse_word_in(pool["z2"], "y"), Word()))
    h = verify_hom(h, IN_NILPOTENT, 2)
    rep = malcev_map(h, 2)
    m1 = rep.graded_matrices[1]
    assert len(m1) == 2 and len(m1[0]) == 2
    from kahlercheck.intlinalg import rational_rank
    assert rational_rank([[Fraction(x) for x in row] for row in m1]) == 2
    assert rep.graded_matrices[2] == []  # target has no degree-2 part
    assert rep.nonzero_degrees == (1,)


def test_malcev_deep_image(pool):
    free2 = pool["free2"]
    h = exact_hom(free2, free2, ["[x,y]", "1"])
    rep = malcev_map(h, 3)
    assert all(all(x == 0 for x in row)
               for row in rep.graded_matrices[1])
    assert 2 in rep.nonzero_degrees
    assert 1 not in rep.nonzero_degrees


def test_malcev_requires_verification(pool):
    h_raw = GroupHom(source=pool["free2"], target=pool["free2"],
                     images=(parse_word_in(pool["free2"], "x"),
                             parse_word_in(pool["free2"], "y")))
    with pytest.raises(VerificationError):
        malcev_map(h_raw, 2)


def test_malcev_composition(pool):
    rng = random.Random(31)
    free2 = pool["free2"]
    for _ in range(8):
        f = exact_hom(free2, free2,
                      [_word_str(random_word(rng, 2, 3)),
                       _word_str(random_word(rng, 2, 3))])
        g = exact_hom(free2, free2,
                      [_word_str(random_word(rng, 2, 3)),
                       _word_str(random_word(rng, 2, 3))])
        gf = verify_hom(compose(g, f), EXACT)
        d = 3
        rf = malcev_map(f, d)
        rg = malcev_map(g, d)
        rgf = malcev_map(gf, d)
        for n in range(1, d + 1):
            assert rgf.graded_matrices[n] == _matmul(rg.graded_matrices[n],
                                                     rf.graded_matrices[n])


def _word_str(w):
    parts = []
    for g, e in w.letters:
        name = "xy"[g]
        parts.append(name if e == 1 else name + "^-1")
    return " ".join(parts) if parts else "1"


def _matmul(a, b):
    if not a or not b:
        return [[0] * len(b[0]) for _ in a] if a and b else a if not b else a
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_strictness_identity_and_failure(pool):
    free2 = pool["free2"]
    ident = exact_hom(free2, free2, ["x", "y"])
    assert not strictness_check(ident, 3).obstructed
    deep = exact_hom(free2, free2, ["[x,y]", "1"])
    rep = strictness_check(deep, 2)
    assert rep.failures == (2,)
    assert rep.image_dims[2] == 0 and rep.intersection_dims[2] == 1


def test_strictness_heisenberg_abelianization(pool):
    h = GroupHom(source=pool["heisenberg"], target=pool["z2"],
                 images=(parse_word_in(pool["z2"], "x"),
                         parse_word_in(pool["z2"], "y"), Word()))
    h = verify_hom(h, IN_NILPOTENT, 2)
    assert not strictness_check(h, 2).obstructed


def test_derived_image_check(pool):
    free2 = pool["free2"]
    deep = exact_hom(free2, free2, ["[x,y]", "1"])
    rep = derived_image_check(deep, 2)
    assert rep.obstructed and rep.witness_degree == 2
    shallow = exact_hom(free2, free2, ["x", "1"])
    rep = derived_image_check(shallow, 2)
    assert not rep.obstructed and not rep.image_in_derived_subgroup
    trivial = exact_hom(free2, free2, ["1", "1"])
    rep = derived_image_check(trivial, 2)
    assert not rep.obstructed and not rep.map_nonzero


def test_series_arithmetic():
    a = TruncatedSeries(2, {(): Fraction(1), (0,): Fraction(2)})
    b = TruncatedSeries(2, {(0,): Fraction(1), (0, 1): Fraction(3)})
    prod = a.mul(b)
    assert prod.coeffs == {(0,): 1, (0, 1): 3, (0, 0): 2}
    assert a.valuation() == 0
    assert magnus_minus_one(Word(), 3, 2).valuation() is None


PRODUCT_TEXT = """
group prod { gens: a1,a2,a3,a4,u,v;
  rels: [a1,a3][a2,a4], [u,v],
        [a1,u],[a2,u],[a3,u],[a4,u],
        [a1,v],[a2,v],[a3,v],[a4,v]; }
group gamma2 { gens: a1,a2,a3,a4; rels: [a1,a3][a2,a4]; }
hom proj : prod -> gamma2 { a1 => a1, a2 => a2, a3 => a3, a4 => a4,
                            u => 1, v => 1 }
hom incl : gamma2 -> prod { a1 => a1, a2 => a2, a3 => a3, a4 => a4 }
"""


def test_strictness_of_product_projection_and_inclusion():
    # projections and slice inclusions of products come from holomorphic
    # maps, so both must strictly preserve the filtration
    from kahlercheck.presentation import parse_file
    parsed = parse_file(PRODUCT_TEXT)
    proj = verify_hom(parsed.homs["proj"], EXACT)
    assert not strictness_check(proj, 3).obstructed
    incl = verify_hom(parsed.homs["incl"], IN_NILPOTENT, 3)
    assert not strictness_check(incl, 3).obstructed
    assert not derived_image_check(incl, 3).obstructed


def test_strictness_failure_with_central_target(pool):
    # x -> x, y -> c: the image meets filtration level 2 in the center,
    # which no product of two image factors reaches
    heis = pool["heisenberg"]
    h = GroupHom(source=pool["free2"], target=heis,
                 images=(parse_word_in(heis, "x"), parse_word_in(heis, "c")))
    h = verify_hom(h, IN_NILPOTENT, 2)
    rep = strictness_check(h, 2)
    assert rep.failures == (2,)
    assert rep.image_dims[2] < rep.intersection_dims[2]


def dense_strictness_dims(h, degree):
    """(image_dims, intersection_dims) by the dense formula: spans of
    products of image factors as subspaces of Q^monomials, intersected
    with the span of the monomials of degree >= n."""
    tgt = build_quotient_algebra(h.target, degree)
    width = tgt.table.total

    def dense(vec):
        out = [0] * width
        for k, c in vec.items():
            out[k] = c
        return out

    factors = [tgt.nf(magnus_minus_one(w, degree, tgt.num_gens))
               for img in h.images for w in (img, img.inverse())]
    levels = [factors]
    for _ in range(2, degree + 1):
        span, level = QSpace(width), []
        for u in levels[-1]:
            for f in factors:
                prod = tgt.multiply_nf(u, f)
                if span.add(dense(prod)):
                    level.append(prod)
        levels.append(level)
    full = QSpace.from_rows(width, [dense(v) for lv in levels for v in lv])
    image_dims, inter_dims = {}, {}
    for n in range(1, degree + 1):
        lhs = QSpace.from_rows(width,
                               [dense(v) for lv in levels[n - 1:] for v in lv])
        fn = QSpace.from_rows(width, [dense({k: 1}) for k in range(width)
                                      if tgt.table.degree_of(k) >= n])
        image_dims[n] = lhs.dim
        inter_dims[n] = QSpace.intersection(full, fn).dim
    return image_dims, inter_dims


def test_strictness_dims_match_dense_intersection(pool):
    # the pivot count must agree with intersecting the image span with the
    # valuation filtration on the product, inclusion and central-target maps
    from kahlercheck.presentation import parse_file
    parsed = parse_file(PRODUCT_TEXT)
    heis = pool["heisenberg"]
    central = GroupHom(source=pool["free2"], target=heis,
                       images=(parse_word_in(heis, "x"),
                               parse_word_in(heis, "c")))
    cases = [(verify_hom(parsed.homs["proj"], EXACT), 3),
             (verify_hom(parsed.homs["incl"], IN_NILPOTENT, 3), 3),
             (verify_hom(central, IN_NILPOTENT, 2), 2)]
    for h, degree in cases:
        rep = strictness_check(h, degree)
        assert ((rep.image_dims, rep.intersection_dims)
                == dense_strictness_dims(h, degree)), h.name


def test_identity_strict_on_relator_groups(pool):
    for name in ("z2", "heisenberg", "gamma2"):
        p = pool[name]
        images = tuple(Word(((i, 1),)) for i in range(p.num_generators))
        ident = verify_hom(GroupHom(source=p, target=p, images=images),
                           IN_NILPOTENT, 3)
        assert not strictness_check(ident, 3).obstructed, name


def test_magnus_is_group_like(pool):
    # expansions of group elements have constant term 1, and inverse words
    # expand to the series inverse
    rng = random.Random(8)
    for _ in range(15):
        w = random_word(rng, 2, rng.randint(0, 8))
        s = magnus_expansion(w, 3, 2)
        assert s.constant_term() == 1
        prod = s.mul(magnus_expansion(w.inverse(), 3, 2))
        assert prod.coeffs == {(): Fraction(1)}
