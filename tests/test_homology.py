import random
from fractions import Fraction

import pytest

from kahlercheck.homology import (TwoCochainClass, cup_injectivity_check,
                                  cup_product, h1, h1_cocycle_basis,
                                  h1_parity_check, one_cocycle)
from kahlercheck.presentation import (EXACT, GroupHom, VerificationError,
                                      compose, parse_presentation,
                                      parse_word_in, verify_hom)


def hom(source, target, images):
    h = GroupHom(source=source, target=target,
                 images=tuple(parse_word_in(target, w) for w in images))
    return verify_hom(h, EXACT)


# ---------------------------------------------------------------------------
# H1


def test_h1_examples(pool):
    assert h1(pool["heisenberg"]).rank == 2
    z5 = parse_presentation(
        "gens: a,b,c,d,e; rels: [a,b],[a,c],[a,d],[a,e],[b,c],[b,d],[b,e],"
        "[c,d],[c,e],[d,e];")
    assert h1(z5).rank == 5
    g3 = parse_presentation("gens: a1,a2,a3,a4,a5,a6; rels: [a1,a4][a2,a5][a3,a6];")
    assert h1(g3).rank == 6


# ---------------------------------------------------------------------------
# parity of induced maps


def test_parity_example_composition(pool):
    z2, z4 = pool["z2"], pool["z4"]
    p = hom(z2, z4, ["a", "b"])
    q = hom(z4, z2, ["x", "1", "y", "1"])
    qp = verify_hom(compose(q, p), EXACT)
    rep = h1_parity_check(qp)
    assert (rep.rank_image, rep.rank_kernel, rep.rank_cokernel) == (1, 1, 1)
    assert rep.obstructed
    rep_p = h1_parity_check(p)
    assert (rep_p.rank_image, rep_p.rank_kernel, rep_p.rank_cokernel) == (2, 0, 2)
    assert not rep_p.obstructed
    rep_q = h1_parity_check(q)
    assert (rep_q.rank_image, rep_q.rank_kernel, rep_q.rank_cokernel) == (2, 2, 0)
    assert not rep_q.obstructed


def test_parity_identity_surface(pool):
    g2 = pool["gamma2"]
    ident = hom(g2, g2, ["a1", "a2", "a3", "a4"])
    rep = h1_parity_check(ident)
    assert (rep.rank_image, rep.rank_kernel, rep.rank_cokernel) == (4, 0, 0)


def test_parity_requires_verification(pool):
    h_raw = GroupHom(source=pool["z2"], target=pool["z2"],
                     images=(parse_word_in(pool["z2"], "x"),
                             parse_word_in(pool["z2"], "y")))
    with pytest.raises(VerificationError):
        h1_parity_check(h_raw)


def test_parity_composition_rank_bound(pool):
    rng = random.Random(21)
    z2 = pool["z2"]
    for _ in range(20):
        def rand_hom():
            imgs = []
            for _ in range(2):
                word = ""
                for _ in range(rng.randint(0, 3)):
                    word += rng.choice(["x", "y", "x^-1", "y^-1"]) + " "
                imgs.append(word.strip() or "1")
            return hom(z2, z2, imgs)
        f, g = rand_hom(), rand_hom()
        gf = verify_hom(compose(g, f), EXACT)
        r = h1_parity_check(gf)
        assert r.rank_image <= min(h1_parity_check(f).rank_image,
                                   h1_parity_check(g).rank_image)


# ---------------------------------------------------------------------------
# cup products


def test_cup_z2(pool):
    z2 = pool["z2"]
    a = one_cocycle(z2, [1, 0])
    b = one_cocycle(z2, [0, 1])
    assert cup_product(z2, a, b).values == (Fraction(1),)
    assert cup_product(z2, b, a).values == (Fraction(-1),)


def test_cup_surface(pool):
    g2 = pool["gamma2"]
    a1 = one_cocycle(g2, [1, 0, 0, 0])
    a2 = one_cocycle(g2, [0, 1, 0, 0])
    a3 = one_cocycle(g2, [0, 0, 1, 0])
    assert cup_product(g2, a1, a3).values == (Fraction(1),)
    assert cup_product(g2, a1, a2).values == (Fraction(0),)


def test_cup_self_is_zero_class(pool):
    for name in ("z2", "gamma2", "heisenberg", "z4"):
        p = pool[name]
        for alpha in h1_cocycle_basis(p):
            assert cup_product(p, alpha, alpha).is_zero(), name


def test_cup_bilinear_and_antisymmetric_classes(pool):
    rng = random.Random(5)
    for name in ("z2", "gamma2", "heisenberg_rank5"):
        p = pool[name]
        basis = h1_cocycle_basis(p)
        if len(basis) < 2:
            continue
        for _ in range(6):
            def rand_cocycle():
                coeffs = [Fraction(rng.randint(-2, 2)) for _ in basis]
                vals = [sum(c * b.values[i] for c, b in zip(coeffs, basis))
                        for i in range(p.num_generators)]
                return one_cocycle(p, vals)
            a, b, c = rand_cocycle(), rand_cocycle(), rand_cocycle()
            ab = cup_product(p, a, b)
            ba = cup_product(p, b, a)
            neg = TwoCochainClass(p, tuple(-v for v in ba.values))
            assert ab.same_class(neg)
            sum_vals = tuple(x + y for x, y in
                             zip(cup_product(p, a, c).values,
                                 cup_product(p, b, c).values))
            combined = one_cocycle(p, [x + y for x, y in
                                       zip(a.values, b.values)])
            assert cup_product(p, combined, c).values == sum_vals


def test_cocycle_condition_enforced(pool):
    with pytest.raises(ValueError):
        one_cocycle(pool["cyclic3"], [1])
    for p in pool.values():
        A = p.exponent_matrix()
        for alpha in h1_cocycle_basis(p):
            for i in range(A.rows):
                assert sum(Fraction(A[i, j]) * alpha.values[j]
                           for j in range(A.cols)) == 0


# ---------------------------------------------------------------------------
# cup injectivity


def test_cup_injectivity_surface(pool):
    rep = cup_injectivity_check(pool["gamma2"])
    assert not rep.injective
    assert len(rep.kernel_basis) == 5  # wedge square is 6-dim, target 1-dim


def test_cup_injectivity_z4(pool):
    assert cup_injectivity_check(pool["z4"]).injective


def test_cup_injectivity_heisenberg(pool):
    rep = cup_injectivity_check(pool["heisenberg"])
    assert not rep.injective
    assert len(rep.kernel_basis) == 1  # the single wedge class dies


def test_cup_injectivity_rank5_kernel(pool):
    # computed kernel: x1* ^ y1* + x2* ^ y2* (see the decisions ledger for
    # why this differs in sign from a published example sketch)
    rep = cup_injectivity_check(pool["heisenberg_rank5"])
    assert not rep.injective
    assert len(rep.kernel_basis) == 1
    vec = rep.kernel_basis[0]
    coeffs = dict(zip(rep.wedge_pairs, vec))
    basis_vals = [c.values for c in rep.cocycle_basis]
    # cocycle basis is x1*, y1*, x2*, y2* in order (c-column is killed)
    assert basis_vals[0][:4] == (1, 0, 0, 0)
    pair_01 = coeffs[(0, 1)]
    pair_23 = coeffs[(2, 3)]
    assert pair_01 == pair_23 != 0
    for pair, value in coeffs.items():
        if pair not in ((0, 1), (2, 3)):
            assert value == 0
