"""Deeper consistency checks that cross independent pipelines.

The graded ranks of the surface group are validated against the PBW
extraction from the known Hilbert series of its enveloping algebra; the
degree-1/2 agreement between the group pipeline (Magnus ideal) and the
quadratic pipeline (cup-product duality) is exercised on random
presentations, as are lcs_n <= hol_n and truncation (the ranks at a lower
degree are the leading ranks at a higher one); and the CLI is re-run in a subprocess with a different
hash seed to confirm reports do not depend on interpreter state.
"""

import json
import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercheck.homology import h1
from kahlercheck.lieranks import holonomy_ranks, lcs_ranks
from kahlercheck.presentation import (build_presentation, free_reduce,
                                      parse_presentation)

from _oracles import bareiss_rank, random_word

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)


def pbw_ranks_from_hilbert(series_coeffs, depth):
    """Invert prod_n (1 - t^n)^(-r_n) = sum a_k t^k for r_1..r_depth."""
    ranks = []
    current = [1] + [0] * depth  # running product of the (1-t^n) factors
    for n in range(1, depth + 1):
        # coefficient of t^n in current * series must equal 0 after
        # removing (1-t^n)^(-r_n); solve for r_n greedily
        conv = sum(current[i] * series_coeffs[n - i] for i in range(n + 1))
        r_n = conv
        ranks.append(r_n)
        # multiply current by (1 - t^n)^(r_n)
        for _ in range(r_n):
            nxt = list(current)
            for k in range(n, depth + 1):
                nxt[k] -= current[k - n]
            current = nxt
    return ranks


def test_pbw_extraction_on_free_group():
    # U(free Lie on g generators) has Hilbert series 1/(1 - g t)
    g = 3
    series = [g ** k for k in range(5)]
    from _oracles import witt
    assert pbw_ranks_from_hilbert(series, 4) == [witt(g, n)
                                                 for n in (1, 2, 3, 4)]


def test_surface_group_ranks_match_hilbert_series():
    # the enveloping algebra of the surface group's graded Lie algebra
    # has Hilbert series 1/(1 - 2g t + t^2)
    g2 = parse_presentation("gens: a1,a2,a3,a4; rels: [a1,a3][a2,a4];")
    depth = 4
    series = [1]
    for k in range(1, depth + 1):
        a1 = series[k - 1]
        a2 = series[k - 2] if k >= 2 else 0
        series.append(4 * a1 - a2)
    expected = pbw_ranks_from_hilbert(series, depth)
    assert expected == [4, 5, 16, 45]
    assert list(lcs_ranks(g2, depth).ranks) == expected
    assert list(holonomy_ranks(g2, depth).ranks) == expected


def test_degree_one_two_agreement_on_random_presentations():
    rng = random.Random(909)
    for _ in range(12):
        n = rng.randint(2, 3)
        names = ["g%d" % i for i in range(n)]
        relators = []
        for _ in range(rng.randint(1, 2)):
            w = random_word(rng, n, rng.randint(2, 6))
            if not w.is_identity():
                relators.append(w.cyclically_reduced())
        p = build_presentation(names, relators, name="random")
        lcs = lcs_ranks(p, 2)
        hol = holonomy_ranks(p, 2)
        assert lcs[1] == hol[1] == h1(p).rank
        assert lcs[2] == hol[2]


@st.composite
def small_presentations(draw):
    """<= 3 generators and <= 2 short relators, freely and cyclically
    reduced (possibly none left)."""
    n = draw(st.integers(min_value=1, max_value=3))
    letter = st.tuples(st.integers(min_value=0, max_value=n - 1),
                       st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=6),
                          max_size=2))
    relators = [w.cyclically_reduced() for w in map(free_reduce, words)]
    return build_presentation(["g%d" % i for i in range(n)],
                              [r for r in relators if not r.is_identity()],
                              name="random")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_presentations(), st.integers(min_value=2, max_value=4))
def test_lcs_ranks_bounded_by_holonomy_and_truncation_compatible(p, degree):
    lcs = lcs_ranks(p, degree)
    hol = holonomy_ranks(p, degree)
    assert all(lcs[n] <= hol[n] for n in range(1, degree + 1))
    for lower in range(1, degree):
        assert lcs_ranks(p, lower).ranks == lcs.ranks[:lower]
        assert holonomy_ranks(p, lower).ranks == hol.ranks[:lower]


def test_reports_stable_across_processes():
    path = os.path.join(ROOT, "inputs", "intro_g2.grp")
    outs = []
    for hashseed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "kahlercheck.cli", "analyze", path,
             "--format", "json"],
            capture_output=True, text=True, env=env, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    json.loads(outs[0])


def test_cyclic_reduction_of_parsed_relators():
    # relators are stored cyclically reduced whatever the input shape
    p = parse_presentation("gens: x,y; rels: x [x,y] x^-1, y x y x^-1 y^-1;")
    for r in p.relators:
        assert r == r.cyclically_reduced()
        assert r == free_reduce(r.letters)


def test_sparse_echelon_is_reduced_and_matches_dense_rank():
    from fractions import Fraction
    from kahlercheck.intlinalg import SparseEchelon

    rng = random.Random(271828)
    for _ in range(25):
        width = rng.randint(3, 8)
        vectors = []
        for _ in range(rng.randint(1, 10)):
            vec = {k: Fraction(rng.randint(-4, 4))
                   for k in rng.sample(range(width), rng.randint(1, width))}
            vectors.append({k: c for k, c in vec.items() if c})
        ech = SparseEchelon()
        for v in vectors:
            ech.insert(v)
        dense = [[Fraction(v.get(k, 0)) for k in range(width)]
                 for v in vectors]
        assert ech.dim == bareiss_rank(dense)
        for p, row in ech.rows.items():
            assert min(row) == p and row[p] == 1
            for q in ech.rows:
                if q != p:
                    assert p not in ech.rows[q]
        # membership and coordinates agree
        for v in vectors:
            coords = ech.coordinates(v)
            assert coords is not None
            rebuilt = {}
            for c, p in zip(coords, ech.pivots()):
                for k, x in ech.rows[p].items():
                    rebuilt[k] = rebuilt.get(k, Fraction(0)) + c * x
            assert {k: c for k, c in rebuilt.items() if c} == v


def test_qspace_intersection_dimension_formula():
    from kahlercheck.intlinalg import QSpace

    rng = random.Random(314159)
    for _ in range(25):
        width = rng.randint(3, 7)

        def rand_space():
            s = QSpace(width)
            for _ in range(rng.randint(0, width)):
                s.add([rng.randint(-3, 3) for _ in range(width)])
            return s

        a, b = rand_space(), rand_space()
        joined = QSpace(width)
        for r in a.basis() + b.basis():
            joined.add(r)
        inter = QSpace.intersection(a, b)
        assert inter.dim == a.dim + b.dim - joined.dim
        for r in inter.basis():
            assert a.contains(r) and b.contains(r)


def test_graded_dims_are_pbw_of_lie_ranks(pool):
    # the graded quotient algebra is the enveloping algebra of the graded
    # Malcev Lie algebra, so its dimension sequence determines the Lie
    # ranks by PBW; elimination and bracket spans must agree
    from kahlercheck.lieranks import build_quotient_algebra

    for name, p in pool.items():
        alg = build_quotient_algebra(p, 3)
        extracted = pbw_ranks_from_hilbert(alg.graded_dims, 3)
        assert extracted == alg.lie_ranks[1:], name
    rng = random.Random(606)
    for _ in range(10):
        n = rng.randint(2, 3)
        names = ["g%d" % i for i in range(n)]
        relators = []
        for _ in range(rng.randint(1, 2)):
            w = random_word(rng, n, rng.randint(2, 6))
            if not w.is_identity():
                relators.append(w.cyclically_reduced())
        p = build_presentation(names, relators, name="random")
        alg = build_quotient_algebra(p, 3)
        assert pbw_ranks_from_hilbert(alg.graded_dims, 3) == alg.lie_ranks[1:]


def test_formal_groups_stay_consistent():
    # surface groups and right-angled Artin groups are 1-formal, so the
    # two rank pipelines must agree in every degree, not just 1 and 2
    from kahlercheck.lieranks import formality_test

    g3 = parse_presentation(
        "gens: a1,a2,a3,a4,a5,a6; rels: [a1,a4][a2,a5][a3,a6];")
    assert formality_test(g3, 3).consistent
    raag = parse_presentation("gens: a,b,c; rels: [a,b];")
    assert formality_test(raag, 4).consistent
    raag2 = parse_presentation("gens: a,b,c,d; rels: [a,b],[b,c],[c,d];")
    assert formality_test(raag2, 3).consistent


def test_normal_closure_elements_die_in_quotient():
    from kahlercheck.lieranks import build_quotient_algebra
    from kahlercheck.presentation import parse_presentation as pp

    rng = random.Random(5150)
    heis = pp("gens: x,y,c; rels: [x,y]c^-1, [x,c], [y,c];")
    alg = build_quotient_algebra(heis, 3)
    for _ in range(10):
        w = heis.relators[rng.randrange(3)]
        conj = random_word(rng, 3, rng.randint(0, 5))
        prod = w.conjugated_by(conj) * heis.relators[rng.randrange(3)]
        assert alg.element_is_trivial(prod * prod.inverse())
        assert alg.element_is_trivial(w.conjugated_by(conj))


def test_central_symplectic_extension_depth_four():
    # the group <a1..a4, c | [a1,a3][a2,a4] = c, c central> has graded Lie
    # algebra FreeLie(4)/<[a_i, w]> with w the symplectic element: ranks
    # 4, 6, 20-4, 60-(16-1): one Jacobi relation [w,w] = 0 ties the 16
    # degree-4 bracket generators of the ideal
    intro = parse_presentation(
        "gens: a1,a2,a3,a4,c; rels: [a1,a3][a2,a4]c^-1, "
        "[a1,c],[a2,c],[a3,c],[a4,c];")
    assert list(lcs_ranks(intro, 4).ranks) == [4, 6, 16, 45]
    assert list(holonomy_ranks(intro, 4).ranks) == [4, 6, 20, 60]
