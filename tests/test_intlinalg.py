import random
from fractions import Fraction
from math import gcd

from kahlercheck.intlinalg import (IntMatrix, QSpace, cokernel,
                                   inverse_unimodular, nullspace,
                                   rational_rank, smith_normal_form,
                                   solve_integer, solve_rational)
from kahlercheck.presentation import parse_presentation

from _oracles import (bareiss_rank, brute_force_snf_invariants,
                      pivot_columns)


def check_snf(A):
    snf = smith_normal_form(A)
    assert snf.U.mul(A).mul(snf.V) == snf.D
    assert abs(snf.U.det()) == 1
    assert abs(snf.V.det()) == 1
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero, "zeros must trail"
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert snf.D[i, j] == 0
    return snf


def test_snf_2x2_example():
    # oracle: d1 = gcd of entries, d1*d2 = |det|
    rows = [[2, 4], [6, 8]]
    d1 = gcd(gcd(2, 4), gcd(6, 8))
    det = abs(2 * 8 - 4 * 6)
    assert (d1, det // d1) == (2, 4)
    snf = check_snf(IntMatrix.from_rows(rows))
    assert snf.diagonal == (2, 4)


def test_snf_identity():
    snf = check_snf(IntMatrix.identity(3))
    assert snf.diagonal == (1, 1, 1)


def test_snf_zero_matrix():
    snf = check_snf(IntMatrix.zeros(2, 3))
    assert snf.diagonal == (0, 0)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        snf = check_snf(IntMatrix.from_rows(rows))
        assert list(snf.diagonal) == brute_force_snf_invariants(rows)


def test_snf_random_property_suite():
    # 200 seeded matrices, sizes <= 6x6, entries in [-9, 9]
    rng = random.Random(20240501)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        check_snf(A)


def test_rank_two_ways_agree():
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        snf_rank = smith_normal_form(A).rank
        q_rank = rational_rank([[Fraction(x) for x in A.row(i)]
                                for i in range(r)])
        assert snf_rank == q_rank


def test_solve_integer_examples():
    A = IntMatrix.from_rows([[2, -2]])
    x = solve_integer(A, [-2])
    assert x is not None and A.mul_vec(x) == [-2]
    assert solve_integer(IntMatrix.from_rows([[0]]), [1]) is None
    assert solve_integer(IntMatrix.identity(2), [3, 5]) == [3, 5]


def test_solve_rational_examples():
    A = IntMatrix.from_rows([[2, -2]])
    x = solve_rational(A, [-1])
    assert x is not None
    assert sum(Fraction(a) * v for a, v in zip(A.row(0), x)) == -1
    assert solve_rational(IntMatrix.zeros(1, 1), [0]) == [Fraction(0)]
    assert solve_rational(IntMatrix.from_rows([[1], [1]]), [1, 2]) is None


def test_integer_solvable_implies_rational_and_roundtrip():
    rng = random.Random(3)
    for _ in range(60):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        x = [rng.randint(-4, 4) for _ in range(c)]
        b = A.mul_vec(x)
        xi = solve_integer(A, b)
        assert xi is not None and A.mul_vec(xi) == b
        xq = solve_rational(A, b)
        assert xq is not None
        if all(v.denominator == 1 for v in xq):
            xi2 = solve_integer(A, b)
            assert xi2 is not None


def test_cokernel_examples(pool):
    assert str(cokernel(IntMatrix.from_rows([[3]]))) == "Z/3"
    gamma2 = pool["gamma2"].exponent_matrix()
    assert cokernel(gamma2).rank == 4
    assert cokernel(gamma2).torsion == ()
    intro = pool["intro"].exponent_matrix()
    # the relator row for R = c is (0,0,0,0,-1)
    assert intro.row(0) == (0, 0, 0, 0, -1)
    structure = cokernel(intro)
    assert structure.rank == 4 and structure.torsion == ()


def test_cokernel_surface_all_zero_rows():
    g3 = parse_presentation("gens: a1,a2,a3,a4,a5,a6; rels: [a1,a4][a2,a5][a3,a6];")
    s = cokernel(g3.exponent_matrix())
    assert s.rank == 6 and not s.torsion


def test_inverse_unimodular():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        # build a unimodular matrix as a product of elementary operations
        M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                f = rng.randint(-3, 3)
                for k in range(n):
                    M[i][k] += f * M[j][k]
        A = IntMatrix.from_rows(M)
        inv = inverse_unimodular(A)
        assert A.mul(inv) == IntMatrix.identity(n)


def test_nullspace_and_qspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    basis = nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in rows)
    a = QSpace.from_rows(3, [[1, 0, 0], [0, 1, 0]])
    b = QSpace.from_rows(3, [[1, 1, 0], [0, 0, 1]])
    inter = QSpace.intersection(a, b)
    assert inter.dim == 1
    assert inter.contains([1, 1, 0])


def test_qspace_membership():
    s = QSpace(3)
    assert s.add([1, 2, 3])
    assert not s.add([2, 4, 6])
    assert s.add([0, 1, 1])
    assert s.contains([1, 3, 4])
    assert not s.contains([0, 0, 1])
    assert s.dim == 2


def _low_rank_rows(rng, nrows, width, max_den=3):
    # low-rank matrices are the interesting ones: build rows as rational
    # combinations of a few random generators
    gens = [[rng.randint(-4, 4) for _ in range(width)]
            for _ in range(rng.randint(1, max(1, min(nrows, width))))]
    rows = []
    for _ in range(nrows):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, max_den))
                  for _ in gens]
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)),
                         Fraction(0)) for j in range(width)])
    return rows


def test_rational_rank_matches_bareiss():
    rng = random.Random(1729)
    for _ in range(80):
        rows = _low_rank_rows(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rational_rank(rows) == bareiss_rank(rows)


def test_nullspace_basis_is_canonical():
    # one vector per free column: 1 there, 0 on every other free column
    rng = random.Random(4242)
    for _ in range(60):
        width = rng.randint(1, 6)
        rows = _low_rank_rows(rng, rng.randint(1, 5), width)
        free = [j for j in range(width)
                if j not in pivot_columns(rows, width)]
        basis = nullspace(rows)
        assert len(basis) == len(free) == width - bareiss_rank(rows)
        for v, j in zip(basis, free):
            assert all(x == (1 if k == j else 0)
                       for k, x in enumerate(v) if k in free)
            assert all(sum(r[k] * v[k] for k in range(width)) == 0
                       for r in rows)


def test_solve_rational_is_zero_on_free_columns():
    rng = random.Random(97)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[int(x) for x in row]
                for row in _low_rank_rows(rng, r, c, max_den=1)]
        A = IntMatrix.from_rows(rows)
        free = [j for j in range(c) if j not in pivot_columns(rows, c)]
        b = A.mul_vec([Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                       for _ in range(c)])
        x = solve_rational(A, b)
        assert x is not None and A.mul_vec(x) == b
        assert all(x[j] == 0 for j in free)
        # a right-hand side outside the column span has no solution
        e = [Fraction(rng.randint(-4, 4)) for _ in range(A.rows)]
        solvable = (bareiss_rank([row + [v] for row, v in zip(rows, e)])
                    == bareiss_rank(rows))
        assert (solve_rational(A, e) is not None) == solvable
