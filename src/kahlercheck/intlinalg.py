"""Exact integer and rational linear algebra.

Everything in this module runs on Python ints and ``fractions.Fraction``,
so there is no overflow and no floating point anywhere.  Smith normal form
pivots can blow up even on small matrices, which is why arbitrary precision
is not negotiable here.  The intended scale is desk-size (dimension <~ 50);
nothing is tuned beyond that.

The Smith normal form decomposition U*A*V = D is the engine behind every
integral rank, torsion and solvability question in the package:

>>> A = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> smith_normal_form(A).diagonal
(2, 4)

Rational questions (ranks, null spaces, rational solutions, subspaces of
Q^n) all go through one sparse reduced echelon, SparseEchelon, which the
Malcev computations in lieranks use as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self._data = tuple(tuple(int(x) for x in row) for row in data)
        if len(self._data) != rows or any(len(r) != cols for r in self._data):
            raise ValueError("matrix data does not match shape %dx%d" % (rows, cols))

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def to_rows(self):
        return [list(r) for r in self._data]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [[self._data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch for product")
        rows = []
        for i in range(self.rows):
            a = self._data[i]
            rows.append([sum(a[k] * other._data[k][j] for k in range(self.cols))
                         for j in range(other.cols)])
        return IntMatrix(self.rows, other.cols, rows)

    def mul_vec(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return [sum(r[k] * vec[k] for k in range(self.cols)) for r in self._data]

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        return "IntMatrix(%r)" % (self.to_rows(),)


@dataclass(frozen=True)
class SNFResult:
    """U*A*V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    diagonal: tuple

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    def cokernel(self):
        """Z^cols modulo the row span of A."""
        torsion = tuple(d for d in self.diagonal if d > 1)
        return AbelianStructure(rank=self.D.cols - self.rank, torsion=torsion)

    def _least_multiple(self, c):
        """Least n >= 1 with d_i | n*c_i for every i (a zero or missing d_i
        divides only 0), or None.  A*x = n*b is D*y = n*c with c = U*b and
        x = V*y, so every integer system over A is this test."""
        n = 1
        for i, ci in enumerate(c):
            d = self.diagonal[i] if i < len(self.diagonal) else 0
            if d:
                n = math.lcm(n, d // math.gcd(d, ci % d))
            elif ci:
                return None
        return n

    def solve(self, b):
        """Some integer x with A*x = b, or None.

        >>> snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [0, 3]]))
        >>> snf.solve([2, 3]), snf.solve([1, 0])
        ([-1, 1], None)
        """
        c = self.U.mul_vec(b)
        if self._least_multiple(c) != 1:
            return None
        y = [ci // d for ci, d in zip(c, self.diagonal) if d]
        return self.V.mul_vec(y + [0] * (self.D.cols - len(y)))

    def minimal_multiple(self, b):
        """Least n >= 1 with A*x = n*b solvable over Z, or None when there
        is no rational solution.

        >>> snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 6]]))
        >>> snf.minimal_multiple([1, 4]), snf.minimal_multiple([2, 6])
        (6, 1)
        >>> A = IntMatrix.from_rows([[1], [1]])
        >>> smith_normal_form(A).minimal_multiple([0, 1]) is None
        True
        """
        return self._least_multiple(self.U.mul_vec(b))

    def in_row_lattice(self, vec):
        """Is vec = y*A for an integer y, i.e. zero in the cokernel?  That
        is vec*V = z*D with z = y*U^-1: the same test on c = vec*V."""
        V = self.V
        c = [sum(x * V[k, j] for k, x in enumerate(vec) if x)
             for j in range(V.cols)]
        return self._least_multiple(c) == 1


@dataclass(frozen=True)
class AbelianStructure:
    """Finitely generated abelian group: Z^rank x prod Z/d_i."""

    rank: int
    torsion: tuple

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def is_finite(self):
        return self.rank == 0

    def __str__(self):
        parts = []
        if self.rank:
            parts.append("Z^%d" % self.rank if self.rank > 1 else "Z")
        parts.extend("Z/%d" % d for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def smith_normal_form(A):
    """Diagonalize A over Z by unimodular row and column operations.

    Pivot choice is the minimal nonzero absolute value in the working
    submatrix, scanning row-major so ties break deterministically.  The
    returned transforms always satisfy U*A*V = D exactly.
    """
    r, c = A.rows, A.cols
    D = A.to_rows()
    U = IntMatrix.identity(r).to_rows()
    V = IntMatrix.identity(c).to_rows()

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        # row_dst += mult * row_src
        D[dst] = [a + mult * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + mult * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, mult):
        for row in D:
            row[dst] += mult * row[src]
        for row in V:
            row[dst] += mult * row[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    size = min(r, c)
    while t < size:
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, r):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
            resid = [i for i in range(t + 1, r) if D[i][t]]
            if resid:
                # remainders are strictly smaller than the pivot; promote one
                i = min(resid, key=lambda k: (abs(D[k][t]), k))
                swap_rows(t, i)
                continue
            for j in range(t + 1, c):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
            resid = [j for j in range(t + 1, c) if D[t][j]]
            if resid:
                j = min(resid, key=lambda k: (abs(D[t][k]), k))
                swap_cols(t, j)
                continue
            # enforce d_t | every remaining entry before moving on
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if D[i][j] % D[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if D[t][t] < 0:
            negate_row(t)
        t += 1

    diagonal = tuple(D[i][i] for i in range(size))
    return SNFResult(U=IntMatrix.from_rows(U) if r else IntMatrix(0, 0, []),
                     D=IntMatrix(r, c, D),
                     V=IntMatrix.from_rows(V) if c else IntMatrix(0, 0, []),
                     diagonal=diagonal)


def solve_integer(A, b):
    """Some integer x with A*x = b, or None when no such x exists.

    Read off the Smith form (SNFResult.solve); the witness is re-verified
    by multiplication before returning.
    """
    b = [int(x) for x in b]
    if len(b) != A.rows:
        raise ValueError("right-hand side length does not match row count")
    x = smith_normal_form(A).solve(b)
    assert x is None or A.mul_vec(x) == b
    return x


def cokernel(A):
    """Z^cols modulo the row span of A, as rank plus invariant factors > 1.

    With A the relator-by-generator exponent matrix this is the
    abelianization of the presented group.
    """
    return smith_normal_form(A).cokernel()


def inverse_unimodular(M):
    """Exact integer inverse of a matrix with determinant +-1.

    U*M*V = I in the Smith form, so M^-1 = V*U.
    """
    if M.rows != M.cols:
        raise ValueError("only square matrices invert")
    n = M.rows
    snf = smith_normal_form(M)
    if snf.diagonal != (1,) * n:
        raise ValueError("matrix is not unimodular")
    inv = snf.V.mul(snf.U)
    assert M.mul(inv) == IntMatrix.identity(n)
    return inv


# ---------------------------------------------------------------------------
# the sparse rational echelon, and the dense helpers built on it

_F0 = Fraction(0)
_F1 = Fraction(1)


class SparseEchelon:
    """Reduced echelon basis of sparse rational vectors keyed by int.

    Each row has coefficient 1 at its pivot, which is its smallest key,
    and no other row has an entry there; so the rows are the unique
    reduced row echelon form of their span.
    """

    def __init__(self):
        self.rows = {}  # pivot -> {key: coeff}, pivot coefficient 1

    def reduce(self, vec):
        result = {}
        work = {k: Fraction(c) for k, c in vec.items() if c}
        while work:
            k = min(work)
            c = work.pop(k)
            row = self.rows.get(k)
            if row is None:
                result[k] = c
                continue
            for kk, cc in row.items():
                if kk == k:
                    continue
                nv = work.get(kk, _F0) - c * cc
                if nv:
                    work[kk] = nv
                else:
                    work.pop(kk, None)
        return result

    def insert(self, vec):
        """Insert a vector; returns its pivot, or None if dependent."""
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        inv = 1 / v[p]
        v = {k: c * inv for k, c in v.items()}
        for row in self.rows.values():
            if p in row:
                f = row[p]
                for k, c in v.items():
                    nv = row.get(k, _F0) - f * c
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        self.rows[p] = v
        return p

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def coordinates(self, vec):
        """Coordinates of vec in the basis rows (sorted-pivot order), or
        None when vec is outside the span.

        The rows are fully reduced, so a row's coordinate is the entry of
        vec at that row's pivot.
        """
        if self.reduce(vec):
            return None
        return [Fraction(vec.get(p, _F0)) for p in self.pivots()]


def _sparse(dense):
    return {j: x for j, x in enumerate(dense) if x}


def _echelon(rows):
    ech = SparseEchelon()
    for r in rows:
        ech.insert(_sparse(r))
    return ech


def rational_rank(rows):
    return _echelon(rows).dim


def nullspace(rows, width=None):
    """Basis of {x : M x = 0} for the matrix with the given rows.

    One vector per free column j of the reduced echelon form: 1 at j and
    0 at every other free column.
    """
    if width is None:
        if not rows:
            raise ValueError("need explicit width for an empty matrix")
        width = len(rows[0])
    ech = _echelon(rows)
    basis = []
    for j in range(width):
        if j in ech.rows:
            continue
        vec = [_F0] * width
        vec[j] = _F1
        for p, row in ech.rows.items():
            vec[p] = -row.get(j, _F0)
        basis.append(vec)
    return basis


def solve_rational(A, b):
    """Some rational x with A*x = b, or None.

    Read off the reduced echelon form of [A | b]: a pivot in the last
    column means there is no solution; otherwise x is that column on the
    pivot columns and 0 on the free ones.
    """
    b = [Fraction(v) for v in b]
    if len(b) != A.rows:
        raise ValueError("right-hand side length does not match row count")
    cols = A.cols
    ech = _echelon(list(A.row(i)) + [b[i]] for i in range(A.rows))
    if cols in ech.rows:
        return None
    x = [_F0] * cols
    for p, row in ech.rows.items():
        x[p] = row.get(cols, _F0)
    assert A.mul_vec(x) == b
    return x


class QSpace:
    """Subspace of Q^width: a dense-vector view of one SparseEchelon."""

    def __init__(self, width):
        self.width = width
        self._ech = SparseEchelon()

    @classmethod
    def from_rows(cls, width, rows):
        space = cls(width)
        for r in rows:
            space.add(r)
        return space

    def add(self, vec):
        """Insert vec; returns True when the dimension grew."""
        return self._ech.insert(_sparse(vec)) is not None

    def contains(self, vec):
        return not self._ech.reduce(_sparse(vec))

    @property
    def dim(self):
        return self._ech.dim

    def basis(self):
        """The reduced row echelon basis, sorted by pivot."""
        out = []
        for p in self._ech.pivots():
            vec = [_F0] * self.width
            for k, c in self._ech.rows[p].items():
                vec[k] = c
            out.append(vec)
        return out

    @staticmethod
    def intersection(a, b):
        """Intersection of two subspaces of the same ambient Q^width.

        Zassenhaus: in the echelon of the rows (u, u) for u in a and
        (v, 0) for v in b, the rows with zero first half carry a basis of
        the intersection in their second half.
        """
        if a.width != b.width:
            raise ValueError("ambient dimensions differ")
        w = a.width
        ech = SparseEchelon()
        for row in a._ech.rows.values():
            both = dict(row)
            both.update((w + k, c) for k, c in row.items())
            ech.insert(both)
        for row in b._ech.rows.values():
            ech.insert(row)
        out = QSpace(w)
        for p, row in ech.rows.items():
            if p >= w:
                out._ech.insert({k - w: c for k, c in row.items()})
        return out
