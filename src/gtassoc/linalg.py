"""Small exact linear algebra helpers over Q.

Everything here is dense and written for the tiny systems that come up:
Lie-coordinate extraction (<= 32 columns), the degree-by-degree associator
solver (one unknown per Lyndon word of the new degree: 9 at degree 6), and
constant-matrix work for representations.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Row-reduce a list of Fraction rows in place; return pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def solve_affine(matrix, rhs):
    """Solve M c = rhs exactly.

    Returns (particular, kernel_basis) where the particular solution zeroes
    every free variable (deterministic pivoting in column order), or raises
    ValueError when the system is inconsistent.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [list(matrix[i]) + [rhs[i]] for i in range(m)]
    pivots = rref(aug)
    if n in pivots:
        raise ValueError("inconsistent linear system")
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = aug[r][n]
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -aug[r][fc]
        kernel.append(vec)
    return particular, kernel


class CoordSolver:
    """Express vectors in a fixed rational basis given by rows.

    The elimination is done once over Q; coordinates can then be extracted
    from targets whose entries live in any coefficient ring (the multipliers
    are rational).
    """

    def __init__(self, basis_rows):
        self.nbasis = len(basis_rows)
        self.ncols = len(basis_rows[0])
        # augment with identity to track the expressing combination; rref
        # pivots inside that block exactly when the basis rows are dependent
        self.rows = [
            list(map(Fraction, row)) + [Fraction(i == j) for j in range(self.nbasis)]
            for i, row in enumerate(basis_rows)
        ]
        self.pivots = rref(self.rows)
        if self.pivots[-1] >= self.ncols:
            raise ValueError("basis rows are linearly dependent")

    def coordinates(self, target):
        """Coordinates of target in the basis; raises if outside the span.

        target entries may be Fractions or ring elements supporting +,*,-.
        """
        residual = list(target)
        coords = [None] * self.nbasis
        for r, c in enumerate(self.pivots):
            f = residual[c]
            comb = self.rows[r]
            coords_r = f
            coords[r] = coords_r
            if f:
                for j in range(self.ncols):
                    m = comb[j]
                    if m:
                        residual[j] = residual[j] - f * m
        for v in residual:
            if v:
                raise ValueError("target is not in the span of the basis")
        # back out the combination on original basis rows
        out = [Fraction(0)] * self.nbasis
        for r in range(self.nbasis):
            f = coords[r]
            if f:
                for i in range(self.nbasis):
                    m = self.rows[r][self.ncols + i]
                    if m:
                        out[i] = out[i] + f * m
        return out


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = ai[0] * b[0][j]
            for t in range(1, k):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_inv(a):
    """Inverse of a Fraction matrix by Gauss-Jordan on [a | 1]."""
    n = len(a)
    work = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    if rref(work) != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]


def mat_eq(a, b):
    return all(all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
