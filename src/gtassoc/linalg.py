"""Exact linear algebra over Q, eliminating in int and building Fractions at the end.

``rref`` reduces dense rows: Lie-coordinate extraction (<= 32 columns) and
constant-matrix inverses.  ``solve_columns`` solves an affine system on its
sparse int columns, one per unknown: the associator solver's 9 at degree 6
(638 of 3153 rows nonzero) and 30 at degree 8 (29 013 rows).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .symcoef import common_denominator


def rref(rows):
    """Row-reduce rational rows in place; return the pivot column list.

    Zero rows are dropped and each row is cleared of denominators.  Row i
    becomes a row_i - b row_r, with a/b = p/f in lowest terms for the pivot
    p and the entry f, divided by the gcd of its entries.  Each pivot row is
    divided by its pivot once, into Fractions; the reduced row echelon form
    is unique, so the rows equal those of Gauss-Jordan in Fractions.
    """
    ncols = len(rows[0]) if rows else 0
    work = []
    for row in rows:
        d = common_denominator(row)
        ints = [v.numerator * (d // v.denominator) for v in row]
        if any(ints):
            work.append(ints)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow, p = work[r], work[r][c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row) or 1
                work[i] = [x // g for x in row]
        pivots.append(c)
    rows[:] = [[Fraction(x, row[c]) for x in row] for row, c in zip(work, pivots)]
    return pivots


def _int_column(values):
    """(d, {key: d v}) for a {key: rational v} dict, d the common denominator, zeros dropped."""
    d = common_denominator(values.values())
    return d, {k: v.numerator * (d // v.denominator) for k, v in values.items() if v}


def solve_columns(columns, rhs):
    """Solve sum_j c_j v_j / d_j = rhs exactly, for sparse columns (d_j, {key: int}).

    rhs maps keys to rationals.  Returns (particular, kernel): the particular
    solution zeroes every free variable, and each kernel vector is 1 at its
    free column and 0 at the others; raises ValueError when inconsistent.
    The columns, then rhs, are reduced in int against the earlier pivot
    vectors (v <- a v - b p, a/b = pivot/entry in lowest terms), carrying
    their combinations of the inputs: a vector reducing to zero gives its
    kernel vector or the particular solution, as Gauss-Jordan's would.
    """
    n = len(columns)
    rd, rhs = _int_column(rhs)
    dens = [d for d, _ in columns] + [rd]
    pivots, solutions = [], []
    for j, vector in enumerate([v for _, v in columns] + [rhs]):
        row, comb = dict(vector), [int(i == j) for i in range(n + 1)]
        for key, prow, pcomb in pivots:
            f = row.get(key)
            if f:
                g = gcd(prow[key], f)
                a, b = prow[key] // g, f // g
                if a != 1:
                    row = {k: a * x for k, x in row.items()}
                comb = [a * x - b * y for x, y in zip(comb, pcomb)]
                for k, y in prow.items():
                    row[k] = row.get(k, 0) - b * y
        row = {k: x for k, x in row.items() if x}
        if not row:
            scale = comb[j] * dens[j] * (1 if j < n else -1)
            solutions.append([Fraction(x * d, scale) for x, d in zip(comb, dens[:n])])
        elif j == n:
            raise ValueError("inconsistent linear system")
        else:
            # the least pivot, made positive, keeps later multipliers a at 1 where it can
            key = min(row, key=lambda k: abs(row[k]))
            g = gcd(*row.values(), *comb) * (1 if row[key] > 0 else -1)
            pivots.append((key, {k: x // g for k, x in row.items()}, [x // g for x in comb]))
    *kernel, particular = solutions
    return particular, kernel


def solve_affine(matrix, rhs):
    """Solve M c = rhs exactly for a dense rational matrix: solve_columns on its columns."""
    columns = [_int_column(dict(enumerate(col))) for col in zip(*matrix)]
    return solve_columns(columns, dict(enumerate(rhs)))


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
        coords = []
        for row, c in zip(self.rows, self.pivots):
            f = residual[c]
            coords.append(f)
            if f:
                for j, m in enumerate(row[:self.ncols]):
                    if m:
                        residual[j] = residual[j] - f * m
        if any(residual):
            raise ValueError("target is not in the span of the basis")
        # back out the combination on original basis rows
        out = [Fraction(0)] * self.nbasis
        for row, f in zip(self.rows, coords):
            if f:
                for i, m in enumerate(row[self.ncols:]):
                    if m:
                        out[i] = out[i] + f * m
        return out


def mat_mul(a, b):
    """The product a b, skipping the zero entries of a.

    An entry whose row of a has no nonzero entry is a[i][0] * b[0][j], so the
    output has the type the dense sum would have.
    """
    out = []
    for ai in a:
        terms = [(x, b[t]) for t, x in enumerate(ai) if x]
        if not terms:
            out.append([ai[0] * y for y in b[0]])
            continue
        x, bt = terms[0]
        row = [x * y for y in bt]
        for x, bt in terms[1:]:
            row = [r + x * y for r, y in zip(row, bt)]
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
