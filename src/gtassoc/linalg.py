"""Exact linear algebra over Q, eliminating in int and building Fractions at the end.

``solve_columns`` is the one elimination: it solves an affine system on its
sparse int columns, one per unknown, against any number of right-hand sides
at once.  It serves the associator solver (9 unknowns at degree 6, with 638
of 3153 rows nonzero; 30 at degree 8, with 29 013 rows), the constant-term
inverses of ``mat_inv`` and ``coordinates``, the one reader of a target's
coordinates on a basis over Q or over a ring of symbols: the w-basis
coordinates of ``wbasis`` and the Lyndon coordinates of
``ncseries.lie_coordinates``, hence the Lie test.
Matrix products live in ``HMatrix`` alone; ``mat_inv`` on the dense grid of
``HMatrix.constant_term`` is the one dense boundary, that of the inverse's
leading term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .symcoef import Poly, common_denominator, layers


def _int_column(values):
    """(d, {key: d v}) for a {key: rational v} dict, d the common denominator, zeros dropped."""
    d = common_denominator(values.values())
    return d, {k: v.numerator * (d // v.denominator) for k, v in values.items() if v}


def solve_columns(columns, *rhs):
    """Solve sum_j c_j v_j / d_j = b exactly for sparse columns (d_j, {key: int}),
    for each right-hand side b, all in one elimination of the columns.

    Each b maps keys to rationals.  Returns (particulars, kernel): one
    particular solution per b, zero at every free variable, and the kernel
    vectors, each 1 at its free column and 0 at the others; raises
    ValueError when some b is inconsistent.  The columns, then each b, are
    reduced in int against the pivot vectors of the earlier columns
    (v <- a v - b p, a/b = pivot/entry in lowest terms), carrying their
    combinations of the inputs: a column reducing to zero gives its kernel
    vector and a b its particular solution, as Gauss-Jordan on [A | B] would.
    """
    n = len(columns)
    pivots, kernel, particulars = [], [], []
    for j, (d, vector) in enumerate(list(columns) + [_int_column(b) for b in rhs]):
        # a right-hand side is reduced alone: its own coefficient sits at n
        own = min(j, n)
        row, comb = dict(vector), [int(i == own) for i in range(n + 1)]
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
            scale = comb[own] * d * (1 if j < n else -1)
            (kernel if j < n else particulars).append(
                [Fraction(x * dc, scale) for x, (dc, _) in zip(comb, columns)])
        elif j >= n:
            raise ValueError("inconsistent linear system")
        else:
            # the least pivot, made positive, keeps later multipliers a at 1 where it can
            key = min(row, key=lambda k: abs(row[k]))
            g = gcd(*row.values(), *comb) * (1 if row[key] > 0 else -1)
            pivots.append((key, {k: x // g for k, x in row.items()}, [x // g for x in comb]))
    return particulars, kernel


def coordinates(columns, terms, ring=None):
    """The coordinates of a target {key: coefficient} on int columns (d, {key:
    int}) of rationals, one per column: Fraction(0) where zero, else a
    Fraction over Q or a Poly over ring.

    symcoef.layers splits the target into one right-hand side per monomial
    of the ring, all solved in one elimination and put back together; a
    target outside the span of the columns raises ValueError.
    """
    d, by_exps = layers(terms, ring)
    solutions, _ = solve_columns(columns, *by_exps.values())
    coords = []
    for i in range(len(columns)):
        parts = {e: sol[i] / d for e, sol in zip(by_exps, solutions) if sol[i]}
        if not parts:
            coords.append(Fraction(0))
        else:
            coords.append(parts[()] if ring is None else Poly(ring, parts))
    return coords


def mat_inv(a):
    """Inverse of a square rational matrix: its columns solved against the n unit
    vectors in one elimination.  A singular a leaves some unit vector outside
    its column span."""
    columns = [_int_column(dict(enumerate(col))) for col in zip(*a)]
    try:
        inverse, _ = solve_columns(columns, *({i: 1} for i in range(len(a))))
    except ValueError:
        raise ValueError("matrix is singular") from None
    return [list(row) for row in zip(*inverse)]

