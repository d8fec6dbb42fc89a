import copy
import random
from fractions import Fraction as F

import pytest

from gtassoc.linalg import _int_column, mat_inv, solve_columns

from _dense_oracle import mat_identity, mat_mul


def fraction_rref(rows):
    """Gauss-Jordan in Fraction arithmetic, in place; returns the pivot columns."""
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
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
    del rows[r:]
    return pivots


def rref_solve_affine(matrix, rhs):
    """Solve M c = rhs by fraction_rref on [M | rhs]: the oracle for solve_columns.

    The particular solution zeroes every free variable, and each kernel
    vector is 1 at its free column and 0 at the other free columns.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [list(matrix[i]) + [rhs[i]] for i in range(m)]
    pivots = fraction_rref(aug)
    if n in pivots:
        raise ValueError("inconsistent linear system")
    particular = [F(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = aug[r][n]
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [F(0)] * n
        vec[fc] = F(1)
        for r, c in enumerate(pivots):
            vec[c] = -aug[r][fc]
        kernel.append(vec)
    return particular, kernel


def random_matrix(rng, n):
    """An n x n rational matrix with zero rows, repeated rows and row combinations
    mixed in, so often singular."""
    def entry():
        if rng.random() < 0.4:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7, 12)))

    rows = []
    for _ in range(n):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append([F(0)] * n)
        elif rows and kind < 0.3:
            rows.append(list(rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.5:
            a, b = rng.sample(rows, 2)
            s, t = F(rng.randint(-5, 5), rng.randint(1, 5)), F(rng.randint(-5, 5), rng.randint(1, 5))
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            rows.append([entry() for _ in range(n)])
    rng.shuffle(rows)
    return rows


def test_mat_inv_with_row_swap():
    a = [[F(0), F(1), F(2)], [F(1), F(0), F(3)], [F(4), F(-3), F(8)]]
    inv = mat_inv(a)
    assert inv == [[F(-9, 2), F(7), F(-3, 2)], [F(-2), F(4), F(-1)], [F(3, 2), F(-2), F(1, 2)]]
    assert mat_mul(a, inv) == mat_identity(3)
    assert a[0] == [F(0), F(1), F(2)]  # the argument is left untouched


def test_mat_inv_rejects_singular():
    singular = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    kept = copy.deepcopy(singular)
    with pytest.raises(ValueError):
        mat_inv(singular)
    assert singular == kept
    with pytest.raises(ValueError):
        mat_inv([[F(0), F(0)], [F(0), F(1)]])


def test_mat_inv_leaves_its_argument_untouched():
    rng = random.Random(7)
    for _ in range(20):
        a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(4)]
        kept = copy.deepcopy(a)
        try:
            inv = mat_inv(a)
        except ValueError:
            continue
        assert a == kept
        assert mat_mul(a, inv) == mat_identity(4)


def solve_dense(matrix, rhs):
    """solve_columns on the columns of a dense rational matrix and one dense right-hand side."""
    columns = [_int_column(dict(enumerate(col))) for col in zip(*matrix)]
    return solve_one(columns, dict(enumerate(rhs)))


def test_solve_columns_inconsistent():
    matrix, rhs = [[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]
    assert isinstance(outcome(rref_solve_affine, matrix, rhs), str)
    with pytest.raises(ValueError, match="inconsistent"):
        solve_dense(matrix, rhs)


def test_solve_columns_rank_deficient_kernel():
    matrix = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    particular, kernel = solve_dense(matrix, [F(1), F(2)])
    assert (particular, kernel) == rref_solve_affine(matrix, [F(1), F(2)])
    assert particular == [F(1), F(0), F(0)]
    assert kernel == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    for vec in kernel:
        assert mat_mul(matrix, [[v] for v in vec]) == [[F(0)], [F(0)]]


def random_columns(rng):
    """Sparse int columns, each over its own (not always reduced) denominator.

    Zero columns, repeated columns and combinations of earlier columns are
    mixed in, so the system is often rank-deficient; the right-hand side is
    zero, in the span, or random (often inconsistent).
    """
    nrows, ncols = rng.randint(1, 9), rng.randint(0, 8)
    ints = []
    for _ in range(ncols):
        kind = rng.random()
        if kind < 0.1:
            ints.append({})
        elif ints and kind < 0.2:
            ints.append(dict(rng.choice(ints)))
        elif len(ints) > 1 and kind < 0.45:
            a, b = rng.sample(ints, 2)
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            ints.append({k: s * a.get(k, 0) + t * b.get(k, 0) for k in set(a) | set(b)})
        else:
            ints.append({i: rng.randint(-9, 9) for i in range(nrows) if rng.random() < 0.6})
    columns = [(rng.choice((1, 1, 2, 3, 4, 6, 12)), v) for v in ints]
    kind = rng.random()
    if kind < 0.15 or not columns:
        rhs = {}
    elif kind < 0.6:
        rhs = {}
        for d, v in columns:
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            for k, x in v.items():
                rhs[k] = rhs.get(k, 0) + c * F(x, d)
    else:
        rhs = {i: F(rng.randint(-9, 9), rng.randint(1, 5)) for i in range(nrows)
               if rng.random() < 0.5}
    matrix = [[F(v.get(i, 0), d) for d, v in columns] for i in range(nrows)]
    return columns, rhs, matrix, [F(rhs.get(i, 0)) for i in range(nrows)]


def outcome(solve, *args):
    try:
        return solve(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def solve_one(columns, rhs):
    """solve_columns on one right-hand side, as (particular, kernel)."""
    [particular], kernel = solve_columns(columns, rhs)
    return particular, kernel


def test_solve_columns_matches_rref_oracle():
    kinds = dict.fromkeys(("inconsistent", "rank-deficient", "zero rhs", "zero column",
                           "duplicate column"), 0)
    for seed in range(400):
        columns, rhs, matrix, dense_rhs = random_columns(random.Random(seed))
        want = outcome(rref_solve_affine, matrix, dense_rhs)
        got = outcome(solve_one, columns, rhs)
        assert got == want, seed
        assert outcome(solve_dense, matrix, dense_rhs) == want, seed
        if isinstance(got, tuple):
            assert all(type(v) is F for vec in [got[0]] + got[1] for v in vec)
        kinds["inconsistent"] += isinstance(want, str)
        kinds["rank-deficient"] += isinstance(want, tuple) and bool(want[1])
        kinds["zero rhs"] += not any(rhs.values())
        kinds["zero column"] += any(not any(v.values()) for _, v in columns)
        kinds["duplicate column"] += len({tuple(sorted(v.items())) for _, v in columns}) < len(columns)
    assert min(kinds.values()) >= 20, kinds


def test_solve_columns_negative_pivots_and_mixed_denominators():
    # column 1 is column 0 over another denominator, so free, as is the zero column 3;
    # the pivots of column 0 (-6 at "a") and column 2 (-4 at "c") are negative
    columns = [(3, {"a": -6, "b": 9}), (1, {"a": -2, "b": 3}), (4, {"b": 8, "c": -4}), (1, {})]
    rhs = {"a": F(-4), "b": F(8), "c": F(-1)}
    matrix = [[F(v.get(k, 0), d) for d, v in columns] for k in "abc"]
    dense = [rhs[k] for k in "abc"]
    expected = rref_solve_affine(matrix, dense)
    assert solve_one(columns, rhs) == expected == (
        [F(2), F(0), F(1), F(0)], [[F(-1), F(1), F(0), F(0)], [F(0), F(0), F(0), F(1)]])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_columns(columns, {"a": F(1)})
    assert solve_columns([], {}) == ([[]], [])
    assert solve_columns(columns) == ([], expected[1])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_columns([], {"a": F(1, 2)})


def test_solve_columns_shares_one_elimination_across_right_hand_sides():
    """Right-hand sides solved together each equal their own solve and the
    oracle's, with one kernel; an inconsistent one among them raises."""
    kinds = dict.fromkeys(("inconsistent", "rank-deficient", "several"), 0)
    for seed in range(300):
        rng = random.Random(seed)
        columns, extra, matrix, dense_extra = random_columns(rng)
        nrows = len(matrix)
        rhss = []
        for _ in range(rng.randint(0, 4)):
            rhs = {}
            for d, v in columns:
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                for k, x in v.items():
                    rhs[k] = rhs.get(k, 0) + c * F(x, d)
            rhss.append(rhs)
        want = [rref_solve_affine(matrix, [F(rhs.get(i, 0)) for i in range(nrows)])
                for rhs in rhss]
        kernel = rref_solve_affine(matrix, [F(0)] * nrows)[1]
        assert solve_columns(columns, *rhss) == ([p for p, _ in want], kernel), seed
        assert [solve_one(columns, rhs) for rhs in rhss] == want, seed
        if isinstance(outcome(rref_solve_affine, matrix, dense_extra), str):
            at = rng.randint(0, len(rhss))
            with pytest.raises(ValueError, match="inconsistent"):
                solve_columns(columns, *rhss[:at], extra, *rhss[at:])
            kinds["inconsistent"] += 1
        kinds["rank-deficient"] += bool(kernel)
        kinds["several"] += len(rhss) > 1
    assert min(kinds.values()) >= 20, kinds


def test_mat_inv_matches_fraction_oracle():
    """mat_inv against Gauss-Jordan in Fractions on [a | 1]: the inverse, or
    "matrix is singular" when the reduced left block is not the identity."""
    kinds = {"invertible": 0, "singular": 0}
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        a = random_matrix(rng, n)
        kept = copy.deepcopy(a)
        aug = [row + [F(i == j) for j in range(n)] for i, row in enumerate(a)]
        if fraction_rref(aug) == list(range(n)):
            want = [row[n:] for row in aug]
            assert mat_inv(a) == want, seed
            assert all(type(v) is F for row in want for v in row)
            kinds["invertible"] += 1
        else:
            with pytest.raises(ValueError, match="matrix is singular"):
                mat_inv(a)
            kinds["singular"] += 1
        assert a == kept, seed
    assert min(kinds.values()) >= 50, kinds
