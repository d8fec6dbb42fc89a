import copy
import random
from fractions import Fraction as F

import pytest

from gtassoc.linalg import CoordSolver, mat_identity, mat_inv, mat_mul, rref, solve_affine
from gtassoc.symcoef import SymRing


def fraction_rref(rows):
    """Gauss-Jordan in Fraction arithmetic, in place: the oracle for rref."""
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


def dense_mat_mul(a, b):
    """The dense triple loop, every product formed: the oracle for mat_mul."""
    out = []
    for ai in a:
        row = []
        for j in range(len(b[0])):
            acc = ai[0] * b[0][j]
            for t in range(1, len(b)):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def random_matrix(rng):
    """A rational matrix with zero rows, repeated rows and row combinations mixed in."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)

    def entry():
        if rng.random() < 0.4:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7, 12)))

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append([F(0)] * ncols)
        elif rows and kind < 0.3:
            rows.append(list(rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.5:
            a, b = rng.sample(rows, 2)
            s, t = F(rng.randint(-5, 5), rng.randint(1, 5)), F(rng.randint(-5, 5), rng.randint(1, 5))
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            rows.append([entry() for _ in range(ncols)])
    rng.shuffle(rows)
    return rows


def test_rref_matches_fraction_oracle():
    for seed in range(300):
        rows = random_matrix(random.Random(seed))
        expected = copy.deepcopy(rows)
        expected_pivots = fraction_rref(expected)
        pivots = rref(rows)
        assert (pivots, rows) == (expected_pivots, expected), seed
        assert all(type(v) is F for row in rows for v in row)


def test_rref_negative_fractional_pivots_and_zero_rows():
    rows = [[F(0), F(0), F(0)], [F(-3, 4), F(1, 2), F(5, 6)], [F(0), F(0), F(0)],
            [F(-3, 2), F(1), F(-7, 3)], [F(-3, 4), F(1, 2), F(5, 6)]]
    expected = copy.deepcopy(rows)
    assert rref(rows) == fraction_rref(expected) == [0, 2]
    assert rows == expected == [[F(1), F(-2, 3), F(0)], [F(0), F(0), F(1)]]
    empty = [[F(0), F(0)], [F(0), F(0)]]
    assert rref(empty) == [] and empty == []


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


def test_coord_solver_coordinates_and_span():
    solver = CoordSolver([[0, 1, 1], [1, 0, 2]])
    assert solver.coordinates([F(3), F(2), F(8)]) == [F(2), F(3)]
    with pytest.raises(ValueError):
        solver.coordinates([F(1), F(0), F(0)])


def test_coord_solver_leaves_its_arguments_untouched():
    basis = [[F(0), F(1, 2), F(1)], [F(-3, 4), F(0), F(2)]]
    target = [F(-3, 2), F(1), F(6)]
    kept_basis, kept_target = copy.deepcopy(basis), list(target)
    solver = CoordSolver(basis)
    assert solver.coordinates(target) == [F(2), F(2)]
    assert basis == kept_basis and target == kept_target


def test_coord_solver_rejects_dependent_rows():
    # elimination on [rows | 1] would find a second pivot inside the identity block
    dependent = [[1, 2], [2, 4]]
    with pytest.raises(ValueError):
        CoordSolver(dependent)
    assert dependent == [[1, 2], [2, 4]]
    with pytest.raises(ValueError):
        CoordSolver([[1, 0, 1], [0, 1, 1], [1, 1, 2]])


def test_solve_affine_inconsistent():
    with pytest.raises(ValueError):
        solve_affine([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])


def test_solve_affine_rank_deficient_kernel():
    matrix = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    particular, kernel = solve_affine(matrix, [F(1), F(2)])
    assert particular == [F(1), F(0), F(0)]
    assert kernel == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    for vec in kernel:
        assert mat_mul(matrix, [[v] for v in vec]) == [[F(0)], [F(0)]]


@pytest.mark.parametrize("kind", ["fraction", "int", "poly"])
def test_mat_mul_skipping_zeros_matches_the_dense_loop(kind):
    rng = random.Random(11)
    ring = SymRing(("a", "b"))

    def entry():
        if rng.random() < 0.6:
            value = 0
        else:
            value = rng.randint(-9, 9)
        if kind == "int":
            return value
        value = F(value, rng.randint(1, 7))
        return value if kind == "fraction" else value * ring.symbol(rng.choice("ab")) + value

    for _ in range(40):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[entry() for _ in range(k)] for _ in range(n)]
        a[rng.randrange(n)] = [a[0][0] * 0] * k  # an all-zero row
        b = [[entry() for _ in range(m)] for _ in range(k)]
        got, want = mat_mul(a, b), dense_mat_mul(a, b)
        assert got == want
        assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]
