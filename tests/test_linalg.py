from fractions import Fraction as F

import pytest

from gtassoc.linalg import CoordSolver, mat_identity, mat_inv, mat_mul, solve_affine


def test_mat_inv_with_row_swap():
    a = [[F(0), F(1), F(2)], [F(1), F(0), F(3)], [F(4), F(-3), F(8)]]
    inv = mat_inv(a)
    assert inv == [[F(-9, 2), F(7), F(-3, 2)], [F(-2), F(4), F(-1)], [F(3, 2), F(-2), F(1, 2)]]
    assert mat_mul(a, inv) == mat_identity(3)
    assert a[0] == [F(0), F(1), F(2)]  # the argument is left untouched


def test_mat_inv_rejects_singular():
    with pytest.raises(ValueError):
        mat_inv([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]])
    with pytest.raises(ValueError):
        mat_inv([[F(0), F(0)], [F(0), F(1)]])


def test_coord_solver_coordinates_and_span():
    solver = CoordSolver([[0, 1, 1], [1, 0, 2]])
    assert solver.coordinates([F(3), F(2), F(8)]) == [F(2), F(3)]
    with pytest.raises(ValueError):
        solver.coordinates([F(1), F(0), F(0)])


def test_coord_solver_rejects_dependent_rows():
    # elimination on [rows | 1] would find a second pivot inside the identity block
    with pytest.raises(ValueError):
        CoordSolver([[1, 2], [2, 4]])
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
