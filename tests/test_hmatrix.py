"""HMatrix arithmetic against an entrywise oracle, and its known-order rules.

The oracle is the grid-of-series algorithm: every entry is a ScalarSeries
and a product entry is the sum over k of ScalarSeries products.  Random
matrices are drawn as exact polynomials in h through maxdeg and then
truncated to a per-matrix known order K, so the untruncated product is the
truth that every coefficient through a reported known order must match.
"""

import random
from fractions import Fraction as F
from functools import reduce

import pytest

from gtassoc.braids import BraidWord
from gtassoc.hecke import MatrixModel, rep_build, unitary_ring
from gtassoc.hmatrix import HMatrix, to_text
from gtassoc.scalar import ScalarSeries
from gtassoc.tableaux import Partition

MAXDEG = 5


def dense_mul(a, b):
    n = len(a)
    return [[reduce(lambda x, y: x + y, [a[i][k] * b[k][j] for k in range(n)])
             for j in range(n)] for i in range(n)]


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(s, a):
    return [[s * x for x in row] for row in a]


def grid(m):
    return [[m.entry(i, j) for j in range(m.n)] for i in range(m.n)]


def random_coeff(rng, ring):
    if ring is None:
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    c = ring.const(F(rng.randint(-3, 3), rng.randint(1, 3)))
    for name in rng.sample(ring.symbols, 2):
        c = c + F(rng.randint(-2, 2)) * ring.symbol(name)
    return c * ring.symbol(rng.choice(ring.symbols))


def random_series(rng, ring, ko, density):
    """(exact series through MAXDEG, the same truncated to ko), of a random order."""
    w = rng.randint(0, 2)
    coeffs = {p: random_coeff(rng, ring) for p in range(w, MAXDEG + 1) if rng.random() < density}
    return ScalarSeries(MAXDEG, coeffs, ring), ScalarSeries(MAXDEG, coeffs, ring, ko)


def random_matrix(rng, ring, n):
    ko = rng.randint(1, MAXDEG)
    full, cut = [], []
    for _ in range(n):
        pairs = [random_series(rng, ring, ko, rng.choice((0.0, 0.4, 0.8))) for _ in range(n)]
        full.append([p[0] for p in pairs])
        cut.append([p[1] for p in pairs])
    return full, HMatrix(cut)


def assert_matches(got, oracle, truth):
    """got agrees with the oracle through its least known order, with no less known
    order, and with the untruncated truth through got's own known order."""
    floor = min(e.known_order for row in oracle for e in row)
    assert got.known_order >= floor
    for i in range(got.n):
        for j in range(got.n):
            entry = got.entry(i, j)
            assert entry.equal_through(oracle[i][j], floor)
            assert entry.equal_through(truth[i][j], got.known_order)


@pytest.mark.parametrize("ring", [None, unitary_ring(4)], ids=["Q", "unitary"])
def test_arithmetic_matches_entrywise_oracle(ring):
    rng = random.Random(20260)
    for _ in range(60):
        n = rng.randint(1, 4)
        (fa, a), (fb, b) = random_matrix(rng, ring, n), random_matrix(rng, ring, n)
        assert_matches(a * b, dense_mul(grid(a), grid(b)), dense_mul(fa, fb))
        assert_matches(a + b, dense_add(grid(a), grid(b)), dense_add(fa, fb))
        fs, s = random_series(rng, ring, rng.randint(1, MAXDEG), 0.6)
        assert_matches(s * a, dense_scale(s, grid(a)), dense_scale(fs, fa))


def test_rows_with_mixed_known_orders_give_the_minimum():
    h = ScalarSeries.gen(7)
    rows = [[ScalarSeries.one(7, known_order=6) + h, h.shift(6)],
            [ScalarSeries.zero(7), ScalarSeries.one(7, known_order=7)]]
    m = HMatrix(rows)
    assert m.known_order == 6
    assert all(m.entry(i, j).known_order == 6 for i in range(2) for j in range(2))
    assert m.entry(0, 1).is_zero() and m.entry(0, 0).coefficient(1) == 1


def test_product_of_positive_order_matrices_gains_an_order():
    ko = 4
    h = ScalarSeries.gen(6, known_order=ko)
    a = h * HMatrix.from_const([[F(1), F(2)], [F(-1), F(3)]], 6, known_order=ko)
    b = h * HMatrix.from_const([[F(2), F(-1, 2)], [F(5), F(1)]], 6, known_order=ko)
    assert a.known_order == b.known_order == ko and a.order() == b.order() == 1
    assert (a * b).known_order == ko + 1


@pytest.mark.parametrize("kind", ["semi", "unitary"])
def test_delta_by_recursion_equals_the_word_product(kind, phi0):
    shape = Partition((3, 2))
    model = MatrixModel(kind, phi0) if kind == "semi" else MatrixModel(kind, maxdeg=5)
    rep = rep_build(shape, model)
    for r in range(2, shape.n + 1):
        word = HMatrix.identity(rep.N, rep.maxdeg, rep.ring, rep.known_order)
        for v in BraidWord.delta(shape.n, r).letters:
            word = word * rep.sigma(v)
        assert to_text(rep.delta(r)) == to_text(word)
        assert rep.image(BraidWord.delta(shape.n, r)) is rep.delta(r)
