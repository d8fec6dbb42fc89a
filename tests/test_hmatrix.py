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
from types import SimpleNamespace

import pytest

from gtassoc.braids import BraidWord
from gtassoc.hecke import MatrixModel, rep_build, unitary_ring
from gtassoc.hmatrix import HMatrix, to_text
from gtassoc.scalar import ScalarSeries
from gtassoc.symcoef import SymRing
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


def nested(m):
    """m's flat (power, row, col) terms viewed as {power: {(row, col): coefficient}}."""
    view = {}
    for (p, i, j), c in m.terms.items():
        view.setdefault(p, {})[i, j] = c
    return SimpleNamespace(terms=view)


def fraction_convolve(a, b, ko):
    """The row-indexed sparse product in Fraction arithmetic: the oracle for
    the int sums of HMatrix products over Q."""
    b_rows = {}
    for q, m in b.terms.items():
        rows = b_rows[q] = {}
        for (k, j), c in m.items():
            rows.setdefault(k, []).append((j, c))
    terms = {}
    for p, m in a.terms.items():
        for q, rows in b_rows.items():
            if p + q > ko:
                continue
            acc = terms.setdefault(p + q, {})
            for (i, k), x in m.items():
                for j, y in rows.get(k, ()):
                    cur = acc.get((i, j))
                    acc[i, j] = x * y if cur is None else cur + x * y
    return terms


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


def test_matrices_of_different_sizes_are_refused():
    a, b = HMatrix.identity(2, 4), HMatrix.identity(3, 4)
    for left, right in ((a, b), (b, a)):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ValueError, match="differ in size"):
                op(left, right)
    # a series still multiplies a matrix of any size as the diagonal it stands for
    two = ScalarSeries.const(2, 4)
    assert (two * b).terms == (b * two).terms == (b + b).terms


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


def matrix_of(grid_terms, maxdeg, known_order):
    """An HMatrix from a grid of {power: coefficient} dicts, all at one known order."""
    return HMatrix([[ScalarSeries(maxdeg, {p: F(c) for p, c in e.items()}, None, known_order)
                     for e in row] for row in grid_terms])


def assert_product_matches_fraction_oracle(a, b):
    got = a * b
    oracle = fraction_convolve(nested(a), nested(b), got.known_order)
    want = a._like({(p, i, j): c for p, m in oracle.items() for (i, j), c in m.items()},
                   got.known_order)
    assert got.terms == want.terms
    assert all(type(c) is F for m in nested(got).terms.values() for c in m.values())
    return got


def test_rational_product_matches_the_fraction_oracle():
    rng = random.Random(9973)
    denominators = (1, 1, 2, 3, 9973, 10007)
    for _ in range(60):
        n = rng.randint(1, 4)
        pair = []
        for _ in range(2):
            ko = rng.randint(1, MAXDEG)
            pair.append(matrix_of(
                [[{p: F(rng.randint(-9, 9), rng.choice(denominators))
                   for p in range(rng.randint(0, 2), ko + 1) if rng.random() < 0.5}
                  for _ in range(n)] for _ in range(n)], MAXDEG, ko))
        assert_product_matches_fraction_oracle(*pair)


def test_integral_factors_multiply_over_denominator_one():
    a = matrix_of([[{0: 2, 1: -3}, {}], [{1: 5}, {0: 1}]], 4, 4)
    b = matrix_of([[{0: 1}, {2: 7}], [{0: -4}, {1: 1}]], 4, 3)
    got = assert_product_matches_fraction_oracle(a, b)
    assert got.known_order == 3
    assert all(c.denominator == 1 for m in nested(got).terms.values() for c in m.values())


def test_coprime_denominators_and_cancellation():
    x, y = F(1, 9973), F(1, 10007)
    a = matrix_of([[{0: x, 1: y}, {0: y}], [{}, {1: x}]], 3, 3)
    b = matrix_of([[{0: y}, {0: x}], [{0: -x, 1: -y}, {0: 3}]], 3, 2)
    got = assert_product_matches_fraction_oracle(a, b)
    # (0, 0) is x*y - y*x at h^0 and y*y - y*y at h^1: both cancel and are dropped
    terms = nested(got).terms
    assert (0, 0) not in terms.get(0, {}) and (0, 0) not in terms.get(1, {})
    assert terms[0][0, 1] == x * x + 3 * y
    assert terms[1][1, 0] == -x * x


def test_mixed_known_orders_truncate_like_the_oracle():
    h = ScalarSeries.gen(6, known_order=2)
    a = h * matrix_of([[{0: F(1, 3), 2: F(-5, 7)}, {1: F(2, 9)}], [{0: 1}, {}]], 6, 2)
    b = matrix_of([[{0: F(1, 7)}, {3: F(4, 5)}], [{1: F(-1, 11)}, {0: F(2)}]], 6, 5)
    got = assert_product_matches_fraction_oracle(a, b)
    assert got.known_order == min(a.known_order + b.order(), b.known_order + a.order())
    assert assert_product_matches_fraction_oracle(b, a).known_order == got.known_order


def test_rows_must_share_one_variable_and_ring():
    ring = SymRing(("a",))
    q = ScalarSeries.one(3)
    p = ScalarSeries.const(ring.symbol("a"), 3, ring)
    with pytest.raises(ValueError):
        HMatrix([[q, p], [q, q]])
    with pytest.raises(ValueError):
        HMatrix([[q, ScalarSeries.one(3, var="t")], [q, q]])
    assert HMatrix([[p, p], [p, p]]).ring == ring


def test_entries_and_factors_must_share_one_maxdeg():
    with pytest.raises(ValueError, match="maxdeg"):
        HMatrix([[ScalarSeries.one(4), ScalarSeries.zero(5)],
                 [ScalarSeries.zero(4), ScalarSeries.one(4)]])
    m = HMatrix.identity(2, 4)
    for s in (ScalarSeries.gen(5), ScalarSeries.gen(3)):
        with pytest.raises(ValueError, match="maxdeg"):
            s * m
        with pytest.raises(ValueError, match="maxdeg"):
            m * s
