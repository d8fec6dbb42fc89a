"""The one Truncated product rule, against plain products.

The rule splits each factor into int monomial layers over one common
denominator and convolves layer pairs in int.  The product is born in that
form, its least denominator and int layers, over a ring one layer per
exponent vector with each quadratic symbol's square folded in where two
layers meet, and builds its Polys, or over Q its Fractions, when its terms
are first read.  Over a ring the oracle below multiplies key pairs with
Poly arithmetic, coefficient by coefficient; over Q it is the type's own
convolution of the Fraction terms.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from _holonomy_oracle import HoloAlgebra, HoloElt
from gtassoc import truncated
from gtassoc.hecke import unitary_ring
from gtassoc.hmatrix import HMatrix
from gtassoc.kz import kz_ring
from gtassoc.ncseries import NCSeries
from gtassoc.scalar import ScalarSeries
from gtassoc.symcoef import Poly, SymRing, layers

AB_RING = SymRing(("a", "b"))


def _key_products(x, k1, k2):
    """{key: multiplicity} of the product of the keys k1 and k2 of x's type."""
    if isinstance(x, HoloElt):
        return x.algebra.normal_form(k1, k2)
    if isinstance(x, HMatrix):
        return {(k1[0] + k2[0], k1[1], k2[2]): 1} if k1[2] == k2[1] else {}
    return {k1 + k2: 1}


def _plain_product(a, b):
    """(terms, known order) of a * b by a double loop over key pairs in Poly arithmetic."""
    wa, wb = a.order(), b.order()
    if wa is None or wb is None:
        return {}, min(a.known_order, b.known_order)
    ko = min(a.known_order + wb, b.known_order + wa, a.maxdeg)
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            if a._degree(k1) + b._degree(k2) <= ko:
                for k, mult in _key_products(a, k1, k2).items():
                    c = c1 * c2 * mult
                    out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}, ko


def assert_matches_plain(a, b, ring):
    got = a * b
    want, ko = _plain_product(a, b)
    assert got.known_order == ko
    assert got.terms == want
    assert all(type(c) is Poly and c.ring == ring and c for c in got.terms.values())
    return got


def _poly(rng, ring, symbols):
    """A random Poly of ring: a rational constant plus a few monomials in symbols."""
    c = ring.const(F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))))
    for _ in range(rng.randint(1, 3)):
        mono = ring.one
        for name in rng.sample(symbols, rng.randint(1, min(2, len(symbols)))):
            mono = mono * ring.symbol(name)
        c = c + F(rng.randint(-5, 5), rng.choice((1, 2, 5))) * mono
    return c


def _rational(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 11)))


def _matrix(rng, ring, coeff, n=3, maxdeg=5):
    ko = rng.randint(1, maxdeg)
    terms = {(p, i, j): coeff() for p in range(rng.randint(0, 1), ko + 1)
             for i in range(n) for j in range(n) if rng.random() < 0.4}
    return HMatrix.zero(n, maxdeg, ring, ko)._like(terms)


def _holo(rng, alg, coeff, ring=None):
    low = rng.randint(0, 2)
    terms = {rng.choice(alg.basis_words(rng.randint(low, 3))): coeff()
             for _ in range(rng.randint(1, 10))}
    return HoloElt(alg, terms, known_order=rng.randint(max(low, 1), alg.maxdeg), ring=ring)


def _scalar(rng, ring, coeff, maxdeg=8):
    ko = rng.randint(2, maxdeg)
    terms = {p: coeff() for p in range(rng.randint(0, 2), ko + 1) if rng.random() < 0.7}
    return ScalarSeries(maxdeg, terms, ring, ko)


def test_unitary_matrices_match_the_plain_product():
    ring = unitary_ring(4)
    rng = random.Random(2024)
    for _ in range(25):
        a, b = (_matrix(rng, ring, lambda: _poly(rng, ring, ring.symbols)) for _ in range(2))
        assert_matches_plain(a, b, ring)
        assert_matches_plain(b, a, ring)


def test_holonomy_elements_over_a_b_match_the_plain_product():
    alg = HoloAlgebra(4, 5)
    rng = random.Random(77)
    for _ in range(20):
        u, v = (_holo(rng, alg, lambda: _poly(rng, AB_RING, ("a", "b")), AB_RING)
                for _ in range(2))
        assert_matches_plain(u, v, AB_RING)
        assert_matches_plain(v, u, AB_RING)


def test_kz_scalar_series_match_the_plain_product():
    ring = kz_ring()
    names = ring.symbols[:4]
    rng = random.Random(5)
    for _ in range(25):
        x, y = (_scalar(rng, ring, lambda: _poly(rng, ring, names)) for _ in range(2))
        assert_matches_plain(x, y, ring)


def test_poly_factor_times_rational_factor_either_side():
    """Both factors are over the ring; the rational coefficients of one,
    coerced into the ring, sit in the constant layer."""
    rng = random.Random(31)
    ring = unitary_ring(4)
    alg = HoloAlgebra(4, 4)
    for _ in range(10):
        pairs = [
            (_matrix(rng, ring, lambda: _poly(rng, ring, ring.symbols)),
             _matrix(rng, ring, lambda: _rational(rng)), ring),
            (_holo(rng, alg, lambda: _poly(rng, AB_RING, ("a", "b")), AB_RING),
             _holo(rng, alg, lambda: _rational(rng), AB_RING), AB_RING),
            # the unit of the holonomy algebra, which braid_image folds a word onto
            (_holo(rng, alg, lambda: _poly(rng, AB_RING, ("a", "b")), AB_RING),
             HoloElt(alg, {b"": F(1)}, ring=AB_RING), AB_RING),
        ]
        for p, q, r in pairs:
            assert_matches_plain(p, q, r)
            assert_matches_plain(q, p, r)


def test_series_mixing_fraction_and_poly_coefficients():
    ring = kz_ring()
    names = ring.symbols[:3]
    rng = random.Random(8)
    for _ in range(20):
        mixed = _scalar(rng, ring, lambda: _poly(rng, ring, names) if rng.random() < 0.5
                        else _rational(rng))
        other = _scalar(rng, ring, lambda: _poly(rng, ring, names))
        if not any(type(c) is Poly for c in mixed.terms.values()):
            continue
        assert_matches_plain(mixed, other, ring)
        assert_matches_plain(mixed, mixed, ring)


def test_cancellation_across_layer_pairs_leaves_no_term():
    """(a, b) times the column (b, -a): the a.b and b.(-a) layer pairs cancel."""
    a, b = AB_RING.symbol("a"), AB_RING.symbol("b")
    row = HMatrix.zero(2, 4, AB_RING)._like({(0, 0, 0): a, (1, 0, 1): F(1, 3) * b})
    col = HMatrix.zero(2, 4, AB_RING, 3)._like({(1, 0, 0): b, (0, 1, 0): -3 * a})
    got = assert_matches_plain(row, col, AB_RING)
    assert got.terms == {} and got.known_order == 3


def test_quadratic_reduction_folds_into_the_constant_layer_and_cancels():
    """(s - 3h)(1 + s h) = s + (s s - 3) h - 3 s h^2 with s^2 = 3: the h term vanishes."""
    ring = SymRing(("s", "t"), {"s": 3, "t": F(5, 2)})
    s, t = ring.symbol("s"), ring.symbol("t")
    x = ScalarSeries(4, {0: s, 1: ring.const(-3)}, ring)
    y = ScalarSeries(4, {0: ring.one, 1: s}, ring, 3)
    got = assert_matches_plain(x, y, ring)
    assert got.known_order == 3 and got.terms == {0: s, 2: -3 * s}
    # t t s s = 15/2 lands in the constant layer and cancels there too
    z = ScalarSeries(4, {0: t * s, 1: ring.const(F(-15, 2))}, ring)
    w = ScalarSeries(4, {0: ring.one, 1: t * s}, ring)
    got = assert_matches_plain(z, w, ring)
    assert 1 not in got.terms and got.terms[0] == t * s



# -- products over Q, born in int ---------------------------------------------


def _known_order(a, b):
    wa, wb = a.order(), b.order()
    if wa is None or wb is None:
        return min(a.known_order, b.known_order)
    return min(a.known_order + wb, b.known_order + wa, a.maxdeg)


def _fraction_product(a, b):
    """a * b from the type's convolution of the Fraction terms, as products were formed eagerly."""
    ko = _known_order(a, b)
    return a._like(a._convolve(a.terms, b.terms, ko), ko)


def _nc(rng, coeff, maxdeg=5):
    ko = rng.randint(2, maxdeg)
    words = [bytes(rng.randrange(3) for _ in range(rng.randint(0, 3))) for _ in range(8)]
    return NCSeries(("x", "y", "z"), maxdeg, {w: coeff() for w in words}, None, ko)


def _int(rng):
    return rng.randint(-6, 6)


ALG = HoloAlgebra(4, 4)
RATIONAL_MAKERS = {
    "ncseries": lambda rng, coeff: _nc(rng, coeff),
    "holonomy": lambda rng, coeff: _holo(rng, ALG, coeff),
    "scalar": lambda rng, coeff: _scalar(rng, None, coeff),
    "hmatrix": lambda rng, coeff: _matrix(rng, None, coeff),
}


@contextmanager
def fractions_built():
    """A one-entry list that counts the Fractions the truncated module builds
    inside the block."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return F(*args)
    saved, truncated.Fraction = truncated.Fraction, counted
    try:
        yield count
    finally:
        truncated.Fraction = saved


def _born_copy(x):
    """x as a born product: x times its unit, which builds no coefficient."""
    with fractions_built() as built:
        got = x * x._one()
    assert built == [0] and got == x and got.known_order == x.known_order
    return got


def assert_matches_fractions(a, b):
    got = a * b
    want = _fraction_product(a, b)
    assert got.known_order == want.known_order
    # the same values in the same insertion order as the eager Fraction build
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is F for c in got.terms.values())
    # the layers it was born with are those of its terms
    assert got == got._like(got.terms)
    return got


@pytest.mark.parametrize("kind", sorted(RATIONAL_MAKERS))
def test_rational_products_are_born_in_int_and_match_the_fraction_product(kind):
    make, rng = RATIONAL_MAKERS[kind], random.Random(len(kind))
    for _ in range(15):
        a, b = make(rng, lambda: _rational(rng)), make(rng, lambda: _rational(rng))
        # born: no Fraction term is built until the terms are read
        with fractions_built() as built:
            got = a * b
        assert built == [0]
        with fractions_built() as built:
            got.terms
        assert built == [len(got.terms)]
        assert_matches_fractions(a, b)
        assert_matches_fractions(b, a)


@pytest.mark.parametrize("kind", sorted(RATIONAL_MAKERS))
def test_an_all_int_factor_meets_a_fraction_factor(kind):
    make, rng = RATIONAL_MAKERS[kind], random.Random(3 + len(kind))
    for _ in range(10):
        ints, fracs = make(rng, lambda: _int(rng)), make(rng, lambda: _rational(rng))
        assert_matches_fractions(ints, fracs)
        assert_matches_fractions(fracs, ints)
        # two int factors give Fractions, as every value over Q reads
        got = ints * ints
        assert got.terms == _fraction_product(ints, ints).terms
        assert all(type(c) is F for c in got.terms.values())


@pytest.mark.parametrize("kind", sorted(RATIONAL_MAKERS))
def test_chains_of_born_values(kind):
    """born * born, born * eager and eager * born, each against the Fraction chain."""
    make, rng = RATIONAL_MAKERS[kind], random.Random(11 * len(kind))
    for _ in range(5):
        factors = [make(rng, lambda: _rational(rng)) for _ in range(4)]
        got, want = factors[0], factors[0]
        for f in factors[1:]:
            got, want = assert_matches_fractions(got, f), _fraction_product(want, f)
            assert got.terms == want.terms and got.known_order == want.known_order
        left = assert_matches_fractions(factors[0], _born_copy(factors[1]))
        both = assert_matches_fractions(_born_copy(factors[0]), _born_copy(factors[1]))
        assert left.terms == both.terms


def test_truncation_and_cancellation_leave_a_zero_with_the_product_known_order():
    # orders 2 and 2 past maxdeg 3: every pair falls past the known order
    x = NCSeries(("x", "y"), 3, {b"\x00\x01": F(1, 2)})
    y = NCSeries(("x", "y"), 3, {b"\x01\x01": F(2, 3), b"\x00\x00\x00": F(5, 7)})
    got = assert_matches_fractions(x, y)
    assert got.terms == {} and got.known_order == 3 and got.order() is None
    # (1/2, 1/3) times the column (2/3, -1): one term, which cancels
    row = HMatrix.from_terms(2, {(0, 0, 0): F(1, 2), (0, 0, 1): F(1, 3)}, 4)
    col = HMatrix.from_terms(2, {(0, 0, 0): F(2, 3), (0, 1, 0): F(-1)}, 4, known_order=3)
    got = assert_matches_fractions(row, col)
    assert got.terms == {} and got.known_order == 3 and got.is_zero()
    # a scalar product cut at the factors' known orders: h^3 and past drop out
    a = ScalarSeries(8, {0: F(1, 2), 1: F(1, 3), 2: F(1, 5)}, None, 2)
    b = ScalarSeries(8, {1: F(3, 4), 3: F(1, 9)}, None, 4)
    got = assert_matches_fractions(a, b)
    assert got.known_order == 3 and got.terms == {1: F(3, 8), 2: F(1, 4), 3: F(37, 180)}


@pytest.mark.parametrize("kind", sorted(RATIONAL_MAKERS))
def test_equal_through_on_born_values_agrees_with_the_difference(kind):
    make, rng = RATIONAL_MAKERS[kind], random.Random(5 * len(kind))
    for _ in range(10):
        a, b = make(rng, lambda: _rational(rng)), make(rng, lambda: _rational(rng))
        x = a * b
        for y in (b * a, _born_copy(x), _fraction_product(a, b), x * x._one() + x._one() - x._one()):
            for order in [None] + list(range(min(x.known_order, y.known_order) + 1)):
                assert x.equal_through(y, order) == (x - y).is_zero(order)
                assert y.equal_through(x, order) == (y - x).is_zero(order)
        assert x.equal_through(_fraction_product(a, b))


def test_equal_through_below_the_known_order_where_denominators_differ_above_it():
    """Equal through h^1, the least denominators 30 and 42 differ only at h^2."""
    a = _born_copy(ScalarSeries(4, {0: F(1, 2), 1: F(1, 3), 2: F(1, 5)}, None, 2))
    b = _born_copy(ScalarSeries(4, {0: F(1, 2), 1: F(1, 3), 2: F(1, 7)}, None, 2))
    assert layers(a.terms)[0] == 30 and layers(b.terms)[0] == 42
    for order in (0, 1):
        assert a.equal_through(b, order) and (a - b).is_zero(order)
    assert not a.equal_through(b) and not a.equal_through(b, 2)
    # one denominator, numerators that differ only past the order read
    c = _born_copy(ScalarSeries(4, {0: F(1, 2), 1: F(1, 3), 2: F(-1, 5)}, None, 2))
    assert layers(a.terms)[0] == layers(c.terms)[0]
    assert a.equal_through(c, 1) and not a.equal_through(c)
    # the same numerators over different denominators
    half, third = (_born_copy(ScalarSeries(4, {0: F(1, n), 1: F(1, n)})) for n in (2, 3))
    assert layers(half.terms)[1] == layers(third.terms)[1] and not half.equal_through(third)
    assert not half.equal_through(third, 0)
    # past the known order the comparison raises, as every comparison does
    with pytest.raises(ValueError):
        a.equal_through(b, 3)


def test_a_fraction_built_operand_is_split_once():
    """A value made from Fractions is split into layers when made: products
    of it build no Fraction, and give one value each time."""
    a = ScalarSeries(6, {0: F(1, 2), 1: F(2, 3)})
    b = ScalarSeries(6, {0: F(3, 5), 2: F(1, 7)})
    with fractions_built() as built:
        first, again = a * b, a * b
    assert built == [0]
    assert a == a._like(a.terms) and again.terms == first.terms


@pytest.mark.parametrize("kind", sorted(RATIONAL_MAKERS))
def test_terms_are_read_only(kind):
    rng = random.Random(1)
    x = RATIONAL_MAKERS[kind](rng, lambda: _rational(rng))
    for value in (x, x * x):
        with pytest.raises(AttributeError):
            value.terms = {}
