"""The one Truncated product rule over Poly coefficients, against a plain double loop.

The rule splits each factor into int monomial layers over one common
denominator, convolves layer pairs in int and builds one Poly per output
key, reducing quadratic symbols at the end.  The oracle below multiplies
key pairs with Poly arithmetic, coefficient by coefficient.
"""

import random
from fractions import Fraction as F

from gtassoc.hecke import unitary_ring
from gtassoc.hmatrix import HMatrix
from gtassoc.holonomy import HoloAlgebra, HoloElt
from gtassoc.kz import kz_ring
from gtassoc.scalar import ScalarSeries
from gtassoc.symcoef import Poly, SymRing

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


def _holo(rng, alg, coeff):
    low = rng.randint(0, 2)
    terms = {rng.choice(alg.basis_words(rng.randint(low, 3))): coeff()
             for _ in range(rng.randint(1, 10))}
    return HoloElt(alg, terms, known_order=rng.randint(max(low, 1), alg.maxdeg))


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
        u, v = (_holo(rng, alg, lambda: _poly(rng, AB_RING, ("a", "b"))) for _ in range(2))
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
    """The ring comes from whichever factor has a Poly; the other's rationals
    sit in the constant layer."""
    rng = random.Random(31)
    ring = unitary_ring(4)
    alg = HoloAlgebra(4, 4)
    for _ in range(10):
        pairs = [
            (_matrix(rng, ring, lambda: _poly(rng, ring, ring.symbols)),
             _matrix(rng, ring, lambda: _rational(rng)), ring),
            (_holo(rng, alg, lambda: _poly(rng, AB_RING, ("a", "b"))),
             _holo(rng, alg, lambda: _rational(rng)), AB_RING),
            # the Q unit of the holonomy algebra, which braid_image folds a word onto
            (_holo(rng, alg, lambda: _poly(rng, AB_RING, ("a", "b"))),
             HoloElt(alg, {b"": F(1)}), AB_RING),
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

