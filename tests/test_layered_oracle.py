"""The int-layer arithmetic against the Poly-per-term oracle of _poly_oracle.

Over Q[a,b], over unitary_ring(4) (s_d^2 = d^2 - 1) and over a ring whose
quadratic symbol has a non-integer square (s^2 = 1/3), random values of all
four series types, of mixed known orders, meet under +, -, negation,
scaling by a Fraction and by a Poly, *, exp, log, inverse, evaluation and
equal_through.  Each result must have the oracle's terms, each a Poly of
the ring, and the oracle's known order.  The second operand of every sum
repeats some terms of the first with the opposite sign, so sums cancel.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import _poly_oracle as oracle
from _holonomy_oracle import HoloAlgebra
from gtassoc.hecke import unitary_ring
from gtassoc.hmatrix import HMatrix
from gtassoc.ncseries import NCSeries
from gtassoc.scalar import ScalarSeries
from gtassoc.symcoef import Poly, SymRing
from gtassoc.truncated import evaluate
from gtassoc.wbasis import XY

MAXDEG = 4
T3 = HoloAlgebra(3, MAXDEG)
RINGS = {
    "a,b": SymRing(("a", "b")),
    "unitary4": unitary_ring(4),
    "s^2=1/3": SymRing(("s", "t"), {"s": F(1, 3)}),
}
# type -> (keys by degree 0..MAXDEG, zero value known through ko over ring)
KINDS = {
    "NCSeries": ([[bytes(w) for w in words] for words in
                  ([()], [(0,), (1,)], [(0, 1), (1, 0), (1, 1)], [(0, 0, 1), (1, 0, 1)],
                   [(0, 1, 1, 0), (1, 1, 0, 0)])],
                 lambda ko, ring: NCSeries(XY, MAXDEG, {}, ring, ko)),
    "HoloElt": ([T3.basis_words(d)[:3] for d in range(MAXDEG + 1)],
                lambda ko, ring: T3.zero(ko).promote(ring)),
    "ScalarSeries": ([[p] for p in range(MAXDEG + 1)],
                     lambda ko, ring: ScalarSeries(MAXDEG, {}, ring, ko)),
    "HMatrix": ([[(p, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]
                 for p in range(MAXDEG + 1)],
                lambda ko, ring: HMatrix.zero(2, MAXDEG, ring, ko)),
}


@st.composite
def polys(draw, ring):
    """A Poly of ring: a rational constant plus up to two monomials of degree <= 2."""
    c = ring.const(F(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2, 3, 7)))))
    for _ in range(draw(st.integers(0, 2))):
        mono = ring.one
        for name in draw(st.lists(st.sampled_from(ring.symbols), min_size=1, max_size=2)):
            mono = mono * ring.symbol(name)
        c = c + F(draw(st.integers(-5, 5)), draw(st.sampled_from((1, 2, 5)))) * mono
    return c


@st.composite
def coefficients(draw, ring):
    """Mostly Polys of ring, now and then a Fraction or an int."""
    kind = draw(st.sampled_from(("poly", "poly", "poly", "fraction", "int")))
    if kind == "fraction":
        return F(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2, 3, 11))))
    if kind == "int":
        return draw(st.integers(-3, 3))
    return draw(polys(ring))


def value(draw, kind, ring, ko, low, negated=None):
    """A value of kind over ring known through ko, with terms of degree low..ko,
    at least one a nonconstant Poly; negated, a value of the same kind, lends some of its
    terms with the opposite sign."""
    keys_by_degree, zero = KINDS[kind]
    keys = [k for d in range(low, ko + 1) for k in keys_by_degree[d]]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True))
    terms = {k: draw(coefficients(ring)) for k in chosen}
    if negated is not None:
        lent = draw(st.lists(st.sampled_from(sorted(negated.terms, key=repr)), unique=True))
        terms.update((k, -negated.terms[k]) for k in lent if k in keys)
    terms[chosen[0]] = ring.symbol(ring.symbols[0]) + F(draw(st.integers(1, 5)), 7)
    return zero(ko, ring)._like(terms)


def assert_same(got, want, ring):
    assert got.known_order == want.known_order
    assert got.terms == want.terms
    assert all(type(c) is Poly and c.ring == ring for c in got.terms.values())


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_layered_arithmetic_matches_the_poly_oracle(kind, ring_name, data):
    ring, draw = RINGS[ring_name], data.draw
    ko_f, ko_g, ko_h = (draw(st.integers(1, MAXDEG)) for _ in range(3))
    f = value(draw, kind, ring, ko_f, 1)
    g = value(draw, kind, ring, ko_g, 0, negated=f)
    h = value(draw, kind, ring, ko_h, 1, negated=f)
    c, p = F(draw(st.integers(-5, 5)), draw(st.integers(1, 6))), draw(polys(ring))
    one = f._one()
    unit = oracle.add(oracle.scale(F(draw(st.integers(1, 3))), one), f)
    cases = [
        (f + g, oracle.add(f, g)), (g + f, oracle.add(g, f)), (f - h, oracle.sub(f, h)),
        (-g, oracle.neg(g)), (c * g, oracle.scale(c, g)), (p * g, oracle.scale(p, g)),
        (g * p, oracle.scale(p, g)), (f * g, oracle.mul(f, g)), (g * h, oracle.mul(g, h)),
        ((f + g) * h, oracle.mul(oracle.add(f, g), h)),
        (f.exp(), oracle.exp(f)), ((one + f).log(), oracle.log(oracle.add(one, f))),
        (unit.inverse(), oracle.inverse(unit)),
    ]
    series = value(draw, "NCSeries", ring, draw(st.integers(1, MAXDEG)), 0)
    cases.append((evaluate(series, {"x": f, "y": h}), oracle.evaluate(series, {"x": f, "y": h})))
    for got, want in cases:
        assert_same(got, want, ring)
    for x, y in ((f, g), (g, h), (f, (f + g) - g), ((f - h) + h, f), (f - f, h - h)):
        for order in [None] + list(range(min(x.known_order, y.known_order) + 1)):
            assert x.equal_through(y, order) == oracle.equal_through(x, y, order)
            assert y.equal_through(x, order) == oracle.equal_through(y, x, order)
