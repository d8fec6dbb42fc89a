from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _division_oracle import long_division
from gtassoc.scalar import ScalarSeries, from_text, scalar_div, scalar_sqrt, to_text
from gtassoc.symcoef import SymRing


def test_div_examples_and_known_order():
    h = ScalarSeries.gen(6)
    q = scalar_div(2 * h + h * h, h)
    assert q.coefficient(0) == 2 and q.coefficient(1) == 1
    assert q.known_order == 5  # one order lost dividing by h
    with pytest.raises(ValueError):
        scalar_div(ScalarSeries.one(6), h)
    with pytest.raises(ZeroDivisionError):
        scalar_div(h, ScalarSeries.zero(6))


def test_div_exactness():
    h = ScalarSeries.gen(8)
    den = ScalarSeries.one(8) + 3 * h + h * h
    num = den * (ScalarSeries.one(8) - h + 5 * h * h * h)
    q = scalar_div(num, den)
    assert q.equal_through(ScalarSeries.one(8) - h + 5 * h * h * h)


def test_sqrt_perfect_square_and_expansion():
    one, h = ScalarSeries.one(6), ScalarSeries.gen(6)
    s = (one + h) * (one + h)
    assert scalar_sqrt(s).equal_through(one + h)
    # hand-checked: sqrt(1+h) = 1 + h/2 - h^2/8 + ...
    r = scalar_sqrt(one + h)
    assert r.coefficient(1) == F(1, 2)
    assert r.coefficient(2) == F(-1, 8)
    assert (r * r).equal_through(one + h)


def test_sqrt_needs_square_leading_coefficient():
    one, h = ScalarSeries.one(6), ScalarSeries.gen(6)
    with pytest.raises(ValueError):
        scalar_sqrt(3 * one + h)
    s = 9 * one + h
    r = scalar_sqrt(s)
    assert r.coefficient(0) == 3 and (r * r).equal_through(s)


def test_exp_log_and_eps():
    h = ScalarSeries.gen(7)
    e = ScalarSeries.exp_multiple(2, 7)
    assert e.log().equal_through(2 * h)
    assert (e.eps() * e).is_one()
    assert e.eps().equal_through(ScalarSeries.exp_multiple(-2, 7))


def test_text_round_trip():
    h = ScalarSeries.gen(5)
    s = ScalarSeries.one(5) + F(3, 7) * h * h
    text = to_text(s, extra={"kind": "scalar"})
    s2, fields = from_text(text)
    assert s2 == s and fields["kind"] == "scalar"
    assert to_text(s2, extra={"kind": "scalar"}) == text
    ring = SymRing(("a",))
    sym = s.promote(ring) * ring.symbol("a")
    text2 = to_text(sym)
    s3, _ = from_text(text2)
    assert s3 == sym


def test_variable_mismatch_rejected():
    a = ScalarSeries.gen(4, var="h")
    b = ScalarSeries.gen(4, var="hbar")
    with pytest.raises(ValueError):
        a + b


def test_maxdeg_mismatch_rejected():
    a, b = ScalarSeries.one(4) + ScalarSeries.gen(4), ScalarSeries.one(5)
    for op in (lambda: a + b, lambda: a * b, lambda: scalar_div(a, b)):
        with pytest.raises(ValueError, match="maxdeg mismatch: 4 vs 5"):
            op()


def test_sqrt_of_a_monomial_keeps_the_known_order_of_its_unit():
    # 4h^2 + O(h^3) has root 2h + O(h^2): the unit 1 + O(h) is known through degree 0
    s = ScalarSeries(3, {2: F(4)}, known_order=2)
    r = scalar_sqrt(s)
    assert r.known_order == 1 and r.coefficient(1) == 2
    assert (r * r).equal_through(s)


# -- scalar_div against long division ----------------------------------------

AB = SymRing(("a", "b"))
_COEFF = st.tuples(st.integers(-4, 4), st.integers(1, 3), st.integers(-2, 2), st.integers(-2, 2))


def _coeff(spec, ring):
    """p/d over Q, or p/d + q a + r b over Q[a, b]."""
    p, d, q, r = spec
    if ring is None:
        return F(p, d)
    return ring.const(F(p, d)) + q * ring.symbol("a") + r * ring.symbol("b")


@st.composite
def _quotients(draw):
    """(num, den) over Q or Q[a, b]: den of order w_d = 0, 1 or 2 with a rational
    (over Q[a, b] a constant Poly) lead, num of order at least w_d or zero, and
    known orders from w_d to maxdeg."""
    ring = draw(st.sampled_from([None, AB]))
    maxdeg = draw(st.integers(3, 6))
    wd = draw(st.integers(0, 2))
    lead = F(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    den = {wd: lead if ring is None else ring.const(lead)}
    for k in range(wd + 1, maxdeg + 1):
        den[k] = _coeff(draw(_COEFF), ring)
    wn = draw(st.integers(wd, maxdeg + 1))
    num = {k: _coeff(draw(_COEFF), ring) for k in range(wn, maxdeg + 1)}
    ko_num, ko_den = (draw(st.integers(wd, maxdeg)) for _ in range(2))
    return ScalarSeries(maxdeg, num, ring, ko_num), ScalarSeries(maxdeg, den, ring, ko_den)


@settings(max_examples=200, deadline=None)
@given(_quotients())
def test_div_equals_long_division(pair):
    num, den = pair
    got, want = scalar_div(num, den), long_division(num, den)
    assert got.known_order == want.known_order == min(num.known_order, den.known_order) - den.order()
    assert got.terms == want.terms
    wd = den.order()
    assert (got * den.shift(-wd)).equal_through(num.shift(-wd), got.known_order)


def test_div_refusals_match_long_division():
    h, one = ScalarSeries.gen(4), ScalarSeries.one(4)
    refused = [(h, ScalarSeries.zero(4), ZeroDivisionError, "zero series"),
               (one, h, ValueError, r"order\(num\) < order\(den\)"),
               (ScalarSeries.zero(4, known_order=1), h * h, ValueError, "exceeds the known order"),
               (h.promote(AB), (one + h).promote(AB) * AB.symbol("a"), ValueError,
                "not a rational constant")]
    for num, den, error, message in refused:
        for divide in (scalar_div, long_division):
            with pytest.raises(error, match=message):
                divide(num, den)
