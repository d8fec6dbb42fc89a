from fractions import Fraction as F

import pytest

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
    # caller-supplied root is accepted when it squares correctly
    s = 9 * one + h
    r = scalar_sqrt(s, root=F(3))
    assert (r * r).equal_through(s)
    with pytest.raises(ValueError):
        scalar_sqrt(s, root=F(2))


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
