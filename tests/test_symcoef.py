from fractions import Fraction as F

import pytest

from gtassoc.symcoef import (SymRing, parse_coeff, parse_ring_tag, render_coeff,
                             ring_tag)


def test_ring_basics():
    R = SymRing(("a", "b"))
    a, b = R.symbol("a"), R.symbol("b")
    p = 3 * a * a - b / 2 + 1
    assert p.coefficient({"a": 2}) == 3
    assert p.coefficient({"b": 1}) == F(-1, 2)
    assert p.coefficient({}) == 1
    assert (p - p) == R.zero
    assert not (p - p)


def test_duplicate_symbols_rejected():
    with pytest.raises(ValueError):
        SymRing(("a", "a"))


def test_quadratic_symbol_reduction():
    R = SymRing(("s", "t"), {"s": 3, "t": F(15)})
    s, t = R.symbol("s"), R.symbol("t")
    assert s * s == R.const(3)
    assert (s * t) * (s * t) == R.const(45)
    assert (s + 1) * (s - 1) == R.const(2)


def test_constant_extraction():
    R = SymRing(("a",))
    c = R.const(F(3, 4))
    assert c.as_fraction() == F(3, 4)
    with pytest.raises(ValueError):
        (R.symbol("a") + 1).as_fraction()


def test_subs_across_rings():
    R = SymRing(("a", "b"))
    K = SymRing(("k3", "k5"))
    p = 2 * R.symbol("a") + R.symbol("b") * R.symbol("b")
    q = p.subs(K, {"a": K.symbol("k3") / 2, "b": K.const(3)})
    assert q == K.symbol("k3") + 9
    r = p.subs(None, {"a": F(1, 2), "b": F(3)})
    assert r == F(10)


def test_render_parse_round_trip():
    R = SymRing(("a", "b", "s"), {"s": 5})
    p = R.symbol("a") ** 1 if False else R.symbol("a")
    poly = 3 * R.symbol("a") * R.symbol("a") * R.symbol("b") - R.const(F(1, 2)) \
        + R.symbol("s") * F(7, 3)
    text = render_coeff(poly)
    assert parse_coeff(text, R) == poly
    assert render_coeff(parse_coeff(text, R)) == text
    assert parse_coeff("0", R) == R.zero


def test_ring_tag_round_trip():
    R = SymRing(("a", "s2"), {"s2": 3})
    tag = ring_tag(R)
    assert parse_ring_tag(tag) == R
    assert parse_ring_tag("Q") is None
