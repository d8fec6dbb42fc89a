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


# -- coercion between rings is an inclusion --------------------------------


def test_coerce_carries_a_poly_into_a_larger_ring():
    small, large = SymRing(("b", "s"), {"s": 3}), SymRing(("a", "s", "b"), {"s": 3})
    p = small.symbol("b") * small.symbol("s") * F(2, 5) + small.const(1)
    got = large.coerce(p)
    assert got.ring is large
    assert got == large.symbol("b") * large.symbol("s") * F(2, 5) + 1
    assert large.coerce(small.symbol("s")) * large.symbol("s") == 3


def test_coerce_refuses_a_missing_symbol():
    with pytest.raises(ValueError, match=r"target ring lacks \['b'\]"):
        SymRing(("a",)).coerce(SymRing(("a", "b")).symbol("b"))


def test_coerce_refuses_a_lost_square_relation():
    """s^2 = 3 in the source, s free in the target: there s * s is s^2, not 3."""
    with pytest.raises(ValueError, match=r"s\^2 is 3 in the source ring but free in the target"):
        SymRing(("s", "t")).coerce(SymRing(("s",), {"s": 3}).symbol("s"))


def test_coerce_refuses_a_new_square_relation():
    with pytest.raises(ValueError, match=r"s\^2 is free in the source ring but 1/3 in the target"):
        SymRing(("s",), {"s": F(1, 3)}).coerce(SymRing(("s",)).symbol("s"))
