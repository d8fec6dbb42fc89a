"""One ring per value: the ``ring`` slot decides the type of every coefficient.

Over Q every coefficient a value reads, from ``terms`` or from
``coefficient`` at a present or an absent key, is a Fraction; over a ring it
is a Poly of that ring.  That holds however the value was made: from int,
Fraction or Poly coefficients, or by +, -, *, scaling, exp, log, inverse,
promote, specialize or evaluate, on each of the four Truncated types.
"""

from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _holonomy_oracle import HoloAlgebra, HoloElt, embed_free
from gtassoc import truncated
from gtassoc.hecke import unitary_ring
from gtassoc.hmatrix import HMatrix
from gtassoc.kz import kz_ring, specialize_even
from gtassoc.ncseries import AlgebraError, NCSeries
from gtassoc.scalar import ScalarSeries
from gtassoc.symcoef import Poly, SymRing
from gtassoc.truncated import evaluate
from gtassoc.wbasis import XY

MAXDEG = 4
T3 = HoloAlgebra(3, MAXDEG)
AB = SymRing(("a", "b"))
RINGS = {"Q": None, "Q[a,b]": AB, "unitary3": unitary_ring(3)}


def _words(n):
    return [bytes(w) for w in ((), (0,), (1,), (0, 1), (1, 1, 0), (0, 0, 1, 1))[:n]]


# kind -> (keys, some of every degree 0..MAXDEG; make(terms, ring, known_order);
#          unit and two generators of order >= 1 over ring)
KINDS = {
    "NCSeries": (_words(6),
                 lambda terms, ring, ko: NCSeries(XY, MAXDEG, terms, ring, ko),
                 lambda ring: (NCSeries.one(XY, MAXDEG, ring),
                               [NCSeries.letter(XY, name, MAXDEG, ring) for name in XY])),
    "HoloElt": ([w for d in range(MAXDEG + 1) for w in T3.basis_words(d)[:2]],
                lambda terms, ring, ko: HoloElt(T3, terms, ko, ring),
                lambda ring: (T3.one().promote(ring),
                              [T3.generator(i, j).promote(ring) for i, j in ((1, 2), (2, 3))])),
    "ScalarSeries": (list(range(MAXDEG + 1)),
                     lambda terms, ring, ko: ScalarSeries(MAXDEG, terms, ring, ko),
                     lambda ring: (ScalarSeries.one(MAXDEG, ring),
                                   [ScalarSeries.gen(MAXDEG, ring),
                                    ScalarSeries(MAXDEG, {2: F(-2, 3)}, ring)])),
    "HMatrix": ([(p, i, j) for p in range(MAXDEG + 1) for i in range(2) for j in range(2)],
                lambda terms, ring, ko: HMatrix.from_terms(2, terms, MAXDEG, ring, ko),
                lambda ring: (HMatrix.identity(2, MAXDEG, ring),
                              [ScalarSeries.gen(MAXDEG, ring)
                               * HMatrix.from_const(m, MAXDEG, ring)
                               for m in ([[0, 1], [1, 0]], [[1, 0], [2, -1]])])),
}


def _degree(kind, key):
    return key[0] if kind == "HMatrix" else key if kind == "ScalarSeries" else len(key)


def _larger(ring):
    """A ring that ring promotes into: Q[a, b] over Q, else ring and one more symbol."""
    if ring is None:
        return AB
    return SymRing(ring.symbols + ("c",), {ring.symbols[i]: v for i, v in ring.squares.items()})


def _point(ring):
    return {name: F(k + 2, 3) for k, name in enumerate(ring.symbols)}


@st.composite
def coefficients(draw, ring):
    """An int, a Fraction or, over a ring, a Poly."""
    kind = draw(st.sampled_from(("int", "fraction") + (() if ring is None else ("poly",))))
    n = draw(st.integers(-4, 4))
    if kind == "int":
        return n
    c = F(n, draw(st.sampled_from((1, 2, 3, 7))))
    if kind == "fraction":
        return c
    return ring.symbol(draw(st.sampled_from(ring.symbols))) * c + draw(st.integers(-2, 2))


def assert_one_ring(kind, value):
    """Every coefficient read, at a present or an absent key through the known
    order, is a Fraction over Q and a Poly of the value's ring over a ring;
    coefficient is read first, before the terms of a born value are built."""
    ring = value.ring

    def of_ring(c):
        return type(c) is F if ring is None else type(c) is Poly and c.ring == ring
    keys = [k for k in KINDS[kind][0] if _degree(kind, k) <= value.known_order]
    read = {k: value.coefficient(k) for k in keys}
    assert all(map(of_ring, read.values()))
    assert all(map(of_ring, value.terms.values()))
    for k, c in read.items():
        assert c == value.terms[k] if k in value.terms else not c


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_every_coefficient_is_of_the_value_ring(kind, ring_name, data):
    ring, draw = RINGS[ring_name], data.draw
    keys, make, unit = KINDS[kind]
    one, gens = unit(ring)
    ko = draw(st.integers(1, MAXDEG))
    # made from raw int, Fraction and Poly coefficients
    raw = make({k: draw(coefficients(ring)) for k in draw(st.lists(st.sampled_from(keys),
                                                                    max_size=6))}, ring, ko)
    f, g = (sum((draw(coefficients(ring)) * gen for gen in gens), one - one) for _ in range(2))
    f = f + gens[0] * gens[1] * draw(coefficients(ring))
    c, c0 = draw(coefficients(ring)), draw(st.integers(1, 3))
    values = [raw, one, f, g, f + g, f - raw, raw * f, c * f, f * c, f.exp(), (one + f).log(),
              (one * c0 + f).inverse(), f.promote(_larger(ring)), raw.truncated(2),
              f.homogeneous(1), -f, f.eps()]
    values.append(f.specialize(None, _point(ring)) if ring is not None else f.specialize(AB, {}))
    one_nc, x, y = (NCSeries.one(XY, MAXDEG, ring),
                    *(NCSeries.letter(XY, name, MAXDEG, ring) for name in XY))
    series = one_nc * draw(coefficients(ring)) + x * y * draw(coefficients(ring)) + y * c
    values.append(evaluate(series, {"x": f, "y": g}))
    if ring is None:
        # a series over Q at images over a ring is evaluated over that ring
        values.append(evaluate(series, {"x": f.promote(AB), "y": g.promote(AB)}))
    for value in values:
        assert_one_ring(kind, value)


def test_a_rational_coefficient_over_a_ring_reads_as_a_poly():
    """The slot decides: a Fraction given over Q[a, b] reads back as a Poly, as
    does the zero at an absent word."""
    value = NCSeries(XY, 3, {b"\x00": F(1)}, AB)
    assert value.terms == {b"\x00": AB.one} and type(value.terms[b"\x00"]) is Poly
    assert value.coefficient(b"\x00") == AB.one
    assert value.coefficient(b"\x01") == AB.zero and type(value.coefficient(b"\x01")) is Poly


def test_specialize_even_of_a_rational_constant_over_the_zeta_ring():
    got = specialize_even(ScalarSeries(4, {0: F(1)}, kz_ring(), var="hbar"))
    assert got == ScalarSeries.one(4) and got.ring is None and got.terms == {0: F(1)}


def test_a_rational_series_at_ring_images_equals_its_promotion_there():
    one, x, y = (NCSeries.one(XY, 4), NCSeries.letter(XY, "x", 4), NCSeries.letter(XY, "y", 4))
    series = one * F(1, 2) + x * y * F(-2, 3) + y * y * y * 5 + x
    a, b = AB.symbol("a"), AB.symbol("b")
    images = {"x": x.promote(AB) * a + y.promote(AB) * x.promote(AB) * F(1, 7),
              "y": y.promote(AB) * (a + b) - x.promote(AB) * x.promote(AB)}
    got = evaluate(series, images)
    assert got == evaluate(series.promote(AB), images) and got.ring == AB
    assert got.coefficient(b"\x00") == a
    h = ScalarSeries.gen(4, AB) * a
    scalars = {"x": h, "y": h * b}
    assert evaluate(series, scalars) == evaluate(series.promote(AB), scalars)
    alg = HoloAlgebra(4, 4)
    u = {"x": alg.generator(1, 2).promote(AB) * a, "y": alg.generator(3, 4).promote(AB)}
    assert embed_free(series, alg, u) == embed_free(series.promote(AB), alg, u)


def test_a_ring_series_at_rational_images_is_refused():
    x = NCSeries.letter(XY, "x", 3, AB)
    with pytest.raises(AlgebraError, match="cannot demote coefficients to Q"):
        evaluate(x * AB.symbol("a"), {"x": NCSeries.letter(XY, "x", 3),
                                      "y": NCSeries.letter(XY, "y", 3)})


@contextmanager
def built(name):
    """A one-entry list that counts the calls of the truncated module's
    Fraction or Poly (name) inside the block."""
    count, saved = [0], getattr(truncated, name)

    def counted(*args):
        count[0] += 1
        return saved(*args)
    setattr(truncated, name, counted)
    try:
        yield count
    finally:
        setattr(truncated, name, saved)


def test_a_coefficient_read_builds_one_coefficient_and_a_cut_builds_none():
    """coefficient builds the one Fraction or Poly it returns, and truncated
    cuts the layers, building no term, on a value whose terms are not built."""
    one, x, y = (NCSeries.one(XY, 5), NCSeries.letter(XY, "x", 5), NCSeries.letter(XY, "y", 5))
    f = (x * F(1, 3) + y * x * F(2, 5) + y * y).exp()
    words = (b"", b"\x01\x00\x00", b"\x00\x00\x00\x00\x00")
    with built("Fraction") as fractions:
        read = [f.coefficient(w) for w in words]
        cut = f.truncated(3)
    assert fractions == [3]
    with built("Fraction") as fractions:
        terms = cut.terms
    assert fractions == [len(terms)] and len(terms) > 3
    assert terms == {w: c for w, c in f.terms.items() if len(w) <= 3}
    assert read == [f.terms.get(w, 0) for w in words] and read[0] == 1 and read[1]
    a = AB.symbol("a")
    g = (f.promote(AB) * a + one.promote(AB)) * (one.promote(AB) + y.promote(AB) * a)
    with built("Poly") as polys:
        got = g.coefficient(b"\x00\x01")
        g.truncated(2)
    assert polys == [1]
    assert got == f.coefficient(b"\x00\x01") * a + f.coefficient(b"\x00") * a * a
