import copy
import random
from fractions import Fraction as F

import pytest

from gtassoc.ncseries import NCSeries
from gtassoc.symcoef import Poly, SymRing
from gtassoc.wbasis import DEGREE_SPANS, XY, w_coordinates, w_element

RING = SymRing(("a", "b"))


def combination(coords, ring=None):
    """sum_k c_k w_k over the given ring, plus a degree-1 term and a constant."""
    series = NCSeries.zero(XY, 5, ring)
    for k, c in coords.items():
        series = series + c * w_element(k, 5, ring)
    return series + F(5, 7) * NCSeries.letter(XY, "x", 5, ring) + NCSeries.one(XY, 5, ring)


def random_coordinate(rng, ring):
    if rng.random() < 0.3:
        return F(0)
    c = F(rng.randint(-9, 9) or 1, rng.randint(1, 12))
    if ring is None:
        return c
    a, b = ring.symbol("a"), ring.symbol("b")
    return rng.choice((ring.const(c), c * a, c * a * b + F(1, 3), c * b * b - a))


@pytest.mark.parametrize("ring", [None, RING], ids=["Q", "Q[a,b]"])
def test_w_coordinates_values_and_types(ring):
    rng = random.Random(5)
    for degree, span in DEGREE_SPANS.items():
        for _ in range(10):
            coords = {k: random_coordinate(rng, ring) for k in span}
            got = w_coordinates(combination(coords, ring), degree)
            assert list(got) == list(span)
            for k, c in coords.items():
                assert got[k] == c, (degree, k)
                if not c:
                    assert type(got[k]) is F
                else:
                    assert type(got[k]) is (F if ring is None else Poly)
    # a zero component: every coordinate is Fraction(0), over either kind
    for degree in (3, 5):
        zero = w_coordinates(combination({}, ring), degree)
        assert all(type(c) is F and c == 0 for c in zero.values())


@pytest.mark.parametrize("ring", [None, RING], ids=["Q", "Q[a,b]"])
def test_w_coordinates_refuses_a_target_outside_the_span(ring):
    # x x y is not a Lie element: its degree-3 component is outside span(w4, w5)
    x, y = (NCSeries.letter(XY, name, 5, ring) for name in XY)
    coeff = F(1, 2) if ring is None else RING.symbol("a")
    target = w_element(4, 5, ring) + coeff * (x * x * y)
    with pytest.raises(ValueError):
        w_coordinates(target, 3)


def test_w_coordinates_leaves_the_target_untouched():
    rng = random.Random(9)
    for ring in (None, RING):
        series = combination({k: random_coordinate(rng, ring) for k in DEGREE_SPANS[5]}, ring)
        kept = {w: copy.deepcopy(c.terms) if type(c) is Poly else c
                for w, c in series.terms.items()}
        w_coordinates(series, 5)
        assert {w: c.terms if type(c) is Poly else c for w, c in series.terms.items()} == kept
