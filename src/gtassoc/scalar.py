"""Truncated one-variable power series k[[h]] with exact coefficients.

Division is permitted only when the numerator's order is at least the
denominator's, and it costs known order: dividing by a series of order m
reduces the guaranteed precision by m.  Square roots need a rational square
as leading coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ncseries import NCSeries, from_text as nc_from_text, to_text as nc_to_text
from .symcoef import as_fraction, render_coeff
from .truncated import Truncated


class ScalarSeries(Truncated):
    """A series in one variable.  Operands of a sum, product or quotient must
    share the variable, the coefficient ring and ``maxdeg``."""

    __slots__ = ("var", "maxdeg", "known_order", "ring")
    _shape = (("var", "series variable mismatch"), ("ring", "coefficient ring mismatch"),
              ("maxdeg", "maxdeg mismatch"))
    _degree = staticmethod(int)

    def __init__(self, maxdeg, terms=None, ring=None, known_order=None, var="h"):
        self.var, self.maxdeg, self.ring = var, int(maxdeg), ring
        self._set(terms or {}, self.maxdeg if known_order is None else int(known_order))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, maxdeg, ring=None, known_order=None, var="h"):
        return cls(maxdeg, {}, ring, known_order, var)

    @classmethod
    def const(cls, value, maxdeg, ring=None, known_order=None, var="h"):
        return cls(maxdeg, {0: value}, ring, known_order, var)

    @classmethod
    def one(cls, maxdeg, ring=None, known_order=None, var="h"):
        return cls.const(1, maxdeg, ring, known_order, var)

    @classmethod
    def gen(cls, maxdeg, ring=None, known_order=None, var="h"):
        return cls(maxdeg, {1: 1}, ring, known_order, var)

    @classmethod
    def exp_multiple(cls, m, maxdeg, ring=None, known_order=None, var="h"):
        """exp(m*h) as an exact truncated series, m rational."""
        m = as_fraction(m)
        ko = maxdeg if known_order is None else known_order
        return cls(maxdeg, {k: m ** k / math.factorial(k) for k in range(ko + 1)}, ring,
                   known_order, var)

    def _one(self):
        return ScalarSeries.one(self.maxdeg, self.ring, self.known_order, self.var)

    def shift(self, m):
        """Multiply by h^m."""
        ko = min(self.known_order + m, self.maxdeg)
        return self._remade(lambda layer: {k + m: v for k, v in layer.items() if 0 <= k + m <= ko},
                            ko)

    def __repr__(self):
        bits = []
        for k in sorted(self.terms)[:10]:
            bits.append("(%s)%s^%d" % (render_coeff(self.terms[k]), self.var, k))
        more = " ..." if len(self.terms) > 10 else ""
        return "<ScalarSeries %s%s known<=%d>" % (" + ".join(bits) or "0", more, self.known_order)


def scalar_div(num: ScalarSeries, den: ScalarSeries) -> ScalarSeries:
    """Exact quotient; known order drops by the order w of the denominator.

    Both operands shift down by h^w and are cut to min(K_num, K_den) - w,
    the known order of the quotient h^-w num times the inverse of h^-w den.
    """
    num._check(den)
    wd = den.order()
    if wd is None:
        raise ZeroDivisionError("division by the zero series")
    wn = num.order()
    if wn is not None and wn < wd:
        raise ValueError("division would leave k[[h]]: order(num) < order(den)")
    ko = min(num.known_order, den.known_order) - wd
    if ko < 0:
        raise ValueError("denominator order exceeds the known order")
    num, den = (s._remade(lambda layer: {k - wd: v for k, v in layer.items() if k - wd <= ko}, ko)
                for s in (num, den))
    return num * den.inverse()


def scalar_sqrt(s: ScalarSeries) -> ScalarSeries:
    """Square root with positive rational leading coefficient.

    The leading coefficient must be the square of a rational; its positive
    root leads the result, which squares back to s through the known order.
    """
    w = s.order()
    if w is None:
        return s._like({})
    if w % 2:
        raise ValueError("square root of odd order series")
    lead = as_fraction(s.coefficient(w))
    num = math.isqrt(lead.numerator)
    den = math.isqrt(lead.denominator)
    if num * num != lead.numerator or den * den != lead.denominator:
        raise ValueError("leading coefficient %s is not a rational square" % lead)
    root = Fraction(num, den)
    unit = (1 / lead) * s.shift(-w)
    out = root * (Fraction(1, 2) * unit.log()).exp()
    return out.shift(w // 2) if w else out


def to_text(s: ScalarSeries, extra=None) -> str:
    """The series text format over the one-letter alphabet of s's variable."""
    words = {bytes(k): c for k, c in s.terms.items()}
    return nc_to_text(NCSeries((s.var,), s.maxdeg, words, s.ring, s.known_order), extra)


def from_text(text: str):
    series, fields = nc_from_text(text)
    if len(series.alphabet) != 1:
        raise ValueError("a scalar series has one variable, not %r" % (series.alphabet,))
    return ScalarSeries(series.maxdeg, {len(w): c for w, c in series.terms.items()}, series.ring,
                        series.known_order, series.alphabet[0]), fields
