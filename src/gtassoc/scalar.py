"""Truncated one-variable power series k[[h]] with exact coefficients.

Division is permitted only when the numerator's order is at least the
denominator's, and it costs known order: dividing by a series of order m
reduces the guaranteed precision by m.  Square roots need a rational square
as leading coefficient (or a caller-supplied root).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .symcoef import Poly, as_fraction, parse_coeff, parse_ring_tag, render_coeff, ring_tag
from .truncated import series_exp, series_log


class ScalarSeries:
    __slots__ = ("var", "maxdeg", "known_order", "ring", "coeffs")

    def __init__(self, maxdeg, coeffs=None, ring=None, known_order=None, var="h"):
        self.var = var
        self.maxdeg = int(maxdeg)
        self.ring = ring
        self.known_order = self.maxdeg if known_order is None else min(int(known_order), self.maxdeg)
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if 0 <= k <= self.known_order and c:
                    clean[int(k)] = c
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, maxdeg, ring=None, known_order=None, var="h"):
        return cls(maxdeg, {}, ring, known_order, var)

    @classmethod
    def const(cls, value, maxdeg, ring=None, known_order=None, var="h"):
        c = as_fraction(value) if ring is None else ring.coerce(value)
        return cls(maxdeg, {0: c}, ring, known_order, var)

    @classmethod
    def one(cls, maxdeg, ring=None, known_order=None, var="h"):
        return cls.const(1, maxdeg, ring, known_order, var)

    @classmethod
    def gen(cls, maxdeg, ring=None, known_order=None, var="h"):
        c = Fraction(1) if ring is None else ring.one
        return cls(maxdeg, {1: c}, ring, known_order, var)

    @classmethod
    def exp_multiple(cls, m, maxdeg, ring=None, known_order=None, var="h"):
        """exp(m*h) as an exact truncated series, m rational."""
        m = as_fraction(m)
        coeffs = {}
        ko = maxdeg if known_order is None else known_order
        for k in range(0, ko + 1):
            c = m ** k / math.factorial(k)
            coeffs[k] = c if ring is None else ring.const(c)
        return cls(maxdeg, coeffs, ring, known_order, var)

    def copy_with(self, coeffs, known_order=None):
        return ScalarSeries(self.maxdeg, coeffs, self.ring,
                            self.known_order if known_order is None else known_order, self.var)

    # -- access -----------------------------------------------------------

    def coefficient(self, k):
        c = self.coeffs.get(k)
        if c is None:
            return Fraction(0) if self.ring is None else self.ring.zero
        return c

    def order(self):
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def is_zero(self, order=None):
        k = self.known_order if order is None else order
        return all(not c for d, c in self.coeffs.items() if d <= k)

    def is_one(self, order=None):
        diff = self - ScalarSeries.one(self.maxdeg, self.ring, self.known_order, self.var)
        return diff.is_zero(order)

    def promote(self, ring):
        if ring == self.ring:
            return self
        if ring is None:
            raise ValueError("cannot demote coefficients to Q")
        return ScalarSeries(self.maxdeg, {k: ring.coerce(c) for k, c in self.coeffs.items()},
                            ring, self.known_order, self.var)

    def _check(self, other):
        if self.var != other.var:
            raise ValueError("series variable mismatch: %r vs %r" % (self.var, other.var))
        if not (self.ring == other.ring):
            raise ValueError("coefficient ring mismatch")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ScalarSeries):
            if not isinstance(other, (int, Fraction, Poly)):
                return NotImplemented
            other = ScalarSeries.const(other, self.maxdeg, self.ring, self.known_order, self.var)
        self._check(other)
        ko = min(self.known_order, other.known_order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            s = c if cur is None else cur + c
            if s:
                out[k] = s
            elif cur is not None:
                del out[k]
        return ScalarSeries(self.maxdeg, out, self.ring, ko, self.var)

    __radd__ = __add__

    def __neg__(self):
        return self.copy_with({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, ScalarSeries):
            if not isinstance(other, (int, Fraction, Poly)):
                return NotImplemented
            other = ScalarSeries.const(other, self.maxdeg, self.ring, self.known_order, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ScalarSeries):
            if not isinstance(other, (int, Fraction, Poly)):
                return NotImplemented
            c = as_fraction(other) if self.ring is None else self.ring.coerce(other)
            if not c:
                return ScalarSeries.zero(self.maxdeg, self.ring, self.known_order, self.var)
            return self.copy_with({k: c * v for k, v in self.coeffs.items()})
        self._check(other)
        wa, wb = self.order(), other.order()
        if wa is None or wb is None:
            return ScalarSeries.zero(self.maxdeg, self.ring,
                                     min(self.known_order, other.known_order), self.var)
        ko = min(self.known_order + wb, other.known_order + wa, self.maxdeg)
        out = {}
        for k1, c1 in self.coeffs.items():
            if k1 > ko:
                continue
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k > ko:
                    continue
                c = c1 * c2
                cur = out.get(k)
                s = c if cur is None else cur + c
                if s:
                    out[k] = s
                elif cur is not None:
                    del out[k]
        return ScalarSeries(self.maxdeg, out, self.ring, ko, self.var)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return (self.var == other.var and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def equal_through(self, other, order=None):
        self._check(other)
        k = min(self.known_order, other.known_order)
        if order is not None:
            if order > k:
                raise ValueError("comparison order %d exceeds known order %d" % (order, k))
            k = order
        for d in range(0, k + 1):
            if self.coefficient(d) != other.coefficient(d):
                return False
        return True

    def shift(self, m):
        """Multiply by h^m."""
        return ScalarSeries(self.maxdeg, {k + m: c for k, c in self.coeffs.items()},
                            self.ring, min(self.known_order + m, self.maxdeg), self.var)

    def eps(self):
        """The involution h -> -h."""
        return self.copy_with({k: (c if k % 2 == 0 else -c) for k, c in self.coeffs.items()})

    def exp(self):
        return series_exp(self, ScalarSeries.one(self.maxdeg, self.ring, self.known_order, self.var))

    def log(self):
        return series_log(self, ScalarSeries.one(self.maxdeg, self.ring, self.known_order, self.var))

    def __repr__(self):
        bits = []
        for k in sorted(self.coeffs)[:10]:
            bits.append("(%s)%s^%d" % (render_coeff(self.coeffs[k]), self.var, k))
        more = " ..." if len(self.coeffs) > 10 else ""
        return "<ScalarSeries %s%s known<=%d>" % (" + ".join(bits) or "0", more, self.known_order)


def scalar_div(num: ScalarSeries, den: ScalarSeries) -> ScalarSeries:
    """Exact quotient; known order drops by the order of the denominator."""
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
    lead = den.coefficient(wd)
    lead_f = as_fraction(lead)
    if not lead_f:
        raise ValueError("denominator has non-invertible leading coefficient")
    out = {}
    rem = {k - wd: c for k, c in num.coeffs.items()}
    dshift = {k - wd: c for k, c in den.coeffs.items()}
    for k in range(0, ko + 1):
        c = rem.get(k)
        if c is None:
            continue
        q = c * (1 / lead_f)
        if not q:
            continue
        out[k] = q
        for dk, dc in dshift.items():
            t = k + dk
            if t > ko:
                continue
            cur = rem.get(t)
            val = (-(q * dc)) if cur is None else cur - q * dc
            if val:
                rem[t] = val
            elif cur is not None:
                del rem[t]
    return ScalarSeries(num.maxdeg, out, num.ring, ko, num.var)


def _binom_half(k):
    # C(1/2, k)
    out = Fraction(1)
    half = Fraction(1, 2)
    for i in range(k):
        out *= (half - i) / (i + 1)
    return out


def scalar_sqrt(s: ScalarSeries, root=None) -> ScalarSeries:
    """Square root with positive rational leading coefficient.

    The leading coefficient must be the square of a rational, or the caller
    supplies its root.  The result squares back to s through the known order.
    """
    w = s.order()
    if w is None:
        return ScalarSeries.zero(s.maxdeg, s.ring, s.known_order, s.var)
    if w % 2:
        raise ValueError("square root of odd order series")
    lead = as_fraction(s.coefficient(w))
    if root is None:
        num = math.isqrt(lead.numerator)
        den = math.isqrt(lead.denominator)
        if num * num != lead.numerator or den * den != lead.denominator:
            raise ValueError("leading coefficient %s is not a rational square" % lead)
        root = Fraction(num, den)
    else:
        root = as_fraction(root)
        if root * root != lead:
            raise ValueError("supplied root does not square to the leading coefficient")
    u = scalar_div(s.shift(-w) if w else s, ScalarSeries.const(lead, s.maxdeg, s.ring, s.known_order, s.var)) \
        - ScalarSeries.one(s.maxdeg, s.ring, s.known_order, s.var)
    acc = ScalarSeries.zero(s.maxdeg, s.ring, s.known_order, s.var)
    power = ScalarSeries.one(s.maxdeg, s.ring, s.known_order, s.var)
    k = 0
    wu = u.order()
    while True:
        acc = acc + _binom_half(k) * power
        k += 1
        if wu is None or k * wu > s.known_order:
            break
        power = power * u
        if not power.coeffs:
            break
    out = root * acc
    if w:
        out = out.shift(w // 2)
    return out


def to_text(s: ScalarSeries, extra=None) -> str:
    header = "alphabet=%s maxdeg=%d ring=%s" % (s.var, s.maxdeg, ring_tag(s.ring))
    if s.known_order != s.maxdeg:
        header += " knownorder=%d" % s.known_order
    if extra:
        for k in sorted(extra):
            header += " %s=%s" % (k, extra[k])
    lines = [header]
    for k in sorted(s.coeffs):
        word = "1" if k == 0 else ".".join([s.var] * k)
        lines.append("%s\t%s" % (word, render_coeff(s.coeffs[k])))
    return "\n".join(lines) + "\n"


def from_text(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    fields = {}
    for tok in lines[0].split():
        key, _, val = tok.partition("=")
        fields[key] = val
    var = fields["alphabet"]
    maxdeg = int(fields["maxdeg"])
    ring = parse_ring_tag(fields["ring"])
    known = int(fields.get("knownorder", maxdeg))
    coeffs = {}
    for line in lines[1:]:
        wtxt, _, ctxt = line.partition("\t")
        k = 0 if wtxt == "1" else len(wtxt.split("."))
        coeffs[k] = parse_coeff(ctxt, ring)
    return ScalarSeries(maxdeg, coeffs, ring, known, var), fields
