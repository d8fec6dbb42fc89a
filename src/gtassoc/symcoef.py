"""Exact polynomial coefficients over Q.

Series in this package carry coefficients either in plain ``Fraction``
(the ring ``Q``, represented by ``ring=None``) or in ``Poly`` over a fixed
``SymRing`` ``Q[a, b, ...]``.  A SymRing may declare *quadratic* symbols s
with a fixed rational square; exponents of those symbols reduce modulo 2,
which is how formal square roots such as sqrt(d^2-1) stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Poly):
        return value.as_fraction()
    raise TypeError("not an exact rational: %r" % (value,))


def common_denominator(values) -> int:
    """The lcm of the denominators of exact rationals, 1 for ring elements."""
    return lcm(*(v.denominator for v in values if isinstance(v, (int, Fraction))))


def layers(terms, ring=None):
    """(d, {exps: {key: int}}): terms scaled by d and split by monomial.

    The coefficients are exact rationals, or over a ring exact rationals and
    Polys of it, and d is the common denominator of every rational among
    them.  The layer of an exponent vector exps maps each key whose
    coefficient has the monomial exps to d times that monomial's
    coefficient.  A rational coefficient sits in the layer of the all-zero
    vector, () over Q (ring None), so exact rationals give one layer.
    """
    if ring is None:
        d = lcm(*(c.denominator for c in terms.values()))
        return d, {(): {k: c.numerator * (d // c.denominator) for k, c in terms.items()}}
    zero = (0,) * len(ring.symbols)
    out = {}
    for k, c in terms.items():
        if type(c) is Poly:
            for e, x in c.terms.items():
                out.setdefault(e, {})[k] = x
        else:
            out.setdefault(zero, {})[k] = c
    d = lcm(*{x.denominator for layer in out.values() for x in layer.values()})
    return d, {e: {k: x.numerator * (d // x.denominator) for k, x in layer.items()}
               for e, layer in out.items()}


class SymRing:
    """Polynomial ring Q[symbols], optionally with quadratic symbol relations."""

    __slots__ = ("symbols", "index", "squares", "zero", "one")

    def __init__(self, symbols, squares=None):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols: %r" % (self.symbols,))
        self.index = {s: i for i, s in enumerate(self.symbols)}
        squares = squares or {}
        for name in squares:
            if name not in self.index:
                raise ValueError("square relation for unknown symbol %r" % name)
        self.squares = {self.index[k]: as_fraction(v) for k, v in squares.items()}
        self.zero = Poly(self, {})
        self.one = Poly(self, {(0,) * len(self.symbols): Fraction(1)})

    def _key(self):
        return (self.symbols, tuple(sorted(self.squares.items())))

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, SymRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SymRing(%s)" % (",".join(self.symbols))

    def symbol(self, name) -> "Poly":
        exps = [0] * len(self.symbols)
        exps[self.index[name]] = 1
        return Poly(self, {tuple(exps): Fraction(1)})

    def const(self, value) -> "Poly":
        c = as_fraction(value)
        if c == 0:
            return self.zero
        return Poly(self, {(0,) * len(self.symbols): c})

    def coerce(self, value) -> "Poly":
        """value as a Poly of this ring; a Poly of another ring must include into it."""
        if isinstance(value, Poly):
            if value.ring == self:
                return value
            try:
                at = self.positions(value.ring)
            except ValueError as exc:
                raise ValueError("cannot coerce into %r: %s" % (self, exc)) from None
            return Poly(self, {self.moved(e, at): c for e, c in value.terms.items()})
        return self.const(value)

    def positions(self, source):
        """The index here of each symbol of the ring source.  Raises ValueError
        unless source includes into this ring: every symbol of source is here,
        and each has the same square relation here, or none in both."""
        missing = [s for s in source.symbols if s not in self.index]
        if missing:
            raise ValueError("target ring lacks %r" % sorted(missing))
        at = [self.index[s] for s in source.symbols]
        for i, j in enumerate(at):
            here, there = source.squares.get(i), self.squares.get(j)
            if here != there:
                raise ValueError("%s^2 is %s in the source ring but %s in the target"
                                 % (source.symbols[i], "free" if here is None else here,
                                    "free" if there is None else there))
        return at

    def moved(self, exps, at):
        """The exponent vector here of exps, whose entries go to the indices at."""
        out = [0] * len(self.symbols)
        for j, x in zip(at, exps):
            out[j] = x
        return tuple(out)


def _add_term(acc, ring, exps, coeff):
    """Accumulate coeff*monomial into acc, reducing quadratic symbols."""
    if not coeff:
        return
    if ring.squares:
        exps = list(exps)
        for i, val in ring.squares.items():
            while exps[i] >= 2:
                exps[i] -= 2
                coeff *= val
        exps = tuple(exps)
    cur = acc.get(exps)
    if cur is None:
        acc[exps] = coeff
    else:
        cur += coeff
        if cur:
            acc[exps] = cur
        else:
            del acc[exps]


class Poly:
    """Multivariate polynomial over Q with exponent-vector terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self.ring != other.ring:
                return NotImplemented
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        other = self.ring.coerce(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            _add_term(out, self.ring, exps, c)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self.ring.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                return self.ring.zero
            return Poly(self.ring, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        other = self.ring.coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                _add_term(out, self.ring, exps, c1 * c2)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly):
            other = other.as_fraction()
        c = as_fraction(other)
        if not c:
            raise ZeroDivisionError("division of Poly by zero")
        return self * (1 / c)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("%r is not a rational constant" % self)
        return next(iter(self.terms.values()))

    def coefficient(self, monomial) -> Fraction:
        """Coefficient of a monomial given as {symbol: exponent}."""
        exps = [0] * len(self.ring.symbols)
        for name, e in monomial.items():
            exps[self.ring.index[name]] = e
        return self.terms.get(tuple(exps), Fraction(0))

    def subs(self, target_ring, mapping) -> "Poly":
        """Substitute symbols; mapping sends symbol names to target values.

        target_ring None means every symbol must land in Q and a Fraction
        comes back.
        """
        if target_ring is None:
            total = Fraction(0)
            for exps, c in self.terms.items():
                term = c
                for i, e in enumerate(exps):
                    if e:
                        term *= as_fraction(mapping[self.ring.symbols[i]]) ** e
                total += term
            return total
        out = target_ring.zero
        for exps, c in self.terms.items():
            term = target_ring.const(c)
            for i, e in enumerate(exps):
                if e:
                    img = target_ring.coerce(mapping[self.ring.symbols[i]])
                    for _ in range(e):
                        term = term * img
            out = out + term
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        return render_coeff(self)


def render_coeff(value) -> str:
    """Canonical text form of a coefficient (Fraction or Poly)."""
    if isinstance(value, (int, Fraction)):
        return str(as_fraction(value))
    parts = []
    for exps, coeff in value.sorted_terms():
        mono = "*".join(
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in zip(value.ring.symbols, exps)
            if e
        )
        if mono:
            body = "%s*%s" % (str(abs(coeff)), mono)
        else:
            body = str(abs(coeff))
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def parse_coeff(text, ring):
    """Parse the output of render_coeff back into Fraction (ring None) or Poly."""
    text = text.strip()
    if ring is None:
        return Fraction(text)
    # split into signed terms at top level (no parentheses occur)
    chunks = [part.strip() for part in text.replace(" - ", " + -").split(" + ")]
    terms = {}
    for chunk in chunks:
        if not chunk:
            continue
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        factors = chunk.split("*")
        coeff = Fraction(1)
        exps = [0] * len(ring.symbols)
        for fac in factors:
            fac = fac.strip()
            if not fac:
                continue
            if fac[0].isdigit():
                coeff *= Fraction(fac)
            else:
                if "^" in fac:
                    name, _, e = fac.partition("^")
                    exps[ring.index[name]] += int(e)
                else:
                    exps[ring.index[fac]] += 1
        if neg:
            coeff = -coeff
        _add_term(terms, ring, tuple(exps), coeff)
    return Poly(ring, terms)


def ring_tag(ring) -> str:
    """Header tag for the series text format."""
    if ring is None:
        return "Q"
    pieces = []
    for i, name in enumerate(ring.symbols):
        if i in ring.squares:
            pieces.append("%s^2=%s" % (name, ring.squares[i]))
        else:
            pieces.append(name)
    return "Q[%s]" % ",".join(pieces)


def parse_ring_tag(tag: str):
    tag = tag.strip()
    if tag == "Q":
        return None
    if not (tag.startswith("Q[") and tag.endswith("]")):
        raise ValueError("bad ring tag: %r" % tag)
    symbols = []
    squares = {}
    body = tag[2:-1]
    if body:
        for piece in body.split(","):
            if "^2=" in piece:
                name, _, val = piece.partition("^2=")
                symbols.append(name)
                squares[name] = Fraction(val)
            else:
                symbols.append(piece)
    return SymRing(symbols, squares)
