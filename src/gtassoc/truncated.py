"""Series code written once for every truncated type in the package.

``Truncated`` is the base of NCSeries, ScalarSeries and HMatrix, and of the
U(T_4) elements of the tests' holonomy oracle.  Every type has ``terms``
that map a key (a word, a power of h, or a (power, row, col) triple) to a
nonzero coefficient, exact through ``known_order``.
The base holds the one truncation contract (``is_zero``, ``is_one``,
``equal_through`` and ``coefficient`` read through the known order and
raise ValueError past it), the one shape check ``_check``, the sum,
negation, scaling and h -> -h, and the one product rule: ``__mul__`` gives
factors of known orders K_a, K_b and orders w_a, w_b the known order
min(K_a + w_b, K_b + w_a, maxdeg), or min(K_a, K_b) when a factor is zero,
and asks the type's ``_convolve`` hook only for the terms through that
degree, summed in int over each factor's least common denominator.

Coefficients are exact: int, Fraction, or Poly of one ring.  Any other
coefficient (a float), or Polys of two rings, raises ValueError as soon as
a sum, a product or a comparison asks for their ring.

A value is held as its int layers: (d, {exponent vector: {key: int}}), its
coefficients times their least common denominator d, split by monomial of
the ring (one layer, at the exponent vector (), over Q).  The sum, the
product, negation, scaling, h -> -h, the homogeneous parts and substitution
work on the layers alone, reduce the quadratic symbols of a ring on the
exponent vectors where two layers meet, and give a value born in that form;
its Fractions or Polys are built when its terms are first read.

The value maps are written here once, and every construction commutes
with them:

- ``truncated(maxdeg, known_order=None)`` changes the truncation degree and
  keeps min(known order, maxdeg), or an explicit known order;
- ``specialize(ring, mapping)`` sends each Poly coefficient through
  ``Poly.subs`` into ring (Q for None), at a rational point for instance;
- ``promote(ring)`` carries the layers into a larger ring that keeps the
  square of every symbol;
- ``evaluate(series, images, one)`` evaluates an NCSeries at images of
  order >= 1, through the least known order.

The series algorithms ``exp``, ``log`` and ``inverse`` (the Neumann sum)
are methods of the base, written once.  They need only ``order()``,
``known_order``, ``+``, ``-`` and ``*`` (``c * x`` for a coefficient c
included), so Fraction and Poly coefficients work alike.  Each starts from
the type's unit ``_one()``, which carries the value's known order, and
``inverse`` asks the type's ``_lead_inverse()`` for the inverse of the
degree-0 part.  Substitution evaluates a list of series at once, each word
split at its first letter so that the image of each suffix is formed once
for all the series.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .symcoef import Poly, as_fraction, layers

# the exact coefficient types, the only ones a value may hold
_EXACT = frozenset({int, Fraction, Poly})
# the coefficient types a value born in int layers builds when read: ints
# when every input was an int, else Fractions over Q and Polys over a ring
_INT, _RATIONAL, _POLY = frozenset({int}), frozenset({Fraction}), frozenset({Poly})


class Truncated:
    """Base of the truncated types.  A subclass provides

    - ``_shape``, one (slot, mismatch message) pair per attribute that two
      operands must share;
    - ``maxdeg``, the truncation degree no product goes past;
    - ``_degree(key)``, the degree of a key of ``terms``;
    - ``_one()``, the unit at self's known order;
    - ``_lead_inverse()``, the inverse of the degree-0 part, where the
      base's 1/c0 does not serve (a matrix);
    - public constructors, which set the shape slots and call
      ``_set(terms, known_order)``;
    - ``_error``, when a mismatch raises a subclass of ValueError;
    - ``ring``, which ``_coerce`` and ``promote`` read, or its own
      ``_coerce(scalar)``;
    - and, where keys do not multiply by ``+`` alone, ``_convolve(a_terms,
      b_terms, ko)``, the product of two {key: int} dicts through degree ko,
      its zero sums left in.

    From these the base writes once: ``_like(terms, known_order=None)``,
    ``_check(other)``, which raises ``_error`` unless other is of self's
    type and shape, ``==`` (type, shape apart from maxdeg, terms), the
    series algorithms ``exp``, ``log`` and ``inverse``, the value maps
    ``truncated``, ``specialize`` and ``promote``, the linear map
    ``linear(row)`` on keys, the map ``_remade(f)`` of the int layers, and
    the ring-based ``_coerce``.  Operands of different types or shapes are
    refused with ``_error``; a type in ``_scalars`` multiplies as a
    coefficient.  No value stores a zero coefficient: ``_set`` drops them,
    and so does ``_born`` for a value made from int layers.

    Values are immutable.  ``_cache`` holds (types, ring, split): the
    coefficient types, their one ring (None over Q) and the int layers
    (d, {exponent vector: {key: int}}), formed from the terms the first time
    an operation asks for them.  A value that an operation makes is born
    with its split alone and ``_terms`` None, unless its coefficients are
    ints, whose one layer is its terms; ``terms`` builds one Fraction, or
    one Poly, per key on first read.
    """

    __slots__ = ("_terms", "_cache")
    # Truncated types that multiply as coefficients, c * x
    _scalars = ()
    _error = ValueError

    def _set(self, terms, known_order):
        """Sets known_order, clamped to maxdeg, and keeps the nonzero terms of
        degree 0 through it; returns self."""
        ko = self.known_order = min(known_order, self.maxdeg)
        deg = self._degree
        self._terms, self._cache = {k: c for k, c in terms.items() if c and 0 <= deg(k) <= ko}, None
        return self

    def _like(self, terms, known_order=None):
        """A value of self's type and shape, from raw terms known through
        known_order (self's by default)."""
        out = object.__new__(type(self))
        for slot, _ in self._shape:
            setattr(out, slot, getattr(self, slot))
        return out._set(terms, self.known_order if known_order is None else known_order)

    def _check(self, other):
        """Raises _error unless other is of self's type and shape."""
        if type(other) is not type(self):
            raise self._error("cannot combine %s with %s"
                              % (type(self).__name__, type(other).__name__))
        for slot, message in self._shape:
            a, b = getattr(self, slot), getattr(other, slot)
            if a != b:
                raise self._error("%s: %r vs %r" % (message, a, b))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot)
                   for slot, _ in self._shape if slot != "maxdeg") and self.terms == other.terms

    def truncated(self, maxdeg, known_order=None):
        """This value at truncation degree maxdeg, known through min(known order,
        maxdeg), or through an explicit known_order not past maxdeg."""
        out = self._like({})
        out.maxdeg = maxdeg
        return out._set(self.terms, self.known_order if known_order is None else known_order)

    def promote(self, ring):
        """This value over ring, which must hold every symbol of self's ring
        with the same square relation; nothing demotes to Q.  The layers move
        to ring's exponent vectors, and no Poly is built."""
        if ring == self.ring:
            return self
        if ring is None:
            raise self._error("cannot demote coefficients to Q")
        _, own, _ = self._kind()
        try:
            if self.ring is not None:
                ring.positions(self.ring)
            at = None if own is None else ring.positions(own)
        except ValueError as exc:
            raise self._error("cannot promote: %s" % exc) from None
        d, split = self._layers(ring)
        if at is not None:
            split = {ring.moved(e, at): layer for e, layer in split.items()}
        out = self._like({})
        out.ring = ring
        return out._born(d, split, self.known_order, _POLY, ring)

    def specialize(self, ring, mapping):
        """This value over ring (Q for None): each Poly coefficient goes
        through Poly.subs(ring, mapping), the others are coerced.  A mapping
        that lacks a symbol some coefficient uses raises _error."""
        coerce = as_fraction if ring is None else ring.coerce
        try:
            terms = {k: c.subs(ring, mapping) if type(c) is Poly else coerce(c)
                     for k, c in self.terms.items()}
        except KeyError:
            used = {c.ring.symbols[i] for c in self.terms.values() if type(c) is Poly
                    for e in c.terms for i, x in enumerate(e) if x}
            raise self._error("cannot specialize: no value for %r"
                              % sorted(used - set(mapping))) from None
        return self._over(ring, terms)

    def _over(self, ring, terms):
        """A value of self's shape over ring, from terms over it."""
        out = self._like({})
        out.ring = ring
        return out._set(terms, self.known_order)

    def _coerce(self, scalar):
        return as_fraction(scalar) if self.ring is None else self.ring.coerce(scalar)

    @property
    def terms(self):
        """{key: nonzero coefficient}, read-only; a born value builds its
        Fractions, or one Poly per key, here once."""
        terms = self._terms
        if terms is None:
            _, ring, (d, split) = self._cache
            if ring is None:
                terms = {k: Fraction(v, d) for k, v in split[()].items()}
            else:
                polys = {}
                for e, layer in split.items():
                    for k, v in layer.items():
                        p = polys.get(k)
                        if p is None:
                            polys[k] = {e: Fraction(v, d)}
                        else:
                            p[e] = Fraction(v, d)
                terms = {k: Poly(ring, p) for k, p in polys.items()}
            self._terms = terms
        return terms

    def _kind(self):
        """(types, ring, split) of the coefficients, the split None until _split forms it."""
        cache = self._cache
        if cache is None:
            cache = self._cache = _ring_of(self._terms) + (None,)
        return cache

    def _split(self):
        """The int layers over the value's own ring, formed at most once; the
        one layer of int coefficients is their terms."""
        types, ring, split = self._kind()
        if split is None:
            split = (1, {(): self._terms}) if types <= _INT else layers(self._terms, ring)
            self._cache = types, ring, split
        return split

    def _layers(self, ring, through=None):
        """The split over ring: a rational value's one layer moves to ring's
        all-zero exponent vector.  With through, the keys past that degree
        are left out."""
        d, split = self._split()
        if ring is not None and self._cache[1] is None:
            split = {(0,) * len(ring.symbols): split[()]}
        if through is not None and through < self.known_order:
            deg = self._degree
            split = {e: {k: v for k, v in layer.items() if deg(k) <= through}
                     for e, layer in split.items()}
        return d, split

    def _born(self, d, by_exps, ko, types, ring):
        """The value of self's shape, known through ko, with coefficients
        {key: sum_e v x^e / d} of the int sums {e: {key: v}}, whose exponent
        vectors are reduced; types is _INT, _RATIONAL or _POLY.  The zero sums
        and layers drop out, and d becomes the least denominator d / g, g =
        gcd(d, every sum)."""
        out = self._like({}, ko)
        g = d
        for sums in by_exps.values():
            if g == 1:
                break
            g = gcd(g, *sums.values())
        split = {e: ints for e, sums in by_exps.items()
                 if (ints := {k: v // g for k, v in sums.items() if v})}
        if split:
            out._terms = split[()] if types is _INT else None
            out._cache = types, ring, (d // g, split)
        return out

    def _remade(self, f, known_order=None):
        """The value of self's kind and shape whose layers are f(layer) of
        each of self's, over the same denominator, known through known_order
        (self's by default); f keeps no key past it."""
        types, ring, _ = self._kind()
        d, split = self._split()
        return self._born(d, {e: f(layer) for e, layer in split.items()},
                          self.known_order if known_order is None else known_order,
                          _born_types(types, ring), ring)

    def _cut(self, known_order):
        """This value known through known_order, its keys past it left out."""
        deg = self._degree
        return self._remade(lambda layer: {k: v for k, v in layer.items()
                                           if deg(k) <= known_order}, known_order)

    def _keys(self):
        """The stored keys, from whichever form of the terms exists."""
        terms = self._terms
        if terms is None:
            split = self._cache[2][1]
            return next(iter(split.values())) if len(split) == 1 else set().union(*split.values())
        return terms

    def order(self):
        """Degree of the lowest stored term, or None for zero."""
        keys = self._keys()
        return min(map(self._degree, keys)) if keys else None

    def coefficient(self, key):
        """The coefficient of key, zero when absent; raises ValueError past the known order."""
        if self._degree(key) > self.known_order:
            raise ValueError("coefficient of degree %d exceeds known order %d"
                             % (self._degree(key), self.known_order))
        c = self.terms.get(key)
        return self._coerce(0) if c is None else c

    def linear(self, row):
        """sum_k c_k row(k), where row(key) yields (key, multiplier) pairs; the
        sums go into one plain dict, and _like drops the zeros."""
        out = {}
        for key, c in self.terms.items():
            _scatter(out, row(key), c)
        return self._like(out)

    def homogeneous(self, degree):
        deg = self._degree
        return self._remade(lambda layer: {k: v for k, v in layer.items() if deg(k) == degree})

    def __add__(self, other):
        """The sum through the lesser known order, in int over the lcm of the
        two least denominators."""
        if not isinstance(other, Truncated):
            other = self._one() * other
        self._check(other)
        ko = min(self.known_order, other.known_order)
        types, ring = _joint(self, other)
        d, by_exps = _settle([(1, *self._layers(ring, ko)), (1, *other._layers(ring, ko))])
        return self._born(d, by_exps, ko, _born_types(types, ring), ring)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return self._remade(lambda layer: {k: -v for k, v in layer.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Truncated) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, scalar):
        """c * self for a coefficient c, coerced into self's ring: each layer
        of c times each layer of self, in int."""
        if isinstance(scalar, Truncated):
            self._check(scalar)  # raises: a value of self's family multiplies in __mul__
        c = self._coerce(scalar)
        if type(c) not in _EXACT:
            raise ValueError("inexact coefficients: ['%s']" % type(c).__name__)
        types, ring, _ = self._kind()
        types = types | {type(c)}
        if type(c) is Poly:
            ring = _one_ring([r for r in (ring, c.ring) if r is not None])
        d, split = self._layers(ring)
        d_c, c_layers = _coefficient_layers(c, ring)
        raw = {}
        _gather(raw, c_layers, split)
        m, by_exps = _reduced(raw, ring)
        return self._born(d_c * d * m, by_exps, self.known_order, _born_types(types, ring), ring)

    def __mul__(self, other):
        """The product through min(K_a + w_b, K_b + w_a, maxdeg).

        Each factor is taken as its int layers over its least common
        denominator (over Q one layer, over a ring one per monomial), the
        hook convolves each pair of layers, and the sums add per key and
        exponent vector, each quadratic symbol's square folded in where two
        layers meet.  The product is born in that form, (d/g, {e: {key:
        sum/g}}), g the gcd of the denominator and every sum.
        """
        if not isinstance(other, Truncated) or isinstance(other, self._scalars):
            return self.__rmul__(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        wa, wb = self.order(), other.order()
        if wa is None or wb is None:
            return self._like({}, min(self.known_order, other.known_order))
        ko = min(self.known_order + wb, other.known_order + wa, self.maxdeg)
        types, ring = _joint(self, other)
        (d_a, a), (d_b, b) = self._layers(ring), other._layers(ring)
        convolve = self._convolve
        m, by_exps = _reduced(_products(a, b, lambda x, y: convolve(x, y, ko)), ring)
        return self._born(d_a * d_b * m, by_exps, ko, _born_types(types, ring), ring)

    def _convolve(self, a_terms, b_terms, ko):
        """The terms of the product of a_terms and b_terms through degree ko."""
        deg = self._degree
        out = {}
        for k1, c1 in a_terms.items():
            room = ko - deg(k1)
            if room < 0:
                continue
            for k2, c2 in b_terms.items():
                if deg(k2) > room:
                    continue
                k = k1 + k2
                cur = out.get(k)
                out[k] = c1 * c2 if cur is None else cur + c1 * c2
        return out

    def is_zero(self, order=None):
        k = _through(self.known_order, order)
        w = self.order()
        return w is None or w > k

    def is_one(self, order=None):
        return self.equal_through(self._one(), order)

    def equal_through(self, other, order=None):
        """Equality through min(known orders), or through an order not past it.

        Two values of one type compare their int layers: the whole layers
        when the comparison reads every stored degree (the layers over the
        least denominator are unique), else per exponent vector the
        numerators cross-multiplied by the other denominator.  Any other
        pair (mixed types, a plain scalar, or two zeros, which have no
        coefficient to tell their type by) is compared by its difference.
        """
        if type(other) is not type(self) or not (self._keys() or other._keys()):
            return (self - other).is_zero(order)
        self._check(other)
        ring = _joint(self, other)[1]
        k = _through(min(self.known_order, other.known_order), order)
        (d_a, a), (d_b, b) = self._layers(ring), other._layers(ring)
        if k == self.known_order == other.known_order:
            return d_a == d_b and a == b
        deg = self._degree
        for e in a.keys() | b.keys():
            x, y = a.get(e, {}), b.get(e, {})
            if not all(v * d_b == y.get(key, 0) * d_a for key, v in x.items() if deg(key) <= k) \
                    or any(key not in x and deg(key) <= k for key in y):
                return False
        return True

    def eps(self):
        """The involution h -> -h: the terms of odd degree change sign."""
        deg = self._degree
        return self._remade(lambda layer: {k: -v if deg(k) % 2 else v for k, v in layer.items()})

    def exp(self):
        """exp(self) = sum_k self^k / k! through the known order; the order must be positive."""
        w = self.order()
        if w is not None and w < 1:
            raise ValueError("exp needs a series of positive order")
        acc = term = self._one()
        k = 1
        while w is not None and k * w <= self.known_order:
            term = Fraction(1, k) * (term * self)
            if term.order() is None:
                break
            acc = acc + term
            k += 1
        return acc

    def log(self):
        """log(self) = sum_k (-1)^(k+1) u^k / k with u = self - 1 of positive order."""
        one = self._one()
        u = self - one
        w = u.order()
        if w is not None and w < 1:
            raise ValueError("log needs constant term 1")
        acc = one - one
        power = one
        k = 1
        while w is not None and k * w <= self.known_order:
            power = power * u
            if power.order() is None:
                break
            acc = acc + Fraction((-1) ** (k + 1), k) * power
            k += 1
        return acc

    def inverse(self):
        """Neumann inverse (sum_k v^k) c with c = _lead_inverse() and v = 1 - c self
        of positive order; the sum stops when a power vanishes or after
        known_order terms."""
        lead_inv = self._lead_inverse()
        one = self._one()
        v = one - lead_inv * self
        acc = power = one
        for _ in range(self.known_order):
            power = power * v
            if power.order() is None:
                break
            acc = acc + power
        return acc * lead_inv

    def _lead_inverse(self):
        """The inverse of the degree-0 part, 1/c0 for a nonzero rational c0."""
        c0 = as_fraction(sum(self.homogeneous(0).terms.values()))
        if not c0:
            raise ValueError("series with zero constant term has no inverse")
        return 1 / c0


def _through(known_order, order):
    """The degree a comparison reads through: known_order, or an order not past it."""
    if order is None:
        return known_order
    if order > known_order:
        raise ValueError("comparison order %d exceeds known order %d" % (order, known_order))
    return order


def _ring_of(terms):
    """(types, ring) of a term dict's coefficients: the set of their types,
    and the one ring of their Polys (None when there are none).  Raises
    ValueError for a coefficient that is not int, Fraction or Poly, or for
    Polys of two rings."""
    types = set(map(type, terms.values()))
    if not types <= _EXACT:
        raise ValueError("inexact coefficients: %s" % sorted(t.__name__ for t in types - _EXACT))
    return types, _one_ring([c.ring for c in terms.values() if type(c) is Poly]
                            if Poly in types else ())


def _joint(x, y):
    """(types, ring) of the coefficients of two values together, as _ring_of
    gives them for one."""
    (types_x, ring_x, _), (types_y, ring_y, _) = x._kind(), y._kind()
    return types_x | types_y, _one_ring([r for r in (ring_x, ring_y) if r is not None])


def _one_ring(rings):
    """The one ring of a list of rings, None for none; ValueError for two."""
    for r in rings:
        # SymRing == tests identity first; its hash would hash the Fraction squares
        if r != rings[0]:
            raise ValueError("Poly coefficients of two rings: %r and %r" % (rings[0], r))
    return rings[0] if rings else None


def _born_types(types, ring):
    """The coefficient types of a value born from inputs of these types over ring."""
    return _POLY if ring is not None else _RATIONAL if Fraction in types else _INT


def _coefficient_layers(c, ring):
    """(d, {e: int}): an int, Fraction or Poly c times its least denominator
    d, split by monomial of ring (a rational at the all-zero vector)."""
    if type(c) is Poly:
        d = lcm(*(x.denominator for x in c.terms.values()))
        return d, {e: x.numerator * (d // x.denominator) for e, x in c.terms.items()}
    return c.denominator, {() if ring is None else (0,) * len(ring.symbols): c.numerator}


def _products(a, b, pair):
    """{e1 + e2: sum of pair(x, y)} over the layers x of a at e1 and y of b
    at e2, where pair returns a fresh {key: int}; exponent vectors unreduced."""
    out = {}
    for e1, x in a.items():
        for e2, y in b.items():
            sums = pair(x, y)
            e = tuple(map(add, e1, e2))
            acc = out.get(e)
            if acc is None:
                out[e] = sums
            else:
                for k, v in sums.items():
                    acc[k] = acc.get(k, 0) + v
    return out


def _gather(acc, xs, t):
    """acc[e1 + e2][key] += x v for each x of xs at e1 and v of t's layer at e2."""
    for e1, x in xs.items():
        for e2, layer in t.items():
            e = tuple(map(add, e1, e2))
            sums = acc.get(e)
            if sums is None:
                acc[e] = {k: x * v for k, v in layer.items()}
            else:
                for k, v in layer.items():
                    sums[k] = sums.get(k, 0) + x * v


def _reduced(raw, ring):
    """(m, layers) with layers / m equal to raw, each exponent of a
    quadratic symbol s taken below 2 by its square: s^(2t+r) = (s^2)^t s^r."""
    squares = None if ring is None else ring.squares
    if not squares or all(e[i] < 2 for e in raw for i in squares):
        return 1, raw
    parts = []
    for e, sums in raw.items():
        e, f = list(e), Fraction(1)
        for i, square in squares.items():
            t = e[i] >> 1
            e[i] -= 2 * t
            f *= square ** t
        parts.append((f.numerator, f.denominator, {tuple(e): sums}))
    return _settle(parts)


def _settle(parts):
    """(d, layers) of sum num / den * layers over parts [(num, den, layers)],
    in fresh dicts over d = lcm(den); the parts are left as they are."""
    d = lcm(*(den for _, den, _ in parts))
    out = {}
    for num, den, split in parts:
        m = num * (d // den)
        for e, sums in split.items():
            acc = out.get(e)
            if acc is None:
                out[e] = dict(sums) if m == 1 else {k: v * m for k, v in sums.items()}
            else:
                for k, v in sums.items():
                    acc[k] = acc.get(k, 0) + v * m
    return d, out


def _settled(like, parts, types, ring):
    """The value of like's shape and known order from int sums [(den, raw
    layers)], their exponent vectors reduced first."""
    parts = [(1, den * m, split) for den, raw in parts for m, split in (_reduced(raw, ring),)]
    d, by_exps = parts[0][1:] if len(parts) == 1 else _settle(parts)
    return like._born(d, by_exps, like.known_order, types, ring)


def suffix_products(images, alphabet, one):
    """A function word -> product of the images of its letters, built from the left.

    Words are bytes of indices into alphabet; images maps letter names to
    values of positive order known through one's known order K.  A word of L
    letters is exact through K and its suffix behind i letters through K - i,
    from images cut to degree K - L + 1 (one copy per letter and degree).
    Each product is kept with that degree (a zero image leaves its products
    exact past their known order) and rebuilt when a later request needs
    more, which (length, lex) order never does.  substitute asks only for
    the suffixes behind first letters and multiplies each tail by its first
    letter's image on the left.
    """
    ko = one.known_order
    cache, cut = {b"": (one, ko)}, {}  # word -> (product, degree it is exact through)

    def image(letter, n):
        if (letter, n) not in cut:
            img = images[alphabet[letter]]
            cut[letter, n] = img if n >= img.known_order else img._cut(n)
        return cut[letter, n]

    def product_for(word):
        got, exact = cache.get(word, (None, -1))
        if exact < ko:
            # leftwards from the longest suffix cached through the degree its
            # position needs; no recursion, so no cycle keeps the cache alive
            k = len(word) - 1
            while cache.get(word[k:], (None, -1))[1] >= ko - k:
                k -= 1
            got = cache[word[k + 1:]][0]
            for i in range(k, -1, -1):
                got = image(word[i], ko - len(word) + 1) * got
                cache[word[i:]] = got, ko - i
        return got

    return product_for


def substitute(elements, images, one):
    """Each series of elements, all over one alphabet, evaluated at images.

    images maps letter names to values of positive order known through K,
    the known order of one; words longer than K are skipped.  Everything
    happens on int layers.  The words of every element are visited together
    in (length, lex) order, and a word a.s is split at its first letter:
    suffix_products, built with one cut to known order K - 1, forms the
    image of each suffix s once for all the elements, and each element adds
    the layers of its coefficient times the layers of that image into one
    tail T_a per first letter a, in one int sum per denominator.  Each
    nonzero tail is then born, over the lcm of its denominators, and takes
    one product image(a) * T_a; the products and the empty word's
    coefficient times one add, per element, into int sums that are born at
    K, their keys past K left out: a zero tail's product carries a known
    order below K, which a sum by ``+`` would keep.  Each element's ring is
    the one ring of its coefficients, of one and of the images; its values
    stay in int where all of them are ints.
    """
    ko = one.known_order
    image_kinds = [image._kind() for image in images.values()]
    one_types, one_ring, _ = one._kind()
    kinds, uses = [], {}  # per element (types, ring); word -> {element index: (d, {e: int})}
    for i, series in enumerate(elements):
        types, ring, _ = series._kind()
        rings = [ring, getattr(one, "ring", None), one_ring] + [r for _, r, _ in image_kinds]
        ring = _one_ring([r for r in rings if r is not None])
        types = types.union(one_types, *(t for t, _, _ in image_kinds))
        kinds.append((_born_types(types, ring), ring))
        d, split = series._layers(ring)
        for e, layer in split.items():
            for word, v in layer.items():
                if len(word) <= ko:
                    uses.setdefault(word, {}).setdefault(i, (d, {}))[1][e] = v
    alphabet, cut = elements[0].alphabet, one._cut(ko - 1)
    product_for = suffix_products(images, alphabet, cut)
    accs = [{} for _ in elements]  # per element {den: raw layers}, the empty word's
    tails = {}  # (element index, first letter) -> {den: raw layers}
    for word in sorted(uses, key=lambda w: (len(w), w)):
        image = product_for(word[1:]) if word else one
        for i, (d_c, xs) in uses[word].items():
            d_t, t = image._layers(kinds[i][1])
            acc = tails.setdefault((i, word[0]), {}) if word else accs[i]
            _gather(acc.setdefault(d_c * d_t, {}), xs, t)
    parts = [list(acc.items()) for acc in accs]  # per element [(den, layers)] through K
    for (i, letter), acc in tails.items():
        tail = _settled(cut, list(acc.items()), *kinds[i])
        if tail._keys():
            parts[i].append((images[alphabet[letter]] * tail)._layers(kinds[i][1], ko))
    return [_settled(one, p, *kind) for p, kind in zip(parts, kinds)]


def evaluate(series, images, one=None):
    """series at images of order >= 1, one per letter (else the series type's
    _error), through the least known order of both; built on one, by default
    the unit of the first letter's image (an int unit keeps int images in int)."""
    missing = [a for a in series.alphabet if a not in images]
    if missing:
        raise series._error("no image for letters %r" % missing)
    used = [images[a] for a in series.alphabet]
    if any(image.order() == 0 for image in used):
        raise series._error("images must have order >= 1")
    ko = min([series.known_order] + [image.known_order for image in used])
    one = used[0]._one() if one is None else one
    return substitute([series], images, one._cut(ko))[0]


def _scatter(acc, pairs, c=None):
    """acc[key] += v, or c * v, for each (key, v) of pairs."""
    for key, v in pairs:
        if c is not None:
            v = c * v
        cur = acc.get(key)
        acc[key] = v if cur is None else cur + v
