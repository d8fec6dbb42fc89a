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

A value's coefficients lie in one ring, its ``ring`` slot: Q for None, else
a SymRing Q[a, b, ...].  A constructor coerces each coefficient it is given
into that ring, and refuses one that is not exact (a float) with
ValueError; ``terms`` reads a Fraction over Q and a Poly of the ring over a
ring, however the value was made.  Two values of different rings do not
combine: ``_check`` raises, as for any other shape slot.

A value is held as its int layers from birth: (d, {exponent vector: {key:
int}}), its coefficients times their least common denominator d, split by
monomial of the ring (one layer, at the exponent vector (), over Q).  The
sum, the product, negation, scaling, h -> -h, the homogeneous parts, the
cut to a lower degree and substitution work on the layers alone, reduce
the quadratic symbols of a ring on the exponent vectors where two layers
meet, and give a value born in that form; its Fractions or Polys are built
when its terms are first read, and ``coefficient`` builds only the one it
returns.

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

# the exact coefficient types, the only ones a constructor takes
_EXACT = frozenset({int, Fraction, Poly})


class Truncated:
    """Base of the truncated types.  A subclass provides

    - ``_shape``, one (slot, mismatch message) pair per attribute that two
      operands must share, the coefficient ring ``ring`` among them;
    - ``maxdeg``, the truncation degree no product goes past;
    - ``_degree(key)``, the degree of a key of ``terms``;
    - ``_one()``, the unit at self's known order;
    - ``_lead_inverse()``, the inverse of the degree-0 part, where the
      base's 1/c0 does not serve (a matrix);
    - public constructors, which set the shape slots and call
      ``_set(terms, known_order)``;
    - ``_error``, when a mismatch raises a subclass of ValueError;
    - and, where keys do not multiply by ``+`` alone, ``_convolve(a_terms,
      b_terms, ko)``, the product of two {key: int} dicts through degree ko,
      its zero sums left in.

    From these the base writes once: ``_like(terms, known_order=None)``,
    ``_check(other)``, which raises ``_error`` unless other is of self's
    type and shape, ``==`` (type, shape apart from maxdeg, coefficients),
    the series algorithms ``exp``, ``log`` and ``inverse``, the value maps
    ``truncated``, ``specialize`` and ``promote``, the linear map
    ``linear(row)`` on keys, the map ``_remade(f)`` of the int layers, and
    ``_coerce``, which takes a coefficient into self's ring.  Operands of
    different types or shapes are refused with ``_error``; a type in
    ``_scalars`` multiplies as a coefficient.  No value stores a zero
    coefficient: ``_set`` drops them, and so does ``_born`` for a value
    made from int layers.

    Values are immutable.  ``_cache`` holds the int layers (d, {exponent
    vector: {key: int}}), formed when the value is made.  ``_terms`` holds
    the coefficients a constructor was given, coerced into the ring; a value
    that an operation makes is born with its layers alone and ``_terms``
    None, and ``terms`` builds one Fraction, or one Poly, per key on first
    read.
    """

    __slots__ = ("_terms", "_cache")
    # Truncated types that multiply as coefficients, c * x
    _scalars = ()
    _error = ValueError

    def _set(self, terms, known_order):
        """Sets known_order, clamped to maxdeg, keeps the nonzero terms of
        degree 0 through it, each coerced into the ring, and forms their int
        layers; returns self."""
        ko = self.known_order = min(known_order, self.maxdeg)
        deg, coerce = self._degree, self._coerce
        terms = {k: coerce(c) for k, c in terms.items() if c and 0 <= deg(k) <= ko}
        self._terms, self._cache = terms, layers(terms, self.ring)
        return self

    def _coerce(self, c):
        """c as a coefficient of self's ring: a Fraction over Q, a Poly of
        the ring over one; ValueError for an inexact c or a Poly that does
        not include into the ring."""
        if type(c) not in _EXACT:
            raise ValueError("inexact coefficients: %r" % [type(c).__name__])
        return as_fraction(c) if self.ring is None else self.ring.coerce(c)

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
                   for slot, _ in self._shape if slot != "maxdeg") and self._cache == other._cache

    def truncated(self, maxdeg, known_order=None):
        """This value at truncation degree maxdeg, known through min(known order,
        maxdeg), or through an explicit known_order not past maxdeg; the
        layers are cut, and no term is built."""
        out = self._like({})
        out.maxdeg = maxdeg
        ko = min(self.known_order if known_order is None else known_order, maxdeg)
        d, split = self._layers(ko)
        return out._born(d, split, ko)

    def promote(self, ring):
        """This value over ring, which must hold every symbol of self's ring
        with the same square relation; nothing demotes to Q.  The layers move
        to ring's exponent vectors, and no Poly is built."""
        if ring == self.ring:
            return self
        if ring is None:
            raise self._error("cannot demote coefficients to Q")
        d, split = self._cache
        if self.ring is None:
            zero = (0,) * len(ring.symbols)
            split = {zero: layer for layer in split.values()}
        else:
            try:
                at = ring.positions(self.ring)
            except ValueError as exc:
                raise self._error("cannot promote: %s" % exc) from None
            split = {ring.moved(e, at): layer for e, layer in split.items()}
        out = self._like({})
        out.ring = ring
        return out._born(d, split, self.known_order)

    def specialize(self, ring, mapping):
        """This value over ring (Q for None): each Poly coefficient goes
        through Poly.subs(ring, mapping); a value over Q is promoted.  A
        mapping that lacks a symbol some coefficient uses raises _error."""
        if self.ring is None:
            return self.promote(ring)
        try:
            terms = {k: c.subs(ring, mapping) for k, c in self.terms.items()}
        except KeyError:
            used = {self.ring.symbols[i] for c in self.terms.values()
                    for e in c.terms for i, x in enumerate(e) if x}
            raise self._error("cannot specialize: no value for %r"
                              % sorted(used - set(mapping))) from None
        out = self._like({})
        out.ring = ring
        return out._set(terms, self.known_order)

    @property
    def terms(self):
        """{key: nonzero coefficient}, read-only: Fractions over Q, Polys of
        the ring over a ring; a born value builds them here once."""
        terms = self._terms
        if terms is None:
            d, split = self._cache
            ring = self.ring
            if ring is None:
                terms = {k: Fraction(v, d) for layer in split.values() for k, v in layer.items()}
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

    def _layers(self, through):
        """The int layers, the keys past degree through left out."""
        d, split = self._cache
        if through < self.known_order:
            deg = self._degree
            split = {e: {k: v for k, v in layer.items() if deg(k) <= through}
                     for e, layer in split.items()}
        return d, split

    def _born(self, d, by_exps, ko):
        """The value of self's shape, known through ko, with coefficients
        {key: sum_e v x^e / d} of the int sums {e: {key: v}}, whose exponent
        vectors are reduced.  The zero sums and layers drop out, and d
        becomes the least denominator d / g, g = gcd(d, every sum)."""
        out = self._like({}, ko)
        g = d
        for sums in by_exps.values():
            if g == 1:
                break
            g = gcd(g, *sums.values())
        split = {e: ints for e, sums in by_exps.items()
                 if (ints := {k: v // g for k, v in sums.items() if v})}
        if split:
            out._terms, out._cache = None, (d // g, split)
        return out

    def _remade(self, f, known_order=None):
        """The value of self's shape whose layers are f(layer) of each of
        self's, over the same denominator, known through known_order (self's
        by default); f keeps no key past it."""
        d, split = self._cache
        return self._born(d, {e: f(layer) for e, layer in split.items()},
                          self.known_order if known_order is None else known_order)

    def _cut(self, known_order):
        """This value known through known_order, its keys past it left out."""
        deg = self._degree
        return self._remade(lambda layer: {k: v for k, v in layer.items()
                                           if deg(k) <= known_order}, known_order)

    def _keys(self):
        """The stored keys, from whichever form of the terms exists."""
        terms = self._terms
        if terms is None:
            split = self._cache[1]
            return next(iter(split.values())) if len(split) == 1 else set().union(*split.values())
        return terms

    def order(self):
        """Degree of the lowest stored term, or None for zero."""
        keys = self._keys()
        return min(map(self._degree, keys)) if keys else None

    def coefficient(self, key):
        """The coefficient of key, zero when absent; raises ValueError past
        the known order.  Only this one Fraction or Poly is built."""
        if self._degree(key) > self.known_order:
            raise ValueError("coefficient of degree %d exceeds known order %d"
                             % (self._degree(key), self.known_order))
        d, split = self._cache
        parts = {e: Fraction(v, d) for e, layer in split.items() if (v := layer.get(key))}
        if self.ring is not None:
            return Poly(self.ring, parts)
        return parts[()] if parts else Fraction(0)

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
        d, by_exps = _settle([(1, *self._layers(ko)), (1, *other._layers(ko))])
        return self._born(d, by_exps, ko)

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
        d_c, c_layers = layers({None: self._coerce(scalar)}, self.ring)
        d, split = self._cache
        raw = {}
        _gather(raw, {e: layer[None] for e, layer in c_layers.items()}, split)
        m, by_exps = _reduced(raw, self.ring)
        return self._born(d_c * d * m, by_exps, self.known_order)

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
        (d_a, a), (d_b, b) = self._cache, other._cache
        convolve = self._convolve
        m, by_exps = _reduced(_products(a, b, lambda x, y: convolve(x, y, ko)), self.ring)
        return self._born(d_a * d_b * m, by_exps, ko)

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
        pair (mixed types, a plain scalar) is compared by its difference.
        """
        if type(other) is not type(self):
            return (self - other).is_zero(order)
        self._check(other)
        k = _through(min(self.known_order, other.known_order), order)
        (d_a, a), (d_b, b) = self._cache, other._cache
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


def _settled(like, parts):
    """The value of like's shape and known order from int sums [(den, raw
    layers)], their exponent vectors reduced first."""
    parts = [(1, den * m, split) for den, raw in parts for m, split in (_reduced(raw, like.ring),)]
    d, by_exps = parts[0][1:] if len(parts) == 1 else _settle(parts)
    return like._born(d, by_exps, like.known_order)


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
    the known order of one; words longer than K are skipped.  The result is
    over one's ring, into which each element and each image is promoted
    first (a ring value at images over Q raises: nothing demotes).
    Everything happens on int layers.  The words of every element are
    visited together in (length, lex) order, and a word a.s is split at its
    first letter: suffix_products, built with one cut to known order K - 1,
    forms the image of each suffix s once for all the elements, and each
    element adds the layers of its coefficient times the layers of that
    image into one tail T_a per first letter a, in one int sum per
    denominator.  Each nonzero tail is then born, over the lcm of its
    denominators, and takes one product image(a) * T_a; the products and
    the empty word's coefficient times one add, per element, into int sums
    that are born at K, their keys past K left out: a zero tail's product
    carries a known order below K, which a sum by ``+`` would keep.
    """
    ko, ring = one.known_order, one.ring
    images = {a: image.promote(ring) for a, image in images.items()}
    uses = {}  # word -> {element index: (d, {e: int})}
    for i, series in enumerate(elements):
        d, split = series.promote(ring)._cache
        for e, layer in split.items():
            for word, v in layer.items():
                if len(word) <= ko:
                    uses.setdefault(word, {}).setdefault(i, (d, {}))[1][e] = v
    alphabet, cut = elements[0].alphabet, one._cut(ko - 1)
    product_for = suffix_products(images, alphabet, cut)
    accs = [{} for _ in elements]  # per element {den: raw layers}, the empty word's
    tails = {}  # (element index, first letter) -> {den: raw layers}
    for word in sorted(uses, key=lambda w: (len(w), w)):
        d_t, t = (product_for(word[1:]) if word else one)._cache
        for i, (d_c, xs) in uses[word].items():
            acc = tails.setdefault((i, word[0]), {}) if word else accs[i]
            _gather(acc.setdefault(d_c * d_t, {}), xs, t)
    parts = [list(acc.items()) for acc in accs]  # per element [(den, layers)] through K
    for (i, letter), acc in tails.items():
        tail = _settled(cut, list(acc.items()))
        if tail._keys():
            parts[i].append((images[alphabet[letter]] * tail)._layers(ko))
    return [_settled(one, p) for p in parts]


def evaluate(series, images, one=None):
    """series at images of order >= 1, one per letter (else the series type's
    _error), through the least known order of both; built on one, by default
    the unit of the first letter's image, whose ring the result is over."""
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
