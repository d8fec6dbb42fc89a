"""Series code written once for every truncated type in the package.

``Truncated`` is the base of NCSeries, HoloElt, ScalarSeries and HMatrix.
Every type has ``terms`` that map a key (a word, a power of h, or a (power,
row, col) triple) to a nonzero coefficient, exact through ``known_order``.
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
a product or a comparison asks for their ring.

The value maps are written here once, and every construction commutes
with them:

- ``truncated(maxdeg, known_order=None)`` changes the truncation degree and
  keeps min(known order, maxdeg), or an explicit known order;
- ``specialize(ring, mapping)`` sends each Poly coefficient through
  ``Poly.subs`` into ring (Q for None), at a rational point for instance;
- ``promote(ring)`` coerces each coefficient into a larger ring;
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

from .symcoef import Poly, _add_term, as_fraction, layers

# the exact coefficient types, the only ones a value may hold; a product
# with a Fraction or a Poly among them sums in int
_LAYERED = {Fraction, Poly}
_EXACT = {int} | _LAYERED
# the coefficient types of a product born over Q
_BORN = frozenset({Fraction})


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
      b_terms, ko)``, the product of two term dicts through degree ko, its
      zero sums left in.

    From these the base writes once: ``_like(terms, known_order=None)``,
    ``_check(other)``, which raises ``_error`` unless other is of self's
    type and shape, ``==`` (type, shape apart from maxdeg, terms), the
    series algorithms ``exp``, ``log`` and ``inverse``, the value maps
    ``truncated``, ``specialize`` and ``promote``, the linear map
    ``linear(row)`` on keys, and the ring-based ``_coerce``.  Operands of
    different types or shapes are refused with ``_error``; a type in
    ``_scalars`` multiplies as a coefficient.  No value stores a zero
    coefficient: ``_set`` drops them (``_born`` for a product over Q), so
    the sums that build terms keep theirs.

    Values are immutable.  ``_cache`` holds (types, ring, split): the
    coefficient types, their one ring (None over Q) and, once a product or a
    comparison has asked for it, the ``layers`` split over that ring.  A
    product over Q is born with ``_terms`` None and only its split, its least
    denominator and int numerators; ``terms`` builds its Fractions on first
    read.
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
        """This value over ring, which must hold every symbol of self's ring;
        nothing demotes to Q."""
        if ring == self.ring:
            return self
        if ring is None:
            raise self._error("cannot demote coefficients to Q")
        if self.ring is not None:
            missing = set(self.ring.symbols) - set(ring.symbols)
            if missing:
                raise self._error("cannot promote: target ring lacks %r" % sorted(missing))
        return self._over(ring, {k: ring.coerce(c) for k, c in self.terms.items()})

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
        """{key: nonzero coefficient}, read-only; a born product builds its Fractions here once."""
        terms = self._terms
        if terms is None:
            d, ints = self._cache[2]
            terms = self._terms = {k: Fraction(v, d) for k, v in ints[()].items()}
        return terms

    def _keys(self):
        """The stored keys, from whichever form of the terms exists."""
        terms = self._terms
        return self._cache[2][1][()] if terms is None else terms

    def _kind(self):
        """(types, ring, split) of the coefficients, the split None until _split forms it."""
        cache = self._cache
        if cache is None:
            cache = self._cache = _ring_of(self._terms) + (None,)
        return cache

    def _split(self):
        """layers(terms, ring) over the value's own ring, formed at most once."""
        types, ring, split = self._kind()
        if split is None:
            split = layers(self._terms, ring)
            self._cache = types, ring, split
        return split

    def _layers(self, ring):
        """The split over ring, the product's ring: a rational value's one
        layer moves to ring's all-zero exponent vector."""
        d, split = self._split()
        if ring is not None and self._cache[1] is None:
            split = {(0,) * len(ring.symbols): split[()]}
        return d, split

    def _born(self, d, sums, ko):
        """The value {key: v / d} of int sums, kept as its layered split over
        the least denominator d / gcd(d, *sums); its terms are built when read."""
        g = gcd(d, *sums.values())
        ints = {k: v // g for k, v in sums.items() if v}
        out = self._like({}, ko)
        if ints:
            out._terms, out._cache = None, (_BORN, None, (d // g, {(): ints}))
        return out

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
        return self._like({k: c for k, c in self.terms.items() if deg(k) == degree})

    def __add__(self, other):
        if not isinstance(other, Truncated):
            other = self._one() * other
        self._check(other)
        out = dict(self.terms)
        _scatter(out, other.terms.items())
        return self._like(out, min(self.known_order, other.known_order))

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Truncated) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, scalar):
        if isinstance(scalar, Truncated):
            self._check(scalar)  # raises: a value of self's family multiplies in __mul__
        c = self._coerce(scalar)
        return self._like({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """The product through min(K_a + w_b, K_b + w_a, maxdeg).

        With a Fraction or a Poly among the coefficients, each factor is split
        into int monomial layers {exponent vector: {key: int}} over its least
        common denominator d (one layer over Q), the hook convolves each pair
        of layers, and the sums add per key and exponent vector.  Over Q the
        product is born in int, (d/g, {key: sum/g}) with g = gcd(d, *sums),
        its own split; over a ring each key becomes one Poly of Fractions
        over d, its quadratic symbols reduced once per output monomial:
        exact, because the reduction is linear.
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
        if not types & _LAYERED:
            return self._like(self._convolve(self.terms, other.terms, ko), ko)
        (d_a, a), (d_b, b) = self._layers(ring), other._layers(ring)
        d = d_a * d_b
        if ring is None:
            return self._born(d, self._convolve(a[()], b[()], ko), ko)
        by_exps = {}
        for e1, x in a.items():
            for e2, y in b.items():
                sums = self._convolve(x, y, ko)
                e = tuple(map(add, e1, e2))
                acc = by_exps.get(e)
                if acc is None:
                    by_exps[e] = sums
                else:
                    for k, v in sums.items():
                        acc[k] = acc.get(k, 0) + v
        # a zero int sum builds no Fraction; _like drops the zero Polys
        polys = {}
        for e, sums in by_exps.items():
            for k, v in sums.items():
                if v:
                    _add_term(polys.setdefault(k, {}), ring, e, Fraction(v, d))
        return self._like({k: Poly(ring, p) for k, p in polys.items()}, ko)

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

        Two values of one type compare their terms key by key, and over Q
        their int splits: the whole splits when the comparison reads every
        stored degree (the split over the least denominator is unique), else
        numerators cross-multiplied by the other denominator.  Any other pair
        (mixed types, a plain scalar, or two zeros, which have no coefficient
        to tell their type by) is compared by its difference.
        """
        if type(other) is not type(self) or not (self._keys() or other._keys()):
            return (self - other).is_zero(order)
        self._check(other)
        ring = _joint(self, other)[1]
        k = _through(min(self.known_order, other.known_order), order)
        deg = self._degree
        if ring is None:
            (d_a, a), (d_b, b) = self._split(), other._split()
            a, b = a[()], b[()]
            if k == self.known_order == other.known_order:
                return d_a == d_b and a == b
            return all(x * d_b == b.get(key, 0) * d_a for key, x in a.items() if deg(key) <= k) \
                and not any(key not in a and deg(key) <= k for key in b)
        a, b = self.terms, other.terms
        for key, c in a.items():
            if deg(key) <= k:
                d = b.get(key)
                if c if d is None else c != d:
                    return False
        return not any(d and key not in a and deg(key) <= k for key, d in b.items())

    def eps(self):
        """The involution h -> -h: the terms of odd degree change sign."""
        deg = self._degree
        return self._like({k: -c if deg(k) % 2 else c for k, c in self.terms.items()})

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
            cut[letter, n] = img if n >= img.known_order else img._like(img.terms, n)
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
    the known order of one; words longer than K are skipped.  The
    words of every element are visited together in (length, lex) order, and
    a word a.s is split at its first letter: suffix_products, built with one
    cut to known order K - 1, forms the image of each suffix s once for all
    the elements, and each element scatters its coefficient (coerced unless
    an int, so that int series at int images stay in int) times that image
    into one tail T_a per first letter a.  Each nonzero tail then
    takes one product image(a) * T_a, and the empty word adds its
    coefficient times one.  The products' terms go into one plain dict per
    element, which one._like cleans of zeros and truncates at K: a zero
    tail's product carries a known order below K, which a sum by ``+`` would
    keep.  A Poly coefficient times a suffix image with rational
    coefficients is scattered in int instead: both are scaled to int layers,
    each pair adds into one flat dict {(key, exponent vector): int} per tail
    and denominator, and at the end the dicts meet over the lcm of their
    denominators, one Fraction per term and one Poly per key.
    """
    ko = one.known_order
    uses = {}  # word -> [(element index, coefficient)]
    for i, series in enumerate(elements):
        for word, coeff in series.terms.items():
            if len(word) <= ko:
                c = coeff if type(coeff) is int else one._coerce(coeff)
                uses.setdefault(word, []).append((i, c))
    alphabet, cut = elements[0].alphabet, one._like(one.terms, ko - 1)
    product_for = suffix_products(images, alphabet, cut)
    accs = [{} for _ in elements]
    tails, flats = {}, {}  # (element index, first letter) -> terms, and -> {den: flat dict}
    for word in sorted(uses, key=lambda w: (len(w), w)):
        if not word:
            for i, c in uses[word]:
                _scatter(accs[i], one.terms.items(), c)
            continue
        image = product_for(word[1:])
        terms = image.terms
        ints = (image._split() if any(type(c) is Poly for _, c in uses[word])
                and image._kind()[1] is None else None)
        for i, c in uses[word]:
            tail = i, word[0]
            if ints is None or type(c) is not Poly:
                _scatter(tails.setdefault(tail, {}), terms.items(), c)
                continue
            (d_c, xs), (d_t, vs) = layers(c.terms), ints
            sums = flats.setdefault(tail, (c.ring, {}))[1].setdefault(d_c * d_t, {})
            for key, v in vs[()].items():
                for e, x in xs[()].items():
                    sums[key, e] = sums.get((key, e), 0) + x * v
    for tail, (ring, flat) in flats.items():
        _scatter(tails.setdefault(tail, {}), _flat_polys(ring, flat).items())
    for (i, letter), terms in tails.items():
        _scatter(accs[i], (images[alphabet[letter]] * cut._like(terms)).terms.items())
    return [one._like(acc) for acc in accs]


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
    return substitute([series], images, one._like(one.terms, ko))[0]


def _scatter(acc, pairs, c=None):
    """acc[key] += v, or c * v, for each (key, v) of pairs."""
    for key, v in pairs:
        if c is not None:
            v = c * v
        cur = acc.get(key)
        acc[key] = v if cur is None else cur + v


def _flat_polys(ring, flat):
    """{key: Poly} from {den: {(key, exponent vector): int}}, one int sum per
    (key, exponent vector) over the lcm of the denominators."""
    den, total = lcm(*flat), {}
    for d, sums in flat.items():
        m = den // d
        for ke, x in sums.items():
            total[ke] = total.get(ke, 0) + x * m
    polys = {}
    for (key, e), x in total.items():
        if x:
            polys.setdefault(key, {})[e] = Fraction(x, den)
    return {key: Poly(ring, poly_terms) for key, poly_terms in polys.items()}
