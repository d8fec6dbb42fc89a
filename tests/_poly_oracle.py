"""Series arithmetic with one Poly, or Fraction, per term: the oracle of the
int-layer form of truncated.

Each function takes values of one Truncated type, reads their terms, and
builds its result by coefficient arithmetic, term by term:

- ``mul``: over Q the type's convolution of the terms; over a ring each
  factor split into int monomial layers over its least denominator, each
  pair of layers convolved, and one Poly per output key built term by term
  with ``_add_term``, which reduces the quadratic symbols;
- ``add``, ``neg`` and ``scale``: ``Poly.__add__``, ``Poly.__neg__`` and
  ``Poly.__mul__`` (or their Fraction kin) per term;
- ``substitute``: the suffix of each word evaluated once, and the tails
  summed per term, each coefficient coerced into the ring of the unit;
- ``exp``, ``log``, ``inverse``, ``evaluate`` and ``equal_through``, written
  on top of these.

Results are plain values built from terms by ``_like``, which drops zeros
and keys past the known order.
"""

from fractions import Fraction

from gtassoc.symcoef import Poly, _add_term, layers


def _known_order(a, b):
    wa, wb = a.order(), b.order()
    if wa is None or wb is None:
        return min(a.known_order, b.known_order)
    return min(a.known_order + wb, b.known_order + wa, a.maxdeg)


def mul(a, b):
    """a * b for two values of one type, one Poly per output key over a ring."""
    ko = _known_order(a, b)
    if a.order() is None or b.order() is None:
        return a._like({}, ko)
    ring = a.ring
    if ring is None:
        return a._like(a._convolve(a.terms, b.terms, ko), ko)
    (d_a, xs), (d_b, ys) = layers(a.terms, ring), layers(b.terms, ring)
    d = d_a * d_b
    polys = {}
    for e1, x in xs.items():
        for e2, y in ys.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            for k, v in a._convolve(x, y, ko).items():
                if v:
                    _add_term(polys.setdefault(k, {}), ring, e, Fraction(v, d))
    return a._like({k: Poly(ring, p) for k, p in polys.items()}, ko)


def add(a, b):
    """a + b through the lesser known order, per term."""
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out[k] + c if k in out else c
    return a._like(out, min(a.known_order, b.known_order))


def neg(a):
    return a._like({k: -c for k, c in a.terms.items()})


def sub(a, b):
    return add(a, neg(b))


def scale(c, a):
    """c * a for a coefficient c, coerced into a's ring, per term."""
    c = a._coerce(c)
    return a._like({k: c * v for k, v in a.terms.items()})


def exp(a):
    acc = term = a._one()
    w, k = a.order(), 1
    while w is not None and k * w <= a.known_order:
        term = scale(Fraction(1, k), mul(term, a))
        if term.order() is None:
            break
        acc, k = add(acc, term), k + 1
    return acc


def log(a):
    one = a._one()
    u = sub(a, one)
    acc, power = sub(one, one), one
    w, k = u.order(), 1
    while w is not None and k * w <= a.known_order:
        power = mul(power, u)
        if power.order() is None:
            break
        acc, k = add(acc, scale(Fraction((-1) ** (k + 1), k), power)), k + 1
    return acc


def inverse(a):
    lead = a._lead_inverse()
    one = a._one()
    v = sub(one, mul(lead, a) if isinstance(lead, type(a)) else scale(lead, a))
    acc = power = one
    for _ in range(a.known_order):
        power = mul(power, v)
        if power.order() is None:
            break
        acc = add(acc, power)
    return mul(acc, lead) if isinstance(lead, type(a)) else scale(lead, acc)


def substitute(elements, images, one):
    """Each series of elements evaluated at images, through one's known order K."""
    ko = one.known_order
    alphabet = elements[0].alphabet
    cut = one._like(one.terms, ko - 1)
    suffixes = {b"": cut}

    def image(word):
        if word not in suffixes:
            suffixes[word] = mul(images[alphabet[word[0]]], image(word[1:]))
        return suffixes[word]

    uses = {}
    for i, series in enumerate(elements):
        for word, coeff in series.terms.items():
            if len(word) <= ko:
                uses.setdefault(word, []).append((i, one._coerce(coeff)))
    accs = [{} for _ in elements]
    tails = {}  # (element index, first letter) -> terms
    for word in sorted(uses, key=lambda w: (len(w), w)):
        if not word:
            for i, c in uses[word]:
                _scatter(accs[i], one.terms.items(), c)
            continue
        img = image(word[1:])
        for i, c in uses[word]:
            _scatter(tails.setdefault((i, word[0]), {}), img.terms.items(), c)
    for (i, letter), terms in tails.items():
        _scatter(accs[i], mul(images[alphabet[letter]], cut._like(terms)).terms.items())
    return [one._like(acc) for acc in accs]


def evaluate(series, images):
    """series at images of order >= 1, through the least known order."""
    used = [images[a] for a in series.alphabet]
    ko = min([series.known_order] + [image.known_order for image in used])
    one = used[0]._one()
    return substitute([series], images, one._like(one.terms, ko))[0]


def equal_through(a, b, order=None):
    """The terms of a and b agree key by key through order (the lesser known order by default)."""
    k = min(a.known_order, b.known_order) if order is None else order
    deg = a._degree
    keys = {key for key in a.terms.keys() | b.terms.keys() if deg(key) <= k}
    return all(a.terms.get(key, 0) == b.terms.get(key, 0) for key in keys)


def _scatter(acc, pairs, c=None):
    for key, v in pairs:
        if c is not None:
            v = c * v
        acc[key] = acc[key] + v if key in acc else v

