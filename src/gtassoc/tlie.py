"""The Lie algebra t_4 of the 4-strand holonomy algebra, graded and cut at one degree.

t_4 = f_3 |x t_3 and t_3 = f_2 |x <t_12>, where f_3 is free on t_14, t_24,
t_34 and f_2 is free on t_13, t_23.  An element holds int coefficients on
exactly the normal-form words of U(T_4) that its image there occupies, one
dict per degree through the cut: its f_3 part as words in t_14, t_24, t_34
(the free Lie element expanded in the free associative algebra), its f_2
part as words in t_13, t_23, and the coefficient of t_12.  Letters are the
indices of LETTERS, t12, t13, t23, t14, t24, t34 = 0..5: column class j,
then row i.  Both parts are Lie polynomials of free Lie algebras, so an
element is zero exactly when its coefficients on Lyndon words are
(is_lyndon), and dimension gives its Witt numbers.

The bracket follows the semidirect structure: free commutators inside f_3
and inside f_2, and the derivations of _DERIVATIONS, which encode the
holonomy relations [t_ij, t_ik + t_jk] = 0,

    ad_{t_ij}(t_i4) = [t_i4, t_j4]     ad_{t_ij}(t_j4) = [t_j4, t_i4]
    ad_{t_12}(t_13) = [t_13, t_23]     ad_{t_12}(t_23) = [t_23, t_13].

The t_3 part of an element acts on f_3 as the derivation given by its
images of t_14, t_24 and t_34, its ad-map.  The ad-map is formed when a
bracket first asks for it: ad_{[A,B]} = [ad_A, ad_B] for a bracket, and
term by term for a combination.  So every element is built from
generators by brackets and int combinations, which is what gives it its
ad-map.

lyndon_images evaluates Lyndon words over x, y at two elements by their
standard factorizations, with one image cache per pair; bch is the
Baker-Campbell-Hausdorff series at two elements, weighted by the Lyndon
coordinates (ncseries.lie_coordinates) of ncseries.bch.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .ncseries import NCSeries, bch as free_bch, lie_coordinates, standard_factorization

LETTERS = ("t12", "t13", "t23", "t14", "t24", "t34")
T12, T13, T23, T14, T24, T34 = range(6)
_F3 = (T14, T24, T34)
_XY = ("x", "y")

# ad of a t_3 generator on each letter it moves, (a, b) for the image [a, b]
_DERIVATIONS = {T12: {T14: (T14, T24), T24: (T24, T14), T13: (T13, T23), T23: (T23, T13)},
                T13: {T14: (T14, T34), T34: (T34, T14)},
                T23: {T24: (T24, T34), T34: (T34, T24)}}


def letter(i, j):
    """The index of t_ij, i < j <= 4, in LETTERS: column class j, then row i."""
    return (j - 1) * (j - 2) // 2 + i - 1


def is_lyndon(word):
    """A nonempty word strictly below each of its proper suffixes.  A Lie
    polynomial of a free Lie algebra is fixed by its coefficients on Lyndon
    words (Reutenauer, Free Lie Algebras, Thm 5.1), so these rows of an
    element of t_4 decide it."""
    return bool(word) and all(word < word[i:] for i in range(1, len(word)))


def dimension(degree):
    """dim t_4 in one degree: the Witt numbers of f_3 and f_2, and t_12 in degree 1."""
    def witt(n):
        # (1/k) sum over d | k of mu(d) n^(k/d), mu read off by trial division
        total = 0
        for d in range(1, degree + 1):
            if degree % d:
                continue
            mu, rest, p = 1, d, 2
            while rest > 1 and mu:
                if rest % p == 0:
                    rest //= p
                    mu = 0 if rest % p == 0 else -mu
                p += 1
            total += mu * n ** (degree // d)
        return total // degree
    return witt(3) + witt(2) + (degree == 1) if degree > 0 else 0


def _zero(cut):
    return [{} for _ in range(cut + 1)]


def _clean(buckets):
    return [{w: c for w, c in bucket.items() if c} for bucket in buckets]


def _add(acc, buckets, scale):
    """acc += scale * buckets, degree by degree."""
    for out, bucket in zip(acc, buckets):
        for w, c in bucket.items():
            out[w] = out.get(w, 0) + scale * c


def _commutator(x, y, cut):
    """The free commutator xy - yx of two bucket lists, through degree cut."""
    out = _zero(cut)
    for i, xi in enumerate(x):
        for j in range(1, cut - i + 1):
            yj = y[j]
            if not (xi and yj):
                continue
            acc = out[i + j]
            for u, cu in xi.items():
                for v, cv in yj.items():
                    c = cu * cv
                    acc[u + v] = acc.get(u + v, 0) + c
                    acc[v + u] = acc.get(v + u, 0) - c
    return out


def _derive(images, x, cut, out, scale):
    """out += scale * D(x) through degree cut, D the derivation of the free
    algebra that sends each letter of images to its bucket list and the
    other letters to 0."""
    rows = {g: [(k, tuple(b.items())) for k, b in enumerate(image) if b]
            for g, image in images.items()}
    for i, xi in enumerate(x):
        for u, cu in xi.items():
            c = scale * cu
            for p, g in enumerate(u):
                row = rows.get(g)
                if row is None:
                    continue
                head, tail = u[:p], u[p + 1:]
                for k, pairs in row:
                    if i - 1 + k > cut:
                        break
                    acc = out[i - 1 + k]
                    for m, cm in pairs:
                        w = head + m + tail
                        acc[w] = acc.get(w, 0) + c * cm


@lru_cache(maxsize=None)
def _generator_images(index, cut):
    """({f_3 letter: bucket list}, {f_2 letter: bucket list}): ad of one t_3
    generator on the letters it moves, through degree cut."""
    parts = {}, {}
    for g, (a, b) in _DERIVATIONS.get(index, {}).items():
        image = _zero(cut)
        if cut >= 2:
            image[2] = {bytes((a, b)): 1, bytes((b, a)): -1}
        parts[g not in _F3][g] = image
    return parts


class LieElt:
    """An element of t_4 through degree cut: the f_3 and f_2 parts as bucket
    lists {word: int} by degree, and the int coefficient of t_12."""

    __slots__ = ("cut", "four", "three", "t12", "_ad")

    def __init__(self, cut, four, three, t12, ad):
        self.cut, self.four, self.three, self.t12 = cut, _clean(four), _clean(three), t12
        # the ad-map {f_3 letter: bucket list}, or the function that forms it
        self._ad = ad if self.t12 or any(self.three) else {}

    def ad(self):
        """The images of t_14, t_24 and t_34 under ad of the t_3 part, the zero ones left out."""
        if callable(self._ad):
            self._ad = self._ad()
        return self._ad

    def order(self):
        """The least degree of a term, None for zero."""
        for d in range(1, self.cut + 1):
            if self.four[d] or self.three[d] or (d == 1 and self.t12):
                return d
        return None

    def homogeneous(self, degree):
        """The terms of one degree as {U(T_4) normal-form word: int}."""
        out = dict(self.four[degree])
        out.update(self.three[degree])
        if degree == 1 and self.t12:
            out[bytes((T12,))] = self.t12
        return out


def generator(index, cut):
    """The generator of index `index` in LETTERS through degree cut >= 1."""
    four, three = _zero(cut), _zero(cut)
    if index != T12:
        (four if index in _F3 else three)[1][bytes((index,))] = 1
    return LieElt(cut, four, three, int(index == T12), _generator_images(index, cut)[0])


def combination(pairs, cut):
    """sum c e over (int c, element e) pairs, every e cut at cut."""
    pairs = [(c, e) for c, e in pairs if c]
    four, three = _zero(cut), _zero(cut)
    for c, e in pairs:
        _add(four, e.four, c)
        _add(three, e.three, c)

    def ad():
        out = {}
        for c, e in pairs:
            for g, image in e.ad().items():
                _add(out.setdefault(g, _zero(cut)), image, c)
        return {g: image for g, image in ((g, _clean(b)) for g, b in out.items()) if any(image)}

    return LieElt(cut, four, three, sum(c * e.t12 for c, e in pairs), ad)


def bracket(a, b):
    """[a, b] through the common cut.  The t_3 parts act on the f_3 parts
    through their ad-maps and t_12 on the f_2 parts; the bracket of two t_3
    parts has no t_12 term."""
    cut = a.cut
    four = _commutator(a.four, b.four, cut)
    if any(b.four) and a.ad():
        _derive(a.ad(), b.four, cut, four, 1)
    if any(a.four) and b.ad():
        _derive(b.ad(), a.four, cut, four, -1)
    three = _commutator(a.three, b.three, cut)
    on_f2 = _generator_images(T12, cut)[1]
    if a.t12:
        _derive(on_f2, b.three, cut, three, a.t12)
    if b.t12:
        _derive(on_f2, a.three, cut, three, -b.t12)
    return LieElt(cut, four, three, 0, lambda: _ad_bracket(a.ad(), b.ad(), cut))


def _ad_bracket(ad_a, ad_b, cut):
    """The ad-map [ad_a, ad_b]: g -> ad_a(ad_b(g)) - ad_b(ad_a(g)) on each f_3 letter g."""
    out = {}
    for g in _F3:
        image = _zero(cut)
        if g in ad_b:
            _derive(ad_a, ad_b[g], cut, image, 1)
        if g in ad_a:
            _derive(ad_b, ad_a[g], cut, image, -1)
        image = _clean(image)
        if any(image):
            out[g] = image
    return out


def lyndon_images(x, y):
    """A function word -> [word](x, y) for Lyndon words over x, y (bytes over
    0, 1), bracketed by standard factorization; every image is cached, so
    the factors are shared by all the words asked for."""
    cache = {bytes((0,)): x, bytes((1,)): y}

    def image(word):
        got = cache.get(word)
        if got is None:
            left, right = standard_factorization(word)
            got = cache[word] = bracket(image(left), image(right))
        return got

    return image


@lru_cache(maxsize=None)
def _bch_coordinates(depth):
    x, y = (NCSeries.letter(_XY, name, depth) for name in _XY)
    return tuple(lie_coordinates(free_bch(x, y), depth))


def bch(a, b, den):
    """(e, m), both int, with m BCH(a / den, b / den) = e through the cut.

    A Lyndon word with i letters x and j letters y brackets to order at
    least i ord(a) + j ord(b), so only the words within the cut are
    evaluated, each with one int weight m beta / den^(i+j), beta its
    coordinate in ncseries.bch.
    """
    cut = a.cut
    oa, ob = (e.order() or cut + 1 for e in (a, b))
    terms = [(w, beta / den ** len(w)) for w, beta in _bch_coordinates(cut // min(oa, ob))
             if w.count(0) * oa + w.count(1) * ob <= cut]
    m = lcm(*(r.denominator for _, r in terms))
    image = lyndon_images(a, b)
    return combination([(int(r * m), image(w)) for w, r in terms], cut), m
