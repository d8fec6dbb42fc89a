"""U(T_n), the truncated enveloping algebras of the holonomy Lie algebras,
and the oracles built on them.

T_n is generated by t_ij (i<j) with [t_ij, t_kl] = 0 for disjoint index
pairs and [t_ij, t_ik + t_kj] = 0.  Deleting the last strand exhibits
T_n as (free Lie on t_1n..t_{n-1,n}) |x T_{n-1}, iterated down to T_2, so
U(T_n) has a normal-form basis of concatenations

    (word in the t_*n) . (word in the t_*(n-1)) ... (power of t_12),

one free-associative block per column class.  Reduction moves a letter of
lower class left past a higher-class letter at the cost of a quadratic
commutator term inside the higher block; the rewriting is triangular in
the number of low-class letters, hence terminates, and its output is the
coordinate vector on the normal-form basis.  Per-degree dimensions match
the Hilbert series prod_{i=1}^{n-1} 1/(1-i t) (holonomy.hilbert_dimensions).

A product never re-reduces its right factor: each pair of basis words is
reduced by prepending the left word's letters, right to left, onto the
right word, which is already normal.  A one-letter left word, the common
case of a word image built from the left, reads its row straight from the
cached prepend table.  HoloElt is the fourth Truncated type, on which the
property tests of every type run.

The oracles: pentagon_defect is (d3)(d1) - (d0)(d2)(d4) of the five faces
in U(T_4), the route that the t_4 pentagon of associators.pentagon_defect
is checked against; relation_words and reduce_terms back the normal-form
tests; pentagon_linear is the U(T_4) route that the t_4 pentagon columns
of the extension solver are checked against.  sigma_images and braid_image
carry a braid word to one pair (u, p), an element u of U(T_n) and a
permutation p standing for u . p; the GT_1 4-strand relation pushed that
way is the route that grtgt.gt_pentagon_defect, the pentagon of g.phi0, is
checked against.
"""

import itertools
from fractions import Fraction

from gtassoc import associators
from gtassoc.braids import xi_word
from gtassoc.holonomy import hilbert_dimensions, transposition
from gtassoc.ncseries import EMPTY, NCSeries
from gtassoc.symcoef import as_fraction
from gtassoc.truncated import Truncated, evaluate, substitute

# dim U(T_n) in the top degree, which sizes the reduction tables and every
# product there: admits U(T_4) through degree 7 (9330) but not 8 (28501)
DEFAULT_DIMENSION_BOUND = 10000
# (n, maxdeg) -> HoloAlgebra, and n -> the prepend rows that every algebra
# on n strands shares: no row depends on the truncation degree
_REGISTRY = {}


class HoloAlgebra:
    """U(T_n) truncated at maxdeg, with cached normal-form reduction."""

    def __init__(self, n, maxdeg, dimension_bound=DEFAULT_DIMENSION_BOUND):
        if n < 2:
            raise ValueError("need n >= 2 strands")
        top = hilbert_dimensions(n, maxdeg)[-1] if maxdeg > 0 else 1
        if top > dimension_bound:
            raise ValueError("degree-%d dimension %d of U(T_%d) exceeds the resource bound %d"
                             % (maxdeg, top, n, dimension_bound))
        self.n = n
        self.maxdeg = int(maxdeg)
        # letters ordered by (column class j, row i); class of t_ij is j
        self.letters = tuple("t%d%d" % (i, j) for j in range(2, n + 1) for i in range(1, j))
        self.letter_index = {name: k for k, name in enumerate(self.letters)}
        self.pair_of = []
        self.cls = []
        for name in self.letters:
            i, j = int(name[1]), int(name[2])
            self.pair_of.append((i, j))
            self.cls.append(j)
        self._prepend_cache = _REGISTRY.setdefault(n, {})

    # -- bookkeeping ----------------------------------------------------

    def generator_index(self, i, j):
        if i > j:
            i, j = j, i
        if i == j or not (1 <= i < j <= self.n):
            raise ValueError("no generator t_%d%d" % (i, j))
        return self.letter_index["t%d%d" % (i, j)]

    def basis_words(self, degree):
        """Normal-form monomials of one degree: per-class free blocks, high class left."""
        classes = list(range(self.n, 1, -1))
        letters_by_class = {j: [k for k, c in enumerate(self.cls) if c == j] for j in classes}

        def block_words(j, d):
            return itertools.product(letters_by_class[j], repeat=d)

        out = []
        for split in _compositions(degree, len(classes)):
            parts = [block_words(j, d) for j, d in zip(classes, split)]
            for combo in itertools.product(*parts):
                word = bytes(itertools.chain.from_iterable(combo))
                out.append(word)
        return sorted(out)

    def dimensions(self):
        return [len(self.basis_words(d)) for d in range(self.maxdeg + 1)]

    # -- normal form ------------------------------------------------------

    def _bracket(self, low, high):
        """[low, high] for cls(low) < cls(high), as ((word2,int) pairs)."""
        i, k = self.pair_of[low]
        m, j = self.pair_of[high]
        if m != i and m != k:
            return ()
        a = self.generator_index(i, j)
        b = self.generator_index(k, j)
        if m == i:
            # [t_ik, t_ij] = t_ij t_kj - t_kj t_ij
            return ((bytes((a, b)), 1), (bytes((b, a)), -1))
        # [t_ik, t_kj] = -(t_ij t_kj - t_kj t_ij)
        return ((bytes((a, b)), -1), (bytes((b, a)), 1))

    def prepend(self, letter, word):
        """Normal form of letter . word for word already in normal form."""
        key = (letter, word)
        cached = self._prepend_cache.get(key)
        if cached is not None:
            return cached
        if not word or self.cls[letter] >= self.cls[word[0]]:
            result = {bytes((letter,)) + word: 1}
        else:
            head = word[0]
            rest = word[1:]
            result = {}
            for sub, coeff in self.prepend(letter, rest).items():
                w = bytes((head,)) + sub
                result[w] = result.get(w, 0) + coeff
            for quad, sign in self._bracket(letter, head):
                w = quad + rest
                result[w] = result.get(w, 0) + sign
            result = {w: c for w, c in result.items() if c}
        self._prepend_cache[key] = result
        return result

    def normal_form(self, word, onto=EMPTY):
        """Normal form of word . onto for onto already normal; returns {basis word: int}."""
        acc = {onto: 1}
        for letter in reversed(word):
            nxt = {}
            for mono, coeff in acc.items():
                for w, c in self.prepend(letter, mono).items():
                    val = nxt.get(w, 0) + coeff * c
                    if val:
                        nxt[w] = val
                    elif w in nxt:
                        del nxt[w]
            acc = nxt
        return acc

    # -- elements ---------------------------------------------------------

    def zero(self, known_order=None):
        return HoloElt(self, {}, known_order=known_order)

    def one(self, known_order=None):
        return HoloElt(self, {EMPTY: Fraction(1)}, known_order=known_order)

    def generator(self, i, j, known_order=None):
        return HoloElt(self, {bytes((self.generator_index(i, j),)): Fraction(1)},
                       known_order=known_order)

def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class HoloElt(Truncated):
    """Element of a HoloAlgebra as coordinates on the normal-form basis, over
    Q (ring None) or a SymRing."""

    __slots__ = ("algebra", "known_order", "ring")
    _shape = (("algebra", "elements of different holonomy algebras"),
              ("ring", "coefficient ring mismatch"))
    _degree = staticmethod(len)

    def __init__(self, algebra, terms, known_order=None, ring=None):
        self.algebra, self.ring = algebra, ring
        self._set(terms, algebra.maxdeg if known_order is None else known_order)

    def _one(self):
        return HoloElt(self.algebra, {EMPTY: 1}, self.known_order, self.ring)

    @property
    def maxdeg(self):
        return self.algebra.maxdeg

    @maxdeg.setter
    def maxdeg(self, maxdeg):
        """A change of degree moves the terms onto the registered U(T_n) of that degree."""
        if maxdeg != self.algebra.maxdeg:
            self.algebra = holonomy_algebra(self.algebra.n, maxdeg)

    def _convolve(self, a_terms, b_terms, ko):
        """Each pair of basis words is reduced by folding the left word onto
        the right one, already normal; a one-letter left word reads its row
        straight from the prepend cache.  The right words are bucketed by
        length once, so a left word visits only the buckets that fit its room."""
        nf, prepend = self.algebra.normal_form, self.algebra.prepend
        buckets = [[] for _ in range(ko + 1)]
        for w2, c2 in b_terms.items():
            if len(w2) <= ko:
                buckets[len(w2)].append((w2, c2))
        out = {}
        for w1, c1 in a_terms.items():
            room = ko - len(w1)
            if room < 0:
                continue
            single = len(w1) == 1
            for bucket in buckets[:room + 1]:
                for w2, c2 in bucket:
                    c = c1 * c2
                    row = prepend(w1[0], w2) if single else nf(w1, w2)
                    for mono, mult in row.items():
                        cur = out.get(mono)
                        out[mono] = c * mult if cur is None else cur + c * mult
        return out

    def commutator(self, other):
        return self * other - other * self

    def __repr__(self):
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w))[:8]:
            name = ".".join(self.algebra.letters[b] for b in w) or "1"
            parts.append("%s %s" % (self.terms[w], name))
        more = " ..." if len(self.terms) > 8 else ""
        return "<HoloElt %s%s>" % ("; ".join(parts), more)


def embed_free(series: NCSeries, algebra: HoloAlgebra, images: dict) -> HoloElt:
    """Evaluate an NCSeries with letters mapped to order->=1 HoloElts."""
    # the unit over the series' ring, or over the images' for a series over Q
    ring = next(iter(images.values())).ring if series.ring is None else series.ring
    return evaluate(series, images, HoloElt(algebra, {EMPTY: 1}, ring=ring))


def holonomy_algebra(n, maxdeg) -> HoloAlgebra:
    """Shared registry of built algebras, one object per (n, maxdeg).

    Threads that miss together may each build an algebra, but setdefault
    hands all of them the first one stored.
    """
    key = (n, maxdeg)
    alg = _REGISTRY.get(key)
    if alg is not None:
        return alg
    return _REGISTRY.setdefault(key, HoloAlgebra(n, maxdeg))


def _face_images(algebra, xs, ys):
    """The images {"x": sum of the t_ij in xs, "y": sum of those in ys} of one face.

    The coefficients are 1, so the face word images are integral: their
    int layers have denominator 1.
    """
    return {letter: HoloElt(algebra, {bytes((algebra.generator_index(i, j),)): 1
                                      for (_, i, j) in pairs})
            for letter, pairs in (("x", xs), ("y", ys))}


def pentagon_faces(series, algebra):
    return {name: embed_free(series, algebra, _face_images(algebra, xs, ys))
            for name, xs, ys in associators.PENTAGON_FACES}


def pentagon_defect(series, algebra=None):
    """(d3)(d1) - (d0)(d2)(d4) in U(T_4), through the series' known order by default."""
    if algebra is None:
        algebra = holonomy_algebra(4, series.known_order)
    f = pentagon_faces(series, algebra)
    return f["d3"] * f["d1"] - f["d0"] * f["d2"] * f["d4"]


def relation_words(alg):
    """The defining relations of alg as {word: coeff} dicts over generator letters."""
    rels = []
    idx = alg.generator_index
    for (i, j, k, l) in itertools.combinations(range(1, alg.n + 1), 4):
        for (a, b), (c, d) in itertools.combinations(itertools.combinations((i, j, k, l), 2), 2):
            if len({a, b, c, d}) == 4:
                p, q = idx(a, b), idx(c, d)
                rels.append({bytes((p, q)): Fraction(1), bytes((q, p)): Fraction(-1)})
    for (i, k, j) in itertools.permutations(range(1, alg.n + 1), 3):
        if i < j:
            p, q, r = idx(i, j), idx(i, k), idx(k, j)
            rels.append({
                bytes((p, q)): Fraction(1), bytes((q, p)): Fraction(-1),
                bytes((p, r)): Fraction(1), bytes((r, p)): Fraction(-1),
            })
    return rels


def reduce_terms(alg, terms, known_order=None, ring=None):
    """A {free word: coeff} dict reduced into a HoloElt over ring; words past
    the known order are dropped."""
    return HoloElt(alg, terms, known_order, ring).linear(lambda w: alg.normal_form(w).items())


def pentagon_linear(elements, algebra):
    """psi(d3) + psi(d1) - psi(d0) - psi(d2) - psi(d4) in U(T_4) for series
    psi of one degree, each face one substitution of all of them, summed as
    HoloElts; one {basis word: Fraction} per element."""
    one = HoloElt(algebra, {b"": 1})
    sums = [one - one for _ in elements]
    for name, xs, ys in associators.PENTAGON_FACES:
        values = substitute(elements, _face_images(algebra, xs, ys), one)
        sums = [acc + associators._FACE_SIGNS[name] * value for acc, value in zip(sums, values)]
    return [acc.terms for acc in sums]


def permuted(elt, perm):
    """The image of elt under t_ij -> t_{perm(i)perm(j)}, one normal_form per
    moved word; perm gives s(1..n) at indices 0..n-1."""
    alg = elt.algebra

    def row(word):
        moved = bytes(alg.generator_index(perm[i - 1], perm[j - 1])
                      for i, j in (alg.pair_of[b] for b in word))
        return alg.normal_form(moved).items()
    return elt.linear(row)


def y_element(alg, r):
    """Y_r = t_1r + ... + t_{r-1,r}; Y_1 = 0."""
    out = alg.zero()
    for i in range(1, r):
        out = out + alg.generator(i, r)
    return out


def sigma_images(series, lam, algebra):
    """The braid generators' images under the morphism attached to an associator.

    sigma_i maps to a . s_i . b with t = t_{i,i+1}, a = Phi(t, Y_i) and
    b = exp(lam t/2) Phi(Y_i, t).  Moving s_i to the right, s_i . v = (s_i v) . s_i
    gives sigma_i = u_i . s_i and sigma_i^-1 = b^-1 . s_i . a^-1 = u'_i . s_i.
    Returns {i: (s_i, u_i, u'_i)} for i = 1..n-1, over the series' ring.
    """
    lam = as_fraction(lam)
    out = {}
    for i in range(1, algebra.n):
        t = algebra.generator(i, i + 1).promote(series.ring)
        y = y_element(algebra, i).promote(series.ring)
        a = embed_free(series, algebra, {"x": t, "y": y})
        b = (Fraction(lam, 2) * t).exp() * embed_free(series, algebra, {"x": y, "y": t})
        s = transposition(algebra.n, i)
        out[i] = (s, a * permuted(b, s), b.inverse() * permuted(a.inverse(), s))
    return out


def braid_image(images, algebra, letters):
    """The image u . p of a braid word (signed generator indices) under
    sigma_images, as the pair (u, p): each letter folds in as
    (u, p)(v, s) = (u . p v, p s), where p v is v itself while p is the identity;
    u is over the ring of the images."""
    identity = tuple(range(1, algebra.n + 1))
    u, p = algebra.one().promote(images[1][1].ring), identity
    for v in letters:
        s, image, inverse = images[abs(v)]
        factor = image if v > 0 else inverse
        u = u * (factor if p == identity else permuted(factor, p))
        p = tuple(p[s[i] - 1] for i in range(len(p)))
    return u, p


def promoted_reference_defect(series, reference):
    """The GT_1 4-strand equation, lhs - rhs in U(T_4), on the logs of the
    images of xi_12, xi_13, xi_23, xi_24 and xi_34 under the morphism of the
    reference associator, promoted to the series ring first."""
    ref = reference.promote(series.ring)
    algebra = holonomy_algebra(4, min(series.known_order, ref.known_order))
    images = sigma_images(ref.series, ref.lam, algebra)
    xi = {}
    for p in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        u, perm = braid_image(images, algebra, xi_word(4, *p))
        assert perm == (1, 2, 3, 4)
        xi[p] = u

    def f_at(u, v):
        return embed_free(series, algebra, {"x": u.log(), "y": v.log()})

    lhs = f_at(xi[1, 2], xi[2, 3] * xi[2, 4]) * f_at(xi[1, 3] * xi[2, 3], xi[3, 4])
    rhs = (f_at(xi[2, 3], xi[3, 4]) * f_at(xi[1, 2] * xi[1, 3], xi[2, 4] * xi[3, 4])
           * f_at(xi[1, 2], xi[2, 3]))
    return lhs - rhs
