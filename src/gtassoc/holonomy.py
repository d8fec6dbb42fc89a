"""Truncated enveloping algebras U(T_n) of the holonomy Lie algebras.

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
the Hilbert series prod_{i=1}^{n-1} 1/(1-i t), which the tests pin.

A product never re-reduces its right factor: each pair of basis words is
reduced by prepending the left word's letters, right to left, onto the
right word, which is already normal.  A one-letter left word, the common
case of a word image built from the left, reads its row straight from the
cached prepend table.

No S_n action on U(T_n) is kept: the GT_1 4-strand relation is read as the
associator pentagon of g.phi0 (grtgt.gt_pentagon_defect), and braid words
pushed into kS_n |x U(T_n) remain only as a test oracle.  transposition
serves the S_n-equivariance check of InfinitesimalRep.validate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ncseries import EMPTY, NCSeries
from .truncated import Truncated, evaluate

# dim U(T_n) in the top degree, which sizes the reduction tables and every
# product there: admits U(T_4) through degree 7 (9330) but not 8 (28501)
DEFAULT_DIMENSION_BOUND = 10000
# (n, maxdeg) -> HoloAlgebra, and n -> the prepend rows that every algebra
# on n strands shares: no row depends on the truncation degree
_REGISTRY = {}


def hilbert_dimensions(n, maxdeg):
    """Coefficients of prod_{i=1}^{n-1} 1/(1-i t) through degree maxdeg."""
    dims = [Fraction(0)] * (maxdeg + 1)
    dims[0] = Fraction(1)
    for i in range(1, n):
        # multiply by 1/(1-i t): prefix recurrence d[k] += i*d[k-1]
        for k in range(1, maxdeg + 1):
            dims[k] += i * dims[k - 1]
    return [int(d) for d in dims]


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
    """Element of a HoloAlgebra as coordinates on the normal-form basis."""

    __slots__ = ("algebra", "known_order")
    _shape = (("algebra", "elements of different holonomy algebras"),)
    _degree = staticmethod(len)

    def __init__(self, algebra, terms, known_order=None):
        self.algebra = algebra
        self._set(terms, algebra.maxdeg if known_order is None else known_order)

    def _one(self):
        return self.algebra.one(self.known_order)

    def _coerce(self, scalar):
        """Scalars, Poly ones included, multiply unconverted."""
        return scalar

    @property
    def maxdeg(self):
        return self.algebra.maxdeg

    @maxdeg.setter
    def maxdeg(self, maxdeg):
        """A change of degree moves the terms onto the registered U(T_n) of that degree."""
        if maxdeg != self.algebra.maxdeg:
            self.algebra = holonomy_algebra(self.algebra.n, maxdeg)

    def promote(self, ring):
        raise ValueError("holonomy elements have no ring: they take Poly scalars as they are")

    def _over(self, ring, terms):
        return self._like(terms)

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
    # an int unit keeps integral images (the pentagon faces) in int arithmetic
    return evaluate(series, images, HoloElt(algebra, {EMPTY: 1}))


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


def transposition(n, r):
    """The adjacent transposition s_r = (r, r+1) in S_n."""
    perm = list(range(1, n + 1))
    perm[r - 1], perm[r] = perm[r], perm[r - 1]
    return tuple(perm)
