"""Truncated noncommutative power series over exact coefficients.

A series lives over a fixed ordered alphabet; words are stored as ``bytes``
of letter indices.  Every series carries ``maxdeg`` (the truncation bound)
and ``known_order`` (the degree up to which coefficients are guaranteed
exact); no operation ever reports a coefficient beyond its known order.

The Lie test reads coordinates on the Lyndon brackets, a basis of the free
Lie algebra (Reutenauer, Free Lie Algebras, Thm 5.1): a series is Lie
exactly when lie_coordinates finds its coordinates on them degree by
degree, and a series with constant term 1 is grouplike iff its log is Lie.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .linalg import coordinates
from .symcoef import layers, parse_coeff, parse_ring_tag, render_coeff, ring_tag
from .truncated import Truncated, evaluate

EMPTY = b""


class AlgebraError(ValueError):
    """A series operand of another type, alphabet, coefficient ring or maxdeg."""


class NCSeries(Truncated):
    __slots__ = ("alphabet", "maxdeg", "known_order", "ring")
    _shape = (("alphabet", "alphabet mismatch"), ("ring", "coefficient ring mismatch"),
              ("maxdeg", "maxdeg mismatch"))
    _error = AlgebraError
    _degree = staticmethod(len)

    def __init__(self, alphabet, maxdeg, terms=None, ring=None, known_order=None):
        self.alphabet, self.maxdeg, self.ring = tuple(alphabet), int(maxdeg), ring
        self._set(terms or {}, self.maxdeg if known_order is None else int(known_order))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet, maxdeg, ring=None, known_order=None):
        return cls(alphabet, maxdeg, {}, ring, known_order)

    @classmethod
    def one(cls, alphabet, maxdeg, ring=None, known_order=None):
        return cls(alphabet, maxdeg, {EMPTY: 1}, ring, known_order)

    @classmethod
    def letter(cls, alphabet, name, maxdeg, ring=None, known_order=None):
        alphabet = tuple(alphabet)
        return cls(alphabet, maxdeg, {bytes([alphabet.index(name)]): 1}, ring, known_order)

    scaled_copy = Truncated._like  # public name of _like

    def _one(self):
        return NCSeries.one(self.alphabet, self.maxdeg, self.ring, self.known_order)

    # -- basic access -------------------------------------------------

    def word_index(self, word_names):
        idx = {name: i for i, name in enumerate(self.alphabet)}
        return bytes(idx[n] for n in word_names)

    def coefficient(self, word):
        """Coefficient of a word given as bytes or an iterable of letter names."""
        if not isinstance(word, bytes):
            word = self.word_index(tuple(word))
        return super().coefficient(word)

    def rendered_words(self):
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            yield word, self.terms[word]

    def __repr__(self):
        bits = []
        for word, coeff in itertools.islice(self.rendered_words(), 12):
            name = ".".join(self.alphabet[b] for b in word) or "1"
            bits.append("%s %s" % (render_coeff(coeff), name))
        more = " ..." if len(self.terms) > 12 else ""
        return "<NCSeries %s%s deg<=%d known<=%d>" % ("; ".join(bits), more, self.maxdeg,
                                                      self.known_order)


def commutator(f: NCSeries, g: NCSeries) -> NCSeries:
    return f * g - g * f


def nc_exp(f: NCSeries) -> NCSeries:
    return f.exp()


def nc_log(g: NCSeries) -> NCSeries:
    return g.log()


def nc_substitute(f: NCSeries, images: dict) -> NCSeries:
    """Substitute the letters of f by series of order >= 1."""
    return evaluate(f, images)


def letter_swap(f: NCSeries) -> NCSeries:
    """f(y, x): the first two letters, x and y, trade places; a bijection of
    words, so no two words meet."""
    table = bytes.maketrans(b"\x00\x01", b"\x01\x00")
    return f._remade(lambda layer: {w.translate(table): v for w, v in layer.items()})


def bch(u: NCSeries, v: NCSeries) -> NCSeries:
    """log(exp(u) exp(v)); ValueError when it is not Lie."""
    out = nc_log(nc_exp(u) * nc_exp(v))
    if not is_lie(out):
        raise ValueError("log(exp(u) exp(v)) is not a Lie element")
    return out


def is_lie(f: NCSeries) -> bool:
    """True iff lie_coordinates reads f through its known order."""
    try:
        lie_coordinates(f, f.known_order)
    except ValueError:
        return False
    return True


def is_grouplike(g: NCSeries) -> bool:
    """Constant term 1 and Lie logarithm, the Hausdorff-group membership test."""
    if g.coefficient(EMPTY) != 1:
        return False
    return is_lie(nc_log(g))


# -- Lyndon bases -----------------------------------------------------


def lyndon_words(n_letters: int, degree: int):
    """All Lyndon words of the given length over letters 0..n_letters-1 (Duval)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == degree:
            out.append(bytes(w))
        while len(w) < degree:
            w.append(w[-m])
        while w and w[-1] == n_letters - 1:
            w.pop()
    return sorted(out)


def standard_factorization(word: bytes):
    """(u, v) with word = u v and v the longest proper Lyndon suffix of a Lyndon word."""
    for i in range(1, len(word)):
        suffix = word[i:]
        if suffix == min(suffix[j:] for j in range(len(suffix))):
            return word[:i], suffix
    raise ValueError("not a Lyndon word of length > 1: %r" % word)


def lyndon_bracket(word: bytes, alphabet, maxdeg) -> NCSeries:
    """Standard-factorization bracketing of a Lyndon word, expanded as a series
    over Q with int coefficients."""
    if len(word) == 1:
        return NCSeries(alphabet, maxdeg, {word: 1})
    left, right = (lyndon_bracket(part, alphabet, maxdeg) for part in standard_factorization(word))
    return left * right - right * left


@lru_cache(maxsize=None)
def _lyndon_columns(n_letters, degree):
    """The Lyndon words of one degree over n letters and their brackets as int columns."""
    alphabet = tuple(map(str, range(n_letters)))
    words = lyndon_words(n_letters, degree)
    return words, [(d, by_exps[()]) for d, by_exps in
                   (layers(lyndon_bracket(w, alphabet, degree).terms) for w in words)]


def lie_coordinates(series: NCSeries, depth):
    """[(Lyndon word, coordinate)] of a free Lie series through degree depth,
    the nonzero coordinates only, by degree and then word; a coordinate is a
    Fraction over Q or a Poly over the series' ring.

    Each degree that holds terms is read by linalg.coordinates on the
    Lyndon brackets of that degree, built once per letter count and
    degree.  ValueError for a constant term or where the series is not Lie.
    """
    if EMPTY in series.terms:
        raise ValueError("a series with a constant term is not a Lie element")
    by_degree = {}
    for w, c in series.terms.items():
        if len(w) <= depth:
            by_degree.setdefault(len(w), {})[w] = c
    out = []
    for degree in sorted(by_degree):
        words, columns = _lyndon_columns(len(series.alphabet), degree)
        try:
            coords = coordinates(columns, by_degree[degree], series.ring)
        except ValueError:
            raise ValueError("the series is not a Lie element through degree %d" % depth) from None
        out.extend((w, c) for w, c in zip(words, coords) if c)
    return out


def lyndon_basis(alphabet, degree: int):
    """Basis of the degree-d component of the free Lie algebra, over Q and truncated at d.

    Returns a list of (word_string, series) pairs ordered lexicographically;
    the cardinality is the Witt number.
    """
    alphabet = tuple(alphabet)
    return [(".".join(alphabet[b] for b in word), lyndon_bracket(word, alphabet, degree))
            for word in lyndon_words(len(alphabet), degree)]


# -- text format ------------------------------------------------------


def word_text(alphabet, word: bytes) -> str:
    if not word:
        return "1"
    return ".".join(alphabet[b] for b in word)


def to_text(f: NCSeries, extra=None) -> str:
    header = "alphabet=%s maxdeg=%d ring=%s" % (",".join(f.alphabet), f.maxdeg, ring_tag(f.ring))
    if f.known_order != f.maxdeg:
        header += " knownorder=%d" % f.known_order
    if extra:
        for k in sorted(extra):
            header += " %s=%s" % (k, extra[k])
    lines = [header]
    for word, coeff in f.rendered_words():
        lines.append("%s\t%s" % (word_text(f.alphabet, word), render_coeff(coeff)))
    return "\n".join(lines) + "\n"


def from_text(text: str):
    """Parse the series text format; returns (series, header_fields).

    Raises ValueError on a missing header field, a letter outside the
    alphabet, a repeated word or a word past the known order.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty series text")
    fields = dict(tok.partition("=")[::2] for tok in lines[0].split())
    try:
        alphabet = tuple(fields["alphabet"].split(",")) if fields["alphabet"] else ()
        maxdeg = int(fields["maxdeg"])
        ring = parse_ring_tag(fields["ring"])
    except KeyError as exc:
        raise ValueError("series header lacks %s" % exc) from None
    known = min(int(fields.get("knownorder", maxdeg)), maxdeg)
    idx = {name: i for i, name in enumerate(alphabet)}
    terms = {}
    for line in lines[1:]:
        wtxt, _, ctxt = line.partition("\t")
        names = [] if wtxt == "1" else wtxt.split(".")
        if len(names) > known or not all(name in idx for name in names):
            raise ValueError("word %r is not over %s through degree %d"
                             % (wtxt, ",".join(alphabet), known))
        word = bytes(idx[name] for name in names)
        if word in terms:
            raise ValueError("word %r appears twice" % wtxt)
        terms[word] = parse_coeff(ctxt, ring)
    return NCSeries(alphabet, maxdeg, terms, ring, known), fields
