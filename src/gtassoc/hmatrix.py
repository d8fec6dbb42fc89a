"""Square matrices over truncated scalar series, plus series-into-matrix
substitution.

An HMatrix is one truncated series in h of sparse constant matrices: ``terms``
maps a key ``(power, row, col)`` to a nonzero coefficient, no power exceeds
the one ``known_order``, and the ``Truncated`` base gives it the sum,
negation, scaling, order, h -> -h and the known order of every product.  A
product is a row-indexed sparse convolution over the keys of both factors
through that known order.  A ScalarSeries multiplies on either side as the
diagonal matrix it stands for.  A constant matrix is an HMatrix of maxdeg 0,
which ``truncated`` and ``promote`` carry to any maxdeg and ring.

Inverses require an invertible constant-term matrix over Q; logs are only
taken of matrices congruent to 1 mod h, which is all the braid-group images
of pure braids ever need.
"""

from __future__ import annotations

from operator import itemgetter

from .linalg import mat_inv
from .ncseries import NCSeries
from .scalar import ScalarSeries, from_text as scalar_from, to_text as scalar_text
from .symcoef import as_fraction
from .truncated import Truncated, evaluate


class HMatrix(Truncated):
    __slots__ = ("n", "var", "ring", "maxdeg", "known_order")
    _shape = (("n", "matrices differ in size"), ("var", "series variable mismatch"),
              ("ring", "coefficient ring mismatch"), ("maxdeg", "maxdeg mismatch"))
    _degree = itemgetter(0)
    _scalars = (ScalarSeries,)

    def __init__(self, rows):
        """The matrix of an n x n grid of ScalarSeries, known to the least entry's order.

        Raises ValueError unless every entry has the first entry's variable,
        ring and maxdeg.
        """
        rows = [list(r) for r in rows]
        sample = rows[0][0]
        terms = {}
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                sample._check(e)
                for p, c in e.terms.items():
                    terms[p, i, j] = c
        self.n, self.var, self.ring, self.maxdeg = len(rows), sample.var, sample.ring, sample.maxdeg
        self._set(terms, min(e.known_order for row in rows for e in row))

    @classmethod
    def from_terms(cls, n, terms, maxdeg, ring=None, known_order=None, var="h"):
        """The n x n matrix of {(power, row, col): coefficient} terms, known
        through known_order (maxdeg by default); zero and higher terms are dropped."""
        out = cls.__new__(cls)
        out.n, out.var, out.ring, out.maxdeg = n, var, ring, int(maxdeg)
        return out._set(terms, out.maxdeg if known_order is None else int(known_order))

    @classmethod
    def from_const(cls, matrix, maxdeg, ring=None, known_order=None, var="h"):
        const = {(0, i, j): v for i, row in enumerate(matrix) for j, v in enumerate(row)}
        return cls.from_terms(len(matrix), const, maxdeg, ring, known_order, var)

    @classmethod
    def identity(cls, n, maxdeg, ring=None, known_order=None, var="h"):
        return cls.from_terms(n, {(0, i, i): 1 for i in range(n)}, maxdeg, ring, known_order, var)

    @classmethod
    def zero(cls, n, maxdeg, ring=None, known_order=None, var="h"):
        return cls.from_terms(n, {}, maxdeg, ring, known_order, var)

    def entry(self, i, j) -> ScalarSeries:
        get = self.terms.get
        return ScalarSeries(self.maxdeg, {p: get((p, i, j)) for p in range(self.known_order + 1)},
                            self.ring, self.known_order, self.var)

    def __rmul__(self, scalar):
        if not isinstance(scalar, ScalarSeries):
            return super().__rmul__(scalar)
        diagonal = {(p, i, i): c for p, c in scalar.terms.items() for i in range(self.n)}
        return HMatrix.from_terms(self.n, diagonal, scalar.maxdeg, scalar.ring,
                                  scalar.known_order, scalar.var) * self

    def _convolve(self, a_terms, b_terms, ko):
        """Each key of a_terms against the row of b_terms that its column indexes, through ko."""
        rows = {}
        for (q, k, j), c in b_terms.items():
            rows.setdefault(k, []).append((q, j, c))
        terms = {}
        for (p, i, k), x in a_terms.items():
            room = ko - p
            for q, j, y in rows.get(k, ()):
                if q <= room:
                    key = (p + q, i, j)
                    cur = terms.get(key)
                    terms[key] = x * y if cur is None else cur + x * y
        return terms

    def constant_term(self):
        get = self.homogeneous(0).terms.get
        return [[as_fraction(get((0, i, j), 0)) for j in range(self.n)] for i in range(self.n)]

    def _one(self):
        return HMatrix.identity(self.n, self.maxdeg, self.ring, self.known_order, self.var)

    def _lead_inverse(self):
        return HMatrix.from_const(mat_inv(self.constant_term()), self.maxdeg, self.ring,
                                  self.known_order, self.var)

    def transpose(self):
        return self._remade(lambda layer: {(p, j, i): v for (p, i, j), v in layer.items()})

    def __repr__(self):
        return "<HMatrix %dx%d known<=%d>" % (self.n, self.n, self.known_order)


def to_text(matrix: HMatrix, extra=None) -> str:
    """Dense entry grid in the series text format, one block per entry."""
    header = "hmatrix n=%d" % matrix.n
    if extra:
        for key in sorted(extra):
            header += " %s=%s" % (key, extra[key])
    blocks = [header]
    for i in range(matrix.n):
        for j in range(matrix.n):
            blocks.append("entry %d %d" % (i, j))
            blocks.append(scalar_text(matrix.entry(i, j)).rstrip("\n"))
    return "\n".join(blocks) + "\n"


def from_text(text: str):
    """Parse to_text output; raises ValueError on an entry out of range, repeated or missing."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("hmatrix "):
        raise ValueError("not an hmatrix text block")
    fields = dict(tok.partition("=")[::2] for tok in lines[0].split()[1:])
    n = int(fields.get("n", 0))
    if n < 1:
        raise ValueError("hmatrix header needs n >= 1")
    chunks = {}
    chunk = None
    for line in lines[1:]:
        if line.startswith("entry "):
            _, a, b = line.split()
            key = (int(a), int(b))
            if not (0 <= key[0] < n and 0 <= key[1] < n) or key in chunks:
                raise ValueError("entry %d %d is out of range or repeated" % key)
            chunk = chunks[key] = []
        elif line.strip():
            if chunk is None:
                raise ValueError("series text before the first entry line")
            chunk.append(line)
    if len(chunks) != n * n:
        raise ValueError("%d of the %d entries are missing" % (n * n - len(chunks), n * n))
    rows = [[scalar_from("\n".join(chunks[i, j]))[0] for j in range(n)] for i in range(n)]
    return HMatrix(rows), fields


def evaluate_series(series: NCSeries, images: dict) -> HMatrix:
    """Evaluate an NCSeries at matrix arguments of positive h-order."""
    return evaluate(series, images)
