"""Square matrices over truncated scalar series, plus series-into-matrix
substitution.

Inverses require an invertible constant-term matrix over Q; logs are only
taken of matrices congruent to 1 mod h, which is all the braid-group images
of pure braids ever need.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import mat_inv
from .ncseries import NCSeries
from .scalar import ScalarSeries
from .symcoef import as_fraction
from .truncated import neumann_inverse, series_exp, series_log, substitute


class HMatrix:
    __slots__ = ("n", "rows", "var", "ring", "maxdeg", "known_order")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        sample = self.rows[0][0]
        self.var = sample.var
        self.ring = sample.ring
        self.maxdeg = sample.maxdeg
        self.known_order = min(e.known_order for row in self.rows for e in row)

    @classmethod
    def from_const(cls, matrix, maxdeg, ring=None, known_order=None, var="h"):
        rows = [[ScalarSeries.const(v, maxdeg, ring, known_order, var) for v in row]
                for row in matrix]
        return cls(rows)

    @classmethod
    def identity(cls, n, maxdeg, ring=None, known_order=None, var="h"):
        return cls.from_const([[Fraction(i == j) for j in range(n)] for i in range(n)],
                              maxdeg, ring, known_order, var)

    @classmethod
    def zero(cls, n, maxdeg, ring=None, known_order=None, var="h"):
        return cls([[ScalarSeries.zero(maxdeg, ring, known_order, var)
                     for _ in range(n)] for _ in range(n)])

    def entry(self, i, j) -> ScalarSeries:
        return self.rows[i][j]

    def promote(self, ring):
        if ring == self.ring:
            return self
        return HMatrix([[e.promote(ring) for e in row] for row in self.rows])

    def __add__(self, other):
        return HMatrix([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return HMatrix([[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return HMatrix([[-a for a in row] for row in self.rows])

    def __rmul__(self, scalar):
        return HMatrix([[scalar * a for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, HMatrix):
            return self.__rmul__(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return HMatrix(out)

    def constant_term(self):
        return [[as_fraction(e.coefficient(0)) for e in row] for row in self.rows]

    def _one(self):
        return HMatrix.identity(self.n, self.maxdeg, self.ring, self.known_order, self.var)

    def inverse(self):
        lead_inv = HMatrix.from_const(mat_inv(self.constant_term()), self.maxdeg, self.ring,
                                      self.known_order, self.var)
        return neumann_inverse(self, lead_inv, self._one())

    def transpose(self):
        return HMatrix([[self.rows[j][i] for j in range(self.n)] for i in range(self.n)])

    def eps(self):
        """Entrywise h -> -h."""
        return HMatrix([[e.eps() for e in row] for row in self.rows])

    def order(self):
        orders = [o for o in (e.order() for row in self.rows for e in row) if o is not None]
        return min(orders) if orders else None

    def is_zero(self, order=None):
        return all(e.is_zero(order) for row in self.rows for e in row)

    def is_identity(self, order=None):
        return (self - self._one()).is_zero(order)

    def equal_through(self, other, order=None):
        return (self - other).is_zero(order)

    def log(self):
        """Series log; only for matrices congruent to 1 mod h."""
        return series_log(self, self._one())

    def exp(self):
        """Series exp; only for matrices of positive h-order."""
        return series_exp(self, self._one())

    def __repr__(self):
        return "<HMatrix %dx%d known<=%d>" % (self.n, self.n, self.known_order)


def to_text(matrix: HMatrix, extra=None) -> str:
    """Dense entry grid in the series text format, one block per entry."""
    from .scalar import to_text as scalar_text
    header = "hmatrix n=%d" % matrix.n
    if extra:
        for key in sorted(extra):
            header += " %s=%s" % (key, extra[key])
    blocks = [header]
    for i in range(matrix.n):
        for j in range(matrix.n):
            blocks.append("entry %d %d" % (i, j))
            blocks.append(scalar_text(matrix.rows[i][j]).rstrip("\n"))
    return "\n".join(blocks) + "\n"


def from_text(text: str):
    from .scalar import from_text as scalar_from
    lines = text.splitlines()
    if not lines or not lines[0].startswith("hmatrix "):
        raise ValueError("not an hmatrix text block")
    fields = dict(tok.partition("=")[::2] for tok in lines[0].split()[1:])
    n = int(fields["n"])
    entries = {}
    i = 1
    current = None
    chunk = []
    def flush():
        if current is not None:
            series, _ = scalar_from("\n".join(chunk))
            entries[current] = series
    while i < len(lines):
        line = lines[i]
        if line.startswith("entry "):
            flush()
            _, a, b = line.split()
            current = (int(a), int(b))
            chunk = []
        elif line.strip():
            chunk.append(line)
        i += 1
    flush()
    rows = [[entries[(i, j)] for j in range(n)] for i in range(n)]
    return HMatrix(rows), fields


def evaluate_series(series: NCSeries, images: dict) -> HMatrix:
    """Evaluate an NCSeries at matrix arguments of positive h-order."""
    sample = next(iter(images.values()))
    for name in series.alphabet:
        if name not in images:
            raise ValueError("no matrix image for letter %r" % name)
    ko = min([series.known_order] + [m.known_order for m in images.values()])
    for m in images.values():
        w = m.order()
        if w is not None and w < 1:
            raise ValueError("matrix substitution needs h-order >= 1 arguments")
    return substitute(series, images,
                      HMatrix.identity(sample.n, sample.maxdeg, sample.ring, ko, sample.var),
                      HMatrix.zero(sample.n, sample.maxdeg, sample.ring, ko, sample.var))
