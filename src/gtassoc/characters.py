"""Characters of the filtered group attached to Hecke representations.

chi_d measures the rescaling of the model scalar b_d under a twist:
b_d(g.Phi) = b_d(Phi) chi_d(g).  A standard tableau T contributes the
monomial chi_T = prod chi_{d_T(i,j)} over the pairs i < j with
col_i(T) > col_j(T), d_T(i,j) = line_j - line_i + col_i - col_j; the
product over a transpose pair chi_T chi_T' depends only on the shape and
equals the product of chi_delta over its hook pairs.  Because the chi_d
are algebraically independent, a shape is resonance-free exactly when its
tableau exponent vectors are pairwise distinct, which happens for hooks
and [2,2] only.
"""

from __future__ import annotations

import itertools

from .associators import AssociatorCandidate
from .grtgt import act_gt
from .hecke import b_semi
from .scalar import ScalarSeries, scalar_div
from .tableaux import Partition, StandardTableau, partitions_of, tableaux


class ExponentVector:
    """Finitely supported map d -> exponent, d >= 2."""

    __slots__ = ("exps",)

    def __init__(self, exps=()):
        data = dict(exps)
        self.exps = {int(d): int(e) for d, e in data.items() if e}
        if any(d < 2 for d in self.exps):
            raise ValueError("character indices start at 2")

    def __eq__(self, other):
        return isinstance(other, ExponentVector) and self.exps == other.exps

    def __hash__(self):
        return hash(frozenset(self.exps.items()))

    def __add__(self, other):
        out = dict(self.exps)
        for d, e in other.exps.items():
            out[d] = out.get(d, 0) + e
        return ExponentVector(out)

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join("chi%d%s" % (d, "" if e == 1 else "^%d" % e)
                        for d, e in sorted(self.exps.items()))


def chi_d(g, d, phi_ref: AssociatorCandidate) -> ScalarSeries:
    """chi_d(g) = b_d(g.Phi)/b_d(Phi); independent of the reference."""
    series = g.series if hasattr(g, "series") else g
    ref = phi_ref.promote(series.ring)
    twisted = act_gt(g, ref)
    return scalar_div(b_semi(twisted, d), b_semi(ref, d))


def chi_tableau(t: StandardTableau) -> ExponentVector:
    """The monomial attached to a tableau via its column inversions."""
    n = t.shape.n
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if t.col(i) > t.col(j):
                d = t.line(j) - t.line(i) + t.col(i) - t.col(j)
                if d <= 0:
                    raise ValueError("non-positive axial distance in tableau monomial")
                out[d] = out.get(d, 0) + 1
    return ExponentVector(out)


def hook_vector(shape: Partition) -> ExponentVector:
    out = {}
    for (_, _, delta) in shape.hook_pairs():
        out[delta] = out.get(delta, 0) + 1
    return ExponentVector(out)


def hook_identity(shape: Partition):
    """chi_T chi_T' = product of chi_delta over the hook pairs, for every T.

    Returns (hook vector, all_pass).
    """
    hv = hook_vector(shape)
    ok = all(chi_tableau(t) + chi_tableau(t.transpose()) == hv for t in tableaux(shape))
    return hv, ok


def tableau_diagonal(shape: Partition):
    """The exponent vectors down the diagonal, in the tableau order."""
    return [chi_tableau(t) for t in tableaux(shape)]


def resonance(shape: Partition) -> bool:
    """True iff the tableau monomials of the shape are pairwise distinct.

    Algebraic independence of the chi_d reduces distinctness of characters
    to distinctness of exponent vectors; the first (column-superstandard)
    tableau always carries the empty monomial, so pairwise distinctness
    also forces the other monomials to be non-trivial.
    """
    vecs = tableau_diagonal(shape)
    return len(set(vecs)) == len(vecs)


def resonance_scan(nmax):
    """All (partition, resonance-free) rows for 2 <= n <= nmax."""
    rows = []
    for n in range(2, nmax + 1):
        for shape in partitions_of(n):
            rows.append((shape, resonance(shape), tableau_diagonal(shape)))
    return rows


def wedge_exponents(n, r):
    """Exponent vectors of the rank-r exterior power of the reduced Burau
    family: for each r-subset I of [1, n-1], the vector f_d(I) = #{i in I,
    i >= d} for d in [2, n-1]."""
    if not 0 <= r <= n - 1:
        raise ValueError("rank out of range")
    out = []
    for subset in itertools.combinations(range(1, n), r):
        vec = {}
        for d in range(2, n):
            f = sum(1 for i in subset if i >= d)
            if f:
                vec[d] = f
        out.append((subset, ExponentVector(vec)))
    return out


def colliding_tableaux(shape: Partition):
    """The two distinct tableaux with equal monomials, for shapes containing
    [3,2]: the subdiagram is filled as (1,2,5 | 3,4) and (1,3,4 | 2,5), and
    the remaining labels continue column-major (rest of column 1, then
    column 2 upward, then later columns in full)."""
    if not shape.contains(Partition((3, 2))):
        raise ValueError("shape does not contain [3,2]")
    sub_cells = {(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)}
    fill1 = {1: (1, 1), 2: (2, 1), 5: (3, 1), 3: (1, 2), 4: (2, 2)}
    fill2 = {1: (1, 1), 3: (2, 1), 4: (3, 1), 2: (1, 2), 5: (2, 2)}
    rest = sorted((c for c in shape.cells() if c not in sub_cells),
                  key=lambda cell: (cell[1], cell[0]))

    def complete(fill):
        pos = dict(fill)
        for label, cell in zip(range(6, shape.n + 1), rest):
            pos[label] = cell
        return StandardTableau(shape, pos)

    return complete(fill1), complete(fill2)
