"""Matrix models of the type-A Iwahori-Hecke algebra at q = e^h.

A model is a family of 2x2 blocks M_d (d >= 2), each with trace q - q^{-1}
and determinant -1, hence of the form

    [[a_d, b_d], [(1 + a_d a'_d)/b_d, a'_d]],   a'_d = q - q^{-1} - a_d,

with the forced diagonal a_d = (1-q^2)/(q(q^{2d}-1)) (equivalently
-q^{-d}/[d]_q) satisfying a_{d+1}(q - a_d) = a_d q^{-1}.  The generator
sigma_r acts on a standard tableau by q (same column), -q^{-1} (same
line), or by M_d on the plane of an adjacent transposition pair with
axial distance d; every tableau is a delta_r eigenvector with eigenvalue
q^{2 c_r}.

Two kinds are supported: the block derived from an associator through
the infinitesimal construction

    Q = Phi(2h M^1_d, h eta_d),   2 M_d = (q - q^{-1}) + (q + q^{-1}) Q M^1_d Q^{-1},

the unitary closed form (1/[d]) [[-q^{-d}, s], [s, q^d]] with the formal
square root s^2 = [d+1][d-1].
"""

from __future__ import annotations

from fractions import Fraction

from .braidreps import BraidRep, InfinitesimalRep, sigma_image
from .hmatrix import HMatrix
from .scalar import ScalarSeries, scalar_div, scalar_sqrt
from .symcoef import SymRing
from .tableaux import Partition, axial_distance, tableaux

DEFAULT_MAXDEG = 7


def q_series(maxdeg=DEFAULT_MAXDEG, ring=None, m=1) -> ScalarSeries:
    """q^m = e^{mh} as an exact truncated series."""
    return ScalarSeries.exp_multiple(m, maxdeg, ring)


def q_integer(n, maxdeg=DEFAULT_MAXDEG, ring=None) -> ScalarSeries:
    """[n]_q = (q^n - q^{-n})/(q - q^{-1}); known order drops by one."""
    num = q_series(maxdeg, ring, n) - q_series(maxdeg, ring, -n)
    den = q_series(maxdeg, ring, 1) - q_series(maxdeg, ring, -1)
    return scalar_div(num, den)


def a_entry(d, maxdeg=DEFAULT_MAXDEG, ring=None) -> ScalarSeries:
    """a_d = (1 - q^2)/(q (q^{2d} - 1))."""
    one = ScalarSeries.one(maxdeg, ring)
    num = one - q_series(maxdeg, ring, 2)
    den = q_series(maxdeg, ring, 1) * (q_series(maxdeg, ring, 2 * d) - one)
    return scalar_div(num, den)


def semi_normal_block(d):
    """The q=1 semi-normal reflection (1/d) [[-1, d+1], [d-1, 1]]."""
    d = Fraction(d)
    return [[-1 / d, (d + 1) / d], [(d - 1) / d, 1 / d]]


def unitary_ring(dmax) -> SymRing:
    """Q with formal square roots s_d of d^2 - 1 for 2 <= d <= dmax."""
    names = tuple("s%d" % d for d in range(2, dmax + 1))
    return SymRing(names, {("s%d" % d): Fraction(d * d - 1) for d in range(2, dmax + 1)})


class MatrixModel:
    """A block family; kind 'semi' (from an associator) or 'unitary'."""

    def __init__(self, kind, phi=None, maxdeg=None):
        if kind not in ("semi", "unitary"):
            raise ValueError("unknown model kind %r" % kind)
        self.kind = kind
        self.phi = phi
        if kind == "semi":
            if phi is None or maxdeg not in (None, phi.maxdeg):
                raise ValueError("the semi-normal model takes an associator and its maxdeg")
            self.maxdeg = phi.maxdeg
            self.ring = phi.series.ring
        else:
            self.maxdeg = DEFAULT_MAXDEG if maxdeg is None else maxdeg
            self.ring = unitary_ring(8)
        self._blocks = {}
        self._q = {}

    def q(self, m=1) -> ScalarSeries:
        got = self._q.get(m)
        if got is None:
            ko = self.phi.known_order if self.kind == "semi" else None
            got = self._q[m] = ScalarSeries.exp_multiple(m, self.maxdeg, self.ring, ko)
        return got

    def block(self, d) -> HMatrix:
        got = self._blocks.get(d)
        if got is None:
            got = self._build_block(d)
            trace = got.entry(0, 0) + got.entry(1, 1)
            if not trace.equal_through(self.q(1) - self.q(-1)):
                raise ValueError("block trace is not q - q^{-1}")
            det = got.entry(0, 0) * got.entry(1, 1) - got.entry(0, 1) * got.entry(1, 0)
            minus_one = -ScalarSeries.one(self.maxdeg, self.ring, det.known_order)
            if not det.equal_through(minus_one):
                raise ValueError("block determinant is not -1")
            if not got.entry(0, 1).coefficient(0):
                raise ValueError("b_d is not invertible")
            self._blocks[d] = got
        return got

    def b(self, d) -> ScalarSeries:
        return self.block(d).entry(0, 1)

    def _build_block(self, d) -> HMatrix:
        if self.kind == "semi":
            return hecke_block_from_candidate(self.phi, d)
        dq = q_integer(d, self.maxdeg, self.ring)
        s = ScalarSeries.const(self.ring.symbol("s%d" % d), self.maxdeg, self.ring)
        # sqrt([d+1][d-1]) = s_d * sqrt([d+1][d-1]/(d^2-1)), rational series part
        prod = q_integer(d + 1, self.maxdeg, self.ring) * q_integer(d - 1, self.maxdeg, self.ring)
        root = scalar_sqrt(Fraction(1, d * d - 1) * prod)
        off = s * root
        rows = [[scalar_div(-self.q(-d), dq), scalar_div(off, dq)],
                [scalar_div(off, dq), scalar_div(self.q(d), dq)]]
        return HMatrix(rows)


def hecke_block_from_candidate(phi, d) -> HMatrix:
    """The 2x2 image of sigma_r on an axial-distance-d pair.

    sigma_image at t = 2h M^1, y = h eta and s = M^1, that is
    Phi(2h M^1, h eta) . M^1 exp(lam h M^1) . Phi(h eta, 2h M^1) with
    eta = diag(d, -d) and M^1 the semi-normal reflection.
    """
    series = phi.series
    maxdeg, ring, ko = series.maxdeg, series.ring, series.known_order
    h = ScalarSeries.gen(maxdeg, ring, ko)
    m1 = HMatrix.from_const(semi_normal_block(d), maxdeg, ring, ko)
    eta = HMatrix.from_const([[Fraction(d), 0], [0, Fraction(-d)]], maxdeg, ring, ko)
    return sigma_image(series, phi.lam, 2 * (h * m1), h * eta, m1)


def b_semi(phi, d) -> ScalarSeries:
    """The b_d scalar of the semi-normal model attached to an associator."""
    return hecke_block_from_candidate(phi, d).entry(0, 1)


def tableau_sigmas(shape: Partition, column, line, block) -> list:
    """sigma_1..sigma_{n-1} on the standard tableaux of one shape, written as terms.

    sigma_r is the scalar series column on a tableau whose r and r+1 share a
    column, line where they share a row, and the 2x2 HMatrix block(d) on the
    plane of a pair of tableaux that differ by swapping r and r+1, d their
    axial distance.  It is known through the least known order of column,
    line and the blocks it uses, with column's maxdeg and ring.
    """
    if shape.n < 2:
        raise ValueError("need at least two strands")
    tabs = tableaux(shape)
    index = {t: i for i, t in enumerate(tabs)}
    sigmas = []
    for r in range(1, shape.n):
        terms, ko = {}, min(column.known_order, line.known_order)
        for i, t in enumerate(tabs):
            if t.col(r) == t.col(r + 1):
                terms.update(((p, i, i), c) for p, c in column.terms.items())
            elif t.line(r) == t.line(r + 1):
                terms.update(((p, i, i), c) for p, c in line.terms.items())
            else:
                j = index[t.swap_adjacent(r)]
                if j < i:
                    continue  # handled from the smaller tableau
                m = block(axial_distance(t, r))
                ko = min(ko, m.known_order)
                ij = (i, j)
                terms.update(((p, ij[a], ij[b]), c) for (p, a, b), c in m.terms.items())
        sigmas.append(HMatrix.from_terms(len(tabs), terms, column.maxdeg, column.ring, ko))
    return sigmas


def rep_build(shape: Partition, model: MatrixModel) -> BraidRep:
    """The braid representation on standard tableaux of one shape: the
    tableau walk with q, -q^{-1} and the model's blocks M_d."""
    sigmas = tableau_sigmas(shape, model.q(1), -model.q(-1), model.block)
    return BraidRep(shape.n, sigmas)


def delta_eigenvalues_ok(rep: BraidRep, shape: Partition, model: MatrixModel) -> bool:
    """Each delta_r (2 <= r <= n) equals, through the lesser known order, the
    diagonal matrix with entry q^{2 c_r(T)} at each tableau T, c_r(T) the
    content of the box of r in T."""
    tabs = tableaux(shape)
    for r in range(2, shape.n + 1):
        diagonal, ko = {}, model.maxdeg
        for i, t in enumerate(tabs):
            eigenvalue = model.q(2 * t.content(r))
            ko = min(ko, eigenvalue.known_order)
            diagonal.update(((p, i, i), c) for p, c in eigenvalue.terms.items())
        expect = HMatrix.from_terms(len(tabs), diagonal, model.maxdeg, model.ring, ko)
        if not rep.delta(r).equal_through(expect):
            return False
    return True


def unitarity_check(rep: BraidRep) -> bool:
    """Every generator image M satisfies transpose(eps(M)) M = 1."""
    for i in range(1, rep.n):
        m = rep.sigma(i)
        if not (m.eps().transpose() * m).is_one():
            return False
    return True


def hecke_infinitesimal(shape: Partition) -> InfinitesimalRep:
    """The infinitesimal representation with t_ij = 2 rho((i j)) on the
    semi-normal tableau basis of one shape: s_r is the tableau walk with 1, -1
    and the blocks M^1_d, and (i j) = s_{j-1} (i j-1) s_{j-1}."""
    one = ScalarSeries.one(0)
    s = tableau_sigmas(shape, one, -one, lambda d: HMatrix.from_const(semi_normal_block(d), 0))
    t = {}
    for i in range(1, shape.n):
        m = s[i - 1]
        for j in range(i + 1, shape.n + 1):
            if j > i + 1:
                m = s[j - 2] * m * s[j - 2]
            t[i, j] = 2 * m
    return InfinitesimalRep(shape.n, s, t)
