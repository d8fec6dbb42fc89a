"""Representations of the infinitesimal braid algebra and the functor to
braid-group representations over k[[h]].

An InfinitesimalRep carries constant matrices (HMatrix values of maxdeg 0)
for the symmetric-group generators s_i and the generators t_ij; validity
means the s-relations, the holonomy relations on the t_ij, and the
equivariance s t_ij s^{-1} = t_{s(i)s(j)}, each checked by HMatrix products.

The functor lifts the matrices to the associator's maxdeg and ring,
substitutes h t for every t and sends

    sigma_i -> Phi(h t_{i,i+1}, h Y_i) . s_i . exp(lam h t_{i,i+1}/2)
               . Phi(h Y_i, h t_{i,i+1}),

so the image of delta_r is exp(lam h Y_r) and every pure braid generator
lands in 1 + h M_N.  The filtered group twists a representation through
sigma_r -> f(delta_r, sigma_r^2)^{-1} sigma_r f(delta_r, sigma_r^2).  A
diagonal conjugator D between a representation and its twist is read along
the nonzero off-diagonal entries of the sigma_i, starting from D_0 = 1: each
entry sigma_i[j, k] gives D_k = D_j sigma'_i[j, k] / sigma_i[j, k].
"""

from __future__ import annotations

from fractions import Fraction

from .braids import BraidWord
from .hmatrix import HMatrix, evaluate_series
from .holonomy import transposition
from .scalar import ScalarSeries, scalar_div
from .symcoef import as_fraction


class InfinitesimalRep:
    """Constant matrices (HMatrix, maxdeg 0) for s_1..s_{n-1} and t_ij."""

    def __init__(self, n, s_matrices, t_matrices, check=True):
        self.n = n
        self.N = s_matrices[0].n
        self.ring = s_matrices[0].ring
        self.s = {i + 1: m for i, m in enumerate(s_matrices)}
        self.t = {(min(i, j), max(i, j)): m for (i, j), m in t_matrices.items()}
        if any(m.maxdeg for m in [*self.s.values(), *self.t.values()]):
            raise ValueError("an infinitesimal representation takes constant matrices (maxdeg 0)")
        if check:
            problems = self.validate()
            if problems:
                raise ValueError("invalid infinitesimal representation: %s" % problems[0])

    def perm_matrix(self, i) -> HMatrix:
        return self.s[i]

    def t_matrix(self, i, j) -> HMatrix:
        return self.t[min(i, j), max(i, j)]

    def y_matrix(self, r) -> HMatrix:
        """Y_r = t_1r + ... + t_{r-1,r}."""
        return sum((self.t_matrix(i, r) for i in range(1, r)), HMatrix.zero(self.N, 0, self.ring))

    def validate(self):
        problems = []
        s, t = self.s, self.t_matrix
        for i in range(1, self.n):
            if not (s[i] * s[i]).is_one():
                problems.append("s_%d is not an involution" % i)
        problems.extend(_braid_failures(s.__getitem__, self.n))
        # holonomy relations; [t_ij, t_kl] = 0 iff [t_kl, t_ij] = 0, so once per disjoint pair
        pairs = [(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]
        for a, (i, j) in enumerate(pairs):
            for (k, l) in pairs[a + 1:]:
                if len({i, j, k, l}) == 4 and not _commute(t(i, j), t(k, l)):
                    problems.append("[t_%d%d, t_%d%d] != 0" % (i, j, k, l))
        for (i, j) in pairs:
            for k in range(1, self.n + 1):
                if k not in (i, j) and not _commute(t(i, j), t(i, k) + t(k, j)):
                    problems.append("[t_%d%d, t_%d%d + t_%d%d] != 0" % (i, j, i, k, k, j))
        # equivariance under adjacent transpositions
        for r in range(1, self.n):
            perm = transposition(self.n, r)
            for (i, j) in pairs:
                if not (s[r] * t(i, j) * s[r]).equal_through(t(perm[i - 1], perm[j - 1])):
                    problems.append("equivariance fails: s_%d . t_%d%d" % (r, i, j))
        return problems


def _commute(a, b):
    return (a * b).equal_through(b * a)


def _braid_failures(gen, n):
    """A message, naming the generators s_i, for each braid relation among
    gen(1), ..., gen(n - 1) that fails: g_i g_{i+1} g_i = g_{i+1} g_i g_{i+1},
    with g_i g_{i+1} formed once, and g_i g_j = g_j g_i for |i - j| > 1."""
    for i in range(1, n - 1):
        pair = gen(i) * gen(i + 1)
        if not (pair * gen(i)).equal_through(gen(i + 1) * pair):
            yield "braid relation fails for s_%d" % i
    for i in range(1, n):
        for j in range(i + 2, n):
            if not _commute(gen(i), gen(j)):
                yield "s_%d and s_%d do not commute" % (i, j)


class BraidRep:
    """Images of the Artin generators as invertible matrices over k[[h]]."""

    def __init__(self, n, sigmas):
        self.n = n
        self._sigmas = {i + 1: m for i, m in enumerate(sigmas)}
        self.N = sigmas[0].n
        self.maxdeg = sigmas[0].maxdeg
        self.known_order = min(m.known_order for m in sigmas)
        self.ring = sigmas[0].ring
        self._inverses = {}
        self._words = {}

    def sigma(self, i) -> HMatrix:
        return self._sigmas[i]

    def sigma_inv(self, i) -> HMatrix:
        got = self._inverses.get(i)
        if got is None:
            got = self.sigma(i).inverse()
            self._inverses[i] = got
        return got

    def image(self, word) -> HMatrix:
        letters = word.letters if isinstance(word, BraidWord) else tuple(word)
        got = self._words.get(letters)
        if got is not None:
            return got
        out = HMatrix.identity(self.N, self.maxdeg, self.ring, self.known_order)
        for v in letters:
            out = out * (self.sigma(v) if v > 0 else self.sigma_inv(-v))
        self._words[letters] = out
        return out

    def delta(self, r) -> HMatrix:
        """delta_r = sigma_{r-1} delta_{r-1} sigma_{r-1}, kept where image() finds it."""
        letters = BraidWord.delta(self.n, r).letters
        if r > 2 and letters not in self._words:
            self._words[letters] = self.sigma(r - 1) * self.delta(r - 1) * self.sigma(r - 1)
        return self.image(letters)

    def promote(self, ring):
        if ring == self.ring:
            return self
        return BraidRep(self.n, [self.sigma(i).promote(ring) for i in range(1, self.n)])

    def braid_relations_ok(self) -> bool:
        return next(_braid_failures(self.sigma, self.n), None) is None

    def pure_braid_depth_ok(self) -> bool:
        """xi_ij in 1 + h M and pairwise commutators in 1 + h^2 M."""
        xis = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                xis.append(self.image(BraidWord.xi(self.n, i, j)))
        one = HMatrix.identity(self.N, self.maxdeg, self.ring, self.known_order)
        for m in xis:
            d = m - one
            if not (d.order() is None or d.order() >= 1):
                return False
        inverses = [m.inverse() for m in xis]
        for a in range(len(xis)):
            for b in range(a + 1, len(xis)):
                comm = xis[a] * xis[b] * inverses[a] * inverses[b] - one
                if not (comm.order() is None or comm.order() >= 2):
                    return False
        return True


def sigma_image(series, lam, t, y, s) -> HMatrix:
    """Phi(t, y) . s . exp(lam t/2) . Phi(y, t) for matrices t, y of positive h-order."""
    left = evaluate_series(series, {"x": t, "y": y})
    right = evaluate_series(series, {"x": y, "y": t})
    return left * s * (Fraction(lam, 2) * t).exp() * right


def phat(rho: InfinitesimalRep, phi) -> BraidRep:
    """The braid representation attached to rho by an associator candidate."""
    series, lam = phi.series, phi.lam
    maxdeg, ring, ko = series.maxdeg, series.ring, series.known_order
    if ring != rho.ring and rho.ring is not None:
        raise ValueError("coefficient ring mismatch between rho and the associator")
    h = ScalarSeries.gen(maxdeg, ring, ko)
    sigmas = [sigma_image(series, lam,
                          h * rho.t_matrix(i, i + 1).truncated(maxdeg, ko).promote(ring),
                          h * rho.y_matrix(i).truncated(maxdeg, ko).promote(ring),
                          rho.perm_matrix(i).truncated(maxdeg, ko).promote(ring))
              for i in range(1, rho.n)]
    return BraidRep(rho.n, sigmas)


def gt_act_on_rep(rep: BraidRep, g) -> BraidRep:
    """Twist: sigma_1 fixed, sigma_r conjugated by g(delta_r, sigma_r^2)."""
    series = g.series if hasattr(g, "series") else g
    ring = series.ring
    rep = rep.promote(ring) if ring != rep.ring else rep
    sigmas = [rep.sigma(1)]
    for r in range(2, rep.n):
        delta = rep.delta(r)
        sq = rep.sigma(r) * rep.sigma(r)
        conj = evaluate_series(series, {"x": delta.log(), "y": sq.log()})
        sigmas.append(conj.inverse() * rep.sigma(r) * conj)
    return BraidRep(rep.n, sigmas)


def diagonal_conjugator(rep: BraidRep, twisted: BraidRep):
    """Diagonal entries (1, D_1, ..., D_{N-1}) with D sigma'_i = sigma_i D for every i.

    Both representations must agree on every delta_r, whose commutant is
    diagonal.  From D_0 = 1, each nonzero off-diagonal entry sigma_i[j, k] of
    rep leads from a known D_j to D_k = D_j sigma'_i[j, k] / sigma_i[j, k].
    Raises ValueError if some D_k is never reached (rep is reducible, so D is
    not unique) or if the conjugation fails on any entry.
    """
    for r in range(2, rep.n + 1):
        if not rep.delta(r).equal_through(twisted.delta(r)):
            raise ValueError("representations disagree on delta_%d" % r)
    edges = {}
    for i in range(1, rep.n):
        for _, j, k in rep.sigma(i).terms:
            if j != k:
                edges.setdefault(j, {}).setdefault(k, i)
    diag = {0: ScalarSeries.one(rep.maxdeg, rep.ring, rep.known_order)}
    reached = [0]
    for j in reached:
        for k, i in edges.get(j, {}).items():
            if k not in diag:
                diag[k] = scalar_div(diag[j] * twisted.sigma(i).entry(j, k),
                                     rep.sigma(i).entry(j, k))
                reached.append(k)
    if len(diag) < rep.N:
        raise ValueError("the sigma_i entries reach %d of %d basis vectors: "
                         "the representation is reducible" % (len(diag), rep.N))
    diag = [diag[j] for j in range(rep.N)]
    if not _verify_conjugation(rep, twisted, diag):
        raise ValueError("conjugation verification failed")
    return diag


def _verify_conjugation(rep: BraidRep, twisted: BraidRep, diag):
    """D sigma'_i = sigma_i D for every i, D the diagonal matrix of diag."""
    terms = {(p, j, j): c for j, e in enumerate(diag) for p, c in e.terms.items()}
    d = HMatrix.from_terms(rep.N, terms, rep.maxdeg, rep.ring,
                           min(e.known_order for e in diag), rep.sigma(1).var)
    return all((d * twisted.sigma(i)).equal_through(rep.sigma(i) * d) for i in range(1, rep.n))


def b3_example(v) -> InfinitesimalRep:
    """The generic irreducible 3-dimensional representation of the 3-strand
    infinitesimal braid algebra; v must be an exact rational outside {-3,-1,0,3}.
    """
    v = as_fraction(v)
    if v in (-3, -1, 0, 3):
        raise ValueError("degenerate parameter v = %s" % v)
    q = Fraction(1, 4) / v
    s1 = HMatrix.from_const([[1, 0, 0], [0, 1, 0], [0, 0, -1]], 0)
    s2 = HMatrix.from_const([
        [q * (v - 3), q * 3 * (v - 1), q * 3 * (v + 1)],
        [q * 3 * (v + 1), q * (3 + v), q * (-3) * (v + 1)],
        [q * 2 * v, q * 2 * v * (1 - v) / (1 + v), q * 2 * v],
    ], 0)
    t12 = HMatrix.from_const([[Fraction(3 + v, 2), 0, 0], [0, Fraction(3 - v, 2), 0], [0, 0, 0]], 0)
    t13 = s2 * t12 * s2
    return InfinitesimalRep(3, [s1, s2], {(1, 2): t12, (1, 3): t13, (2, 3): s1 * t13 * s1})
