"""Graded and filtered Grothendieck-Teichmuller groups in truncation.

GRT1 elements are the lambda=0 associators with group law

    (f1 . f2)(x,y) = f1(f2 x f2^{-1}, y) f2,

acting on the right on associator candidates by the same formula.  GT1
elements are grouplike series with f(u,v) f(v,u) = 1 and the m=0 hexagon,
acting on the left by (f.Phi)(x,y) = f(Phi e^x Phi^{-1}, e^y) Phi; group
arguments are always consumed through their logarithms.  The isomorphism
iota_Phi is pinned down by Phi.f = iota_Phi(f).Phi and computed by an
order-raising fixed point, inverting G -> G(x+P, y) with the Neumann sum
sum (-1)^n (Delta - Id)^n.

The exponential grt_exp carries a Lie element psi to exp(s_psi)(1), where
s_psi(g) = g psi + D_psi(g) and D_psi is the derivation with x -> [psi,x],
y -> 0.  The tabulated generators are psi1 = w5 - w4 in degree 3 and
psi2 = -2w9 - 4w10 - 4w11 - 2w12 - w13 - 3w14 in degree 5.

The Ihara projection works in the other classical convention, embedding
the free group by x -> 1+x: it forms f(log(1+x), log(1+y)), keeps the
constant-plus-(...)x part, and abelianizes.  The exp-sum form it is matched
against is one nc_exp over the same two logs, abelianized the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .associators import (REFERENCE_DEGREE, AssociatorCandidate, certify, pentagon_defect,
                          phi0_reference)
from .ncseries import (NCSeries, bch, commutator, is_grouplike, is_lie, letter_swap, nc_exp,
                       nc_log, nc_substitute)
from .symcoef import Poly, SymRing
from .truncated import _scatter
from .wbasis import XY, w_element


class _GroupElt:
    """A series with constant term 1, the element of one of the two groups."""

    __slots__ = ("series",)

    def __init__(self, series: NCSeries):
        if series.coefficient(b"") != 1:
            raise ValueError("group elements have constant term 1")
        self.series = series

    def __repr__(self):
        return "<%s %r>" % (type(self).__name__, self.series)


class GrtElt(_GroupElt):
    """Grouplike series certified (or trusted) to satisfy the lambda=0 equations."""

    __slots__ = ()


class GtElt(_GroupElt):
    """Grouplike series in the filtered group; lambda is fixed to 1."""

    __slots__ = ()


def _series_of(g):
    return g.series if isinstance(g, (_GroupElt, AssociatorCandidate)) else g


def certify_grt(f) -> dict:
    """Membership checks for the graded group: the lambda=0 associator equations."""
    return certify(AssociatorCandidate(_series_of(f), 0))


# -- derivation exponentials -------------------------------------------


def derivation_x(psi: NCSeries, g: NCSeries) -> NCSeries:
    """The derivation D with D(x) = [psi, x], D(y) = 0 applied to g."""
    x = NCSeries.letter(XY, "x", g.maxdeg, g.ring, g.known_order)
    dx = commutator(psi, x).terms.items()
    ko = min(g.known_order, psi.known_order)

    def row(word):
        """Each x of word replaced by [psi, x], through degree ko."""
        for pos, letter in enumerate(word):
            if letter == 0:
                left, right = word[:pos], word[pos + 1:]
                for mid, c in dx:
                    w = left + mid + right
                    if len(w) <= ko:
                        yield w, c

    return g._like(g.terms, ko).linear(row)


def s_map(psi: NCSeries, g: NCSeries) -> NCSeries:
    """s_psi(g) = g psi + D_psi(g); raises order strictly."""
    return g * psi + derivation_x(psi, g)


def exp_s(psi: NCSeries, start: NCSeries) -> NCSeries:
    """exp(s_psi) applied to start, truncated."""
    if psi.order() is None:
        return start
    if psi.order() < 1:
        raise ValueError("s-exponential needs a positive-order argument")
    acc = start
    term = start
    k = 1
    while True:
        term = Fraction(1, k) * s_map(psi, term)
        if not term.terms:
            break
        acc = acc + term
        k += 1
    return acc


def grt_exp(psi: NCSeries) -> GrtElt:
    """Group exponential of a graded Lie element: exp(s_psi)(1)."""
    if not is_lie(psi):
        raise ValueError("grt_exp needs a Lie series")
    one = NCSeries.one(XY, psi.maxdeg, psi.ring, psi.known_order)
    return GrtElt(exp_s(psi, one))


def psi1(maxdeg=REFERENCE_DEGREE, ring=None) -> NCSeries:
    return w_element(5, maxdeg, ring) - w_element(4, maxdeg, ring)


def psi2(maxdeg=REFERENCE_DEGREE, ring=None) -> NCSeries:
    w = lambda k: w_element(k, maxdeg, ring)
    return (-2 * w(9) - 4 * w(10) - 4 * w(11) - 2 * w(12) - w(13) - 3 * w(14))


def psi_ab(a, b, maxdeg=REFERENCE_DEGREE, ring=None) -> NCSeries:
    return a * psi1(maxdeg, ring) + b * psi2(maxdeg, ring)


def grt_cap_psi(a, b, maxdeg=REFERENCE_DEGREE, ring=None) -> GrtElt:
    """The group element Psi_{a,b} = grt_exp(a psi1 + b psi2)."""
    return grt_exp(psi_ab(a, b, maxdeg, ring))


# -- group laws and actions --------------------------------------------


def _letters(g: NCSeries):
    return tuple(NCSeries.letter(XY, name, g.maxdeg, g.ring, g.known_order) for name in XY)


def _graded_sub(f: NCSeries, g: NCSeries) -> NCSeries:
    """f(g x g^{-1}, y), the substitution of the graded law."""
    x, y = _letters(g)
    return nc_substitute(f, {"x": g * x * g.inverse(), "y": y})


def _filtered_sub(f: NCSeries, g: NCSeries) -> NCSeries:
    """f(log(g e^x g^{-1}), y), the substitution of the filtered law."""
    x, y = _letters(g)
    return nc_substitute(f, {"x": nc_log(g * nc_exp(x) * g.inverse()), "y": y})


def _group_inverse(s: NCSeries, sub) -> NCSeries:
    """The inverse for the law (f.g) = sub(f, g) g, by an order-raising fixed point."""
    inv = NCSeries.one(XY, s.maxdeg, s.ring, s.known_order)
    for _ in range(s.known_order + 1):
        inv = sub(s, inv).inverse()
    if not (sub(s, inv) * inv).is_one():
        raise RuntimeError("group inverse iteration failed to converge")
    return inv


def grt_mul(f1, f2) -> GrtElt:
    """(f1.f2)(x,y) = f1(f2 x f2^{-1}, y) f2."""
    s2 = _series_of(f2)
    return GrtElt(_graded_sub(_series_of(f1), s2) * s2)


def grt_inverse(f) -> GrtElt:
    """Inverse for the graded group law."""
    return GrtElt(_group_inverse(_series_of(f), _graded_sub))


def act_grt(phi: AssociatorCandidate, f) -> AssociatorCandidate:
    """Right action of the graded group on candidates; lambda is unchanged."""
    s = _series_of(f)
    return AssociatorCandidate(_graded_sub(phi.series, s) * s, phi.lam)


def act_gt(g, phi: AssociatorCandidate) -> AssociatorCandidate:
    """Left action (f.Phi)(x,y) = f(Phi e^x Phi^{-1}, e^y) Phi."""
    return AssociatorCandidate(_filtered_sub(_series_of(g), phi.series) * phi.series, phi.lam)


def gt_mul(g1, g2) -> GtElt:
    """(g1.g2)(x,y) = g1(g2 e^x g2^{-1}, e^y) g2 (the lambda=1 substitution law)."""
    s2 = _series_of(g2)
    return GtElt(_filtered_sub(_series_of(g1), s2) * s2)


def gt_inverse(g) -> GtElt:
    """Inverse for the filtered group law."""
    return GtElt(_group_inverse(_series_of(g), _filtered_sub))


def iota(phi: AssociatorCandidate, f) -> GtElt:
    """The unique g with act_grt(phi, f) = act_gt(g, phi).

    Computed by log-linearizing the left action: with u = log(Phi e^x
    Phi^{-1}) = x + P, the unknown G = log g satisfies G(u, y) =
    log(Phi' Phi^{-1}); the substitution operator Delta: G -> G(u, y) is
    inverted by the order-raising Neumann iteration.
    """
    if phi.lam == 0:
        raise ValueError("iota needs lambda != 0")
    base = phi.series
    phip = act_grt(phi, f).series
    rhs = nc_log(phip * base.inverse())
    x, y = _letters(base)
    u = nc_log(base * nc_exp(x) * base.inverse())

    def delta(G):
        return nc_substitute(G, {"x": u, "y": y})

    G = rhs
    for _ in range(base.known_order + 1):
        G = rhs - (delta(G) - G)
    if not delta(G).equal_through(rhs):
        raise RuntimeError("fixed-point inversion did not converge; "
                           "check the candidate preconditions")
    g = GtElt(nc_exp(G))
    if not act_gt(g, phi).series.equal_through(phip):
        raise RuntimeError("iota verification failed")
    return g


def g_ab(a, b, phi0: AssociatorCandidate) -> GtElt:
    """iota_{phi0}(Psi_{a,b}); with symbolic a, b this is the generic element."""
    ring = None
    for v in (a, b):
        if isinstance(v, Poly):
            ring = v.ring
    psi = psi_ab(a, b, phi0.maxdeg, ring)
    base = phi0.promote(ring)
    return iota(base, grt_exp(psi))


# -- membership report for the filtered group ---------------------------


def gt_checks(g) -> dict:
    """Per-equation report: duality, hexagon (m=0), grouplike, and the
    4-strand relation.

    GT_1 acts freely and transitively on associators, so the 4-strand
    relation holds for g exactly when g.phi0 satisfies the associator
    pentagon (gt_pentagon_defect), given that phi0 satisfies its equations
    through its degree.
    """
    s = _series_of(g)
    report = {}
    report["grouplike"] = is_grouplike(s)
    swapped = letter_swap(s)
    report["duality"] = (s * swapped).is_one()
    x, y = _letters(s)
    w = bch(-1 * y, -1 * x)
    prod = (nc_substitute(s, {"x": w, "y": x})
            * nc_substitute(s, {"x": y, "y": w})
            * s)
    report["hexagon"] = prod.is_one()
    report["pentagon"] = gt_pentagon_push(s)
    return report


def _moved_reference(series: NCSeries) -> NCSeries:
    """series.phi0, with phi0 the rational reference through
    min(maxdeg, REFERENCE_DEGREE), promoted to the series' ring."""
    ref = phi0_reference(min(series.maxdeg, REFERENCE_DEGREE)).promote(series.ring)
    return act_gt(series, ref).series


def gt_pentagon_defect(series: NCSeries):
    """The 4-strand equation of series, as the pentagon defect P - Q in t_4
    of series.phi0 (associators.pentagon_defect).

    GT_1 acts freely and transitively on associators (Drinfeld), so g
    satisfies the 4-strand relation exactly when g.phi0 satisfies the
    associator pentagon.  That assumes phi0 satisfies its equations through
    its degree.  A series that is not grouplike moves phi0 to a series with
    no Lie log, and its defect is None.
    """
    return pentagon_defect(_moved_reference(series))


def gt_pentagon_push(series: NCSeries) -> bool:
    """The 4-strand equation holds through the known order; a necessary
    condition for membership, sufficient for every computation done here.
    False for a series that is not grouplike."""
    defect = gt_pentagon_defect(series)
    return defect is not None and defect.is_zero()


# -- Ihara projection ----------------------------------------------------


def _abelianized(terms) -> dict:
    """pi_ab: {(deg_x, deg_y): coeff} summed over the given (word, coeff) pairs."""
    out = {}
    _scatter(out, (((w.count(0), w.count(1)), c) for w, c in terms))
    return {key: c for key, c in out.items() if c}


def _log_one_plus_letters(maxdeg, ring):
    """{name: log(1 + name)} for the letters x, y."""
    one = NCSeries.one(XY, maxdeg, ring)
    return {name: nc_log(one + NCSeries.letter(XY, name, maxdeg, ring)) for name in XY}


def ihara_projection(f: NCSeries) -> dict:
    """pi_ab . p_x of f(log(1+x), log(1+y)) as {(deg_x, deg_y): coeff}.

    p_x keeps the constant term and the words ending in x; the abelianization
    then counts letters.  This and ihara_psi_ab are the only places where the
    1+x embedding of the free group is used instead of the exponential one.
    """
    if f.coefficient(b"") != 1:
        raise ValueError("the projection expects constant term 1")
    subs = nc_substitute(f, _log_one_plus_letters(f.maxdeg, f.ring))
    return _abelianized((w, c) for w, c in subs.terms.items() if not w or w[-1] == 0)


def ihara_psi_ab(ring: SymRing, kappa3="kappa3", kappa5="kappa5", maxdeg=5) -> dict:
    """pi_ab of exp(sum_m kappa*_m/m! ((X+Y)^m - X^m - Y^m)), X = log(1+x),
    Y = log(1+y), through degree maxdeg.

    The exp is taken in the free algebra; abelianization is a ring map onto
    the commutative polynomials, so this is the commutative expansion.
    """
    X, Y = _log_one_plus_letters(maxdeg, ring).values()
    S = X + Y
    arg = NCSeries.zero(XY, maxdeg, ring)
    for m, kname in ((3, kappa3), (5, kappa5)):
        power_s, power_x, power_y = S, X, Y
        for _ in range(m - 1):
            power_s, power_x, power_y = power_s * S, power_x * X, power_y * Y
        kc = ring.symbol(kname) * Fraction(1, math.factorial(m))
        arg = arg + kc * (power_s - power_x - power_y)
    return _abelianized(nc_exp(arg).terms.items())


def kappa_identification(g_series: NCSeries):
    """Match the projection of a generic filtered element, over symbols a and
    b, against the classical exp-sum form with formal symbols kappa3, kappa5.

    Returns (a_value, b_value, exact_match) where the values are polynomials
    in the kappa symbols and exact_match reports whether substituting them
    reproduces every coefficient through the truncation.
    """
    lhs = ihara_projection(g_series)
    kring = SymRing(("kappa3", "kappa5"))
    rhs = ihara_psi_ab(kring, maxdeg=g_series.known_order)

    def lin(poly):
        return poly.coefficient({"a": 1}), poly.coefficient({"b": 1}), poly.coefficient({})

    # two independent coefficients pin (a, b)
    eq1 = lin(lhs[(2, 1)])   # x^2 y
    eq2 = lin(lhs[(4, 1)])   # x^4 y
    r1 = rhs.get((2, 1), kring.zero) - kring.const(eq1[2])
    r2 = rhs.get((4, 1), kring.zero) - kring.const(eq2[2])
    det = eq1[0] * eq2[1] - eq1[1] * eq2[0]
    if not det:
        raise ValueError("pinning coefficients are degenerate")
    a_val = (r1 * eq2[1] - r2 * eq1[1]) / det
    b_val = (r2 * eq1[0] - r1 * eq2[0]) / det
    mapping = {"a": a_val, "b": b_val}
    ok = True
    keys = set(lhs) | set(rhs)
    for key in keys:
        lv = lhs.get(key)
        lv = kring.zero if lv is None else lv.subs(kring, mapping)
        rv = rhs.get(key, kring.zero)
        if lv != rv:
            ok = False
            break
    return a_val, b_val, ok
