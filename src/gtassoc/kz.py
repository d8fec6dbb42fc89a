"""Exact symbolic expansions of the Gamma-function combinations.

Everything lives in the variable hb = h/(2 i pi) over Q[gamma, zeta2..zetaK],
where log Gamma(1+z) = -gamma z + sum_{k>=2} (-1)^k zeta_k z^k / k.  The
building blocks are

    Gamma3(a,b,c) = Gamma(1-2a) Gamma(1+2b) / (Gamma(1+b-a+delta) Gamma(1+b-a-delta)),
    F(a,b) = Gamma3(hb a, hb b, -2 hb^2),      Z(a,b) = F(a,b) F(b,-a),
    J(x) = Gamma(1+x)/Gamma(1-x),  I(x) = Gamma(1+x) Gamma(1-x),
    Jt(m) = J(2 m hb),             It(m) = I(2 m hb),

with delta = hb sqrt(a^2+b^2-4), a perfect square for every pair used here
(both sign choices give the same Gamma3 since the denominator is symmetric).
The two scalar families are

    b_kz(d, +) = ((d+1)/2d) (q+q^{-1})/2 (Z(d,2) + Z(d,-2))      (KZ)
    b_kz(d, -) = ((d+1)/2d) (q+q^{-1})/2 (Z(-d,-2) + Z(-d,2))    (conjugate)
    b_even_ref(d) = ((d+1)/d) It(d)/sqrt(It(d+1) It(d-1))        (even reference)
    h_tilde(d) = sqrt(Jt(d-1) Jt(d+1))/Jt(d),

the cosine factor being It(1)/It(2).  The ratio identity reads

    b_kz(d,+)/b_kz(d,-) = exp(-2 sum_n zeta_{2n+1}/(2n+1) 2^{2n+1} hb^{2n+1} Q_n(d)),
    Q_n(d) = (d+1)^{2n+1} + (d-1)^{2n+1} - 2 d^{2n+1},

and h_tilde(d), its square root, satisfies b_kz(d,+-)/b_even_ref(d) =
h_tilde(d)^{+-1}.  Every scalar is one exp of one closed-form sum
L = sum_j w_j log Gamma(1 + m_j hb) (loggamma_sum), with no series product,
so b_kz(d, +-) = ((d+1)/2d) (exp(L_cos + L_Z1) + exp(L_cos + L_Z2)) takes
two exps.  specialize_even sends a purely even series to Q[[h]] by
the Bernoulli values zeta(2k) = (-1)^{k+1} B_2k (2 pi)^{2k} / (2 (2k)!),
under which the powers of 2 i pi cancel rationally.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .associators import REFERENCE_DEGREE, AssociatorCandidate, phi0_reference
from .grtgt import psi1, psi2
from .scalar import ScalarSeries
from .symcoef import SymRing
from .wbasis import w_element

DEFAULT_HBAR_ORDER = 8
DEFAULT_ZETA_MAX = 9
HBAR = "hbar"


def kz_ring(zeta_max=DEFAULT_ZETA_MAX) -> SymRing:
    return SymRing(("gamma",) + tuple("zeta%d" % k for k in range(2, zeta_max + 1)))


def _zeta(ring, k):
    return ring.symbol("zeta%d" % k)


def _zeta_max(ring):
    """The largest k with zeta_k in ring; 1 when it has none: only hb^1 terms form."""
    return max((k for k in range(2, 100) if "zeta%d" % k in ring.index), default=1)


def hbar_series(ring, maxdeg=DEFAULT_HBAR_ORDER, terms=None) -> ScalarSeries:
    return ScalarSeries(maxdeg, terms or {}, ring, var=HBAR)


def loggamma(z: ScalarSeries) -> ScalarSeries:
    """log Gamma(1+z) = -gamma z + sum_{k>=2} (-1)^k zeta_k z^k / k."""
    if z.order() is None:
        return ScalarSeries.zero(z.maxdeg, z.ring, z.known_order, z.var)
    if z.order() < 1:
        raise ValueError("loggamma needs a series of positive order")
    ring = z.ring
    acc = (-ring.symbol("gamma")) * z
    power = z
    zeta_max = _zeta_max(ring)
    for k in range(2, z.known_order + 1):
        power = power * z
        if k > zeta_max:
            raise ValueError("needs zeta_%d: raise the ring's zeta bound" % k)
        acc = acc + (_zeta(ring, k) * Fraction((-1) ** k, k)) * power
    return acc


def loggamma_sum(ring, pairs, maxdeg=DEFAULT_HBAR_ORDER) -> ScalarSeries:
    """sum_j w_j log Gamma(1 + m_j hb), (w_j, m_j) in pairs, over ring (kz_ring() for
    None): -gamma sum_j w_j m_j at hb^1, (-1)^k zeta_k/k sum_j w_j m_j^k at hb^k.
    Unless every m_j is 0, each zeta_k through maxdeg must be in the ring."""
    ring = kz_ring() if ring is None else ring
    zeta_max = _zeta_max(ring)
    if zeta_max < maxdeg and any(m for _, m in pairs):
        raise ValueError("needs zeta_%d: raise the ring's zeta bound" % (zeta_max + 1))
    terms = {}
    for k in range(1, maxdeg + 1):
        total = sum(Fraction(w) * m ** k for w, m in pairs)
        if total:
            terms[k] = (-ring.symbol("gamma") * total if k == 1
                        else _zeta(ring, k) * Fraction((-1) ** k * total, k))
    return hbar_series(ring, maxdeg, terms)


def _gamma3_pairs(a, b):
    """log F(a, b) as (w, m) pairs; w log J(2 m hb) is (w, 2m), (-w, -2m) and
    w log I(2 m hb) is (w, 2m), (w, -2m)."""
    disc = a * a + b * b - 4
    s = math.isqrt(disc) if disc >= 0 else -1
    if s < 0 or s * s != disc:
        raise ValueError("a^2 + b^2 - 4 = %d is not a perfect square" % disc)
    return [(1, -2 * a), (1, 2 * b), (-1, b - a + s), (-1, b - a - s)]


_COS_PAIRS = [(1, 2), (1, -2), (-1, 4), (-1, -4)]


def gamma3_F(a, b, ring=None, maxdeg=DEFAULT_HBAR_ORDER) -> ScalarSeries:
    """F(a,b) = Gamma3(hb a, hb b, -2 hb^2) for integers a, b.

    Needs a^2 + b^2 - 4 to be a perfect square; the two square-root branches
    agree because the denominator pair is symmetric under delta -> -delta.
    """
    return loggamma_sum(ring, _gamma3_pairs(a, b), maxdeg).exp()


def b_kz(d, sign, ring=None, maxdeg=DEFAULT_HBAR_ORDER) -> ScalarSeries:
    """The KZ-side scalars, two exps; sign +1 for the original, -1 for the conjugate."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = sign * d
    z1, z2 = (loggamma_sum(ring, _COS_PAIRS + _gamma3_pairs(e, c) + _gamma3_pairs(c, -e),
                           maxdeg).exp() for c in (2 * sign, -2 * sign))
    return Fraction(d + 1, 2 * d) * (z1 + z2)


def b_even_ref(d, ring=None, maxdeg=DEFAULT_HBAR_ORDER) -> ScalarSeries:
    """((d+1)/d) It(d)/sqrt(It(d+1) It(d-1)) for the even reference model."""
    half = Fraction(1, 2)
    pairs = [(w, s * 2 * m) for w, m in ((1, d), (-half, d + 1), (-half, d - 1)) for s in (1, -1)]
    return Fraction(d + 1, d) * loggamma_sum(ring, pairs, maxdeg).exp()


def h_tilde(d, ring=None, maxdeg=DEFAULT_HBAR_ORDER) -> ScalarSeries:
    """sqrt(Jt(d-1) Jt(d+1))/Jt(d)."""
    half = Fraction(1, 2)
    pairs = [(s * w, s * 2 * m) for w, m in ((half, d - 1), (half, d + 1), (-1, d))
             for s in (1, -1)]
    return loggamma_sum(ring, pairs, maxdeg).exp()


def q_n(n, d):
    return (d + 1) ** (2 * n + 1) + (d - 1) ** (2 * n + 1) - 2 * d ** (2 * n + 1)


def ratio_formula_rhs(d, ring=None, maxdeg=DEFAULT_HBAR_ORDER) -> ScalarSeries:
    """exp(-2 sum_n zeta_{2n+1}/(2n+1) 2^{2n+1} hb^{2n+1} Q_n(d))."""
    ring = kz_ring() if ring is None else ring
    terms = {k: _zeta(ring, k) * Fraction(-2 * 2 ** k * q_n(k // 2, d), k)
             for k in range(3, maxdeg + 1, 2)}
    return ScalarSeries(maxdeg, terms, ring, var=HBAR).exp()


BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730)}


def euler_zeta_factor(k):
    """zeta(2k) / (2 pi)^{2k} = (-1)^{k+1} B_{2k} / (2 (2k)!)."""
    return Fraction((-1) ** (k + 1)) * BERNOULLI[2 * k] / (2 * math.factorial(2 * k))


def specialize_even(s: ScalarSeries, maxdeg=None) -> ScalarSeries:
    """Send a purely even series over the zeta ring to Q[[h]].

    Every monomial must carry only even zetas with total weight equal to its
    hb-power (so the transcendental factors cancel); gamma or odd zetas, or
    a weight mismatch, raise.  Then zeta_2k goes to (-1)^k euler_zeta_factor(k),
    whose signs multiply to the (-1)^(power/2) of hb^power, weight = power.
    """
    ring = s.ring
    for power, coeff in s.terms.items():
        if power % 2:
            raise ValueError("odd hb-power %d cannot specialize" % power)
        for exps in coeff.terms:
            weight = 0
            for name, e in zip(ring.symbols, exps):
                if not e:
                    continue
                if not name.startswith("zeta"):
                    raise ValueError("symbol %s survives specialization" % name)
                k = int(name[4:])
                if k % 2:
                    raise ValueError("odd zeta_%d survives specialization" % k)
                weight += k * e
            if weight != power:
                raise ValueError("zeta weight %d differs from hb-power %d" % (weight, power))
    out = s.specialize(None, {"zeta%d" % b: (-1) ** (b // 2) * euler_zeta_factor(b // 2)
                              for b in BERNOULLI})
    return ScalarSeries(s.maxdeg if maxdeg is None else maxdeg, out.terms, None,
                        out.known_order, "h")


def phi_kz_symbolic(maxdeg=REFERENCE_DEGREE):
    """The degree-5 truncation of the KZ associator over formal symbols
    zt3 = zeta(3)/(2 i pi)^3 and zt5 = zeta(5)/(2 i pi)^5:

        1 + w3/24 + zt3 psi1 + phi4 + (1/2) zt5 psi2 - (1/24) zt3 (w10 + w11 - w3 psi1),

    with phi4 = (-w7 - 4 w6 - 4 w8 + 5 w3^2)/5760.  The sign of the w3 psi1
    term is the one forced by the membership equations and by evenness of
    the twisted reference; it is the unique degree-5 completion of the lower
    data in the lambda=1 family with these zt3/zt5 coordinates.
    """
    ring = SymRing(("zt3", "zt5"))
    zt3, zt5 = ring.symbol("zt3"), ring.symbol("zt5")
    series = phi0_reference(maxdeg, ring).series
    if maxdeg >= 3:
        series = series + zt3 * psi1(maxdeg, ring)
    if maxdeg >= 5:
        series = series + (zt5 * Fraction(1, 2)) * psi2(maxdeg, ring)
        corr = (w_element(10, maxdeg, ring) + w_element(11, maxdeg, ring)
                - w_element(3, maxdeg, ring) * psi1(maxdeg, ring))
        series = series - (zt3 * Fraction(1, 24)) * corr
    return AssociatorCandidate(series, 1)
