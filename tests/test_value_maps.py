"""The two value maps against the constructions built on them.

The generic element g_{a,b} and everything twisted by it are computed once
over Q[a, b]; that is sound only if sending (a, b) to a rational point
commutes with each construction.  Likewise the truncation degree: outputs
built from the degree-6 associator, cut to degree 5, must be the degree-5
outputs.
"""

from fractions import Fraction as F

import pytest

from gtassoc.associators import extend_associator, phi0_reference
from gtassoc.braidreps import b3_example, gt_act_on_rep, phat
from gtassoc.characters import chi_d, tableau_diagonal
from gtassoc.grtgt import act_grt, act_gt, g_ab, grt_cap_psi, grt_exp, iota, psi1
from gtassoc.hecke import b_semi, hecke_infinitesimal
from gtassoc.kz import b_even_ref, b_kz, h_tilde, kz_ring
from gtassoc.scalar import ScalarSeries
from gtassoc.tableaux import Partition

POINT = (F(2, 3), F(-5, 7))
WRONG = (F(2, 3), F(-5, 8))


def at(value, point=POINT):
    return value.specialize(None, dict(zip("ab", point)))


@pytest.fixture(scope="module")
def gab_rational(phi0):
    return g_ab(*POINT, phi0)


@pytest.fixture(scope="module")
def phi1():
    """A rational associator other than phi0: phi0 twisted by grt_exp(psi1 / 2)."""
    return act_grt(phi0_reference(5), grt_exp(F(1, 2) * psi1(5)))


def test_g_ab_specializes_to_the_rational_element(gab_symbolic, gab_rational):
    assert at(gab_symbolic.series) == gab_rational.series
    assert len(gab_rational.series.terms) == 37
    assert at(gab_symbolic.series, WRONG) != gab_rational.series


def test_iota_and_act_grt_specialize(phi1, ab_ring):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    cap, cap_rational = grt_cap_psi(a, b, 5, ab_ring), grt_cap_psi(*POINT, 5)
    acted = act_grt(phi1.promote(ab_ring), cap).series
    assert at(acted) == act_grt(phi1, cap_rational).series
    g = iota(phi1.promote(ab_ring), cap).series
    assert at(g) == iota(phi1, cap_rational).series
    assert at(g, WRONG) != at(g)


def test_twists_specialize(phi0, gab_symbolic, gab_rational, ab_ring):
    """gt_act_on_rep on b3(5) and the twisted b_d of the semi-normal model."""
    rep = phat(b3_example(F(5)), phi0)
    twisted = gt_act_on_rep(rep.promote(ab_ring), gab_symbolic)
    rational = gt_act_on_rep(rep, gab_rational)
    assert all(at(twisted.sigma(i)) == rational.sigma(i) for i in (1, 2))
    assert at(twisted.sigma(2), WRONG) != rational.sigma(2)
    phi_tw = act_gt(gab_symbolic, phi0.promote(ab_ring))
    for d in (2, 3, 4):
        assert at(b_semi(phi_tw, d)) == b_semi(act_gt(gab_rational, phi0), d)


def test_chars_diagonal_specializes(phi0, gab_symbolic, gab_rational):
    """The diagonal prod chi_d^e of chars --partition 3,2 at the point."""
    def diagonal(g):
        chi = {d: chi_d(g, d, phi0) for d in (2, 3)}
        out = []
        for vec in tableau_diagonal(Partition((3, 2))):
            entry = ScalarSeries.one(5, g.series.ring)
            for d, e in vec.exps.items():
                for _ in range(e):
                    entry = entry * chi[d]
            out.append(entry)
        return out
    symbolic, rational = diagonal(gab_symbolic), diagonal(gab_rational)
    assert [at(s) for s in symbolic] == rational
    assert not rational[-1].is_one()
    assert at(symbolic[-1], WRONG) != rational[-1]


# -- truncation: the degree-6 associator cut to 5 ------------------------


@pytest.fixture(scope="module")
def phi6(phi0):
    phi, kernel = extend_associator(phi0, parity=True)
    assert phi.known_order == 6 and kernel == []
    return phi


def test_the_ladder_cut_is_the_lower_reference(phi0, phi6):
    assert phi0.series.truncated(4) == phi0_reference(4).series
    assert phi0.series.truncated(4).known_order == 4
    assert phi6.series.truncated(5) == phi0.series and phi6.series.homogeneous(6).terms


@pytest.mark.parametrize("d", [2, 3, 5])
def test_kz_scalars_at_order_eight_cut_to_seven(d):
    ring = kz_ring()
    for build in (lambda order: b_kz(d, 1, ring, order), lambda order: b_kz(d, -1, ring, order),
                  lambda order: b_even_ref(d, ring, order), lambda order: h_tilde(d, ring, order)):
        whole, seven = build(8), build(7)
        assert whole.truncated(7) == seven and whole.truncated(7).known_order == 7


@pytest.mark.parametrize("parts", [(2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)], ids=str)
def test_phat_of_the_cut_associator(phi0, phi6, parts):
    rho = hecke_infinitesimal(Partition(parts))
    whole, five = phat(rho, phi6), phat(rho, phi0)
    assert whole.maxdeg == 6
    for i in range(1, rho.n):
        cut = whole.sigma(i).truncated(5)
        assert cut == five.sigma(i) and cut.known_order == five.sigma(i).known_order == 5


def test_b_d_and_g_ab_of_the_cut_associator(phi0, phi6, gab_rational):
    for d in range(2, 6):
        whole = b_semi(phi6, d)
        assert whole.maxdeg == 6 and whole.truncated(5) == b_semi(phi0, d)
    g6 = g_ab(*POINT, phi6).series
    assert g6.known_order == 6 and g6.truncated(5) == gab_rational.series
    assert g6.homogeneous(6).terms
