from fractions import Fraction as F

import pytest

from gtassoc.associators import c_extract, certify
from gtassoc.grtgt import act_grt, grt_cap_psi
from gtassoc.hecke import b_semi
from gtassoc.kz import (b_even_ref, b_kz, cos_factor, euler_zeta_factor, gamma3_F,
                        h_tilde, hbar_series, kz_ring, log_i_tilde, log_j_tilde,
                        loggamma, phi_kz_symbolic, q_n, ratio_formula_rhs,
                        specialize_even, z_pair)
from gtassoc.scalar import ScalarSeries, scalar_div


@pytest.fixture(scope="module")
def ring():
    return kz_ring()


def test_loggamma_zero(ring):
    assert loggamma(hbar_series(ring, 8)).is_zero()


def test_log_j_expansion(ring):
    # log J(x) = -2 gamma x - 2 sum zeta_{2n+1} x^{2n+1}/(2n+1) at x = 2 hb
    lj = log_j_tilde(ring, 1, 8)
    assert lj.coefficient(1) == ring.symbol("gamma") * (-4)
    for k in (2, 4, 6, 8):
        assert not lj.coefficient(k)
    assert lj.coefficient(3) == ring.symbol("zeta3") * F(-16, 3)
    assert lj.coefficient(5) == ring.symbol("zeta5") * F(-64, 5)


def test_log_i_expansion(ring):
    # log I(x) = 2 sum zeta_{2k} x^{2k}/(2k): even, gamma-free
    li = log_i_tilde(ring, 1, 8)
    for k in (1, 3, 5, 7):
        assert not li.coefficient(k)
    assert li.coefficient(2) == ring.symbol("zeta2") * 4
    assert li.coefficient(4) == ring.symbol("zeta4") * 8


def test_gamma3_preconditions(ring):
    assert gamma3_F(3, 2, ring).coefficient(0) == ring.one
    assert gamma3_F(2, -3, ring).coefficient(0) == ring.one
    with pytest.raises(ValueError):
        gamma3_F(3, 3, ring)


def test_q_n_values():
    assert q_n(0, 5) == 0
    assert q_n(1, 2) == 12 and q_n(1, 5) == 30   # 6d
    assert q_n(2, 2) == 180                      # 10 d (2d^2+1)


def test_ratio_formula_star(ring):
    for d in range(2, 7):
        lhs = scalar_div(b_kz(d, +1, ring), b_kz(d, -1, ring))
        assert lhs.equal_through(ratio_formula_rhs(d, ring), 7), d
        log = lhs.log()
        assert not log.coefficient(1)
        assert log.coefficient(3) == ring.symbol("zeta3") * (-32 * d)


def test_h_tilde_ratios_and_expansion(ring):
    for d in range(2, 7):
        ht = h_tilde(d, ring)
        assert scalar_div(b_kz(d, +1, ring), b_even_ref(d, ring)).equal_through(ht)
        assert (scalar_div(b_kz(d, -1, ring), b_even_ref(d, ring)) * ht).is_one()
        assert (b_kz(d, +1, ring) * b_kz(d, -1, ring)).equal_through(
            b_even_ref(d, ring) * b_even_ref(d, ring))
        # h_tilde is the square root of the star ratio
        assert (ht * ht).equal_through(ratio_formula_rhs(d, ring))
        log = ht.log()
        assert log.coefficient(3) == ring.symbol("zeta3") * (-16 * d)
        assert log.coefficient(5) == ring.symbol("zeta5") * (-64 * d * (2 * d * d + 1))
        assert log.coefficient(7) == ring.symbol("zeta7") * (
            -256 * d * (3 * d ** 4 + 5 * d * d + 1))


def test_no_gamma_or_even_zeta_in_ratio_logs(ring):
    for d in (2, 5):
        for series in (h_tilde(d, ring).log(),
                       scalar_div(b_kz(d, +1, ring), b_kz(d, -1, ring)).log()):
            for k in range(series.known_order + 1):
                c = series.coefficient(k)
                if not c:
                    continue
                assert not c.coefficient({"gamma": 1})
                for z in (2, 4, 6, 8):
                    assert not c.coefficient({"zeta%d" % z: 1}), (d, k, z)


def test_cos_factor_specializes_to_cosh(ring):
    # It(1)/It(2) specializes to (e^h + e^{-h})/2
    sp = specialize_even(cos_factor(ring))
    expect = F(1, 2) * (ScalarSeries.exp_multiple(1, 8) + ScalarSeries.exp_multiple(-1, 8))
    assert sp.equal_through(expect)


def test_euler_values():
    # zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945, zeta(8) = pi^8/9450
    assert euler_zeta_factor(1) == F(1, 6) / 4            # zeta2 / (2pi)^2
    assert euler_zeta_factor(2) == F(1, 90) / 16
    assert euler_zeta_factor(3) == F(1, 945) / 64
    assert euler_zeta_factor(4) == F(1, 9450) / 256


def test_specialize_even(ring):
    sp = specialize_even(log_i_tilde(ring, 1, 8))
    assert sp.coefficient(2) == F(-1, 6)
    assert specialize_even(ScalarSeries.const(1, 8, ring, var="hbar")).coefficient(0) == 1
    with pytest.raises(ValueError):
        specialize_even(log_j_tilde(ring, 1, 8))


def test_even_bridge_to_model_scalar(ring, phi0):
    for d in range(2, 7):
        sp = specialize_even(b_even_ref(d, ring), 5)
        scaled = F(d, d + 1) * sp
        assert scaled.coefficient(0) == 1
        assert scaled.coefficient(2) == F(1, 6)
        assert scaled.coefficient(4) == F(-(4 * d * d - 1), 120)
        assert sp.equal_through(b_semi(phi0, d), 4)


def test_gamma_cancels_in_z_sums(ring):
    # the two-term combinations entering the scalars have no gamma at hb^1
    for d in (2, 4):
        comb = z_pair(d, 2, ring) + z_pair(d, -2, ring)
        c1 = comb.coefficient(1)
        assert not c1.coefficient({"gamma": 1})


def test_phi_kz_symbolic(phi0):
    pkz = phi_kz_symbolic(5)
    ring = pkz.series.ring
    assert c_extract(pkz) == -ring.symbol("zt3")
    assert all(certify(pkz).values())
    tw = act_grt(pkz, grt_cap_psi(-ring.symbol("zt3"), -ring.symbol("zt5") * F(1, 2),
                                  5, ring))
    assert tw.series.equal_through(phi0.promote(ring).series)
