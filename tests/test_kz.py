import hashlib
from fractions import Fraction as F

import pytest

from gtassoc.associators import c_extract, certify
from gtassoc.grtgt import act_grt, grt_cap_psi
from gtassoc.hecke import b_semi
from gtassoc.kz import (_COS_PAIRS, DEFAULT_HBAR_ORDER, _gamma3_pairs, b_even_ref, b_kz,
                        euler_zeta_factor, gamma3_F, h_tilde, hbar_series, kz_ring, loggamma,
                        loggamma_sum, phi_kz_symbolic, q_n, ratio_formula_rhs,
                        specialize_even)
from gtassoc.scalar import ScalarSeries, scalar_div, to_text
from gtassoc.symcoef import SymRing


@pytest.fixture(scope="module")
def ring():
    return kz_ring()


def log_j_tilde(ring, m, maxdeg):
    """log J(2 m hb)."""
    return loggamma_sum(ring, [(1, 2 * m), (-1, -2 * m)], maxdeg)


def log_i_tilde(ring, m, maxdeg):
    """log I(2 m hb)."""
    return loggamma_sum(ring, [(1, 2 * m), (1, -2 * m)], maxdeg)


def z_pair(a, b, ring, maxdeg=DEFAULT_HBAR_ORDER):
    """Z(a,b) = F(a,b) F(b,-a)."""
    return loggamma_sum(ring, _gamma3_pairs(a, b) + _gamma3_pairs(b, -a), maxdeg).exp()


def cos_factor(ring, maxdeg=DEFAULT_HBAR_ORDER):
    """(q + q^{-1})/2 as It(1)/It(2)."""
    return loggamma_sum(ring, _COS_PAIRS, maxdeg).exp()


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


@pytest.mark.parametrize("pairs", [
    [(1, 3), (F(1, 2), -2), (-1, 0), (F(-1, 2), 5), (2, -1)],
    [(1, 2), (-1, -2)],
    [(F(1, 2), 4), (F(1, 2), -4), (-1, 0)],
    [(1, 0), (F(-1, 2), 0)],
    [(1, 3), (-1, 3)],
], ids=["mixed", "j", "halves", "all-m-zero", "cancelling"])
def test_loggamma_sum_is_the_weighted_loggamma_sum(ring, pairs):
    want = hbar_series(ring, 8)
    for w, m in pairs:
        want = want + F(w) * loggamma(hbar_series(ring, 8, {1: ring.const(m)}))
    got = loggamma_sum(ring, pairs, 8)
    assert got.known_order == want.known_order == 8
    assert got.terms == want.terms


def _kz_calls():
    """name -> f(ring, maxdeg) for every scalar built from a log-Gamma sum."""
    calls = {"cos_factor": cos_factor,
             "gamma3_F(3,2)": lambda r, n: gamma3_F(3, 2, r, n),
             "gamma3_F(2,-3)": lambda r, n: gamma3_F(2, -3, r, n),
             "z_pair(4,2)": lambda r, n: z_pair(4, 2, r, n),
             "z_pair(-4,-2)": lambda r, n: z_pair(-4, -2, r, n)}
    for m in (1, 3):
        calls["log_i_tilde(%d)" % m] = lambda r, n, m=m: log_i_tilde(r, m, n)
        calls["log_j_tilde(%d)" % m] = lambda r, n, m=m: log_j_tilde(r, m, n)
    for d in range(2, 7):
        calls["b_kz(%d,+1)" % d] = lambda r, n, d=d: b_kz(d, 1, r, n)
        calls["b_kz(%d,-1)" % d] = lambda r, n, d=d: b_kz(d, -1, r, n)
        calls["b_even_ref(%d)" % d] = lambda r, n, d=d: b_even_ref(d, r, n)
        calls["h_tilde(%d)" % d] = lambda r, n, d=d: h_tilde(d, r, n)
    return calls


KZ_CALLS = _kz_calls()

# sha256 of scalar.to_text at hb-order 8 over kz_ring(), each known through 8;
# taken when every factor was expanded by its own loggamma series
KZ_PINS = {
    "b_even_ref(2)": "d1637259fda2851f840f439c4988a1d55a6d27b055c517fe659863d02e7a26f9",
    "b_even_ref(3)": "acffd3fa484535b1f76129043f660eb79dc05c011ac28a9a83fd41b7990c7a0a",
    "b_even_ref(4)": "b8cbf4aea176e628fa1c748a5289598e6d389732606af5b405454ee3b6dd4582",
    "b_even_ref(5)": "dc2acd12996e9c7069222469696415a393d9c9d1ed297474c15cf17196f88b8f",
    "b_even_ref(6)": "714c97a6c022fd66708d617da603ab0a8124266f25ca6fb43adaa3ca2df71a8e",
    "b_kz(2,+1)": "77d360c6060ed39f6ef2191cd337bef2aaacd960e634b3d4a3888ee8e885ae42",
    "b_kz(2,-1)": "5208ca0aa5a06554f86ed8fcf406b42512485ae57b60132a0adfe3971cdc9f64",
    "b_kz(3,+1)": "081fc153f440abb2efb0149631ae46c852f1c5bec834e8cd3aa253776f312d41",
    "b_kz(3,-1)": "bf98dc65d82df60bfeb9deb0c6e70d2b91fa0cab3733b2201397b522366969fd",
    "b_kz(4,+1)": "db5a3a1b858caf2329be1abbd50d1c0c7ed3dd4a1d0d6539258b10ba5692b464",
    "b_kz(4,-1)": "1fe03e5473dad8cd7739e0531640022f35211c5c6dba5fd7a558127bffd08411",
    "b_kz(5,+1)": "e512900d0adfee785a8c23ed3d70ddd6258bcaa627dc9e8c752f0e040069c8cb",
    "b_kz(5,-1)": "56a1fd58935b5de35772ca0643cef7a3e1fec1f8c0b327bba0b6e3b96948365d",
    "b_kz(6,+1)": "c4264daa5d981c4f300a5de28b796116a0ac8f0da234849bf174ebf32ac66565",
    "b_kz(6,-1)": "91a45339431a242362b170f0a2868cca5bb1d15eccc71c6d49cee342c0f85b58",
    "cos_factor": "15cba6d8b3432e55313073a90a1b850754a71d18e6c46b19116bb5bb52ab2045",
    "gamma3_F(2,-3)": "fd80ffc99593b621fc5e5efe202d1801c96810fa41534aa284115a4849f40c21",
    "gamma3_F(3,2)": "f5c9630ca6cbe0258b61081091ab29dd6b3886113a41fd9b7f15b46c9ca97e07",
    "h_tilde(2)": "01fd3f3b2ba030966c2aac4b6a4510510b4f17a0b1230bf1206037202ca6dbe1",
    "h_tilde(3)": "f430128d4e10f88f8cf7c3c9cbdf5c768f210c8a50f3d85df2808a821e31af20",
    "h_tilde(4)": "ddcb9ceb0099ff80e61937f9b50b23855733976e0c562a84a0747de4595f1ace",
    "h_tilde(5)": "867a81a674354ac8e04cd13fb16c9747af9791cdd47d5abce458fd69fcf73085",
    "h_tilde(6)": "6af6e7a592b712b67e7c1634cafc742206d7763996bd422a904b697cee27d361",
    "log_i_tilde(1)": "3a3317ecfebe86bccd6e918adf2a4cb40aa79466928552ca4421ee843a2a0538",
    "log_i_tilde(3)": "d613b2557a43347f2605371e95c6ebbaa3ffda8db135a0735586ec1a7cacdf47",
    "log_j_tilde(1)": "f04c4cb2f3f8d1b46e6e275fa3a088790a4cab4f02a04b486320ed872816000f",
    "log_j_tilde(3)": "641babbcdf9fea34d653a29462f2fbe1b909c6845716e4dba1dec273fea76855",
    "z_pair(-4,-2)": "0918e57bbd4d9fcbf234df17dc75306ea21c536dff4fab139d5594bb7b482d05",
    "z_pair(4,2)": "a86fb6e91767223d10d046ed7df398f5ef09303b328209c33e9cafca8102dd78",
}


@pytest.mark.parametrize("name", sorted(KZ_PINS))
def test_kz_scalar_pins(ring, name):
    value = KZ_CALLS[name](ring, 8)
    assert value.known_order == 8
    assert hashlib.sha256(to_text(value).encode()).hexdigest() == KZ_PINS[name]


@pytest.mark.parametrize("zeta_max", [5, 7])
def test_missing_zeta_is_refused_as_loggamma_refuses(zeta_max):
    """Each scalar needs every zeta_k through its order, as loggamma does, even
    where the zeta_k coefficient cancels (the even zetas of h_tilde)."""
    small = kz_ring(zeta_max)
    for maxdeg in range(2, 9):
        try:
            loggamma(hbar_series(small, maxdeg, {1: small.one}))
            refusal = None
        except ValueError as err:
            refusal = str(err)
        assert (refusal is None) == (maxdeg <= zeta_max)
        for name, call in KZ_CALLS.items():
            if refusal is None:
                assert call(small, maxdeg).known_order == maxdeg
            else:
                with pytest.raises(ValueError) as info:
                    call(small, maxdeg)
                assert str(info.value) == refusal, (name, maxdeg)


def test_a_ring_without_zetas_gives_the_zero_series_for_zero_pairs():
    bare = SymRing(("gamma",))
    got = loggamma_sum(bare, [(1, 0), (-2, 0)], 4)
    assert got.known_order == 4 and got.is_zero()
    assert loggamma(hbar_series(bare, 4)).is_zero()


def test_a_ring_without_zetas_forms_the_gamma_term_alone():
    bare = SymRing(("gamma",))
    want = {1: -2 * bare.symbol("gamma")}
    assert loggamma_sum(bare, [(1, 2)], 1).terms == want
    assert loggamma(hbar_series(bare, 1, {1: bare.const(2)})).terms == want


def test_a_ring_without_zetas_refuses_a_needed_zeta():
    bare = SymRing(("gamma",))
    with pytest.raises(ValueError, match="^needs zeta_2: "):
        loggamma_sum(bare, [(1, 2)], 4)
    with pytest.raises(ValueError, match="^needs zeta_2: "):
        loggamma(hbar_series(bare, 4, {1: bare.const(2)}))
