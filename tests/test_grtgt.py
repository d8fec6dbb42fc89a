import math
from fractions import Fraction as F

import pytest

from gtassoc.associators import c_extract, certify
from gtassoc.braids import xi_word
from gtassoc.grtgt import (GrtElt, GtElt, act_grt, act_gt, certify_grt, exp_s, g_ab,
                           grt_cap_psi, grt_exp, grt_inverse, grt_mul, gt_checks,
                           gt_inverse, gt_mul, ihara_projection, ihara_psi_ab, iota,
                           kappa_identification, psi1, psi2, psi_ab)
from gtassoc.ncseries import NCSeries, commutator, is_grouplike, nc_log, nc_substitute
from gtassoc.symcoef import SymRing
from gtassoc.wbasis import XY, w_coordinates, w_element

from _holonomy_oracle import (braid_image, holonomy_algebra, pentagon_faces, permuted,
                              promoted_reference_defect, sigma_images)
from _holonomy_oracle import pentagon_defect as u_t4_defect


def test_psi2_from_involution_matrix():
    # the degree-5 change of variables y -> -x-y in the tabulated coordinates
    expected_matrix = [
        [-1, 1, -1, 1, 0, 0],
        [0, 1, -2, 3, 0, 0],
        [0, 0, -1, 3, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, -1, 2, 1, -1],
        [0, 0, 0, 1, 0, -1],
    ]
    x = NCSeries.letter(XY, "x", 5)
    y = NCSeries.letter(XY, "y", 5)
    for j, k in enumerate(range(9, 15)):
        image = nc_substitute(w_element(k, 5), {"x": x, "y": -1 * x - y})
        co = w_coordinates(image, 5)
        for i, kk in enumerate(range(9, 15)):
            assert co[kk] == expected_matrix[i][j], (k, kk)
    # applying it to the x-derivative element of the tabulated generator
    df2 = (-2 * w_element(10, 5) - 2 * w_element(11, 5) - 2 * w_element(12, 5)
           + 2 * w_element(13, 5) + w_element(14, 5))
    img = nc_substitute(df2, {"x": x, "y": -1 * x - y})
    assert img.equal_through(psi2(5))


def test_grt_exp_basics():
    f = grt_exp(psi1(5))
    assert f.series.homogeneous(3).equal_through(psi1(5).homogeneous(3))
    assert grt_exp(NCSeries.zero(XY, 5)).series.is_one()
    with pytest.raises(ValueError):
        grt_exp(NCSeries.letter(XY, "x", 5) * NCSeries.letter(XY, "y", 5))
    # through degree 5 the squared terms have not entered yet
    cap = grt_cap_psi(F(2), F(3), 5)
    assert cap.series.homogeneous(3).equal_through(2 * psi1(5).homogeneous(3))
    assert cap.series.homogeneous(5).equal_through((3 * psi2(5)).homogeneous(5))


def test_grt_exp_padding_keeps_the_known_order():
    x, y = NCSeries.letter(XY, "x", 5), NCSeries.letter(XY, "y", 5)
    psi = commutator(x, y).truncated(5, known_order=3)
    padded = grt_exp(psi.truncated(7)).series
    assert padded.maxdeg == 7 and padded.known_order == 3
    assert padded.terms == grt_exp(psi).series.terms
    with pytest.raises(ValueError, match="exceeds known order 3"):
        padded.is_one(4)


def test_cap_psi_is_graded_associator(cap_psi_symbolic):
    assert all(certify_grt(cap_psi_symbolic).values())


def test_grt_group_law():
    one = GrtElt(NCSeries.one(XY, 5))
    f = grt_exp(psi1(5))
    assert grt_mul(one, f).series.equal_through(f.series)
    assert grt_mul(f, one).series.equal_through(f.series)
    assert grt_mul(f, grt_inverse(f)).series.is_one()
    # degree-3 parts add
    g1, g2 = grt_exp(2 * psi1(5)), grt_exp(5 * psi1(5))
    co = w_coordinates(grt_mul(g1, g2).series, 3)
    assert co == {4: -7, 5: 7}
    # associativity at truncation
    g3 = grt_exp(F(1, 2) * psi1(5))
    lhs = grt_mul(grt_mul(g1, g2), g3).series
    rhs = grt_mul(g1, grt_mul(g2, g3)).series
    assert lhs.equal_through(rhs)


def test_act_grt_properties(phi0):
    one = GrtElt(NCSeries.one(XY, 5))
    assert act_grt(phi0, one).series.equal_through(phi0.series)
    z = F(7, 3)
    tw = act_grt(phi0, grt_exp((-z) * psi1(5)))
    assert c_extract(tw) == z
    assert tw.lam == phi0.lam
    assert all(certify(tw).values())


def test_exp_s_matches_substitution_action(phi0, ab_ring, cap_psi_symbolic):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    base = phi0.promote(ab_ring)
    lhs = exp_s(psi_ab(a, b, 5, ab_ring), base.series)
    rhs = act_grt(base, cap_psi_symbolic).series
    assert lhs.equal_through(rhs)


def test_degree5_action_formula(phi0, ab_ring, cap_psi_symbolic):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    base = phi0.promote(ab_ring)
    rhs = act_grt(base, cap_psi_symbolic).series
    x = NCSeries.letter(XY, "x", 5, ab_ring)
    y = NCSeries.letter(XY, "y", 5, ab_ring)
    w3 = w_element(3, 5, ab_ring)
    corr = w3 * psi1(5, ab_ring) + commutator(commutator(psi1(5, ab_ring), x), y)
    expect = base.series + a * psi1(5, ab_ring) + b * psi2(5, ab_ring) \
        + (a * F(1, 24)) * corr
    assert rhs.equal_through(expect)
    # the auxiliary bracket identity
    assert commutator(commutator(psi1(5), NCSeries.letter(XY, "x", 5)),
                      NCSeries.letter(XY, "y", 5)).equal_through(
        -1 * w_element(11, 5) - w_element(10, 5))


def test_iota_identity_and_g_ab_log(phi0, gab_symbolic, ab_ring):
    one = GrtElt(NCSeries.one(XY, 5))
    assert iota(phi0, one).series.is_one()
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    L = nc_log(gab_symbolic.series)
    assert L.homogeneous(3).equal_through(a * psi1(5, ab_ring).homogeneous(3))
    assert L.homogeneous(4).is_zero()
    co5 = w_coordinates(L, 5)
    # degree-5 part: b psi2 + a (w13 - w14)/24, so the w14 coordinate is
    # -(3b + a/24); forced by the torsor equality tested further down
    assert co5[9] == -2 * b and co5[12] == -2 * b
    assert co5[10] == -4 * b and co5[11] == -4 * b
    assert co5[13] == -(b - a * F(1, 24))
    assert co5[14] == -(3 * b + a * F(1, 24))
    g5 = b * psi2(5, ab_ring) + (a * F(1, 24)) * (w_element(13, 5, ab_ring)
                                                  - w_element(14, 5, ab_ring))
    assert L.homogeneous(5).equal_through(g5.homogeneous(5))


def test_iota_is_degree3_identity(phi0):
    z = F(5, 2)
    f = grt_exp(z * psi1(5))
    g = iota(phi0, f)
    # z' = z: both sides are congruent to 1 + z(w5 - w4) in degree 3
    assert nc_log(g.series).homogeneous(3).equal_through((z * psi1(5)).homogeneous(3))


def test_gt_checks(phi0, gab_symbolic):
    rep = gt_checks(GtElt(NCSeries.one(XY, 5)))
    assert all(rep.values())
    rep2 = gt_checks(gab_symbolic)
    assert all(rep2.values())
    bad = GtElt(NCSeries.one(XY, 5) + w_element(3, 5))
    rep3 = gt_checks(bad)
    assert not rep3["hexagon"]
    assert not rep3["duality"]


def test_act_gt_and_torsor(phi0, gab_symbolic, cap_psi_symbolic, ab_ring):
    base = phi0.promote(ab_ring)
    assert act_gt(GtElt(NCSeries.one(XY, 5, ab_ring)), base).series.equal_through(base.series)
    lhs = act_gt(gab_symbolic, base).series
    rhs = act_grt(base, cap_psi_symbolic).series
    assert lhs.equal_through(rhs)
    z = F(7, 3)
    g = iota(phi0, grt_exp((-z) * psi1(5)))
    assert c_extract(act_gt(g, phi0)) == z


def test_actions_commute(phi0):
    f = grt_exp(F(1, 2) * psi1(5))
    g = g_ab(F(1), F(0), phi0)
    lhs = act_gt(g, act_grt(phi0, f)).series
    rhs = act_grt(act_gt(g, phi0), f).series
    assert lhs.equal_through(rhs)


def test_act_grt_is_right_action(phi0):
    f1 = grt_exp(F(2) * psi1(5))
    f2 = grt_exp(F(1, 3) * psi1(5) + F(1, 2) * psi2(5))
    lhs = act_grt(act_grt(phi0, f1), f2).series
    rhs = act_grt(phi0, grt_mul(f1, f2)).series
    assert lhs.equal_through(rhs)


def test_act_gt_is_left_action(phi0):
    g1 = g_ab(F(1), F(2), phi0)
    g2 = g_ab(F(-1, 2), F(3), phi0)
    lhs = act_gt(g1, act_gt(g2, phi0)).series
    rhs = act_gt(gt_mul(g1, g2), phi0).series
    assert lhs.equal_through(rhs)


def test_gt_group_law(phi0, gab_rational):
    g1 = gab_rational
    g2 = g_ab(F(1), F(0), phi0)
    prod = gt_mul(g1, g2)
    assert is_grouplike(prod.series)
    assert gt_mul(g1, gt_inverse(g1)).series.is_one()
    one = GtElt(NCSeries.one(XY, 5))
    assert gt_mul(one, g1).series.equal_through(g1.series)
    assert gt_mul(g1, one).series.equal_through(g1.series)
    # associativity
    g3 = g_ab(F(0), F(1), phi0)
    lhs = gt_mul(gt_mul(g1, g2), g3).series
    rhs = gt_mul(g1, gt_mul(g2, g3)).series
    assert lhs.equal_through(rhs)


IHARA_IMAGES = {
    9: {(4, 1): F(-1)},
    10: {(3, 2): F(-1)},
    11: {(2, 3): F(-1)},
    12: {(1, 4): F(-1)},
    13: {},
    14: {},
}


def test_ihara_images_of_degree5_monomials():
    for k, expect in IHARA_IMAGES.items():
        img = ihara_projection(NCSeries.one(XY, 5) + w_element(k, 5))
        img.pop((0, 0))
        assert img == expect, k


def test_ihara_images_of_degree3_monomials():
    img4 = ihara_projection(NCSeries.one(XY, 5) + w_element(4, 5))
    assert img4[(2, 1)] == -1          # -x^2 y
    assert img4[(3, 1)] == 1           # +x^3 y
    assert img4[(4, 1)] == F(-11, 12)  # -(11/12) x^4 y
    assert img4[(2, 2)] == F(1, 2)
    assert img4[(2, 3)] == F(-1, 3)
    img5 = ihara_projection(NCSeries.one(XY, 5) + w_element(5, 5))
    assert img5[(1, 2)] == 1 and img5[(1, 3)] == -1
    assert img5[(1, 4)] == F(11, 12)
    assert img5[(3, 2)] == F(1, 3)
    assert img5[(2, 2)] == F(-1, 2) and img5[(2, 3)] == F(1, 2)


def test_kappa_identification(gab_symbolic):
    a_val, b_val, ok = kappa_identification(gab_symbolic.series)
    K = SymRing(("kappa3", "kappa5"))
    assert ok
    assert a_val == K.symbol("kappa3") * F(1, 2)
    assert b_val == K.symbol("kappa5") * F(1, 48)


def comm_mul(p, q, maxdeg):
    """Product of two {(deg_x, deg_y): coeff} polynomials through total degree maxdeg."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            if a1 + a2 + b1 + b2 > maxdeg:
                continue
            key = (a1 + a2, b1 + b2)
            cur = out.get(key)
            val = c1 * c2 if cur is None else cur + c1 * c2
            if val:
                out[key] = val
            elif cur is not None:
                del out[key]
    return out


def comm_exp(p, maxdeg, one_coeff):
    """sum_k p^k / k! in commutative x, y through total degree maxdeg."""
    out = {(0, 0): one_coeff}
    term = {(0, 0): one_coeff}
    for k in range(1, maxdeg + 1):
        term = comm_mul(term, p, maxdeg)
        term = {key: c * F(1, k) for key, c in term.items()}
        if not term:
            break
        for key, c in term.items():
            cur = out.get(key)
            val = c if cur is None else cur + c
            if val:
                out[key] = val
            elif cur is not None:
                del out[key]
    return out


def commutative_psi_ab(ring, kappa3, kappa5, maxdeg):
    """exp(sum_m kappa*_m/m! ((X+Y)^m - X^m - Y^m)) expanded in commutative
    variables from X = log(1+x), Y = log(1+y): the oracle for ihara_psi_ab."""
    X = {(k, 0): ring.const(F((-1) ** (k + 1), k)) for k in range(1, maxdeg + 1)}
    Y = {(0, k): ring.const(F((-1) ** (k + 1), k)) for k in range(1, maxdeg + 1)}
    XY_sum = {**X, **Y}
    arg = {}
    for m, kname in ((3, kappa3), (5, kappa5)):
        kc = ring.symbol(kname) * F(1, math.factorial(m))
        power_sum = power_x = power_y = {(0, 0): ring.one}
        for _ in range(m):
            power_sum = comm_mul(power_sum, XY_sum, maxdeg)
            power_x = comm_mul(power_x, X, maxdeg)
            power_y = comm_mul(power_y, Y, maxdeg)
        for key in set(power_sum) | set(power_x) | set(power_y):
            val = (power_sum.get(key, ring.zero) - power_x.get(key, ring.zero)
                   - power_y.get(key, ring.zero))
            if val:
                arg[key] = arg.get(key, ring.zero) + kc * val
    return comm_exp(arg, maxdeg, ring.one)


@pytest.mark.parametrize("maxdeg", [5, 7])
@pytest.mark.parametrize("kappas", [("kappa3", "kappa5"), ("k3", "k5")], ids=",".join)
def test_ihara_psi_ab_matches_the_commutative_expansion(maxdeg, kappas):
    ring = SymRing(kappas)
    got = ihara_psi_ab(ring, *kappas, maxdeg=maxdeg)
    assert got == commutative_psi_ab(ring, *kappas, maxdeg)
    assert got[(0, 0)] == 1 and all(got.values())
    assert max(a + b for a, b in got) == maxdeg


@pytest.mark.parametrize("over", ["Q", "Q[a,b]"])
def test_xi_images_equal_the_plain_word_folds(phi0, ab_ring, over):
    """The oracle's braid_image of each xi_ij word, which skips the identity
    permutation, equals the plain fold that permutes at every letter."""
    ref = phi0 if over == "Q" else phi0.promote(ab_ring)
    algebra = holonomy_algebra(4, 5)
    images = sigma_images(ref.series, ref.lam, algebra)
    for p in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        u, perm = braid_image(images, algebra, xi_word(4, *p))
        assert perm == (1, 2, 3, 4) and u.known_order == 5
        plain, perm = algebra.one().promote(ref.series.ring), (1, 2, 3, 4)
        for v in xi_word(4, *p):
            s, image, inverse = images[abs(v)]
            plain = plain * permuted(image if v > 0 else inverse, perm)
            perm = tuple(perm[s[i] - 1] for i in range(4))
        assert perm == (1, 2, 3, 4) and plain.terms == u.terms


def _lowest_part(defect):
    order = defect.order()
    return order, None if order is None else defect.homogeneous(order).terms


def test_gt_pentagon_defect_matches_promoted_reference(phi0, gab_symbolic, ab_ring):
    """The pentagon P - Q of g.phi0 in t_4, its U(T_4) defect and the 4-strand
    push through phi0's braid morphism agree on zero-ness, on the order of
    the defect and on its lowest-degree terms, for the member g_ab and five
    non-members."""
    from gtassoc.grtgt import _moved_reference, gt_pentagon_defect, gt_pentagon_push
    from gtassoc.ncseries import nc_exp
    a = ab_ring.symbol("a")
    log_g = nc_log(gab_symbolic.series)
    cases = [gab_symbolic.series] + [nc_exp(log_g + c * w_element(k, 5, ab_ring))
                                     for k, c in ((3, a), (4, a), (6, a), (9, F(1, 7)),
                                                  (13, F(1, 7)))]
    for n, series in enumerate(cases):
        defect = gt_pentagon_defect(series)
        oracle = promoted_reference_defect(series, phi0)
        assert gt_pentagon_push(series) == oracle.is_zero() == (n == 0), n
        assert _lowest_part(defect) == _lowest_part(oracle), n
        assert _lowest_part(u_t4_defect(_moved_reference(series))) == _lowest_part(oracle), n


def test_gt_checks_reports_pentagon_failure(gab_symbolic, ab_ring):
    from gtassoc.ncseries import nc_exp
    a = ab_ring.symbol("a")
    shifted = GtElt(nc_exp(nc_log(gab_symbolic.series) + a * w_element(4, 5, ab_ring)))
    rep = gt_checks(shifted)
    assert rep["pentagon"] is False


def test_gt_pentagon_faces_are_pinned(gab_symbolic):
    """The five Poly faces in U(T_4) of g_ab.phi0 for the generic g_ab, whose
    pentagon is its 4-strand equation, keep their exact terms."""
    import hashlib
    from gtassoc import grtgt
    from gtassoc.symcoef import render_coeff
    assert grtgt.gt_pentagon_defect(gab_symbolic.series).is_zero()
    moved = grtgt._moved_reference(gab_symbolic.series)
    faces = pentagon_faces(moved, holonomy_algebra(4, moved.known_order))
    lines = []
    for name, face in faces.items():
        lines.append("face %s known<=%d" % (name, face.known_order))
        lines += ["%s\t%s" % (w.hex(), render_coeff(c)) for w, c in sorted(face.terms.items())]
    assert {name: len(face.terms) for name, face in faces.items()} == {
        "d3": 300, "d1": 281, "d0": 45, "d2": 205, "d4": 45}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "4a63b75dd8951b5b793f5baa9f06ce2e6c327ae3b07eca5b8741bd64c65f4826")
