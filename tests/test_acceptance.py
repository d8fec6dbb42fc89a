"""Acceptance criteria, one test per criterion.

Every equality is exact over Q (tolerance zero).  Each test prints a
single PASS/FAIL line on the real stdout so the run leaves one line per
criterion regardless of capture settings.
"""

import sys
from fractions import Fraction as F

import _acceptance_log
from _holonomy_oracle import holonomy_algebra

from gtassoc import associators, braidreps, characters, grtgt, hecke, kz
from gtassoc.associators import (AssociatorCandidate, c_extract, certify,
                                 extend_associator, phi0_reference)
from gtassoc.braidreps import b3_example, diagonal_conjugator, gt_act_on_rep, phat
from gtassoc.characters import ExponentVector, chi_d
from gtassoc.hecke import (MatrixModel, a_entry, b_semi, hecke_infinitesimal,
                           q_series, rep_build)
from gtassoc.ncseries import NCSeries, nc_log
from gtassoc.scalar import ScalarSeries, scalar_div
from gtassoc.symcoef import SymRing
from gtassoc.tableaux import Partition, partitions_of, tableaux
from gtassoc.wbasis import XY, w_coordinates, w_element

E = ExponentVector


def announce(criterion, ok):
    _acceptance_log.record(criterion, ok)
    print("ACCEPTANCE %-38s %s (exact)" % (criterion, "PASS" if ok else "FAIL"),
          file=sys.__stdout__, flush=True)
    assert ok, criterion


def test_criterion_01_associator_suite(phi0):
    results = certify(phi0)
    ok = all(results.values())
    ok = ok and c_extract(phi0) == 0
    dims = holonomy_algebra(4, 6).dimensions()
    ok = ok and dims == [1, 6, 25, 90, 301, 966, 3025]
    announce("1 associator-suite", ok)


def test_criterion_02_extension_solver():
    start = AssociatorCandidate(NCSeries.one(XY, 1), 1)
    ext2, ker2 = extend_associator(start)
    ok = ext2.series.equal_through(NCSeries.one(XY, 2) + F(1, 24) * w_element(3, 2))
    ok = ok and ker2 == []
    ext3, ker3 = extend_associator(ext2)
    ok = ok and len(ker3) == 1
    co = w_coordinates(ker3[0], 3)
    ok = ok and co[4] == -co[5] != 0
    ext3_even, _ = extend_associator(ext2, parity=True)
    phi4 = phi0_reference(4).series.homogeneous(4)
    for c in (0, 1, F(-7, 2)):
        base = AssociatorCandidate(
            ext3_even.series + c * (w_element(4, 3) - w_element(5, 3)).truncated(3), 1)
        ext4, ker4 = extend_associator(base)
        ok = ok and ker4 == [] and ext4.series.homogeneous(4).equal_through(phi4.truncated(4))
    announce("2 extension-solver", ok)


def test_criterion_03_degree5_identities(phi0, ab_ring, gab_symbolic, cap_psi_symbolic):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    L = nc_log(gab_symbolic.series)
    ok = L.homogeneous(4).is_zero()
    co5 = w_coordinates(L, 5)
    # the degree-5 logarithm is b psi2 + a (w13 - w14)/24; expanding gives
    # the coordinates asserted below, with w14 carrying -(3b + a/24).  The
    # coefficientwise torsor equality asserted at the end pins this normal
    # form uniquely (any other w14 value would contradict it).
    ok = ok and co5[9] == -2 * b and co5[10] == -4 * b
    ok = ok and co5[11] == -4 * b and co5[12] == -2 * b
    ok = ok and co5[13] == -(b - a * F(1, 24))
    ok = ok and co5[14] == -(3 * b + a * F(1, 24))
    g5 = b * grtgt.psi2(5, ab_ring) + (a * F(1, 24)) * (
        w_element(13, 5, ab_ring) - w_element(14, 5, ab_ring))
    ok = ok and L.homogeneous(5).equal_through(g5.homogeneous(5))
    ok = ok and all(grtgt.gt_checks(gab_symbolic).values())
    base = phi0.promote(ab_ring)
    lhs = grtgt.act_gt(gab_symbolic, base).series
    rhs = grtgt.act_grt(base, cap_psi_symbolic).series
    ok = ok and lhs.equal_through(rhs)
    announce("3 degree5-identities", ok)


def test_criterion_04_character_formula(phi0, ab_ring, gab_symbolic):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    ok = True
    for d in range(2, 7):
        chi = chi_d(gab_symbolic, d, phi0)
        ok = ok and chi.coefficient(0) == 1
        ok = ok and all(not chi.coefficient(k) for k in (1, 2, 4))
        ok = ok and chi.coefficient(3) == a * (-16 * d)
        ok = ok and chi.coefficient(5) == b * (-128 * d * (1 + 2 * d * d))
        log = chi.log()
        ok = ok and all(not log.coefficient(k) for k in (1, 2, 4))
        # independent route: Burau diagonal conjugator on d+1 strands
        hook = Partition((2,) + (1,) * (d - 1))
        rho = hecke_infinitesimal(hook)
        rep = phat(rho, phi0).promote(ab_ring)
        twisted = gt_act_on_rep(rep, gab_symbolic)
        diag = diagonal_conjugator(rep, twisted)
        via_burau = scalar_div(diag[d - 1], diag[d - 2]) if d >= 3 else diag[1]
        ok = ok and via_burau.equal_through(chi, 5)
    announce("4 character-formula", ok)


def test_criterion_05_b3_example(phi0, ab_ring, gab_symbolic):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    ok = True
    for v in (F(5), F(7), F(1, 2)):
        rho = b3_example(v)
        rep = phat(rho, phi0).promote(ab_ring)
        twisted = gt_act_on_rep(rep, gab_symbolic)
        diag = diagonal_conjugator(rep, twisted)
        q2 = diag[1]
        q3 = scalar_div(diag[2], diag[1])
        ok = ok and q2.coefficient(0) == 1
        ok = ok and all(not q2.coefficient(k) for k in (1, 2, 4))
        ok = ok and q2.coefficient(3) == a * (F(-1, 8) * v * (v * v - 9))
        ok = ok and q2.coefficient(5) == b * (F(-9, 64) * v * (v * v - 9) * (v * v + 7))
        ok = ok and q3.coefficient(3) == a * (F(1, 16) * (v + 9) * (v * v - 9))
    announce("5 b3-example", ok)


def test_criterion_06_hecke_models(phi0, semi_model):
    ok = True
    for n in range(2, 7):
        for shape in partitions_of(n):
            rep = rep_build(shape, semi_model)
            ok = ok and rep.braid_relations_ok()
            ok = ok and hecke.delta_eigenvalues_ok(rep, shape, semi_model)
    q = q_series(7)
    qi = q_series(7, None, -1)
    for d in range(2, 7):
        blk = semi_model.block(d)
        trace = blk.entry(0, 0) + blk.entry(1, 1)
        det = blk.entry(0, 0) * blk.entry(1, 1) - blk.entry(0, 1) * blk.entry(1, 0)
        ok = ok and trace.equal_through(semi_model.q(1) - semi_model.q(-1))
        ok = ok and det.equal_through(
            -1 * ScalarSeries.one(det.maxdeg, det.ring, det.known_order))
        ok = ok and (a_entry(d + 1) * (q - a_entry(d))).equal_through(a_entry(d) * qi)
    unitary = MatrixModel("unitary", maxdeg=7)
    for n in range(2, 7):
        for shape in partitions_of(n):
            ok = ok and hecke.unitarity_check(rep_build(shape, unitary))
    for parts in ((2, 1), (2, 2), (3, 2)):
        shape = Partition(parts)
        r1 = phat(hecke_infinitesimal(shape), phi0)
        r2 = rep_build(shape, semi_model)
        ok = ok and all(r1.sigma(i).equal_through(r2.sigma(i))
                        for i in range(1, shape.n))
    announce("6 hecke-models", ok)


def test_criterion_07_b_expansion(phi0, semi_model, ab_ring):
    ok = True
    for d in range(2, 7):
        scaled = F(d, d + 1) * semi_model.b(d)
        ok = ok and scaled.coefficient(0) == 1
        ok = ok and not scaled.coefficient(1)
        ok = ok and scaled.coefficient(2) == F(1, 6)
        ok = ok and not scaled.coefficient(3)
        ok = ok and scaled.coefficient(4) == F(-(4 * d * d - 1), 120)
        ok = ok and not scaled.coefficient(5)
    a = ab_ring.symbol("a")
    twisted = grtgt.act_grt(phi0.promote(ab_ring),
                            grtgt.grt_cap_psi(a, ab_ring.const(0), 5, ab_ring))
    for d in range(2, 7):
        c3 = (F(d, d + 1) * b_semi(twisted, d)).coefficient(3)
        ok = ok and c3 == a * (-16 * d)   # 16 (-a) d
    announce("7 b-expansion", ok)


def test_criterion_08_difference_formula(phi0, ab_ring):
    a = ab_ring.symbol("a")
    base = phi0.promote(ab_ring)
    phi2 = grtgt.act_grt(base, grtgt.grt_cap_psi(a, ab_ring.const(0), 5, ab_ring))
    ok = c_extract(phi2) == -a
    rho = hecke_infinitesimal(Partition((2, 1)))
    diff = phat(rho, phi2).sigma(2) - phat(rho, base).sigma(2)
    ok = ok and all(not diff.entry(i, j).coefficient(k)
                    for k in range(3) for i in range(diff.n) for j in range(diff.n))

    def comm(x, y):
        return x * y - y * x

    w = comm(rho.t_matrix(2, 3), comm(rho.t_matrix(2, 3), rho.t_matrix(1, 2)))
    expect = (rho.perm_matrix(2) * w).constant_term()
    # c(Phi1) - c(Phi2) = 0 - (-a) = a
    ok = ok and all(diff.entry(i, j).coefficient(3) == a * expect[i][j]
                    for i in range(diff.n) for j in range(diff.n))
    announce("8 difference-formula", ok)


def test_criterion_09_resonance_theorem():
    ok = True
    for n in range(2, 9):
        for shape in partitions_of(n):
            expect = shape.is_hook() or shape.parts == (2, 2)
            ok = ok and characters.resonance(shape) == expect
    ok = ok and characters.tableau_diagonal(Partition((3, 2))) == [
        E({}), E({3: 1}), E({2: 1, 3: 1}), E({2: 1, 3: 1}), E({2: 2, 3: 1})]
    for n in range(2, 8):
        for shape in partitions_of(n):
            _, passed = characters.hook_identity(shape)
            ok = ok and passed
    for n in range(2, 9):
        for r in range(0, n):
            vecs = [v for _, v in characters.wedge_exponents(n, r)]
            ok = ok and len(set(vecs)) == len(vecs)
    announce("9 resonance-theorem", ok)


def test_criterion_10_kz_symbolic(phi0):
    ring = kz.kz_ring()
    ok = True
    for d in range(2, 7):
        ratio = scalar_div(kz.b_kz(d, +1, ring), kz.b_kz(d, -1, ring))
        ok = ok and ratio.equal_through(kz.ratio_formula_rhs(d, ring), 7)
        ht = kz.h_tilde(d, ring)
        ok = ok and scalar_div(kz.b_kz(d, +1, ring), kz.b_even_ref(d, ring)).equal_through(ht)
        ok = ok and (scalar_div(kz.b_kz(d, -1, ring), kz.b_even_ref(d, ring)) * ht).is_one()
        log = ht.log()
        ok = ok and log.coefficient(3) == ring.symbol("zeta3") * (-16 * d)
        ok = ok and log.coefficient(5) == ring.symbol("zeta5") * (-64 * d * (2 * d * d + 1))
        ok = ok and log.coefficient(7) == ring.symbol("zeta7") * (
            -256 * d * (3 * d ** 4 + 5 * d * d + 1))
        for k in range(log.known_order + 1):
            c = log.coefficient(k)
            if c:
                ok = ok and not c.coefficient({"gamma": 1})
                ok = ok and not any(c.coefficient({"zeta%d" % z: 1}) for z in (2, 4, 6, 8))
        ok = ok and kz.specialize_even(kz.b_even_ref(d, ring), 5).equal_through(
            b_semi(phi0, d), 4)
    announce("10 kz-symbolic", ok)


def test_criterion_11_ihara_projection(gab_symbolic):
    expected = {9: {(4, 1): F(-1)}, 10: {(3, 2): F(-1)}, 11: {(2, 3): F(-1)},
                12: {(1, 4): F(-1)}, 13: {}, 14: {}}
    ok = True
    for k, want in expected.items():
        img = grtgt.ihara_projection(NCSeries.one(XY, 5) + w_element(k, 5))
        img.pop((0, 0))
        ok = ok and img == want
    a_val, b_val, matched = grtgt.kappa_identification(gab_symbolic.series)
    kring = SymRing(("kappa3", "kappa5"))
    ok = ok and matched
    ok = ok and a_val == kring.symbol("kappa3") * F(1, 2)
    ok = ok and b_val == kring.symbol("kappa5") * F(1, 48)
    announce("11 ihara-projection", ok)
