from fractions import Fraction as F

import pytest

from gtassoc.braidreps import diagonal_conjugator, gt_act_on_rep, phat
from gtassoc.characters import (ExponentVector, chi_d, chi_tableau, colliding_tableaux,
                                hook_identity, hook_vector, resonance, resonance_scan,
                                tableau_diagonal, wedge_exponents)
from gtassoc.grtgt import act_grt, g_ab, grt_cap_psi, gt_mul
from gtassoc.hecke import hecke_infinitesimal, rep_build
from gtassoc.scalar import ScalarSeries, scalar_div
from gtassoc.tableaux import Partition, partitions_of, tableaux

E = ExponentVector


def test_exponent_vector_basics():
    v = E({2: 1, 3: 2})
    assert v + E({3: 1}) == E({2: 1, 3: 3})
    assert E({2: 0}) == E() and not E().exps
    with pytest.raises(ValueError):
        E({1: 1})


def test_chi_tableau_examples():
    # Burau hooks: e_r carries chi_2 ... chi_r
    for n in (4, 6, 8):
        hook = Partition((2,) + (1,) * (n - 2))
        for r, t in enumerate(tableaux(hook), start=1):
            assert chi_tableau(t) == E({d: 1 for d in range(2, r + 1)})
    # [3,2] diagonal
    assert tableau_diagonal(Partition((3, 2))) == [
        E({}), E({3: 1}), E({2: 1, 3: 1}), E({2: 1, 3: 1}), E({2: 2, 3: 1})]
    # single tableau of [n] has the empty vector
    assert tableau_diagonal(Partition((4,))) == [E({})]


def test_chi_d_formula(phi0, gab_symbolic, ab_ring):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    for d in range(2, 7):
        chi = chi_d(gab_symbolic, d, phi0)
        assert chi.coefficient(0) == 1
        for k in (1, 2, 4):
            assert not chi.coefficient(k)
        assert chi.coefficient(3) == a * (-16 * d)
        assert chi.coefficient(5) == b * (-128 * d * (1 + 2 * d * d))
        log = chi.log()
        for k in (1, 2, 4):
            assert not log.coefficient(k)


def test_chi_d_identity_element(phi0):
    from gtassoc.grtgt import GtElt
    from gtassoc.ncseries import NCSeries
    one = GtElt(NCSeries.one(("x", "y"), 5))
    assert chi_d(one, 3, phi0).is_one()


def test_chi_d_multiplicative(phi0):
    g1 = g_ab(F(1), F(2), phi0)
    g2 = g_ab(F(3), F(5), phi0)
    g12 = gt_mul(g1, g2)
    for d in (2, 3):
        assert chi_d(g12, d, phi0).equal_through(chi_d(g1, d, phi0) * chi_d(g2, d, phi0))


def test_chi_d_reference_independent(phi0, gab_symbolic):
    ref2 = act_grt(phi0, grt_cap_psi(F(1, 3), F(2, 7), 5))
    for d in (2, 4):
        assert chi_d(gab_symbolic, d, phi0).equal_through(chi_d(gab_symbolic, d, ref2))


def test_chi_d_matches_burau_conjugator(phi0, gab_symbolic, ab_ring):
    # second, independent route for d in a small window
    for d in (2, 3, 4):
        n = d + 1
        hook = Partition((2,) + (1,) * (n - 2))
        rho = hecke_infinitesimal(hook)
        rep = phat(rho, phi0).promote(ab_ring)
        twisted = gt_act_on_rep(rep, gab_symbolic)
        diag = diagonal_conjugator(rep, twisted)
        via_burau = scalar_div(diag[d - 1], diag[d - 2]) if d >= 3 else diag[1]
        via_model = chi_d(gab_symbolic, d, phi0)
        assert via_burau.equal_through(via_model, 5)


def test_burau_diagonal_is_psi_ladder(phi0, gab_symbolic, ab_ring):
    # a_j = chi_2 ... chi_j on the Burau representation
    n = 5
    hook = Partition((2, 1, 1, 1))
    rho = hecke_infinitesimal(hook)
    rep = phat(rho, phi0).promote(ab_ring)
    twisted = gt_act_on_rep(rep, gab_symbolic)
    diag = diagonal_conjugator(rep, twisted)
    acc = None
    for j in range(2, n):
        chi = chi_d(gab_symbolic, j, phi0)
        acc = chi if acc is None else acc * chi
        assert diag[j - 1].equal_through(acc, 5)
    # spot value from the d = 2 specialization
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    assert diag[1].coefficient(3) == a * (-32)
    assert diag[1].coefficient(5) == b * (-2304)


@pytest.fixture(scope="module")
def chi_values(phi0, gab_symbolic):
    return {d: chi_d(gab_symbolic, d, phi0) for d in range(2, 7)}


@pytest.mark.parametrize("shape", [s for n in range(3, 7) for s in partitions_of(n)], ids=str)
def test_semi_normal_diagonal_is_tableau_monomials(shape, chi_values, semi_model,
                                                   gab_symbolic, ab_ring):
    # the matrix twist, the 2x2-block twist behind chi_d and the tableau
    # combinatorics agree: D_j = chi^{e(T_j)} / chi^{e(T_0)}, resonant shapes included
    def monomial(t):
        out = ScalarSeries.one(5, ab_ring)
        for d, e in chi_tableau(t).exps.items():
            for _ in range(e):
                out = out * chi_values[d]
        return out
    rep = rep_build(shape, semi_model).promote(ab_ring)
    diag = diagonal_conjugator(rep, gt_act_on_rep(rep, gab_symbolic))
    ts = tableaux(shape)
    assert len(diag) == len(ts)
    first = monomial(ts[0])
    for entry, t in zip(diag, ts):
        assert entry.known_order == rep.known_order
        assert entry.equal_through(scalar_div(monomial(t), first), 5), t.rows()


def test_hook_identity_all_shapes_through_7():
    for n in range(2, 8):
        for shape in partitions_of(n):
            hv, ok = hook_identity(shape)
            assert ok, shape


def test_hook_identity_self_conjugate_doubling():
    shape = Partition((2, 1))
    hv = hook_vector(shape)
    for t in tableaux(shape):
        assert chi_tableau(t) + chi_tableau(t.transpose()) == hv


def test_hook_vector_of_single_column():
    # [n] paired with its transpose: hooks of the column shape
    shape = Partition((4,))
    hv = hook_vector(shape)
    assert hv == E({})  # a single column has no hook pairs
    # the transpose tableau then carries the whole product
    t, = tableaux(shape)
    assert chi_tableau(t) + chi_tableau(t.transpose()) == hv


def test_resonance_classification():
    for n in range(2, 9):
        for shape in partitions_of(n):
            expect = shape.is_hook() or shape.parts == (2, 2)
            assert resonance(shape) == expect, shape
            assert resonance(shape) == resonance(shape.conjugate())
    rows = resonance_scan(8)
    assert sum(1 for _, free, _ in rows if free) == sum(
        1 for n in range(2, 9) for s in partitions_of(n)
        if s.is_hook() or s.parts == (2, 2))


def test_colliding_tableaux_construction():
    checked = 0
    for n in range(5, 9):
        for shape in partitions_of(n):
            if not shape.contains(Partition((3, 2))):
                continue
            t1, t2 = colliding_tableaux(shape)
            assert t1 != t2
            assert chi_tableau(t1) == chi_tableau(t2), shape
            checked += 1
    assert checked > 10
    # pure two-column value chi2 chi3^2 ... chi_{n1-3}^2 chi_{n1-2}
    for parts in ((3, 2), (4, 2), (4, 3), (5, 4)):
        shape = Partition(parts)
        n1 = parts[0] + 2
        t1, _ = colliding_tableaux(shape)
        expect = {2: 1}
        for d in range(3, n1 - 2):
            expect[d] = expect.get(d, 0) + 2
        expect[n1 - 2] = expect.get(n1 - 2, 0) + 1
        assert chi_tableau(t1) == E(expect), shape
    with pytest.raises(ValueError):
        colliding_tableaux(Partition((2, 2)))


def test_wedge_exponents():
    vs = dict(wedge_exponents(4, 2))
    assert vs[(1, 2)] == E({2: 1})
    assert vs[(1, 3)] == E({2: 1, 3: 1})
    assert vs[(2, 3)] == E({2: 2, 3: 1})
    assert [v for _, v in wedge_exponents(5, 0)] == [E({})]
    # rank 1 recovers the Burau ladder
    assert [v for _, v in wedge_exponents(6, 1)] == [
        E({}), E({2: 1}), E({2: 1, 3: 1}), E({2: 1, 3: 1, 4: 1}),
        E({2: 1, 3: 1, 4: 1, 5: 1})]
    for n in range(2, 9):
        for r in range(0, n):
            vecs = [v for _, v in wedge_exponents(n, r)]
            assert len(set(vecs)) == len(vecs), (n, r)
    with pytest.raises(ValueError):
        wedge_exponents(4, 4)
