from fractions import Fraction as F

import pytest

from gtassoc.braidreps import (BraidRep, InfinitesimalRep, _verify_conjugation, b3_example,
                               diagonal_conjugator, gt_act_on_rep, phat)
from gtassoc.grtgt import act_gt, g_ab, grt_cap_psi, act_grt
from gtassoc.hmatrix import HMatrix
from gtassoc.scalar import ScalarSeries, scalar_div
from gtassoc.tableaux import Partition, partitions_of
from gtassoc.hecke import hecke_infinitesimal, rep_build

import _dense_oracle as dense
from _holonomy_oracle import braid_image, holonomy_algebra, sigma_images


def test_hmatrix_log_exp():
    h = ScalarSeries.gen(5)
    e01 = [[F(0), F(1)], [F(0), F(0)]]
    m = HMatrix.identity(2, 5) + h * HMatrix.from_const(e01, 5)
    L = m.log()
    # log(1 + hE) = hE for nilpotent E of square zero
    assert L.equal_through(h * HMatrix.from_const(e01, 5))
    assert L.exp().equal_through(m)
    with pytest.raises(ValueError):
        (HMatrix.from_const([[F(2)]], 5)).log()


def test_b3_structure():
    for v in (F(5), F(7), F(1, 2)):
        rho = b3_example(v)
        s = rho.t_matrix(1, 3) + rho.t_matrix(2, 3)
        expect = [(3 - v) / 2, (3 + v) / 2, F(3)]
        assert s.constant_term() == [[expect[i] if i == j else 0 for j in range(3)]
                                     for i in range(3)]
    with pytest.raises(ValueError):
        b3_example(F(3))
    with pytest.raises(ValueError):
        b3_example(0)
    # v = -1 zeroes the denominator 1 + v of one entry
    with pytest.raises(ValueError, match="degenerate parameter"):
        b3_example(-1)


def _const(grid):
    return HMatrix.from_const(grid, 0)


def test_invalid_rep_rejected():
    bad_t = {(1, 2): _const([[1, 0], [0, 0]]),
             (1, 3): _const([[0, 1], [1, 0]]),
             (2, 3): _const([[0, 0], [0, 1]])}
    s = [_const([[0, 1], [1, 0]]), _const([[1, 0], [0, -1]])]
    with pytest.raises(ValueError):
        InfinitesimalRep(3, s, bad_t)
    with pytest.raises(ValueError, match="constant matrices"):
        InfinitesimalRep(3, [HMatrix.from_const([[1, 0], [0, 1]], 2)] * 2, bad_t)


@pytest.mark.parametrize("shape", [(3, 1), (2, 2)])
def test_perturbed_disjoint_t_raises_its_first_commutator(shape):
    """A perturbed t_ij no longer commutes with its disjoint t_kl; the first
    problem is [t_ab, t_cd] != 0 with ab before cd in (12, 13, 14, 23, 24, 34)."""
    rho = hecke_infinitesimal(Partition(shape))
    s = [rho.s[i] for i in range(1, 4)]
    bump = HMatrix.from_terms(rho.N, {(0, 0, rho.N - 1): F(1, 3)}, 0)
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for ij in pairs:
        kl = next(p for p in pairs if not set(p) & set(ij))
        t = dict(rho.t)
        t[ij] = t[ij] + bump
        first, second = sorted((ij, kl))
        message = "invalid infinitesimal representation: [t_%d%d, t_%d%d] != 0" % (first + second)
        with pytest.raises(ValueError) as info:
            InfinitesimalRep(4, s, t)
        assert str(info.value) == message


@pytest.mark.parametrize("shape", [s for n in range(2, 6) for s in partitions_of(n)],
                         ids=lambda s: ",".join(map(str, s.parts)))
def test_hecke_infinitesimal_equals_the_grid_oracle(shape):
    """The sparse tableau walk and conjugations give the dense grids entry for entry."""
    rho = hecke_infinitesimal(shape)
    s, t = dense.hecke_grids(shape)
    assert [rho.perm_matrix(i).constant_term() for i in range(1, shape.n)] == s
    assert {p: m.constant_term() for p, m in rho.t.items()} == t
    assert all(m.maxdeg == m.known_order == 0 for m in [*rho.s.values(), *rho.t.values()])


@pytest.mark.parametrize("v", [F(5), F(1, 2), F(-2)], ids=str)
def test_b3_example_equals_the_grid_oracle(v):
    rho = b3_example(v)
    s, t = dense.b3_grids(v)
    assert [rho.perm_matrix(i).constant_term() for i in (1, 2)] == s
    assert {p: m.constant_term() for p, m in rho.t.items()} == t


def _scaled(grid, c):
    return [[c * x for x in row] for row in grid]


def _bumped(grid, i, j, c=F(1, 3)):
    out = [list(row) for row in grid]
    out[i][j] += c
    return out


# each perturbation of the (2, 1, 1) grids breaks the relation kind it names
_PERTURBATIONS = {
    "involution": lambda s, t: ([_scaled(s[0], 2), s[1], s[2]], t),
    "braid": lambda s, t: ([s[0], _scaled(s[1], -1), s[2]], t),
    "commute": lambda s, t: ([s[0], s[1], _bumped(s[2], 0, 1)], t),
    "disjoint": lambda s, t: (s, {**t, (1, 2): _bumped(t[1, 2], 0, 2)}),
    "four-term": lambda s, t: (s, {**t, (1, 3): _bumped(t[1, 3], 1, 0)}),
    "equivariance": lambda s, t: (s, {**t, (1, 2): dense.mat_add(t[1, 2], dense.mat_identity(3))}),
}


def _kind(problem):
    for kind, mark in (("involution", "involution"), ("braid", "braid relation"),
                       ("commute", "do not commute"), ("four-term", " + t_"),
                       ("equivariance", "equivariance"), ("disjoint", "] != 0")):
        if mark in problem:
            return kind


@pytest.mark.parametrize("kind", [None, *_PERTURBATIONS])
def test_validate_lists_the_grid_oracles_problems(kind):
    """validate's HMatrix products give the grid oracle's problem list, in its order."""
    shape = Partition((2, 1, 1))
    s, t = dense.hecke_grids(shape)
    if kind is not None:
        s, t = _PERTURBATIONS[kind](s, t)
    rho = InfinitesimalRep(4, [_const(m) for m in s], {p: _const(m) for p, m in t.items()},
                           check=False)
    problems = rho.validate()
    assert problems == dense.grid_problems(4, s, t)
    assert (kind in map(_kind, problems)) if kind else not problems


def test_phat_b3(phi0):
    rho = b3_example(F(5))
    R = phat(rho, phi0)
    assert R.braid_relations_ok()
    assert R.pure_braid_depth_ok()
    h = ScalarSeries.gen(R.maxdeg, R.ring, R.known_order)
    for r in (2, 3):
        L = R.delta(r).log()
        hY = h * rho.y_matrix(r).truncated(R.maxdeg, R.known_order).promote(R.ring)
        assert L.equal_through(hY)


def _rho_of_perm(rho, p):
    """rho(p), with p written as s_{i_k} ... s_{i_1} by sorting it with adjacent swaps."""
    p, out = list(p), HMatrix.identity(rho.N, 0)
    while p != sorted(p):
        i = next(i for i in range(1, rho.n) if p[i - 1] > p[i])
        p[i - 1], p[i] = p[i], p[i - 1]
        out = rho.perm_matrix(i) * out
    return out


def _rho_of_pair(rho, u, p, maxdeg):
    """u . p through rho: each normal-form word of u becomes the product of the
    h rho(t_ij) along it, and p its permutation matrix."""
    terms = {}
    for word, c in u.terms.items():
        m = HMatrix.identity(rho.N, 0)
        for letter in word:
            m = m * rho.t_matrix(*u.algebra.pair_of[letter])
        for (_, i, j), v in m.terms.items():
            key = (len(word), i, j)
            terms[key] = terms.get(key, 0) + c * v
    image = HMatrix.from_terms(rho.N, terms, maxdeg, known_order=u.known_order)
    return image * _rho_of_perm(rho, p).truncated(maxdeg, u.known_order)


@pytest.mark.parametrize("rho, words", [
    (b3_example(F(5)), [(1,), (-2,), (1, 2, -1), (2, -1, -1, 2), (1, 2, 1, 1, 2, 1)]),
    (hecke_infinitesimal(Partition((3, 1))), [(-2,), (1, 2, -1), (2, 3, -1, 2), (-3, 1, -2)]),
], ids=["b3-v5", "hecke-3,1"])
def test_braid_image_through_rho_is_phat(rho, words, phi0):
    """sigma_images and braid_image, pushed through rho, give phat's images,
    inverses and non-pure words included."""
    algebra = holonomy_algebra(rho.n, phi0.maxdeg)
    images = sigma_images(phi0.series, phi0.lam, algebra)
    R = phat(rho, phi0)
    for word in words:
        u, p = braid_image(images, algebra, word)
        assert _rho_of_pair(rho, u, p, R.maxdeg).equal_through(R.image(word)), word


def test_phat_one_dimensional(phi0):
    rho = InfinitesimalRep(2, [_const([[1]])], {(1, 2): _const([[2]])})
    R = phat(rho, phi0)
    assert R.sigma(1).entry(0, 0).equal_through(ScalarSeries.exp_multiple(1, 5))


def test_phat_hecke_eigenvalues(phi0):
    # each generator image satisfies (M - q)(M + q^{-1}) = 0
    rho = hecke_infinitesimal(Partition((2, 1)))
    R = phat(rho, phi0)
    q = ScalarSeries.exp_multiple(1, 5)
    qi = ScalarSeries.exp_multiple(-1, 5)
    for i in (1, 2):
        M = R.sigma(i)
        eye = HMatrix.identity(M.n, M.maxdeg, M.ring, M.known_order)
        assert ((M - q * eye) * (M + qi * eye)).is_zero()


def test_gt_twist_compatibility(phi0, ab_ring, gab_symbolic):
    rho = b3_example(F(5))
    R = phat(rho, phi0).promote(ab_ring)
    Rt = gt_act_on_rep(R, gab_symbolic)
    phi_t = act_gt(gab_symbolic, phi0.promote(ab_ring))
    R2 = phat(rho, phi_t)
    for i in (1, 2):
        assert Rt.sigma(i).equal_through(R2.sigma(i))
    # delta images are invariant under the twist
    for r in (2, 3):
        assert Rt.delta(r).equal_through(R.delta(r))


def test_identity_twist(phi0):
    from gtassoc.grtgt import GtElt
    from gtassoc.ncseries import NCSeries
    rho = b3_example(F(5))
    R = phat(rho, phi0)
    Rt = gt_act_on_rep(R, GtElt(NCSeries.one(("x", "y"), 5)))
    for i in (1, 2):
        assert Rt.sigma(i).equal_through(R.sigma(i))


def test_trivial_conjugator(phi0):
    rho = b3_example(F(5))
    R = phat(rho, phi0)
    diag = diagonal_conjugator(R, R)
    for a in diag:
        assert a.is_one()


B3_CASES = [F(5), F(7), F(1, 2)]


@pytest.mark.parametrize("v", B3_CASES)
def test_b3_characters(v, phi0, ab_ring, gab_symbolic):
    a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
    rho = b3_example(v)
    R = phat(rho, phi0).promote(ab_ring)
    Rt = gt_act_on_rep(R, gab_symbolic)
    diag = diagonal_conjugator(R, Rt)
    q2 = diag[1]
    q3 = scalar_div(diag[2], diag[1])
    assert q2.coefficient(0) == 1
    for k in (1, 2, 4):
        assert not q2.coefficient(k)
        assert not q3.coefficient(k)
    assert q2.coefficient(3) == a * (F(-1, 8) * v * (v * v - 9))
    assert q2.coefficient(5) == b * (F(-9, 64) * v * (v * v - 9) * (v * v + 7))
    assert q3.coefficient(3) == a * (F(1, 16) * (v + 9) * (v * v - 9))
    # the quintic coefficient factors exactly as (9/128)(v+5)(v^2-9)(v^2-4v+27)
    assert q3.coefficient(5) == b * (F(9, 128) * (v + 5) * (v * v - 9) * (v * v - 4 * v + 27))


def test_conjugator_multiplicativity(phi0):
    # twisting by a product conjugates by the product of the diagonals
    rho = b3_example(F(5))
    R = phat(rho, phi0)
    g1 = g_ab(F(1), F(2), phi0)
    g2 = g_ab(F(3), F(5), phi0)
    from gtassoc.grtgt import gt_mul
    d1 = diagonal_conjugator(R, gt_act_on_rep(R, g1))
    d2 = diagonal_conjugator(R, gt_act_on_rep(R, g2))
    d12 = diagonal_conjugator(R, gt_act_on_rep(R, gt_mul(g1, g2)))
    for j in range(R.N):
        assert d12[j].equal_through(d1[j] * d2[j])


def test_difference_formula(phi0, ab_ring):
    a = ab_ring.symbol("a")
    base = phi0.promote(ab_ring)
    phi2 = act_grt(base, grt_cap_psi(a, ab_ring.const(0), 5, ab_ring))
    rho = hecke_infinitesimal(Partition((2, 1)))
    R0 = phat(rho, base)
    R2 = phat(rho, phi2)
    diff = R2.sigma(2) - R0.sigma(2)
    for k in range(3):
        for i in range(diff.n):
            for j in range(diff.n):
                assert not diff.entry(i, j).coefficient(k)

    # the grid oracle, independent of the HMatrix commutators of report.verify_braid
    t12, t23, s2 = (m.constant_term()
                    for m in (rho.t_matrix(1, 2), rho.t_matrix(2, 3), rho.perm_matrix(2)))
    expect = dense.mat_mul(s2, dense.commutator(t23, dense.commutator(t23, t12)))
    for i in range(diff.n):
        for j in range(diff.n):
            assert diff.entry(i, j).coefficient(3) == a * expect[i][j]


def _perturbed_sigma2(phi0, gab_rational):
    R = phat(b3_example(F(5)), phi0)
    Rt = gt_act_on_rep(R, gab_rational)
    bump = HMatrix.from_terms(3, {(3, 0, 1): F(1)}, 5)
    return R, BraidRep(3, [Rt.sigma(1), Rt.sigma(2) + bump])


def _disagree_on_delta2(phi0, gab_rational):
    R = phat(b3_example(F(5)), phi0)
    return R, BraidRep(3, [(1 + ScalarSeries.gen(5)) * R.sigma(1), R.sigma(2)])


def _same_deltas_not_conjugate(phi0, gab_rational):
    # delta_2 = sigma_1^2 and delta_3 = sigma_2 delta_2 sigma_2 ignore the sign of sigma_1
    R = phat(b3_example(F(5)), phi0)
    return R, BraidRep(3, [-R.sigma(1), R.sigma(2)])


def _reducible_identities(phi0, gab_rational):
    one = HMatrix.identity(2, 5)
    R = BraidRep(3, [one, one])
    return R, R


@pytest.mark.parametrize("pair, message", [
    (_perturbed_sigma2, "delta_3"),
    (_disagree_on_delta2, "delta_2"),
    (_same_deltas_not_conjugate, "verification failed"),
    (_reducible_identities, "reducible"),
], ids=["perturbed-sigma2", "disagree-on-delta2", "same-deltas-not-conjugate",
        "reducible-identities"])
def test_diagonal_conjugator_refuses(pair, message, phi0, gab_rational):
    rep, twisted = pair(phi0, gab_rational)
    with pytest.raises(ValueError, match=message):
        diagonal_conjugator(rep, twisted)


def _grid_conjugation(rep, twisted, diag):
    """D sigma'_i = sigma_i D compared as two N x N grids of entry products,
    zeros included: the oracle for the diagonal-matrix check."""
    for i in range(1, rep.n):
        a, b = rep.sigma(i), twisted.sigma(i)
        lhs = HMatrix([[diag[r] * b.entry(r, c) for c in range(rep.N)] for r in range(rep.N)])
        rhs = HMatrix([[a.entry(r, c) * diag[c] for c in range(rep.N)] for r in range(rep.N)])
        if not lhs.equal_through(rhs):
            return False
    return True


_CONJUGATION_CASES = ([("b3", v) for v in (F(5), F(1, 2), F(-2))]
                      + [("semi", s) for n in range(3, 6) for s in partitions_of(n)])


@pytest.mark.parametrize("case", _CONJUGATION_CASES, ids=str)
def test_conjugation_check_reads_as_the_grids_do(case, phi0, semi_model, gab_symbolic,
                                                 ab_ring):
    """The diagonal-matrix check gives the grid oracle's verdict through the
    same order: with D cut to known order k, a bump of sigma'_1 at h^k fails
    both and a bump at h^(k+1) passes both."""
    kind, arg = case
    rho = phat(b3_example(arg), phi0) if kind == "b3" else rep_build(arg, semi_model)
    rep = rho.promote(ab_ring)
    twisted = gt_act_on_rep(rep, gab_symbolic)
    diag = diagonal_conjugator(rep, twisted)
    for k in (rep.known_order, rep.known_order - 2):
        cut = [e._like(e.terms, k) for e in diag]
        for power in (None, k, k + 1):
            bumped = twisted
            if power is not None and power <= rep.maxdeg:
                bump = HMatrix.from_terms(rep.N, {(power, 0, 0): ab_ring.one}, rep.maxdeg, ab_ring)
                bumped = BraidRep(rep.n, [twisted.sigma(1) + bump]
                                  + [twisted.sigma(i) for i in range(2, rep.n)])
            want = _grid_conjugation(rep, bumped, cut)
            assert want == (power is None or power > k)
            assert _verify_conjugation(rep, bumped, cut) == want


def test_delta_gamma_relation_and_centrality(phi0):
    # delta_r = gamma_r gamma_{r-1}^{-1}, and gamma_r commutes with the
    # first r-1 generators, checked through a faithful-enough image
    from gtassoc.braids import BraidWord
    rho = hecke_infinitesimal(Partition((2, 1, 1)))
    rep = phat(rho, phi0)
    n = 4
    for r in (2, 3, 4):
        gamma_r = rep.image(BraidWord.gamma(n, r))
        gamma_prev = rep.image(BraidWord.gamma(n, r - 1))
        assert rep.delta(r).equal_through(gamma_r * gamma_prev.inverse())
        for i in range(1, r):
            lhs = gamma_r * rep.sigma(i)
            rhs = rep.sigma(i) * gamma_r
            assert lhs.equal_through(rhs)
