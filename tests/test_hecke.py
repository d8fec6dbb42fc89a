import hashlib
from fractions import Fraction as F

import pytest

from gtassoc.braidreps import BraidRep, phat
from gtassoc.grtgt import act_grt, grt_cap_psi
from gtassoc.hecke import (MatrixModel, a_entry, b_semi,
                           delta_eigenvalues_ok, hecke_infinitesimal, q_integer,
                           q_series, rep_build, semi_normal_block, unitarity_check)
from gtassoc.hmatrix import HMatrix, to_text
from gtassoc.scalar import ScalarSeries, scalar_div
from gtassoc.symcoef import as_fraction
from gtassoc.tableaux import Partition, partitions_of, tableaux, axial_distance

from _hecke_oracle import a_entry_prime


def test_tableaux_counts_and_order():
    assert len(tableaux(Partition((5,)))) == 1
    assert len(tableaux(Partition((2, 1)))) == 2
    assert len(tableaux(Partition((3, 2)))) == 5
    # hook length oracle holds for everything through n = 7
    for n in range(2, 8):
        for shape in partitions_of(n):
            tableaux(shape)  # the enumeration asserts the hook-length count


def test_axial_distance_examples():
    two_one = tableaux(Partition((2, 1)))
    assert [axial_distance(t, 2) for t in two_one] == [2, 2]
    two_two = tableaux(Partition((2, 2)))
    assert axial_distance(two_two[0], 2) == 2
    hook = tableaux(Partition((2, 1, 1, 1)))
    for r in range(2, 5):
        assert axial_distance(hook[r - 2], r) == r
    with pytest.raises(ValueError):
        axial_distance(tableaux(Partition((3,)))[0], 1)


def test_q_integer_identities():
    one = ScalarSeries.one(7)
    q = q_series(7)
    qi = q_series(7, None, -1)
    # [2]_q = q + q^{-1}
    assert q_integer(2).equal_through(q + qi)
    # [d+1][d-1] = [d]^2 - 1
    for d in range(2, 7):
        lhs = q_integer(d + 1) * q_integer(d - 1)
        rhs = q_integer(d) * q_integer(d) - one
        assert lhs.equal_through(rhs)


def test_a_entry_closed_forms_and_recurrence():
    one = ScalarSeries.one(7)
    q = q_series(7)
    qi = q_series(7, None, -1)
    a2 = a_entry(2)
    assert (a2 * q * (q * q + one)).equal_through(-1 * one)
    for d in range(2, 7):
        ad, adp = a_entry(d), a_entry_prime(d)
        assert (a_entry(d + 1) * (q - ad)).equal_through(ad * qi)
        assert ad.equal_through(scalar_div(-1 * q_series(7, None, -d), q_integer(d)))
        assert adp.equal_through(scalar_div(q_series(7, None, d), q_integer(d)))
        assert (ad + adp).equal_through(q - qi)
        lhs = one + ad * adp
        rhs = scalar_div(q_integer(d + 1) * q_integer(d - 1), q_integer(d) * q_integer(d))
        assert lhs.equal_through(rhs)


def test_semi_normal_block_is_reflection():
    for d in range(2, 6):
        m = semi_normal_block(d)
        sq = [[sum(m[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert sq == [[1, 0], [0, 1]]
        assert m[0][0] + m[1][1] == 0


def test_block_trace_det_and_q_form(phi0, semi_model):
    q = semi_model.q(1)
    qi = semi_model.q(-1)
    for d in range(2, 7):
        blk = semi_model.block(d)
        trace = blk.entry(0, 0) + blk.entry(1, 1)
        assert trace.equal_through(q - qi)
        det = blk.entry(0, 0) * blk.entry(1, 1) - blk.entry(0, 1) * blk.entry(1, 0)
        assert det.equal_through(-1 * ScalarSeries.one(det.maxdeg, det.ring, det.known_order))
        # 2 M = (q - q^{-1}) + (q + q^{-1}) Q M^1 Q^{-1}
        from gtassoc.hmatrix import evaluate_series
        h = ScalarSeries.gen(5)
        m1 = HMatrix.from_const(semi_normal_block(d), 5)
        u = (2 * ScalarSeries.one(5)) * (h * m1)
        eta = HMatrix.from_const([[F(d), 0], [0, F(-d)]], 5)
        Q = evaluate_series(phi0.series, {"x": u, "y": h * eta})
        rhs_m = Q * m1 * Q.inverse()
        two_blk = (2 * ScalarSeries.one(5)) * blk
        eye = HMatrix.identity(2, 5)
        expect = (q - qi) * eye + (q + qi) * rhs_m
        assert two_blk.equal_through(expect)
        # diagonal entries match the closed forms
        assert blk.entry(0, 0).equal_through(a_entry(d, 5))
        assert blk.entry(1, 1).equal_through(a_entry_prime(d, 5))


def test_b_semi_expansion(phi0, semi_model):
    for d in range(2, 7):
        scaled = F(d, d + 1) * semi_model.b(d)
        assert scaled.coefficient(0) == 1
        assert not scaled.coefficient(1)
        assert scaled.coefficient(2) == F(1, 6)
        assert not scaled.coefficient(3)
        assert scaled.coefficient(4) == F(-(4 * d * d - 1), 120)
        assert not scaled.coefficient(5)
    assert semi_model.b(2).coefficient(0) == F(3, 2)


def test_b_semi_twist_cubic_term(phi0, ab_ring):
    a = ab_ring.symbol("a")
    tw = act_grt(phi0.promote(ab_ring), grt_cap_psi(a, ab_ring.const(0), 5, ab_ring))
    for d in range(2, 7):
        c3 = (F(d, d + 1) * b_semi(tw, d)).coefficient(3)
        assert c3 == a * (-16 * d)


def test_rep_build_all_shapes_n_le_6(semi_model):
    for n in range(2, 7):
        for shape in partitions_of(n):
            rep = rep_build(shape, semi_model)
            assert rep.braid_relations_ok(), shape
            assert delta_eigenvalues_ok(rep, shape, semi_model), shape


def test_sign_column(semi_model):
    rep = rep_build(Partition((1, 1, 1, 1)), semi_model)
    assert rep.N == 1
    assert rep.sigma(1).entry(0, 0).equal_through(-1 * semi_model.q(-1))


def test_conjugate_swaps_eigenvalue_roles(semi_model):
    # [3] vs [1,1,1]: q and -1/q switch
    row = rep_build(Partition((3,)), semi_model)
    col = rep_build(Partition((1, 1, 1)), semi_model)
    assert row.sigma(1).entry(0, 0).equal_through(semi_model.q(1))
    assert col.sigma(1).entry(0, 0).equal_through(-1 * semi_model.q(-1))
    # [2,1] is self-conjugate: both eigenvalues appear
    rep = rep_build(Partition((2, 1)), semi_model)
    trace = rep.sigma(1).entry(0, 0) + rep.sigma(1).entry(1, 1)
    assert trace.equal_through(semi_model.q(1) - semi_model.q(-1))


def test_unitary_model(phi0):
    um = MatrixModel("unitary", maxdeg=7)
    for n in range(2, 7):
        for shape in partitions_of(n):
            assert unitarity_check(rep_build(shape, um)), shape
    for parts in ((2, 1), (2, 2), (3, 2)):
        assert rep_build(Partition(parts), um).braid_relations_ok()
    # closed block form
    blk = um.block(3)
    assert blk.entry(0, 1).equal_through(blk.entry(1, 0))
    assert blk.entry(0, 0).equal_through(
        scalar_div(-1 * q_series(7, um.ring, -3), q_integer(3, 7, um.ring)))
    assert blk.entry(1, 1).equal_through(
        scalar_div(q_series(7, um.ring, 3), q_integer(3, 7, um.ring)))
    # semi-normal model is not unitary in this sense
    model = MatrixModel("semi", phi0)
    assert not unitarity_check(rep_build(Partition((2, 1)), model))
    # one-dimensional: eps(q) q = 1
    assert unitarity_check(rep_build(Partition((4,)), um))


def test_unitary_generators_are_pinned():
    """The generator images of the unitary model for every shape with n <= 6
    keep their exact entries over Q(s_2, ..., s_8)."""
    um = MatrixModel("unitary", maxdeg=7)
    digest = hashlib.sha256()
    for n in range(2, 7):
        for shape in partitions_of(n):
            rep = rep_build(shape, um)
            for i in range(1, n):
                digest.update(to_text(rep.sigma(i)).encode())
    assert digest.hexdigest() == (
        "16ab3eddeb8b0b6a87ded8bc7930407546fd1049ae16231692a3ec2e2a8690e3")


def test_unitary_blocks_are_pinned():
    """The unitary blocks M_2 .. M_8, each with its known order in its text."""
    um = MatrixModel("unitary", maxdeg=7)
    text = "".join(to_text(um.block(d)) for d in range(2, 9))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6ddaf42d01fa26509c58f97dde99553e967a00e217fc0a4f58ff81ca8f24d1d0")


def test_unitary_generators_are_pinned_at_n7():
    """Each generator image of the unitary model for the shape (4, 2, 1)."""
    rep = rep_build(Partition((4, 2, 1)), MatrixModel("unitary", maxdeg=7))
    digests = [hashlib.sha256(to_text(rep.sigma(i)).encode()).hexdigest() for i in range(1, 7)]
    assert digests == [
        "6ccbcba7e0205478375f9157c81d5abf3420f4a9ed7d99bb0d8c3988efa27c7a",
        "fdb98bdddd149e552db60146b225aac76efd291ab1671113ed70616ae59d9afc",
        "3061aed7ff6f4a94288eb313b5ac5df45f280a5b2ba54beeee59dfca6a968192",
        "46bf369925b9f23bd0a847cc5255a2a740980e29a174e268b416da256e4d10ae",
        "cb993a99c3752fc3a15dd7e5381a53877413fa452e7e20871701419b60cee49f",
        "42d8545e14b682e652c42643612de4a22d5db674a7ba4400d233d68be09100cd",
    ]


def test_semi_generators_are_pinned(semi_model):
    """The generator images of the semi-normal model of phi0, with their known
    orders, for every shape with n <= 6."""
    digest = hashlib.sha256()
    for n in range(2, 7):
        for shape in partitions_of(n):
            rep = rep_build(shape, semi_model)
            for i in range(1, n):
                digest.update(to_text(rep.sigma(i)).encode())
                digest.update(b"known_order=%d\n" % rep.sigma(i).known_order)
    assert digest.hexdigest() == (
        "554be9d4fc69c5d585a28d9cca1fbf2f5a4c57fcf4d4a5c0c9d31f28d4e1da68")


def test_checks_see_one_perturbed_top_degree_term(semi_model):
    """One off-diagonal term of sigma_2 of (3, 2, 1), changed at the known
    order, breaks the braid relations and the delta eigenvalues.  The entry
    is that of the first block, whose h^5 term is zero before the change."""
    shape = Partition((3, 2, 1))
    rep = rep_build(shape, semi_model)
    assert rep.braid_relations_ok() and delta_eigenvalues_ok(rep, shape, semi_model)
    m = rep.sigma(2)
    _, i, j = min(k for k in m.terms if k[1] != k[2])
    key = (m.known_order, i, j)
    terms = {**m.terms, key: m.terms.get(key, 0) + 1}
    bent = HMatrix.from_terms(m.n, terms, m.maxdeg, m.ring, m.known_order)
    sigmas = [bent if i == 2 else rep.sigma(i) for i in range(1, shape.n)]
    bad = BraidRep(shape.n, sigmas)
    assert not bad.braid_relations_ok()
    assert not delta_eigenvalues_ok(bad, shape, semi_model)


def test_b_relation_by_squaring(phi0, semi_model):
    um = MatrixModel("unitary", maxdeg=7)
    for d in range(2, 7):
        bs = semi_model.b(d)
        bo = um.block(d).entry(0, 1)
        lhs = (d - 1) * (bs * bs)
        rhs = (d + 1) * (bo * bo)  # the square relation collapses s_d^2
        for k in range(0, min(lhs.known_order, rhs.known_order) + 1):
            assert as_fraction(rhs.coefficient(k)) == lhs.coefficient(k), (d, k)


def test_phat_equals_rep_build(phi0, semi_model):
    for n in range(2, 7):
        for shape in partitions_of(n):
            r1 = phat(hecke_infinitesimal(shape), phi0)
            r2 = rep_build(shape, semi_model)
            for i in range(1, n):
                assert r1.sigma(i).equal_through(r2.sigma(i)), (shape.parts, i)


def test_unknown_model_kind_is_refused():
    """Only the 'semi' and 'unitary' kinds exist; 'semi' needs its associator."""
    with pytest.raises(ValueError, match="unknown model kind 'custom'"):
        MatrixModel("custom", maxdeg=7)
    with pytest.raises(ValueError, match="takes an associator"):
        MatrixModel("semi")
