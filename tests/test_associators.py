import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from gtassoc import associators, grtgt, hecke
from gtassoc.associators import (AssociatorCandidate, bar, c_extract, certify,
                                 duality_check, extend_associator, hexagon_check,
                                 hexagon_product, is_even, pentagon_check, phi0_reference)
from gtassoc.ncseries import (NCSeries, is_grouplike, letter_swap, lyndon_basis, nc_log,
                              nc_substitute, to_text)
from gtassoc.symcoef import SymRing, common_denominator
from gtassoc.tlie import is_lyndon
from gtassoc.truncated import substitute
from gtassoc.wbasis import XY, w_coordinates, w_element

from _holonomy_oracle import (HoloElt, _face_images, embed_free, holonomy_algebra,
                              pentagon_defect, pentagon_faces)
from test_linalg import rref_solve_affine


def all_words(degree):
    """All words of one degree over x, y in lex order, as bytes."""
    return [bytes(w) for w in itertools.product((0, 1), repeat=degree)]


def test_phi0_coefficients(phi0):
    assert phi0.lam == 1
    assert phi0.series.coefficient(("x", "y")) == F(1, 24)
    assert is_even(phi0)
    # the Lie coordinates of the degree-4 log component
    co = w_coordinates(nc_log(phi0.series), 4)
    assert co == {6: F(-1, 1440), 7: F(-1, 5760), 8: F(-1, 1440)}


def test_phi0_passes_all_equations(phi0):
    assert all(certify(phi0).values())
    assert c_extract(phi0) == 0


def test_phi0_maxdeg_guard():
    with pytest.raises(ValueError):
        phi0_reference(6)


def test_duality_examples(phi0):
    one2 = AssociatorCandidate(NCSeries.one(XY, 2), 0)
    assert duality_check(one2)
    low = AssociatorCandidate(NCSeries.one(XY, 2) + F(1, 24) * w_element(3, 2), 1)
    assert duality_check(low)
    x = NCSeries.letter(XY, "x", 3)
    y = NCSeries.letter(XY, "y", 3)
    assert not duality_check(AssociatorCandidate(NCSeries.one(XY, 3) + x * y, 1))


def test_hexagon_degree_two_unique_solution():
    # hand derivation: the degree-2 hexagon forces the coefficient lam^2/24
    for lam, c, expect in [(1, F(1, 24), True), (1, F(1, 25), False),
                           (2, F(1, 6), True), (2, F(1, 24), False), (0, 0, True)]:
        cand = AssociatorCandidate(NCSeries.one(XY, 2) + F(c) * w_element(3, 2), lam)
        assert hexagon_check(cand) == expect, (lam, c)


def test_pentagon_examples(phi0):
    assert pentagon_check(AssociatorCandidate(NCSeries.one(XY, 3), 0))
    bad = AssociatorCandidate(NCSeries.one(XY, 3) + F(1, 24) * w_element(4, 3), 1)
    assert not pentagon_check(bad)


def test_c_extract_shape_guard():
    # a degree-3 part along w4 alone is not an associator shape
    cand = AssociatorCandidate(NCSeries.one(XY, 3) + w_element(4, 3), 1)
    with pytest.raises(ValueError):
        c_extract(cand)


def test_bar_properties(phi0):
    assert bar(phi0).series == phi0.series
    low = AssociatorCandidate(NCSeries.one(XY, 2) + F(1, 24) * w_element(3, 2), 1)
    assert bar(low).series.coefficient(("x", "y")) == F(1, 24)
    # c(bar) = -c on a twisted candidate
    from gtassoc.grtgt import act_grt, grt_exp, psi1
    tw = act_grt(phi0, grt_exp(F(4) * psi1(5)))
    assert c_extract(tw) == F(-4)
    assert c_extract(bar(tw)) == F(4)


def test_extension_ladder(phi0):
    start = AssociatorCandidate(NCSeries.one(XY, 1), 1)
    ext2, ker2 = extend_associator(start)
    assert ext2.series.equal_through(NCSeries.one(XY, 2) + F(1, 24) * w_element(3, 2))
    assert ker2 == []

    ext3, ker3 = extend_associator(ext2)
    assert len(ker3) == 1
    co = w_coordinates(ker3[0], 3)
    assert co[4] == -co[5] != 0

    ext3p, _ = extend_associator(ext2, parity=True)
    assert ext3p.series.homogeneous(3).is_zero()

    # degree-4 correction is forced regardless of the degree-3 choice
    phi0_deg4 = phi0_reference(4).series.homogeneous(4)
    for base in (ext3p,
                 AssociatorCandidate(ext3p.series + (w_element(4, 3) - w_element(5, 3)).truncated(3), 1)):
        ext4, ker4 = extend_associator(base)
        assert ker4 == []
        assert ext4.series.homogeneous(4).equal_through(phi0_deg4.truncated(4))

    ext4, _ = extend_associator(ext3p)
    ext5, ker5 = extend_associator(ext4, parity=True)
    assert ext5.series.homogeneous(5).is_zero()
    assert ext5.series.equal_through(phi0.series)
    assert len(ker5) == 1
    # every rung satisfies the full system
    for cand in (ext2, ext3p, ext4, ext5):
        assert all(certify(cand).values())
        assert is_grouplike(cand.series)


def test_extension_truncation_consistency(phi0):
    # extending and truncating back returns the input
    base = AssociatorCandidate(phi0.series.truncated(4), 1)
    ext5, _ = extend_associator(base, parity=True)
    cut = {w: c for w, c in ext5.series.terms.items() if len(w) <= 4}
    assert cut == base.series.terms


def test_lambda_two_family_degree_two():
    start = AssociatorCandidate(NCSeries.one(XY, 1), 2)
    ext2, _ = extend_associator(start)
    assert ext2.series.coefficient(("x", "y")) == F(4, 24)


def test_extension_to_degree_six_is_unique(phi0):
    # no degree-6 freedom in the graded group: the correction is forced
    ext6, kernel = extend_associator(phi0)
    assert kernel == []
    assert not ext6.series.homogeneous(6).is_zero()
    cut = {w: c for w, c in ext6.series.terms.items() if len(w) <= 5}
    assert cut == phi0.series.terms
    assert all(certify(ext6).values())

    # degree 7 has one free direction, sigma_7
    ext7, kernel = extend_associator(ext6)
    assert len(kernel) == 1 and not kernel[0].is_zero()
    assert all(certify(ext7).values())
    # the extension and sigma_7 keep their exact text
    assert hashlib.sha256(ext7.to_text().encode()).hexdigest() == (
        "20f70b7907f604c64e44a8aed73ae308f4c4faf81df13f422cf5339cb4ed2544")
    assert hashlib.sha256(to_text(kernel[0]).encode()).hexdigest() == (
        "0d3d10bd4bc254744af92387cb079462b9f6b32ec22c4861c5f0cba55ccaa03d")
    # its pentagon linear part vanishes, computed face by face through embed_free
    # (on an integral multiple, which keeps the face products in int)
    d = common_denominator(kernel[0].terms.values())
    sigma7 = kernel[0].scaled_copy({w: int(d * c) for w, c in kernel[0].terms.items()})
    faces = pentagon_faces(sigma7, holonomy_algebra(4, 7))
    linear = (faces["d3"] + faces["d1"]) - (faces["d0"] + faces["d2"] + faces["d4"])
    assert faces["d3"].order() == 7 and linear.is_zero()


def test_certify_refuses_past_the_resource_bound_before_any_check(monkeypatch):
    """t_4 in degree 9 (dim 2240) is past the resource bound: certify,
    pentagon_check and certify_grt refuse it before a log or a Lie test runs."""
    def ran(*args):
        raise AssertionError("a check ran before the refusal")

    monkeypatch.setattr(associators, "lie_coordinates", ran)
    monkeypatch.setattr(associators, "nc_log", ran)
    series = NCSeries.one(XY, 9)
    for call in (lambda: certify(AssociatorCandidate(series, 1)),
                 lambda: pentagon_check(AssociatorCandidate(series, 1)),
                 lambda: grtgt.certify_grt(grtgt.GrtElt(series))):
        with pytest.raises(ValueError, match="resource bound"):
            call()


def test_one_bound_admits_degree_8_and_refuses_9():
    """dim t_4 is 840 in degree 8 and 2240 in degree 9."""
    associators.check_size(8)
    with pytest.raises(ValueError, match="degree-9 dimension 2240 of t_4"):
        associators.check_size(9)


def _bumped(cap, ring, bump):
    """Psi_ab plus bump times w9, a degree-5 Lie element outside grt_1, and
    Psi_ab plus bump times the word x^2 y^3, which is not Lie."""
    word = NCSeries(XY, 5, {bytes((0, 0, 1, 1, 1)): ring.one}, ring)
    return cap + bump * w_element(9, 5, ring), cap + bump * word


def test_the_grid_follows_the_weights_of_the_series(ab_ring, cap_psi_symbolic, monkeypatch):
    """a(a-1) vanishes on {0,1}: with it, the weight of a is 2/5, so the grid
    reaches a = 2, where both bumps show.  Patched to a fixed 2x2 grid the
    pentagon of both passes wrongly."""
    a = ab_ring.symbol("a")
    cap = cap_psi_symbolic.series
    lie, word = _bumped(cap, ab_ring, a * (a - 1))
    assert associators._grid(cap) == {"a": 1, "b": 1}
    assert associators._grid(lie) == associators._grid(word) == {"a": 2, "b": 1}
    lie_report = grtgt.certify_grt(grtgt.GrtElt(lie))
    assert lie_report["grouplike"] and not lie_report["pentagon"]
    defect = associators.pentagon_defect(lie)
    assert defect.order() == 5
    assert all(defect.specialize(None, {"a": p, "b": q}).is_zero()
               for p in (0, 1) for q in (0, 1))
    # the interpolated ring defect is the U(T_4) one
    oracle = pentagon_defect(lie)
    assert defect.homogeneous(5).terms == oracle.homogeneous(5).terms
    assert associators.pentagon_defect(word) is None
    monkeypatch.setattr(associators, "_grid", lambda series: {"a": 1, "b": 1})
    assert all(associators.pentagon_check(AssociatorCandidate(s, 0)) for s in (lie, word))


def test_a_ring_with_a_square_relation_is_refused(phi0):
    """unitary_ring(3) has s2^2 = 3 and s3^2 = 8: no grid of rational points."""
    ring = hecke.unitary_ring(3)
    series = phi0.series.promote(ring) + ring.symbol("s2") * w_element(9, 5, ring)
    for call in (lambda: certify(AssociatorCandidate(series, 1)),
                 lambda: associators.pentagon_defect(series)):
        with pytest.raises(ValueError, match=r"s2\^2 = 3"):
            call()


def test_substitute_on_a_list_matches_each_series_alone():
    """substitute on a list of series against embed_free on the five faces and
    nc_substitute at the hexagon images, one series at a time, through degree 6:
    mixed words, a first-letter pair that cancels, one word, zero, words of
    every length from 0 to 6 (suffixes of several lengths), and, on a unit
    over Q[a, b], Poly coefficients at the rational faces, which substitute
    promotes to the ring of the unit."""
    rng = random.Random(6)
    words = all_words(6)
    mixed = NCSeries(XY, 6, {w: F(rng.randint(-9, 9), rng.randint(1, 9))
                             for w in rng.sample(words, 20)})
    # x.s + y.s at (z, x) gives (z + x).s' = -y.s': the x.s' coefficient cancels
    s = bytes((1, 0, 0, 1, 1))
    cancelling = NCSeries(XY, 6, {bytes((0,)) + s: F(2, 3), bytes((1,)) + s: F(2, 3),
                                  words[5]: F(-1, 4)})
    lengths = NCSeries(XY, 6, {rng.choice(all_words(n)) if n else b"": F(n - 3, n + 1)
                               for n in range(7)})
    ring = SymRing(("a", "b"))
    a, b = ring.symbol("a"), ring.symbol("b")
    poly = NCSeries(XY, 6, {w: a * F(rng.randint(1, 5), 3) + b * rng.randint(-2, 2) + 1
                            for w in rng.sample(words, 8) + [bytes((1, 0, 1))]}, ring)
    elements = [mixed, cancelling, NCSeries(XY, 6, {words[-1]: 1}), NCSeries.zero(XY, 6),
                lengths]
    algebra = holonomy_algebra(4, 6)
    one = HoloElt(algebra, {b"": 1})
    for _, xs, ys in associators.PENTAGON_FACES:
        images = _face_images(algebra, xs, ys)
        for batch, unit in ((elements, one), (elements + [poly], one.promote(ring))):
            values = substitute(batch, images, unit)
            assert [v.terms for v in values] == [
                embed_free(e.promote(unit.ring), algebra, images).terms for e in batch]
            assert [v.known_order for v in values] == [6] * len(batch)
    x, y = NCSeries.letter(XY, "x", 6), NCSeries.letter(XY, "y", 6)
    z = -1 * x - y
    for images in ({"x": z, "y": x}, {"x": y, "y": z}, {"x": x, "y": y}):
        values = substitute(elements, images, NCSeries.one(XY, 6))
        assert values == [nc_substitute(e, images) for e in elements]
        # through K = 0 only the constant terms are read
        cut = substitute(elements, images, NCSeries.one(XY, 6, None, 0))
        assert [(v.terms, v.known_order) for v in cut] == [({}, 0)] * 4 + [({b"": F(-3)}, 0)]
    # (x.s + y.s)(z, x) = -y.s'(z, x): -2/3 y.x.y.y.x.x + ..., and x.x.y.y.x.x is gone
    zx = substitute(elements, {"x": z, "y": x}, NCSeries.one(XY, 6))
    assert zx[1].terms[bytes((1, 0, 1, 1, 0, 0))] == F(-2, 3)
    assert bytes((0, 0, 1, 1, 0, 0)) not in zx[1].terms


@pytest.mark.parametrize("kind", ["twisted", "perturbed", "symbolic"])
def test_integer_pentagon_matches_fraction_faces(phi0, ab_ring, kind):
    from gtassoc.grtgt import act_grt, grt_exp, psi1
    if kind == "twisted":
        series = act_grt(phi0, grt_exp(F(3, 4) * psi1(5))).series
    elif kind == "perturbed":
        series = phi0.series + F(-5, 7) * w_element(4, 5) + F(2, 9) * w_element(6, 5)
    else:
        a, b = ab_ring.symbol("a"), ab_ring.symbol("b")
        series = phi0.series.promote(ab_ring) + (a * b) * w_element(4, 5, ab_ring)
    algebra = holonomy_algebra(4, 5)
    f = pentagon_faces(series, algebra)
    expected = f["d3"] * f["d1"] - f["d0"] * f["d2"] * f["d4"]
    defect = pentagon_defect(series, algebra)
    assert defect == expected and defect.known_order == expected.known_order
    assert defect.is_zero() == (kind == "twisted")


def brute_force_system(phi):
    """The extension system from full residuals: at coords 0 and at each unit vector.

    Column i is r_i - r_0 and the right-hand side is -r_0, with no use of the
    affine structure that extend_associator relies on.
    """
    s = phi.series
    target = s.known_order + 1
    algebra = holonomy_algebra(4, target)
    base = s.truncated(target, known_order=target)
    log_tail = nc_log(base).homogeneous(target)
    lyndon = lyndon_basis(XY, target)
    words = all_words(target)

    def residual(coords):
        corr = NCSeries.zero(XY, target)
        for c, (_, elt) in zip(coords, lyndon):
            if c:
                corr = corr + c * elt
        cand = base + (corr - log_tail)
        dual = (letter_swap(cand) * cand).homogeneous(target)
        hexa = hexagon_product(cand, phi.lam).homogeneous(target)
        pent = pentagon_defect(cand, algebra).homogeneous(target)
        return ([dual.coefficient(w) for w in words] + [hexa.coefficient(w) for w in words]
                + [pent.coefficient(w) for w in algebra.basis_words(target)])

    m = len(lyndon)
    r0 = residual([F(0)] * m)
    columns = [[a - b for a, b in zip(residual([F(i == j) for j in range(m)]), r0)]
               for i in range(m)]
    return [[columns[j][i] for j in range(m)] for i in range(len(r0))], [-v for v in r0]


def test_linearized_system_matches_brute_force(monkeypatch):
    """The sparse columns and right-hand side handed to the solver, densified
    on the rows (duality words, hexagon words, the Lyndon words among the
    U(T_4) basis words), equal those rows of the brute-force system, and the
    solution equals the Gauss-Jordan oracle's on every row of it."""
    captured = []
    solve = associators.solve_columns

    def capture(columns, *rhs):
        result = solve(columns, *rhs)
        captured.append((columns, rhs, result))
        return result

    monkeypatch.setattr(associators, "solve_columns", capture)

    def check(cand, parity=False):
        matrix, rhs = brute_force_system(cand)
        captured.clear()
        extended, _ = extend_associator(cand, parity=parity)
        [(columns, (sparse_rhs,), ([particular], kernel))] = captured
        target = cand.series.known_order + 1
        words = all_words(target)
        keys = ([(0, w) for w in words] + [(1, w) for w in words]
                + [(2, w) for w in holonomy_algebra(4, target).basis_words(target)])
        # the pentagon block keeps its Lyndon rows alone
        kept = [i for i, (block, w) in enumerate(keys) if block < 2 or is_lyndon(w)]
        assert set(sparse_rhs).union(*(v for _, v in columns)) <= {keys[i] for i in kept}
        dense = [[F(v.get(keys[i], 0), d) for d, v in columns] for i in kept]
        assert dense == [matrix[i] for i in kept]
        assert [sparse_rhs.get(keys[i], 0) for i in kept] == [rhs[i] for i in kept]
        assert (particular, kernel) == rref_solve_affine(matrix, rhs)
        return extended

    for parity in (False, True):
        cand = AssociatorCandidate(NCSeries.one(XY, 1), 1)
        for _ in range(4):  # 1 -> 2 -> 3 -> 4 -> 5
            cand = check(cand, parity)
    from gtassoc.grtgt import act_grt, grt_exp, psi1
    tw = act_grt(phi0_reference(5), grt_exp(F(3, 4) * psi1(5)))
    check(AssociatorCandidate(tw.series.truncated(4, known_order=4), tw.lam))


def test_extension_refuses_a_candidate_that_fails_the_pentagon_below_its_degree(phi0):
    # phi0 + w9/3 is grouplike and passes duality, but its degree-5 pentagon fails:
    # the t_4 right-hand side needs P = Q below the degree solved
    bad = AssociatorCandidate(phi0.series + F(1, 3) * w_element(9, 5), 1)
    with pytest.raises(ValueError, match="pentagon in degree 5"):
        extend_associator(bad)
    # a candidate that is not grouplike has no Lie log to evaluate in t_4
    x, y = NCSeries.letter(XY, "x", 2), NCSeries.letter(XY, "y", 2)
    with pytest.raises(ValueError, match="not a Lie element through degree 2"):
        extend_associator(AssociatorCandidate(NCSeries.one(XY, 2) + x * y, 1))
