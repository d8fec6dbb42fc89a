"""t_4 against U(T_4): the bracket, the pentagon columns and the pentagon
right-hand side of the extension solver, and the pentagon defect P - Q of
certify, each checked against the normal-form products of the U(T_4)
oracle."""

import random
from fractions import Fraction as F

import pytest

from gtassoc import associators, grtgt, kz, tlie
from gtassoc.associators import (AssociatorCandidate, certify, extend_associator,
                                 pentagon_defect, phi0_reference)
from gtassoc.grtgt import act_grt, grt_exp, psi1
from gtassoc.ncseries import is_grouplike, lyndon_basis, lyndon_words, nc_exp, nc_log
from gtassoc.wbasis import XY

from _holonomy_oracle import HoloAlgebra, HoloElt, holonomy_algebra, pentagon_linear
from _holonomy_oracle import pentagon_defect as u_t4_defect
import test_check_negatives as negatives

CUT = 4


def _words(e):
    """The terms of a t_4 element as {U(T_4) word: int}, all degrees."""
    out = {}
    for d in range(1, e.cut + 1):
        out.update(e.homogeneous(d))
    return out


def _bracket_mismatches(seed):
    """Random int combinations of bracket monomials of degrees 1 to 4 in the
    six generators, built in t_4 and in U(T_4) side by side.  Counts the
    elements whose words differ from the U(T_4) ones, the brackets [a, b]
    that differ from a*b - b*a, and the Jacobi sums that are not zero."""
    rng = random.Random(seed)
    algebra = holonomy_algebra(4, CUT)
    monomials = {1: [(tlie.generator(k, CUT), HoloElt(algebra, {bytes((k,)): 1}))
                     for k in range(6)]}
    for d in range(2, CUT + 1):
        monomials[d] = []
        for _ in range(8):
            i = rng.randint(1, d - 1)
            (a, x), (b, y) = rng.choice(monomials[i]), rng.choice(monomials[d - i])
            monomials[d].append((tlie.bracket(a, b), x * y - y * x))
    pool = [m for d in monomials for m in monomials[d]]
    elements = []
    for _ in range(9):
        picked = [(rng.randint(-3, 3), m) for m in rng.sample(pool, 4)]
        elements.append((tlie.combination([(c, lie) for c, (lie, _) in picked], CUT),
                         sum((c * holo for c, (_, holo) in picked), algebra.zero())))
    bad = sum(_words(lie) != holo.terms for lie, holo in pool + elements)
    for (a, x), (b, y) in zip(elements, elements[1:] + elements[:1]):
        bad += _words(tlie.bracket(a, b)) != (x * y - y * x).terms
    for (a, _), (b, _), (c, _) in zip(elements, elements[1:], elements[2:]):
        jacobi = tlie.combination([(1, tlie.bracket(a, tlie.bracket(b, c))),
                                   (1, tlie.bracket(b, tlie.bracket(c, a))),
                                   (1, tlie.bracket(c, tlie.bracket(a, b)))], CUT)
        bad += jacobi.order() is not None
    return bad


@pytest.mark.parametrize("seed", [0, 1])
def test_bracket_is_the_u_t4_commutator_and_satisfies_jacobi(seed):
    assert _bracket_mismatches(seed) == 0


def test_each_flipped_derivation_is_caught(monkeypatch):
    """Swapping the two letters of any one image [a, b] in the derivation
    table, which flips its sign, makes the cross-check fail."""
    entries = [(k, g) for k, table in tlie._DERIVATIONS.items() for g in table]
    assert len(entries) == 8
    try:
        for k, g in entries:
            a, b = tlie._DERIVATIONS[k][g]
            with monkeypatch.context() as patch:
                patch.setitem(tlie._DERIVATIONS[k], g, (b, a))
                tlie._generator_images.cache_clear()
                assert _bracket_mismatches(0) > 0, (k, g)
            tlie._generator_images.cache_clear()
    finally:
        tlie._generator_images.cache_clear()


def test_letters_are_holonomy_indices():
    algebra = holonomy_algebra(4, 1)
    assert [tlie.letter(i, j) for i, j in algebra.pair_of] == list(range(6))


def _lyndon_rows(terms):
    return {w: c for w, c in terms.items() if c and tlie.is_lyndon(w)}


@pytest.mark.parametrize("degree", range(2, 8))
def test_lie_columns_equal_the_u_t4_oracle(degree):
    """The signed sum of the five face images of every Lyndon element, from
    the t_4 face caches, equals its U(T_4) substitution, zero sums dropped,
    and the pentagon block of its column holds the Lyndon rows of that sum."""
    lyndon = lyndon_basis(XY, degree)
    faces = associators._lie_faces(degree)
    columns = associators._linear_residuals(lyndon, faces, degree)
    oracle = pentagon_linear([psi for _, psi in lyndon], holonomy_algebra(4, degree))
    sums = []
    for word in lyndon_words(2, degree):
        acc = {}
        for name, image in faces.items():
            for w, c in image(word).homogeneous(degree).items():
                acc[w] = acc.get(w, 0) + associators._FACE_SIGNS[name] * c
        sums.append({w: c for w, c in acc.items() if c})
    assert sums == [{w: c for w, c in acc.items() if c} for acc in oracle]
    assert [{k[1]: c for k, c in col.items() if k[0] == 2 and c} for _, col in columns] == \
        [_lyndon_rows(acc) for acc in oracle]


def _twisted(z):
    phi = act_grt(phi0_reference(5), grt_exp(z * psi1(5)))
    return AssociatorCandidate(phi.series.truncated(5, known_order=5), phi.lam)


_CANDIDATES = {"extend6-seed%d" % s: (lambda z=z: _twisted(z))
               for s, z in enumerate((F(0), F(-2, 5), F(-5, 7), F(7, 3)))}
_CANDIDATES["phi0-5to6"] = lambda: phi0_reference(5)
_CANDIDATES["phi0-6to7"] = lambda: extend_associator(phi0_reference(5), parity=True)[0]


@pytest.mark.parametrize("name", sorted(_CANDIDATES))
def test_lie_pentagon_rows_equal_the_u_t4_defect(name):
    """P - Q in degree D+1, from BCH in t_4, is the U(T_4) pentagon defect of
    start = base - log tail there: all of it in pentagon_defect, its Lyndon
    rows in the solver's right-hand side."""
    s = _CANDIDATES[name]().series
    target = s.known_order + 1
    base = s.truncated(target, known_order=target)
    log_base = nc_log(base)
    start = base - log_base.homogeneous(target)
    rows = associators._pentagon_rows(associators._lie_faces(target), log_base, target)
    oracle = u_t4_defect(start).homogeneous(target).terms
    assert pentagon_defect(start).homogeneous(target).terms == oracle
    assert {w: c for w, c in rows.items() if c} == _lyndon_rows(oracle)


def test_extension_needs_no_u_t4_product(monkeypatch, phi0):
    def refuse(*args):
        raise AssertionError("a U(T_4) product or reduction ran")

    with monkeypatch.context() as patch:
        patch.setattr(HoloElt, "_convolve", refuse)
        patch.setattr(HoloAlgebra, "prepend", refuse)
        ext6, kernel = extend_associator(phi0)
        assert all(certify(ext6).values())
    assert ext6.known_order == 6 and kernel == []


def _lowest(defect):
    order = defect.order()
    return order, None if order is None else defect.homogeneous(order).terms


def test_pentagon_defect_agrees_with_u_t4_on_the_phi0_ladder(phi0):
    """The phi0 ladder from degree 3 through 7, each rung also moved off the
    pentagon by exp of a Lyndon element of its top degree, which is not in
    grt_1: P - Q and the U(T_4) defect agree on zero-ness, order and
    lowest-degree terms."""
    ladder = [phi0_reference(k) for k in range(3, 6)]
    for _ in range(2):
        ladder.append(extend_associator(ladder[-1], parity=True)[0])
    for phi in ladder:
        k = phi.known_order
        _, element = lyndon_basis(XY, k)[-1]
        moved = nc_exp(nc_log(phi.series) + F(1, 7) * element)
        for series, holds in ((phi.series, True), (moved, False)):
            oracle = _lowest(u_t4_defect(series))
            assert _lowest(pentagon_defect(series)) == oracle and (oracle[0] is None) == holds
            assert associators.pentagon_check(AssociatorCandidate(series, 1)) == holds, k


def _perturbed(name, monkeypatch, phi0, ring):
    """The series whose associator pentagon a check of test_check_negatives
    reads, under that file's perturbation of the same name."""
    a, b = ring.symbol("a"), ring.symbol("b")
    if name == "phi0 + x^2y^3/7":
        return negatives.phi0_plus_x2y3().series
    if name == "Psi_ab + a x^3":
        negatives.cap_gains_x_cubed(monkeypatch)
        return grtgt.grt_cap_psi(a, b, 5, ring).series
    if name == "kz psi1 -> -psi1":
        negatives.kz_psi1_negated(monkeypatch)
        return kz.phi_kz_symbolic(5).series
    {"g_ab + a x^3": negatives.g_ab_gains_x_cubed,
     "psi2 + w7": negatives.psi2_gains_a_degree_four_term}[name](monkeypatch)
    return grtgt._moved_reference(grtgt.g_ab(a, b, phi0).series)


@pytest.mark.parametrize("name", ["phi0 + x^2y^3/7", "Psi_ab + a x^3", "g_ab + a x^3",
                                  "psi2 + w7", "kz psi1 -> -psi1"])
def test_pentagon_defect_agrees_with_u_t4_on_each_pentagon_negative(name, monkeypatch,
                                                                     phi0, ab_ring):
    """Every perturbation of test_check_negatives that turns a pentagon check
    FAIL: the U(T_4) defect is nonzero and pentagon_check is False.  A
    grouplike series has P - Q with the oracle's order and lowest-degree
    terms; one that is not has no P - Q."""
    series = _perturbed(name, monkeypatch, phi0, ab_ring)
    oracle = u_t4_defect(series)
    assert not oracle.is_zero()
    assert not associators.pentagon_check(AssociatorCandidate(series, 1))
    if is_grouplike(series):
        assert _lowest(pentagon_defect(series)) == _lowest(oracle)
    else:
        assert pentagon_defect(series) is None
