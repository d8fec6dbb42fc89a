"""t_4 against U(T_4): the bracket, the pentagon columns and the pentagon
right-hand side of the extension solver, each checked against the
normal-form products of holonomy."""

import random
from fractions import Fraction as F

import pytest

from gtassoc import associators, tlie
from gtassoc.associators import (AssociatorCandidate, certify, extend_associator,
                                 pentagon_defect, phi0_reference)
from gtassoc.grtgt import act_grt, grt_exp, psi1
from gtassoc.holonomy import HoloAlgebra, HoloElt, holonomy_algebra
from gtassoc.ncseries import lyndon_basis, nc_log
from gtassoc.wbasis import XY

from _holonomy_oracle import pentagon_linear

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


@pytest.mark.parametrize("degree", range(2, 8))
def test_lie_columns_equal_the_u_t4_oracle(degree):
    """The pentagon block of every Lyndon column, from the t_4 face caches,
    equals the U(T_4) substitution of the Lyndon element, zero sums dropped."""
    lyndon = lyndon_basis(XY, degree)
    columns = associators._linear_residuals(lyndon, associators._lie_faces(degree), degree)
    oracle = pentagon_linear([psi for _, psi in lyndon], holonomy_algebra(4, degree))
    assert [{k[1]: c for k, c in col.items() if k[0] == 2 and c} for _, col in columns] == \
        [{w: c for w, c in acc.items() if c} for acc in oracle]


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
    base - log tail there."""
    s = _CANDIDATES[name]().series
    target = s.known_order + 1
    base = s.truncated(target, known_order=target)
    log_base = nc_log(base)
    rows = associators._pentagon_rows(associators._lie_faces(target), log_base, target)
    defect = pentagon_defect(base - log_base.homogeneous(target), holonomy_algebra(4, target))
    assert {w: c for w, c in rows.items() if c} == defect.homogeneous(target).terms


def test_extension_needs_no_u_t4_product(monkeypatch, phi0):
    def refuse(*args):
        raise AssertionError("a U(T_4) product or reduction ran")

    with monkeypatch.context() as patch:
        patch.setattr(HoloElt, "_convolve", refuse)
        patch.setattr(HoloAlgebra, "prepend", refuse)
        ext6, kernel = extend_associator(phi0)
    assert ext6.known_order == 6 and kernel == []
    assert all(certify(ext6).values())
