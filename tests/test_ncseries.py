import functools
import gc
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gtassoc.hecke import unitary_ring
from gtassoc.hmatrix import HMatrix, evaluate_series
from gtassoc.ncseries import (AlgebraError, NCSeries, bch, commutator, from_text,
                              is_grouplike, is_lie, letter_swap, lie_coordinates,
                              lyndon_basis, lyndon_bracket, lyndon_words, nc_exp, nc_log,
                              nc_substitute, to_text)
from gtassoc.scalar import ScalarSeries
from gtassoc.symcoef import SymRing
from gtassoc.truncated import Truncated, evaluate, substitute, suffix_products

from _dynkin_oracle import _dynkin_word, dynkin
from _dynkin_oracle import is_lie as dynkin_is_lie
from _holonomy_oracle import HoloAlgebra, embed_free, holonomy_algebra, permuted

XY = ("x", "y")


def letters(maxdeg=6, ring=None):
    return (NCSeries.one(XY, maxdeg, ring),
            NCSeries.letter(XY, "x", maxdeg, ring),
            NCSeries.letter(XY, "y", maxdeg, ring))


def test_product_expansion():
    one, x, y = letters()
    p = (one + x) * (one + y)
    assert p.coefficient("") == 1
    assert p.coefficient(("x",)) == 1 and p.coefficient(("y",)) == 1
    assert p.coefficient(("x", "y")) == 1 and p.coefficient(("y", "x")) == 0


def test_geometric_inverse():
    one, x, _ = letters()
    assert ((one + x) * (one + x).inverse()).is_one()


def test_commutator_word():
    _, x, y = letters()
    c = x * y - y * x
    assert c.coefficient(("x", "y")) == 1 and c.coefficient(("y", "x")) == -1


def test_alphabet_ring_mismatch_rejected():
    one, x, _ = letters()
    other = NCSeries.letter(("u", "v"), "u", 6)
    with pytest.raises(AlgebraError):
        x * other
    ring = SymRing(("a",))
    with pytest.raises(AlgebraError):
        x * NCSeries.letter(XY, "x", 6, ring)


def test_maxdeg_mismatch_rejected():
    _, x4, _ = letters(4)
    _, _, y5 = letters(5)
    with pytest.raises(AlgebraError, match="maxdeg"):
        x4 + y5
    with pytest.raises(AlgebraError, match="maxdeg"):
        x4 * y5


def test_exp_log_inverse_pair():
    _, x, y = letters()
    e = nc_exp(x + y)
    assert nc_log(e).equal_through(x + y)
    g = NCSeries.one(XY, 6) + commutator(x, y) * F(1, 24)
    assert nc_exp(nc_log(g)).equal_through(g)


def test_exp_requires_positive_order():
    one, x, _ = letters()
    with pytest.raises(ValueError):
        nc_exp(one + x)
    with pytest.raises(ValueError):
        nc_log(x)


def test_exp_product_coefficient():
    _, x, y = letters()
    assert (nc_exp(x) * nc_exp(y)).coefficient(("x", "y")) == 1


def test_exp_power_series_coefficients():
    import math
    _, x, _ = letters()
    e = nc_exp(x)
    for k in range(0, 7):
        assert e.coefficient(("x",) * k) == F(1, math.factorial(k))


def test_bch_associative_low_degree():
    # log(e^u e^v e^w) bracketed either way
    _, x, y = letters(4)
    u, v, w = x, y, commutator(x, y) + x - y
    lhs = bch(bch(u, v), w)
    rhs = bch(u, bch(v, w))
    assert lhs.equal_through(rhs)


def test_bch_degree_two_and_antisymmetry():
    # hand expansion: log(e^x e^y) = x + y + [x,y]/2 + ...
    _, x, y = letters()
    z = bch(x, y)
    assert z.coefficient(("x", "y")) == F(1, 2)
    assert z.coefficient(("y", "x")) == F(-1, 2)
    assert (z + bch(-1 * y, -1 * x)).is_zero()
    assert bch(x, NCSeries.zero(XY, 6)).equal_through(x)
    # degree 3 terms: [x,[x,y]]/12 + [y,[y,x]]/12
    w4 = commutator(x, commutator(x, y))
    w5 = commutator(y, commutator(y, x))
    expect3 = F(1, 12) * (w4 + w5)
    assert z.homogeneous(3).equal_through(expect3.homogeneous(3))


def test_dynkin_and_lie_tests():
    _, x, y = letters()
    assert dynkin(x * y).equal_through(commutator(x, y))
    assert is_lie(commutator(x, y))
    assert not is_lie(x * y)
    assert is_lie(commutator(x, commutator(x, y)))


def test_dynkin_word_is_the_nested_commutator():
    """The bracket [w1,[w2,[...,wn]]] as {word: int} equals the nested
    commutators of letter series, for every word of length <= 4 over three
    letters."""
    xyz = ("x", "y", "z")
    for n in range(1, 5):
        for word in itertools.product(range(3), repeat=n):
            word = bytes(word)
            acc = NCSeries.letter(xyz, xyz[word[-1]], 4)
            for b in reversed(word[:-1]):
                acc = commutator(NCSeries.letter(xyz, xyz[b], 4), acc)
            assert _dynkin_word(word) == acc.terms, word


def test_bch_refuses_what_is_not_lie(monkeypatch):
    import gtassoc.ncseries as ncseries
    _, x, y = letters(4)
    monkeypatch.setattr(ncseries, "is_lie", lambda f: False)
    with pytest.raises(ValueError, match="is not a Lie element"):
        bch(x, y)


_LIE_RINGS = {"Q": None, "Q[a,b]": SymRing(("a", "b")), "unitary_ring(3)": unitary_ring(3)}
_TRIPLE = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))


def _scalar(ring, p, q, r):
    """p + q s + r t, s and t the ring's two symbols, or p + q/2 + r/3 over Q."""
    if ring is None:
        return F(p) + F(q, 2) + F(r, 3)
    s, t = (ring.symbol(name) for name in ring.symbols)
    return p + q * s + r * t


@pytest.mark.parametrize("n_letters", [2, 3])
@pytest.mark.parametrize("over", sorted(_LIE_RINGS))
@settings(max_examples=15, deadline=None)
@given(spec=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 20), _TRIPLE), max_size=4),
       ko=st.integers(1, 4), word=st.lists(st.integers(0, 2), min_size=2, max_size=4),
       bump=st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)))
def test_is_lie_agrees_with_the_dynkin_oracle(over, n_letters, spec, ko, word, bump):
    """A combination of Lyndon brackets of degrees 1..4, of maxdeg 4 and known
    through ko, is Lie for is_lie and for the Dynkin oracle, and its Lie
    coordinates recombine to it through ko; one word of length 2..ko added
    to it makes both tests fail."""
    ring, alphabet = _LIE_RINGS[over], ("x", "y", "z")[:n_letters]
    bracket = lambda w: lyndon_bracket(w, alphabet, 4).promote(ring)
    f = NCSeries.zero(alphabet, 4, ring, ko)
    for degree, pick, coeff in spec:
        words = lyndon_words(n_letters, degree)
        f = f + bracket(words[pick % len(words)]) * _scalar(ring, *coeff)
    assert f.known_order == ko
    assert is_lie(f) and dynkin_is_lie(f)
    coords = lie_coordinates(f, ko)
    assert all(0 < len(w) <= ko and c for w, c in coords)
    back = sum((bracket(w) * c for w, c in coords), NCSeries.zero(alphabet, 4, ring))
    assert back.equal_through(f)
    if ko >= 2:
        bad = f + NCSeries(alphabet, 4, {bytes(b % n_letters for b in word[:ko]):
                                         _scalar(ring, *bump)}, ring)
        assert not is_lie(bad) and not dynkin_is_lie(bad)
        with pytest.raises(ValueError, match="not a Lie element through degree %d" % ko):
            lie_coordinates(bad, ko)


def test_grouplike():
    one, x, y = letters()
    assert is_grouplike(nc_exp(x + y))
    # log(1+x+y) has degree-2 part -(x+y)^2/2, which is not Lie
    assert not is_grouplike(one + x + y)
    assert not is_grouplike(x)


def test_grouplike_closed_under_product():
    _, x, y = letters(5)
    rng = random.Random(11)
    for _ in range(5):
        u = sum((F(rng.randint(-2, 2)) * v for v in
                 (x, y, commutator(x, y), commutator(x, commutator(x, y)))),
                NCSeries.zero(XY, 5))
        v = sum((F(rng.randint(-2, 2)) * w for w in
                 (x, y, commutator(y, commutator(y, x)))), NCSeries.zero(XY, 5))
        g, h = nc_exp(u), nc_exp(v)
        assert is_grouplike(g * h)


def test_substitution_modes():
    one, x, y = letters()
    f = one + F(1, 24) * commutator(x, y)
    direct = nc_substitute(f, {"x": x, "y": -1 * x - y})
    assert direct.equal_through(one - F(1, 24) * commutator(x, y))
    with pytest.raises(ValueError):
        nc_substitute(f, {"x": one + x, "y": y})


def test_substitution_is_morphism():
    one, x, y = letters(5)
    f = one + x * y - 2 * y
    g = one - x + y * y
    images = {"x": commutator(x, y), "y": x + y}
    lhs = nc_substitute(f * g, images)
    rhs = nc_substitute(f, images) * nc_substitute(g, images)
    assert lhs.equal_through(rhs)


def test_letter_swap():
    _, x, y = letters()
    f = x * y - 3 * y
    g = letter_swap(f)
    assert g.coefficient(("y", "x")) == 1 and g.coefficient(("x",)) == -3


WITT = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}


def test_lyndon_dimensions_match_witt():
    # (1/d) sum_{e|d} mu(e) 2^{d/e}, computed here independently
    def mobius(n):
        if n == 1:
            return 1
        out, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out

    for d in range(1, 7):
        witt = sum(mobius(e) * 2 ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        assert witt == WITT[d]
        assert len(lyndon_words(2, d)) == witt
        basis = lyndon_basis(XY, d)
        assert len(basis) == witt
        for _, elt in basis:
            assert is_lie(elt)


def test_lyndon_degree2_is_commutator():
    (name, elt), = lyndon_basis(XY, 2)
    _, x, y = letters(2)
    assert elt.equal_through(commutator(x, y).truncated(2))


def test_known_order_truncation_consistency():
    # recomputing with higher maxdeg and re-truncating reproduces the result
    rng = random.Random(5)
    for _ in range(8):
        c1 = F(rng.randint(-3, 3), 2)
        c2 = F(rng.randint(-3, 3), rng.randint(1, 3))
        results = {}
        for maxdeg in (4, 6):
            one, x, y = letters(maxdeg)
            f = one + c1 * x + y * x - c2 * commutator(x, y)
            g = nc_exp(F(1, 3) * (x + y)) * f.inverse()
            results[maxdeg] = g
        cut = {w: c for w, c in results[6].terms.items() if len(w) <= 4}
        assert cut == results[4].terms


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), min_size=0, max_size=4),
       st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), min_size=0, max_size=4),
       st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), min_size=0, max_size=4))
def test_mul_associative_distributive(spec_a, spec_b, spec_c):
    def build(spec):
        out = NCSeries.one(XY, 5)
        for letter, coeff in spec:
            name = "x" if letter == 0 else "y"
            out = out + F(coeff, 2) * NCSeries.letter(XY, name, 5) * out
        return out

    a, b, c = build(spec_a), build(spec_b), build(spec_c)
    assert ((a * b) * c).equal_through(a * (b * c))
    assert (a * (b + c)).equal_through(a * b + a * c)


def test_text_round_trip_rational_and_symbolic():
    one, x, y = letters()
    f = one + F(1, 24) * commutator(x, y) - 5 * y * y * x
    text = to_text(f)
    g, fields = from_text(text)
    assert g == f
    assert to_text(g) == text
    ring = SymRing(("a", "b"))
    fs = f.promote(ring) * (NCSeries.one(XY, 6, ring) * ring.symbol("a"))
    text2 = to_text(fs, extra={"kind": "grt"})
    g2, fields2 = from_text(text2)
    assert g2 == fs and fields2["kind"] == "grt"
    assert to_text(g2, extra={"kind": "grt"}) == text2


def test_empty_word_renders_as_one():
    one, _, _ = letters()
    assert to_text(one).splitlines()[1] == "1\t1"


def test_repr_marks_elided_terms():
    one, x, y = letters(4)
    short = one + x + y
    assert " ..." not in repr(short)
    long_series = (one + x + y) * (one + x + y) * (one + x + y)
    assert len(long_series.terms) > 12
    assert repr(long_series).split(" deg<=")[0].endswith(" ...")


# -- the truncation contract of every series type ------------------------
#
# Each kind gives (one, generators) at a requested known order; elements are
# built as sums of scaled generator words, so they have positive order.

T3 = HoloAlgebra(3, 4)


def _nc_kind(ko):
    return (NCSeries.one(XY, 4, known_order=ko),
            [NCSeries.letter(XY, name, 4, known_order=ko) for name in XY])


def _holo_kind(ko):
    return T3.one(ko), [T3.generator(1, 2, ko), T3.generator(2, 3, ko), T3.generator(1, 3, ko)]


def _scalar_kind(ko):
    h = ScalarSeries.gen(6, known_order=ko)
    return ScalarSeries.one(6, known_order=ko), [h, h * h * F(-2, 3)]


def _hmatrix_kind(ko):
    h = ScalarSeries.gen(4, known_order=ko)
    return (HMatrix.identity(2, 4, known_order=ko),
            [h * HMatrix.from_const([[0, 1], [1, 0]], 4, known_order=ko),
             h * HMatrix.from_const([[1, 0], [2, -1]], 4, known_order=ko)])


# kind -> (build, exp, log, substitution entry point); None where a type has
# no such entry point.  Every kind has the base's inverse.
KINDS = {
    "NCSeries": (_nc_kind, nc_exp, nc_log, nc_substitute),
    "HoloElt": (_holo_kind, lambda f: f.exp(), lambda g: g.log(),
                lambda series, images: embed_free(series, T3, images)),
    "ScalarSeries": (_scalar_kind, lambda f: f.exp(), lambda g: g.log(), None),
    "HMatrix": (_hmatrix_kind, lambda f: f.exp(), lambda g: g.log(), evaluate_series),
}

_SPEC = st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                           st.lists(st.integers(0, 2), min_size=1, max_size=3)),
                 min_size=1, max_size=4)


def _build(spec, one, gens):
    out = one - one
    for coeff, word in spec:
        term = one
        for i in word:
            term = term * gens[i % len(gens)]
        out = out + term * F(coeff, 2)
    return out


def _naive_substitute(series, images, one, zero):
    """Word-by-word evaluation with no shared prefix products."""
    out = zero
    for word, coeff in series.terms.items():
        prod = one
        for b in word:
            prod = prod * images[series.alphabet[b]]
        out = out + prod * coeff
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=15, deadline=None)
@given(spec_f=_SPEC, spec_g=_SPEC, spec_s=_SPEC, c0=st.integers(-3, 3).filter(bool),
       ko=st.integers(2, 4))
def test_truncation_contract(kind, spec_f, spec_g, spec_s, c0, ko):
    build, exp, log, entry = KINDS[kind]
    one, gens = build(ko)
    f, g = _build(spec_f, one, gens), _build(spec_g, one, gens)
    round_trip = exp(log(one + f))
    assert round_trip.known_order == ko and round_trip.equal_through(one + f)
    assert log(exp(f)).equal_through(f)
    x = one * F(c0) + f
    assert (x * x.inverse()).equal_through(one)
    n_one, letter_x, letter_y = letters(4)
    series = _build(spec_s, n_one, [letter_x, letter_y]) + n_one * F(c0)
    images = {"x": f, "y": g}
    k = min(series.known_order, f.known_order, g.known_order)
    one_k = build(k)[0]
    zero_k = one_k - one_k
    [fast] = substitute([series], images, one_k)
    assert fast.equal_through(_naive_substitute(series, images, one_k, zero_k))
    if entry is not None:
        assert entry(series, images).equal_through(fast)


# -- the value maps commute with every operation ------------------------
#
# Over Q[a, b] each word of _build is scaled by p + q a + r b, on the unit and
# generators of each kind promoted to Q[a, b] first.

AB_POINT = {"a": F(2, 3), "b": F(-5, 7)}
_SPEC_AB = st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2)),
                              st.lists(st.integers(0, 2), min_size=1, max_size=3)),
                    min_size=1, max_size=4)


def _build_ab(spec, one, gens):
    """_build over Q[a, b]: each word scaled by its p + q a + r b."""
    a, b = AB.symbol("a"), AB.symbol("b")
    return sum((_build([(2, word)], one, gens) * (p + q * a + r * b) for (p, q, r), word in spec),
               one - one)


def _ab_case(kind, ko):
    """(one, generators, series unit, series letters) of a kind over Q[a, b]."""
    one, gens = KINDS[kind][0](ko)
    return one.promote(AB), [g.promote(AB) for g in gens], letters(4, AB)


def _at_point(value):
    return value.specialize(None, AB_POINT)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=10, deadline=None)
@given(spec_f=_SPEC_AB, spec_g=_SPEC_AB, spec_s=_SPEC_AB, c0=st.integers(-3, 3).filter(bool),
       ko=st.integers(2, 4))
def test_specialization_commutes_with_the_operations(kind, spec_f, spec_g, spec_s, c0, ko):
    """Sending a, b to a rational point before or after +, -, *, exp, log,
    inverse and evaluation gives one value, through the lesser known order."""
    _, exp, log, _ = KINDS[kind]
    one, gens, (n_one, letter_x, letter_y) = _ab_case(kind, ko)
    f, g = _build_ab(spec_f, one, gens), _build_ab(spec_g, one, gens)
    series = _build_ab(spec_s, n_one, [letter_x, letter_y]) + n_one * F(c0)
    x = one * F(c0) + f
    at = _at_point
    pairs = [(f + g, at(f) + at(g)), (f - g, at(f) - at(g)), (f * g, at(f) * at(g)),
             (exp(f), exp(at(f))), (log(one + f), log(at(one) + at(f))),
             (evaluate(series, {"x": f, "y": g}), evaluate(at(series), {"x": at(f), "y": at(g)})),
             (x.inverse(), at(x).inverse())]
    for symbolic, rational in pairs:
        got = at(symbolic)
        assert {type(c) for c in got.terms.values()} <= {F}
        assert got.ring is None
        assert got.known_order == symbolic.known_order and got.equal_through(rational)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=10, deadline=None)
@given(spec_f=_SPEC, spec_g=_SPEC, spec_s=_SPEC, c0=st.integers(-3, 3).filter(bool),
       ko=st.integers(2, 4), cut=st.integers(0, 3))
def test_truncation_commutes_with_the_operations(kind, spec_f, spec_g, spec_s, c0, ko, cut):
    """Cutting the truncation degree before or after +, *, exp, log, inverse
    and evaluation gives one value, known through min(known order, cut)."""
    build, exp, log, _ = KINDS[kind]
    one, gens = build(ko)
    f, g = _build(spec_f, one, gens), _build(spec_g, one, gens)
    n_one, letter_x, letter_y = letters(4)
    series = _build(spec_s, n_one, [letter_x, letter_y]) + n_one * F(c0)
    x = one * F(c0) + f

    def at(value):
        return value.truncated(cut)
    pairs = [(f + g, at(f) + at(g)), (f * g, at(f) * at(g)), (exp(f), exp(at(f))),
             (log(one + f), log(at(one) + at(f))),
             (evaluate(series, {"x": f, "y": g}), evaluate(series, {"x": at(f), "y": at(g)})),
             (x.inverse(), at(x).inverse())]
    for whole, cut_first in pairs:
        got = at(whole)
        assert got.maxdeg == cut_first.maxdeg == cut
        assert got.known_order == min(whole.known_order, cut)
        assert got.equal_through(cut_first)


def test_truncated_keeps_or_sets_the_known_order():
    one, x, y = letters(4)
    f = (one + x * y * F(1, 2) + x * x * y).truncated(4, known_order=3)
    assert (f.maxdeg, f.known_order) == (4, 3)
    assert f.truncated(2).known_order == 2 and f.truncated(2).terms == (one + x * y * F(1, 2)).terms
    # an explicit known order may raise the old one (an ansatz), never past maxdeg
    assert f.truncated(6, known_order=5).known_order == 5
    assert f.truncated(6, known_order=9).known_order == 6
    # a holonomy element moves onto the registered algebra of its new degree
    u = T3.generator(1, 2) * T3.generator(2, 3)
    assert u.truncated(4).algebra is T3
    assert u.truncated(3).algebra is holonomy_algebra(3, 3)
    assert u.truncated(1).terms == {} and u.truncated(1).known_order == 1
    # a constant matrix carried to a degree and a ring
    m = HMatrix.from_const([[1, 2], [0, -1]], 0).truncated(5, known_order=4).promote(AB)
    assert (m.maxdeg, m.known_order, m.ring) == (5, 4, AB)
    assert m.terms == {(0, 0, 0): AB.one, (0, 0, 1): AB.const(2), (0, 1, 1): AB.const(-1)}


def test_specialize_to_a_ring_and_at_a_point():
    """Partial specialization lands in the smaller ring, and a second one at the
    rest of the point gives the full specialization."""
    b_only = SymRing(("b",))
    a, b = AB.symbol("a"), AB.symbol("b")
    values = [NCSeries.letter(XY, "x", 3, AB) * (a * b + 1) + NCSeries.one(XY, 3, AB) * a,
              ScalarSeries.gen(3, AB) * (a - b) + ScalarSeries.one(3, AB) * F(1, 2),
              HMatrix.identity(2, 3, AB) * b + HMatrix.from_terms(2, {(2, 0, 1): a * a}, 3, AB),
              T3.generator(1, 2).promote(AB) * (a * b) + T3.one().promote(AB) * F(3)]
    for value in values:
        half = value.specialize(b_only, {"a": AB_POINT["a"], "b": b_only.symbol("b")})
        assert half.ring == b_only
        assert all(c.ring == b_only for c in half.terms.values())
        whole = _at_point(value)
        assert half.specialize(None, {"b": AB_POINT["b"]}) == whole
        assert whole.known_order == value.known_order and type(whole) is type(value)
    assert _at_point(values[0]).terms == {b"": F(2, 3), b"\x00": F(11, 21)}
    # a mapping that lacks a used symbol is refused, the symbol named
    for value in values:
        with pytest.raises(ValueError, match=r"no value for \['b'\]"):
            value.specialize(None, {"a": 1})
    with pytest.raises(AlgebraError):
        (NCSeries.letter(XY, "x", 3, AB) * AB.symbol("b")).specialize(None, {"a": 1})


def test_coefficients_must_be_exact():
    """A float coefficient is refused as soon as a value is made or scaled, and
    two values over different rings do not combine."""
    for make in (lambda: NCSeries(XY, 3, {b"\x00": 0.5, b"\x01": F(1)}),
                 lambda: NCSeries.one(XY, 3) * 0.5, lambda: ScalarSeries(3, {1: 0.5}, AB)):
        with pytest.raises(ValueError, match=r"inexact coefficients: \['float'\]"):
            make()
    ac = SymRing(("a", "c"))
    u = T3.generator(1, 2).promote(AB) * AB.symbol("a")
    v = T3.generator(2, 3).promote(ac) * ac.symbol("c")
    assert (u.ring, v.ring) == (AB, ac)
    for op in (lambda: u * v, lambda: (u + v) * u, lambda: u.equal_through(v)):
        with pytest.raises(ValueError, match="coefficient ring mismatch"):
            op()


@pytest.mark.parametrize("kind", ["NCSeries", "HoloElt", "HMatrix"])
def test_evaluation_refuses_a_missing_letter_or_an_image_of_order_zero(kind):
    one, gens = KINDS[kind][0](4)
    entry = KINDS[kind][3]
    _, x, y = letters(4)
    with pytest.raises(AlgebraError, match=r"no image for letters \['y'\]"):
        entry(x * y, {"x": gens[0]})
    with pytest.raises(AlgebraError, match="images must have order >= 1"):
        entry(x * y, {"x": gens[0], "y": one + gens[1]})


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_truncation_contract_past_known_order(kind):
    one, gens = KINDS[kind][0](2)
    f = gens[0] * F(1, 2)
    is_one = (one + f).is_one
    assert not f.is_zero(2) and not is_one(2) and f.equal_through(f, 2)
    assert (f - f).is_zero() and (f - f).known_order == 2
    for ask in (f.is_zero, is_one, lambda order: f.equal_through(f, order)):
        with pytest.raises(ValueError, match="exceeds known order 2"):
            ask(3)
    # a coefficient is read through the known order, zero when absent, and never past it
    keys = _KEYED[kind][0]
    assert [f.coefficient(key) for key in keys[:3]] == [f.terms.get(key, 0) for key in keys[:3]]
    with pytest.raises(ValueError, match="coefficient of degree 3 exceeds known order 2"):
        f.coefficient(keys[3])


# one key of each degree 0..4 and a constructor make(terms, known_order, ring) per
# flat kind; HoloElt keys are normal-form words
_KEYED = {
    "NCSeries": ([bytes(w) for w in ([], [0], [1, 0], [0, 1, 1], [1, 1, 0, 1])],
                 lambda terms, ko, ring: NCSeries(XY, 4, terms, ring, ko)),
    "HoloElt": ([T3.basis_words(d)[-1] for d in range(5)],
                lambda terms, ko, ring: T3.zero(ko).promote(ring)._like(terms)),
    "ScalarSeries": (list(range(5)), lambda terms, ko, ring: ScalarSeries(4, terms, ring, ko)),
    "HMatrix": ([(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1), (4, 0, 1)],
                lambda terms, ko, ring: HMatrix.from_terms(2, terms, 4, ring, ko)),
}
# s^2 = 3: a ring with a quadratic symbol
_QUAD = SymRing(("s",), {"s": 3})
# coefficient kind -> (ring, the five coefficients of the base element, a replacement)
_COEFFS = {
    "int": (None, [1, -2, 3, 5, -1], 7),
    "fraction": (None, [F(1), F(-1, 2), F(3, 7), F(5), F(-4, 3)], F(2, 9)),
    # the replacement Fraction(1) of the int 1 in degree 0 leaves the value unchanged
    "mixed": (None, [1, F(-1, 2), 3, F(5, 3), -1], F(1)),
    "poly": (_QUAD, [_QUAD.one, _QUAD.symbol("s") + F(1, 2), _QUAD.const(3),
                     _QUAD.symbol("s") * F(-2, 5), _QUAD.const(F(1, 4))], _QUAD.symbol("s")),
}


def _outcome(ask, order):
    """ask(order), or the type of the ValueError it raises."""
    try:
        return ask(order)
    except ValueError as exc:
        return type(exc)


def _assert_like_the_difference(a, b, order):
    """equal_through and is_one answer as the difference's is_zero does, or raise as it does."""
    assert _outcome(lambda k: a.equal_through(b, k), order) == _outcome((a - b).is_zero, order)
    assert _outcome(a.is_one, order) == _outcome((a - a._one()).is_zero, order)


@pytest.mark.parametrize("coeffs", sorted(_COEFFS))
@pytest.mark.parametrize("kind", sorted(_KEYED))
def test_comparison_matches_the_difference(kind, coeffs):
    keys, make = _KEYED[kind]
    ring, values, other = _COEFFS[coeffs]
    base = dict(zip(keys, values))
    # the same terms (ints as Fractions), zero, and one coefficient replaced or
    # dropped at each degree; swapping the operands adds one instead
    variants = [base, {k: F(c) if type(c) is int else c for k, c in base.items()}, {}]
    for key in keys:
        variants += [{**base, key: other}, {k: c for k, c in base.items() if k != key}]
    for ko_a, ko_b in ((4, 4), (3, 4), (4, 2), (0, 1)):
        a = make(base, ko_a, ring)
        for terms in variants:
            b = make(terms, ko_b, ring)
            for order in (None, 0, 1, 2, 3, 4, 5):
                _assert_like_the_difference(a, b, order)
                _assert_like_the_difference(b, a, order)
    # a difference only above the comparison degree
    top = make({**base, keys[4]: other}, 4, ring)
    assert make(base, 4, ring).equal_through(top, 3) and not make(base, 4, ring).equal_through(top)


def test_comparison_refuses_a_size_or_ring_mismatch():
    ring = _COEFFS["poly"][0]
    pairs = [(HMatrix.identity(2, 4), HMatrix.identity(3, 4)),
             (ScalarSeries.one(4, ring), ScalarSeries.one(4)),
             (NCSeries.one(XY, 4, ring), NCSeries.one(XY, 4))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                (x - y).is_zero()
            with pytest.raises(ValueError):
                x.equal_through(y)


def test_operands_of_different_types_are_refused():
    values = {"NCSeries": NCSeries.one(XY, 4) + NCSeries.letter(XY, "x", 4),
              "HoloElt": T3.one() + T3.generator(1, 2),
              "ScalarSeries": ScalarSeries.one(4) + ScalarSeries.gen(4),
              "HMatrix": HMatrix.identity(2, 4) + HMatrix.from_terms(2, {(1, 0, 1): F(1, 2)}, 4)}
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
           "equal_through": lambda a, b: a.equal_through(b)}
    for (left, a), (right, b) in itertools.permutations(values.items(), 2):
        for name, op in ops.items():
            if name == "*" and {left, right} == {"ScalarSeries", "HMatrix"}:
                # a series multiplies a matrix as the diagonal it stands for
                assert type(op(a, b)) is HMatrix
                continue
            with pytest.raises(ValueError, match="^cannot combine "):
                op(a, b)


def test_promote_checks_the_target_ring():
    ab, a_only, abc = SymRing(("a", "b")), SymRing(("a",)), SymRing(("a", "b", "c"))
    for make in (lambda ring: NCSeries.one(XY, 4, ring) + NCSeries.letter(XY, "y", 4, ring),
                 lambda ring: ScalarSeries.one(4, ring) + ScalarSeries.gen(4, ring),
                 lambda ring: HMatrix.identity(2, 4, ring)):
        value = make(ab) * ab.symbol("b")
        with pytest.raises(ValueError, match=r"target ring lacks \['b'\]$"):
            value.promote(a_only)
        with pytest.raises(ValueError, match="demote"):
            value.promote(None)
        assert value.promote(ab) is value
        assert value.promote(abc) == make(abc) * abc.symbol("b")
        assert make(None).promote(ab) == make(ab) != make(None)


def test_promote_refuses_a_lost_square_relation():
    """Over unitary_ring(3), s2 * s2 = 3; over Q[s2, s3] it would be s2^2."""
    u = unitary_ring(3)
    value = ScalarSeries.const(u.symbol("s2"), 3, u)
    assert (value * value).terms == {0: u.const(3)}
    with pytest.raises(ValueError, match=r"cannot promote: s2\^2 is 3 in the source ring but free"):
        value.promote(SymRing(("s2", "s3")))


def test_promote_refuses_a_new_square_relation():
    free = SymRing(("s2",))
    value = NCSeries.letter(XY, "x", 3, free) * free.symbol("s2")
    with pytest.raises(AlgebraError, match=r"cannot promote: s2\^2 is free in the source ring but 3"):
        value.promote(unitary_ring(3))


def _product_rule(a, b):
    wa, wb = a.order(), b.order()
    if wa is None or wb is None:
        return min(a.known_order, b.known_order)
    return min(a.known_order + wb, b.known_order + wa, a.maxdeg)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("seed", range(4))
def test_product_known_order_rule(kind, seed):
    rng = random.Random(seed)
    build = KINDS[kind][0]
    operands = []
    for _ in range(4):
        one, gens = build(rng.randint(1, 4))
        spec = [(rng.choice((-3, -1, 1, 2)), [rng.randrange(3) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 3))]
        x = _build(spec, one, gens)
        if rng.random() < 0.5:
            x = x + one * F(rng.randint(1, 3))
        operands += [x, x - x]
    for a in operands:
        for b in operands:
            assert (a * b).known_order == _product_rule(a, b)
    zero = operands[1]
    assert (zero * operands[0]).known_order == min(zero.known_order, operands[0].known_order)


def test_substitution_that_cancels_stores_no_term():
    """x y - y x at commuting images is zero, known through the least known order."""
    _, x, y = letters(4)
    bracket = x * y - y * x
    h = ScalarSeries.gen(4, known_order=3)
    images = {
        "NCSeries": ((x, F(2) * x.truncated(4, known_order=2)), nc_substitute),
        "HoloElt": ((T3.generator(1, 2, 3), T3.generator(1, 3, 2) + T3.generator(2, 3, 2)),
                    lambda series, imgs: embed_free(series, T3, imgs)),
        "HMatrix": ((h * HMatrix.from_const([[1, 0], [0, 2]], 4),
                     h * HMatrix.from_const([[3, 0], [0, -1]], 4, known_order=1)),
                    evaluate_series),
    }
    for (f, g), entry in images.values():
        assert (f * g - g * f).terms == {}
        got = entry(bracket, {"x": f, "y": g})
        assert got.terms == {}
        assert got.known_order == min(bracket.known_order, f.known_order, g.known_order) == 2


def test_substitution_with_a_zero_tail_keeps_its_known_order():
    """1 + yx/2 + xxy/2 at x = h P, y = x^2 through K = 3: the suffix xy, cut to
    degree 1 behind its first letter, is zero, so the tail behind x is zero and
    its product is known only through 2; the sum still holds through 3."""
    h = ScalarSeries.gen(4)
    x = h * HMatrix.from_const([[0, 1], [1, 0]], 4)
    y = x * x
    series = NCSeries(XY, 3, {b"": 1, bytes((1, 0)): F(1, 2), bytes((0, 0, 1)): F(1, 2)})
    [value] = substitute([series], {"x": x, "y": y}, HMatrix.identity(2, 4, known_order=3))
    assert value.known_order == 3
    assert value.terms == {(0, 0, 0): 1, (0, 1, 1): 1, (3, 0, 1): F(1, 2), (3, 1, 0): F(1, 2)}
    got = evaluate_series(series, {"x": x, "y": y})
    assert (got.terms, got.known_order) == (value.terms, 3)


def test_suffix_products_are_freed_without_the_cycle_collector():
    """The word products agree with plain products, and dropping the function
    leaves no reference cycle behind, so its cache is freed at once."""
    one, x, y = letters(4)
    gc.collect()
    product_for = suffix_products({"x": x, "y": y}, XY, one)
    assert product_for(b"\x01\x00\x01") == y * x * y
    assert product_for(b"\x00\x01") == x * y
    assert product_for(b"\x00\x00\x01") == x * x * y
    del product_for
    assert gc.collect() == 0


# -- degree-cut word products against whole products --------------------

T3_5 = HoloAlgebra(3, 5)
AB = SymRing(("a", "b"))


def _whole_products(series, images, one, zero):
    """Each word's whole product of the uncut images, from a unit known through
    maxdeg, times its coefficient, summed into one dict and truncated only at
    the end by zero._like."""
    acc = {}
    for word, coeff in series.terms.items():
        prod = one
        for b in word:
            prod = prod * images[series.alphabet[b]]
        c = zero._coerce(coeff)
        for key, v in prod.terms.items():
            acc[key] = acc.get(key, 0) + c * v
    return zero._like(acc)


def _cut_case(kind, ring, ko):
    """(one at maxdeg, zero at ko, order-1 generators, entry point) for one kind;
    HoloElt images stay over Q, and embed_free promotes them to the series' ring."""
    if kind == "NCSeries":
        one, x, y = letters(6, ring)
        return one, NCSeries.zero(XY, 6, ring, ko), [x, y], nc_substitute
    if kind == "HoloElt":
        gens = [T3_5.generator(1, 2), T3_5.generator(2, 3), T3_5.generator(1, 3)]
        return (T3_5.one(), T3_5.zero(ko), gens,
                lambda series, images: embed_free(series, T3_5, images))
    h = ScalarSeries.gen(6, ring)
    return (HMatrix.identity(2, 6, ring), HMatrix.zero(2, 6, ring, ko),
            [h * HMatrix.from_const([[0, 1], [1, 0]], 6, ring),
             h * HMatrix.from_const([[1, 0], [2, -1]], 6, ring)], evaluate_series)


@pytest.mark.parametrize("kind", ["NCSeries", "HoloElt", "HMatrix"])
@pytest.mark.parametrize("coeffs", ["Fraction", "Poly"])
@pytest.mark.parametrize("orders", [(1, 1), (1, 2), (2, 2), (1, None)], ids=str)
@pytest.mark.parametrize("below", ["series", "images"])
def test_cut_word_products_equal_whole_products(kind, coeffs, orders, below):
    """nc_substitute, embed_free and evaluate_series build each suffix only through
    the degree its position leaves; the sum equals that of whole word products."""
    rng = random.Random("%s %s %s %s" % (kind, coeffs, orders, below))
    ring = AB if coeffs == "Poly" and kind != "HoloElt" else None
    series_ring = AB if coeffs == "Poly" else None
    ko = 5 if below == "series" else 4
    one, zero, gens, entry = _cut_case(kind, ring, ko)
    zero = zero.promote(series_ring)

    def coefficient():
        c = F(rng.randint(-4, 4), rng.randint(1, 3))
        if series_ring is None:
            return c
        return AB.symbol("a") * c + AB.symbol("b") * F(rng.randint(-3, 3)) + 1

    def word_of(length):
        out = one
        for _ in range(length):
            out = out * gens[rng.randrange(len(gens))]
        return out

    images = {}
    for name, order in zip(XY, orders):
        # not homogeneous, so a cut image differs from the whole one; None for zero
        img = (one - one if order is None else
               word_of(order) + word_of(order + 1) * F(1, 2) + word_of(order + 2) * F(-3))
        if ring is not None and order is not None:
            img = img * AB.symbol("a") + word_of(order + 1) * AB.symbol("b")
        images[name] = img._like(img.terms, 5 if below == "series" else ko)
    terms = {bytes(rng.randrange(2) for _ in range(rng.randint(0, 6))): coefficient()
             for _ in range(40)}
    series = NCSeries(XY, 6, terms, series_ring, 5 if below == "series" else 6)
    got = entry(series, images)
    want = _whole_products(series, images, one, zero)
    assert got.known_order == want.known_order == ko
    assert got.terms == want.terms
    assert got.terms, "the case tests nothing"


def test_suffix_products_rebuild_a_suffix_cut_too_low():
    """A suffix first formed behind a letter is known one degree less; asked for
    on its own later, it is rebuilt through the full known order."""
    one, x, y = letters(4)
    images = {"x": x + y * y * y, "y": y + x * x}
    product_for = suffix_products(images, XY, one)
    xyx = product_for(b"\x00\x01\x00")
    assert xyx.equal_through(images["x"] * images["y"] * images["x"])
    yx = product_for(b"\x01\x00")
    assert yx.known_order == 4
    assert yx.equal_through(images["y"] * images["x"])
    assert yx.coefficient("yyyy") == 1


def test_suffix_products_form_each_word_once_with_a_zero_image(monkeypatch):
    """A zero image makes products of short known order; they are still kept as
    exact through the degree their position needs, so no word is formed twice."""
    one, x, y = letters(4)
    images = [x + x * y, one - one]
    words = sorted((bytes(w) for n in range(1, 5) for w in itertools.product(range(2), repeat=n)),
                   key=lambda w: (len(w), w))
    whole = {w: functools.reduce(lambda p, b: p * images[b], w, one).terms for w in words}
    calls = []
    monkeypatch.setattr(NCSeries, "__mul__",
                        lambda a, b: calls.append(1) or Truncated.__mul__(a, b))
    product_for = suffix_products(dict(zip(XY, images)), XY, one)
    for word in words:
        assert product_for(word).terms == whole[word]
    assert len(calls) == len(words)


def _plain_series_product(a, b, ko):
    """The terms of a * b through ko by a plain double loop over key pairs, keys
    multiplying by +, with no int scaling: the oracle for the generic product."""
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            if a._degree(k1) + b._degree(k2) <= ko:
                out[k1 + k2] = out[k1 + k2] + c1 * c2 if k1 + k2 in out else c1 * c2
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "poly"])
def test_generic_product_matches_the_plain_double_loop(kind):
    ring = SymRing(("a", "b")) if kind == "poly" else None
    rng = random.Random(311)

    def coeff():
        if kind == "poly":
            return F(rng.randint(-3, 3), 2) * ring.one + rng.randint(-2, 2) * ring.symbol("a")
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-4, 4)
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))

    for _ in range(30):
        ko = rng.randint(1, 6)
        words = [bytes(rng.randrange(2) for _ in range(rng.randint(0, 3))) for _ in range(6)]
        pair = [NCSeries(XY, 6, {w: coeff() for w in words}, ring, ko),
                ScalarSeries(6, {rng.randint(0, 4): coeff() for _ in range(4)}, ring, ko)]
        pair += [x._like({k: coeff() for k in x.terms}, rng.randint(1, 6)) for x in pair]
        for a, b in ((pair[0], pair[2]), (pair[1], pair[3]), (pair[0], pair[0] - pair[0])):
            got = a * b
            assert got.terms == _plain_series_product(a, b, got.known_order)
            types = {type(c) for c in list(a.terms.values()) + list(b.terms.values())}
            want = type(ring.one) if ring else F if F in types else int
            assert {type(c) for c in got.terms.values()} <= {want}


def test_series_times_matrix_either_side():
    h = ScalarSeries.gen(4, known_order=3)
    s = ScalarSeries.one(4, known_order=3) * F(2) + h * h * F(-1, 3)
    m = h * HMatrix.from_const([[1, 2], [0, -1]], 4) + HMatrix.identity(2, 4, known_order=2)
    left, right = s * m, m * s
    assert left.terms == right.terms and left.known_order == right.known_order == 2
    assert left.entry(0, 1).equal_through(s * m.entry(0, 1))


# -- no value stores a zero coefficient ----------------------------------
#
# _set alone drops the zero sums: the accumulators of linear, the sum and
# the products keep theirs.  The relations of U(T_n) reduce to no term at
# all in tests/test_holonomy.py.

def test_linear_drops_the_sums_that_cancel():
    """x -> x + y and y -> -x + 2 x.y send c (x + y) to c y + 2c x.y; the x sums cancel."""
    rows = {b"\x00": ((b"\x00", 1), (b"\x01", 1)), b"\x01": ((b"\x00", -1), (b"\x00\x01", 2))}
    for ring in (None, AB):
        _, x, y = letters(4, ring)
        c = F(3, 2) if ring is None else AB.symbol("a") * F(3, 2)
        f = (x + y) * c
        got = f.linear(rows.__getitem__)
        assert got.terms == {b"\x01": c, b"\x00\x01": 2 * c} and got.known_order == 4
        assert f.linear(lambda w: ((w, 1), (w, -1))).terms == {}
        # the image keeps the known order of its input
        cut = f.truncated(4, 1).linear(rows.__getitem__)
        assert cut.known_order == 1 and cut.terms == {b"\x01": c}


def test_permuted_and_dynkin_drop_what_cancels():
    alg = HoloAlgebra(3, 3)
    t12, t13, t23 = (alg.generator(*p) for p in ((1, 2), (1, 3), (2, 3)))
    # the images of both words hold t13.t23 and t23.t13, with opposite signs
    assert permuted(t13 * t12 + t13 * t23, (1, 3, 2)) == t13 * t12 + t23 * t12
    for ring in (None, AB):
        _, x, y = letters(4, ring)
        c = F(1) if ring is None else AB.symbol("b") - 1
        # D(x.y) = x.y - y.x = -D(y.x)
        assert dynkin((x * y + y * x + x) * c).terms == (x * c).terms


@pytest.mark.parametrize("over", ["Q", "Q[a,b]"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=10, deadline=None)
@given(spec_f=_SPEC_AB, spec_g=_SPEC_AB, ko=st.integers(2, 4))
def test_sums_and_products_store_no_zero(kind, over, spec_f, spec_g, ko):
    """+, - and * store no zero coefficient, where their sums cancel too."""
    if over == "Q":
        one, gens = KINDS[kind][0](ko)
        f, g = (_build([(p, word) for (p, _, _), word in spec], one, gens)
                for spec in (spec_f, spec_g))
    else:
        one, gens, _ = _ab_case(kind, ko)
        f, g = _build_ab(spec_f, one, gens), _build_ab(spec_g, one, gens)
    h = f + g
    for value in (f, g, h, h - g, f - f, -f + f, f * g, h * g - f * g, g * h - g * f, h * h):
        assert all(value.terms.values())
