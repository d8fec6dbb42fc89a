import random
import sys
import threading
from fractions import Fraction as F

import pytest

from gtassoc.holonomy import hilbert_dimensions, transposition
from gtassoc.ncseries import NCSeries, commutator
from gtassoc.symcoef import Poly, SymRing

import _holonomy_oracle as holonomy
from _holonomy_oracle import (HoloAlgebra, HoloElt, braid_image, embed_free, permuted,
                              reduce_terms, relation_words, sigma_images, y_element)

XY = ("x", "y")


def hilbert_oracle(n, maxdeg):
    """Expand prod_{i=1}^{n-1} 1/(1-i t) by explicit long multiplication."""
    coeffs = [F(1)] + [F(0)] * maxdeg
    for i in range(1, n):
        # multiply by sum_k (i t)^k
        out = [F(0)] * (maxdeg + 1)
        for k in range(maxdeg + 1):
            acc = F(0)
            for j in range(k + 1):
                acc += coeffs[j] * F(i) ** (k - j)
            out[k] = acc
        coeffs = out
    return [int(c) for c in coeffs]


def test_hilbert_series_against_oracle():
    assert hilbert_dimensions(4, 6) == hilbert_oracle(4, 6) == [1, 6, 25, 90, 301, 966, 3025]
    assert hilbert_dimensions(3, 6) == hilbert_oracle(3, 6)
    assert hilbert_dimensions(2, 4) == [1, 1, 1, 1, 1]


def test_dimensions_match_hilbert():
    for n, maxdeg in ((2, 4), (3, 5), (4, 4)):
        alg = HoloAlgebra(n, maxdeg)
        assert alg.dimensions() == hilbert_oracle(n, maxdeg)


def test_degree_one_no_relations():
    alg = HoloAlgebra(3, 2)
    assert len(alg.basis_words(1)) == 3


def test_relations_reduce_to_zero_with_sandwiches():
    rng = random.Random(7)
    for n, maxdeg in ((3, 4), (4, 4)):
        alg = HoloAlgebra(n, maxdeg)
        letters = range(len(alg.letters))
        for rel in relation_words(alg):
            assert reduce_terms(alg, rel).terms == {}  # no zero coefficient is stored
            for _ in range(6):
                a = bytes(rng.choices(letters, k=rng.randint(0, 2)))
                b = bytes(rng.choices(letters, k=rng.randint(0, 2)))
                sandwich = {a + w + b: c for w, c in rel.items()}
                assert reduce_terms(alg, sandwich).terms == {}


def _relation_span_rank(alg, degree):
    """Independent oracle: rank of the degree-d relation span by dict-based
    Gaussian elimination over Q on free words."""
    rows = []
    letters = list(range(len(alg.letters)))
    rels = relation_words(alg)

    def all_words(d):
        if d == 0:
            return [b""]
        return [bytes(w) for w in __import__("itertools").product(letters, repeat=d)]

    for rel in rels:
        rel_deg = len(next(iter(rel)))
        for da in range(degree - rel_deg + 1):
            db = degree - rel_deg - da
            for a in all_words(da):
                for b in all_words(db):
                    rows.append({a + w + b: c for w, c in rel.items()})
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)  # graded-lex pivot inside one degree
            if lead in pivots:
                piv = pivots[lead]
                factor = row[lead] / piv[lead]
                for w, c in piv.items():
                    val = row.get(w, F(0)) - factor * c
                    if val:
                        row[w] = val
                    elif w in row:
                        del row[w]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


@pytest.mark.parametrize("n,degree", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_gaussian_elimination_cross_check(n, degree):
    # dual route: free dim - relation span rank equals the normal-form count
    alg = HoloAlgebra(n, max(degree, 2))
    free_dim = len(alg.letters) ** degree
    rank = _relation_span_rank(alg, degree)
    assert free_dim - rank == len(alg.basis_words(degree))


def test_reduction_idempotent_and_linear():
    alg = HoloAlgebra(4, 3)
    rng = random.Random(3)
    words = alg.basis_words(2) + alg.basis_words(3)
    for _ in range(5):
        pick = rng.sample(words, 6)
        elt = HoloElt(alg, {w: F(rng.randint(-4, 4), rng.randint(1, 3)) for w in pick})
        again = reduce_terms(alg, dict(elt.terms))
        assert again == elt


def test_centrality_and_commuting_y():
    for n in (3, 4):
        alg = HoloAlgebra(n, 4)
        z = alg.zero()
        for j in range(2, n + 1):
            for i in range(1, j):
                z = z + alg.generator(i, j)
        for k in range(len(alg.letters)):
            gen = HoloElt(alg, {bytes((k,)): F(1)})
            assert z.commutator(gen).is_zero()
        ys = [y_element(alg, r) for r in range(2, n + 1)]
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                assert ys[i].commutator(ys[j]).is_zero()


def test_disjoint_and_triple_relations_in_u4():
    alg = HoloAlgebra(4, 3)
    t12, t34 = alg.generator(1, 2), alg.generator(3, 4)
    assert t12.commutator(t34).is_zero()
    assert t12.commutator(alg.generator(1, 3) + alg.generator(2, 3)).is_zero()


def test_embed_free_multiplicative_and_relations_vanish():
    alg = HoloAlgebra(4, 4)
    AB = ("x", "y")
    one = NCSeries.one(AB, 4)
    x = NCSeries.letter(AB, "x", 4)
    y = NCSeries.letter(AB, "y", 4)
    f = one + x * y - 2 * y
    g = one - x + F(1, 3) * y * y
    images = {"x": alg.generator(1, 2) + alg.generator(1, 3),
              "y": alg.generator(2, 4) + alg.generator(3, 4)}
    assert (embed_free(f, alg, images) * embed_free(g, alg, images)).equal_through(
        embed_free(f * g, alg, images))
    # embedding of the commutator [x, y] with x -> t12, y -> t12+t13+t23 is zero
    center_images = {"x": alg.generator(1, 2),
                     "y": alg.generator(1, 2) + alg.generator(1, 3) + alg.generator(2, 3)}
    emb = embed_free(commutator(x, y), alg, center_images)
    assert emb.is_zero()


def test_exp_log_inverse_on_elements():
    alg = HoloAlgebra(3, 4)
    u = alg.generator(1, 2) + 2 * alg.generator(2, 3)
    assert u.exp().log().equal_through(u)
    g = u.exp()
    assert (g * g.inverse()).is_one()


def test_permutation_action():
    alg = HoloAlgebra(4, 3)
    s2 = transposition(4, 2)
    assert permuted(alg.generator(1, 2), s2) == alg.generator(1, 3)
    s3 = transposition(4, 3)
    assert permuted(alg.generator(3, 4), s3) == alg.generator(3, 4)
    prod = alg.generator(1, 2) * alg.generator(2, 3)
    back = permuted(permuted(prod, s2), s2)
    assert back == prod


def test_phi_tilde_delta_images(phi0):
    # the delta_r images are exp(lam Y_r), verified symbolically in the
    # 4-strand braid algebra
    from gtassoc.braids import delta_word
    alg = HoloAlgebra(4, 4)
    series = phi0.series.truncated(4)
    images = sigma_images(series, 1, alg)
    for r in (2, 3, 4):
        u, p = braid_image(images, alg, delta_word(4, r))
        assert p == (1, 2, 3, 4) and u.equal_through(y_element(alg, r).exp()), r


def test_resource_bound():
    with pytest.raises(ValueError):
        HoloAlgebra(4, 8)


def test_resource_bound_is_the_top_dimension():
    # dim U(T_4) in degrees 7, 8, 9 is 9330, 28501, 86526; the default admits 7 only
    assert HoloAlgebra(4, 7).maxdeg == 7
    for maxdeg in (8, 9):
        with pytest.raises(ValueError, match="resource bound"):
            HoloAlgebra(4, maxdeg)
    with pytest.raises(ValueError, match="resource bound"):
        HoloAlgebra(4, 7, dimension_bound=9329)
    # dimension 5880, the largest that the older bound on 6**6 free monomials admitted
    assert HoloAlgebra(8, 3).maxdeg == 3


def _oracle_product(u, v):
    """The product by reducing every concatenated word pair from scratch."""
    alg = u.algebra
    wa, wb = u.order(), v.order()
    if wa is None or wb is None:
        return alg.zero(min(u.known_order, v.known_order))
    ko = min(u.known_order + wb, v.known_order + wa, alg.maxdeg)
    concat = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            if len(w1) + len(w2) <= ko:
                concat[w1 + w2] = concat.get(w1 + w2, 0) + c1 * c2
    return reduce_terms(alg, concat, ko, u.ring)


def _random_element(rng, alg, ring):
    """A seeded element on normal-form words, its order and known order random."""
    low = rng.randint(0, 2)
    words = [w for d in range(low, alg.maxdeg + 1) for w in alg.basis_words(d)]
    terms = {}
    for w in rng.sample(words, min(len(words), rng.randint(1, 12))):
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        if ring is not None:
            c = c * ring.one + rng.randint(-2, 2) * ring.symbol(rng.choice(ring.symbols))
        terms[w] = c
    return HoloElt(alg, terms, known_order=rng.randint(low, alg.maxdeg), ring=ring)


def test_product_folds_onto_normal_right_factor():
    from gtassoc.symcoef import SymRing
    rng = random.Random(11)
    for n, maxdeg in ((3, 5), (4, 4)):
        alg = HoloAlgebra(n, maxdeg)
        for ring in (None, SymRing(("a", "b"))):
            for _ in range(25):
                u = _random_element(rng, alg, ring)
                v = _random_element(rng, alg, ring)
                for left, right in ((u, v), (v, u), (u, u)):
                    got, want = left * right, _oracle_product(left, right)
                    assert got.terms == want.terms
                    assert got.known_order == want.known_order
            # a sum of generators on the left, as in word images built from the left
            gens = alg.zero().promote(ring)
            for i, j in ((1, 2), (1, n), (n - 1, n)):
                gens = gens + alg.generator(i, j).promote(ring)
            v = _random_element(rng, alg, ring)
            assert (gens * v).terms == _oracle_product(gens, v).terms


def _plain_product(u, v, ko):
    """The terms of u * v through ko by a plain double loop over word pairs, each
    reduced by folding onto the right word, with no length buckets and no int
    scaling: the oracle for the bucketed, fraction-free product."""
    nf = u.algebra.normal_form
    out = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            if len(w1) + len(w2) <= ko:
                for mono, mult in nf(w1, w2).items():
                    out[mono] = out[mono] + c1 * c2 * mult if mono in out else c1 * c2 * mult
    return {w: c for w, c in out.items() if c}


AB_RING = SymRing(("a", "b"))
QUADRATIC = SymRing(("s", "a"), {"s": 3})
# coefficient kind -> a function (rng, left factor?) -> coefficient
_COEFFS = {
    "int": lambda rng, left: rng.randint(-4, 4),
    "fraction": lambda rng, left: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))),
    "mixed": lambda rng, left: rng.randint(-4, 4) if left or rng.random() < 0.5 else F(5, 6),
    "poly": lambda rng, left: (F(rng.randint(-3, 3), 2) * AB_RING.one
                               + rng.randint(-2, 2) * AB_RING.symbol(rng.choice("ab"))),
    "quadratic": lambda rng, left: (rng.randint(-3, 3) * QUADRATIC.symbol("s")
                                    + F(rng.randint(-3, 3), 5) * QUADRATIC.symbol("a")),
}


@pytest.mark.parametrize("kind", sorted(_COEFFS))
def test_product_matches_the_plain_double_loop(kind):
    alg = HoloAlgebra(4, 5)
    ring = {"poly": AB_RING, "quadratic": QUADRATIC}.get(kind)
    rng = random.Random(4057)
    formed = 0
    for _ in range(20):
        pair = []
        for left in (True, False):
            low = rng.randint(0, 2)
            terms = {rng.choice(alg.basis_words(rng.randint(low, 3))): _COEFFS[kind](rng, left)
                     for _ in range(rng.randint(1, 10))}
            pair.append(HoloElt(alg, terms, known_order=rng.randint(max(low, 1), 5), ring=ring))
        u, v = pair
        zero = alg.zero(3).promote(ring)
        for a, b in ((u, v), (v, u), (u, zero), (zero, v)):
            got = a * b
            formed += len(got.terms)
            assert got.known_order == _oracle_product(a, b).known_order
            assert got.terms == _plain_product(a, b, got.known_order)
            # the coefficients are Fractions over Q and Polys of the ring over a ring
            want = F if ring is None else Poly
            assert {type(c) for c in got.terms.values()} <= {want}
            assert all(c.ring == ring for c in got.terms.values() if type(c) is Poly)
    assert formed > 400
    # a known order that truncates: words past it are never formed
    short = HoloElt(alg, {bytes((0,)): F(1, 2), bytes((0, 1, 2)): F(2, 3)}, known_order=3)
    got = short * short
    assert got.known_order == 4 and got.terms == _plain_product(short, short, 4)


def test_embed_free_of_a_poly_series_matches_the_per_word_sum():
    a, b = AB_RING.symbol("a"), AB_RING.symbol("b")
    alg = HoloAlgebra(4, 4)
    x = NCSeries.letter(XY, "x", 4, AB_RING)
    y = NCSeries.letter(XY, "y", 4, AB_RING)
    images = {"x": F(1, 2) * alg.generator(1, 2) - F(2, 3) * alg.generator(3, 4),
              "y": alg.generator(1, 3) + F(1, 5) * alg.generator(2, 4) * alg.generator(1, 2)}
    series = (a * F(1, 3) + b) * x * y + (b - a) * y * x * x + a * y * y * y + F(3, 7) * x
    got = embed_free(series, alg, images)
    want = alg.zero().promote(AB_RING)
    for word, c in series.terms.items():
        prod = alg.one().promote(AB_RING)
        for letter in word:
            prod = prod * images[XY[letter]].promote(AB_RING)
        want = want + c * prod
    assert got.terms == want.terms and got.known_order == want.known_order == 4
    assert all(type(c) is Poly for c in got.terms.values())
    # at commuting images, (a + b) x y - a y x keeps only b on t12.t34: the a cancels
    got = embed_free((a + b) * x * y - a * y * x, alg,
                     {"x": alg.generator(1, 2), "y": F(1, 2) * alg.generator(3, 4)})
    assert len(got.terms) == 1
    (coeff,) = got.terms.values()
    assert coeff == F(1, 2) * b and len(coeff.terms) == 1
    assert embed_free(a * x * y - a * y * x, alg,
                      {"x": alg.generator(1, 2), "y": alg.generator(3, 4)}).terms == {}


def test_registry_hands_racing_threads_one_algebra(monkeypatch):
    monkeypatch.setattr(holonomy, "_REGISTRY", {})
    barrier = threading.Barrier(2, timeout=5)
    build = HoloAlgebra.__init__

    def build_after_both_missed(self, *args, **kwargs):
        # each thread waits here until the other has missed the registry too
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a registry that lets one thread build at a time
        build(self, *args, **kwargs)

    monkeypatch.setattr(HoloAlgebra, "__init__", build_after_both_missed)
    got = [None, None]

    def fetch(k):
        got[k] = holonomy.holonomy_algebra(3, 3)

    threads = [threading.Thread(target=fetch, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert got[0] is got[1] is holonomy._REGISTRY[(3, 3)]


def _threaded_work(seed):
    """Products of seeded generator combinations in U(T_4) at degree 5, one exp,
    one S_4 image, and w-basis coordinates: every shared table gets filled."""
    from gtassoc.wbasis import DEGREE_SPANS, w_coordinates, w_element
    alg = holonomy.holonomy_algebra(4, 5)
    rng = random.Random(seed)
    pairs = [(i, j) for j in range(2, 5) for i in range(1, j)]
    combos = []
    for _ in range(4):
        u = alg.zero()
        for i, j in rng.sample(pairs, 3):
            u = u + F(rng.randint(-3, 3) or 1, rng.randint(1, 3)) * alg.generator(i, j)
        combos.append(u)
    out = [combos[0] * combos[1] * combos[2], (combos[2] * combos[3]).commutator(combos[0])]
    out.append((combos[seed % 4] + combos[1] * combos[3]).exp())
    out.append(permuted(out[0], transposition(4, 1 + seed % 3)))
    coords = [w_coordinates(w_element(k), degree)
              for degree, span in DEGREE_SPANS.items() for k in span]
    return alg, [(u.known_order, u.terms) for u in out] + coords


def test_algebras_are_shared_freely_across_threads(monkeypatch):
    from gtassoc import wbasis
    monkeypatch.setattr(holonomy, "_REGISTRY", {})
    monkeypatch.setattr(wbasis, "_CACHE", {})
    expected = [_threaded_work(seed)[1] for seed in range(4)]
    monkeypatch.setattr(holonomy, "_REGISTRY", {})
    monkeypatch.setattr(wbasis, "_CACHE", {})
    got = [None] * 4

    def work(seed):
        got[seed] = _threaded_work(seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads inside the cache fills
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(alg is got[0][0] for alg, _ in got)
    assert [results for _, results in got] == expected


def test_algebras_on_n_strands_share_one_row_table(monkeypatch):
    monkeypatch.setattr(holonomy, "_REGISTRY", {})
    low, high = holonomy.holonomy_algebra(4, 3), holonomy.holonomy_algebra(4, 5)
    assert low._prepend_cache is high._prepend_cache
    assert holonomy.holonomy_algebra(3, 5)._prepend_cache is not high._prepend_cache
    # a row that the degree-5 algebra filled gives the degree-3 product the same answer
    u = high.generator(1, 3) + F(2) * high.generator(2, 4)
    permuted(u * u * u, transposition(4, 2))
    v = low.generator(1, 3) + F(2) * low.generator(2, 4)
    got = permuted(v * v * v, transposition(4, 2))
    fresh = HoloAlgebra(4, 3)
    monkeypatch.setattr(fresh, "_prepend_cache", {})
    w = fresh.generator(1, 3) + F(2) * fresh.generator(2, 4)
    assert got.terms == permuted(w * w * w, transposition(4, 2)).terms
