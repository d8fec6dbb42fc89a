"""U(T_n) oracles: the defining relations as free words, reduction of free
words to normal form, the pentagon's linear part by U(T_4) substitution, and
braid words pushed through an associator's morphism into kS_n |x U(T_n).

relation_words and reduce_terms back the normal-form tests; pentagon_linear
is the U(T_4) route that the t_4 pentagon columns of the extension solver
are checked against.  sigma_images and braid_image carry a braid word to
one pair (u, p), an element u of U(T_n) and a permutation p standing for
u . p; the GT_1 4-strand relation pushed that way is the route that
grtgt.gt_pentagon_defect, the pentagon of g.phi0, is checked against.
"""

import itertools
from fractions import Fraction

from gtassoc import associators
from gtassoc.braids import xi_word
from gtassoc.holonomy import HoloElt, embed_free, holonomy_algebra, transposition
from gtassoc.symcoef import as_fraction
from gtassoc.truncated import substitute


def relation_words(alg):
    """The defining relations of alg as {word: coeff} dicts over generator letters."""
    rels = []
    idx = alg.generator_index
    for (i, j, k, l) in itertools.combinations(range(1, alg.n + 1), 4):
        for (a, b), (c, d) in itertools.combinations(itertools.combinations((i, j, k, l), 2), 2):
            if len({a, b, c, d}) == 4:
                p, q = idx(a, b), idx(c, d)
                rels.append({bytes((p, q)): Fraction(1), bytes((q, p)): Fraction(-1)})
    for (i, k, j) in itertools.permutations(range(1, alg.n + 1), 3):
        if i < j:
            p, q, r = idx(i, j), idx(i, k), idx(k, j)
            rels.append({
                bytes((p, q)): Fraction(1), bytes((q, p)): Fraction(-1),
                bytes((p, r)): Fraction(1), bytes((r, p)): Fraction(-1),
            })
    return rels


def reduce_terms(alg, terms, known_order=None):
    """A {free word: coeff} dict reduced into a HoloElt; words past the known order are dropped."""
    return HoloElt(alg, terms, known_order).linear(lambda w: alg.normal_form(w).items())


def pentagon_linear(elements, algebra):
    """psi(d3) + psi(d1) - psi(d0) - psi(d2) - psi(d4) in U(T_4) for int series
    psi of one degree, each face one int substitution of all of them; one
    {basis word: int} per element, its zero sums left in."""
    one = HoloElt(algebra, {b"": 1})
    sums = [{} for _ in elements]
    for name, xs, ys in associators.PENTAGON_FACES:
        sign = associators._FACE_SIGNS[name]
        images = associators._face_images(algebra, xs, ys)
        for acc, value in zip(sums, substitute(elements, images, one)):
            for mono, c in value.terms.items():
                acc[mono] = acc.get(mono, 0) + sign * c
    return sums


def permuted(elt, perm):
    """The image of elt under t_ij -> t_{perm(i)perm(j)}, one normal_form per
    moved word; perm gives s(1..n) at indices 0..n-1."""
    alg = elt.algebra

    def row(word):
        moved = bytes(alg.generator_index(perm[i - 1], perm[j - 1])
                      for i, j in (alg.pair_of[b] for b in word))
        return alg.normal_form(moved).items()
    return elt.linear(row)


def y_element(alg, r):
    """Y_r = t_1r + ... + t_{r-1,r}; Y_1 = 0."""
    out = alg.zero()
    for i in range(1, r):
        out = out + alg.generator(i, r)
    return out


def sigma_images(series, lam, algebra):
    """The braid generators' images under the morphism attached to an associator.

    sigma_i maps to a . s_i . b with t = t_{i,i+1}, a = Phi(t, Y_i) and
    b = exp(lam t/2) Phi(Y_i, t).  Moving s_i to the right, s_i . v = (s_i v) . s_i
    gives sigma_i = u_i . s_i and sigma_i^-1 = b^-1 . s_i . a^-1 = u'_i . s_i.
    Returns {i: (s_i, u_i, u'_i)} for i = 1..n-1.
    """
    lam = as_fraction(lam)
    out = {}
    for i in range(1, algebra.n):
        t, y = algebra.generator(i, i + 1), y_element(algebra, i)
        a = embed_free(series, algebra, {"x": t, "y": y})
        b = (Fraction(lam, 2) * t).exp() * embed_free(series, algebra, {"x": y, "y": t})
        s = transposition(algebra.n, i)
        out[i] = (s, a * permuted(b, s), b.inverse() * permuted(a.inverse(), s))
    return out


def braid_image(images, algebra, letters):
    """The image u . p of a braid word (signed generator indices) under
    sigma_images, as the pair (u, p): each letter folds in as
    (u, p)(v, s) = (u . p v, p s), where p v is v itself while p is the identity."""
    identity = tuple(range(1, algebra.n + 1))
    u, p = algebra.one(), identity
    for v in letters:
        s, image, inverse = images[abs(v)]
        factor = image if v > 0 else inverse
        u = u * (factor if p == identity else permuted(factor, p))
        p = tuple(p[s[i] - 1] for i in range(len(p)))
    return u, p


def promoted_reference_defect(series, reference):
    """The GT_1 4-strand equation, lhs - rhs in U(T_4), on the logs of the
    images of xi_12, xi_13, xi_23, xi_24 and xi_34 under the morphism of the
    reference associator, promoted to the series ring first."""
    ref = reference.promote(series.ring)
    algebra = holonomy_algebra(4, min(series.known_order, ref.known_order))
    images = sigma_images(ref.series, ref.lam, algebra)
    xi = {}
    for p in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        u, perm = braid_image(images, algebra, xi_word(4, *p))
        assert perm == (1, 2, 3, 4)
        xi[p] = u

    def f_at(u, v):
        return embed_free(series, algebra, {"x": u.log(), "y": v.log()})

    lhs = f_at(xi[1, 2], xi[2, 3] * xi[2, 4]) * f_at(xi[1, 3] * xi[2, 3], xi[3, 4])
    rhs = (f_at(xi[2, 3], xi[3, 4]) * f_at(xi[1, 2] * xi[1, 3], xi[2, 4] * xi[3, 4])
           * f_at(xi[1, 2], xi[2, 3]))
    return lhs - rhs
