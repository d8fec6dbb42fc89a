"""U(T_n) oracles: the defining relations as free words, reduction of free
words to normal form, and the pentagon's linear part by U(T_4) substitution.

relation_words and reduce_terms back the normal-form tests; pentagon_linear
is the U(T_4) route that the t_4 pentagon columns of the extension solver
are checked against.
"""

import itertools
from fractions import Fraction

from gtassoc import associators
from gtassoc.holonomy import HoloElt
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
