"""Series algorithms written once for every truncated type in the package.

NCSeries, HoloElt, ScalarSeries, HMatrix and BnElt share a small protocol:
``order()`` (lowest degree present, None for zero), ``known_order``, and
``+``, ``-`` and ``*``, including ``c * x`` for a coefficient c (a Fraction,
or a Poly of the series ring).  The caller passes the unit (and zero) built
with the known order the result must carry; nothing here reads a
coefficient, so Fraction and Poly coefficients work alike.

Word images are built from the left, image(first letter) * image(rest),
so the single-generator factor sits on the left, which a holonomy product
folds onto the normal right factor for the cost of one cached rewrite.
"""

from __future__ import annotations

from fractions import Fraction


def series_exp(f, one):
    """exp(f) = sum_k f^k / k! through f.known_order; f must have positive order."""
    w = f.order()
    if w is not None and w < 1:
        raise ValueError("exp needs a series of positive order")
    acc = term = one
    k = 1
    while w is not None and k * w <= f.known_order:
        term = Fraction(1, k) * (term * f)
        if term.order() is None:
            break
        acc = acc + term
        k += 1
    return acc


def series_log(g, one):
    """log(g) = sum_k (-1)^(k+1) u^k / k with u = g - 1 of positive order."""
    u = g - one
    w = u.order()
    if w is not None and w < 1:
        raise ValueError("log needs constant term 1")
    acc = one - one
    power = one
    k = 1
    while w is not None and k * w <= g.known_order:
        power = power * u
        if power.order() is None:
            break
        acc = acc + Fraction((-1) ** (k + 1), k) * power
        k += 1
    return acc


def neumann_inverse(x, lead_inv, one):
    """x^-1 = (sum_k v^k) lead_inv with v = 1 - lead_inv x of positive order.

    lead_inv inverts the leading (degree-0) part of x; the sum stops when a
    power vanishes or after x.known_order terms.
    """
    v = one - lead_inv * x
    acc = power = one
    for _ in range(x.known_order):
        power = power * v
        if power.order() is None:
            break
        acc = acc + power
    return acc * lead_inv


def suffix_products(images, alphabet, one):
    """A function word -> product of the images of its letters, built from the left.

    Words are bytes of indices into alphabet; images maps letter names to
    values.  Every word asked for, and each of its suffixes, is formed once
    and kept, so callers that must not keep a word ask for its suffix and
    multiply the first letter's image on the left themselves.
    """
    cache = {b"": one}

    def product_for(word):
        got = cache.get(word)
        if got is None:
            got = cache[word] = images[alphabet[word[0]]] * product_for(word[1:])
        return got

    return product_for


def substitute(series, images, one, zero):
    """series evaluated at images: sum over words of coefficient * product of images.

    images maps letter names to values of positive order.  Words are taken
    in (length, lex) order, the product for each suffix is formed once, and
    words longer than zero.known_order are skipped.
    """
    ko = zero.known_order
    product_for = suffix_products(images, series.alphabet, one)
    out = zero
    for word, coeff in series.rendered_words():
        if len(word) <= ko:
            out = out + coeff * product_for(word)
    return out
