"""The Dynkin-Specht-Wever test of Lie-ness: the oracle of ncseries.is_lie.

A homogeneous series c_n of degree n is a Lie element iff D(c_n) = n c_n,
D the right-to-left Dynkin bracketing of each word.  D keeps degrees, so a
series without constant term is Lie iff D(f) equals f with each degree-n
term scaled by n, compared through the known order.  This is independent of
the Lyndon coordinates that ncseries.is_lie reads.
"""

from gtassoc.ncseries import EMPTY


def _dynkin_word(word):
    """Right-to-left bracketing [w1,[w2,[...,wn]]] of a word, as {word: int}."""
    acc = {word[-1:]: 1}
    for b in reversed(word[:-1]):
        letter, out = bytes([b]), {}
        for w, n in acc.items():
            for key, m in ((letter + w, n), (w + letter, -n)):
                out[key] = out.get(key, 0) + m
        acc = {w: n for w, n in out.items() if n}
    return acc


def dynkin(f):
    """The Dynkin map D applied to every homogeneous component."""
    if EMPTY in f.terms:
        raise ValueError("Dynkin map undefined on constant terms")
    return f.linear(lambda w: _dynkin_word(w).items())


def is_lie(f):
    """True iff every homogeneous component c_n satisfies D(c_n) = n c_n."""
    if f.coefficient(EMPTY):
        return False
    graded = f._remade(lambda layer: {w: len(w) * v for w, v in layer.items()})
    return dynkin(f).equal_through(graded)
