"""The bracket-monomial basis of the free Lie algebra on x, y through degree 5.

    w3 = [x,y]            w4 = [x,[x,y]]        w5 = [y,[y,x]]
    w6 = [x,[x,[x,y]]]    w7 = [y,[x,[x,y]]]    w8 = [y,[y,[x,y]]]
    w9  = [x,[x,[x,[x,y]]]]   w10 = [y,[x,[x,[x,y]]]]   w11 = [y,[y,[x,[x,y]]]]
    w12 = [y,[y,[y,[x,y]]]]   w13 = [[x,y],[x,[x,y]]]   w14 = [[x,y],[y,[x,y]]]

Degrees 2/3/4/5 are spanned by {w3}, {w4,w5}, {w6,w7,w8}, {w9..w14}.
``w_coordinates`` reads a series' coordinates on them with
``linalg.coordinates``, over Q or over a ring of symbols.
"""

from __future__ import annotations

from .linalg import coordinates
from .ncseries import NCSeries, commutator
from .symcoef import layers

XY = ("x", "y")

_W_RECIPES = {
    3: ("x", "y"),
    4: ("x", 3),
    5: ("y", ("y", "x")),
    6: ("x", 4),
    7: ("y", 4),
    8: ("y", ("y", 3)),
    9: ("x", 6),
    10: ("y", 6),
    11: ("y", 7),
    12: ("y", 8),
    13: (3, 4),
    14: (3, ("y", 3)),
}

DEGREE_SPANS = {2: (3,), 3: (4, 5), 4: (6, 7, 8), 5: (9, 10, 11, 12, 13, 14)}


def w_element(k, maxdeg=5, ring=None) -> NCSeries:
    """w_k expanded as a word series over {x, y}."""
    def build(spec):
        if isinstance(spec, str):
            return NCSeries.letter(XY, spec, maxdeg, ring)
        if isinstance(spec, int):
            return build(_W_RECIPES[spec])
        left, right = spec
        return commutator(build(left), build(right))
    return build(_W_RECIPES[k])


_CACHE = {}


def w_coordinates(series: NCSeries, degree):
    """Coordinates {k: c} of the degree-d part of series on the w_k (d in 2..5).

    The w_k of the degree are int columns, built once, and linalg.coordinates
    reads the target on them: a coordinate is Fraction(0) when zero, else a
    Fraction over Q or a Poly over a ring; a target outside the span raises
    ValueError.
    """
    columns = _CACHE.get(degree)
    if columns is None:
        columns = _CACHE[degree] = [(d, by_exps[()]) for d, by_exps in
                                    (layers(w_element(k).terms) for k in DEGREE_SPANS[degree])]
    return dict(zip(DEGREE_SPANS[degree],
                    coordinates(columns, series.homogeneous(degree).terms, series.ring)))
