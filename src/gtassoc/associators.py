"""Associator candidates and their defining equations, in truncation.

A candidate is a pair (lambda, Phi) with Phi a series over {x,y} with
constant term 1.  The four defining conditions checked here are grouplike-
ness, the inversion symmetry Phi(y,x) Phi(x,y) = 1, the two-parameter
hexagon

    e^{lam x/2} Phi(z,x) e^{lam z/2} Phi(y,z) e^{lam y/2} Phi(x,y) = 1,
    z = -x-y,

and the pentagon, an equation between the five faces

    d3 = Phi(t12, t23+t24)   d1 = Phi(t13+t23, t34)   d0 = Phi(t23, t34)
    d2 = Phi(t12+t13, t24+t34)   d4 = Phi(t12, t23)

in the truncated enveloping algebra of the 4-strand holonomy Lie algebra
t_4: (d3)(d1) = (d0)(d2)(d4).  For grouplike Phi = exp(phi) each face is
exp phi(face), and exp is injective on the completed t_4 (Drinfeld), so the
pentagon holds through K exactly when

    P = BCH(phi(d3), phi(d1))  equals  Q = BCH(BCH(phi(d0), phi(d2)), phi(d4))

in t_4 through K (module tlie).  pentagon_defect is P - Q on the
normal-form words of U(T_4): where P = Q below degree m, exp P - exp Q is
P - Q in degree m, so its lowest-degree part is that of the U(T_4) defect
term for term.  Over a ring the defect is decided on a grid of rational
points (_grid) and read back by interpolation there.

The degree-3 coefficient c is the coordinate on [x,[x,y]] - [y,[y,x]]; the
degree-5 reference candidate phi0_reference is even with c = 0.

extend_associator adds one degree.  A candidate that satisfies the equations
through degree D is changed by a Lie element psi, homogeneous of degree D+1.
Every product of psi with a term of positive degree lies past degree D+1,
so the degree-(D+1) defects are exactly affine in psi: the defect of the
unchanged candidate plus a linear map L(psi), with z = -x-y,

    duality   psi(y,x) + psi(x,y)
    hexagon   psi(z,x) + psi(y,z) + psi(x,y)      (free of lambda)
    pentagon  psi(d3) + psi(d1) - psi(d0) - psi(d2) - psi(d4).

Its kernel on Lie elements is the degree-(D+1) part of grt_1 (Drinfeld;
Furusho, "Pentagon and hexagon equations"): dimensions 1, 0, 1, 0, 1 in
degrees 3 to 7, spanned by sigma_3, sigma_5 and sigma_7.

The solver works in t_4 too: the unknowns and the pentagon residual are
Lie.  The unknowns are the Lyndon basis elements of degree D+1.  Each face
is evaluated on them by standard-factorization brackets, with one image
cache per face and degree, and their duality and hexagon blocks come from
one int substitution of all of them at (z,x) and at (y,z).  The
right-hand side is the residual of start = base - log tail, whose log is
phi = log(base) cut at D, so its pentagon rows are P - Q in degree D+1.
A Lie element is fixed by its coefficients on Lyndon words, so the
pentagon rows are those words alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import tlie
from .linalg import solve_columns
from .ncseries import (EMPTY, NCSeries, letter_swap, lie_coordinates, lyndon_basis,
                       lyndon_words, nc_exp, nc_log, nc_substitute, to_text)
from .symcoef import as_fraction, common_denominator, layers
from .truncated import substitute
from .wbasis import XY, w_coordinates, w_element

# the degree where the tabulated reference data (phi0, psi1, psi2) stops
REFERENCE_DEGREE = 5


class AssociatorCandidate:
    """A series over {x,y} with constant term 1 together with its lambda."""

    __slots__ = ("series", "lam")

    def __init__(self, series: NCSeries, lam=1):
        if series.alphabet != XY:
            raise ValueError("associators live over the alphabet (x, y)")
        if series.coefficient(b"") != 1:
            raise ValueError("associator series must have constant term 1")
        self.series = series
        self.lam = as_fraction(lam)

    @property
    def maxdeg(self):
        return self.series.maxdeg

    @property
    def known_order(self):
        return self.series.known_order

    def promote(self, ring):
        return AssociatorCandidate(self.series.promote(ring), self.lam)

    def __repr__(self):
        return "<AssociatorCandidate lambda=%s %r>" % (self.lam, self.series)

    def to_text(self):
        return to_text(self.series, extra={"lambda": self.lam})


def duality_check(phi: AssociatorCandidate) -> bool:
    """Phi(y,x) = Phi(x,y)^{-1} through the known order."""
    s = phi.series
    swapped = letter_swap(s)
    return (swapped * s).is_one()


def hexagon_product(series: NCSeries, lam) -> NCSeries:
    """e^{lam x/2} Phi(z,x) e^{lam z/2} Phi(y,z) e^{lam y/2} Phi(x,y), z = -x-y."""
    x = NCSeries.letter(XY, "x", series.maxdeg, series.ring, series.known_order)
    y = NCSeries.letter(XY, "y", series.maxdeg, series.ring, series.known_order)
    z = -1 * x - y
    half = Fraction(as_fraction(lam), 2)
    prod = nc_exp(half * x)
    prod = prod * nc_substitute(series, {"x": z, "y": x})
    prod = prod * nc_exp(half * z)
    prod = prod * nc_substitute(series, {"x": y, "y": z})
    prod = prod * nc_exp(half * y)
    prod = prod * series
    return prod


def hexagon_check(phi: AssociatorCandidate) -> bool:
    """The six-factor hexagon product reduces to 1 through the known order."""
    return hexagon_product(phi.series, phi.lam).is_one()


PENTAGON_FACES = (
    ("d3", (("t", 1, 2),), (("t", 2, 3), ("t", 2, 4))),
    ("d1", (("t", 1, 3), ("t", 2, 3)), (("t", 3, 4),)),
    ("d0", (("t", 2, 3),), (("t", 3, 4),)),
    ("d2", (("t", 1, 2), ("t", 1, 3)), (("t", 2, 4), ("t", 3, 4))),
    ("d4", (("t", 1, 2),), (("t", 2, 3),)),
)


# the sign of each face in (d3)(d1) - (d0)(d2)(d4), hence in its linear part
_FACE_SIGNS = {"d3": 1, "d1": 1, "d0": -1, "d2": -1, "d4": -1}


# dim t_4 in the top degree, which sizes every pentagon and extension: admits
# degree 8 (840) but not 9 (2240)
T4_DIMENSION_BOUND = 1000


def check_size(degree):
    """Refuses, with ValueError, a pentagon through a degree where dim t_4 is
    past T4_DIMENSION_BOUND."""
    dim = tlie.dimension(degree)
    if dim > T4_DIMENSION_BOUND:
        raise ValueError("degree-%d dimension %d of t_4 exceeds the resource bound %d"
                         % (degree, dim, T4_DIMENSION_BOUND))


@lru_cache(maxsize=None)
def _lie_faces(degree):
    """One Lyndon-image cache per pentagon face, at the face's images of x and
    y in t_4 through degree; the faces do not depend on Phi, so each degree
    builds them once."""
    def image(pairs):
        return tlie.combination([(1, tlie.generator(tlie.letter(i, j), degree))
                                 for (_, i, j) in pairs], degree)
    return {name: tlie.lyndon_images(image(xs), image(ys)) for name, xs, ys in PENTAGON_FACES}


def _bch_faces(faces, coords, cut):
    """((p, dp), (q, dq)) with P = p/dp = BCH(phi(d3), phi(d1)) and
    Q = q/dq = BCH(BCH(phi(d0), phi(d2)), phi(d4)) in t_4 through cut, phi
    the Lie series of the Lyndon coordinates coords, read through the face
    caches."""
    den = common_denominator(c for _, c in coords)
    phi = {name: tlie.combination([(int(c * den), image(w)) for w, c in coords], cut)
           for name, image in faces.items()}
    p, dp = tlie.bch(phi["d3"], phi["d1"], den)
    inner, di = tlie.bch(phi["d0"], phi["d2"], den)
    m = lcm(di, den)
    q, dq = tlie.bch(tlie.combination([(m // di, inner)], cut),
                     tlie.combination([(m // den, phi["d4"])], cut), m)
    return (p, dp), (q, dq)


def _difference(pq, degree, keep=None):
    """P - Q in one degree as {U(T_4) word: Fraction}, zeros dropped, on the
    words that keep accepts (all of them for None)."""
    (p, dp), (q, dq) = pq
    pd, qd = p.homogeneous(degree), q.homogeneous(degree)
    out = {}
    for w in pd.keys() | qd.keys():
        if keep is None or keep(w):
            n = pd.get(w, 0) * dq - qd.get(w, 0) * dp
            if n:
                out[w] = Fraction(n, dp * dq)
    return out


def _rational_rows(series):
    """[P - Q in degree d for d = 1..K] of a series over Q with constant term
    1, known through K, or None when its log is not Lie."""
    ko = series.known_order
    try:
        coords = lie_coordinates(nc_log(series), ko)
    except ValueError:
        return None
    if ko < 1:
        return []
    pq = _bch_faces(_lie_faces(ko), coords, ko)
    return [_difference(pq, d) for d in range(1, ko + 1)]


def _grid(series):
    """{symbol: m_s}: the pentagon of a series over a ring is decided on the
    grid prod_s {0, ..., m_s} of rational points, and over Q at the one
    point of the empty grid.

    With r_s the largest deg_s(c_w)/|w| over the terms c_w w, a product adds
    word degrees and symbol degrees alike, so every degree-d coefficient of
    the log, of the faces, of the BCH series and of P - Q has deg_s at most
    floor(r_s d).  Through the known order K, m_s = floor(r_s K) bounds them
    all, and a polynomial of degree at most m_s in each s that vanishes on
    the grid is zero: the grid decides the Lie test and P = Q exactly, and
    Lagrange interpolation on it gives the ring's P - Q.  A ring with a
    square relation has no such grid and is refused.
    """
    ring = series.ring
    if ring is None:
        return {}
    if ring.squares:
        raise ValueError("the pentagon is decided at rational points, and the ring's %s "
                         "has none" % ", ".join("%s^2 = %s" % (ring.symbols[i], v)
                                                for i, v in sorted(ring.squares.items())))
    ko = series.known_order
    top = dict.fromkeys(ring.symbols, 0)
    for w, c in series.terms.items():
        if w:
            for e in c.terms:
                for name, x in zip(ring.symbols, e):
                    top[name] = max(top[name], x * ko // len(w))
    return top


def pentagon_defect(series: NCSeries):
    """P - Q in t_4 through the known order K, as a series over the letters
    tlie.LETTERS on U(T_4) normal-form words, with the series' ring.

    Its lowest-degree part is that of (d3)(d1) - (d0)(d2)(d4) in U(T_4).
    A series whose constant term is not 1 or whose log is not Lie has no P
    and Q: the defect is None, and the pentagon fails.  A ring with a
    square relation (_grid) and a K past T4_DIMENSION_BOUND raise
    ValueError.
    """
    ko, ring = series.known_order, series.ring
    top = _grid(series)
    check_size(ko)
    if series.coefficient(EMPTY) != 1:
        return None
    defect = NCSeries.zero(tlie.LETTERS, ko, ring)
    for values in itertools.product(*(range(m + 1) for m in top.values())):
        point = dict(zip(top, values))
        rows = _rational_rows(series if ring is None else series.specialize(None, point))
        if rows is None:
            return None
        # Lagrange interpolation: the value at each point of the grid times
        # prod_s prod_{k != point_s} (s - k)/(point_s - k)
        weight = 1
        for name, at in point.items():
            for k in range(top[name] + 1):
                if k != at:
                    weight = weight * (ring.symbol(name) - k) * Fraction(1, at - k)
        value = NCSeries(tlie.LETTERS, ko, {w: c for part in rows for w, c in part.items()})
        defect = defect + weight * value.promote(ring)
    return defect


def pentagon_check(phi: AssociatorCandidate) -> bool:
    """The pentagon holds through the known order: pentagon_defect is zero.
    False for a series whose constant term is not 1 or whose log is not
    Lie."""
    defect = pentagon_defect(phi.series)
    return defect is not None and defect.is_zero()


def certify(phi: AssociatorCandidate) -> dict:
    """Run all four membership conditions; returns {check: bool}.

    pentagon_defect runs first and reads the log of Phi once: it refuses a
    degree past T4_DIMENSION_BOUND before any check runs, and it is None,
    so grouplike and the pentagon are False, exactly when the log is not
    Lie.
    """
    defect = pentagon_defect(phi.series)
    return {
        "grouplike": defect is not None,
        "duality": duality_check(phi),
        "hexagon": hexagon_check(phi),
        "pentagon": defect is not None and defect.is_zero(),
    }


def c_extract(phi):
    """Coefficient of [x,[x,y]] - [y,[y,x]] in the degree-3 component.

    Raises when the degree-3 component is not proportional to that element.
    """
    series = phi.series if isinstance(phi, AssociatorCandidate) else phi
    coords = w_coordinates(series, 3)
    c4, c5 = coords[4], coords[5]
    if c4 + c5 != 0:
        raise ValueError("degree-3 component is not a multiple of w4 - w5")
    return c4


def bar(phi: AssociatorCandidate) -> AssociatorCandidate:
    """Phi(-x, -y): sign-flip every odd-degree component."""
    return AssociatorCandidate(phi.series.eps(), phi.lam)


def is_even(phi: AssociatorCandidate) -> bool:
    return all(len(w) % 2 == 0 for w, c in phi.series.terms.items() if c)


def phi0_reference(maxdeg=REFERENCE_DEGREE, ring=None) -> AssociatorCandidate:
    """The even reference associator in the lambda=1 family, through REFERENCE_DEGREE.

    1 + (1/24) w3 + (-w7 - 4 w6 - 4 w8 + 5 w3^2)/5760, zero in odd degrees.
    """
    if maxdeg > REFERENCE_DEGREE:
        raise ValueError("reference data stops at degree %d; use extend_associator"
                         % REFERENCE_DEGREE)
    w3 = w_element(3, maxdeg, ring)
    phi = NCSeries.one(XY, maxdeg, ring)
    phi = phi + Fraction(1, 24) * w3
    if maxdeg >= 4:
        phi4 = (-1 * w_element(7, maxdeg, ring) - 4 * w_element(6, maxdeg, ring)
                - 4 * w_element(8, maxdeg, ring) + 5 * (w3 * w3))
        phi = phi + Fraction(1, 5760) * phi4
    return AssociatorCandidate(phi, 1)


def _pentagon_rows(faces, log_base, degree):
    """P - Q in the given degree on its Lyndon words, as {U(T_4) word:
    Fraction}, where P and Q are those of _bch_faces and phi is log_base cut
    below degree.  This is the pentagon defect of exp(phi) there.  Raises
    ValueError, naming the degree, where P - Q is nonzero below it: the
    pentagon fails before the degree solved."""
    pq = _bch_faces(faces, lie_coordinates(log_base, degree - 1), degree)
    for d in range(1, degree):
        if _difference(pq, d, tlie.is_lyndon):
            raise ValueError("the candidate fails the pentagon in degree %d, below the "
                             "degree %d to solve" % (d, degree))
    return _difference(pq, degree, tlie.is_lyndon)


def _linear_residuals(lyndon, faces, degree):
    """The linear part L of the defining equations on the Lyndon basis of one degree.

    One sparse int column (d, {key: int}) per Lyndon element psi, read with
    symcoef.layers (d is 1: psi has int coefficients).  With z = -x-y, the
    keys (0, word) hold swap(psi) + psi, (1, word) psi(z,x) + psi(y,z) +
    psi(x,y) and (2, U(T_4) word) psi(d3) + psi(d1) - psi(d0) - psi(d2) -
    psi(d4), each face read from its t_4 image cache.  That sum is Lie, so
    its rows are its Lyndon words alone, as in _pentagon_rows.  The duality
    and hexagon blocks stay whole: their right-hand sides are Lie only where
    the candidate already solves the equations below the degree.  Each
    hexagon substitution evaluates all the elements in one call.
    """
    elements = [psi for _, psi in lyndon]
    x, y = (NCSeries(XY, degree, {bytes((k,)): 1}) for k in range(2))
    z = -x - y
    one = NCSeries(XY, degree, {EMPTY: 1})
    at_zx = substitute(elements, {"x": z, "y": x}, one)
    at_yz = substitute(elements, {"x": y, "y": z}, one)
    columns = []
    for word, psi, zx, yz in zip(lyndon_words(2, degree), elements, at_zx, at_yz):
        column = {(0, w): c for w, c in (letter_swap(psi) + psi).terms.items()}
        column.update(((1, w), c) for w, c in (zx + yz + psi).terms.items())
        for name, image in faces.items():
            sign = _FACE_SIGNS[name]
            for w, c in image(word).homogeneous(degree).items():
                if tlie.is_lyndon(w):
                    column[2, w] = column.get((2, w), 0) + sign * c
        d, by_exps = layers(column)
        columns.append((d, by_exps[()]))
    return columns


def extend_associator(phi: AssociatorCandidate, parity: bool = False):
    """Extend a candidate satisfying the equations through degree D to D+1.

    Solves the linear system (grouplike + duality + hexagon + pentagon in
    degree D+1) over the Lyndon coordinates of the unknown Lie correction.
    Returns (extended candidate, kernel) where kernel is a basis of the
    homogeneous solution space as series; the particular solution zeroes a
    fixed complement of the pivot coordinates.  With parity=True and D+1
    odd, the zero (even) correction is selected when admissible.  A degree
    D+1 where dim t_4 is past T4_DIMENSION_BOUND is refused before any work.

    The candidate is start + (Lie correction), where start = base - log
    tail: base is phi with known order D+1 and no degree-(D+1) terms, and
    the log tail is the degree-(D+1) part of log base.  So log start is
    phi = log base cut at D, and the degree-(D+1) residual of start + psi
    is exactly R(start) + L(psi).  linalg.solve_columns takes the sparse
    int columns L of the Lyndon basis elements and the right-hand side
    -R(start) as one dict.  Its duality and hexagon rows come from start in
    the free algebra.  Its pentagon rows come from t_4: each face of start
    is exp of phi at the face, so the defect (d3)(d1) - (d0)(d2)(d4) is
    exp P - exp Q with P = BCH(phi(d3), phi(d1)) and
    Q = BCH(BCH(phi(d0), phi(d2)), phi(d4)), and where P = Q below D+1
    that is P - Q in degree D+1, read on its Lyndon words.  A candidate with
    P != Q below D+1 fails the pentagon there and is refused with ValueError.
    """
    s = phi.series
    if s.ring is not None:
        raise ValueError("the extension solver works over Q")
    target = s.known_order + 1
    check_size(target)
    base = s.truncated(target, known_order=target)
    log_base = nc_log(base)
    log_tail = log_base.homogeneous(target)
    start = base - log_tail
    lyndon = lyndon_basis(XY, target)
    faces = _lie_faces(target)

    def combination(coords):
        """sum c * (Lyndon element) over the nonzero coordinates."""
        elt = NCSeries.zero(XY, target)
        for c, (_, b) in zip(coords, lyndon):
            if c:
                elt = elt + c * b
        return elt

    dual = (letter_swap(start) * start).homogeneous(target)
    hexa = hexagon_product(start, phi.lam).homogeneous(target)
    rhs = {(block, w): -c for block, part in enumerate((dual.terms, hexa.terms,
                                                          _pentagon_rows(faces, log_base, target)))
           for w, c in part.items()}
    [particular], kernel = solve_columns(_linear_residuals(lyndon, faces, target), rhs)
    if (parity and target % 2 == 1 and log_tail.is_zero()
            and not any(rhs.values())):
        # the even extension: keep the degree-(D+1) component zero
        particular = [Fraction(0)] * len(lyndon)
    return (AssociatorCandidate(start + combination(particular), phi.lam),
            [combination(vec) for vec in kernel])
