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

inside the truncated enveloping algebra of the 4-strand holonomy Lie
algebra: (d3)(d1) = (d0)(d2)(d4).

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

The solver works in the Lie algebra t_4 (module tlie), not in U(T_4): the
unknowns and the pentagon residual are Lie.  The unknowns are the Lyndon
basis elements of degree D+1.  Each face is evaluated on them by
standard-factorization brackets, with one image cache per face, and their
duality and hexagon blocks come from one int substitution of all of them
at (z,x) and at (y,z).  The right-hand side is the residual of
start = base - log tail, whose log is phi = log(base) cut at D.  Each face
of start is exp of phi at that face, so its pentagon defect is
exp P - exp Q, with P = BCH(phi(d3), phi(d1)) and
Q = BCH(BCH(phi(d0), phi(d2)), phi(d4)) evaluated in t_4.  Where P = Q
below degree D+1, exp P - exp Q equals P - Q in degree D+1, so the system
is the one U(T_4) gives, row for row.  pentagon_defect and certify stay in
U(T_4), the independent route that checks every result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import tlie
from .holonomy import HoloAlgebra, HoloElt, embed_free, holonomy_algebra
from .linalg import solve_columns
from .ncseries import (EMPTY, NCSeries, is_grouplike, letter_swap, lyndon_basis, lyndon_words,
                       nc_exp, nc_log, nc_substitute, to_text)
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


def _face_images(algebra: HoloAlgebra, xs, ys):
    """The images {"x": sum of the t_ij in xs, "y": sum of those in ys} of one face.

    The coefficients are the int 1, so the face word images, which are
    integral, are formed in int arithmetic.
    """
    return {letter: HoloElt(algebra, {bytes((algebra.generator_index(i, j),)): 1
                                      for (_, i, j) in pairs})
            for letter, pairs in (("x", xs), ("y", ys))}


def pentagon_faces(series: NCSeries, algebra: HoloAlgebra):
    return {name: embed_free(series, algebra, _face_images(algebra, xs, ys))
            for name, xs, ys in PENTAGON_FACES}


def pentagon_defect(series: NCSeries, algebra: HoloAlgebra):
    """(d3)(d1) - (d0)(d2)(d4) in U(T_4).

    The faces F of D*Phi, D the series' common denominator, are integral, and
    D^3 times the defect is D (F3)(F1) - (F0)(F2)(F4).  Over a ring D = 1.
    """
    d = 1
    if series.ring is None:
        d, ints = layers(series.terms)
        series = series.scaled_copy(ints[()])
    f = pentagon_faces(series, algebra)
    defect = d * (f["d3"] * f["d1"]) - f["d0"] * f["d2"] * f["d4"]
    if d != 1:
        defect = HoloElt(algebra, {w: Fraction(c, d ** 3) for w, c in defect.terms.items()},
                         defect.known_order)
    return defect


def pentagon_check(phi: AssociatorCandidate) -> bool:
    """The pentagon defect vanishes through the known order."""
    return pentagon_defect(phi.series, holonomy_algebra(4, phi.series.known_order)).is_zero()


def certify(phi: AssociatorCandidate) -> dict:
    """Run all four membership conditions; returns {check: bool}.

    U(T_4) is looked up first, so a known order past its resource bound is
    refused before any check runs.
    """
    algebra = holonomy_algebra(4, phi.series.known_order)
    return {
        "grouplike": is_grouplike(phi.series),
        "duality": duality_check(phi),
        "hexagon": hexagon_check(phi),
        "pentagon": pentagon_defect(phi.series, algebra).is_zero(),
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


def _lie_faces(degree):
    """One Lyndon-image cache per pentagon face, at the face's images of x and
    y in t_4 through degree."""
    def image(pairs):
        return tlie.combination([(1, tlie.generator(tlie.letter(i, j), degree))
                                 for (_, i, j) in pairs], degree)
    return {name: tlie.lyndon_images(image(xs), image(ys)) for name, xs, ys in PENTAGON_FACES}


def _pentagon_rows(faces, log_base, degree):
    """(P - Q) in the given degree, as {U(T_4) word: Fraction}, where
    P = BCH(phi(d3), phi(d1)) and Q = BCH(BCH(phi(d0), phi(d2)), phi(d4))
    and phi is log_base cut below degree, a Lie series evaluated on its
    Lyndon coordinates through the face caches.  This is the pentagon
    defect of exp(phi) there.  Raises ValueError, naming the degree, where
    P - Q is nonzero below it: the pentagon fails before the degree solved."""
    coords = tlie.lie_coordinates(log_base, degree - 1)
    den = common_denominator(c for _, c in coords)
    phi = {name: tlie.combination([(int(c * den), image(w)) for w, c in coords], degree)
           for name, image in faces.items()}
    p, dp = tlie.bch(phi["d3"], phi["d1"], den)
    inner, di = tlie.bch(phi["d0"], phi["d2"], den)
    m = lcm(di, den)
    q, dq = tlie.bch(tlie.combination([(m // di, inner)], degree),
                     tlie.combination([(m // den, phi["d4"])], degree), m)
    for d in range(1, degree + 1):
        pd, qd = p.homogeneous(d), q.homogeneous(d)
        rows = {w: Fraction(pd.get(w, 0), dp) - Fraction(qd.get(w, 0), dq)
                for w in pd.keys() | qd.keys()}
        if d < degree and any(rows.values()):
            raise ValueError("the candidate fails the pentagon in degree %d, below the "
                             "degree %d to solve" % (d, degree))
    return rows


def _linear_residuals(lyndon, faces, degree):
    """The linear part L of the defining equations on the Lyndon basis of one degree.

    One sparse int column (1, {key: int}) per Lyndon element psi, which has
    int coefficients.  With z = -x-y, the keys (0, word) hold swap(psi) + psi,
    (1, word) psi(z,x) + psi(y,z) + psi(x,y) and (2, U(T_4) word)
    psi(d3) + psi(d1) - psi(d0) - psi(d2) - psi(d4), each face read from its
    t_4 image cache.  Each hexagon substitution evaluates all the elements
    in one call, in int.
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
                column[2, w] = column.get((2, w), 0) + sign * c
        columns.append((1, column))
    return columns


def extend_associator(phi: AssociatorCandidate, parity: bool = False,
                      algebra: HoloAlgebra = None):
    """Extend a candidate satisfying the equations through degree D to D+1.

    Solves the linear system (grouplike + duality + hexagon + pentagon in
    degree D+1) over the Lyndon coordinates of the unknown Lie correction.
    Returns (extended candidate, kernel) where kernel is a basis of the
    homogeneous solution space as series; the particular solution zeroes a
    fixed complement of the pivot coordinates.  With parity=True and D+1
    odd, the zero (even) correction is selected when admissible.  A given
    algebra must be U(T_4) through degree D+1 at least; the pentagon itself
    is solved in t_4, with no U(T_4) product.

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
    that is P - Q in degree D+1.  A candidate with P != Q below D+1 fails
    the pentagon there and is refused with ValueError.
    """
    s = phi.series
    if s.ring is not None:
        raise ValueError("the extension solver works over Q")
    target = s.known_order + 1
    # U(T_4) through target bounds the work: the shared algebra's lookup refuses a
    # degree past the resource bound, and an algebra of another n, or truncated
    # below target, would read the pentagon only partly
    if algebra is None:
        holonomy_algebra(4, target)
    elif algebra.n != 4 or algebra.maxdeg < target:
        raise ValueError("the pentagon through degree %d needs U(T_4) through degree %d, "
                         "not U(T_%d) through degree %d" % (target, target, algebra.n,
                                                           algebra.maxdeg))
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
