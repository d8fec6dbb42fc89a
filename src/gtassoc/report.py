"""Verification suites with structured reports.

Every suite returns a Report: a list of checks, each carrying a stable id,
a short anchor naming the identity it verifies, a pass/fail status, and a
witness string (usually a truncated series rendered in text form).  Each
check also records duration_ms, the milliseconds since the previous check
was added (or since the report was made), and the report records its
total.  A check that raises ends its suite with one failed check,
<suite>-raised, whose witness names the exception.  Reports are
deterministic for fixed inputs apart from these durations, and serialize
to text or JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import associators, braidreps, characters, grtgt, hecke, kz
from .associators import REFERENCE_DEGREE, AssociatorCandidate, phi0_reference
from .hmatrix import HMatrix
from .holonomy import hilbert_dimensions
from .ncseries import NCSeries, is_grouplike, nc_log
from .scalar import scalar_div
from .symcoef import SymRing, render_coeff
from .tableaux import Partition, partitions_of
from .wbasis import w_coordinates


@dataclass
class Check:
    id: str
    anchor: str
    status: str
    witness: str = ""
    duration_ms: int = 0


@dataclass
class Report:
    suite: str
    checks: list = field(default_factory=list)
    duration_ms: int = 0
    # when the report was made or its last check added; each check is timed from here
    _mark: float = field(default_factory=time.monotonic, init=False, repr=False, compare=False)

    def add(self, check_id, anchor, passed, witness=""):
        if any(c.id == check_id for c in self.checks):
            raise ValueError("duplicate check id %r" % check_id)
        now = time.monotonic()
        self.checks.append(Check(check_id, anchor, "pass" if passed else "fail", str(witness),
                                 int((now - self._mark) * 1000)))
        self._mark = now

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def to_text(self):
        lines = ["suite %s: %s (%d checks, %d ms)" % (
            self.suite, "PASS" if self.ok else "FAIL", len(self.checks), self.duration_ms)]
        for c in self.checks:
            lines.append("  [%s] %-34s %-28s %s" % (
                c.status.upper(), c.id, c.anchor, c.witness))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps({
            "suite": self.suite,
            "checks": [{"id": c.id, "anchor": c.anchor, "status": c.status,
                        "witness": c.witness, "duration_ms": c.duration_ms}
                       for c in self.checks],
            "duration_ms": self.duration_ms,
        }, indent=2, sort_keys=True)


# the least degree each suite's checks are written for: associator, grt and
# kz read a degree-3 coefficient, hecke the h^4 term of b_d, gt and braid
# degree-5 coefficients; none reads past 5, where the reference data stops
MIN_DEGREE = {"associator": 3, "grt": 3, "gt": 5, "braid": 5, "hecke": 4, "kz": 3}
# the h-order through which the kz suite compares its scalars
KZ_ORDER = 7


# verify_<suite> for each suite, in the order verify all runs them
SUITES = {}


def _run(suite, rows):
    """The Report of rows (id, anchor, passed[, witness]), each check timed from
    the one before and the suite in total.  A row that raises ends the suite
    with one failed check, <suite>-raised."""
    start = time.monotonic()
    rep = Report(suite)
    try:
        for row in rows:
            rep.add(*row)
    except Exception as exc:
        rep.add(suite + "-raised", "the suite runs to its end", False,
                "%s: %s" % (type(exc).__name__, exc))
    rep.duration_ms = int((time.monotonic() - start) * 1000)
    return rep


def _suite(rows):
    """Register verify_<suite>(degree=REFERENCE_DEGREE, **options), the Report
    of rows(degree, phi0, **options) with phi0 the reference associator
    through degree.  A degree below the suite's MIN_DEGREE, or past the
    reference data, raises ValueError before any work."""
    name = rows.__name__[len("verify_"):]

    def verify(degree=REFERENCE_DEGREE, **options) -> Report:
        if degree < MIN_DEGREE[name]:
            raise ValueError("the %s suite needs degree %d or more, not %d"
                             % (name, MIN_DEGREE[name], degree))
        return _run(name, rows(degree, phi0_reference(degree), **options))
    verify.__name__, verify.__doc__ = rows.__name__, rows.__doc__
    SUITES[name] = verify
    return verify


@_suite
def verify_associator(degree, phi0):
    # the equations of certify, each run just before its row so that it carries its own time
    yield "phi0-grouplike", "defining equation: grouplike", is_grouplike(phi0.series)
    yield "phi0-duality", "defining equation: duality", associators.duality_check(phi0)
    yield "phi0-hexagon", "defining equation: hexagon", associators.hexagon_check(phi0)
    yield "phi0-pentagon", "defining equation: pentagon", associators.pentagon_check(phi0)
    yield "phi0-c", "degree-3 coefficient", associators.c_extract(phi0) == 0, "c=0"
    yield "phi0-even", "parity through the truncation", associators.is_even(phi0)
    dims = hilbert_dimensions(4, 6)
    yield ("holonomy-dims", "4-strand enveloping dimensions",
           dims == [1, 6, 25, 90, 301, 966, 3025], ",".join(map(str, dims)))
    # extension ladder from 1
    start = AssociatorCandidate(NCSeries.one(("x", "y"), 1), 1)
    ext2, ker2 = associators.extend_associator(start)
    yield ("extend-deg2", "forced degree-2 term",
           ext2.series.coefficient(("x", "y")) == Fraction(1, 24) and not ker2,
           "coeff(xy)=1/24")
    ext3, ker3 = associators.extend_associator(ext2)
    ok3 = len(ker3) == 1
    if ok3:
        co = w_coordinates(ker3[0], 3)
        ok3 = co[4] == -co[5] != 0
    yield "extend-deg3", "one-parameter degree-3 family", ok3
    ext3p, _ = associators.extend_associator(ext2, parity=True)
    ext4, ker4 = associators.extend_associator(ext3p)
    target4 = phi0_reference(4).series.homogeneous(4)
    yield ("extend-deg4", "forced degree-4 correction",
           ext4.series.homogeneous(4).equal_through(target4.truncated(4)) and not ker4)


@_suite
def verify_grt(degree, phi0):
    ring = SymRing(("a", "b"))
    a, b = ring.symbol("a"), ring.symbol("b")
    cap = grtgt.grt_cap_psi(a, b, degree, ring)
    res = grtgt.certify_grt(cap)
    for name, ok in res.items():
        yield "cap-psi-%s" % name, "lambda=0 equation: %s" % name, ok
    phi0s = phi0.promote(ring)
    lhs = grtgt.exp_s(grtgt.psi_ab(a, b, degree, ring), phi0s.series)
    rhs = grtgt.act_grt(phi0s, cap).series
    yield ("exp-s-action", "derivation exponential vs substitution law",
           lhs.equal_through(rhs))
    z = Fraction(7, 3)
    tw = grtgt.act_grt(phi0, grtgt.grt_exp((-z) * grtgt.psi1(degree)))
    yield ("c-shift", "degree-3 coefficient shift",
           associators.c_extract(tw) == z, "c=%s" % z)


@_suite
def verify_gt(degree, phi0):
    ring = SymRing(("a", "b"))
    a, b = ring.symbol("a"), ring.symbol("b")
    gab = grtgt.g_ab(a, b, phi0)
    checks = grtgt.gt_checks(gab)
    for name, ok in checks.items():
        yield "g-ab-%s" % name, "membership equation: %s" % name, ok
    L = nc_log(gab.series)
    yield "g-ab-deg4", "vanishing degree-4 logarithm", L.homogeneous(4).is_zero()
    co5 = w_coordinates(L, 5)
    expect = {9: -2 * b, 10: -4 * b, 11: -4 * b, 12: -2 * b,
              13: -(b - a * Fraction(1, 24)), 14: -(3 * b + a * Fraction(1, 24))}
    yield ("g-ab-deg5", "degree-5 logarithm coordinates",
           co5 == expect, "w14 coeff -(3b + a/24)")
    cap = grtgt.grt_cap_psi(a, b, degree, ring)
    yield ("g-ab-torsor", "left and right twists agree",
           grtgt.act_gt(gab, phi0.promote(ring)).series.equal_through(
               grtgt.act_grt(phi0.promote(ring), cap).series))
    a_val, b_val, ok = grtgt.kappa_identification(gab.series)
    kring = SymRing(("kappa3", "kappa5"))
    yield ("kappa-match", "projection matches the exp-sum form",
           ok and a_val == kring.symbol("kappa3") * Fraction(1, 2)
           and b_val == kring.symbol("kappa5") * Fraction(1, 48),
           "a=kappa3/2 b=kappa5/48")
    img = grtgt.ihara_projection(NCSeries.one(("x", "y"), 5) + grtgt.w_element(9, 5))
    img.pop((0, 0), None)
    yield ("ihara-w9", "projection of the first degree-5 monomial",
           img == {(4, 1): Fraction(-1)}, "-x^4 y")


@_suite
def verify_braid(degree, phi0):
    ring = SymRing(("a", "b"))
    a, b = ring.symbol("a"), ring.symbol("b")
    gab = grtgt.g_ab(a, b, phi0)
    for v in (Fraction(5), Fraction(7), Fraction(1, 2)):
        rho = braidreps.b3_example(v)
        R = braidreps.phat(rho, phi0)
        yield "b3-braid-v%s" % v, "3-strand relations", R.braid_relations_ok()
        yield "b3-depth-v%s" % v, "pure-braid depth", R.pure_braid_depth_ok()
        Rs = R.promote(ring)
        Rt = braidreps.gt_act_on_rep(Rs, gab)
        diag = braidreps.diagonal_conjugator(Rs, Rt)
        q2 = diag[1]
        q3 = scalar_div(diag[2], diag[1])
        ok2 = (q2.coefficient(3) == a * (Fraction(-1, 8) * v * (v * v - 9))
               and q2.coefficient(5) == b * (Fraction(-9, 64) * v * (v * v - 9) * (v * v + 7))
               and all(not q2.coefficient(k) for k in (1, 2, 4)))
        yield "b3-Q2-v%s" % v, "first character series", ok2
        ok3 = q3.coefficient(3) == a * (Fraction(1, 16) * (v + 9) * (v * v - 9))
        yield "b3-Q3-v%s" % v, "second character cubic term", ok3
    # difference formula: sigma_2 moves first at h^3, by a s_2 [t_23, [t_23, t_12]]
    phi0s = phi0.promote(ring)
    phi2 = grtgt.act_grt(phi0s, grtgt.grt_cap_psi(a, ring.const(0), degree, ring))
    rho = hecke.hecke_infinitesimal(Partition((2, 1)))
    diff = braidreps.phat(rho, phi2).sigma(2) - braidreps.phat(rho, phi0s).sigma(2)
    t12, t23 = rho.t_matrix(1, 2), rho.t_matrix(2, 3)
    inner = t23 * t12 - t12 * t23
    w = rho.perm_matrix(2) * (t23 * inner - inner * t23)
    cubic = HMatrix.from_terms(w.n, {(3, i, j): a * c for (_, i, j), c in w.terms.items()},
                               diff.maxdeg, ring)
    yield ("difference-formula", "cubic term of the generator difference",
           diff.equal_through(cubic, 3))


@_suite
def verify_hecke(degree, phi0, nmax=6):
    model = hecke.MatrixModel("semi", phi0)
    unitary = hecke.MatrixModel("unitary", maxdeg=7)
    all_ok_braid = True
    all_ok_delta = True
    all_ok_unit = True
    for n in range(2, nmax + 1):
        for shape in partitions_of(n):
            built = hecke.rep_build(shape, model)
            if not built.braid_relations_ok():
                all_ok_braid = False
            if not hecke.delta_eigenvalues_ok(built, shape, model):
                all_ok_delta = False
            if not hecke.unitarity_check(hecke.rep_build(shape, unitary)):
                all_ok_unit = False
    yield "braid-relations", "relations for all shapes of n<=%d" % nmax, all_ok_braid
    yield "delta-eigenvalues", "q^{2c_r} eigenvalue table", all_ok_delta
    yield "unitary", "transpose-involution unitarity", all_ok_unit
    q = hecke.q_series(7)
    qi = hecke.q_series(7, None, -1)
    rec_ok = all((hecke.a_entry(d + 1) * (q - hecke.a_entry(d))).equal_through(
        hecke.a_entry(d) * qi) for d in range(2, 7))
    yield "a-recurrence", "diagonal entry recurrence", rec_ok
    exp_ok = True
    twist_ring = SymRing(("a", "b"))
    a = twist_ring.symbol("a")
    phi_tw = grtgt.act_grt(phi0.promote(twist_ring),
                           grtgt.grt_cap_psi(a, twist_ring.const(0), degree, twist_ring))
    model_tw = hecke.MatrixModel("semi", phi_tw)
    for d in range(2, 7):
        scaled = Fraction(d, d + 1) * model.b(d)
        if not (scaled.coefficient(0) == 1 and not scaled.coefficient(1)
                and scaled.coefficient(2) == Fraction(1, 6) and not scaled.coefficient(3)
                and scaled.coefficient(4) == Fraction(-(4 * d * d - 1), 120)
                and (scaled.known_order < 5 or not scaled.coefficient(5))):
            exp_ok = False
        if (Fraction(d, d + 1) * model_tw.b(d)).coefficient(3) != a * (-16 * d):
            exp_ok = False
    yield "b-expansion", "scalar expansion and its twist", exp_ok
    match_ok = True
    for parts in ((2, 1), (2, 2), (3, 2)):
        shape = Partition(parts)
        rho = hecke.hecke_infinitesimal(shape)
        r1 = braidreps.phat(rho, phi0)
        r2 = hecke.rep_build(shape, model)
        if not all(r1.sigma(i).equal_through(r2.sigma(i)) for i in range(1, shape.n)):
            match_ok = False
    yield "phat-matches-model", "functor equals the block construction", match_ok


@_suite
def verify_kz(degree, phi0):
    """The kz scalars through h^KZ_ORDER; phi0, the even bridge and the symbolic
    KZ truncation at degree."""
    ring = kz.kz_ring()
    # each scalar once per d: (b_kz(d, +1), b_kz(d, -1), b_even_ref(d), h_tilde(d))
    scalars = {d: (kz.b_kz(d, +1, ring), kz.b_kz(d, -1, ring), kz.b_even_ref(d, ring),
                   kz.h_tilde(d, ring)) for d in range(2, 7)}
    star_ok = all(
        scalar_div(plus, minus).equal_through(kz.ratio_formula_rhs(d, ring), KZ_ORDER)
        for d, (plus, minus, _, _) in scalars.items())
    yield "ratio-formula", "odd-zeta exponential ratio", star_ok
    ht_ok = clean_ok = True
    for d, (plus, minus, even, ht) in scalars.items():
        L = ht.log()
        if not (scalar_div(plus, even).equal_through(ht)
                and (scalar_div(minus, even) * ht).is_one()
                and L.coefficient(3) == ring.symbol("zeta3") * (-16 * d)
                and L.coefficient(5) == ring.symbol("zeta5") * (-64 * d * (2 * d * d + 1))
                and L.coefficient(7) == ring.symbol("zeta7")
                * (-256 * d * (3 * d ** 4 + 5 * d * d + 1))):
            ht_ok = False
        if any(c.coefficient({"gamma": 1}) or any(c.coefficient({"zeta%d" % z: 1})
                                                   for z in (2, 4, 6, 8))
               for c in L.terms.values()):
            clean_ok = False
    yield "h-tilde", "square-root ratio identities", ht_ok
    yield "no-gamma-even-zeta", "transcendental bookkeeping", clean_ok
    bridge_ok = all(kz.specialize_even(even, degree).equal_through(hecke.b_semi(phi0, d),
                                                                   degree - 1)
                    for d, (_, _, even, _) in scalars.items())
    yield "even-bridge", "specialization matches the model scalar", bridge_ok
    pkz = kz.phi_kz_symbolic(degree)
    zr = pkz.series.ring
    c = associators.c_extract(pkz)
    yield ("kz-c", "degree-3 coefficient of the symbolic truncation",
           c == -zr.symbol("zt3"), "c=-zt3")
    yield ("kz-certified", "membership of the symbolic truncation",
           all(associators.certify(pkz).values()))


def chars_report(partition_text="3,2", g_symbols=("a", "b"), order=REFERENCE_DEGREE) -> Report:
    shape = Partition.parse(partition_text)
    ring = SymRing(tuple(g_symbols))
    phi0 = phi0_reference(order)

    def rows():
        diag = characters.tableau_diagonal(shape)
        yield "diagonal", "tableau monomials for %s" % shape, True, " ".join(map(repr, diag))
        gab = grtgt.g_ab(ring.symbol(g_symbols[0]), ring.symbol(g_symbols[1]), phi0)
        seen = {}
        for vec in diag:
            for d in vec.exps:
                if d not in seen:
                    seen[d] = characters.chi_d(gab, d, phi0)
        for d in sorted(seen):
            series = seen[d]
            text = " + ".join("(%s) h^%d" % (render_coeff(series.coefficient(k)), k)
                              for k in range(series.known_order + 1) if series.coefficient(k))
            yield "chi%d" % d, "character series", True, text
    return _run("chars", rows())


def resonance_report(nmax=8) -> Report:
    def rows():
        ok_all = True
        for shape, free, diag in characters.resonance_scan(nmax):
            expect = shape.is_hook() or shape.parts == (2, 2)
            ok_all = ok_all and free == expect
            yield ("res-%s" % ",".join(map(str, shape.parts)), "resonance-free scan",
                   free == expect, "%s %s" % (free, " ".join(map(repr, diag))))
        yield "hook-or-22", "classification matches", ok_all
    return _run("resonance", rows())
