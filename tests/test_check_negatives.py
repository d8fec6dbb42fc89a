"""A negative case for every check of verify all and resonance.

Each row of NEGATIVES perturbs one input or library function, runs the
suites it names and lists the check ids that must then report FAIL.  The
ids to cover come from real runs of verify all and resonance --n 6, so a
check added without a negative fails test_every_check_has_a_negative.

The chars report is out of scope: its rows are data (the tableau monomials
and the chi_d series), always reported as passing, with nothing to compare.

No row perturbs a function whose results are cached across calls (the
w-basis columns, the t_4 Lyndon tables and pentagon face caches), so a
perturbation cannot outlive its test.
"""

import re
from fractions import Fraction

import pytest

from gtassoc import associators, braids, characters, grtgt, hecke, kz, report
from gtassoc.associators import AssociatorCandidate
from gtassoc.cli import main
from gtassoc.hmatrix import HMatrix
from gtassoc.ncseries import NCSeries, nc_log
from gtassoc.wbasis import XY, w_element

from _hecke_oracle import a_entry_prime

RESONANCE_N = 6
# a row's ids: every check of the suites it runs
EVERY_CHECK = None


def run_suite(name):
    return report.resonance_report(RESONANCE_N) if name == "resonance" else report.SUITES[name]()


def x_cubed(scalar, maxdeg, ring):
    """scalar x^3, a term that no grouplike series may gain alone."""
    return scalar * NCSeries(XY, maxdeg, {bytes((0, 0, 0)): 1}, ring)


def phi0_plus_x2y3(maxdeg=5, ring=None):
    """phi0 + x^2 y^3 / 7: no longer grouplike, dual, hexagonal or pentagonal."""
    phi = associators.phi0_reference(maxdeg, ring)
    word = NCSeries(XY, maxdeg, {bytes((0, 0, 1, 1, 1)): Fraction(1, 7)}, ring)
    return AssociatorCandidate(phi.series + word, phi.lam)


def corrupt_phi0(mp):
    mp.setattr(report, "phi0_reference", phi0_plus_x2y3)
    mp.setattr(kz, "phi0_reference", phi0_plus_x2y3)


def twisted_phi0(mp):
    """A genuine associator with c = 1: phi0 twisted by exp(-psi1)."""
    def twisted(maxdeg=5, ring=None):
        phi = associators.phi0_reference(maxdeg, ring)
        return grtgt.act_grt(phi, grtgt.grt_exp(-1 * grtgt.psi1(maxdeg, ring)))
    mp.setattr(report, "phi0_reference", twisted)


def drop_a_basis_word(mp):
    """One normal-form word fewer in the top degree of U(T_4)."""
    dims = report.hilbert_dimensions
    mp.setattr(report, "hilbert_dimensions",
               lambda n, maxdeg: dims(n, maxdeg)[:-1] + [dims(n, maxdeg)[-1] - 1])


def hexagon_at_twice_lambda(mp):
    product = associators.hexagon_product
    mp.setattr(associators, "hexagon_product", lambda series, lam: product(series, 2 * lam))


def solver_loses_its_kernel(mp):
    solve = associators.solve_columns
    mp.setattr(associators, "solve_columns", lambda columns, *rhs: (solve(columns, *rhs)[0], []))


def cap_gains_x_cubed(mp):
    cap_psi = grtgt.grt_cap_psi

    def cap(a, b, maxdeg=5, ring=None):
        series = cap_psi(a, b, maxdeg, ring).series
        return grtgt.GrtElt(series + x_cubed(a, maxdeg, ring))
    mp.setattr(grtgt, "grt_cap_psi", cap)


def derivation_with_the_wrong_sign(mp):
    derivation = grtgt.derivation_x
    mp.setattr(grtgt, "derivation_x", lambda psi, g: derivation(-1 * psi, g))


def action_drops_its_right_factor(mp):
    mp.setattr(grtgt, "act_grt", lambda phi, f: AssociatorCandidate(
        grtgt._graded_sub(phi.series, f.series), phi.lam))


def negate_psi1(mp):
    psi1 = grtgt.psi1
    mp.setattr(grtgt, "psi1", lambda maxdeg=5, ring=None: -1 * psi1(maxdeg, ring))


def g_ab_gains_x_cubed(mp):
    g_ab = grtgt.g_ab

    def perturbed(a, b, phi0):
        g = g_ab(a, b, phi0)
        return grtgt.GtElt(g.series + x_cubed(a, g.series.maxdeg, g.series.ring))
    mp.setattr(grtgt, "g_ab", perturbed)


def psi2_gains_a_degree_four_term(mp):
    psi2 = grtgt.psi2
    mp.setattr(grtgt, "psi2", lambda maxdeg=5, ring=None: psi2(maxdeg, ring)
               + w_element(7, maxdeg, ring))


def g_ab_inverted(mp):
    g_ab = grtgt.g_ab
    mp.setattr(grtgt, "g_ab", lambda a, b, phi0: grtgt.gt_inverse(g_ab(a, b, phi0)))


def ihara_embeds_by_one_minus(mp):
    def logs(maxdeg, ring):
        one = NCSeries.one(XY, maxdeg, ring)
        return {name: nc_log(one - NCSeries.letter(XY, name, maxdeg, ring)) for name in XY}
    mp.setattr(grtgt, "_log_one_plus_letters", logs)


def xi_not_pure(mp):
    mp.setattr(braids.BraidWord, "xi", classmethod(lambda cls, n, i, j: cls(n, (i,))))


def transposed_semi_normal_block(mp):
    block = hecke.semi_normal_block
    mp.setattr(hecke, "semi_normal_block", lambda d: [list(row) for row in zip(*block(d))])


def eta_with_the_wrong_sign(mp):
    image = hecke.sigma_image
    mp.setattr(hecke, "sigma_image", lambda series, lam, t, y, s: image(series, lam, t, -1 * y, s))


def unitary_block_rescaled(mp):
    """diag(1, 2) M_d diag(1, 1/2): trace, determinant and braid relations
    hold, but the basis change is not orthogonal."""
    build = hecke.MatrixModel._build_block

    def perturbed(self, d):
        m = build(self, d)
        if self.kind != "unitary":
            return m
        return HMatrix([[m.entry(0, 0), 2 * m.entry(0, 1)],
                        [Fraction(1, 2) * m.entry(1, 0), m.entry(1, 1)]])
    mp.setattr(hecke.MatrixModel, "_build_block", perturbed)


def a_entry_is_a_prime(mp):
    mp.setattr(hecke, "a_entry", a_entry_prime)


def q_n_sign(mp):
    mp.setattr(kz, "q_n", lambda n, d: (d + 1) ** (2 * n + 1) + (d - 1) ** (2 * n + 1)
               + 2 * d ** (2 * n + 1))


def even_reference_without_its_factor(mp):
    even = kz.b_even_ref
    mp.setattr(kz, "b_even_ref", lambda d, ring=None, maxdeg=kz.DEFAULT_HBAR_ORDER:
               Fraction(d, d + 1) * even(d, ring, maxdeg))


def h_tilde_gains_gamma(mp):
    h_tilde = kz.h_tilde

    def perturbed(d, ring=None, maxdeg=kz.DEFAULT_HBAR_ORDER):
        return h_tilde(d, ring, maxdeg) * kz.loggamma_sum(ring, [(1, 1)], maxdeg).exp()
    mp.setattr(kz, "h_tilde", perturbed)


def even_zeta_with_the_wrong_sign(mp):
    factor = kz.euler_zeta_factor
    mp.setattr(kz, "euler_zeta_factor", lambda k: -factor(k))


def kz_psi1_negated(mp):
    psi1 = kz.psi1
    mp.setattr(kz, "psi1", lambda maxdeg=5, ring=None: -1 * psi1(maxdeg, ring))


def resonance_negated(mp):
    resonance = characters.resonance
    mp.setattr(characters, "resonance", lambda shape: not resonance(shape))


NEGATIVES = [
    ("phi0 + x^2y^3/7", corrupt_phi0, ("associator", "braid", "kz"),
     {"phi0-grouplike", "phi0-duality", "phi0-hexagon", "phi0-pentagon", "phi0-even",
      "b3-braid-v5", "b3-braid-v7", "b3-braid-v1/2", "kz-certified"}),
    ("phi0 twisted to c = 1", twisted_phi0, ("associator",), {"phi0-c", "phi0-even"}),
    ("a normal-form word lost", drop_a_basis_word, ("associator",), {"holonomy-dims"}),
    ("hexagon at 2 lambda", hexagon_at_twice_lambda, ("associator",),
     {"phi0-hexagon", "extend-deg2", "extend-deg4"}),
    ("the solver loses its kernel", solver_loses_its_kernel, ("associator",), {"extend-deg3"}),
    ("Psi_ab + a x^3", cap_gains_x_cubed, ("grt",),
     {"cap-psi-grouplike", "cap-psi-duality", "cap-psi-hexagon", "cap-psi-pentagon",
      "exp-s-action"}),
    ("D_psi with -psi", derivation_with_the_wrong_sign, ("grt",), {"exp-s-action"}),
    ("action without its right factor", action_drops_its_right_factor, ("grt",),
     {"c-shift", "exp-s-action"}),
    ("psi1 -> -psi1", negate_psi1, ("gt", "braid", "hecke"),
     {"g-ab-deg5", "kappa-match", "b3-Q2-v5", "b3-Q2-v7", "b3-Q2-v1/2", "b3-Q3-v5", "b3-Q3-v7",
      "b3-Q3-v1/2", "difference-formula", "b-expansion"}),
    ("g_ab + a x^3", g_ab_gains_x_cubed, ("gt",),
     {"g-ab-grouplike", "g-ab-duality", "g-ab-hexagon", "g-ab-pentagon", "g-ab-torsor",
      "kappa-match"}),
    ("psi2 + w7", psi2_gains_a_degree_four_term, ("gt",),
     {"g-ab-deg4", "g-ab-hexagon", "g-ab-pentagon", "kappa-match"}),
    ("gt_inverse(g) for g", g_ab_inverted, ("gt", "braid"),
     {"g-ab-deg5", "g-ab-torsor", "kappa-match", "b3-Q2-v5", "b3-Q2-v7", "b3-Q2-v1/2",
      "b3-Q3-v5", "b3-Q3-v7", "b3-Q3-v1/2"}),
    ("projection through log(1 - x)", ihara_embeds_by_one_minus, ("gt",), {"ihara-w9"}),
    ("xi_ij -> sigma_i", xi_not_pure, ("braid",), {"b3-depth-v5", "b3-depth-v7", "b3-depth-v1/2"}),
    ("eta -> -eta in the blocks", eta_with_the_wrong_sign, ("hecke",),
     {"braid-relations", "delta-eigenvalues", "b-expansion", "phat-matches-model"}),
    ("transposed semi_normal_block", transposed_semi_normal_block, ("hecke",), {"b-expansion"}),
    ("unitary block in a rescaled basis", unitary_block_rescaled, ("hecke",), {"unitary"}),
    ("a_d -> a'_d", a_entry_is_a_prime, ("hecke",), {"a-recurrence"}),
    ("Q_n(d) with +2d^(2n+1)", q_n_sign, ("kz",), {"ratio-formula"}),
    ("b_even_ref without (d+1)/d", even_reference_without_its_factor, ("kz",),
     {"h-tilde", "even-bridge"}),
    ("h_tilde * Gamma(1 + hb)", h_tilde_gains_gamma, ("kz",), {"h-tilde", "no-gamma-even-zeta"}),
    ("zeta(2k) with the wrong sign", even_zeta_with_the_wrong_sign, ("kz",), {"even-bridge"}),
    ("kz psi1 -> -psi1", kz_psi1_negated, ("kz",), {"kz-c", "kz-certified"}),
    ("resonance negated", resonance_negated, ("resonance",), EVERY_CHECK),
]


@pytest.fixture(scope="module")
def real_ids():
    """{check id: suite} of unperturbed runs, which all pass; every
    perturbation runs after them, on warm caches."""
    ids = {}
    for name in [*report.SUITES, "resonance"]:
        rep = run_suite(name)
        assert rep.ok, rep.to_text()
        ids.update((c.id, name) for c in rep.checks)
    return ids


def must_fail(real_ids, suites, ids):
    return {i for i, name in real_ids.items() if name in suites} if ids is EVERY_CHECK else ids


@pytest.mark.parametrize("perturb, suites, ids", [row[1:] for row in NEGATIVES],
                         ids=[row[0] for row in NEGATIVES])
def test_the_perturbation_turns_its_checks_fail(monkeypatch, real_ids, perturb, suites, ids):
    perturb(monkeypatch)
    failed = {c.id for name in suites for c in run_suite(name).checks if c.status == "fail"}
    assert sorted(must_fail(real_ids, suites, ids) - failed) == []


def test_every_check_has_a_negative(real_ids):
    covered = set().union(*(must_fail(real_ids, suites, ids) for _, _, suites, ids in NEGATIVES))
    assert sorted(covered - set(real_ids)) == []
    assert sorted(set(real_ids) - covered) == []


def test_a_check_that_raises_is_a_fail_and_the_other_suites_still_report(capsys, monkeypatch):
    """With phi0 + x^2y^3/7 the hecke model refuses its first block; the hecke
    suite ends with one FAIL, and the five other suites still report."""
    monkeypatch.setattr(report, "phi0_reference", phi0_plus_x2y3)
    code = main(["verify", "all"])
    out, err = capsys.readouterr()
    headers = [line.split(":")[0] for line in out.splitlines() if line.startswith("suite ")]
    assert code == 1 and headers == ["suite %s" % name for name in report.SUITES]
    assert "suite hecke: FAIL (1 checks" in out
    assert re.search(r"\[FAIL\] hecke-raised +.*ValueError: block trace is not q - q\^\{-1\}\n",
                     out)
    assert "Traceback" not in err and "Traceback" not in out
