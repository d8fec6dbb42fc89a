"""Seeded inputs, jobs and exact output checks of the three benchmark workloads.

A workload has three steps, each a function of the previous step's result:

    setup(seed) -> state       inputs and models, built before the timed job
    run(state)    -> outputs   the timed job: exact computations through the API
    check(state, outputs)      [(check name, passed)], outside the timed region

Every check is an identity that holds for every seed, or a sha256 pin of
text output that must stay bit-identical.  The library receives only the
Fractions made by ``params_for_seed``.  gtassoc is imported inside the
functions, so that run.py can load this module without loading the library.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction as F

# Twist parameters z of phi = act_grt(phi0, grt_exp(z psi1)).  Nonzero seeds pick
# from this table so that every seed's outputs have a pinned digest.  Numerators
# and denominators stay in 2..9, which keeps coefficient sizes, and so job cost,
# of one order across seeds; z = 0 (seed 0) keeps phi0 even and is the cheapest.
Z_TABLE = (F(-5, 7), F(3, 4), F(-2, 5), F(7, 3), F(-4, 9), F(5, 8),
           F(-8, 3), F(2, 7), F(-9, 4), F(3, 5), F(-7, 6), F(6, 7))

# v parameters of the 3-dimensional b3_example representation.  b3_example
# refuses -3, 0 and 3; the default probe of diagonal_conjugator divides by
# zero at -1 and 1.
EXCLUDED_V = frozenset(F(v) for v in (-3, -1, 0, 1, 3))
V_TABLE = (F(5), F(7), F(1, 2), F(2), F(-2), F(4), F(-5), F(2, 3), F(-1, 2),
           F(5, 2), F(-7, 3), F(3, 2), F(-4, 3), F(7, 4), F(-5, 4), F(9, 2))

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
HECKE_PIN_SHAPE = (3, 2, 1)


def params_for_seed(seed):
    """Map a seed to (z, vs, cshift).  Seed 0 gives the constants of report.py."""
    if seed == 0:
        return F(0), (F(5), F(7), F(1, 2)), F(7, 3)
    rng = random.Random(seed)
    z = rng.choice(Z_TABLE)
    vs = tuple(rng.sample(V_TABLE, 3))
    cshift = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return z, vs, cshift


def load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def twisted_phi(z):
    """phi0 twisted by the graded group element grt_exp(z psi1), over Q."""
    from gtassoc import grtgt, phi0_reference
    return grtgt.act_grt(phi0_reference(5), grtgt.grt_exp(z * grtgt.psi1(5)))


def hecke_digest(rep):
    """sha256 of the text of sigma_1..sigma_{n-1} of a braid representation."""
    from gtassoc import hmatrix
    return sha256_text("".join(hmatrix.to_text(rep.sigma(i)) for i in range(1, rep.n)))


def candidate_checks(candidate, pin):
    """The four defining equations of an associator candidate, plus its digest pin."""
    from gtassoc import certify
    checks = [("certify-" + name, ok) for name, ok in certify(candidate).items()]
    checks.append(("digest", pin is not None and sha256_text(candidate.to_text()) == pin))
    return checks


# -- extend6 -----------------------------------------------------------------


def extend6_setup(seed):
    return extend6_state(params_for_seed(seed)[0])


def extend6_state(z):
    from gtassoc import AssociatorCandidate
    phi = twisted_phi(z)
    base = AssociatorCandidate(phi.series.truncated(5, known_order=5), phi.lam)
    return {"z": z, "base": base}


def extend6_run(state):
    from gtassoc import extend_associator
    extended, kernel = extend_associator(state["base"])
    return {"extended": extended, "kernel": kernel}


def extend6_check(state, out):
    pin = load_pins()["extend6"].get(str(state["z"]))
    checks = [("degree", out["extended"].known_order == 6),
              ("kernel-dim-0", len(out["kernel"]) == 0)]
    return checks + candidate_checks(out["extended"], pin)


# -- hecke6 ------------------------------------------------------------------


def hecke6_setup(seed):
    return hecke6_state(params_for_seed(seed)[0])


def hecke6_state(z):
    from gtassoc import MatrixModel
    phi = twisted_phi(z)
    return {"z": z, "phi": phi, "semi": MatrixModel("semi", phi),
            "unitary": MatrixModel("unitary", maxdeg=7)}


def hecke6_run(state):
    from gtassoc import Partition, hecke, partitions_of, phat
    from gtassoc.hecke import hecke_infinitesimal
    semi, unitary = state["semi"], state["unitary"]
    built, results = {}, {}
    for n in range(2, 7):
        for shape in partitions_of(n):
            rep = hecke.rep_build(shape, semi)
            built[shape.parts] = rep
            results[shape.parts] = [rep.braid_relations_ok(),
                                    hecke.delta_eigenvalues_ok(rep, shape, semi)]
    phats = {}
    for parts in ((2, 1), (2, 2), (3, 2)):
        phats[parts] = phat(hecke_infinitesimal(Partition(parts)), state["phi"])
    for n in range(2, 7):
        for shape in partitions_of(n):
            results[shape.parts].append(
                hecke.unitarity_check(hecke.rep_build(shape, unitary)))
    return {"built": built, "results": results, "phats": phats}


def hecke6_check(state, out):
    checks = []
    for parts, (braid, delta, unitary) in sorted(out["results"].items()):
        tag = ",".join(map(str, parts))
        checks += [("braid-" + tag, braid), ("delta-" + tag, delta),
                   ("unitary-" + tag, unitary)]
    for parts, rep in sorted(out["phats"].items()):
        block = out["built"][parts]
        checks.append(("phat-matches-" + ",".join(map(str, parts)),
                       all(rep.sigma(i).equal_through(block.sigma(i))
                           for i in range(1, rep.n))))
    pin = load_pins()["hecke6"].get(str(state["z"]))
    checks.append(("digest-3,2,1",
                   pin is not None and hecke_digest(out["built"][HECKE_PIN_SHAPE]) == pin))
    return checks


# -- symbolic ----------------------------------------------------------------


def symbolic_setup(seed):
    from gtassoc import SymRing, kz_ring, phi0_reference
    _, vs, cshift = params_for_seed(seed)
    ring = SymRing(("a", "b"))
    phi0 = phi0_reference(5)
    return {"vs": vs, "cshift": cshift, "ring": ring, "a": ring.symbol("a"),
            "b": ring.symbol("b"), "phi0": phi0, "phi0s": phi0.promote(ring),
            "kz_ring": kz_ring()}


def symbolic_run(state):
    from gtassoc import (b3_example, diagonal_conjugator, grtgt, gt_act_on_rep, kz,
                         nc_log, phat, psi1, scalar_div)
    ring, a, b = state["ring"], state["a"], state["b"]
    phi0, phi0s = state["phi0"], state["phi0s"]
    out = {}
    # grt suite: the generic graded element over Q[a,b] and the c-shift
    cap = grtgt.grt_cap_psi(a, b, 5, ring)
    out["certify_grt"] = grtgt.certify_grt(cap)
    out["exp_s"] = grtgt.exp_s(grtgt.psi_ab(a, b, 5, ring), phi0s.series)
    out["act_cap"] = grtgt.act_grt(phi0s, cap).series
    out["cshift"] = grtgt.act_grt(phi0, grtgt.grt_exp((-state["cshift"]) * psi1(5)))
    # gt suite: the generic filtered element, its torsor twist and projection
    gab = grtgt.g_ab(a, b, phi0)
    out["gt_checks"] = grtgt.gt_checks(gab)
    out["gab_log"] = nc_log(gab.series)
    out["act_gab"] = grtgt.act_gt(gab, phi0s).series
    out["kappa"] = grtgt.kappa_identification(gab.series)
    # braid suite: b3 examples twisted by the generic element
    out["b3"] = {}
    for v in state["vs"]:
        rep = phat(b3_example(v), phi0)
        relations, depth = rep.braid_relations_ok(), rep.pure_braid_depth_ok()
        rep_s = rep.promote(ring)
        diag = diagonal_conjugator(rep_s, gt_act_on_rep(rep_s, gab))
        out["b3"][v] = (relations, depth, diag[1], scalar_div(diag[2], diag[1]))
    # kz suite: ratio and h-tilde identities over Q[gamma, zeta2..zeta9]
    kring = state["kz_ring"]
    out["kz"] = {}
    for d in range(2, 7):
        plus, minus = kz.b_kz(d, +1, kring), kz.b_kz(d, -1, kring)
        even = kz.b_even_ref(d, kring)
        ht = kz.h_tilde(d, kring)
        out["kz"][d] = {"ratio": scalar_div(plus, minus),
                        "ratio_rhs": kz.ratio_formula_rhs(d, kring),
                        "ht": ht, "ht_log": ht.log(),
                        "plus_even": scalar_div(plus, even),
                        "minus_even_ht": scalar_div(minus, even) * ht}
    return out


def symbolic_check(state, out):
    from gtassoc import c_extract
    from gtassoc.wbasis import w_coordinates
    a, b = state["a"], state["b"]
    checks = [("grt-" + k, ok) for k, ok in out["certify_grt"].items()]
    checks.append(("exp-s-action", out["exp_s"].equal_through(out["act_cap"])))
    checks.append(("c-shift", c_extract(out["cshift"]) == state["cshift"]))
    checks += [("gt-" + k, ok) for k, ok in out["gt_checks"].items()]
    log = out["gab_log"]
    checks.append(("gab-deg4", log.homogeneous(4).is_zero()))
    expect5 = {9: -2 * b, 10: -4 * b, 11: -4 * b, 12: -2 * b,
               13: -(b - a * F(1, 24)), 14: -(3 * b + a * F(1, 24))}
    checks.append(("gab-deg5", w_coordinates(log, 5) == expect5))
    checks.append(("torsor", out["act_gab"].equal_through(out["act_cap"])))
    a_val, b_val, exact = out["kappa"]
    k3, k5 = a_val.ring.symbol("kappa3"), a_val.ring.symbol("kappa5")
    checks.append(("kappa", exact and a_val == k3 * F(1, 2) and b_val == k5 * F(1, 48)))
    for v, (relations, depth, q2, q3) in out["b3"].items():
        checks += [("b3-braid-%s" % v, relations), ("b3-depth-%s" % v, depth)]
        checks.append(("b3-Q2-%s" % v,
                       q2.coefficient(3) == a * (F(-1, 8) * v * (v * v - 9))
                       and q2.coefficient(5) == b * (F(-9, 64) * v * (v * v - 9) * (v * v + 7))
                       and all(not q2.coefficient(k) for k in (1, 2, 4))))
        checks.append(("b3-Q3-%s" % v,
                       q3.coefficient(3) == a * (F(1, 16) * (v + 9) * (v * v - 9))))
    kring = state["kz_ring"]
    for d, r in out["kz"].items():
        log = r["ht_log"]
        checks.append(("kz-ratio-%d" % d, r["ratio"].equal_through(r["ratio_rhs"], 7)))
        checks.append(("kz-htilde-%d" % d, r["plus_even"].equal_through(r["ht"])
                       and r["minus_even_ht"].is_one()))
        checks.append(("kz-htilde-log-%d" % d,
                       log.coefficient(3) == kring.symbol("zeta3") * (-16 * d)
                       and log.coefficient(5) == kring.symbol("zeta5") * (-64 * d * (2 * d * d + 1))
                       and log.coefficient(7) == kring.symbol("zeta7")
                       * (-256 * d * (3 * d ** 4 + 5 * d * d + 1))))
        clean = True
        for k in range(log.known_order + 1):
            c = log.coefficient(k)
            if c and (c.coefficient({"gamma": 1})
                      or any(c.coefficient({"zeta%d" % e: 1}) for e in (2, 4, 6, 8))):
                clean = False
        checks.append(("kz-no-gamma-even-zeta-%d" % d, clean))
    return checks


WORKLOADS = {
    "extend6": (extend6_setup, extend6_run, extend6_check),
    "hecke6": (hecke6_setup, hecke6_run, hecke6_check),
    "symbolic": (symbolic_setup, symbolic_run, symbolic_check),
}
