"""Spans and counters around gtassoc's public functions, installed from outside.

``Tracer.install`` replaces each listed function or method with a wrapper
that records one span: name, start and end (perf_counter_ns), the span that
was open when it started, and the job id.  Spans stay in memory in flat
arrays and are written out once, when the job ends.  Counter-only targets
(called millions of times, or needed only as a count) record no span.

A target that the library no longer has is skipped and reports zero, so the
benchmark keeps running across refactors of the code it measures.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# metric prefix -> (module, class or None, attributes wrapped under that name)
SPAN_TARGETS = {
    "symcoef.Poly.mul": ("symcoef", "Poly", ("__mul__", "__rmul__")),
    "scalar.ScalarSeries.mul": ("scalar", "ScalarSeries", ("__mul__", "__rmul__")),
    "scalar.scalar_div": ("scalar", None, ("scalar_div",)),
    "scalar.scalar_sqrt": ("scalar", None, ("scalar_sqrt",)),
    "hmatrix.HMatrix.mul": ("hmatrix", "HMatrix", ("__mul__",)),
    "hmatrix.HMatrix.inverse": ("hmatrix", "HMatrix", ("inverse",)),
    "hmatrix.HMatrix.exp": ("hmatrix", "HMatrix", ("exp",)),
    "hmatrix.evaluate_series": ("hmatrix", None, ("evaluate_series",)),
    "ncseries.NCSeries.mul": ("ncseries", "NCSeries", ("__mul__",)),
    "ncseries.nc_exp": ("ncseries", None, ("nc_exp",)),
    "ncseries.nc_log": ("ncseries", None, ("nc_log",)),
    "ncseries.nc_substitute": ("ncseries", None, ("nc_substitute",)),
    "holonomy.HoloAlgebra.normal_form": ("holonomy", "HoloAlgebra", ("normal_form",)),
    "holonomy.HoloElt.mul": ("holonomy", "HoloElt", ("__mul__",)),
    "holonomy.embed_free": ("holonomy", None, ("embed_free",)),
    "linalg.solve_affine": ("linalg", None, ("solve_affine",)),
    "linalg.mat_inv": ("linalg", None, ("mat_inv",)),
    "associators.extend_associator": ("associators", None, ("extend_associator",)),
    "associators.pentagon_defect": ("associators", None, ("pentagon_defect",)),
    "associators.hexagon_product": ("associators", None, ("hexagon_product",)),
    "grtgt.g_ab": ("grtgt", None, ("g_ab",)),
    "grtgt.gt_checks": ("grtgt", None, ("gt_checks",)),
    "grtgt.act_grt": ("grtgt", None, ("act_grt",)),
    "braidreps.phat": ("braidreps", None, ("phat",)),
    "braidreps.gt_act_on_rep": ("braidreps", None, ("gt_act_on_rep",)),
    "braidreps.diagonal_conjugator": ("braidreps", None, ("diagonal_conjugator",)),
    "braidreps.BraidRep.braid_relations_ok": ("braidreps", "BraidRep", ("braid_relations_ok",)),
    "hecke.rep_build": ("hecke", None, ("rep_build",)),
    "hecke.delta_eigenvalues_ok": ("hecke", None, ("delta_eigenvalues_ok",)),
    "hecke.unitarity_check": ("hecke", None, ("unitarity_check",)),
    "kz.b_kz": ("kz", None, ("b_kz",)),
    "kz.h_tilde": ("kz", None, ("h_tilde",)),
    "tableaux.tableaux": ("tableaux", None, ("tableaux",)),
}

COUNTER_TARGETS = {
    "symcoef.Poly.add": ("symcoef", "Poly", ("__add__", "__radd__")),
    "scalar.ScalarSeries.init": ("scalar", "ScalarSeries", ("__init__",)),
    "holonomy.HoloAlgebra.prepend": ("holonomy", "HoloAlgebra", ("prepend",)),
}

MODULES = ("symcoef", "scalar", "hmatrix", "ncseries", "holonomy", "linalg",
           "associators", "grtgt", "braidreps", "hecke", "kz", "tableaux")

# the per-layer metrics a traced run reports, with their units
PER_LAYER = {
    "symcoef.Poly.mul.calls": "count", "symcoef.Poly.mul.self_s": "s",
    "symcoef.Poly.add.calls": "count",
    "scalar.ScalarSeries.mul.calls": "count", "scalar.ScalarSeries.mul.self_s": "s",
    "scalar.ScalarSeries.init.calls": "count",
    "scalar.scalar_div.calls": "count", "scalar.scalar_div.self_s": "s",
    "scalar.scalar_sqrt.calls": "count",
    "hmatrix.HMatrix.mul.calls": "count", "hmatrix.HMatrix.mul.self_s": "s",
    "hmatrix.HMatrix.inverse.calls": "count", "hmatrix.HMatrix.inverse.self_s": "s",
    "hmatrix.HMatrix.exp.self_s": "s",
    "hmatrix.evaluate_series.calls": "count", "hmatrix.evaluate_series.self_s": "s",
    "ncseries.NCSeries.mul.calls": "count", "ncseries.NCSeries.mul.self_s": "s",
    "ncseries.nc_exp.self_s": "s", "ncseries.nc_log.self_s": "s",
    "ncseries.nc_substitute.self_s": "s",
    "holonomy.HoloAlgebra.normal_form.calls": "count",
    "holonomy.HoloAlgebra.normal_form.self_s": "s",
    "holonomy.HoloElt.mul.calls": "count", "holonomy.HoloElt.mul.self_s": "s",
    "holonomy.HoloElt.mul.pairs": "count", "holonomy.HoloElt.mul.terms_out": "count",
    "holonomy.HoloElt.mul.useful_ratio": "ratio",
    "holonomy.embed_free.calls": "count", "holonomy.embed_free.total_s": "s",
    "holonomy.HoloAlgebra.prepend.calls": "count",
    "holonomy.HoloAlgebra.prepend.distinct": "count",
    "holonomy.HoloAlgebra.prepend.hit_ratio": "ratio",
    "linalg.solve_affine.calls": "count", "linalg.solve_affine.self_s": "s",
    "linalg.solve_affine.cells": "count", "linalg.mat_inv.calls": "count",
    "associators.extend_associator.total_s": "s",
    "associators.pentagon_defect.calls": "count", "associators.pentagon_defect.total_s": "s",
    "associators.hexagon_product.calls": "count", "associators.hexagon_product.total_s": "s",
    "grtgt.g_ab.total_s": "s", "grtgt.gt_checks.total_s": "s", "grtgt.act_grt.total_s": "s",
    "braidreps.phat.total_s": "s", "braidreps.gt_act_on_rep.total_s": "s",
    "braidreps.diagonal_conjugator.total_s": "s",
    "braidreps.BraidRep.braid_relations_ok.total_s": "s",
    "hecke.rep_build.calls": "count", "hecke.rep_build.total_s": "s",
    "hecke.delta_eigenvalues_ok.total_s": "s", "hecke.unitarity_check.total_s": "s",
    "kz.b_kz.total_s": "s", "kz.h_tilde.total_s": "s",
    "tableaux.tableaux.calls": "count", "tableaux.tableaux.self_s": "s",
}
PER_LAYER.update({"%s.self_share" % m: "ratio" for m in MODULES})
PER_LAYER.update({"trace.job_s": "s", "trace.overhead_s": "s"})


def span_stats(names, starts, ends, parents):
    """Per-name [calls, self, total] from spans listed in start order.

    Self time is a span's duration minus the durations of its direct
    children (single-threaded spans nest, so children never overlap).  Total
    time counts only spans with no open span of the same name above them, so
    recursion is not counted twice.
    """
    child = [0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    stats, active, chain = {}, {}, []
    for i, name in enumerate(names):
        while chain and chain[-1] != parents[i]:
            top = names[chain.pop()]
            active[top] -= 1
        dur = ends[i] - starts[i]
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += dur - child[i]
        if not active.get(name):
            entry[2] += dur
        active[name] = active.get(name, 0) + 1
        chain.append(i)
    return stats


def _resolve(module, cls, attr):
    try:
        mod = importlib.import_module("gtassoc." + module)
    except ImportError:
        return None, None
    owner = mod if cls is None else getattr(mod, cls, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None, None
    return owner, getattr(owner, attr)


class Tracer:
    """Records spans for one job; install() patches, uninstall() restores."""

    def __init__(self, job_id=0):
        self.job_id = job_id
        self.span_names = list(SPAN_TARGETS)
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.jobs = array("i")
        self.stack = [-1]
        self.counts = {name: 0 for name in COUNTER_TARGETS}
        self.extra = {"holonomy.HoloElt.mul.pairs": 0, "holonomy.HoloElt.mul.terms_out": 0,
                      "linalg.solve_affine.cells": 0}
        self.prepend_keys = set()
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, nid, fn, observe=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack, job = self.parents, self.jobs, self.stack, self.job_id
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(job)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _prepend_counter(self, fn):
        counts, keys = self.counts, self.prepend_keys

        def wrapper(algebra, letter, word):
            counts["holonomy.HoloAlgebra.prepend"] += 1
            keys.add((id(algebra), letter, word))
            return fn(algebra, letter, word)
        return wrapper

    def _observe_holo_mul(self, args, result):
        a, b = args[0], args[1]
        if type(b) is type(a):
            self.extra["holonomy.HoloElt.mul.pairs"] += len(a.terms) * len(b.terms)
            self.extra["holonomy.HoloElt.mul.terms_out"] += len(result.terms)

    def _observe_solve(self, args, result):
        matrix = args[0]
        self.extra["linalg.solve_affine.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    # -- patching ---------------------------------------------------------

    def _patch(self, module, cls, attr, make):
        owner, original = _resolve(module, cls, attr)
        if owner is None:
            return
        wrapped = make(original)
        if cls is not None:
            # an inherited method is restored by deleting the override
            self._patches.append((owner, attr, original if attr in vars(owner) else None))
            setattr(owner, attr, wrapped)
            return
        # a module function is also bound by name in every module that imported it
        for name, mod in list(sys.modules.items()):
            if (name == "gtassoc" or name.startswith("gtassoc.")) and \
                    getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self):
        observers = {"holonomy.HoloElt.mul": self._observe_holo_mul,
                     "linalg.solve_affine": self._observe_solve}
        for nid, (name, (module, cls, attrs)) in enumerate(SPAN_TARGETS.items()):
            for attr in attrs:
                self._patch(module, cls, attr,
                            lambda fn, nid=nid, name=name: self._span(nid, fn, observers.get(name)))
        for name, (module, cls, attrs) in COUNTER_TARGETS.items():
            for attr in attrs:
                if name == "holonomy.HoloAlgebra.prepend":
                    self._patch(module, cls, attr, self._prepend_counter)
                else:
                    self._patch(module, cls, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def metrics(self, job_s):
        """Per-layer metrics of the finished job, keyed as in PER_LAYER."""
        out = {}
        module_self = dict.fromkeys(MODULES, 0)
        stats = span_stats(self.names, self.starts, self.ends, self.parents)
        for nid, name in enumerate(self.span_names):
            calls, self_ns, total_ns = stats.get(nid, (0, 0, 0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_ns / 1e9
            out[name + ".total_s"] = total_ns / 1e9
            module_self[name.split(".")[0]] += self_ns
        for name, count in self.counts.items():
            out[name + ".calls"] = count
        out.update(self.extra)
        pairs = out["holonomy.HoloElt.mul.pairs"]
        out["holonomy.HoloElt.mul.useful_ratio"] = (
            out["holonomy.HoloElt.mul.terms_out"] / pairs if pairs else 0.0)
        calls = out["holonomy.HoloAlgebra.prepend.calls"]
        distinct = len(self.prepend_keys)
        out["holonomy.HoloAlgebra.prepend.distinct"] = distinct
        out["holonomy.HoloAlgebra.prepend.hit_ratio"] = 1 - distinct / calls if calls else 0.0
        for module, ns in module_self.items():
            out[module + ".self_share"] = ns / 1e9 / job_s if job_s else 0.0
        return {k: v for k, v in out.items() if k in PER_LAYER}

    def write(self, path):
        """Header line (JSON), then the name, start, end, parent and job arrays."""
        header = {"names": self.span_names, "count": len(self.names),
                  "arrays": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"],
                             ["parent", "q"], ["job", "i"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.names, self.starts, self.ends, self.parents, self.jobs):
                arr.tofile(fh)
