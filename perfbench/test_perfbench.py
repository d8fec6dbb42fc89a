"""Tests of the benchmark itself:  python3 -m pytest perfbench -q  (from the repo root)."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # A[0,100] > B[10,40] > C[15,25];  A > B[50,90] > B[60,70] (recursion);  A[200,210]
    names = ["A", "B", "C", "B", "B", "A"]
    starts = [0, 10, 15, 50, 60, 200]
    ends = [100, 40, 25, 90, 70, 210]
    parents = [-1, 0, 1, 0, 3, -1]
    stats = spans.span_stats(names, starts, ends, parents)
    assert stats["A"] == [2, (100 - 30 - 40) + 10, 110]
    assert stats["B"] == [3, (30 - 10) + (40 - 10) + 10, 30 + 40]
    assert stats["C"] == [1, 10, 10]


def test_tracer_records_nested_layers_and_restores():
    from gtassoc import hmatrix, scalar
    from gtassoc.hmatrix import HMatrix
    def patched():
        return scalar.ScalarSeries.__mul__, hmatrix.HMatrix.__mul__, hmatrix.evaluate_series

    originals = patched()
    m = HMatrix.identity(2, 3)
    tracer = spans.Tracer(job_id=7)
    tracer.install()
    try:
        m * m
    finally:
        tracer.uninstall()
    assert patched() == originals
    metrics = tracer.metrics(job_s=1.0)
    assert metrics["hmatrix.HMatrix.mul.calls"] == 1
    assert metrics["scalar.ScalarSeries.mul.calls"] == 8
    mul = tracer.span_names.index("hmatrix.HMatrix.mul")
    assert tracer.names[0] == mul and tracer.parents[0] == -1
    assert all(p == 0 for p in tracer.parents[1:]) and set(tracer.jobs) == {7}


def test_seed_generator_is_deterministic_and_avoids_degenerate_v():
    assert workloads.params_for_seed(0) == (Fraction(0), (Fraction(5), Fraction(7), Fraction(1, 2)),
                                            Fraction(7, 3))
    assert not workloads.EXCLUDED_V & set(workloads.V_TABLE)
    for seed in range(2000):
        z, vs, cshift = workloads.params_for_seed(seed)
        assert (z, vs, cshift) == workloads.params_for_seed(seed)
        assert len(set(vs)) == 3 and not workloads.EXCLUDED_V & set(vs)
        assert z == 0 or z in workloads.Z_TABLE
        assert cshift != 0


def test_every_selectable_output_is_pinned():
    pins = workloads.load_pins()
    for z in (Fraction(0),) + workloads.Z_TABLE:
        assert str(z) in pins["extend6"] and str(z) in pins["hecke6"]


def test_checker_flags_one_flipped_coefficient():
    from gtassoc import AssociatorCandidate, phi0_reference
    phi = phi0_reference(5)
    pin = workloads.sha256_text(phi.to_text())
    assert all(ok for _, ok in workloads.candidate_checks(phi, pin))
    terms = dict(phi.series.terms)
    word = max(terms, key=len)
    terms[word] = -terms[word]
    flipped = AssociatorCandidate(phi.series.scaled_copy(terms), phi.lam)
    failed = [name for name, ok in workloads.candidate_checks(flipped, pin) if not ok]
    assert "digest" in failed and len(failed) >= 2


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    assert {m["name"] for m in bench["end_to_end"]} == {
        "job_s", "job_cpu_s", "setup_s", "peak_rss_mib", "pass_ratio"}


def test_layer_map_covers_every_module_and_metric():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    assert sorted(layers) == sorted(spans.MODULES)
    for module, entry in layers.items():
        assert all(name.startswith(module + ".") and name in spans.PER_LAYER
                   for name in entry["metrics"])
        assert set(entry["no_change_on"]) <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hecke6",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
