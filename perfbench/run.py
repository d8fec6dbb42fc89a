"""gtassoc benchmark: seeded workloads timed end to end, or traced per module.

    python3 perfbench/run.py --workload extend6|hecke6|symbolic --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; gtassoc is imported from ./src.  One caller
runs one job at a time (a closed loop), each job in a fresh process so that
no cache survives between jobs, until S seconds have passed.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it summarise the run.

--trace 0 reports the end-to-end metrics: median job wall and CPU seconds,
median set-up seconds, median peak RSS, and the share of output checks
passed.  --trace 1 alternates plain and traced jobs and reports the medians
of the per-layer metrics of the traced jobs (see spans.py), with the tracing
overhead as traced minus plain median job seconds.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, params_for_seed  # noqa: E402

# set-up-only processes per run, half before the jobs and half after them;
# every job process adds one more set-up sample
SETUP_SAMPLES = 20
# every run has at least this many jobs (with --trace 1: one plain, one traced)
MIN_JOBS = 2
# the whole run ends within this many seconds: no job starts that would overrun it
LIMIT_S = 170.0


def child_env():
    env = dict(os.environ)
    env.pop("GTASSOC_CACHE", None)  # no disk cache may be read
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence work counts, repeat exactly
    # set-up imports from one bytecode cache whatever the caller's settings, as an
    # installed package would; only the first process of a fresh checkout compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, "out", "pycache")
    return env


def run_child(workload, seed, job_id, mode, timeout):
    """One job process; returns its JSON result, or None when it failed."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload, str(seed), str(job_id), mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0),
                              env=child_env())
    except subprocess.TimeoutExpired:
        sys.stderr.write("job %d (%s) timed out\n" % (job_id, mode))
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write("job %d (%s) printed no result\n" % (job_id, mode))
        return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, subprocess.run kills and reaps the running job before exiting
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "gtassoc", "__init__.py")):
        sys.stderr.write("perfbench: no src/gtassoc here; run from the root of a checkout\n")
        return 2
    start = time.perf_counter()

    def left():
        return LIMIT_S - (time.perf_counter() - start)

    setups = []

    def sample_setups(count):
        for _ in range(count):
            got = run_child(args.workload, args.seed, -1 - len(setups), "setup", left())
            if got is None:
                return False
            setups.append(got["setup_s"])
        return True

    if not sample_setups(SETUP_SAMPLES // 2):
        sys.stderr.write("perfbench: set-up failed\n")
        return 1
    if args.trace:
        shutil.rmtree(os.path.join(HERE, "out", args.workload), ignore_errors=True)

    plain, traced, failed_names = [], [], []
    attempted = failed = 0
    longest = 0.0
    measure_start = time.perf_counter()
    job_id = 0
    while job_id < MIN_JOBS or time.perf_counter() - measure_start < args.seconds:
        if left() < 1.5 * longest:
            break
        mode = "traced" if args.trace and job_id % 2 else "plain"
        t0 = time.perf_counter()
        got = run_child(args.workload, args.seed, job_id, mode, left())
        longest = max(longest, time.perf_counter() - t0)
        job_id += 1
        if got is None:  # a job that raises or times out counts as one failed check
            attempted += 1
            failed += 1
            failed_names.append("job-%d" % (job_id - 1))
            continue
        attempted += got["attempted"]
        failed += len(got["failed"])
        failed_names += got["failed"]
        setups.append(got["setup_s"])
        (traced if mode == "traced" else plain).append(got)
    if not plain or (args.trace and not traced) or not sample_setups(SETUP_SAMPLES // 2):
        sys.stderr.write("perfbench: no job completed\n")
        return 1

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    job_s = median(plain, "job_s")
    z, vs, cshift = params_for_seed(args.seed)
    print("workload %s seed %d (z=%s, v=%s, c-shift=%s): %d plain jobs, %d traced jobs"
          % (args.workload, args.seed, z, ",".join(map(str, vs)), cshift, len(plain), len(traced)))
    print("job_s median %.4f (min %.4f, max %.4f); setup_s median of %d set-ups %.4f"
          % (job_s, min(r["job_s"] for r in plain), max(r["job_s"] for r in plain),
             len(setups), statistics.median(setups)))
    if failed_names:
        print("failed checks: %s" % ", ".join(sorted(set(failed_names))))
    if args.trace:
        traced_s = median(traced, "job_s")
        metrics = {name: metric(statistics.median_low(r["layers"].get(name, 0) for r in traced),
                                unit)
                   for name, unit in PER_LAYER.items()}
        metrics["trace.job_s"] = metric(traced_s, "s")
        metrics["trace.overhead_s"] = metric(traced_s - job_s, "s")
    else:
        metrics = {
            "job_s": metric(job_s, "s"),
            "job_cpu_s": metric(median(plain, "job_cpu_s"), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mib": metric(median(plain, "peak_rss_mib"), "MiB"),
            "pass_ratio": metric((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
