"""One benchmark job in a fresh process, so that no cache survives from an earlier job.

    python3 perfbench/job.py <workload> <seed> <job id> <setup|plain|traced>

Run from the root of a checkout (gtassoc is imported from ./src).  Prints one
JSON line.  Mode ``setup`` stops after set-up; ``traced`` records spans
around the library's public functions and writes them under perfbench/out/.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv):
    workload, seed, job_id, mode = argv[1], int(argv[2]), int(argv[3]), argv[4]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import spans
    import workloads
    setup, run, check = workloads.WORKLOADS[workload]
    state = setup(seed)
    result = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    tracer = spans.Tracer(job_id) if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outputs = run(state)
    job_s = time.perf_counter() - wall0
    result.update(job_s=job_s, job_cpu_s=time.process_time() - cpu0,
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(job_s)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", workload)
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "seed%d-job%d.spans" % (seed, job_id)))
    checks = check(state, outputs)
    result["attempted"] = len(checks)
    result["failed"] = [name for name, ok in checks if not ok]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
