"""Recompute perfbench/pins.json: the sha256 digests of the extend6 and hecke6 outputs.

    python3 perfbench/make_pins.py      (from the root of a checkout, about 5 minutes)

One digest per twist parameter z that a seed can select.  A digest is written
only when every other check of that output passes.  Outputs must stay
bit-identical, so a change that alters a pin changes an exact answer.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402


def main():
    pins = {"extend6": {}, "hecke6": {}}
    for z in (workloads.params_for_seed(0)[0],) + workloads.Z_TABLE:
        state = workloads.extend6_state(z)
        out = workloads.extend6_run(state)
        failed = [n for n, ok in workloads.extend6_check(state, out)
                  if not ok and n != "digest"]
        if failed:
            raise SystemExit("extend6 z=%s fails %s" % (z, failed))
        pins["extend6"][str(z)] = workloads.sha256_text(out["extended"].to_text())
        state = workloads.hecke6_state(z)
        out = workloads.hecke6_run(state)
        failed = [n for n, ok in workloads.hecke6_check(state, out)
                  if not ok and not n.startswith("digest")]
        if failed:
            raise SystemExit("hecke6 z=%s fails %s" % (z, failed))
        rep = out["built"][workloads.HECKE_PIN_SHAPE]
        pins["hecke6"][str(z)] = workloads.hecke_digest(rep)
        print("z=%s pinned" % z, flush=True)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
