"""Command-line entry point.

Subcommands: verify {associator|grt|gt|braid|hecke|kz|all}, chars,
resonance, extend, kz-report.  Exit codes: 0 all-pass, 1 check failure,
2 usage error, 3 resource error.  Every bounded integer option has one row
in BOUNDS, and main refuses a value outside its row, after parsing and
before --out is opened or any work runs.  extend --degree has no upper
bound there: cmd_extend refuses, with exit 3, a degree whose next one is
past associators.T4_DIMENSION_BOUND, before the ladder of lower degrees
runs.
"""

from __future__ import annotations

import argparse
import sys

from . import kz, report
from .associators import REFERENCE_DEGREE, check_size, extend_associator, phi0_reference
from .symcoef import render_coeff
from .tableaux import Partition

# resonance --n past this bound is a resource error: n = 10 takes about a
# second and each further n about three times as long
RESONANCE_NMAX = 10
# kz-report --dmax past this bound is a resource error: each d costs about a
# millisecond, so 100 takes about 0.1 s
KZ_DMAX = 100

# a copy of report's table: replacing an entry here leaves report.SUITES as it is
VERIFY_SUITES = dict(report.SUITES)

# One row per bounded option: (subcommand, option) -> (least, most, exit code past most).
# A value below least is a usage error (2); most None leaves the value unbounded here.
# verify --degree's least is per suite: the largest report.MIN_DEGREE of the suites run.
BOUNDS = {
    ("verify", "degree"): (dict(report.MIN_DEGREE, all=max(report.MIN_DEGREE.values())),
                           REFERENCE_DEGREE, 2),
    # below 3 every shape has one generator and braid-relations compares nothing;
    # the hecke suite's time grows fast with n: 8 takes seconds
    ("verify", "nmax"): (3, 8, 2),
    ("chars", "order"): (0, REFERENCE_DEGREE, 2),
    # below 2 the scan visits no partition
    ("resonance", "n"): (2, RESONANCE_NMAX, 3),
    # past associators.T4_DIMENSION_BOUND in the degree reached, cmd_extend exits 3
    ("extend", "degree"): (0, None, None),
    # below 3 the logs have no nonzero coefficient; a higher order needs a
    # zeta_k that the default kz ring lacks
    ("kz-report", "order"): (3, kz.DEFAULT_ZETA_MAX, 2),
    # below 2 there is no ratio to report
    ("kz-report", "dmax"): (2, KZ_DMAX, 3),
}


def refusal(args):
    """(exit code, one-line message) for the first option outside its BOUNDS row, or None."""
    if getattr(args, "nmax", None) is not None and args.suite not in ("hecke", "all"):
        return 2, "verify %s: --nmax is for the hecke suite only" % args.suite
    for (command, option), (least, most, code) in BOUNDS.items():
        value = getattr(args, option) if command == args.command else None
        if value is None:
            continue
        least = least[args.suite] if isinstance(least, dict) else least
        usage = "%s: invalid value %d, --%s must be at " % (command, value, option)
        if value < least:
            return 2, usage + "least %d" % least
        if most is not None and value > most:
            return code, (usage + "most %d" % most if code == 2 else
                          "resource bound: %s --%s %d is past %d" % (command, option, value, most))
    return None


def _write(args, text):
    """text to stdout, or to --out, which main opened before any work but empties only now."""
    if args.out:
        args.out.truncate(0)
    (args.out or sys.stdout).write(text)


def _emit(reps, args):
    """Write the reports in one go."""
    texts = (rep.to_json() if args.format == "json" else rep.to_text() for rep in reps)
    _write(args, "".join(text if text.endswith("\n") else text + "\n" for text in texts))


def cmd_verify(args):
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    hecke = {} if args.nmax is None else {"nmax": args.nmax}
    reps = [VERIFY_SUITES[name](args.degree, **(hecke if name == "hecke" else {}))
            for name in names]
    _emit(reps, args)
    return 0 if all(rep.ok for rep in reps) else 1


def cmd_chars(args):
    rep = report.chars_report(args.partition, args.g, args.order)
    _emit([rep], args)
    return 0 if rep.ok else 1


def cmd_resonance(args):
    rep = report.resonance_report(args.n)
    _emit([rep], args)
    return 0 if rep.ok else 1


def cmd_extend(args):
    try:
        # fail before the ladder below spends time on the lower degrees
        check_size(args.degree + 1)
    except ValueError as exc:
        print("resource bound: %s" % exc, file=sys.stderr)
        return 3
    start = phi0_reference(min(args.degree, REFERENCE_DEGREE))
    # the reference data stops at REFERENCE_DEGREE: solve up to the requested degree first
    while start.known_order < args.degree:
        start, _ = extend_associator(start, parity=args.parity)
    extended, kernel = extend_associator(start, parity=args.parity)
    sys.stdout.write(extended.to_text())
    sys.stdout.write("# kernel dimension at degree %d: %d\n"
                     % (extended.known_order, len(kernel)))
    return 0


def cmd_kz_report(args):
    ring = kz.kz_ring()
    lines = []
    for d in range(2, args.dmax + 1):
        series = kz.h_tilde(d, ring, args.order).log()
        for k in range(series.known_order + 1):
            c = series.coefficient(k)
            if c:
                lines.append("log_h_tilde d=%d hbar^%d\t%s" % (d, k, render_coeff(c)))
    _write(args, "\n".join(lines) + "\n")
    return 0


# argparse types: a value they refuse is a usage error (exit 2), not a check failure
def partition(text):
    Partition.parse(text)
    return text


def symbol_pair(text):
    symbols = tuple(s.strip() for s in text.split(","))
    if len(symbols) != 2 or symbols[0] == symbols[1]:
        raise ValueError(text)
    return symbols


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gtassoc",
        description="exact verification toolkit for truncated associators, "
                    "the graded/filtered Teichmuller group laws, and Hecke "
                    "matrix models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(VERIFY_SUITES) + ["all"])
    p.add_argument("--degree", type=int, default=REFERENCE_DEGREE)
    p.add_argument("--nmax", type=int, help="largest n of the hecke suite (%d to %d, default 6)"
                   % BOUNDS["verify", "nmax"][:2])
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("chars", help="character diagonal of a partition")
    p.add_argument("--partition", type=partition, required=True)
    p.add_argument("--g", type=symbol_pair, default="a,b",
                   help="two symbol names for the generic element")
    p.add_argument("--order", type=int, default=REFERENCE_DEGREE)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_chars)

    p = sub.add_parser("resonance", help="resonance-free scan over partitions")
    p.add_argument("--n", type=int, default=8,
                   help="largest n of the scan (%d to %d)" % BOUNDS["resonance", "n"][:2])
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_resonance)

    p = sub.add_parser("extend", help="extend the reference candidate one degree")
    p.add_argument("--degree", type=int, default=4, help="extend from this degree")
    p.add_argument("--parity", action="store_true")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("kz-report", help="coefficient tables of the ratio logs")
    p.add_argument("--dmax", type=int, default=6,
                   help="largest d (%d to %d)" % BOUNDS["kz-report", "dmax"][:2])
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_kz_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    refused = refusal(args)
    if refused:
        print(refused[1], file=sys.stderr)
        return refused[0]
    if not getattr(args, "out", None):
        return args.fn(args)
    # opened before any work: a path that cannot be written is a usage error
    try:
        args.out = open(args.out, "a")
    except OSError as exc:
        print("%s: cannot write --out: %s" % (args.command, exc), file=sys.stderr)
        return 2
    with args.out:
        return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
