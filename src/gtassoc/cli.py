"""Command-line entry point.

Subcommands: verify {associator|grt|gt|braid|hecke|kz|all}, chars,
resonance, extend, kz-report.  Exit codes: 0 all-pass, 1 check failure,
2 usage error, 3 resource error.  verify takes a --degree from the least
one its suites are written for (report.MIN_DEGREE) to 5.
"""

from __future__ import annotations

import argparse
import sys

from . import holonomy, kz, report
from .associators import AssociatorCandidate, extend_associator, phi0_reference
from .ncseries import NCSeries
from .symcoef import render_coeff
from .tableaux import Partition

# resonance --n past this bound is a resource error: n = 10 takes about a
# second and each further n about three times as long
RESONANCE_NMAX = 10
# kz-report --dmax past this bound is a resource error: each d costs about a
# millisecond, so 100 takes about 0.1 s
KZ_DMAX = 100

VERIFY_SUITES = {
    "associator": report.verify_associator,
    "grt": report.verify_grt,
    "gt": report.verify_gt,
    "braid": report.verify_braid,
    "hecke": report.verify_hecke,
    "kz": report.verify_kz,
}


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
    # both bounds are refused before any work
    least = max(report.MIN_DEGREE[name] for name in names)
    if args.degree < least:
        print("verify %s: --degree must be at least %d" % (args.suite, least), file=sys.stderr)
        return 2
    if args.degree > 5:
        print("verify %s: --degree must be at most 5" % args.suite, file=sys.stderr)
        return 2
    hecke = {}
    if args.nmax is not None:
        if args.suite not in ("hecke", "all") or not 2 <= args.nmax <= 8:
            # the suite's time grows fast with n: 8 takes seconds
            print("verify %s: --nmax takes 2 to 8, for the hecke suite" % args.suite,
                  file=sys.stderr)
            return 2
        hecke = {"nmax": args.nmax}
    reps = [VERIFY_SUITES[name](args.degree, **(hecke if name == "hecke" else {}))
            for name in names]
    _emit(reps, args)
    return 0 if all(rep.ok for rep in reps) else 1


def cmd_chars(args):
    if args.order > 5:
        # refused before any work: the reference associator stops at degree 5
        print("chars: invalid --order %d: must be at most 5" % args.order, file=sys.stderr)
        return 2
    rep = report.chars_report(args.partition, args.g, args.order)
    _emit([rep], args)
    return 0 if rep.ok else 1


def cmd_resonance(args):
    if args.n > RESONANCE_NMAX:
        print("resource bound: resonance --n %d is past %d" % (args.n, RESONANCE_NMAX),
              file=sys.stderr)
        return 3
    rep = report.resonance_report(args.n)
    _emit([rep], args)
    return 0 if rep.ok else 1


def cmd_extend(args):
    try:
        # fail before the ladder below spends time on the lower degrees
        holonomy.holonomy_algebra(4, args.degree + 1)
    except ValueError as exc:
        print("resource bound: %s" % exc, file=sys.stderr)
        return 3
    phi = phi0_reference(min(args.degree, 5)) if args.degree >= 2 else \
        AssociatorCandidate(NCSeries.one(("x", "y"), 1), 1)
    start = AssociatorCandidate(phi.series.truncated(args.degree, known_order=args.degree), phi.lam) \
        if args.degree <= phi.maxdeg else phi
    # the reference data stops at degree 5: solve up to the requested degree first
    while start.known_order < args.degree:
        start, _ = extend_associator(start, parity=args.parity)
    extended, kernel = extend_associator(start, parity=args.parity)
    sys.stdout.write(extended.to_text())
    sys.stdout.write("# kernel dimension at degree %d: %d\n"
                     % (extended.known_order, len(kernel)))
    return 0


def cmd_kz_report(args):
    if args.order > kz.DEFAULT_ZETA_MAX:
        print("kz-report: invalid --order %d: the default ring stops at zeta_%d"
              % (args.order, kz.DEFAULT_ZETA_MAX), file=sys.stderr)
        return 2
    if args.dmax < 2:
        print("kz-report: invalid --dmax %d: must be at least 2" % args.dmax, file=sys.stderr)
        return 2
    if args.dmax > KZ_DMAX:
        print("resource bound: kz-report --dmax %d is past %d" % (args.dmax, KZ_DMAX),
              file=sys.stderr)
        return 3
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
def natural(text):
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


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
    p.add_argument("--degree", type=natural, default=5)
    p.add_argument("--nmax", type=int, help="largest n of the hecke suite (2 to 8, default 6)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("chars", help="character diagonal of a partition")
    p.add_argument("--partition", type=partition, required=True)
    p.add_argument("--g", type=symbol_pair, default="a,b",
                   help="two symbol names for the generic element")
    p.add_argument("--order", type=natural, default=5)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_chars)

    p = sub.add_parser("resonance", help="resonance-free scan over partitions")
    p.add_argument("--n", type=natural, default=8,
                   help="largest n of the scan (at most %d)" % RESONANCE_NMAX)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_resonance)

    p = sub.add_parser("extend", help="extend the reference candidate one degree")
    p.add_argument("--degree", type=natural, default=4, help="extend from this degree")
    p.add_argument("--parity", action="store_true")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("kz-report", help="coefficient tables of the ratio logs")
    p.add_argument("--dmax", type=natural, default=6, help="largest d (2 to %d)" % KZ_DMAX)
    p.add_argument("--order", type=natural, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_kz_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
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
