"""Command-line front end: run the check suite, list the catalog, or
realize a single class numerically."""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .checks import (WORKERS_ENV_VAR, available_checks, check_statement, count_verdicts,
                     plan, reports_to_json, resolve_workers, run_suite)
from .curves import jacobian_class, sym_power_class
from .moduli import m2_chi, m3_chi
from .polys import IntPoly, IntPoly2
from .realize import CountingData, realize
from .series import GenusContext

# the --class names besides ck:<k>, each the builder of its class from an adic context
_CLASSES = {"m2": m2_chi, "m3": m3_chi, "jac": jacobian_class}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curve-motives",
        description="Exact identity checks for motivic classes attached to a "
                    "smooth projective curve of genus g >= 2.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run identity checks and report pass/fail/flagged")
    verify.add_argument("--genus", nargs="+", type=int, default=[2, 3],
                        help="genus values to check (default: 2 3)")
    verify.add_argument("--checks", nargs="+", metavar="ID",
                        help="subset of check identifiers (default: all)")
    verify.add_argument("--window", nargs=2, type=int,
                        metavar=("E_MIN", "E_MAX"),
                        help="L-exponent window for the adic completion; the "
                             "dimensional completion mirrors the depth")
    verify.add_argument("--json", metavar="PATH",
                        help="also write a machine-readable report here")
    verify.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: $%s or 1)"
                             % WORKERS_ENV_VAR)

    sub.add_parser("list-checks", help="print the check catalog")

    rz = sub.add_parser("realize", help="realize one class numerically")
    rz.add_argument("--target", required=True,
                    choices=["poincare", "hodge", "count"])
    rz.add_argument("--class", dest="cls", required=True, metavar="CLASS",
                    help=" | ".join([*_CLASSES, "ck:<k>"]))
    rz.add_argument("--genus", type=int, default=2)
    rz.add_argument("--counts", metavar="PATH",
                    help='point-count JSON {"q": .., "counts": [N1, .., Ng]} '
                         "(required for --target count)")
    return parser


def _cmd_verify(parser, args):
    try:
        tasks = plan(args.genus, args.checks, args.window)
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    if not tasks:
        parser.error("selected checks do not apply to any requested genus")
    if args.json:
        try:  # probed before any check runs; append mode keeps an old report
            with open(args.json, "a"):
                pass
        except OSError as exc:
            parser.error("cannot write --json file %s: %s" % (args.json, exc.strerror))
    reports = run_suite(args.genus, args.checks, window=args.window, workers=workers)
    for r in reports:
        win = "window=[%d,%d] " % tuple(r.window) if r.window else ""
        print("%-7s %s g=%d %s(%.2fs)"
              % (r.verdict.upper(), r.check, r.genus, win, r.wall_time))
        for note in r.notes:
            print("        note: %s" % note)
        if r.verdict == "fail" and r.witness is not None:
            print("        witness: %s" % json.dumps(r.witness, sort_keys=True))
    summary = count_verdicts(reports)
    print("%d passed, %d flagged, %d failed"
          % (summary["pass"], summary["flagged"], summary["fail"]))
    if args.json:
        obj = reports_to_json(reports, args.genus, args.checks, args.window)
        with open(args.json, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if summary["fail"] == 0 else 1


def _cmd_list_checks():
    for cid in available_checks():
        print(cid)
        print("    %s" % check_statement(cid))
    return 0


def _realization_json(value):
    if isinstance(value, IntPoly):
        return {"variable": "t",
                "coefficients": [[e, c] for e, c in sorted(value.terms.items())]}
    if isinstance(value, IntPoly2):
        return {"variables": ["u", "v"],
                "coefficients": [[i, j, c]
                                 for (i, j), c in sorted(value.terms.items())]}
    return {"value": value}


def _read_counts(parser, path):
    """The point counts of a --counts file; a file that cannot be read, is
    not JSON or does not hold the counts of a curve is a usage error."""
    try:
        with open(path) as fh:
            return CountingData.from_json(json.load(fh))
    except OSError as exc:
        reason = exc.strerror
    except KeyError as exc:
        reason = "missing key %s" % exc
    except (ValueError, TypeError, ArithmeticError) as exc:
        reason = str(exc)
    parser.error("bad --counts file %s: %s" % (path, reason))


def _cmd_realize(parser, args):
    if args.genus < 2:
        parser.error("genus must be >= 2")
    if args.counts and args.target != "count":
        parser.error("--counts is read only with --target count")
    ctx = GenusContext.adic(args.genus)
    name = args.cls
    if name in _CLASSES:
        cls = _CLASSES[name](ctx)
    elif name.startswith("ck:"):
        try:
            k = int(name[3:])
        except ValueError:
            parser.error("bad symmetric-power index in %r" % name)
        if k < 0 or k > ctx.window.hi:
            parser.error("symmetric-power index must lie in [0, %d]"
                         % ctx.window.hi)
        cls = sym_power_class(ctx, k)
    else:
        parser.error("unknown class %r (use %s, or ck:<k>)" % (name, ", ".join(_CLASSES)))
    target = args.target
    if target == "count":
        if not args.counts:
            parser.error("--target count requires --counts")
        target = _read_counts(parser, args.counts)
        if target.g != args.genus:
            parser.error("point-count data is for genus %d, not %d"
                         % (target.g, args.genus))
    out = {
        "schema": 1,
        "class": name,
        "genus": args.genus,
        "target": args.target,
        "realization": _realization_json(realize(cls, target)),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(parser, args)
    if args.command == "list-checks":
        return _cmd_list_checks()
    return _cmd_realize(parser, args)


if __name__ == "__main__":
    sys.exit(main())
