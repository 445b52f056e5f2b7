"""Command-line interface.

One subcommand per experiment plus a generic dataset analyzer. Exit
codes: 0 on success, otherwise the refusing exception's own exit_code
(1 for input errors, 2 for a NumericalFailure; see errors.py).
"""

import argparse
import dataclasses
import sys

from .bigreal import DEFAULT_POLICY
from .errors import InvalidParameter, UBenfordError
from .experiments import (analyze_dataset, bound_sweep, pdelta_curve,
                          run_table1, run_table3)
from .ingest import ingest_csv
from .report import FORMATS, emit
from .transforms import Transform


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for
    # numerical failures, so route usage problems through exit 1 instead
    def error(self, message):
        raise InvalidParameter(message)


def _float_list(text, what):
    try:
        values = [float(f) for f in text.split(",") if f.strip()]
    except ValueError:
        raise InvalidParameter(f"{what} must be comma-separated numbers")
    if not values:
        raise InvalidParameter(f"{what} must be a nonempty list")
    return values


def _sweep_points(text):
    """--params: comma-separated values of a one-parameter family, or
    ';'-separated points whose parameters are comma-separated."""
    if ";" not in text:
        return _float_list(text, "--params")
    points = [tuple(_float_list(point, "each --params point"))
              for point in text.split(";") if point.strip()]
    if not points:
        raise InvalidParameter("--params must be a nonempty list")
    return points


def _policy(args):
    # PrecisionPolicy refuses digits below its floor; the CLI adds a ceiling
    digits = getattr(args, "precision", None)
    if digits is None:
        return DEFAULT_POLICY
    if digits > 1000:
        raise InvalidParameter(
            f"precision must be at most 1000 digits, got {digits}")
    return dataclasses.replace(DEFAULT_POLICY, agreement=digits)


def _add_format(sub):
    sub.add_argument("--format", choices=FORMATS, default="text-table",
                     help="output format (default: text-table)")


def _cmd_table1(args):
    sizes = {} if args.n is None else {"n_fast": args.n, "n_slow": args.n}
    return run_table1(workers=args.workers, policy=_policy(args), **sizes)


def _cmd_table3(args):
    sizes = {} if args.n is None else {"sample_size": args.n}
    return run_table3(seed=args.seed, **sizes)


def _cmd_bounds(args):
    return bound_sweep(args.family, _sweep_points(args.params),
                       Transform.parse(args.transform))


def _cmd_pdelta(args):
    deltas = (_float_list(args.deltas, "--deltas")
              if args.deltas is not None else None)
    return pdelta_curve(args.family, args.parameter, deltas=deltas)


def _cmd_analyze(args):
    dataset = ingest_csv(args.csv, column=args.column)
    return analyze_dataset(dataset,
                           transform=Transform.parse(args.transform),
                           base=args.base, alpha=args.alpha_level,
                           policy=_policy(args))


def build_parser():
    parser = _Parser(prog="ubenford",
                     description="Uniformity tests for rescaled mantissas: "
                                 "sequence tables, distribution limits, "
                                 "certified bounds, and dataset analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="sequence-by-transform "
                       "Kolmogorov-Smirnov table with follow-up runs")
    p.add_argument("--n", type=int, default=None,
                   help="override the term count for every row")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size for cell evaluation (default 1)")
    p.add_argument("--precision", type=int, default=None,
                   help="certified fractional digits per term, 12 to 1000 "
                        "(default 12)")
    _add_format(p)
    p.set_defaults(run=_cmd_table1)

    p = sub.add_parser("table3", help="limit verdicts for uniform and "
                       "exponential families plus a seeded half-normal "
                       "sample")
    p.add_argument("--seed", type=int, default=0,
                   help="sample seed (default 0)")
    p.add_argument("--n", type=int, default=None,
                   help="half-normal sample size (default 2000)")
    _add_format(p)
    p.set_defaults(run=_cmd_table3)

    p = sub.add_parser("bounds", help="certified discrepancy ceilings "
                       "along a parameter path")
    p.add_argument("family", help="distribution family, e.g. pareto_i")
    p.add_argument("--params", required=True,
                   help="parameter path: comma-separated values, e.g. "
                        "0.5,0.1,0.01, or ';'-separated points of several "
                        "parameters, e.g. '0,2;0,3'")
    p.add_argument("--transform", default="log10",
                   help="rescaling map (default log10)")
    _add_format(p)
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("pdelta", help="cell-probability series with its "
                       "analytic envelope")
    p.add_argument("family", choices=("uniform", "exponential"))
    p.add_argument("parameter", type=float,
                   help="support endpoint k, or rate lambda")
    p.add_argument("--deltas", default=None,
                   help="comma-separated cell widths in (0, 1)")
    _add_format(p)
    p.set_defaults(run=_cmd_pdelta)

    p = sub.add_parser("analyze", help="digit-frequency and mod-1 "
                       "uniformity tests for a CSV column")
    p.add_argument("csv", help="path to a delimited text file")
    p.add_argument("--column", type=int, default=1,
                   help="1-based column to read (default 1)")
    p.add_argument("--transform", default="log10",
                   help="rescaling map (default log10)")
    p.add_argument("--base", type=int, default=10,
                   help="digit base for the frequency table (default 10)")
    p.add_argument("--alpha-level", type=float, default=0.05,
                   help="significance level (default 0.05)")
    p.add_argument("--precision", type=int, default=None,
                   help="certified fractional digits per value, 12 to "
                        "1000 (default 12)")
    _add_format(p)
    p.set_defaults(run=_cmd_analyze)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = emit(args.run(args), args.format)
    except UBenfordError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
