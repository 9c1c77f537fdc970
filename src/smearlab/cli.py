"""Command line entry point.

Usage: ``smearlab run <config.json> [--out DIR] [--seed N]``,
or ``python -m smearlab run <config.json> ...`` without the console script.

Both forms share the exit codes: 0 success, 2 configuration rejected, 3 an assumption failed on
the actual spectra, 4 a checked bound was violated.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AssumptionError, BoundViolationError, SchemaError
from .harness import run

EXIT_SCHEMA = 2
EXIT_ASSUMPTION = 3
EXIT_BOUND = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="smearlab",
        description="Run a filtered-dynamics experiment described by a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute one experiment config")
    runner.add_argument("config", help="path to the JSON configuration")
    runner.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: from config)")
    runner.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override the RNG seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        result = run(args.config, out_dir=args.out, seed=args.seed)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except AssumptionError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    print(result.csv_path)
    print(result.summary_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
