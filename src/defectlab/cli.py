"""Command-line entry point.

Subcommands: construct, defect, sweep, metric, chain, converge, oracle.
Reports embed the full config and are byte-identical across runs with
equal configuration.  This module holds the parser, the input checks
that the subcommands share, the report writer and `construct`; every
other subcommand is `cmd_<name>` of the module that runs its analysis
(`defect` and `sweep` in `mixed`; `metric`, `chain` and `converge` in
`topology`; `oracle` in `oracle`), imported only when that subcommand
runs, so a process compiles only what its report needs.  Exit codes:
0 ok, 2 input error, 3 digit-budget exhaustion, 4 internal invariant
violation.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from importlib import import_module
from typing import Optional

from . import __version__
from .exact import BudgetExceeded, InvariantViolation
from .families import parse_family
from .reports import dump_json, rational_str, report_envelope

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

# Sizes are bounded before any work, each above every documented and
# benchmarked use; a larger value exits 2 with a message that names its
# flag and bound.
MAX_N = 10_000  # --n, and each entry of --n-list and --n-grid
MAX_TERMS = 1_000  # metric and converge --terms, the series cut K
MAX_M_MAX = 1_000  # converge --m-max
MAX_PRECISION = 100_000  # metric and converge --precision, in bits
MAX_INSTANCES = 10_000  # oracle --instances


def _int_list(flag: str, text: str) -> list:
    """The comma-separated integers of a flag, at least one, each in
    1..MAX_N."""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, not {text!r}") from None
    if not values:
        raise ValueError(f"{flag} names no truncation")
    _require_positive(flag, values, MAX_N)
    return values


def _require_positive(flag: str, values, bound: Optional[int] = None) -> None:
    if any(v <= 0 for v in values):
        raise ValueError(f"{flag} must be positive")
    if bound is not None and max(values) > bound:
        raise ValueError(f"{flag} {max(values)} exceeds the bound {bound}")


def _require_nonnegative(flag: str, value: int, bound: Optional[int] = None) -> None:
    if value < 0:
        raise ValueError(f"{flag} must not be negative")
    if bound is not None and value > bound:
        raise ValueError(f"{flag} {value} exceeds the bound {bound}")


def _rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag} takes a rational, not {text!r}") from None


def _write(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(args, command: str, config: dict, results: dict) -> None:
    payload = report_envelope(command, config, results, __version__)
    _write(getattr(args, "out", None), dump_json(payload))


def cmd_construct(args) -> int:
    _require_positive("--n", [args.n], MAX_N)
    family = parse_family(args.family)
    n = family.truncation(args.n)
    xs = family.vectors(range(1, n + 1))
    duals = [family.dual(k) for k in range(1, n + 1)]
    ok = all(x.dot(d) == int(j == k) for j, x in enumerate(xs) for k, d in enumerate(duals))
    vectors = [
        {
            "k": k,
            "x": [[i, rational_str(v)] for i, v in x.entries],
            "x_star": [[i, rational_str(v)] for i, v in d.entries],
        }
        for k, (x, d) in enumerate(zip(xs, duals), start=1)
    ]
    results = {
        "ambient": family.ambient(n),
        "index_offset": family.index_offset,
        "biorthogonal": ok,
        "vectors": vectors,
    }
    _emit(args, "construct", {"family": args.family, "n": args.n}, results)
    if not ok:
        raise InvariantViolation("biorthogonality failed for a built-in family")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error instead of exiting with
    usage text; the subcommand parsers are built with this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="defectlab",
        description="Exact-arithmetic experiments on mixed vector systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # `module` names the module whose cmd_<subcommand> runs each subcommand;
    # `_run` imports it only when that subcommand runs
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="JSON report path (default stdout)")
        p.add_argument("--digit-budget", type=int, default=None,
                       help="abort if any rational exceeds this many digits")

    p = sub.add_parser("construct", help="dump family vectors and check biorthogonality")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(module=__name__)

    p = sub.add_parser("defect", help="two-sided defect certification")
    p.add_argument("--family", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-list", default=None, help="comma-separated truncations")
    p.add_argument("--threshold", default="1/100", help="decay threshold (rational)")
    p.add_argument("--min-points", type=int, default=4)
    p.add_argument("--probe-window", type=int, default=None)
    p.add_argument("--csv", default=None, help="decay-table CSV path")
    common(p)
    p.set_defaults(module=__package__ + ".mixed")

    p = sub.add_parser("sweep", help="truncated defect over a sigma x n grid")
    p.add_argument("--family", required=True)
    p.add_argument("--sigmas", required=True, help="semicolon-separated expressions")
    p.add_argument("--n-grid", required=True)
    p.add_argument("--csv", default=None)
    common(p)
    p.set_defaults(module=__package__ + ".mixed")

    p = sub.add_parser("metric", help="certified d_s / d_w enclosures")
    p.add_argument("--family", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--terms", type=int, default=10, help="series cut K")
    p.add_argument("--precision", type=int, default=64)
    common(p)
    p.set_defaults(module=__package__ + ".topology")

    p = sub.add_parser("chain", help="iterated intersection of H_{sigma_m}")
    p.add_argument("--family", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(module=__package__ + ".topology")

    p = sub.add_parser("converge", help="projector convergence / semicontinuity probes")
    p.add_argument("--family", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--precision", type=int, default=64)
    p.add_argument("--semicontinuity", action="store_true")
    common(p)
    p.set_defaults(module=__package__ + ".topology")

    p = sub.add_parser("oracle", help="swap-invariance and hereditary scan suites")
    p.add_argument("--suite", choices=["swap", "hereditary", "all"], default="all")
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(module=__package__ + ".oracle")

    return parser


def _run(args) -> int:
    """Imports the subcommand's module and runs its handler with CPython's
    limit on int-to-str conversion (Python 3.10.7 and later) lifted, so
    that exact values of any size serialize; --digit-budget is the size
    guard."""
    handler = getattr(import_module(args.module), "cmd_" + args.command)
    if not hasattr(sys, "set_int_max_str_digits"):
        return handler(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return handler(args)
    finally:
        sys.set_int_max_str_digits(limit)


def _error_json(kind: str, message: str) -> str:
    return dump_json({"error": {"kind": kind, "message": message}})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.digit_budget is not None:
            _require_positive("--digit-budget", [args.digit_budget])
        return _run(args)
    except SystemExit as exc:
        # --help and --version print their text and exit 0
        return int(exc.code or 0)
    except BudgetExceeded as exc:
        sys.stderr.write(_error_json("budget", str(exc)))
        return EXIT_BUDGET
    except InvariantViolation as exc:
        sys.stderr.write(_error_json("invariant", str(exc)))
        return EXIT_INVARIANT
    except ValueError as exc:
        sys.stderr.write(_error_json("input", str(exc)))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
