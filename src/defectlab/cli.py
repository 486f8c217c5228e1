"""Command-line entry point.

Subcommands: construct, defect, sweep, metric, chain, converge, oracle.
Reports embed the full config and are byte-identical across runs with
equal configuration.  This module holds the parser, the input gate, the
exit codes and `construct`; every other subcommand is `cmd_<name>` of
the module that runs its analysis (`defect` and `sweep` in `mixed`;
`metric`, `chain` and `converge` in `topology`; `oracle` in `oracle`),
imported only when that subcommand runs, so a process compiles only
what its report needs.  `check_inputs` checks every input before any
computation; a handler only computes and writes its report through
`reports.emit`, and returns nothing.  No module imports this one.  Exit
codes: 0 ok, 2 input error (parser, gate or output write), 3
digit-budget exhaustion, 4 invariant violation, a ValueError raised
after the gate included.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from importlib import import_module

from . import __version__
from .exact import BudgetExceeded, InvariantViolation, biorthogonal
from .families import LongArgument, SystemFamily, echo, parse_family, parse_integer
from .reports import InputError, dump_json, emit, rational_str

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

# dest: (flag, least value, bound) of every integer flag, all read by the
# input gate; a bounded one of more than families.ECHO_DIGITS digits is
# refused by its digit count before it is read.
_INTEGER_FLAGS = {
    "digit_budget": ("--digit-budget", 1, None),
    "n": ("--n", 1, MAX_N),
    "depth": ("--depth", None, MAX_N),  # ranged against --n
    "terms": ("--terms", 1, MAX_TERMS),
    "m_max": ("--m-max", 1, MAX_M_MAX),
    "precision": ("--precision", 0, MAX_PRECISION),
    "instances": ("--instances", 0, MAX_INSTANCES),
    "seed": ("--seed", None, None),
    "min_points": ("--min-points", 1, None),
    "probe_window": ("--probe-window", 1, None),
}


def _check_range(flag: str, value: int, least: int, bound) -> None:
    if value < least:
        raise ValueError(f"{flag} must be positive" if least else f"{flag} must not be negative")
    if bound is not None and value > bound:
        raise ValueError(f"{flag} {value} exceeds the bound {bound}")


def _int_list(flag: str, text: str) -> list:
    """The comma-separated integers of a flag, at least one, each in 1..MAX_N."""
    try:
        values = [parse_integer(flag, x, MAX_N) for x in text.split(",") if x.strip()]
    except LongArgument:
        raise
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, not {echo(text)}") from None
    if not values:
        raise ValueError(f"{flag} names no truncation")
    _check_range(flag, min(values), 1, None)
    _check_range(flag, max(values), 1, MAX_N)
    return values


def _rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag} takes a rational, not {echo(text)}") from None


def _parsed(flag: str, parse, text: str):
    """parse(text), with the flag in front of the message of any error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def check_inputs(args) -> argparse.Namespace:
    """The input gate: every check of args, each message led by its flag.
    Writes each integer flag's value, and the texts of the `sweep`
    expressions, back to args; returns the parsed lists, threshold,
    family and sigmas."""
    for dest, (flag, least, bound) in _INTEGER_FLAGS.items():
        if getattr(args, dest, None) is not None:
            setattr(args, dest, parse_integer(flag, getattr(args, dest), bound))
            if least is not None:
                _check_range(flag, getattr(args, dest), least, bound)
    parsed = argparse.Namespace()
    if getattr(args, "n_list", None):
        parsed.n_list = _int_list("--n-list", args.n_list)
        if max(parsed.n_list) != args.n:
            raise ValueError(f"--n-list must have --n as its largest entry, "
                             f"not {max(parsed.n_list)}")
    if hasattr(args, "n_grid"):
        parsed.n_grid = _int_list("--n-grid", args.n_grid)
    if hasattr(args, "threshold"):
        parsed.threshold = _rational("--threshold", args.threshold)
    if hasattr(args, "depth") and not 1 <= args.depth <= args.n:
        raise ValueError("--depth must lie between 1 and --n")
    if hasattr(args, "family"):
        parsed.family = _parsed("--family", parse_family, args.family)
    if hasattr(args, "sigmas"):
        from .indexsets import parse_set

        args.sigmas = [s.strip() for s in args.sigmas.split(";") if s.strip()]
        if not args.sigmas:
            raise ValueError("--sigmas names no sigma expression")
        parsed.sigmas = [_parsed("--sigmas", parse_set, text) for text in args.sigmas]
    elif hasattr(args, "sigma"):
        from .indexsets import MAX_PERIOD, parse_set

        parsed.sigma = _parsed("--sigma", parse_set, args.sigma)
        if hasattr(args, "tau"):
            parsed.tau = _parsed("--tau", parse_set, args.tau)
            # rho runs over the symmetric difference, whose period is the lcm
            period = math.lcm(parsed.sigma.period, parsed.tau.period)
            if period > MAX_PERIOD:
                raise ValueError(f"--sigma and --tau: the common period {period} exceeds "
                                 f"the bound {MAX_PERIOD}")
    if args.command == "defect" and (
            type(parsed.family).witness_space is SystemFamily.witness_space):
        raise ValueError(f"--family {parsed.family.kind} supports no witness generator")
    return parsed


def cmd_construct(args, parsed) -> None:
    family = parsed.family
    n = family.truncation(args.n)
    xs = family.vectors(range(1, n + 1))
    duals = [family.dual(k) for k in range(1, n + 1)]
    ok = biorthogonal(xs, duals)
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
    emit(args, "construct", {"family": args.family, "n": args.n}, results)
    if not ok:
        raise InvariantViolation("biorthogonality failed for a built-in family")


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
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, module, help, *required):
        # `module` names the module whose cmd_<name> runs the subcommand;
        # `_run` imports it only when that subcommand runs
        p = sub.add_parser(name, help=help)
        p.set_defaults(module=module)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    command("construct", __name__, "dump family vectors and check biorthogonality",
            "--family", "--n")

    p = command("defect", __package__ + ".mixed", "two-sided defect certification",
                "--family", "--sigma", "--n")
    p.add_argument("--n-list", default=None, help="comma-separated truncations")
    p.add_argument("--threshold", default="1/100", help="decay threshold (rational)")
    p.add_argument("--min-points", default="4")
    p.add_argument("--probe-window", default=None)
    p.add_argument("--csv", default=None, help="decay-table CSV path")

    p = command("sweep", __package__ + ".mixed", "truncated defect over a sigma x n grid",
                "--family")
    p.add_argument("--sigmas", required=True, help="semicolon-separated expressions")
    p.add_argument("--n-grid", required=True)
    p.add_argument("--csv", default=None)

    p = command("metric", __package__ + ".topology", "certified d_s / d_w enclosures",
                "--family", "--sigma", "--tau", "--n")
    p.add_argument("--terms", default="10", help="series cut K")
    p.add_argument("--precision", default="64")

    command("chain", __package__ + ".topology", "iterated intersection of H_{sigma_m}",
            "--family", "--sigma", "--depth", "--n")

    p = command("converge", __package__ + ".topology",
                "projector convergence / semicontinuity probes",
                "--family", "--sigma", "--m-max", "--n")
    p.add_argument("--terms", default="10")
    p.add_argument("--precision", default="64")
    p.add_argument("--semicontinuity", action="store_true")

    p = command("oracle", __package__ + ".oracle", "swap-invariance and hereditary scan suites")
    p.add_argument("--suite", choices=["swap", "hereditary", "all"], default="all")
    p.add_argument("--instances", default="500")
    p.add_argument("--seed", default="0")

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="JSON report path (default stdout)")
        p.add_argument("--digit-budget", default=None,
                       help="abort if any rational exceeds this many digits")
    return parser


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        parsed = check_inputs(args)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    getattr(import_module(args.module), "cmd_" + args.command)(args, parsed)
    return EXIT_OK


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(dump_json({"error": {"kind": kind, "message": message}}))
    return code


def main(argv=None) -> int:
    # CPython's limit on int-to-str conversion (Python 3.10.7 and later)
    # is lifted while a run lasts, so that exact values of any size
    # serialize; --digit-budget is the size guard
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    except SystemExit as exc:
        # --help and --version print their text and exit 0
        return int(exc.code or 0)
    except InputError as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    except BudgetExceeded as exc:
        return _fail("budget", str(exc), EXIT_BUDGET)
    except InvariantViolation as exc:
        return _fail("invariant", str(exc), EXIT_INVARIANT)
    except ValueError as exc:
        # every input was checked before the handler ran, so this is a bug
        return _fail("invariant", f"{type(exc).__name__}: {exc}", EXIT_INVARIANT)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
