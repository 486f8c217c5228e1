"""Command-line entry point.

Subcommands: construct, defect, sweep, metric, chain, converge, oracle.
Reports embed the full config and are byte-identical across runs with
equal configuration.  This module holds the table of subcommands and
flags, the two command-line readers, the input gate, the exit codes and
`construct`.  Both readers work from the one table: `read_argv` reads a
well-formed argv, `<subcommand> (--flag value | --switch)*`, straight
into a namespace, and `build_parser` builds argparse, imported only
then, for every other argv, help, version and usage errors among them;
so a well-formed run loads no argparse, gettext or locale.  Every
subcommand but `construct` is `cmd_<name>` of the module that runs its
analysis (`defect` and `sweep` in `mixed`; `metric`, `chain` and
`converge` in `topology`; `oracle` in `oracle`), imported only when that
subcommand runs, so a process compiles only what its report needs.
`check_inputs` checks every input before any computation; a handler
only computes and returns its report, which `_run` writes through
`reports.emit`, so a run that exits 3 or 4 writes no report.  No module
imports this one.  Exit codes: 0 ok, 2 input error (parser, gate or
output write), 3 digit-budget exhaustion, 4 invariant violation, a
ValueError raised after the gate included.
"""
from __future__ import annotations

import math
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .exact import BudgetExceeded, InvariantViolation
from .families import (LongArgument, SystemFamily, check_biorthogonal, echo, parse_family,
                       parse_integer)
from .reports import InputError, dump_json, emit, rational_str, write_stderr

if TYPE_CHECKING:  # annotations only: a process that makes no Fraction imports no fractions
    from fractions import Fraction

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

_REQUIRED = object()  # the default of a flag that every run must give

# Every flag, declared once for all subcommands: option -> (default,
# bounds, choices).  The default is _REQUIRED, False for a switch that
# takes no value, or the text the flag reads when it is absent.  bounds,
# (least value, bound) with None for no limit, marks an integer flag; the
# input gate reads the integer flags in this order, and a bounded one of
# more than families.ECHO_DIGITS digits is refused by its digit count
# before it is read.
_FLAGS = {
    "--digit-budget": (None, (1, None), None),
    "--n": (_REQUIRED, (1, MAX_N), None),
    "--depth": (_REQUIRED, (None, MAX_N), None),  # ranged against --n
    "--terms": ("10", (1, MAX_TERMS), None),
    "--m-max": (_REQUIRED, (1, MAX_M_MAX), None),
    "--precision": ("64", (0, MAX_PRECISION), None),
    "--instances": ("500", (0, MAX_INSTANCES), None),
    "--seed": ("0", (None, None), None),
    "--min-points": ("4", (1, None), None),
    "--probe-window": (None, (1, None), None),
    "--family": (_REQUIRED, None, None),
    "--sigma": (_REQUIRED, None, None),
    "--tau": (_REQUIRED, None, None),
    "--sigmas": (_REQUIRED, None, None),
    "--n-grid": (_REQUIRED, None, None),
    "--n-list": (None, None, None),
    "--threshold": ("1/100", None, None),
    "--semicontinuity": (False, None, None),
    "--suite": ("all", None, ("swap", "hereditary", "all")),
    "--csv": (None, None, None),
    "--out": (None, None, None),
}

# The flags every subcommand takes, option -> help
_OUTPUT = {
    "--out": "JSON report path (default stdout)",
    "--digit-budget": "abort if any rational exceeds this many digits",
}

# Every subcommand: name -> (the module whose cmd_<name> runs it, imported
# only when it runs; help; option -> help of each flag, in --help's order)
_COMMANDS = {
    "construct": (__name__, "dump family vectors and check biorthogonality",
                  {"--family": None, "--n": None, **_OUTPUT}),
    "defect": (__package__ + ".mixed", "two-sided defect certification",
               {"--family": None, "--sigma": None, "--n": None,
                "--n-list": "comma-separated truncations",
                "--threshold": "decay threshold (rational)",
                "--min-points": None, "--probe-window": None,
                "--csv": "decay-table CSV path", **_OUTPUT}),
    "sweep": (__package__ + ".mixed", "truncated defect over a sigma x n grid",
              {"--family": None, "--sigmas": "semicolon-separated expressions",
               "--n-grid": None, "--csv": None, **_OUTPUT}),
    "metric": (__package__ + ".topology", "certified d_s / d_w enclosures",
               {"--family": None, "--sigma": None, "--tau": None, "--n": None,
                "--terms": "series cut K", "--precision": None, **_OUTPUT}),
    "chain": (__package__ + ".topology", "iterated intersection of H_{sigma_m}",
              {"--family": None, "--sigma": None, "--depth": None, "--n": None, **_OUTPUT}),
    "converge": (__package__ + ".topology", "projector convergence / semicontinuity probes",
                 {"--family": None, "--sigma": None, "--m-max": None, "--n": None,
                  "--terms": None, "--precision": None, "--semicontinuity": None,
                  **_OUTPUT}),
    "oracle": (__package__ + ".oracle", "swap-invariance and hereditary scan suites",
               {"--suite": None, "--instances": None, "--seed": None, **_OUTPUT}),
}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


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
    from fractions import Fraction

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


def check_inputs(args) -> SimpleNamespace:
    """The input gate: every check of args, each message led by its flag.
    Writes each integer flag's value, and the texts of the `sweep`
    expressions, back to args; returns the parsed lists, threshold,
    family and sigmas."""
    for flag, (_default, bounds, _choices) in _FLAGS.items():
        dest = _dest(flag)
        if bounds is not None and getattr(args, dest, None) is not None:
            least, bound = bounds
            setattr(args, dest, parse_integer(flag, getattr(args, dest), bound))
            if least is not None:
                _check_range(flag, getattr(args, dest), least, bound)
    parsed = SimpleNamespace()
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


def cmd_construct(args, parsed) -> tuple:
    family = parsed.family
    n = family.truncation(args.n)
    # no digit budget: --digit-budget leaves a construct report as it is
    xs, duals = check_biorthogonal(family, n)
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
        "biorthogonal": True,
        "vectors": vectors,
    }
    return {"family": args.family, "n": args.n}, results


def read_argv(argv):
    """The namespace of `build_parser().parse_args(argv)`, read without
    argparse from a well-formed argv: a subcommand, then options that are
    each an exact flag of it, given at most once, each value "-" or not
    led by "-", every required flag present and --suite among its
    choices.  Any other argv (help, version, no subcommand, an
    abbreviation, --flag=value, a negative number, a repeated flag, any
    usage error) returns None, and argparse reads it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    module, _help, flags = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flag in given:
            return None
        default, _bounds, choices = _FLAGS[flag]
        if default is False:
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or (value.startswith("-") and value != "-"):
            return None
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    values = {"command": argv[0], "module": module}
    for flag in flags:
        default = _FLAGS[flag][0]
        if flag not in given and default is _REQUIRED:
            return None
        values[_dest(flag)] = given.get(flag, default)
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of _COMMANDS, which reads every argv that
    `read_argv` does not and writes the help, version and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a usage error as an input error instead of exiting with
        usage text; the subcommand parsers are built with this class too."""

        def error(self, message):
            raise ValueError(f"{self.prog}: {message}")

    parser = _Parser(
        prog="defectlab",
        description="Exact-arithmetic experiments on mixed vector systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (module, help, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(module=module)
        for flag, flag_help in flags.items():
            default, _bounds, choices = _FLAGS[flag]
            if default is _REQUIRED:
                p.add_argument(flag, required=True, help=flag_help)
            elif default is False:
                p.add_argument(flag, action="store_true", help=flag_help)
            else:
                p.add_argument(flag, default=default, choices=choices, help=flag_help)
    return parser


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = read_argv(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        parsed = check_inputs(args)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    handler = getattr(import_module(args.module), "cmd_" + args.command)
    emit(args, args.command, *handler(args, parsed))
    return EXIT_OK


def _fail(kind: str, message: str, code: int) -> int:
    """Writes the error document to standard error and returns code,
    also when standard error is closed or fails."""
    write_stderr(dump_json({"error": {"kind": kind, "message": message}}))
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
