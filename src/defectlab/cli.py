"""Command-line entry point.

Subcommands: construct, defect, sweep, metric, chain, converge, oracle.
Reports embed the full config and are byte-identical across runs with
equal configuration.  Each subcommand imports the analysis module it
runs (`mixed` or `topology`) when it starts, so a process compiles only
what its report needs.  Exit codes: 0 ok, 2 input error, 3 digit-budget
exhaustion, 4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .exact import BudgetExceeded, InvariantViolation
from .families import RandomFiniteFamily, parse_family
from .indexsets import parse_set, rho
from .reports import (
    decay_csv,
    defect_report_json,
    dump_json,
    exact_value,
    interval_value,
    rational_str,
    report_envelope,
    table_csv,
)

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


def _require_nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must not be negative")


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


def cmd_defect(args) -> int:
    from .mixed import classify_defect

    n_list = _int_list("--n-list", args.n_list) if args.n_list else None
    _require_positive("--n", [args.n], MAX_N)
    if n_list is not None and max(n_list) != args.n:
        raise ValueError(f"--n-list must have --n as its largest entry, not {max(n_list)}")
    _require_positive("--min-points", [args.min_points])
    if args.probe_window is not None:
        _require_positive("--probe-window", [args.probe_window])
    threshold = _rational("--threshold", args.threshold)
    family = parse_family(args.family)
    sigma = parse_set(args.sigma)
    if n_list is None:
        step = max(args.n // 6, 1)
        n_list = sorted(set(list(range(step, args.n + 1, step)) + [args.n]))
    report = classify_defect(
        family,
        sigma,
        n_list,
        decay_threshold=threshold,
        min_points=args.min_points,
        probe_window=args.probe_window,
        digit_budget=args.digit_budget,
    )
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "n": args.n,
        "n_list": n_list,
        "threshold": args.threshold,
        "min_points": args.min_points,
        "probe_window": report.probe_window,
        "digit_budget": args.digit_budget,
    }
    _emit(args, "defect", config, defect_report_json(report))
    if args.csv:
        _write(args.csv, decay_csv(report))
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .mixed import defect_truncated_many, selection_key

    sigmas = [s.strip() for s in args.sigmas.split(";") if s.strip()]
    if not sigmas:
        raise ValueError("--sigmas names no sigma expression")
    n_grid = _int_list("--n-grid", args.n_grid)
    family = parse_family(args.family)
    parsed = [parse_set(sigma_text) for sigma_text in sigmas]
    # one batched rank check at the largest n; every mixed family then has
    # full rank at each prefix, so each cell is ambient(n) - truncation(n)
    n_max = max(n_grid)
    last = family.truncation(n_max)
    defect_truncated_many(family, [selection_key(sigma, last) for sigma in parsed], n_max,
                          args.digit_budget)
    rows = [
        {"sigma": sigma_text, "n": n,
         "defect_truncated": family.ambient(n) - family.truncation(n)}
        for sigma_text in sigmas
        for n in n_grid
    ]
    config = {
        "family": args.family,
        "sigmas": sigmas,
        "n_grid": n_grid,
        "digit_budget": args.digit_budget,
    }
    _emit(args, "sweep", config, {"grid": rows})
    if args.csv:
        _write(args.csv, table_csv(
            ["sigma", "n", "defect_truncated"],
            [[r["sigma"], r["n"], r["defect_truncated"]] for r in rows],
        ))
    return EXIT_OK


def cmd_metric(args) -> int:
    from .topology import projector_metrics

    _require_positive("--n", [args.n], MAX_N)
    _require_positive("--terms", [args.terms], MAX_TERMS)
    _require_nonnegative("--precision", args.precision)
    family = parse_family(args.family)
    sigma = parse_set(args.sigma)
    tau = parse_set(args.tau)
    ds, dw = projector_metrics(family, sigma, tau, args.n, args.terms, args.precision,
                               digit_budget=args.digit_budget)
    results = {
        "rho": exact_value(rho(sigma, tau)),
        "d_s": interval_value(ds),
        "d_w": interval_value(dw),
    }
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "tau": args.tau,
        "n": args.n,
        "K": args.terms,
        "precision": args.precision,
        "digit_budget": args.digit_budget,
    }
    _emit(args, "metric", config, results)
    if dw.lo > ds.hi:
        raise InvariantViolation("certified d_w enclosure exceeds d_s upper bound")
    return EXIT_OK


def cmd_chain(args) -> int:
    from .topology import intersection_chain

    _require_positive("--n", [args.n], MAX_N)
    if not 1 <= args.depth <= args.n:
        raise ValueError("--depth must lie between 1 and --n")
    family = parse_family(args.family)
    sigma = parse_set(args.sigma)
    dims, equal = intersection_chain(family, sigma, args.depth, args.n,
                                     digit_budget=args.digit_budget)
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "depth": args.depth,
        "n": args.n,
        "digit_budget": args.digit_budget,
    }
    _emit(args, "chain", config, {"dims": dims, "equal_to_h_sigma": equal})
    if any(b > a for a, b in zip(dims, dims[1:])):
        raise InvariantViolation("intersection-chain dimensions increased")
    return EXIT_OK


def cmd_converge(args) -> int:
    from .topology import convergence_probe, semicontinuity_violation

    _require_positive("--n", [args.n], MAX_N)
    _require_positive("--terms", [args.terms], MAX_TERMS)
    _require_positive("--m-max", [args.m_max], MAX_M_MAX)
    _require_nonnegative("--precision", args.precision)
    family = parse_family(args.family)
    sigma = parse_set(args.sigma)
    rows, limit = convergence_probe(family, sigma, args.m_max, args.n, args.terms,
                                    args.precision, digit_budget=args.digit_budget)
    out_rows = [
        {
            "m": row["m"],
            "sigma_m": row["sigma_m"],
            "rho": exact_value(row["rho"]),
            "ds_to_zero": interval_value(row["ds_to_zero"]),
            "pointwise": [interval_value(iv) for iv in row["pointwise"]],
        }
        for row in rows
    ]
    results = {"rows": out_rows}
    violation = False
    if args.semicontinuity:
        violation = semicontinuity_violation(rows, limit)
        results["semicontinuity"] = {
            "limit": interval_value(limit),
            "violation": violation,
        }
    config = {
        "family": args.family,
        "sigma": args.sigma,
        "m_max": args.m_max,
        "n": args.n,
        "K": args.terms,
        "precision": args.precision,
        "semicontinuity": args.semicontinuity,
        "digit_budget": args.digit_budget,
    }
    _emit(args, "converge", config, results)
    if violation:
        raise InvariantViolation("certified lower-semicontinuity violation")
    return EXIT_OK


def _run_swap_suite(instances: int, seed: int, digit_budget=None) -> dict:
    from .mixed import defect_truncated_many

    rng = random.Random(seed)
    violations = 0
    checks = 0
    for i in range(instances):
        dim = rng.randint(2, 8)
        count = rng.randint(1, dim)
        dual = rng.choice(["span", "perturbed"])
        family = RandomFiniteFamily(dim=dim, count=count,
                                    seed=rng.randrange(1 << 30), dual_style=dual)
        members = [k for k in range(1, count + 1) if rng.random() < 0.5]
        # the base selection, its single flips, then four chains of flips;
        # bit count - k of a key selects x_k, so a flip of k is one xor
        base = sum(1 << (count - k) for k in members)
        keys = [base] + [base ^ 1 << (count - k0) for k0 in range(1, count + 1)]
        for _chain in range(4):
            key = base
            for _step in range(rng.randint(1, 3)):
                key ^= 1 << (count - rng.randint(1, count))
            keys.append(key)
        defect, *moved = defect_truncated_many(family, keys, count, digit_budget)
        checks += len(moved)
        violations += sum(d != defect for d in moved)
    return {"instances": instances, "checks": checks, "violations": violations}


def _run_hereditary_suite(instances: int, seed: int, digit_budget=None) -> dict:
    from .mixed import hereditary_scan

    rng = random.Random(seed)
    violations = 0
    for i in range(instances):
        dim = rng.randint(1, 6)
        family = RandomFiniteFamily(dim=dim, count=dim,
                                    seed=rng.randrange(1 << 30), dual_style="span")
        if hereditary_scan(family, digit_budget) != 0:
            violations += 1
    return {"instances": instances, "violations": violations}


def cmd_oracle(args) -> int:
    _require_nonnegative("--instances", args.instances)
    results = {}
    if args.suite in ("swap", "all"):
        results["swap"] = _run_swap_suite(args.instances, args.seed, args.digit_budget)
    if args.suite in ("hereditary", "all"):
        results["hereditary"] = _run_hereditary_suite(
            min(args.instances, 100), args.seed, args.digit_budget
        )
    config = {"suite": args.suite, "instances": args.instances, "seed": args.seed}
    _emit(args, "oracle", config, results)
    if any(r["violations"] for r in results.values()):
        raise InvariantViolation("oracle suite found a violated invariant")
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
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="JSON report path (default stdout)")
        p.add_argument("--digit-budget", type=int, default=None,
                       help="abort if any rational exceeds this many digits")

    p = sub.add_parser("construct", help="dump family vectors and check biorthogonality")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_construct)

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
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("sweep", help="truncated defect over a sigma x n grid")
    p.add_argument("--family", required=True)
    p.add_argument("--sigmas", required=True, help="semicolon-separated expressions")
    p.add_argument("--n-grid", required=True)
    p.add_argument("--csv", default=None)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("metric", help="certified d_s / d_w enclosures")
    p.add_argument("--family", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--terms", type=int, default=10, help="series cut K")
    p.add_argument("--precision", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("chain", help="iterated intersection of H_{sigma_m}")
    p.add_argument("--family", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("converge", help="projector convergence / semicontinuity probes")
    p.add_argument("--family", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--precision", type=int, default=64)
    p.add_argument("--semicontinuity", action="store_true")
    common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("oracle", help="swap-invariance and hereditary scan suites")
    p.add_argument("--suite", choices=["swap", "hereditary", "all"], default="all")
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def _run(args) -> int:
    """Runs the subcommand with CPython's limit on int-to-str conversion
    (Python 3.10.7 and later) lifted, so that exact values of any size
    serialize; --digit-budget is the size guard."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return args.func(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
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
