"""Serialization and the report writer: exact rationals as strings, JSON
reports, CSV tables.

Rationals always serialize as "p/q" strings, never floats; CSV tables
carry an extra decimal column that is clearly marked approximate.  Each
subcommand's handler writes its report through `emit`; an output file
that cannot be written, or a standard output that is closed or fails,
raises InputError, which the CLI exits 2 on.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:  # annotations only: a report's process imports what it runs
    from .mixed import DefectReport
    from .topology import IntervalValue


class InputError(Exception):
    """An input that the CLI's parser, input gate or output write refuses."""


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def exact_value(x: Fraction) -> dict:
    return {"type": "exact", "value": rational_str(x)}


def interval_value(iv: IntervalValue) -> dict:
    return {
        "type": "interval",
        "lo": rational_str(iv.lo),
        "hi": rational_str(iv.hi),
        "width": rational_str(iv.width()),
    }


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def defect_report_json(report: DefectReport) -> dict:
    return {
        "family": report.family,
        "sigma": report.sigma,
        "witness_dim": report.witness_dim,
        "witness_ok": report.witness_ok,
        "exceptional_indices": sorted(report.exceptional_indices),
        "verdict": report.verdict_str(),
        "decay_threshold": rational_str(report.decay_threshold),
        "min_points": report.min_points,
        "n_list": list(report.n_list),
        "probe_window": report.probe_window,
        "decay_table": [
            {"probe": label, "n": n, "dist_sq": exact_value(d)}
            for label, n, d in report.decay_table
        ],
    }


def decay_csv(report: DefectReport) -> str:
    """Flat CSV of the decay table; the decimal column is approximate."""
    return table_csv(
        ["probe", "n", "dist_sq_exact", "dist_sq_approx"],
        [[label, n, rational_str(d), f"{float(d):.12g}"] for label, n, d in report.decay_table],
    )


def table_csv(header: list, rows: list) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path, text: str, flag: str = "--out") -> None:
    if path is None or path == "-":
        _write_stdout(text, flag)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{flag}: cannot write {path!r}: {exc.strerror}") from None


def _write_stdout(text: str, flag: str) -> None:
    """Writes and flushes text to standard output.  sys.stdout is None in
    a process started with file descriptor 1 closed; that, or a write
    that fails, raises InputError."""
    stdout = sys.stdout
    if stdout is None:
        raise InputError(f"{flag}: cannot write the standard output: it is closed")
    try:
        stdout.write(text)
        stdout.flush()
    except OSError as exc:
        # the stream still holds the text, and the interpreter's flush at
        # exit would fail on it again: its descriptor now takes the null device
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), stdout.fileno())
        raise InputError(f"{flag}: cannot write the standard output: {exc.strerror}") from None


def emit(args, command: str, config: dict, results: dict, csv=None) -> None:
    """Writes the report to --out and csv, a table's text, to --csv.  A
    --csv file is written before the report, so that one that cannot be
    written exits 2 with no report; --csv - follows the report."""
    report = dump_json({"tool": "defectlab", "version": __version__, "command": command,
                        "config": config, "results": results})
    if csv is not None and args.csv != "-":
        _write(args.csv, csv, "--csv")
        csv = None
    _write(getattr(args, "out", None), report)
    if csv is not None:
        _write("-", csv, "--csv")
