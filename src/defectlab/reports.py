"""Serialization helpers: exact rationals as strings, JSON envelopes, CSV.

Rationals always serialize as "p/q" strings, never floats; CSV tables
carry an extra decimal column that is clearly marked approximate.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: a report's process imports what it runs
    from .mixed import DefectReport
    from .topology import IntervalValue

TOOL_NAME = "defectlab"


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


def report_envelope(command: str, config: dict, results: dict, version: str) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": version,
        "command": command,
        "config": config,
        "results": results,
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
