"""defectlab benchmark: runs CLI workloads as users run them and reports
end-to-end metrics, or (with --trace 1) per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                     # every workload, one after another
    python3 perfbench/run.py --seed 0 --seconds 1 --write-digests   # regenerate digests.json

Each workload is a fixed list of invocations (perfbench/workloads.py). A
round runs them once each, one fresh process at a time, each after a
reference run (perfbench/reference.py) whose time gauges the machine's
speed; a run repeats whole rounds until another would not fit in
--seconds (at least one). Reported times are scaled to a fixed reference
speed (see `scale`). With --trace 1 every round is followed by a traced
round, whose child processes wrap defectlab's public functions
(perfbench/tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it give each
report's sha256 and how it compares with perfbench/digests.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
REFERENCE = HERE / "reference.py"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics a run prints

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402

# The invocation run once before timing, so byte-code caches exist.
WARM_UP = ("construct", "--family", "e1-plus-ek", "--n", "3")

# The time, in seconds, that end-to-end times are scaled to: each round's
# times are multiplied by REFERENCE_S over the mean time of the reference
# runs spawned in that round (perfbench/reference.py). It is about what
# the reference takes on the 2.0 GHz Xeon the benchmark was defined on
# when no other tenant slows it, so scaled times read close to real ones.
REFERENCE_S = 0.1

# Per-layer counts: per round, and equal in every round for equal inputs.
COUNT_KEYS = tuple(tracer.COUNTS) + ("trace.spans",)


@dataclass
class Outcome:
    """One finished invocation."""

    invocation: object
    code: int
    wall_s: float
    setup_s: float
    rss_mib: float
    reports: dict  # report name -> bytes
    trace: dict = None  # per-layer summary, traced rounds only
    reference_s: float = 0.0  # the reference run spawned just before it


def child_env() -> dict:
    """The caller's environment without settings that change defectlab's output."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("DEFECTLAB_") and k != "PYTHONPATH"}


def run_invocation(invocation, workdir: Path, trace_base: str = "-") -> Outcome:
    """Spawn one CLI process and wait for it; time spawn to import and exit."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    mark_r, mark_w = os.pipe()
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(SRC), str(mark_w), trace_base, "--",
                 *invocation.argv],
                stdout=out, stderr=err, cwd=workdir, env=child_env(), pass_fds=(mark_w,))
            os.close(mark_w)
            mark_w = None
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        marks = os.read(mark_r, 256).decode().splitlines()
    finally:
        os.close(mark_r)
        if mark_w is not None:
            os.close(mark_w)
    reports = {"stdout": out_path.read_bytes()}
    if err_path.stat().st_size:
        reports["stderr"] = err_path.read_bytes()
    csv_path = workdir / "decay.csv"
    if csv_path.exists():
        reports["decay.csv"] = csv_path.read_bytes()
        csv_path.unlink()
    if len(marks) == 2:  # the launcher reached its end
        setup_s = float(marks[0].split()[0]) - started
        rss_mib = int(marks[1]) / 1024
        code = proc.returncode
    else:
        setup_s, rss_mib, code = ended - started, usage.ru_maxrss / 1024, proc.returncode or 1
    summary = tracer.summarize(trace_base) if trace_base != "-" and len(marks) == 2 else None
    return Outcome(invocation, code, ended - started, setup_s, rss_mib, reports, summary)


def run_reference(workdir: Path) -> float:
    """Spawn the reference run and return its spawn-to-exit time."""
    started = time.monotonic()
    code = subprocess.call([sys.executable, str(REFERENCE)], cwd=workdir, env=child_env())
    ended = time.monotonic()
    if code != 0:
        raise RuntimeError(f"reference run {REFERENCE.name} exited {code}")
    return ended - started


def run_round(invocations, workdir: Path, traced: bool) -> list:
    """Each invocation once, each preceded by a reference run."""
    outcomes = []
    for inv in invocations:
        reference_s = run_reference(workdir)
        outcome = run_invocation(inv, workdir, str(workdir / "trace") if traced else "-")
        outcome.reference_s = reference_s
        outcomes.append(outcome)
    return outcomes


def digests(outcomes) -> dict:
    return {f"{o.invocation.key} > {name}": hashlib.sha256(data).hexdigest()
            for o in outcomes for name, data in o.reports.items()}


def scale(rnd) -> float:
    """The factor that brings a round's times to the reference speed.

    Other tenants of a shared host slow every process down, by up to 2x
    for seconds to minutes at a time, and a process's CPU time slows with
    its wall time. The reference runs spawned between the round's
    invocations slow in the same proportion, so times multiplied by this
    factor keep the program's own changes and lose most of the host's.
    """
    return REFERENCE_S / statistics.fmean(o.reference_s for o in rnd)


def scaled_walls(rounds) -> list:
    """Each round's summed spawn-to-exit time, scaled to the reference speed."""
    return [sum(o.wall_s for o in rnd) * scale(rnd) for rnd in rounds]


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            spec: dict) -> dict:
    invocations = workload.invocations(seed)
    run_reference(workdir)
    run_invocation(Invocation(WARM_UP, {}), workdir)
    plain, traced = [], []
    started = time.monotonic()
    while True:
        plain.append(run_round(invocations, workdir, False))
        if trace:
            traced.append(run_round(invocations, workdir, True))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(plain) > seconds:
            break

    problems = list(workload.check([(o.invocation, o.code, o.reports) for o in plain[0]]))
    try:
        corrupted = workload.corrupt([(o.invocation, o.code, o.reports) for o in plain[0]])
        if not workload.check(corrupted):
            problems.append("self-test: a corrupted report passed the checks")
    except ValueError as exc:
        problems.append(f"self-test: {exc}")
    reference = digests(plain[0])
    for n, rnd in enumerate(plain[1:] + traced, start=1):
        if digests(rnd) != reference:
            problems.append(f"round {n}: reports differ from the first round")

    every = [o for rnd in plain + traced for o in rnd]
    result = {
        "correct": not problems,
        "attempted": len(every),
        "failed": sum(1 for o in every if o.code != 0),
        "problems": problems,
        "digests": reference,
        "times": [(column[0].invocation.key, [o.wall_s for o in column])
                  for column in zip(*plain)],
    }
    wall_s = statistics.median(scaled_walls(plain))
    result["unscaled"] = {
        "wall_s": statistics.median(sum(o.wall_s for o in rnd) for rnd in plain),
        "reference_s": statistics.median(o.reference_s for rnd in plain for o in rnd),
    }
    if not trace:
        flat = [(o, scale(rnd)) for rnd in plain for o in rnd]
        values = {
            "setup_s": statistics.median(o.setup_s * f for o, f in flat),
            "wall_s": wall_s,
            "report_p50_s": statistics.median(o.wall_s * f for o, f in flat),
            "peak_rss_mib": max(o.rss_mib for o, _ in flat),
        }
        result["metrics"] = {m["name"]: (values[m["name"]], m["unit"])
                             for m in spec["end_to_end"]}
        return result
    per_round = []
    for rnd in traced:
        f = scale(rnd)
        total = Counter()
        for o in rnd:
            total.update({k: v * f if k.endswith("_s") else v
                          for k, v in (o.trace or {}).items()})
        total["cli.import_s"] = f * statistics.median(
            (o.trace or {}).get("cli.import_s", 0.0) for o in rnd)
        per_round.append(total)
    counts = [{k: r[k] for k in COUNT_KEYS} for r in per_round]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced rounds")
        result["correct"] = False
    metrics = {}
    for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
        if name == "exact.independent_kept":
            value = counts[0][name] / max(counts[0]["exact.independent_offered"], 1)
        elif name in COUNT_KEYS:
            value = counts[0][name]
        elif name == "trace.overhead_s":
            value = statistics.median(scaled_walls(traced)) - wall_s
        else:
            value = statistics.median(r[name] for r in per_round)
        metrics[name] = (value, unit)
    result["metrics"] = metrics
    return result


def print_result(name: str, result: dict, reference: dict) -> None:
    for key, sha in sorted(result["digests"].items()):
        status = ("same" if reference.get(key) == sha else
                  "CHANGED" if key in reference else "unlisted")
        print(f"digest {name} {sha} {status} {key}")
    for key, times in result["times"]:
        print(f"time {name} {' '.join(f'{t:.3f}' for t in times)} s: {key}")
    for problem in result["problems"]:
        print(f"CHECK FAILED {name}: {problem}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    for metric, value in result["unscaled"].items():
        print(f"{name} unscaled {metric} = {value:.6g} s")
    print(f"{name} attempted = {result['attempted']} failed = {result['failed']} "
          f"correct = {result['correct']}")


def final_line(result: dict, prefix: str = "") -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {prefix + k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help=f"store this run's report digests in {DIGESTS.name}")
    args = parser.parse_args(argv)
    if not (SRC / "defectlab" / "cli.py").is_file() or not SPEC.is_file():
        print(f"defectlab sources under {SRC} or {SPEC} not found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    reference = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in names:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), Path(tmp), spec)
            print_result(name, results[name], reference)
            sys.stdout.flush()
    if args.write_digests:
        merged = {k: v for r in results.values() for k, v in r["digests"].items()}
        DIGESTS.write_text(json.dumps(merged, sort_keys=True, indent=2) + "\n")
    if len(names) == 1:
        print(json.dumps(final_line(results[names[0]])))
    else:
        lines = [final_line(results[n], n + ".") for n in names]
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {k: v for line in lines for k, v in line["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
