"""CLI behavior: subcommands, exit codes, deterministic reports."""
import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import defectlab
from conftest import count_calls, defect_truncated, oracle_random_family
from defectlab.cli import (
    _COMMANDS,
    _FLAGS,
    _REQUIRED,
    MAX_INSTANCES,
    MAX_M_MAX,
    MAX_N,
    MAX_PRECISION,
    MAX_TERMS,
    build_parser,
    main,
    read_argv,
)
from defectlab.exact import SparseVector
from defectlab.families import (
    MAX_FINITE_SET_ELEMENT,
    MAX_PAIR_M,
    MAX_YOUNG_WIDTH,
    parse_family,
)
from defectlab.indexsets import parse_set
from defectlab.infiniteset import MAX_INFINITE_SET_ELEMENT
from defectlab.oracle import MAX_RANDOM_COUNT, MAX_RANDOM_DIM
from defectlab.reports import rational_str

Q = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_basic(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "defect-pair(m=2)",
                             "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "construct"
        assert payload["results"]["biorthogonal"] is True
        assert payload["results"]["ambient"] == 5
        x1 = payload["results"]["vectors"][0]
        assert x1["x"] == [[1, "1"], [2, "1"], [3, "1"]]

    def test_perturbed_random_duals_match_sympy(self, capsys):
        code, out, _ = run(capsys, "construct", "--family",
                           "random(d=6,n=3,seed=5,dual=perturbed)", "--n", "3")
        assert code == 0
        vectors, duals = oracle_random_family(6, 3, 5, "perturbed")

        def sparse(pairs):
            return SparseVector.from_pairs((i, Fraction(x)) for i, x in pairs)

        reported = json.loads(out)["results"]["vectors"]
        assert [sparse(v["x"]) for v in reported] == vectors
        assert [sparse(v["x_star"]) for v in reported] == duals

    @pytest.mark.parametrize("family, digest", [
        ("random(d=6,n=3,seed=5,dual=perturbed)",
         "adae18040f71696d21f95e7119978e6542da689cf10d77c731b9ca11ea782bf5"),
        ("random(d=9,n=9,seed=1)",
         "223577bdc79b151c6ed071427cc4a66e266e5dc6eb4fe2d8fe30c7a2e9967c6b"),
        ("random(d=9,n=4,seed=123,dual=perturbed)",
         "94c858090d9c5a99f5f3239ff7b6bebb4b20a8d332097cffc95df91662284137"),
        ("random(d=8,n=8,seed=77,dual=perturbed)",
         "0788fcbc839d893d95fe23ff30d9bdad99e527a6a8c78e301c888526fdf52bd3"),
        ("random(d=7,n=2,seed=999,dual=perturbed)",
         "e5f8769e67ac401ad1178c251a233a7b1b9886d2868f3fc07f549d9972bbe0cb"),
        # the first draw of this one is dependent and is drawn again
        ("random(d=3,n=3,seed=20,dual=perturbed)",
         "fb88ce1d45fd96cac38bb71c4f47150a5b0c10201032a8e40c9e9b8f0e460fe3"),
    ])
    def test_random_report_bytes_are_pinned(self, capsys, family, digest):
        """Digests of these reports as the families were built through
        Fractions, and of the three perturbed draws with count < dim as
        their duals became span dual + (I - P) r: the integer build must
        not change a byte."""
        code, out, _ = run(capsys, "construct", "--family", family, "--n", "12")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic_bytes(self, capsys):
        args = ("construct", "--family", "young(w=2)", "--n", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "young(w=2)", "--n", "4"],
    ["sweep", "--family", "defect-pair(m=2)", "--sigmas", "none;all", "--n-grid", "3,5"],
    ["oracle", "--instances", "3"],
], ids=["construct", "sweep", "oracle"])
def test_out_path_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, expected, _ = run(capsys, *argv)
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
    assert code == 0 and path.read_bytes() == expected.encode()


@pytest.mark.parametrize("flag, argv", [
    ("--out", ["construct", "--family", "e1-plus-ek", "--n", "2"]),
    ("--csv", ["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8"]),
], ids=["out", "csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_path_is_2(capsys, tmp_path, flag, argv, where):
    """A report path in a directory that does not exist, or a path that is
    a directory, exits 2 with a message that names the flag and the path."""
    path = str(tmp_path / "missing" / "r.out" if where == "missing-directory" else tmp_path)
    code, _, err = run(capsys, *argv, flag, path)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith(f"{flag}: cannot write {path!r}: ")


@pytest.mark.parametrize("argv", [
    ["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "4"],
    ["sweep", "--family", "e1-plus-ek", "--sigmas", "all;none", "--n-grid", "2,4"],
], ids=["defect", "sweep"])
def test_unwritable_csv_writes_no_report(capsys, tmp_path, argv):
    """The CSV file is written before the report, so a --csv path that
    cannot be written exits 2 with stdout empty; --csv - prints the
    report, then the CSV."""
    code, out, _ = run(capsys, *argv, "--csv", str(tmp_path / "missing" / "t.csv"))
    assert (code, out) == (2, "")
    path = tmp_path / "t.csv"
    code, report, _ = run(capsys, *argv, "--csv", str(path))
    assert code == 0
    assert run(capsys, *argv, "--csv", "-") == (0, report + path.read_text(), "")


@pytest.mark.parametrize("redirect, reason", [
    (">&-", "it is closed"),
    pytest.param("> /dev/full", "No space left on device", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
], ids=["closed", "full"])
@pytest.mark.parametrize("argv", [
    "construct --family e1-plus-ek --n 3",
    "defect --family e1-plus-ek --sigma all --n 8 --csv -",
], ids=["construct", "defect-csv"])
def test_unwritable_stdout_is_2(redirect, reason, argv):
    """A process whose descriptor 1 is closed (sys.stdout is then None) or
    fails on write exits 2 with the input error document and no
    traceback, also after the interpreter's final flush."""
    src = str(Path(defectlab.__file__).resolve().parents[1])
    result = subprocess.run(["sh", "-c", f'"$0" -m defectlab.cli {argv} {redirect}',
                             sys.executable], env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stderr) == {"error": {
        "kind": "input", "message": f"--out: cannot write the standard output: {reason}"}}


@pytest.mark.parametrize("redirect", [
    "2>&-",
    pytest.param("2> /dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
], ids=["closed", "full"])
@pytest.mark.parametrize("argv, code", [
    ("construct --family bogus --n 2", 2),
    ("oracle --suite swap --instances 5 --digit-budget 1", 3),
], ids=["input", "budget"])
def test_unwritable_stderr_keeps_the_exit_code(redirect, argv, code):
    """A process whose descriptor 2 is closed (sys.stderr is then None) or
    fails on write drops the error document and keeps its exit code, also
    after the interpreter's final flush."""
    src = str(Path(defectlab.__file__).resolve().parents[1])
    result = subprocess.run(["sh", "-c", f'"$0" -m defectlab.cli {argv} {redirect}',
                             sys.executable], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (code, "")


_LONG = "9" * 100_000 + "x"


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "e1-plus-ek", "--n", _LONG],
    ["construct", "--family", f"young(w={_LONG})", "--n", "2"],
    ["construct", "--family", _LONG, "--n", "2"],
    ["construct", "--family", f"random(d=2,n=1,{_LONG})", "--n", "2"],
    ["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8", "--n-list", _LONG],
    ["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8", "--threshold", _LONG],
    ["defect", "--family", "e1-plus-ek", "--sigma", "x" + _LONG, "--n", "8"],
    ["defect", "--family", "e1-plus-ek", "--sigma", "all " + _LONG[:-1], "--n", "8"],
    ["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", _LONG],
], ids=["n", "family-argument", "family-kind", "family-key", "n-list", "threshold",
        "sigma-character", "sigma-token", "n-grid"])
def test_long_token_is_quoted_by_its_prefix_and_length(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err) < 1000
    assert " characters)" in json.loads(err)["error"]["message"]


class TestDefect:
    def test_verdicts(self, capsys):
        code, out, _ = run(capsys, "defect", "--family", "defect-pair(m=3)",
                           "--sigma", "none", "--n", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["verdict"] == "3"
        assert payload["results"]["witness_dim"] == 3
        assert payload["results"]["exceptional_indices"] == []

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "decay.csv"
        code, out, _ = run(capsys, "defect", "--family", "e1-plus-ek",
                           "--sigma", "all", "--n", "20", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "probe,n,dist_sq_exact,dist_sq_approx"
        assert len(lines) > 1
        # exact column is a rational string, approx column a float
        first = lines[1].split(",")
        Fraction(first[2])
        float(first[3])

    def test_threshold_flag(self, capsys):
        code, out, _ = run(capsys, "defect", "--family", "finite-set(0,1,3)",
                           "--sigma", "res(3;1)", "--n", "60",
                           "--n-list", "15,30,45,60", "--threshold", "1/2")
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "0"


class TestSweep:
    def test_grid_defect_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "defect-pair(m=2)",
                           "--sigmas", "none;all;fin(1)", "--n-grid", "3,5")
        assert code == 0
        grid = json.loads(out)["results"]["grid"]
        assert {(r["sigma"], r["n"]): r["defect_truncated"] for r in grid}[
            ("none", 5)] == 2

    @pytest.mark.parametrize("family", ["defect-pair(m=2)", "e1-plus-ek", "young(w=2)"])
    def test_rows_follow_grid_order(self, capsys, family):
        sigmas, n_grid = ["none", "all", "fin(1,3)"], [9, 3, 9, 1, 6]
        code, out, _ = run(capsys, "sweep", "--family", family, "--sigmas",
                           ";".join(sigmas), "--n-grid", ",".join(map(str, n_grid)))
        assert code == 0
        fam = parse_family(family)
        expected = [
            [sigma, n, defect_truncated(fam, parse_set(sigma), n)]
            for sigma in sigmas
            for n in n_grid
        ]
        rows = json.loads(out)["results"]["grid"]
        assert [[r["sigma"], r["n"], r["defect_truncated"]] for r in rows] == expected

    def test_finite_family_past_its_last_index(self, capsys):
        # a random family has count vectors; a larger n adds none
        code, out, _ = run(capsys, "sweep", "--family", "random(d=4,n=2,seed=1)",
                           "--sigmas", "all;none", "--n-grid", "1,2,5")
        assert code == 0
        fam = parse_family("random(d=4,n=2,seed=1)")
        rows = json.loads(out)["results"]["grid"]
        for sigma in ("all", "none"):
            at_count = defect_truncated(fam, parse_set(sigma), 2)
            got = {r["n"]: r["defect_truncated"] for r in rows if r["sigma"] == sigma}
            assert got[5] == got[2] == at_count

    def test_family_is_checked_once(self, capsys, monkeypatch):
        # one biorthogonality check of x_1..x_40 and their duals, whatever the sigmas
        import defectlab.families as families

        real, checked = families.biorthogonal, []

        def recording(xs, duals, digit_budget=None):
            checked.append((len(xs), len(duals), digit_budget))
            return real(xs, duals, digit_budget)

        monkeypatch.setattr(families, "biorthogonal", recording)
        code, out, _ = run(capsys, "sweep", "--family", "e1-plus-ek", "--sigmas",
                           "all;none;all", "--n-grid", "10,40")
        assert code == 0
        assert checked == [(40, 40, None)]
        fam = parse_family("e1-plus-ek")
        rows = json.loads(out)["results"]["grid"]
        assert [[r["sigma"], r["n"], r["defect_truncated"]] for r in rows] == [
            [text, n, defect_truncated(fam, parse_set(text), n)]
            for text in ("all", "none", "all") for n in (10, 40)]


class TestMetric:
    def test_intervals_reported(self, capsys):
        code, out, _ = run(capsys, "metric", "--family", "e1-plus-ek",
                           "--sigma", "all", "--tau", "none",
                           "--n", "8", "--terms", "8", "--precision", "32")
        assert code == 0
        payload = json.loads(out)
        ds = payload["results"]["d_s"]
        assert ds["type"] == "interval"
        assert Fraction(ds["lo"]) <= Fraction(ds["hi"])
        assert payload["results"]["rho"] == {"type": "exact", "value": "1"}

    def test_precision_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DEFECTLAB_PRECISION", "abc")
        code, _, _ = run(capsys, "construct", "--family", "e1-plus-ek", "--n", "2")
        assert code == 0
        code, out, _ = run(capsys, "metric", "--family", "e1-plus-ek", "--sigma", "all",
                           "--tau", "none", "--n", "4")
        assert code == 0
        assert json.loads(out)["config"]["precision"] == 64


class TestChainAndConverge:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "--family", "e1-plus-ek",
                           "--sigma", "none", "--depth", "4", "--n", "8")
        assert code == 0
        payload = json.loads(out)
        dims = payload["results"]["dims"]
        assert all(b <= a for a, b in zip(dims, dims[1:]))
        assert payload["results"]["equal_to_h_sigma"] is False

    def test_converge_with_semicontinuity(self, capsys):
        code, out, _ = run(capsys, "converge", "--family", "e1-plus-ek",
                           "--sigma", "none", "--m-max", "4", "--n", "8",
                           "--terms", "6", "--precision", "32",
                           "--semicontinuity")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["semicontinuity"]["violation"] is False
        assert len(payload["results"]["rows"]) == 4


class TestOracle:
    def test_small_suites_clean(self, capsys):
        code, out, _ = run(capsys, "oracle", "--suite", "all",
                           "--instances", "10", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["swap"]["violations"] == 0
        assert payload["results"]["hereditary"]["violations"] == 0

    def test_swap_suite_checks_each_instance_once(self, monkeypatch):
        """Each instance checks its drawn family once, then draws its base
        selection and four chains of flips, in this order: count single
        flips and four chains are its checks."""
        import random

        import defectlab.oracle as oracle

        checked = []
        real = oracle.check_biorthogonal

        def recording(family, last, digit_budget=None):
            checked.append((family.seed, family.dual_style, last))
            return real(family, last, digit_budget)

        monkeypatch.setattr(oracle, "check_biorthogonal", recording)
        assert oracle._run_swap_suite(40, 5) == {
            "instances": 40, "checks": sum(count + 4 for *_, count in checked),
            "violations": 0}
        rng, expected = random.Random(5), []
        for _ in range(40):
            dim = rng.randint(2, 8)
            count = rng.randint(1, dim)
            dual = rng.choice(["span", "perturbed"])
            expected.append((rng.randrange(1 << 30), dual, count))
            for _k in range(count):
                rng.random()
            for _chain in range(4):
                for _step in range(rng.randint(1, 3)):
                    rng.randint(1, count)
        assert checked == expected

    @pytest.mark.parametrize("suite, needed", [("swap", 8), ("hereditary", 3)])
    def test_digit_budget_reaches_the_suites(self, capsys, suite, needed):
        """Both suites check their families under --digit-budget: one digit
        below what the duals' entries need exits 3, and at it the report is
        the one without a budget (the config records no budget)."""
        argv = ["oracle", "--suite", suite, "--instances", "5", "--seed", "0"]
        code, out, err = run(capsys, *argv, "--digit-budget", str(needed - 1))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["kind"] == "budget"
        assert run(capsys, *argv, "--digit-budget", str(needed)) == run(capsys, *argv)

    def test_report_bytes_are_pinned(self, capsys):
        """The digest of this report before the suites shared echelon
        prefixes: batching the ranks must not change a byte."""
        code, out, _ = run(capsys, "oracle", "--suite", "all", "--instances", "60",
                           "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "59fb9721f1221038312571207a264fdb552b0aec2cbf5ef4881aac9b0ecb2e4b")


# one above each size bound, with the flag or family key and the bound
# that its message names
_ABOVE_BOUNDS = [
    (["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", str(MAX_N + 1)],
     f"--n {MAX_N + 1} exceeds the bound {MAX_N}"),
    (["chain", "--family", "e1-plus-ek", "--sigma", "all", "--depth", "3",
      "--n", str(MAX_N + 1)], f"--n {MAX_N + 1} exceeds the bound {MAX_N}"),
    (["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", f"3,{MAX_N + 1}"],
     f"--n-grid {MAX_N + 1} exceeds the bound {MAX_N}"),
    (["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "4",
      "--terms", str(MAX_TERMS + 1)], f"--terms {MAX_TERMS + 1} exceeds the bound {MAX_TERMS}"),
    (["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", str(MAX_M_MAX + 1),
      "--n", "4", "--terms", "2"], f"--m-max {MAX_M_MAX + 1} exceeds the bound {MAX_M_MAX}"),
    (["construct", "--family", f"random(d={MAX_RANDOM_DIM + 1},n=2)", "--n", "1"],
     f"d={MAX_RANDOM_DIM + 1} exceeds the bound {MAX_RANDOM_DIM}"),
    (["construct", "--family", f"random(d={MAX_RANDOM_DIM},n={MAX_RANDOM_COUNT + 1})",
      "--n", "1"], f"n={MAX_RANDOM_COUNT + 1} exceeds the bound {MAX_RANDOM_COUNT}"),
    (["construct", "--family", f"young(w={MAX_YOUNG_WIDTH + 1})", "--n", "1"],
     f"w={MAX_YOUNG_WIDTH + 1} exceeds the bound {MAX_YOUNG_WIDTH}"),
    (["defect", "--family", f"defect-pair(m={MAX_PAIR_M + 1})", "--sigma", "all", "--n", "2"],
     f"m={MAX_PAIR_M + 1} exceeds the bound {MAX_PAIR_M}"),
    (["construct", "--family", f"finite-set(0,1,{MAX_FINITE_SET_ELEMENT + 1})", "--n", "1"],
     f"element {MAX_FINITE_SET_ELEMENT + 1} exceeds the bound {MAX_FINITE_SET_ELEMENT}"),
    (["defect", "--family", f"infinite-set(0,{MAX_INFINITE_SET_ELEMENT + 1},inf)", "--sigma",
      "none", "--n", "2"],
     f"element {MAX_INFINITE_SET_ELEMENT + 1} exceeds the bound {MAX_INFINITE_SET_ELEMENT}"),
    (["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "4",
      "--precision", str(MAX_PRECISION + 1)],
     f"--precision {MAX_PRECISION + 1} exceeds the bound {MAX_PRECISION}"),
    (["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2", "--n", "4",
      "--precision", str(MAX_PRECISION + 1)],
     f"--precision {MAX_PRECISION + 1} exceeds the bound {MAX_PRECISION}"),
    (["oracle", "--instances", str(MAX_INSTANCES + 1)],
     f"--instances {MAX_INSTANCES + 1} exceeds the bound {MAX_INSTANCES}"),
]


# the runs that check a family's biorthogonality before their report
_CHECKED_RUNS = pytest.mark.parametrize("argv", [
    ["sweep", "--family", "defect-pair(m=2)", "--sigmas", "none;all", "--n-grid", "3,5"],
    ["oracle", "--suite", "swap", "--instances", "3"],
    ["oracle", "--suite", "hereditary", "--instances", "3"],
], ids=["sweep", "oracle-swap", "oracle-hereditary"])


class TestExitCodes:
    def test_input_error_is_2(self, capsys):
        code, out, err = run(capsys, "defect", "--family", "bogus(q=1)",
                             "--sigma", "all", "--n", "5")
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"

    def test_bad_sigma_is_2(self, capsys):
        code, _, err = run(capsys, "defect", "--family", "e1-plus-ek",
                           "--sigma", "res(0;1)", "--n", "5")
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"

    def test_budget_error_is_3(self, capsys):
        code, _, err = run(capsys, "defect", "--family", "young(w=2)",
                           "--sigma", "all", "--n", "40", "--digit-budget", "3")
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "budget"

    def test_value_error_after_the_gate_is_4(self, capsys, monkeypatch):
        """Every input is checked before any computation, so a ValueError
        that an analysis raises is a bug: exit 4, naming the exception."""
        import defectlab.topology as topology

        def fails(*args, **kwargs):
            raise ValueError("interval bounds out of order")

        monkeypatch.setattr(topology, "projector_metrics", fails)
        code, out, err = run(capsys, "metric", "--family", "e1-plus-ek",
                             "--sigma", "all", "--tau", "none", "--n", "4")
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == {
            "kind": "invariant", "message": "ValueError: interval bounds out of order"}

    def test_each_family_and_sigma_is_parsed_once(self, capsys, monkeypatch):
        import defectlab.cli as cli
        import defectlab.indexsets as indexsets

        families = count_calls(monkeypatch, "parse_family", cli)
        sigmas = count_calls(monkeypatch, "parse_set", indexsets)
        for argv, expected in [
            (["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8"], 1),
            (["sweep", "--family", "e1-plus-ek", "--sigmas", "all;none;fin(2)",
              "--n-grid", "3,5"], 3),
            (["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none",
              "--n", "4"], 2),
            (["chain", "--family", "e1-plus-ek", "--sigma", "none", "--depth", "2",
              "--n", "4"], 1),
            (["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2",
              "--n", "4"], 1),
            (["construct", "--family", "e1-plus-ek", "--n", "3"], 0),
        ]:
            families.clear()
            sigmas.clear()
            assert run(capsys, *argv)[0] == 0, argv
            assert (len(families), len(sigmas)) == (1, expected), argv

    def test_chain_depth_zero_is_2(self, capsys):
        code, out, err = run(capsys, "chain", "--family", "e1-plus-ek",
                             "--sigma", "none", "--depth", "0", "--n", "8")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    def test_chain_ignores_the_budget(self, capsys):
        # chain counts indices and computes no rational
        argv = ["chain", "--family", "defect-pair(m=2)", "--sigma", "res(2;1)",
                "--depth", "8", "--n", "24"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, budgeted, err = run(capsys, *argv, "--digit-budget", "1")
        assert (code, err) == (0, "")
        assert json.loads(budgeted)["results"] == json.loads(out)["results"]
        assert json.loads(out)["results"]["dims"]

    def test_sweep_budget_is_3(self, capsys):
        # the check reads x_80 = e_1 + 80 e_2 + 6400 e_3 + e_83, and 6400 needs 4 digits
        argv = ["sweep", "--family", "defect-pair(m=3)", "--sigmas", "none;all;fin(2,5)",
                "--n-grid", "10,20,40,80", "--digit-budget"]
        code, out, err = run(capsys, *argv, "3")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "budget"
        code, out, _ = run(capsys, *argv, "4")
        assert code == 0
        assert len(json.loads(out)["results"]["grid"]) == 12

    @pytest.mark.parametrize("argv", [
        ["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "0"],
        ["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "-3"],
        ["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8",
         "--n-list", "2,0,8"],
        ["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none",
         "--n", "4", "--terms", "0"],
        ["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2",
         "--n", "4", "--terms", "0"],
        ["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "0",
         "--n", "4", "--semicontinuity"],
        ["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", "3,0"],
        ["oracle", "--instances", "-1"],
        ["defect", "--family", "defect-pair(m=3)", "--sigma", "all", "--n", "12",
         "--probe-window", "0"],
        ["defect", "--family", "defect-pair(m=3)", "--sigma", "all", "--n", "12",
         "--probe-window", "-2"],
        ["defect", "--family", "defect-pair(m=3)", "--sigma", "all", "--n", "12",
         "--threshold", "1/0"],
        ["defect", "--family", "defect-pair(m=3)", "--sigma", "all", "--n", "12",
         "--n-list", ","],
        ["construct", "--family", "random(d=3,n=-1)", "--n", "2"],
        ["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "-3"],
        ["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "0"],
        ["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2",
         "--n", "0"],
        ["construct", "--family", "e1-plus-ek", "--n", "-2"],
        ["construct", "--family", "e1-plus-ek", "--n", "0"],
        ["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "4",
         "--precision", "-5"],
        ["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2", "--n", "4",
         "--precision", "-1"],
        ["chain", "--family", "e1-plus-ek", "--sigma", "all", "--depth", "2", "--n", "4",
         "--digit-budget", "-1"],
        ["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "4",
         "--digit-budget", "0"],
        ["defect", "--family", "defect-pair(m=3)", "--sigma", "all", "--n", "12",
         "--min-points", "0"],
        ["construct", "--family", "random(d=3,n=2,sede=4)", "--n", "1"],
        ["construct", "--family", "young(w=1,bogus=3)", "--n", "1"],
        ["construct", "--family", "e1-plus-ek(m=7)", "--n", "1"],
    ], ids=["defect-n-0", "defect-n-negative", "defect-n-list-0", "metric-terms-0",
            "converge-terms-0", "converge-m-max-0", "sweep-n-grid-0",
            "oracle-instances-negative", "defect-probe-window-0",
            "defect-probe-window-negative", "defect-threshold-zero-denominator",
            "defect-n-list-empty", "random-count-negative", "metric-n-negative",
            "metric-n-0", "converge-n-0", "construct-n-negative", "construct-n-0",
            "metric-precision-negative", "converge-precision-negative",
            "chain-digit-budget-negative", "metric-digit-budget-0",
            "defect-min-points-0", "random-unknown-key",
            "young-unknown-key", "e1-plus-ek-takes-no-argument"])
    def test_nonpositive_sizes_are_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--family", "e1-plus-ek", "--sigmas", ";", "--n-grid", "3"], "--sigmas"),
        (["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", ""], "--n-grid"),
        (["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", "a"], "--n-grid"),
        (["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8",
          "--n-list", ","], "--n-list"),
        (["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8",
          "--n-list", "x"], "--n-list"),
        (["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "5",
          "--n-list", "2,9,30", "--threshold", "1/50"], "--n-list"),
        (["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8",
          "--threshold", "x"], "--threshold"),
        (["defect", "--family", "defect-pair(m=3)", "--sigma", "all", "--n", "12",
          "--probe-window", "0"], "--probe-window"),
        (["chain", "--family", "e1-plus-ek", "--sigma", "none", "--depth", "0",
          "--n", "8"], "--depth"),
        (["chain", "--family", "e1-plus-ek", "--sigma", "none", "--depth", "9",
          "--n", "8"], "--depth"),
    ], ids=["sweep-sigmas-empty", "sweep-n-grid-empty", "sweep-n-grid-not-int",
            "defect-n-list-empty", "defect-n-list-not-int", "defect-n-list-max-not-n",
            "defect-threshold-not-rational",
            "defect-probe-window-0", "chain-depth-0", "chain-depth-above-n"])
    def test_input_error_names_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "input"
        assert error["message"].startswith(flag + " ")

    @pytest.mark.parametrize("argv, names", _ABOVE_BOUNDS,
                             ids=[" ".join(argv[:1] + [name]) for argv, name in _ABOVE_BOUNDS])
    def test_size_above_its_bound_is_2(self, capsys, argv, names):
        """One above each size bound exits 2 before any work, with a
        message that names the flag or family key and the bound."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "input"
        assert names in error["message"]

    @pytest.mark.parametrize("argv", [
        ["defect", "--family", "e1-plus-ek", "--sigma", "~" * 1500 + "all", "--n", "4"],
        ["defect", "--family", "e1-plus-ek", "--sigma", "(" * 1200 + "all" + ")" * 1200,
         "--n", "4"],
        ["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "~" * 1500 + "none",
         "--n", "4"],
        ["sweep", "--family", "e1-plus-ek", "--sigmas", "all;" + "(" * 1200 + "none"
         + ")" * 1200, "--n-grid", "3"],
        ["defect", "--family", "e1-plus-ek", "--sigma", "~res(3000000;1)", "--n", "4"],
        ["defect", "--family", "e1-plus-ek", "--sigma", "res(9973;1)|res(9967;1)",
         "--n", "4"],
    ], ids=["defect-sigma-deep-complement", "defect-sigma-deep-parentheses",
            "metric-tau-deep-complement", "sweep-sigmas-deep-parentheses",
            "defect-sigma-period-above-bound", "defect-sigma-lcm-above-bound"])
    def test_sigma_past_its_bounds_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "input"

    def test_metric_common_period_is_checked_first(self, capsys, monkeypatch):
        """--sigma and --tau whose periods are within the bound but whose
        lcm is not exit 2 before any metric is computed, naming both
        flags, the common period and the bound."""
        import defectlab.topology as topology

        calls = count_calls(monkeypatch, "projector_metrics", topology)
        code, out, err = run(capsys, "metric", "--family", "e1-plus-ek", "--sigma",
                             "res(9973;1)", "--tau", "res(2;1)", "--n", "4", "--terms", "2")
        assert (code, out, calls) == (2, "", [])
        assert json.loads(err)["error"] == {
            "kind": "input",
            "message": "--sigma and --tau: the common period 19946 exceeds the bound 10000"}

    def test_witness_certificate_budget_counts_witness_entries(self, capsys):
        # the witness-only path's one budget check is the certificate,
        # which reads each witness's coordinates and denominator
        argv = ["defect", "--family", "infinite-set(0,1,inf)", "--sigma",
                "fin(5,20,30)", "--n", "40", "--digit-budget"]
        code, out, err = run(capsys, *argv, "8")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "budget"
        code, out, _ = run(capsys, *argv, "9")
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "inf"

    def test_argparse_error_is_2(self, capsys):
        for argv in (
            ["defect", "--family", "e1-plus-ek"],  # missing required flags
            ["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", "-1,0"],
            ["construct", "--family", "e1-plus-ek", "--n", "3", "--bogus"],
            ["construct", "--family", "e1-plus-ek", "--n", "x"],
            ["oracle", "--suite", "every"],
            [],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert json.loads(err)["error"]["kind"] == "input"

    @pytest.mark.parametrize("sigma", ["fin(%s)", "all+%s", "res(%s;1)"])
    def test_overlong_sigma_integer_is_a_short_error(self, capsys, sigma):
        code, out, err = run(capsys, "defect", "--family", "e1-plus-ek", "--sigma",
                             sigma % ("9" * 100_000), "--n", "4")
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert "of 100000 digits exceeds the bound" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv, names", [
        (["construct", "--family", "young(w=%s)", "--n", "1"],
         f"w of 5000 digits exceeds the bound {MAX_YOUNG_WIDTH}"),
        (["defect", "--family", "young(w=%s)", "--sigma", "all", "--n", "2"],
         f"w of 5000 digits exceeds the bound {MAX_YOUNG_WIDTH}"),
        (["construct", "--family", "defect-pair(m=-%s)", "--n", "1"],
         f"m of 5000 digits exceeds the bound {MAX_PAIR_M}"),
        (["construct", "--family", "finite-set(0,%s)", "--n", "1"],
         f"element of 5000 digits exceeds the bound {MAX_FINITE_SET_ELEMENT}"),
        (["construct", "--family", "infinite-set(0,%s,inf)", "--n", "1"],
         f"element of 5000 digits exceeds the bound {MAX_INFINITE_SET_ELEMENT}"),
        (["construct", "--family", "random(d=%s,n=2)", "--n", "1"],
         f"d of 5000 digits exceeds the bound {MAX_RANDOM_DIM}"),
        (["construct", "--family", "random(d=3,n=0%s)", "--n", "1"],
         f"n of 5000 digits exceeds the bound {MAX_RANDOM_COUNT}"),
        (["construct", "--family", "random(d=3,n=2,seed=%s)", "--n", "1"],
         "seed of 5000 digits exceeds the bound of 20 digits"),
    ], ids=["construct-young", "defect-young", "defect-pair-negative", "finite-set",
            "infinite-set", "random-d", "random-n", "random-seed"])
    def test_overlong_family_integer_is_a_short_error(self, capsys, argv, names):
        """An integer argument of 5,000 digits is refused by its digit count
        before it is read: exit 2 with a short message, not the descriptor."""
        argv = [a % ("9" * 5000) if "%s" in a else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert names in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv, flag, bound", [
        (["construct", "--family", "e1-plus-ek", "--n", "%s"], "--n", MAX_N),
        (["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "4",
          "--n-list", "%s,4"], "--n-list", MAX_N),
        (["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", "3,-%s"],
         "--n-grid", MAX_N),
        (["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "4",
          "--terms", "%s"], "--terms", MAX_TERMS),
        (["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "0%s",
          "--n", "4"], "--m-max", MAX_M_MAX),
        (["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2",
          "--n", "4", "--precision=-%s"], "--precision", MAX_PRECISION),
        (["oracle", "--instances", "%s"], "--instances", MAX_INSTANCES),
        (["chain", "--family", "e1-plus-ek", "--sigma", "none", "--depth", "%s",
          "--n", "4"], "--depth", MAX_N),
    ], ids=["n", "n-list", "n-grid", "terms", "m-max", "precision", "instances", "depth"])
    def test_overlong_size_flag_is_a_short_error(self, capsys, argv, flag, bound):
        """A bounded integer flag of 100,000 digits is refused by its digit
        count before it is read; leading zeros and the sign do not count."""
        argv = [a % ("9" * 100_000) if "%s" in a else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "kind": "input", "message": f"{flag} of 100000 digits exceeds the bound {bound}"}

    def test_unbounded_flags_take_any_integer(self, capsys):
        big = "9" * 30
        code, out, _ = run(capsys, "defect", "--family", "e1-plus-ek", "--sigma", "all",
                           "--n", "8", "--min-points", big, "--probe-window", big,
                           "--digit-budget", big)
        assert code == 0
        assert json.loads(out)["config"]["min_points"] == int(big)
        code, out, _ = run(capsys, "oracle", "--instances", "1", "--seed", "-" + big)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == -int(big)

    def test_family_integer_of_twenty_digits_is_read(self, capsys):
        # twenty digits are read and quoted; leading zeros and the sign do not count
        for family, message in [
            ("young(w=%s)" % ("9" * 20), "w=%s exceeds the bound" % ("9" * 20)),
            ("young(w=000%s)" % ("9" * 20), "w=%s exceeds the bound" % ("9" * 20)),
            ("random(d=3,n=2,seed=-%s)" % ("9" * 20), None),
        ]:
            code, out, err = run(capsys, "construct", "--family", family, "--n", "1")
            if message is None:
                assert code == 0
            else:
                assert (code, out) == (2, "")
                assert message in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["sweep", "--help"]])
    def test_help_and_version_are_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out and err == ""

    @_CHECKED_RUNS
    def test_mixed_rank_deficit_is_4(self, capsys, zero_dual, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "invariant"

    @_CHECKED_RUNS
    def test_dual_moved_off_biorthogonality_is_4(self, capsys, moved_dual, argv):
        # every mixed family keeps its full rank: the check is the stricter
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "invariant"
        assert error["message"].endswith("and their duals are not biorthogonal")


def _witnesses(cls, *witnesses):
    """A corruption: the witness generator of defectlab.<cls> returns
    these witnesses, each a {coordinate: value} dict."""
    def corrupt(monkeypatch):
        monkeypatch.setattr(f"defectlab.{cls}.witness_space",
                            lambda self, sigma, n, window=None: [
                                SparseVector.from_ints(w) for w in witnesses])
    return corrupt


# Every `raise InvariantViolation` in src, keyed by (module, enclosing
# function, leading literal of its message), with the runs that reach it
# from the command line: (id, corruption, argv, error message).  A
# corruption is a conftest fixture's name or a function of monkeypatch.
# The check_biorthogonal runs of _CHECKED_RUNS above reach that site too.
_INVARIANT_SITES = {
    ("families", "check_biorthogonal", "x_1..x_"): [
        ("construct-moved-dual", "moved_dual",
         ["construct", "--family", "defect-pair(m=2)", "--n", "3"],
         "x_1..x_3 and their duals are not biorthogonal"),
        ("construct-zero-dual", "zero_dual",
         ["construct", "--family", "defect-pair(m=2)", "--n", "3"],
         "x_1..x_3 and their duals are not biorthogonal"),
        ("sweep-random-moved-dual", "moved_dual",
         ["sweep", "--family", "random(d=6,n=5,seed=3)", "--sigmas", "none;all",
          "--n-grid", "3,5"],
         "x_1..x_5 and their duals are not biorthogonal"),
    ],
    # a witness list is certified biorthogonal to the unit vectors at its
    # least coordinates: [e1, e1] is dependent, [e1 + e2, e2] is not 0 at
    # e2, and the zero vector has no least coordinate
    ("mixed", "_certified_dim", "the witnesses are not biorthogonal to the unit vectors "
                                "at their least coordinates"): [
        (case_id, _witnesses(cls, *witnesses),
         ["defect", "--family", family, "--sigma", sigma, "--n", "8"],
         "the witnesses are not biorthogonal to the unit vectors at their least coordinates")
        for case_id, cls, family, sigma, witnesses in [
            ("head-dependent", "heads.HeadFamily", "defect-pair(m=2)", "none",
             [{1: 1}, {1: 1}]),
            ("infinite-set-overlapping", "infiniteset.InfiniteDefectSetFamily",
             "infinite-set(0,1,inf)", "fin(1,2)", [{1: 1, 2: 1}, {2: 1}]),
            ("infinite-set-zero", "infiniteset.InfiniteDefectSetFamily",
             "infinite-set(0,1,inf)", "fin(1,2)", [{1: 1}, {}]),
        ]
    ],
    # each witness is orthogonal to every mixed vector outside the predicted
    # exceptional set: defect-pair(m=2)'s witnesses e_1, e_2 meet its
    # x_3 = e_1 + 3 e_2 + e_5, which an empty prediction leaves out, and a
    # witness e_1 meets x_1 and x_2 of infinite-set(0,1,inf), which predicts
    # no exceptional index for a finite sigma
    ("mixed", "witness_check", "a witness is not orthogonal to the mixed vector "
                               "at an unpredicted index"): [
        ("head-unpredicted", lambda monkeypatch: monkeypatch.setattr(
            "defectlab.heads.HeadFamily.predicted_exceptional",
            lambda self, sigma, n: frozenset()),
         ["defect", "--family", "defect-pair(m=2)", "--sigma", "fin(3)", "--n", "8"],
         "a witness is not orthogonal to the mixed vector at an unpredicted index"),
        ("infinite-set-unpredicted", _witnesses("infiniteset.InfiniteDefectSetFamily", {1: 1}),
         ["defect", "--family", "infinite-set(0,1,inf)", "--sigma", "fin(1,2)", "--n", "8"],
         "a witness is not orthogonal to the mixed vector at an unpredicted index"),
    ],
    # the decay table spans its witnesses as unit vectors e_i
    ("mixed", "classify_defect", "a witness of the decay table is not a unit vector"): [
        ("non-unit-witness", _witnesses("heads.HeadFamily", {1: 1, 2: 1}),
         ["defect", "--family", "defect-pair(m=2)", "--sigma", "none", "--n", "8"],
         "a witness of the decay table is not a unit vector"),
    ],
    # a head family's complement route and infinite-set's Gram route
    ("mixed", "classify_defect", "dist^2 of "): [
        (f"rising-decay-{family}", "rising_decay",
         ["defect", "--family", family, "--sigma", "all", "--n", "20"],
         "dist^2 of probe[1] increased over nested spans")
        for family in ("e1-plus-ek", "infinite-set(0,1,inf)")
    ],
    # a head family's complement route and the Gram route of the
    # infinite-set and random families
    ("topology", "convergence_probe", "dist^2 of x_"): [
        (f"unnested-convergence-{family}", "unnested_convergence",
         ["converge", "--family", family, "--sigma", "none", "--m-max", "6", "--n", "12",
          "--semicontinuity"],
         "dist^2 of x_1 is not monotone over the nested spans")
        for family in ("e1-plus-ek", "infinite-set(0,1,inf)", "random(d=6,n=5,seed=3)")
    ],
}


def _package_nodes():
    """(module, enclosing function, node) of every AST node of the
    package's modules."""
    def visit(module, node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        yield module, function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(module, child, function)

    for path in sorted(Path(defectlab.__file__).parent.glob("*.py")):
        yield from visit(path.stem, ast.parse(path.read_text()), None)


def _called_name(node) -> str:
    """The name or attribute that a call or a raised name goes through."""
    return getattr(node, "id", getattr(node, "attr", None))


def _raise_sites() -> list:
    """(module, enclosing function, leading literal of the message) of
    every `raise InvariantViolation` in the package's modules."""
    sites = []
    for module, function, node in _package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            call = node.exc if isinstance(node.exc, ast.Call) else None
            if _called_name(call.func if call else node.exc) == "InvariantViolation":
                message = call.args[0] if call and call.args else None
                if isinstance(message, ast.JoinedStr):
                    message = message.values[0]
                literal = message.value if isinstance(message, ast.Constant) else ""
                sites.append((module, function, literal))
    return sites


def _emit_calls() -> list:
    """(module, enclosing function) of every call of `emit` in the
    package's modules."""
    return [(module, function) for module, function, node in _package_nodes()
            if isinstance(node, ast.Call) and _called_name(node.func) == "emit"]


class TestInvariantSites:
    def test_every_site_has_a_run(self):
        assert sorted(_raise_sites()) == sorted(_INVARIANT_SITES)

    def test_one_call_writes_every_report(self):
        # handlers return their report, so a raise in one leaves no report
        assert _emit_calls() == [("cli", "_run")]

    @pytest.mark.parametrize("site, corruption, argv, message", [
        pytest.param(site, corruption, argv, message, id=case_id)
        for site, cases in _INVARIANT_SITES.items()
        for case_id, corruption, argv, message in cases
    ])
    def test_site_exits_4(self, capsys, monkeypatch, request, site, corruption, argv,
                          message):
        if isinstance(corruption, str):
            request.getfixturevalue(corruption)
        else:
            corruption(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert message.startswith(site[2])
        assert json.loads(err) == {"error": {"kind": "invariant", "message": message}}
        assert out == ""


# exact values of about 9,600 digits, above CPython's default limit of
# 4,300 digits for int-to-str conversion
_LARGE_VALUES = [
    ["metric", "--family", "e1-plus-ek", "--sigma", "all", "--tau", "none", "--n", "4",
     "--terms", "2", "--precision", "16000"],
    ["converge", "--family", "e1-plus-ek", "--sigma", "all", "--m-max", "2", "--n", "4",
     "--terms", "2", "--precision", "16000"],
]


class TestRationalSerialization:
    def test_round_trip(self):
        for x in [Q(0), Q(3), Q(-7, 2), Q(1, 3)]:
            assert Fraction(rational_str(x)) == x

    @pytest.mark.parametrize("argv", _LARGE_VALUES, ids=["metric", "converge"])
    def test_values_above_the_int_str_limit_serialize(self, capsys, argv):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["command"] == argv[0]
        assert max(map(len, re.findall(r'"-?[0-9]+(?:/[0-9]+)?"', out))) > 4300
        # the limit is lifted for the report only
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


_SIZE = st.integers(-2, 12).map(str)
_FAMILY = st.sampled_from([
    "e1-plus-ek", "young(w=0)", "young(w=2)", "young(w=-1)", "defect-pair(m=1)",
    "defect-pair(m=3)", "defect-pair(m=0)", "finite-set(0,1,3)", "finite-set(1,3)",
    "finite-set()", "infinite-set(0,1,inf)", "infinite-set(0)", "random(d=4,n=3,seed=1)",
    "random(d=3,n=3,seed=2,dual=perturbed)", "random(d=2,n=3)", "random(d=0,n=0)",
    "random(d=3,n=-1)", "bogus(q=1)", "", "e1-plus-ek(",
])
_SIGMA = st.sampled_from([
    "all", "none", "res(2;1)", "res(3;0,2)", "fin(1,4)", "fin()", "all-1", "~res(2;0)",
    "res(2;1)|fin(3)", "res(0;1)", "fin(0)", "", "(",
])
# metric and converge also run at a precision far above the int-str limit
_PRECISION = st.one_of(_SIZE, st.integers(0, 20_000).map(str))
_RATIONAL = st.sampled_from(["1/100", "0", "-1", "1/3", "2", "1/0", "0/0", "x", ""])
_INT_LIST = st.one_of(
    st.lists(st.integers(-1, 12), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from([",", " , ", "a", "3,,1"]),
)


@st.composite
def cli_argv(draw):
    """An argv with small, degenerate or invalid values.  Each value is
    given either as --flag=value, so that values such as "-1,0" reach the
    program, or as two arguments, where argparse takes "-1,0" for a flag
    and the usage error must be an input error too."""
    def flag(name, values):
        value = draw(values)
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    def optional(name, values):
        return flag(name, values) if draw(st.booleans()) else []

    command = draw(st.sampled_from(
        ["construct", "defect", "sweep", "metric", "chain", "converge", "oracle"]))
    if command == "oracle":
        argv = [command] + flag("--suite", st.sampled_from(["swap", "hereditary", "all"]))
        argv += flag("--instances", _SIZE) + flag("--seed", _SIZE)
    else:
        argv = [command] + flag("--family", _FAMILY)
    if command == "construct":
        argv += flag("--n", _SIZE)
    elif command == "defect":
        argv += flag("--sigma", _SIGMA) + flag("--n", _SIZE)
        argv += optional("--n-list", _INT_LIST) + optional("--threshold", _RATIONAL)
        argv += optional("--min-points", _SIZE) + optional("--probe-window", _SIZE)
    elif command == "sweep":
        argv += flag("--sigmas", st.sampled_from(["all", "none;fin(1)", ";", "fin(2)"]))
        argv += flag("--n-grid", _INT_LIST)
    elif command == "metric":
        argv += flag("--sigma", _SIGMA) + flag("--tau", _SIGMA) + flag("--n", _SIZE)
        argv += optional("--terms", _SIZE) + optional("--precision", _PRECISION)
    elif command == "chain":
        argv += flag("--sigma", _SIGMA) + flag("--depth", _SIZE) + flag("--n", _SIZE)
    elif command == "converge":
        argv += flag("--sigma", _SIGMA) + flag("--m-max", _SIZE) + flag("--n", _SIZE)
        argv += optional("--terms", _SIZE) + optional("--precision", _PRECISION)
        argv += ["--semicontinuity"] if draw(st.booleans()) else []
    return argv + optional("--digit-budget", _SIZE)


def _flag_value(argv, name):
    """The value given to flag `name` in argv, in either spelling, or None."""
    for arg, following in zip(argv, argv[1:] + [None]):
        if arg == name:
            return following
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


_DEFECT = ["defect", "--family", "defect-pair(m=3)", "--sigma", "all", "--n", "12"]

# An exit-2 message names the flag at fault, or the family key: a reason
# that starts with the key, or quotes it.
_FAMILY_KEY = "(?:w|m|d|n|seed|dual|element)"
_NAMES_AN_ARGUMENT = re.compile(
    rf"--[a-z]|(?:^|: ){_FAMILY_KEY}[ =]|'{_FAMILY_KEY}'|takes no argument")


@settings(max_examples=200, deadline=None)
@given(cli_argv())
@example(_DEFECT + ["--probe-window", "0"])
@example(_DEFECT + ["--threshold", "1/0"])
@example(_DEFECT + ["--n-list", ","])
@example(_DEFECT + ["--min-points", "0"])
@example(["sweep", "--family", "random(d=0,n=0)", "--sigmas", "fin(1)", "--n-grid", "1"])
@example(["construct", "--family", "random(d=3,n=-1)", "--n", "1"])
@example(["sweep", "--family", "e1-plus-ek", "--sigmas", "all", "--n-grid", "-1,0"])
@example(["construct", "--family", "e1-plus-ek", "--n", "3", "--bogus", "1"])
@example(_LARGE_VALUES[0])
@example(_LARGE_VALUES[1])
@example(["metric", "--family", "e1-plus-ek", "--sigma", "all-10000000000000000",
          "--tau", "all", "--n", "4", "--terms", "2"])
@example(["converge", "--family", "e1-plus-ek", "--sigma", "fin(10000000000000000)",
          "--m-max", "2", "--n", "4", "--terms", "2"])
@example(["defect", "--family", "infinite-set(0,1,inf)", "--sigma", "all-10000000000000000",
          "--n", "6"])
@example(_ABOVE_BOUNDS[0][0])
@example(_ABOVE_BOUNDS[1][0])
@example(_ABOVE_BOUNDS[2][0])
@example(_ABOVE_BOUNDS[3][0])
@example(_ABOVE_BOUNDS[4][0])
@example(_ABOVE_BOUNDS[5][0])
@example(_ABOVE_BOUNDS[6][0])
@example(_ABOVE_BOUNDS[7][0])
@example(_ABOVE_BOUNDS[8][0])
@example(_ABOVE_BOUNDS[9][0])
@example(_ABOVE_BOUNDS[10][0])
@example(_ABOVE_BOUNDS[11][0])
@example(_ABOVE_BOUNDS[12][0])
@example(_ABOVE_BOUNDS[13][0])
@example(["construct", "--family", "young(w=x)", "--n", "1"])
@example(["construct", "--family", "defect-pair(m=)", "--n", "1"])
@example(["construct", "--family", "finite-set(0,x)", "--n", "1"])
@example(["defect", "--family", "random(d=4,n=3)", "--sigma", "all", "--n", "3"])
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    for name in ("--digit-budget", "--min-points"):
        value = _flag_value(argv, name)
        if value is not None and int(value) < 1:
            assert code == 2, name
    if code:
        assert set(json.loads(err.getvalue())) == {"error"}
        # an exact value of any size serializes
        assert "integer string conversion" not in err.getvalue()
        message = json.loads(err.getvalue())["error"]["message"]
        if code == 2:
            assert _NAMES_AN_ARGUMENT.search(message), message
        return
    report = json.loads(out.getvalue())
    if report["command"] == "defect" and report["results"]["verdict"] not in (
            "inf", "inconclusive"):
        # a finite verdict is certified by decay evidence
        assert report["results"]["decay_table"]


# values that the direct reader takes: "-" and any text not led by "-"
_PLAIN_VALUE = st.sampled_from(["3", "e1-plus-ek", "res(2;1)", "none;all", "1/2", "-", "",
                                "x y"])
_PERTURBATIONS = ["help", "prefix", "equals", "repeat", "dash value", "missing", "unknown",
                  "no command"]


@st.composite
def table_argv(draw):
    """(argv, canonical): an argv built from the table of a subcommand.
    It is canonical, `<subcommand> (--flag value | --switch)*` with every
    required flag and any subset of the others in any order, unless one or
    more perturbations are drawn: a help or version token, a flag cut to a
    prefix, --flag=value, a repeated flag, a value led by "-" (or a --suite
    outside its choices), a missing required flag, an unknown token or a
    flag of another subcommand, or no subcommand."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = _COMMANDS[command][2]
    required = [flag for flag in flags if _FLAGS[flag][0] is _REQUIRED]
    others = draw(st.lists(st.sampled_from([f for f in flags if f not in required]),
                           unique=True))
    groups = []
    for flag in draw(st.permutations(required + others)):
        default, _bounds, choices = _FLAGS[flag]
        if default is False:
            groups.append([flag])
        else:
            groups.append([flag, draw(st.sampled_from(choices) if choices else _PLAIN_VALUE)])
    perturbations = draw(st.lists(st.sampled_from(_PERTURBATIONS), max_size=2))
    for perturbation in perturbations:
        where = draw(st.integers(0, len(groups)))
        valued = [g for g in groups if len(g) == 2]
        if perturbation == "help":
            groups.insert(where, [draw(st.sampled_from(["-h", "--help", "--version"]))])
        elif perturbation == "unknown":
            foreign = [[flag, "3"] for flag in _FLAGS if flag not in flags]
            groups.insert(where, draw(st.sampled_from(
                [["--bogus"], ["bogus"], ["--bogus=1"]] + foreign)))
        elif perturbation == "repeat" and groups:
            groups.insert(where, list(draw(st.sampled_from(groups))))
        elif perturbation == "missing" and required:
            missing = draw(st.sampled_from(required))
            groups = [g for g in groups if g[0] != missing]
        elif perturbation == "prefix" and any(len(g[0]) > 3 for g in groups):
            group = draw(st.sampled_from([g for g in groups if len(g[0]) > 3]))
            group[0] = group[0][:draw(st.integers(3, len(group[0]) - 1))]
        elif perturbation == "equals" and valued:
            group = draw(st.sampled_from(valued))
            group[:] = ["=".join(group)]
        elif perturbation == "dash value" and valued:
            group = draw(st.sampled_from(valued))
            bad = ["-5", "-1,0", "--", "-x"] + (["every"] if group[0] == "--suite" else [])
            group[1] = draw(st.sampled_from(bad))
    argv = [token for group in groups for token in group]
    return (argv if "no command" in perturbations else [command] + argv), not perturbations


_PARSER = build_parser()


@settings(max_examples=300, deadline=None)
@given(table_argv())
@example((["defect", "--family", "e1-plus-ek", "--sigma", "all", "--n", "8", "--csv", "-",
           "--out", "-"], True))
@example((["oracle", "--suite", "swap", "--seed", "-5"], False))
@example((["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2", "--n", "4",
           "--semicontinuity"], True))
def test_direct_reader_agrees_with_argparse(case):
    """Whenever the direct reader takes an argv, its namespace is the
    one argparse returns; it takes every canonical argv."""
    argv, canonical = case
    args = read_argv(argv)
    assert args is not None or not canonical, argv
    if args is not None:
        assert vars(args) == vars(_PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--version"], ["defect", "--help"], ["bogus"],
    ["construct", "--fam", "e1-plus-ek", "--n", "3"],
    ["construct", "--family=e1-plus-ek", "--n", "3"],
    ["oracle", "--seed", "-5"],
    ["oracle", "--seed", "1", "--seed", "2"],
    ["oracle", "--suite", "every"],
    ["construct", "--family", "e1-plus-ek"],
    ["construct", "--family", "e1-plus-ek", "--n"],
    ["construct", "--family", "e1-plus-ek", "--n", "3", "--bogus"],
    ["converge", "--family", "e1-plus-ek", "--sigma", "none", "--m-max", "2", "--n", "4",
     "--semicontinuity", "yes"],
])
def test_direct_reader_leaves_the_rest_to_argparse(argv):
    assert read_argv(argv) is None


def test_cli_import_loads_no_pool_or_dataclasses():
    """A report's process imports exactly the package modules it runs, and
    no module of the package imports a process pool or `dataclasses`:
    each invocation below loads the core modules and the listed ones, no
    other.  A well-formed argv is read without argparse (and its gettext
    and locale); a usage error builds the parser.  Only a process that
    makes a Fraction loads `fractions` (and its `decimal` and `numbers`):
    `oracle` computes on integers alone, and every other subcommand below
    makes one.  -S keeps site packages, and whatever they import, out of
    the check."""
    src = str(Path(defectlab.__file__).resolve().parents[1])
    numeric = ["decimal", "fractions", "numbers"]
    heavy = ["concurrent.futures", "multiprocessing", "dataclasses", "inspect", "argparse",
             "gettext", "locale", *numeric]
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import defectlab.cli; "
            "argv = sys.argv[2].split(); sys.stdout = sys.stderr = io.StringIO(); "
            "code = defectlab.cli.main(argv) if argv else 0; "
            "loaded = [m for m in sys.modules if m.startswith('defectlab')] + "
            "[m for m in sys.argv[3:] if m in sys.modules]; "
            "sys.__stderr__.write(' '.join([str(code)] + sorted(loaded)))")
    core = ["defectlab", "defectlab.cli", "defectlab.exact", "defectlab.families",
            "defectlab.reports"]
    for argv, modules, fractions in [
        ("", [], False),
        ("construct --family young(w=2) --n 3", ["heads"], True),
        ("construct --family random(d=4,n=2,seed=1) --n 2", ["oracle"], True),
        ("defect --family defect-pair(m=2) --sigma all --n 8",
         ["heads", "indexsets", "mixed"], True),
        ("defect --family finite-set(0,1,3) --sigma res(3;2) --n 12",
         ["heads", "indexsets", "mixed"], True),
        ("defect --family infinite-set(0,1,inf) --sigma all --n 8",
         ["indexsets", "infiniteset", "mixed"], True),
        ("sweep --family e1-plus-ek --sigmas all;none --n-grid 3,5",
         ["heads", "indexsets", "mixed"], True),
        ("metric --family e1-plus-ek --sigma all --tau none --n 4",
         ["heads", "indexsets", "topology"], True),
        ("chain --family e1-plus-ek --sigma none --depth 2 --n 4",
         ["heads", "indexsets", "topology"], True),
        ("converge --family e1-plus-ek --sigma none --m-max 2 --n 4",
         ["heads", "indexsets", "topology"], True),
        ("oracle --suite all --instances 2", ["oracle"], False),
        ("oracle --suite all --instances 2 --digit-budget 8", ["oracle"], False),
    ]:
        result = subprocess.run([sys.executable, "-S", "-c", code, src, argv, *heavy],
                                capture_output=True, text=True, check=True)
        expected = sorted(core + ["defectlab." + m for m in modules]
                          + (numeric if fractions else []))
        assert result.stderr.split() == ["0"] + expected, argv
    result = subprocess.run([sys.executable, "-S", "-c", code, src,
                             "defect --family e1-plus-ek", *heavy],
                            capture_output=True, text=True, check=True)
    assert result.stderr.split() == ["2", "argparse"] + core + ["gettext", "locale"]


def test_handler_modules_import_no_parser():
    """The module graph points one way, from cli to the handler modules
    to reports and exact, so the handler modules used as a library load
    neither argparse nor cli."""
    src = str(Path(defectlab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import defectlab.mixed, defectlab.topology, defectlab.oracle; "
            "sys.stderr.write(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    result = subprocess.run([sys.executable, "-S", "-c", code, src, "argparse", "defectlab.cli",
                             "defectlab.reports"], capture_output=True, text=True, check=True)
    assert result.stderr == "defectlab.reports"


@pytest.mark.parametrize("argv", [
    "defect --family e1-plus-ek --sigma all --n 4",
    "metric --family e1-plus-ek --sigma all --tau none --n 4",
    "oracle --suite all --instances 2",
])
def test_python_m_compiles_cli_once(argv):
    """Under `python -m defectlab.cli`, cli runs as __main__ and no
    handler module (`mixed`, `topology`, `oracle`) imports it back, so
    -X importtime lists cli's own imports and no import of defectlab.cli
    (`importlib.import_module`, which loads the handler, is not listed)."""
    src = str(Path(defectlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "defectlab.cli", *argv.split()],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["command"] == argv.split()[0]
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "defectlab.reports" in imported
    assert "defectlab.cli" not in imported
