"""CLI behavior: subcommands, exit codes, deterministic reports."""
import json
from fractions import Fraction

import pytest

from defectlab import (
    IntervalValue,
    MixedSelection,
    defect_truncated,
    make_e1_plus_ek,
    parse_family,
    parse_set,
)
from defectlab.cli import main
from defectlab.reports import parse_rational, rational_str

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

    def test_deterministic_bytes(self, capsys):
        args = ("construct", "--family", "young(w=2)", "--n", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


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
        parse_rational(first[2])
        float(first[3])

    def test_threshold_flag(self, capsys):
        code, out, _ = run(capsys, "defect", "--family", "finite-set(0,1,3)",
                           "--sigma", "res(3;1)", "--n", "60",
                           "--n-list", "15,30,45,60", "--threshold", "1/2")
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "0"


class TestSweep:
    def test_grid_and_workers_agree(self, capsys):
        args = ("sweep", "--family", "defect-pair(m=2)",
                "--sigmas", "none;all;fin(1)", "--n-grid", "3,5")
        code, serial, _ = run(capsys, *args)
        assert code == 0
        code, parallel, _ = run(capsys, *args, "--workers", "2")
        assert code == 0
        a, b = json.loads(serial), json.loads(parallel)
        assert a["results"] == b["results"]
        grid = a["results"]["grid"]
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
            [sigma, n, defect_truncated(MixedSelection(fam, parse_set(sigma), n))]
            for sigma in sigmas
            for n in n_grid
        ]
        rows = json.loads(out)["results"]["grid"]
        assert [[r["sigma"], r["n"], r["defect_truncated"]] for r in rows] == expected


class TestMetric:
    def test_intervals_reported(self, capsys):
        code, out, _ = run(capsys, "metric", "--family", "e1-plus-ek",
                           "--sigma", "all", "--tau", "none",
                           "--n", "8", "--terms", "8", "--precision", "32")
        assert code == 0
        payload = json.loads(out)
        ds = payload["results"]["d_s"]
        assert ds["type"] == "interval"
        assert parse_rational(ds["lo"]) <= parse_rational(ds["hi"])
        assert payload["results"]["rho"] == {"type": "exact", "value": "1"}

    def test_precision_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DEFECTLAB_PRECISION", "16")
        from defectlab.cli import _default_precision
        assert _default_precision() == 16


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

    def test_invariant_error_is_4(self, capsys, monkeypatch):
        import defectlab.cli as cli

        monkeypatch.setattr(cli, "metric_ds", lambda *a, **k: IntervalValue(Q(0), Q(0)))
        monkeypatch.setattr(cli, "metric_dw", lambda *a, **k: IntervalValue(Q(1), Q(1)))
        code, _, err = run(capsys, "metric", "--family", "e1-plus-ek",
                           "--sigma", "all", "--tau", "none", "--n", "4")
        assert code == 4
        assert json.loads(err)["error"]["kind"] == "invariant"

    def test_chain_depth_zero_is_2(self, capsys):
        code, out, err = run(capsys, "chain", "--family", "e1-plus-ek",
                             "--sigma", "none", "--depth", "0", "--n", "8")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    def test_chain_budget_is_3(self, capsys):
        code, out, err = run(capsys, "chain", "--family", "defect-pair(m=2)",
                             "--sigma", "res(2;1)", "--depth", "8", "--n", "24",
                             "--digit-budget", "2")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "budget"

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
    ], ids=["defect-n-0", "defect-n-negative", "defect-n-list-0", "metric-terms-0",
            "converge-terms-0", "converge-m-max-0", "sweep-n-grid-0",
            "oracle-instances-negative"])
    def test_nonpositive_sizes_are_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    def test_unsupported_scan_is_2(self, capsys, monkeypatch):
        import defectlab.cli as cli

        real = cli.hereditary_scan
        monkeypatch.setattr(cli, "hereditary_scan", lambda family: real(make_e1_plus_ek(3)))
        code, out, err = run(capsys, "oracle", "--suite", "hereditary", "--instances", "1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    def test_increasing_decay_is_4(self, capsys, rising_decay):
        code, out, err = run(capsys, "defect", "--family", "e1-plus-ek",
                             "--sigma", "all", "--n", "20")
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "invariant"

    def test_argparse_error_is_2(self, capsys):
        code, _, _ = run(capsys, "defect", "--family", "e1-plus-ek")
        assert code == 2


class TestRationalSerialization:
    def test_round_trip(self):
        for x in [Q(0), Q(3), Q(-7, 2), Q(1, 3)]:
            assert parse_rational(rational_str(x)) == x
