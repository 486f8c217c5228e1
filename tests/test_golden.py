"""The golden report corpus: every case's stdout, stderr and exit code are
byte-identical to tests/golden/digests.json (see tests/golden/cases.py;
tests/golden/regenerate.py rewrites the file from a named commit)."""
import json
from pathlib import Path

import pytest

from golden.cases import CASES, run_case

DIGESTS = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())["digests"]

# the analysis entry points of the subcommands, by module
_ANALYSES = {
    "mixed": ["classify_defect"],
    # the biorthogonality check, which construct, sweep and oracle run
    # through families.check_biorthogonal
    "families": ["biorthogonal"],
    "topology": ["projector_metrics", "intersection_chain", "convergence_probe"],
    "oracle": ["_run_swap_suite", "_run_hereditary_suite"],
}


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    assert run_case(CASES[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(name for name, digest in DIGESTS.items()
                                         if digest["exit"] == 2))
def test_input_errors_exit_before_any_analysis(name, monkeypatch):
    """Every input error of the corpus exits 2 from the input gate: no
    analysis has started."""
    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran on refused input")

    for module, names in _ANALYSES.items():
        for attr in names:
            monkeypatch.setattr(f"defectlab.{module}.{attr}", analysis)
    assert run_case(CASES[name]) == DIGESTS[name]
