"""The golden report corpus: every case's stdout, stderr and exit code are
byte-identical to tests/golden/digests.json (see tests/golden/cases.py;
tests/golden/regenerate.py rewrites the file from a named commit)."""
import json
from pathlib import Path

import pytest

from golden.cases import CASES, run_case

DIGESTS = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())["digests"]


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    assert run_case(CASES[name]) == DIGESTS[name]
