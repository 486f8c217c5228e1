"""Rewrite tests/golden/digests.json from the source of a named commit.

    python3 tests/golden/regenerate.py            # the source at HEAD
    python3 tests/golden/regenerate.py 46c0adf    # the source at any commit

The cases are those of tests/golden/cases.py in the working tree; the
code that runs them is `src/` of the named commit, exported with
`git archive` into a temporary directory and imported from there by a
fresh interpreter.  A change that regenerates digests changes reports:
it says which digests moved and why.
"""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DIGESTS = HERE / "digests.json"


def digests_at(rev: str) -> tuple:
    """(full commit id, digests of every case run on that commit's src/)."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the "data" filter exists from Python 3.10.12 and 3.11.4
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        src = Path(tmp) / "src"
        env = {k: v for k, v in os.environ.items() if not k.startswith("DEFECTLAB_")}
        env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run([sys.executable, str(HERE / "cases.py")], env=env, check=True,
                             capture_output=True, text=True, cwd=tmp).stdout
        result = json.loads(out)
        if not Path(result["package"]).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"defectlab was imported from {result['package']}, not {src}")
    return commit, result["digests"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    rev = args[0] if args else "HEAD"
    commit, digests = digests_at(rev)
    DIGESTS.write_text(json.dumps({"commit": commit, "digests": digests},
                                  indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests of {commit} written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
