"""Smoke runs of the scripts under `scripts/` at their smallest sizes.

Each script is started as its own process, as a user would run it, so a name
it imports that no longer exists fails here rather than at the command line.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = "specs/a1_untwisted_n1.json"


@pytest.mark.parametrize(
    "argv",
    [
        ["run_verification.py", "--specs", "a1_untwisted_n1", "--window", "1"],
        ["h2_window_scan.py", SPEC, "--lmax", "0", "--max-window", "1"],
        ["centre_growth.py", SPEC, "--max-window", "1"],
    ],
    ids=["run_verification", "h2_window_scan", "centre_growth"],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout
