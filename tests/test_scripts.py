"""Smoke runs of the scripts under `scripts/` at their smallest sizes.

Each script is started as its own process, as a user would run it, so a name
it imports that no longer exists fails here rather than at the command line.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from multiloop.session import MAX_WINDOW_BASIS

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


def test_h2_window_scan_names_the_degrees_past_its_window():
    # |lambda| = 2 lies outside every window up to 1: each gets an open row
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "h2_window_scan.py"), SPEC,
         "--lmax", "2", "--max-window", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split()[0] for row in rows[:-1]] == [f"lambda=[{x}]" for x in range(-2, 3)]
    for row in (rows[0], rows[-2]):
        assert row.endswith("open: needs a window of at least 2, over --max-window 1")
    assert rows[-1] == "some degrees remain open"


# the least window whose box |degree| <= w on SPEC (dim 3, n = 1) is over the limit
_OVER = next(w for w in range(1, MAX_WINDOW_BASIS) if 3 * (2 * w + 1) > MAX_WINDOW_BASIS)
_MARGIN = json.loads((ROOT / SPEC).read_text())["margin"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run_verification.py", "--specs", "a1_untwisted_n1", "--window", "-1"],
         "window must be >= 1, got -1"),
        (["run_verification.py", "--specs", "a1_untwisted_n1", "--window", "0"],
         "window must be >= 1, got 0"),
        (["centre_growth.py", SPEC, "--max-window", "0"], "--max-window must be >= 1, got 0"),
        (["h2_window_scan.py", SPEC, "--lmax", "-1"], "--lmax must be >= 0, got -1"),
        (["centre_growth.py", "specs/missing.json"], "cannot read spec file specs/missing.json"),
        # run_verification checks the box at window + margin, as the CLI does
        (["run_verification.py", "--specs", "a1_untwisted_n1", "--window", str(_OVER - _MARGIN)],
         f"over MAX_WINDOW_BASIS = {MAX_WINDOW_BASIS}"),
        (["centre_growth.py", SPEC, "--max-window", str(_OVER)],
         f"over MAX_WINDOW_BASIS = {MAX_WINDOW_BASIS}"),
        (["h2_window_scan.py", SPEC, "--max-window", str(_OVER)],
         f"over MAX_WINDOW_BASIS = {MAX_WINDOW_BASIS}"),
    ],
    ids=[
        "run_verification-window-1", "run_verification-window0", "centre_growth-max-window0",
        "h2_window_scan-lmax-1", "missing-spec", "run_verification-over-limit",
        "centre_growth-over-limit", "h2_window_scan-over-limit",
    ],
)
def test_script_refuses_with_the_cli_contract(argv, message):
    # refused before anything is built: exit 2, one error line, no output
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr
