"""Smoke runs of the scripts under `scripts/` at their smallest sizes.

Each script is started as its own process, as a user would run it, so a name
it imports that no longer exists fails here rather than at the command line.
"""

import json
import runpy
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


def test_run_verification_defaults_to_every_shipped_spec():
    # a spec added to specs/ is run without editing the script
    script = runpy.run_path(str(ROOT / "scripts" / "run_verification.py"))
    assert script["DEFAULT_SPECS"] == sorted(path.stem for path in (ROOT / "specs").glob("*.json"))


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


def test_scan_scripts_report_progress_on_stderr_only():
    # one progress line per window on stderr; stdout is the table alone
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout, proc.stderr.splitlines()

    stdout, progress = run("centre_growth.py", SPEC, "--max-window", "2")
    assert progress == ["window 1/2: computing the centre", "window 2/2: computing the centre"]
    assert stdout == (
        "window d=1: centre 1 expected 1 ok\n"
        "  degree [-1]: dim 0 (expected 0)\n"
        "  degree [0]: dim 1 (expected 1)\n"
        "  degree [1]: dim 0 (expected 0)\n"
        "window d=2: centre 1 expected 1 ok\n"
        "  degree [-1]: dim 0 (expected 0)\n"
        "  degree [-2]: dim 0 (expected 0)\n"
        "  degree [0]: dim 1 (expected 1)\n"
        "  degree [1]: dim 0 (expected 0)\n"
        "  degree [2]: dim 0 (expected 0)\n"
    )
    stdout, progress = run("h2_window_scan.py", SPEC, "--lmax", "1", "--max-window", "2")
    assert progress == [f"lambda=[{x}] window 1/2: computing H2" for x in (-1, 0, 1)]
    rows = stdout.splitlines()
    assert [row.split(" [")[0] for row in rows] == [
        "lambda=[-1] d=1: upper=0 lower=0 z2=3 b2=3 CERTIFIED",
        "lambda=[0] d=1: upper=1 lower=1 z2=4 b2=3 CERTIFIED",
        "lambda=[1] d=1: upper=0 lower=0 z2=3 b2=3 CERTIFIED",
        "all degrees certified",
    ]


def test_window_ladder_stops_a_suite_at_its_first_window_over_the_budget():
    from multiloop.checks import CHECK_NAMES

    def ladder(*argv):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "window_ladder.py"),
             "--specs", "a1_untwisted_n1", "--windows", "2,1", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert report["windows"] == [1, 2] and list(report["specs"]) == ["a1_untwisted_n1"]
        suites = report["specs"]["a1_untwisted_n1"]
        assert list(suites) == list(CHECK_NAMES)
        return report, suites, proc.stderr.splitlines()

    # no process starts and finishes in a millisecond: every suite stops at
    # window 1, and window 2 is never run
    report, suites, progress = ladder("--budget", "0.001")
    assert report["budget_s"] == 0.001
    assert progress == [f"a1_untwisted_n1 {suite} window 1" for suite in CHECK_NAMES]
    for entry in suites.values():
        assert entry == {
            "seconds": {},
            "largest_window": None,
            "stopped": {"window": 1, "exit": None, "reason": "over the 0.001 s budget"},
        }
    # within the default budget every suite runs and passes both windows
    report, suites, progress = ladder()
    assert report["budget_s"] == 60
    for entry in suites.values():
        assert sorted(entry["seconds"]) == ["1", "2"] and min(entry["seconds"].values()) > 0
        assert entry["largest_window"] == 2 and entry["stopped"] is None


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
        (["window_ladder.py", "--windows", "0,4"], "--windows must be positive integers"),
        (["window_ladder.py", "--budget", "0"], "--budget must be > 0, got 0"),
        (["window_ladder.py", "--specs", "missing"], "unknown spec 'missing'"),
    ],
    ids=[
        "run_verification-window-1", "run_verification-window0", "centre_growth-max-window0",
        "h2_window_scan-lmax-1", "missing-spec", "run_verification-over-limit",
        "centre_growth-over-limit", "h2_window_scan-over-limit", "window_ladder-window0",
        "window_ladder-budget0", "window_ladder-missing-spec",
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
