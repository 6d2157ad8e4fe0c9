#!/usr/bin/env python3
"""Time each suite in a fresh process at a ladder of windows.

For every spec, every suite of `check all` and every window in turn this runs

    python -m multiloop check SUITE --spec specs/SPEC.json --window W

as its own process and records its wall time: interpreter start, session
set-up and the suite.  A suite stops at the first window that runs over
--budget seconds (the process is killed there), that fails, or that the
spec refuses, such as a window basis over MAX_WINDOW_BASIS; its larger
windows are not run.  One progress line per run goes to stderr; stdout is
one JSON object:

    {"budget_s": ..., "windows": [...], "specs": {SPEC: {SUITE: {
        "seconds": {"W": s, ...},     # the windows that finished in time
        "largest_window": W or null,  # the largest of those
        "stopped": null or {"window": W, "exit": code or null, "reason": "..."}}}}}

Exit 0 when every run that finished passed, 1 when a suite failed, 2 on a
usage error.

Usage: python scripts/window_ladder.py --specs a1_untwisted_n2,a2_bitwist \
    --windows 4,8,12 --budget 60
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from multiloop.checks import CHECK_NAMES

SPEC_DIR = ROOT / "specs"


def run_suite(spec: str, suite: str, window: int, budget: float, env: dict):
    """(seconds, None) for a run that passed within the budget, else
    (None, {"exit": its exit code or None, "reason": why the ladder stops})."""
    argv = [sys.executable, "-m", "multiloop", "check", suite,
            "--spec", str(SPEC_DIR / f"{spec}.json"), "--window", str(window)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return None, {"exit": None, "reason": f"over the {budget:g} s budget"}
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return round(seconds, 3), None
    lines = proc.stderr.strip().splitlines()
    return None, {"exit": proc.returncode, "reason": lines[-1] if lines else "failed"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--specs", default="a1_untwisted_n2,a2_bitwist,d4_bitwist")
    parser.add_argument("--windows", default="4,8,12,16,24")
    parser.add_argument("--budget", type=float, default=60.0,
                        help="seconds a run may take before its suite stops")
    args = parser.parse_args()

    specs = args.specs.split(",")
    try:
        windows = sorted(int(x) for x in args.windows.split(","))
    except ValueError:
        windows = None
    problems = [f"unknown spec {s!r}" for s in specs if not (SPEC_DIR / f"{s}.json").is_file()]
    if windows is None or not windows or min(windows) < 1:
        problems.append(f"--windows must be positive integers, got {args.windows!r}")
    if not args.budget > 0:
        problems.append(f"--budget must be > 0, got {args.budget:g}")
    if problems:
        print(f"error: {problems[0]}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failed = False
    out = {}
    for spec in specs:
        out[spec] = {}
        for suite in CHECK_NAMES:
            seconds, stopped = {}, None
            for window in windows:
                print(f"{spec} {suite} window {window}", file=sys.stderr, flush=True)
                took, stop = run_suite(spec, suite, window, args.budget, env)
                if stop is not None:
                    stopped = {"window": window, **stop}
                    failed |= stop["exit"] == 1
                    break
                seconds[str(window)] = took
            out[spec][suite] = {
                "seconds": seconds,
                "largest_window": max(map(int, seconds), default=None),
                "stopped": stopped,
            }
    report = {"budget_s": args.budget, "windows": windows, "specs": out}
    print(json.dumps(report, indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
