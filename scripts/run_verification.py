#!/usr/bin/env python3
"""Run every verification suite over the shipped session specs.

Prints one aligned row per (spec, check) and exits nonzero on any failure.

Usage: python scripts/run_verification.py [--window D] [--specs a,b,...]
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multiloop.checks import CHECK_NAMES, run_checks
from multiloop.errors import SpecError
from multiloop.session import Session, load_spec

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
DEFAULT_SPECS = ["a1_untwisted_n1", "a1_untwisted_n2", "a2_twisted", "d4_triality", "a2_bitwist",
                 "d4_bitwist"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--specs", default=",".join(DEFAULT_SPECS))
    args = parser.parse_args()

    names = args.specs.split(",")
    try:
        specs = [load_spec(str(SPEC_DIR / f"{name}.json")) for name in names]
        if args.window is not None:
            specs = [replace(spec, window=args.window) for spec in specs]
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    for name, spec in zip(names, specs):
        try:
            session = Session(spec)
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for check in CHECK_NAMES:
            start = time.perf_counter()
            (report,) = run_checks(session, check)
            status = "ok" if report["passed"] else "FAIL"
            print(f"{name:<18} {check:<14} {status:<5} {time.perf_counter() - start:6.2f}s")
            if not report["passed"]:
                failures += 1
    if failures:
        print(f"{failures} suite(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
