#!/usr/bin/env python3
"""Run every verification suite over the shipped session specs.

Prints one aligned row per (spec, check) and exits nonzero on any failure.

Usage: python scripts/run_verification.py [--window D] [--specs a,b,...]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multiloop.checks import CHECK_NAMES, run_checks
from multiloop.session import Session, load_spec

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
DEFAULT_SPECS = ["a1_untwisted_n1", "a1_untwisted_n2", "a2_twisted", "d4_triality", "a2_bitwist",
                 "d4_bitwist"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--specs", default=",".join(DEFAULT_SPECS))
    args = parser.parse_args()

    failures = 0
    for name in args.specs.split(","):
        spec = load_spec(str(SPEC_DIR / f"{name}.json"))
        if args.window is not None:
            spec.window = args.window
        session = Session(spec)
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
