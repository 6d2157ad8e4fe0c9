#!/usr/bin/env python3
"""Tabulate certified centre dimensions per degree as the window grows.

The expected column counts the base-lattice classes in the window (n at the
origin, n-1 per nonzero base degree); the computed column is the bracket
kernel against the generator window.

Usage: python scripts/centre_growth.py specs/a1_untwisted_n2.json --max-window 2
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multiloop.errors import SpecError
from multiloop.session import Session, load_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec")
    parser.add_argument("--max-window", type=int, default=2)
    args = parser.parse_args()

    try:
        spec = load_spec(args.spec)
        if args.max_window < 1:
            raise SpecError(f"--max-window must be >= 1, got {args.max_window}")
        spec.check_window(args.max_window)
        session = Session(spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = True
    for window in range(1, args.max_window + 1):
        rep = session.ext.centre_window(window)
        ok &= rep["passed"]
        print(
            f"window d={window}: centre {rep['centre_dim']} "
            f"expected {rep['expected']} {'ok' if rep['passed'] else 'MISMATCH'}"
        )
        for degree, info in sorted(rep["per_degree"].items()):
            print(f"  degree {degree}: dim {info['centre_dim']} (expected {info['expected']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
