#!/usr/bin/env python3
"""Scan window sizes until the graded 2-cohomology certificate closes.

For each internal degree in the box |lambda| <= lmax this prints the windowed
upper bound against the central lower bound, growing the window until the
sandwich closes or the cap is reached.  A degree the cap cannot contain gets
one `open` row naming the window it needs.  One progress line per scanned
window goes to stderr as that window starts; stdout holds the rows only.

Usage: python scripts/h2_window_scan.py specs/a2_twisted.json [--lmax 2] [--max-window 4]
"""

import argparse
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multiloop.cohomology import cocycle_space_report
from multiloop.errors import SpecError
from multiloop.session import Session, load_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec")
    parser.add_argument("--lmax", type=int, default=2)
    parser.add_argument("--max-window", type=int, default=4)
    args = parser.parse_args()

    try:
        spec = load_spec(args.spec)
        if args.lmax < 0:
            raise SpecError(f"--lmax must be >= 0, got {args.lmax}")
        if args.max_window < 1:
            raise SpecError(f"--max-window must be >= 1, got {args.max_window}")
        spec.check_window(args.max_window)
        session = Session(spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = session.ring.n
    all_closed = True
    for lam in product(range(-args.lmax, args.lmax + 1), repeat=n):
        closed = False
        least = max(max(abs(x) for x in lam), 1)  # the window must contain lambda
        if least > args.max_window:
            print(f"lambda={list(lam)} open: needs a window of at least {least}, "
                  f"over --max-window {args.max_window}")
        for window in range(least, args.max_window + 1):
            print(f"lambda={list(lam)} window {window}/{args.max_window}: computing H2",
                  file=sys.stderr, flush=True)
            start = time.perf_counter()
            rep = cocycle_space_report(session.ext, lam, window)
            print(
                f"lambda={list(lam)} d={window}: upper={rep['h2_dim']} "
                f"lower={rep['lower_bound']} z2={rep['z2_dim']} b2={rep['b2_dim']} "
                f"{'CERTIFIED' if rep['certified'] else 'open'} "
                f"[{time.perf_counter() - start:.2f}s]"
            )
            if rep["certified"]:
                closed = True
                break
        all_closed &= closed
    print("all degrees certified" if all_closed else "some degrees remain open")
    return 0 if all_closed else 1


if __name__ == "__main__":
    sys.exit(main())
