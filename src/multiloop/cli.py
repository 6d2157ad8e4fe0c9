"""Command-line front end: build sessions from JSON specs and run the suites.

Exit codes: 0 pass, 1 check or certificate failure, 2 usage or spec error.
A StructureError raised while a command runs is a failed consistency check:
it prints "error: ..." on stderr and exits 1.  All reports are deterministic
given (spec, seed) and use exact scalar strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .checks import CHECK_NAMES, h2_report, run_checks
from .errors import MismatchError, SpecError, StructureError
from .session import Session, load_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiloop",
        description=(
            "Exact verification of twisted multiloop Lie algebras and their "
            "central extensions by differential classes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="JSON session spec file")
        p.add_argument("--window", type=int, default=None, help="override the degree window")
        p.add_argument("--margin", type=int, default=None, help="override the bracket margin")
        p.add_argument("--seed", type=int, default=None, help="override the random seed")
        p.add_argument("--table", action="store_true", help="render as aligned text")

    p_info = sub.add_parser("info", help="dimensions, eigenspaces and centre sizes")
    common(p_info)

    p_check = sub.add_parser("check", help="run verification suites")
    p_check.add_argument(
        "which",
        nargs="?",
        default="all",
        choices=("all",) + CHECK_NAMES,
        help="which suite to run",
    )
    common(p_check)

    p_h2 = sub.add_parser("h2", help="windowed graded 2-cohomology certificate")
    p_h2.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help="internal degree, comma separated (e.g. 0 or 1,-1)",
    )
    common(p_h2)

    p_dump = sub.add_parser("dump-sc", help="dump structure constants as JSON")
    common(p_dump)

    p_centre = sub.add_parser("centre", help="certified centre of the extension")
    p_centre.add_argument(
        "--generator-window", type=int, default=None, help="bracket generator window"
    )
    common(p_centre)

    return parser


def _emit(payload: dict, as_table: bool):
    if as_table:
        print(render_table(payload))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def render_table(obj, prefix: str = "") -> str:
    rows = []
    _flatten(obj, prefix, rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _flatten(obj, path, rows):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            _flatten(obj[k], f"{path}.{k}" if path else str(k), rows)
    elif isinstance(obj, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in obj):
            rows.append((path, "[" + ", ".join(str(x) for x in obj) + "]"))
        else:
            for i, x in enumerate(obj):
                _flatten(x, f"{path}[{i}]", rows)
    else:
        rows.append((path, str(obj)))


def _header(session: Session, command: str) -> dict:
    return {
        "command": command,
        "spec": session.spec.to_dict(),
        "window": session.spec.window,
        "margin": session.spec.margin,
        "seed": session.spec.seed,
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        overrides = {"window": args.window, "margin": args.margin, "seed": args.seed}
        spec = replace(load_spec(args.spec), **{k: v for k, v in overrides.items() if v is not None})
        if getattr(args, "generator_window", None) is not None:
            spec.check_window(args.generator_window)
        session = Session(spec)
    except (SpecError, MismatchError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "info":
            payload = {**_header(session, "info"), **session.info()}
            _emit(payload, args.table)
            return 0

        if args.command == "check":
            reports = run_checks(session, args.which)
            passed = all(r["passed"] for r in reports)
            payload = {
                **_header(session, "check"),
                "which": args.which,
                "passed": passed,
                "reports": sorted(reports, key=lambda r: r["check"]),
            }
            _emit(payload, args.table)
            return 0 if passed else 1

        if args.command == "h2":
            lam = tuple(int(x) for x in args.lam.split(","))
            if len(lam) != session.ring.n:
                raise SpecError(
                    f"lambda has {len(lam)} components, session has {session.ring.n}"
                )
            rep = h2_report(session, lam)
            payload = {**_header(session, "h2"), **rep}
            _emit(payload, args.table)
            return 0 if rep["certified"] else 1

        if args.command == "dump-sc":
            payload = {
                **_header(session, "dump-sc"),
                "dim": session.algebra.dim,
                "labels": session.algebra.labels,
                "structure": session.algebra.structure_records(),
            }
            _emit(payload, args.table)
            return 0

        if args.command == "centre":
            gen = args.generator_window
            rep = session.ext.centre_window(
                session.spec.window,
                generator_window=gen,
            )
            payload = {**_header(session, "centre"), **rep}
            _emit(payload, args.table)
            return 0 if rep["passed"] else 1
    except (SpecError, MismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"error: unknown command {args.command}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
