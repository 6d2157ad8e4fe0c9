"""Benchmark of the multiloop verifier: cold-process workloads, timed from outside.

    python3 bench/run.py --workload suites-d4 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record        # rewrite bench/reference.json

A closed loop with one client: every call of a workload runs in its own fresh
single-threaded interpreter (`child.py`), one at a time, so module caches start
cold as they do for each `multiloop` CLI call.  The targets of the workload run
in turn, every one at least once, for as long as the next call should still
end within the first 1 - SETUP_SHARE of `--seconds`; the rest of the time goes
to setup-only calls (`Session(spec)` alone, in a fresh interpreter too) of the
targets in turn, so that the short set-up phase gets more samples.  Each
target's times are the median over its calls, and the end-to-end metrics add
these medians up over the workload's targets:

  setup_s      wall time of `Session(spec)`, at full core speed, over all calls
  work_s       wall time of the call after setup (tracing off), at full core speed
  peak_rss_mb  peak resident memory of the target process (ru_maxrss), the
               largest over the targets
  pass_frac    calls that passed and matched the recorded reference, out of
               calls attempted (1 - fail_frac; the failure count is `failed`);
               a setup-only call passes when `Session(spec)` builds

"At full core speed" is a phase's wall time times the share of full speed its
core ran at meanwhile, as the child's SpeedProbe measured it; on a shared host
this share drifts by up to half over minutes.  The text lines give the wall
times as measured (`wall_setup_s`, `wall_work_s`) and the median speed.

`--trace 1` runs every target once untraced and once with layer spans,
alternating, then once with field-operation counters, plus the field
microbench, and reports the per-layer metrics instead.  The traced run is not
correct if a span listed in COVERAGE never fires on the workload, or if more
than UNATTRIBUTED_MAX of the traced wall time falls outside every layer span.
The last line of stdout is one JSON object; the lines before it give every
metric with its unit and the run's conditions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, ROOT, WORKLOADS

CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
CHILD_TIMEOUT_S = 170
# a target process that got less than this share of a core was starved
FULL_CORE = 0.9
# share of an untraced run, at its end, given to setup-only calls
SETUP_SHARE = 0.1

LAYER_SPANS = [
    "liealg.build", "liealg.auto", "liealg.eigen", "liealg.bracket", "liealg.killing",
    "linalg.dense", "linalg.span", "linalg.sparse", "laurent.mul",
    "kaehler.differential", "kaehler.reduce", "descent.loop_bracket",
    "descent.component_basis", "descent.component_coords", "descent.cocycle",
    "extension.cocycle", "extension.bracket", "cohomology.coboundary",
]
CHECK_SPANS = ["jacobi", "cocycle", "centre", "perfect", "sandr", "decomposition", "zrel"]

# The spans each workload must fire: the layers expected to move that
# workload's end-to-end times.  A span that never fires means a patch missed a
# binding (for example a name imported into another module).
COVERAGE = {
    "suites-q": ["liealg.bracket", "liealg.killing", "laurent.mul", "kaehler.differential",
                 "kaehler.reduce", "descent.loop_bracket", "descent.cocycle",
                 "extension.cocycle", "extension.bracket"]
                + [f"checks.{c}" for c in CHECK_SPANS],
    "suites-d4": ["liealg.bracket", "liealg.killing", "linalg.span", "descent.loop_bracket",
                  "descent.component_coords", "descent.cocycle", "extension.cocycle",
                  "extension.bracket"] + [f"checks.{c}" for c in CHECK_SPANS],
    "h2-build": ["liealg.build", "liealg.auto", "liealg.eigen", "linalg.dense", "linalg.span",
                 "linalg.sparse", "descent.component_basis", "descent.component_coords",
                 "descent.cocycle", "cohomology.h2", "cohomology.coboundary"],
}

# At most this share of a workload's traced wall time may fall outside every
# layer span.  At the seed commit the dump-sc calls alone leave about 3% of
# their time outside, almost all of it record building and JSON encoding; the
# whole of h2-build and the suites leave under 1%.
UNATTRIBUTED_MAX = 0.1

END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def per_layer_units() -> dict:
    units = {}
    for op in ("mul", "add", "inv", "zero_test"):
        units[f"cyclotomic.{op}.calls"] = "count"
    units["cyclotomic.mul_us.c1"] = "us"
    for op in ("mul", "add", "inv"):
        units[f"cyclotomic.{op}_us.c3"] = "us"
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in ("rows_in", "rank", "fill_nnz"):
        units[f"linalg.sparse.{name}"] = "count"
    units["linalg.sparse.useful_frac"] = "ratio"
    units["extension.triples"] = "count"
    for c in CHECK_SPANS:
        units[f"checks.{c}.s"] = "s"
    for name in ("cohomology.h2.s", "cohomology.assembly_s", "cohomology.elim_s"):
        units[name] = "s"
    units["cohomology.unknowns"] = "count"
    units["cohomology.constraints"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = per_layer_units()


# -- child processes ------------------------------------------------------------


def child(*args: str) -> dict | None:
    """Run child.py to completion; its JSON output, or None if it failed."""
    # A fixed hash seed keeps str-keyed set and dict orders, and so the order
    # of the work, the same from run to run; a plain `multiloop` call does not
    # pin it.  The reports do not depend on it: every target matches the
    # reference under other hash seeds (test_bench.py checks two targets).
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:
        print(f"child {args[:2]} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_target(name: str, seed: int, mode: str) -> dict:
    job = json.dumps({"target": name, "seed": seed, "mode": mode})
    return child("run", job) or {"target": name, "mode": mode, "error": "child failed"}


def run_rep(workload: str, seed: int, mode: str) -> list:
    return [run_target(t["name"], seed, mode) for t in WORKLOADS[workload]]


def sample(workload: str, seed: int, seconds: float) -> list:
    """Untraced calls of the workload's targets, in turn, for `seconds`.

    Whole calls come first, every target at least once, until 1 - SETUP_SHARE
    of the time; setup-only calls fill the rest.  After a target's first call
    a call starts only if it should end, going by the target's previous call
    of the same kind, before its phase's deadline.
    """
    names = [t["name"] for t in WORKLOADS[workload]]
    begin = time.monotonic()
    deadline = begin + seconds * (1 - SETUP_SHARE)
    results, took, setup_took = [], {}, {}
    for i in itertools.count():
        name = names[i % len(names)]
        start = time.monotonic()
        if i >= len(names) and start + took[name] > deadline:
            break
        result = run_target(name, seed, "plain")
        results.append(result)
        took[name] = time.monotonic() - start
        # a setup-only call takes about as long as the whole call less its work
        setup_took[name] = took[name] - result.get("work_s", 0.0)

    deadline = begin + seconds
    turn = 0
    while True:
        start = time.monotonic()
        fits = [k for k in range(turn, turn + len(names))
                if start + setup_took[names[k % len(names)]] <= deadline]
        if not fits:
            return results
        turn = fits[0] + 1
        name = names[fits[0] % len(names)]
        results.append(run_target(name, seed, "setup"))
        setup_took[name] = time.monotonic() - start


# -- correctness --------------------------------------------------------------------


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())["targets"]
    except FileNotFoundError:
        return {}


def problems(result: dict, reference: dict) -> list:
    """Why one call failed; empty when it passed and matched its reference."""
    if "error" in result:
        return [result["error"]]
    out = []
    if not result["passed"]:
        out.append("report did not pass or certify")
    if result["mode"] == "setup":  # no report to compare
        return out
    ref = reference.get(result["target"])
    if ref is None:
        out.append("no recorded reference")
    else:
        if ref["digest"] != result["digest"]:
            out.append("report digest differs from the reference")
        if ref["ints"] != result["ints"]:
            out.append(f"key integers {result['ints']} differ from {ref['ints']}")
    return out


def tally(results: list, reference: dict):
    failed = 0
    for result in results:
        why = problems(result, reference)
        if why:
            failed += 1
            print(f"FAILED {result['target']}: {'; '.join(why)}", file=sys.stderr)
    return len(results), failed


# -- metrics --------------------------------------------------------------------------


def end_to_end(results: list, attempted: int, failed: int) -> dict:
    """Medians per target over its completed calls, added up (memory: the largest).

    Set-up times come from every call, the rest from whole calls only.
    """
    every, whole = {}, {}
    for r in results:
        every.setdefault(r["target"], [])
        whole.setdefault(r["target"], [])
        if "error" not in r:
            every[r["target"]].append(r)
            if r["mode"] == "plain":
                whole[r["target"]].append(r)
    if not all(whole.values()):
        return {}

    def medians(calls, value):
        return [statistics.median(value(r) for r in rs) for rs in calls.values()]

    return {
        "setup_s": sum(medians(every, lambda r: r["setup_s"] * r["setup_speed"])),
        "work_s": sum(medians(whole, lambda r: r["work_s"] * r["work_speed"])),
        "peak_rss_mb": max(medians(whole, lambda r: r["maxrss_kb"])) / 1024,
        "pass_frac": 1 - failed / attempted,
        "wall_setup_s": sum(medians(every, lambda r: r["setup_s"])),
        "wall_work_s": sum(medians(whole, lambda r: r["work_s"])),
        "speed": statistics.median(r["work_speed"] for rs in whole.values() for r in rs),
    }


def span_metrics(records: list):
    """(per-layer metrics, names of the spans that fired).

    A layer's calls count entries from outside the layer, so recursion into
    the same layer (rank -> rref) is not counted twice.
    """
    calls, self_s, total = {}, {}, {}
    for r in records:
        name = r["name"]
        self_s[name] = self_s.get(name, 0.0) + r["self_s"]
        if r["parent"] != name:
            calls[name] = calls.get(name, 0) + r["calls"]
            total[name] = total.get(name, 0.0) + r["total_s"]
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for c in CHECK_SPANS:
        out[f"checks.{c}.s"] = total.get(f"checks.{c}", 0.0)
    h2 = total.get("cohomology.h2", 0.0)
    elim = sum((r["total_s"] for r in records
                if r["name"] == "linalg.sparse" and r["parent"] == "cohomology.h2"), 0.0)
    out["cohomology.h2.s"] = h2
    out["cohomology.elim_s"] = elim
    out["cohomology.assembly_s"] = h2 - elim
    return out, set(calls)


def unattributed_share(results: list) -> float:
    """Share of the traced wall time that the top-level calls spend outside every span.

    Time in an unwrapped function reached straight from `Session(spec)` or
    the target's call (a binding the patch missed) lands here.
    """
    roots = [r for result in results for r in result["spans"] if r["parent"] is None]
    return sum(r["self_s"] for r in roots) / sum(r["total_s"] for r in roots)


def traced(workload: str, seed: int, reference: dict):
    # plain and span runs alternate per target, so that a drift in machine
    # speed between them does not pass for tracing overhead
    plain, spans = [], []
    for target in WORKLOADS[workload]:
        plain.append(run_target(target["name"], seed, "plain"))
        spans.append(run_target(target["name"], seed, "spans"))
    counts = run_rep(workload, seed, "counts")
    micro = child("microbench", str(seed))
    attempted, failed = tally(plain + spans + counts, reference)

    issues = []
    if failed:
        issues.append(f"{failed} of {attempted} calls failed")
    if micro is None or not micro["passed"]:
        issues.append("field microbench failed")
    results = plain + spans + counts
    if any("error" in r for r in results) or micro is None:
        return results, attempted, failed, {}, issues

    metrics, fired = span_metrics([rec for r in spans for rec in r["spans"]])
    missing = sorted(set(COVERAGE[workload]) - fired)
    if missing:
        issues.append(f"spans never fired: {', '.join(missing)}")
    share = unattributed_share(spans)
    print(f"trace.unattributed_frac {share:.6g} ratio")
    if share > UNATTRIBUTED_MAX:
        issues.append(f"{share:.1%} of the traced wall time is outside every layer span"
                      f" (at most {UNATTRIBUTED_MAX:.0%} expected)")

    sparse = {k: sum(r["sparse"][k] for r in spans) for k in ("rows_in", "rank", "fill_nnz")}
    for k, v in sparse.items():
        metrics[f"linalg.sparse.{k}"] = v
    metrics["linalg.sparse.useful_frac"] = (
        sparse["rank"] / sparse["rows_in"] if sparse["rows_in"] else 0.0
    )
    for op in ("mul", "add", "inv", "zero_test"):
        metrics[f"cyclotomic.{op}.calls"] = sum(r["counts"][op] for r in counts)
    for name in ("mul_us.c1", "mul_us.c3", "add_us.c3", "inv_us.c3"):
        metrics[f"cyclotomic.{name}"] = micro[name]
    ints = [r["ints"] for r in plain]
    metrics["extension.triples"] = sum(i.get("triples", 0) for i in ints)
    metrics["cohomology.unknowns"] = sum(i.get("unknowns", 0) for i in ints)
    metrics["cohomology.constraints"] = sum(i.get("constraints", 0) for i in ints)
    wall = [sum(r["setup_s"] + r["work_s"] for r in rep) for rep in (plain, spans)]
    metrics["trace.overhead_frac"] = wall[1] / wall[0] - 1
    return results, attempted, failed, metrics, issues


# -- conditions ------------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def conditions(results: list) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_revision(),
        "cpu_wall": [round(r["cpu_wall"], 4) for r in results if "cpu_wall" in r],
        "starved": [r["target"] for r in results if r.get("cpu_wall", 1.0) < FULL_CORE],
    }


# -- entry points --------------------------------------------------------------------------


def record() -> int:
    """Run every target once at seed 0 and write the reference file."""
    targets = {}
    for workload in WORKLOADS:
        for result in run_rep(workload, 0, "plain"):
            if "error" in result or not result["passed"]:
                print(f"not recording: {result['target']} failed", file=sys.stderr)
                return 1
            targets[result["target"]] = {"digest": result["digest"], "ints": result["ints"]}
    REFERENCE.write_text(json.dumps({"seed": 0, "targets": targets}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multiloop" / "__init__.py").is_file():
        print(f"error: no multiloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")

    reference = load_reference()
    issues = []
    if args.trace:
        results, attempted, failed, metrics, issues = traced(args.workload, args.seed, reference)
        units = PER_LAYER
    else:
        results = sample(args.workload, args.seed, args.seconds)
        attempted, failed = tally(results, reference)
        metrics = end_to_end(results, attempted, failed)
        units = END_TO_END
        if failed:
            issues.append(f"{failed} of {attempted} calls failed")
        setup_only = sum(r["mode"] == "setup" for r in results)
        print(f"calls {attempted}, of them setup-only {setup_only}")

    if not metrics:
        print(f"error: {'; '.join(issues) or 'no call completed'}", file=sys.stderr)
        return 1
    for issue in issues:
        print(f"CHECK FAILED: {issue}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"fail_frac {failed / attempted:.6g} ratio")
        for name, unit in (("wall_setup_s", "s"), ("wall_work_s", "s"), ("speed", "ratio")):
            print(f"{name} {metrics[name]:.6g} {unit}")
    cond = conditions(results)
    print("conditions " + json.dumps(cond, sort_keys=True))
    if cond["starved"]:
        print(f"warning: starved target processes: {cond['starved']}", file=sys.stderr)
    print(json.dumps({
        "correct": not issues,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
