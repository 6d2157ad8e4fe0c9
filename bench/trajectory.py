"""Run the benchmark on several seeds per workload and record one trajectory point.

    python3 bench/trajectory.py --label seed
    python3 bench/trajectory.py --label try --workloads suites-d4 --no-record

Every workload runs once on each of the seeds 1 to 10.  For every end-to-end
metric it prints the median of the runs and their spread
(distance between the first and third quartile as a share of the median,
`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json.  Unless `--no-record` is given the point is appended to
bench/trajectory.json, so a change and its parent are compared with the same
script and settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import git_revision
from workloads import BENCH_DIR, ROOT

TRAJECTORY = BENCH_DIR / "trajectory.json"
# the same seeds for every point, so that any two points compare
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--no-record", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {
        "label": args.label,
        "git": git_revision(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in point["seeds"]]
        metrics = {name: summary([r[name] for r in runs]) for name in bounds}
        point["workloads"][workload] = metrics
        for name, s in metrics.items():
            print(f"{workload:10} {name:12} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}", flush=True)
    if not args.no_record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
