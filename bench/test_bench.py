"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
from workloads import BENCH_DIR, ROOT, WORKLOADS  # noqa: E402


def _target(name: str, mode: str = "plain") -> dict:
    return run.child("run", json.dumps({"target": name, "seed": 7, "mode": mode}))


def test_benchmark_json_matches_the_driver():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert set(run.COVERAGE) == set(WORKLOADS)


def test_corrupted_reference_counts_as_a_failure():
    result = _target("dump-sc/g2")
    reference = run.load_reference()
    assert run.problems(result, reference) == []

    wrong_digest = {**reference, "dump-sc/g2": {**reference["dump-sc/g2"], "digest": "0" * 64}}
    wrong_ints = {**reference, "dump-sc/g2": {**reference["dump-sc/g2"],
                                                 "ints": {"dim": 14, "records": 121}}}
    missing = {k: v for k, v in reference.items() if k != "dump-sc/g2"}
    for corrupted in (wrong_digest, wrong_ints, missing):
        assert run.problems(result, corrupted)
        assert run.tally([result], corrupted) == (1, 1)


def test_speed_probe_samples_the_call_and_takes_its_own_time_out():
    with child.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        speed, spent = probe.phase()
        assert len(probe.samples) >= 8
        assert 0 < spent < 0.1
        assert 0.1 < speed < 3
        # a phase shorter than the timer period still gets its samples, after it
        speed, spent = probe.phase()
        assert spent < 0.01 and len(probe.samples) >= 8 + probe.MIN_SAMPLES
        assert 0.1 < speed < 3

    result = _target("dump-sc/g2")
    assert result["setup_s"] > 0 and 0.1 < result["setup_speed"] < 3
    assert result["work_s"] > 0 and 0.1 < result["work_speed"] < 3
    setup_only = _target("dump-sc/g2", mode="setup")
    assert setup_only["passed"] and "work_speed" not in setup_only
    assert run.problems(setup_only, {}) == []


def test_reports_do_not_depend_on_the_hash_seed():
    # run.child pins PYTHONHASHSEED=0 for steady timings; the reference must hold without it
    reference = run.load_reference()
    for name in ("check/a2_twisted", "dump-sc/g2"):
        job = json.dumps({"target": name, "seed": 7, "mode": "plain"})
        proc = subprocess.run(
            [sys.executable, str(run.CHILD), "run", job], capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED="12345"), check=True, timeout=120,
        )
        assert run.problems(json.loads(proc.stdout.splitlines()[-1]), reference) == []


def test_spans_fire_through_by_name_imports_and_cover_wall_time():
    # D4 triality reaches diagram_automorphism through `session`'s own binding
    result = _target("dump-sc/d4_triality", mode="spans")
    _, fired = run.span_metrics(result["spans"])
    assert {"liealg.build", "liealg.auto", "liealg.eigen", "descent.cocycle"} <= fired
    assert run.unattributed_share([result]) < run.UNATTRIBUTED_MAX

    # had the patch missed liealg.build, its self time would be the setup root's
    missed = []
    for r in result["spans"]:
        r = dict(r)
        if r["root"] == "setup" and r["parent"] is None:
            build = sum(b["self_s"] for b in result["spans"]
                        if b["name"] == "liealg.build" and b["parent"] == "setup")
            r["self_s"] += build
        missed.append(r)
    assert run.unattributed_share([{"spans": missed}]) > run.UNATTRIBUTED_MAX


def test_without_the_program_it_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "h2-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
