"""The benchmark's traced runs must keep working against the package.

`bench/tracer.py` rebinds functions by (owner, attribute) name; a rename or
deletion in `multiloop` would otherwise only show up as a crash of a traced
benchmark run.  A traced run must also keep matching the recorded reference
and firing every span its workload's COVERAGE list names.  These tests read
`bench/` and change nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """One module of `bench/`, which imports its siblings by plain name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


tracer = load_bench("tracer")


@pytest.mark.parametrize(
    "owner,attr",
    sorted({(owner, attr) for _, owner, attr in tracer.SPAN_POINTS + tracer.COUNT_POINTS}),
)
def test_traced_point_exists(owner, attr):
    module_name, _, cls_name = owner.partition(".")
    module = importlib.import_module(f"multiloop.{module_name}")
    if cls_name:
        # the tracer reads the class __dict__, so an inherited method would not do
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize(
    "target,workload",
    [
        ("h2/a2_twisted", "h2-build"),
        ("check/a2_twisted", "suites-q"),
        ("check/d4_triality", "suites-d4"),
    ],
)
def test_traced_target_matches_reference_and_fires_coverage(target, workload):
    # each child is a fresh interpreter, as in `bench/run.py --trace 1`
    run = load_bench("run")
    reference = run.load_reference()
    spans = run.run_target(target, 1, "spans")
    counts = run.run_target(target, 1, "counts")
    assert run.problems(spans, reference) == []
    assert run.problems(counts, reference) == []
    assert set(spans["sparse"]) == {"rows_in", "rank", "fill_nnz"}
    _, fired = run.span_metrics(spans["spans"])
    assert set(run.COVERAGE[workload]) <= fired
