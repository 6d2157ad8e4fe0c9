"""Every function the benchmark's tracer patches must exist on the package.

`bench/tracer.py` rebinds functions by (owner, attribute) name; a rename or
deletion in `multiloop` would otherwise only show up as a crash of a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


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
