"""Spans and operation counters patched onto `multiloop` from the outside.

The span pass wraps layer-boundary functions; the counting pass wraps the
field dunders.  They are never active in the same process: a counter on
millions of `CyclotomicNumber` operations would inflate the self time of
every span above it.  Every binding of a wrapped function is replaced,
including names imported into other modules (`from .kaehler import
reduce_form`) and module-level dispatch tables (`checks._CHECKS`).
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, owner, attribute); the owner is a module or "module.Class".
SPAN_POINTS = [
    ("liealg.build", "liealg", "build_algebra"),
    ("liealg.auto", "liealg", "diagram_automorphism"),
    ("liealg.auto", "liealg.LieAutomorphism", "_validate_bracket"),
    ("liealg.auto", "liealg.LieAutomorphism", "_validate_order"),
    ("liealg.eigen", "liealg.EigenspaceDecomposition", "__init__"),
    ("liealg.bracket", "liealg.SplitSimpleLieAlgebra", "bracket"),
    ("liealg.killing", "liealg.SplitSimpleLieAlgebra", "killing"),
    *[("linalg.dense", "linalg", f)
      for f in ("rref", "rank", "nullspace", "det", "solve_system", "intersect")],
    *[("linalg.span", "linalg.SpanSolver", f)
      for f in ("__init__", "add", "residual", "contains", "coords")],
    *[("linalg.sparse", "linalg.SparseEliminator", f)
      for f in ("add", "reduce", "dot_is_zero")],
    ("laurent.mul", "laurent.LaurentPoly", "__mul__"),
    ("kaehler.differential", "kaehler", "differential"),
    ("kaehler.reduce", "kaehler", "reduce_form"),
    ("descent.loop_bracket", "descent.LoopAlgebra", "bracket"),
    ("descent.component_basis", "descent.TwistedLoopAlgebra", "component_basis"),
    ("descent.component_coords", "descent.TwistedLoopAlgebra", "component_coords"),
    ("descent.cocycle", "descent.DescentCocycle", "__init__"),
    ("extension.cocycle", "extension.CentralExtension", "cocycle"),
    ("extension.bracket", "extension.CentralExtension", "bracket"),
    *[(f"checks.{c}", "checks", f"check_{c}")
      for c in ("jacobi", "cocycle", "centre", "perfect", "sandr", "decomposition", "zrel")],
    ("cohomology.h2", "cohomology", "cocycle_space_report"),
    ("cohomology.coboundary", "cohomology", "coboundary"),
]

# Field operations counted in the counting pass.  Subtraction counts as add
# (`__rsub__` and `__rtruediv__` delegate to the counted forward operators),
# and `inverse` and `/` both reach `CyclotomicField._inv`.
COUNT_POINTS = [
    ("mul", "cyclotomic.CyclotomicNumber", "__mul__"),
    ("add", "cyclotomic.CyclotomicNumber", "__add__"),
    ("add", "cyclotomic.CyclotomicNumber", "__sub__"),
    ("inv", "cyclotomic.CyclotomicField", "_inv"),
    ("zero_test", "cyclotomic.CyclotomicNumber", "__bool__"),
    ("zero_test", "cyclotomic.CyclotomicNumber", "is_zero"),
]


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(".")
    module = sys.modules[f"multiloop.{module_name}"]
    return getattr(module, cls_name) if cls_name else module


def _rebind(owner, attr: str, wrap) -> None:
    """Replace every binding of owner.attr by wrap(original)."""
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        wrapped = wrap(original)
        for name, value in list(vars(owner).items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                setattr(owner, name, wrapped)
        return
    original = getattr(owner, attr)
    wrapped = wrap(original)
    for name, module in list(sys.modules.items()):
        if not name.startswith("multiloop"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped


class SpanTracer:
    """Aggregated spans keyed by (root, parent, name): calls, total and self time.

    High-frequency leaf spans are folded into their aggregate as they close,
    so memory stays bounded whatever the call count.
    """

    def __init__(self):
        self.stack = []  # open frames: [name, child_time]
        self.root = None
        self.agg = {}  # (root, parent, name) -> [calls, total_s, self_s]
        self.sparse_rows_in = 0
        self.sparse_independent = 0
        self.eliminators = []

    def _close(self, name, parent, dt, child):
        key = (self.root, parent, name)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child

    def span(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self._close(name, parent, dt, frame[1])

        return wrapper

    def run_root(self, root: str, fn, *args):
        """Run one top-level call as the root span; returns (result, wall_s)."""
        self.root = root
        wrapped = self.span(root, fn)
        t0 = time.perf_counter()
        result = wrapped(*args)
        return result, time.perf_counter() - t0

    def install(self):
        elim = _resolve("linalg.SparseEliminator")

        def count_rows(add):
            @functools.wraps(add)
            def wrapper(eliminator, row):
                independent = add(eliminator, row)
                self.sparse_rows_in += 1
                self.sparse_independent += bool(independent)
                return independent

            return wrapper

        def register(init):
            @functools.wraps(init)
            def wrapper(eliminator, *args, **kwargs):
                init(eliminator, *args, **kwargs)
                self.eliminators.append(eliminator)

            return wrapper

        # installed first, so the span wrapper around `add` also covers them
        _rebind(elim, "add", count_rows)
        _rebind(elim, "__init__", register)
        for name, owner, attr in SPAN_POINTS:
            _rebind(_resolve(owner), attr, functools.partial(self.span, name))

    def records(self):
        return [
            {"root": r, "parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (r, p, n), (c, t, s) in self.agg.items()
        ]

    def sparse_stats(self):
        return {
            "rows_in": self.sparse_rows_in,
            "rank": self.sparse_independent,
            "fill_nnz": sum(len(r) for e in self.eliminators for r in e.rows.values()),
        }


class OpCounter:
    """Call counts of the field operations, nothing timed."""

    def __init__(self):
        self.counts = {name: 0 for name, _, _ in COUNT_POINTS}

    def install(self):
        counts = self.counts
        for name, owner, attr in COUNT_POINTS:

            def wrap(fn, name=name):
                def wrapper(*args):
                    counts[name] += 1
                    return fn(*args)

                return wrapper

            _rebind(_resolve(owner), attr, wrap)
