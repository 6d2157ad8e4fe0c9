"""Fixed inputs of the benchmark workloads.

Each workload is a list of targets; a target is one CLI-equivalent call (one
spec, one command) and runs in its own fresh interpreter, so module caches
start cold exactly as they do for a `multiloop` invocation.  The specs are
written out here rather than read from `specs/` so that the inputs cannot
drift with the shipped files.
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The E6 diagram involution (Bourbaki 1<->6, 3<->5) as an explicit 78x78
# `matrix` automorphism spec, written once from `diagram_automorphism` and kept
# in the repository, so no benchmark process builds E6 to make its own input.
E6_MATRIX_SPEC = BENCH_DIR / "e6_involution_matrix.json"


def _spec(family, rank, autos, orders, window=1):
    return {
        "algebra": {"family": family, "rank": rank},
        "autos": autos,
        "orders": orders,
        "window": window,
        "margin": 1,
    }


IDENTITY = {"kind": "identity"}

A1_N1 = _spec("A", 1, [IDENTITY], [1], window=2)
A1_N2 = _spec("A", 1, [IDENTITY, IDENTITY], [1, 1], window=1)
A2_TWIST = _spec("A", 2, [{"kind": "diagram", "perm": [1, 0]}], [2], window=2)
D4_TRIALITY = _spec("D", 4, [{"kind": "diagram", "perm": [2, 1, 3, 0]}], [3], window=1)


def _check(name, spec):
    return {"name": f"check/{name}", "spec": spec, "call": "check"}


def _h2(name, spec, lam, window):
    return {"name": f"h2/{name}", "spec": spec, "call": "h2", "lambda": lam, "window": window}


def _dump(name, spec):
    return {"name": f"dump-sc/{name}", "spec": spec, "call": "dump-sc"}


# The suites run no sparse elimination and build only small algebras;
# `h2-build` runs no check suite.  So each is the no-change control for the
# layers only the others use, and `suites-q`, all over Q, is the control for
# arithmetic in Q(zeta_3).  The dump-sc calls take milliseconds after their
# builds, too little to time steadily on their own, so they share a workload
# with the H2 certificates.
WORKLOADS = {
    "suites-q": [
        _check("a1_untwisted_n1", A1_N1),
        _check("a1_untwisted_n2", A1_N2),
        _check("a2_twisted", A2_TWIST),
    ],
    "suites-d4": [
        _check("d4_triality", D4_TRIALITY),
    ],
    "h2-build": [
        _h2("d4_triality", D4_TRIALITY, [0], 2),
        _h2("a1_untwisted_n2", A1_N2, [0, 0], 3),
        _h2("a2_twisted", A2_TWIST, [1], 4),
        _dump("e7", _spec("E", 7, [IDENTITY], [1])),
        # the autos entry is replaced by the contents of E6_MATRIX_SPEC
        _dump("e6_matrix", _spec("E", 6, ["e6-involution-matrix"], [2])),
        _dump("f4", _spec("F", 4, [IDENTITY], [1])),
        _dump("d4_triality", D4_TRIALITY),
        _dump("a5_involution", _spec("A", 5, [{"kind": "diagram", "perm": [4, 3, 2, 1, 0]}], [2])),
        _dump("b3", _spec("B", 3, [IDENTITY], [1])),
        _dump("c3", _spec("C", 3, [IDENTITY], [1])),
        _dump("g2", _spec("G", 2, [IDENTITY], [1])),
    ],
}

TARGETS = {t["name"]: t for targets in WORKLOADS.values() for t in targets}
