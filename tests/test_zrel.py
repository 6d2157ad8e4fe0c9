"""The `zrel` suite: its seeded draw stream, and that it still sees a defect.

`zrel` reports only `count`, `seed` and its failures, so a snapshot of its
report cannot tell a changed random stream from the old one.
`golden/zrel_draws.json` pins the first polynomials of both loops of the
stream on every shipped spec.
"""

import json
import random
from pathlib import Path

import pytest

from multiloop import kaehler
from multiloop.checks import check_zrel, random_poly
from multiloop.session import Session, load_spec

ROOT = Path(__file__).resolve().parent.parent
DRAWS = Path(__file__).resolve().parent / "golden" / "zrel_draws.json"
SPECS = ("a1_untwisted_n1", "a1_untwisted_n2", "a2_twisted", "d4_triality")
ZREL_COUNT = 1000  # check_zrel's default count, as `check zrel` runs it
PINNED = 20


def zrel_draws(session: Session, pinned: int = PINNED) -> dict:
    """str of the first draws of check_zrel's first loop and of its second loop."""
    ring = session.ring
    rng = random.Random(session.spec.seed)
    loop1 = [random_poly(ring, rng) for _ in range(ZREL_COUNT)]
    loop2 = [random_poly(ring, rng, max_terms=2, span=2) for _ in range(pinned)]
    return {"loop1": [str(p) for p in loop1[:pinned]], "loop2": [str(p) for p in loop2]}


def load_session(spec: str) -> Session:
    return Session(load_spec(str(ROOT / "specs" / f"{spec}.json")))


@pytest.mark.parametrize("spec", SPECS)
def test_zrel_draw_stream_is_pinned(spec):
    session = load_session(spec)
    assert zrel_draws(session) == json.loads(DRAWS.read_text())[spec]


def _kinds(report):
    return {f["kind"] for f in report["failures"]}


def _keep_pivot(monkeypatch):
    """Patch the reduction to reduce the other slots as the real map does but
    leave the pivot in place."""
    reduce = kaehler._reduce_vector

    def keep_pivot(ring, degree, vec):
        out = reduce(ring, degree, vec)
        p = kaehler.pivot_index(degree)
        if p is not None:
            out[p] = vec[p]
        return out

    monkeypatch.setattr(kaehler, "_reduce_vector", keep_pivot)


def test_zrel_catches_an_unreduced_pivot(monkeypatch):
    session = load_session("a1_untwisted_n2")
    assert check_zrel(session, count=50)["passed"]
    _keep_pivot(monkeypatch)
    report = check_zrel(session, count=50)
    assert not report["passed"]
    assert "reduce-d" in _kinds(report)


def test_zrel_a1_reduces_one_times_da(monkeypatch):
    # class(1 da) = 0 is the z-a1 identity; an unreduced pivot leaves 1 da
    # nonzero whenever da has a pivot entry
    session = load_session("a1_untwisted_n2")
    _keep_pivot(monkeypatch)
    report = check_zrel(session, count=50)
    assert "z-a1" in _kinds(report)


def test_zrel_catches_a_differential_without_the_exponent_factor(monkeypatch):
    session = load_session("a1_untwisted_n2")
    ring = session.ring

    def no_factor(p):
        # d(s^alpha) read as sum_i s^(alpha - e_i) ds_i: the alpha_i factor is dropped
        comps = [{} for _ in range(ring.n)]
        for alpha, c in p.terms.items():
            for i, a in enumerate(alpha):
                if a:
                    e = tuple(x - (j == i) for j, x in enumerate(alpha))
                    comps[i][e] = comps[i].get(e, ring.field.zero) + c
        return kaehler.DifferentialForm(
            ring, tuple(ring.from_terms(t.items()) for t in comps)
        )

    monkeypatch.setattr("multiloop.checks.differential", no_factor)
    report = check_zrel(session, count=50)
    assert not report["passed"]
    assert "reduce-d" in _kinds(report)
