"""The `zrel` suite: its seeded draw stream, the library calls each draw
makes, and that it still sees a defect.

`zrel` reports only `count`, `seed` and its failures, so a snapshot of its
report cannot tell a changed random stream from the old one.
`golden/zrel_draws.json` pins the first polynomials of both loops of the
stream on every shipped spec.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from multiloop import checks, kaehler
from multiloop.checks import check_zrel
from multiloop.cyclotomic import CyclotomicField
from multiloop.kaehler import DifferentialForm
from multiloop.laurent import LaurentPoly, LaurentRing
from multiloop.session import Session, load_spec

from tests.conftest import from_terms, random_poly

ROOT = Path(__file__).resolve().parent.parent
DRAWS = Path(__file__).resolve().parent / "golden" / "zrel_draws.json"
SPECS = ("a1_untwisted_n1", "a1_untwisted_n2", "a2_twisted", "d4_triality")
SHIPPED = sorted(p.stem for p in (ROOT / "specs").glob("*.json"))
# one variable over Q, two variables over Q, one variable over Q(zeta3)
MUTATION_SPECS = ("a1_untwisted_n1", "a1_untwisted_n2", "d4_triality")
ZREL_COUNT = 1000  # check_zrel's default count, as `check zrel` runs it
PINNED = 20


def zrel_draws(session: Session, pinned: int = PINNED) -> dict:
    """str of the first draws of check_zrel's first loop and of its second loop."""
    ring = session.ring
    rng = random.Random(session.spec.seed)
    draw = checks._drawer(ring, rng, 3, 3)
    loop1 = [draw() for _ in range(ZREL_COUNT)]
    draw = checks._drawer(ring, rng, 2, 2)
    loop2 = [draw() for _ in range(pinned)]
    return {"loop1": [str(p) for p in loop1[:pinned]], "loop2": [str(p) for p in loop2]}


def load_session(spec: str) -> Session:
    return Session(load_spec(str(ROOT / "specs" / f"{spec}.json")))


@pytest.mark.parametrize("spec", SPECS)
def test_zrel_draw_stream_is_pinned(spec):
    session = load_session(spec)
    assert zrel_draws(session) == json.loads(DRAWS.read_text())[spec]


def choice_random_poly(ring, rng, max_terms=3, span=3):
    """One draw through rng.choice and rng.randrange: the reference for the
    raw-bit draws, which must read the same stream."""
    field = ring.field
    rows = checks._coefficient_rows(field)
    exponents = range(-span, span + 1)
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = tuple([rng.choice(exponents) for _ in range(ring.n)])
        coeff = rng.choice(rng.choice(rows))
        if field.degree > 1 and rng.random() < 0.3:
            coeff = field.zeta(rng.randrange(field.conductor)) * coeff
        if exp in terms:
            coeff = terms[exp] + coeff
        if coeff:
            terms[exp] = coeff
        else:
            terms.pop(exp, None)
    return LaurentPoly._nonzero(ring, terms)


def per_call(draw_one):
    """A drawer that draws each polynomial with draw_one(ring, rng, max_terms, span)."""
    return lambda ring, rng, max_terms, span: lambda: draw_one(ring, rng, max_terms, span)


def zrel_stream(ring, rng, drawer):
    """Every draw of a check_zrel run, in order, made as it makes them: one
    drawer for the first loop, one polynomial per round, then one for the
    second loop, a, b and c per round, both on rng."""
    draw = drawer(ring, rng, 3, 3)
    out = [draw() for _ in range(ZREL_COUNT)]
    draw = drawer(ring, rng, 2, 2)
    out += [draw() for _ in range(3 * ZREL_COUNT)]
    return [p.terms for p in out]


# no shipped spec reaches conductor 12, where the zeta power takes 4 bits
@pytest.mark.parametrize("spec", SHIPPED + ["q_zeta12"])
@pytest.mark.parametrize("seed", [0, 21])
def test_raw_bit_draws_read_the_stream_as_choice_and_randrange(spec, seed):
    if spec == "q_zeta12":
        ring = LaurentRing(CyclotomicField(12), (4, 3))
    else:
        ring = load_session(spec).ring
    fast, reference = random.Random(seed), random.Random(seed)
    stream = zrel_stream(ring, fast, checks._drawer)
    assert stream == zrel_stream(ring, reference, per_call(choice_random_poly))
    assert fast.getstate() == reference.getstate()
    # a drawer's set-up reads no bits: a new drawer per draw gives the same stream
    single = random.Random(seed)
    assert zrel_stream(ring, single, per_call(random_poly)) == stream
    assert single.getstate() == fast.getstate()


# calls per (first-loop draw, second-loop draw) pair: d of p, a, b and c;
# reduce of dp and of the six products; 1 da, a db, b da, ab dc, bc da, ca db;
# ab, bc and ca
CALLS_PER_DRAW = {"differential": 4, "reduce_form": 7, "scale_poly": 6, "mul": 3}


@pytest.mark.parametrize("spec", SHIPPED)
def test_zrel_makes_the_same_library_calls_per_draw(spec, monkeypatch):
    session = load_session(spec)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(checks, "differential", counted("differential", checks.differential))
    monkeypatch.setattr(checks, "reduce_form", counted("reduce_form", checks.reduce_form))
    monkeypatch.setattr(
        DifferentialForm, "scale_poly", counted("scale_poly", DifferentialForm.scale_poly)
    )
    monkeypatch.setattr(LaurentPoly, "__mul__", counted("mul", LaurentPoly.__mul__))
    assert check_zrel(session, count=50)["passed"]
    assert calls == {name: 50 * n for name, n in CALLS_PER_DRAW.items()}


def _kinds(report):
    return {f["kind"] for f in report["failures"]}


def _keep_pivot(monkeypatch):
    """Patch the reduction to reduce the other slots as the real map does but
    leave the pivot in place."""
    reduce = kaehler._reduce_vector

    def keep_pivot(ring, degree, vec):
        out = list(reduce(ring, degree, vec))
        p = kaehler.pivot_index(degree)
        if p is not None:
            out[p] = vec[p]
        return out

    monkeypatch.setattr(kaehler, "_reduce_vector", keep_pivot)


def test_zrel_catches_an_unreduced_pivot(monkeypatch):
    sessions = {spec: load_session(spec) for spec in MUTATION_SPECS}
    for spec, session in sessions.items():
        assert check_zrel(session, count=50)["passed"], spec
    _keep_pivot(monkeypatch)
    for spec, session in sessions.items():
        report = check_zrel(session, count=50)
        assert not report["passed"], spec
        assert "reduce-d" in _kinds(report), spec


def test_zrel_a1_reduces_one_times_da(monkeypatch):
    # class(1 da) = 0 is the z-a1 identity; an unreduced pivot leaves 1 da
    # nonzero whenever da has a pivot entry
    sessions = {spec: load_session(spec) for spec in MUTATION_SPECS}
    _keep_pivot(monkeypatch)
    for spec, session in sessions.items():
        assert "z-a1" in _kinds(check_zrel(session, count=50)), spec


def test_zrel_catches_a_differential_without_the_exponent_factor(monkeypatch):
    def no_factor(p):
        # d(s^alpha) read as sum_i s^(alpha - e_i) ds_i: the alpha_i factor is dropped
        ring = p.ring
        comps = [{} for _ in range(ring.n)]
        for alpha, c in p.terms.items():
            for i, a in enumerate(alpha):
                if a:
                    e = tuple(x - (j == i) for j, x in enumerate(alpha))
                    comps[i][e] = comps[i].get(e, ring.field.zero) + c
        return kaehler.DifferentialForm(
            ring, tuple(from_terms(ring, t.items()) for t in comps)
        )

    sessions = {spec: load_session(spec) for spec in MUTATION_SPECS}
    monkeypatch.setattr("multiloop.checks.differential", no_factor)
    for spec, session in sessions.items():
        report = check_zrel(session, count=50)
        assert not report["passed"], spec
        # with one variable every form of nonzero degree reduces to 0, so the
        # dropped factor shows only in the degree-0 classes of a db
        expected = "reduce-d" if session.ring.n > 1 else "z-antisym"
        assert expected in _kinds(report), spec


def test_zrel_catches_a_product_that_keeps_one_term(monkeypatch):
    scale_poly = DifferentialForm.scale_poly

    def first_term_only(form, p):
        if len(p.terms) > 1:
            e, c = next(iter(p.terms.items()))
            p = LaurentPoly._nonzero(p.ring, {e: c})
        return scale_poly(form, p)

    sessions = {spec: load_session(spec) for spec in MUTATION_SPECS}
    monkeypatch.setattr(DifferentialForm, "scale_poly", first_term_only)
    for spec, session in sessions.items():
        report = check_zrel(session, count=50)
        assert not report["passed"], spec
        assert "z-cyclic" in _kinds(report), spec


def test_zrel_catches_a_corrupted_reduction_plan(monkeypatch):
    # every reduction at a degree reads the plan memoised for it, so a wrong
    # plan must show as a failure, not hide behind the cache: at degree
    # (1, 1) slot 2 loses 1 times the pivot entry, and -1 leaves d(s1 s2)
    # reducing to a nonzero class
    session = load_session("a1_untwisted_n2")
    assert check_zrel(session, count=50)["passed"]
    degree = (1, 1)
    assert kaehler._PLANS[degree] == kaehler._reduction_plan(degree) == (0, ((1, 1, 1),))
    monkeypatch.setitem(kaehler._PLANS, degree, (0, ((1, -1, 1),)))
    report = check_zrel(session, count=50)
    assert "reduce-d" in _kinds(report)
    monkeypatch.undo()
    assert check_zrel(session, count=50)["passed"]
