"""Named verification suites over a session, shared by the CLI and the tests.

Every suite returns a JSON-ready dict with a "check" name and a "passed"
flag; randomized suites record the seed they ran with.
"""

from __future__ import annotations

import random

from .cohomology import cocycle_space_report
from .errors import SpecError
from .kaehler import differential, reduce_form
from .laurent import LaurentPoly, LaurentRing
from .session import Session

# conductor -> (field, rows, multiples): rows[k + 9][d - 1] is the scalar k/d
# of that field, and multiples maps (p, k + 9, d - 1) to zeta^p * k/d once drawn
_COEFFICIENTS = {}


def _coefficient_rows(field) -> tuple:
    """The 171 shared scalars k/d (-9 <= k <= 9, 1 <= d <= 9), built once per field."""
    cached = _COEFFICIENTS.get(field.conductor)
    if cached is None or cached[0] is not field:
        rows = tuple(
            tuple(field.scalar(k) / d for d in range(1, 10)) for k in range(-9, 10)
        )
        cached = _COEFFICIENTS[field.conductor] = (field, rows, {})
    return cached[1]


def _drawer(ring: LaurentRing, rng: random.Random, max_terms: int, span: int):
    """A function drawing one random polynomial from rng per call: up to
    max_terms terms with exponents in [-span, span] and coefficients k/d,
    twisted by a power of zeta on about 3 in 10 terms over a field of degree
    above 1.  The set-up is done once here, so a loop of draws pays for it once."""
    field = ring.field
    rows = _coefficient_rows(field)
    width = 2 * span + 1
    conductor = field.conductor
    twist = field.degree > 1
    zeta = field.zeta
    multiples = _COEFFICIENTS[conductor][2]
    variables = range(ring.n)
    bits = rng.getrandbits
    rand = rng.random
    nonzero = LaurentPoly._nonzero
    # randrange and choice draw below n as random.Random._randbelow does:
    # getrandbits(n.bit_length()) until the value is below n.  Inlined, the
    # stream is the same: the term count below max_terms, each exponent below
    # 2 * span + 1, the row of k below 19, d - 1 below 9, and the zeta power
    # below the conductor, as `tests/golden/zrel_draws.json` pins it
    count_bits, exp_bits = max_terms.bit_length(), width.bit_length()
    zeta_bits = conductor.bit_length()

    def draw() -> LaurentPoly:
        count = bits(count_bits)
        while count >= max_terms:
            count = bits(count_bits)
        terms = {}
        for _ in range(count + 1):
            exp = []
            for _ in variables:
                e = bits(exp_bits)
                while e >= width:
                    e = bits(exp_bits)
                exp.append(e - span)
            exp = tuple(exp)
            k = bits(5)
            while k >= 19:
                k = bits(5)
            d = bits(4)
            while d >= 9:
                d = bits(4)
            coeff = rows[k][d]
            if twist and rand() < 0.3:
                power = bits(zeta_bits)
                while power >= conductor:
                    power = bits(zeta_bits)
                key = (power, k, d)
                multiple = multiples.get(key)
                if multiple is None:
                    multiple = multiples[key] = zeta(power) * coeff
                coeff = multiple
            # a repeated exponent adds up, and a zero sum drops it
            if exp in terms:
                coeff = terms[exp] + coeff
            if coeff:
                terms[exp] = coeff
            else:
                terms.pop(exp, None)
        return nonzero(ring, terms)

    return draw


def check_jacobi(session: Session) -> dict:
    """Base-algebra Chevalley integrity plus extension-bracket Jacobi in the window."""
    alg = session.algebra
    alg.verify_chevalley()  # raises on failure; builds are cached-validated
    rep = session.ext.extended_jacobi(session.spec.window)
    return {
        "check": "jacobi",
        "passed": rep["passed"],
        "algebra_dim": alg.dim,
        "extended": rep,
    }


def check_cocycle(session: Session) -> dict:
    rep = session.ext.cocycle_checks(session.spec.window)
    return {"check": "cocycle", "passed": rep["passed"], **rep}


def check_centre(session: Session) -> dict:
    rep = session.ext.centre_window(session.spec.window)
    return {"check": "centre", "passed": rep["passed"], **rep}


def check_perfect(session: Session) -> dict:
    rep = session.ext.perfectness(session.spec.window, session.spec.margin)
    out = {"check": "perfect", "passed": rep["passed"], **rep}
    # witness payloads can be bulky; keep counts plus the failures
    out["witnesses"] = len(rep["witnesses"])
    return out


def check_sandr(session: Session) -> dict:
    rep = session.ext.base_ring_pairs(session.spec.window)
    return {"check": "sandr", "passed": rep["passed"], **rep}


def check_decomposition(session: Session) -> dict:
    rep = session.ext.decomposition(session.spec.window)
    fix = session.ext.lift_fixes_centre(session.spec.window)
    return {
        "check": "decomposition",
        "passed": rep["passed"] and fix["passed"],
        "stability_and_fixed_space": rep,
        "lift_fixes_centre": fix,
    }


def check_zrel(session: Session, count: int = 1000) -> dict:
    """reduce after d vanishes; the three reduction-map identities hold."""
    ring = session.ring
    rng = random.Random(session.spec.seed)
    failures = []
    draw = _drawer(ring, rng, 3, 3)
    for i in range(count):
        p = draw()
        if not reduce_form(differential(p)).is_zero():
            failures.append({"kind": "reduce-d", "index": i})
    one = ring.one
    draw = _drawer(ring, rng, 2, 2)
    for i in range(count):
        a = draw()
        b = draw()
        c = draw()
        da, db = differential(a), differential(b)
        if not reduce_form(da.scale_poly(one)).is_zero():
            failures.append({"kind": "z-a1", "index": i})
        lhs = reduce_form(db.scale_poly(a))
        rhs = reduce_form(da.scale_poly(b))
        if not (lhs + rhs).is_zero():
            failures.append({"kind": "z-antisym", "index": i})
        total = (
            reduce_form(differential(c).scale_poly(a * b))
            + reduce_form(da.scale_poly(b * c))
            + reduce_form(db.scale_poly(c * a))
        )
        if not total.is_zero():
            failures.append({"kind": "z-cyclic", "index": i})
    return {
        "check": "zrel",
        "passed": not failures,
        "count": count,
        "seed": session.spec.seed,
        "failures": failures,
    }


_CHECKS = {
    "jacobi": check_jacobi,
    "cocycle": check_cocycle,
    "centre": check_centre,
    "perfect": check_perfect,
    "sandr": check_sandr,
    "decomposition": check_decomposition,
    "zrel": check_zrel,
}
CHECK_NAMES = tuple(_CHECKS)


def run_checks(session: Session, which: str = "all") -> list:
    if which == "all":
        names = CHECK_NAMES
    elif which in _CHECKS:
        names = (which,)
    else:
        raise SpecError(
            f"unknown check {which!r}; valid: all, {', '.join(CHECK_NAMES)}"
        )
    reports = []
    for name in names:
        rep = _CHECKS[name](session)
        rep.setdefault("window", session.spec.window)
        rep["status"] = "pass" if rep["passed"] else "fail"
        reports.append(rep)
    return reports


def h2_report(session: Session, lam, window: int | None = None) -> dict:
    if window is None:
        window = session.spec.window
    else:
        session.spec.check_window(window)
    rep = cocycle_space_report(session.ext, lam, window)
    rep["seed"] = session.spec.seed
    return rep
