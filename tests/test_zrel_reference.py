"""The arithmetic `zrel` runs on equals the plain routines it replaced.

`kaehler._reduce_vector` reads a reduction plan memoised per degree and
returns one shared zero vector for a one-slot piece it reduces to zero, and
`differential`, `DifferentialForm.scale_poly`, `_add_pieces` and
`LaurentPoly.__mul__` were rewritten for per-call speed.  The plain routines
they replaced are kept here as references, and the fast ones must give the
same pieces and terms, element for element, on two sets of inputs: every
degree of a box in one, two and three variables, and the first second-loop
draws of `check_zrel` on every shipped spec and on a Q(zeta12) ring.
"""

import random
from math import gcd
from operator import add
from pathlib import Path

import pytest

from multiloop import checks, kaehler
from multiloop.cyclotomic import CyclotomicField
from multiloop.kaehler import DifferentialForm, differential
from multiloop.laurent import LaurentRing, box_degrees
from multiloop.session import Session, load_spec

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted(p.stem for p in (ROOT / "specs").glob("*.json"))
BOX = 4  # every degree with |alpha_i| <= 4
DRAWS = 200  # second-loop draws compared per ring
FIRST_LOOP = 1000  # first-loop draws check_zrel makes before them


# -- the references -----------------------------------------------------------


def reference_reduce_vector(ring, degree, vec):
    """The pivot elimination with its own pivot search, divmod and gcd."""
    for p, d in enumerate(degree):
        if d:
            break
    else:
        return vec
    c = vec[p]
    if not c:
        return vec
    out = list(vec)
    for i in range(p + 1, ring.n):
        a = degree[i]
        if a:
            q, r = divmod(a, d)
            if r:
                g = gcd(a, d) if d > 0 else -gcd(a, d)
                out[i] = vec[i] - c._scaled(a // g, d // g)
            else:
                out[i] = vec[i] - c * q
    out[p] = ring.field.zero
    return out


def reference_reduce_form(form) -> dict:
    """The pieces of a form's class: each piece reduced by the reference, the
    all-zero ones dropped."""
    out = {}
    for degree, vec in form.pieces.items():
        reduced = tuple(reference_reduce_vector(form.ring, degree, vec))
        if any(reduced):
            out[degree] = reduced
    return out


def reference_differential(p) -> dict:
    zero = p.ring.field.zero
    return {
        alpha: tuple([c * a if a else zero for a in alpha])
        for alpha, c in p.terms.items()
        if any(alpha)
    }


def reference_scale_poly(form, p) -> dict:
    if len(p.terms) == 1:
        ((e, c),) = p.terms.items()
        if not any(e) and c == form.ring.field.one:
            return form.pieces
        return {
            tuple(map(add, e, degree)): tuple([x * c if x else x for x in vec])
            for degree, vec in form.pieces.items()
        }
    out = {}
    for e, c in p.terms.items():
        for degree, vec in form.pieces.items():
            shifted = tuple(map(add, e, degree))
            cur = out.get(shifted)
            if cur is None:
                out[shifted] = tuple([x * c if x else x for x in vec])
            else:
                total = tuple([t + x * c if x else t for t, x in zip(cur, vec)])
                if any(total):
                    out[shifted] = total
                else:
                    del out[shifted]
    return out


def reference_add_pieces(left: dict, right: dict) -> dict:
    out = dict(left)
    for degree, vec in right.items():
        cur = out.get(degree)
        if cur is None:
            out[degree] = vec
        else:
            total = tuple(map(add, cur, vec))
            if any(total):
                out[degree] = total
            else:
                del out[degree]
    return out


def reference_mul(p, q) -> dict:
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            v = out.get(e)
            if v is None:
                out[e] = c1 * c2
            else:
                v = v + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


# -- comparisons ----------------------------------------------------------------


def assert_reduces_as_reference(ring, degree, vec) -> bool:
    """Whether the reduction gave the ring's shared zero vector, after
    comparing it with the reference."""
    fast = kaehler._reduce_vector(ring, degree, vec)
    reference = reference_reduce_vector(ring, degree, vec)
    assert tuple(fast) == tuple(reference), (degree, vec)
    # reduce_form keeps a vector the reduction leaves as it is, by identity
    assert (fast is vec) == (reference is vec), (degree, vec)
    # and drops the shared zero vector by identity, which exactly a one-slot
    # piece with a nonzero pivot entry reduces to
    p = kaehler.pivot_index(degree)
    shared = fast is ring._zero_vector
    assert shared == (ring.n == 1 and p is not None and bool(vec[p])), (degree, vec)
    return shared


def assert_form_arithmetic_as_reference(a, b):
    """d, the product, p * form for both orders, the reduction of every piece
    and the sum of two classes, each against its reference."""
    ring = a.ring
    da, db = differential(a), differential(b)
    assert da.pieces == reference_differential(a)
    assert db.pieces == reference_differential(b)
    ab = a * b
    assert ab.terms == reference_mul(a, b)
    forms = []
    for form, p in ((da, ring.one), (db, a), (da, b), (db, ab), (da, ab)):
        scaled = form.scale_poly(p)
        assert scaled.pieces == reference_scale_poly(form, p)
        forms.append(scaled)
    for form in forms:
        for degree, vec in form.pieces.items():
            assert_reduces_as_reference(ring, degree, vec)
        assert kaehler.reduce_form(form).pieces == reference_reduce_form(form)
    lhs, rhs = kaehler.reduce_form(forms[1]), kaehler.reduce_form(forms[2])
    for x, y in ((lhs, rhs), (rhs, lhs), (lhs, -lhs), (lhs, kaehler.CentralClass.zero(ring))):
        assert (x + y).pieces == reference_add_pieces(x.pieces, y.pieces)
    for x, y in ((forms[1], forms[2]), (forms[3], -forms[3]), (forms[4], forms[3])):
        assert (x + y).pieces == reference_add_pieces(x.pieces, y.pieces)


# -- every degree of the box ----------------------------------------------------


def box_rings():
    q, q12 = CyclotomicField(1), CyclotomicField(12)
    for n in (1, 2, 3):
        yield f"n{n}-q", LaurentRing(q, (1,) * n)
    for n in (1, 2, 3):
        yield f"n{n}-q12", LaurentRing(q12, (4, 3, 2)[:n])


BOX_RINGS = dict(box_rings())


def box_scalars(field):
    """Nonzero scalars with numerators and denominators that do and do not
    share factors with the degree entries, and two irrational ones where the
    field has them."""
    out = [field.scalar(k) / d for k, d in ((1, 1), (-2, 3), (6, 5), (-7, 4))]
    if field.degree > 1:
        out += [field.zeta(1) * 3 / 2, (field.zeta(1) + field.zeta(5)) / -6]
    return out


@pytest.mark.parametrize("name", sorted(BOX_RINGS))
def test_reduce_vector_equals_the_reference_on_every_degree_of_the_box(name):
    ring = BOX_RINGS[name]
    field, n = ring.field, ring.n
    scalars = box_scalars(field)
    assert ring._zero_vector == (field.zero,) * n
    seen, shared = set(), 0
    for degree in box_degrees(n, BOX):
        p = kaehler.pivot_index(degree)
        for shift in range(len(scalars)):
            full = tuple(scalars[(shift + i) % len(scalars)] for i in range(n))
            shared += assert_reduces_as_reference(ring, degree, full)
            # a zero pivot slot, and a zero slot past the pivot
            for hole in {0 if p is None else p, n - 1}:
                vec = tuple(field.zero if i == hole else x for i, x in enumerate(full))
                if any(vec):
                    shared += assert_reduces_as_reference(ring, degree, vec)
        if p is not None:
            seen.add((degree[p] < 0, any(degree[i] % degree[p] for i in range(p + 1, n))))
    assert degree == (BOX,) * n
    # one variable: every nonzero degree, with each nonzero scalar
    assert shared == (2 * BOX * len(scalars) if n == 1 else 0)
    if n > 1:
        # negative and positive pivots, ratios that do and do not divide
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("name", sorted(BOX_RINGS))
def test_form_arithmetic_equals_the_reference_on_every_degree_of_the_box(name):
    ring = BOX_RINGS[name]
    scalars = box_scalars(ring.field)
    # a fixed two-term and one-term partner, with a constant term in the first
    partner = ring.monomial((0,) * ring.n, scalars[1]) + ring.monomial((1,) * ring.n, scalars[2])
    for i, degree in enumerate(box_degrees(ring.n, BOX)):
        c = scalars[i % len(scalars)]
        mono = ring.monomial(degree, c)
        two = mono + ring.monomial(tuple(-a for a in degree[::-1]), scalars[(i + 3) % len(scalars)])
        assert_form_arithmetic_as_reference(mono, partner)
        assert_form_arithmetic_as_reference(partner, two)
        assert_form_arithmetic_as_reference(two, mono)


# -- the first second-loop draws of check_zrel ----------------------------------


def zrel_rings():
    for spec in SHIPPED:
        yield spec, Session(load_spec(str(ROOT / "specs" / f"{spec}.json"))).ring
    yield "q_zeta12", LaurentRing(CyclotomicField(12), (4, 3))


@pytest.fixture(scope="module")
def draw_rings():
    return dict(zrel_rings())


@pytest.mark.parametrize("name", SHIPPED + ["q_zeta12"])
def test_zrel_second_loop_arithmetic_equals_the_reference(name, draw_rings):
    ring = draw_rings[name]
    rng = random.Random(0)
    draw = checks._drawer(ring, rng, 3, 3)
    for _ in range(FIRST_LOOP):
        draw()
    draw = checks._drawer(ring, rng, 2, 2)
    for _ in range(DRAWS):
        a, b, c = draw(), draw(), draw()
        for x, y in ((a, b), (b, c), (c, a)):
            assert_form_arithmetic_as_reference(x, y)
        # the z-cyclic sum, as check_zrel forms it
        classes = [
            kaehler.reduce_form(differential(z).scale_poly(x * y))
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
        ]
        partial = reference_add_pieces(classes[0].pieces, classes[1].pieces)
        assert (classes[0] + classes[1] + classes[2]).pieces == reference_add_pieces(
            partial, classes[2].pieces
        )
        assert isinstance(classes[0], kaehler.CentralClass)
        assert isinstance(differential(a).scale_poly(b), DifferentialForm)
