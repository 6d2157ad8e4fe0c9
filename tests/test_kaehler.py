import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiloop import linalg
from multiloop.cyclotomic import CyclotomicField
from multiloop.errors import MismatchError
from multiloop.kaehler import (
    CentralClass,
    DifferentialForm,
    base_ring_classes_at,
    central_slots,
    class_basis_at,
    differential,
    invariant_class_basis,
    reduce_form,
    slot_indices,
)
from multiloop.laurent import LaurentRing, box_degrees

from tests.conftest import from_terms, invariant_matches_base_image


def ring_n1(m=1, conductor=None):
    return LaurentRing(CyclotomicField(conductor or m), (m,))


def ring_n2():
    return LaurentRing(CyclotomicField(1), (1, 1))


def random_polys(ring, max_terms=3, span=3):
    coeff = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
    term = st.tuples(
        st.tuples(*(st.integers(-span, span) for _ in range(ring.n))), coeff
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(lambda terms: from_terms(ring, terms))


def test_differential_examples():
    ring = ring_n1()
    d = differential(ring.monomial((2,)))
    assert d.comps[0] == ring.monomial((1,), 2)
    assert differential(ring.one).is_zero()
    ring2 = ring_n2()
    d12 = differential(ring2.monomial((1, 1)))
    assert d12.comps[0] == ring2.monomial((0, 1))
    assert d12.comps[1] == ring2.monomial((1, 0))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_leibniz(data):
    ring = ring_n2()
    p = data.draw(random_polys(ring, span=2))
    q = data.draw(random_polys(ring, span=2))
    lhs = differential(p * q)
    rhs = differential(q).scale_poly(p) + differential(p).scale_poly(q)
    assert lhs == rhs


def test_reduce_examples():
    ring = ring_n1()
    # t^3 dt is exact
    exact = DifferentialForm(ring, (ring.monomial((3,)),))
    assert reduce_form(exact).is_zero()
    # t^-1 dt is the degree-0 basis class
    cls = reduce_form(DifferentialForm(ring, (ring.monomial((-1,)),)))
    assert cls == class_basis_at(ring, (0,))[0]
    # n=2: class(t2 dt1) = -class(t1 dt2), via the degree-(1,1) relation
    ring2 = ring_n2()
    f12 = DifferentialForm(ring2, (ring2.monomial((0, 1)), ring2.zero))
    f21 = DifferentialForm(ring2, (ring2.zero, ring2.monomial((1, 0))))
    assert reduce_form(f12) == -1 * reduce_form(f21)
    assert not reduce_form(f12).is_zero()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_after_differential_vanishes(data):
    ring = ring_n2()
    p = data.draw(random_polys(ring))
    assert reduce_form(differential(p)).is_zero()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduction_identities(data):
    ring = ring_n2()
    a = data.draw(random_polys(ring, max_terms=2, span=2))
    b = data.draw(random_polys(ring, max_terms=2, span=2))
    c = data.draw(random_polys(ring, max_terms=2, span=2))
    assert reduce_form(differential(ring.one).scale_poly(a)).is_zero()
    assert (
        reduce_form(differential(b).scale_poly(a))
        + reduce_form(differential(a).scale_poly(b))
    ).is_zero()
    total = (
        reduce_form(differential(c).scale_poly(a * b))
        + reduce_form(differential(a).scale_poly(b * c))
        + reduce_form(differential(b).scale_poly(c * a))
    )
    assert total.is_zero()


def test_graded_dimension_law():
    ring = ring_n2()
    for degree in box_degrees(2, 2):
        # span of all monomial forms of this degree, reduced
        vecs = []
        slots = slot_indices(ring, degree)
        for i in range(ring.n):
            exp = tuple(d - (1 if j == i else 0) for j, d in enumerate(degree))
            form_comps = [ring.zero] * ring.n
            form_comps[i] = ring.monomial(exp)
            cls = reduce_form(DifferentialForm(ring, tuple(form_comps)))
            vec = cls.component(degree)
            vecs.append([vec[t] for t in slots])
        expect = len(central_slots(ring, degree))
        assert linalg.rank(vecs, ring.field) == expect
        assert expect == (2 if not any(degree) else 1)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduce_is_galois_equivariant(data):
    ring = LaurentRing(CyclotomicField(6), (2, 3))
    coeff = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)
    comps = []
    for _ in range(2):
        terms = data.draw(
            st.lists(
                st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeff),
                max_size=2,
            )
        )
        comps.append(from_terms(ring, terms))
    form = DifferentialForm(ring, tuple(comps))
    for g in ring.group.elements():
        assert reduce_form(form.galois(g)) == reduce_form(form).galois(g)


def test_class_galois_examples():
    ring = ring_n1(2)
    g = ring.group.generator(0)
    # degree-0 class of s^-1 ds is fixed
    c = reduce_form(DifferentialForm(ring, (ring.monomial((-1,)),)))
    assert c.galois(g) == c
    # ds is exact already
    assert reduce_form(DifferentialForm(ring, (ring.one,))).is_zero()
    # degree -2 class of s^-3 ds is fixed (degree in 2Z)
    c2 = reduce_form(DifferentialForm(ring, (ring.monomial((-3,)),)))
    assert c2.galois(g) == c2
    # degree 1 class of s^-1 ds ... s^0 ds has degree 1 and is exact; use
    # a two-variable check instead for a non-fixed class
    ring2 = LaurentRing(CyclotomicField(2), (2, 1))
    g2 = ring2.group.generator(0)
    odd = reduce_form(
        DifferentialForm(ring2, (ring2.zero, ring2.monomial((1, -1))))
    )  # degree (1,0): not in the base lattice
    assert odd.galois(g2) == -1 * odd


def test_invariant_class_windows():
    # n=1, m=2, |deg| <= 2: only degree 0 survives, dimension 1
    ring = ring_n1(2)
    basis = invariant_class_basis(ring, 2)
    assert len(basis) == 1 and basis[0].degrees() == [(0,)]
    # n=1, m=1, |deg| <= 3: dimension n-1 = 0 away from 0, so just degree 0
    ring1 = ring_n1(1)
    assert len(invariant_class_basis(ring1, 3)) == 1
    # n=2, m=(1,1), |deg_i| <= 1: 2 at the origin plus 1 per nonzero degree
    ring2 = ring_n2()
    basis2 = invariant_class_basis(ring2, 1)
    assert len(basis2) == 2 + 8


@pytest.mark.parametrize(
    "orders,conductor,window",
    [((1,), 1, 3), ((2,), 2, 4), ((1, 1), 1, 2), ((2, 3), 6, 3)],
)
def test_invariant_equals_base_image(orders, conductor, window):
    ring = LaurentRing(CyclotomicField(conductor), orders)
    assert invariant_matches_base_image(ring, window)


def test_base_ring_classes_live_at_their_degree():
    ring = ring_n1(2)
    (cls,) = base_ring_classes_at(ring, (0,))
    assert cls.degrees() == [(0,)]
    # t^-1 dt = 2 s^-1 ds: twice the canonical basis class
    assert cls == class_basis_at(ring, (0,))[0] * 2


def test_class_serialization():
    ring = ring_n2()
    c = class_basis_at(ring, (1, 1))[0] * Fraction(3, 2)
    assert c.pieces == {(1, 1): (ring.field.zero, ring.field.scalar(Fraction(3, 2)))}
    assert c.to_text() == "3/2 * s^(1, 0) ds2 (mod dS)"
    assert CentralClass.zero(ring).to_text() == "0 (mod dS)"


def test_pivot_convention():
    ring = ring_n2()
    # at degree (1,1) the pivot is index 0, so only slot 1 survives
    assert slot_indices(ring, (1, 1)) == [1]
    assert slot_indices(ring, (0, 2)) == [0]
    assert slot_indices(ring, (0, 0)) == [0, 1]
    with pytest.raises(ValueError):
        CentralClass.basis_class(ring, (1, 1), 0)


# -- the graded storage of forms ----------------------------------------------


def ring_23():
    return LaurentRing(CyclotomicField(6), (2, 3))


def random_forms(ring, max_terms=3, span=2):
    return st.tuples(*(random_polys(ring, max_terms, span) for _ in range(ring.n))).map(
        lambda comps: DifferentialForm(ring, comps)
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_form_components_round_trip(data):
    ring = ring_n2()
    comps = data.draw(st.tuples(random_polys(ring), random_polys(ring)))
    form = DifferentialForm(ring, comps)
    assert form.comps == comps
    assert DifferentialForm(ring, form.comps) == form
    # pieces: degree beta + e_i holds the coefficient of s^beta ds_i in slot i
    for degree, vec in form.pieces.items():
        assert any(vec)
        for i, c in enumerate(vec):
            beta = tuple(a - (j == i) for j, a in enumerate(degree))
            assert comps[i].terms.get(beta, ring.field.zero) == c


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_form_galois_is_the_per_component_definition(data):
    # ^g(f ds_i) = (^g f) * zeta_{m_i}^{g_i} ds_i, with ^g f from LaurentPoly.galois
    ring = ring_23()
    form = data.draw(random_forms(ring))
    for g in ring.group.elements():
        expected = tuple(
            f.galois(g) * ring.field.root_of_unity(m, gi)
            for f, m, gi in zip(form.comps, ring.orders, g.components)
        )
        assert form.galois(g).comps == expected


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scale_poly_is_the_per_component_product(data):
    ring = ring_n2()
    form = data.draw(random_forms(ring))
    p = data.draw(random_polys(ring))
    assert form.scale_poly(p).comps == tuple(p * f for f in form.comps)
    # products that cancel leave no stored zero vector
    assert form.scale_poly(p).scale_poly(ring.zero).is_zero()
    assert (form.scale_poly(p) + form.scale_poly(-p)).pieces == {}


@pytest.mark.parametrize("ring", [ring_n1(), ring_n2(), ring_23()], ids=["n1", "n2", "23"])
def test_differential_of_a_constant_is_the_zero_form(ring):
    for value in (1, Fraction(-3, 2), 0):
        form = differential(ring.scalar_poly(value))
        assert form.is_zero() and form.pieces == {}
        assert form == DifferentialForm(ring, [ring.zero] * ring.n)
    # the constant term of a polynomial adds nothing to its differential
    p = ring.monomial((1,) * ring.n, 2)
    assert differential(p + ring.scalar_poly(5)) == differential(p)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_form_add_and_neg_cancel(data):
    ring = ring_n2()
    form = data.draw(random_forms(ring))
    other = data.draw(random_forms(ring))
    assert (form + (-form)).is_zero()
    assert (form - form).is_zero() and (form * 0).is_zero()
    assert ((form + other) - other) == form
    assert (form + other).comps == tuple(f + h for f, h in zip(form.comps, other.comps))
    assert (-form).comps == tuple(-f for f in form.comps)


def test_form_operations_refuse_a_foreign_ring():
    ring, other = ring_23(), LaurentRing(CyclotomicField(6), (3, 2))
    form = differential(ring.monomial((1, 1)))
    with pytest.raises(MismatchError):
        form.scale_poly(other.monomial((1, 0)))
    with pytest.raises(MismatchError):
        form.galois(other.group.generator(0))
    with pytest.raises(MismatchError):
        form + differential(other.monomial((1, 1)))
    with pytest.raises(MismatchError):
        form == differential(other.monomial((1, 1)))
    with pytest.raises(MismatchError):
        DifferentialForm(ring, (ring.one, other.one))


# -- the shared graded base of forms and classes --------------------------------


def test_forms_and_classes_do_not_mix():
    ring = ring_n2()
    form = differential(ring.monomial((1, 2)))
    cls = class_basis_at(ring, (1, 2))[0]
    with pytest.raises(MismatchError):
        form + cls
    with pytest.raises(MismatchError):
        cls + form
    with pytest.raises(MismatchError):
        cls == form
    with pytest.raises(MismatchError):
        form - cls


def test_class_galois_refuses_a_foreign_group():
    ring, other = ring_23(), LaurentRing(CyclotomicField(6), (3, 2))
    cls = class_basis_at(ring, (2, 3))[0]
    assert cls.galois(ring.group.generator(0)) == cls
    with pytest.raises(MismatchError):
        cls.galois(other.group.generator(0))


def test_forms_and_classes_have_no_instance_dict():
    ring = ring_n2()
    for x in (differential(ring.monomial((1, 1))), class_basis_at(ring, (0, 0))[0]):
        assert not hasattr(x, "__dict__")
        with pytest.raises(AttributeError):
            x.extra = 1


def test_equal_classes_hash_equal():
    ring = ring_n2()
    # s2 ds1 and -s1 ds2 differ by d(s1 s2), so their classes agree
    a = reduce_form(DifferentialForm(ring, (ring.monomial((0, 1)), ring.zero)))
    b = reduce_form(DifferentialForm(ring, (ring.zero, ring.monomial((1, 0), -1))))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a * 2, b + b}) == 2
    basis = class_basis_at(ring, (1, 1))[0]
    assert hash(basis * Fraction(1, 2) + basis * Fraction(1, 2)) == hash(basis)
