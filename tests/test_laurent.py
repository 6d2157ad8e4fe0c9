import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiloop.cyclotomic import CyclotomicField
from multiloop.errors import MismatchError
from multiloop.laurent import GaloisElement, LaurentRing, box_degrees

from tests.conftest import from_terms, identity, in_base_ring


def ring_m2():
    return LaurentRing(CyclotomicField(2), (2,))


def ring_m23():
    return LaurentRing(CyclotomicField(6), (2, 3))


def t(ring, i):
    """t_i = s_i^{m_i}, a generator of the base ring R."""
    return ring.s(i, ring.orders[i])


def random_polys(ring, max_terms=3, span=3):
    coeff = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
    term = st.tuples(
        st.tuples(*(st.integers(-span, span) for _ in range(ring.n))), coeff
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(lambda terms: from_terms(ring, terms))


def test_monomial_inverse():
    ring = ring_m2()
    s = ring.s(0)
    assert s * ring.s(0, -1) == ring.one


def test_difference_of_squares():
    ring = ring_m2()
    s = ring.s(0)
    assert (s + ring.one) * (s - ring.one) == s * s - ring.one


def test_t_variables_are_s_powers():
    ring = ring_m23()
    assert t(ring, 0) * t(ring, 1) == ring.monomial((2, 3))


def test_galois_flips_sign():
    ring = ring_m2()
    g = ring.group.generator(0)
    assert ring.s(0).galois(g) == -1 * ring.s(0)
    assert t(ring, 0).galois(g) == t(ring, 0)
    p = ring.s(0) + ring.monomial((2,))
    assert p.galois(g) == -1 * ring.s(0) + ring.monomial((2,))


def test_in_base_ring():
    ring = ring_m2()
    assert in_base_ring(ring.monomial((2,)))
    assert not in_base_ring(ring.s(0))
    ring2 = ring_m23()
    assert in_base_ring(ring2.monomial((2, -3)))
    assert not in_base_ring(ring2.monomial((2, -2)))


def test_shape_mismatch_rejected():
    with pytest.raises(MismatchError):
        ring_m2().one + ring_m23().one
    other = LaurentRing(CyclotomicField(2), (2,))
    assert ring_m2().one == other.one  # equal shapes are interchangeable


def test_galois_element_length_checked():
    group = ring_m23().group
    with pytest.raises(MismatchError):
        GaloisElement(group, (1, 1, 1))
    with pytest.raises(MismatchError):
        GaloisElement(group, (1,))
    assert GaloisElement(group, (3, 4)).components == (1, 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms(data):
    ring = ring_m23()
    p = data.draw(random_polys(ring))
    q = data.draw(random_polys(ring))
    r = data.draw(random_polys(ring))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + ring.zero == p
    assert p * ring.one == p


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_galois_group_law(data):
    ring = ring_m23()
    group = ring.group
    p = data.draw(random_polys(ring))
    g = GaloisElement(group, (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))))
    h = GaloisElement(group, (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))))
    assert p.galois(h).galois(g) == p.galois(g + h)
    assert p.galois(identity(group)) == p


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fixed_ring_characterization(data):
    ring = ring_m23()
    p = data.draw(random_polys(ring))
    fixed = all(p.galois(g) == p for g in ring.group.elements())
    assert fixed == in_base_ring(p)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_group_average_lands_in_base_ring(data):
    ring = ring_m23()
    p = data.draw(random_polys(ring))
    total = ring.zero
    for g in ring.group.elements():
        total = total + p.galois(g)
    avg = total * Fraction(1, ring.group.order())
    assert in_base_ring(avg)


def test_box_degrees():
    assert box_degrees(1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(box_degrees(2, 1)) == 9


def test_str_examples():
    ring = ring_m23()
    p = from_terms(
        ring,
        [((-2, 3), Fraction(3, 2)), ((0, 0), Fraction(-1)), ((1, 0), ring.field.zeta())]
    )
    assert str(p) == "3/2*s1^-2*s2^3 - 1 + (z)*s1"
    assert str(ring.zero) == "0"
    assert str(ring.monomial((-2, 3), Fraction(3, 2))) == "3/2*s1^-2*s2^3"


def test_str_of_cyclotomic_coefficients():
    ring = LaurentRing(CyclotomicField(4), (4,))
    z = ring.field.zeta()
    p = ring.monomial((1,), 1 - z) + ring.monomial((-2,), z)
    assert str(p) == "(z)*s1^-2 + (1 - z)*s1"
