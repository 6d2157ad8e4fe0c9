import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiloop.cyclotomic import (
    CyclotomicField,
    _poly_divmod,
    cyclotomic_polynomial,
    root_of_unity,
)
from multiloop.errors import MismatchError
from multiloop.session import MAX_CONDUCTOR

CONDUCTORS = [1, 2, 3, 4, 6, 12]


def to_complex(x) -> complex:
    """The embedding of Q(zeta_M) into C with zeta_M -> exp(2 pi i / M)."""
    m = x.field.conductor
    return sum(complex(c) * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(x.coeffs))


def field_elements(conductor):
    field = CyclotomicField(conductor)
    coeff = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
    )
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(
        field.from_coeffs
    )


def test_minimal_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert len(cyclotomic_polynomial(12)) - 1 == CyclotomicField(12).degree == 4


def test_i_squared():
    field = CyclotomicField(4)
    i = field.zeta()
    assert (1 + i) * (1 - i) == field.scalar(2)
    assert i * i == field.scalar(-1)


def test_zeta3_minimal_polynomial():
    field = CyclotomicField(3)
    w = field.zeta()
    assert (w * w + w + 1).is_zero()


def test_root_of_unity_values():
    assert root_of_unity(2, 1) == CyclotomicField(2).scalar(-1)
    assert root_of_unity(3, 1) ** 3 == CyclotomicField(3).one
    assert root_of_unity(4, 2) == CyclotomicField(4).scalar(-1)


def test_root_of_unity_order():
    one = CyclotomicField(12).one
    z = root_of_unity(12, 1)
    assert z**12 == one and all(z**j != one for j in range(1, 12))
    w = root_of_unity(12, 4)  # order 12/gcd(12,4)
    assert w**3 == one and w != one and w**2 != one
    for j in range(1, 12):
        assert root_of_unity(12, j) != one


def test_bad_conductor():
    with pytest.raises(ValueError):
        CyclotomicField(0)
    with pytest.raises(ValueError):
        root_of_unity(-3)


def test_conductor_mismatch_rejected():
    a = CyclotomicField(4).zeta()
    b = CyclotomicField(3).zeta()
    with pytest.raises(MismatchError):
        a + b
    with pytest.raises(MismatchError):
        a == b


def test_division_by_zero():
    field = CyclotomicField(4)
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero


def euclid_inverse(field, a):
    """1/a by the extended Euclidean algorithm in Q[x] against the cyclotomic
    polynomial: the reference for the field's inverse."""
    r0, r1 = [Fraction(c) for c in field.minpoly], list(a.coeffs)
    s0, s1 = [], [Fraction(1)]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            inv = 1 / r1[0]
            out = [c * inv for c in s1]
            out += [Fraction(0)] * (field.degree - len(out))
            return field.from_coeffs(out[: field.degree])
        q, rem = _poly_divmod(r0, r1)
        # s_new = s0 - q*s1
        s_new = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s_new[i + j] -= qi * sj
        r0, r1 = r1, rem
        s0, s1 = s1, s_new


@pytest.mark.parametrize("conductor", [1, 3, 12])
def test_rational_inverse_fast_path_matches_euclid(conductor):
    field = CyclotomicField(conductor)
    values = [1, -1, 3, -3, 12, -7]
    values += [Fraction(1, 3), Fraction(-2, 9), Fraction(15, 4), Fraction(-5, 6)]
    for value in values:
        a = field.scalar(value)
        fast, euclid = field._inv(a), euclid_inverse(field, a)
        assert (fast.num, fast.den) == (euclid.num, euclid.den)
        assert fast.den > 0
        assert a.inverse() == fast == field.one / a == field.scalar(1 / Fraction(value))
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        1 / field.zero


def test_norm_inverse_matches_euclid_at_every_conductor():
    # dense elements while the degree is small; past it, at most three
    # nonzero coefficients, which keep the Euclidean reference fast
    rng = random.Random(7)
    for conductor in range(1, MAX_CONDUCTOR + 1):
        field = CyclotomicField(conductor)
        degree = field.degree
        for _ in range(3):
            coeffs = [Fraction(0)] * degree
            slots = range(degree) if degree <= 6 else rng.sample(range(degree), 3)
            for i in slots:
                coeffs[i] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            a = field.from_coeffs(coeffs)
            if not a:
                continue
            inv, ref = a.inverse(), euclid_inverse(field, a)
            assert (inv.num, inv.den) == (ref.num, ref.den), conductor
            assert a * inv == field.one, conductor
            assert _is_canonical(inv)


def _is_canonical(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("conductor", [1, 3, 12])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_int_fast_paths_are_exact_and_canonical(conductor, data):
    field = CyclotomicField(conductor)
    x = data.draw(field_elements(conductor))
    for k in [0, 1, -1, 6, -6, 10**30]:
        scalar = field.scalar(k)
        for product in (x * k, k * x):
            assert product == x * scalar
            assert product.coeffs == tuple(c * k for c in x.coeffs)
            assert _is_canonical(product)
        if k:
            quotient = x / k
            assert quotient == x * scalar.inverse()
            assert quotient.coeffs == tuple(c / k for c in x.coeffs)
            assert _is_canonical(quotient)
    with pytest.raises(ZeroDivisionError):
        x / 0


def convolved(x, y):
    """x * y by convolving the Fraction coefficients and folding the product
    modulo the cyclotomic polynomial: the reference for the field product."""
    field = x.field
    conv = [Fraction(0)] * (2 * field.degree - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            conv[i + j] += a * b
    _, rem = _poly_divmod(conv, list(cyclotomic_polynomial(field.conductor)))
    return field.from_coeffs(rem + [Fraction(0)] * (field.degree - len(rem)))


@pytest.mark.parametrize("conductor", [1, 3, 4, 5, 12])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.fractions(min_value=-50, max_value=50, max_denominator=60))
def test_product_fast_paths_match_the_convolution(conductor, data, k):
    # degree 1 reduces its one product inline; past it a rational factor
    # scales the other's numerators; both must give the canonical product
    field = CyclotomicField(conductor)
    x, y = data.draw(field_elements(conductor)), data.draw(field_elements(conductor))
    rational = field.scalar(k)
    for a, b in [(x, rational), (rational, x), (rational, rational), (x, y), (x, field.zero)]:
        product = a * b
        want = convolved(a, b)
        assert (product.num, product.den) == (want.num, want.den)
        assert _is_canonical(product)


@pytest.mark.parametrize("conductor", [1, 2])
@settings(max_examples=40, deadline=None)
@given(
    a=st.fractions(max_denominator=60),
    b=st.fractions(max_denominator=60),
    k=st.integers(-20, 20),
)
def test_degree_one_add_and_sub_match_fractions(conductor, a, b, k):
    field = CyclotomicField(conductor)
    x, y = field.scalar(a), field.scalar(b)
    cases = [(x + y, a + b), (x - y, a - b), (y - x, b - a), (x + k, a + k), (k - x, k - a)]
    for got, want in cases:
        assert (got.num, got.den) == ((want.numerator,), want.denominator)


@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_axioms(conductor, data):
    field = CyclotomicField(conductor)
    a = data.draw(field_elements(conductor))
    b = data.draw(field_elements(conductor))
    c = data.draw(field_elements(conductor))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + field.zero == a
    assert a * field.one == a
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == field.one


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_canonical_equality(conductor):
    # same value reached along different routes has identical coefficients
    field = CyclotomicField(conductor)
    z = field.zeta()
    lhs = (z + 1) * (z + 1)
    rhs = z * z + 2 * z + 1
    assert lhs == rhs
    assert lhs.coeffs == rhs.coeffs


@pytest.mark.parametrize("conductor", [1, 3, 12])
def test_rational_elements_hash_like_equal_rationals(conductor):
    field = CyclotomicField(conductor)
    for value in (0, 1, -2, Fraction(3, 4), Fraction(-7, 6)):
        x = field.scalar(value)
        assert x == value and hash(x) == hash(value)
    assert len({field.one, 1}) == 1
    assert len({field.scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1


def test_float_embedding_homomorphism():
    rng = random.Random(0)
    field = CyclotomicField(12)
    for _ in range(100):
        a = field.from_coeffs([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.degree)])
        b = field.from_coeffs([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.degree)])
        lhs = to_complex(a * b)
        rhs = to_complex(a) * to_complex(b)
        assert abs(lhs - rhs) < 1e-9


def test_embedding_is_primitive_root():
    z = root_of_unity(12)
    assert abs(to_complex(z) - cmath.exp(2j * cmath.pi / 12)) < 1e-12


@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_string_round_trip(conductor, data):
    field = CyclotomicField(conductor)
    a = data.draw(field_elements(conductor))
    assert field.parse(str(a)) == a


def test_string_examples():
    field = CyclotomicField(4)
    assert str(field.zero) == "0"
    assert str(field.scalar(Fraction(-3, 2))) == "-3/2"
    x = field.from_coeffs([Fraction(1, 2), Fraction(-2)])
    assert str(x) == "1/2 - 2*z"
    assert field.parse("1/2 - 2*z") == x
    assert field.parse("-z") == -field.zeta()


@pytest.mark.parametrize("text", ["1/0", "0.5"])
def test_parse_rejects_malformed_scalars(text):
    with pytest.raises(ValueError):
        CyclotomicField(4).parse(text)


def test_power_and_negative_power():
    field = CyclotomicField(6)
    z = field.zeta()
    assert z ** 6 == field.one
    assert z ** -1 == z ** 5
    assert (z ** 0) == field.one
