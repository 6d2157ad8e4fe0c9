"""Exact arithmetic in cyclotomic number fields Q(zeta_M).

A scalar is a vector of rationals in the power basis 1, z, ..., z^(phi(M)-1),
fully reduced modulo the M-th cyclotomic polynomial.  It is stored as a tuple
of int numerators over one positive int denominator, with the gcd of all of
them equal to 1, so the form is canonical and equality is coefficient-wise.
The cyclotomic polynomial is monic with integer coefficients, so products
reduce with integer arithmetic only.  All arithmetic stays inside one ambient
conductor M; mixing conductors raises MismatchError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .errors import MismatchError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_divmod(num, den):
    """Exact division of rational coefficient lists (lowest degree first)."""
    num = list(num)
    q = [_ZERO] * max(len(num) - len(den) + 1, 0)
    inv_lead = 1 / den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] * inv_lead
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    while len(num) >= len(den):
        assert num.pop() == 0
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    if m == 1:
        return (Fraction(-1), _ONE)
    num = [_ZERO] * (m + 1)
    num[0], num[m] = Fraction(-1), _ONE  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not any(rem)
    return tuple(num)


class CyclotomicField:
    """The field Q(zeta_M), with zeta_M represented by the power-basis symbol z."""

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError(f"conductor must be a positive integer, got {conductor}")
        self.conductor = conductor
        # monic with integer coefficients, lowest degree first
        self.minpoly = tuple(int(c) for c in cyclotomic_polynomial(conductor))
        self.degree = d = len(self.minpoly) - 1  # phi(conductor)
        # nonzero (i, c) of x^k mod minpoly for d <= k <= 2*d - 2, to fold products
        fold = []
        cur = [0] * (d - 1) + [1]
        for _ in range(d - 1):
            cur = self._shift_reduce(cur)
            fold.append(tuple((i, c) for i, c in enumerate(cur) if c))
        self._fold = tuple(fold)
        self._tail = (0,) * (d - 1)
        self.zero = CyclotomicNumber(self, (0,) * d, 1)
        self.one = CyclotomicNumber(self, (1,) + self._tail, 1)
        self._zeta_powers = None
        self._zeta_terms = None  # nonzero (index, value) of each zeta power

    def _shift_reduce(self, coeffs):
        # multiply by x, reduce the overflowing top coefficient
        top = coeffs[-1]
        out = [0] + list(coeffs[:-1])
        if top:
            for i in range(self.degree):
                out[i] -= top * self.minpoly[i]
        return out

    def __repr__(self):
        return f"CyclotomicField({self.conductor})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("CyclotomicField", self.conductor))

    # -- constructors ------------------------------------------------------

    def scalar(self, value) -> "CyclotomicNumber":
        if isinstance(value, CyclotomicNumber):
            if value.field.conductor != self.conductor:
                raise MismatchError(
                    f"conductor mismatch: {value.field.conductor} vs {self.conductor}"
                )
            return value
        if type(value) is int:
            return CyclotomicNumber(self, (value,) + self._tail, 1)
        q = Fraction(value)
        return CyclotomicNumber(self, (q.numerator,) + self._tail, q.denominator)

    def from_coeffs(self, coeffs) -> "CyclotomicNumber":
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(coeffs)}")
        return self._from_fractions(coeffs)

    def _from_fractions(self, coeffs) -> "CyclotomicNumber":
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in coeffs))
        num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        return CyclotomicNumber(self, num, den)

    def zeta(self, power: int = 1) -> "CyclotomicNumber":
        """zeta_M^power in canonical form; the M powers are built on first use."""
        if self._zeta_powers is None:
            cur, powers = list(self.one.num), []
            for _ in range(self.conductor):
                powers.append(CyclotomicNumber(self, tuple(cur), 1))
                cur = self._shift_reduce(cur)
            self._zeta_powers = tuple(powers)
        return self._zeta_powers[power % self.conductor]

    def root_of_unity(self, order: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_order^power, embedded via zeta_order = zeta_M^(M/order)."""
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        if self.conductor % order != 0:
            raise MismatchError(
                f"order {order} does not divide the ambient conductor {self.conductor}"
            )
        return self.zeta((self.conductor // order) * power)

    # -- inverse -------------------------------------------------------------

    def _inv(self, a: "CyclotomicNumber") -> "CyclotomicNumber":
        if not any(a.num):
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if not any(a.num[1:]):
            # rational: den/n0, already coprime; the sign moves to the numerator
            n0, den = a.num[0], a.den
            if n0 < 0:
                n0, den = -n0, -den
            return CyclotomicNumber(self, (den,) + self._tail, n0)
        return self._norm_inv(a)

    def _product(self, a: tuple, b: tuple) -> tuple:
        """Integer numerators of the product of two integer numerator tuples:
        a convolution, then x^k (k >= d) folded back into the basis."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        for k, fold in enumerate(self._fold, d):
            ck = conv[k]
            if ck:
                for i, c in fold:
                    conv[i] += ck * c
        return tuple(conv[:d])

    def _norm_inv(self, a: "CyclotomicNumber") -> "CyclotomicNumber":
        # 1/a = b / (a * b), with b the product of the conjugates sigma_k(a)
        # over the units k != 1 mod M (sigma_k sends z to z^k): a * b is the
        # norm of a, a nonzero rational.  The units are taken a coset at a
        # time: if H holds the units reached so far and g^r is the first power
        # of a new unit g in H, the norm over H<g> is the product of
        # sigma_(g^j) of the norm over H for j < r.  All on the integer
        # numerators of a, whose denominator comes back at the end
        M, num = self.conductor, a.num
        b, reached = self.one.num, {1}
        for g in range(2, M):
            if g in reached or gcd(g, M) != 1:
                continue
            r, power = 1, g
            while power not in reached:
                r, power = r + 1, power * g % M
            orbit = self._orbit_product(self._product(num, b), g, r - 1)
            b = self._product(b, self._conjugate(orbit, g))
            reached = {x * pow(g, j, M) % M for x in reached for j in range(r)}
        return _reduced(self, tuple([c * a.den for c in b]), self._product(num, b)[0])

    def _orbit_product(self, y: tuple, g: int, t: int) -> tuple:
        """prod of sigma_(g^j)(y) over 0 <= j < t, by halving t."""
        if t == 1:
            return y
        half = self._orbit_product(y, g, t // 2)
        out = self._product(half, self._conjugate(half, pow(g, t // 2, self.conductor)))
        return self._product(y, self._conjugate(out, g)) if t % 2 else out

    def _conjugate(self, y: tuple, k: int) -> tuple:
        """sigma_k(y) = sum y_i z^(i*k) on integer numerators, from the nonzero
        entries of the stored zeta powers."""
        if self._zeta_terms is None:
            self._zeta_terms = tuple(
                tuple((j, c) for j, c in enumerate(self.zeta(p).num) if c)
                for p in range(self.conductor)
            )
        terms, M = self._zeta_terms, self.conductor
        out = [0] * self.degree
        for i, c in enumerate(y):
            if c:
                for j, z in terms[i * k % M]:
                    out[j] += c * z
        return tuple(out)

    def parse(self, text: str) -> "CyclotomicNumber":
        """Parse the canonical string form, e.g. "1/2 - 3*z + z^2"."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        coeffs = [_ZERO] * self.degree
        for term in s.split("+"):
            if not term:
                raise ValueError(f"malformed scalar string {text!r}")
            sign = 1
            if term.startswith("-"):
                sign, term = -1, term[1:]
            m = re.fullmatch(r"(?:(\d+(?:/\d+)?))?(?:\*?(z)(?:\^(\d+))?)?", term)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"malformed scalar term {term!r} in {text!r}")
            try:
                coeff = Fraction(m.group(1)) if m.group(1) else _ONE
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
            if m.group(2) is None:
                power = 0
            else:
                power = int(m.group(3)) if m.group(3) else 1
            if power >= self.degree:
                raise ValueError(
                    f"power z^{power} exceeds field degree {self.degree} in {text!r}"
                )
            coeffs[power] += sign * coeff
        return self._from_fractions(coeffs)


def _reduced(field, num, den):
    """num/den in canonical form: den > 0 and gcd(den, *num) == 1."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return CyclotomicNumber(field, num, den)


class CyclotomicNumber:
    """An element of Q(zeta_M): power-basis numerators `num` over `den`.  Immutable.

    Instances are built only in canonical form (see `_reduced`); use the
    field's constructors rather than calling this class directly.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """Power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.field.conductor != self.field.conductor:
                raise MismatchError(
                    f"conductor mismatch: {self.field.conductor} vs {other.field.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        if other.__class__ is not CyclotomicNumber or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.den, other.den
        if self.field.degree == 1:
            # over Q: one int pair and one gcd
            if d1 == d2:
                n = self.num[0] + other.num[0]
            else:
                n, d1 = self.num[0] * d2 + other.num[0] * d1, d1 * d2
            if d1 != 1:
                g = gcd(d1, n)
                if g != 1:
                    n //= g
                    d1 //= g
            return CyclotomicNumber(self.field, (n,), d1)
        if d1 == d2:
            num = tuple(map(add, self.num, other.num))
            if d1 == 1:
                return CyclotomicNumber(self.field, num, 1)
            return _reduced(self.field, num, d1)
        num = tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num))
        return _reduced(self.field, num, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        if other.__class__ is not CyclotomicNumber or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.den, other.den
        if self.field.degree == 1:
            # over Q: one int pair and one gcd
            if d1 == d2:
                n = self.num[0] - other.num[0]
            else:
                n, d1 = self.num[0] * d2 - other.num[0] * d1, d1 * d2
            if d1 != 1:
                g = gcd(d1, n)
                if g != 1:
                    n //= g
                    d1 //= g
            return CyclotomicNumber(self.field, (n,), d1)
        if d1 == d2:
            num = tuple(map(sub, self.num, other.num))
            if d1 == 1:
                return CyclotomicNumber(self.field, num, 1)
            return _reduced(self.field, num, d1)
        num = tuple(a * d2 - b * d1 for a, b in zip(self.num, other.num))
        return _reduced(self.field, num, d1 * d2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not CyclotomicNumber or other.field is not self.field:
            if other.__class__ is int:
                # num * (k/g) over den/g with g = gcd(k, den) is canonical as it stands
                num, den = self.num, self.den
                g = gcd(other, den)
                if g != 1:
                    other //= g
                    den //= g
                if len(num) == 1:
                    return CyclotomicNumber(self.field, (num[0] * other,), den)
                return CyclotomicNumber(self.field, tuple([c * other for c in num]), den)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        field = self.field
        a, b = self.num, other.num
        if field.degree == 1:
            # over Q: one int pair and one gcd
            n, den = a[0] * b[0], self.den * other.den
            if den != 1:
                g = gcd(n, den)
                if g != 1:
                    n //= g
                    den //= g
            return CyclotomicNumber(field, (n,), den)
        # a rational factor (num[1:] all zero; num[1] settles most others)
        # scales the other factor's numerators
        if b[1] or any(b[2:]):
            if a[1] or any(a[2:]):
                num, den = field._product(a, b), self.den * other.den
                if den == 1:
                    return CyclotomicNumber(field, num, 1)
                return _reduced(field, num, den)
            return other._scaled(a[0], self.den)
        return self._scaled(b[0], other.den)

    def _scaled(self, k: int, kd: int) -> "CyclotomicNumber":
        """self * k/kd for coprime ints k and kd > 0.  With gcd(k, den) and
        gcd(kd, *num) taken out, the product is canonical as it stands."""
        num, den = self.num, self.den
        g = gcd(k, den)
        if g != 1:
            k //= g
            den //= g
        if kd != 1:
            g = gcd(kd, *num)
            if g != 1:
                num = tuple([c // g for c in num])
                kd //= g
            den *= kd
        return CyclotomicNumber(self.field, tuple([c * k for c in num]), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is int:
            # num / g over den * (k/g) with g = gcd(k, *num), its sign taken from k
            if not other:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            num = self.num
            g = gcd(other, *num)
            if other < 0:
                g = -g
            if g != 1:
                num = tuple(c // g for c in num)
            return CyclotomicNumber(self.field, num, self.den * (other // g))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * self.field._inv(other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        return self.field._inv(self)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        acc = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if other.__class__ is not CyclotomicNumber or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a rational element hashes like the equal int or Fraction
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.conductor, self.num, self.den))

    # one tuple comparison with the zero numerators is faster than any() on
    # zero and nonzero elements alike
    def __bool__(self):
        return self.num != self.field.zero.num

    def is_zero(self) -> bool:
        return self.num == self.field.zero.num

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                body = str(c)
            else:
                sym = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    body = sym
                elif c == -1:
                    body = f"-{sym}"
                else:
                    body = f"{c}*{sym}"
            parts.append(body)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<{self} in Q(zeta_{self.field.conductor})>"


def root_of_unity(order: int, power: int = 1) -> CyclotomicNumber:
    """zeta_order^power as an element of Q(zeta_order)."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    return CyclotomicField(order).zeta(power)
