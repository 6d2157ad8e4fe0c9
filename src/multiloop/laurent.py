"""Sparse multivariate Laurent polynomials over a cyclotomic field.

Internal variables are s_1..s_n with s_i = t_i^(1/m_i); the base ring R is
the sublattice of exponents divisible componentwise by (m_1,...,m_n).  The
Galois group G = prod Z/m_i acts by monomial characters s_i -> zeta_{m_i} s_i.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add

from .cyclotomic import CyclotomicField, CyclotomicNumber
from .errors import MismatchError


def box_degrees(n: int, d: int):
    """All exponent vectors alpha in Z^n with |alpha_i| <= d, sorted."""
    return [tuple(v) for v in product(range(-d, d + 1), repeat=n)]


class GaloisGroup:
    """G = prod_i Z/m_i Z acting on exponents by characters."""

    def __init__(self, field: CyclotomicField, orders):
        self.field = field
        self.orders = tuple(int(m) for m in orders)
        if any(m < 1 for m in self.orders):
            raise MismatchError(f"orders must be positive, got {self.orders}")
        for m in self.orders:
            if field.conductor % m != 0:
                raise MismatchError(
                    f"field conductor {field.conductor} lacks order-{m} roots of unity"
                )
        self.n = len(self.orders)

    def generator(self, i: int) -> "GaloisElement":
        return GaloisElement(self, tuple(1 if j == i else 0 for j in range(self.n)))

    def elements(self):
        return [GaloisElement(self, c) for c in product(*(range(m) for m in self.orders))]

    def order(self) -> int:
        total = 1
        for m in self.orders:
            total *= m
        return total

    def character(self, g: "GaloisElement", alpha) -> CyclotomicNumber:
        """Value of g on the monomial s^alpha: prod_i zeta_{m_i}^(g_i * alpha_i)."""
        M = self.field.conductor
        total = 0
        for gi, ai, mi in zip(g.components, alpha, self.orders):
            total += (M // mi) * gi * ai
        return self.field.zeta(total % M)

    def __eq__(self, other):
        return (
            isinstance(other, GaloisGroup)
            and other.orders == self.orders
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.field.conductor, self.orders))


class GaloisElement:
    __slots__ = ("group", "components")

    def __init__(self, group: GaloisGroup, components):
        components = tuple(components)
        if len(components) != group.n:
            raise MismatchError("wrong number of Galois components")
        components = tuple(int(c) % m for c, m in zip(components, group.orders))
        self.group = group
        self.components = components

    def __add__(self, other: "GaloisElement") -> "GaloisElement":
        if other.group != self.group:
            raise MismatchError("Galois elements from different groups")
        return GaloisElement(
            self.group, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __neg__(self) -> "GaloisElement":
        return GaloisElement(self.group, tuple(-c for c in self.components))

    def __eq__(self, other):
        return (
            isinstance(other, GaloisElement)
            and other.group == self.group
            and other.components == self.components
        )

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"g{list(self.components)}"


class LaurentRing:
    """S = k[s_1^{+-1},...,s_n^{+-1}] with R the m-divisible exponent subring."""

    def __init__(self, field: CyclotomicField, orders):
        self.field = field
        self.orders = tuple(int(m) for m in orders)
        self.n = len(self.orders)
        self.group = GaloisGroup(field, self.orders)
        # unit exponent vectors e_1..e_n, to shift exponents with map(add/sub, ...)
        self._units = tuple(
            tuple(int(j == i) for j in range(self.n)) for i in range(self.n)
        )
        # the all-zero coefficient vector, made once: `kaehler._reduce_vector`
        # returns it for every one-slot piece it reduces to zero
        self._zero_vector = (field.zero,) * self.n
        self.zero = LaurentPoly(self, {})
        self.one = LaurentPoly(self, {(0,) * self.n: field.one})

    def monomial(self, exponents, coeff=1) -> "LaurentPoly":
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.n:
            raise MismatchError(f"expected {self.n} exponents, got {len(exponents)}")
        c = self.field.scalar(coeff)
        return LaurentPoly(self, {exponents: c} if c else {})

    def s(self, i: int, power: int = 1) -> "LaurentPoly":
        return self.monomial(tuple(power if j == i else 0 for j in range(self.n)))

    def scalar_poly(self, value) -> "LaurentPoly":
        c = self.field.scalar(value)
        return LaurentPoly(self, {(0,) * self.n: c} if c else {})

    def in_base_lattice(self, exp) -> bool:
        return all(e % m == 0 for e, m in zip(exp, self.orders))

    def __eq__(self, other):
        return (
            isinstance(other, LaurentRing)
            and other.orders == self.orders
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.field.conductor, self.orders))

    def __repr__(self):
        return f"LaurentRing(n={self.n}, orders={self.orders}, conductor={self.field.conductor})"

class LaurentPoly:
    """Finitely supported exponent-vector -> coefficient map; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _nonzero(cls, ring: LaurentRing, terms: dict) -> "LaurentPoly":
        """A polynomial over terms already free of zero coefficients, taken as is."""
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    def _check(self, other):
        if isinstance(other, LaurentPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise MismatchError("Laurent polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.ring.scalar_poly(other)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, self.ring.field.zero) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly._nonzero(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._nonzero(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly or other.ring is not self.ring:
            if isinstance(other, (int, Fraction, CyclotomicNumber)):
                c = self.ring.field.scalar(other)
                if not c:
                    return self.ring.zero
                return LaurentPoly._nonzero(self.ring, {e: v * c for e, v in self.terms.items()})
            other = self._check(other)
            if other is None:
                return NotImplemented
        terms, other_terms = self.terms, other.terms
        out = {}
        if self.ring.n == 1:
            # one variable: exponents come out of their 1-tuples and add as ints
            for (e1,), c1 in terms.items():
                for (e2,), c2 in other_terms.items():
                    e = (e1 + e2,)
                    v = out.get(e)
                    if v is None:
                        out[e] = c1 * c2
                    else:
                        v = v + c1 * c2
                        if v:
                            out[e] = v
                        else:
                            del out[e]
        elif len(terms) == 1 == len(other_terms):
            ((e1, c1),) = terms.items()
            ((e2, c2),) = other_terms.items()
            out[tuple(map(add, e1, e2))] = c1 * c2
        else:
            for e1, c1 in terms.items():
                for e2, c2 in other_terms.items():
                    e = tuple(map(add, e1, e2))
                    v = out.get(e)
                    # a product of nonzero field elements is nonzero; a sum may cancel
                    if v is None:
                        out[e] = c1 * c2
                    else:
                        v = v + c1 * c2
                        if v:
                            out[e] = v
                        else:
                            del out[e]
        # built as `_nonzero` builds it, without its call
        product = object.__new__(LaurentPoly)
        product.ring = self.ring
        product.terms = out
        return product

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers only for monomials")
            ((e, c),) = self.terms.items()
            return LaurentPoly(
                self.ring, {tuple(x * exponent for x in e): c ** exponent}
            )
        acc, base, e = self.ring.one, self, exponent
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def galois(self, g: GaloisElement) -> "LaurentPoly":
        """Ring automorphism s_i -> zeta_{m_i}^{g_i} s_i, applied termwise."""
        group = self.ring.group
        if g.group != group:
            raise MismatchError("Galois element does not match the ring")
        return LaurentPoly(
            self.ring,
            {e: c * group.character(g, e) for e, c in self.terms.items()},
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            body = "*".join(
                f"s{i + 1}" if p == 1 else f"s{i + 1}^{p}"
                for i, p in enumerate(e)
                if p
            )
            cs = str(c)
            if not body:
                parts.append(cs if c.is_rational() else f"({cs})")
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            elif c.is_rational():
                parts.append(f"{cs}*{body}")
            else:
                parts.append(f"({cs})*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<{self}>"
