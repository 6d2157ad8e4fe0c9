"""Kahler differentials of the Laurent ring and the quotient by exact forms.

A form sum_i f_i ds_i is graded by deg(s^beta ds_i) = beta + e_i, so the
universal derivation d preserves degree and the Galois group acts on each
graded piece by a single character.  A `DifferentialForm` and a
`CentralClass` share one layout, `_Graded`: each degree alpha maps to the
vector (c_1..c_n) of coefficients of s^(alpha - e_i) ds_i, and sums, scalar
multiples, the Galois action and equality are defined there once.  d, the
products and the quotient map work one degree at a time.  Within degree
alpha != 0 the exact forms span the single relation vector alpha, and the
canonical form eliminates the pivot coordinate (the smallest index with
alpha_p != 0); degree 0 keeps all n coordinates (classes of s_i^{-1} ds_i).
"""

from __future__ import annotations

from math import gcd
from operator import add, sub

from . import linalg
from .errors import MismatchError
from .laurent import GaloisElement, LaurentPoly, LaurentRing, box_degrees

# the hot routines below build their results with object.__new__ and two
# attribute stores, as `_Graded._graded` does, without its call
_new = object.__new__


def _add_pieces(left: dict, right: dict) -> dict:
    """Degree-wise sum of two degree -> vector maps; all-zero sums are dropped."""
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


class _Graded:
    """A degree -> coefficient-vector map over one Laurent ring.

    `pieces` maps each degree alpha to an n-vector; no stored vector is all
    zero.  One-forms and their classes share this layout, so the linear
    operations, the Galois action and equality live here once; the two kinds
    never mix.
    """

    __slots__ = ("ring", "pieces")

    @classmethod
    def _graded(cls, ring: LaurentRing, pieces: dict):
        """An element over pieces already free of all-zero vectors, taken as is."""
        out = cls.__new__(cls)
        out.ring = ring
        out.pieces = pieces
        return out

    def _check(self, other):
        if other.__class__ is not self.__class__:
            raise MismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.ring is not self.ring and other.ring != self.ring:
            raise MismatchError(f"{type(self).__name__}s from different rings")

    def __add__(self, other):
        if other.__class__ is not self.__class__ or other.ring is not self.ring:
            self._check(other)
        # immutable by convention, so a zero summand gives the other one back
        if not other.pieces:
            return self
        if not self.pieces:
            return other
        out = self.__class__.__new__(self.__class__)
        out.ring = self.ring
        out.pieces = _add_pieces(self.pieces, other.pieces)
        return out

    def __neg__(self):
        return self._graded(
            self.ring, {d: tuple(-x for x in v) for d, v in self.pieces.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        c = self.ring.field.scalar(scalar)
        pieces = {d: tuple(x * c for x in v) for d, v in self.pieces.items()} if c else {}
        return self._graded(self.ring, pieces)

    __rmul__ = __mul__

    def galois(self, g: GaloisElement):
        """^g(f ds_i) = (^g f) * zeta_{m_i}^{g_i} ds_i, so degree alpha scales by
        the character value chi_g(alpha)."""
        group = self.ring.group
        if g.group != group:
            raise MismatchError("Galois element does not match the ring")
        out = {}
        for d, v in self.pieces.items():
            chi = group.character(g, d)
            out[d] = tuple(x * chi for x in v)
        return self._graded(self.ring, out)

    def __eq__(self, other):
        self._check(other)
        return self.pieces == other.pieces

    def __hash__(self):
        return hash(frozenset(self.pieces.items()))

    def __bool__(self):
        return bool(self.pieces)

    def is_zero(self) -> bool:
        return not self.pieces

    def degrees(self):
        return sorted(self.pieces)

    def component(self, degree):
        return self.pieces.get(
            tuple(degree), tuple([self.ring.field.zero] * self.ring.n)
        )


class DifferentialForm(_Graded):
    """sum_i f_i ds_i with Laurent coefficients, immutable by convention.

    `pieces[alpha]` is the coefficient vector (c_1..c_n) of s^(alpha - e_i)
    ds_i.  The constructor takes the per-variable components f_1..f_n, and
    `comps` rebuilds them.
    """

    __slots__ = ()

    def __init__(self, ring: LaurentRing, comps):
        comps = tuple(comps)
        if len(comps) != ring.n:
            raise MismatchError(f"expected {ring.n} components, got {len(comps)}")
        zero = ring.field.zero
        pieces = {}
        for i, c in enumerate(comps):
            if c.ring is not ring and c.ring != ring:
                raise MismatchError("component from a different ring")
            unit = ring._units[i]
            # distinct beta in one component give distinct degrees: slot i is set once
            for beta, coeff in c.terms.items():
                degree = tuple(map(add, beta, unit))
                vec = pieces.get(degree)
                if vec is None:
                    vec = pieces[degree] = [zero] * ring.n
                vec[i] = coeff
        self.ring = ring
        self.pieces = {d: tuple(v) for d, v in pieces.items()}

    @property
    def comps(self):
        """The components f_1..f_n of sum_i f_i ds_i, rebuilt from the pieces."""
        ring = self.ring
        terms = [{} for _ in range(ring.n)]
        for degree, vec in self.pieces.items():
            for i, c in enumerate(vec):
                if c:
                    terms[i][tuple(map(sub, degree, ring._units[i]))] = c
        return tuple(LaurentPoly._nonzero(ring, t) for t in terms)

    def scale_poly(self, p: LaurentPoly) -> "DifferentialForm":
        """p * sum_i f_i ds_i: the term c s^e moves degree alpha to alpha + e."""
        ring, terms = self.ring, p.terms
        if p.ring is not ring and p.ring != ring:
            raise MismatchError("Laurent polynomial from a different ring")
        out = {}
        if ring.n == 1:
            # one variable: degrees and exponents come out of their 1-tuples
            # and add as ints, and a stored vector is one nonzero entry
            if len(terms) == 1:
                (((e,), c),) = terms.items()
                if not e and c == ring.field.one:
                    return self
            pieces = self.pieces.items()
            for (e,), c in terms.items():
                for (d,), (x,) in pieces:
                    shifted = (d + e,)
                    cur = out.get(shifted)
                    if cur is None:
                        out[shifted] = (x * c,)
                    else:
                        total = cur[0] + x * c
                        if total:
                            out[shifted] = (total,)
                        else:
                            del out[shifted]
        elif len(terms) == 1:
            ((e, c),) = terms.items()
            if not any(e) and c == ring.field.one:
                return self
            # one term shifts distinct degrees to distinct degrees, and a
            # product of nonzero field elements is nonzero: nothing cancels
            for degree, vec in self.pieces.items():
                out[tuple(map(add, e, degree))] = tuple([x * c if x else x for x in vec])
        else:
            pieces = self.pieces.items()
            for e, c in terms.items():
                for degree, vec in pieces:
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
        form = _new(DifferentialForm)
        form.ring = ring
        form.pieces = out
        return form

    def __str__(self):
        parts = [
            f"({comp}) ds{i + 1}" for i, comp in enumerate(self.comps) if comp
        ]
        return " + ".join(parts) if parts else "0"


def differential(p: LaurentPoly) -> DifferentialForm:
    """d(c s^alpha) = c alpha at degree alpha, extended linearly; constants give 0."""
    ring = p.ring
    # distinct alpha give distinct degrees, and c * a != 0 for c != 0, a != 0
    pieces = {}
    if ring.n == 1:
        for alpha, c in p.terms.items():
            (a,) = alpha
            if a:
                pieces[alpha] = (c if a == 1 else c * a,)
    else:
        zero = ring.field.zero
        for alpha, c in p.terms.items():
            if any(alpha):
                pieces[alpha] = tuple([(c if a == 1 else c * a) if a else zero for a in alpha])
    form = _new(DifferentialForm)
    form.ring = ring
    form.pieces = pieces
    return form


def pivot_index(degree) -> int | None:
    """Smallest index with a nonzero degree entry; None for degree 0."""
    for i, a in enumerate(degree):
        if a:
            return i
    return None


def slot_indices(ring: LaurentRing, degree):
    """Coordinate slots that survive reduction at this degree."""
    p = pivot_index(degree)
    return [i for i in range(ring.n) if i != p]


# degree -> its reduction plan, built once by `_reduction_plan`; a plan
# depends on the degree alone, so one table serves every ring
_PLANS = {}


def _reduction_plan(degree):
    """(p, steps) for eliminating the pivot slot p along the relation vector
    degree; p is None at degree 0.  Slot i loses c * (a_i / a_p), c the pivot
    entry, for each step (i, k, kd): k / kd is a_i / a_p in lowest terms with
    kd > 0, so kd == 1 makes k the int quotient.  steps is None for a degree
    with one slot, which the relation vector spans: the piece reduces to 0."""
    for p, d in enumerate(degree):
        if d:
            break
    else:
        return None, ()
    if len(degree) == 1:
        return p, None
    steps = []
    for i in range(p + 1, len(degree)):
        a = degree[i]
        if a:
            g = gcd(a, d) if d > 0 else -gcd(a, d)
            steps.append((i, a // g, d // g))
    return p, tuple(steps)


def _reduce_vector(ring, degree, vec):
    """vec with the pivot slot eliminated along the relation vector degree;
    vec itself, not a copy, when the pivot slot is already zero, and the
    ring's shared all-zero vector when it is the only slot."""
    plan = _PLANS.get(degree)
    if plan is None:
        plan = _PLANS[degree] = _reduction_plan(degree)
    p, steps = plan
    if p is None:
        return vec
    c = vec[p]
    if not c:
        return vec
    if steps is None:
        return ring._zero_vector
    # subtract (c / a_p) * degree: an int multiple of c in each slot a_p
    # divides, else c scaled by the reduced ratio
    out = list(vec)
    for i, k, kd in steps:
        if kd != 1:
            out[i] = vec[i] - c._scaled(k, kd)
        elif k == 1:
            out[i] = vec[i] - c
        elif k == -1:
            out[i] = vec[i] + c
        else:
            out[i] = vec[i] - c * k
    out[p] = ring.field.zero
    return out


class CentralClass(_Graded):
    """Canonical-form element of Omega_S/dS: pivot-reduced graded coordinates."""

    __slots__ = ()

    def __init__(self, ring: LaurentRing, raw: dict, reduced: bool = False):
        self.ring = ring
        pieces = {}
        for degree, vec in raw.items():
            out = vec if reduced else _reduce_vector(ring, degree, vec)
            if any(out):
                pieces[tuple(degree)] = tuple(out)
        self.pieces = pieces

    @classmethod
    def zero(cls, ring: LaurentRing) -> "CentralClass":
        return cls(ring, {})

    @classmethod
    def basis_class(cls, ring: LaurentRing, degree, index: int) -> "CentralClass":
        """Class of the surviving generator s^(degree - e_index) ds_index."""
        degree = tuple(degree)
        p = pivot_index(degree)
        if index == p:
            raise ValueError(f"slot {index} is the pivot at degree {degree}")
        vec = [ring.field.zero] * ring.n
        vec[index] = ring.field.one
        return cls(ring, {degree: vec}, reduced=True)

    def to_text(self) -> str:
        """Readable sum of surviving generators, e.g. "2 * s^(-1) ds1 (mod dS)"."""
        parts = []
        for d in sorted(self.pieces):
            v = self.pieces[d]
            for i, x in enumerate(v):
                if x:
                    mono = tuple(a - (1 if j == i else 0) for j, a in enumerate(d))
                    parts.append(f"{x} * s^{mono} ds{i + 1}")
        if not parts:
            return "0 (mod dS)"
        return " + ".join(parts) + " (mod dS)"

    def __repr__(self):
        return f"<{self.to_text()}>"


def reduce_form(form: DifferentialForm) -> CentralClass:
    """Quotient map Omega_S -> Omega_S/dS in canonical coordinates."""
    ring = form.ring
    zero = ring._zero_vector
    pieces = {}
    # the degrees are tuples and no vector of a form is all zero, so a vector
    # the reduction leaves as it is goes in unchanged, and the shared zero
    # vector of a one-slot piece drops out by identity
    for degree, vec in form.pieces.items():
        out = _reduce_vector(ring, degree, vec)
        if out is vec:
            pieces[degree] = vec
        elif out is not zero and any(out):
            pieces[degree] = tuple(out)
    cls = _new(CentralClass)
    cls.ring = ring
    cls.pieces = pieces
    return cls


def class_basis_at(ring: LaurentRing, degree):
    """Canonical basis of (Omega_S/dS)_degree: dimension n at 0, n-1 otherwise."""
    return [
        CentralClass.basis_class(ring, degree, i) for i in slot_indices(ring, degree)
    ]


def central_slots(ring: LaurentRing, degree):
    """Slots of the invariant classes at one degree: the surviving slots on the
    base lattice, none off it."""
    return slot_indices(ring, degree) if ring.in_base_lattice(degree) else []


def invariant_class_basis(ring: LaurentRing, window: int):
    """Basis of (Omega_S/dS)^G restricted to the degree box |alpha_i| <= window.

    These are exactly the classes whose degree is divisible by the orders.
    """
    return [
        CentralClass.basis_class(ring, degree, i)
        for degree in box_degrees(ring.n, window)
        for i in central_slots(ring, degree)
    ]


def base_ring_form(ring: LaurentRing, a_exponents, i: int) -> DifferentialForm:
    """The R-form t^a dt_i as a form in the s variables."""
    m = ring.orders
    exp = tuple(m[j] * a_exponents[j] + (m[i] - 1 if j == i else 0) for j in range(ring.n))
    comps = [ring.zero] * ring.n
    comps[i] = ring.monomial(exp, m[i])
    return DifferentialForm(ring, tuple(comps))


def base_ring_classes_at(ring: LaurentRing, degree):
    """reduce(t^a dt_i) for every R-monomial form of the given degree."""
    degree = tuple(degree)
    if not ring.in_base_lattice(degree):
        return []
    out = []
    for i in range(ring.n):
        a = tuple(
            (degree[j] - (ring.orders[i] if j == i else 0)) // ring.orders[j]
            for j in range(ring.n)
        )
        out.append(reduce_form(base_ring_form(ring, a, i)))
    return out


def invariant_matches_base_image_at(ring: LaurentRing, degree) -> bool:
    """Invariant classes at the degree equal the reduced base-ring image.

    Both spans are compared with `SpanSolver`; base-ring forms may not leak
    into other degrees.
    """
    degree = tuple(degree)
    slots = slot_indices(ring, degree)

    def flat(c):
        vec = c.component(degree)
        return [vec[i] for i in slots]

    base = base_ring_classes_at(ring, degree)
    for c in base:
        if any(d != degree for d in c.degrees()):
            return False
    inv = linalg.SpanSolver(ring.field, [flat(c) for c in class_basis_at(ring, degree)])
    img = [flat(c) for c in base]
    return linalg.SpanSolver(ring.field, img).dim == inv.dim and all(map(inv.contains, img))
