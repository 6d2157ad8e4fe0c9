"""Loop algebras g tensor S, constant descent cocycles and the descended algebra.

A constant cocycle is stored through its generator images v_1..v_n; the value
at g = (j_1..j_n) is u_g = prod v_i^{j_i} tensor id.  Building a twist from
automorphisms sigma_1..sigma_n sets v_i = sigma_i^(-1), which makes the
degree-alpha component of the descended algebra equal to the simultaneous
sigma-eigenspace of residue alpha mod (m_1..m_n), tensored with s^alpha.
"""

from __future__ import annotations

from itertools import product

from .errors import MismatchError, StructureError
from .laurent import GaloisElement, LaurentRing, box_degrees
from .liealg import (
    EigenspaceDecomposition,
    LieAutomorphism,
    SplitSimpleLieAlgebra,
    identity_automorphism,
    nonzeros,
)


def _eigen_rows(algebra, pairs):
    """The rows of M - lam I stacked over the (columns of M, lam) in pairs: x is
    an eigenvector of every M for its lam exactly when every row kills x."""
    dim = algebra.dim
    rows = []
    for columns, eigenvalue in pairs:
        for r in range(dim):
            row = [columns[c][r] for c in range(dim)]
            row[r] = row[r] - eigenvalue
            rows.append(row)
    return rows


class LoopAlgebra:
    """g tensor S with the bracket [x (x) a, y (x) b] = [x,y] (x) ab."""

    def __init__(self, algebra: SplitSimpleLieAlgebra, ring: LaurentRing):
        if algebra.field != ring.field:
            raise MismatchError("algebra and ring live over different fields")
        self.algebra = algebra
        self.ring = ring
        self.field = algebra.field

    def zero(self) -> "LoopElement":
        return LoopElement(self, {})

    def pure(self, gvec, exponent) -> "LoopElement":
        """x tensor s^exponent."""
        exponent = tuple(int(e) for e in exponent)
        if len(exponent) != self.ring.n:
            raise MismatchError("exponent arity does not match the ring")
        if not any(gvec):
            return self.zero()
        return LoopElement(self, {exponent: tuple(gvec)})

    def bracket(self, x: "LoopElement", y: "LoopElement") -> "LoopElement":
        terms = {}
        alg = self.algebra
        for ea, va in x.terms.items():
            for eb, vb in y.terms.items():
                w = alg.bracket(nonzeros(va), nonzeros(vb))
                if any(w):
                    e = tuple(a + b for a, b in zip(ea, eb))
                    cur = terms.get(e)
                    if cur is None:
                        terms[e] = w
                    else:
                        for i in range(alg.dim):
                            cur[i] = cur[i] + w[i]
        return LoopElement(
            self, {e: tuple(v) for e, v in terms.items() if any(v)}
        )

    def __eq__(self, other):
        return (
            isinstance(other, LoopAlgebra)
            and other.algebra is self.algebra
            and other.ring == self.ring
        )

    def __hash__(self):
        return hash((id(self.algebra), self.ring))


class LoopElement:
    """Finitely supported map exponent -> g-coefficient vector."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent: LoopAlgebra, terms: dict):
        self.parent = parent
        self.terms = {e: v for e, v in terms.items() if any(v)}

    def _check(self, other):
        if not isinstance(other, LoopElement) or other.parent != self.parent:
            raise MismatchError("loop elements from different algebras")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = {e: list(v) for e, v in self.terms.items()}
        dim = self.parent.algebra.dim
        for e, v in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = list(v)
            else:
                for i in range(dim):
                    cur[i] = cur[i] + v[i]
        return LoopElement(self.parent, {e: tuple(v) for e, v in out.items()})

    def __neg__(self):
        return LoopElement(
            self.parent, {e: tuple(-x for x in v) for e, v in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = self.parent.field.scalar(scalar)
        return LoopElement(
            self.parent,
            {e: tuple(x * scalar for x in v) for e, v in self.terms.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._check(other)
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def component(self, exponent):
        dim = self.parent.algebra.dim
        return self.terms.get(tuple(exponent), tuple([self.parent.field.zero] * dim))

    def __str__(self):
        if not self.terms:
            return "0"
        alg = self.parent.algebra
        parts = []
        for e in sorted(self.terms):
            v = self.terms[e]
            body = " + ".join(
                f"{c}*{alg.labels[i]}" for i, c in enumerate(v) if c
            )
            parts.append(f"({body}) (x) s^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


class DescentCocycle:
    """Constant cocycle u_g = (prod_i v_i^{g_i}) tensor id on the loop algebra."""

    def __init__(self, loopalg: LoopAlgebra, generators, orders):
        self.loopalg = loopalg
        self.generators = tuple(generators)
        self.orders = tuple(int(m) for m in orders)
        if len(self.generators) != len(self.orders):
            raise MismatchError("one generator image per Galois factor is required")
        if self.orders != loopalg.ring.orders:
            raise MismatchError("cocycle orders do not match the ring")
        if any(v.algebra is not loopalg.algebra for v in self.generators):
            raise MismatchError("automorphisms act on different algebras")
        self._values = {}
        self._verify_constant_law()

    def value(self, g: GaloisElement) -> LieAutomorphism:
        key = g.components
        cached = self._values.get(key)
        if cached is None:
            cached = identity_automorphism(self.loopalg.algebra)
            for v, j in zip(self.generators, key):
                if j:
                    cached = cached.compose(v ** j)
            self._values[key] = cached
        return cached

    def _verify_constant_law(self):
        """u_(g+e_i) = u_g v_i for every g and i, which gives u_(g+h) = u_g u_h by
        induction on h.  It also decides that the family is one of commuting maps
        with v_i^(m_i) = id: g = (m_i - 1) e_i gives v_i^(m_i) = u_0 = id (also
        for m_i = 1), and g = e_j, j > i, gives v_i v_j = v_j v_i."""
        group = self.loopalg.ring.group
        units = [group.generator(i) for i in range(group.n)]
        for g in group.elements():
            for e, v in zip(units, self.generators):
                if self.value(g + e).columns != self.value(g).compose(v).columns:
                    raise StructureError("constant cocycle law u_(g+h) = u_g u_h fails")


class TwistedLoopAlgebra:
    """The descended algebra L_u of a constant cocycle built from sigma_1..sigma_n."""

    def __init__(self, loopalg: LoopAlgebra, sigmas, orders):
        self.loopalg = loopalg
        self.algebra = loopalg.algebra
        self.ring = loopalg.ring
        self.field = loopalg.field
        self.group = loopalg.ring.group
        self.sigmas = tuple(sigmas)
        self.orders = tuple(int(m) for m in orders)
        if self.orders != self.ring.orders:
            raise MismatchError("twist orders do not match the ring")
        self.eigen = EigenspaceDecomposition(self.algebra, self.sigmas, self.orders)
        self.cocycle = DescentCocycle(
            loopalg, [s.inverse() for s in self.sigmas], self.orders
        )
        self._components = {}  # degree -> basis of the component, built on first use
        self._residues = {}  # degree -> its residue mod the orders
        # (residue, a, residue, b) -> bracket coordinates, and -> Killing value;
        # each filled on first use, so a caller of coordinates only computes no kappa
        self._pairs = {}
        self._pair_kappas = {}
        self._nonzeros = {}  # residue -> `basis_nonzeros` of its component, built on first use

    # -- components -----------------------------------------------------------

    def residue(self, degree):
        degree = tuple(degree)
        res = self._residues.get(degree)
        if res is None:
            res = self._residues[degree] = tuple(a % m for a, m in zip(degree, self.orders))
        return res

    def component_gbasis(self, degree):
        return self.eigen.component(self.residue(degree))

    def component_dim(self, degree) -> int:
        return len(self.component_gbasis(degree))

    def basis_nonzeros(self, residue):
        """The eigen-adapted basis of a residue's component, each vector as its
        nonzero (index, value) pairs, the operand form of `algebra.bracket`."""
        basis = self._nonzeros.get(residue)
        if basis is None:
            basis = self._nonzeros[residue] = tuple(map(nonzeros, self.eigen.component(residue)))
        return basis

    def component_basis(self, degree):
        """The eigen-adapted basis x_a tensor s^degree of one component, as a tuple."""
        degree = tuple(degree)
        basis = self._components.get(degree)
        if basis is None:
            basis = self._components[degree] = tuple(
                self.loopalg.pure(v, degree) for v in self.component_gbasis(degree)
            )
        return basis

    def component_coords(self, degree, gvec):
        """Coordinates of a g-vector in the eigen-adapted component basis."""
        return self.eigen.coords(self.residue(degree), list(gvec))

    def pair(self, mu, a: int, nu, b: int):
        """[x_a (x) s^mu, y_b (x) s^nu] for basis vectors of the components at mu
        and nu: its nonzero (r, c) coordinates in the component basis of mu + nu,
        and kappa(x_a, y_b).  Both depend on the residues of mu and nu only, so
        the table holds one entry per (residue, a, residue, b)."""
        key = (self.residue(mu), a, self.residue(nu), b)
        coords = self._pairs.get(key)
        if coords is None:
            coords = self._pair_bracket(mu, a, nu, b)
        kappa = self._pair_kappas.get(key)
        if kappa is None:
            x = self.basis_nonzeros(key[0])[a]
            y = self.basis_nonzeros(key[2])[b]
            kappa = self._pair_kappas[key] = self.algebra.killing(x, y)
        return coords, kappa

    def pair_at(self, key):
        """`pair` addressed by its key (residue, a, residue, b), residues reduced."""
        kappa = self._pair_kappas.get(key)
        if kappa is None:  # a residue is its own residue, so `pair` takes the key
            return self.pair(*key)
        return self._pairs[key], kappa

    def _pair_bracket(self, mu, a: int, nu, b: int):
        """The coordinates of `pair` alone, without its Killing value."""
        key = (self.residue(mu), a, self.residue(nu), b)
        coords = self._pairs.get(key)
        if coords is None:
            x = self.basis_nonzeros(key[0])[a]
            y = self.basis_nonzeros(key[2])[b]
            degree = tuple(p + q for p, q in zip(mu, nu))
            full = self.component_coords(degree, self.algebra.bracket(x, y))
            if full is None:
                raise StructureError(f"a bracket at {degree} is not in the descended algebra")
            coords = self._pairs[key] = tuple((r, c) for r, c in enumerate(full) if c)
        return coords

    def fixed_rows(self, residue):
        """Rows whose common kernel is the fixed space of x -> chi_degree(g) u_g x
        over all g, for the degrees of this residue, independent of the
        eigenspaces: x is fixed exactly when u_g x = chi_(-degree)(g) x.  Both
        u_g and chi_(-degree)(g) are the products of their values at the
        generators e_i of G, taken g_i times, so the conditions at the e_i
        alone have the same solutions: the rows of u_(e_i) - chi_(-degree)(e_i) I,
        n blocks of them rather than |G|.  The characters depend on the
        residue of the degree only."""
        negated = tuple(-a for a in residue)
        group = self.group
        return _eigen_rows(self.algebra, [
            (self.cocycle.value(e).columns, group.character(e, negated))
            for e in map(group.generator, range(group.n))
        ])

    # -- window bookkeeping -----------------------------------------------------

    def pair_blocks(self, lam, window: int):
        """(mu, nu, dim mu, dim nu) for nonzero window components, mu <= nu, mu + nu = lam.

        mu runs in box order over the part of the box where lam - mu lies in it
        too.  nu = lam - mu falls as mu rises, so the first mu > nu ends the walk."""
        for mu in product(*(range(max(-window, l - window), min(window, l + window) + 1)
                            for l in lam)):
            nu = tuple(l - m for l, m in zip(lam, mu))
            if mu > nu:
                break
            dm, dn = self.component_dim(mu), self.component_dim(nu)
            if dm and dn:
                yield mu, nu, dm, dn

    def window_basis(self, window: int):
        """Flat list of (degree, position, LoopElement) over the degree box."""
        out = []
        for degree in box_degrees(self.ring.n, window):
            for pos, el in enumerate(self.component_basis(degree)):
                out.append((degree, pos, el))
        return out

    # -- the fixed subalgebra ---------------------------------------------------

    def g0_basis(self):
        return self.eigen.component((0,) * len(self.orders))
