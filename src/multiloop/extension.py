"""Central extension of the descended algebra by the differential-class space.

The extension bracket is [x+z, y+w] = [x,y] + P(x,y) where the bilinear
cocycle is P(x (x) a, y (x) b) = kappa(x,y) * class(a db); the central summand
is the quotient of one-forms by exact forms.  Lifted descent actions act by
u_g on the loop part and by the Galois character on each graded central
component, and their common fixed space is the extension of the descended
algebra by the base-lattice classes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations, product
from math import comb, gcd
from operator import add

from . import linalg
from .descent import LoopElement, TwistedLoopAlgebra
from .errors import MismatchError, StructureError
from .kaehler import (
    CentralClass,
    central_slots,
    invariant_class_basis,
    invariant_matches_base_image_at,
    slot_indices,
)
from .laurent import box_degrees
from .liealg import nonzeros

_CENTRE_MAX_ENLARGE = 2


def _add_scaled(target: dict, c, entries, one) -> None:
    """target[t] += c * e for the sparse (t, e) in entries; c = 1 multiplies nothing."""
    scale = c != one
    for t, e in entries:
        if scale:
            e = c * e
        v = target.get(t)
        target[t] = e if v is None else v + e


def _nonzero_class(mu, nu) -> bool:
    """Whether class(s^mu ds^nu), the vector nu at mu + nu modulo the line
    through mu + nu, is nonzero: nu is not parallel to mu, or nu = -mu != 0."""
    parallel = all(m1 * n2 == m2 * n1 for (m1, n1), (m2, n2) in combinations(zip(mu, nu), 2))
    return not parallel or (any(mu) and all(a == -b for a, b in zip(mu, nu)))


def _equal_nonzero(left: dict, right: dict) -> bool:
    """Whether two sparse coordinate dicts agree once their zero entries are dropped."""
    return {q: e for q, e in left.items() if e} == {q: e for q, e in right.items() if e}


class ExtendedElement:
    """loop part in g tensor S plus central part in Omega_S/dS."""

    __slots__ = ("ext", "loop", "central")

    def __init__(self, ext: "CentralExtension", loop: LoopElement, central: CentralClass):
        self.ext = ext
        self.loop = loop
        self.central = central

    def _check(self, other):
        if not isinstance(other, ExtendedElement) or other.ext is not self.ext:
            raise MismatchError("extended elements from different extensions")
        return other

    def __add__(self, other):
        other = self._check(other)
        return ExtendedElement(self.ext, self.loop + other.loop, self.central + other.central)

    def __neg__(self):
        return ExtendedElement(self.ext, -self.loop, -self.central)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return ExtendedElement(self.ext, self.loop * scalar, self.central * scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._check(other)
        return self.loop == other.loop and self.central == other.central

    def is_zero(self) -> bool:
        return self.loop.is_zero() and self.central.is_zero()

    def __repr__(self):
        return f"<loop {self.loop} | central {self.central.to_text()}>"


class CentralExtension:
    """The extension of a twisted loop algebra by differential classes."""

    def __init__(self, twisted: TwistedLoopAlgebra):
        self.twisted = twisted
        self.loopalg = twisted.loopalg
        self.algebra = twisted.algebra
        self.ring = twisted.ring
        self.field = twisted.field
        self.group = twisted.group
        # window -> the failing pairs of its antisymmetry sums
        # (`_antisymmetry_failures`) and the failing triples of its cyclic sums
        # (`_cyclic_failures`); (g, residue, position) -> the nonzero component
        # coordinates of u_g on that basis vector (`_lift_pairs`); all filled
        # on first use
        self._antisymmetry = {}
        self._cyclic = {}
        self._lifts = {}

    # -- constructors ---------------------------------------------------------

    def zero(self) -> ExtendedElement:
        return ExtendedElement(self, self.loopalg.zero(), CentralClass.zero(self.ring))

    def from_loop(self, x: LoopElement) -> ExtendedElement:
        return ExtendedElement(self, x, CentralClass.zero(self.ring))

    def from_central(self, z: CentralClass) -> ExtendedElement:
        return ExtendedElement(self, self.loopalg.zero(), z)

    # -- the cocycle and the bracket -------------------------------------------

    def cocycle(self, x: LoopElement, y: LoopElement) -> CentralClass:
        """kappa(x,y) * class(a db), extended bilinearly over the supports."""
        if x.parent != self.loopalg or y.parent != self.loopalg:
            raise MismatchError("loop elements from a different loop algebra")
        field = self.field
        n = self.ring.n
        raw = {}
        for ea, va in x.terms.items():
            for eb, vb in y.terms.items():
                k = self.algebra.killing(nonzeros(va), nonzeros(vb))
                if k:
                    deg = tuple(a + b for a, b in zip(ea, eb))
                    vec = raw.get(deg)
                    if vec is None:
                        vec = [field.zero] * n
                        raw[deg] = vec
                    for i, b in enumerate(eb):
                        if b:
                            vec[i] = vec[i] + k * b
        return CentralClass(self.ring, raw)

    def cocycle_class_of_pair(self, mu, nu) -> CentralClass:
        """class(s^mu d s^nu): raw vector nu placed at degree mu + nu."""
        field = self.field
        deg = tuple(a + b for a, b in zip(mu, nu))
        return CentralClass(self.ring, {deg: [field.scalar(x) for x in nu]})

    def bracket(self, X: ExtendedElement, Y: ExtendedElement) -> ExtendedElement:
        """[x+z, y+w] = [x,y] + P(x,y); central summands are annihilated."""
        if X.ext is not self or Y.ext is not self:
            raise MismatchError("extended elements from a different extension")
        return ExtendedElement(
            self,
            self.loopalg.bracket(X.loop, Y.loop),
            self.cocycle(X.loop, Y.loop),
        )

    # -- window bases --------------------------------------------------------------

    def extended_window_basis(self, window: int):
        """Loop window basis, then the base-lattice classes: the expected centre."""
        out = [self.from_loop(el) for _, _, el in self.twisted.window_basis(window)]
        out.extend(self.from_central(c) for c in invariant_class_basis(self.ring, window))
        return out

    # -- verification suites ----------------------------------------------------

    def _add_bracket(self, loop, rmu, coords, rnu, b):
        """Add the component coordinates of [z, y_b (x) s^nu] into the sparse
        dict loop, for z = sum of c x_s (x) s^mu over the (s, c) in coords, with
        rmu and rnu the residues of mu and nu; return the Killing value
        kappa(z, y_b).  A coefficient c = 1 multiplies nothing."""
        pair_at, one = self.twisted.pair_at, self.field.one
        w = self.field.zero
        for s, c in coords:
            inner, kappa = pair_at((rmu, s, rnu, b))
            _add_scaled(loop, c, inner, one)
            if kappa:
                w = w + (kappa if c == one else c * kappa)
        return w

    def _cyclic_entry(self, x, y, z, outer):
        """The cyclic sum [[x, y], z] + [[y, z], x] + [[z, x], y] of the component
        basis vectors named by three (residue, position) pairs: whether its
        loop part is nonzero, and the weights kappa([x,y],z), kappa([y,z],x),
        kappa([z,x],y).  Both depend on the residues only, so one entry
        serves every triple of degrees with those residues.

        outer is the scan's memo of key pair -> (coordinates of [x, y], the
        residue of its degree); each inner bracket is added in place, with a
        coefficient 1 multiplying nothing."""
        tw, one = self.twisted, self.field.one
        pair_at = tw.pair_at
        loop, weights = {}, []
        for p, q, (rr, ar) in ((x, y, z), (y, z, x), (z, x, y)):
            key = p + q
            entry = outer.get(key)
            if entry is None:
                entry = outer[key] = (
                    pair_at(key)[0], tw.residue(tuple(map(add, p[0], q[0])))
                )
            coords, rpq = entry
            w = None
            for s, c in coords:
                inner, kappa = pair_at((rpq, s, rr, ar))
                scale = c != one
                for t, e in inner:
                    if scale:
                        e = c * e
                    v = loop.get(t)
                    loop[t] = e if v is None else v + e
                if kappa:
                    if scale:
                        kappa = c * kappa
                    w = kappa if w is None else w + kappa
            weights.append(self.field.zero if w is None else w)
        return any(loop.values()), weights

    def _key_members(self, basis):
        """(residue, position) -> the ascending indices of its window basis vectors."""
        residue = self.twisted.residue
        members = {}
        for i, (degree, pos, _) in enumerate(basis):
            members.setdefault((residue(degree), pos), []).append(i)
        return list(members.items())

    def _degree_fact(self, radius: int) -> bool:
        """Whether the raw class vector gamma reduces to 0 at degree gamma on
        every degree of the box |gamma| <= radius."""
        ring, scalar = self.ring, self.field.scalar
        return all(
            CentralClass(ring, {gamma: [scalar(a) for a in gamma]}).is_zero()
            for gamma in box_degrees(ring.n, radius)
        )

    def _cyclic_failures(self, window: int):
        """The triples i < j < k of the window basis whose cyclic sum
        [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j] is not zero,
        as (i, j, k, loop part nonzero, class nonzero) in (i, j, k) order.

        With degrees mu, nu, rho of b_i, b_j, b_k the raw class vector is
        w1 rho + w2 mu + w3 nu for the weights of `_cyclic_entry`.  When the
        weights are one w it is w (mu + nu + rho), and reducing a degree at
        itself gives 0 (checked here on every degree of the summed box).  So a
        (residue, position) triple with a zero loop part and equal weights has
        no failing triple at any degree; only the other triples that occur are
        expanded into their basis triples, and their classes reduced one by one.
        Each (residue, position) triple is visited once, and each key pair's
        coordinates once per scan; only the failing basis triples are kept,
        memoised per window for the two suites.
        """
        if window in self._cyclic:
            return self._cyclic[window]
        ring = self.ring
        basis = self.twisted.window_basis(window)
        groups = self._key_members(basis)
        degree_fact = self._degree_fact(3 * window)
        out, outer = [], {}
        for kx, xs in groups:
            for ky, ys in groups:
                at = bisect_right(ys, xs[0])
                if at == len(ys):
                    continue
                for kz, zs in groups:
                    if zs[-1] <= ys[at]:
                        continue  # no i < j < k with these keys
                    loop, (w1, w2, w3) = self._cyclic_entry(kx, ky, kz, outer)
                    if not loop and w1 == w2 == w3 and (degree_fact or not w1):
                        continue
                    for i in xs:
                        for j in ys[bisect_right(ys, i):]:
                            for k in zs[bisect_right(zs, j):]:
                                mu, nu, rho = basis[i][0], basis[j][0], basis[k][0]
                                raw = [
                                    w1 * r + w2 * m + w3 * n for m, n, r in zip(mu, nu, rho)
                                ]
                                gamma = tuple(map(add, map(add, mu, nu), rho))
                                central = not CentralClass(ring, {gamma: raw}).is_zero()
                                if loop or central:
                                    out.append((i, j, k, loop, central))
        out.sort()
        self._cyclic[window] = out
        return out

    def _antisymmetry_failures(self, window: int):
        """The pairs i <= j of the loop window basis whose sum
        [b_i, b_j] + [b_j, b_i] is not zero, as (i, j, loop part nonzero, class
        nonzero) in (i, j) order.

        The loop part depends on the (residue, position) keys of b_i and b_j
        only.  With degrees mu, nu the raw class vector is
        kappa_ab nu + kappa_ba mu; when kappa_ab = kappa_ba = k it is
        k (mu + nu), which reduces to 0 at mu + nu (checked here on every degree
        of the summed box).  So each key pair is read once, and only a key pair
        with a nonzero loop part or unequal Killing values is expanded into its
        basis pairs, their classes reduced one by one.  Memoised per window for
        the two suites."""
        if window in self._antisymmetry:
            return self._antisymmetry[window]
        tw, ring, one = self.twisted, self.ring, self.field.one
        basis = tw.window_basis(window)
        groups = self._key_members(basis)
        degree_fact = self._degree_fact(2 * window)
        out = []
        for kx, xs in groups:
            for ky, ys in groups:
                if ys[-1] < xs[0]:
                    continue  # no i <= j with these keys
                coords_ab, k_ab = tw.pair_at(kx + ky)
                coords_ba, k_ba = tw.pair_at(ky + kx)
                total = {}
                _add_scaled(total, one, coords_ab + coords_ba, one)
                loop = any(total.values())
                if not loop and k_ab == k_ba and (degree_fact or not k_ab):
                    continue
                for i in xs:
                    mu = basis[i][0]
                    for j in ys[bisect_left(ys, i):]:
                        nu = basis[j][0]
                        raw = [k_ab * n + k_ba * m for m, n in zip(mu, nu)]
                        gamma = tuple(map(add, mu, nu))
                        central = not CentralClass(ring, {gamma: raw}).is_zero()
                        if loop or central:
                            out.append((i, j, loop, central))
        out.sort()
        self._antisymmetry[window] = out
        return out

    def cocycle_checks(self, window: int) -> dict:
        """Antisymmetry and the 2-cocycle identity on the window basis.

        Antisymmetry reads `_antisymmetry_failures` and the identity is scanned
        per (residue, position) triple through `_cyclic_failures`; both are
        shared with `extended_jacobi`."""
        nl = len(self.twisted.window_basis(window))
        failures = [
            {"kind": "antisymmetry", "pair": [i, j]}
            for i, j, _, central in self._antisymmetry_failures(window)
            if central
        ]
        for i, j, k, _, central in self._cyclic_failures(window):
            if central:
                failures.append({"kind": "cocycle", "triple": [i, j, k]})
        return {
            "passed": not failures,
            "basis_size": nl,
            "pairs": nl * (nl + 1) // 2,
            "triples": comb(nl, 3),
            "failures": failures,
        }

    def extended_jacobi(self, window: int) -> dict:
        """Jacobi for the extension bracket on the extended window basis.

        Brackets against a central element vanish identically (the bracket
        only reads loop parts): the pair scan checks this with the element
        bracket, and reads antisymmetry of loop pairs from
        `_antisymmetry_failures`.  So every Jacobi triple involving a central
        basis vector is zero term by term, and the triple scan runs over loop
        triples, per (residue, position) triple through `_cyclic_failures`.
        """
        basis = self.extended_window_basis(window)
        nl = len(self.twisted.window_basis(window))
        broken_loop_pairs = {}  # i -> the j of its failing loop pairs, ascending
        for i, j, _, _ in self._antisymmetry_failures(window):
            broken_loop_pairs.setdefault(i, []).append(j)
        failures = []
        for i, x in enumerate(basis):
            for j in broken_loop_pairs.get(i, ()):
                failures.append({"kind": "antisymmetry", "pair": [i, j]})
            for j in range(max(i, nl), len(basis)):
                y = basis[j]
                if not (self.bracket(x, y) + self.bracket(y, x)).is_zero():
                    failures.append({"kind": "antisymmetry", "pair": [i, j]})
                if i >= nl and not self.bracket(x, y).is_zero():
                    failures.append({"kind": "centrality", "pair": [i, j]})
        for i, j, k, _, _ in self._cyclic_failures(window):
            failures.append({"kind": "jacobi", "triple": [i, j, k]})
        return {
            "passed": not failures,
            "basis_size": len(basis),
            "pairs": len(basis) * (len(basis) + 1) // 2,
            "triples": comb(nl, 3),
            "failures": failures,
        }

    def centre_window(self, window: int, generator_window: int | None = None) -> dict:
        """Certified centre of the extension restricted to the window.

        The base-lattice classes are central by construction, so per degree it
        suffices to show that no loop direction is killed by every bracket
        against the generator window.  A nonzero kernel triggers a retry with
        a generator window up to _CENTRE_MAX_ENLARGE larger before being
        reported.
        """
        if generator_window is None:
            generator_window = window
        if generator_window < window:
            raise MismatchError("generator window must contain the window")
        per_degree = {}
        passed = True
        for degree in box_degrees(self.ring.n, window):
            expected = len(central_slots(self.ring, degree))
            gen_d = generator_window
            while True:
                kernel = self._loop_kernel_dim(degree, gen_d)
                if kernel == 0 or gen_d >= generator_window + _CENTRE_MAX_ENLARGE:
                    break
                gen_d += 1
            per_degree[degree] = {
                "centre_dim": expected + kernel,
                "expected": expected,
                "loop_kernel": kernel,
                "generator_window": gen_d,
            }
            if kernel:
                passed = False
        return {
            "passed": passed,
            "window": window,
            "per_degree": {str(list(d)): v for d, v in sorted(per_degree.items())},
            "centre_dim": sum(v["centre_dim"] for v in per_degree.values()),
            "expected": sum(v["expected"] for v in per_degree.values()),
        }

    def _pair_coords(self, mu, nu, key):
        """Coordinates of [x_a (x) s^mu, y_b (x) s^nu] in the extension at mu + nu,
        for key = (residue of mu, a, residue of nu, b): the component
        coordinates, then the `central_slots` of the class."""
        tw, zero = self.twisted, self.field.zero
        degree = tuple(map(add, mu, nu))
        coords, kappa = tw.pair_at(key)
        out = [zero] * tw.component_dim(degree)
        for r, c in coords:
            out[r] = c
        slots = central_slots(self.ring, degree)
        if not kappa:
            out.extend(zero for _ in slots)
            return out
        cls = CentralClass(self.ring, {degree: [kappa * e if e else zero for e in nu]})
        if slots:
            vec = cls.component(degree)
            out.extend(vec[i] for i in slots)
        elif not cls.is_zero():
            raise StructureError(f"central degree {degree} is not base-invariant")
        return out

    def _loop_kernel_dim(self, degree, generator_window: int) -> int:
        """dim of loop directions at the degree killed by all generator brackets.

        The loop coordinates of [x_a (x) s^degree, y_b (x) s^nu] depend on the
        residue of nu and on b only; its central part is kappa(x_a, y_b) times
        the slots of class(s^degree ds^nu).  So the degrees of one residue add
        the same loop columns and multiples of one kappa column, nonzero exactly
        when the class is: its first degree in box order and its first with a
        nonzero class span them all.  Both are kept, so that `_pair_coords`
        fills the pair table and raises in the order of a scan over every degree."""
        degree = tuple(degree)
        tw = self.twisted
        dim = tw.component_dim(degree)
        if not dim:
            return 0
        firsts, nonzero = {}, {}  # residue -> its first degree, its first nonzero class
        for gdeg in box_degrees(self.ring.n, generator_window):
            rg = tw.residue(gdeg)
            if rg in nonzero or not tw.component_dim(gdeg):
                continue
            firsts.setdefault(rg, gdeg)
            if _nonzero_class(degree, gdeg):
                nonzero[rg] = gdeg
        gens = sorted({(d, tw.residue(d)) for d in (*firsts.values(), *nonzero.values())})
        rdeg = tw.residue(degree)
        images = [
            [
                x
                for gdeg, rg in gens
                for gpos in range(tw.component_dim(gdeg))
                for x in self._pair_coords(degree, gdeg, (rdeg, a, rg, gpos))
            ]
            for a in range(dim)
        ]
        return dim - linalg.SpanSolver(self.field, images).dim

    def perfectness(self, window: int, margin: int = 1) -> dict:
        """Every window basis vector of the extension as a bracket combination.

        Bracket factors are drawn from the window enlarged by the margin; the
        report carries one witness combination per covered basis vector and
        names any uncovered vector.
        """
        if margin < 0:
            raise MismatchError("margin must be nonnegative")
        big = window + margin
        witnesses, uncovered = [], []
        tw = self.twisted
        field = self.field
        across = None  # `_kappa_across_residues`, read at the first degree that needs it
        for degree in box_degrees(self.ring.n, window):
            # the loop basis, then the class basis: target t is the t-th unit vector
            slots = central_slots(self.ring, degree)
            targets = [("loop", pos) for pos in range(tw.component_dim(degree))]
            targets += [("central", pos) for pos in range(len(slots))]
            if not targets:
                continue
            # pairs (a, b) with a before b in window_basis(big), [a, b] of this
            # degree, and their vectors, block by block until they span every target
            pairs, solver = [], linalg.SpanSolver(field)
            for adeg, bdeg, adim, bdim in tw.pair_blocks(degree, big):
                ra, rb = tw.residue(adeg), tw.residue(bdeg)
                if solver.dim == len(targets):
                    # a later pair raises in `_pair_coords` only at a degree without slots
                    if across is None and not slots:
                        across = self._kappa_across_residues()
                    if slots or not across:
                        break
                    if (ra, rb) in across and _nonzero_class(adeg, bdeg):
                        raise StructureError(f"central degree {degree} is not base-invariant")
                    continue
                for apos in range(adim):
                    for bpos in range(apos if bdeg == adeg else 0, bdim):
                        vec = self._pair_coords(adeg, bdeg, (ra, apos, rb, bpos))
                        if solver.dim < len(targets) and any(vec):
                            pairs.append({"a": [list(adeg), apos], "b": [list(bdeg), bpos]})
                            solver.add(vec)
            for t, (kind, pos) in enumerate(targets):
                unit = [field.zero] * len(targets)
                unit[t] = field.one
                coeffs = solver.coords(unit)
                if coeffs is None:
                    uncovered.append({"degree": list(degree), "kind": kind, "pos": pos})
                else:
                    combo = [
                        {"pair": pairs[i], "coeff": str(c)}
                        for i, c in enumerate(coeffs)
                        if c
                    ]
                    witnesses.append(
                        {"degree": list(degree), "kind": kind, "pos": pos, "combo": combo}
                    )
        return {
            "passed": not uncovered,
            "window": window,
            "margin": margin,
            "covered": len(witnesses),
            "uncovered": uncovered,
            "witnesses": witnesses,
        }

    def _kappa_across_residues(self):
        """The residue pairs (r, s), r + s not residue 0, with a nonzero kappa on
        some key (r, a, s, b) of the pair table: the pairs `_pair_coords` may raise on."""
        tw, dims = self.twisted, self.twisted.eigen.dims().items()
        return {
            (r, s) for (r, dr), (s, ds) in product(dims, dims)
            if any(tw.residue(map(add, r, s)))
            and any(tw.pair_at((r, a, s, b))[1] for a in range(dr) for b in range(ds))
        }

    def decomposition(self, window: int) -> dict:
        """Stability of the descended algebra under lifts, and the fixed space.

        Checks (a) u_g maps window components into the descended algebra,
        (b) the fixed space of the lifted actions decomposes degree by degree
        as descended component plus base-lattice classes, (c) the invariant
        classes agree with the reduced image of base-ring one-forms, and
        (d) every lifted action preserves the extension bracket.

        (a) reads u_g of each eigen-adapted basis vector in component
        coordinates, once per (g, residue, position) (`_lift_pairs`).  (b)
        reads the eigenspace solvers of the session.  (d)
        reads one verdict per (g, residue, position, residue, position)
        (`_equivariance_sides`): whether the loop sides are equal, and whether
        the Killing sides are.  The central sides are the Killing sides times
        class(s^mu ds^nu), so a pair i < j is broken when the loop sides differ,
        or when the Killing sides differ and that class is nonzero; only a key
        pair that is not equal on both sides is expanded into its basis pairs.
        The extension bracket reads loop parts only, so a pair with a central
        vector brackets to 0 on both sides and is skipped.
        """
        failures = []
        tw = self.twisted
        elems = self.group.elements()
        basis = tw.window_basis(window)
        for g in elems:
            for degree, pos, _ in basis:
                if self._lift_pairs(g, tw.residue(degree), pos) is None:
                    failures.append(
                        {
                            "kind": "stability",
                            "g": list(g.components),
                            "degree": list(degree),
                            "pos": pos,
                        }
                    )
        dim_checks = {}
        loop_spaces = {}  # residue -> (dim fixed, dim component, whether they agree)
        for degree in box_degrees(self.ring.n, window):
            res = tw.residue(degree)
            if res not in loop_spaces:
                fixed = tw.component_direct(degree)
                dim = tw.component_dim(degree)
                same = len(fixed) == dim and all(tw.eigen.contains(res, v) for v in fixed)
                loop_spaces[res] = len(fixed), dim, same
            loop_fixed, loop_component, same = loop_spaces[res]
            central_expected = len(central_slots(self.ring, degree))
            central_fixed = self._fixed_central_dim(degree)
            dim_checks[str(list(degree))] = {
                "loop_fixed": loop_fixed,
                "loop_component": loop_component,
                "central_fixed": central_fixed,
                "central_expected": central_expected,
            }
            if not same or central_fixed != central_expected:
                failures.append({"kind": "fixed-space", "degree": list(degree)})
            if self.ring.in_base_lattice(degree):
                if not invariant_matches_base_image_at(self.ring, degree):
                    failures.append({"kind": "base-image", "degree": list(degree)})
        groups = self._key_members(basis)
        for g in elems:
            if not any(g.components):
                continue  # the identity action preserves everything trivially
            broken = []
            for kx, xs in groups:
                for ky, ys in groups:
                    if ys[-1] <= xs[0]:
                        continue  # no i < j with these keys
                    loop_equal, kappa_equal = self._equivariance_sides(g, kx + ky)
                    if loop_equal and kappa_equal:
                        continue
                    for i in xs:
                        for j in ys[bisect_right(ys, i):]:
                            if not loop_equal or _nonzero_class(basis[i][0], basis[j][0]):
                                broken.append((i, j))
            broken.sort()
            failures.extend(
                {"kind": "bracket-equivariance", "g": list(g.components), "pair": [i, j]}
                for i, j in broken
            )
        return {
            "passed": not failures,
            "window": window,
            "per_degree": dim_checks,
            "failures": failures,
        }

    def _lift_pairs(self, g, residue, pos):
        """The nonzero (q, e) of the component coordinates of u_g x for the
        eigen-adapted basis vector x at (residue, pos), or None when u_g x
        leaves the component; memoised."""
        key = (g.components, residue, pos)
        if key not in self._lifts:
            tw = self.twisted
            x = tw.basis_nonzeros(residue)[pos]
            coords = tw.component_coords(residue, tw.cocycle.value(g).apply(x))
            self._lifts[key] = (
                None if coords is None else tuple((q, e) for q, e in enumerate(coords) if e)
            )
        return self._lifts[key]

    def _equivariance_sides(self, g, key):
        """Compare u_g ^g [X, Y] with [u_g ^g X, u_g ^g Y] for X = x_a (x) s^mu and
        Y = y_b (x) s^nu, key = (residue of mu, a, residue of nu, b), in
        component coordinates.  With L the coordinates of u_g on a component
        (`_lift_pairs`) and chi the character of g, the loop parts are
        chi(mu+nu) L [x_a, y_b] and chi(mu) chi(nu) sum_s,t L[s,a] L[t,b] [x_s, y_t];
        each class is its Killing part (the same sums over kappa) times
        class(s^mu ds^nu).  chi is multiplicative in the degree, so
        chi(mu+nu) = chi(mu) chi(nu) is one nonzero factor of both sides and
        is left out.  Both sides are summed over nonzero entries only.
        Returns (loop parts equal, Killing parts equal); when an image or a
        bracket has no component coordinates, `_equivariance_sides_in_g` decides."""
        rmu, a, rnu, b = key
        tw, one = self.twisted, self.field.one
        total = tw.residue(tuple(map(add, rmu, rnu)))
        ua, ub = self._lift_pairs(g, rmu, a), self._lift_pairs(g, rnu, b)
        if ua is None or ub is None:
            return self._equivariance_sides_in_g(g, key)
        try:
            coords, kappa = tw.pair_at(key)
            lhs = {}
            for r, c in coords:
                column = self._lift_pairs(g, total, r)
                if column is None:
                    return self._equivariance_sides_in_g(g, key)
                _add_scaled(lhs, c, column, one)
            rhs = {}
            k_rhs = self.field.zero
            for t, y in ub:
                scaled = ua if y == one else [(s, x * y) for s, x in ua]
                k_rhs = k_rhs + self._add_bracket(rhs, rmu, scaled, rnu, t)
        except StructureError:  # a bracket leaves the descended algebra
            return self._equivariance_sides_in_g(g, key)
        return _equal_nonzero(lhs, rhs), kappa == k_rhs

    def _equivariance_sides_in_g(self, g, key):
        """`_equivariance_sides` in g-coordinates, for a key where u_g of a side,
        or the bracket, has no component coordinates: u_g [x_a, y_b] against
        [u_g x_a, u_g y_b], and kappa(x_a, y_b) against kappa(u_g x_a, u_g y_b),
        without the common character factor.  kappa is read from the algebra,
        as the pair-table fill may be what raised."""
        rmu, a, rnu, b = key
        tw = self.twisted
        alg, u = self.algebra, tw.cocycle.value(g)
        x, y = tw.basis_nonzeros(rmu)[a], tw.basis_nonzeros(rnu)[b]
        ux, uy = nonzeros(u.apply(x)), nonzeros(u.apply(y))
        loop_equal = u.apply(nonzeros(alg.bracket(x, y))) == alg.bracket(ux, uy)
        return loop_equal, alg.killing(x, y) == alg.killing(ux, uy)

    def _fixed_central_dim(self, degree) -> int:
        """The slots of the classes at the degree when every g acts on them
        trivially, else 0.  A character is multiplicative in g, so it is
        trivial on G when it is on the generators of G."""
        degree = tuple(degree)
        group, one = self.group, self.field.one
        trivial = all(
            group.character(group.generator(i), degree) == one for i in range(group.n)
        )
        if not trivial:
            return 0
        return len(slot_indices(self.ring, degree))

    def lift_fixes_centre(self, window: int) -> dict:
        """Every lifted action fixes every base-lattice window class pointwise."""
        failures = []
        classes = invariant_class_basis(self.ring, window)
        for g in self.group.elements():
            for i, c in enumerate(classes):
                if c.galois(g) != c:
                    failures.append({"g": list(g.components), "class": i})
        return {
            "passed": not failures,
            "window": window,
            "classes": len(classes),
            "failures": failures,
        }

    def base_ring_pairs(self, window: int) -> dict:
        """Eigen-adapted pairs with nonzero invariant class must multiply into R.

        For pairs (x (x) s^mu, y (x) s^nu) with class(s^mu ds^nu) a nonzero
        base-lattice class: s^(mu+nu) must lie in the base ring and [x,y] in the
        fixed subalgebra.  Any violation would signal an implementation bug.

        Such a nu has residue -residue(mu), so s^(mu+nu) lies in R; [x_a, y_b] is in
        g_0 when the pair-table fill gives it coordinates, decided once per key.
        The kept nu after mu are counted, and listed only for the keys off g_0.
        """
        tw = self.twisted
        degrees = box_degrees(self.ring.n, window)
        by_residue = {}  # residue -> its degrees in box order
        for degree in degrees:
            by_residue.setdefault(tw.residue(degree), []).append(degree)
        off_g0 = {}  # residue r -> the (a, b) whose fill raises on (r, a, -r, b)
        failures, checked = [], 0
        for mu in filter(any, degrees):  # the class is 0 at mu = 0
            rmu, rnu = tw.residue(mu), tw.residue([-a for a in mu])
            dmu, dnu = tw.component_dim(rmu), tw.component_dim(rnu)
            partners = by_residue[rnu]
            after = bisect_right(partners, mu)
            g = gcd(*mu)  # the line through mu in the box: t * mu / g, |t| <= top
            top = window * g // max(map(abs, mu))
            kept = len(partners) - after - sum(
                nu > mu and tw.residue(nu) == rnu and not _nonzero_class(mu, nu)
                for nu in (tuple(t * a // g for a in mu) for t in range(-top, top + 1))
            )
            if not (kept and dmu and dnu):
                continue
            checked += kept * dmu * dnu
            if rmu not in off_g0:
                off_g0[rmu] = set()
                for a, b in product(range(dmu), range(dnu)):
                    try:
                        tw._pair_bracket(rmu, a, rnu, b)
                    except StructureError:  # [x_a, y_b] has no coordinates in g_0
                        off_g0[rmu].add((a, b))
            off = off_g0[rmu]
            nus = [nu for nu in partners[after:] if _nonzero_class(mu, nu)] if off else ()
            failures.extend(
                {"pair": [[list(mu), a], [list(nu), b]], "product_in_base": True,
                 "bracket_in_fixed": False}
                for a in range(dmu) for nu in nus for b in range(dnu) if (a, b) in off
            )
        return {
            "passed": not failures,
            "window": window,
            "pairs_with_nonzero_class": checked,
            "failures": failures,
        }
