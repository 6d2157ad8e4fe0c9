"""Central extension of the descended algebra by the differential-class space.

The extension bracket is [x+z, y+w] = [x,y] + P(x,y) where the bilinear
cocycle is P(x (x) a, y (x) b) = kappa(x,y) * class(a db); the central summand
is the quotient of one-forms by exact forms.  Lifted descent actions act by
u_g on the loop part and by the Galois character on each graded central
component, and their common fixed space is the extension of the descended
algebra by the base-lattice classes.
"""

from __future__ import annotations

from . import linalg
from .descent import LoopElement, TwistedLoopAlgebra
from .errors import MismatchError, StructureError
from .kaehler import (
    CentralClass,
    _invariant_classes_at,
    differential,
    invariant_class_basis,
    invariant_matches_base_image_at,
    reduce_form,
    slot_indices,
)
from .laurent import GaloisElement, box_degrees


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

    def to_json(self):
        return {"loop": self.loop.to_json(), "central": self.central.to_json()}

    def __repr__(self):
        return f"<loop {self.loop} | central {self.central.to_text()}>"


class ExtendedFrame:
    """Flat coordinates for extended elements supported on a fixed degree list.

    Loop coordinates use the eigen-adapted component bases; central
    coordinates use the canonical class slots at base-lattice degrees.
    """

    def __init__(self, ext: "CentralExtension", degrees):
        self.ext = ext
        tw = ext.twisted
        ring = ext.ring
        self.loop_offset, self.loop_dim = {}, {}
        self.central_offset, self.central_slots = {}, {}
        off = 0
        for d in degrees:
            d = tuple(d)
            k = tw.component_dim(d)
            self.loop_offset[d] = off
            self.loop_dim[d] = k
            off += k
        for d in degrees:
            d = tuple(d)
            if ring.in_base_lattice(d):
                slots = slot_indices(ring, d)
                self.central_offset[d] = off
                self.central_slots[d] = slots
                off += len(slots)
        self.size = off

    def coords(self, X: ExtendedElement):
        field = self.ext.field
        out = [field.zero] * self.size
        tw = self.ext.twisted
        for e, gv in X.loop.terms.items():
            base = self.loop_offset.get(e)
            if base is None:
                raise StructureError(f"loop degree {e} outside the coordinate frame")
            c = tw.component_coords(e, gv)
            if c is None:
                raise StructureError(f"loop part at {e} is not in the descended algebra")
            for i, v in enumerate(c):
                out[base + i] = v
        for d, vec in X.central.coords.items():
            base = self.central_offset.get(d)
            if base is None:
                raise StructureError(
                    f"central degree {d} outside the frame or not base-invariant"
                )
            for pos, slot in enumerate(self.central_slots[d]):
                out[base + pos] = vec[slot]
        return out


class CentralExtension:
    """The extension of a twisted loop algebra by differential classes."""

    def __init__(self, twisted: TwistedLoopAlgebra):
        self.twisted = twisted
        self.loopalg = twisted.loopalg
        self.algebra = twisted.algebra
        self.ring = twisted.ring
        self.field = twisted.field
        self.group = twisted.group

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
                k = self.algebra.killing(list(va), list(vb))
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

    # -- descent actions ---------------------------------------------------------

    def lifted_action(self, g: GaloisElement, X: ExtendedElement) -> ExtendedElement:
        """X -> u_g(^g X): the loop part is twisted, central classes move by ^g."""
        return ExtendedElement(
            self,
            self.twisted.cocycle.apply(g, X.loop),
            X.central.galois(g),
        )

    def in_fixed_extension(self, X: ExtendedElement) -> bool:
        return all(self.lifted_action(g, X) == X for g in self.group.elements())

    # -- window bases --------------------------------------------------------------

    def extended_window_basis(self, window: int):
        """Loop window basis, then the base-lattice classes: the expected centre."""
        out = [self.from_loop(el) for _, _, el in self.twisted.window_basis(window)]
        out.extend(self.from_central(c) for c in invariant_class_basis(self.ring, window))
        return out

    # -- verification suites ----------------------------------------------------

    def cocycle_checks(self, window: int) -> dict:
        """Antisymmetry and the 2-cocycle identity on the window basis."""
        basis = [el for _, _, el in self.twisted.window_basis(window)]
        failures = []
        npairs = ntriples = 0
        for i, x in enumerate(basis):
            for j in range(i, len(basis)):
                y = basis[j]
                npairs += 1
                if not (self.cocycle(x, y) + self.cocycle(y, x)).is_zero():
                    failures.append({"kind": "antisymmetry", "pair": [i, j]})
        lb = self.loopalg.bracket
        table = {
            (i, j): lb(x, y)
            for i, x in enumerate(basis)
            for j, y in enumerate(basis)
            if i != j
        }
        for i, x in enumerate(basis):
            for j in range(i + 1, len(basis)):
                y = basis[j]
                xy = table[(i, j)]
                for k in range(j + 1, len(basis)):
                    z = basis[k]
                    ntriples += 1
                    total = (
                        self.cocycle(xy, z)
                        + self.cocycle(table[(j, k)], x)
                        + self.cocycle(table[(k, i)], y)
                    )
                    if not total.is_zero():
                        failures.append({"kind": "cocycle", "triple": [i, j, k]})
        return {
            "passed": not failures,
            "basis_size": len(basis),
            "pairs": npairs,
            "triples": ntriples,
            "failures": failures,
        }

    def extended_jacobi(self, window: int) -> dict:
        """Jacobi for the extension bracket on the extended window basis.

        Brackets against a central element vanish identically (the bracket
        only reads loop parts), so after the antisymmetry/centrality pair
        scan every Jacobi triple involving a central basis vector is zero
        term by term; the triple scan therefore runs over loop triples.
        """
        basis = self.extended_window_basis(window)
        loop_basis = [X for X in basis if not X.loop.is_zero()]
        failures = []
        npairs = ntriples = 0
        for i, x in enumerate(basis):
            for j in range(i, len(basis)):
                npairs += 1
                if not (self.bracket(x, basis[j]) + self.bracket(basis[j], x)).is_zero():
                    failures.append({"kind": "antisymmetry", "pair": [i, j]})
                if x.loop.is_zero() and not self.bracket(x, basis[j]).is_zero():
                    failures.append({"kind": "centrality", "pair": [i, j]})
        nb = len(loop_basis)
        table = {}
        for i in range(nb):
            for j in range(i + 1, nb):
                table[(i, j)] = self.bracket(loop_basis[i], loop_basis[j])
        for i in range(nb):
            for j in range(i + 1, nb):
                xy = table[(i, j)]
                for k in range(j + 1, nb):
                    ntriples += 1
                    total = (
                        self.bracket(xy, loop_basis[k])
                        + self.bracket(table[(j, k)], loop_basis[i])
                        - self.bracket(table[(i, k)], loop_basis[j])
                    )
                    if not total.is_zero():
                        failures.append({"kind": "jacobi", "triple": [i, j, k]})
        return {
            "passed": not failures,
            "basis_size": len(basis),
            "pairs": npairs,
            "triples": ntriples,
            "failures": failures,
        }

    def centre_window(
        self, window: int, generator_window: int | None = None, max_enlarge: int = 2
    ) -> dict:
        """Certified centre of the extension restricted to the window.

        The base-lattice classes are central by construction, so per degree it
        suffices to show that no loop direction is killed by every bracket
        against the generator window.  A nonzero kernel triggers a retry with
        a larger generator window before being reported.
        """
        if generator_window is None:
            generator_window = window
        if generator_window < window:
            raise MismatchError("generator window must contain the window")
        per_degree = {}
        passed = True
        for degree in box_degrees(self.ring.n, window):
            expected = len(_invariant_classes_at(self.ring, degree))
            gen_d = generator_window
            while True:
                kernel = self._loop_kernel_dim(degree, gen_d)
                if kernel == 0 or gen_d >= generator_window + max_enlarge:
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

    def _loop_kernel_dim(self, degree, generator_window: int) -> int:
        """dim of loop directions at the degree killed by all generator brackets."""
        degree = tuple(degree)
        candidates = self.twisted.component_basis(degree)
        if not candidates:
            return 0
        gens = self.twisted.window_basis(generator_window)
        frames = {}  # generator degree -> frame of the output degree
        for gdeg, _, _ in gens:
            if gdeg not in frames:
                out_deg = tuple(a + b for a, b in zip(degree, gdeg))
                frames[gdeg] = ExtendedFrame(self, [out_deg])
        columns = []
        for cand in candidates:
            col = []
            for gdeg, _, gel in gens:
                frame = frames[gdeg]
                X = self.bracket(self.from_loop(cand), self.from_loop(gel))
                col.extend(frame.coords(X))
            columns.append(col)
        rows = [[col[r] for col in columns] for r in range(len(columns[0]))]
        return len(linalg.nullspace(rows, len(candidates), self.field))

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
        for degree in box_degrees(self.ring.n, window):
            frame = ExtendedFrame(self, [degree])
            if frame.size == 0:
                continue
            # pairs (a, b) with a before b in window_basis(big), [a, b] of this degree
            pairs = []
            vectors = []
            for adeg in tw.window_degrees(big):
                bdeg = tuple(d - a for d, a in zip(degree, adeg))
                if bdeg < adeg or any(abs(b) > big for b in bdeg):
                    continue
                bbasis = tw.component_basis(bdeg)
                for apos, ael in enumerate(tw.component_basis(adeg)):
                    for bpos in range(apos if bdeg == adeg else 0, len(bbasis)):
                        X = self.bracket(self.from_loop(ael), self.from_loop(bbasis[bpos]))
                        if X.is_zero():
                            continue
                        pairs.append(
                            {"a": [list(adeg), apos], "b": [list(bdeg), bpos]}
                        )
                        vectors.append(frame.coords(X))
            solver = linalg.SpanSolver(self.field, vectors)
            targets = [
                ("loop", pos, self.from_loop(el))
                for pos, el in enumerate(tw.component_basis(degree))
            ]
            for pos, c in enumerate(_invariant_classes_at(self.ring, degree)):
                targets.append(("central", pos, self.from_central(c)))
            for kind, pos, target in targets:
                coeffs = solver.coords(frame.coords(target))
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

    def decomposition(self, window: int) -> dict:
        """Stability of the descended algebra under lifts, and the fixed space.

        Checks (a) u_g maps window components into the descended algebra,
        (b) the fixed space of the lifted actions decomposes degree by degree
        as descended component plus base-lattice classes, (c) the invariant
        classes agree with the reduced image of base-ring one-forms, and
        (d) every lifted action preserves the extension bracket.
        """
        failures = []
        tw = self.twisted
        elems = self.group.elements()
        for g in elems:
            u = tw.cocycle.value(g)
            for degree, pos, el in tw.window_basis(window):
                image = el.apply_gmap(u)
                for e, gv in image.terms.items():
                    if tw.component_coords(e, gv) is None:
                        failures.append(
                            {
                                "kind": "stability",
                                "g": list(g.components),
                                "degree": list(degree),
                                "pos": pos,
                            }
                        )
        dim_checks = {}
        for degree in box_degrees(self.ring.n, window):
            fixed = tw.component_direct(degree)
            comp = tw.component_gbasis(degree)
            span = linalg.SpanSolver(self.field, comp)
            same = len(fixed) == len(comp) and all(span.contains(v) for v in fixed)
            central_expected = len(_invariant_classes_at(self.ring, degree))
            central_fixed = self._fixed_central_dim(degree)
            dim_checks[str(list(degree))] = {
                "loop_fixed": len(fixed),
                "loop_component": len(comp),
                "central_fixed": central_fixed,
                "central_expected": central_expected,
            }
            if not same or central_fixed != central_expected:
                failures.append({"kind": "fixed-space", "degree": list(degree)})
            if self.ring.in_base_lattice(degree):
                if not invariant_matches_base_image_at(self.ring, degree):
                    failures.append({"kind": "base-image", "degree": list(degree)})
        basis = self.extended_window_basis(window)
        for g in elems:
            if not any(g.components):
                continue  # the identity action preserves everything trivially
            for i, X in enumerate(basis):
                for j in range(i + 1, len(basis)):
                    lhs = self.lifted_action(g, self.bracket(X, basis[j]))
                    rhs = self.bracket(
                        self.lifted_action(g, X), self.lifted_action(g, basis[j])
                    )
                    if lhs != rhs:
                        failures.append(
                            {"kind": "bracket-equivariance", "g": list(g.components), "pair": [i, j]}
                        )
        return {
            "passed": not failures,
            "window": window,
            "per_degree": dim_checks,
            "failures": failures,
        }

    def _fixed_central_dim(self, degree) -> int:
        degree = tuple(degree)
        trivial = all(
            self.group.character(g, degree) == self.field.one
            for g in self.group.elements()
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
                if self.lifted_action(g, self.from_central(c)) != self.from_central(c):
                    failures.append({"g": list(g.components), "class": i})
        return {
            "passed": not failures,
            "window": window,
            "classes": len(classes),
            "failures": failures,
        }

    def base_ring_pairs(self, window: int) -> dict:
        """Eigen-adapted pairs with nonzero invariant class must multiply into R.

        For pairs (x (x) s^a, y (x) s^b) with class(s^a d s^b) a nonzero
        base-lattice class: s^(a+b) must lie in the base ring and [x,y] in the
        fixed subalgebra.  Any violation would signal an implementation bug.
        """
        basis = self.twisted.window_basis(window)
        failures = []
        checked = 0
        for i, (adeg, apos, ael) in enumerate(basis):
            ((ea, va),) = ael.terms.items()
            for j in range(i, len(basis)):
                bdeg, bpos, bel = basis[j]
                ((eb, vb),) = bel.terms.items()
                cls = reduce_form(
                    differential(self.ring.monomial(eb)).scale_poly(self.ring.monomial(ea))
                )
                if cls.is_zero() or not cls.in_base_part():
                    continue
                checked += 1
                product_in_r = self.ring.monomial(
                    tuple(x + y for x, y in zip(ea, eb))
                ).in_base_ring()
                bracket_in_g0 = self.twisted.in_g0(
                    self.algebra.bracket(list(va), list(vb))
                )
                if not (product_in_r and bracket_in_g0):
                    failures.append(
                        {
                            "pair": [[list(adeg), apos], [list(bdeg), bpos]],
                            "product_in_base": product_in_r,
                            "bracket_in_fixed": bracket_in_g0,
                        }
                    )
        return {
            "passed": not failures,
            "window": window,
            "pairs_with_nonzero_class": checked,
            "failures": failures,
        }


def build_extension(twisted: TwistedLoopAlgebra) -> CentralExtension:
    return CentralExtension(twisted)
