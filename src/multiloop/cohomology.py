"""Windowed graded 2-cohomology of the descended algebra by exact linear algebra.

A windowed cochain has one internal degree lam: it is an antisymmetric
bilinear map on pairs of window components whose degrees sum to lam, with
values in k^vdim, stored as one sparse vector per value coordinate over the
canonical unknowns of its `CochainIndex`.  The cocycle space restricted to a
window carries fewer constraints than the full algebra, so its dimension
modulo windowed coboundaries is an upper bound for the graded quotient; when
it meets the lower bound coming from independent canonical-cocycle slices,
the graded dimension is certified.
"""

from __future__ import annotations

from . import linalg
from .errors import MismatchError, StructureError
from .extension import CentralExtension
from .kaehler import central_slots, invariant_class_basis, slot_indices
from .laurent import box_degrees
from .liealg import _subalgebra_killing


def _in_box(degree, d):
    return all(abs(a) <= d for a in degree)


class WindowedCochain:
    """Antisymmetric window cochain of internal degree lam with values in k^vdim.

    `vectors[t]` holds the t-th value coordinate as a sparse {unknown: value}
    dict over `index`, nonzero values only; every other entry follows by
    antisymmetry or is structurally zero.
    """

    def __init__(self, index: CochainIndex, vectors):
        self.index = index
        self.twisted = index.twisted
        self.lam = index.lam
        self.window = index.window
        self.vectors = list(vectors)
        self.vdim = len(self.vectors)

    # -- evaluation -------------------------------------------------------------

    def value(self, mu, nu, a: int, b: int):
        zero = self.twisted.field.zero
        res = self.index.unknown(mu, nu, a, b)
        if res is None:
            return (zero,) * self.vdim
        uid, sign = res
        out = tuple(vec.get(uid, zero) for vec in self.vectors)
        return out if sign == 1 else tuple(-x for x in out)

    # -- arithmetic ----------------------------------------------------------------

    def _check(self, other):
        if (
            not isinstance(other, WindowedCochain)
            or other.twisted is not self.twisted
            or other.lam != self.lam
            or other.window != self.window
            or other.vdim != self.vdim
        ):
            raise MismatchError("cochains have different shapes")
        return other

    def __add__(self, other):
        other = self._check(other)
        vectors = []
        for mine, theirs in zip(self.vectors, other.vectors):
            vec = dict(mine)
            for uid, x in theirs.items():
                total = vec[uid] + x if uid in vec else x
                if total:
                    vec[uid] = total
                else:
                    del vec[uid]
            vectors.append(vec)
        return WindowedCochain(self.index, vectors)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = self.twisted.field.scalar(scalar)
        return WindowedCochain(
            self.index,
            [{uid: x * scalar for uid, x in vec.items()} if scalar else {} for vec in self.vectors],
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.vectors)

    def tensor(self, vector):
        """Scalar cochain times a V-vector: requires vdim == 1."""
        if self.vdim != 1:
            raise MismatchError("tensor requires a scalar cochain")
        return WindowedCochain(self.index, [(self * w).vectors[0] for w in vector])


def _window_triples(basis, lam, window: int):
    """Index triples i < j < k, in lexicographic order, of a `window_basis` list
    with d_i + d_j + d_k = lam and every pairwise sum (lam - d) in the window.

    Each degree is one contiguous block of the list (the box is sorted), so
    k ranges over the block of degree lam - d_i - d_j only.
    """
    blocks = {}
    for idx, (d, _, _) in enumerate(basis):
        blocks.setdefault(d, [idx, idx])[1] = idx + 1
    free = [_in_box(tuple(l - a for l, a in zip(lam, d)), window) for d, _, _ in basis]
    for i, (di, _, _) in enumerate(basis):
        if not free[i]:
            continue
        for j in range(i + 1, len(basis)):
            if free[j]:
                dk = tuple(l - a - b for l, a, b in zip(lam, di, basis[j][0]))
                start, end = blocks.get(dk, (0, 0))
                if end and free[start]:
                    for k in range(max(j + 1, start), end):
                        yield i, j, k


def cochain_from_function(twisted, lam, window: int, vdim: int, fill) -> WindowedCochain:
    """Build a cochain from fill(mu, nu, a, b) -> value tuple, for mu <= nu.

    On a diagonal block (mu == nu) the values must be antisymmetric in (a, b),
    which also makes them zero for a == b.
    """
    index = CochainIndex(twisted, lam, window)
    vectors = [{} for _ in range(vdim)]

    def entry(mu, nu, a, b):
        value = tuple(fill(mu, nu, a, b))
        if len(value) != vdim:
            raise MismatchError("value arity does not match vdim")
        return value

    uid = 0  # CochainIndex numbers the unknowns in the order of this loop
    for mu, nu in index.blocks:
        dm, dn = twisted.component_dim(mu), twisted.component_dim(nu)
        diagonal = mu == nu
        for a in range(dm):
            if diagonal and any(entry(mu, nu, a, a)):
                raise StructureError("diagonal component block is not antisymmetric")
            for b in range(a + 1 if diagonal else 0, dn):
                value = entry(mu, nu, a, b)
                if diagonal and tuple(-x for x in entry(mu, nu, b, a)) != value:
                    raise StructureError("diagonal component block is not antisymmetric")
                for t, x in enumerate(value):
                    if x:
                        vectors[t][uid] = x
                uid += 1
    return WindowedCochain(index, vectors)


def canonical_slice(ext: CentralExtension, lam, window: int) -> WindowedCochain | None:
    """The lam-slice of the canonical central cocycle, in central-slot coordinates:
    kappa(x_a, y_b) times the slots of class(s^mu d s^nu).

    Returns None when the central space vanishes at lam (degree outside the
    base lattice), where the slice is identically zero.
    """
    ring = ext.ring
    lam = tuple(lam)
    if not ring.in_base_lattice(lam):
        return None
    slots = slot_indices(ring, lam)
    tw = ext.twisted
    classes = {}  # (mu, nu) -> the slots of class(s^mu d s^nu)

    def fill(mu, nu, a, b):
        cls = classes.get((mu, nu))
        if cls is None:
            vec = ext.cocycle_class_of_pair(mu, nu).component(lam)
            cls = classes[(mu, nu)] = [vec[i] for i in slots]
        kappa = tw.pair(mu, a, nu, b)[1]
        return tuple(kappa * c for c in cls)

    return cochain_from_function(tw, lam, window, len(slots), fill)


def coboundary(twisted, lam, window: int, tau) -> WindowedCochain:
    """d tau for tau given on the basis of the lam component: (x,y) -> -tau([x,y])."""
    lam = tuple(lam)
    field = twisted.field
    tau = [tuple(field.scalar(x) for x in row) for row in tau]
    dim_lam = twisted.component_dim(lam)
    if len(tau) != dim_lam:
        raise MismatchError("tau must assign a value to each lam-component basis vector")
    vdim = len(tau[0]) if tau else 1

    support = [[(t, v) for t, v in enumerate(row) if v] for row in tau]

    def fill(mu, nu, a, b):
        out = [field.zero] * vdim
        for r, c in twisted._pair_bracket(mu, a, nu, b):
            for t, v in support[r]:
                out[t] = out[t] - c * v
        return tuple(out)

    return cochain_from_function(twisted, lam, window, vdim, fill)


class CochainIndex:
    """Flat unknown indexing of the antisymmetric pair components in a window.

    The unknowns are the entries (mu, nu, a, b) with mu < nu, and with a < b
    on a diagonal block mu == nu, numbered block by block in the order of
    `TwistedLoopAlgebra.pair_blocks` and row by row within a block.
    """

    def __init__(self, twisted, lam, window: int):
        self.twisted = twisted
        self.lam = tuple(lam)
        self.window = window
        self.blocks = {}
        self.size = 0
        for mu, nu, dm, dn in twisted.pair_blocks(self.lam, window):
            self.blocks[(mu, nu)] = self.size
            if mu == nu:
                self.size += dm * (dm - 1) // 2
            else:
                self.size += dm * dn

    def unknown(self, mu, nu, a: int, b: int):
        """(unknown_id, sign) or None when the entry is structurally zero."""
        mu, nu = tuple(mu), tuple(nu)
        diagonal = mu == nu
        if (a > b) if diagonal else (mu > nu):
            res = self.unknown(nu, mu, b, a)
            return None if res is None else (res[0], -1)
        base = self.blocks.get((mu, nu))
        if base is None or (diagonal and a == b):
            return None
        if diagonal:
            dm = self.twisted.component_dim(mu)
            return base + (a * (2 * dm - a - 1)) // 2 + (b - a - 1), 1
        return base + a * self.twisted.component_dim(nu) + b, 1


def _constraint_rows(ext: CentralExtension, index: CochainIndex):
    """Sparse cocycle-identity rows over the unknowns, one per window triple."""
    tw = ext.twisted
    zero = tw.field.zero
    basis = tw.window_basis(index.window)

    def absorb(row, first, second, other):
        """Add the terms of P([b_first, b_second], b_other) to the row."""
        (d1, a1, _), (d2, a2, _), (d3, pos, _) = basis[first], basis[second], basis[other]
        pair_deg = tuple(a + b for a, b in zip(d1, d2))
        for r, c in tw._pair_bracket(d1, a1, d2, a2):
            res = index.unknown(pair_deg, d3, r, pos)
            if res is not None:
                uid, sign = res
                cur = row.get(uid, zero) + (c if sign == 1 else -c)
                if cur:
                    row[uid] = cur
                elif uid in row:
                    del row[uid]

    rows = []
    for i, j, k in _window_triples(basis, index.lam, index.window):
        row = {}
        absorb(row, i, j, k)
        absorb(row, j, k, i)
        absorb(row, k, i, j)
        if row:
            rows.append(row)
    return rows


def cocycle_space_report(ext: CentralExtension, lam, window: int) -> dict:
    """Windowed Z^2 modulo windowed coboundaries at one internal degree.

    The reported dimension is an upper bound for the graded quotient of the
    full algebra (the window imposes a subset of its constraints); it is
    certified exact when it equals the lower bound realized by independent
    canonical-cocycle slices.
    """
    tw = ext.twisted
    lam = tuple(lam)
    if not _in_box(lam, window):
        raise MismatchError(f"internal degree {list(lam)} lies outside the window")
    index = CochainIndex(tw, lam, window)
    rows = _constraint_rows(ext, index)
    degenerate = not rows
    constraints = linalg.SparseEliminator(tw.field)
    for row in rows:
        constraints.add(dict(row))
    z2 = index.size - constraints.rank
    boundaries = linalg.SparseEliminator(tw.field)

    def independent(cochain, what) -> int:
        """Coordinates of a windowed cocycle that enlarge `boundaries`."""
        added = 0
        for vec in cochain.vectors:
            if vec and not constraints.dot_is_zero(vec):
                raise StructureError(f"{what} violates the windowed constraints")
            if boundaries.add(dict(vec)):
                added += 1
        return added

    dim_lam = tw.component_dim(lam)
    field = tw.field
    b2 = 0
    if dim_lam:
        # d of the identity tau: coordinate t is d of the t-th unit tau
        identity = [
            [field.one if r == t else field.zero for t in range(dim_lam)]
            for r in range(dim_lam)
        ]
        b2 = independent(coboundary(tw, lam, window, identity), "a coboundary")

    slice_cochain = canonical_slice(ext, lam, window)
    lower = centre_dim = 0
    if slice_cochain is not None:
        centre_dim = slice_cochain.vdim
        lower = independent(slice_cochain, "canonical cocycle slice")
    h2 = z2 - b2
    return {
        "lambda": list(lam),
        "window": window,
        "vdim": 1,
        "unknowns": index.size,
        "constraints": len(rows),
        "z2_dim": z2,
        "b2_dim": b2,
        "h2_dim": h2,
        "lower_bound": lower,
        "centre_dim": centre_dim,
        "degenerate": degenerate,
        "certified": (not degenerate) and h2 == lower,
    }


def is_windowed_cocycle(ext: CentralExtension, P: WindowedCochain) -> bool:
    """The cocycle identity on all window triples: each value coordinate of P
    is orthogonal to every constraint row of `cocycle_space_report`."""
    zero = P.twisted.field.zero
    return not any(
        sum((c * vec[uid] for uid, c in row.items() if uid in vec), zero)
        for row in _constraint_rows(ext, P.index)
        for vec in P.vectors
    )


def g0_is_semisimple(twisted) -> bool:
    """Killing form of the fixed subalgebra is nondegenerate."""
    basis = twisted.g0_basis()
    if not basis:
        return False
    _, kill = _subalgebra_killing(twisted.algebra, basis)
    return bool(linalg.det(kill, twisted.field))


def invariantize(ext: CentralExtension, P: WindowedCochain):
    """Cohomologous cochain vanishing on (lam-component, fixed-subalgebra) pairs.

    Returns (P', tau) with P' = P + d tau and P'(x (x) s^lam, y (x) 1) = 0 for
    all x in the lam component and y in the fixed subalgebra.  Raises when the
    fixed subalgebra is not semisimple, the hypothesis of the construction,
    and when the solve is inconsistent: a window that is too small.
    """
    tw = P.twisted
    if not g0_is_semisimple(tw):
        raise StructureError("normalization failed: the fixed subalgebra is not semisimple")
    lam = P.lam
    field = tw.field
    dim_lam = tw.component_dim(lam)
    zero_degree = (0,) * tw.ring.n
    rows, rhs = [], []
    for a in range(dim_lam):
        for b in range(tw.component_dim(zero_degree)):
            row = [field.zero] * dim_lam
            for r, c in tw._pair_bracket(lam, a, zero_degree, b):
                row[r] = c
            rows.append(row)
            rhs.append(P.value(lam, zero_degree, a, b))
    tau = []
    for t in range(P.vdim):
        sol = linalg.solve_system(rows, [v[t] for v in rhs], field)
        if sol is None:
            raise StructureError(
                "normalization failed: window too small for a consistent solve"
            )
        tau.append(sol)
    tau_rows = [tuple(tau[t][r] for t in range(P.vdim)) for r in range(dim_lam)]
    P2 = P + coboundary(tw, lam, P.window, tau_rows)
    if not _is_normalized(P2):
        raise StructureError("normalization property failed after the solve")
    return P2, tau_rows


def _is_normalized(P: WindowedCochain) -> bool:
    """P vanishes on every (lam-component, fixed-subalgebra) pair."""
    tw = P.twisted
    zero_degree = (0,) * tw.ring.n
    return not any(
        any(P.value(P.lam, zero_degree, a, b))
        for a in range(tw.component_dim(P.lam))
        for b in range(tw.component_dim(zero_degree))
    )


class CentralClassMap:
    """Linear map from the window central classes at one degree into k^vdim."""

    def __init__(self, ext, lam, slots, matrix, vdim):
        self.ext = ext
        self.lam = tuple(lam)
        self.slots = slots  # surviving coordinate slots at lam
        self.matrix = matrix  # matrix[slot_pos][t]
        self.vdim = vdim

    def on_basis(self):
        return [tuple(self.matrix[pos]) for pos in range(len(self.slots))]


def extract_class_map(ext: CentralExtension, P: WindowedCochain) -> CentralClassMap:
    """Read the induced map on central classes off a normalized cochain.

    For base-lattice monomial pairs (s^mu, s^nu) with mu + nu = lam, the
    value block on the fixed subalgebra must be proportional to the Killing
    block; the proportionality constants then factor through the reduction
    map, which is verified by an exact linear solve.  Its consistency implies
    the cyclic relation z_{ab,c} + z_{bc,a} + z_{ca,b} = 0 of the reduction
    map; z_{a,1} = 0 and antisymmetry of z hold for any normalized cochain.

    Raises when the window is too small.  A base-lattice degree is a multiple
    of m_i in coordinate i, so below window m_i every base pair (mu, nu) has
    mu_i = nu_i = 0: then lam_i = 0, slot i is a central slot at lam, and no
    class s^mu d s^nu reaches it.  On D4 triality (m = 3) the extraction
    therefore fails at windows 1 and 2 and succeeds from window 3.
    """
    tw = P.twisted
    ring = ext.ring
    lam = P.lam
    field = tw.field
    zero_degree = (0,) * ring.n
    d0 = tw.component_dim(zero_degree)
    kill = [[tw.pair(zero_degree, a, zero_degree, b)[1] for b in range(d0)] for a in range(d0)]
    if not _is_normalized(P):
        raise StructureError("cochain is not normalized; run invariantize first")
    slots = central_slots(ring, lam)
    if not slots:
        return CentralClassMap(ext, lam, [], [], P.vdim)

    base_degrees = [d for d in box_degrees(ring.n, P.window) if ring.in_base_lattice(d)]
    pairs = [
        (mu, nu)
        for mu in base_degrees
        for nu in [tuple(l - m for l, m in zip(lam, mu))]
        if nu in base_degrees
    ]
    if not pairs:
        raise StructureError("no base-lattice monomial pairs in the window at this degree")
    pivot = next(((a, b) for a in range(d0) for b in range(d0) if kill[a][b]), None)
    if pivot is None:
        raise StructureError("Killing block on the fixed subalgebra vanishes")

    z_values = {}
    for mu, nu in pairs:
        # base-lattice degrees have residue 0: their basis is g0 tensor s^degree
        values = [[P.value(mu, nu, a, b) for b in range(d0)] for a in range(d0)]
        z = tuple(x / kill[pivot[0]][pivot[1]] for x in values[pivot[0]][pivot[1]])
        for a in range(d0):
            for b in range(d0):
                expect = tuple(kill[a][b] * x for x in z)
                if values[a][b] != expect:
                    raise StructureError(
                        f"value block at {(mu, nu)} is not Killing-proportional: "
                        "the cochain is not normalized"
                    )
        z_values[(mu, nu)] = z

    # solve phi on class coordinates: class(s^mu d s^nu) |-> z_{mu,nu}
    rows, rhs = [], []
    for (mu, nu), z in z_values.items():
        cls = ext.cocycle_class_of_pair(mu, nu)
        rows.append([cls.component(lam)[i] for i in slots])
        rhs.append(z)
    if linalg.rank(rows, field) < len(slots):
        raise StructureError(
            "window pairs do not span the central classes at this degree"
        )
    cols = []
    for t in range(P.vdim):
        sol = linalg.solve_system(rows, [z[t] for z in rhs], field)
        if sol is None:
            raise StructureError(
                "class map is not well defined: values do not factor through reduction"
            )
        cols.append(sol)
    matrix = [[cols[t][pos] for t in range(P.vdim)] for pos in range(len(slots))]
    return CentralClassMap(ext, lam, slots, matrix, P.vdim)


def universal_map_check(ext: CentralExtension, P: WindowedCochain) -> dict:
    """Verify the universal-map construction against the extension by P.

    Normalizes P, extracts the class map phi, and checks that X + Z |-> (X, phi(Z))
    intertwines the extension bracket with the bracket defined by the
    normalized cochain P0 on every pair of extended window basis elements.
    In cochain coordinates that is P0 = phi o (canonical slice at lam), unknown
    by unknown: pairs off lam, pairs with a central vector and diagonal pairs
    are zero on both sides.  `failures` names the (mu, nu, a, b) entries
    where the two sides differ.
    """
    tw = P.twisted
    if not is_windowed_cocycle(ext, P):
        raise StructureError("P is not a windowed cocycle")
    P0, _ = invariantize(ext, P)
    phi = extract_class_map(ext, P0)
    index = P0.index
    diff = P0
    slice_cochain = canonical_slice(ext, P.lam, P.window)
    if slice_cochain is not None:
        for vec, row in zip(slice_cochain.vectors, phi.on_basis()):
            diff = diff - WindowedCochain(index, [vec]).tensor(row)
    bad = {uid for vec in diff.vectors for uid in vec}
    failures = [
        {"entry": [list(mu), list(nu), a, b]}
        for mu, nu in index.blocks
        for a in range(tw.component_dim(mu))
        for b in range(a + 1 if mu == nu else 0, tw.component_dim(nu))
        if index.unknown(mu, nu, a, b)[0] in bad
    ]
    # diagram conditions: the map restricted to the centre is phi, and the
    # loop part passes through unchanged; both hold by construction of the
    # section, which the comparison above already exercises.
    n = len(tw.window_basis(P.window)) + len(invariant_class_basis(ext.ring, P.window))
    return {
        "passed": not failures,
        "window": P.window,
        "vdim": P.vdim,
        "pairs": n * (n + 1) // 2,
        "failures": failures,
        "phi_on_basis": [[str(x) for x in row] for row in phi.on_basis()],
    }
