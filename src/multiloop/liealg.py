"""Split simple Lie algebras in a Chevalley basis, with exact structure constants.

Basis order: root vectors for positive roots (height-lex order), then root
vectors for the corresponding negative roots, then the Cartan elements
h_1..h_rank.  Structure-constant signs are fixed by setting N = +(p+1) on
extraspecial pairs and propagating through the standard quadruple identity,
so the table is deterministic; antisymmetry and the Jacobi identity are
verified exhaustively at build time.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from . import linalg
from .cyclotomic import CyclotomicField
from .errors import MismatchError, StructureError
from .rootsystem import RootSystem, root_system


def _positive_pair_constants(rs: RootSystem):
    """N_{alpha,beta} over Q for all positive-root pairs summing to a root."""
    N = {}

    def mixed(xi, eta):
        # N for the pair (x_xi, x_{-eta}), xi != eta positive roots
        diff = tuple(a - b for a, b in zip(xi, eta))
        if diff in rs.index:  # difference is a positive root delta, delta + eta = xi
            return rs.norm(diff) * N[(diff, eta)] / rs.norm(xi)
        neg = tuple(-c for c in diff)
        if neg in rs.index:  # eta - xi positive root delta', delta' + xi = eta
            return rs.norm(neg) * N[(neg, xi)] / rs.norm(eta)
        return Fraction(0)

    for gamma in rs.positive_roots:
        decs = rs.decompositions(gamma)
        if not decs:
            continue
        a1, b1 = decs[0]  # extraspecial pair: sign fixed to +
        p = rs.string_down(a1, b1)
        N[(a1, b1)] = Fraction(p + 1)
        N[(b1, a1)] = Fraction(-(p + 1))
        for alpha, beta in decs[1:]:
            t1 = Fraction(0)
            d1 = tuple(x - y for x, y in zip(b1, alpha))
            d2 = tuple(x - y for x, y in zip(a1, beta))
            if d1 in rs.all_roots and d2 in rs.all_roots:
                t1 = mixed(b1, alpha) * mixed(a1, beta) / rs.norm(d1)
            t2 = Fraction(0)
            d3 = tuple(x - y for x, y in zip(a1, alpha))
            d4 = tuple(x - y for x, y in zip(b1, beta))
            if d3 in rs.all_roots and d4 in rs.all_roots:
                t2 = -mixed(a1, alpha) * mixed(b1, beta) / rs.norm(d3)
            value = rs.norm(gamma) / N[(a1, b1)] * (t1 + t2)
            expect = rs.string_down(alpha, beta) + 1
            if value.denominator != 1 or abs(value) != expect:
                raise StructureError(
                    f"structure constant for {alpha}+{beta} came out {value}, "
                    f"expected magnitude {expect}"
                )
            N[(alpha, beta)] = value
            N[(beta, alpha)] = -value
    return N


def _signed_pair_constant(rs, N, a, b):
    """N for arbitrary signed roots a, b with a + b a root (Q-valued)."""
    a_pos, b_pos = a in rs.index, b in rs.index
    if a_pos and b_pos:
        return N.get((a, b), Fraction(0))
    if not a_pos and not b_pos:
        na, nb = tuple(-c for c in a), tuple(-c for c in b)
        return -N.get((na, nb), Fraction(0))
    if not a_pos:
        return -_signed_pair_constant(rs, N, b, a)
    # a positive, b negative
    eta = tuple(-c for c in b)
    s = tuple(x + y for x, y in zip(a, b))
    if s in rs.index:
        return rs.norm(s) * N[(s, eta)] / rs.norm(a)
    ns = tuple(-c for c in s)
    if ns in rs.index:
        return rs.norm(ns) * N[(ns, a)] / rs.norm(eta)
    return Fraction(0)


class SplitSimpleLieAlgebra:
    """Chevalley-basis realization of a split simple Lie algebra over Q(zeta_M)."""

    def __init__(self, family: str, rank: int, field: CyclotomicField):
        self.rootsystem = root_system(family, rank)
        self.field = field
        rs = self.rootsystem
        npos = len(rs.positive_roots)
        self.dim = 2 * npos + rank
        self.npos = npos
        self.rank = rank
        self.family = rs.family

        # signed root of basis index (None for Cartan indices)
        self.root_of_index = [None] * self.dim
        self.index_of_root = {}
        for i, r in enumerate(rs.positive_roots):
            neg = tuple(-c for c in r)
            self.root_of_index[i] = r
            self.root_of_index[npos + i] = neg
            self.index_of_root[r] = i
            self.index_of_root[neg] = npos + i
        self.labels = (
            [f"x{list(r)}" for r in rs.positive_roots]
            + [f"x{[-c for c in r]}" for r in rs.positive_roots]
            + [f"h{i + 1}" for i in range(rank)]
        )

        # The integer tables do not depend on the field: they are built and
        # verified once per type, and only lifted for every further field.
        key = (self.family, rank)
        tables = _INTEGER_TABLES.get(key)
        fresh = tables is None
        if fresh:
            self._int_struct = self._integer_structure()
            tables = (self._int_struct, self._integer_killing())
        self._int_struct, self._int_killing = tables
        self._lift()
        if fresh:
            self.verify_chevalley()
            _INTEGER_TABLES[key] = tables

    # -- construction --------------------------------------------------------

    def _integer_structure(self):
        """Structure table over Z: (i, j) -> nonzero (k, c) pairs of [b_i, b_j].

        The constants are integers (N = +-(p+1), coroot and Cartan pairings),
        so the table is built and verified over Z; the lift Z -> Q(zeta_M) is
        an injective ring map, so every identity verified on the integer table
        holds for the lifted one.
        """
        rs = self.rootsystem
        N = _positive_pair_constants(rs)
        table = {}

        def put(i, j, entries):
            entries = tuple((k, c) for k, c in entries if c)
            if entries:
                table[(i, j)] = entries
                table[(j, i)] = tuple((k, -c) for k, c in entries)

        h0 = 2 * self.npos
        for i in range(self.npos):
            alpha = rs.positive_roots[i]
            coroot = rs.coroot(alpha)
            put(i, self.npos + i, [(h0 + t, c) for t, c in enumerate(coroot)])
        for ia in range(2 * self.npos):
            a = self.root_of_index[ia]
            for ib in range(ia + 1, 2 * self.npos):
                b = self.root_of_index[ib]
                s = tuple(x + y for x, y in zip(a, b))
                if not any(s):
                    continue  # handled above
                if s in rs.all_roots:
                    c = _signed_pair_constant(rs, N, a, b)
                    if c.denominator != 1:
                        raise StructureError(f"N({a},{b}) = {c} is not an integer")
                    put(ia, ib, [(self.index_of_root[s], int(c))])
        for t in range(self.rank):
            for ia in range(2 * self.npos):
                a = self.root_of_index[ia]
                pairing = rs.pairing(a, t)
                if pairing:
                    put(h0 + t, ia, [(ia, pairing)])
        return table

    def _integer_killing(self):
        """Killing matrix over Z, as the trace of ad_i ad_j on the integer table:
        the sum of (ad_i)_{c,r} (ad_j)_{r,c} = v w over the table entries
        [b_i, b_r] -> v b_c and [b_j, b_c] -> w b_r."""
        table = self._int_struct
        # (c, r) -> nonzero (j, w) with w the b_r coefficient of [b_j, b_c]
        by_pair = defaultdict(list)
        for (j, c), entries in table.items():
            for r, w in entries:
                by_pair[(c, r)].append((j, w))
        kill = [[0] * self.dim for _ in range(self.dim)]
        for (i, r), entries in table.items():
            row = kill[i]
            for c, v in entries:
                for j, w in by_pair[(c, r)]:
                    row[j] += v * w
        return kill

    def _lift(self):
        """Field-scalar copies of the integer structure table and Killing matrix."""
        table, kill = self._int_struct, self._int_killing
        lift = {c: self.field.scalar(c) for entries in table.values() for _, c in entries}
        lift.update((c, self.field.scalar(c)) for row in kill for c in row)
        self.struct = {
            key: tuple((k, lift[c]) for k, c in entries) for key, entries in table.items()
        }
        # _rows[i][j] = [b_i, b_j] as (k, c) pairs, for the bracket's inner loop
        self._rows = [{} for _ in range(self.dim)]
        for (i, j), entries in self.struct.items():
            self._rows[i][j] = entries
        self.killing_matrix = [[lift[c] for c in row] for row in kill]
        self._killing_rows = [
            tuple((j, lift[c]) for j, c in enumerate(row) if c) for row in kill
        ]

    # -- vectors ---------------------------------------------------------------

    def zero_vector(self):
        return [self.field.zero] * self.dim

    def basis_vector(self, i: int):
        v = self.zero_vector()
        v[i] = self.field.one
        return v

    def e(self, i: int):
        """Generator x_{alpha_i} (0-indexed simple root)."""
        alpha = tuple(1 if j == i else 0 for j in range(self.rank))
        return self.basis_vector(self.index_of_root[alpha])

    def f(self, i: int):
        alpha = tuple(-1 if j == i else 0 for j in range(self.rank))
        return self.basis_vector(self.index_of_root[alpha])

    def h(self, i: int):
        return self.basis_vector(2 * self.npos + i)

    def bracket(self, u, v):
        """[u, v] as a dense vector, for u and v given by their nonzero (index,
        value) pairs (`nonzeros`).  The structure rows are read at each call."""
        out = [self.field.zero] * self.dim
        rows = self._rows
        for i, a in u:
            row = rows[i]
            for j, b in v:
                entries = row.get(j)
                if entries:
                    ab = a * b
                    for k, c in entries:
                        out[k] = out[k] + ab * c
        return out

    def killing(self, u, v):
        """kappa(u, v), for u and v given by their nonzero (index, value) pairs
        (`nonzeros`).  The Killing rows are read at each call."""
        rows = self._killing_rows
        v = dict(v)
        total = self.field.zero
        for i, a in u:
            for j, k in rows[i]:
                b = v.get(j)
                if b is not None:
                    total = total + a * b * k
        return total

    # -- verification ------------------------------------------------------------

    def _jacobi_defect(self, i, j, k):
        """Nonzero coefficients of [b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]]."""
        table = self._int_struct
        acc = {}
        for a, inner in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            for m, c in table.get(inner, ()):
                for t, w in table.get((a, m), ()):
                    acc[t] = acc.get(t, 0) + c * w
        return {t: v for t, v in acc.items() if v}

    def verify_chevalley(self):
        """Exhaustive antisymmetry + Jacobi on basis triples; Killing nondegeneracy.

        The bracket identities are checked on the integer table built by
        `_integer_structure`.  Each cyclic term (a, (b, c)) of the Jacobi defect
        of i < j < k is a sum of products of two table entries, (b, c) -> m and
        (a, m) -> t.  A triple with no such pair in any of its three terms has
        defect 0 by that formula, so the scan evaluates only the others: a in
        partners[m] = {y : (y, m) in the table} and {b, c} in makers[m] =
        {(j, k) : j < k, m in [b_j, b_k]} for some m.  Antisymmetry, checked
        first, lets these indexes ignore the order within a pair.  Candidates
        are evaluated in lexicographic order, so a failure names the first
        failing triple of the all-triples scan.
        """
        table = self._int_struct
        for (i, j), entries in table.items():
            mirrored = dict(table.get((j, i), ()))
            if {k: -c for k, c in entries} != mirrored:
                raise StructureError(f"antisymmetry fails on basis pair ({i},{j})")
        for i in range(self.dim):
            if (i, i) in table:
                raise StructureError(f"[b_{i}, b_{i}] != 0")
        partners, makers = defaultdict(list), defaultdict(list)
        for (y, m), entries in table.items():
            partners[m].append(y)
            if y < m:
                for t, _ in entries:
                    makers[t].append((y, m))
        for i in range(self.dim):
            # the pairs (j, k), i < j < k, of the triples whose least index is i
            pairs = set()
            for x in partners[i]:
                # i the outer factor of [b_i, [b_j, b_k]] with x in [b_j, b_k]
                pairs.update((j, k) for j, k in makers[x] if j > i)
                if x > i:
                    # i, x the inner pair, m in [b_i, b_x], a the outer factor
                    for m, _ in table.get((i, x), ()):
                        pairs.update(
                            (a, x) if a < x else (x, a) for a in partners[m] if a > i and a != x
                        )
            for j, k in sorted(pairs):
                if self._jacobi_defect(i, j, k):
                    raise StructureError(f"Jacobi fails on basis triple ({i},{j},{k})")
        if not linalg.det(self.killing_matrix, self.field):
            raise StructureError("Killing form is degenerate")

    # -- serialization ------------------------------------------------------------

    def structure_records(self):
        # `struct` lifts the integer table entry for entry: one string per value
        text = {}
        out = []
        for (i, j), entries in sorted(self._int_struct.items()):
            for k, c in entries:
                if c not in text:
                    text[c] = str(self.field.scalar(c))
                out.append({"i": i, "j": j, "k": k, "c": text[c]})
        return out

    def __repr__(self):
        return f"SplitSimpleLieAlgebra({self.family}{self.rank}, dim={self.dim})"


def nonzeros(vec):
    """The nonzero (index, value) pairs of a dense g-vector: the operands of
    `bracket`, `killing` and `LieAutomorphism.apply`."""
    return tuple((i, x) for i, x in enumerate(vec) if x)


_ALGEBRA_CACHE = {}
# (family, rank) -> verified (integer structure table, integer Killing matrix)
_INTEGER_TABLES = {}


def build_algebra(family: str, rank: int, field: CyclotomicField | None = None):
    """Validated Chevalley-basis algebra; cached per (type, conductor)."""
    if field is None:
        field = CyclotomicField(1)
    key = (family.upper(), rank, field.conductor)
    algebra = _ALGEBRA_CACHE.get(key)
    if algebra is None:
        algebra = SplitSimpleLieAlgebra(family, rank, field)
        _ALGEBRA_CACHE[key] = algebra
    return algebra


def _combine(columns, coeffs):
    """Nonzero entries {t: x} of sum(c * columns[k]) over (k, c) in coeffs, for
    columns given by their nonzero (t, x) pairs (automorphism columns, or the
    structure table with [b_s, b_t] as column (s, t))."""
    acc = {}
    for k, c in coeffs:
        for t, x in columns[k]:
            acc[t] = acc[t] + x * c if t in acc else x * c
    return {t: x for t, x in acc.items() if x}


def _compose_columns(a_cols, b_cols):
    """Nonzero (t, x) pairs of each column of A B, from those of A and B."""
    return tuple(tuple(sorted(_combine(a_cols, col).items())) for col in b_cols)


class LieAutomorphism:
    """A bracket-preserving linear map of finite order, stored column-wise."""

    def __init__(self, algebra, columns, order: int, validate: bool = True):
        self.algebra = algebra
        self.columns = tuple(tuple(col) for col in columns)
        if len(self.columns) != algebra.dim or any(
            len(c) != algebra.dim for c in self.columns
        ):
            raise MismatchError("automorphism matrix has wrong shape")
        # the nonzero (t, x) pairs of each column, which every walk below reads
        self._nonzeros = tuple(
            tuple((t, x) for t, x in enumerate(col) if x) for col in self.columns
        )
        if validate:
            self._validate_bracket()
            order = self._validate_order(order)
        self.order = order

    def _validate_bracket(self):
        """A[b_i, b_j] = [A b_i, A b_j] for every basis pair i < j."""
        alg, cols = self.algebra, self._nonzeros
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                lhs = _combine(cols, alg.struct.get((i, j), ()))
                rhs = _combine(alg.struct, [
                    ((s, t), a * b) for s, a in cols[i] for t, b in cols[j] if (s, t) in alg.struct
                ])
                if lhs != rhs:
                    raise StructureError(
                        f"matrix does not preserve the bracket on basis pair ({i},{j})"
                    )

    def _validate_order(self, declared: int) -> int:
        if declared < 1:
            raise StructureError("automorphism order must be positive")
        one = self.algebra.field.one
        ident = tuple(((i, one),) for i in range(self.algebra.dim))
        power = self._nonzeros
        minimal = None
        for j in range(1, declared + 1):
            if power == ident:  # power holds A^j at the top of iteration j
                minimal = j
                break
            power = _compose_columns(self._nonzeros, power)
        if minimal is None or declared % minimal != 0:
            raise StructureError(f"matrix does not have order dividing {declared}")
        return minimal

    def apply(self, vec):
        """The image of vec as a dense vector, for vec given by its nonzero
        (index, value) pairs (`nonzeros`)."""
        out = [self.algebra.field.zero] * self.algebra.dim
        cols = self._nonzeros
        for j, a in vec:
            for t, x in cols[j]:
                out[t] = out[t] + a * x
        return out

    def compose(self, other: "LieAutomorphism") -> "LieAutomorphism":
        if other.algebra is not self.algebra:
            raise MismatchError("automorphisms act on different algebras")
        cols = []
        for col in _compose_columns(self._nonzeros, other._nonzeros):
            dense = self.algebra.zero_vector()
            for t, x in col:
                dense[t] = x
            cols.append(dense)
        bound = lcm(self.order, other.order)
        return LieAutomorphism(self.algebra, cols, order=bound, validate=False)

    def __pow__(self, exponent: int) -> "LieAutomorphism":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        acc = identity_automorphism(self.algebra)
        base = self
        e = exponent
        while e:
            if e & 1:
                acc = acc.compose(base)
            base = base.compose(base)
            e >>= 1
        return acc

    def inverse(self) -> "LieAutomorphism":
        return self ** (self.order - 1) if self.order > 1 else self

    def commutes_with(self, other: "LieAutomorphism") -> bool:
        return self.compose(other).columns == other.compose(self).columns

    def __eq__(self, other):
        return (
            isinstance(other, LieAutomorphism)
            and other.algebra is self.algebra
            and other.columns == self.columns
        )

    def __hash__(self):
        return hash(self.columns)


def _joint_eigenspace(algebra, pairs):
    """Basis of {x : M x = lam x for every (columns of M, lam) in pairs}: the
    nullspace of the stacked rows of M - lam I."""
    dim = algebra.dim
    rows = []
    for columns, eigenvalue in pairs:
        for r in range(dim):
            row = [columns[c][r] for c in range(dim)]
            row[r] = row[r] - eigenvalue
            rows.append(row)
    return linalg.nullspace(rows, dim, algebra.field)


def _check_commuting_family(algebra, autos, orders):
    """Each map acts on the algebra, a^m = id for its order m, and all commute."""
    ident = identity_automorphism(algebra)
    for i, (a, m) in enumerate(zip(autos, orders)):
        if a.algebra is not algebra:
            raise MismatchError("automorphisms act on different algebras")
        if a ** m != ident:
            raise StructureError(f"automorphism {i} does not satisfy a^{m} = id")
    for (i, a), (j, b) in combinations(enumerate(autos), 2):
        if not a.commutes_with(b):
            raise StructureError(f"automorphisms {i} and {j} do not commute")


def identity_automorphism(algebra) -> LieAutomorphism:
    cols = [algebra.basis_vector(i) for i in range(algebra.dim)]
    return LieAutomorphism(algebra, cols, order=1, validate=False)


def diagram_automorphism(algebra, perm) -> LieAutomorphism:
    """Extend a Dynkin-diagram symmetry from the generators by bracket words.

    Every decomposition of a root is used and must agree; a disagreement
    signals an inconsistency in the structure constants and raises.
    """
    rs = algebra.rootsystem
    rank = algebra.rank
    perm = tuple(perm)
    if sorted(perm) != list(range(rank)):
        raise StructureError(f"{perm} is not a permutation of 0..{rank - 1}")
    for i in range(rank):
        for j in range(rank):
            if rs.cartan[perm[i]][perm[j]] != rs.cartan[i][j]:
                raise StructureError(f"{perm} does not preserve the Cartan matrix")

    field = algebra.field
    npos = algebra.npos
    images = {}
    for i in range(rank):
        alpha = tuple(1 if j == i else 0 for j in range(rank))
        target = tuple(1 if j == perm[i] else 0 for j in range(rank))
        images[algebra.index_of_root[alpha]] = algebra.basis_vector(
            algebra.index_of_root[target]
        )
        neg, tneg = tuple(-c for c in alpha), tuple(-c for c in target)
        images[algebra.index_of_root[neg]] = algebra.basis_vector(
            algebra.index_of_root[tneg]
        )
        images[2 * npos + i] = algebra.basis_vector(2 * npos + perm[i])

    for gamma in rs.positive_roots:
        decs = rs.decompositions(gamma)
        if not decs:
            continue
        for sign in (1, -1):
            target_idx = algebra.index_of_root[tuple(sign * c for c in gamma)]
            candidate = None
            for alpha, beta in decs:
                ia = algebra.index_of_root[tuple(sign * c for c in alpha)]
                ib = algebra.index_of_root[tuple(sign * c for c in beta)]
                # [x_a, x_b] = c x_target in the verified table
                coeff = field.scalar(dict(algebra._int_struct[(ia, ib)])[target_idx])
                img = algebra.bracket(nonzeros(images[ia]), nonzeros(images[ib]))
                inv = coeff.inverse()
                img = [x * inv for x in img]
                if candidate is None:
                    candidate = img
                elif candidate != img:
                    raise StructureError(
                        f"bracket words disagree while extending {perm} at root {gamma}"
                    )
            images[target_idx] = candidate

    columns = [images[i] for i in range(algebra.dim)]
    order = _perm_order(perm)
    return LieAutomorphism(algebra, columns, order=order)


def _perm_order(perm) -> int:
    order = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            length += 1
        order = lcm(order, length)
    return order


class EigenspaceDecomposition:
    """Simultaneous eigenspaces of a commuting family of finite-order maps."""

    def __init__(self, algebra, autos, orders):
        self.algebra = algebra
        self.autos = tuple(autos)
        self.orders = tuple(orders)
        field = algebra.field
        n = len(autos)
        if len(orders) != n:
            raise MismatchError("one order per automorphism is required")
        for m in orders:
            if m < 1:
                raise StructureError(f"orders must be positive, got {m}")
            if field.conductor % m != 0:
                raise MismatchError(
                    f"field conductor {field.conductor} lacks the order-{m} roots of unity"
                )
        _check_commuting_family(algebra, autos, orders)

        self.components = {}
        total = 0
        stacked = []
        for res in product(*(range(m) for m in orders)):
            basis = _joint_eigenspace(
                algebra,
                [(a.columns, field.root_of_unity(m, i)) for a, m, i in zip(autos, orders, res)],
            )
            self.components[res] = tuple(tuple(v) for v in basis)
            total += len(basis)
            stacked.extend(basis)
        if total != algebra.dim or linalg.rank(stacked, field) != algebra.dim:
            raise StructureError("eigenspaces do not decompose the algebra")
        for res, basis in self.components.items():
            for v in basis:
                pairs = nonzeros(v)
                for a, m, i in zip(autos, orders, res):
                    lam = field.root_of_unity(m, i)
                    if a.apply(pairs) != [lam * x for x in v]:
                        raise StructureError("eigenvector check failed")
        self._solvers = {
            res: linalg.SpanSolver(field, basis) for res, basis in self.components.items()
        }

    def component(self, residue):
        return self.components[tuple(residue)]

    def dims(self):
        return {res: len(b) for res, b in sorted(self.components.items())}

    def coords(self, residue, vector):
        return self._solvers[tuple(residue)].coords(vector)

    def contains(self, residue, vector) -> bool:
        return self._solvers[tuple(residue)].contains(vector)


def simultaneous_eigenspaces(autos, orders) -> EigenspaceDecomposition:
    if not autos:
        raise MismatchError("at least one automorphism is required")
    return EigenspaceDecomposition(autos[0].algebra, autos, orders)


def _subalgebra_killing(algebra, basis):
    """(ad, kill) of the subalgebra with this basis: ad[i][r][c] is the b_r
    coefficient of [b_i, b_c], kill[i][j] the trace of ad_i ad_j.  Raises when
    the basis is dependent or its span is not closed under the bracket."""
    field = algebra.field
    basis = [list(v) for v in basis]
    d = len(basis)
    solver = linalg.SpanSolver(field, basis)
    if solver.dim != d:
        raise StructureError("subalgebra basis is linearly dependent")
    pairs = [nonzeros(v) for v in basis]
    ad = [[[field.zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            coords = solver.coords(algebra.bracket(pairs[i], pairs[j]))
            if coords is None:
                raise StructureError("basis is not closed under the bracket")
            for r in range(d):
                ad[i][r][j] = coords[r]  # ad_i column j
    kill = [[field.zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            tr = field.zero
            for r in range(d):
                for c in range(d):
                    tr = tr + ad[i][r][c] * ad[j][c][r]
            kill[i][j] = tr
            kill[j][i] = tr
    return ad, kill


def is_central_simple(algebra, basis) -> bool:
    """Killing nondegeneracy of the subalgebra plus one-dimensional adjoint commutant."""
    field = algebra.field
    d = len(basis)
    if d == 0:
        return False
    ad, kill = _subalgebra_killing(algebra, basis)
    if not linalg.det(kill, field):
        return False
    elim = linalg.SparseEliminator(field)
    for i in range(d):
        for r in range(d):
            for c in range(d):
                row = {}
                for m in range(d):
                    v = ad[i][m][c]
                    if v:
                        row[r * d + m] = row.get(r * d + m, field.zero) + v
                    w = ad[i][r][m]
                    if w:
                        row[m * d + c] = row.get(m * d + c, field.zero) - w
                row = {k: v for k, v in row.items() if v}
                if row:
                    elim.add(row)
    return d * d - elim.rank == 1
