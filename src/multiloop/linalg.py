"""Exact dense and sparse linear algebra over a cyclotomic field.

Vectors are lists/tuples of CyclotomicNumber.  Pivoting is deterministic
(first nonzero column, rows in input order) so computed bases are canonical.
`SpanSolver` keeps its basis in reduced echelon form (each row is 1 at its
own pivot and 0 at every other pivot), so reading a vector against the span
is a sparse subtraction, not an elimination.
"""

from __future__ import annotations


def rref(rows, field):
    """Reduced row echelon form.  Returns (echelon_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    echelon, pivots = [], []
    for row in rows:
        for erow, pcol in zip(echelon, pivots):
            c = row[pcol]
            if c:
                for j in range(ncols):
                    row[j] = row[j] - c * erow[j]
        pivot = next((j for j in range(ncols) if row[j]), None)
        if pivot is None:
            continue
        inv = row[pivot].inverse()
        row = [x * inv for x in row]
        for erow in echelon:
            c = erow[pivot]
            if c:
                for j in range(ncols):
                    erow[j] = erow[j] - c * row[j]
        echelon.append(row)
        pivots.append(pivot)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [echelon[i] for i in order], [pivots[i] for i in order]


def rank(rows, field) -> int:
    return len(rref(rows, field)[0])


def nullspace(rows, ncols, field):
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    echelon, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for erow, p in zip(echelon, pivots):
            v[p] = -erow[f]
        basis.append(v)
    return basis


def det(rows, field):
    """Determinant by fraction-free-ish Gaussian elimination (exact field ops)."""
    n = len(rows)
    m = [list(r) for r in rows]
    result = field.one
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            return field.zero
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        pivot = m[col][col]
        result = result * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            c = m[r][col]
            if c:
                factor = c * inv
                for j in range(col, n):
                    m[r][j] = m[r][j] - factor * m[col][j]
    return result


def solve_system(rows, rhs, field):
    """Particular solution x of A x = b (free variables zero), or None.

    Full reduction leaves each pivot row supported on its pivot and the free
    columns only, so with free variables at zero the augmented entry is the
    pivot value directly.
    """
    ncols = len(rows[0]) if rows else 0
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    echelon, pivots = rref(augmented, field)
    solution = [field.zero] * ncols
    for erow, p in zip(echelon, pivots):
        if p == ncols:
            return None  # row reads 0 = nonzero
        solution[p] = erow[ncols]
    return solution


class SpanSolver:
    """Incremental span of a list of vectors with coordinate recovery.

    Keeps a reduced echelon basis of the span: each basis row has a pivot
    column where it is 1, and every row is 0 at every other row's pivot.  A
    row is stored as its pivot plus the sparse (column -> value) map of its
    entries off the pivot columns, together with the sparse expression of the
    row as a combination of the input vectors.  So a member x of the span is
    sum_p x[p] E_p: `residual`, `contains` and `coords` read x at the pivots
    and subtract over nonzeros, with no elimination.  The independent inputs
    are chosen greedily in input order; a dependent input gets coefficient 0
    in every combination.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows = []  # rows[i]: {col: value} of echelon row i off the pivot columns
        self.combos = []  # combos[i]: {input index: coefficient} giving echelon row i
        self._row_of = {}  # pivot column -> row index
        self.n_inputs = 0
        for v in vectors:
            self.add(v)

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vector):
        """(hits, rest): (row index, x[p]) for the pivots where x is nonzero,
        and the nonzeros of x minus sum x[p] E_p, all off the pivot columns."""
        row_of = self._row_of
        hits, rest = [], {}
        for j, v in enumerate(vector):
            if v:
                i = row_of.get(j)
                if i is None:
                    rest[j] = v
                else:
                    hits.append((i, v))
        for i, c in hits:
            _axpy(rest, -c, self.rows[i])
        return hits, rest

    def add(self, vector) -> bool:
        """Insert a generator; returns True if it enlarged the span."""
        index = self.n_inputs
        self.n_inputs += 1
        hits, rest = self._reduce(vector)
        if not rest:
            return False
        pivot = min(rest)
        inv = rest.pop(pivot).inverse()
        row = {j: v * inv for j, v in rest.items()}
        combo = {index: inv}
        for i, c in hits:
            _axpy(combo, -(c * inv), self.combos[i])
        # back-substitute, so the new pivot column is zero in every earlier row
        for erow, ecombo in zip(self.rows, self.combos):
            c = erow.pop(pivot, None)
            if c is not None:
                _axpy(erow, -c, row)
                _axpy(ecombo, -c, combo)
        self._row_of[pivot] = len(self.rows)
        self.rows.append(row)
        self.combos.append(combo)
        return True

    def residual(self, vector):
        """The unique vector of vector + span that is zero at every pivot."""
        out = [self.field.zero] * len(vector)
        for j, v in self._reduce(vector)[1].items():
            out[j] = v
        return out

    def contains(self, vector) -> bool:
        return not self._reduce(vector)[1]

    def coords(self, vector):
        """Coefficients over the input vectors, or None if outside the span."""
        hits, rest = self._reduce(vector)
        if rest:
            return None
        coeffs = [self.field.zero] * self.n_inputs
        for i, c in hits:
            for k, e in self.combos[i].items():
                coeffs[k] = coeffs[k] + c * e
        return coeffs


def _axpy(target: dict, a, source: dict) -> None:
    """target += a * source on sparse maps, dropping entries that cancel."""
    for k, v in source.items():
        cur = target.get(k)
        if cur is None:
            target[k] = a * v
        else:
            cur = cur + a * v
            if cur:
                target[k] = cur
            else:
                del target[k]


class SparseEliminator:
    """Incremental Gaussian elimination on sparse rows (dict col -> scalar).

    Tracks rank only; `reduce` returns the residual of a row against the
    current row space, so `satisfies(v)` on echelon rows checks v against
    every equation ever inserted.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> normalized sparse row

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        row = {k: v for k, v in row.items() if v}
        while row:
            col = min(row)
            base = self.rows.get(col)
            if base is None:
                return row
            c = row[col]
            for k, v in base.items():
                newv = row.get(k, self.field.zero) - c * v
                if newv:
                    row[k] = newv
                elif k in row:
                    del row[k]
        return row

    def add(self, row: dict) -> bool:
        """Insert an equation; returns True if it was independent."""
        red = self.reduce(row)
        if not red:
            return False
        col = min(red)
        inv = red[col].inverse()
        self.rows[col] = {k: v * inv for k, v in red.items()}
        return True

    def dot_is_zero(self, vector: dict) -> bool:
        """True iff every stored (reduced) equation annihilates the vector."""
        for row in self.rows.values():
            acc = self.field.zero
            for k, c in row.items():
                x = vector.get(k)
                if x is not None:
                    acc = acc + c * x
            if acc:
                return False
        return True


def intersect(space_a, space_b, field):
    """Basis of the intersection of two spans (vectors given as rows)."""
    if not space_a or not space_b:
        return []
    ncols = len(space_a[0])
    na, nb = len(space_a), len(space_b)
    # solve sum a_i u_i - sum b_j w_j = 0: columns are the combined coefficients
    rows = []
    for c in range(ncols):
        rows.append([space_a[i][c] for i in range(na)] + [-space_b[j][c] for j in range(nb)])
    basis = []
    solver = SpanSolver(field)
    for coeffs in nullspace(rows, na + nb, field):
        v = [field.zero] * ncols
        for i in range(na):
            if coeffs[i]:
                for c in range(ncols):
                    v[c] = v[c] + coeffs[i] * space_a[i][c]
        if any(v) and solver.add(v):
            basis.append(v)
    return basis
