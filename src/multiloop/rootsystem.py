"""Root systems of the simple types A-G from their Cartan matrices.

Positive roots are integer vectors in the simple-root basis, enumerated by
the root-string closure and totally ordered by height then lexicographic
order, in which the first decomposition of a non-simple positive root is its
extraspecial pair; that pair pins down the structure-constant signs
downstream.  Root norms are integers, computed once per root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import StructureError

POSITIVE_ROOT_COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}


def cartan_matrix(family: str, rank: int):
    """Cartan matrix (a_ij) = <alpha_j, alpha_i^vee> in Bourbaki numbering."""
    family = family.upper()
    l = rank

    def chain(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
            if i + 1 < n:
                m[i][i + 1] = -1
                m[i + 1][i] = -1
        return m

    if family == "A" and l >= 1:
        return chain(l)
    if family == "B" and l >= 2:
        m = chain(l)
        m[l - 1][l - 2] = -2  # short last root
        return m
    if family == "C" and l >= 2:
        m = chain(l)
        m[l - 2][l - 1] = -2  # long last root
        return m
    if family == "D" and l >= 3:
        m = chain(l - 1)
        for row in m:
            row.append(0)
        m.append([0] * l)
        m[l - 1][l - 1] = 2
        m[l - 3][l - 1] = -1  # fork at node l-2 (1-indexed)
        m[l - 1][l - 3] = -1
        m[l - 2][l - 1] = 0
        m[l - 1][l - 2] = 0
        return m
    if family == "E" and l in (6, 7, 8):
        # chain 1-3-4-5-6(-7-8) with node 2 attached to node 4 (Bourbaki)
        m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
        edges = [(0, 2), (2, 3), (3, 4), (4, 5)] + [(i, i + 1) for i in range(5, l - 1)]
        edges.append((1, 3))
        for i, j in edges:
            m[i][j] = -1
            m[j][i] = -1
        return m
    if family == "F" and l == 4:
        return [
            [2, -1, 0, 0],
            [-1, 2, -2, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ]
    if family == "G" and l == 2:
        return [[2, -1], [-3, 2]]
    raise StructureError(f"invalid simple type {family}{rank}")


def _symmetrizer(cartan):
    """Positive integers d_i with d_i a_ij = d_j a_ji, found by propagation."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                queue.append(j)
    if any(x is None for x in d):
        raise StructureError("Cartan matrix is not connected")
    scale = lcm(*(x.denominator for x in d))
    d = [int(x * scale) for x in d]
    g = gcd(*d)
    return tuple(x // g for x in d)


class RootSystem:
    """Positive roots, norms, root strings and decompositions for one simple type."""

    def __init__(self, family: str, rank: int):
        self.family = family.upper()
        self.rank = rank
        self.cartan = tuple(tuple(row) for row in cartan_matrix(family, rank))
        self.sym = _symmetrizer(self.cartan)
        self.positive_roots = self._enumerate()
        self.index = {r: i for i, r in enumerate(self.positive_roots)}
        self.all_roots = set(self.positive_roots) | {
            tuple(-c for c in r) for r in self.positive_roots
        }
        expected = POSITIVE_ROOT_COUNTS[self.family](rank)
        if len(self.positive_roots) != expected:
            raise StructureError(
                f"{self.family}{rank}: found {len(self.positive_roots)} positive roots, "
                f"classification says {expected}"
            )
        self._norms = {}

    def _enumerate(self):
        simple = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            simple.append(tuple(v))
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            new = []
            for beta in frontier:
                for i, alpha in enumerate(simple):
                    p = 0
                    cur = tuple(b - a for b, a in zip(beta, alpha))
                    while cur in roots or tuple(-c for c in cur) in roots:
                        p += 1
                        cur = tuple(c - a for c, a in zip(cur, alpha))
                    q = p - self.pairing(beta, i)
                    if q > 0:
                        cand = tuple(b + a for b, a in zip(beta, alpha))
                        if cand not in roots:
                            roots.add(cand)
                            new.append(cand)
            frontier = new
        return sorted(roots, key=lambda r: (sum(r), r))

    # -- pairings -----------------------------------------------------------

    def pairing(self, beta, i: int) -> int:
        """<beta, alpha_i^vee> for beta in simple-root coordinates."""
        return sum(c * self.cartan[i][j] for j, c in enumerate(beta))

    def norm(self, beta) -> int:
        """(beta, beta) for the W-invariant form (alpha_i, alpha_j) = d_i a_ij,
        which is integral; memoised per root."""
        n = self._norms.get(beta)
        if n is None:
            n = self._norms[beta] = sum(
                b * c * self.sym[i] * self.cartan[i][j]
                for i, b in enumerate(beta) if b
                for j, c in enumerate(beta) if c
            )
        return n

    def coroot(self, beta):
        """Coefficients of beta^vee over the simple coroots (exact integers)."""
        nb = self.norm(beta)
        out = []
        for i, c in enumerate(beta):
            k, rem = divmod(2 * c * self.sym[i], nb)
            if rem:
                raise StructureError(f"non-integral coroot coefficient for {beta}")
            out.append(k)
        return tuple(out)

    # -- strings and decompositions ------------------------------------------

    def string_down(self, alpha, beta) -> int:
        """p = max k with beta - k*alpha a root (the alpha-string through beta)."""
        p = 0
        cur = tuple(b - a for b, a in zip(beta, alpha))
        while cur in self.all_roots:
            p += 1
            cur = tuple(c - a for c, a in zip(cur, alpha))
        return p

    def decompositions(self, gamma):
        """All (alpha, beta) with alpha + beta = gamma, both positive, alpha < beta.

        Ordered by alpha in the height-lex order, so the first entry is the
        extraspecial pair.
        """
        out = []
        for alpha in self.positive_roots:
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if beta in self.index and (sum(alpha), alpha) < (sum(beta), beta):
                out.append((alpha, beta))
        return out


@lru_cache(maxsize=None)
def root_system(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)
