import random
from itertools import combinations

import pytest

from multiloop import linalg
from multiloop.cyclotomic import CyclotomicField
from multiloop.errors import StructureError
from multiloop.liealg import (
    LieAutomorphism,
    _joint_eigenspace,
    build_algebra,
    diagram_automorphism,
    identity_automorphism,
    is_central_simple,
    nonzeros,
    simultaneous_eigenspaces,
)
from multiloop.rootsystem import root_system

def eigenspace(auto, eigenvalue):
    """The eigenspace of one automorphism, the one-map case of the joint eigenspaces."""
    return _joint_eigenspace(auto.algebra, [(auto.columns, eigenvalue)])


TYPES = [("A", 1, 3), ("A", 2, 8), ("A", 3, 15), ("B", 2, 10), ("C", 3, 21), ("D", 4, 28), ("G", 2, 14)]


@pytest.mark.parametrize("family,rank,dim", TYPES)
def test_dimensions(family, rank, dim):
    assert build_algebra(family, rank).dim == dim


def test_invalid_types():
    for family, rank in [("B", 1), ("E", 9), ("G", 3), ("F", 5), ("H", 2)]:
        with pytest.raises(StructureError):
            build_algebra(family, rank)


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in TYPES])
def test_root_strings_unbroken(family, rank):
    # root strings have at most 4 roots, so the window -4..4 holds every one
    rs = root_system(family, rank)
    for alpha in rs.positive_roots:
        for beta in rs.positive_roots:
            if alpha != beta:
                steps = [
                    k for k in range(-4, 5)
                    if tuple(b + k * a for b, a in zip(beta, alpha)) in rs.all_roots
                ]
                assert steps == list(range(steps[0], steps[-1] + 1)) and 0 in steps


def test_rank1_relations():
    alg = build_algebra("A", 1)
    e, f, h = alg.e(0), alg.f(0), alg.h(0)
    assert alg.bracket(nonzeros(h), nonzeros(e)) == [2 * x for x in e]
    assert alg.bracket(nonzeros(h), nonzeros(f)) == [-2 * x for x in f]
    assert alg.bracket(nonzeros(e), nonzeros(f)) == h


def test_cartan_acts_by_pairing():
    alg = build_algebra("A", 2)
    rs = alg.rootsystem
    for i, alpha in enumerate(rs.positive_roots):
        x = alg.basis_vector(i)
        for t in range(alg.rank):
            expect = [rs.pairing(alpha, t) * c for c in x]
            assert alg.bracket(nonzeros(alg.h(t)), nonzeros(x)) == expect


def test_bracket_antisymmetry_random():
    alg = build_algebra("C", 3)
    rng = random.Random(1)
    for _ in range(20):
        u = [alg.field.scalar(rng.randint(-3, 3)) for _ in range(alg.dim)]
        v = [alg.field.scalar(rng.randint(-3, 3)) for _ in range(alg.dim)]
        u, v = nonzeros(u), nonzeros(v)
        assert alg.bracket(u, v) == [-x for x in alg.bracket(v, u)]
        assert not any(alg.bracket(u, u))


def test_jacobi_random_vectors():
    alg = build_algebra("G", 2)
    rng = random.Random(2)
    for _ in range(10):
        u, v, w = (
            [alg.field.scalar(rng.randint(-2, 2)) for _ in range(alg.dim)]
            for _ in range(3)
        )
        u, v, w = map(nonzeros, (u, v, w))
        total = alg.bracket(u, nonzeros(alg.bracket(v, w)))
        for i, x in enumerate(alg.bracket(v, nonzeros(alg.bracket(w, u)))):
            total[i] = total[i] + x
        for i, x in enumerate(alg.bracket(w, nonzeros(alg.bracket(u, v)))):
            total[i] = total[i] + x
        assert not any(total)


def test_killing_rank1_values():
    alg = build_algebra("A", 1)
    e, f, h = alg.e(0), alg.f(0), alg.h(0)
    assert alg.killing(nonzeros(h), nonzeros(h)) == alg.field.scalar(8)
    assert alg.killing(nonzeros(e), nonzeros(f)) == alg.field.scalar(4)
    assert alg.killing(nonzeros(e), nonzeros(e)).is_zero()


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_killing_symmetric_invariant_nondegenerate(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(3)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.killing_matrix[i][j] == alg.killing_matrix[j][i]
    for _ in range(15):
        u, v, w = (
            [alg.field.scalar(rng.randint(-2, 2)) for _ in range(alg.dim)]
            for _ in range(3)
        )
        u, v, w = map(nonzeros, (u, v, w))
        assert alg.killing(nonzeros(alg.bracket(u, v)), w) == alg.killing(u, nonzeros(alg.bracket(v, w)))
    assert not linalg.det(alg.killing_matrix, alg.field).is_zero()


def test_diagram_automorphism_a2():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    assert sigma.order == 2
    assert len(eigenspace(sigma, field.one)) == 3
    # preserves the Killing form on basis pairs
    for i in range(alg.dim):
        ci = list(sigma.columns[i])
        for j in range(alg.dim):
            assert alg.killing(nonzeros(ci), nonzeros(sigma.columns[j])) == alg.killing_matrix[i][j]


def test_diagram_automorphism_identity():
    alg = build_algebra("A", 2)
    ident = diagram_automorphism(alg, [0, 1])
    assert ident == identity_automorphism(alg)
    assert ident.order == 1


def test_diagram_automorphism_d4_triality():
    field = CyclotomicField(3)
    alg = build_algebra("D", 4, field)
    tri = diagram_automorphism(alg, [2, 1, 3, 0])
    assert tri.order == 3
    assert len(eigenspace(tri, field.one)) == 14


def test_triality_preserves_killing():
    field = CyclotomicField(3)
    alg = build_algebra("D", 4, field)
    tri = diagram_automorphism(alg, [2, 1, 3, 0])
    rng = random.Random(9)
    for _ in range(30):
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        lhs = alg.killing(nonzeros(tri.columns[i]), nonzeros(tri.columns[j]))
        assert lhs == alg.killing_matrix[i][j]


def test_diagram_automorphism_rejects_non_symmetry():
    alg = build_algebra("A", 3)
    with pytest.raises(StructureError):
        diagram_automorphism(alg, [1, 0, 2])  # does not preserve the Cartan matrix
    with pytest.raises(StructureError):
        diagram_automorphism(alg, [0, 0, 1])  # not a permutation


def test_matrix_automorphism_validation():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    # feeding the matrix back is accepted
    again = LieAutomorphism(alg, sigma.columns, order=2)
    assert again == sigma
    # corrupting one sign breaks bracket preservation
    bad = [list(c) for c in sigma.columns]
    bad[0] = [-x for x in bad[0]]
    with pytest.raises(StructureError):
        LieAutomorphism(alg, bad, order=2)
    # wrong declared order is rejected
    with pytest.raises(StructureError):
        LieAutomorphism(alg, sigma.columns, order=3)


def _dense_refusal(alg, columns, declared):
    """The dense validation of a column matrix, kept as the reference: the
    message it refuses with, or the minimal order when it accepts."""
    dim = alg.dim

    def apply(cols, vec):
        out = alg.zero_vector()
        for k, a in enumerate(vec):
            if a:
                for t in range(dim):
                    if cols[k][t]:
                        out[t] = out[t] + a * cols[k][t]
        return out

    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = alg.zero_vector()
            for k, c in alg.struct.get((i, j), ()):
                lhs = [x + c * y for x, y in zip(lhs, columns[k])]
            if lhs != alg.bracket(nonzeros(columns[i]), nonzeros(columns[j])):
                return f"matrix does not preserve the bracket on basis pair ({i},{j})"
    if declared < 1:
        return "automorphism order must be positive"
    ident = tuple(tuple(alg.basis_vector(i)) for i in range(dim))
    power = tuple(tuple(c) for c in columns)
    for j in range(1, declared + 1):
        if power == ident:
            return j if declared % j == 0 else f"matrix does not have order dividing {declared}"
        power = tuple(tuple(apply(columns, col)) for col in power)
    return f"matrix does not have order dividing {declared}"


@pytest.mark.parametrize(
    "family,rank,conductor,perm",
    [("A", 2, 2, [1, 0]), ("D", 4, 3, [2, 1, 3, 0]), ("A", 5, 2, [4, 3, 2, 1, 0])],
)
def test_sparse_validation_refuses_what_the_dense_one_refused(family, rank, conductor, perm):
    alg = build_algebra(family, rank, CyclotomicField(conductor))
    sigma = diagram_automorphism(alg, perm)
    cols = [list(c) for c in sigma.columns]
    negated = [list(c) for c in cols]
    negated[alg.npos] = [-x for x in negated[alg.npos]]
    swapped = [list(c) for c in cols]
    swapped[0], swapped[alg.dim - 1] = swapped[alg.dim - 1], swapped[0]
    cases = [(cols, sigma.order), (cols, 2 * sigma.order), (negated, sigma.order),
             (swapped, sigma.order), (cols, sigma.order + 1), (cols, 0)]
    for columns, declared in cases:
        expected = _dense_refusal(alg, columns, declared)
        if isinstance(expected, int):
            assert LieAutomorphism(alg, columns, order=declared).order == expected
            continue
        with pytest.raises(StructureError) as err:
            LieAutomorphism(alg, columns, order=declared)
        assert str(err.value) == expected
    assert _dense_refusal(alg, cols, sigma.order) == sigma.order


def _first_jacobi_failure(alg):
    """The all-triples scan, kept as the reference for `verify_chevalley`."""
    for i, j, k in combinations(range(alg.dim), 3):
        if alg._jacobi_defect(i, j, k):
            return f"Jacobi fails on basis triple ({i},{j},{k})"
    return None


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f, r, _ in TYPES] + [("F", 4), ("E", 6)]
)
def test_jacobi_scan_matches_all_triples(family, rank, monkeypatch):
    alg = build_algebra(family, rank)
    true = alg._int_struct
    assert _first_jacobi_failure(alg) is None
    alg.verify_chevalley()
    rng = random.Random(f"{family}{rank}")
    pairs = sorted(key for key in true if key[0] < key[1])
    refused = 0
    for _ in range(50):
        table = dict(true)
        if rng.random() < 0.5:
            # a new entry on any pair, in a slot the true bracket leaves empty
            i, j = sorted(rng.sample(range(alg.dim), 2))
            support = {k for k, _ in table.get((i, j), ())}
            k = rng.choice([k for k in range(alg.dim) if k not in support])
            entries = table.get((i, j), ()) + ((k, rng.choice([-1, 1])),)
        else:
            # one existing entry changed, or dropped when it becomes 0
            i, j = rng.choice(pairs)
            entries = list(table[(i, j)])
            slot = rng.randrange(len(entries))
            k, c = entries[slot]
            entries[slot] = (k, c + rng.choice([-1, 1]))
            entries = tuple(e for e in entries if e[1])
        table[(i, j)] = entries
        table[(j, i)] = tuple((k, -c) for k, c in entries)
        monkeypatch.setattr(alg, "_int_struct", table)
        expected = _first_jacobi_failure(alg)
        if expected is None:
            alg.verify_chevalley()  # e.g. [e, f] = 2h still satisfies Jacobi in A1
            continue
        with pytest.raises(StructureError) as err:
            alg.verify_chevalley()
        assert str(err.value) == expected
        refused += 1
        if refused == 8:
            break
    assert refused == 8


def test_eigenspace_dims_a2():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    eig = simultaneous_eigenspaces([sigma], [2])
    assert eig.dims() == {(0,): 3, (1,): 5}


def test_eigenspace_dims_d4():
    field = CyclotomicField(3)
    alg = build_algebra("D", 4, field)
    tri = diagram_automorphism(alg, [2, 1, 3, 0])
    eig = simultaneous_eigenspaces([tri], [3])
    assert eig.dims() == {(0,): 14, (1,): 7, (2,): 7}


def test_eigenspace_identity_single_component():
    alg = build_algebra("A", 1)
    eig = simultaneous_eigenspaces([identity_automorphism(alg)], [1])
    assert eig.dims() == {(0,): 3}


def test_eigenspace_bracket_compatibility():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    eig = simultaneous_eigenspaces([sigma], [2])
    for ri in (0, 1):
        for rj in (0, 1):
            target = eig._solvers[((ri + rj) % 2,)]
            for u in eig.component((ri,)):
                for v in eig.component((rj,)):
                    assert target.contains(alg.bracket(nonzeros(u), nonzeros(v)))


def test_eigenspace_killing_orthogonality():
    field = CyclotomicField(3)
    alg = build_algebra("D", 4, field)
    tri = diagram_automorphism(alg, [2, 1, 3, 0])
    eig = simultaneous_eigenspaces([tri], [3])
    for ri in range(3):
        for rj in range(3):
            if (ri + rj) % 3 == 0:
                continue
            for u in eig.component((ri,)):
                for v in eig.component((rj,)):
                    assert alg.killing(nonzeros(u), nonzeros(v)).is_zero()


def test_non_commuting_family_rejected():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    # sign flip on the alpha_1-coefficient: a character scaling of order 2
    tau_cols = []
    for idx in range(alg.dim):
        root = alg.root_of_index[idx]
        v = alg.basis_vector(idx)
        if root is not None and root[0] % 2:
            v = [-x for x in v]
        tau_cols.append(v)
    tau = LieAutomorphism(alg, tau_cols, order=2)
    assert not sigma.commutes_with(tau)
    with pytest.raises(StructureError):
        simultaneous_eigenspaces([sigma, tau], [2, 2])


def test_central_simplicity():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    eig = simultaneous_eigenspaces([sigma], [2])
    assert is_central_simple(alg, [list(v) for v in eig.component((0,))])
    a1 = build_algebra("A", 1)
    assert is_central_simple(a1, [a1.basis_vector(i) for i in range(3)])
    # a one-dimensional abelian subalgebra has degenerate Killing form
    assert not is_central_simple(a1, [a1.h(0)])


def test_central_simplicity_requires_closure():
    alg = build_algebra("A", 2)
    with pytest.raises(StructureError):
        is_central_simple(alg, [alg.e(0), alg.f(0)])  # [e,f]=h escapes the span


def test_structure_records_are_antisymmetric():
    alg = build_algebra("B", 2)
    records = {(r["i"], r["j"], r["k"]): r["c"] for r in alg.structure_records()}
    for (i, j, k), c in records.items():
        assert records[(j, i, k)] == str(alg.field.parse(c) * -1)


def test_integer_tables_shared_across_fields():
    b3_q = build_algebra("B", 3, CyclotomicField(1))
    b3_i = build_algebra("B", 3, CyclotomicField(2))
    assert b3_q is not b3_i and b3_i.field.conductor == 2
    assert b3_q._int_struct is b3_i._int_struct
    assert b3_q._int_killing is b3_i._int_killing
    assert b3_i.structure_records() == b3_q.structure_records()
