"""SpanSolver against a reference built from `rref` and `solve_system`."""

import random

import pytest

from multiloop import linalg
from multiloop.cyclotomic import CyclotomicField


def random_scalar(field, rng):
    """A small scalar, zero about a third of the time."""
    if rng.random() < 0.35:
        return field.zero
    return field.from_coeffs([rng.randint(-3, 3) for _ in range(field.degree)])


def random_inputs(field, rng, n_inputs, ncols, rank_cap):
    """Vectors spanning at most rank_cap dimensions, so some are dependent."""
    gens = [[random_scalar(field, rng) for _ in range(ncols)] for _ in range(rank_cap)]
    out = []
    for _ in range(n_inputs):
        if rng.random() < 0.4 and out:
            # a combination of earlier inputs: always dependent
            a, b = rng.choice(out), rng.choice(out)
            ca, cb = random_scalar(field, rng), random_scalar(field, rng)
            out.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            coeffs = [random_scalar(field, rng) for _ in gens]
            out.append(
                [sum((c * g[j] for c, g in zip(coeffs, gens)), field.zero) for j in range(ncols)]
            )
    return out


def reference(field, inputs):
    """(independent input indices, rref rows, pivot columns) chosen greedily."""
    independent = []
    for i in range(len(inputs)):
        if linalg.rank([inputs[k] for k in independent + [i]], field) > len(independent):
            independent.append(i)
    echelon, pivots = linalg.rref(inputs, field) if inputs else ([], [])
    return independent, echelon, pivots


def reference_coords(field, inputs, independent, x):
    ncols = len(x)
    cols = [inputs[k] for k in independent]
    rows = [[col[r] for col in cols] for r in range(ncols)]
    if not cols:
        return [field.zero] * len(inputs) if not any(x) else None
    sol = linalg.solve_system(rows, list(x), field)
    if sol is None:
        return None
    out = [field.zero] * len(inputs)
    for k, c in zip(independent, sol):
        out[k] = c
    return out


@pytest.mark.parametrize("conductor", [1, 3])
@pytest.mark.parametrize("seed", range(6))
def test_span_solver_matches_rref_reference(conductor, seed):
    field = CyclotomicField(conductor)
    rng = random.Random(1000 * conductor + seed)
    ncols = rng.randint(3, 9)
    rank_cap = rng.randint(1, ncols)
    inputs = random_inputs(field, rng, rng.randint(1, 10), ncols, rank_cap)
    solver = linalg.SpanSolver(field, inputs)
    independent, echelon, pivots = reference(field, inputs)
    assert solver.dim == len(independent) == len(echelon)

    probes = list(inputs)
    # members of the span: random combinations of the inputs
    for _ in range(4):
        coeffs = [random_scalar(field, rng) for _ in inputs]
        probes.append(
            [sum((c * v[j] for c, v in zip(coeffs, inputs)), field.zero) for j in range(ncols)]
        )
    # arbitrary vectors, mostly outside the span
    probes.extend([random_scalar(field, rng) for _ in range(ncols)] for _ in range(4))
    probes.append([field.zero] * ncols)

    outside = 0
    for x in probes:
        inside = linalg.rank(echelon + [x], field) == len(echelon)
        outside += not inside
        assert solver.contains(x) == inside
        expected_residual = list(x)
        for row, p in zip(echelon, pivots):
            c = x[p]
            if c:
                expected_residual = [a - c * b for a, b in zip(expected_residual, row)]
        assert solver.residual(x) == expected_residual
        assert all(not solver.residual(x)[p] for p in pivots)
        coords = solver.coords(x)
        assert coords == reference_coords(field, inputs, independent, x)
        if inside:
            assert all(not coords[k] for k in range(len(inputs)) if k not in independent)
            rebuilt = [
                sum((c * v[j] for c, v in zip(coords, inputs)), field.zero) for j in range(ncols)
            ]
            assert rebuilt == list(x)
        else:
            assert coords is None
    if len(echelon) < ncols:
        assert outside


def test_span_solver_dependent_inputs_get_zero():
    field = CyclotomicField(3)
    z = field.zeta()
    u = [field.one, z, field.zero]
    v = [field.zero, field.one, z]
    inputs = [u, [2 * a for a in u], v, [a + b for a, b in zip(u, v)], [field.zero] * 3]
    solver = linalg.SpanSolver(field)
    assert [solver.add(w) for w in inputs] == [True, False, True, False, False]
    coords = solver.coords([a - b for a, b in zip(u, v)])
    assert coords == [field.one, field.zero, -field.one, field.zero, field.zero]
    assert solver.coords([field.zero, field.zero, field.one]) is None
    assert not solver.contains([field.zero, field.zero, field.one])


def test_span_solver_empty():
    field = CyclotomicField(1)
    solver = linalg.SpanSolver(field)
    assert solver.dim == 0
    assert solver.coords([field.zero, field.zero]) == []
    assert solver.coords([field.one, field.zero]) is None
    assert solver.residual([field.one, field.zero]) == [field.one, field.zero]
