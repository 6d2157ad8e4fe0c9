"""`bracket`, `killing` and `LieAutomorphism.apply` take their g-vector operands
as nonzero (index, value) pairs.  Dense-operand routines are kept here as
references: the sparse ones must agree with them on every algebra a shipped
spec or a benchmark target builds, and the pair-table fill must equal a fill
through them, also on the exp(ad e_1) conjugates, whose eigenvectors have
wide supports."""

import random

import pytest

from multiloop.cyclotomic import CyclotomicField
from multiloop.errors import MismatchError, StructureError
from multiloop.liealg import build_algebra, diagram_automorphism, nonzeros
from multiloop.session import Session, load_spec
from tests.test_conjugated_twists import shipped_and_conjugate
from tests.test_extension import SHIPPED_SPECS, SPECS_DIR

# (family, rank, conductor) of every algebra a shipped spec or a benchmark
# target builds
ALGEBRAS = [
    ("A", 1, 1), ("A", 2, 2), ("D", 4, 3), ("D", 4, 2), ("E", 7, 1), ("E", 6, 2),
    ("F", 4, 1), ("A", 5, 2), ("B", 3, 1), ("C", 3, 1), ("G", 2, 1),
]
# diagram involutions built by a benchmark target but by no shipped spec
DIAGRAM_TWISTS = [("A", 5, [4, 3, 2, 1, 0]), ("E", 6, [5, 1, 4, 3, 2, 0])]


def dense_bracket(alg, u, v):
    """The reference bracket: both operands dense, each entry tested for zero."""
    if len(u) != alg.dim or len(v) != alg.dim:
        raise MismatchError("vector dimension does not match the algebra")
    out = [alg.field.zero] * alg.dim
    nonzero_v = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if a:
            row = alg._rows[i]
            for j, b in nonzero_v:
                entries = row.get(j)
                if entries:
                    ab = a * b
                    for k, c in entries:
                        out[k] = out[k] + ab * c
    return out


def dense_killing(alg, u, v):
    """The reference Killing form: both operands dense, each entry tested for zero."""
    if len(u) != alg.dim or len(v) != alg.dim:
        raise MismatchError("vector dimension does not match the algebra")
    total = alg.field.zero
    for i, a in enumerate(u):
        if a:
            for j, k in alg._killing_rows[i]:
                b = v[j]
                if b:
                    total = total + a * b * k
    return total


def dense_apply(auto, vec):
    """The reference `LieAutomorphism.apply`: a dense operand, each entry tested for zero."""
    out = [auto.algebra.field.zero] * auto.algebra.dim
    for j, a in enumerate(vec):
        if a:
            for t, x in auto._nonzeros[j]:
                out[t] = out[t] + a * x
    return out


def seeded_vectors(alg, seed, count=6):
    """Dense vectors with small integer multiples of roots of unity, about a
    third of their entries nonzero, plus the zero vector and a basis vector."""
    field, rng = alg.field, random.Random(seed)
    units = [field.root_of_unity(field.conductor, j) for j in range(field.conductor)]
    out = [alg.zero_vector(), alg.basis_vector(rng.randrange(alg.dim))]
    for _ in range(count):
        out.append([
            rng.choice(units) * rng.choice([-3, -2, -1, 1, 2, 3]) if rng.random() < 0.35
            else field.zero
            for _ in range(alg.dim)
        ])
    return out


@pytest.mark.parametrize("family,rank,conductor", ALGEBRAS)
def test_bracket_and_killing_agree_with_the_dense_routines(family, rank, conductor):
    alg = build_algebra(family, rank, CyclotomicField(conductor))
    vectors = seeded_vectors(alg, seed=rank * 31 + conductor)
    for u in vectors:
        for v in vectors[:4]:
            assert alg.bracket(nonzeros(u), nonzeros(v)) == dense_bracket(alg, u, v)
            assert alg.killing(nonzeros(u), nonzeros(v)) == dense_killing(alg, u, v)
            assert alg.killing(nonzeros(v), nonzeros(u)) == dense_killing(alg, v, u)


def spec_automorphisms(name):
    """The twist and every cocycle value of a shipped spec's session."""
    session = Session(load_spec(str(SPECS_DIR / f"{name}.json")))
    cocycle = session.twisted.cocycle
    return [*session.sigmas, *(cocycle.value(g) for g in session.ring.group.elements())]


@pytest.mark.parametrize("name", SHIPPED_SPECS)
def test_apply_agrees_with_the_dense_routine_on_the_shipped_twists(name):
    autos = spec_automorphisms(name)
    for seed, auto in enumerate(autos):
        for vec in seeded_vectors(auto.algebra, seed):
            assert auto.apply(nonzeros(vec)) == dense_apply(auto, vec)


@pytest.mark.parametrize("family,rank,perm", DIAGRAM_TWISTS)
def test_apply_agrees_with_the_dense_routine_on_the_benchmark_involutions(family, rank, perm):
    auto = diagram_automorphism(build_algebra(family, rank, CyclotomicField(2)), perm)
    for vec in seeded_vectors(auto.algebra, seed=rank):
        assert auto.apply(nonzeros(vec)) == dense_apply(auto, vec)


def test_a_dense_operand_raises():
    alg = build_algebra("A", 2, CyclotomicField(2))
    auto = diagram_automorphism(alg, [1, 0])
    for dense in (alg.e(0), [0] * (alg.dim - 1) + [1]):
        pairs = nonzeros(dense)
        for call in (
            lambda: alg.bracket(dense, pairs),
            lambda: alg.bracket(pairs, dense),
            lambda: alg.killing(dense, pairs),
            lambda: alg.killing(pairs, dense),
            lambda: auto.apply(dense),
        ):
            with pytest.raises(TypeError):
                call()


def reference_fill(tw):
    """key -> (nonzero bracket coordinates or None, kappa) for every key
    (residue, a, residue, b), through the dense routines."""
    alg, table = tw.algebra, {}
    components = sorted(tw.eigen.components.items())
    for r, xs in components:
        for s, ys in components:
            degree = tuple(p + q for p, q in zip(r, s))
            for a, x in enumerate(xs):
                for b, y in enumerate(ys):
                    x, y = list(x), list(y)
                    full = tw.component_coords(degree, dense_bracket(alg, x, y))
                    if full is not None:
                        full = tuple((t, c) for t, c in enumerate(full) if c)
                    table[(r, a, s, b)] = full, dense_killing(alg, x, y)
    return table


def counting(calls, name, method):
    def wrapped(*args):
        calls[name] += 1
        return method(*args)

    return wrapped


@pytest.mark.parametrize("name", SHIPPED_SPECS)
def test_the_pair_table_fill_equals_a_fill_through_the_dense_routines(name, monkeypatch):
    spec_session, conjugate = shipped_and_conjugate(name)
    if any(sigma.order > 1 for sigma in spec_session.sigmas):
        # the conjugate's eigenvectors have supports wider than one entry
        tw = conjugate.twisted
        assert max(len(v) for r in tw.eigen.components for v in tw.basis_nonzeros(r)) > 1
    for session in (spec_session, conjugate):
        tw, alg = session.twisted, session.algebra
        expected = reference_fill(tw)
        calls = {"bracket": 0, "killing": 0, "coords": 0}
        monkeypatch.setattr(alg, "bracket", counting(calls, "bracket", alg.bracket))
        monkeypatch.setattr(alg, "killing", counting(calls, "killing", alg.killing))
        monkeypatch.setattr(
            tw, "component_coords", counting(calls, "coords", tw.component_coords)
        )
        raising = 0
        for key, (coords, kappa) in expected.items():
            if coords is None:
                raising += 1
                with pytest.raises(StructureError):
                    tw.pair_at(key)
            else:
                assert tw.pair_at(key) == (coords, kappa)
                assert tw.pair_at(key) == (coords, kappa)  # memoised: no further calls
        # one bracket, one Killing value and one coordinate read per key
        assert calls == {
            "bracket": len(expected), "killing": len(expected) - raising, "coords": len(expected)
        }
        monkeypatch.undo()
