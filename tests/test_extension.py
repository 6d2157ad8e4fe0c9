import random

import pytest

from multiloop.errors import MismatchError
from multiloop.kaehler import class_basis_at
from tests.conftest import make_session


def test_cocycle_rank1_value(a1_n1):
    ext = a1_n1.ext
    alg = a1_n1.algebra
    la = ext.loopalg
    cls = ext.cocycle(la.pure(alg.e(0), (1,)), la.pure(alg.f(0), (-1,)))
    assert cls == class_basis_at(ext.ring, (0,))[0] * -4


def test_cocycle_vanishes_on_constants(a1_n1):
    ext = a1_n1.ext
    alg = a1_n1.algebra
    la = ext.loopalg
    rng = random.Random(11)
    for _ in range(10):
        x = [alg.field.scalar(rng.randint(-3, 3)) for _ in range(alg.dim)]
        y = [alg.field.scalar(rng.randint(-3, 3)) for _ in range(alg.dim)]
        assert ext.cocycle(la.pure(x, (0,)), la.pure(y, (0,))).is_zero()


def test_cocycle_antisymmetry_random(a2_twisted):
    ext = a2_twisted.ext
    tw = a2_twisted.twisted
    rng = random.Random(12)
    basis = [el for _, _, el in tw.window_basis(2)]
    for _ in range(30):
        x = basis[rng.randrange(len(basis))]
        y = basis[rng.randrange(len(basis))]
        assert (ext.cocycle(x, y) + ext.cocycle(y, x)).is_zero()


def test_extended_bracket_example(a1_n1):
    ext = a1_n1.ext
    alg = a1_n1.algebra
    la = ext.loopalg
    X = ext.from_loop(la.pure(alg.e(0), (1,)))
    Y = ext.from_loop(la.pure(alg.f(0), (-1,)))
    Z = ext.bracket(X, Y)
    assert Z.loop == la.pure(alg.h(0), (0,))
    assert Z.central == class_basis_at(ext.ring, (0,))[0] * -4


def test_central_summand_annihilated(a1_n1):
    ext = a1_n1.ext
    z = ext.from_central(class_basis_at(ext.ring, (0,))[0])
    for B in ext.extended_window_basis(2):
        assert ext.bracket(z, B).is_zero()


def test_lifted_action_identity(a2_twisted):
    ext = a2_twisted.ext
    g0 = ext.group.identity
    for X in ext.extended_window_basis(1):
        assert ext.lifted_action(g0, X) == X


def test_lifted_action_fixes_untwisted_combination(a1_n1):
    ext = a1_n1.ext
    alg = a1_n1.algebra
    X = ext.from_loop(ext.loopalg.pure(alg.e(0), (1,))) + ext.from_central(
        class_basis_at(ext.ring, (0,))[0]
    )
    for g in ext.group.elements():
        assert ext.lifted_action(g, X) == X


def test_fixed_extension_membership(a2_twisted):
    ext = a2_twisted.ext
    for X in ext.extended_window_basis(2):
        assert ext.in_fixed_extension(X)
    # an element outside the descended algebra is moved
    g1 = list(a2_twisted.twisted.eigen.component((1,))[0])
    bad = ext.from_loop(ext.loopalg.pure(g1, (0,)))
    assert not ext.in_fixed_extension(bad)


def test_centre_window_rank1(a1_n1):
    rep = a1_n1.ext.centre_window(2)
    assert rep["passed"]
    assert rep["centre_dim"] == 1 and rep["expected"] == 1
    assert rep["per_degree"]["[0]"]["centre_dim"] == 1


def test_centre_window_twisted(a2_twisted):
    rep = a2_twisted.ext.centre_window(2)
    assert rep["passed"] and rep["centre_dim"] == 1


def test_centre_window_n2(a1_n2):
    rep = a1_n2.ext.centre_window(1)
    assert rep["passed"]
    assert rep["per_degree"]["[0, 0]"]["centre_dim"] == 2
    nonzero = [k for k in rep["per_degree"] if k != "[0, 0]"]
    assert all(rep["per_degree"][k]["centre_dim"] == 1 for k in nonzero)
    assert rep["centre_dim"] == 10


def test_centre_generator_window_guard(a1_n1):
    with pytest.raises(MismatchError):
        a1_n1.ext.centre_window(2, generator_window=1)


def test_perfectness_witnesses(a1_n1):
    ext = a1_n1.ext
    rep = ext.perfectness(2, 1)
    assert rep["passed"] and not rep["uncovered"]
    # h (x) t = [e (x) t, f (x) 1] appears as an exact witness
    alg = a1_n1.algebra
    la = ext.loopalg
    lhs = ext.bracket(
        ext.from_loop(la.pure(alg.e(0), (1,))), ext.from_loop(la.pure(alg.f(0), (0,)))
    )
    assert lhs.loop == la.pure(alg.h(0), (1,)) and lhs.central.is_zero()
    # the degree-0 class is hit by cancelling loop parts
    combo = ext.bracket(
        ext.from_loop(la.pure(alg.e(0), (1,))), ext.from_loop(la.pure(alg.f(0), (-1,)))
    ) - ext.bracket(
        ext.from_loop(la.pure(alg.e(0), (0,))), ext.from_loop(la.pure(alg.f(0), (0,)))
    )
    assert combo.loop.is_zero()
    assert combo.central == class_basis_at(ext.ring, (0,))[0] * -4


def test_perfectness_margin_zero_fails_at_boundary(a1_n1):
    # without the margin the corner degrees cannot be produced
    rep = a1_n1.ext.perfectness(2, 0)
    assert isinstance(rep["passed"], bool)


def test_decomposition_reports(a1_n1, a2_twisted):
    for session in (a1_n1, a2_twisted):
        rep = session.ext.decomposition(2)
        assert rep["passed"], rep["failures"]
        for info in rep["per_degree"].values():
            assert info["loop_fixed"] == info["loop_component"]
            assert info["central_fixed"] == info["central_expected"]


def test_lift_fixes_centre(a1_n1, a2_twisted, d4_triality):
    for session in (a1_n1, a2_twisted, d4_triality):
        rep = session.ext.lift_fixes_centre(session.spec.window)
        assert rep["passed"]


def test_base_ring_pairs(a1_n1, a2_twisted):
    rep = a2_twisted.ext.base_ring_pairs(3)
    assert rep["passed"] and rep["pairs_with_nonzero_class"] > 0
    rep0 = a1_n1.ext.base_ring_pairs(2)
    assert rep0["passed"]


def test_base_ring_pair_instance(a2_twisted):
    # (x (x) s, y (x) s^-1): class(s d(s^-1)) is nonzero and invariant,
    # the product lands in R and the bracket in the fixed subalgebra
    ext = a2_twisted.ext
    tw = a2_twisted.twisted
    ring = ext.ring
    from multiloop.kaehler import differential, reduce_form

    cls = reduce_form(differential(ring.s(0, -1)).scale_poly(ring.s(0)))
    assert not cls.is_zero() and cls.in_base_part()
    assert (ring.s(0) * ring.s(0, -1)).in_base_ring()
    for x in tw.eigen.component((1,)):
        for y in tw.eigen.component((1,)):
            assert tw.in_g0(tw.algebra.bracket(list(x), list(y)))


def test_extension_cocycle_identity_small(a2_twisted):
    rep = a2_twisted.ext.cocycle_checks(1)
    assert rep["passed"]


def test_extended_jacobi_small(a2_twisted):
    rep = a2_twisted.ext.extended_jacobi(1)
    assert rep["passed"]


def test_untwisted_reduction_structure(a1_n1):
    # with the trivial twist the fixed extension is everything in the window
    ext = a1_n1.ext
    assert ext.group.order() == 1
    for X in ext.extended_window_basis(2):
        assert ext.in_fixed_extension(X)


def test_triality_extension_suites(d4_triality):
    ext = d4_triality.ext
    assert ext.decomposition(1)["passed"]
    rep = ext.centre_window(1)
    assert rep["passed"] and rep["centre_dim"] == 1
    assert ext.cocycle_checks(1)["passed"]
    assert ext.base_ring_pairs(1)["passed"]


def test_extended_element_json(a1_n1):
    ext = a1_n1.ext
    X = ext.from_loop(ext.loopalg.pure(a1_n1.algebra.e(0), (1,))) + ext.from_central(
        class_basis_at(ext.ring, (0,))[0]
    )
    data = X.to_json()
    assert set(data) == {"loop", "central"}


def test_suites_catch_a_corrupted_structure_constant_and_killing_value(monkeypatch):
    # a fresh session: the pair table of a shared fixture may already be filled
    session = make_session("A", 1, [{"kind": "identity"}], [1])
    alg, ext = session.algebra, session.ext
    e, f, h = (alg.labels.index(name) for name in ("x[1]", "x[-1]", "h1"))
    two = alg.field.scalar(2)
    # [e, f] = 2h instead of h, and kappa(e, f) doubled, each in one order only
    monkeypatch.setitem(alg._rows[e], f, ((h, two),))
    kill = list(alg._killing_rows)
    kill[e] = tuple((j, c * two if j == f else c) for j, c in kill[e])
    monkeypatch.setattr(alg, "_killing_rows", kill)
    assert alg.bracket(alg.e(0), alg.f(0)) != [-x for x in alg.bracket(alg.f(0), alg.e(0))]
    jacobi = ext.extended_jacobi(1)
    assert not jacobi["passed"]
    assert {"jacobi", "antisymmetry"} & {fail["kind"] for fail in jacobi["failures"]}
    cocycle = ext.cocycle_checks(1)
    assert not cocycle["passed"]
    assert {"cocycle", "antisymmetry"} & {fail["kind"] for fail in cocycle["failures"]}
