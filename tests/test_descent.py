import random

import pytest

from multiloop import linalg
from multiloop.cyclotomic import CyclotomicField
from multiloop.descent import DescentCocycle, LoopAlgebra, TwistedLoopAlgebra
from multiloop.errors import MismatchError, StructureError
from multiloop.laurent import LaurentRing, box_degrees
from multiloop.liealg import (
    LieAutomorphism,
    build_algebra,
    diagram_automorphism,
    identity_automorphism,
    nonzeros,
)
from multiloop.session import Session, load_spec
from tests.conftest import descent_action, identity, make_session
from tests.test_extension import SHIPPED_SPECS, SPECS_DIR, component_direct


def contains(tw, x) -> bool:
    """Membership in L_u: u_g(^g x) = x for every g, exhaustively."""
    return all(descent_action(tw, g, x) == x for g in tw.group.elements())


def random_loop_element(tw, rng, span=2):
    la = tw.loopalg
    out = la.zero()
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(-span, span) for _ in range(la.ring.n))
        vec = [la.field.scalar(rng.randint(-3, 3)) for _ in range(la.algebra.dim)]
        out = out + la.pure(vec, exp)
    return out


def test_loop_bracket_rank1(a1_n1):
    la = a1_n1.twisted.loopalg
    alg = a1_n1.algebra
    e, f, h = alg.e(0), alg.f(0), alg.h(0)
    lhs = la.bracket(la.pure(e, (1,)), la.pure(f, (-1,)))
    assert lhs == la.pure(h, (0,))


def test_loop_bracket_properties(a1_n1):
    tw = a1_n1.twisted
    rng = random.Random(5)
    for _ in range(10):
        x = random_loop_element(tw, rng)
        y = random_loop_element(tw, rng)
        z = random_loop_element(tw, rng)
        lb = tw.loopalg.bracket
        assert lb(x, x).is_zero()
        assert lb(x, y) == -lb(y, x)
        total = lb(x, lb(y, z)) + lb(y, lb(z, x)) + lb(z, lb(x, y))
        assert total.is_zero()


def test_degrees_add(a1_n1):
    la = a1_n1.twisted.loopalg
    alg = a1_n1.algebra
    x = la.pure(alg.e(0), (2,))
    y = la.pure(alg.f(0), (-1,))
    assert sorted(la.bracket(x, y).terms) == [(1,)]


def test_membership_untwisted(a1_n1):
    tw = a1_n1.twisted
    assert contains(tw, tw.loopalg.pure(a1_n1.algebra.e(0), (1,)))


def test_membership_twisted(a2_twisted):
    tw = a2_twisted.twisted
    la = tw.loopalg
    g0 = list(tw.eigen.component((0,))[0])
    g1 = list(tw.eigen.component((1,))[0])
    assert contains(tw, la.pure(g0, (2,)))  # g0 (x) t
    assert not contains(tw, la.pure(g1, (2,)))
    assert contains(tw, la.pure(g1, (3,)))  # g1 (x) s t


def test_component_dims(a1_n1, a2_twisted):
    assert a2_twisted.twisted.component_dim((0,)) == 3
    assert a2_twisted.twisted.component_dim((1,)) == 5
    for d in range(-2, 3):
        assert a1_n1.twisted.component_dim((d,)) == 3


def test_component_direct_cross_check(a2_twisted):
    tw = a2_twisted.twisted
    for d in [(-2,), (-1,), (0,), (1,), (2,)]:
        direct = component_direct(tw, d)
        assert len(direct) == tw.component_dim(d)
        span = linalg.SpanSolver(tw.field, [list(v) for v in tw.component_gbasis(d)])
        for v in direct:
            assert span.contains(list(v))


def test_window_basis_members(a2_twisted):
    tw = a2_twisted.twisted
    for _, _, el in tw.window_basis(2):
        assert contains(tw, el)


def test_bracket_closure_in_window(a2_twisted):
    tw = a2_twisted.twisted
    basis = [el for _, _, el in tw.window_basis(1)]
    for x in basis:
        for y in basis:
            assert contains(tw, tw.loopalg.bracket(x, y))


def g_a_subspace(tw, a):
    """{x : v_g(x) tensor ^g a = x tensor a for all g}, by character decomposition."""
    if a.is_zero():
        raise ValueError("the subspace is defined for nonzero ring elements only")
    residues = sorted({tw.residue(e) for e in a.terms})
    basis = [list(v) for v in tw.eigen.component(residues[0])]
    for res in residues[1:]:
        basis = linalg.intersect(basis, [list(v) for v in tw.eigen.component(res)], tw.field)
        if not basis:
            break
    return [tuple(v) for v in basis]


def test_g_a_subspace(a2_twisted):
    tw = a2_twisted.twisted
    ring = tw.ring
    # a in R\{0} gives the fixed subalgebra
    assert len(g_a_subspace(tw, ring.one)) == 3
    rng = random.Random(7)
    for _ in range(5):
        exp = 2 * rng.randint(-2, 2)
        r = ring.monomial((exp,), rng.randint(1, 4))
        vecs = g_a_subspace(tw, r)
        assert len(vecs) == 3
    # single-character monomial: the odd eigenspace
    assert len(g_a_subspace(tw, ring.s(0))) == 5
    # mixed characters intersect to zero
    assert g_a_subspace(tw, ring.s(0) + ring.one) == []
    with pytest.raises(ValueError):
        g_a_subspace(tw, ring.zero)


def test_g_a_bracket_containments(a2_twisted):
    tw = a2_twisted.twisted
    ring = tw.ring
    alg = tw.algebra
    s = ring.s(0)
    g_s = g_a_subspace(tw, s)
    g_s2 = g_a_subspace(tw, s * s)
    span = linalg.SpanSolver(tw.field, [list(v) for v in g_s2])
    for x in g_s:
        for y in g_s:
            assert span.contains(alg.bracket(nonzeros(x), nonzeros(y)))
    # module property: [g_a, g_0] inside g_a
    g0 = tw.g0_basis()
    span_s = linalg.SpanSolver(tw.field, [list(v) for v in g_s])
    for x in g_s:
        for y in g0:
            assert span_s.contains(alg.bracket(nonzeros(x), nonzeros(y)))


def test_cocycle_values_and_law(a2_twisted):
    tw = a2_twisted.twisted
    group = tw.group
    u = tw.cocycle
    elems = group.elements()
    for g in elems:
        for h in elems:
            assert u.value(g + h).columns == u.value(g).compose(u.value(h)).columns
    assert u.value(identity(group)) == identity_automorphism(tw.algebra)


def test_cocycle_rejects_wrong_order(a1_n1):
    alg = a1_n1.algebra
    la = a1_n1.twisted.loopalg
    chev = []
    # the Chevalley involution e -> -f, f -> -e, h -> -h has order 2, not 1
    for idx in range(alg.dim):
        root = alg.root_of_index[idx]
        if root is None:
            chev.append([-x for x in alg.basis_vector(idx)])
        else:
            neg = alg.index_of_root[tuple(-c for c in root)]
            chev.append([-x for x in alg.basis_vector(neg)])
    omega = LieAutomorphism(alg, chev, order=2)
    with pytest.raises(StructureError):
        DescentCocycle(la, [omega], (1,))


def test_cocycle_rejects_non_commuting():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    tau_cols = []
    for idx in range(alg.dim):
        root = alg.root_of_index[idx]
        v = alg.basis_vector(idx)
        if root is not None and root[0] % 2:
            v = [-x for x in v]
        tau_cols.append(v)
    tau = LieAutomorphism(alg, tau_cols, order=2)
    ring = LaurentRing(field, (2, 2))
    la = LoopAlgebra(alg, ring)
    with pytest.raises(StructureError):
        TwistedLoopAlgebra(la, [sigma, tau], (2, 2))


def test_session_validates_the_commuting_family_once(monkeypatch):
    calls = {"pow": 0, "commutes": 0}
    pow_, commutes = LieAutomorphism.__pow__, LieAutomorphism.commutes_with

    def counting_pow(self, exponent):
        calls["pow"] += 1
        return pow_(self, exponent)

    def counting_commutes(self, other):
        calls["commutes"] += 1
        return commutes(self, other)

    monkeypatch.setattr(LieAutomorphism, "__pow__", counting_pow)
    monkeypatch.setattr(LieAutomorphism, "commutes_with", counting_commutes)
    make_session("A", 1, [{"kind": "identity"}, {"kind": "identity"}], [1, 1], window=1)
    assert calls["pow"] <= 2
    assert calls["commutes"] <= 1


@pytest.mark.parametrize("name,window", [("d4_triality", 1), ("a1_n2", 2), ("a2_twisted", 2)])
def test_pair_table_matches_the_element_path(request, name, window):
    tw = request.getfixturevalue(name).twisted
    alg = tw.algebra
    basis = tw.window_basis(window)
    for mu, a, x in basis:
        for nu, b, y in basis:
            degree = tuple(p + q for p, q in zip(mu, nu))
            xy = tw.loopalg.bracket(x, y)
            assert set(xy.terms) <= {degree}
            expected = tw.component_coords(degree, xy.component(degree))
            coords, kappa = tw.pair(mu, a, nu, b)
            assert tw.pair_at((tw.residue(mu), a, tw.residue(nu), b)) == (coords, kappa)
            assert list(coords) == [(r, c) for r, c in enumerate(expected) if c]
            assert kappa == alg.killing(nonzeros(x.component(mu)), nonzeros(y.component(nu)))
    dims = [len(v) for v in tw.eigen.components.values()]
    assert len(tw._pairs) <= sum(p * q for p in dims for q in dims)


def test_order3_twist_membership(d4_triality):
    # for an order-3 twist the cocycle generators are the inverses of the
    # automorphisms, so the degree-a component is the residue-a eigenspace
    tw = d4_triality.twisted
    la = tw.loopalg
    for deg in [(-1,), (0,), (1,), (2,)]:
        for el in tw.component_basis(deg):
            assert contains(tw, el)
        assert len(component_direct(tw, deg)) == tw.component_dim(deg)
    # an eigenvector moved to the wrong degree falls outside
    v = list(tw.eigen.component((1,))[0])
    assert contains(tw, la.pure(v, (1,)))
    assert not contains(tw, la.pure(v, (2,)))
    assert contains(tw, la.pure(v, (4,)))


def test_shape_mismatch(a1_n1, a1_n2):
    with pytest.raises(MismatchError):
        a1_n1.twisted.loopalg.pure(a1_n1.algebra.e(0), (1, 1))
    with pytest.raises(MismatchError):
        x = a1_n1.twisted.loopalg.pure(a1_n1.algebra.e(0), (1,))
        y = a1_n2.twisted.loopalg.pure(a1_n2.algebra.e(0), (1, 0))
        x + y


def reference_pair_blocks(tw, lam, window):
    """`pair_blocks` as a walk over the whole window box."""
    for mu in box_degrees(tw.ring.n, window):
        nu = tuple(l - m for l, m in zip(lam, mu))
        if mu > nu or not all(abs(a) <= window for a in nu):
            continue
        dm, dn = tw.component_dim(mu), tw.component_dim(nu)
        if dm and dn:
            yield mu, nu, dm, dn


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_pair_blocks_yield_what_the_whole_box_walk_yields(spec):
    tw = Session(load_spec(str(SPECS_DIR / f"{spec}.json"))).twisted
    for window in range(4):
        # every lam of the box of radius 2 * window, and one shell past it
        for lam in box_degrees(tw.ring.n, 2 * window + 1):
            expected = list(reference_pair_blocks(tw, lam, window))
            assert list(tw.pair_blocks(lam, window)) == expected
