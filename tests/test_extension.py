import random
import re
from itertools import product
from pathlib import Path

import pytest

from multiloop import descent, linalg
from multiloop.errors import MismatchError, StructureError
from multiloop.extension import CentralExtension, ExtendedElement, _nonzero_class
from multiloop.kaehler import (
    CentralClass,
    central_slots,
    class_basis_at,
    invariant_matches_base_image_at,
    slot_indices,
)
from multiloop.laurent import GaloisElement, box_degrees
from multiloop.liealg import LieAutomorphism, nonzeros
from multiloop.session import Session, load_spec
from tests.conftest import descent_action, identity, in_base_ring, make_session


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


def lifted_action(ext, g, X):
    """X -> u_g(^g X): the loop part is twisted, central classes move by ^g."""
    return ExtendedElement(ext, descent_action(ext.twisted, g, X.loop), X.central.galois(g))


def test_lifted_action_identity(a2_twisted):
    ext = a2_twisted.ext
    g0 = identity(ext.group)
    for X in ext.extended_window_basis(1):
        assert lifted_action(ext, g0, X) == X


def test_lifted_action_fixes_untwisted_combination(a1_n1):
    ext = a1_n1.ext
    alg = a1_n1.algebra
    X = ext.from_loop(ext.loopalg.pure(alg.e(0), (1,))) + ext.from_central(
        class_basis_at(ext.ring, (0,))[0]
    )
    for g in ext.group.elements():
        assert lifted_action(ext, g, X) == X


def fixed_by_every_lift(ext, X) -> bool:
    return all(lifted_action(ext, g, X) == X for g in ext.group.elements())


def test_fixed_extension_membership(a2_twisted):
    ext = a2_twisted.ext
    for X in ext.extended_window_basis(2):
        assert fixed_by_every_lift(ext, X)
    # an element outside the descended algebra is moved
    g1 = list(a2_twisted.twisted.eigen.component((1,))[0])
    bad = ext.from_loop(ext.loopalg.pure(g1, (0,)))
    assert not fixed_by_every_lift(ext, bad)


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
    assert not cls.is_zero() and in_base_part(cls)
    assert in_base_ring(ring.s(0) * ring.s(0, -1))
    for x in tw.eigen.component((1,)):
        for y in tw.eigen.component((1,)):
            assert in_g0(tw, tw.algebra.bracket(nonzeros(x), nonzeros(y)))


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
        assert fixed_by_every_lift(ext, X)


def test_triality_extension_suites(d4_triality):
    ext = d4_triality.ext
    assert ext.decomposition(1)["passed"]
    rep = ext.centre_window(1)
    assert rep["passed"] and rep["centre_dim"] == 1
    assert ext.cocycle_checks(1)["passed"]
    assert ext.base_ring_pairs(1)["passed"]


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
    ep, fp = nonzeros(alg.e(0)), nonzeros(alg.f(0))
    assert alg.bracket(ep, fp) != [-x for x in alg.bracket(fp, ep)]
    jacobi = ext.extended_jacobi(1)
    assert not jacobi["passed"]
    assert {"jacobi", "antisymmetry"} & {fail["kind"] for fail in jacobi["failures"]}
    cocycle = ext.cocycle_checks(1)
    assert not cocycle["passed"]
    assert {"cocycle", "antisymmetry"} & {fail["kind"] for fail in cocycle["failures"]}
    # a doubled kappa breaks equal weights: its keys expand to the old failure list
    assert_structural_reports_match_references(ext, 1)


# -- the element-level scans, kept as references for the residue-keyed ones ----

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"
SHIPPED_SPECS = sorted(path.stem for path in SPECS_DIR.glob("*.json"))


def reference_cyclic_sums(ext, basis):
    """(i, j, k, loop, central) for every triple i < j < k of the window basis:
    the component coordinates and the class of the cyclic sum, one triple at
    a time, with the raw class vector summed over the three terms."""
    tw, zero = ext.twisted, ext.field.zero
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for k in range(j + 1, len(basis)):
                degree = tuple(x + y + z for x, y, z in zip(basis[i][0], basis[j][0], basis[k][0]))
                loop = [zero] * tw.component_dim(degree)
                raw = [zero] * ext.ring.n
                for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                    (dp, ap, _), (dq, aq, _), (dr, ar, _) = basis[p], basis[q], basis[r]
                    pq_degree = tuple(x + y for x, y in zip(dp, dq))
                    w = zero
                    for s, c in tw.pair(dp, ap, dq, aq)[0]:
                        inner, kappa = tw.pair(pq_degree, s, dr, ar)
                        for t, e in inner:
                            loop[t] = loop[t] + c * e
                        w = w + c * kappa
                    for x, e in enumerate(dr):
                        raw[x] = raw[x] + w * e
                yield i, j, k, loop, CentralClass(ext.ring, {degree: raw})


def reference_structural_reports(ext, window):
    """(cocycle_checks, extended_jacobi, decomposition) reports from the
    element-level scans: every triple i < j < k, and three element brackets
    and three lifted actions per extended pair."""
    loop_basis = ext.twisted.window_basis(window)
    basis = ext.extended_window_basis(window)
    nl = len(loop_basis)
    cocycle, jacobi = [], []
    for i, (mu, a, _) in enumerate(loop_basis):
        for j in range(i, nl):
            nu, b, _ = loop_basis[j]
            loop, central = reference_pair_sum(ext, (mu, a, nu, b), (nu, b, mu, a))
            if not central.is_zero():
                cocycle.append({"kind": "antisymmetry", "pair": [i, j]})
    for i, x in enumerate(basis):
        for j in range(i, len(basis)):
            if j < nl:
                (mu, a, _), (nu, b, _) = loop_basis[i], loop_basis[j]
                loop, central = reference_pair_sum(ext, (mu, a, nu, b), (nu, b, mu, a))
                broken = any(loop) or not central.is_zero()
            else:
                y = basis[j]
                broken = not (ext.bracket(x, y) + ext.bracket(y, x)).is_zero()
            if broken:
                jacobi.append({"kind": "antisymmetry", "pair": [i, j]})
            if i >= nl and not ext.bracket(x, basis[j]).is_zero():
                jacobi.append({"kind": "centrality", "pair": [i, j]})
    ntriples = 0
    for i, j, k, loop, central in reference_cyclic_sums(ext, loop_basis):
        ntriples += 1
        if not central.is_zero():
            cocycle.append({"kind": "cocycle", "triple": [i, j, k]})
        if any(loop) or not central.is_zero():
            jacobi.append({"kind": "jacobi", "triple": [i, j, k]})

    def report(failures, size, pairs):
        return {"passed": not failures, "basis_size": size, "pairs": pairs,
                "triples": ntriples, "failures": failures}

    return (
        report(cocycle, nl, nl * (nl + 1) // 2),
        report(jacobi, len(basis), len(basis) * (len(basis) + 1) // 2),
        reference_decomposition(ext, window),
    )


def reference_add_bracket(ext, loop, mu, coords, nu, b):
    """Add the component coordinates of [z, y_b (x) s^nu] into the dense list
    loop, for z = sum of c x_s (x) s^mu over the (s, c) in coords, and return
    kappa(z, y_b): every entry multiplied, residues looked up per pair."""
    w = ext.field.zero
    for s, c in coords:
        inner, kappa = ext.twisted.pair(mu, s, nu, b)
        for t, e in inner:
            loop[t] = loop[t] + c * e
        if kappa:
            w = w + c * kappa
    return w


def reference_pair_sum(ext, *terms):
    """The sum of [x_a (x) s^mu, y_b (x) s^nu] over the (mu, a, nu, b) in terms,
    all with one degree mu + nu: its dense component coordinates and its class."""
    one, zero = ext.field.one, ext.field.zero
    mu, _, nu, _ = terms[0]
    degree = tuple(p + q for p, q in zip(mu, nu))
    loop = [zero] * ext.twisted.component_dim(degree)
    raw = [zero] * ext.ring.n
    for mu, a, nu, b in terms:
        w = reference_add_bracket(ext, loop, mu, ((a, one),), nu, b)
        if w:
            for i, e in enumerate(nu):
                if e:
                    raw[i] = raw[i] + w * e
    return loop, CentralClass(ext.ring, {degree: raw})


def reference_antisymmetry_failures(ext, window):
    """The per-pair `_antisymmetry_failures`: one pair sum per pair i <= j."""
    basis = ext.twisted.window_basis(window)
    out = []
    for i, (mu, a, _) in enumerate(basis):
        for j in range(i, len(basis)):
            nu, b, _ = basis[j]
            loop, central = reference_pair_sum(ext, (mu, a, nu, b), (nu, b, mu, a))
            loop, central = any(loop), bool(central)
            if loop or central:
                out.append((i, j, loop, central))
    return out


def dense_lift(ext, g, residue, pos):
    """The memoised `_lift_pairs` as a list of component length, or None."""
    pairs = ext._lift_pairs(g, residue, pos)
    if pairs is None:
        return None
    coords = [ext.field.zero] * ext.twisted.component_dim(residue)
    for q, e in pairs:
        coords[q] = e
    return coords


def reference_equivariance_sides(ext, g, key):
    """The dense `_equivariance_sides`: both sides as lists of component
    length, without the character factor that both sides share."""
    rmu, a, rnu, b = key
    tw, zero = ext.twisted, ext.field.zero
    total = tuple(x + y for x, y in zip(rmu, rnu))
    ua, ub = dense_lift(ext, g, rmu, a), dense_lift(ext, g, rnu, b)
    if ua is None or ub is None:
        return ext._equivariance_sides_in_g(g, key)
    try:
        coords, kappa = tw.pair(rmu, a, rnu, b)
        lhs = [zero] * tw.component_dim(total)
        for r, c in coords:
            column = dense_lift(ext, g, tw.residue(total), r)
            if column is None:
                return ext._equivariance_sides_in_g(g, key)
            for q, e in enumerate(column):
                if e:
                    lhs[q] = lhs[q] + c * e
        rhs = [zero] * len(lhs)
        k_rhs = zero
        xs = [(s, x) for s, x in enumerate(ua) if x]
        for t, y in enumerate(ub):
            if y:
                scaled = [(s, x * y) for s, x in xs]
                k_rhs = k_rhs + reference_add_bracket(ext, rhs, rmu, scaled, rnu, t)
    except StructureError:
        return ext._equivariance_sides_in_g(g, key)
    return lhs == rhs, kappa == k_rhs


def reference_component_direct(tw, degree):
    """The fixed space of x -> chi_degree(g) u_g x, computed for this degree."""
    negated = tuple(-a for a in degree)
    pairs = [
        (tw.cocycle.value(g).columns, tw.group.character(g, negated))
        for g in tw.group.elements()
    ]
    return [tuple(v) for v in descent._joint_eigenspace(tw.algebra, pairs)]


def reference_decomposition(ext, window):
    tw, failures = ext.twisted, []
    elems = ext.group.elements()
    for g in elems:
        u = tw.cocycle.value(g)
        for degree, pos, el in tw.window_basis(window):
            for e, gv in el.terms.items():
                if tw.component_coords(e, u.apply(nonzeros(gv))) is None:
                    failures.append(
                        {"kind": "stability", "g": list(g.components), "degree": list(degree), "pos": pos}
                    )
    dim_checks = {}
    for degree in box_degrees(ext.ring.n, window):
        fixed = reference_component_direct(tw, degree)
        comp = tw.component_gbasis(degree)
        span = linalg.SpanSolver(ext.field, comp)
        same = len(fixed) == len(comp) and all(span.contains(v) for v in fixed)
        central_expected = len(central_slots(ext.ring, degree))
        trivial = all(ext.group.character(g, degree) == ext.field.one for g in elems)
        central_fixed = len(slot_indices(ext.ring, degree)) if trivial else 0
        dim_checks[str(list(degree))] = {
            "loop_fixed": len(fixed),
            "loop_component": len(comp),
            "central_fixed": central_fixed,
            "central_expected": central_expected,
        }
        if not same or central_fixed != central_expected:
            failures.append({"kind": "fixed-space", "degree": list(degree)})
        if ext.ring.in_base_lattice(degree) and not invariant_matches_base_image_at(ext.ring, degree):
            failures.append({"kind": "base-image", "degree": list(degree)})
    basis = ext.extended_window_basis(window)
    for g in elems:
        if not any(g.components):
            continue
        for i, X in enumerate(basis):
            for j in range(i + 1, len(basis)):
                lhs = lifted_action(ext, g, ext.bracket(X, basis[j]))
                rhs = ext.bracket(lifted_action(ext, g, X), lifted_action(ext, g, basis[j]))
                if lhs != rhs:
                    failures.append(
                        {"kind": "bracket-equivariance", "g": list(g.components), "pair": [i, j]}
                    )
    return {"passed": not failures, "window": window, "per_degree": dim_checks, "failures": failures}


def assert_structural_reports_match_references(ext, window):
    cocycle, jacobi, decomposition = reference_structural_reports(ext, window)
    assert ext.cocycle_checks(window) == cocycle
    assert ext.extended_jacobi(window) == jacobi
    assert ext.decomposition(window) == decomposition
    return cocycle, jacobi, decomposition


@pytest.mark.parametrize(
    "spec, window",
    [
        ("a1_untwisted_n1", None),
        ("a1_untwisted_n2", None),
        ("a1_untwisted_n2", 2),
        ("a2_twisted", None),
        ("d4_triality", None),
        ("a2_bitwist", None),
    ],
)
def test_structural_scans_match_the_element_level_references(spec, window):
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    reports = assert_structural_reports_match_references(
        session.ext, window or session.spec.window
    )
    assert all(rep["passed"] for rep in reports)


def test_corrupted_a2_constant_gives_the_reference_failures(monkeypatch):
    # a fresh session: the corrupted table must not be cached in a shared fixture
    session = make_session("A", 2, [{"kind": "diagram", "perm": [1, 0]}], [2], window=1)
    alg, ext = session.algebra, session.ext
    e1, f1, h1 = (alg.labels.index(name) for name in ("x[1, 0]", "x[-1, 0]", "h1"))
    # [e1, f1] = 2 h1 in one order only: the diagram involution no longer
    # preserves the bracket, and brackets of fixed vectors leave g_0
    monkeypatch.setitem(alg._rows[e1], f1, ((h1, alg.field.scalar(2)),))
    rep = reference_decomposition(ext, 1)
    equivariance = [f for f in rep["failures"] if f["kind"] == "bracket-equivariance"]
    assert equivariance
    # the pair-table fill raises on such brackets: the g-coordinate sides decide
    in_g, sides_in_g = [], ext._equivariance_sides_in_g

    def counted_sides_in_g(g, key):
        in_g.append(key)
        return sides_in_g(g, key)

    monkeypatch.setattr(ext, "_equivariance_sides_in_g", counted_sides_in_g)
    assert ext.decomposition(1) == rep
    assert in_g


def bitwist_with_a_corrupted_killing_value(monkeypatch, first="x[1, 0]", second="x[0, -1]"):
    """`a2_bitwist` with kappa(first, second) = 1 in that order only."""
    session = Session(load_spec(str(SPECS_DIR / "a2_bitwist.json")))
    alg = session.algebra
    i, j = (alg.labels.index(name) for name in (first, second))
    kill = list(alg._killing_rows)
    row = dict(kill[i])
    row[j] = alg.field.one
    kill[i] = tuple(sorted(row.items()))
    monkeypatch.setattr(alg, "_killing_rows", kill)
    return session.ext


def test_corrupted_killing_value_gives_the_reference_failures(monkeypatch):
    # kappa(e1, f2) = 1 in one order only: it breaks ad-invariance, so the
    # weights of a cyclic sum differ and the expanded triples must list the
    # old failures; it also pairs eigenvectors whose residues do not sum to
    # 0, which in two variables leaves a class off the base lattice
    ext = bitwist_with_a_corrupted_killing_value(monkeypatch)
    cocycle, jacobi, decomposition = assert_structural_reports_match_references(ext, 1)
    assert not cocycle["passed"] and not jacobi["passed"]
    assert any(f["kind"] == "bracket-equivariance" for f in decomposition["failures"])


@pytest.mark.parametrize("window, margin", [(1, 1), (2, 0), (2, 1)])
def test_perfect_reads_the_pairs_past_a_full_span(window, margin):
    # a nonzero kappa on a key whose residues sum off the base lattice: its
    # first block has a zero class, and a later one, past the point where the
    # degree's span is full, a nonzero class that `_pair_coords` refuses
    session = Session(load_spec(str(SPECS_DIR / "a2_bitwist.json")))
    tw = session.twisted
    key = ((0, 0), 0, (1, 1), 0)
    tw.pair_at(key)
    tw._pair_kappas[key] = tw.field.one
    with pytest.raises(StructureError, match=re.escape("central degree (-1, -1) is not")):
        session.ext.perfectness(window, margin)


@pytest.mark.parametrize("first, second", [("x[1, 0]", "x[0, -1]"), ("x[0, 1]", "h1")])
def test_corrupted_killing_value_breaks_equivariance_only_where_the_class_is_nonzero(
    first, second, monkeypatch
):
    # kappa(first, second) = 1 in one order breaks the Killing sides of some
    # key pairs whose loop sides agree: their basis pairs with a zero class
    # class(s^mu ds^nu) are not broken
    ext = bitwist_with_a_corrupted_killing_value(monkeypatch, first, second)
    rep = ext.decomposition(1)
    assert not rep["passed"]
    assert rep == reference_decomposition(ext, 1)


@pytest.mark.parametrize(
    "window, perfect, centre, wider_centre",
    [(1, "(-1, 0)", "(-1, -2)", "(-3, -2)"), (2, "(-1, -2)", "(-3, -2)", "(-5, -4)")],
)
def test_a_class_off_the_base_lattice_raises_in_perfect_and_centre(
    window, perfect, centre, wider_centre, monkeypatch
):
    # the corrupted kappa is nonzero on a pair whose degrees sum off the base
    # lattice, where the class has no slots to land in: `perfect` must reach
    # that pair although the span is full before it, and `centre` must reach
    # it although it brackets against one or two degrees per residue
    ext = bitwist_with_a_corrupted_killing_value(monkeypatch)

    def raises_at(degree, suite, *args):
        message = f"central degree {degree} is not base-invariant"
        with pytest.raises(StructureError, match=re.escape(message)):
            suite(window, *args)

    raises_at(perfect, ext.perfectness)
    raises_at(perfect, ext.perfectness, 0)
    raises_at(centre, ext.centre_window)
    raises_at(wider_centre, ext.centre_window, window + 1)


def test_unreduced_pivot_gives_the_reference_failures(monkeypatch):
    # the scan checks, rather than assumes, that reducing a degree at itself
    # gives 0: with the pivot left in place, triples whose weights are equal
    # but nonzero have a nonzero class, and must be expanded
    from multiloop import kaehler

    session = make_session("A", 1, [{"kind": "identity"}, {"kind": "identity"}], [1, 1], window=1)
    reduce = kaehler._reduce_vector

    def keep_pivot(ring, degree, vec):
        out = list(reduce(ring, degree, vec))
        p = kaehler.pivot_index(degree)
        if p is not None:
            out[p] = vec[p]
        return out

    monkeypatch.setattr(kaehler, "_reduce_vector", keep_pivot)
    cocycle, jacobi, _ = assert_structural_reports_match_references(session.ext, 1)
    assert any(f["kind"] == "cocycle" for f in cocycle["failures"])
    assert any(f["kind"] == "jacobi" for f in jacobi["failures"])


# -- sandr and the structural suites: one route each ---------------------------


def in_g0(tw, gvec) -> bool:
    """Whether a g-vector lies in g_0: it has coordinates in the residue-0
    component, the read `base_ring_pairs` makes through the pair-table fill."""
    return tw.component_coords((0,) * tw.ring.n, gvec) is not None


def in_base_part(cls) -> bool:
    """Whether every degree of a class lies in the base lattice."""
    return all(cls.ring.in_base_lattice(d) for d in cls.pieces)


def reference_base_ring_pairs(ext, window):
    """The per-pair `base_ring_pairs`: each window pair with a nonzero
    base-lattice class builds its Laurent monomial and brackets its two
    g-vectors."""
    basis = ext.twisted.window_basis(window)
    failures = []
    checked = 0
    for i, (adeg, apos, ael) in enumerate(basis):
        ((ea, va),) = ael.terms.items()
        for j in range(i, len(basis)):
            bdeg, bpos, bel = basis[j]
            ((eb, vb),) = bel.terms.items()
            cls = ext.cocycle_class_of_pair(ea, eb)
            if cls.is_zero() or not in_base_part(cls):
                continue
            checked += 1
            product_in_r = in_base_ring(ext.ring.monomial(tuple(x + y for x, y in zip(ea, eb))))
            bracket_in_g0 = in_g0(ext.twisted, ext.algebra.bracket(nonzeros(va), nonzeros(vb)))
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


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_sandr_decides_each_key_once_and_matches_the_per_pair_reference(spec, monkeypatch):
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    ext = session.ext
    window = session.spec.window
    assert ext.base_ring_pairs(window) == reference_base_ring_pairs(ext, window)

    # the residue-0 component coordinates lie for the bracket of the first
    # checked pair with a nonzero bracket: it is not in g_0; a fresh session,
    # as the pair table of this one holds every key sandr reads
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    ext, tw, alg = session.ext, session.twisted, session.algebra
    basis, keys, target = tw.window_basis(window), set(), None
    for i, (mu, a, x) in enumerate(basis):
        for nu, b, y in basis[i:]:
            cls = ext.cocycle_class_of_pair(mu, nu)
            if cls.is_zero() or not in_base_part(cls):
                continue
            keys.add((tw.residue(mu), a, tw.residue(nu), b))
            w = alg.bracket(nonzeros(x.component(mu)), nonzeros(y.component(nu)))
            if target is None and any(w):
                target = w
    assert target is not None
    honest, calls = tw.component_coords, []

    def lying_coords(degree, gvec):
        calls.append(degree)
        if list(gvec) == target and not any(tw.residue(degree)):
            return None
        return honest(degree, gvec)

    monkeypatch.setattr(tw, "component_coords", lying_coords)
    rep = ext.base_ring_pairs(window)
    assert len(calls) == len(keys)
    assert not rep["passed"]
    assert rep == reference_base_ring_pairs(ext, window)


def reference_perfectness(ext, window, margin=1):
    """The `perfectness` that reads the pairs past a full span: each block of
    residues has every pair read once, for whether a kappa of it is nonzero,
    and a later block of that kind raises when that kappa is nonzero, the
    degree has no central slots and the class of the block is nonzero."""
    if margin < 0:
        raise MismatchError("margin must be nonnegative")
    big = window + margin
    witnesses, uncovered = [], []
    tw, field = ext.twisted, ext.field
    kappa_blocks = {}  # (residue, residue, equal degrees) -> whether a kappa is nonzero
    for degree in box_degrees(ext.ring.n, window):
        slots = central_slots(ext.ring, degree)
        targets = [("loop", pos) for pos in range(tw.component_dim(degree))]
        targets += [("central", pos) for pos in range(len(slots))]
        if not targets:
            continue
        pairs, solver = [], linalg.SpanSolver(field)
        for adeg, bdeg, adim, bdim in tw.pair_blocks(degree, big):
            ra, rb = tw.residue(adeg), tw.residue(bdeg)
            block = (ra, rb, adeg == bdeg)
            if solver.dim == len(targets) and block in kappa_blocks:
                if kappa_blocks[block] and not slots and not (
                    ext.cocycle_class_of_pair(adeg, bdeg).is_zero()
                ):
                    raise StructureError(f"central degree {degree} is not base-invariant")
                continue
            kappa = False
            for apos in range(adim):
                for bpos in range(apos if bdeg == adeg else 0, bdim):
                    key = (ra, apos, rb, bpos)
                    vec = ext._pair_coords(adeg, bdeg, key)
                    kappa = kappa or bool(tw.pair_at(key)[1])
                    if solver.dim < len(targets) and any(vec):
                        pairs.append({"a": [list(adeg), apos], "b": [list(bdeg), bpos]})
                        solver.add(vec)
            kappa_blocks[block] = kappa
        for t, (kind, pos) in enumerate(targets):
            unit = [field.zero] * len(targets)
            unit[t] = field.one
            coeffs = solver.coords(unit)
            if coeffs is None:
                uncovered.append({"degree": list(degree), "kind": kind, "pos": pos})
            else:
                combo = [{"pair": pairs[i], "coeff": str(c)} for i, c in enumerate(coeffs) if c]
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


def outcome(suite, *args):
    """The report of a suite, or the message of the StructureError it raises."""
    try:
        return suite(*args)
    except StructureError as exc:
        return f"StructureError: {exc}"


def assert_sandr_and_perfect_match_references(ext, window):
    """`sandr`, then `perfect` at margins 0 and 1, give their references'
    reports or StructureError messages; the outcomes, in that order."""
    out = [outcome(ext.base_ring_pairs, window)]
    assert out[0] == outcome(reference_base_ring_pairs, ext, window)
    for margin in (0, 1):
        out.append(outcome(ext.perfectness, window, margin))
        assert out[-1] == outcome(reference_perfectness, ext, window, margin)
    return out


@pytest.mark.parametrize("spec, window", [(s, w) for s in SHIPPED_SPECS for w in (1, 2, 3)])
def test_sandr_and_perfect_match_their_references(spec, window):
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    sandr, _, perfect = assert_sandr_and_perfect_match_references(session.ext, window)
    assert sandr["passed"] and sandr["pairs_with_nonzero_class"] > 0 and perfect["passed"]


def doubled_structure_constant(monkeypatch, spec, first, second, result):
    """A session of the spec with [first, second] = 2 result in that order only."""
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    alg = session.algebra
    i, j, k = (alg.labels.index(name) for name in (first, second, result))
    monkeypatch.setitem(alg._rows[i], j, ((k, alg.field.scalar(2)),))
    return session.ext


def lying_residue_zero_coordinates(monkeypatch, spec):
    """A session of the spec whose residue-0 component coordinates are None
    for the bracket of the first key (r, a, -r, b) with a nonzero bracket."""
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    tw, alg = session.twisted, session.algebra
    zero = (0,) * tw.ring.n
    target = next(
        w
        for r, x in sorted(tw.eigen.components.items())
        for y in tw.eigen.component(tw.residue([-a for a in r]))
        for v in x
        if any(w := alg.bracket(nonzeros(v), nonzeros(y)))
    )
    honest = tw.component_coords

    def lying_coords(degree, gvec):
        if list(gvec) == target and tw.residue(degree) == zero:
            return None
        return honest(degree, gvec)

    monkeypatch.setattr(tw, "component_coords", lying_coords)
    return session.ext


def asymmetric_killing_entry(seed):
    """D4 triality with kappa_ab + 1 on one key whose residues sum to 0."""
    session = Session(load_spec(str(SPECS_DIR / "d4_triality.json")))
    tw = session.twisted
    keys = [
        key
        for key in window_keys(tw, 1)
        if key[0] != (0,) and not any(tw.residue((key[0][0] + key[2][0],)))
    ]
    key = random.Random(seed).choice(keys)
    tw._pair_kappas[key] = tw.pair_at(key)[1] + 1
    return session.ext


CORRUPTIONS = {
    "asymmetric-kappa-0": lambda patch: asymmetric_killing_entry(0),
    "asymmetric-kappa-1": lambda patch: asymmetric_killing_entry(1),
    "kappa-across-residues": bitwist_with_a_corrupted_killing_value,
    "kappa-across-residues-h1": lambda patch: bitwist_with_a_corrupted_killing_value(
        patch, "x[0, 1]", "h1"
    ),
    "doubled-constant-a1": lambda patch: doubled_structure_constant(
        patch, "a1_untwisted_n1", "x[1]", "x[-1]", "h1"
    ),
    "doubled-constant-a2": lambda patch: doubled_structure_constant(
        patch, "a2_twisted", "x[1, 0]", "x[-1, 0]", "h1"
    ),
    "doubled-constant-bitwist": lambda patch: doubled_structure_constant(
        patch, "a2_bitwist", "x[1, 0]", "x[-1, 0]", "h1"
    ),
}


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_sandr_and_perfect_match_their_references_under_a_corruption(
    corruption, window, monkeypatch
):
    ext = CORRUPTIONS[corruption](monkeypatch)
    sandr, *perfect = assert_sandr_and_perfect_match_references(ext, window)
    if corruption in ("doubled-constant-a2", "doubled-constant-bitwist"):
        assert not sandr["passed"]  # brackets in g_0 leave it
    if corruption.startswith("kappa-across"):
        assert all(isinstance(rep, str) and "not base-invariant" in rep for rep in perfect)


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("spec", ["a2_bitwist", "a2_twisted", "d4_triality"])
def test_under_lying_coordinates_sandr_matches_and_perfect_reads_up_to_a_full_span(
    spec, window, monkeypatch
):
    # the fill raises on the keys whose bracket has the lying coordinates;
    # `perfect` reads no pair past a full span, so where the reference walk
    # reaches such a key only there, `perfect` gives the honest report
    honest = Session(load_spec(str(SPECS_DIR / f"{spec}.json"))).ext
    ext = lying_residue_zero_coordinates(monkeypatch, spec)
    message = outcome(ext.cocycle_checks, window)  # the cocycle scan reads every key pair
    assert isinstance(message, str) and message.startswith("StructureError: a bracket at")
    assert outcome(ext.base_ring_pairs, window) == outcome(
        reference_base_ring_pairs, ext, window
    )
    for margin in (0, 1):
        new = outcome(ext.perfectness, window, margin)
        reference = outcome(reference_perfectness, ext, window, margin)
        assert new == reference or (
            reference.startswith("StructureError: a bracket at")
            and new == honest.perfectness(window, margin)
        )


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_the_kept_pair_rule_is_a_nonzero_class_on_the_base_lattice(spec):
    # n = 1 and n = 2 at loop orders 1, 2 and 3: `base_ring_pairs` keeps
    # (mu, nu) when nu has residue -residue(mu) and `_nonzero_class` holds
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    ext, tw, ring = session.ext, session.twisted, session.ring
    box = box_degrees(ring.n, 3)
    for mu in box:
        minus = tw.residue([-a for a in mu])
        for nu in box:
            kept = tw.residue(nu) == minus and _nonzero_class(mu, nu)
            gamma = tuple(a + b for a, b in zip(mu, nu))
            cls = ext.cocycle_class_of_pair(mu, nu)
            assert kept == (not cls.is_zero() and ring.in_base_lattice(gamma)), (mu, nu)


@pytest.mark.parametrize(
    "spec, max_decomposition_muls",
    # 4215 on d4_triality with fixed spaces from G's generators; 7703 from all of G
    [(spec, 4250 if spec == "d4_triality" else None) for spec in SHIPPED_SPECS],
)
def test_structural_suites_bracket_per_key_and_lift_no_central_vector(
    spec, max_decomposition_muls, monkeypatch
):
    # one g-bracket per pair-table key, which the fill makes and sandr reads;
    # the g-coordinate equivariance sides are left for keys without component
    # coordinates, which no shipped spec has; one Killing value per pair-table
    # key and one fixed space per residue
    from multiloop.checks import CHECK_NAMES, run_checks
    from multiloop.cyclotomic import CyclotomicNumber
    from multiloop.liealg import SplitSimpleLieAlgebra

    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    calls = {
        "bracket": 0, "_equivariance_sides_in_g": 0, "killing": 0, "_joint_eigenspace": 0,
        "__mul__": 0,
    }

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(SplitSimpleLieAlgebra, "bracket")
    counted(SplitSimpleLieAlgebra, "killing")
    counted(CentralExtension, "_equivariance_sides_in_g")
    counted(descent, "_joint_eigenspace")
    counted(CyclotomicNumber, "__mul__")
    reports, decomposition_muls = [], None
    for name in CHECK_NAMES:
        if name != "zrel":
            before = calls["__mul__"]
            reports.append(run_checks(session, name)[0])
            if name == "decomposition":
                decomposition_muls = calls["__mul__"] - before
    assert len(reports) == 6 and all(rep["passed"] for rep in reports)
    assert calls["_equivariance_sides_in_g"] == 0
    tw = session.twisted
    assert calls["bracket"] == len(tw._pairs) == session.algebra.dim ** 2
    assert calls["killing"] == len(tw._pair_kappas) > 0
    residues = {tw.residue(d) for d in box_degrees(session.ring.n, session.spec.window)}
    assert calls["_joint_eigenspace"] == len(residues)
    if max_decomposition_muls is not None:
        assert decomposition_muls <= max_decomposition_muls


# -- the per-key antisymmetry and the sparse equivariance sides ------------------


def non_identity(ext):
    return [g for g in ext.group.elements() if any(g.components)]


def window_keys(tw, window):
    keys = sorted({(tw.residue(d), pos) for d, pos, _ in tw.window_basis(window)})
    return [kx + ky for kx in keys for ky in keys]


def assert_routes_match_references(ext, window, monkeypatch):
    """The per-key antisymmetry, the sparse equivariance sides and the fixed
    spaces per residue equal their per-pair, dense and per-degree references."""
    assert ext._antisymmetry_failures(window) == reference_antisymmetry_failures(ext, window)
    tw = ext.twisted
    for g in non_identity(ext):
        for key in window_keys(tw, window):
            assert ext._equivariance_sides(g, key) == reference_equivariance_sides(ext, g, key)
    decomposition = ext.decomposition(window)
    with monkeypatch.context() as patch:  # the dense sides in place of the sparse ones
        patch.setattr(
            ext, "_equivariance_sides", lambda g, key: reference_equivariance_sides(ext, g, key)
        )
        assert ext.decomposition(window) == decomposition
    for degree in box_degrees(ext.ring.n, window):
        assert tw.component_direct(degree) == reference_component_direct(tw, degree)
    return ext.cocycle_checks(window), decomposition


@pytest.mark.parametrize(
    "spec, window",
    [
        (spec, window)
        for spec in sorted(path.stem for path in SPECS_DIR.glob("*.json"))
        for window in (1, 2, 3)
        if spec != "d4_bitwist" or window == 2
    ],
)
def test_per_key_and_sparse_routes_match_the_dense_references(spec, window, monkeypatch):
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    cocycle, decomposition = assert_routes_match_references(session.ext, window, monkeypatch)
    assert cocycle["passed"] and decomposition["passed"]



@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_g_coordinate_sides_equal_the_component_sides(spec):
    # every key of the spec: the residues of a window do not depend on it
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    ext, tw = session.ext, session.twisted
    keys = [(r, pos) for r, comp in sorted(tw.eigen.components.items()) for pos in range(len(comp))]
    for g in non_identity(ext):
        for kx in keys:
            for ky in keys:
                key = kx + ky
                assert ext._equivariance_sides_in_g(g, key) == ext._equivariance_sides(g, key)


def pair_table_keys(tw):
    """Every key (residue, a, residue, b) of the pair table: one per pair of
    eigen-adapted basis vectors of g, so dim(g)^2 keys."""
    components = sorted(tw.eigen.components.items())
    return [
        (r, a, s, b)
        for r, x in components
        for a in range(len(x))
        for s, y in components
        for b in range(len(y))
    ]


def killing_across_residues(tw):
    """The pair-table keys whose Killing value is nonzero though their two
    residues do not sum to 0 mod the orders."""
    return [
        key
        for key in pair_table_keys(tw)
        if tw.pair_at(key)[1] and any((r + s) % m for r, s, m in zip(key[0], key[2], tw.orders))
    ]


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_killing_pairs_a_residue_only_with_its_negative(spec):
    # kappa(g_r, g_r') = 0 unless r + r' = 0: this is why a nonzero kappa
    # lands on a base-lattice degree, where `_pair_coords` finds a central slot
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    tw = session.twisted
    assert len(pair_table_keys(tw)) == session.algebra.dim ** 2
    assert killing_across_residues(tw) == []


def test_killing_across_residues_is_seen_on_a_corrupted_value():
    session = Session(load_spec(str(SPECS_DIR / "a2_bitwist.json")))
    tw = session.twisted
    key = ((0, 0), 0, (1, 1), 0)
    assert not tw.pair_at(key)[1]
    tw._pair_kappas[key] = tw.field.one
    assert killing_across_residues(tw) == [key]


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_the_galois_character_is_multiplicative_in_the_degree(spec):
    # chi(g, r + r') = chi(g, r) chi(g, r'), so the two characters of the
    # equivariance sides are one common factor and `_equivariance_sides`
    # leaves them out
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    tw, group = session.twisted, session.ring.group
    residues = list(product(*(range(m) for m in group.orders)))
    for g in group.elements():
        for r in residues:
            for s in residues:
                both = group.character(g, r) * group.character(g, s)
                total = tuple(a + b for a, b in zip(r, s))
                assert group.character(g, total) == both, (g, r, s)
                assert group.character(g, tw.residue(total)) == both, (g, r, s)


def reference_loop_kernel_dim(ext, degree, generator_window):
    """The `_loop_kernel_dim` that brackets against every generator degree."""
    tw = ext.twisted
    dim = tw.component_dim(degree)
    if not dim:
        return 0
    rdeg = tw.residue(degree)
    gens = [(gdeg, tw.residue(gdeg), gpos) for gdeg, gpos, _ in tw.window_basis(generator_window)]
    images = [
        [
            x
            for gdeg, rg, gpos in gens
            for x in ext._pair_coords(degree, gdeg, (rdeg, a, rg, gpos))
        ]
        for a in range(dim)
    ]
    return dim - linalg.SpanSolver(ext.field, images).dim


@pytest.mark.parametrize(
    "spec, window",
    [
        (spec, window)
        for spec in SHIPPED_SPECS
        for window in (1, 2, 3)
        if spec != "d4_bitwist" or window < 3
    ],
)
def test_loop_kernel_per_residue_matches_every_generator_degree(spec, window):
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    ext = session.ext
    for degree in box_degrees(session.ring.n, window):
        for generator_window in (window, window + 1, window + 2):
            assert ext._loop_kernel_dim(degree, generator_window) == reference_loop_kernel_dim(
                ext, degree, generator_window
            )


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_loop_kernel_per_residue_reads_a_nonzero_class_where_one_exists(spec):
    # with the loop part of every bracket of x_0 at residue 0 emptied, x_0 is
    # killed exactly where no generator degree gives it a nonzero class, as at
    # degree 0; elsewhere one degree per residue must find the class that does
    session = Session(load_spec(str(SPECS_DIR / f"{spec}.json")))
    ext, tw = session.ext, session.twisted
    zero = (0,) * session.ring.n
    for rg, comp in tw.eigen.components.items():
        for b in range(len(comp)):
            tw.pair_at((zero, 0, rg, b))
            tw._pairs[(zero, 0, rg, b)] = ()
    kernels = {}
    for degree in box_degrees(session.ring.n, 3):  # 3: a nonzero degree of residue 0
        if tw.residue(degree) == zero:
            for generator_window in (3, 4):
                kernels[degree, generator_window] = kernel = ext._loop_kernel_dim(
                    degree, generator_window
                )
                assert kernel == reference_loop_kernel_dim(ext, degree, generator_window)
    assert kernels[zero, 3] == 1
    assert sum(kernels.values()) < len(kernels)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_lift_entry_gives_the_same_equivariance_failures(seed, monkeypatch):
    session = make_session("D", 4, [{"kind": "diagram", "perm": [2, 1, 3, 0]}], [3], window=1)
    ext, tw = session.ext, session.twisted
    rng = random.Random(seed)
    g = rng.choice(non_identity(ext))
    keys = sorted({(tw.residue(d), pos) for d, pos, _ in tw.window_basis(1)})
    residue, pos = rng.choice(keys)
    pairs = list(ext._lift_pairs(g, residue, pos))
    k = rng.randrange(len(pairs))
    q, e = pairs[k]
    pairs[k] = q, e * 2
    ext._lifts[(g.components, residue, pos)] = tuple(pairs)
    _, decomposition = assert_routes_match_references(ext, 1, monkeypatch)
    kinds = {f["kind"] for f in decomposition["failures"]}
    assert kinds == {"bracket-equivariance"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_asymmetric_killing_entry_gives_the_same_antisymmetry_failures(seed, monkeypatch):
    # kappa_ab != kappa_ba leaves (kappa_ab - kappa_ba) nu at degree mu + nu = 0:
    # a nonzero class, so the key pair must be expanded into its basis pairs
    session = make_session("D", 4, [{"kind": "diagram", "perm": [2, 1, 3, 0]}], [3], window=1)
    ext, tw = session.ext, session.twisted
    keys = window_keys(tw, 1)
    for key in keys:
        tw.pair_at(key)
    opposite = [
        key for key in keys
        if key[0] != (0,) and tw.residue((key[0][0] + key[2][0],)) == (0,)
    ]
    key = random.Random(seed).choice(opposite)
    tw._pair_kappas[key] = tw._pair_kappas[key] + 1
    cocycle, jacobi, _ = assert_structural_reports_match_references(ext, 1)
    assert assert_routes_match_references(ext, 1, monkeypatch)[0] == cocycle
    assert "antisymmetry" in {f["kind"] for f in cocycle["failures"]}
    assert not jacobi["passed"]


@pytest.mark.parametrize("seed", [0, 1])
def test_wrong_fixed_space_of_one_residue_fails_at_each_of_its_degrees(seed, monkeypatch):
    session = make_session("A", 2, [{"kind": "diagram", "perm": [1, 0]}], [2], window=2)
    ext, tw = session.ext, session.twisted
    residue = random.Random(seed).choice(sorted(tw.eigen.components))
    negated = tuple(-a for a in residue)
    group = tw.group
    # the reference stacks every element of G, the route its generators only
    characters = (
        [group.character(g, negated) for g in group.elements()],
        [group.character(group.generator(i), negated) for i in range(group.n)],
    )
    honest = descent._joint_eigenspace

    def drop_one_vector(algebra, pairs):
        space = honest(algebra, pairs)
        return space[:-1] if [chi for _, chi in pairs] in characters else space

    monkeypatch.setattr(descent, "_joint_eigenspace", drop_one_vector)
    rep = ext.decomposition(2)
    assert rep == reference_decomposition(ext, 2)
    failing = [f["degree"] for f in rep["failures"]]
    assert {f["kind"] for f in rep["failures"]} == {"fixed-space"}
    assert failing == [list(d) for d in box_degrees(1, 2) if tw.residue(d) == residue]


@pytest.mark.parametrize("column", [None, 0], ids=["every-column", "column-0"])
def test_a_corrupted_composite_lift_fails_decomposition_at_that_element(column, monkeypatch):
    # the fixed spaces read u_g at the generators of G only, so a wrong u_g at
    # the composite g = (2,) of Z/3, put in place after set-up, must fail the
    # stability or the equivariance part at g = [2]: doubled on every column
    # it keeps each component and breaks the bracket, doubled on one column
    # it also moves basis vectors out of their components
    session = make_session("D", 4, [{"kind": "diagram", "perm": [2, 1, 3, 0]}], [3], window=1)
    tw, ext = session.twisted, session.ext
    u = tw.cocycle.value(GaloisElement(tw.group, (2,)))
    two = tw.field.scalar(2)
    columns = [
        tuple(two * x for x in col) if column in (None, j) else col
        for j, col in enumerate(u.columns)
    ]
    wrong = LieAutomorphism(session.algebra, columns, u.order, validate=False)
    monkeypatch.setitem(tw.cocycle._values, (2,), wrong)
    rep = ext.decomposition(1)
    assert not rep["passed"]
    kinds = {f["kind"] for f in rep["failures"]}
    assert kinds == ({"bracket-equivariance"} if column is None else {"stability", "bracket-equivariance"})
    assert {tuple(f["g"]) for f in rep["failures"]} == {(2,)}
    assert all(d["loop_fixed"] == d["loop_component"] for d in rep["per_degree"].values())
