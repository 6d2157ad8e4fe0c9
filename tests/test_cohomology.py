import random
from pathlib import Path

import pytest

from multiloop import cohomology, linalg
from multiloop.cohomology import (
    CochainIndex,
    _constraint_rows,
    _in_box,
    _window_triples,
    canonical_slice,
    coboundary,
    cochain_from_function,
    cocycle_space_report,
    extract_class_map,
    g0_is_semisimple,
    invariantize,
    is_windowed_cocycle,
    universal_map_check,
)
from multiloop.errors import MismatchError, StructureError
from multiloop.kaehler import class_basis_at
from multiloop.liealg import nonzeros
from multiloop.session import Session, load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"


# -- element-level references for the cochain-coordinate routes ----------------


def evaluate(P, x, y):
    """P on two loop elements supported in the window, through the component
    coordinates of every term pair."""
    tw = P.twisted
    field = tw.field
    out = [field.zero] * P.vdim
    for e1, v1 in x.terms.items():
        c1 = tw.component_coords(e1, v1)
        if c1 is None:
            raise StructureError("first argument is not in the descended algebra")
        for e2, v2 in y.terms.items():
            c2 = tw.component_coords(e2, v2)
            if c2 is None:
                raise StructureError("second argument is not in the descended algebra")
            if tuple(a + b for a, b in zip(e1, e2)) != P.lam:
                continue
            for a, ca in enumerate(c1):
                if ca:
                    for b, cb in enumerate(c2):
                        if cb:
                            val = P.value(e1, e2, a, b)
                            factor = ca * cb
                            for t in range(P.vdim):
                                if val[t]:
                                    out[t] = out[t] + factor * val[t]
    return tuple(out)


def element_is_windowed_cocycle(ext, P):
    """The cocycle identity on all window triples through element brackets."""
    tw = P.twisted
    basis = tw.window_basis(P.window)
    lb = tw.loopalg.bracket
    for i, j, k in _window_triples(basis, P.lam, P.window):
        xi, xj, xk = basis[i][2], basis[j][2], basis[k][2]
        total = tuple(
            a + b + c
            for a, b, c in zip(
                evaluate(P, lb(xi, xj), xk),
                evaluate(P, lb(xj, xk), xi),
                evaluate(P, lb(xk, xi), xj),
            )
        )
        if any(total):
            return False
    return True


def apply_class_map(phi, central_class):
    """phi on a central class, extended by zero off its internal degree."""
    out = [phi.ext.field.zero] * phi.vdim
    vec = central_class.component(phi.lam)
    for pos, slot in enumerate(phi.slots):
        c = vec[slot]
        if c:
            for t in range(phi.vdim):
                if phi.matrix[pos][t]:
                    out[t] = out[t] + c * phi.matrix[pos][t]
    return tuple(out)


def element_universal_map_check(ext, P):
    """`universal_map_check` pair by pair: the extension bracket of every pair
    of extended window basis elements against the normalized cochain."""
    if not element_is_windowed_cocycle(ext, P):
        raise StructureError("P is not a windowed cocycle")
    P0, _ = cohomology.invariantize(ext, P)
    phi = cohomology.extract_class_map(ext, P0)
    basis = ext.extended_window_basis(P.window)
    failures = []
    checked = 0
    for i, A in enumerate(basis):
        for j in range(i, len(basis)):
            B = basis[j]
            checked += 1
            lhs = apply_class_map(phi, ext.bracket(A, B).central)
            if lhs != evaluate(P0, A.loop, B.loop):
                failures.append([i, j])
    return {
        "passed": not failures,
        "pairs": checked,
        "failures": failures,
        "phi_on_basis": [[str(x) for x in row] for row in phi.on_basis()],
    }


def random_tau(tw, lam, vdim, rng, span=3):
    return [
        [rng.randint(-span, span) for _ in range(vdim)]
        for _ in range(tw.component_dim(lam))
    ]


def test_h2_dimensions_rank1(a1_n1):
    for lam, expect in [((0,), 1), ((1,), 0), ((2,), 0), ((-2,), 0)]:
        rep = cocycle_space_report(a1_n1.ext, lam, 3)
        assert rep["h2_dim"] == expect
        assert rep["lower_bound"] == expect
        assert rep["certified"]
        assert not rep["degenerate"]


def test_h2_dimensions_twisted(a2_twisted):
    for lam in [(-2,), (-1,), (0,), (1,), (2,)]:
        rep = cocycle_space_report(a2_twisted.ext, lam, 2)
        expect = 1 if lam == (0,) else 0
        assert rep["h2_dim"] == expect and rep["certified"]


def test_h2_dimensions_n2(a1_n2):
    rep = cocycle_space_report(a1_n2.ext, (0, 0), 2)
    assert rep["h2_dim"] == 2 and rep["certified"]
    rep = cocycle_space_report(a1_n2.ext, (1, -1), 2)
    assert rep["h2_dim"] == 1 and rep["certified"]


def test_h2_lambda_outside_window(a1_n1):
    with pytest.raises(MismatchError):
        cocycle_space_report(a1_n1.ext, (5,), 2)


def test_canonical_slice_is_cocycle(a1_n1, a2_twisted):
    for session in (a1_n1, a2_twisted):
        P = canonical_slice(session.ext, (0,), 2)
        assert P is not None and P.vdim == 1
        assert is_windowed_cocycle(session.ext, P)
    assert canonical_slice(a2_twisted.ext, (1,), 2) is None


def test_cochain_antisymmetry_enforced(a1_n1):
    tw = a1_n1.twisted
    field = tw.field

    def symmetric(mu, nu, a, b):  # every entry 1: not antisymmetric on (0, 0)
        return (field.one,)

    def zero_diagonal_symmetric(mu, nu, a, b):  # passes a == b, fails the mirror
        return (field.zero if a == b else field.one,)

    for fill in (symmetric, zero_diagonal_symmetric):
        with pytest.raises(StructureError):
            cochain_from_function(tw, (0,), 1, 1, fill)
    with pytest.raises(MismatchError):
        cochain_from_function(tw, (0,), 1, 2, lambda mu, nu, a, b: (field.zero,))


def test_coboundaries_are_cocycles(a1_n1):
    tw = a1_n1.twisted
    rng = random.Random(3)
    db = coboundary(tw, (0,), 2, random_tau(tw, (0,), 1, rng))
    assert is_windowed_cocycle(a1_n1.ext, db)
    assert not db.is_zero() and (db - db).is_zero() and (db * 0).is_zero()


def test_invariantize_canonical_slice_is_fixed(a1_n1):
    ext = a1_n1.ext
    P = canonical_slice(ext, (0,), 2)
    P0, tau = invariantize(ext, P)
    assert all(not any(row) for row in tau)


def test_invariantize_recovers_class(a1_n1):
    ext = a1_n1.ext
    tw = a1_n1.twisted
    rng = random.Random(4)
    P = canonical_slice(ext, (0,), 2)
    shifted = P + coboundary(tw, (0,), 2, random_tau(tw, (0,), 1, rng))
    P0, tau = invariantize(ext, shifted)
    # the normalized representative differs from the canonical slice by a coboundary:
    # their class maps agree
    phi = extract_class_map(ext, P0)
    assert phi.on_basis() == [(ext.field.one,)]


def test_invariantize_of_coboundary_gives_zero_map(a1_n1):
    ext = a1_n1.ext
    tw = a1_n1.twisted
    rng = random.Random(5)
    db = coboundary(tw, (0,), 2, random_tau(tw, (0,), 1, rng))
    P0, _ = invariantize(ext, db)
    phi = extract_class_map(ext, P0)
    assert phi.on_basis() == [(ext.field.zero,)]


def test_extract_requires_normalization(a1_n1):
    ext = a1_n1.ext
    tw = a1_n1.twisted
    # build a cochain violating the normalization on ((0,), (0,)) pairs
    rng = random.Random(6)
    P = canonical_slice(ext, (0,), 2)
    bad = P + coboundary(tw, (0,), 2, [[7], [0], [0]])
    with pytest.raises(StructureError):
        extract_class_map(ext, bad)


def test_extract_zero_cochain(a1_n1):
    ext = a1_n1.ext
    zero = cochain_from_function(
        a1_n1.twisted, (0,), 2, 1, lambda mu, nu, a, b: (ext.field.zero,)
    )
    assert zero.is_zero()
    phi = extract_class_map(ext, zero)
    assert phi.on_basis() == [(ext.field.zero,)]
    z = class_basis_at(ext.ring, (0,))[0]
    assert apply_class_map(phi, z) == (ext.field.zero,)


def test_choice_independence_on_random_pairs(a1_n1):
    ext = a1_n1.ext
    tw = a1_n1.twisted
    alg = ext.algebra
    P0, _ = invariantize(ext, canonical_slice(ext, (0,), 2))
    rng = random.Random(7)
    la = ext.loopalg
    g0 = [list(v) for v in tw.g0_basis()]
    for _ in range(100):
        x = [sum(rng.randint(-2, 2) * v[i] for v in g0) for i in range(alg.dim)]
        y = [sum(rng.randint(-2, 2) * v[i] for v in g0) for i in range(alg.dim)]
        xp = [sum(rng.randint(-2, 2) * v[i] for v in g0) for i in range(alg.dim)]
        yp = [sum(rng.randint(-2, 2) * v[i] for v in g0) for i in range(alg.dim)]
        a, b = (1,), (-1,)
        kxy, kxpyp = alg.killing(nonzeros(x), nonzeros(y)), alg.killing(nonzeros(xp), nonzeros(yp))
        lhs = evaluate(P0, la.pure(x, a), la.pure(y, b))[0] * kxpyp
        rhs = evaluate(P0, la.pure(xp, a), la.pure(yp, b))[0] * kxy
        assert lhs == rhs


def test_universal_map_check_canonical(a1_n1):
    ext = a1_n1.ext
    P = canonical_slice(ext, (0,), 2)
    rep = universal_map_check(ext, P)
    assert rep["passed"]
    assert rep["phi_on_basis"] == [["1"]]


def test_universal_map_check_vector_valued(a1_n1):
    ext = a1_n1.ext
    tw = a1_n1.twisted
    rng = random.Random(8)
    w = [rng.randint(1, 5), rng.randint(-5, -1)]
    P = canonical_slice(ext, (0,), 2).tensor(w)
    P = P + coboundary(tw, (0,), 2, random_tau(tw, (0,), 2, rng))
    rep = universal_map_check(ext, P)
    assert rep["passed"]
    assert rep["phi_on_basis"] == [[str(x) for x in w]]


def test_universal_map_check_twisted(a2_twisted):
    ext = a2_twisted.ext
    tw = a2_twisted.twisted
    rng = random.Random(9)
    P = canonical_slice(ext, (0,), 2).tensor([3])
    P = P + coboundary(tw, (0,), 2, random_tau(tw, (0,), 1, rng))
    rep = universal_map_check(ext, P)
    assert rep["passed"]


def test_universal_map_check_rejects_non_cocycle(a1_n1):
    ext = a1_n1.ext
    tw = a1_n1.twisted
    field = tw.field

    def fill(mu, nu, a, b):
        # antisymmetric but not a cocycle: pair with value a-b on the (−1,1) block
        if mu == (-1,) and nu == (1,):
            return (field.scalar(a + b + 1),)
        return (field.zero,)

    P = cochain_from_function(tw, (0,), 2, 1, fill)
    with pytest.raises(StructureError):
        universal_map_check(ext, P)


def test_g0_semisimple(a1_n1, a2_twisted):
    assert g0_is_semisimple(a1_n1.twisted)
    assert g0_is_semisimple(a2_twisted.twisted)


def test_h2_full_sweep_n2(a1_n2):
    # every internal degree in the |lambda_i| <= 2 box certifies at window 2,
    # with the graded dimension matching the central class space
    from multiloop.laurent import box_degrees

    for lam in box_degrees(2, 2):
        rep = cocycle_space_report(a1_n2.ext, lam, 2)
        expect = 2 if lam == (0, 0) else 1
        assert rep["certified"] and rep["h2_dim"] == expect == rep["centre_dim"]


def test_h2_triality(d4_triality):
    # the certificate also closes for the order-3 twist, over Q(zeta_3)
    for lam in [(-1,), (0,), (1,)]:
        rep = cocycle_space_report(d4_triality.ext, lam, 1)
        expect = 1 if lam == (0,) else 0
        assert rep["certified"] and rep["h2_dim"] == expect == rep["centre_dim"]


def test_extract_identity_nonzero_degree(a1_n2):
    ext = a1_n2.ext
    P = canonical_slice(ext, (1, 0), 1)
    assert P is not None and P.vdim == 1
    P0, _ = invariantize(ext, P)
    phi = extract_class_map(ext, P0)
    assert phi.on_basis() == [(ext.field.one,)]


def test_extract_identity_n2(a1_n2):
    # two-variable case: the canonical slice at the origin induces the
    # identity on the two-dimensional central class space
    ext = a1_n2.ext
    P = canonical_slice(ext, (0, 0), 1)
    assert P.vdim == 2
    P0, tau = invariantize(ext, P)
    assert all(not any(row) for row in tau)
    phi = extract_class_map(ext, P0)
    field = ext.field
    assert phi.on_basis() == [
        (field.one, field.zero),
        (field.zero, field.one),
    ]


def test_cochain_evaluate_bilinearity(a2_twisted):
    ext = a2_twisted.ext
    tw = a2_twisted.twisted
    P = canonical_slice(ext, (0,), 2)
    x = tw.component_basis((1,))[0]
    y = tw.component_basis((-1,))[1]
    z = tw.component_basis((-1,))[2]
    lhs = evaluate(P, x, y + z)
    rhs = tuple(a + b for a, b in zip(evaluate(P, x, y), evaluate(P, x, z)))
    assert lhs == rhs
    # matches the extension cocycle value in slot coordinates
    from multiloop.kaehler import slot_indices

    cls = ext.cocycle(x, y)
    slots = slot_indices(ext.ring, (0,))
    assert evaluate(P, x, y) == tuple(cls.component((0,))[i] for i in slots)


def brute_force_triples(basis, lam, window):
    """The plain i < j < k scan over a flat window basis."""
    out = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for k in range(j + 1, len(basis)):
                di, dj, dk = basis[i][0], basis[j][0], basis[k][0]
                if tuple(a + b + c for a, b, c in zip(di, dj, dk)) != lam:
                    continue
                sums = [tuple(a + b for a, b in zip(p, q)) for p, q in ((di, dj), (dj, dk), (dk, di))]
                if all(_in_box(d, window) for d in sums):
                    out.append((i, j, k))
    return out


@pytest.mark.parametrize("name,window,lam", [("a1_n2", 2, (0, 0)), ("a2_twisted", 3, (1,))])
def test_window_triples_match_brute_force(request, name, window, lam):
    tw = request.getfixturevalue(name).twisted
    basis = tw.window_basis(window)
    expected = brute_force_triples(basis, lam, window)
    assert expected
    assert list(_window_triples(basis, lam, window)) == expected


def bracket_coords(twisted, x, y):
    """Nonzero (position, coefficient) pairs of [x, y] in its component basis,
    through the element bracket; x and y are homogeneous, so [x, y] lies in
    one component."""
    out = []
    for e, gv in twisted.loopalg.bracket(x, y).terms.items():
        out.extend((r, c) for r, c in enumerate(twisted.component_coords(e, gv)) if c)
    return out


def unmemoised_constraint_rows(ext, index):
    """The cocycle-identity rows with every bracket recomputed per triple."""
    tw = ext.twisted
    zero = tw.field.zero
    basis = tw.window_basis(index.window)
    rows = []
    for i, j, k in _window_triples(basis, index.lam, index.window):
        row = {}
        for first, second, other in ((i, j, k), (j, k, i), (k, i, j)):
            (d1, _, x), (d2, _, y), (d3, pos, _) = basis[first], basis[second], basis[other]
            pair_deg = tuple(a + b for a, b in zip(d1, d2))
            for r, c in bracket_coords(tw, x, y):
                res = index.unknown(pair_deg, d3, r, pos)
                if res is not None:
                    uid, sign = res
                    cur = row.get(uid, zero) + (c if sign == 1 else -c)
                    if cur:
                        row[uid] = cur
                    elif uid in row:
                        del row[uid]
        if row:
            rows.append(row)
    return rows


def unit_tau_coboundaries(tw, index):
    """d of each unit tau on the lam component, one coboundary call each."""
    field = tw.field
    dim_lam = tw.component_dim(index.lam)
    out = []
    for t in range(dim_lam):
        tau = [(field.one,) if r == t else (field.zero,) for r in range(dim_lam)]
        out.append(coboundary(tw, index.lam, index.window, tau).vectors[0])
    return out


@pytest.mark.parametrize(
    "name,window,lam",
    [("a1_n2", 2, (0, 0)), ("a2_twisted", 3, (1,)), ("d4_triality", 1, (0,))],
)
def test_assembly_matches_unmemoised_reference(monkeypatch, request, name, window, lam):
    ext = request.getfixturevalue(name).ext
    index = CochainIndex(ext.twisted, lam, window)
    rows = _constraint_rows(ext, index)
    expected_rows = unmemoised_constraint_rows(ext, index)
    assert rows
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in expected_rows]

    fed = {}  # eliminator -> rows added, in order
    original = linalg.SparseEliminator.add

    def recording_add(eliminator, row):
        fed.setdefault(id(eliminator), []).append(dict(row))
        return original(eliminator, row)

    monkeypatch.setattr(linalg.SparseEliminator, "add", recording_add)
    report = cocycle_space_report(ext, lam, window)
    constraints_fed, boundaries_fed = fed.values()
    assert constraints_fed == expected_rows
    expected_b2 = unit_tau_coboundaries(ext.twisted, index)
    assert expected_b2 and any(expected_b2)
    assert boundaries_fed[: len(expected_b2)] == expected_b2
    assert report["constraints"] == len(expected_rows)


def spec_session(name):
    return Session(load_spec(SPECS / f"{name}.json"))


def both_routes(ext, P):
    """The report of `universal_map_check` and of its element reference, or
    the StructureError each raised."""
    out = []
    for route in (universal_map_check, element_universal_map_check):
        try:
            out.append(route(ext, P))
        except StructureError as err:
            out.append(err)
    return out


@pytest.mark.parametrize(
    "name,window",
    [("a1_n1", 2), ("a2_twisted", 2), ("a1_n2", 1), ("d4_triality", 3)],
)
def test_universal_map_check_matches_element_reference(request, name, window):
    ext = request.getfixturevalue(name).ext
    tw = ext.twisted
    lam = (0,) * ext.ring.n
    rng = random.Random(10)
    P = canonical_slice(ext, lam, window)
    if P.vdim == 1:
        P = P.tensor([rng.randint(1, 5), rng.randint(-5, -1)])
    cases = [
        P + coboundary(tw, lam, window, random_tau(tw, lam, P.vdim, rng)),
        coboundary(tw, lam, window, random_tau(tw, lam, 1, rng)),
    ]
    for case in cases:
        new, reference = both_routes(ext, case)
        assert new["passed"] and reference["passed"]
        assert new["pairs"] == reference["pairs"]
        assert new["phi_on_basis"] == reference["phi_on_basis"]
        assert new["failures"] == reference["failures"] == []


def test_universal_map_check_d4_bitwist():
    ext = spec_session("d4_bitwist").ext
    rep = universal_map_check(ext, canonical_slice(ext, (0, 0), 3))
    assert rep["passed"]
    assert rep["phi_on_basis"] == [["1", "0"], ["0", "1"]]


def test_scaled_class_map_fails_on_both_routes(monkeypatch, a1_n1):
    ext = a1_n1.ext
    P = canonical_slice(ext, (0,), 2)
    extract = cohomology.extract_class_map

    def scaled(ext, P0):
        phi = extract(ext, P0)
        phi.matrix = [[2 * x for x in row] for row in phi.matrix]
        return phi

    monkeypatch.setattr(cohomology, "extract_class_map", scaled)
    new, reference = both_routes(ext, P)
    assert not new["passed"] and not reference["passed"]
    assert new["phi_on_basis"] == reference["phi_on_basis"] == [["2"]]
    assert new["pairs"] == reference["pairs"]
    # each failing unknown is one failing pair of loop basis elements
    assert len(new["failures"]) == len(reference["failures"]) > 0


def test_corrupted_unknown_raises_on_both_routes(a1_n1):
    ext = a1_n1.ext
    P = canonical_slice(ext, (0,), 2)
    uid, _ = P.index.unknown((-1,), (1,), 0, 2)
    bad = cohomology.WindowedCochain(P.index, [dict(P.vectors[0])])
    bad.vectors[0][uid] = bad.vectors[0].get(uid, ext.field.zero) + 1
    assert not is_windowed_cocycle(ext, bad)
    assert not element_is_windowed_cocycle(ext, bad)
    for result in both_routes(ext, bad):
        assert isinstance(result, StructureError)


def test_non_cocycle_raises_on_both_routes(a1_n1):
    tw = a1_n1.twisted
    field = tw.field

    def fill(mu, nu, a, b):
        return (field.scalar(a + b + 1),) if (mu, nu) == ((-1,), (1,)) else (field.zero,)

    P = cochain_from_function(tw, (0,), 2, 1, fill)
    for result in both_routes(a1_n1.ext, P):
        assert isinstance(result, StructureError)
        assert "not a windowed cocycle" in str(result)


@pytest.mark.parametrize("z2", [2, 3])
def test_cyclic_relation_of_the_class_map(a1_n1, z2):
    # z_{mu,-mu} on the base pairs at lam = 0 is z_{-1,1} = 1 and z_{-2,2} = z2;
    # the cyclic relation forces z_{-2,2} = 2 z_{-1,1}
    ext = a1_n1.ext
    tw = a1_n1.twisted
    field = tw.field
    z = {(-1,): 1, (-2,): z2}

    def fill(mu, nu, a, b):
        return (field.scalar(z.get(mu, 0)) * tw.pair(mu, a, nu, b)[1],)

    P = cochain_from_function(tw, (0,), 2, 1, fill)
    if z2 == 2:
        assert extract_class_map(ext, P).on_basis() == [(field.one,)]
    else:
        with pytest.raises(StructureError, match="not well defined"):
            extract_class_map(ext, P)


def test_universal_map_check_needs_semisimple_g0():
    # on a2_bitwist the fixed subalgebra is one-dimensional: the claim's
    # hypothesis fails, and the check says so instead of reporting failed pairs
    session = spec_session("a2_bitwist")
    ext, tw = session.ext, session.twisted
    assert not g0_is_semisimple(tw)
    db = coboundary(tw, (0, 0), 2, [[1]] * tw.component_dim((0, 0)))
    assert not db.is_zero()
    with pytest.raises(StructureError, match="fixed subalgebra is not semisimple"):
        universal_map_check(ext, db)


@pytest.mark.parametrize("window", [1, 2])
def test_universal_map_check_window_below_order(d4_triality, window):
    # below window m = 3 the only base pair at lam = 0 is (0, 0), whose class vanishes
    ext = d4_triality.ext
    with pytest.raises(StructureError, match="do not span the central classes"):
        universal_map_check(ext, canonical_slice(ext, (0,), window))
