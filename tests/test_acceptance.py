"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s); the
assertions carry the same conditions.  Configurations: the untwisted rank-1
loop algebra in one and two variables, the rank-2 algebra twisted by its
diagram involution (orders (2,)), and the triality twist of D4.
"""

import random
import time

import pytest

from multiloop import linalg
from multiloop.checks import check_zrel
from multiloop.cohomology import (
    canonical_slice,
    coboundary,
    cocycle_space_report,
    universal_map_check,
)
from multiloop.liealg import (
    build_algebra,
    diagram_automorphism,
    nonzeros,
    simultaneous_eigenspaces,
)
from multiloop.cyclotomic import CyclotomicField

from tests.conftest import invariant_matches_base_image


def jacobi_holds_ordered(alg) -> bool:
    """Jacobi over all ordered basis triples."""
    d = alg.dim
    return not any(
        alg._jacobi_defect(i, j, k) for i in range(d) for j in range(d) for k in range(d)
    )


def _report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_c01_chevalley_build_integrity():
    start = time.time()
    ok = True
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        alg = build_algebra(family, rank)
        ok &= jacobi_holds_ordered(alg)
        # ad-invariance of the Killing form on all ordered basis triples
        basis = [nonzeros(alg.basis_vector(i)) for i in range(alg.dim)]
        for i in range(alg.dim):
            bi = basis[i]
            for j in range(alg.dim):
                bj = basis[j]
                bij = nonzeros(alg.bracket(bi, bj))
                for k in range(alg.dim):
                    bk = basis[k]
                    if alg.killing(bij, bk) != alg.killing(bi, nonzeros(alg.bracket(bj, bk))):
                        ok = False
        ok &= not linalg.det(alg.killing_matrix, alg.field).is_zero()
    elapsed = time.time() - start
    ok &= elapsed < 60
    _report(1, ok, f"Jacobi + Killing integrity for 7 types in {elapsed:.1f}s (< 60s)")


def test_c02_eigenspace_dimensions():
    a2 = build_algebra("A", 2, CyclotomicField(2))
    eig2 = simultaneous_eigenspaces([diagram_automorphism(a2, [1, 0])], [2])
    d4 = build_algebra("D", 4, CyclotomicField(3))
    eig3 = simultaneous_eigenspaces([diagram_automorphism(d4, [2, 1, 3, 0])], [3])
    ok = eig2.dims() == {(0,): 3, (1,): 5}
    ok &= eig3.dims() == {(0,): 14, (1,): 7, (2,): 7}
    ok &= sum(eig2.dims().values()) == a2.dim
    ok &= sum(eig3.dims().values()) == d4.dim
    _report(2, ok, "eigenspace dims (3,5) for the A2 involution, (14,7,7) for triality")


def test_c03_cocycle_laws(a1_n1, a1_n2, a2_twisted):
    ok = True
    counts = []
    for session in (a1_n1, a1_n2, a2_twisted):
        rep = session.ext.cocycle_checks(2)
        ok &= rep["passed"]
        counts.append(rep["triples"])
    _report(3, ok, f"cocycle antisymmetry + identity on window triples d=2 {counts}")


def test_c04_extended_bracket_jacobi(a1_n1, a1_n2, a2_twisted):
    ok = True
    counts = []
    for session in (a1_n1, a1_n2, a2_twisted):
        rep = session.ext.extended_jacobi(2)
        ok &= rep["passed"]
        counts.append(rep["triples"])
    _report(4, ok, f"extension-bracket Jacobi on window triples d=2 {counts}")


def test_c05_quotient_identities(a1_n2, a2_twisted):
    ok = True
    for session in (a2_twisted, a1_n2):
        rep = check_zrel(session, count=1000)
        ok &= rep["passed"] and rep["count"] == 1000
    _report(5, ok, "reduce(d(p)) = 0 and the three reduce identities on 1000 seeded samples")


def test_c06_centre_certificate(a1_n1, a1_n2, a2_twisted):
    start = time.time()
    rep1 = a1_n1.ext.centre_window(2)
    ok = rep1["passed"] and rep1["centre_dim"] == 1
    ok &= rep1["per_degree"]["[0]"]["centre_dim"] == 1
    ok &= all(
        v["centre_dim"] == 0 for k, v in rep1["per_degree"].items() if k != "[0]"
    )
    rep2 = a1_n2.ext.centre_window(1)
    ok &= rep2["passed"] and rep2["per_degree"]["[0, 0]"]["centre_dim"] == 2
    ok &= all(
        v["centre_dim"] == 1 for k, v in rep2["per_degree"].items() if k != "[0, 0]"
    )
    rep3 = a2_twisted.ext.centre_window(2)
    ok &= rep3["passed"] and rep3["centre_dim"] == 1
    elapsed = time.time() - start
    ok &= elapsed < 60
    _report(6, ok, f"certified centres match the base-class windows in {elapsed:.1f}s (< 60s)")


def test_c07_perfectness(a1_n1, a1_n2, a2_twisted):
    ok = True
    covered = []
    for session in (a1_n1, a1_n2, a2_twisted):
        rep = session.ext.perfectness(2, 1)
        ok &= rep["passed"] and not rep["uncovered"]
        covered.append(rep["covered"])
    _report(7, ok, f"every |deg|<=2 basis vector is a bracket combination from |deg|<=3 {covered}")


def test_c08_fixed_space_identification(a2_twisted):
    ring = a2_twisted.ring
    ok = invariant_matches_base_image(ring, 4)
    _report(8, ok, "invariant classes = reduced base-ring image (m=2, window d=4)")


def test_c09_base_ring_pairs(a2_twisted):
    rep = a2_twisted.ext.base_ring_pairs(3)
    ok = rep["passed"] and rep["pairs_with_nonzero_class"] > 0
    _report(
        9,
        ok,
        f"zero violations over {rep['pairs_with_nonzero_class']} eigen-adapted pairs (d=3)",
    )


def test_c10_descent_stability(a1_n1, a1_n2, a2_twisted):
    ok = True
    for session, window in ((a1_n1, 2), (a1_n2, 1), (a2_twisted, 2)):
        rep = session.ext.decomposition(window)
        ok &= rep["passed"]
    _report(10, ok, "lifts stabilize the descended algebra and the fixed space splits")


def test_c11_universality_sandwich(a1_n1, a2_twisted):
    ok = True
    dims = {}
    for session, label in ((a1_n1, "untwisted"), (a2_twisted, "twisted")):
        start = time.time()
        for lam in range(-2, 3):
            rep = cocycle_space_report(session.ext, (lam,), 3)
            ok &= rep["certified"] and rep["h2_dim"] == rep["centre_dim"]
            dims[(label, lam)] = rep["h2_dim"]
        ok &= time.time() - start < 300
    expected = {lam: (1 if lam == 0 else 0) for lam in range(-2, 3)}
    for (label, lam), dim in dims.items():
        ok &= dim == expected[lam]
    _report(11, ok, f"graded 2-cohomology certified at every |lambda| <= 2: {dims}")


def test_c12_universal_map_check(a1_n1):
    ext = a1_n1.ext
    tw = a1_n1.twisted
    rng = random.Random(a1_n1.spec.seed)
    w = [rng.randint(1, 5), -rng.randint(1, 5)]
    P = canonical_slice(ext, (0,), 2).tensor(w)
    tau = [
        [rng.randint(-3, 3) for _ in range(2)] for _ in range(tw.component_dim((0,)))
    ]
    P = P + coboundary(tw, (0,), 2, tau)
    rep = universal_map_check(ext, P)
    ok = rep["passed"] and rep["phi_on_basis"] == [[str(x) for x in w]]
    _report(12, ok, f"universal-map homomorphism with V=k^2 on {rep['pairs']} pairs")


def test_c13_lifts_fix_centre(a1_n1, a1_n2, a2_twisted, d4_triality):
    ok = True
    for session in (a1_n1, a1_n2, a2_twisted, d4_triality):
        rep = session.ext.lift_fixes_centre(session.spec.window)
        ok &= rep["passed"]
    _report(13, ok, "every lifted descent action fixes the window central classes pointwise")
