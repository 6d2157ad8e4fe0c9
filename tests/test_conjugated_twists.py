"""Reports do not depend on the basis a twist is written in.

For an automorphism tau of g, the family tau sigma_i tau^-1 commutes, has the
orders of sigma_i, and gives an isomorphic multiloop algebra (Allison,
Berman, Faulkner and Pianzola, *Multiloop realization of extended affine Lie
algebras and Lie tori*, 2009).  tau = exp(ad e_1) keeps the Chevalley lattice
(Humphreys, section 25), so each conjugate is a `matrix` spec with rational
entries.  Its columns are not monomial where the shipped twists' are, so the
residue-keyed memos read dense eigenvectors.  The identity twists conjugate
to the identity and exercise only the `matrix` path.
"""

import random

import pytest

from multiloop import kaehler
from multiloop.checks import CHECK_NAMES, h2_report, run_checks
from multiloop.errors import StructureError
from multiloop.laurent import box_degrees
from multiloop.session import Session, SessionSpec, load_spec
from tests.test_extension import (
    SHIPPED_SPECS,
    SPECS_DIR,
    reference_base_ring_pairs,
    reference_component_direct,
    reference_decomposition,
    window_keys,
)

# the report keys whose values are written in the eigen-adapted basis: the
# witness combinations of `perfect`, the failure payloads, which name basis
# vectors, and the count of nonzero constraint rows of `h2`
BASIS_DEPENDENT = frozenset({"constraints", "failures", "witnesses"})


def basis_free(report):
    """The report without its basis-dependent keys, at every depth."""
    if isinstance(report, dict):
        return {k: basis_free(v) for k, v in report.items() if k not in BASIS_DEPENDENT}
    if isinstance(report, list):
        return [basis_free(v) for v in report]
    return report


def exp_ad(alg, x, sign):
    """v -> exp(sign ad x) v for a nilpotent ad x, summed until a term is 0."""

    def apply(v):
        out, term, k = list(v), list(v), 1
        while True:
            term = [c * sign / k for c in alg.bracket(x, term)]
            if not any(term):
                return out
            out = [a + b for a, b in zip(out, term)]
            k += 1

    return apply


def conjugated(spec: SessionSpec, session: Session) -> SessionSpec:
    """spec with each automorphism sigma replaced by tau sigma tau^-1 as a
    `matrix` spec, for tau = exp(ad e_1)."""
    alg = session.algebra
    tau, tau_inv = exp_ad(alg, alg.e(0), 1), exp_ad(alg, alg.e(0), -1)
    autos = []
    for sigma in session.sigmas:
        columns = [
            tau(sigma.apply(tau_inv(alg.basis_vector(j)))) for j in range(alg.dim)
        ]
        entries = [[str(col[i]) for col in columns] for i in range(alg.dim)]
        autos.append({"kind": "matrix", "order": sigma.order, "entries": entries})
    data = spec.to_dict()
    data["autos"] = autos
    return SessionSpec.from_dict(data)


def reports(session: Session) -> dict:
    """`check all` without `zrel`, which reads only the ring, `centre`, `h2`
    at degree 0 and `info`, at the session's window."""
    return {
        "check": [run_checks(session, name)[0] for name in CHECK_NAMES if name != "zrel"],
        "centre": session.ext.centre_window(session.spec.window),
        "h2": h2_report(session, (0,) * session.ring.n),
        "info": session.info(),
    }


def shipped_and_conjugate(name: str):
    spec = load_spec(str(SPECS_DIR / f"{name}.json"))
    spec = SessionSpec.from_dict({**spec.to_dict(), "window": 1})
    session = Session(spec)
    return session, Session(conjugated(spec, session))


def is_monomial(auto) -> bool:
    return all(sum(1 for x in col if x) == 1 for col in auto.columns)


@pytest.mark.parametrize("name", SHIPPED_SPECS)
def test_a_conjugated_twist_gives_the_same_reports(name):
    session, conjugate = shipped_and_conjugate(name)
    alg = session.algebra
    identity = tuple(tuple(alg.basis_vector(j)) for j in range(alg.dim))
    if all(sigma.columns == identity for sigma in session.sigmas):
        assert all(sigma.columns == identity for sigma in conjugate.sigmas)
    else:
        assert not all(is_monomial(sigma) for sigma in conjugate.sigmas)
    expected, got = reports(session), reports(conjugate)
    assert all(rep["passed"] for rep in got["check"])
    assert basis_free(got) == basis_free(expected)


def test_sandr_and_decomposition_match_their_references_on_a_dense_conjugate():
    _, conjugate = shipped_and_conjugate("d4_triality")
    assert not all(is_monomial(sigma) for sigma in conjugate.sigmas)
    ext = conjugate.ext
    assert ext.base_ring_pairs(1) == reference_base_ring_pairs(ext, 1)
    assert ext.decomposition(1) == reference_decomposition(ext, 1)


@pytest.mark.parametrize("name", SHIPPED_SPECS)
def test_fixed_spaces_from_the_generators_equal_the_all_elements_reference(name):
    # `component_direct` stacks the rows of the generators of G only; the
    # reference stacks every element, and the conjugates' columns are dense
    session, conjugate = shipped_and_conjugate(name)
    for tw in (session.twisted, conjugate.twisted):
        for degree in box_degrees(tw.ring.n, 2):  # the window-2 box holds the window-1 box
            assert tw.component_direct(degree) == reference_component_direct(tw, degree)


def asymmetric_killing_entry(session, monkeypatch):
    """kappa_ab + 1 on one key whose residues sum to 0, in that order only."""
    tw = session.twisted
    keys = window_keys(tw, 1)
    for key in keys:
        tw.pair_at(key)
    opposite = [
        key for key in keys
        if key[0] != (0,) and tw.residue((key[0][0] + key[2][0],)) == (0,)
    ]
    key = random.Random(0).choice(opposite)
    tw._pair_kappas[key] = tw._pair_kappas[key] + 1


def doubled_structure_constant(session, monkeypatch):
    """[e1, f1] = 2 h1 in that order only."""
    alg = session.algebra
    e, f, h = (alg.labels.index(x) for x in ("x[1, 0, 0, 0]", "x[-1, 0, 0, 0]", "h1"))
    monkeypatch.setitem(alg._rows[e], f, ((h, alg.field.scalar(2)),))


def unreduced_pivot(session, monkeypatch):
    """Reduction leaves the pivot slot of a degree in place."""
    reduce = kaehler._reduce_vector

    def keep_pivot(ring, degree, vec):
        out = list(reduce(ring, degree, vec))
        p = kaehler.pivot_index(degree)
        if p is not None:
            out[p] = vec[p]
        return out

    monkeypatch.setattr(kaehler, "_reduce_vector", keep_pivot)


def suite_outcomes(session) -> dict:
    """Each suite of `check all` but `zrel`: pass, fail, or the message it raised."""
    out = {}
    for name in CHECK_NAMES:
        if name != "zrel":
            try:
                out[name] = run_checks(session, name)[0]["status"]
            except StructureError as exc:
                out[name] = str(exc)
    return out


@pytest.mark.parametrize(
    "corrupt", [asymmetric_killing_entry, doubled_structure_constant, unreduced_pivot]
)
def test_a_seeded_corruption_is_caught_on_the_triality_conjugate_as_on_the_shipped_spec(
    corrupt, monkeypatch
):
    # each session is corrupted before its first suite, so its memos hold
    # only corrupted reads; the algebra is shared, so both are built first
    outcomes = []
    for session in shipped_and_conjugate("d4_triality"):
        with monkeypatch.context() as patch:
            corrupt(session, patch)
            outcomes.append(suite_outcomes(session))
    shipped, conjugate = outcomes
    assert conjugate == shipped
    assert any(status != "pass" for status in shipped.values())
