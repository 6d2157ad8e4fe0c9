import contextlib
import dataclasses
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiloop import cli
from multiloop.cyclotomic import CyclotomicField
from multiloop.errors import SpecError
from multiloop.liealg import build_algebra, diagram_automorphism
from multiloop.rootsystem import root_system
from multiloop.session import (
    MAX_CONDUCTOR,
    MAX_DIM,
    MAX_WINDOW_BASIS,
    Session,
    SessionSpec,
    load_spec,
)

from tests.conftest import make_session, matrix_records


def test_positive_root_counts():
    expected = {("A", 3): 6, ("B", 2): 4, ("C", 3): 9, ("D", 4): 12, ("G", 2): 6}
    for (family, rank), count in expected.items():
        assert len(root_system(family, rank).positive_roots) == count


def test_spec_round_trip():
    spec = SessionSpec.from_dict(
        {
            "algebra": {"family": "a", "rank": 2},
            "autos": [{"kind": "diagram", "perm": [1, 0]}],
            "orders": [2],
        }
    )
    assert spec.family == "A"
    assert spec.window == 2 and spec.margin == 1 and spec.seed == 0
    again = SessionSpec.from_dict(spec.to_dict())
    assert again == spec


@pytest.mark.parametrize(
    "data",
    [
        {"algebra": {"family": "A"}, "autos": [], "orders": []},
        {"algebra": {"family": "Z", "rank": 1}, "autos": [{"kind": "identity"}], "orders": [1]},
        {"algebra": {"family": "A", "rank": 1}, "autos": [], "orders": [1]},
        {"algebra": {"family": "A", "rank": 1}, "autos": [{"kind": "identity"}], "orders": [0]},
        {"algebra": {"family": "A", "rank": 1}, "autos": [{"kind": "weird"}], "orders": [1]},
        {"algebra": {"family": "A", "rank": 1}, "autos": [{"kind": "matrix"}], "orders": [1]},
        {
            "algebra": {"family": "A", "rank": 1},
            "autos": [{"kind": "identity"}],
            "orders": [1],
            "window": 0,
        },
        *[
            {
                "algebra": {"family": "A", "rank": 1},
                "autos": [{"kind": "identity"}],
                "orders": [1],
                key: value,
            }
            for key, value in [
                ("window", "x"), ("window", True), ("margin", "y"), ("margin", False),
                ("seed", None), ("seed", True),
            ]
        ],
        {"algebra": {"family": "A", "rank": True}, "autos": [{"kind": "identity"}], "orders": [1]},
        {"algebra": {"family": "A", "rank": 1}, "autos": [{"kind": "identity"}], "orders": [True]},
        # a substring of "ABCDEFG" is not a family
        *[
            {"algebra": {"family": f, "rank": 1}, "autos": [{"kind": "identity"}], "orders": [1]}
            for f in ("", "AB", "ABC")
        ],
        # a JSON string is not an integer, even when it spells one
        {
            "algebra": {"family": "A", "rank": 1},
            "autos": [{"kind": "identity"}],
            "orders": [1],
            "window": "2",
        },
        {"algebra": {"family": "A", "rank": "1"}, "autos": [{"kind": "identity"}], "orders": [1]},
        {"algebra": {"family": "A", "rank": 1}, "autos": [{"kind": "identity"}], "orders": ["1"]},
    ],
)
def test_invalid_specs(data):
    with pytest.raises(SpecError):
        SessionSpec.from_dict(data)


def test_matrix_automorphism_spec():
    # serialize the diagram involution as an explicit matrix and rebuild
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    entries = matrix_records(sigma)
    session = make_session(
        "A", 2, [{"kind": "matrix", "entries": entries, "order": 2}], [2], window=1
    )
    assert session.twisted.eigen.dims() == {(0,): 3, (1,): 5}


def test_matrix_spec_rejects_non_automorphism():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    entries = [list(row) for row in matrix_records(sigma)]
    entries[0][0] = "7"  # corrupt one entry
    with pytest.raises(SpecError):
        make_session("A", 2, [{"kind": "matrix", "entries": entries, "order": 2}], [2])


def test_matrix_spec_wrong_shape():
    with pytest.raises(SpecError):
        make_session("A", 2, [{"kind": "matrix", "entries": [["1"]], "order": 1}], [1])


def test_non_commuting_matrix_specs_rejected():
    field = CyclotomicField(2)
    alg = build_algebra("A", 2, field)
    sigma = diagram_automorphism(alg, [1, 0])
    tau_entries = [
        [
            ("-1" if (i == j and alg.root_of_index[i] is not None and alg.root_of_index[i][0] % 2) else
             ("1" if i == j else "0"))
            for j in range(alg.dim)
        ]
        for i in range(alg.dim)
    ]
    with pytest.raises(SpecError) as err:
        make_session(
            "A",
            2,
            [
                {"kind": "matrix", "entries": matrix_records(sigma), "order": 2},
                {"kind": "matrix", "entries": tau_entries, "order": 2},
            ],
            [2, 2],
        )
    assert "commute" in str(err.value)


def test_load_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "algebra": {"family": "A", "rank": 1},
                "autos": [{"kind": "identity"}],
                "orders": [1],
                "window": 3,
            }
        )
    )
    spec = load_spec(str(path))
    assert spec.window == 3
    session = Session(spec)
    assert session.algebra.dim == 3
    assert session.field.conductor == 1


def test_info_payload(a2_twisted):
    info = a2_twisted.info()
    assert info["dim_g"] == 8
    assert info["eigendims"] == {"0": 3, "1": 5}
    assert info["g0_central_simple"] is True
    assert info["omega_r_dims"] == {"-2": 0, "0": 1, "2": 0}
    assert info["conductor"] == 2


@pytest.mark.parametrize("orders", [[4099], [7, 11, 13]])
def test_conductor_over_the_limit_is_refused(orders):
    # refused in validate, before any field is built: Q(zeta_4099) never
    # finishes its set-up, so the check is never run without the limit
    data = {
        "algebra": {"family": "A", "rank": 1},
        "autos": [{"kind": "identity"}] * len(orders),
        "orders": orders,
    }
    start = time.perf_counter()
    with pytest.raises(SpecError, match=f"MAX_CONDUCTOR = {MAX_CONDUCTOR}"):
        SessionSpec.from_dict(data)
    assert time.perf_counter() - start < 0.5


def test_conductor_is_lcm_of_orders():
    session = make_session(
        "A", 1, [{"kind": "identity"}, {"kind": "identity"}], [2, 3], window=1
    )
    assert session.field.conductor == 6
    assert session.ring.orders == (2, 3)


def _identity_spec(family, rank):
    return {
        "algebra": {"family": family, "rank": rank},
        "autos": [{"kind": "identity"}],
        "orders": [1],
    }


@pytest.mark.parametrize(
    "family, rank, dim", [("A", 15, 255), ("B", 11, 253), ("C", 11, 253), ("D", 12, 276)]
)
def test_dimension_over_the_limit_is_refused(family, rank, dim):
    # refused in validate, before any field or algebra is built
    with pytest.raises(SpecError, match=f"has dim {dim}, over MAX_DIM = {MAX_DIM}"):
        SessionSpec.from_dict(_identity_spec(family, rank))


@pytest.mark.parametrize("family, rank", [("A", 14), ("D", 11), ("E", 8)])
def test_dimension_at_most_the_limit_passes_validate(family, rank):
    start = time.perf_counter()
    spec = SessionSpec.from_dict(_identity_spec(family, rank))
    assert (spec.family, spec.rank) == (family, rank)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "change",
    [
        {"window": 10**9},
        {"margin": 10**9},
        {"autos": [{"kind": "identity"}] * 1000, "orders": [1] * 1000},
        {"algebra": {"family": "E", "rank": 8}, "window": 100},
        # large loop orders shrink the basis bound, not the degrees of the box
        {"autos": [{"kind": "identity"}] * 1000, "orders": [7] * 1000},
        {"orders": [60, 60], "autos": [{"kind": "identity"}] * 2, "window": 1000},
    ],
)
def test_window_box_over_the_limit_is_refused(change):
    # refused in validate, before any field or algebra is built: the suites
    # walk the (2w + 1)^n degrees of the box and pairs and triples of its basis
    data = {**_identity_spec("A", 1), **change}
    start = time.perf_counter()
    with pytest.raises(SpecError, match=f"MAX_WINDOW_BASIS = {MAX_WINDOW_BASIS}"):
        SessionSpec.from_dict(data)
    assert time.perf_counter() - start < 0.5


def test_spec_fields_cannot_be_assigned():
    spec = SessionSpec.from_dict(_identity_spec("A", 1))
    for field in dataclasses.fields(spec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, field.name, getattr(spec, field.name))


@pytest.mark.parametrize(
    "change", [{"window": 0}, {"margin": -1}, {"window": MAX_WINDOW_BASIS}]
)
def test_replace_refuses_as_from_dict_does(change):
    # an override validates again, with the refusal the same document gets
    data = _identity_spec("A", 1)
    with pytest.raises(SpecError) as from_document:
        SessionSpec.from_dict({**data, **change})
    with pytest.raises(SpecError) as replaced:
        dataclasses.replace(SessionSpec.from_dict(data), **change)
    assert str(replaced.value) == str(from_document.value)
    assert not str(from_document.value).startswith("malformed session spec")


SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"


@pytest.mark.parametrize(
    "spec, window, margin",
    [
        ("a2_bitwist", 24, 1),
        ("a1_untwisted_n2", 24, 1),
        ("d4_bitwist", 8, 1),
        ("d4_bitwist", 24, 1),
        ("d4_triality", 2, 1),
    ],
)
def test_window_box_admits_the_measured_windows(spec, window, margin):
    # the largest windows the verification tables and the H2 targets use
    data = json.loads((SPECS_DIR / f"{spec}.json").read_text())
    spec = SessionSpec.from_dict({**data, "window": window, "margin": margin})
    assert spec.window == window
    spec.check_window(window + margin + 2)  # centre may enlarge its generator window by 2


# arbitrary JSON values, including the ones a strict reader must refuse
_JSON_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.sampled_from([0, -1, 10**9, 10**100, 1.0, 2.5, math.nan, math.inf, -math.inf])
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

# the paths of every spec field, on a matrix spec that from_dict accepts
_FIELD_PATHS = [
    (), ("algebra",), ("algebra", "family"), ("algebra", "rank"), ("autos",), ("autos", 0),
    ("autos", 0, "kind"), ("autos", 0, "entries"), ("autos", 0, "order"), ("orders",),
    ("orders", 0), ("window",), ("margin",), ("seed",),
]


def _matrix_spec():
    identity = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    return {
        "algebra": {"family": "A", "rank": 1},
        "autos": [{"kind": "matrix", "entries": identity, "order": 1}],
        "orders": [1],
        "window": 1,
        "margin": 1,
        "seed": 0,
    }


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_FIELD_PATHS), value=_JSON_VALUE)
def test_spec_reader_returns_a_spec_or_a_spec_error(path, value):
    data = value
    if path:
        data = _matrix_spec()
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        SessionSpec.from_dict(data)
    except SpecError:
        pass
    else:
        return  # an accepted document is never run here
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["dump-sc", "--spec", str(spec_path)])
    assert code == 2 and not out.getvalue()
    assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()
