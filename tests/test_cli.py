import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from multiloop import cli

from tests.conftest import matrix_records

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_a2(capsys):
    code, out, err = run_cli(capsys, "info", "--spec", str(SPECS / "a2_twisted.json"))
    assert code == 0 and not err
    data = json.loads(out)
    assert data["dim_g"] == 8
    assert data["eigendims"] == {"0": 3, "1": 5}
    assert data["g0_central_simple"] is True


def test_info_untwisted(capsys):
    code, out, _ = run_cli(capsys, "info", "--spec", str(SPECS / "a1_untwisted_n1.json"))
    assert code == 0
    data = json.loads(out)
    assert data["dim_g"] == 3 and data["eigendims"] == {"0": 3}


def test_info_d4(capsys):
    code, out, _ = run_cli(capsys, "info", "--spec", str(SPECS / "d4_triality.json"))
    assert code == 0
    data = json.loads(out)
    assert data["eigendims"] == {"0": 14, "1": 7, "2": 7}
    assert data["g0_central_simple"] is True


def test_check_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "check", "centre", "--spec", str(SPECS / "a2_twisted.json")
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    (report,) = data["reports"]
    assert report["check"] == "centre"
    assert report["centre_dim"] == 1 and report["expected"] == 1


def test_check_zrel_seeded(capsys):
    code, out, _ = run_cli(
        capsys, "check", "zrel", "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["seed"] == 0
    assert data["reports"][0]["count"] == 1000


def test_check_unknown_name(capsys):
    code, _, err = run_cli(
        capsys, "check", "nonsense", "--spec", str(SPECS / "a2_twisted.json")
    )
    assert code == 2


def test_exit_codes_and_headers(capsys):
    code, out, _ = run_cli(
        capsys, "h2", "--lambda", "0", "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True and data["h2_dim"] == 1
    assert data["window"] == 2 and data["seed"] == 0  # defaults echoed


def test_h2_nontrivial_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "h2", "--lambda", "1", "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 0
    data = json.loads(out)
    assert data["h2_dim"] == 0 and data["lower_bound"] == 0 and data["certified"]


def test_h2_lambda_outside_window(capsys):
    code, _, err = run_cli(
        capsys, "h2", "--lambda", "7", "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 2 and "window" in err


def test_h2_wrong_arity(capsys):
    code, _, err = run_cli(
        capsys, "h2", "--lambda", "0,0", "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 2


def test_spec_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "algebra": {"family": "A", "rank": 2},
                "autos": [{"kind": "diagram", "perm": [1, 1]}],
                "orders": [2],
            }
        )
    )
    code, _, err = run_cli(capsys, "info", "--spec", str(bad))
    assert code == 2 and "error:" in err


_IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "algebra, auto",
    [
        ({"family": "A", "rank": 1},
         {"kind": "matrix", "entries": [["1/0", 0, 0]] + _IDENTITY_3[1:], "order": 1}),
        ({"family": "A", "rank": 1},
         {"kind": "matrix", "entries": [[0.5, 0, 0]] + _IDENTITY_3[1:], "order": 1}),
        ({"family": "A", "rank": 2}, {"kind": "diagram", "perm": ["a", "b"]}),
        ({"family": "A", "rank": 2}, {"kind": "diagram", "perm": "10"}),
        ({"family": "A", "rank": 2}, {"kind": "diagram", "perm": [1.5, 0]}),
        ({"family": "A", "rank": 1}, {"kind": "matrix", "entries": _IDENTITY_3, "order": 1.9}),
        ({"family": "A", "rank": 1}, {"kind": "matrix", "entries": ["100", "010", "001"], "order": 1}),
        ({"family": "A", "rank": 1}, {"kind": "matrix", "entries": "abc", "order": 1}),
        ({"family": "A", "rank": 1},
         {"kind": "matrix", "entries": [[True, 0, 0]] + _IDENTITY_3[1:], "order": 1}),
    ],
    ids=[
        "zero-denominator", "float-entry", "non-integer-perm", "string-perm",
        "fractional-perm-entry", "fractional-order", "string-rows", "string-entries",
        "boolean-entry",
    ],
)
def test_malformed_automorphism_entries_exit_2(tmp_path, capsys, algebra, auto):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": algebra, "autos": [auto], "orders": [1]}))
    code, out, err = run_cli(capsys, "info", "--spec", str(bad))
    assert code == 2 and not out
    assert err.startswith("error: invalid automorphism spec")


@pytest.mark.parametrize(
    "key, value",
    [
        ("window", "x"),
        ("window", True),
        ("seed", "1.5"),
        ("window", 1.5),
        ("orders", "11"),
        pytest.param("autos", {"kind": "identity"}, id="autos-object"),
        pytest.param("algebra", {"family": "A", "rank": 2.7}, id="rank-2.7"),
    ],
)
def test_malformed_integer_fields_exit_2(tmp_path, capsys, key, value):
    data = json.loads((SPECS / "a1_untwisted_n1.json").read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "info", "--spec", str(bad))
    assert code == 2 and not out and "malformed session spec" in err


def test_missing_spec_file(capsys):
    code, _, err = run_cli(capsys, "info", "--spec", "/nonexistent.json")
    assert code == 2


def test_malformed_json_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "info", "--spec", str(bad))
    assert code == 2


def test_conductor_over_the_limit_exits_2(tmp_path, capsys):
    from multiloop.session import MAX_CONDUCTOR

    bad = tmp_path / "big.json"
    bad.write_text(
        json.dumps(
            {
                "algebra": {"family": "A", "rank": 1},
                "autos": [{"kind": "identity"}],
                "orders": [4099],
            }
        )
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", "zrel", "--spec", str(bad))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and not out
    assert f"MAX_CONDUCTOR = {MAX_CONDUCTOR}" in err and "Traceback" not in err


def test_rank_over_the_dimension_limit_exits_2_at_once(tmp_path, capsys):
    from multiloop.session import MAX_DIM

    bad = tmp_path / "big.json"
    bad.write_text(
        json.dumps(
            {
                "algebra": {"family": "A", "rank": 10**9},
                "autos": [{"kind": "identity"}],
                "orders": [1],
            }
        )
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "info", "--spec", str(bad))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and not out
    assert f"MAX_DIM = {MAX_DIM}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "jacobi", "--window", str(10**9)],
        ["check", "perfect", "--margin", str(10**9)],
        ["h2", "--lambda", "0", "--window", str(10**9)],
        ["centre", "--generator-window", str(10**9)],
    ],
)
def test_window_over_the_basis_limit_exits_2_at_once(capsys, argv):
    from multiloop.session import MAX_WINDOW_BASIS

    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--spec", str(SPECS / "a1_untwisted_n1.json"))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and not out
    assert err.startswith("error:") and f"MAX_WINDOW_BASIS = {MAX_WINDOW_BASIS}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "override, line",
    [
        (["--window", "0"], "error: window must be >= 1, got 0\n"),
        (["--margin", "-1"], "error: margin must be >= 0, got -1\n"),
    ],
)
def test_override_out_of_range_exits_2(capsys, override, line):
    code, out, err = run_cli(
        capsys, "check", "jacobi", *override, "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 2 and not out and err == line


def test_matrix_order_over_the_limit_exits_2_at_once(tmp_path, capsys):
    # exp(ad e) on A1 preserves the bracket and has infinite order: the order
    # check would make one composition per unit of the declared order, so the
    # spec is never run without the limit
    from multiloop.session import MAX_CONDUCTOR

    bad = tmp_path / "order.json"
    bad.write_text(
        json.dumps(
            {
                "algebra": {"family": "A", "rank": 1},
                "autos": [
                    {
                        "kind": "matrix",
                        "entries": [[1, -1, -2], [0, 1, 0], [0, 1, 1]],
                        "order": 10**9,
                    }
                ],
                "orders": [1],
            }
        )
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "info", "--spec", str(bad))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and not out
    assert f"MAX_CONDUCTOR = {MAX_CONDUCTOR}" in err and "Traceback" not in err


def test_non_commuting_autos_exit_2(tmp_path, capsys):
    from multiloop.cyclotomic import CyclotomicField
    from multiloop.liealg import build_algebra, diagram_automorphism

    alg = build_algebra("A", 2, CyclotomicField(2))
    sigma = diagram_automorphism(alg, [1, 0])
    tau_entries = [
        [
            ("-1" if (i == j and alg.root_of_index[i] is not None and alg.root_of_index[i][0] % 2)
             else ("1" if i == j else "0"))
            for j in range(alg.dim)
        ]
        for i in range(alg.dim)
    ]
    spec = tmp_path / "noncommuting.json"
    spec.write_text(
        json.dumps(
            {
                "algebra": {"family": "A", "rank": 2},
                "autos": [
                    {"kind": "matrix", "entries": matrix_records(sigma), "order": 2},
                    {"kind": "matrix", "entries": tau_entries, "order": 2},
                ],
                "orders": [2, 2],
            }
        )
    )
    code, _, err = run_cli(capsys, "check", "all", "--spec", str(spec))
    assert code == 2 and "commute" in err


def test_check_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_checks", lambda session, which: [{"check": "stub", "passed": False}]
    )
    code, out, _ = run_cli(
        capsys, "check", "centre", "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_window_override(capsys):
    code, out, _ = run_cli(
        capsys,
        "centre",
        "--spec",
        str(SPECS / "a1_untwisted_n1.json"),
        "--window",
        "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["window"] == 1 and data["centre_dim"] == 1


def test_table_rendering(capsys):
    code, out, _ = run_cli(
        capsys,
        "info",
        "--spec",
        str(SPECS / "a2_twisted.json"),
        "--table",
    )
    assert code == 0
    assert "dim_g" in out and "8" in out
    assert "{" not in out.splitlines()[0]


def test_dump_structure_constants(capsys):
    code, out, _ = run_cli(capsys, "dump-sc", "--spec", str(SPECS / "a1_untwisted_n1.json"))
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3
    records = {(r["i"], r["j"], r["k"]): r["c"] for r in data["structure"]}
    # [e, f] = h and antisymmetry in the records
    assert records[(0, 1, 2)] == "1" and records[(1, 0, 2)] == "-1"


def test_determinism(capsys):
    args = ["check", "cocycle", "--spec", str(SPECS / "a2_twisted.json")]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_usage_error(capsys):
    code = cli.main(["frobnicate"])
    assert code == 2


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "multiloop", "info", "--spec", str(SPECS / "a1_untwisted_n1.json")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dim_g"] == 3


def test_structure_error_in_a_command_exits_1(capsys, monkeypatch):
    from multiloop import checks
    from multiloop.errors import StructureError

    def failing(session):
        raise StructureError("constraint rows are inconsistent")

    monkeypatch.setitem(checks._CHECKS, "jacobi", failing)
    code, out, err = run_cli(
        capsys, "check", "jacobi", "--spec", str(SPECS / "a1_untwisted_n1.json")
    )
    assert code == 1 and not out
    assert err == "error: constraint rows are inconsistent\n"
