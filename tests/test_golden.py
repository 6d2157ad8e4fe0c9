"""Byte-for-byte snapshots of the CLI's JSON output on the shipped specs.

Each file under `tests/golden/` is the verbatim stdout of one command, e.g.
`python -m multiloop check all --spec specs/d4_triality.json` is stored as
`d4_triality.check-all.json`.  The `-w3` files rerun `check all` and `centre`
one window above the spec's, where degree sums leave the window.
`a2_bitwist` twists both loop variables (the diagram involution and the
height parity), so its characters act in two directions; its snapshots are
listed one by one in `BITWIST`.  A refactor of the arithmetic or the suites
must reproduce every report exactly.
"""

from pathlib import Path

import pytest

from multiloop import cli
from multiloop.checks import h2_report
from multiloop.session import Session, load_spec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# spec -> lambda = 0 in the spec's own loop variables, for `h2`
SPECS = {"a1_untwisted_n1": "0", "a1_untwisted_n2": "0,0", "a2_twisted": "0", "d4_triality": "0"}
COMMANDS = {
    "info": ["info"],
    "check-all": ["check", "all"],
    "centre": ["centre"],
    "dump-sc": ["dump-sc"],
    "h2": ["h2", "--lambda"],
}
# (spec, command) pairs also recorded at `--window 3`
WINDOW_3 = [
    (spec, name) for spec in ("a1_untwisted_n1", "a2_twisted") for name in ("check-all", "centre")
]


# snapshot file -> argv for the two-direction spec
BITWIST = {
    "info": ["info"],
    "check-all": ["check", "all"],
    "centre": ["centre"],
    "h2": ["h2", "--lambda", "0,0"],
    "h2-1-0": ["h2", "--lambda", "1,0"],
    "check-all-w2": ["check", "all", "--window", "2"],
}


def _argv(spec, name):
    argv = COMMANDS[name] + ([SPECS[spec]] if name == "h2" else [])
    return argv + ["--spec", str(ROOT / "specs" / f"{spec}.json")]


@pytest.mark.parametrize("name", list(COMMANDS))
@pytest.mark.parametrize("spec", SPECS)
def test_cli_output_matches_snapshot(capsys, spec, name):
    code = cli.main(_argv(spec, name))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{spec}.{name}.json").read_text()


@pytest.mark.parametrize("spec, name", WINDOW_3)
def test_cli_output_one_window_up_matches_snapshot(capsys, spec, name):
    code = cli.main(_argv(spec, name) + ["--window", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{spec}.{name}-w3.json").read_text()


@pytest.mark.parametrize("name", list(BITWIST))
def test_bitwist_output_matches_snapshot(capsys, name):
    code = cli.main(BITWIST[name] + ["--spec", str(ROOT / "specs" / "a2_bitwist.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"a2_bitwist.{name}.json").read_text()


@pytest.fixture(scope="module")
def bitwist():
    return Session(load_spec(str(ROOT / "specs" / "a2_bitwist.json")))


@pytest.mark.parametrize("window", [1, 2])
def test_bitwist_centre_is_the_base_lattice_classes(bitwist, window):
    # the centre is Omega_R/dR: n classes at degree 0, n - 1 at every other
    # degree in the base lattice 2Z x 2Z, none off it
    n = bitwist.ring.n
    rep = bitwist.ext.centre_window(window)
    assert rep["passed"]
    for key, info in rep["per_degree"].items():
        degree = [int(a) for a in key.strip("[]").split(",")]
        if any(a % 2 for a in degree):
            expected = 0
        else:
            expected = n if not any(degree) else n - 1
        assert info["centre_dim"] == expected, key


def test_bitwist_h2_sandwich_certifies_n_at_zero(bitwist):
    # the universal extension's centre at degree 0 has dimension n = 2, and the
    # window-1 sandwich already closes there
    rep = h2_report(bitwist, (0, 0))
    assert rep["certified"] and rep["h2_dim"] == rep["lower_bound"] == bitwist.ring.n == 2
