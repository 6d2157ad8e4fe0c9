"""Byte-for-byte snapshots of the CLI's JSON output on the shipped specs.

Each file under `tests/golden/` is the verbatim stdout of one command, e.g.
`python -m multiloop check all --spec specs/d4_triality.json` is stored as
`d4_triality.check-all.json`.  The `-w3` files rerun `check all` and `centre`
one window above the spec's, where degree sums leave the window.
`a2_bitwist` and `d4_bitwist` twist both loop variables (a diagram
automorphism and the height parity), so their characters act in two
directions; their snapshots are listed one by one in `BITWIST`.  A refactor
of the arithmetic or the suites must reproduce every report exactly.
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


# snapshot file -> argv for the two-direction specs
BITWIST = {
    "info": ["info"],
    "check-all": ["check", "all"],
    "centre": ["centre"],
    "h2": ["h2", "--lambda", "0,0"],
    "h2-1-0": ["h2", "--lambda", "1,0"],
    "check-all-w2": ["check", "all", "--window", "2"],
}
# `d4_bitwist` is recorded at its own window only
D4_BITWIST = [name for name in BITWIST if name != "check-all-w2"]


def _argv(spec, name):
    argv = COMMANDS[name] + ([SPECS[spec]] if name == "h2" else [])
    return argv + ["--spec", str(ROOT / "specs" / f"{spec}.json")]


def _session(spec):
    return Session(load_spec(str(ROOT / "specs" / f"{spec}.json")))


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


def _assert_bitwist_snapshot(capsys, spec, name):
    code = cli.main(BITWIST[name] + ["--spec", str(ROOT / "specs" / f"{spec}.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{spec}.{name}.json").read_text()


@pytest.mark.parametrize("name", list(BITWIST))
def test_bitwist_output_matches_snapshot(capsys, name):
    _assert_bitwist_snapshot(capsys, "a2_bitwist", name)


@pytest.mark.parametrize("name", D4_BITWIST)
def test_d4_bitwist_output_matches_snapshot(capsys, name):
    _assert_bitwist_snapshot(capsys, "d4_bitwist", name)


@pytest.fixture(scope="module")
def bitwist():
    return _session("a2_bitwist")


@pytest.fixture(scope="module")
def d4_bitwist():
    return _session("d4_bitwist")


def _assert_centre_is_the_base_lattice_classes(session, window):
    # the centre is Omega_R/dR: n classes at degree 0, n - 1 at every other
    # degree in the base lattice m_1 Z x m_2 Z, none off it
    n, orders = session.ring.n, session.ring.orders
    rep = session.ext.centre_window(window)
    assert rep["passed"]
    for key, info in rep["per_degree"].items():
        degree = [int(a) for a in key.strip("[]").split(",")]
        if any(a % m for a, m in zip(degree, orders)):
            expected = 0
        else:
            expected = n if not any(degree) else n - 1
        assert info["centre_dim"] == expected, key


@pytest.mark.parametrize("window", [1, 2])
def test_bitwist_centre_is_the_base_lattice_classes(bitwist, window):
    _assert_centre_is_the_base_lattice_classes(bitwist, window)


def test_d4_bitwist_centre_is_the_base_lattice_classes(d4_bitwist):
    # orders (3, 2): at window 1 only degree 0 lies in the base lattice
    _assert_centre_is_the_base_lattice_classes(d4_bitwist, 1)


def test_a1_untwisted_n2_centre_is_the_base_lattice_classes_at_window_8():
    # orders (1, 1): every degree lies in the base lattice, one class at each
    # but degree 0, which has two
    _assert_centre_is_the_base_lattice_classes(_session("a1_untwisted_n2"), 8)


def test_bitwist_h2_sandwich_certifies_n_at_zero(bitwist):
    # the universal extension's centre at degree 0 has dimension n = 2, and the
    # window-1 sandwich already closes there
    rep = h2_report(bitwist, (0, 0))
    assert rep["certified"] and rep["h2_dim"] == rep["lower_bound"] == bitwist.ring.n == 2


@pytest.mark.parametrize("lam", [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)])
def test_d4_bitwist_h2_sandwich_certifies_the_centre_dimension(d4_bitwist, lam):
    # the centre at degree lam is (Omega_R/dR)_lam: n = 2 classes at 0, none at
    # the other degrees of the |lam| <= 1 box, which are off the base lattice
    # 3Z x 2Z; the window-1 sandwich closes at each of them
    expected = d4_bitwist.ring.n if not any(lam) else 0
    rep = h2_report(d4_bitwist, lam)
    assert rep["certified"] and rep["h2_dim"] == rep["lower_bound"] == expected
