"""Byte-for-byte snapshots of the CLI's JSON output on the shipped specs.

Each file under `tests/golden/` is the verbatim stdout of one command, e.g.
`python -m multiloop check all --spec specs/d4_triality.json` is stored as
`d4_triality.check-all.json`.  The `-w3` files rerun `check all` and `centre`
one window above the spec's, where degree sums leave the window.  A refactor
of the arithmetic or the suites must reproduce every report exactly.
"""

from pathlib import Path

import pytest

from multiloop import cli

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
