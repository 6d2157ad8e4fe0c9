"""Every function and class defined in `src/multiloop` is used by the program.

A name counts as used when a module under `src/`, `scripts/` or `bench/`
mentions it other than by defining it: as a name, an attribute, an imported
name, or a string that is a dotted name (`bench/tracer.py` names the points
it rebinds by such strings).  Tests do not count: a helper that only tests
call belongs in the tests.  Special methods, which the interpreter calls, and
the names `multiloop.__all__` exports are exempt.
"""

import ast
import re
from pathlib import Path

import multiloop

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays although nothing in src/, scripts/ or bench/ uses it
ALLOWED = {
    "universal_map_check": "the entry point of the universality check, acceptance C12",
}


def parsed(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def defined_names():
    out = {}
    for path, tree in parsed("src/multiloop"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not re.fullmatch(r"__\w+__", node.name):
                    out.setdefault(node.name, path.relative_to(ROOT))
    return out


def referenced_names():
    out = set()
    for _, tree in parsed("src", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                    out.update(node.value.split("."))
    return out


def test_every_defined_name_is_used():
    defined, referenced = defined_names(), referenced_names()
    used = referenced | set(multiloop.__all__) | set(ALLOWED)
    assert {name: str(path) for name, path in defined.items() if name not in used} == {}
    # an allowlist entry that is gone, or that the program uses again, is stale
    assert set(ALLOWED) <= set(defined)
    assert not set(ALLOWED) & (referenced | set(multiloop.__all__))
