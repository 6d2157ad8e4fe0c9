"""Every function and class defined in `src/multiloop` is used by the program.

A name counts as used when a module under `src/`, `scripts/` or `bench/`
mentions it other than by defining it: a function or class defined at module
level as a name, an attribute, an imported name, or a string that is a dotted
name; a method only as an attribute or such a string, since a bare name (a
loop variable `e`, say) does not reach it.  An undotted string counts only in
`bench/tracer.py`, whose `SPAN_POINTS` name the attributes it rebinds that
way; elsewhere it is data, such as the spec kind "identity".  Tests do not
count: a helper that only tests call belongs in the tests.  Special methods,
which the interpreter calls, and the names `multiloop.__all__` exports are
exempt.
"""

import ast
import re
from pathlib import Path

import multiloop

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays although nothing in src/, scripts/ or bench/ uses it
ALLOWED = {
    "universal_map_check": "the entry point of the universality check, acceptance C12",
    "e": "the Chevalley generator x_(alpha_i) of `SplitSimpleLieAlgebra`, a partner of `h`",
    "f": "the Chevalley generator x_(-alpha_i) of `SplitSimpleLieAlgebra`, a partner of `h`",
    "h": "the Cartan generator h_i of `SplitSimpleLieAlgebra`, a partner of `e` and `f`",
}
# the one module whose undotted strings name attributes: it rebinds them by name
TRACER = ROOT / "bench" / "tracer.py"


def parsed(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def defined_names():
    """name -> (the file defining it, whether every definition is a method)."""
    out = {}
    for path, tree in parsed("src/multiloop"):
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not re.fullmatch(r"__\w+__", node.name):
                    where, method = out.get(node.name, (path.relative_to(ROOT), True))
                    out[node.name] = where, method and id(node) in methods
    return out


def referenced_names():
    """(names reached as attributes or dotted strings, names reached otherwise)."""
    attributes, bare = set(), set()
    for path, tree in parsed("src", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                bare.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)+", node.value) or (
                    path == TRACER and node.value.isidentifier()
                ):
                    attributes.update(node.value.split("."))
    return attributes, bare


def test_every_defined_name_is_used():
    defined = defined_names()
    attributes, bare = referenced_names()
    exempt = set(multiloop.__all__) | set(ALLOWED)
    unused = {
        name: str(path)
        for name, (path, method) in defined.items()
        if name not in exempt and name not in attributes and (method or name not in bare)
    }
    assert unused == {}
    # an allowlist entry that is gone, or that the program uses again, is stale
    assert set(ALLOWED) <= set(defined)
    for name in ALLOWED:
        assert name not in attributes | set(multiloop.__all__)
        assert defined[name][1] or name not in bare
