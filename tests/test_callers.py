"""Code with no caller is deleted: every function of galela is referenced.

The guard parses each module of ``src/galela`` for its functions and
methods, nested ones included and dunder methods aside.  Each must be
referenced outside its own ``def`` somewhere in ``src/``, ``tests/``,
``demos/`` or ``perfbench/``: as a name, an attribute or an import, or as a
string literal that is the name or a dotted path ending in it, the way
``monkeypatch.setattr`` and the perfbench tracer name what they replace.
Prose, docstrings included, is no reference.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                  for path in (ROOT / folder).rglob("*.py"))
MODULES = sorted((ROOT / "src" / "galela").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def references(path):
    """(name, line) for each name, attribute and import in path, f-strings
    included, and for each name a string literal spells."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(alias.name.rsplit(".", 1)[-1], node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            out.append((node.value.rsplit(".", 1)[-1], node.lineno))
    return out


REFERENCES = {path: references(path) for path in SEARCHED}


def functions(path):
    """(name, first line, last line) of every def in path, dunders aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_function_has_a_reference(path):
    unreferenced = []
    for name, first, last in functions(path):
        if not any(ref == name and not (where == path and first <= line <= last)
                   for where, refs in REFERENCES.items() for ref, line in refs):
            unreferenced.append(f"{name} (line {first})")
    assert unreferenced == [], f"{path.name}: no reference to {', '.join(unreferenced)}"


def test_the_guard_sees_a_function_without_a_caller(tmp_path):
    # a self-recursive function referenced only in its own def and in prose
    path = tmp_path / "module.py"
    path.write_text('"""unused_helper is documented here."""\n\n\n'
                    "def unused_helper(n):\n    return unused_helper(n - 1) if n else 0\n\n\n"
                    "def used():\n    return 1\n\n\nVALUE = used()\n")
    refs = references(path)
    (name, first, last), used = functions(path)
    assert name == "unused_helper" and used[0] == "used"
    assert [line for ref, line in refs if ref == name and not first <= line <= last] == []
    assert [line for ref, line in refs if ref == "used" and not used[1] <= line <= used[2]] == [12]
