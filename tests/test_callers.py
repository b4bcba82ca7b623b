"""Code with no caller is deleted: every function and constant of galela is referenced.

The guard parses each module of ``src/galela`` for its functions and
methods, nested ones included and dunder methods aside, and for the
UPPER_CASE names it assigns at module level.  Each must be referenced
outside its own ``def`` or assignment somewhere in ``src/``, ``tests/``,
``demos/`` or ``perfbench/``: as a name, an attribute or an import, or as a
string literal that is the name or a dotted path ending in it, the way
``monkeypatch.setattr`` and the perfbench tracer name what they replace.
Prose, docstrings included, is no reference.  A constant's name is
checked with its module: ``elation.LEMMA1_CAP``, or a bare ``LEMMA1_CAP``
inside ``elation``, refers to elation's and to no other module's of that
name.
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
    """(name, line, owner) for each name, attribute and import in path,
    f-strings included, and for each name a string literal spells; owner is
    the name an attribute is read from, a from-import's module or a dotted
    string's next-to-last part, else None."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, None))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            out.append((node.attr, node.lineno, owner))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            owner = getattr(node, "module", None) and node.module.rsplit(".", 1)[-1]
            out += [(alias.name.rsplit(".", 1)[-1], node.lineno, owner) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            *owner, name = node.value.split(".")
            out.append((name, node.lineno, owner[-1] if owner else None))
    return out


REFERENCES = {path: references(path) for path in SEARCHED}


def functions(path):
    """(name, first line, last line) of every def in path, dunders aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def constants(path):
    """(name, first line, last line) of every UPPER_CASE name path assigns at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(target.id, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id.isupper()]


def unreferenced(path, definitions, searched=REFERENCES, assigned=None):
    """The definitions, from functions or constants, with no reference
    outside their own lines.  With assigned, each module's constant names by
    module name, a reference read through another module that assigns the
    name, or a bare one inside it, is that module's own."""
    def elsewhere(name, where, owner):
        if assigned is None or where == path:
            return True
        if owner is not None:
            return owner == path.stem or name not in assigned.get(owner, ())
        return where.parent != path.parent or name not in assigned.get(where.stem, ())

    return [f"{name} (line {first})" for name, first, last in definitions
            if not any(ref == name and not (where == path and first <= line <= last)
                       and elsewhere(name, where, owner)
                       for where, refs in searched.items() for ref, line, owner in refs)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_function_has_a_reference(path):
    missing = unreferenced(path, functions(path))
    assert missing == [], f"{path.name}: no reference to {', '.join(missing)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_constant_has_a_reference(path):
    missing = unreferenced(path, constants(path), assigned={
        module.stem: {name for name, _, _ in constants(module)} for module in MODULES})
    assert missing == [], f"{path.name}: no reference to {', '.join(missing)}"


def test_the_guard_sees_a_function_without_a_caller(tmp_path):
    # a self-recursive function referenced only in its own def and in prose
    path = tmp_path / "module.py"
    path.write_text('"""unused_helper is documented here."""\n\n\n'
                    "def unused_helper(n):\n    return unused_helper(n - 1) if n else 0\n\n\n"
                    "def used():\n    return 1\n\n\nVALUE = used()\n")
    refs = [(ref, line) for ref, line, _ in references(path)]
    (name, first, last), used = functions(path)
    assert name == "unused_helper" and used[0] == "used"
    assert [line for ref, line in refs if ref == name and not first <= line <= last] == []
    assert [line for ref, line in refs if ref == "used" and not used[1] <= line <= used[2]] == [12]


def test_the_guard_sees_a_constant_without_a_reference(tmp_path):
    # a cap left behind in one module when its reader moved to another that
    # assigns the same name: neither prose, nor the other module's own
    # reads, nor a read through that module refers to the stale one
    old, new, user = (tmp_path / f"{stem}.py" for stem in ("old", "new", "user"))
    old.write_text('"""CAP bounds nothing any more."""\n\nCAP = 10**6  # CAP\n'
                   "LIMIT: int = 3\n_private, lower = 1, 2\n\n\n"
                   "def limit():\n    return LIMIT\n")
    new.write_text("CAP = 10**6\n\n\ndef bound(cap=None):\n    return CAP if cap is None else cap\n")
    user.write_text("import new\n\nprint(new.CAP)\n")
    searched = {path: references(path) for path in (old, new, user)}
    assigned = {path.stem: {name for name, _, _ in constants(path)} for path in (old, new, user)}
    assert constants(old) == [("CAP", 3, 3), ("LIMIT", 4, 4)]
    assert unreferenced(old, constants(old), searched, assigned) == ["CAP (line 3)"]
    assert unreferenced(new, constants(new), searched, assigned) == []
    # matched by name alone, new's reads would keep old's CAP alive
    assert unreferenced(old, constants(old), searched) == []
