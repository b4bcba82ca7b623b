"""The oracles stay independent of the fast tables, and the kernels stay independent of them.

Two rules on the source of ``src/galela``, checked on its syntax tree:

- ``galela.oracle`` reads none of the tables the kernels are built on: no
  name, attribute, import or string spelling ``log``, ``exp``, ``zech``,
  ``span_log_sets`` or ``rotate``;
- no other module of the package, ``__init__`` included, imports
  ``galela.oracle``, so no CLI process loads it.

A fresh ``import galela.cli``, under ``python`` and ``python -O``, shows the
second rule from the outside.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "galela"
ORACLE = PACKAGE / "oracle.py"
KERNELS = sorted(path for path in PACKAGE.glob("*.py") if path != ORACLE)
TABLES = {"log", "exp", "zech", "span_log_sets", "rotate"}


def table_reads(path):
    """(name, line) for each table name that path reads, imports or spells as a string."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        out += [(name, node.lineno) for name in names if name in TABLES]
    return sorted(out, key=lambda read: read[1])


def oracle_imports(path):
    """Lines of path that import galela.oracle, absolutely or relative to the package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            if package in (".", "galela"):
                modules = [f"galela.{alias.name}" for alias in node.names]
            else:
                modules = [package if node.level == 0 else f"galela.{package.lstrip('.')}"]
        else:
            continue
        out += [node.lineno for module in modules if module == "galela.oracle"]
    return out


def test_the_oracle_reads_no_table():
    assert table_reads(ORACLE) == []


@pytest.mark.parametrize("path", KERNELS, ids=lambda path: path.name)
def test_no_kernel_imports_the_oracle(path):
    assert oracle_imports(path) == [], f"{path.name} imports galela.oracle"


def test_the_guards_see_a_violation(tmp_path):
    reader = tmp_path / "oracle.py"
    reader.write_text("def first(tower):\n    return tower.exp[0]\n\n\n"
                      "def later(bits):\n    from .singer import rotate\n    return rotate(bits, 7)\n")
    assert table_reads(reader) == [("exp", 2), ("rotate", 6), ("rotate", 7)]
    importers = ["from . import combinat, oracle\n", "from .oracle import subfield_elements\n",
                 "import galela.oracle\n", "from galela import oracle\n",
                 "from galela.oracle import orbit_partition\n"]
    for i, source in enumerate(importers):
        kernel = tmp_path / f"kernel{i}.py"
        kernel.write_text("import itertools\n" + source)
        assert oracle_imports(kernel) == [2], source
    kernel = tmp_path / "clean.py"
    kernel.write_text("from . import combinat\nfrom .gf import make_field\nimport oracle\n")
    assert oracle_imports(kernel) == []


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_cli_process_never_loads_the_oracle(flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, galela.cli; print(*(m for m in sys.modules if m.startswith('galela')))"
    r = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                       env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = r.stdout.split()
    assert "galela.cli" in loaded and "galela.oracle" not in loaded
