"""The library's checks are explicit code, so they survive ``python -O``.

A bare ``assert`` is stripped under -O; the modules below carry their
checks as ``VerificationError`` raises instead.  The guard parses them for
assert statements, and two checks are forced to fail in an optimized
interpreter to show they still run there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# gf.py and bruckbose.py still hold asserts and are not guarded yet
GUARDED = ("singer.py", "elation.py", "pspace.py", "selftest.py", "cli.py")


@pytest.mark.parametrize("name", GUARDED)
def test_module_has_no_assert(name):
    path = SRC / "galela" / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} has assert statements on lines {lines}"


def run_optimized(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                       env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


PREAMBLE = """
import sys
from galela import VerificationError, elation, pspace, singer
"""

REPORT = """
try:
    {call}
except VerificationError:
    print(sys.flags.optimize, "raised")
else:
    print(sys.flags.optimize, "passed")
"""


def test_census_cover_check_survives_optimize():
    code = PREAMBLE + "pspace.is_cover = lambda members, k: False\n" + \
        REPORT.format(call="singer.orbit_census(4, 2, 2)")
    assert run_optimized(code) == ["1", "raised"]


def test_class_profile_check_survives_optimize():
    code = PREAMBLE + """
real = elation.dimension_profile
calls = []

def varying(H):
    calls.append(H)
    prof = real(H)
    if len(calls) == 1:
        return prof
    return elation.DimensionProfile(prof.admissible, prof.minimal_n, prof.minimal_d + 1)

elation.dimension_profile = varying
""" + REPORT.format(call="elation.equivalence_classes(2, 4, 2)")
    assert run_optimized(code) == ["1", "raised"]
