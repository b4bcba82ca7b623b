"""The library's checks are explicit code, so they survive ``python -O``.

A bare ``assert`` is stripped under -O; every module of the package carries
its checks as ``VerificationError`` raises instead.  The guard parses each
module for assert statements, and checks are forced to fail in an optimized
interpreter to show they still run there.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = sorted((SRC / "galela").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def run_python_O(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def run_optimized(code):
    r = run_python_O(code)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


PREAMBLE = """
import sys
from galela import VerificationError, bruckbose, elation, gf, pspace, singer
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


def test_act_dimension_check_survives_optimize():
    # a singular generator sends the line <e0, e1> of PG(2,2) onto a point
    code = PREAMBLE + """
S = singer.SingerGroup(3, 2, ((1, 0, 0), (1, 0, 0), (0, 0, 1)), 7, gf.make_field(2, 1))
X = pspace.span(((1, 0, 0), (0, 1, 0)), 2)
""" + REPORT.format(call="singer.act(S, X)")
    assert run_optimized(code) == ["1", "raised"]


def test_class_size_check_survives_optimize():
    # every subgroup reported as a GF(2)-space only: the GF(4)-class of
    # order-4 subgroups of GF(16) has 5 members, not theta(4, 2) = 15
    code = PREAMBLE + """
elation.dimension_profile = lambda H: elation.DimensionProfile(((1, H.m),), 1, H.m)
""" + REPORT.format(call="elation.equivalence_classes(2, 4, 2)")
    assert run_optimized(code) == ["1", "raised"]


def test_lemma1_partition_check_survives_optimize():
    # a sweep that conjugates nothing: the order-2 subgroups of GF(4) form
    # one scalar class, which now spans three classes of the sweep
    code = PREAMBLE + """
from galela import selftest
elation.conjugacy_partition = lambda subgroups, r, cap=None: elation.ConjugacyPartition(
    tuple(range(len(subgroups))), {})
""" + REPORT.format(call="selftest.lemma1_report([(2, 2, 2)])")
    assert run_optimized(code) == ["1", "raised"]


def test_correspondence_count_check_survives_optimize():
    # a closed form one too high: GF(16) has 3 classes of order-4 subgroups
    code = PREAMBLE + """
real = elation.count_classes
elation.count_classes = lambda p, h, m, n, minimal=False: real(p, h, m, n, minimal) + 1
""" + REPORT.format(call="elation.verify_correspondence(2, 4, 2, 1)")
    assert run_optimized(code) == ["1", "raised"]


def test_spread_partition_check_survives_optimize():
    # one point short: the spread members no longer fill the hyperplane
    code = PREAMBLE + """
real = pspace.subspace_points
pspace.subspace_points = lambda X: real(X)[:-1]
""" + REPORT.format(call="bruckbose.StarFrame(2, 2, 4, 2)")
    assert run_optimized(code) == ["1", "raised"]


WRONG_SECTION = """
# every subgroup's center section replaced by the whole center block
bruckbose.embed_center_section = lambda X, frame: frame.zstar
"""


def test_orbit_closure_identity_survives_optimize():
    code = PREAMBLE + WRONG_SECTION + """
frame = bruckbose.StarFrame(2, 2, 4, 1)
H = elation.group_from_elements(frame.tower, (0, 1))
""" + REPORT.format(call="bruckbose.orbit_image((1, 0), H, frame)")
    assert run_optimized(code) == ["1", "raised"]


# GF(8) has two classes of primitive elements, so in GF(64) a wrong root of
# the minimal polynomial either generates GF(8) (the map stays multiplicative
# but is not additive) or is 1 (the map is not a bijection)
WRONG_ROOT = """
real = gf.FieldTower._eval_small

def primitive_non_root(coeffs, small):
    return next(b for b in range(2, small.order) if real(coeffs, b, small)
                and small.element_order(b) == small.order - 1)

gf.FieldTower._eval_small = staticmethod(lambda coeffs, b, small: 0 if b == {root} else 1)
big = gf.make_field(2, 6)
"""


@pytest.mark.parametrize("root", ["1", "primitive_non_root(coeffs, small)"],
                         ids=["one", "primitive_non_root"])
def test_subfield_map_check_survives_optimize(root):
    code = PREAMBLE + WRONG_ROOT.format(root=root) + \
        REPORT.format(call="big.to_subfield(big.subfield_generator(3), 3)")
    assert run_optimized(code) == ["1", "raised"]


def test_verify_bruckbose_cli_reports_counterexample_under_optimize():
    code = PREAMBLE + WRONG_SECTION + """
from galela import cli
sys.exit(cli.main(["verify", "bruckbose", "--r", "2", "--p", "2", "--h", "4", "--n", "1"]))
"""
    r = run_python_O(code)
    assert r.returncode == 1, r.stderr
    out = json.loads(r.stdout)
    assert out["message"] == "orbit geometry check failed"
    details = out["details"]
    assert details["kind"] == "orbit closure differs from the span of x* and the center section"
    assert details["params"] == [2, 2, 4, 1]
    assert details["m"] == 1
    assert details["subgroup"] == [[0, 0, 0, 1]]


def test_line_image_check_survives_optimize():
    # every line's spread element replaced by z*; the line through (1, 0, 0)
    # and (1, 1, 0) meets infinity in (0, 1, 0), whose element is not z*
    code = PREAMBLE + """
frame = bruckbose.StarFrame(3, 2, 2, 1)
real = bruckbose.star_infinite
bruckbose.star_infinite = lambda P, frame: real((0, 0, 1), frame)
""" + REPORT.format(call="bruckbose.incidence_check(frame, [((1, 0, 0), (1, 1, 0))])")
    assert run_optimized(code) == ["1", "raised"]
