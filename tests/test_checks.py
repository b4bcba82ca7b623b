"""The library's checks are explicit code, so they survive ``python -O``.

A bare ``assert`` is stripped under -O; every module of the package carries
its checks as ``VerificationError`` raises instead.  The guard parses each
module for assert statements, and checks are forced to fail in an optimized
interpreter to show they still run there.  A second guard keeps the package
from reading the environment: its results depend on its arguments alone.
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


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_no_environment(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS)
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in ENVIRONMENT_READERS for alias in node.names))]
    assert lines == [], f"{path.name} reads the environment on lines {lines}"


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
from galela import VerificationError, bruckbose, elation, gf, oracle, pspace, singer
"""

REPORT = """
try:
    {call}
except VerificationError:
    print(sys.flags.optimize, "raised")
else:
    print(sys.flags.optimize, "passed")
"""


MESSAGE = """
try:
    {call}
except VerificationError as exc:
    print(sys.flags.optimize, exc)
else:
    print(sys.flags.optimize, "passed")
"""


def optimized_message(code):
    r = run_python_O(code)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def test_census_partition_check_survives_optimize():
    # rotation followed by the complement: a permutation of the 15-bit sets
    # whose walks leave the lines of PG(3,2).  The classes index every
    # walked set, 70 for 35 subgroups; the census indexes only the sets
    # inside x_0 = 0, and its walks of 30 fit no u first
    code = PREAMBLE + """
real = singer.rotate
singer.rotate = lambda bits, theta: real(bits, theta) ^ ((1 << theta) - 1)
""" + MESSAGE.format(call="elation.equivalence_classes(2, 4, 2)") \
        + MESSAGE.format(call="singer.orbit_census(4, 2, 2)")
    assert optimized_message(code).splitlines() == [
        "1 orbits do not partition the items", "1 orbit size fits no divisor of gcd(t, s)"]


def test_census_stabilizer_check_survives_optimize():
    # rotation by three splits the points of PG(3,2) into orbits of 5, and
    # theta(4,2)/5 = 3 is theta(u,2) for no u dividing gcd(1, 4)
    code = PREAMBLE + """
real = singer.rotate
singer.rotate = lambda bits, theta: real(real(real(bits, theta), theta), theta)
""" + MESSAGE.format(call="singer.orbit_census(4, 1, 2)")
    assert optimized_message(code) == "1 orbit size fits no divisor of gcd(t, s)"


def test_census_walk_length_check_survives_optimize():
    # a 14-cycle on the low bits that fixes bit 14: the points of PG(3,2)
    # walk in orbits of 14 and 1, and 14 does not divide theta(4,2) = 15
    code = PREAMBLE + """
import json
real = singer.rotate
singer.rotate = lambda bits, theta: bits if bits >> 14 else real(bits, 14)
try:
    singer.orbit_census(4, 1, 2)
except VerificationError as exc:
    print(json.dumps([sys.flags.optimize, str(exc), exc.details]))
"""
    assert json.loads(optimized_message(code)) == [
        1, "orbit size fits no divisor of gcd(t, s)", {"case": [4, 1, 2], "size": 14}]


def test_census_point_count_check_survives_optimize():
    # a GF(16) Zech table of zeros makes log(y + b) = log b: a line of
    # PG(3,2) gets 2 points
    code = PREAMBLE + """
gf.make_field(2, 4).zech[:] = [0] * 15
""" + MESSAGE.format(call="singer.orbit_census(4, 2, 2)")
    assert optimized_message(code) == "1 subspace has the wrong number of points"


def test_bad_zech_entry_fails_the_same_basis_in_batch_and_one_by_one():
    # zech[5] = 0 makes log(y + b) = log b whenever log y - log b = 5 mod 63,
    # so some 3-spaces of GF(2)^6 repeat a point; the first of them is the
    # seventh basis, which shares its first two rows with the sixth, so a
    # prefix kept from an earlier basis must not hide or fake the failure
    code = PREAMBLE + """
import json
gf.make_field(2, 6).zech[5] = 0
S = singer.SingerGroup(6, 2)
fam = pspace.enumerate_subspaces(6, 3, 2)
out = [sys.flags.optimize]

def first_failure(sets):
    for i, make in enumerate(sets):
        try:
            make()
        except VerificationError as exc:
            return [i, exc.details]

out.append(first_failure([lambda X=X: singer.log_set(S, X) for X in fam]))
out.append(first_failure([lambda H=H: elation.log_set(H)
                          for H in oracle.enumerate_subgroups(2, 6, 3)]))
for call in (lambda: singer.orbit_census(6, 3, 2), lambda: elation.equivalence_classes(2, 6, 3)):
    try:
        call()
    except VerificationError as exc:
        out.append([str(exc), exc.details])
    else:
        out.append("passed")
i = out[1][0]
out.append(fam[i - 1].basis[:2] == fam[i].basis[:2])
print(json.dumps(out))
"""
    optimize, census_first, classes_first, census, classes, shared = \
        json.loads(optimized_message(code))
    assert optimize == 1
    assert census_first[0] == 6 and shared
    assert census == ["subspace has the wrong number of points", census_first[1]]
    assert classes == ["subspace has the wrong number of points", classes_first[1]]
    assert classes_first[1]["rows"] == census_first[1]["basis"]


def test_census_closed_form_check_survives_optimize():
    # the census command used to print a wrong closed form beside the count
    code = PREAMBLE + """
from galela import cli
singer.predicted_orbit_count = lambda s, d, q: 99
sys.exit(cli.main(["census", "--s", "4", "--t", "2", "--q", "2", "--json"]))
"""
    r = run_python_O(code)
    assert r.returncode == 1, r.stderr
    out = json.loads(r.stdout)
    assert out["message"] == "orbit count differs from the closed form"
    assert out["details"] == {"case": [4, 2, 2], "observed": [3, 2], "predicted": [99, 2]}


DETAILS = """
import json
try:
    {call}
except VerificationError as exc:
    print(json.dumps([sys.flags.optimize, str(exc), exc.details]))
else:
    print(json.dumps([sys.flags.optimize, "passed", None]))
"""


def optimized_details(code):
    return json.loads(optimized_message(code))


def test_census_subfield_closed_form_check_survives_optimize():
    # a closed form off by one over GF(4) only: the census of lines of
    # PG(3,2) reads its GF(4)-closed orbit as the points of PG(1,4)
    code = PREAMBLE + """
real = singer.predicted_orbit_count
singer.predicted_orbit_count = lambda s, d, q: real(s, d, q) + (q > 2)
""" + DETAILS.format(call="singer.orbit_census(4, 2, 2)")
    assert optimized_details(code) == [
        1, "orbit count differs from the closed form",
        {"case": [2, 1, 4], "observed": [1, 1], "predicted": [2, 1]}]


def test_census_hyperplane_count_check_survives_optimize():
    # rotation by three splits the lines of PG(3,2) into seven orbits of 5,
    # a size that fits u = 2, but one of them holds two of the seven lines
    # inside x_0 = 0, where a Singer orbit with u = 2 holds one
    code = PREAMBLE + """
real = singer.rotate
singer.rotate = lambda bits, theta: real(real(real(bits, theta), theta), theta)
""" + DETAILS.format(call="singer.orbit_census(4, 2, 2)")
    assert optimized_details(code) == [
        1, "orbit meets the hyperplane in the wrong number of members",
        {"case": [4, 2, 2], "size": 5, "u": 2, "in_hyperplane": 2}]


def test_classify_closed_form_check_survives_optimize():
    # the classes of order-4 subgroups of GF(16) are the line orbits of PG(3,2)
    code = PREAMBLE + """
from galela import cli
real = singer.predicted_free_orbit_count
singer.predicted_free_orbit_count = lambda s, d, q: real(s, d, q) + 1
sys.exit(cli.main(["classify", "--p", "2", "--h", "4", "--m", "2", "--json"]))
"""
    r = run_python_O(code)
    assert r.returncode == 1, r.stderr
    out = json.loads(r.stdout)
    assert out["message"] == "orbit count differs from the closed form"
    assert out["details"] == {"case": [4, 2, 2], "observed": [3, 2], "predicted": [3, 3]}


def test_profile_divisor_closure_check_survives_optimize():
    # GF(16) inside GF(256) is a GF(4)-space, but with mu standing in for
    # GF(4)'s generator only the degrees 1 and 4 pass, and 2 divides 4
    code = PREAMBLE + """
tower = gf.make_field(2, 8)
gamma = tower.subfield_generator(4)
H = elation.group_from_elements(tower, [tower.pow(gamma, k) for k in range(4)])
real = gf.FieldTower.subfield_generator
gf.FieldTower.subfield_generator = lambda self, n: self.mu if n == 2 else real(self, n)
""" + DETAILS.format(call="elation.dimension_profile(H)")
    got = optimized_details(code)
    assert got[:2] == [1, "admissible subfield degrees are not the divisors of the largest"]
    assert got[2]["degrees"] == [1, 4]


def test_correspondence_walk_order_check_survives_optimize():
    # once the classes and the census are built, rotate turns backwards: one
    # class per orbit, sizes and u unchanged, and only the link from the
    # generator to rotate sees that the census steps by mu^-1 where C steps by mu
    code = PREAMBLE + """
real = singer.orbit_census
def census(*args, **kwargs):
    c = real(*args, **kwargs)
    singer.rotate = lambda bits, theta: (bits >> 1) | ((bits & 1) << (theta - 1))
    return c
singer.orbit_census = census
""" + DETAILS.format(call="elation.verify_correspondence(2, 4, 2, 1)")
    got = optimized_details(code)
    assert got[:2] == [1, "rotate differs from the Singer generator on a point"]
    assert (got[2]["image_log"] - got[2]["log"]) % 15 == 1


def test_correspondence_coords_check_survives_optimize():
    # coords with its first two coordinates swapped is still injective, and
    # the whole field, one class and one orbit, maps onto the whole space
    # whatever the coordinates; only the link to the generator sees it
    code = PREAMBLE + """
real = gf.FieldTower.coords
def coords(self, a, n):
    c = real(self, a, n)
    return (c[1], c[0]) + c[2:]
gf.FieldTower.coords = coords
""" + DETAILS.format(call="elation.verify_correspondence(2, 4, 4, 1)")
    got = optimized_details(code)
    assert got[:2] == [1, "coords does not take mu to the Singer generator"]
    assert got[2]["coords_of_mu_x"] != got[2]["generator_times_coords"]


def test_correspondence_stabilizer_check_survives_optimize():
    # every orbit reads u = 1: the GF(4)-class of order-4 subgroups of GF(16)
    # still lands on its orbit of lines, whose u is 2
    code = PREAMBLE + """
real = singer.orbit_census
def census(*args, **kwargs):
    c = real(*args, **kwargs)
    c.orbits = tuple(rec._replace(u=1) for rec in c.orbits)
    return c
singer.orbit_census = census
""" + DETAILS.format(call="elation.verify_correspondence(2, 4, 2, 1)")
    got = optimized_details(code)
    assert got[:2] == [1, "class stabilizer differs from its orbit's"]
    assert got[2]["u"] == 1 and got[2]["minimal_n"] == 2


def test_correspondence_inverse_check_survives_optimize():
    # from_coords turned into mu times itself once the census is built: each
    # orbit pulls back to mu times its subgroup, in the same class with the
    # same minimal_n, and only the inverse check sees it
    code = PREAMBLE + """
real, real_from = singer.orbit_census, gf.FieldTower.from_coords
def census(*args, **kwargs):
    c = real(*args, **kwargs)
    gf.FieldTower.from_coords = lambda self, cs, n: self.mul(self.mu, real_from(self, cs, n))
    return c
singer.orbit_census = census
""" + DETAILS.format(call="elation.verify_correspondence(2, 4, 2, 1)")
    got = optimized_details(code)
    assert got[:2] == [1, "from_coords does not invert coords"]
    assert got[2]["x"] == 1 and got[2]["from_coords"] == 2


def test_correspondence_subfield_check_survives_optimize():
    # coords and from_coords both twisted by the Frobenius of GF(4): the
    # Singer generator and the census follow the twist, so every other check
    # passes, but coords is only semilinear and takes gamma to rho^2
    code = PREAMBLE + """
small = gf.make_field(2, 2)
frob = lambda cs: tuple(small.mul(c, c) for c in cs)
real_coords, real_from = gf.FieldTower.coords, gf.FieldTower.from_coords
gf.FieldTower.coords = lambda self, a, n: frob(real_coords(self, a, n))
gf.FieldTower.from_coords = lambda self, cs, n: real_from(self, frob(cs), n)
""" + DETAILS.format(call="elation.verify_correspondence(2, 4, 2, 2)")
    got = optimized_details(code)
    assert got[:2] == [1, "coords does not take the subfield generator to its scalar"]
    assert got[2]["x"] == 1 and got[2]["coords_of_gamma_x"] != got[2]["rho_times_coords"]


def test_act_dimension_check_survives_optimize():
    # a singular generator sends the line <e0, e1> of PG(2,2) onto a point
    code = PREAMBLE + """
S = singer.SingerGroup(3, 2)
S.generator = ((1, 0, 0), (1, 0, 0), (0, 0, 1))
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


def test_field_zech_check_survives_optimize():
    # zech[1] = 1 says 1 + mu = mu: the third point of the line spanned by
    # mu^b and mu^(b+1) repeats the first
    code = PREAMBLE + """
gf.make_field(2, 4).zech[1] = 1
""" + MESSAGE.format(call="elation.equivalence_classes(2, 4, 2)")
    assert optimized_message(code) == "1 subspace has the wrong number of points"


def test_census_zech_check_survives_optimize():
    # the same fault put in before the table is built: log[3] = 1 builds
    # zech[1] = log(1 + mu) = 1, an entry the lines inside x_0 = 0 never
    # read, so the check as the field builds the table is what sees it
    code = PREAMBLE + """
gf.make_field(2, 4).log[3] = 1
""" + DETAILS.format(call="singer.orbit_census(4, 2, 2)")
    assert optimized_details(code) == [
        1, "Zech table differs from the field's addition",
        {"field": [2, 4], "k": 1, "zech": 1, "one_plus_mu_k": 3}]


def test_zech_check_runs_on_each_fresh_field_under_optimize():
    # the cached GF(16) passes first; each field object checks the table it
    # builds, so a new GF(16) with the same fault is still caught
    code = PREAMBLE + """
singer.orbit_census(4, 2, 2)
fresh = gf.FieldTower(2, 4)
fresh.log[3] = 1
gf._CACHE[2, 4] = fresh
""" + DETAILS.format(call="singer.orbit_census(4, 2, 2)")
    assert optimized_details(code) == [
        1, "Zech table differs from the field's addition",
        {"field": [2, 4], "k": 1, "zech": 1, "one_plus_mu_k": 3}]


def test_class_zech_check_runs_on_each_fresh_field_under_optimize():
    # log[2] = 0 in GF(9) builds zech[0] = 0, which says 1 + 1 = 1: no basis
    # reads that entry, so the scalar classes see it only through the check
    # as the field builds the table
    code = PREAMBLE + """
elation.equivalence_classes(3, 2, 2)
fresh = gf.FieldTower(3, 2)
fresh.log[2] = 0
gf._CACHE[3, 2] = fresh
""" + DETAILS.format(call="elation.equivalence_classes(3, 2, 2)")
    assert optimized_details(code) == [
        1, "Zech table differs from the field's addition",
        {"field": [3, 2], "k": 0, "zech": 0, "one_plus_mu_k": 2}]


def test_conjugator_identity_check_survives_optimize():
    # the elation matrices with lam in the upper-right corner: g M_lam then
    # has lam there and M_(mu lam) g has mu^2 lam, unequal in GF(4)
    code = PREAMBLE + """
def misplaced(tower, lam, r):
    rows = [[int(i == j) for j in range(r)] for i in range(r)]
    rows[0][r - 1] = lam
    return tuple(map(tuple, rows))
elation.elation_matrix = misplaced
tower = gf.make_field(2, 2)
H = elation.group_from_elements(tower, (1,))
""" + DETAILS.format(call="elation.conjugator(H, tower.mu, 3)")
    assert optimized_details(code) == [
        1, "diagonal conjugator fails g M_lam == M_(alpha lam) g",
        {"field": [2, 2], "r": 3, "alpha": 2, "lam": 1,
         "g_times_m_lam": [[1, 0, 1], [0, 1, 0], [0, 0, 2]],
         "m_alpha_lam_times_g": [[1, 0, 3], [0, 1, 0], [0, 0, 2]]}]


def test_lemma1_conjugator_check_survives_optimize():
    # the same misplaced elation matrices met through the report: its one
    # conjugator call, on GF(4) itself with alpha = mu, fails at the first
    # basis element
    code = PREAMBLE + """
from galela import selftest
def misplaced(tower, lam, r):
    rows = [[int(i == j) for j in range(r)] for i in range(r)]
    rows[0][r - 1] = lam
    return tuple(map(tuple, rows))
elation.elation_matrix = misplaced
""" + DETAILS.format(call="selftest.lemma1_report([(3, 2, 2)])")
    assert optimized_details(code) == [
        1, "diagonal conjugator fails g M_lam == M_(alpha lam) g",
        {"field": [2, 2], "r": 3, "alpha": 2, "lam": 1,
         "g_times_m_lam": [[1, 0, 1], [0, 1, 0], [0, 0, 2]],
         "m_alpha_lam_times_g": [[1, 0, 3], [0, 1, 0], [0, 0, 2]]}]


def test_class_walk_direction_check_survives_optimize():
    # rotating down by one bit from the start: the census walks against the
    # Singer generator, which only the link from the generator to rotate sees
    code = PREAMBLE + """
singer.rotate = lambda bits, theta: (bits >> 1) | ((bits & 1) << (theta - 1))
""" + MESSAGE.format(call="elation.verify_correspondence(2, 4, 2, 1)")
    assert optimized_message(code) == "1 rotate differs from the Singer generator on a point"


def test_class_walk_direction_check_survives_optimize_without_the_census():
    # the same reversed rotation, met by equivalence_classes called alone
    code = PREAMBLE + """
singer.rotate = lambda bits, theta: (bits >> 1) | ((bits & 1) << (theta - 1))
""" + MESSAGE.format(call="elation.equivalence_classes(2, 4, 2)")
    assert optimized_message(code) == "1 mu times the representative is not the walk's next member"


def test_lemma1_partition_check_survives_optimize():
    # a sweep that conjugates nothing: the order-2 subgroups of GF(4) form
    # one scalar class, which now spans three classes of the sweep
    code = PREAMBLE + """
from galela import selftest
elation.conjugacy_partition = lambda tower, element_sets, r: elation.ConjugacyPartition(
    tuple(range(len(element_sets))), {})
""" + REPORT.format(call="selftest.lemma1_report([(2, 2, 2)])")
    assert run_optimized(code) == ["1", "raised"]


def test_pgl_count_check_covers_ruled_out_frames_under_optimize():
    # PGL(3, 4) swept without diag(1, 1, 2): two of the q - 1 = 3 diagonals
    code = PREAMBLE + """
real = elation._iterate_pgl
def dropping(r, tower):
    for g in real(r, tower):
        if g[-1][-1] != 2:
            yield g
elation._iterate_pgl = dropping
tower = gf.make_field(2, 2)
sets = [H.elements() for H in oracle.enumerate_subgroups(2, 2, 1)]
""" + DETAILS.format(call="elation.conjugacy_partition(tower, sets, 3)")
    assert optimized_details(code) == [
        1, "PGL sweep is not the q - 1 diagonal projectivities",
        {"r": 3, "q": 4, "swept": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   [[1, 0, 0], [0, 1, 0], [0, 0, 3]]]}]


def test_lemma1_distinct_members_check_survives_optimize():
    # member 2's elements read as member 0's: GF(4)'s one class of order-2
    # subgroups lists its representative twice.  equivalence_classes checks
    # only mu times each representative, by scalar_multiple, so the class
    # itself stays right; the sweep and the class checks take the sets as
    # they are
    code = PREAMBLE + """
from galela import selftest
real = elation.EquivalenceClass.member_elements
def repeating(c):
    sets = real(c)
    return sets[:2] + sets[:1] + sets[3:] if len(sets) > 2 else sets
elation.EquivalenceClass.member_elements = repeating
""" + MESSAGE.format(call="selftest.lemma1_report([(2, 2, 2)])")
    assert optimized_message(code) == "1 scalar classes repeat a subgroup"


def test_correspondence_count_check_survives_optimize():
    # a closed form one too high: GF(16) has 3 classes of order-4 subgroups,
    # and the census behind the correspondence compares the same closed form
    code = PREAMBLE + """
real = singer.predicted_orbit_count
singer.predicted_orbit_count = lambda s, d, q: real(s, d, q) + 1
""" + MESSAGE.format(call="elation.verify_correspondence(2, 4, 2, 1)")
    assert optimized_message(code) == "1 orbit count differs from the closed form"


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


def test_star_pullback_round_trip_check_survives_optimize():
    # every center section pulled back to the first one's subgroup: the
    # coset check against the next section is the one that fails
    code = PREAMBLE + """
real = elation.group_from_subspace
first = []
def pulled(X, h):
    first[:] = first or [real(X, h)]
    return first[0]
elation.group_from_subspace = pulled
""" + MESSAGE.format(call="bruckbose.verify_star_model(2, 2, 4, 1, m=2)")
    assert optimized_message(code) == "1 orbit geometry check failed"


def test_orbit_closure_identity_survives_optimize():
    code = PREAMBLE + WRONG_SECTION + """
frame = bruckbose.StarFrame(2, 2, 4, 1)
H = elation.group_from_elements(frame.tower, (0, 1))
""" + REPORT.format(call="bruckbose.orbit_image((1, 0), H, frame)")
    assert run_optimized(code) == ["1", "raised"]


def test_orbit_image_count_check_survives_optimize():
    # the largest element left out of every orbit: the other three images
    # still span x* and the section, but are one short of its affine part
    code = PREAMBLE + """
frame = bruckbose.StarFrame(2, 2, 4, 1)
t = frame.tower
H = elation.group_from_elements(t, (0, 1, t.mu, t.add(1, t.mu)))
real = elation.ElationGroup.elements
elation.ElationGroup.elements = lambda self: real(self)[:-1]
try:
    bruckbose.common_intersection_check(H, frame, [(1, 0)])
except VerificationError as exc:
    print(sys.flags.optimize, exc.details["kind"])
else:
    print(sys.flags.optimize, "passed")
"""
    assert optimized_message(code) == "1 orbit image is not an affine subspace"


# GF(8) has two classes of primitive elements, so in GF(64) a wrong root of
# the minimal polynomial either generates GF(8) (the map stays multiplicative
# but is not additive) or is 1 (the map is not a bijection)
WRONG_ROOT = """
real = gf.FieldTower._eval_small

def primitive_non_root(coeffs, small):
    return next(b for b in range(2, small.order) if real(coeffs, b, small)
                and oracle.element_order(small, b) == small.order - 1)

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
    # every spread element of the frame replaced by z*; the line through
    # (1, 0, 0) and (1, 1, 0) meets infinity in (0, 1, 0), whose element is not z*
    code = PREAMBLE + """
frame = bruckbose.StarFrame(3, 2, 2, 1)
frame.spread = (frame.zstar,) * len(frame.spread)
""" + REPORT.format(call="bruckbose.incidence_check(frame, [((1, 0, 0), (1, 1, 0))])")
    assert run_optimized(code) == ["1", "raised"]


def test_repeated_subgroup_row_check_survives_optimize():
    # two equal rows span 2 elements of GF(8), not 4
    code = PREAMBLE + """
H = elation.ElationGroup(gf.make_field(2, 3), ((1, 0, 0), (1, 0, 0)))
""" + DETAILS.format(call="H.elements()")
    assert optimized_details(code) == [
        1, "subgroup basis does not span p^m distinct elements",
        {"field": [2, 3], "rows": [[1, 0, 0], [1, 0, 0]], "distinct": 2}]


def test_dependent_subspace_rows_check_survives_optimize():
    # a basis that is not RREF: its second row repeats its first
    code = PREAMBLE + """
X = pspace.Subspace(2, ((1, 0, 1), (1, 0, 1)))
""" + DETAILS.format(call="pspace.subspace_points(X)")
    assert optimized_details(code) == [
        1, "subspace points are not distinct", {"subspace": [[1, 0, 1], [1, 0, 1]], "q": 2}]
