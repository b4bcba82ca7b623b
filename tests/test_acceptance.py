"""End-to-end acceptance gate.

Seven criteria, one test each, every one printing a single PASS/FAIL
line with its runtime.  Budgets are asserted, not aspirational: a
criterion that blows its time limit fails the suite.
"""

import itertools
import os
import subprocess
import sys
import time
from math import gcd

import pytest

from galela import (
    conjugator,
    count_classes,
    dimension_profile,
    equivalence_classes,
    gaussian_binomial,
    is_cover,
    no_conjugation_witness,
    orbit_census,
    predicted_free_orbit_count,
    predicted_orbit_count,
    theta,
    verify_correspondence,
    verify_star_model,
)
from galela.combinat import exact_div
from galela.elation import elation_matrix
from galela.linalg import mat_inverse, matmul
from galela.oracle import enumerate_subgroups, scalar_equivalent, scale_projective

CENSUS_CASES = (
    (2, 1, 2),
    (3, 1, 2),
    (4, 2, 2),
    (4, 2, 3),
    (6, 2, 2),
    (6, 3, 2),
    (4, 2, 4),
    (2, 1, 8),
    (2, 1, 9),
)

CORRESPONDENCE_CASES = (
    (2, 4, 2, 1),
    (2, 4, 2, 2),
    (2, 6, 2, 1),
    (2, 6, 3, 1),
    (3, 2, 1, 1),
)

STAR_CASES = ((2, 2, 4, 1), (2, 2, 4, 2), (3, 2, 4, 2), (2, 3, 2, 1))


def report(name, ok, elapsed, budget=None):
    tail = f" ({elapsed:.1f}s" + (f" of {budget}s budget)" if budget else ")")
    print(f"{name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok
    if budget is not None:
        assert elapsed <= budget


def test_criterion_1_census_matches_closed_forms():
    start = time.time()
    expected_spots = {(4, 2, 2): (3, 2), (6, 2, 2): (11, 10), (6, 3, 2): (23, 22)}
    ok = True
    for s, t, q in CENSUS_CASES:
        census = orbit_census(s, t, q)
        observed = len(census.orbits)
        free = sum(1 for r in census.orbits if r.u == 1)
        ok &= observed == predicted_orbit_count(s, t, q)
        ok &= free == predicted_free_orbit_count(s, t, q)
        if (s, t, q) in expected_spots:
            ok &= (observed, free) == expected_spots[(s, t, q)]
    report("criterion 1 (orbit census vs closed forms)", ok, time.time() - start, 60)


def test_criterion_2_orbit_structure():
    start = time.time()
    ok = True
    for s, t, q in CENSUS_CASES:
        census = orbit_census(s, t, q)
        spreads = 0
        for i, rec in enumerate(census.orbits):
            ok &= gcd(t, s) % rec.u == 0
            ok &= rec.size * theta(rec.u, q) == theta(s, q)
            members = census.orbit_members(i)
            ok &= is_cover(members, exact_div(theta(t, q), theta(rec.u, q)))
            if is_cover(members, 1):
                spreads += 1
        if s % t == 0:
            ok &= spreads == 1
        else:
            ok &= spreads == 0
    report("criterion 2 (orbit incidence structure)", ok, time.time() - start)


def test_criterion_3_classification_grid():
    start = time.time()
    ok = True
    rows = 0
    spot = {}
    for p in (2, 3):
        for h in (2, 3, 4, 6):
            for m in range(1, h + 1):
                if gaussian_binomial(h, m, p) > 10**5:
                    continue
                classes = equivalence_classes(p, h, m)
                for n in (d for d in range(1, h + 1) if gcd(m, h) % d == 0):
                    closed = [
                        c
                        for c in classes
                        if any(a == n for a, _ in c.profile.admissible)
                    ]
                    minimal = [c for c in closed if c.profile.minimal_n == n]
                    ok &= len(closed) == count_classes(p, h, m, n)
                    ok &= len(minimal) == count_classes(p, h, m, n, minimal=True)
                    spot[(p, h, m, n)] = (len(closed), len(minimal))
                    rows += 1
    ok &= spot[(2, 4, 2, 1)] == (3, 2)
    ok &= spot[(2, 4, 2, 2)][0] == 1
    ok &= spot[(2, 6, 2, 1)][0] == 11
    ok &= rows >= 50
    report("criterion 3 (classification grid)", ok, time.time() - start, 120)


def test_criterion_4_class_orbit_bijection():
    start = time.time()
    ok = True
    for p, h, m, n in CORRESPONDENCE_CASES:
        result = verify_correspondence(p, h, m, n)
        ok &= result["bijection"] is True
        ok &= result["minimal_match"] is True
        ok &= result["classes"] == result["orbits"]
    report("criterion 4 (class-orbit bijection)", ok, time.time() - start)


def test_criterion_5_conjugacy_criterion_both_directions():
    start = time.time()
    ok = True
    for r in (2, 3):
        subgroups = [
            H for m in (1, 2) for H in enumerate_subgroups(2, 2, m)
        ]
        tower = subgroups[0].tower
        equivalent = inequivalent = 0
        for i, H1 in enumerate(subgroups):
            for H2 in subgroups[i:]:
                alpha = (
                    scalar_equivalent(H1, H2) if H1.m == H2.m else None
                )
                if alpha is not None:
                    g = conjugator(H1, alpha, r)
                    ginv = mat_inverse(g, tower)
                    for lam in H1.elements():
                        lhs = matmul(matmul(g, elation_matrix(tower, lam, r), tower), ginv, tower)
                        rhs = elation_matrix(tower, tower.mul(alpha, lam), r)
                        ok &= scale_projective(lhs, tower) == scale_projective(rhs, tower)
                    equivalent += 1
                else:
                    ok &= no_conjugation_witness(H1, H2, r) is True
                    inequivalent += 1
        ok &= (equivalent, inequivalent) == (7, 3)
    report(
        "criterion 5 (conjugacy criterion, both directions)",
        ok,
        time.time() - start,
        600,
    )


def test_criterion_6_star_model_geometry():
    start = time.time()
    ok = True
    for r, p, h, n in STAR_CASES:
        result = verify_star_model(r, p, h, n)
        ok &= result["ok"] is True
        ok &= result["sample"]["exhaustive"] is True
        ok &= len(result["orders"]) == len(
            [m for m in range(1, h + 1) if m % n == 0]
        )
    report("criterion 6 (star model geometry)", ok, time.time() - start)


def test_criterion_7_selftest_determinism():
    start = time.time()
    outputs = []
    # the third run strips every assert (python -O): no result may depend on
    # one; the fourth converts ints of at most 640 decimal digits, the least
    # Python accepts, so no result may depend on printing a wider int
    for hashseed, threads, optimize, flags in (("0", "1", None, []), ("31337", "4", None, []),
                                               ("0", "1", "1", []),
                                               ("0", "1", None, ["-X", "int_max_str_digits=640"])):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["OMP_NUM_THREADS"] = threads
        if optimize is not None:
            env["PYTHONOPTIMIZE"] = optimize
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "galela.cli", "selftest"],
            capture_output=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = len(set(outputs)) == 1 and len(outputs[0]) > 0
    report("criterion 7 (selftest determinism)", ok, time.time() - start)
