"""Tests for the linear representation of translation structures.

The embedding is checked coordinate by coordinate on small frames, and
the two geometric checks (common intersection on the special spread
element, incidence compatibility) run exhaustively where the frame is
small enough.
"""

import itertools
import random

import pytest

from galela import (
    StarFrame,
    common_intersection_check,
    enumerate_points,
    group_from_elements,
    incidence_check,
    make_field,
    orbit_image,
    star_infinite,
    star_point,
    star_point_inverse,
    subspace_intersection,
    theta,
    verify_star_model,
)
from galela import bruckbose
from galela.bruckbose import (
    EXHAUSTIVE_LIMIT,
    admissible_orders,
    embed_center_section,
    sample_affine_points,
    sample_line_specs,
)
from galela.elation import dimension_profile, enumerate_subgroups, subspace_of_center
from galela.pspace import field_for, subspace_points


def small_frame():
    # PG(1,16) over GF(4): ambient PG(2,4), 16 affine points
    return StarFrame(2, 2, 4, 2)


def plane_frame():
    # PG(2,16) over GF(4): ambient PG(4,4), 256 affine points
    return StarFrame(3, 2, 4, 2)


class TestFrameConstruction:
    def test_dimensions(self):
        f = small_frame()
        assert (f.vecdim, f.q, f.dprime) == (3, 4, 2)
        assert f.affine_count == 16
        g = plane_frame()
        assert (g.vecdim, g.q, g.dprime) == (5, 4, 2)
        assert g.affine_count == 256

    def test_spread_size(self):
        assert len(small_frame().spread) == 1
        assert len(plane_frame().spread) == theta(2, 16)
        assert len(StarFrame(2, 2, 4, 1).spread) == 1

    def test_spread_partitions_hyperplane(self):
        f = plane_frame()
        total = sum(len(subspace_points(X)) for X in f.spread)
        assert total == len(subspace_points(f.astar))
        for i, X in enumerate(f.spread):
            for Y in f.spread[i + 1 :]:
                assert subspace_intersection(X, Y) is None

    def test_zstar_is_last_block(self):
        f = plane_frame()
        assert f.zstar.basis == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
        assert f.zstar in f.spread

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StarFrame(1, 2, 4, 2)
        with pytest.raises(ValueError):
            StarFrame(2, 2, 4, 3)


class TestPointEmbedding:
    def test_known_coordinates(self):
        f = small_frame()
        t = f.tower
        assert star_point((1, 0), f) == (1, 0, 0)
        assert star_point((1, 1), f) == (1, 1, 0)
        assert star_point((1, t.mu), f) == (1, 0, 1)

    def test_round_trip(self):
        f = small_frame()
        for x in range(16):
            pt = (1, x)
            assert star_point_inverse(star_point(pt, f), f) == pt

    def test_images_distinct(self):
        f = plane_frame()
        images = {star_point((1, a, b), f) for a in range(16) for b in range(16)}
        assert len(images) == 256

    def test_rejects_infinite_point(self):
        f = small_frame()
        with pytest.raises(ValueError):
            star_point((0, 1), f)

    def test_image_is_affine(self):
        # embedded points never land on the distinguished hyperplane
        f = small_frame()
        for x in range(16):
            assert star_point((1, x), f)[0] == 1


class TestInfiniteEmbedding:
    def test_center_maps_to_zstar(self):
        f = plane_frame()
        assert star_infinite((0, 0, 1), f) == f.zstar

    def test_members_have_block_dimension(self):
        f = plane_frame()
        for X in f.spread:
            assert X.t == f.dprime

    def test_scaling_irrelevant(self):
        f = plane_frame()
        t = f.tower
        P = (0, 1, t.mu)
        scaled = (0, t.mu, t.mul(t.mu, t.mu))
        assert star_infinite(P, f) == star_infinite(scaled, f)

    def test_distinct_points_distinct_members(self):
        f = plane_frame()
        seen = {star_infinite((0, 1, x), f) for x in range(16)}
        seen.add(star_infinite((0, 0, 1), f))
        assert len(seen) == 17

    def test_rejects_affine_point(self):
        f = small_frame()
        with pytest.raises(ValueError):
            star_infinite((1, 0), f)


class TestOrbitImage:
    def test_line_from_prime_subgroup(self):
        f = StarFrame(2, 2, 4, 1)
        t = f.tower
        H = group_from_elements(t, (0, 1))
        closure = orbit_image((1, 0), H, f)
        assert closure.t == 2

    def test_rank_tracks_subgroup_order(self):
        f = small_frame()
        t = f.tower
        H = group_from_elements(t, t.subfield_elements(2))
        closure = orbit_image((1, t.mu), H, f)
        assert closure.t == 2

    def test_whole_field_gives_line_through_zstar(self):
        f = small_frame()
        t = f.tower
        H = group_from_elements(t, range(16))
        closure = orbit_image((1, 0), H, f)
        assert closure.t == f.dprime + 1
        assert subspace_intersection(closure, f.zstar) == f.zstar

    def test_closure_meets_zstar_in_center_section(self):
        # every admissible subgroup and every affine point, with the
        # Zassenhaus intersection as the oracle
        for f in (StarFrame(2, 2, 4, 1), StarFrame(2, 2, 4, 2)):
            checked = 0
            for m in admissible_orders(f.h, f.n):
                for H in enumerate_subgroups(f.p, f.h, m):
                    if f.n not in {n for n, _ in dimension_profile(H).admissible}:
                        continue
                    expected = embed_center_section(subspace_of_center(H, f.n), f)
                    for x in sample_affine_points(f):
                        closure = orbit_image(x, H, f)
                        assert subspace_intersection(closure, f.zstar) == expected
                    checked += 1
            assert checked == {1: 66, 2: 6}[f.n]

    def test_rejects_inadmissible_subgroup(self):
        f = small_frame()
        t = f.tower
        H = group_from_elements(t, (0, 1, t.mu, t.add(1, t.mu)))
        with pytest.raises(ValueError):
            orbit_image((1, 0), H, f)

    def test_rejects_infinite_start(self):
        f = small_frame()
        H = group_from_elements(f.tower, (0, 1))
        with pytest.raises(ValueError):
            orbit_image((0, 1), H, f)


class TestTranslations:
    def test_shift_adds_coords_to_last_block(self):
        # the elation with parameter lam moves x* by coords(lam) in the last block
        f = plane_frame()
        t = f.tower
        small = field_for(f.q)
        last = 1 + (f.r - 2) * f.dprime
        for lam in (1, t.mu, t.pow(t.mu, 7)):
            shift = (0,) * last + t.coords(lam, f.n)
            for x in [(1, 0, 0), (1, 1, t.mu), (1, t.pow(t.mu, 3), 5)]:
                shifted = (1, x[1], t.add(x[2], lam))
                moved = tuple(small.add(a, b) for a, b in zip(star_point(x, f), shift))
                assert star_point(shifted, f) == moved


class TestGeometricChecks:
    def test_common_intersection_exhaustive(self):
        f = small_frame()
        t = f.tower
        H = group_from_elements(t, t.subfield_elements(2))
        sample = sample_affine_points(f)
        assert common_intersection_check(H, f, sample) is True

    def test_common_intersection_prime_subgroups(self):
        f = StarFrame(2, 3, 2, 1)
        t = f.tower
        for base in (1, t.mu):
            H = group_from_elements(t, (0, base, t.mul(2, base)))
            assert common_intersection_check(H, f, sample_affine_points(f))

    def test_empty_sample_rejected(self):
        f = small_frame()
        H = group_from_elements(f.tower, (0, 1))
        with pytest.raises(ValueError):
            common_intersection_check(H, f, [])

    def test_non_affine_sample_point_rejected(self):
        f = small_frame()
        H = group_from_elements(f.tower, (0, 1))
        with pytest.raises(ValueError):
            common_intersection_check(H, f, [(1, 0), (0, 1)])

    def test_incidence_exhaustive_small(self):
        f = small_frame()
        assert incidence_check(f, sample_line_specs(f)) is True

    def test_incidence_sampled_plane(self):
        f = plane_frame()
        sample = sample_line_specs(f, size=40, seed=3)
        assert incidence_check(f, sample) is True

    def test_degenerate_pair_rejected(self):
        f = small_frame()
        t = f.tower
        with pytest.raises(ValueError):
            incidence_check(f, [((1, 0), (1, 0))])
        # projectively equal infinite reps count as the same point
        with pytest.raises(ValueError):
            incidence_check(f, [((0, 1), (0, t.mu))])


def count_closures(monkeypatch):
    calls = []
    real = bruckbose._orbit_closure

    def counted(x, E, elements, section, frame):
        calls.append(x)
        return real(x, E, elements, section, frame)

    monkeypatch.setattr(bruckbose, "_orbit_closure", counted)
    return calls


class TestOrbitsCheckedOnce:
    def test_one_check_per_orbit_of_exhaustive_sample(self, monkeypatch):
        # PG(1,16) over GF(2): the 16 affine points fall into 16/|E| orbits
        f = StarFrame(2, 2, 4, 1)
        sample = sample_affine_points(f)
        assert len(sample) == 16
        calls = count_closures(monkeypatch)
        for m in admissible_orders(f.h, f.n):
            for H in enumerate_subgroups(f.p, f.h, m):
                calls.clear()
                assert common_intersection_check(H, f, sample) is True
                assert len(calls) == 16 // len(H.elements())
                # the checked points lie in distinct orbits
                elements = set(H.elements())
                lasts = [x[-1] for x in calls]
                assert all(f.tower.sub(a, b) not in elements
                           for a, b in itertools.combinations(lasts, 2))

    def test_points_of_one_orbit_give_one_check(self, monkeypatch):
        f = plane_frame()
        t = f.tower
        H = group_from_elements(t, t.subfield_elements(2))
        calls = count_closures(monkeypatch)
        lam = max(H.elements())
        x, y = (1, t.mu, 5), (1, t.mu, t.add(5, lam))
        assert common_intersection_check(H, f, [x, y]) is True
        assert calls == [x]

    def test_same_last_coordinate_other_orbit_gives_two_checks(self, monkeypatch):
        f = plane_frame()
        t = f.tower
        H = group_from_elements(t, t.subfield_elements(2))
        calls = count_closures(monkeypatch)
        x, y = (1, t.mu, 5), (1, 0, 5)
        assert common_intersection_check(H, f, [x, y]) is True
        assert calls == [x, y]


class TestSampling:
    def test_exhaustive_below_limit(self):
        f = small_frame()
        pts = sample_affine_points(f, size=4)
        assert len(pts) == 16
        assert f.affine_count <= EXHAUSTIVE_LIMIT

    def test_seeded_reproducible(self):
        f = StarFrame(3, 2, 8, 1)
        assert f.affine_count > EXHAUSTIVE_LIMIT
        a = sample_affine_points(f, seed=5)
        b = sample_affine_points(f, seed=5)
        c = sample_affine_points(f, seed=6)
        assert a == b
        assert a != c
        assert len(a) == 256

    def test_small_frame_pairs_exhaustive(self):
        f = small_frame()
        specs = sample_line_specs(f, size=3)
        # PG(1,16) has 17 points, giving C(17, 2) unordered pairs
        assert len(specs) == 17 * 16 // 2

    @pytest.mark.parametrize("r,p,h", [(3, 2, 4), (2, 2, 7), (7, 2, 1)])
    def test_pair_sample_matches_full_list(self, r, p, h):
        # unranked indices are the pairs random.sample draws from the full list
        f = StarFrame(r, p, h, h)
        pairs = list(itertools.combinations(enumerate_points(r, p**h), 2))
        assert len(pairs) > EXHAUSTIVE_LIMIT
        for seed in range(3):
            assert sample_line_specs(f, seed=seed) == random.Random(seed).sample(pairs, 256)

    def test_pair_sample_of_large_plane(self):
        # PG(2,256) has about 2.16e9 point pairs, never built
        specs = sample_line_specs(StarFrame(3, 2, 8, 8))
        assert len(set(specs)) == 256
        assert all(P < Q for P, Q in specs)

    def test_admissible_orders(self):
        assert admissible_orders(4, 2) == [2, 4]
        assert admissible_orders(6, 2) == [2, 4, 6]
        assert admissible_orders(4, 1) == [1, 2, 3, 4]


class TestFullSweep:
    def test_report_shape(self):
        report = verify_star_model(2, 3, 2, 1)
        assert report["ok"] is True
        assert report["params"] == {"r": 2, "p": 3, "h": 2, "n": 1}
        assert report["ambient"]["vecdim"] == 3
        assert report["sample"]["exhaustive"] is True
        assert [row["m"] for row in report["orders"]] == [1, 2]

    def test_single_order(self):
        report = verify_star_model(2, 2, 4, 2, m=2)
        assert [row["m"] for row in report["orders"]] == [2]
        assert report["ok"] is True

    def test_subgroup_filter_counts(self):
        # order 2 subgroups of GF(16) that are GF(4)-spaces: the 5 classes
        report = verify_star_model(2, 2, 4, 2)
        by_m = {row["m"]: row for row in report["orders"]}
        assert by_m[2]["subgroups"] == 5
        assert by_m[4]["subgroups"] == 1

    def test_rejects_inadmissible_order(self):
        with pytest.raises(ValueError):
            verify_star_model(2, 2, 4, 2, m=3)
