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
    VerificationError,
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
from galela import bruckbose, elation, linalg, pspace, selftest
from galela.bruckbose import (
    EXHAUSTIVE_LIMIT,
    admissible_orders,
    embed_center_section,
    sample_affine_points,
    sample_line_specs,
)
from galela.combinat import divisors, gaussian_binomial, is_prime
from galela.elation import dimension_profile, enumerate_subgroups, subspace_of_center
from galela.errors import CapExceeded
from galela.pspace import field_for, span, subspace_points


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
        assert total == len(subspace_points(span(linalg.identity(f.vecdim)[1:], f.q)))
        for i, X in enumerate(f.spread):
            for Y in f.spread[i + 1 :]:
                assert subspace_intersection(X, Y) is None

    def test_zstar_is_last_block(self):
        f = plane_frame()
        assert f.zstar.basis == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
        assert f.zstar is f.spread[0]
        assert f.infinite == tuple(sorted(f.infinite))
        assert [star_infinite(P, f) for P in f.infinite] == list(f.spread)

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
        with pytest.raises(ValueError, match="empty sample"):
            incidence_check(f, [])

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

    @pytest.mark.parametrize("frame, specs", [
        ((3, 2, 2, 1), lambda f: sample_line_specs(f)),
        ((3, 2, 4, 2), lambda f: sample_line_specs(f, size=40, seed=3)),
        ((4, 2, 2, 1), lambda f: sample_line_specs(f, size=60, seed=1))],
        ids=["3-2-2-1-exhaustive", "3-2-4-2", "4-2-2-1"])
    def test_spread_element_built_once_per_point_at_infinity(self, frame, specs, monkeypatch):
        f = StarFrame(*frame)
        sample = specs(f)
        # the points at infinity of the lines with affine points, whose
        # elements' vectors the coset check lists; the elements are the frame's
        of_affine_lines = set()
        for x, y in sample:
            pts = subspace_points(span([x, y], f.tower.order))
            infinite = {P for P in pts if P[0] == 0}
            if len(infinite) < len(pts):
                of_affine_lines |= infinite
        calls, listed = [], []
        real, real_vectors = bruckbose.star_infinite, bruckbose._vectors

        def counted(P, frame):
            calls.append(P)
            return real(P, frame)

        def counted_vectors(W):
            listed.append(W)
            return real_vectors(W)

        monkeypatch.setattr(bruckbose, "star_infinite", counted)
        monkeypatch.setattr(bruckbose, "_vectors", counted_vectors)
        assert incidence_check(f, sample) is True
        assert calls == []
        assert len(listed) == len(of_affine_lines)

    @pytest.mark.parametrize("frame, specs", [
        ((3, 2, 2, 1), lambda f: sample_line_specs(f)),
        ((3, 2, 4, 2), lambda f: sample_line_specs(f, size=200, seed=3))],
        ids=["3-2-2-1-exhaustive", "3-2-4-2"])
    def test_points_listed_once_per_distinct_line(self, frame, specs, monkeypatch):
        f = StarFrame(*frame)
        sample = specs(f)
        lines = {span([x, y], f.tower.order) for x, y in sample}
        assert len(lines) < len(sample)
        calls = []
        real = pspace.subspace_points
        monkeypatch.setattr(pspace, "subspace_points", lambda X: calls.append(X) or real(X))
        assert incidence_check(f, sample) is True
        assert sorted(calls, key=lambda X: X.basis) == sorted(lines, key=lambda X: X.basis)

    def test_degenerate_pair_rejected(self):
        f = small_frame()
        t = f.tower
        with pytest.raises(ValueError):
            incidence_check(f, [((1, 0), (1, 0))])
        # projectively equal infinite reps count as the same point
        with pytest.raises(ValueError):
            incidence_check(f, [((0, 1), (0, t.mu))])

    def test_degenerate_pair_rejected_after_its_line_was_checked(self):
        # PG(1,16) is one line, checked on the first pair
        f = small_frame()
        t = f.tower
        with pytest.raises(ValueError, match="degenerate line spec"):
            incidence_check(f, [((1, 0), (0, 1)), ((1, 1), (1, 2)), ((0, 1), (0, t.mu))])


def count_closures(monkeypatch):
    """The points x whose orbit closure is checked, in order: one per call of
    _check_affine_image, x read back from its packed base x*."""
    calls = []
    real = bruckbose._check_affine_image

    def counted(images, base, vectors, frame, error, kinds):
        calls.append(star_point_inverse(frame.unpack(base), frame))
        return real(images, base, vectors, frame, error, kinds)

    monkeypatch.setattr(bruckbose, "_check_affine_image", counted)
    return calls


def span_and_count(images, base, W, q):
    """The check as a span comparison and a count: None when it passes,
    else the index of the failure kind, 0 for a different span and 1 for
    too few images."""
    if span(images, q) != span([base, *W.basis], q):
        return 0
    return None if len(images) == q ** W.t else 1


def coset_verdict(images, base, W, frame):
    """bruckbose._check_affine_image's verdict in span_and_count's terms, on
    the packed images, base and vectors of W."""
    def error(kind, **fields):
        return VerificationError(kind, fields)
    try:
        bruckbose._check_affine_image({frame.pack(v) for v in images}, frame.pack(base),
                                      [frame.pack(w) for w in bruckbose._vectors(W)], frame,
                                      error, ("different span", "too few"))
    except VerificationError as exc:
        return ["different span", "too few"].index(str(exc))
    return None


class TestCosetCheck:
    @pytest.mark.parametrize("params", [(2, 2, 4, 1), (3, 2, 2, 1), (2, 3, 2, 1)],
                             ids=lambda params: "-".join(map(str, params)))
    def test_agrees_with_span_and_count(self, params):
        # every subgroup and affine point, as checked and with one image
        # dropped, one foreign affine point added, or one image swapped for
        # a point off the coset
        f = StarFrame(*params)
        t = f.tower
        points = sample_affine_points(f)
        stars = [star_point(x, f) for x in points]
        passed = 0
        perturbed = []
        for m in admissible_orders(f.h, f.n):
            for H in enumerate_subgroups(f.p, f.h, m):
                W = embed_center_section(subspace_of_center(H, f.n), f)
                for x in points:
                    base = star_point(x, f)
                    images = {star_point((*x[:-1], t.add(x[-1], lam)), f)
                              for lam in H.elements()}
                    assert coset_verdict(images, base, W, f) is None
                    assert span_and_count(images, base, W, f.q) is None
                    passed += 1
                    cases = [images - {max(images)}]
                    foreign = next((y for y in stars if y not in images), None)
                    if foreign is not None:
                        cases += [images | {foreign}, images - {max(images)} | {foreign}]
                    for bad in cases:
                        verdict = span_and_count(bad, base, W, f.q)
                        assert verdict is not None
                        assert coset_verdict(bad, base, W, f) == verdict
                        perturbed.append(verdict)
        assert (passed, len(perturbed)) == {(2, 2, 4, 1): (1056, 3136), (3, 2, 2, 1): (64, 192),
                                            (2, 3, 2, 1): (45, 117)}[params]
        assert set(perturbed) == {0, 1}

    def test_section_off_the_hyperplane_fails(self):
        # a section with a nonzero leading coordinate: x* + W has no
        # normalized affine point but x* itself, though the span and count
        # agree with the images of the true section
        f = StarFrame(2, 2, 2, 1)
        t = f.tower
        H = group_from_elements(t, (0, 1))
        W = embed_center_section(subspace_of_center(H, f.n), f)
        tilted = span([tuple(a ^ b for a, b in zip(W.basis[0], (1, 0, 0)))], f.q)
        images = {star_point((1, lam), f) for lam in H.elements()}
        base = star_point((1, 0), f)
        assert span_and_count(images, base, tilted, f.q) is None
        assert coset_verdict(images, base, tilted, f) == 1

    def test_vectors_of_a_section(self):
        f = plane_frame()
        W = embed_center_section(subspace_of_center(
            group_from_elements(f.tower, f.tower.subfield_elements(2)), f.n), f)
        vectors = bruckbose._vectors(W)
        assert len(vectors) == len(set(vectors)) == f.q ** W.t
        nonzero = {pspace.normalize_point(v, f.q) for v in vectors if any(v)}
        assert nonzero == set(subspace_points(W))


PACKING_FRAMES = [(2, 2, 4, 1), (2, 2, 4, 2), (3, 2, 2, 1), (2, 3, 2, 1), (3, 3, 2, 1),
                  (3, 5, 2, 1)]


class TestPacking:
    @pytest.mark.parametrize("params", PACKING_FRAMES, ids=lambda params: "-".join(map(str, params)))
    def test_packed_points_round_trip(self, params):
        # every affine x: star_point(x) packs to sum v_i q^i, which is the
        # frame's packed image of x, and unpacks back to star_point(x)
        f = StarFrame(*params)
        for x in sample_affine_points(f, force=True):
            v = star_point(x, f)
            packed = f.pack(v)
            assert packed == sum(c * f.q ** i for i, c in enumerate(v)) == f.packed_point(x)
            assert f.unpack(packed) == v

    @pytest.mark.parametrize("params", PACKING_FRAMES, ids=lambda params: "-".join(map(str, params)))
    def test_packed_addition_is_vector_addition(self, params):
        # all pairs of vectors of each spread element, against the GF(q)
        # sum taken coefficient by coefficient
        f = StarFrame(*params)
        small = field_for(f.q)

        def entry_sum(a, b):
            return small.from_coeffs(tuple((x + y) % f.p
                                           for x, y in zip(small.coeffs(a), small.coeffs(b))))
        for S in f.spread:
            vectors = bruckbose._vectors(S)
            for v, w in itertools.product(vectors, repeat=2):
                total = tuple(map(entry_sum, v, w))
                assert f.add_packed(f.pack(v), f.pack(w)) == f.pack(total)


# a p = 2 and a p = 3 frame of PG(1, p^h) over GF(p), with exponents k, l:
# coords(mu^k) is replaced by coords(mu^l).  mu^k is not 1, mu, ...,
# mu^(h-1), the only elements whose coords the spread reads, and not in
# GF(p), the subgroup the coset check takes
PLANTED = [((2, 2, 4, 1), 5, 6), ((2, 3, 2, 1), 3, 5)]


class TestPlantedFaultsOnThePackedPath:
    @pytest.mark.parametrize("params, wrong, other", PLANTED, ids=["p2", "p3"])
    def test_wrong_coords_before_the_frame_is_built(self, params, wrong, other, monkeypatch):
        # coords(mu^wrong) replaced by coords(mu^other) before the frame and
        # its blocks exist: both checks meet it and raise
        r, p, h, n = params
        t = make_field(p, h)
        real = type(t).coords
        wrong_el, bad = t.pow(t.mu, wrong), real(t, t.pow(t.mu, other), n)

        def coords(self, a, n):
            return bad if self is t and a == wrong_el else real(self, a, n)

        monkeypatch.setattr(type(t), "coords", coords)
        f = StarFrame(*params)
        H = group_from_elements(t, (1,))
        with pytest.raises(VerificationError) as exc:
            common_intersection_check(H, f, sample_affine_points(f))
        assert str(exc.value) == "orbit geometry check failed"
        with pytest.raises(VerificationError) as exc:
            incidence_check(f, sample_line_specs(f))
        assert str(exc.value) == "incidence check failed"

    @pytest.mark.parametrize("params", [params for params, _, _ in PLANTED], ids=["p2", "p3"])
    @pytest.mark.parametrize("digit", ["leading", "last"])
    def test_addition_that_drops_a_digit_fails(self, params, digit, monkeypatch):
        # the packed sum loses its lowest base-p digit (the leading entry's)
        # or its highest (the last block's); the subgroup is the whole field,
        # so the orbit's vectors, like the line's, fill the last block
        f = StarFrame(*params)
        t = f.tower
        top = f.p ** (f.vecdim * f.n - 1)
        real = f.add_packed
        drop = {"leading": lambda s: s - s % f.p, "last": lambda s: s % top}[digit]
        monkeypatch.setattr(f, "add_packed", lambda a, b: drop(real(a, b)))
        H = group_from_elements(t, range(t.order))
        with pytest.raises(VerificationError) as exc:
            common_intersection_check(H, f, sample_affine_points(f))
        assert str(exc.value) == "orbit geometry check failed"
        with pytest.raises(VerificationError) as exc:
            incidence_check(f, sample_line_specs(f))
        assert str(exc.value) == "incidence check failed"


class TestFailureKinds:
    def test_too_few_orbit_images_are_not_an_affine_subspace(self, monkeypatch):
        # the largest element left out of every orbit: the other three still
        # span x* and the section
        f = StarFrame(2, 2, 4, 1)
        t = f.tower
        H = group_from_elements(t, (0, 1, t.mu, t.add(1, t.mu)))
        real = elation.ElationGroup.elements
        monkeypatch.setattr(elation.ElationGroup, "elements", lambda self: real(self)[:-1])
        with pytest.raises(VerificationError) as exc:
            common_intersection_check(H, f, [(1, 0)])
        assert exc.value.details["kind"] == "orbit image is not an affine subspace"
        assert exc.value.details["point"] == [1, 0]

    def test_too_few_line_images_are_missing_affine_points(self, monkeypatch):
        # PG(1,4) over GF(2): the line's last affine point left out, the
        # other three still span P* and the spread element
        f = StarFrame(2, 2, 2, 1)
        real = pspace.subspace_points
        monkeypatch.setattr(pspace, "subspace_points", lambda X: real(X)[:-1])
        with pytest.raises(VerificationError) as exc:
            incidence_check(f, [((1, 0), (1, 1))])
        assert exc.value.details["kind"] == "line image is missing affine points"


def count_rref(monkeypatch):
    calls = [0]
    real = linalg.rref

    def counted(rows, field):
        calls[0] += 1
        return real(rows, field)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


class TestWork:
    def test_rref_calls_do_not_grow_with_orbits(self, monkeypatch):
        # one orbit or all 8 of a subgroup of order 2 in GF(16): the same
        # linear algebra, all of it for the center section
        f = StarFrame(2, 2, 4, 1)
        H = group_from_elements(f.tower, (0, 1))
        sample = sample_affine_points(f)
        closures = count_closures(monkeypatch)
        rref = count_rref(monkeypatch)
        counts = []
        for points in (sample[:1], sample):
            rref[0] = 0
            closures.clear()
            assert common_intersection_check(H, f, points) is True
            counts.append((len(closures), rref[0]))
        (one, one_rref), (eight, eight_rref) = counts
        assert (one, eight) == (1, 8)
        assert one_rref == eight_rref


    def test_star_model_checks_each_sample_point_affine_once(self, monkeypatch):
        # star_point checks its own argument; apart from that, each sample
        # point is checked once, not once per subgroup
        calls = {"_affine": 0, "star_point": 0}
        for name in calls:
            real = getattr(bruckbose, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(bruckbose, name, counted)
        report = verify_star_model(2, 2, 4, 1)
        assert report["orders"][0]["subgroups"] > 1
        assert calls["_affine"] == report["sample"]["affine_points"] + calls["star_point"]

    def test_star_model_lists_points_once_per_distinct_line(self, monkeypatch):
        # PG(1,16): one spread element for the frame's partition check, and
        # one line for the 136 sampled pairs
        calls = []
        real = pspace.subspace_points
        monkeypatch.setattr(pspace, "subspace_points", lambda X: calls.append(X) or real(X))
        report = verify_star_model(2, 2, 4, 1)
        assert report["sample"]["line_specs"] == 136
        assert len(calls) == 2

    def test_star_model_derives_no_center_section(self, monkeypatch):
        # each pulled-back subgroup is checked against the subspace it came from
        def forbidden(*args):
            raise AssertionError("center section derived")

        monkeypatch.setattr(elation, "subspace_of_center", forbidden)
        for frame in [*selftest.STAR_CASES, (2, 2, 8, 4)]:
            assert verify_star_model(*frame)["ok"] is True

    def test_line_points_reuse_one_coefficient_list(self, monkeypatch):
        # every line of PG(2,4) lists its points as cosets of its rows, with no
        # list of coefficient vectors
        f = StarFrame(3, 2, 2, 1)
        specs = sample_line_specs(f, force=True)
        calls = []
        real = pspace.enumerate_points
        monkeypatch.setattr(pspace, "enumerate_points",
                            lambda s, q: calls.append((s, q)) or real(s, q))
        assert incidence_check(f, specs) is True
        assert calls == []


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

    def test_same_coset_other_heads_give_one_check(self, monkeypatch):
        # (1, mu, 5) and (1, 0, 5) lie in different orbits, but their last
        # coordinates share an E-coset, so the first check covers both; a
        # last coordinate off that coset is checked again
        f = plane_frame()
        t = f.tower
        H = group_from_elements(t, t.subfield_elements(2))
        calls = count_closures(monkeypatch)
        coset = {t.add(5, lam) for lam in H.elements()}
        other = min(set(t.elements()) - coset)
        x, y, z, w = (1, t.mu, 5), (1, 0, 5), (1, 0, t.add(5, max(H.elements()))), (1, t.mu, other)
        assert common_intersection_check(H, f, [x, y, z, w]) is True
        assert calls == [x, w]

    def test_non_affine_point_in_a_checked_coset_rejected(self, monkeypatch):
        # (0, 1) and (1, 0, 1) have last coordinate 1, in the coset {0, 1}
        # that (1, 0) has already checked; both are still rejected
        f = StarFrame(2, 2, 2, 1)
        H = group_from_elements(f.tower, (0, 1))
        calls = count_closures(monkeypatch)
        for bad in [(0, 1), (1, 0, 1)]:
            with pytest.raises(ValueError):
                common_intersection_check(H, f, [(1, 0), bad])
        assert calls == [(1, 0), (1, 0)]

    @pytest.mark.parametrize("wrong", range(4))
    def test_one_wrong_coords_value_is_caught(self, wrong, monkeypatch):
        # coords(wrong) replaced by the coords of another nonzero element of
        # GF(4) in a frame that has not yet cached its blocks: an exhaustive
        # sample still meets it in a failing coset check
        f, fresh = StarFrame(3, 2, 2, 1), StarFrame(3, 2, 2, 1)
        t = f.tower
        sample = sample_affine_points(f)
        assert len(sample) == 16
        subgroups = [H for m in admissible_orders(f.h, f.n) for H in enumerate_subgroups(f.p, f.h, m)]
        for H in subgroups:
            assert common_intersection_check(H, f, sample) is True
        real = type(t).coords
        bad = real(t, 1 if wrong != 1 else 2, 1)

        def coords(self, a, n):
            return bad if self is t and a == wrong else real(self, a, n)

        monkeypatch.setattr(type(t), "coords", coords)
        with pytest.raises(VerificationError) as exc:
            for H in subgroups:
                common_intersection_check(H, fresh, sample)
        assert str(exc.value) == "orbit geometry check failed"


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

    def test_oversized_sample_rejected(self):
        # GF(2^13) has 8192 affine points of PG(1, 2^13), fewer than asked
        f = StarFrame(2, 2, 13, 1)
        assert EXHAUSTIVE_LIMIT < f.affine_count == 8192
        with pytest.raises(ValueError):
            sample_affine_points(f, size=f.affine_count + 1)
        assert sorted(sample_affine_points(f, size=f.affine_count)) == \
            [(1, x) for x in range(f.affine_count)]

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


def filtered_subgroups(p, h, n, m):
    """The subgroups verify_star_model checked before it pulled them back:
    every order-p^m subgroup that dimension_profile finds GF(p^n)-closed."""
    return [H.rows for H in enumerate_subgroups(p, h, m)
            if dimension_profile(H).minimal_n % n == 0]


PULLBACK_CASES = [(p, h, n, m) for p in range(2, 257) if is_prime(p)
                  for h in range(1, 9) if p**h <= 256
                  for n in divisors(h) for m in range(n, h + 1, n)
                  if gaussian_binomial(h, m, p) <= 20000]


class TestPullBack:
    @pytest.mark.parametrize("p,h,n,m", PULLBACK_CASES)
    def test_checked_subgroups_are_the_filtered_ones(self, p, h, n, m, monkeypatch):
        # the subgroups whose cosets are checked, each with the center
        # section it is handed, against the old filter; lines are not checked
        checked = []

        def record(E, section, frame, points):
            assert section == subspace_of_center(E, n)
            checked.append(E.rows)
            return True

        monkeypatch.setattr(bruckbose, "_check_cosets", record)
        monkeypatch.setattr(bruckbose, "incidence_check", lambda frame, specs: True)
        report = verify_star_model(2, p, h, n, m=m)
        assert len(set(checked)) == len(checked) == report["orders"][0]["subgroups"]
        assert sorted(checked) == sorted(filtered_subgroups(p, h, n, m))

    def test_no_subgroup_list_and_no_profile(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("GF(p)-subgroup filter reached")

        monkeypatch.setattr(elation, "enumerate_subgroups", forbidden)
        monkeypatch.setattr(elation, "dimension_profile", forbidden)
        for frame in selftest.STAR_CASES:
            assert verify_star_model(*frame)["ok"] is True

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 0), (2, 6), (2, -2), (1, 5), (0, 2)])
    def test_explicit_order_checked_before_the_frame(self, n, m, monkeypatch):
        # m // n would round a bad m down to an admissible order
        def no_frame(*args):
            raise AssertionError("frame built for an inadmissible order")

        monkeypatch.setattr(bruckbose, "StarFrame", no_frame)
        with pytest.raises(ValueError, match=f"order exponent {m} is not admissible"):
            verify_star_model(2, 2, 4, n, m=m)

    def test_cap_bounds_the_center_sections(self):
        # GF(256) over GF(4): 357 lines of PG(3, 4) exceed 300, though the
        # 257 points of the line sample do not; over GF(16), 17 points of
        # PG(1, 16) stand for 200,787 subgroups of order 2^4
        with pytest.raises(CapExceeded, match="357 subspaces exceed cap 300"):
            verify_star_model(2, 2, 8, 2, m=4, cap=300)
        report = verify_star_model(2, 2, 8, 4, cap=300)
        assert [row["subgroups"] for row in report["orders"]] == [17, 1]
