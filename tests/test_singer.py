"""Tests for the cyclic collineation group and its subspace orbit census.

The census is cross-checked against an independent partition oracle
that acts on explicit point sets instead of canonical bases, and the
observed orbit counts are compared with the closed-form predictions.
"""

from collections import Counter

import pytest

from galela import (
    VerificationError,
    act,
    enumerate_subspaces,
    gaussian_binomial,
    is_spread,
    orbit,
    orbit_census,
    predicted_free_orbit_count,
    predicted_orbit_count,
    singer_generator,
    span,
    subspace_points,
    theta,
)
from galela.linalg import matvec
from galela.pspace import normalize_point
from galela.singer import orbit_partition


def spread_members(census):
    """Members of the census's one orbit with u == t, its spread."""
    (i,) = [i for i, rec in enumerate(census.orbits) if rec.u == census.t]
    return census.orbit_members(i)


def oracle_orbit_partition(s, t, q):
    """Partition the t-subspaces into generator orbits via point sets.

    Each subspace is tracked as the frozenset of its projective points;
    the generator maps point sets to point sets, so no canonical form
    is involved.  Returns the sorted list of orbit sizes.
    """
    S = singer_generator(s, q)

    def image(ptset):
        return frozenset(
            normalize_point(matvec(S.generator, v, S.field), q) for v in ptset
        )

    remaining = {
        frozenset(subspace_points(X))
        for X in enumerate_subspaces(s, t, q)
    }
    sizes = []
    while remaining:
        start = next(iter(remaining))
        block = set()
        cur = start
        while cur not in block:
            block.add(cur)
            cur = image(cur)
        assert block <= remaining
        remaining -= block
        sizes.append(len(block))
    return sorted(sizes)


class TestOrbitPartition:
    def test_explicit_permutation(self):
        # (0 3 5)(1)(2 4) on 0..5: each orbit is led by its least member
        perm = {0: 3, 3: 5, 5: 0, 1: 1, 2: 4, 4: 2}
        orbits = orbit_partition(range(6), perm.__getitem__)
        assert orbits == [[0, 3, 5], [1], [2, 4]]

    def test_step_leaving_items_raises(self):
        with pytest.raises(VerificationError) as exc:
            orbit_partition([0, 1], lambda x: (x + 1) % 4)
        assert exc.value.details == {"items": 2, "covered": 4, "walked": 4}

    def test_step_that_is_not_a_permutation_raises(self):
        # 3 -> 3 never returns to 0, so an unchecked walk would not end
        calls = []

        def step(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("orbit walk did not stop")
            return min(x + 1, 3)

        with pytest.raises(VerificationError) as exc:
            orbit_partition(range(4), step)
        assert exc.value.details == {"walked": 4}


class TestGenerator:
    def test_small_binary_generator(self):
        S = singer_generator(2, 2)
        assert S.generator == ((0, 1), (1, 1))
        assert S.projective_order == 3

    def test_projective_order(self):
        assert singer_generator(4, 2).projective_order == 15
        assert singer_generator(2, 4).projective_order == 5
        assert singer_generator(3, 4).projective_order == 21
        assert singer_generator(6, 2).projective_order == 63

    @pytest.mark.parametrize("s,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 4)])
    def test_transitive_on_points(self, s, q):
        S = singer_generator(s, q)
        pt = (1,) + (0,) * (s - 1)
        seen = set()
        for _ in range(S.projective_order):
            seen.add(pt)
            pt = normalize_point(matvec(S.generator, pt, S.field), q)
        assert len(seen) == theta(s, q)

    def test_generator_invertible(self):
        # order of the matrix in PGL equals the point cycle length
        S = singer_generator(3, 2)
        X = span(((1, 0, 0),), 2)
        assert act(S, X, S.projective_order) == X

    def test_rejects_degenerate_dimension(self):
        with pytest.raises(ValueError):
            singer_generator(1, 2)


class TestAction:
    def test_identity_power(self):
        S = singer_generator(4, 2)
        X = span(((1, 0, 0, 0), (0, 1, 0, 0)), 2)
        assert act(S, X, 0) == X
        assert act(S, X, S.projective_order) == X

    def test_action_composes(self):
        S = singer_generator(4, 2)
        X = span(((1, 0, 1, 0), (0, 1, 1, 1)), 2)
        assert act(S, act(S, X, 3), 4) == act(S, X, 7)

    def test_action_preserves_dimension(self):
        S = singer_generator(4, 3)
        X = span(((1, 0, 0, 2), (0, 1, 1, 0)), 3)
        assert act(S, X).t == X.t

    def test_action_matches_pointwise_map(self):
        S = singer_generator(4, 2)
        X = span(((1, 0, 1, 1), (0, 1, 0, 1)), 2)
        Y = act(S, X)
        mapped = {
            normalize_point(matvec(S.generator, v, S.field), 2)
            for v in subspace_points(X)
        }
        assert set(subspace_points(Y)) == mapped


class TestOrbit:
    def test_generic_line_orbit(self):
        S = singer_generator(4, 2)
        X = span(((1, 0, 0, 0), (0, 1, 0, 0)), 2)
        rec = orbit(S, X)
        assert rec.size == 15
        assert rec.u == 1

    def test_short_orbit_is_spread(self):
        census = orbit_census(4, 2, 2)
        assert [rec.size for rec in census.orbits if rec.u == 2] == [5]
        assert is_spread(spread_members(census))

    def test_representative_is_minimal(self):
        S = singer_generator(4, 2)
        X = span(((1, 1, 0, 0), (0, 0, 1, 1)), 2)
        rec = orbit(S, X)
        members = [act(S, X, k) for k in range(rec.size)]
        assert rec.representative == min(members, key=lambda Z: Z.basis)


class TestCensus:
    def test_small_binary_census(self):
        census = orbit_census(4, 2, 2)
        assert sorted(r.size for r in census.orbits) == [5, 15, 15]
        assert [r.u for r in census.orbits] == [1, 1, 2]

    def test_census_6_2_2(self):
        census = orbit_census(6, 2, 2)
        sizes = Counter(r.size for r in census.orbits)
        assert sizes == Counter({63: 10, 21: 1})
        assert sum(r.u == 2 for r in census.orbits) == 1

    def test_census_6_3_2(self):
        census = orbit_census(6, 3, 2)
        sizes = Counter(r.size for r in census.orbits)
        assert sizes == Counter({63: 22, 9: 1})
        assert max(r.u for r in census.orbits) == 3

    @pytest.mark.parametrize("s,t,q", [(4, 2, 2), (4, 2, 3), (4, 3, 2), (6, 2, 2)])
    def test_against_point_set_oracle(self, s, t, q):
        census = orbit_census(s, t, q)
        assert sorted(r.size for r in census.orbits) == oracle_orbit_partition(
            s, t, q
        )

    @pytest.mark.parametrize(
        "s,t,q",
        [(2, 1, 2), (3, 1, 3), (4, 2, 2), (4, 2, 3), (5, 2, 2), (6, 4, 2)],
    )
    def test_matches_predictions(self, s, t, q):
        census = orbit_census(s, t, q)
        assert len(census.orbits) == predicted_orbit_count(s, t, q)
        free = sum(1 for r in census.orbits if r.u == 1)
        assert free == predicted_free_orbit_count(s, t, q)

    def test_orbit_sizes_account_for_everything(self):
        census = orbit_census(4, 2, 2)
        assert sum(r.size for r in census.orbits) == gaussian_binomial(4, 2, 2)

    def test_size_times_u_factor(self):
        # each orbit size is theta(s, q) / theta(u, q)
        for s, t, q in [(4, 2, 2), (6, 2, 2), (6, 3, 2)]:
            census = orbit_census(s, t, q)
            for r in census.orbits:
                assert r.size * theta(r.u, q) == theta(s, q)

    def test_orbit_index_and_members(self):
        census = orbit_census(4, 2, 2)
        for i, rec in enumerate(census.orbits):
            members = census.orbit_members(i)
            assert len(members) == rec.size
            assert rec.representative in members
            for X in members:
                assert census.orbit_index(X) == i

    def test_census_keeps_no_subspace_points(self):
        orbit_census(4, 2, 2)
        assert subspace_points.cache_info().currsize == 0

    def test_orbits_sorted_by_u_then_representative(self):
        census = orbit_census(6, 2, 2)
        keys = [(r.u, r.representative.basis) for r in census.orbits]
        assert keys == sorted(keys)


class TestSpreadOrbit:
    def test_line_spread_pg32(self):
        members = spread_members(orbit_census(4, 2, 2))
        assert len(members) == 5
        assert is_spread(members)

    def test_plane_spread_pg52(self):
        census = orbit_census(6, 3, 2)
        assert [rec.size for rec in census.orbits if rec.u == 3] == [9]
        assert is_spread(spread_members(census))


class TestPredictions:
    def test_known_values(self):
        assert predicted_orbit_count(4, 2, 2) == 3
        assert predicted_free_orbit_count(4, 2, 2) == 2
        assert predicted_orbit_count(6, 2, 2) == 11
        assert predicted_free_orbit_count(6, 2, 2) == 10
        assert predicted_orbit_count(6, 3, 2) == 23
        assert predicted_free_orbit_count(6, 3, 2) == 22

    def test_hyperplanes_single_orbit(self):
        for s, q in [(3, 2), (4, 2), (4, 3), (3, 4)]:
            assert predicted_orbit_count(s, 1, q) == 1
            assert predicted_free_orbit_count(s, 1, q) == 1

    def test_counts_positive_and_consistent(self):
        for s in range(2, 7):
            for t in range(1, s):
                for q in (2, 3):
                    total = predicted_orbit_count(s, t, q)
                    free = predicted_free_orbit_count(s, t, q)
                    assert 0 < free <= total
