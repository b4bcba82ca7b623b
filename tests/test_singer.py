"""Tests for the cyclic collineation group and its subspace orbit census.

The census is cross-checked against an independent partition oracle
that acts on explicit point sets instead of canonical bases, and the
observed orbit counts are compared with the closed-form predictions.
"""

import gc
from collections import Counter

import pytest

from galela import (
    CapExceeded,
    SingerGroup,
    VerificationError,
    act,
    enumerate_subspaces,
    equivalence_classes,
    gaussian_binomial,
    is_spread,
    log_set,
    orbit_census,
    predicted_free_orbit_count,
    predicted_orbit_count,
    rotate,
    span,
    subspace_points,
    theta,
)
from galela import elation, gf, pspace, singer
from galela.combinat import divisors, prime_power
from galela.gf import make_field
from galela.linalg import matvec
from galela.pspace import Subspace, normalize_point, subspace_groups
from galela.selftest import CENSUS_CASES
from galela.singer import OrbitRecord, _walk_orbit, orbit_partition, span_log_sets, walk_orbits


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
    S = SingerGroup(s, q)

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

    def test_rotation_walk_covers_every_position_evenly(self):
        # the identity orbit_census relies on instead of tallying covers: a
        # width-bit set whose walk under rotate has length L holds each
        # position in L * popcount / width of the walk's members
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.data())
        def check(data):
            width = data.draw(st.integers(1, 64), label="width")
            period = data.draw(st.sampled_from(divisors(width)), label="period")
            pattern = data.draw(st.integers(0, (1 << period) - 1), label="pattern")
            bits = sum(pattern << k for k in range(0, width, period))
            walk = _walk_orbit(bits, lambda x: rotate(x, width))
            cover = Counter(k for x in walk for k in range(width) if x >> k & 1)
            degree, rest = divmod(len(walk) * bits.bit_count(), width)
            assert rest == 0
            assert [cover[k] for k in range(width)] == [degree] * width

        check()


def act_times(S, X, k):
    """X after k applications of act."""
    for _ in range(k):
        X = act(S, X)
    return X


class TestGenerator:
    def test_small_binary_generator(self):
        S = SingerGroup(2, 2)
        assert S.generator == ((0, 1), (1, 1))
        assert S.projective_order == 3

    def test_projective_order(self):
        assert SingerGroup(4, 2).projective_order == 15
        assert SingerGroup(2, 4).projective_order == 5
        assert SingerGroup(3, 4).projective_order == 21
        assert SingerGroup(6, 2).projective_order == 63

    @pytest.mark.parametrize("s,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 4)])
    def test_transitive_on_points(self, s, q):
        S = SingerGroup(s, q)
        pt = (1,) + (0,) * (s - 1)
        seen = set()
        for _ in range(S.projective_order):
            seen.add(pt)
            pt = normalize_point(matvec(S.generator, pt, S.field), q)
        assert len(seen) == theta(s, q)

    def test_generator_invertible(self):
        # order of the matrix in PGL equals the point cycle length
        S = SingerGroup(3, 2)
        X = span(((1, 0, 0),), 2)
        walk = [act_times(S, X, k) for k in range(1, S.projective_order + 1)]
        assert walk[-1] == X
        assert X not in walk[:-1]

    def test_rejects_degenerate_dimension(self):
        with pytest.raises(ValueError):
            SingerGroup(0, 2)


class TestAction:
    def test_identity_power(self):
        # the generator's theta(s,q)-th power fixes X, and no smaller power
        # does: the line <e0, e1> of PG(3,2) is not in the line spread's orbit
        S = SingerGroup(4, 2)
        X = span(((1, 0, 0, 0), (0, 1, 0, 0)), 2)
        assert act_times(S, X, 0) == X
        walk = [act_times(S, X, k) for k in range(1, S.projective_order + 1)]
        assert walk[-1] == X
        assert X not in walk[:-1]

    def test_action_composes(self):
        # seven steps of act rotate the log set by seven
        S = SingerGroup(4, 2)
        X = span(((1, 0, 1, 0), (0, 1, 1, 1)), 2)
        bits = log_set(S, X)
        for _ in range(7):
            bits = rotate(bits, S.projective_order)
        assert act_times(S, act_times(S, X, 3), 4) == act_times(S, X, 7)
        assert log_set(S, act_times(S, X, 7)) == bits

    def test_action_preserves_dimension(self):
        S = SingerGroup(4, 3)
        X = span(((1, 0, 0, 2), (0, 1, 1, 0)), 3)
        assert act(S, X).t == X.t

    def test_action_matches_pointwise_map(self):
        S = SingerGroup(4, 2)
        X = span(((1, 0, 1, 1), (0, 1, 0, 1)), 2)
        Y = act(S, X)
        mapped = {
            normalize_point(matvec(S.generator, v, S.field), 2)
            for v in subspace_points(X)
        }
        assert set(subspace_points(Y)) == mapped


class TestOrbit:
    def test_short_orbit_is_spread(self):
        census = orbit_census(4, 2, 2)
        assert [rec.size for rec in census.orbits if rec.u == 2] == [5]
        assert is_spread(spread_members(census))


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

    def test_default_cap_applies_without_cap(self, monkeypatch):
        # the lines of PG(3,2) are 35, [4 choose 2]_2, though only 7 lie in the hyperplane
        monkeypatch.setattr(pspace, "DEFAULT_SUBSPACE_CAP", 10**9)
        monkeypatch.setattr(singer, "DEFAULT_CENSUS_CAP", 34)
        with pytest.raises(CapExceeded, match="35 subspaces exceed cap 34"):
            orbit_census(4, 2, 2)
        monkeypatch.setattr(singer, "DEFAULT_CENSUS_CAP", 35)
        monkeypatch.setattr(pspace, "DEFAULT_SUBSPACE_CAP", 1)
        assert len(orbit_census(4, 2, 2).orbits) == 3

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

    # in (4,2,5) the spread orbit's representative is not the greatest, so
    # the census order (u, representative) differs from the order of the walks
    @pytest.mark.parametrize("s,t,q", CENSUS_CASES + ((4, 2, 5),))
    def test_representatives_lead_their_matrix_walks(self, s, t, q):
        census = orbit_census(s, t, q)
        for i, rec in enumerate(census.orbits):
            members = census.orbit_members(i)
            assert members[0] == rec.representative
            assert rec.representative.basis == min(X.basis for X in members)
            assert [census.orbit_index(X) for X in members] == [i] * rec.size

    def test_census_keeps_only_its_representatives(self):
        gc.collect()
        before = sum(isinstance(obj, Subspace) for obj in gc.get_objects())
        census = orbit_census(6, 3, 2)
        gc.collect()
        after = sum(isinstance(obj, Subspace) for obj in gc.get_objects())
        assert after - before <= len(census)

    def test_census_keeps_no_subspace_points(self):
        orbit_census(4, 2, 2)
        assert subspace_points.cache_info().currsize == 0

    @pytest.mark.parametrize("s,t,q", [(4, 2, 2), (4, 2, 3), (6, 2, 2), (6, 3, 2)])
    def test_subfield_orbits_match_the_smaller_census(self, s, t, q):
        # the orbits with d | u are the Singer orbits of PG(s/d - 1, q^d),
        # those with u = d its free orbits
        census = orbit_census(s, t, q)
        for d in range(1, t + 1):
            if s % d or t % d:
                continue
            small = orbit_census(s // d, t // d, q**d)
            assert sum(r.u % d == 0 for r in census.orbits) == len(small.orbits)
            assert sum(r.u == d for r in census.orbits) == sum(r.u == 1 for r in small.orbits)

    def test_orbits_sorted_by_u_then_representative(self):
        census = orbit_census(6, 2, 2)
        keys = [(r.u, r.representative.basis) for r in census.orbits]
        assert keys == sorted(keys)


class IterCountingList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def fresh_field(monkeypatch, p, h):
    """A new GF(p^h), cached in place of the canonical one, its exp passes counted.

    The Zech table is built, and checked against add, in one pass over
    exp; nothing else in a census or a classification iterates over exp.
    """
    fresh = gf.FieldTower(p, h)
    fresh.exp = IterCountingList(fresh.exp)
    monkeypatch.setitem(gf._CACHE, (p, h), fresh)
    return fresh


class TestZechCheck:
    def test_two_censuses_over_one_field_check_it_once(self, monkeypatch):
        fresh = fresh_field(monkeypatch, 2, 4)
        orbit_census(4, 2, 2)
        orbit_census(4, 2, 2)
        assert fresh.exp.passes == 1

    def test_a_fresh_field_is_checked_again(self, monkeypatch):
        # the cached GF(16) passes; a new field object of the same order with
        # log[3] = 1 builds zech[1] = log(1 + mu) = 1, which the lines inside
        # x_0 = 0 never read
        orbit_census(4, 2, 2)
        fresh = fresh_field(monkeypatch, 2, 4)
        fresh.log[3] = 1
        with pytest.raises(VerificationError, match="Zech table differs") as caught:
            orbit_census(4, 2, 2)
        assert caught.value.details == {"field": (2, 4), "k": 1, "zech": 1, "one_plus_mu_k": 3}

    def test_every_reader_of_the_table_gets_a_checked_one(self, monkeypatch):
        # zech[0] = log(1 + 1) is the only entry that reads log[2], and no
        # basis of independent rows reads zech[0]: the point counts pass, so
        # only the check at the build sees the fault, before either log_set
        fresh = fresh_field(monkeypatch, 3, 3)
        S = SingerGroup(3, 3)
        X = span(((1, 0, 0), (0, 1, 0)), 3)
        H = elation.ElationGroup(fresh, X.basis)
        fresh.log[2] = 0
        with pytest.raises(VerificationError, match="Zech table differs"):
            log_set(S, X)
        with pytest.raises(VerificationError, match="Zech table differs"):
            elation.log_set(H)


class TestClassZechCheck:
    """TestZechCheck for the scalar classes, which stream through the same table."""

    def test_two_classifications_over_one_field_check_it_once(self, monkeypatch):
        fresh = fresh_field(monkeypatch, 2, 4)
        equivalence_classes(2, 4, 2)
        equivalence_classes(2, 4, 2)
        assert fresh.exp.passes == 1

    def test_a_fresh_field_is_checked_again(self, monkeypatch):
        # log[2] = 0 builds zech[0] = 0, which says 1 + 1 = 1; no basis of
        # independent rows reads zech[0], so only the check at the build sees it
        equivalence_classes(3, 2, 2)
        fresh = fresh_field(monkeypatch, 3, 2)
        fresh.log[2] = 0
        with pytest.raises(VerificationError, match="Zech table differs") as caught:
            equivalence_classes(3, 2, 2)
        assert caught.value.details == {"field": (3, 2), "k": 0, "zech": 0, "one_plus_mu_k": 2}


@pytest.mark.parametrize("s,t,q", CENSUS_CASES + ((3, 1, 9),))
class TestLogCoordinates:
    """The census's log sets and rotation against the matrix action."""

    def test_log_table_is_the_field_log(self, s, t, q):
        # the companion matrix multiplies by mu: v_0 + v_1 mu + ... is mu^log(v)
        S = SingerGroup(s, q)
        n = S.field.h
        big = make_field(S.field.p, n * s)
        for v, k in S.log.items():
            x = 0
            for i, c in enumerate(v):
                if c:
                    x = big.add(x, big.mul(big.from_subfield(c, n), big.pow(big.mu, i)))
            assert big.log[x] == k

    def test_generator_is_the_companion_matrix(self, s, t, q):
        # the companion matrix of mu's minimal polynomial over GF(q)
        S = SingerGroup(s, q)
        n = S.field.h
        big = make_field(S.field.p, n * s)
        mpoly = big.minimal_polynomial(big.mu, n)
        assert len(mpoly) == s + 1
        companion = [[int(i == j + 1) for j in range(s - 1)] for i in range(s)]
        for i in range(s):
            companion[i].append(S.field.neg(big.to_subfield(mpoly[i], n)))
        assert S.generator == tuple(map(tuple, companion))

    def test_log_sets_are_point_logs(self, s, t, q):
        S = SingerGroup(s, q)
        for X in enumerate_subspaces(s, t, q):
            logs = {S.log[pt] % S.projective_order for pt in subspace_points(X)}
            assert log_set(S, X) == sum(1 << k for k in logs)

    def test_rotation_is_the_generator(self, s, t, q):
        S = SingerGroup(s, q)
        for X in enumerate_subspaces(s, t, q):
            assert rotate(log_set(S, X), S.projective_order) == log_set(S, act(S, X))

    def test_census_equals_matrix_walk(self, s, t, q):
        S = SingerGroup(s, q)
        walks = orbit_partition(enumerate_subspaces(s, t, q), lambda X: act(S, X))
        expected = []
        for walk in walks:
            (u,) = [u for u in range(1, t + 1) if len(walk) * theta(u, q) == theta(s, q)]
            rec = OrbitRecord(min(walk, key=lambda X: X.basis), len(walk), u)
            expected.append((rec, frozenset(walk)))
        expected.sort(key=lambda pair: (pair[0].u, pair[0].representative.basis))
        census = orbit_census(s, t, q)
        got = [(rec, frozenset(census.orbit_members(i))) for i, rec in enumerate(census.orbits)]
        assert got == expected


def census_log_sets(S, groups):
    """span_log_sets of (prefix, rows) groups, flattened to one log set per basis."""
    return [bits for _, _, sets in span_log_sets(groups, S.log.__getitem__, S.big,
                                                 S.projective_order, lambda basis: {"basis": basis})
            for bits in sets]


def groups_of_one(bases):
    return [(basis[:-1], basis[-1:]) for basis in bases]


class CountingList(list):
    """A list that counts its reads by index."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


class TestBatchLogSets:
    @pytest.mark.parametrize("s,t,q", CENSUS_CASES)
    def test_batch_equals_one_call_per_subspace(self, s, t, q):
        S = SingerGroup(s, q)
        fam = enumerate_subspaces(s, t, q)
        one_by_one = [log_set(S, X) for X in fam]
        assert census_log_sets(S, subspace_groups(s, t, q)) == one_by_one
        assert census_log_sets(S, groups_of_one([X.basis for X in fam])) == one_by_one
        assert census_log_sets(S, groups_of_one([X.basis for X in reversed(fam)])) == \
            one_by_one[::-1]

    def test_shuffled_family_gives_the_same_sets(self):
        S = SingerGroup(6, 2)
        fam = enumerate_subspaces(6, 3, 2)
        order = sorted(range(len(fam)), key=lambda i: (i * 7919) % len(fam))
        sets = census_log_sets(S, groups_of_one([X.basis for X in fam]))
        assert census_log_sets(S, groups_of_one([fam[i].basis for i in order])) == \
            [sets[i] for i in order]

    @pytest.mark.parametrize("call,first", [(lambda: orbit_census(6, 3, 2), 1),
                                            (lambda: equivalence_classes(2, 6, 3), 0)],
                             ids=["census", "classes"])
    def test_each_shared_prefix_is_expanded_once(self, call, first, monkeypatch):
        # pushing a row onto a d-row prefix reads zech once per nonzero
        # vector of the prefix, (q-1) theta(d,q) times; the last row is
        # pushed for every basis, the others once per distinct prefix, over
        # the bases streamed: those whose first pivot is at least first,
        # inside the hyperplane x_0 = 0 for the census, all for the classes
        s, t, q = 6, 3, 2
        big = make_field(2, 6)
        counting = CountingList(big.zech)
        monkeypatch.setattr(big, "_zech", counting)
        fam = [X for X in enumerate_subspaces(s, t, q) if not any(X.basis[0][:first])]
        assert len(fam) == gaussian_binomial(s - first, t, q)
        expected = sum(len({X.basis[:d + 1] for X in fam}) * (q - 1) * theta(d, q)
                       for d in range(t - 1)) + len(fam) * (q - 1) * theta(t - 1, q)
        call()
        assert counting.reads == expected

    @pytest.mark.parametrize("call,first", [(lambda: orbit_census(6, 3, 2), 1),
                                            (lambda: equivalence_classes(2, 6, 3), 0)],
                             ids=["census", "classes"])
    def test_last_rows_are_logged_once_per_pivot_list(self, call, first, monkeypatch):
        # rowlog (S.log in the census, the tower's log of from_coeffs in the
        # classes) runs once per pushed prefix row, counted as in the test
        # above, and once per row of each pivot list a last row can come
        # from, pivots t-1+first ... s-1: theta(s-t+1-first, q) rows, not one
        # per subspace
        s, t, q = 6, 3, 2
        calls = 0
        real = singer.span_log_sets

        def counting(groups, rowlog, *rest):
            def counted(row):
                nonlocal calls
                calls += 1
                return rowlog(row)
            return real(groups, counted, *rest)

        monkeypatch.setattr(singer, "span_log_sets", counting)
        fam = [X for X in enumerate_subspaces(s, t, q) if not any(X.basis[0][:first])]
        pushed = sum(len({X.basis[:d + 1] for X in fam}) for d in range(t - 1))
        call()
        assert calls == pushed + theta(s - t + 1 - first, q)
        assert calls <= pushed + theta(s, q) < pushed + len(fam)


def full_stream_walk(groups, s, t, q):
    """The orbit walk over every subspace's log set, the stream before the hyperplane slice.

    groups are span_log_sets' groups of the whole sorted family; every
    walked log set is indexed.  Returns (u, size, first basis) per orbit, in
    order of the first basis.
    """
    width = theta(s, q)
    pairs = ((bits, prefix + (row,)) for prefix, rows, sets in groups
             for row, bits in zip(rows, sets))
    index, firsts = walk_orbits(pairs, lambda bits: rotate(bits, width))
    assert len(index) == gaussian_binomial(s, t, q)
    out = []
    for basis, size, _ in firsts:
        (u,) = [u for u in divisors(s) if t % u == 0 and size * theta(u, q) == width]
        out.append((u, size, basis))
    return out


def prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


CENSUS_BOX = [(s, t, q) for q in prime_powers(256) for s in range(1, 9) if q**s <= 256
              for t in range(1, s + 1)]
CLASS_BOX = [(p, h, m) for p in prime_powers(256) if prime_power(p)[1] == 1
             for h in range(1, 9) if p**h <= 256 for m in range(1, h + 1)]


class TestHyperplaneSlice:
    """The census streams only the subspaces inside one hyperplane; the classes
    stream every subgroup, and their walk is compared with the same oracle."""

    @pytest.mark.parametrize("s,t,q", CENSUS_BOX)
    def test_census_equals_the_full_stream_walk(self, s, t, q):
        S = SingerGroup(s, q)
        groups = singer._census_log_sets(S, subspace_groups(s, t, q))
        expected = sorted(full_stream_walk(groups, s, t, q))
        got = [(r.u, r.size, r.representative.basis) for r in orbit_census(s, t, q).orbits]
        assert got == expected

    @pytest.mark.parametrize("p,h,m", CLASS_BOX)
    def test_classes_equal_the_full_stream_walk(self, p, h, m):
        groups = elation._class_log_sets(make_field(p, h), subspace_groups(h, m, p))
        expected = full_stream_walk(groups, h, m, p)
        got = [(c.profile.minimal_n, c.size, c.representative.rows)
               for c in equivalence_classes(p, h, m)]
        assert got == expected

    @pytest.mark.parametrize("s,t,q", [(4, 2, 2), (6, 3, 2), (4, 2, 3)])
    def test_orbit_index_agrees_with_the_matrix_walk(self, s, t, q):
        census = orbit_census(s, t, q)
        fam = enumerate_subspaces(s, t, q)
        assert any(X.basis[0][0] for X in fam)  # some lie outside x_0 = 0
        walks = orbit_partition(fam, lambda X: act(census.singer, X))
        hit = []
        for walk in walks:
            (i,) = {census.orbit_index(X) for X in walk}
            assert census.orbits[i].representative in walk
            hit.append(i)
        assert sorted(hit) == list(range(len(census)))

    def test_orbit_index_rejects_a_subspace_of_another_dimension(self):
        census = orbit_census(4, 2, 2)
        with pytest.raises(ValueError):
            census.orbit_index(span(((1, 0, 0, 0),), 2))

    @pytest.mark.parametrize("s,t,q", [(4, 2, 2), (5, 2, 2), (6, 3, 2), (4, 2, 3), (3, 3, 2)])
    def test_census_expands_the_hyperplane_only(self, s, t, q, monkeypatch):
        # the log sets span_log_sets yields, one count per call
        real = singer.span_log_sets
        expanded = []

        def counting(*args):
            expanded.append(0)
            for prefix, rows, sets in real(*args):
                expanded[-1] += len(sets)
                yield prefix, rows, sets

        monkeypatch.setattr(singer, "span_log_sets", counting)
        orbit_census(s, t, q)
        assert expanded == [gaussian_binomial(s - 1, t, q) if t < s else 1]


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
