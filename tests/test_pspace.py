"""Tests for projective space enumeration and subspace lattice operations.

Subspace enumeration is cross-checked against an independent oracle
that collects row spans of all small tuples of vectors as point sets,
and the lattice operations are checked pointwise.
"""

import itertools

import pytest

from galela import (
    CapExceeded,
    VerificationError,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    is_cover,
    is_spread,
    orbit_census,
    span,
    subspace_intersection,
    subspace_points,
    subspace_sum,
    theta,
)
from galela.pspace import (
    Subspace,
    contains,
    field_for,
    normalize_point,
    subspace_bases,
    subspace_groups,
)
from galela import combinat, linalg, pspace
from galela.combinat import factorize


def pattern_bases(s, t, q):
    """Every RREF basis, pivot pattern by pivot pattern.

    The pivots of a t-subspace are an ascending t-set of columns, and its
    basis is free exactly right of each pivot, outside the other pivots.
    """
    for pivots in itertools.combinations(range(s), t):
        choices = []
        for pc in pivots:
            free = [j for j in range(pc + 1, s) if j not in pivots]
            rows = []
            for values in itertools.product(range(q), repeat=len(free)):
                row = [0] * s
                row[pc] = 1
                for j, v in zip(free, values):
                    row[j] = v
                rows.append(tuple(row))
            choices.append(rows)
        yield from itertools.product(*choices)


def prime_powers(limit):
    return [q for q in range(2, limit + 1) if len(factorize(q)) == 1]


def oracle_subspaces(s, t, q):
    """All t-subspaces of GF(q)^s as frozensets of projective points.

    Spans every t-tuple of projective points through explicit closure,
    completely bypassing the RREF machinery.
    """
    field = field_for(q)
    points = enumerate_points(s, q)

    def closure(rows):
        vecs = {(0,) * s}
        for r in rows:
            step = [tuple(field.mul(c, x) for x in r) for c in range(q)]
            vecs = {
                tuple(field.add(u, w) for u, w in zip(v, m))
                for v in vecs
                for m in step
            }
        return vecs

    spans = set()
    for rows in itertools.combinations(points, t):
        vecs = closure(rows)
        if len(vecs) == q**t:
            spans.add(
                frozenset(normalize_point(v, q) for v in vecs if any(v))
            )
    return spans


class TestPoints:
    def test_counts(self):
        assert len(enumerate_points(2, 2)) == 3
        assert len(enumerate_points(3, 2)) == 7
        assert len(enumerate_points(4, 2)) == 15
        assert len(enumerate_points(3, 4)) == 21
        assert len(enumerate_points(2, 16)) == 17

    def test_count_formula(self):
        for s in (1, 2, 3, 4):
            for q in (2, 3, 4, 9):
                assert len(enumerate_points(s, q)) == theta(s, q)

    def test_normalized_and_distinct(self):
        pts = enumerate_points(3, 4)
        assert len(set(pts)) == len(pts)
        for v in pts:
            nz = [c for c in v if c]
            assert nz and nz[0] == 1

    def test_deterministic_order(self):
        assert enumerate_points(3, 2) == enumerate_points(3, 2)

    def test_normalize_point(self):
        # leading nonzero becomes 1, scaling the rest accordingly
        assert normalize_point((0, 1, 1), 2) == (0, 1, 1)
        t = field_for(4)
        v = (t.mu, 1, 0)
        w = normalize_point(v, 4)
        assert w[0] == 1
        assert w == tuple(t.mul(t.inv(t.mu), c) for c in v)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize_point((0, 0, 0), 2)


def combination(start, coeffs, rows, field):
    """start + sum c_i rows_i, one coordinate at a time."""
    out = tuple(start)
    for c, row in zip(coeffs, rows):
        out = tuple(field.add(a, field.mul(c, v)) for a, v in zip(out, row))
    return out


class TestCoset:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_product_order_from_start(self, q):
        # independent, dependent and repeated rows; the start need not lie off their span
        field = field_for(q)
        rowsets = [(), ((1, 0, 2 % q),), ((1, 1, 0), (0, 1, 1)), ((1, 1, 0), (1, 1, 0)),
                   ((0, 1, 1), (1, 0, q - 1), (1, 1, 0))]
        for rows, start in itertools.product(rowsets, [(0, 0, 0), (1, q - 1, 0)]):
            got = linalg.coset(start, rows, field)
            assert got == [combination(start, c, rows, field)
                           for c in itertools.product(field.elements(), repeat=len(rows))]
            assert got[0] == start

    def test_independent_rows_give_each_vector_once(self):
        field = field_for(3)
        got = linalg.coset((2, 0, 1, 0), ((1, 0, 0, 2), (0, 0, 1, 1)), field)
        assert len(got) == len(set(got)) == 9

    @pytest.mark.parametrize("q", prime_powers(256))
    def test_subspace_points_are_the_coefficient_combinations(self, q):
        # every subspace with q^s <= 256 and s <= 6, points in enumerate_points(t, q)'s order
        field, checked = field_for(q), 0
        for s in itertools.takewhile(lambda s: q**s <= 256, range(1, 7)):
            for t in range(1, s + 1):
                for basis in subspace_bases(s, t, q):
                    assert subspace_points(Subspace(q, basis)) == tuple(
                        combination((0,) * s, c, basis, field) for c in enumerate_points(t, q))
                    checked += 1
        assert checked > 0


class TestCanonicalize:
    """span carries every subspace by its canonical RREF basis."""

    def test_known_reduction(self):
        got = span(((1, 1, 0), (0, 1, 1)), 2)
        assert got.basis == ((1, 0, 1), (0, 1, 1))

    def test_idempotent(self):
        X = span(((1, 1, 0), (0, 1, 1)), 2)
        assert span(X.basis, 2) == X

    def test_row_order_irrelevant(self):
        a = span(((1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)), 2)
        b = span(((1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0)), 2)
        assert a == b

    def test_scaled_rows_same_space(self):
        t = field_for(3)
        rows = ((1, 2, 0), (0, 1, 1))
        scaled = tuple(tuple(t.mul(2, c) for c in r) for r in rows)
        assert span(rows, 3) == span(scaled, 3)

    def test_span_drops_dependencies(self):
        X = span(((1, 1, 0), (1, 1, 0), (0, 1, 1)), 2)
        assert X.t == 2


class TestEnumeration:
    def test_counts_match_closed_form(self):
        cases = [(4, 2, 2), (3, 1, 2), (3, 2, 2), (4, 2, 3), (3, 2, 4), (6, 3, 2)]
        for s, t, q in cases:
            fam = enumerate_subspaces(s, t, q)
            assert len(fam) == gaussian_binomial(s, t, q)

    def test_whole_space_unique(self):
        fam = enumerate_subspaces(3, 3, 2)
        assert len(fam) == 1

    @pytest.mark.parametrize("s,t,q", [(3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3)])
    def test_against_span_oracle(self, s, t, q):
        fam = enumerate_subspaces(s, t, q)
        expected = oracle_subspaces(s, t, q)
        got = {frozenset(subspace_points(X)) for X in fam}
        assert got == expected

    def test_members_sorted_and_distinct(self):
        fam = enumerate_subspaces(4, 2, 2)
        assert list(fam) == sorted(fam, key=lambda X: X.basis)
        assert len(set(fam)) == len(fam)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            enumerate_subspaces(6, 3, 2, cap=100)

    @pytest.mark.parametrize("q", prime_powers(256))
    def test_stream_is_the_sorted_pattern_enumeration(self, q):
        # every (s, t, q) with q^s <= 256
        s = 1
        while q**s <= 256:
            for t in range(1, s + 1):
                stream = list(subspace_bases(s, t, q))
                assert stream == sorted(pattern_bases(s, t, q))
                assert stream == [X.basis for X in enumerate_subspaces(s, t, q)]
            s += 1

    @pytest.mark.parametrize("q", prime_powers(256))
    def test_group_stream_flattens_to_the_bases(self, q):
        # every (s, t, q) with q^s <= 256
        s = 1
        while q**s <= 256:
            for t in range(1, s + 1):
                groups = list(subspace_groups(s, t, q))
                flat = [prefix + (row,) for prefix, rows in groups for row in rows]
                assert flat == list(subspace_bases(s, t, q)) == sorted(pattern_bases(s, t, q))
                assert all(len(prefix) == t - 1 for prefix, _ in groups)
                # the candidate last rows are s lists that the groups share
                assert len({id(rows) for _, rows in groups}) <= s
            s += 1

    @pytest.mark.parametrize("q", prime_powers(256))
    def test_hyperplane_stream_is_the_sorted_prefix_inside_x0(self, q):
        # every (s, t, q) with q^s <= 256; with t = s the whole space
        s = 1
        while q**s <= 256:
            for t in range(1, s + 1):
                groups = subspace_groups(s, t, q, hyperplane=True)
                flat = [prefix + (row,) for prefix, rows in groups for row in rows]
                full = list(subspace_bases(s, t, q))
                inside = [basis for basis in full if basis[0][0] == 0] if t < s else full
                assert flat == inside == full[:len(inside)]
                assert len(flat) == (gaussian_binomial(s - 1, t, q) if t < s else 1)
            s += 1

    def test_hyperplane_stream_caps_the_whole_family(self):
        # 7 of the 35 lines of PG(3,2) lie in x_0 = 0, but the cap bounds all 35
        with pytest.raises(CapExceeded):
            subspace_groups(4, 2, 2, cap=34, hyperplane=True)
        assert sum(len(rows) for _, rows in subspace_groups(4, 2, 2, cap=35, hyperplane=True)) == 7

    def test_hyperplane_stream_checks_the_slice_count(self, monkeypatch):
        # one line too many predicted inside x_0 = 0, a PG(2,2) with 7 lines
        real = combinat.gaussian_binomial
        monkeypatch.setattr(combinat, "gaussian_binomial",
                            lambda s, t, q: real(s, t, q) + (s == 3))
        with pytest.raises(VerificationError) as exc:
            list(subspace_groups(4, 2, 2, hyperplane=True))
        assert exc.value.details == {"case": (4, 2, 2), "subspaces": 7}

    def test_group_stream_checks_its_count_after_the_last_group(self, monkeypatch):
        # one subspace too many predicted: every group of the 35 lines of
        # PG(3,2) streams out before the check fails
        groups = list(subspace_groups(4, 2, 2))
        monkeypatch.setattr(combinat, "gaussian_binomial", lambda s, t, q: 36)
        stream = subspace_groups(4, 2, 2)
        assert list(itertools.islice(stream, len(groups))) == groups
        with pytest.raises(VerificationError) as exc:
            next(stream)
        assert exc.value.details == {"case": (4, 2, 2), "subspaces": 35}

    @pytest.mark.parametrize("args,error", [((6, 3, 2, 100), CapExceeded),
                                            ((4, 0, 2), ValueError),
                                            ((4, 5, 2), ValueError),
                                            ((3, 1, 6), ValueError)])
    def test_stream_raises_before_its_first_basis(self, args, error):
        with pytest.raises(error):
            subspace_bases(*args)

    def test_default_cap_applies_without_cap(self, monkeypatch):
        monkeypatch.setattr(pspace, "DEFAULT_SUBSPACE_CAP", 34)
        with pytest.raises(CapExceeded, match="35 subspaces exceed cap 34"):
            enumerate_subspaces(4, 2, 2)
        assert len(enumerate_subspaces(4, 2, 2, cap=35)) == 35

    def test_stream_checks_its_count_at_the_end(self, monkeypatch):
        # one subspace too many predicted: all 35 lines of PG(3,2) stream out
        # before the check fails
        lines = [X.basis for X in enumerate_subspaces(4, 2, 2)]
        monkeypatch.setattr(combinat, "gaussian_binomial", lambda s, t, q: 36)
        stream = subspace_bases(4, 2, 2)
        assert list(itertools.islice(stream, 35)) == lines
        with pytest.raises(VerificationError) as exc:
            next(stream)
        assert exc.value.details == {"case": (4, 2, 2), "subspaces": 35}


class TestMembership:
    def test_contains_basis_and_combinations(self):
        X = span(((1, 0, 1, 0), (0, 1, 1, 1)), 2)
        for v in subspace_points(X):
            assert contains(X, v)

    def test_excludes_outside_point(self):
        X = span(((1, 0, 0),), 2)
        assert not contains(X, (0, 1, 0))

    def test_subspace_points_size(self):
        for s, t, q in [(4, 2, 2), (3, 2, 4), (4, 3, 3)]:
            X = enumerate_subspaces(s, t, q)[0]
            pts = subspace_points(X)
            assert len(pts) == theta(t, q)
            assert all(contains(X, v) for v in pts)


class TestCoversAndSpreads:
    def test_hyperplanes_cover_evenly(self):
        # each point of PG(2,2) lies on exactly 3 of the 7 lines
        fam = enumerate_subspaces(3, 2, 2)
        assert is_cover(fam, 3)
        assert not is_cover(fam, 2)

    def test_single_subspace_no_cover(self):
        X = span(((1, 0, 0), (0, 1, 0)), 2)
        assert not is_cover([X], 1)

    @staticmethod
    def line_spread():
        census = orbit_census(4, 2, 2)
        (i,) = [i for i, rec in enumerate(census.orbits) if rec.u == 2]
        return census.orbit_members(i)

    def test_line_spread_of_pg32(self):
        spread = self.line_spread()
        assert len(spread) == theta(4, 2) // theta(2, 2)
        assert is_spread(spread)
        assert is_cover(spread, 1)

    def test_overlapping_family_not_spread(self):
        fam = enumerate_subspaces(4, 2, 2)
        assert not is_spread(fam[:5])


class TestLatticeOperations:
    def brute_points(self, X):
        return set(subspace_points(X))

    def test_sum_and_intersection_pointwise(self):
        fam = enumerate_subspaces(4, 2, 2)
        for X, Y in itertools.combinations(fam[:12], 2):
            both = self.brute_points(X) & self.brute_points(Y)
            Z = subspace_intersection(X, Y)
            if Z is None:
                assert not both
            else:
                assert self.brute_points(Z) == both
            S = subspace_sum(X, Y)
            assert self.brute_points(X) <= self.brute_points(S)
            assert self.brute_points(Y) <= self.brute_points(S)
            # dim X + dim Y = dim(X + Y) + dim(X meet Y)
            assert X.t + Y.t == S.t + (0 if Z is None else Z.t)

    def test_nonprime_field_pair(self):
        fam = enumerate_subspaces(3, 2, 4)
        for X, Y in itertools.combinations(fam[:8], 2):
            Z = subspace_intersection(X, Y)
            both = self.brute_points(X) & self.brute_points(Y)
            assert (set() if Z is None else self.brute_points(Z)) == both

    def test_sum_with_self(self):
        X = span(((1, 0, 1, 1), (0, 1, 0, 1)), 2)
        assert subspace_sum(X, X) == X
        assert subspace_intersection(X, X) == X

    def test_mismatched_ambient_raises(self):
        X = span(((1, 0, 0),), 2)
        Y = span(((1, 0),), 2)
        with pytest.raises(ValueError):
            subspace_sum(X, Y)


class TestSubspaceType:
    def test_frozen_and_hashable(self):
        X = span(((1, 0, 1),), 2)
        assert hash(X) == hash(span(((1, 0, 1),), 2))
        with pytest.raises(Exception):
            X.q = 3

    def test_dims(self):
        X = span(((1, 1, 0, 0), (0, 0, 1, 1)), 2)
        assert X.s == 4
        assert X.t == 2
