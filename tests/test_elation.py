"""Tests for elation subgroups, scalar equivalence, and the orbit bridge.

Scalar equivalence classes are cross-checked against an oracle that
partitions subgroups by acting on raw element sets, and the map to
subspaces is checked to intertwine scalar action with the cyclic
collineation action.
"""

import itertools

import pytest

from galela import (
    CapExceeded,
    VerificationError,
    act,
    conjugacy_partition,
    conjugator,
    count_classes,
    dimension_profile,
    elation_matrix,
    enumerate_subgroups,
    enumerate_subspaces,
    equivalence_classes,
    gaussian_binomial,
    group_from_elements,
    group_from_subspace,
    make_field,
    no_conjugation_witness,
    scalar_equivalent,
    singer_generator,
    span,
    subspace_of_center,
    subspace_points,
    verify_correspondence,
)
from galela import elation, selftest
from galela.elation import _iterate_pgl, pgl_order, scalar_multiple
from galela.linalg import identity, mat_inverse, matmul, matvec, rref, scale_projective
from galela.pspace import contains, normalize_point


def oracle_class_sizes(p, h, m):
    """Partition subgroups into scalar classes via raw element sets.

    Tracks each subgroup as the frozenset of its field elements and
    orbits it under every nonzero scalar, bypassing the canonical row
    representation entirely.  Returns sorted class sizes.
    """
    subgroups = enumerate_subgroups(p, h, m)
    tower = subgroups[0].tower
    remaining = {frozenset(H.elements()) for H in subgroups}
    sizes = []
    while remaining:
        start = next(iter(remaining))
        block = {
            frozenset(tower.mul(a, x) for x in start)
            for a in range(1, tower.order)
        }
        assert block <= remaining
        remaining -= block
        sizes.append(len(block))
    return sorted(sizes)


class TestElationMatrix:
    def test_zero_gives_identity(self):
        t = make_field(2, 4)
        assert elation_matrix(t, 0, 3) == identity(3)

    def test_matrix_shape(self):
        t = make_field(2, 2)
        M = elation_matrix(t, t.mu, 3)
        assert M == ((1, 0, 0), (0, 1, 0), (t.mu, 0, 1))

    def test_group_law(self):
        # lam -> M_lam is an isomorphism from (GF(16), +)
        t = make_field(2, 4)
        for a in range(t.order):
            for b in range(t.order):
                lhs = matmul(elation_matrix(t, a, 3), elation_matrix(t, b, 3), t)
                assert lhs == elation_matrix(t, t.add(a, b), 3)

    def test_fixes_axis_pointwise(self):
        t = make_field(2, 2)
        q = t.order
        for lam in range(q):
            M = elation_matrix(t, lam, 3)
            for v in [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, t.mu)]:
                assert normalize_point(matvec(M, v, t), q) == normalize_point(v, q)

    def test_fixes_lines_through_center(self):
        # every line containing z = (0, 0, 1) is setwise invariant
        t = make_field(2, 2)
        q = t.order
        z = (0, 0, 1)
        M = elation_matrix(t, t.mu, 3)
        for L in enumerate_subspaces(3, 2, q):
            if not contains(L, z):
                continue
            pts = set(subspace_points(L))
            image = {normalize_point(matvec(M, v, t), q) for v in pts}
            assert image == pts

    def test_moves_affine_points(self):
        t = make_field(2, 2)
        M = elation_matrix(t, 1, 3)
        assert normalize_point(matvec(M, (1, 0, 0), t), 4) != (1, 0, 0)

    def test_rejects_bad_arguments(self):
        t = make_field(2, 2)
        with pytest.raises(ValueError):
            elation_matrix(t, 0, 1)
        with pytest.raises(ValueError):
            elation_matrix(t, t.order, 3)


class TestSubgroups:
    def test_counts(self):
        assert len(enumerate_subgroups(2, 4, 2)) == 35
        assert len(enumerate_subgroups(2, 4, 4)) == 1
        assert len(enumerate_subgroups(3, 2, 1)) == 4
        assert len(enumerate_subgroups(2, 6, 2)) == 651

    def test_count_matches_closed_form(self):
        for p, h, m in [(2, 4, 2), (2, 6, 3), (3, 2, 1), (2, 5, 2)]:
            assert len(enumerate_subgroups(p, h, m)) == gaussian_binomial(
                h, m, p
            )

    def test_elements_form_group(self):
        t = make_field(2, 4)
        for H in enumerate_subgroups(2, 4, 2)[:6]:
            elems = set(H.elements())
            assert len(elems) == 4
            assert 0 in elems
            for a in elems:
                for b in elems:
                    assert t.add(a, b) in elems

    def test_group_from_elements_round_trip(self):
        t = make_field(2, 4)
        for H in enumerate_subgroups(2, 4, 2)[:6]:
            assert group_from_elements(t, H.elements()) == H

    def test_contains(self):
        t = make_field(2, 4)
        H = group_from_elements(t, t.subfield_elements(2))
        for x in range(t.order):
            assert H.contains(x) == (x in set(H.elements()))


class TestDimensionProfile:
    def test_subfield_subgroup(self):
        t = make_field(2, 4)
        H = group_from_elements(t, t.subfield_elements(2))
        prof = dimension_profile(H)
        assert prof.admissible == ((1, 2), (2, 1))
        assert prof.minimal_n == 2
        assert prof.minimal_d == 1

    def test_generic_subgroup_prime_only(self):
        t = make_field(2, 4)
        H = group_from_elements(t, (0, 1, t.mu, t.add(1, t.mu)))
        prof = dimension_profile(H)
        assert prof.admissible == ((1, 2),)
        assert prof.minimal_n == 1

    def test_coprime_order_forces_prime_field(self):
        for H in enumerate_subgroups(2, 4, 1):
            assert dimension_profile(H).admissible == ((1, 1),)

    def test_whole_field(self):
        t = make_field(2, 4)
        H = group_from_elements(t, range(t.order))
        prof = dimension_profile(H)
        assert (4, 1) in prof.admissible
        assert prof.minimal_n == 4


class TestScalarEquivalence:
    def test_self_equivalence_scalar_one(self):
        H = enumerate_subgroups(2, 4, 2)[0]
        assert scalar_equivalent(H, H) == 1

    def test_scalar_multiple_witness(self):
        t = make_field(2, 4)
        H = group_from_elements(t, t.subfield_elements(2))
        assert scalar_equivalent(H, scalar_multiple(H, t.mu)) == t.mu

    def test_witness_actually_maps(self):
        t = make_field(2, 4)
        subgroups = enumerate_subgroups(2, 4, 2)
        for H1 in subgroups[:8]:
            for H2 in subgroups[:8]:
                alpha = scalar_equivalent(H1, H2)
                if alpha is not None:
                    assert scalar_multiple(H1, alpha) == H2

    def test_inequivalent_pair(self):
        cls = equivalence_classes(2, 4, 2)
        assert scalar_equivalent(cls[0].representative, cls[1].representative) is None

    def test_order_mismatch_rejected(self):
        g1 = enumerate_subgroups(2, 4, 1)[0]
        g2 = enumerate_subgroups(2, 4, 2)[0]
        with pytest.raises(ValueError):
            scalar_equivalent(g1, g2)


class TestEquivalenceClasses:
    def test_small_binary_classes(self):
        cls = equivalence_classes(2, 4, 2)
        assert sorted(c.size for c in cls) == [5, 15, 15]
        assert sum(c.size for c in cls) == 35

    def test_prime_field_single_class(self):
        cls = equivalence_classes(3, 2, 1)
        assert len(cls) == 1
        assert cls[0].size == 4

    @pytest.mark.parametrize("p,h,m", [(2, 4, 2), (3, 2, 1), (2, 6, 2), (2, 4, 1)])
    def test_against_element_set_oracle(self, p, h, m):
        cls = equivalence_classes(p, h, m)
        assert sorted(c.size for c in cls) == oracle_class_sizes(p, h, m)

    def test_witness_scalars_map_representative(self):
        for c in equivalence_classes(2, 4, 2):
            assert len(c.witness_scalars) == c.size
            for member, w in zip(c.members, c.witness_scalars):
                assert scalar_multiple(c.representative, w) == member

    @pytest.mark.parametrize("p,h,m", [(2, 4, 2), (2, 6, 2), (3, 2, 1), (3, 4, 2), (3, 3, 1)])
    def test_member_facts_against_element_sets(self, p, h, m):
        # equivalence_classes checks only the class size; the facts it
        # leaves implied are checked here member by member on element sets
        for c in equivalence_classes(p, h, m):
            tower = c.representative.tower
            rep = set(c.representative.elements())
            for H, w in zip(c.members, c.witness_scalars):
                assert dimension_profile(H) == c.profile
                assert set(H.elements()) == {tower.mul(w, e) for e in rep}
            stabilizer = [a for a in range(1, tower.order)
                          if {tower.mul(a, e) for e in rep} == rep]
            assert len(stabilizer) == p ** c.profile.minimal_n - 1

    def test_members_disjoint_and_complete(self):
        cls = equivalence_classes(2, 4, 2)
        seen = [H for c in cls for H in c.members]
        assert len(seen) == len(set(seen)) == 35

    def test_profile_constant_on_class(self):
        for c in equivalence_classes(2, 4, 2):
            assert c.profile == dimension_profile(c.representative)

    def test_minimal_class_count(self):
        # exactly one class of (2, 4, 2) descends to GF(4)
        cls = equivalence_classes(2, 4, 2)
        descending = [c for c in cls if c.profile.minimal_n == 2]
        assert len(descending) == 1
        assert descending[0].size == 5


class TestConjugation:
    def test_conjugator_shape(self):
        cls = equivalence_classes(2, 4, 2)
        rep = cls[0].representative
        mem = cls[0].members[1]
        alpha = scalar_equivalent(rep, mem)
        g = conjugator(rep, alpha, 3)
        assert g == ((1, 0, 0), (0, 1, 0), (0, 0, alpha))

    def test_conjugator_identity_for_self(self):
        H = enumerate_subgroups(2, 4, 2)[0]
        assert conjugator(H, 1, 3) == identity(3)

    def test_conjugator_r2(self):
        cls = equivalence_classes(2, 2, 1)
        rep = cls[0].representative
        for w in cls[0].witness_scalars:
            assert conjugator(rep, w, 2) == ((1, 0), (0, w))

    def test_conjugator_rejects_zero_scalar(self):
        H = enumerate_subgroups(2, 4, 2)[0]
        with pytest.raises(ValueError):
            conjugator(H, 0, 3)

    def test_no_witness_for_equivalent_pair(self):
        cls = equivalence_classes(2, 2, 1)
        rep = cls[0].representative
        assert no_conjugation_witness(rep, rep, 2) is False
        assert no_conjugation_witness(rep, cls[0].members[1], 2) is False

    def test_witness_for_cross_order_pair(self):
        # |H1| != |H2| rules out conjugacy and the sweep certifies it
        g1 = enumerate_subgroups(2, 2, 1)
        g2 = enumerate_subgroups(2, 2, 2)
        assert no_conjugation_witness(g1[0], g2[0], 2) is True

    def test_sweep_cap(self):
        cls = equivalence_classes(2, 4, 2)
        with pytest.raises(CapExceeded):
            no_conjugation_witness(cls[0].representative, cls[1].representative, 3)


def brute_force_pgl(r, tower):
    """PGL(r, q) from every r x r matrix, one scaled representative per class."""
    q = tower.order
    out = set()
    for entries in itertools.product(range(q), repeat=r * r):
        mat = tuple(entries[i * r:(i + 1) * r] for i in range(r))
        if len(rref(mat, tower)[0]) == r:
            out.add(scale_projective(mat, tower))
    return out


def oracle_conjugacy_blocks(subgroups, r):
    """Partition subgroups by conjugating every elation explicitly.

    g E(H) g^-1 is formed with mat_inverse and matmul for every g of the
    brute-force PGL and matched against the projective elation sets of all
    subgroups; returns the blocks of the transitive closure.
    """
    tower = subgroups[0].tower
    sets = [
        frozenset(scale_projective(elation_matrix(tower, lam, r), tower)
                  for lam in H.elements())
        for H in subgroups
    ]
    index = {s: i for i, s in enumerate(sets)}
    block = list(range(len(subgroups)))
    for g in brute_force_pgl(r, tower):
        ginv = mat_inverse(g, tower)
        for i, H in enumerate(subgroups):
            image = frozenset(
                scale_projective(
                    matmul(matmul(g, elation_matrix(tower, lam, r), tower), ginv, tower),
                    tower)
                for lam in H.elements())
            j = index.get(image)
            if j is not None and block[i] != block[j]:
                old, new = block[j], block[i]
                block = [new if b == old else b for b in block]
    return {frozenset(i for i, b in enumerate(block) if b == label) for label in set(block)}


def scalar_blocks(subgroups):
    """Partition subgroups by alpha * H on raw element sets, alpha nonzero."""
    tower = subgroups[0].tower
    index = {frozenset(H.elements()): i for i, H in enumerate(subgroups)}
    return {
        frozenset(index[frozenset(tower.mul(a, x) for x in H.elements())]
                  for a in range(1, tower.order))
        for H in subgroups
    }


class TestConjugacyPartition:
    @pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2)])
    def test_matches_explicit_conjugation_and_scalar_classes(self, p, h):
        subgroups = [H for m in range(1, h + 1) for H in enumerate_subgroups(p, h, m)]
        sweep = {frozenset(c) for c in conjugacy_partition(subgroups, 2).classes}
        assert sweep == oracle_conjugacy_blocks(subgroups, 2)
        assert sweep == scalar_blocks(subgroups)

    def test_witnesses_conjugate(self):
        subgroups = enumerate_subgroups(2, 3, 1)
        tower = subgroups[0].tower
        part = conjugacy_partition(subgroups, 2)
        assert part.witnesses
        for (i, j), g in part.witnesses.items():
            ginv = mat_inverse(g, tower)
            image = {
                scale_projective(
                    matmul(matmul(g, elation_matrix(tower, lam, 2), tower), ginv, tower),
                    tower)
                for lam in subgroups[i].elements()
            }
            assert image == {scale_projective(elation_matrix(tower, lam, 2), tower)
                             for lam in subgroups[j].elements()}

    def test_labels_are_least_member(self):
        subgroups = [H for m in (1, 2) for H in enumerate_subgroups(2, 2, m)]
        part = conjugacy_partition(subgroups, 2)
        assert part.labels == (0, 0, 0, 3)
        assert part.classes == ((0, 1, 2), (3,))

    def test_cap(self):
        subgroups = enumerate_subgroups(2, 2, 1)
        with pytest.raises(CapExceeded):
            conjugacy_partition(subgroups, 3, cap=100)

    def test_short_sweep_raises(self, monkeypatch):
        subgroups = enumerate_subgroups(2, 2, 1)
        full = elation._iterate_pgl
        monkeypatch.setattr(elation, "_iterate_pgl",
                            lambda r, tower: itertools.islice(full(r, tower), 59))
        with pytest.raises(VerificationError) as exc:
            conjugacy_partition(subgroups, 2)
        assert exc.value.details["swept"] == 59

    @pytest.mark.parametrize("labels,message", [
        ((0, 1, 2, 3), "scalar-equivalent pair not conjugate"),
        ((0, 0, 0, 0), "inequivalent pair"),
    ])
    def test_lemma1_report_rejects_a_wrong_partition(self, monkeypatch, labels, message):
        # (r, p, h) = (2, 2, 2): three subgroups of order 2 in one class, GF(4) alone
        monkeypatch.setattr(elation, "conjugacy_partition",
                            lambda subgroups, r, cap=None: elation.ConjugacyPartition(labels, {}))
        with pytest.raises(VerificationError, match=message):
            selftest.lemma1_report([(2, 2, 2)])

    @pytest.mark.parametrize("r,p,h", [(2, 2, 2), (3, 2, 1), (3, 3, 1)])
    def test_iterate_pgl_is_pgl(self, r, p, h):
        tower = make_field(p, h)
        mats = list(_iterate_pgl(r, tower))
        assert len(mats) == pgl_order(r, p**h)
        assert all(len(rref(g, tower)[0]) == r for g in mats)
        assert len({scale_projective(g, tower) for g in mats}) == len(mats)


class TestSubspaceBridge:
    def test_subfield_group_maps_to_point(self):
        t = make_field(2, 4)
        H = group_from_elements(t, t.subfield_elements(2))
        X = subspace_of_center(H, 2)
        assert X.q == 4
        assert X.basis == ((1, 0),)

    def test_rejects_inadmissible_field(self):
        t = make_field(2, 4)
        H = group_from_elements(t, (0, 1, t.mu, t.add(1, t.mu)))
        with pytest.raises(ValueError):
            subspace_of_center(H, 2)

    def test_non_injective_coords_raise(self, monkeypatch):
        # a coords that sends every element to one vector loses rank
        t = make_field(2, 4)
        H = group_from_elements(t, t.subfield_elements(2))
        monkeypatch.setattr(t, "coords", lambda a, n: (1, 0, 0, 0))
        with pytest.raises(VerificationError):
            subspace_of_center(H, 1)

    def test_round_trip_all_lines(self):
        subgroups = enumerate_subgroups(2, 4, 2)
        images = set()
        for H in subgroups:
            X = subspace_of_center(H, 1)
            assert group_from_subspace(X, 4) == H
            images.add(X)
        assert images == set(enumerate_subspaces(4, 2, 2))

    def test_scalar_action_matches_collineation_action(self):
        # multiplying the subgroup by mu advances its subspace one step
        t = make_field(2, 4)
        S = singer_generator(4, 2)
        for H in enumerate_subgroups(2, 4, 2):
            X = subspace_of_center(H, 1)
            Y = subspace_of_center(scalar_multiple(H, t.mu), 1)
            assert Y == act(S, X, 1)

    def test_group_from_subspace_over_subfield(self):
        X = span(((1, 0),), 4)
        H = group_from_subspace(X, 4)
        t = H.tower
        assert set(H.elements()) == set(t.subfield_elements(2))


class TestCounting:
    def test_count_classes_spots(self):
        assert count_classes(2, 4, 2, 1) == 3
        assert count_classes(2, 4, 2, 1, minimal=True) == 2
        assert count_classes(2, 4, 2, 2) == 1
        assert count_classes(2, 6, 2, 1) == 11
        assert count_classes(3, 2, 1, 1) == 1

    def test_counts_match_enumeration(self):
        for p, h, m in [(2, 4, 2), (3, 2, 1), (2, 6, 2), (2, 6, 3)]:
            assert count_classes(p, h, m, 1) == len(equivalence_classes(p, h, m))

    def test_minimal_at_most_total(self):
        for p, h, m, n in [(2, 4, 2, 1), (2, 6, 2, 1), (2, 6, 3, 3)]:
            assert count_classes(p, h, m, n, minimal=True) <= count_classes(
                p, h, m, n
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            count_classes(2, 4, 2, 3)
        with pytest.raises(ValueError):
            count_classes(4, 4, 2, 1)
        with pytest.raises(ValueError):
            count_classes(2, 4, 5, 1)


class TestCorrespondence:
    def test_small_cases(self):
        for p, h, m, n in [(2, 4, 2, 2), (3, 2, 1, 1), (2, 4, 1, 1)]:
            report = verify_correspondence(p, h, m, n)
            assert report["bijection"] is True
            assert report["classes"] == report["orbits"]
            assert report["minimal_match"] is True

    def test_reported_counts(self):
        report = verify_correspondence(2, 4, 2, 1)
        assert report["classes"] == 3
        assert report["minimal_classes"] == 2
        assert report["predicted_classes"] == 3
        assert report["predicted_minimal"] == 2
