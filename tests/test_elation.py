"""Tests for elation subgroups, scalar equivalence, and the orbit bridge.

Scalar equivalence classes are cross-checked against an oracle that
partitions subgroups by acting on raw element sets, and the map to
subspaces is checked to intertwine scalar action with the cyclic
collineation action.
"""

import itertools
from collections import Counter
from math import gcd

import pytest

from galela import (
    CapExceeded,
    FieldTower,
    SingerGroup,
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
    span,
    subspace_of_center,
    subspace_points,
    verify_correspondence,
)
from galela import elation, linalg, pspace, selftest, singer
from galela.combinat import factorize, prime_power
from galela.elation import _iterate_pgl, pgl_order, scalar_multiple
from galela.linalg import identity, mat_inverse, matmul, matvec, rref, scale_projective
from galela.pspace import contains, enumerate_points, normalize_point, subspace_groups
from galela.singer import orbit_partition, span_log_sets


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

    def test_reads_membership_off_the_rows_without_a_subspace(self, monkeypatch):
        # the pivots are found once per profile: no Subspace is built per
        # membership test, and the RREF reduction still decides it
        t = make_field(2, 8)
        H = group_from_elements(t, [t.pow(t.subfield_generator(4), k) for k in range(4)])
        monkeypatch.setattr(elation.pspace, "Subspace", None)
        monkeypatch.setattr(elation.pspace, "contains", None)
        reduced = []
        real = linalg.reduce_vector
        monkeypatch.setattr(linalg, "reduce_vector",
                            lambda *args: reduced.append(1) or real(*args))
        prof = dimension_profile(H)
        assert prof.admissible == ((1, 4), (2, 2), (4, 1))
        assert len(reduced) == 3 * H.m


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
        # equivalence_classes checks only the class size, as u == minimal_n;
        # the facts it leaves implied are checked here member by member on
        # element sets
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

    @pytest.mark.parametrize("p,h,m", [(2, 8, 4), (3, 6, 3)])
    def test_two_groups_built_per_class(self, p, h, m, monkeypatch):
        # the representative and its mu-image; the members are derived on
        # demand, so none of the 200,787 or 33,880 subgroups is built
        built = 0
        real = elation.ElationGroup

        def counting(*args):
            nonlocal built
            built += 1
            return real(*args)

        monkeypatch.setattr(elation, "ElationGroup", counting)
        classes = equivalence_classes(p, h, m)
        assert built <= 2 * len(classes)
        assert sum(c.size for c in classes) == gaussian_binomial(h, m, p)


class TestLogWalk:
    """The classes are walked on log sets; scalar_multiple is the oracle."""

    # on GF(2^8) x is not primitive, so mu is not the element x
    @pytest.mark.parametrize("p,h,m", [(2, 4, 2), (2, 6, 3), (3, 4, 2), (3, 3, 1), (5, 2, 1),
                                       (2, 8, 2)])
    def test_classes_equal_the_rref_walk(self, p, h, m):
        subs = enumerate_subgroups(p, h, m)
        tower = subs[0].tower
        walks = orbit_partition(subs, lambda H: scalar_multiple(H, tower.mu))
        classes = equivalence_classes(p, h, m)
        assert [c.members for c in classes] == [tuple(walk) for walk in walks]
        for c, walk in zip(classes, walks):
            assert c.representative == walk[0]
            assert c.witness_scalars == tuple(tower.exp[k] for k in range(len(walk)))
            for H, alpha in zip(c.members, c.witness_scalars):
                assert scalar_multiple(c.representative, alpha) == H

    @pytest.mark.parametrize("p,h,m", [(2, 4, 2), (2, 4, 4), (3, 3, 2), (3, 4, 3), (5, 2, 1)])
    def test_log_set_is_the_point_logs(self, p, h, m):
        theta = gaussian_binomial(h, 1, p)
        for H in enumerate_subgroups(p, h, m):
            tower = H.tower
            logs = {tower.log[x] % theta for x in H.elements() if x}
            assert elation.log_set(H) == sum(1 << k for k in logs)
            assert len(logs) == gaussian_binomial(m, 1, p)

    @pytest.mark.parametrize("p,h,m", [(3, 6, m) for m in range(1, 7)]
                             + [(2, 8, m) for m in range(1, 9)])
    def test_batch_log_sets_equal_one_call_per_subgroup(self, p, h, m):
        subs = enumerate_subgroups(p, h, m)
        tower = subs[0].tower
        one_by_one = [elation.log_set(H) for H in subs]

        def batch(groups):
            return [bits for _, _, sets in span_log_sets(
                        groups, lambda row: tower.log[tower.from_coeffs(row)], tower,
                        gaussian_binomial(h, 1, p), lambda rows: {"rows": rows})
                    for bits in sets]
        assert batch(subspace_groups(h, m, p)) == one_by_one
        assert batch([(H.rows[:-1], H.rows[-1:]) for H in subs]) == one_by_one
        assert batch([(H.rows[:-1], H.rows[-1:]) for H in subs[::-1]]) == one_by_one[::-1]

    def test_dependent_rows_fail_the_point_count(self):
        # 2 = -1 in GF(3): both rows name one point, and 1 + 2 = 0 takes
        # the Zech entry 0 that repeats it
        t = make_field(3, 3)
        H = elation.ElationGroup(t, ((1, 0, 0), (2, 0, 0)))
        with pytest.raises(VerificationError, match="wrong number of points"):
            elation.log_set(H)


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

    def test_conjugator_checks_every_basis_element(self, monkeypatch):
        # GF(4) itself with alpha = mu: its basis is 1, mu, and only the
        # second element reaches M_(mu^2), here with its entry misplaced
        tower = make_field(2, 2)
        H = equivalence_classes(2, 2, 2)[0].representative
        mu2 = tower.mul(tower.mu, tower.mu)
        real = elation.elation_matrix

        def faulted(tower, lam, r):
            rows = [list(row) for row in real(tower, lam, r)]
            if lam == mu2:
                rows[r - 1][0], rows[0][r - 1] = 0, lam
            return tuple(map(tuple, rows))

        monkeypatch.setattr(elation, "elation_matrix", faulted)
        assert H.basis_elements == (1, tower.mu)
        with pytest.raises(VerificationError, match="diagonal conjugator fails") as exc:
            conjugator(H, tower.mu, 3)
        assert exc.value.details["lam"] == tower.mu

    def test_conjugator_rejects_zero_scalar(self):
        H = enumerate_subgroups(2, 4, 2)[0]
        with pytest.raises(ValueError):
            conjugator(H, 0, 3)

    @pytest.mark.parametrize("r", [1, 0])
    def test_conjugator_rejects_small_r(self, r):
        H = enumerate_subgroups(2, 4, 2)[0]
        with pytest.raises(ValueError, match="need r >= 2"):
            conjugator(H, 1, r)

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

    def test_no_cap_on_pgl(self):
        # |PGL(3, 16)| = 4,277,145,600, but the pass tries its 15 diagonals
        # on two element sets of 4, so nothing bounds the group's order
        cls = equivalence_classes(2, 4, 2)
        assert pgl_order(3, 16) == 4277145600
        assert no_conjugation_witness(cls[0].representative, cls[1].representative, 3) is True

    def test_different_fields_rejected(self):
        with pytest.raises(ValueError, match="different fields"):
            no_conjugation_witness(enumerate_subgroups(2, 2, 1)[0], enumerate_subgroups(2, 3, 1)[0], 2)


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


def reference_iterate_pgl(r, tower):
    """PGL(r, q) frame by frame, each frame grown by rref rank.

    The first row runs over enumerate_points, each later row over the
    nonzero vectors in itertools.product order, kept when the rref rank of
    the frame grows.
    """
    nonzero = [v for v in itertools.product(range(tower.order), repeat=r) if any(v)]

    def extend(frame):
        if len(frame) == r:
            yield frame
            return
        for v in nonzero:
            if len(rref(frame + (v,), tower)[0]) == len(frame) + 1:
                yield from extend(frame + (v,))

    for fr in enumerate_points(r, tower.order):
        yield from extend((fr,))


def full_pgl(r, tower):
    """Every element of PGL(r, q) in reference_iterate_pgl's order.

    The first row runs over enumerate_points, each later row over the
    nonzero vectors in itertools.product order outside the set of vectors
    the rows above span, grown with the tower's own add and mul.
    """
    q, add, mul = tower.order, tower.add, tower.mul
    nonzero = [v for v in itertools.product(range(q), repeat=r) if any(v)]

    def extend(frame, spanned):
        # spanned: the vectors frame[:-1] spans, frame[-1] outside it
        if len(frame) == r:
            yield frame
            return
        spanned = {tuple(add(a, mul(c, b)) for a, b in zip(s, frame[-1]))
                   for s in spanned for c in range(q)}
        for v in nonzero:
            if v not in spanned:
                yield from extend(frame + (v,), spanned)

    for fr in enumerate_points(r, q):
        yield from extend((fr,), {(0,) * r})


def definition_partition(subgroups, r, sweep):
    """(labels, witnesses) from g M_lam == c N_mu g solved for every g in sweep.

    Nothing about the flag is assumed.  Rows 0..r-2 of N_mu g are g's own,
    so c is read off the pivot k0 of row 0 and rows 0..r-2 of g M_lam must
    be c times g's; the (lam, c) that pass depend on those rows alone and
    are found once per run of equal heads.  The last row then forces mu and
    must equal c (g[r-1] + mu g[0]).  H matches H' when every nonzero lam in
    H has a mu and the mu are the nonzero elements of H'.  Matches join a
    union-find, the first g of each pair is kept, and a map lam -> mu met
    before is not matched again.
    """
    tower = subgroups[0].tower
    elems = range(tower.order)
    add = [[tower.add(a, b) for b in elems] for a in elems]
    sub = [[tower.sub(a, b) for b in elems] for a in elems]
    mul = [[tower.mul(a, b) for b in elems] for a in elems]
    inv = [None] + [tower.inv(a) for a in elems[1:]]
    nonzero = [frozenset(lam for lam in H.elements() if lam) for H in subgroups]
    all_lams = sorted(set().union(*nonzero))
    by_elements = {}
    for i, lams in enumerate(nonzero):
        by_elements.setdefault(lams, []).append(i)
    parent = list(range(len(subgroups)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    witnesses, seen, head = {}, set(), None
    for g in sweep:
        top, last = g[0], g[-1]
        if g[:-1] != head:
            head, candidates = g[:-1], []
            k0 = next(k for k, x in enumerate(top) if x)
            for lam in all_lams:
                moved = [(add[row[0]][mul[lam][row[-1]]],) + row[1:] for row in head]
                c = mul[moved[0][k0]][inv[top[k0]]]
                if c and all(m == tuple(mul[c][x] for x in row) for m, row in zip(moved, head)):
                    candidates.append((lam, c))
        image = {}
        for lam, c in candidates:
            moved = (add[last[0]][mul[lam][last[-1]]],) + last[1:]
            mu = sub[mul[inv[c]][moved[k0]]][last[k0]]
            if moved == tuple(mul[c][add[y][mul[mu][t]]] for y, t in zip(last, top)):
                image[lam] = mu
        mapping = tuple(image.items())
        if mapping in seen:
            continue
        seen.add(mapping)
        for i, lams in enumerate(nonzero):
            if lams <= image.keys():
                for j in by_elements.get(frozenset(map(image.__getitem__, lams)), ()):
                    if j != i:
                        witnesses.setdefault((i, j), g)
                        parent[find(i)] = find(j)
    roots = [find(i) for i in range(len(subgroups))]
    least = {}
    for i, root in enumerate(roots):
        least.setdefault(root, i)
    return tuple(least[root] for root in roots), witnesses


def fixes_flag(g):
    """Row 0 a multiple of e_0 and column r-1 a multiple of e_{r-1}: g fixes
    the center z = e_{r-1} and the axis X0 = 0."""
    return not any(g[0][1:]) and not any(row[-1] for row in g[:-1])


def reference_partition(subgroups, r, sweep=None):
    """The normalize-and-look-up pass over sweep, as (labels, witnesses).

    For every g the q matrices N_mu g are scaled with scale_projective and
    keyed to mu; each g M_lam, lam in H, is scaled and looked up there, and
    H matches H' when every lookup hits and the mu found are H's elements.
    Matches join a union-find and the first g of each (i, j) is kept.  The
    sweep defaults to _iterate_pgl.
    """
    tower = subgroups[0].tower
    add, mul = tower.add, tower.mul
    nonzero = [tuple(lam for lam in H.elements() if lam) for H in subgroups]
    by_elements = {}
    for i, H in enumerate(subgroups):
        by_elements.setdefault(frozenset(H.elements()), []).append(i)
    parent = list(range(len(subgroups)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    witnesses = {}
    for g in _iterate_pgl(r, tower) if sweep is None else sweep:
        top, last = g[0], g[-1]
        right = {}
        for mu in range(tower.order):
            ng = g[:-1] + (tuple(add(a, mul(mu, b)) for a, b in zip(last, top)),)
            right[scale_projective(ng, tower)] = mu
        for i, lams in enumerate(nonzero):
            mus = {0}
            for lam in lams:
                gm = tuple((add(row[0], mul(lam, row[-1])),) + row[1:] for row in g)
                mu = right.get(scale_projective(gm, tower))
                if mu is None:
                    break
                mus.add(mu)
            else:
                for j in by_elements.get(frozenset(mus), ()):
                    if j != i:
                        witnesses.setdefault((i, j), g)
                        parent[find(i)] = find(j)
    roots = [find(i) for i in range(len(subgroups))]
    least = {}
    for i, root in enumerate(roots):
        least.setdefault(root, i)
    return tuple(least[root] for root in roots), witnesses


def scalar_blocks(subgroups):
    """Partition subgroups by alpha * H on raw element sets, alpha nonzero."""
    tower = subgroups[0].tower
    index = {frozenset(H.elements()): i for i, H in enumerate(subgroups)}
    return {
        frozenset(index[frozenset(tower.mul(a, x) for x in H.elements())]
                  for a in range(1, tower.order))
        for H in subgroups
    }


def witness_cases():
    """(r, subgroups): the order-2 subgroups of GF(8) under PGL(2, 8), and
    all subgroups of GF(4) under PGL(3, 4) and of GF(4) and GF(9) under
    PGL(4, q)."""
    return ((2, enumerate_subgroups(2, 3, 1)),
            (3, [H for m in (1, 2) for H in enumerate_subgroups(2, 2, m)]),
            (4, [H for m in (1, 2) for H in enumerate_subgroups(2, 2, m)]),
            (4, [H for m in (1, 2) for H in enumerate_subgroups(3, 2, m)]))


def partition(subgroups, r):
    """conjugacy_partition fed the subgroups' element sets, in list order."""
    return conjugacy_partition(subgroups[0].tower, [H.elements() for H in subgroups], r)


def assert_leader_witnesses(part, labels, witnesses):
    """part against an oracle's (labels, witnesses) over every ordered pair:
    the same labels, one witness per non-leader j, keyed (labels[j], j) and
    equal to the oracle's for that pair, and the oracle's pairs exactly the
    ordered pairs that share a label."""
    assert part.labels == labels
    assert part.witnesses == {(label, j): witnesses[label, j]
                              for j, label in enumerate(labels) if label != j}
    assert witnesses.keys() == {(i, j) for i, a in enumerate(labels)
                                for j, b in enumerate(labels) if i != j and a == b}


class TestConjugacyPartition:
    @pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (3, 2)])
    def test_matches_explicit_conjugation_and_scalar_classes(self, p, h):
        subgroups = [H for m in range(1, h + 1) for H in enumerate_subgroups(p, h, m)]
        sweep = {frozenset(c) for c in partition(subgroups, 2).classes}
        assert sweep == oracle_conjugacy_blocks(subgroups, 2)
        assert sweep == scalar_blocks(subgroups)

    def test_witnesses_conjugate(self):
        # every witness, conjugated explicitly, on witness_cases
        for r, subgroups in witness_cases():
            tower = subgroups[0].tower
            part = partition(subgroups, r)
            assert part.witnesses
            for (i, j), g in part.witnesses.items():
                ginv = mat_inverse(g, tower)
                image = {
                    scale_projective(
                        matmul(matmul(g, elation_matrix(tower, lam, r), tower), ginv, tower),
                        tower)
                    for lam in subgroups[i].elements()
                }
                assert image == {scale_projective(elation_matrix(tower, lam, r), tower)
                                 for lam in subgroups[j].elements()}

    def test_every_pair_conjugates_through_its_leader(self):
        # one witness per non-leader j, keyed (labels[j], j), and every
        # ordered pair of a class conjugated explicitly by
        # diag(1, ..., 1, d_j / d_i), d read off the two witnesses (d = 1
        # for the leader), on witness_cases
        for r, subgroups in witness_cases():
            tower = subgroups[0].tower
            part = partition(subgroups, r)
            assert part.witnesses.keys() == {(label, j) for j, label in enumerate(part.labels)
                                             if label != j}
            d = [1 if label == j else part.witnesses[label, j][-1][-1]
                 for j, label in enumerate(part.labels)]
            pairs = [(i, j) for cls in part.classes for i in cls for j in cls if i != j]
            assert pairs
            for i, j in pairs:
                g = identity(r)[:-1] + ((0,) * (r - 1) + (tower.mul(d[j], tower.inv(d[i])),),)
                ginv = mat_inverse(g, tower)
                image = {
                    scale_projective(
                        matmul(matmul(g, elation_matrix(tower, lam, r), tower), ginv, tower),
                        tower)
                    for lam in subgroups[i].elements()
                }
                assert image == {scale_projective(elation_matrix(tower, lam, r), tower)
                                 for lam in subgroups[j].elements()}

    def test_one_walk_per_class(self, monkeypatch):
        # all 373 subgroups of GF(32) under PGL(2, 32): n - #classes
        # witnesses, and q - 1 products per element of each leader alone
        subgroups = [H for m in range(1, 6) for H in enumerate_subgroups(2, 5, m)]
        tower = subgroups[0].tower
        sets = [H.elements() for H in subgroups]
        products, real = [], tower.mul
        monkeypatch.setattr(tower, "mul", lambda a, b: products.append((a, b)) or real(a, b))
        part = conjugacy_partition(tower, sets, 2)
        monkeypatch.undo()
        leaders = [i for i, label in enumerate(part.labels) if label == i]
        assert len(subgroups) == 373
        assert len(part.witnesses) == len(subgroups) - len(part.classes) == 373 - len(leaders)
        assert len(products) == (tower.order - 1) * sum(2 ** subgroups[i].m for i in leaders)

    @pytest.mark.parametrize("r,p,h", [(2, 2, 3), (2, 3, 2), (2, 2, 4), (3, 3, 1), (3, 2, 2)])
    def test_matches_the_normalizing_pass(self, r, p, h):
        subgroups = [H for m in range(1, h + 1) for H in enumerate_subgroups(p, h, m)]
        part = partition(subgroups, r)
        assert_leader_witnesses(part, *reference_partition(subgroups, r))

    def test_sweep_solves_without_normalizing(self, monkeypatch):
        # mu is solved for, so no matrix is scaled and no row reduced
        def refuse(*args):
            raise AssertionError("called from the sweep")

        subgroups = [H for m in (1, 2) for H in enumerate_subgroups(2, 2, m)]
        monkeypatch.setattr(linalg, "scale_projective", refuse)
        monkeypatch.setattr(linalg, "in_rowspace", refuse)
        monkeypatch.setattr(linalg, "rref", refuse)
        assert partition(subgroups, 3).labels == (0, 0, 0, 3)

    @pytest.mark.parametrize("r,p,h", [(2, 3, 2), (3, 2, 2)])
    def test_matches_the_normalizing_pass_in_reverse_order(self, monkeypatch, r, p, h):
        # the order may change the speed but not the checks: the diagonals
        # swept backwards, a leader pair joined by more than one d gets the
        # last d as its witness, and a pair joined by one d the same witness
        subgroups = [H for m in range(1, h + 1) for H in enumerate_subgroups(p, h, m)]
        tower = subgroups[0].tower
        forward = partition(subgroups, r).witnesses
        backwards = list(_iterate_pgl(r, tower))[::-1]
        monkeypatch.setattr(elation, "_iterate_pgl", lambda r, tower: iter(backwards))
        part = partition(subgroups, r)
        labels, witnesses = reference_partition(subgroups, r, backwards)
        assert_leader_witnesses(part, labels, witnesses)
        joins = Counter((i, j) for d in range(1, tower.order)
                        for i, H in enumerate(subgroups) for j, K in enumerate(subgroups)
                        if i != j and {tower.mul(d, x) for x in H.elements()} == set(K.elements()))
        assert joins.keys() == witnesses.keys()
        assert part.witnesses.keys() == forward.keys()
        assert all((witnesses[pair] != g) == (joins[pair] > 1) for pair, g in forward.items())
        assert max(joins.values()) == (p - 1)

    def test_labels_are_least_member(self):
        subgroups = [H for m in (1, 2) for H in enumerate_subgroups(2, 2, m)]
        part = partition(subgroups, 2)
        assert part.labels == (0, 0, 0, 3)
        assert part.classes == ((0, 1, 2), (3,))

    def test_short_sweep_raises(self, monkeypatch):
        # PGL(2, 4) is swept by diag(1, d) for d = 1, 2, 3: one left out, one
        # streamed twice in place of another, and one replaced by a flag
        # element with the same d that is not diagonal all fail the check
        subgroups = enumerate_subgroups(2, 2, 1)
        full = list(elation._iterate_pgl(2, subgroups[0].tower))
        for stream in (full[:-1], full[:-1] + full[:1], full[:-1] + [((1, 0), (1, 3))]):
            monkeypatch.setattr(elation, "_iterate_pgl", lambda r, tower: iter(stream))
            with pytest.raises(VerificationError,
                               match="PGL sweep is not the q - 1 diagonal projectivities") as exc:
                partition(subgroups, 2)
            assert exc.value.details == {"r": 2, "q": 4,
                                         "swept": [[list(row) for row in g] for g in stream]}

    @pytest.mark.parametrize("r,q", [(2, q) for q in range(2, 33) if len(factorize(q)) == 1]
                             + [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)])
    def test_ruled_out_frames_change_nothing(self, r, q):
        # the same labels and witnesses as g M_lam == c N_mu g solved for
        # every element of PGL, with no use of the flag, and every witness of
        # that pass fixes the flag: the elements the stabilizer leaves out
        # match nothing
        p, h = prime_power(q)
        subgroups = [H for m in range(1, h + 1) for H in enumerate_subgroups(p, h, m)]
        part = partition(subgroups, r)
        labels, witnesses = definition_partition(subgroups, r, full_pgl(r, subgroups[0].tower))
        assert_leader_witnesses(part, labels, witnesses)
        assert all(fixes_flag(g) for g in witnesses.values())

    @pytest.mark.parametrize("r,p,h", [(2, 2, 3), (2, 3, 2), (3, 2, 1), (3, 3, 1)])
    def test_definition_pass_matches_the_normalizing_pass_on_all_of_pgl(self, r, p, h):
        # the oracle above, itself checked: both passes fed every element of PGL
        subgroups = [H for m in range(1, h + 1) for H in enumerate_subgroups(p, h, m)]
        tower = subgroups[0].tower
        assert (definition_partition(subgroups, r, full_pgl(r, tower))
                == reference_partition(subgroups, r, full_pgl(r, tower)))

    def test_ruled_out_frames_are_not_completed(self, monkeypatch):
        # PGL(3, 4) with GF(4)'s 4 subgroups: of the 60,480 elements of PGL
        # only the q - 1 = 3 diagonals are built, each a full matrix fixing the flag
        subgroups = [H for m in (1, 2) for H in enumerate_subgroups(2, 2, m)]
        full, items = elation._iterate_pgl, []

        def recording(r, tower):
            for g in full(r, tower):
                items.append(g)
                yield g

        monkeypatch.setattr(elation, "_iterate_pgl", recording)
        assert partition(subgroups, 3).labels == (0, 0, 0, 3)
        assert Counter(map(len, items)) == {3: 3}
        assert all(fixes_flag(g) for g in items)

    @pytest.mark.parametrize("labels,message", [
        ((0, 1, 2, 3), "scalar-equivalent pair not conjugate"),
        ((0, 0, 0, 0), "inequivalent pair"),
    ])
    def test_lemma1_report_rejects_a_wrong_partition(self, monkeypatch, labels, message):
        # (r, p, h) = (2, 2, 2): three subgroups of order 2 in one class, GF(4) alone
        monkeypatch.setattr(elation, "conjugacy_partition",
                            lambda tower, element_sets, r: elation.ConjugacyPartition(labels, {}))
        with pytest.raises(VerificationError, match=message):
            selftest.lemma1_report([(2, 2, 2)])

    def test_lemma1_report_streams_each_order_once(self, monkeypatch):
        # the subgroups are the scalar classes' own members: one subspace
        # stream per order, and no enumerate_subgroups list beside it
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerate_subgroups called")

        streams = []
        real = pspace.subspace_groups
        monkeypatch.setattr(elation, "enumerate_subgroups", forbidden)
        monkeypatch.setattr(pspace, "subspace_groups",
                            lambda s, t, q, cap=None, hyperplane=False:
                            streams.append((s, t, q)) or real(s, t, q, cap, hyperplane))
        report = selftest.lemma1_report([(2, 2, 3), (3, 2, 2)])
        assert streams == [(3, 1, 2), (3, 2, 2), (3, 3, 2), (2, 1, 2), (2, 2, 2)]
        assert [row["subgroups"] for row in report] == [15, 4]

    def test_lemma1_report_builds_no_member(self, monkeypatch):
        # GF(16)'s 66 subgroups in 6 classes: scalar_multiple, and with it
        # rref, runs once per class for equivalence_classes' mu-image check;
        # elements are listed for that image and for the representative, the
        # members being mu-multiples of its elements; and conjugator runs
        # once for the case
        classes = sum(len(equivalence_classes(2, 4, m)) for m in range(1, 5))
        counts = Counter()
        for owner, name in ((elation, "scalar_multiple"), (elation, "conjugator"),
                            (linalg, "rref"), (elation.ElationGroup, "elements")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, name=name, real=real:
                                counts.update([name]) or real(*args))
        report = selftest.lemma1_report([(2, 2, 4)])
        assert classes == 6 and report[0]["subgroups"] == 66
        assert counts == {"scalar_multiple": classes, "rref": classes,
                          "elements": 2 * classes, "conjugator": 1}

    @pytest.mark.parametrize("r,p,h", [(2, 2, 4), (3, 3, 2), (4, 2, 2), (2, 3, 3)])
    def test_lemma1_steps_cap_counts_the_pass_products(self, monkeypatch, r, p, h):
        # the cap reads the pass's products, q - 1 per element of each
        # class's leader, from the closed-form class counts: the pass makes
        # exactly that many, and a cap of the steps less one refuses the case
        tower = make_field(p, h)
        leaders = sum(p**m * len(equivalence_classes(p, h, m)) for m in range(1, h + 1))
        products, real_mul, real_partition = [], FieldTower.mul, elation.conjugacy_partition

        def counted(*args):
            with monkeypatch.context() as patch:
                patch.setattr(FieldTower, "mul",
                              lambda self, a, b: products.append(a) or real_mul(self, a, b))
                return real_partition(*args)

        monkeypatch.setattr(elation, "conjugacy_partition", counted)
        steps = (tower.order - 1) * (leaders + r * r) + 2 * h * r**3
        selftest.lemma1_report([(r, p, h)], cap=steps)
        assert len(products) == (tower.order - 1) * leaders
        with pytest.raises(CapExceeded, match=f"{steps} pass steps exceed cap {steps - 1}"):
            selftest.lemma1_report([(r, p, h)], cap=steps - 1)

    @pytest.mark.parametrize("r,p,h", [(2, 2, 2), (3, 2, 1), (3, 3, 1), (3, 2, 2)])
    def test_iterate_pgl_order(self, r, p, h):
        # the witnesses are the first g swept, so the order is pinned too:
        # diag(1, ..., 1, d) for d ascending, and the full walk the tests
        # feed the oracles in PGL's own order
        tower = make_field(p, h)
        assert list(_iterate_pgl(r, tower)) == [identity(r)[:-1] + ((0,) * (r - 1) + (d,),)
                                                for d in range(1, tower.order)]
        assert list(full_pgl(r, tower)) == list(reference_iterate_pgl(r, tower))

    @pytest.mark.parametrize("r,p,h", [(2, 2, 2), (3, 2, 1), (3, 3, 1)])
    def test_iterate_pgl_is_pgl(self, r, p, h):
        # q - 1 invertible, projectively distinct matrices, each fixing the
        # flag and each a class of the brute-force PGL
        tower = make_field(p, h)
        mats = list(_iterate_pgl(r, tower))
        assert len(mats) == tower.order - 1
        assert all(len(rref(g, tower)[0]) == r for g in mats)
        assert all(fixes_flag(g) for g in mats)
        classes = {scale_projective(g, tower) for g in mats}
        assert len(classes) == len(mats)
        assert classes <= brute_force_pgl(r, tower)


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
        S = SingerGroup(4, 2)
        for H in enumerate_subgroups(2, 4, 2):
            X = subspace_of_center(H, 1)
            Y = subspace_of_center(scalar_multiple(H, t.mu), 1)
            assert Y == act(S, X)

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


def reference_correspondence(p, h, m, n):
    """The correspondence from two enumerations, the oracle of verify_correspondence.

    Every scalar class of order-p^m subgroups comes from equivalence_classes,
    which streams every subgroup; the GF(p^n)-closed ones are kept and each
    representative is mapped by subspace_of_center into the census of
    PG(h/n - 1, p^n), built on its own.  Each class must land on an orbit
    whose u times n is its minimal_n, and the classes must hit every orbit
    once.  Returns the summary dict of verify_correspondence.
    """
    classes = [c for c in equivalence_classes(p, h, m) if c.profile.minimal_n % n == 0]
    census = singer.orbit_census(h // n, m // n, p**n)
    hit = []
    for c in classes:
        i = census.orbit_index(subspace_of_center(c.representative, n))
        assert census.orbits[i].u * n == c.profile.minimal_n
        hit.append(i)
    assert sorted(hit) == list(range(len(census.orbits)))
    minimal_classes = sum(1 for c in classes if c.profile.minimal_n == n)
    return {
        "params": {"p": p, "h": h, "m": m, "n": n},
        "classes": len(classes),
        "orbits": len(census.orbits),
        "bijection": True,
        "minimal_classes": minimal_classes,
        "free_orbits": sum(1 for rec in census.orbits if rec.u == 1),
        "minimal_match": True,
        "predicted_classes": count_classes(p, h, m, n),
        "predicted_minimal": count_classes(p, h, m, n, minimal=True),
    }


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

    # the whole p^h <= 256 box, every n | gcd(m, h), at most 10^4 subgroups:
    # n = h puts the census on PG(0, q), and odd p comes with n > 1
    @pytest.mark.parametrize("p,h,m,n", [
        (p, h, m, n) for p in (2, 3, 5, 7, 11, 13) for h in range(1, 9) if p**h <= 256
        for m in range(1, h + 1) if gaussian_binomial(h, m, p) <= 10**4
        for n in range(1, h + 1) if gcd(m, h) % n == 0])
    def test_every_subfield_degree(self, p, h, m, n):
        report = verify_correspondence(p, h, m, n)
        assert report["classes"] == report["orbits"] == report["predicted_classes"]
        assert report["minimal_classes"] == report["free_orbits"] == report["predicted_minimal"]
        assert report == reference_correspondence(p, h, m, n)

    def test_one_enumeration(self, monkeypatch):
        # the census slice is the only stream: one group_from_subspace and one
        # dimension_profile per orbit, and no subgroup is enumerated
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in [(elation, "equivalence_classes"), (pspace, "subspace_groups"),
                             (elation, "group_from_subspace"), (elation, "dimension_profile")]:
            counted(module, name)
        report = verify_correspondence(2, 6, 3, 1)
        assert report["classes"] == 23
        assert calls == {"subspace_groups": 1, "group_from_subspace": 23,
                         "dimension_profile": 23}
