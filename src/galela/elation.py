"""Elation groups of PG(r-1, p^h) with fixed center and axis.

Convention: the center is z = (0,...,0,1) and the axis is the hyperplane
X0 = 0.  The elation with parameter lam is the identity matrix with lam in
the lower-left corner, and lam -> M_lam is an isomorphism from the additive
group of GF(p^h) onto the full (z, axis)-elation group.  A subgroup of order
p^m is therefore the same thing as an m-dimensional GF(p)-subspace H of the
field, carried here by the RREF basis of its coefficient vectors.

Two subgroups give PGL-conjugate elation groups exactly when one is a
GF(p^h)-scalar multiple of the other, so classification means partitioning
subgroups into orbits under multiplication by the designated generator mu.
The partition runs on the Singer census's orbit kernel with its own action
and coordinates, so the correspondence check compares two computations.
The subfield structure of a subgroup (the largest GF(p^n) it is a vector
space over) is scalar-invariant and refines the classification; GF(p^n)* is
the subgroup's stabilizer under scalars, which equivalence_classes checks
once per class through the class size.  Each class carries the witness
scalar of every member, and conjugator builds the diagonal conjugator from
it.  The correspondence checker maps each class through coords() onto a
subspace of PG(h/n - 1, p^n), where the rank of the image alone tells
whether H is a GF(p^n)-space, and confirms the classes biject with Singer
orbits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from . import combinat, linalg, pspace, singer
from .errors import CapExceeded, VerificationError
from .gf import FieldTower, make_field

PGL_CAP = 10**7


@dataclass(frozen=True)
class ElationGroup:
    """Additive subgroup of GF(p^h) presented by an RREF coefficient basis."""

    tower: FieldTower
    rows: tuple  # m rows of h base-p digits, reduced echelon, pivots ascending

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def basis_elements(self) -> tuple:
        return tuple(self.tower.from_coeffs(row) for row in self.rows)

    def elements(self) -> tuple:
        """All p^m members as field encodings, sorted."""
        tower = self.tower
        out = [0]
        for b in self.basis_elements:
            shifts = [tower.mul(c, b) for c in range(tower.p)]
            out = [tower.add(x, s) for s in shifts for x in out]
        if len(set(out)) != tower.p ** self.m:
            raise VerificationError(
                "subgroup basis does not span p^m distinct elements",
                {"field": [tower.p, tower.h], "rows": [list(row) for row in self.rows],
                 "distinct": len(set(out))})
        return tuple(sorted(out))

    def contains(self, lam: int) -> bool:
        tower = self.tower
        p = tower.p
        v = list(tower.coeffs(lam))
        for row in self.rows:
            c = next(j for j, x in enumerate(row) if x)
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return not any(v)


@dataclass(frozen=True)
class DimensionProfile:
    admissible: tuple  # (n, dimension over GF(p^n)) pairs, n ascending
    minimal_n: int
    minimal_d: int


@dataclass(frozen=True)
class EquivalenceClass:
    representative: ElationGroup
    members: tuple
    witness_scalars: tuple  # alpha with alpha * representative == member, aligned
    profile: DimensionProfile

    @property
    def size(self) -> int:
        return len(self.members)


def elation_matrix(tower: FieldTower, lam: int, r: int):
    """r x r elation matrix: identity plus lam at position (r-1, 0)."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if not 0 <= lam < tower.order:
        raise ValueError(f"{lam} is not an element of {tower!r}")
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    rows[r - 1][0] = lam
    return tuple(tuple(row) for row in rows)


def _group_from_rows(tower, raw_rows):
    red, _ = linalg.rref(raw_rows, pspace.field_for(tower.p))
    return ElationGroup(tower, red)


def group_from_elements(tower: FieldTower, elems) -> ElationGroup:
    """Subgroup generated (as a GF(p)-space) by the given field elements."""
    rows = [tower.coeffs(e) for e in elems]
    return _group_from_rows(tower, rows)


def enumerate_subgroups(p: int, h: int, m: int, cap=None) -> list[ElationGroup]:
    """All additive subgroups of GF(p^h) of order p^m, sorted canonically."""
    if not 1 <= m <= h:
        raise ValueError(f"bad subgroup rank {m} for GF({p}^{h})")
    tower = make_field(p, h)
    fam = pspace.enumerate_subspaces(h, m, p, cap=cap)
    return [ElationGroup(tower, X.basis) for X in fam]


def scalar_multiple(H: ElationGroup, alpha: int) -> ElationGroup:
    """The subgroup alpha * H."""
    tower = H.tower
    if alpha == 0:
        raise ValueError("zero is not a valid scalar for a subgroup")
    rows = [tower.coeffs(tower.mul(alpha, e)) for e in H.basis_elements]
    return _group_from_rows(tower, rows)


def dimension_profile(H: ElationGroup) -> DimensionProfile:
    """Admissible subfields: n with H closed under GF(p^n)-scalars.

    Closure under the canonical subfield generator suffices, since the whole
    subfield is its GF(p)-span of powers.  Candidates are the divisors of
    gcd(m, h), and the admissible set is closed under lcm, so it has a
    unique maximum: the field over which H has minimal dimension.
    """
    tower = H.tower
    admissible = []
    for n in combinat.divisors(gcd(H.m, tower.h)):
        gamma = tower.subfield_generator(n)
        if all(H.contains(tower.mul(gamma, b)) for b in H.basis_elements):
            admissible.append((n, H.m // n))
    if not admissible or admissible[0] != (1, H.m):
        raise VerificationError("subgroup is not closed under prime-field scalars",
                                {"field": (tower.p, tower.h), "rows": H.rows})
    minimal_n = max(n for n, _ in admissible)
    return DimensionProfile(tuple(admissible), minimal_n, H.m // minimal_n)


def scalar_equivalent(H1: ElationGroup, H2: ElationGroup):
    """Least mu-power alpha with alpha * H1 == H2, else None.

    Prime-field scalars fix every subgroup, so the search covers the coset
    representatives mu^k, 0 <= k < (p^h - 1)/(p - 1), of GF(p^h)* over GF(p)*.
    """
    tower = H1.tower
    if H2.tower is not tower or H1.m != H2.m:
        raise ValueError("subgroups live in different settings")
    for k in range(combinat.theta(tower.h, tower.p)):
        alpha = tower.exp[k]
        if scalar_multiple(H1, alpha).rows == H2.rows:
            return alpha
    return None


def equivalence_classes(p: int, h: int, m: int, cap=None) -> list[EquivalenceClass]:
    """Partition all order-p^m subgroups into scalar-multiplication classes.

    Classes come back sorted by representative (the lexicographically least
    RREF basis in the class).  Member k is the k-th step of the walk under
    mu, so mu^k times the representative: mu^k is its witness scalar.  One
    identity is checked per class: the stabilizer under scalars is GF(p^n)*,
    n the representative's minimal_n, so the class has theta(h, p)/theta(n, p)
    members.  It compares the walk's length with the profile read off by
    contains(), two independent computations.  The profile is computed for
    the representative alone, since H and alpha*H are spaces over the same
    subfields.
    """
    subs = enumerate_subgroups(p, h, m, cap=cap)
    tower = make_field(p, h)
    mu = tower.mu
    classes = []
    for walk in singer.orbit_partition(subs, lambda H: scalar_multiple(H, mu)):
        rep = walk[0]
        profile = dimension_profile(rep)
        if len(walk) * combinat.theta(profile.minimal_n, p) != combinat.theta(h, p):
            raise VerificationError("class size is not theta(h, p)/theta(minimal_n, p)",
                                    {"field": (p, h), "representative": rep.rows,
                                     "size": len(walk), "minimal_n": profile.minimal_n})
        classes.append(EquivalenceClass(rep, tuple(walk), tuple(tower.exp[:len(walk)]), profile))
    return classes


def conjugator(H: ElationGroup, alpha: int, r: int):
    """Diagonal matrix conjugating the elation group of H onto that of alpha * H.

    alpha is the class's witness scalar; the returned matrix is the identity
    with alpha in the last diagonal slot, and the projective identity
    g M_lam g^-1 == M_(alpha lam) is checked for every lam in H.
    """
    tower = H.tower
    if not 0 < alpha < tower.order:
        raise ValueError(f"{alpha} is not a nonzero element of {tower!r}")
    g = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    g[r - 1][r - 1] = alpha
    g = tuple(tuple(row) for row in g)
    ginv = linalg.mat_inverse(g, tower)
    for lam in H.elements():
        lhs = linalg.matmul(linalg.matmul(g, elation_matrix(tower, lam, r), tower), ginv, tower)
        rhs = elation_matrix(tower, tower.mul(alpha, lam), r)
        if linalg.scale_projective(lhs, tower) != linalg.scale_projective(rhs, tower):
            raise VerificationError(
                "diagonal conjugator fails the projective identity",
                {"field": [tower.p, tower.h], "r": r, "alpha": alpha, "lam": lam,
                 "conjugate": [list(row) for row in lhs],
                 "expected": [list(row) for row in rhs]})
    return g


def pgl_order(r: int, q: int) -> int:
    num = 1
    for i in range(r):
        num *= q**r - q**i
    return combinat.exact_div(num, q - 1)


def _grow_span(rows, pivots, v, tower):
    """Extend a frame by one row: the RREF basis of rows + v and its pivots,
    or None when v already lies in the span of rows."""
    if linalg.in_rowspace(v, rows, pivots, tower):
        return None
    return linalg.rref(rows + (v,), tower)


def _iterate_pgl(r: int, tower: FieldTower):
    """All of PGL(r, q), one matrix per projective class, streamed.

    The first row is a normalized projective point, later rows are arbitrary
    vectors outside the span of the earlier ones.  Independence is decided by
    reducing each candidate against the RREF basis of the rows chosen so far.
    """
    q = tower.order
    nonzero = [v for v in itertools.product(range(q), repeat=r) if any(v)]

    def extend(frame, rows, pivots):
        if len(frame) == r - 1:
            # the last row's extended basis is never used, only its independence
            for v in nonzero:
                if not linalg.in_rowspace(v, rows, pivots, tower):
                    yield frame + (v,)
            return
        for v in nonzero:
            grown = _grow_span(rows, pivots, v, tower)
            if grown is not None:
                yield from extend(frame + (v,), *grown)

    for fr in pspace.enumerate_points(r, q):
        yield from extend((fr,), *_grow_span((), (), fr, tower))


@dataclass(frozen=True)
class ConjugacyPartition:
    """Subgroups partitioned by PGL-conjugacy of their elation groups."""

    labels: tuple  # labels[i]: least index of a subgroup conjugate to subgroup i
    witnesses: dict  # (i, j) -> first g swept with g E(H_i) g^-1 == E(H_j), i != j

    @property
    def classes(self) -> tuple:
        """Subgroup indices grouped by class, each class and the list ascending."""
        out: dict[int, list] = {}
        for i, label in enumerate(self.labels):
            out.setdefault(label, []).append(i)
        return tuple(tuple(members) for _, members in sorted(out.items()))


def conjugacy_partition(subgroups, r: int, cap=None) -> ConjugacyPartition:
    """Partition subgroups by PGL(r, q)-conjugacy in one exhaustive pass.

    For every g in PGL(r, q) and every subgroup H the pass forms the projective
    set {g M_lam : lam in H} and looks each member up in {N_mu g : mu in GF(q)}.
    g conjugates E(H) onto E(H') exactly when every lookup hits and the mu
    found are the elements of H', which is the comparison {g M} == {N g} of
    g E(H) g^-1 == E(H') with no inverse formed.  g M_lam is g with lam times
    column r-1 added to column 0 and N_mu g is g with mu times row 0 added to
    row r-1, so each product is a rank-1 update.  A subgroup is dropped for g
    at its first nonzero lam that misses; every match joins the two subgroups
    in a union-find, whose blocks are the classes.  No theory beyond the
    definition is used: every element of PGL is visited and the count is
    checked against pgl_order.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if not subgroups:
        raise ValueError("no subgroups to partition")
    tower = subgroups[0].tower
    if any(H.tower is not tower for H in subgroups):
        raise ValueError("subgroups live in different fields")
    q = tower.order
    size = pgl_order(r, q)
    limit = PGL_CAP if cap is None else cap
    if size > limit:
        raise CapExceeded(f"|PGL({r},{q})| = {size} exceeds cap {limit}")
    add, mul, key = tower.add, tower.mul, linalg.scale_projective
    # lam = 0 always matches through N_0 = identity, so it is skipped
    nonzero = [tuple(lam for lam in H.elements() if lam) for H in subgroups]
    by_elements: dict[frozenset, list] = {}
    for i, H in enumerate(subgroups):
        by_elements.setdefault(frozenset(H.elements()), []).append(i)
    parent = list(range(len(subgroups)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    witnesses = {}
    count = 0
    for g in _iterate_pgl(r, tower):
        count += 1
        top, last = g[0], g[-1]
        right = {}  # projective class of N_mu g -> mu
        for mu in range(q):
            ng = g[:-1] + (tuple(add(a, mul(mu, b)) for a, b in zip(last, top)),)
            right[key(ng, tower)] = mu
        image = {}  # lam -> mu with g M_lam ~ N_mu g, or None
        for i, lams in enumerate(nonzero):
            mus = {0}
            for lam in lams:
                if lam not in image:
                    gm = tuple((add(row[0], mul(lam, row[-1])),) + row[1:] for row in g)
                    image[lam] = right.get(key(gm, tower))
                mu = image[lam]
                if mu is None:
                    break
                mus.add(mu)
            else:
                for j in by_elements.get(frozenset(mus), ()):
                    if j != i:
                        witnesses.setdefault((i, j), g)
                        parent[find(i)] = find(j)
    if count != size:
        raise VerificationError("PGL sweep visited the wrong number of elements",
                                {"r": r, "q": q, "swept": count, "pgl_order": size})
    roots = [find(i) for i in range(len(subgroups))]
    least = {}
    for i, root in enumerate(roots):
        least.setdefault(root, i)
    return ConjugacyPartition(tuple(least[root] for root in roots), witnesses)


def no_conjugation_witness(H1: ElationGroup, H2: ElationGroup, r: int, cap: int = PGL_CAP) -> bool:
    """Exhaustively confirm no g in PGL(r, p^h) conjugates E(H1) onto E(H2).

    A single conjugacy_partition pass over PGL with the two subgroups; True
    when they land in different classes, i.e. the pass found no witness.
    """
    labels = conjugacy_partition((H1, H2), r, cap).labels
    return labels[0] != labels[1]


def subspace_of_center(H: ElationGroup, n: int) -> pspace.Subspace:
    """Image of H under coords(., n): an (m/n)-subspace of PG(h/n - 1, p^n)."""
    tower = H.tower
    X = pspace.span([tower.coords(b, n) for b in H.basis_elements], tower.p**n)
    # coords is a GF(p^n)-linear bijection, so n * rank >= m, with equality
    # exactly when H is a GF(p^n)-space
    if n * X.t > H.m:
        raise ValueError(f"subgroup is not a GF({tower.p}^{n})-space")
    if n * X.t < H.m:
        raise VerificationError("coords is not injective on the subgroup",
                                {"field": (tower.p, tower.h), "n": n, "rows": H.rows})
    return X


def group_from_subspace(X: pspace.Subspace, h: int) -> ElationGroup:
    """Inverse of subspace_of_center: rebuild the subgroup from its subspace."""
    p, n = combinat.prime_power(X.q)
    tower = make_field(p, h)
    gamma = tower.subfield_generator(n)
    raw = []
    for row in X.basis:
        e = tower.from_coords(row, n)
        g = 1
        for _ in range(n):
            raw.append(tower.coeffs(tower.mul(g, e)))
            g = tower.mul(g, gamma)
    H = _group_from_rows(tower, raw)
    if H.m != n * X.t:
        raise VerificationError("subgroup of a subspace has the wrong rank",
                                {"field": (p, h), "subspace": X.basis, "rank": H.m})
    return H


def count_classes(p: int, h: int, m: int, n: int, minimal: bool = False) -> int:
    """Closed-form count of classes of order-p^m subgroups that are GF(p^n)-spaces.

    With minimal=True, counts only the classes whose largest admissible
    subfield is exactly GF(p^n).
    """
    if not combinat.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= m <= h:
        raise ValueError(f"bad subgroup rank {m} for GF({p}^{h})")
    if n < 1 or gcd(m, h) % n != 0:
        raise ValueError(f"n = {n} does not divide gcd({m}, {h})")
    if minimal:
        return singer.predicted_free_orbit_count(h // n, m // n, p**n)
    return singer.predicted_orbit_count(h // n, m // n, p**n)


def verify_correspondence(p: int, h: int, m: int, n: int, cap=None) -> dict:
    """Check that classes of GF(p^n)-closed subgroups biject with Singer orbits.

    subspace_of_center must send each class into a single orbit of
    (m/n)-subspaces of PG(h/n - 1, p^n), hitting every orbit exactly once,
    and the classes of minimal dimension must land exactly on the free
    orbits (u = 1).  The class counts must equal count_classes' closed
    forms.  Raises VerificationError with a counterexample if any part
    fails; returns a summary dict when everything holds.
    """
    if n < 1 or gcd(m, h) % n != 0:
        raise ValueError(f"n = {n} does not divide gcd({m}, {h})")
    classes = [c for c in equivalence_classes(p, h, m, cap=cap)
               if n in {nn for nn, _ in c.profile.admissible}]
    census = singer.orbit_census(h // n, m // n, p**n, cap=cap)

    class_orbit = []
    for c in classes:
        idxs = {census.orbit_index(subspace_of_center(H, n)) for H in c.members}
        if len(idxs) != 1:
            raise VerificationError(
                "class scatters over several orbits",
                {"params": [p, h, m, n],
                 "class_representative": [list(r) for r in c.representative.rows],
                 "orbit_indices": sorted(idxs)})
        class_orbit.append(idxs.pop())

    if len(set(class_orbit)) != len(classes):
        raise VerificationError("class-to-orbit map is not injective",
                                {"params": [p, h, m, n], "orbit_indices": class_orbit})
    if set(class_orbit) != set(range(len(census.orbits))):
        raise VerificationError("class-to-orbit map is not surjective",
                                {"params": [p, h, m, n],
                                 "hit": sorted(set(class_orbit)),
                                 "orbits": len(census.orbits)})

    minimal_classes = 0
    for c, oi in zip(classes, class_orbit):
        is_minimal = c.profile.minimal_n == n
        minimal_classes += is_minimal
        if is_minimal != (census.orbits[oi].u == 1):
            raise VerificationError(
                "minimal-dimension refinement mismatch",
                {"params": [p, h, m, n],
                 "class_representative": [list(r) for r in c.representative.rows],
                 "minimal_n": c.profile.minimal_n, "orbit_u": census.orbits[oi].u})

    predicted = [count_classes(p, h, m, n), count_classes(p, h, m, n, minimal=True)]
    if [len(classes), minimal_classes] != predicted:
        raise VerificationError("class counts differ from the closed forms",
                                {"params": [p, h, m, n],
                                 "observed": [len(classes), minimal_classes],
                                 "predicted": predicted})
    return {
        "params": {"p": p, "h": h, "m": m, "n": n},
        "classes": len(classes),
        "orbits": len(census.orbits),
        "bijection": True,
        "minimal_classes": minimal_classes,
        "free_orbits": sum(1 for rec in census.orbits if rec.u == 1),
        "minimal_match": True,
        "predicted_classes": predicted[0],
        "predicted_minimal": predicted[1],
    }
