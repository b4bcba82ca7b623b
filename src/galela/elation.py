"""Elation groups of PG(r-1, p^h) with fixed center and axis.

Convention: the center is z = (0,...,0,1) and the axis is the hyperplane
X0 = 0.  The elation with parameter lam is the identity matrix with lam in
the lower-left corner, and lam -> M_lam is an isomorphism from the additive
group of GF(p^h) onto the full (z, axis)-elation group.  A subgroup of order
p^m is therefore the same thing as an m-dimensional GF(p)-subspace H of the
field, carried here by the RREF basis of its coefficient vectors.

Two subgroups give PGL-conjugate elation groups exactly when one is a
GF(p^h)-scalar multiple of the other, so classification means partitioning
subgroups into orbits under multiplication by the designated generator mu,
a Singer cycle on the points of GF(p^h) seen as PG(h-1, p).  The partition
runs as the Singer census does: singer.span_log_sets reads each subgroup's
log_set (the exponents of its nonzero elements mod theta(h,p), one
theta(h,p)-bit integer) from the field's own log and Zech tables in one
sorted pass over pspace.subspace_groups, and singer.rotation_orbits walks
them with mu acting as a one-bit rotation.  Each walk starts at its class's
least basis, and only that representative and its mu-image are built:
member k is mu^k times the representative, its witness scalar, derived on
demand by scalar_multiple, and conjugator builds the diagonal conjugator
from it.

The RREF action, scalar_multiple, stays on one side of the walk: per
class, mu times the representative must have as its points, read from its
elements through the log table and OR-ed into bits (for p > 2 several
elements share a point), the rotation of the representative's log set,
which ties the rotation's direction and the tables to the action.  The
largest GF(p^n) a subgroup is a space over is scalar-invariant and refines
the classification; GF(p^n)* is the stabilizer under scalars, checked per
class as u == n, u read off the class size by the kernel.  The
correspondence checker enumerates only the Singer census of PG(h/n - 1,
p^n) and pulls each orbit back through from_coords to its class.
"""

from __future__ import annotations

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
        """All p^m members as field encodings, sorted: the span of the
        coefficient rows, one linalg.coset of the zero vector."""
        tower = self.tower
        out = [tower.from_coeffs(v) for v in
               linalg.coset((0,) * tower.h, self.rows, pspace.field_for(tower.p))]
        if len(set(out)) != tower.p ** self.m:
            raise VerificationError(
                "subgroup basis does not span p^m distinct elements",
                {"field": [tower.p, tower.h], "rows": [list(row) for row in self.rows],
                 "distinct": len(set(out))})
        return tuple(sorted(out))

    def contains(self, lam: int) -> bool:
        return pspace.contains(pspace.Subspace(self.tower.p, self.rows), self.tower.coeffs(lam))


@dataclass(frozen=True)
class DimensionProfile:
    admissible: tuple  # (n, dimension over GF(p^n)) pairs, n ascending
    minimal_n: int
    minimal_d: int


@dataclass(frozen=True)
class EquivalenceClass:
    """A scalar class: member k < size is mu^k times the representative, derived on read."""

    representative: ElationGroup
    size: int
    profile: DimensionProfile

    @property
    def witness_scalars(self) -> tuple:
        """mu^k for k < size: alpha with alpha * representative == member, aligned."""
        return tuple(self.representative.tower.exp[:self.size])

    @property
    def members(self) -> tuple:
        """Each witness scalar times the representative, one scalar_multiple each."""
        return tuple(scalar_multiple(self.representative, alpha)
                     for alpha in self.witness_scalars)


def elation_matrix(tower: FieldTower, lam: int, r: int):
    """r x r elation matrix: identity plus lam at position (r-1, 0)."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if not 0 <= lam < tower.order:
        raise ValueError(f"{lam} is not an element of {tower!r}")
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    rows[r - 1][0] = lam
    return tuple(tuple(row) for row in rows)


def group_from_elements(tower: FieldTower, elems) -> ElationGroup:
    """Subgroup generated (as a GF(p)-space) by the given field elements."""
    red, _ = linalg.rref([tower.coeffs(e) for e in elems], pspace.field_for(tower.p))
    return ElationGroup(tower, red)


def _subgroup_groups(p: int, h: int, m: int, cap):
    """pspace.subspace_groups of the order-p^m subgroups' coefficient bases."""
    if not 1 <= m <= h:
        raise ValueError(f"bad subgroup rank {m} for GF({p}^{h})")
    return pspace.subspace_groups(h, m, p, cap=cap)


def enumerate_subgroups(p: int, h: int, m: int, cap=None) -> list[ElationGroup]:
    """All additive subgroups of GF(p^h) of order p^m, sorted canonically."""
    groups = _subgroup_groups(p, h, m, cap)
    tower = make_field(p, h)
    return [ElationGroup(tower, prefix + (row,)) for prefix, rows in groups for row in rows]


def scalar_multiple(H: ElationGroup, alpha: int) -> ElationGroup:
    """The subgroup alpha * H: the span of alpha times H's basis elements."""
    tower = H.tower
    if alpha == 0:
        raise ValueError("zero is not a valid scalar for a subgroup")
    return group_from_elements(tower, [tower.mul(alpha, e) for e in H.basis_elements])


def dimension_profile(H: ElationGroup) -> DimensionProfile:
    """Admissible subfields: n with H closed under GF(p^n)-scalars.

    Closure under the canonical subfield generator suffices, since the whole
    subfield is its GF(p)-span of powers.  Candidates are the divisors of
    gcd(m, h).  A space over GF(p^a) and GF(p^b) is one over GF(p^lcm(a,b))
    and over their subfields, so the admissible degrees must be exactly the
    divisors of the largest, minimal_n, over which H has minimal dimension;
    VerificationError otherwise.  Membership is reduction against H's RREF
    rows, whose pivots are found once per call.
    """
    tower = H.tower
    field, rows = pspace.field_for(tower.p), H.rows
    pivots = tuple(next(j for j, c in enumerate(row) if c) for row in rows)
    degrees = [n for n in combinat.divisors(gcd(H.m, tower.h))
               if all(linalg.in_rowspace(tower.coeffs(tower.mul(tower.subfield_generator(n), b)),
                                         rows, pivots, field)
                      for b in H.basis_elements)]
    minimal_n = max(degrees, default=1)
    if degrees != combinat.divisors(minimal_n):
        raise VerificationError("admissible subfield degrees are not the divisors of the largest",
                                {"field": (tower.p, tower.h), "rows": H.rows,
                                 "degrees": degrees})
    return DimensionProfile(tuple((n, H.m // n) for n in degrees), minimal_n, H.m // minimal_n)


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


def log_set(H: ElationGroup) -> int:
    """The points of H in PG(h-1, p) as a theta(h,p)-bit integer: bit k for mu^k.

    The nonzero elements of H, exponents taken mod theta(h,p), read from the
    field's own log and Zech tables by singer.span_log_sets, which checks
    that H has theta(m,p) points.
    """
    return next(_class_log_sets(H.tower, [(H.rows[:-1], H.rows[-1:])]))[2][0]


def _class_log_sets(tower: FieldTower, groups):
    """singer.span_log_sets of groups of coefficient bases, from the tower's tables."""
    log, encode = tower.log, tower.from_coeffs
    return singer.span_log_sets(groups, lambda row: log[encode(row)], tower,
                                combinat.theta(tower.h, tower.p),
                                lambda rows: {"field": (tower.p, tower.h), "rows": rows})


def equivalence_classes(p: int, h: int, m: int, cap=None) -> list[EquivalenceClass]:
    """Partition all order-p^m subgroups into scalar-multiplication classes.

    singer.rotation_orbits walks the subgroups' log_sets, sorted, so each
    class starts at its least RREF basis, the representative, and the
    classes come back sorted by it; the kernel reads u off each class's
    length and checks the closed-form class counts for every n | gcd(m, h).
    Only the representative and its mu-image are built per class.  Two
    identities are checked per class: scalar_multiple(representative, mu),
    one RREF, has the rotated log set of the representative as its points,
    the walk's next member; and the stabilizer under scalars is GF(p^n)*, n
    the representative's minimal_n as RREF membership reads it, so u == n.  The
    profile holds for every member, as alpha*H is a space over H's subfields.
    m, cap and the order of GF(p^h) are checked before any vector is listed;
    the Zech table the stream reads comes checked from the field.
    """
    groups = _subgroup_groups(p, h, m, cap)
    tower = make_field(p, h)
    theta = combinat.theta(h, p)
    _, orbits = singer.rotation_orbits(_class_log_sets(tower, groups), h, m, p)
    classes = []
    for u, size, rows, bits in orbits:
        rep = ElationGroup(tower, rows)
        image, walked = scalar_multiple(rep, tower.mu), singer.rotate(bits, theta)
        points = 0
        for x in image.elements()[1:]:  # sorted, so all but 0
            points |= 1 << tower.log[x] % theta
        if points != walked:
            raise VerificationError("mu times the representative is not the walk's next member",
                                    {"field": (p, h), "representative": rows,
                                     "image": image.rows, "image_points": points,
                                     "walked_points": walked})
        profile = dimension_profile(rep)
        if u != profile.minimal_n:
            raise VerificationError("class size is not theta(h, p)/theta(minimal_n, p)",
                                    {"field": (p, h), "representative": rows,
                                     "size": size, "u": u, "minimal_n": profile.minimal_n})
        classes.append(EquivalenceClass(rep, size, profile))
    return classes


def _diagonal(r: int, d: int):
    """diag(1, ..., 1, d), r x r: the identity with d in the last diagonal slot."""
    return tuple(tuple(d if i == j == r - 1 else int(i == j) for j in range(r)) for i in range(r))


def conjugator(H: ElationGroup, alpha: int, r: int):
    """Diagonal matrix conjugating the elation group of H onto that of alpha * H.

    alpha is the class's witness scalar; the returned matrix g is
    diag(1, ..., 1, alpha), and g M_lam == M_(alpha lam) g is checked entry
    by entry for every lam in H, the no-inverse form conjugacy_partition
    tests with c = 1.  Exact equality implies the projective identity
    g M_lam g^-1 == M_(alpha lam).
    """
    tower = H.tower
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if not 0 < alpha < tower.order:
        raise ValueError(f"{alpha} is not a nonzero element of {tower!r}")
    g = _diagonal(r, alpha)
    for lam in H.elements():
        lhs = linalg.matmul(g, elation_matrix(tower, lam, r), tower)
        rhs = linalg.matmul(elation_matrix(tower, tower.mul(alpha, lam), r), g, tower)
        if lhs != rhs:
            raise VerificationError(
                "diagonal conjugator fails g M_lam == M_(alpha lam) g",
                {"field": [tower.p, tower.h], "r": r, "alpha": alpha, "lam": lam,
                 "g_times_m_lam": [list(row) for row in lhs],
                 "m_alpha_lam_times_g": [list(row) for row in rhs]})
    return g


def pgl_order(r: int, q: int) -> int:
    num = 1
    for i in range(r):
        num *= q**r - q**i
    return combinat.exact_div(num, q - 1)


def admit_sweep(r: int, q: int, cap=None) -> int:
    """|PGL(r, q)|; ValueError unless r >= 2, CapExceeded above cap (PGL_CAP if None)."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    size, limit = pgl_order(r, q), PGL_CAP if cap is None else cap
    if size > limit:
        raise CapExceeded(f"|PGL({r},{q})| = {size} exceeds cap {limit}")
    return size


# no caller in the package: kept only because perfbench/trace_layers.py counts its calls
def _grow_span(span, v, add, mul):
    """The span of a frame's rows grown by the row v, outside span: every
    s + c v with s in span and c in GF(q), a set of q |span| vectors.  add
    and mul are the field's tables."""
    multiples = [[row[x] for x in v] for row in mul]
    return {tuple(add[a][b] for a, b in zip(s, w)) for s in span for w in multiples}


def _iterate_pgl(r: int, tower: FieldTower):
    """diag(1, ..., 1, d) for d = 1, ..., q - 1: one projectivity per map lam -> d lam.

    conjugacy_partition explains why these q - 1 elements of PGL(r, q) are
    the only ones its pass needs.
    """
    for d in range(1, tower.order):
        yield _diagonal(r, d)


@dataclass(frozen=True)
class ConjugacyPartition:
    """Subgroups partitioned by PGL-conjugacy of their elation groups."""

    labels: tuple  # labels[i]: least index of a subgroup conjugate to subgroup i
    witnesses: dict  # (i, j) -> first diag(1, ..., 1, d) swept with d H_i == H_j, i != j

    @property
    def classes(self) -> tuple:
        """Subgroup indices grouped by class, each class and the list ascending."""
        out: dict[int, list] = {}
        for i, label in enumerate(self.labels):
            out.setdefault(label, []).append(i)
        return tuple(tuple(members) for _, members in sorted(out.items()))


def conjugacy_partition(subgroups, r: int, cap=None) -> ConjugacyPartition:
    """Partition subgroups by PGL(r, q)-conjugacy in one pass over q - 1 matrices.

    g E(H) g^-1 has center g z and axis g(X0 = 0), and a nontrivial elation
    determines both, so a g carrying E(H) onto E(H') fixes the flag
    (z, X0 = 0): scaled so that row 0 is e_0, its column r-1 is d e_{r-1}.
    g conjugates E(H) onto E(H') exactly when for every lam in H there are
    mu in H' and a nonzero c with g M_lam == c N_mu g, and the mu found are
    the elements of H'.  g M_lam is g with lam times column r-1 added to
    column 0, and N_mu g is g with mu times row 0 added to row r-1, so for
    such a g the first is g with lam d added at (r-1, 0) and the second g
    with mu added there: c == 1 and mu == d lam.  g therefore carries E(H)
    onto E(d H), which depends on d alone, and the pass tries one g per d,
    diag(1, ..., 1, d) from _iterate_pgl; VerificationError unless the
    stream is exactly those q - 1 matrices, in any order.  H_i is joined in
    a union-find with each H_j whose element set is d H_i, the blocks are
    the classes, and the first g streamed for a pair is its witness.  cap
    bounds |PGL(r, q)|.
    """
    if not subgroups:
        raise ValueError("no subgroups to partition")
    tower = subgroups[0].tower
    if any(H.tower is not tower for H in subgroups):
        raise ValueError("subgroups live in different fields")
    q = tower.order
    admit_sweep(r, q, cap)
    sweep = list(_iterate_pgl(r, tower))
    if sorted(sweep) != [_diagonal(r, d) for d in range(1, q)]:
        raise VerificationError("PGL sweep is not the q - 1 diagonal projectivities",
                                {"r": r, "q": q,
                                 "swept": [[list(row) for row in g] for g in sweep]})
    elements = [H.elements() for H in subgroups]
    by_elements: dict[frozenset, list] = {}
    for i, lams in enumerate(elements):
        by_elements.setdefault(frozenset(lams), []).append(i)
    parent = list(range(len(subgroups)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    witnesses = {}
    for g in sweep:
        times_d = [tower.mul(g[-1][-1], lam) for lam in range(q)]
        for i, lams in enumerate(elements):
            for j in by_elements.get(frozenset(times_d[lam] for lam in lams), ()):
                if j != i and (i, j) not in witnesses:
                    witnesses[i, j] = g
                    parent[find(i)] = find(j)
    roots = [find(i) for i in range(len(subgroups))]
    least = {}
    for i, root in enumerate(roots):
        least.setdefault(root, i)
    return ConjugacyPartition(tuple(least[root] for root in roots), witnesses)


def no_conjugation_witness(H1: ElationGroup, H2: ElationGroup, r: int, cap: int = PGL_CAP) -> bool:
    """Exhaustively confirm no g in PGL(r, p^h) conjugates E(H1) onto E(H2).

    Such a g would fix the center and the axis the two groups share and
    carry E(H1) onto E(d H1), d its last diagonal entry, so a single
    conjugacy_partition pass over the q - 1 maps lam -> d lam decides it;
    True when they land in different classes, i.e. the pass found no
    witness.  cap bounds |PGL(r, p^h)|.
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
    # each row's element times gamma^j, j < n: a GF(p)-basis of its GF(p^n)-multiples
    H = group_from_elements(tower, [tower.mul(tower.pow(gamma, j), tower.from_coords(row, n))
                                    for row in X.basis for j in range(n)])
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

    One enumeration, bounded by cap: orbit_census(h/n, m/n, p^n).  Checked
    once per call, in one pass over the h GF(p)-basis elements x, so on
    every element as coords(., n) is GF(p)-linear: coords(mu x) == C
    coords(x), C the Singer generator; from_coords(coords(x)) == x;
    coords(gamma x) == rho coords(x), gamma the GF(p^n) generator, rho its
    canonical encoding.  C must then act as rotate on each point, hence on
    every log set.  coords is then a GF(p^n)-linear bijection taking mu H
    to C coords(H), so the scalar classes of GF(p^n)-closed order-p^m
    subgroups go one to one onto the orbits; group_from_subspace pulls
    each representative back to an H of its class.  H's minimal_n, from
    RREF contains, must be n u, u from the census walk: the class's
    stabilizer is the orbit's, and for u = 1 the minimal classes are the
    free orbits.  orbit_census has compared count_classes' closed forms, its
    own for d = 1, with these counts.  Each check raises VerificationError.
    """
    # count_classes rejects bad parameters before the census is built
    predicted = [count_classes(p, h, m, n), count_classes(p, h, m, n, minimal=True)]
    census = singer.orbit_census(h // n, m // n, p**n, cap=cap)
    S, tower, params = census.singer, make_field(p, h), [p, h, m, n]
    gamma = tower.subfield_generator(n)
    rho = tower.to_subfield(gamma, n)
    # p**i encodes the element with coefficient vector e_i: a GF(p)-basis
    for x in (p**i for i in range(h)):
        cs = tower.coords(x, n)
        image = tower.coords(tower.mul(tower.mu, x), n)
        moved = linalg.matvec(S.generator, cs, S.field)
        if image != moved:
            raise VerificationError("coords does not take mu to the Singer generator",
                                    {"params": params, "x": x, "coords_of_mu_x": image,
                                     "generator_times_coords": moved})
        back = tower.from_coords(cs, n)
        if back != x:
            raise VerificationError("from_coords does not invert coords",
                                    {"params": params, "x": x, "coords": cs, "from_coords": back})
        image = tower.coords(tower.mul(gamma, x), n)
        scaled = tuple(S.field.mul(rho, c) for c in cs)
        if image != scaled:
            raise VerificationError("coords does not take the subfield generator to its scalar",
                                    {"params": params, "x": x, "coords_of_gamma_x": image,
                                     "rho_times_coords": scaled})
    # compared with rotate itself, not with log v + 1, so a wrong rotation fails here
    theta = S.projective_order
    for v, k in S.log.items():
        w = pspace.normalize_point(linalg.matvec(S.generator, v, S.field), S.q)
        if singer.rotate(1 << k % theta, theta) != 1 << S.log[w] % theta:
            raise VerificationError("rotate differs from the Singer generator on a point",
                                    {"params": params, "point": v, "log": k % theta,
                                     "image": w, "image_log": S.log[w] % theta})
    for i, rec in enumerate(census.orbits):
        H = group_from_subspace(rec.representative, h)
        minimal_n = dimension_profile(H).minimal_n
        if minimal_n != n * rec.u:
            raise VerificationError("class stabilizer differs from its orbit's",
                                    {"params": params, "representative": [list(r) for r in H.rows],
                                     "orbit": i, "u": rec.u, "minimal_n": minimal_n})
    free = sum(1 for rec in census.orbits if rec.u == 1)
    return {
        "params": {"p": p, "h": h, "m": m, "n": n},
        "classes": len(census.orbits),
        "orbits": len(census.orbits),
        "bijection": True,
        "minimal_classes": free,
        "free_orbits": free,
        "minimal_match": True,
        "predicted_classes": predicted[0],
        "predicted_minimal": predicted[1],
    }
