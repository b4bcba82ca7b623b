"""Singer cyclic groups of PG(s-1, q) and their subspace orbit censuses.

The generator is the companion matrix of the minimal polynomial over GF(q)
of the designated generator mu of GF(q^s).  Acting on coordinate columns in
the power basis 1, mu, ..., mu^(s-1), that matrix is exactly multiplication
by mu, which is what ties the orbit structure here to the scalar action on
additive subgroups in the elation module.

One orbit kernel, orbit_partition, serves the census, the point-transitivity
check of singer_generator and the scalar classes of the elation module; it
checks that the orbits it walks partition its items exactly.

Each orbit record carries the stabilizer parameter u: the orbit has length
theta(s,q)/theta(u,q) and its members sweep out a cover in which every point
of PG(s-1,q) lies on exactly theta(t,q)/theta(u,q) members.  u is read off
the walked length, which must fit a divisor of gcd(t, s), and the census
checks that every orbit is such a cover; both checks raise VerificationError.
The walk's return to its start already shows that the theta(s,q)/theta(u,q)-th
power of the generator fixes every member, so that is not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import combinat, linalg, pspace
from .errors import CapExceeded, VerificationError
from .gf import FIELD_ORDER_CAP, make_field

DEFAULT_CENSUS_CAP = 10**6


class SingerGroup:
    """Cyclic collineation group acting transitively on the points of PG(s-1,q)."""

    def __init__(self, s, q, generator, projective_order, field):
        self.s = s
        self.q = q
        self.generator = generator
        self.projective_order = projective_order
        self.field = field

    def __repr__(self):
        return f"SingerGroup(s={self.s}, q={self.q})"


def singer_generator(s: int, q: int) -> SingerGroup:
    """Canonical Singer group of PG(s-1, q), invariants verified on the spot."""
    if s < 2:
        raise ValueError(f"need ambient dimension s >= 2, got {s}")
    p, n = combinat.prime_power(q)
    if q**s > FIELD_ORDER_CAP:
        raise CapExceeded(f"GF({q}^{s}) exceeds the field order cap")
    big = make_field(p, n * s)
    small = make_field(p, n)
    mpoly = big.minimal_polynomial(big.mu, n)
    if len(mpoly) != s + 1:
        raise VerificationError("designated generator is not primitive over the subfield",
                                {"case": (s, q), "minimal_polynomial": tuple(mpoly)})
    coeffs = [big.to_subfield(c, n) for c in mpoly[:-1]]
    gen = [[0] * s for _ in range(s)]
    for j in range(s - 1):
        gen[j + 1][j] = 1
    for i in range(s):
        gen[i][s - 1] = small.neg(coeffs[i])
    gen = tuple(tuple(r) for r in gen)

    # the point orbit walked below has length theta, so no gen^k with
    # 0 < k < theta fixes every point: a scalar gen^theta makes theta the
    # projective order
    order = combinat.theta(s, q)
    mat = linalg.mat_pow(gen, order, small)
    if not _is_scalar(mat):
        raise VerificationError("gen^theta(s,q) is not a scalar matrix",
                                {"case": (s, q), "theta": order})
    scalar = mat[0][0]
    if small.element_order(scalar) * order != q**s - 1:
        raise VerificationError("linear order of the generator is not q^s - 1",
                                {"case": (s, q), "scalar": scalar})

    orbits = orbit_partition(pspace.enumerate_points(s, q),
                             lambda pt: pspace.normalize_point(linalg.matvec(gen, pt, small), q))
    if len(orbits) != 1:
        raise VerificationError("point action is not transitive",
                                {"case": (s, q), "orbit_sizes": tuple(map(len, orbits))})
    return SingerGroup(s, q, gen, order, small)


def _is_scalar(mat):
    d = mat[0][0]
    if d == 0:
        return False
    k = len(mat)
    return all(mat[i][j] == (d if i == j else 0) for i in range(k) for j in range(k))


def act(S: SingerGroup, X: pspace.Subspace, k: int = 1) -> pspace.Subspace:
    """Image of X under the k-th power of the Singer generator."""
    if X.q != S.q or X.s != S.s:
        raise ValueError(f"subspace of PG({X.s - 1},{X.q}) fed to {S!r}")
    mat = S.generator if k == 1 else \
        linalg.mat_pow(S.generator, k % S.projective_order, S.field)
    Y = pspace.span([linalg.matvec(mat, row, S.field) for row in X.basis], S.q)
    # a collineation keeps dimension; a singular generator would not
    if Y.t != X.t:
        raise VerificationError("image of a subspace has the wrong dimension",
                                {"case": (S.s, S.q), "basis": X.basis, "image": Y.basis})
    return Y


@dataclass(frozen=True)
class OrbitRecord:
    representative: pspace.Subspace
    size: int
    u: int


class OrbitCensus:
    """All Singer orbits on t-dimensional subspaces, sorted by (u, representative)."""

    def __init__(self, s, t, q, orbits, members):
        self.s = s
        self.t = t
        self.q = q
        self.orbits = orbits
        self._members = members
        self._index = None

    def orbit_index(self, X: pspace.Subspace) -> int:
        # built on first use: most censuses are never asked for an index
        if self._index is None:
            self._index = {Y.basis: i for i, mem in enumerate(self._members) for Y in mem}
        try:
            return self._index[X.basis]
        except KeyError:
            raise ValueError("subspace not covered by this census") from None

    def orbit_members(self, i: int):
        return self._members[i]

    def __len__(self):
        return len(self.orbits)


def _walk_orbit(start, step):
    """start, step(start), step(step(start)), ... up to the return to start.

    Meeting its mark (the member at the last power-of-two position, after
    Brent) again means the walk is in a cycle that misses start, as a step
    that is not a permutation of a finite set does: VerificationError.
    """
    members = [start]
    mark = start
    cur = step(start)
    while cur != start:
        if cur == mark:
            raise VerificationError("orbit walk does not return to its start",
                                    {"walked": len(members)})
        members.append(cur)
        if len(members) & (len(members) - 1) == 0:
            mark = cur
        cur = step(cur)
    return members


def orbit_partition(items, step) -> list:
    """Orbits of step on items, each walked from the first item no earlier orbit holds.

    Sorted items therefore give orbits led by their least member, in order of
    that member.  Raises VerificationError unless the orbits partition items
    exactly: none leaves items or meets another, and together they cover them.
    """
    seen = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        members = _walk_orbit(x, step)
        seen.update(members)
        orbits.append(members)
    # walks return only around cycles of step, so the orbits are disjoint
    if len(seen) != len(items):
        raise VerificationError("orbits do not partition the items", {
            "items": len(items), "covered": len(seen), "walked": sum(map(len, orbits))})
    return orbits


def orbit(S: SingerGroup, X: pspace.Subspace) -> OrbitRecord:
    """Orbit of X with its stabilizer parameter u, read off the walked length."""
    members = _walk_orbit(X, lambda Y: act(S, Y))
    return _record_for(S, X.t, members)


def _record_for(S: SingerGroup, t: int, members) -> OrbitRecord:
    size = len(members)
    q = S.q
    theta_u = combinat.exact_div(combinat.theta(S.s, q), size)
    u = next((d for d in combinat.divisors(gcd(t, S.s))
              if combinat.theta(d, q) == theta_u), None)
    if u is None:
        raise VerificationError("orbit size fits no divisor of gcd(t, s)",
                                {"case": (S.s, t, q), "size": size})
    return OrbitRecord(min(members, key=lambda m: m.basis), size, u)


def orbit_census(s: int, t: int, q: int, cap=None) -> OrbitCensus:
    """Partition all t-dimensional subspaces of PG(s-1,q) into Singer orbits.

    Verifies, per orbit: the u-derivation and the cover property (every
    point on exactly theta(t)/theta(u) members); and
    globally: the orbits partition the subspaces, and a spread orbit exists
    and is unique exactly when t divides s.
    """
    limit = min(DEFAULT_CENSUS_CAP, pspace.subspace_cap()) if cap is None else cap
    fam = pspace.enumerate_subspaces(s, t, q, cap=limit)
    S = singer_generator(s, q)
    raw = []
    for members in orbit_partition(fam, lambda X: act(S, X)):
        rec = _record_for(S, t, members)
        degree = combinat.exact_div(combinat.theta(t, q), combinat.theta(rec.u, q))
        if not pspace.is_cover(members, degree):
            raise VerificationError("orbit is not a uniform cover",
                                    {"case": (s, t, q), "representative": rec.representative.basis,
                                     "expected_degree": degree})
        raw.append((rec, tuple(members)))
    spreads = sum(1 for rec, _ in raw if rec.u == t)
    if spreads != int(s % t == 0):
        raise VerificationError("spread orbit count is wrong",
                                {"case": (s, t, q), "spreads": spreads})

    raw.sort(key=lambda pair: (pair[0].u, pair[0].representative.basis))
    return OrbitCensus(s, t, q,
                       tuple(rec for rec, _ in raw),
                       tuple(mem for _, mem in raw))


def predicted_orbit_count(s: int, d: int, q: int) -> int:
    """Closed-form number of Singer orbits on d-dimensional subspaces."""
    if not 1 <= d <= s:
        raise ValueError(f"bad subspace dimension {d} in ambient {s}")
    total = 0
    for t in combinat.divisors(gcd(d, s)):
        inner = sum(combinat.moebius(t // u) * combinat.theta(u, q)
                    for u in combinat.divisors(t))
        total += combinat.gaussian_binomial(s // t, d // t, q**t) * inner
    return combinat.exact_div(total, combinat.theta(s, q))


def predicted_free_orbit_count(s: int, d: int, q: int) -> int:
    """Closed-form number of orbits with trivial stabilizer (u = 1)."""
    if not 1 <= d <= s:
        raise ValueError(f"bad subspace dimension {d} in ambient {s}")
    total = 0
    for t in combinat.divisors(gcd(d, s)):
        total += combinat.moebius(t) * combinat.gaussian_binomial(s // t, d // t, q**t)
    return combinat.exact_div(total, combinat.theta(s, q))

