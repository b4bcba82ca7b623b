"""Singer cyclic groups of PG(s-1, q) and their subspace orbit censuses.

The generator is the companion matrix of the minimal polynomial over GF(q)
of the designated generator mu of GF(q^s).  Acting on coordinate columns in
the power basis 1, mu, ..., mu^(s-1), that matrix is exactly multiplication
by mu, which is what ties the orbit structure here to the scalar action on
additive subgroups in the elation module.

Singer's identification of the points with GF(q^s)*/GF(q)* comes from one
linear walk e0, gen e0, ..., gen^theta e0, theta = theta(s,q): continued,
it would meet all q^s - 1 nonzero vectors before it returns to e0, which
makes the group point-transitive, and it gives every nonzero vector its
exponent (SingerGroup.log) and each exponent k the Zech logarithm
log(e0 + gen^k e0) (SingerGroup.zech).  The log of a point is its exponent
mod theta(s,q).  The census carries each t-subspace as the set of its
points' logs, one theta(s,q)-bit integer (log_set), on which the generator
acts as a rotation by one bit (rotate): no matrix acts and no point set is
listed during a census.  act and the point sets of pspace stay as the
oracles the tests compare with.

One orbit kernel, orbit_partition, serves the census and the scalar
classes of the elation module; it checks that the orbits it walks partition
its items exactly.  One expansion, span_log_set, builds the log sets of
both, from this module's tables here and from the field's own there.

Each orbit record carries the stabilizer parameter u: the orbit has length
theta(s,q)/theta(u,q) and its members sweep out a cover in which every point
of PG(s-1,q) lies on exactly theta(t,q)/theta(u,q) members.  u is read off
the walked length, which must fit a divisor of gcd(t, s), and the census
tallies each orbit's log sets to check that it is such a cover; both checks
raise VerificationError.  The walk's return to its start already shows that
the theta(s,q)/theta(u,q)-th power of the generator fixes every member, so
that is not checked again.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def log(self) -> dict:
        """Exponent k with gen^k e0 = v, for each normalized v and each multiple of e0.

        A normalized vector has first nonzero coordinate 1; a nonzero w is c
        times one, so its exponent is log[w/c] + log[c e0].  One linear walk
        e0, gen e0, ..., gen^theta e0 fills the table, theta = theta(s,q).
        gen^theta commutes with gen, so gen^theta e0 = c e0 makes
        gen^(j theta + r) e0 = c^j gen^r e0: the walk continued would close
        after exactly q^s - 1 steps when the first theta steps span distinct
        points and c has order q - 1, which is checked.  Then every nonzero
        vector is met once, and gen^theta is the scalar c.
        """
        s, q, field = self.s, self.q, self.field
        theta = self.projective_order
        zero = (0,) * (s - 1)
        walk = []
        v = (1,) + zero
        for k in range(theta):
            lead = next((x for x in v if x), 0)
            if not lead:
                break
            inv = field.inv(lead)
            walk.append((tuple(field.mul(inv, x) for x in v), lead, k))
            v = linalg.matvec(self.generator, v, field)
        scalar = {}
        if v[1:] == zero and v[0]:
            c = 1
            for j in range(q - 1):
                scalar[c] = j * theta
                c = field.mul(c, v[0])
        log = {(c,) + zero: k for c, k in scalar.items()}
        if len(scalar) == q - 1:
            n = theta * (q - 1)
            log.update((point, (k - scalar[lead]) % n) for point, lead, k in walk)
        if len(log) != theta + q - 2:
            raise VerificationError("linear walk does not close after q^s - 1 steps",
                                    {"case": (s, q), "walked": len(walk),
                                     "scalars": len(scalar), "entries": len(log)})
        return log

    @functools.cached_property
    def zech(self) -> list:
        """zech[k] = log(e0 + gen^k e0), the Zech logarithm, for 0 <= k < q^s - 1.

        Where e0 + gen^k e0 = 0 the entry is 0, as if the sum were e0: a
        basis row inside the span of the rows before it then repeats a point
        in log_set and fails its point count.
        """
        log, field = self.log, self.field
        n = self.projective_order * (self.q - 1)
        zero = (0,) * (self.s - 1)
        zech = [0] * n
        v = (1,) + zero
        for k in range(n):
            w = (field.add(1, v[0]),) + v[1:]
            lead = next((x for x in w if x), 0)
            if lead:
                inv = field.inv(lead)
                zech[k] = (log[tuple(field.mul(inv, x) for x in w)] + log[(lead,) + zero]) % n
            v = linalg.matvec(self.generator, v, field)
        return zech


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

    S = SingerGroup(s, q, gen, combinat.theta(s, q), small)
    # the walk behind S.log shows that gen has linear order q^s - 1, that it
    # is transitive on the points and that gen^theta is a scalar of order
    # q - 1, whose powers are GF(q)*; as the walk's first theta points are
    # distinct, no gen^k with 0 < k < theta is scalar: theta is the
    # projective order
    S.log  # runs the walk and its checks
    return S


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


def log_set(S: SingerGroup, X: pspace.Subspace) -> int:
    """The points of X as a theta(s,q)-bit integer: bit k for the point of gen^k e0.

    span_log_set expands the logs of X's basis rows with S.zech.  Raises
    VerificationError unless X has theta(t,q) points.
    """
    if X.q != S.q or X.s != S.s:
        raise ValueError(f"subspace of PG({X.s - 1},{X.q}) fed to {S!r}")
    log = S.log
    return span_log_set([log[row] for row in X.basis], S.zech if X.t > 1 else (),
                        S.projective_order, {"case": (S.s, S.q), "basis": X.basis})


def span_log_set(logs, zech, theta: int, where: dict) -> int:
    """The points spanned by independent vectors with the given logs, as a theta-bit integer.

    logs lie in [0, n), n = q^s - 1 = theta (q - 1), and zech[k] is
    log(v + gen^k v) - log v for every nonzero v, n entries; zech may be
    empty when there is one vector.  Vector by vector: the points of
    span(Y, b), b outside Y, are those of Y, b, and y + b for every nonzero
    y of Y, with log(y + b) = log b + zech(log y - log b).  The nonzero
    vectors of Y are the GF(q)*-multiples of its points, and GF(q)* is the
    exponents j*theta, so a point's log mod theta stands for all of them.
    Vector i adds 1 + (q-1) theta(i-1,q) points, theta(t,q) in all, so the
    point count holds exactly when they are distinct; otherwise
    VerificationError, with where among its details.
    """
    n = len(zech)
    scalars = range(0, n, theta)
    reps = []
    for b in logs:
        # y + c - b lies in (-n, n), where Python's indexing wraps mod n
        reps += [b % theta] + [(b + zech[y + c - b]) % theta for y in reps for c in scalars]
    bits = 0
    for k in reps:
        bits |= 1 << k
    if bits.bit_count() != len(reps):
        raise VerificationError("subspace has the wrong number of points",
                                {**where, "points": bits.bit_count()})
    return bits


def rotate(S: SingerGroup, bits: int) -> int:
    """log_set(S, X) -> log_set(S, act(S, X)): every exponent moves up by one mod theta."""
    return rotate_bits(bits, S.projective_order)


def rotate_bits(bits: int, theta: int) -> int:
    """Rotate a theta-bit integer up by one bit: k -> k + 1 mod theta on its positions."""
    top = theta - 1
    return (bits >> top) | ((bits & ~(1 << top)) << 1)


def _tally(sets) -> list:
    """How many sets hold each bit position, bit-sliced: bit i of tally[b] is bit b of i's count."""
    planes = []
    for carry in sets:
        for b, plane in enumerate(planes):
            planes[b], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


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

    Each subspace is walked as its log_set, on which the generator acts by
    rotate, so no matrix acts during the census.  Verifies, per subspace:
    theta(t,q) points; per orbit: the u-derivation and the cover property
    (every point on exactly theta(t)/theta(u) members, tallied on the log
    sets); and globally: the orbits partition the subspaces, a spread orbit
    exists and is unique exactly when t divides s, and the orbit and free
    orbit counts equal predicted_orbit_count and predicted_free_orbit_count.
    """
    limit = min(DEFAULT_CENSUS_CAP, pspace.subspace_cap()) if cap is None else cap
    fam = pspace.enumerate_subspaces(s, t, q, cap=limit)
    S = singer_generator(s, q)
    sets = [log_set(S, X) for X in fam]
    subspace_of = dict(zip(sets, fam))
    every_point = (1 << S.projective_order) - 1
    raw = []
    for walk in orbit_partition(sets, functools.partial(rotate, S)):
        members = tuple(subspace_of[bits] for bits in walk)
        rec = _record_for(S, t, members)
        degree = combinat.exact_div(combinat.theta(t, q), combinat.theta(rec.u, q))
        if _tally(walk) != [every_point * (degree >> b & 1) for b in range(degree.bit_length())]:
            raise VerificationError("orbit is not a uniform cover",
                                    {"case": (s, t, q), "representative": rec.representative.basis,
                                     "expected_degree": degree})
        raw.append((rec, members))
    spreads = sum(1 for rec, _ in raw if rec.u == t)
    if spreads != int(s % t == 0):
        raise VerificationError("spread orbit count is wrong",
                                {"case": (s, t, q), "spreads": spreads})
    observed = [len(raw), sum(1 for rec, _ in raw if rec.u == 1)]
    predicted = [predicted_orbit_count(s, t, q), predicted_free_orbit_count(s, t, q)]
    if observed != predicted:
        raise VerificationError("orbit count differs from the closed form",
                                {"case": [s, t, q], "observed": observed,
                                 "predicted": predicted})

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

