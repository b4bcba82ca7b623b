"""Singer cyclic groups of PG(s-1, q) and their subspace orbit censuses.

The Singer group is GF(q^s)*/GF(q)* acting by multiplication by the
designated generator mu of GF(q^s), so SingerGroup reads it off that
field's own tables.  In the power basis 1, mu, ..., mu^(s-1) over GF(q),
a nonzero vector v is the field element mu^log(v), and the points of
PG(s-1,q) are the nonzero elements up to GF(q)*.  The generator is
multiplication by mu in that basis; the field's table walk has already
checked that mu has order q^s - 1, which makes the group point-transitive
of projective order theta(s,q).  The log of a point is its exponent mod
theta(s,q).  The census carries each t-subspace as the set of its points'
logs, one theta(s,q)-bit integer (log_set), on which the generator acts as
a rotation by one bit (rotate): no matrix acts and no point set is listed
during a census.  act and the point sets of pspace stay as the oracles the
tests compare with.

span_log_sets builds the log sets of the census and of the scalar classes
of the elation module from a field's own log and Zech tables, a whole
sorted family in one pass: neighbours share their leading rows, so each
shared prefix of rows is expanded once and only the last row is expanded
per subspace, and every subspace's point count is still checked.  One
kernel, rotation_orbits, walks these log sets under orbit_partition, which
checks that the orbits partition the items.  It reads each orbit's
stabilizer parameter u off the walked length theta(s,q)/theta(u,q) and
checks both closed-form counts for every subfield degree d | gcd(t, s).
The walk carries the other orbit facts, so none is checked again: its
return to its start shows that the theta(s,q)/theta(u,q)-th power of the
generator fixes every member, and with each member's point count that
makes the orbit cover every point theta(t,q)/theta(u,q) times
(orbit_census gives the argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import combinat, linalg, pspace
from .errors import VerificationError
from .gf import make_field

DEFAULT_CENSUS_CAP = 10**6


class SingerGroup:
    """Cyclic collineation group acting transitively on the points of PG(s-1,q).

    field is GF(q) and big is GF(q^s).  generator is multiplication by mu
    in the power basis: columns e_1, ..., e_(s-1), then the coordinates of
    mu^s.  log maps each of the theta(s,q) normalized vectors (first
    nonzero coordinate 1) v to the exponent k with mu^k = v.
    """

    def __init__(self, s: int, q: int):
        if s < 1:
            raise ValueError(f"need ambient dimension s >= 1, got {s}")
        p, n = combinat.prime_power(q)
        big = make_field(p, n * s)
        self.s = s
        self.q = q
        self.field = make_field(p, n)
        self.big = big
        self.projective_order = combinat.theta(s, q)
        last = big.coords(big.exp[s], n)
        self.generator = tuple(tuple(int(i == j + 1) for j in range(s - 1)) + (last[i],)
                               for i in range(s))
        self.log = {v: big.log[big.from_coords(v, n)] for v in pspace.enumerate_points(s, q)}

    def __repr__(self):
        return f"SingerGroup(s={self.s}, q={self.q})"


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
    """The points of X as a theta(s,q)-bit integer: bit k for the point mu^k.

    span_log_sets expands the logs of X's basis rows with the Zech table of
    GF(q^s).  Raises VerificationError unless X has theta(t,q) points.
    """
    if X.q != S.q or X.s != S.s:
        raise ValueError(f"subspace of PG({X.s - 1},{X.q}) fed to {S!r}")
    return _census_log_sets(S, X.t, [X.basis])[0]


def _census_log_sets(S: SingerGroup, t: int, bases) -> list:
    """span_log_sets of t-row bases of PG(s-1,q), from the tables of GF(q^s)."""
    return span_log_sets(bases, S.log.__getitem__, S.big.zech if t > 1 else (),
                         S.projective_order, lambda basis: {"case": (S.s, S.q), "basis": basis})


def span_log_sets(bases, rowlog, zech, theta: int, where) -> list:
    """The points spanned by each basis, as theta-bit integers, in the order of bases.

    A basis is a tuple of independent rows, and rowlog(row) is the row's log
    in [0, n), n = q^s - 1 = theta (q - 1); zech[k] is log(1 + mu^k), n
    entries, so that log(v + mu^k v) = log v + zech[k], and may be empty
    when every basis has one row.  Row by row: the points of span(Y, b), b
    outside Y, are those of Y, b, and y + b for every nonzero y of Y, with
    log(y + b) = log b + zech(log y - log b).  The nonzero vectors of Y are
    the GF(q)*-multiples of its points, and GF(q)* is the exponents
    j*theta, so a point's log mod theta stands for all of them.  Row i adds
    1 + (q-1) theta(i-1,q) points, theta(t,q) in all, so the point count
    holds exactly when they are distinct; otherwise VerificationError, with
    where(basis) among its details.

    A stack keeps one entry per expanded prefix of rows: the row, the logs
    of every nonzero vector of the prefix's span, its points as bits and
    their count.  Each basis pops only the rows in which it differs from
    the previous basis, so a sorted family, whose neighbours share their
    leading rows, expands each shared prefix once; the order of bases
    changes only how much is shared.  The last row ORs its points into the
    prefix's bits.
    """
    scalars = range(0, len(zech), theta)
    stack = [((), [], 0, 0)]  # the zero space
    sets = []
    for basis in bases:
        depth = 1
        while depth < len(stack) and depth < len(basis) and stack[depth][0] == basis[depth - 1]:
            depth += 1
        del stack[depth:]
        _, logs, bits, points = stack[-1]
        for row in basis[depth - 1:-1]:
            b = rowlog(row)
            # y - b lies in (-n, n), where Python's indexing wraps mod n
            new = [b % theta] + [(b + zech[y - b]) % theta for y in logs]
            logs = logs + [k + c for k in new for c in scalars]
            for k in new:
                bits |= 1 << k
            points += len(new)
            stack.append((row, logs, bits, points))
        b = rowlog(basis[-1])
        bits |= 1 << b % theta
        for y in logs:
            bits |= 1 << (b + zech[y - b]) % theta
        if bits.bit_count() != points + 1 + len(logs):
            raise VerificationError("subspace has the wrong number of points",
                                    {**where(basis), "points": bits.bit_count()})
        sets.append(bits)
    return sets


def rotate(bits: int, theta: int) -> int:
    """Rotate a theta-bit integer up by one bit: k -> k + 1 mod theta on its positions.

    With theta = theta(s,q) this is the generator on log sets, taking
    log_set(S, X) to log_set(S, act(S, X)).
    """
    top = theta - 1
    return (bits >> top) | ((bits & ~(1 << top)) << 1)


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


def rotation_orbits(items, sets, s: int, t: int, q: int) -> list:
    """Singer orbits of t-subspaces of PG(s-1,q), walked on their log sets.

    sets[i] is the log set of items[i]; sorted items give orbits led by their
    least member.  Returns (u, members) per orbit: its items in walk order,
    and u, read off the length theta(s,q)/theta(u,q) with u | gcd(t, s).
    The orbits with d | u are those of the GF(q^d)-closed subspaces, the
    Singer orbits of PG(s/d - 1, q^d) on (t/d)-subspaces (the paper's
    correspondence), so for every d | gcd(t, s), d = 1 first, they must
    number predicted_orbit_count(s/d, t/d, q^d), and those with u = d
    predicted_free_orbit_count(s/d, t/d, q^d).  Raises VerificationError.
    """
    theta = combinat.theta(s, q)
    degrees = combinat.divisors(gcd(t, s))
    degree_of = {combinat.theta(d, q): d for d in degrees}
    item_of = dict(zip(sets, items))
    orbits = []
    for walk in orbit_partition(sets, lambda bits: rotate(bits, theta)):
        u = degree_of.get(combinat.exact_div(theta, len(walk)))
        if u is None:
            raise VerificationError("orbit size fits no divisor of gcd(t, s)",
                                    {"case": (s, t, q), "size": len(walk)})
        orbits.append((u, tuple(item_of[bits] for bits in walk)))
    for d in degrees:
        case = [s // d, t // d, q**d]
        observed = [sum(1 for u, _ in orbits if u % d == 0),
                    sum(1 for u, _ in orbits if u == d)]
        predicted = [predicted_orbit_count(*case), predicted_free_orbit_count(*case)]
        if observed != predicted:
            raise VerificationError("orbit count differs from the closed form",
                                    {"case": case, "observed": observed,
                                     "predicted": predicted})
    return orbits


def orbit_census(s: int, t: int, q: int, cap=None) -> OrbitCensus:
    """Partition all t-dimensional subspaces of PG(s-1,q) into Singer orbits.

    Each subspace is walked as its log_set by rotation_orbits, so no matrix
    acts during the census.  Verifies, per subspace: theta(t,q) points; per
    orbit: rotation_orbits' stabilizer parameter u; and globally: the orbits
    partition the subspaces and, for every subfield degree d | gcd(t, s),
    both closed-form counts.

    Each orbit is a uniform cover, every point on exactly
    theta(t,q)/theta(u,q) members, and that follows from the checks above,
    so it is not tallied.  The walk returns to its start X after
    L = theta(s,q)/theta(u,q) rotations, so the log set of X is invariant
    under rotation by L: it is the positions whose residue mod L lies in
    some R, with |R| = L |X| / theta(s,q).  A position k lies in the j-th
    member exactly when (k - j) mod L is in R, and as j runs over the L
    members, (k - j) mod L runs over every residue once: k lies in |R|
    members.  With |X| = theta(t,q), checked for every subspace, that is
    theta(t,q)/theta(u,q).
    """
    limit = min(DEFAULT_CENSUS_CAP, pspace.subspace_cap()) if cap is None else cap
    fam = pspace.enumerate_subspaces(s, t, q, cap=limit)
    S = SingerGroup(s, q)
    sets = _census_log_sets(S, t, (X.basis for X in fam))
    orbits = sorted(rotation_orbits(fam, sets, s, t, q),
                    key=lambda orbit: (orbit[0], orbit[1][0].basis))
    return OrbitCensus(s, t, q, tuple(OrbitRecord(mem[0], len(mem), u) for u, mem in orbits),
                       tuple(mem for _, mem in orbits))


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

