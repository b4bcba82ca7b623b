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
sorted family in one pass over pspace.subspace_groups: neighbours share
their leading rows, so each shared prefix of rows is expanded once, the
logs of the last rows come from one table per call, and per subspace only
the last row's Zech reads and the point-count check remain.  One
kernel, rotation_orbits, walks these log sets under walk_orbits, whose one
dict from log set to orbit number both tells a new orbit's first member
and checks that the walks meet the streamed sets exactly.  It reads each
orbit's stabilizer parameter u off the walked length theta(s,q)/theta(u,q)
and checks both closed-form counts for every subfield degree d | gcd(t, s).

The census streams only the subspaces inside the hyperplane
H0 = {x_0 = 0}, whose bases sort first: every orbit has
theta(s-t,q)/theta(u,q) members there (rotation_orbits gives the
argument), so each orbit's least basis, its representative, is streamed.
The census builds and keeps only the representatives, the orbit records
and the dict, which holds the members inside H0 only, [s-1 choose t]_q
keys.  Each new orbit is still walked in full by rotate; orbit_index
rotates a log set into H0 before the lookup, and orbit_members rebuilds
an orbit on demand by walking its representative with act.  The walk
carries the other orbit facts, so none is checked again: its return to
its start shows that the theta(s,q)/theta(u,q)-th power of the generator
fixes every member, and with each member's point count that makes the
orbit cover every point theta(t,q)/theta(u,q) times (orbit_census gives
the argument).  The Zech table the stream reads, perhaps only in part,
comes checked from the field, which compares it with its own addition
when it builds it.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import gcd
from typing import NamedTuple

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


def act(S: SingerGroup, X: pspace.Subspace) -> pspace.Subspace:
    """Image of X under the Singer generator."""
    if X.q != S.q or X.s != S.s:
        raise ValueError(f"subspace of PG({X.s - 1},{X.q}) fed to {S!r}")
    Y = pspace.span([linalg.matvec(S.generator, row, S.field) for row in X.basis], S.q)
    # a collineation keeps dimension; a singular generator would not
    if Y.t != X.t:
        raise VerificationError("image of a subspace has the wrong dimension",
                                {"case": (S.s, S.q), "basis": X.basis, "image": Y.basis})
    return Y


def log_set(S: SingerGroup, X: pspace.Subspace) -> int:
    """The points of X as a theta(s,q)-bit integer: bit k for the point mu^k.

    span_log_sets expands X's basis, a group of one, with the tables of
    GF(q^s).  Raises VerificationError unless X has theta(t,q) points.
    """
    if X.q != S.q or X.s != S.s:
        raise ValueError(f"subspace of PG({X.s - 1},{X.q}) fed to {S!r}")
    return next(_census_log_sets(S, [(X.basis[:-1], X.basis[-1:])]))[2][0]


def _census_log_sets(S: SingerGroup, groups):
    """span_log_sets of groups of bases of PG(s-1,q), from the tables of GF(q^s)."""
    return span_log_sets(groups, S.log.__getitem__, S.big, S.projective_order,
                         lambda basis: {"case": (S.s, S.q), "basis": basis})


def span_log_sets(groups, rowlog, field, theta: int, where):
    """Yield (prefix, rows, sets) per group: sets[i] is the points of prefix + (rows[i],).

    The bases prefix + (row,), row in rows, are tuples of independent rows,
    the groups come in any order, and the points are theta-bit integers.
    field is GF(q^s), of order n + 1, n = theta (q - 1), and rowlog(row) is
    the row's log in [0, n).  Its Zech table, zech[k] = log(1 + mu^k), so
    that log(v + mu^k v) = log v + zech[k], is read when the first prefix
    row is pushed, so bases of one row never read it.  Row by row: the
    points of span(Y, b), b outside Y, are those of Y, b, and y + b for
    every nonzero y of Y, with log(y + b) = log b + zech(log y - log b).
    The nonzero vectors of Y are the GF(q)*-multiples of its points, and
    GF(q)* is the exponents j*theta, so a point's log mod theta stands for
    all of them.  Row i adds 1 + (q-1) theta(i-1,q) points, theta(t,q) in
    all, so the point count holds exactly when they are distinct; otherwise
    VerificationError, with where(basis) among its details.

    A stack keeps one entry per expanded prefix of rows: the row, the logs
    of every nonzero vector of the prefix's span, its points as bits and
    their count.  Each group pops only the rows in which its prefix differs
    from the previous group's, so a sorted stream, whose neighbours share
    their leading rows, expands each shared prefix once.  The last rows'
    logs are read once per call for each rows object (subspace_groups shares
    s), so per basis only its last row's Zech reads and the count remain.
    """
    scalars = range(0, field.order - 1, theta)
    zech = None
    stack = [((), [], 0, 0)]  # the zero space
    table = {}  # id(rows) -> (rows, their logs), rows kept so that its id stays unique
    for prefix, rows in groups:
        depth, top = 1, min(len(stack), len(prefix) + 1)
        while depth < top and stack[depth][0] == prefix[depth - 1]:
            depth += 1
        del stack[depth:]
        _, logs, bits, points = stack[-1]
        for row in prefix[depth - 1:]:
            zech = zech or field.zech
            b = rowlog(row)
            # y - b lies in (-n, n), where Python's indexing wraps mod n
            new = [b % theta] + [(b + zech[y - b]) % theta for y in logs]
            logs = logs + [k + c for k in new for c in scalars]
            for k in new:
                bits |= 1 << k
            points += len(new)
            stack.append((row, logs, bits, points))
        _, lasts = table.get(id(rows)) or table.setdefault(id(rows), (rows, [*map(rowlog, rows)]))
        points += 1 + len(logs)
        sets = []
        for b in lasts:
            last = bits | 1 << b % theta
            for y in logs:
                last |= 1 << (b + zech[y - b]) % theta
            if last.bit_count() != points:
                raise VerificationError("subspace has the wrong number of points", {
                    **where(prefix + (rows[len(sets)],)), "points": last.bit_count()})
            sets.append(last)
        yield prefix, rows, sets


def rotate(bits: int, theta: int) -> int:
    """Rotate a theta-bit integer up by one bit: k -> k + 1 mod theta on its positions.

    With theta = theta(s,q) this is the generator on log sets, taking
    log_set(S, X) to log_set(S, act(S, X)).
    """
    top = theta - 1
    return (bits >> top) | ((bits & ~(1 << top)) << 1)


class OrbitRecord(NamedTuple):
    representative: pspace.Subspace
    size: int
    u: int


class OrbitCensus:
    """All Singer orbits on t-dimensional subspaces, sorted by (u, representative).

    Holds the orbit records, the Singer group, the points of the hyperplane
    H0 = {x_0 = 0} as a theta(s,q)-bit integer (every point when t = s), one
    index from the log set of every subspace inside H0 to its orbit's walk
    number, and each walk's rank in the records; no subspace but the
    representatives is kept.
    """

    def __init__(self, S: SingerGroup, t: int, orbits, hyperplane: int, index: dict, rank: tuple):
        self.s = S.s
        self.t = t
        self.q = S.q
        self.singer = S
        self.orbits = orbits
        self._hyperplane = hyperplane
        self._index = index
        self._rank = rank

    def orbit_index(self, X: pspace.Subspace) -> int:
        """The orbit of X: its log set rotated into H0, at most theta(s,q) steps, looked up.

        Every orbit meets H0 (orbit_census), so some rotation of a covered
        subspace's log set lies inside it, and the index holds every such set.
        """
        bits, theta = log_set(self.singer, X), self.singer.projective_order
        outside = ~self._hyperplane
        for _ in range(theta):
            if not bits & outside:
                break
            bits = rotate(bits, theta)
        try:
            return self._rank[self._index[bits]]
        except KeyError:
            raise ValueError("subspace not covered by this census") from None

    def orbit_members(self, i: int) -> tuple:
        """Orbit i in walk order from its representative, walked by act, the matrix oracle."""
        return tuple(_walk_orbit(self.orbits[i].representative, partial(act, self.singer)))

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
    walked = 1
    cur = step(start)
    while cur != start:
        if cur == mark:
            raise VerificationError("orbit walk does not return to its start",
                                    {"walked": walked})
        members.append(cur)
        walked += 1
        if walked & (walked - 1) == 0:
            mark = cur
        cur = step(cur)
    return members


def walk_orbits(pairs, step, keep=None):
    """Orbits of step on the keys of (key, item) pairs, one walk per orbit.

    A key that no earlier orbit holds starts the walk of a new orbit, which
    records the key's item as its first.  Returns (index, firsts): index
    maps every walked key that keep accepts (every walked key when keep is
    None) to its orbit's number, and its keys run through the walks one
    after another, each in walk order; firsts[i] is orbit i's (first item,
    size, number of keys kept).  Sorted pairs give orbits led by their least
    item, in order of that item.  Raises VerificationError unless the kept
    keys are exactly the keys of the pairs: none is missed, repeated or
    extra.  With keep None, the orbits then partition the keys: none leaves
    them or meets another, and together they cover them.
    """
    index = {}
    firsts = []
    count = 0
    for key, item in pairs:
        count += 1
        if key not in index:
            walk = _walk_orbit(key, step)
            kept = walk if keep is None else [x for x in walk if keep(x)]
            index.update(dict.fromkeys(kept, len(firsts)))
            firsts.append((item, len(walk), len(kept)))
    # walks return only around cycles of step, so the orbits are disjoint
    if len(index) != count:
        raise VerificationError("orbits do not partition the items", {
            "items": count, "covered": len(index), "walked": sum(n for _, n, _ in firsts)})
    return index, firsts


def orbit_partition(items, step) -> list:
    """The orbits of step on items, each a list in walk order from its first item (walk_orbits)."""
    index, firsts = walk_orbits(((x, x) for x in items), step)
    walked = iter(index)
    return [list(itertools.islice(walked, size)) for _, size, _ in firsts]


def rotation_orbits(groups, s: int, t: int, q: int, hyperplane=None):
    """Singer orbits of t-subspaces of PG(s-1,q), walked on their log sets.

    groups yields span_log_sets' (prefix, rows, sets) for every t-subspace,
    or, given hyperplane, for those inside a hyperplane H0 whose points are
    the bits of hyperplane (for t = s, the whole space and every bit).
    walk_orbits walks every log set under rotate, each with its group as
    item, and indexes the members that lie in H0 (all of them without
    hyperplane).  A log set that no earlier orbit holds starts a walk, and
    its basis leads the orbit: in a sorted stream the least of the orbit.
    Returns (index, orbits): walk_orbits' index, and per orbit (u, size,
    basis, log set of basis), u read off the size theta(s,q)/theta(u,q)
    with u | gcd(t, s).

    Every orbit meets H0, and is counted exactly.  A t-subspace, t < s, lies
    in theta(s-t,q) hyperplanes, and the Singer group is regular on the
    theta(s,q) hyperplanes as it is on the points (a collineation group has
    as many orbits on hyperplanes as on points, and this one has order
    theta(s,q)).  So the theta(s,q)/theta(u,q) members of an
    orbit lie in theta(s,q)/theta(u,q) * theta(s-t,q) (member, hyperplane)
    pairs, spread evenly over the hyperplanes: H0 holds
    theta(s-t,q)/theta(u,q) of them, at least one since u | s - t.  The
    checks, each a VerificationError: the walked members indexed are the
    streamed log sets (walk_orbits); u per orbit; given hyperplane, each
    orbit's number of members in H0; and the closed forms.  No total is
    checked again: without hyperplane the index holds every walked set, and
    with it the stream's count of [s-1 choose t]_q and the per-orbit counts
    make the sizes sum to exactly [s choose t]_q.

    The orbits with d | u are those of the GF(q^d)-closed subspaces, the
    Singer orbits of PG(s/d - 1, q^d) on (t/d)-subspaces (the paper's
    correspondence), so for every d | gcd(t, s), d = 1 first, they must
    number predicted_orbit_count(s/d, t/d, q^d), and those with u = d
    predicted_free_orbit_count(s/d, t/d, q^d).
    """
    theta = combinat.theta(s, q)
    degrees = combinat.divisors(gcd(t, s))
    degree_of = {combinat.theta(d, q): d for d in degrees}
    pairs = itertools.chain.from_iterable(zip(group[2], itertools.repeat(group))
                                          for group in groups)
    sliced = hyperplane is not None and t < s
    outside = ~hyperplane if sliced else 0

    def step(bits):
        # rotate is looked up per call, so a patched singer.rotate walks here too
        return rotate(bits, theta)

    index, firsts = walk_orbits(pairs, step, (lambda bits: not bits & outside) if sliced else None)
    orbits = []
    for i, ((prefix, rows, sets), size, inside) in enumerate(firsts):
        u = None if theta % size else degree_of.get(theta // size)
        if u is None:
            raise VerificationError("orbit size fits no divisor of gcd(t, s)",
                                    {"case": (s, t, q), "size": size})
        if sliced and inside * combinat.theta(u, q) != combinat.theta(s - t, q):
            raise VerificationError("orbit meets the hyperplane in the wrong number of members",
                                    {"case": (s, t, q), "size": size, "u": u,
                                     "in_hyperplane": inside})
        # orbit i starts at the first subspace of its first group that it holds
        j = [index[bits] for bits in sets].index(i)
        orbits.append((u, size, prefix + (rows[j],), sets[j]))
    for d in degrees:
        case = [s // d, t // d, q**d]
        observed = [sum(1 for u, *_ in orbits if u % d == 0),
                    sum(1 for u, *_ in orbits if u == d)]
        predicted = [predicted_orbit_count(*case), predicted_free_orbit_count(*case)]
        if observed != predicted:
            raise VerificationError("orbit count differs from the closed form",
                                    {"case": case, "observed": observed,
                                     "predicted": predicted})
    return index, orbits


def orbit_census(s: int, t: int, q: int, cap=None) -> OrbitCensus:
    """Partition all t-dimensional subspaces of PG(s-1,q) into Singer orbits.

    Only the [s-1 choose t]_q subspaces inside the hyperplane H0 = {x_0 = 0}
    (the whole space when t = s) stream from pspace.subspace_groups through
    span_log_sets, and rotation_orbits walks their log sets, so no matrix
    acts and no basis is built during the census.  Every orbit meets H0
    (rotation_orbits gives the count), and every basis inside H0 sorts
    before every basis outside it, so the first basis of each new orbit is
    its least, the representative, as in a stream of every subspace.  The
    census keeps the representatives, one index from the log sets inside
    H0 to walk numbers and each walk's rank in the sorted records, and no
    other subspace.  cap bounds [s choose t]_q, DEFAULT_CENSUS_CAP if None;
    it and the orders of GF(q) and GF(q^s) are checked before any vector is
    listed.  Then, in this order, it verifies: when a basis has two rows or
    more, the Zech table of GF(q^s) against the field's addition (the field
    does so once, as it builds the table); the slice's count and theta(t,q)
    points per streamed subspace; each walk's return to its start; that
    the walked members inside H0 are the streamed subspaces; rotation_orbits'
    u and number of members inside H0 per orbit, which fix the total; and
    both closed-form counts for every subfield degree d | gcd(t, s).

    Each orbit is a uniform cover, every point on exactly
    theta(t,q)/theta(u,q) members, and that follows from the checks above,
    so it is not tallied.  The walk returns to its start X after
    L = theta(s,q)/theta(u,q) rotations, so the log set of X is invariant
    under rotation by L: it is the positions whose residue mod L lies in
    some R, with |R| = L |X| / theta(s,q).  A position k lies in the j-th
    member exactly when (k - j) mod L is in R, and as j runs over the L
    members, (k - j) mod L runs over every residue once: k lies in |R|
    members.  With |X| = theta(t,q), checked for every streamed subspace
    and kept by rotation, that is theta(t,q)/theta(u,q).
    """
    limit = DEFAULT_CENSUS_CAP if cap is None else cap
    groups = pspace.subspace_groups(s, t, q, cap=limit, hyperplane=True)
    S = SingerGroup(s, q)
    # H0's points as bits, each position once (a sum, unlike an or, would carry)
    hyperplane = sum(1 << k for k in {k % S.projective_order for v, k in S.log.items()
                                      if t == s or not v[0]})
    index, orbits = rotation_orbits(_census_log_sets(S, groups), s, t, q, hyperplane)
    order = sorted(range(len(orbits)), key=lambda i: (orbits[i][0], orbits[i][2]))
    rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse of order
    records = tuple(OrbitRecord(pspace.Subspace(q, basis), size, u)
                    for u, size, basis, _ in map(orbits.__getitem__, order))
    return OrbitCensus(S, t, records, hyperplane, index, tuple(rank))


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

