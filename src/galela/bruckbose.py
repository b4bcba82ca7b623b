"""Star model of PG(r-1, p^h) inside PG((r-1)d' , p^n), d' = h/n.

Coordinates of the big space are ordered (X00, X11..X1d', ..., X(r-1)1..
X(r-1)d'): a leading entry followed by r-1 blocks of d' small-field entries,
one block per big-field coordinate.  An affine point (1, x1, ..., x(r-1))
maps to the concatenation of the coords() blocks of the xi; a point at
infinity maps to the d'-dimensional rowspace swept out by its big-field
scalar multiples.  Those rowspaces form a spread of the hyperplane at
infinity X00 = 0, and the member coming from the center z = (0,...,0,1)
is cut out by all coordinates outside the last block.

The checks verify one identity, once per image: the star image of an orbit
x^E (of a line) is the affine part of span(base, W), base one image point
and W the center section of E inside z* (the line's spread element).  W
lies in A* (X00 = 0), so those affine points are the coset base + W, and
the check compares the image set with it on whole vectors packed one int
each (StarFrame.pack): the ints' base-p digits are the entries'
coefficients, so base + w is a digit-wise sum mod p, xor for p = 2.  The
frame caches the packed coords block of each element at each block
position on first use, so an image costs a lookup and a sum, and each
expected vector one addition.  Only a failing check unpacks to tuples and
spans.  The span meets A* and z* in W.  The elation with parameter lam acts as
the translation adding coords(lam) to the last block, which fixes A*
pointwise by construction and agrees with star_point by the additivity of
coords.

A sample checks each E-coset of last coordinates it meets once.
star_point maps one block at a time and W is zero outside the last block,
so the check of x compares {coords(c + lam)} with coords(c) + W in the
last block, c = x[-1], the other blocks being x*'s on both sides: moving
x by (0, v, 0) moves both sets by (0, coords(v), 0), a translation of the
big space fixing A* pointwise.  If c passes, so does every c' in c + E:
the image sets agree, and coords(c') is one of c's images, so coords(c') +
W = coords(c) + W.  The first sample point of each coset is therefore the
first to fail, if any does.  The frame builds each spread element once,
and a sample of lines checks each distinct line once.  Every check raises
VerificationError with a counterexample.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import random

from . import combinat, elation, linalg, pspace
from .errors import CapExceeded, VerificationError
from .gf import add_digits, make_field

EXHAUSTIVE_LIMIT = 4096
SAMPLE_SIZE = 256


class StarFrame:
    """Fixed star representation of PG(r-1, p^h) over the subfield GF(p^n): spread holds the
    elements of the sorted points at infinity, the center (0, ..., 0, 1) first, as zstar,
    and blocks the packed coords blocks (pack) the checks compare, cached on first use."""

    def __init__(self, r: int, p: int, h: int, n: int):
        if r < 2:
            raise ValueError(f"need r >= 2, got {r}")
        if n < 1 or h % n != 0:
            raise ValueError(f"n = {n} does not divide h = {h}")
        self.r = r
        self.p = p
        self.h = h
        self.n = n
        self.tower = make_field(p, h)
        self.q = p**n
        self.dprime = h // n
        self.vecdim = (r - 1) * self.dprime + 1

        self.infinite = tuple((0,) + pt for pt in pspace.enumerate_points(r - 1, self.tower.order))
        self.spread = tuple(star_infinite(P, self) for P in self.infinite)
        # every member lies in X00 = 0, so theta(vecdim - 1, q) distinct points
        # make them partition it, and each has rank d' (star_infinite's rank)
        points = [pt for S in self.spread for pt in pspace.subspace_points(S)]
        if len(set(points)) != len(points) or \
                len(points) != combinat.theta(self.vecdim - 1, self.q):
            raise VerificationError(
                "field reduction did not give a spread of the hyperplane at infinity",
                {"params": [r, p, h, n], "points": len(points), "distinct": len(set(points))})

        self.zstar = self.spread[0]
        if self.zstar.basis != linalg.identity(self.vecdim)[-self.dprime:]:
            raise VerificationError("the center's spread element is not the last coordinate block",
                                    {"params": [r, p, h, n], "zstar": self.zstar.basis})

        # packed vectors (pack): addition is digit-wise mod p, xor for p = 2
        self.add_packed = operator.xor if p == 2 else functools.partial(add_digits, p=p)
        self.blocks = tuple(_Blocks(self, i) for i in range(r - 1))

    @property
    def affine_count(self) -> int:
        return self.tower.order ** (self.r - 1)

    def __repr__(self):
        return f"StarFrame(r={self.r}, p={self.p}, h={self.h}, n={self.n})"

    def pack(self, v) -> int:
        """v in GF(q)^vecdim as one int, sum v_i * q^i.  Its base-p digits are
        the entries' coefficients, so add_packed adds packed vectors."""
        out = 0
        for x in reversed(v):
            out = out * self.q + x
        return out

    def unpack(self, packed: int) -> tuple:
        """Inverse of pack."""
        out = []
        for _ in range(self.vecdim):
            packed, x = divmod(packed, self.q)
            out.append(x)
        return tuple(out)

    def packed_point(self, x) -> int:
        """pack(star_point(x)) from the block cache, for x already affine."""
        return sum(map(dict.__getitem__, self.blocks, x[1:]), 1)


class _Blocks(dict):
    """c -> the pack of coords(c) placed in block i, computed on first use."""

    def __init__(self, frame: StarFrame, i: int):
        self.frame, self.scale = frame, frame.q ** (1 + i * frame.dprime)

    def __missing__(self, c):
        frame = self.frame
        packed = self[c] = frame.pack(frame.tower.coords(c, frame.n)) * self.scale
        return packed


def _affine(x, frame: StarFrame) -> tuple:
    x = tuple(x)
    if len(x) != frame.r:
        raise ValueError(f"point has {len(x)} coordinates, ambient needs {frame.r}")
    if x[0] != 1:
        raise ValueError("affine points carry a leading 1; use star_infinite at infinity")
    return x


def star_point(x, frame: StarFrame) -> tuple:
    """Image of an affine point (leading coordinate 1) in the big space."""
    x = _affine(x, frame)
    out = [1]
    for xi in x[1:]:
        out.extend(frame.tower.coords(xi, frame.n))
    return tuple(out)


def star_point_inverse(pt, frame: StarFrame) -> tuple:
    """Inverse of star_point on affine points of the big space."""
    pt = tuple(pt)
    if len(pt) != frame.vecdim or pt[0] != 1:
        raise ValueError("not an affine point of the star space")
    d = frame.dprime
    blocks = [pt[1 + i * d:1 + (i + 1) * d] for i in range(frame.r - 1)]
    return (1,) + tuple(frame.tower.from_coords(b, frame.n) for b in blocks)


def star_infinite(P, frame: StarFrame) -> pspace.Subspace:
    """Spread element of a point at infinity of PG(r-1, p^h).

    The big-field multiples c*P, c running over a coords basis of GF(p^h)
    over GF(p^n), span the element; any other multiple is a GF(p^n)-combo
    of these, so the result does not depend on the normalization of P.
    """
    tower = frame.tower
    P = pspace.normalize_point(P, tower.order)
    if P[0] != 0:
        raise ValueError("point is affine; use star_point")
    rows = []
    c = 1
    for _ in range(frame.dprime):
        row = [0]
        for xi in P[1:]:
            row.extend(tower.coords(tower.mul(c, xi), frame.n))
        rows.append(tuple(row))
        c = tower.mul(c, tower.mu)
    return pspace.span(rows, frame.q)


def embed_center_section(X: pspace.Subspace, frame: StarFrame) -> pspace.Subspace:
    """Place a subspace of GF(p^n)^d' into the last coordinate block."""
    if X.q != frame.q or X.s != frame.dprime:
        raise ValueError("subspace does not live in the center's coordinate block")
    pad = (0,) * (1 + (frame.r - 2) * frame.dprime)
    return pspace.Subspace(frame.q, tuple(pad + row for row in X.basis))


def _vectors(W: pspace.Subspace) -> list:
    """All q^W.t vectors of W, the zero vector included."""
    return linalg.coset((0,) * W.s, W.basis, pspace.field_for(W.q))


def orbit_image(x, E: elation.ElationGroup, frame: StarFrame):
    """Star image of the orbit of an affine point x under the group of E.

    Returns the projective closure of the image points in canonical form.
    The image is checked, by _check_cosets on the sample [x], to be the
    affine part of the span of x* and the embedded center section of E,
    the model's central identity, and VerificationError is raised otherwise.
    """
    section = elation.subspace_of_center(E, frame.n)
    _check_cosets(E, section, frame, [_affine(x, frame)])
    return pspace.span([star_point(x, frame), *embed_center_section(section, frame).basis],
                       frame.q)


def _check_affine_image(images, base, vectors, frame, error, kinds):
    """Raise unless images are exactly the affine points of span(base, W).

    Every vector is packed (frame.pack): images a set, base an int and
    vectors all q^W.t vectors of W.  base is affine and W lies in A*, so
    the affine points of span(base, W), normalized, are the coset base + W,
    and the images pass exactly when they are that set, compared on whole
    vectors.  A match also shows W inside A*: base + w is not a normalized
    affine point when w[0] != 0.  Only a failing check unpacks and spans,
    to tell the kinds apart: images whose span differs from span(base, W)
    are kinds[0], with closure and expected; any other mismatch is
    kinds[1].  error(kind, **fields) builds the VerificationError.
    """
    if images == set(map(frame.add_packed, itertools.repeat(base, len(vectors)), vectors)):
        return
    expected = pspace.span([frame.unpack(v) for v in (base, *vectors)], frame.q)
    closure = pspace.span([frame.unpack(v) for v in images], frame.q)
    if closure != expected:
        raise error(kinds[0], closure=closure.basis, expected=expected.basis)
    raise error(kinds[1])


def _orbit_error(kind, E, frame, **fields) -> VerificationError:
    return VerificationError("orbit geometry check failed", {
        "kind": kind, **fields, "params": [frame.r, frame.p, frame.h, frame.n],
        "m": E.m, "subgroup": [list(row) for row in E.rows]})


def common_intersection_check(E: elation.ElationGroup, frame: StarFrame, sample) -> bool:
    """Every sampled orbit closure meets z* in the center section of E.

    For each E-coset of last coordinates the sample meets, checks once, on
    its first sample point x, that the image of x^E is the affine part of
    span(x*, section), which implies the claim: x* lies off A* and the
    section inside z*, so the span meets z* in the section.  A later point
    x' with x'[-1] in x[-1] + E passes whenever x does, whatever its head:
    the shift (0, v, 0) giving x' the head of x moves x'^E's image and x'* +
    section alike by a translation fixing A*, and takes x' into x^E, whose
    check covers every base in its orbit (module docstring).  Every sample
    point is still checked to be affine, so a non-affine point raises
    ValueError even in a checked coset.  The section and its vectors are
    built once per call, so a passing call does no per-orbit linear
    algebra.  Returns True, or raises VerificationError with the
    counterexample, the frame's params, m and the subgroup's rows.
    """
    sample = list(sample)
    if not sample:
        raise ValueError("empty sample")
    return _check_cosets(E, elation.subspace_of_center(E, frame.n), frame,
                         (_affine(x, frame) for x in sample))


def _check_cosets(E, section, frame, points) -> bool:
    """The coset checks of common_intersection_check, verify_star_model and
    orbit_image: points, iterated once in order, each coset of last
    coordinates checked on its first point x, whose image set under E must
    be x* + section, embedded.  A pass shows section to be coords(E).  The
    points are already affine.  The elation with parameter lam adds lam to
    x's last coordinate, so the image of x under it is x*'s head followed
    by the block coords(x[-1] + lam): packed, the head plus the last block
    of the frame's cache."""
    vectors = [frame.pack(w) for w in _vectors(embed_center_section(section, frame))]
    elements = E.elements()
    add, last = frame.tower.add, frame.blocks[-1]
    covered = set()  # last coordinates of the cosets checked so far
    for x in points:
        if x[-1] not in covered:
            coset = [add(x[-1], lam) for lam in elements]
            covered.update(coset)
            base = frame.packed_point(x)
            head = base - last[x[-1]]
            _check_affine_image(
                {head + last[c] for c in coset}, base, vectors, frame,
                lambda kind, **fields: _orbit_error(kind, E, frame, point=list(x), **fields),
                ("orbit closure differs from the span of x* and the center section",
                 "orbit image is not an affine subspace"))
    return True


def incidence_check(frame: StarFrame, sample) -> bool:
    """Star images of sampled lines behave like lines of the model.

    A line with affine points maps onto the affine part of span(P*, S), P
    any of its affine points and S the spread element of its point at
    infinity, so its closure meets A* in S; a line inside the hyperplane at
    infinity maps into the span of two spread elements.  The spread
    elements are the frame's, and their vectors are listed once per point
    at infinity.  Every pair is normalized and spanned, but each distinct
    line, keyed by its RREF basis, is checked once: the check depends on the
    line alone.  Returns True, or raises VerificationError with the failing
    line's first pair and the frame's params.
    """
    bigq = frame.tower.order
    spread = dict(zip(frame.infinite, frame.spread))  # point at infinity -> its element
    lines, cosets = set(), {}  # bases of the lines checked; point at infinity -> its vectors
    for x, y in sample:
        x = pspace.normalize_point(x, bigq)
        y = pspace.normalize_point(y, bigq)
        if x == y:
            raise ValueError("degenerate line spec: the two points coincide")
        line = pspace.span([x, y], bigq)
        if line.basis in lines:
            continue
        lines.add(line.basis)
        where = {"spec": [list(x), list(y)], "params": [frame.r, frame.p, frame.h, frame.n]}
        pts = pspace.subspace_points(line)
        affine = [P for P in pts if P[0] != 0]
        infinite = [P for P in pts if P[0] == 0]
        if affine:
            if len(infinite) != 1:
                raise VerificationError("incidence check failed", {
                    "kind": "line off the hyperplane has several infinite points", **where})
            point = infinite[0]
            if point not in cosets:
                cosets[point] = [frame.pack(w) for w in _vectors(spread[point])]
            images = {frame.packed_point(P) for P in affine}  # normalized, so affine
            _check_affine_image(
                images, frame.packed_point(affine[0]), cosets[point], frame,
                lambda kind, **_: VerificationError("incidence check failed",
                                                    {"kind": kind, **where}),
                ("affine line image does not cut a spread element",
                 "line image is missing affine points"))
        else:
            closure = pspace.subspace_sum(spread[x], spread[y])
            if closure.t != 2 * frame.dprime:
                raise VerificationError("incidence check failed", {
                    "kind": "infinite line span has wrong rank", **where, "rank": closure.t})
            for P in pts:
                if not all(pspace.contains(closure, row) for row in spread[P].basis):
                    raise VerificationError("incidence check failed", {
                        "kind": "spread element escapes the infinite line span", **where,
                        "point": list(P)})
    if not lines:
        raise ValueError("empty sample")
    return True


def sample_affine_points(frame: StarFrame, size: int = SAMPLE_SIZE, seed: int = 0,
                         force: bool = False) -> list:
    """All affine points when few enough (or forced), otherwise a seeded sample."""
    tower = frame.tower
    if force or frame.affine_count <= EXHAUSTIVE_LIMIT:
        return [(1,) + rest for rest in itertools.product(range(tower.order), repeat=frame.r - 1)]
    if size > frame.affine_count:
        raise ValueError(f"cannot sample {size} distinct points from {frame.affine_count}")
    rng = random.Random(seed)
    seen: dict[tuple, None] = {}
    while len(seen) < size:
        seen[(1,) + tuple(rng.randrange(tower.order) for _ in range(frame.r - 1))] = None
    return list(seen)


def sample_line_specs(frame: StarFrame, size: int = SAMPLE_SIZE, seed: int = 0,
                      force: bool = False) -> list:
    """Distinct point pairs of PG(r-1, p^h): all of them when few, else sampled.

    A sample draws pair indices in itertools.combinations order and unranks
    each one, so the list of all pairs is never built.
    """
    pts = pspace.enumerate_points(frame.r, frame.tower.order)
    total = len(pts) * (len(pts) - 1) // 2
    if force or total <= EXHAUSTIVE_LIMIT:
        return list(itertools.combinations(pts, 2))
    # starts[i]: index of the first pair led by pts[i]
    starts = list(itertools.accumulate(range(len(pts) - 1, 0, -1), initial=0))
    rng = random.Random(seed)
    out = []
    for k in rng.sample(range(total), size):
        i = bisect.bisect_right(starts, k) - 1
        out.append((pts[i], pts[i + 1 + k - starts[i]]))
    return out


def admissible_orders(h: int, n: int) -> list:
    """Subgroup ranks m for which GF(p^n)-closed subgroups of GF(p^h) exist."""
    return [m for m in range(1, h + 1) if m % n == 0]


def verify_star_model(r: int, p: int, h: int, n: int, m=None, seed: int = 0,
                       exhaustive: bool = False, cap=None) -> dict:
    """Full orbit-geometry verification for one frame; raises on any failure.

    Sweeps every GF(p^n)-closed subgroup of each admissible order (or just
    order p^m when m is given), checks all orbit images against the span
    identity, then checks line incidences.  The subgroups are the pull-backs
    H (elation.group_from_subspace) of the streamed (m/n)-subspaces X of
    PG(h/n - 1, p^n).  The coset check compares x^H's images with x* + X,
    so a pass shows coords(H) = X: distinct X give distinct H, and with the
    stream's count check each of the [h/n choose m/n]_{p^n} is checked once.
    cap, pspace.DEFAULT_SUBSPACE_CAP if None, bounds each order's stream
    and, first, the longest list: the theta(r, p^h) points of the line
    sample, or their pairs if exhaustive.  orbits_checked counts (subgroup,
    sample point) pairs, not distinct orbits.
    """
    if m is not None and not (n >= 1 and m % n == 0 and 1 <= m <= h):
        raise ValueError(f"order exponent {m} is not admissible for n = {n}")
    points = combinat.theta(r, p**h)
    limit = pspace.DEFAULT_SUBSPACE_CAP if cap is None else cap
    listed, what = (points * (points - 1) // 2, "point pairs") if exhaustive else (points, "points")
    if listed > limit:
        raise CapExceeded(f"{listed} {what} exceed cap {limit}")
    frame = StarFrame(r, p, h, n)
    # checked affine once here, not once per subgroup
    sample = [_affine(x, frame) for x in sample_affine_points(frame, seed=seed, force=exhaustive)]
    orders = [m] if m is not None else admissible_orders(h, n)
    per_order = []
    for mm in orders:
        for basis in pspace.subspace_bases(frame.dprime, mm // n, frame.q, cap):
            X = pspace.Subspace(frame.q, basis)
            _check_cosets(elation.group_from_subspace(X, h), X, frame, sample)
        groups = combinat.gaussian_binomial(frame.dprime, mm // n, frame.q)  # as the stream checked
        per_order.append({
            "m": mm,
            "d": mm // n,
            "subgroups": groups,
            "orbits_checked": groups * len(sample),
        })
    specs = sample_line_specs(frame, seed=seed, force=exhaustive)
    incidence_check(frame, specs)
    return {
        "params": {"r": r, "p": p, "h": h, "n": n},
        "ambient": {"vecdim": frame.vecdim, "q": frame.q,
                    "spread_size": len(frame.spread)},
        "sample": {"affine_points": len(sample),
                   "exhaustive": exhaustive or frame.affine_count <= EXHAUSTIVE_LIMIT,
                   "line_specs": len(specs), "seed": seed},
        "orders": per_order,
        "ok": True,
    }
