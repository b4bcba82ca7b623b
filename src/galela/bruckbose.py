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
and W the center section of E inside z* (the line's spread element).  base
lies off A* (X00 = 0) and W inside it, so the span meets A* and z* in W.
The elation with parameter lam acts as the translation adding coords(lam)
to the last block, which fixes A* pointwise by construction and agrees
with star_point by the additivity of coords.  A sample checks each orbit
it meets once, however many of its points it holds.  Every check raises
VerificationError with a counterexample.
"""

from __future__ import annotations

import bisect
import itertools
import random

from . import combinat, elation, linalg, pspace
from .errors import VerificationError
from .gf import make_field

EXHAUSTIVE_LIMIT = 4096
SAMPLE_SIZE = 256


class StarFrame:
    """Fixed star representation of PG(r-1, p^h) over the subfield GF(p^n)."""

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

        unit = linalg.identity(self.vecdim)
        self.astar = pspace.Subspace(self.q, unit[1:])

        infinite = [(0,) + pt for pt in pspace.enumerate_points(r - 1, self.tower.order)]
        self.spread = tuple(star_infinite(P, self) for P in infinite)
        # every member lies in X00 = 0, so theta(vecdim - 1, q) distinct points
        # make them partition it, and each has rank d' (star_infinite's rank)
        points = [pt for S in self.spread for pt in pspace.subspace_points(S)]
        if len(set(points)) != len(points) or \
                len(points) != combinat.theta(self.vecdim - 1, self.q):
            raise VerificationError(
                "field reduction did not give a spread of the hyperplane at infinity",
                {"params": [r, p, h, n], "points": len(points), "distinct": len(set(points))})

        self.zstar = star_infinite((0,) * (r - 1) + (1,), self)
        if self.zstar.basis != unit[-self.dprime:]:
            raise VerificationError("the center's spread element is not the last coordinate block",
                                    {"params": [r, p, h, n], "zstar": self.zstar.basis})

    @property
    def affine_count(self) -> int:
        return self.tower.order ** (self.r - 1)

    def __repr__(self):
        return f"StarFrame(r={self.r}, p={self.p}, h={self.h}, n={self.n})"


def star_point(x, frame: StarFrame) -> tuple:
    """Image of an affine point (leading coordinate 1) in the big space."""
    x = tuple(x)
    if len(x) != frame.r:
        raise ValueError(f"point has {len(x)} coordinates, ambient needs {frame.r}")
    if x[0] != 1:
        raise ValueError("affine points carry a leading 1; use star_infinite at infinity")
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


def _shifted(x, lam, tower):
    # the elation with parameter lam adds lam to the last coordinate of an
    # affine point (1, x1, ..., x(r-1))
    return x[:-1] + (tower.add(x[-1], lam),)


def orbit_image(x, E: elation.ElationGroup, frame: StarFrame):
    """Star image of the orbit of an affine point x under the group of E.

    Returns the projective closure of the image points in canonical form.
    The image is checked to be the affine part of the span of x* and the
    embedded center section of E, the model's central identity, and
    VerificationError is raised otherwise.
    """
    section = embed_center_section(elation.subspace_of_center(E, frame.n), frame)
    return _orbit_closure(x, E, E.elements(), section, frame)


def _check_affine_image(images, base, W, frame, error, kinds) -> pspace.Subspace:
    """Raise unless images are exactly the affine points of span(base, W).

    A pass costs one span and one point-set comparison; only a failure spans
    the images, to tell a different span (kinds[0], with closure and
    expected) from extra affine points (kinds[1]).  error(kind, **fields)
    builds the VerificationError.  Returns span(base, W).
    """
    expected = pspace.span([base, *W.basis], frame.q)
    if {pt for pt in pspace.subspace_points(expected) if pt[0] != 0} != images:
        closure = pspace.span(sorted(images), frame.q)
        if closure != expected:
            raise error(kinds[0], closure=closure.basis, expected=expected.basis)
        raise error(kinds[1])
    return expected


def _orbit_error(kind, E, frame, **fields) -> VerificationError:
    return VerificationError("orbit geometry check failed", {
        "kind": kind, **fields, "params": [frame.r, frame.p, frame.h, frame.n],
        "m": E.m, "subgroup": [list(row) for row in E.rows]})


def _orbit_closure(x, E, elements, section, frame):
    # orbit_image's closure on a subgroup's precomputed elements and center
    # section; star_point rejects an x that is not affine and normalized
    x = tuple(x)
    images = {star_point(_shifted(x, lam, frame.tower), frame) for lam in elements}
    return _check_affine_image(
        images, star_point(x, frame), section, frame,
        lambda kind, **fields: _orbit_error(kind, E, frame, point=list(x), **fields),
        ("orbit closure differs from the span of x* and the center section",
         "orbit image is not an affine subspace"))


def common_intersection_check(E: elation.ElationGroup, frame: StarFrame, sample) -> bool:
    """Every sampled orbit closure meets z* in the center section of E.

    For each orbit x^E the sample meets, checks once that its image is the
    affine part of span(x*, section), which implies the claim: x* lies off
    A* and the section inside z*, so the span meets z* in the section.  A
    further sample point of a checked orbit would repeat the check on the
    same image set and span, so it is skipped; an orbit is keyed by its
    least member.  Returns True, or raises VerificationError with the
    counterexample, the frame's params, m and the subgroup's rows.
    """
    sample = list(sample)
    if not sample:
        raise ValueError("empty sample")
    section = embed_center_section(elation.subspace_of_center(E, frame.n), frame)
    elements = E.elements()
    checked = set()
    for x in sample:
        x = tuple(x)
        key = min(_shifted(x, lam, frame.tower) for lam in elements)
        if key not in checked:
            checked.add(key)
            _orbit_closure(x, E, elements, section, frame)
    return True


def incidence_check(frame: StarFrame, sample) -> bool:
    """Star images of sampled lines behave like lines of the model.

    A line with affine points maps onto the affine part of span(P*, S), P
    any of its affine points and S the spread element of its point at
    infinity, so its closure meets A* in S; a line inside the hyperplane at
    infinity maps into the span of two spread elements.  Returns True, or
    raises VerificationError with the failing line and the frame's params.
    """
    bigq = frame.tower.order
    for x, y in sample:
        x = pspace.normalize_point(x, bigq)
        y = pspace.normalize_point(y, bigq)
        if x == y:
            raise ValueError("degenerate line spec: the two points coincide")
        where = {"spec": [list(x), list(y)], "params": [frame.r, frame.p, frame.h, frame.n]}
        line = pspace.span([x, y], bigq)
        pts = pspace.subspace_points(line)
        affine = [P for P in pts if P[0] != 0]
        infinite = [P for P in pts if P[0] == 0]
        if affine:
            if len(infinite) != 1:
                raise VerificationError("incidence check failed", {
                    "kind": "line off the hyperplane has several infinite points", **where})
            _check_affine_image(
                {star_point(P, frame) for P in affine}, star_point(affine[0], frame),
                star_infinite(infinite[0], frame), frame,
                lambda kind, **_: VerificationError("incidence check failed",
                                                    {"kind": kind, **where}),
                ("affine line image does not cut a spread element",
                 "line image has extra affine points"))
        else:
            closure = pspace.subspace_sum(star_infinite(x, frame), star_infinite(y, frame))
            if closure.t != 2 * frame.dprime:
                raise VerificationError("incidence check failed", {
                    "kind": "infinite line span has wrong rank", **where, "rank": closure.t})
            for P in pts:
                SP = star_infinite(P, frame)
                if not all(pspace.contains(closure, row) for row in SP.basis):
                    raise VerificationError("incidence check failed", {
                        "kind": "spread element escapes the infinite line span", **where,
                        "point": list(P)})
    return True


def sample_affine_points(frame: StarFrame, size: int = SAMPLE_SIZE, seed: int = 0,
                         force: bool = False) -> list:
    """All affine points when few enough (or forced), otherwise a seeded sample."""
    tower = frame.tower
    if force or frame.affine_count <= EXHAUSTIVE_LIMIT:
        return [(1,) + rest for rest in itertools.product(range(tower.order), repeat=frame.r - 1)]
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
    identity, then checks line incidences.
    cap bounds each subgroup enumeration.
    """
    frame = StarFrame(r, p, h, n)
    sample = sample_affine_points(frame, seed=seed, force=exhaustive)
    orders = [m] if m is not None else admissible_orders(h, n)
    per_order = []
    for mm in orders:
        if mm % n != 0 or not 1 <= mm <= h:
            raise ValueError(f"order exponent {mm} is not admissible for n = {n}")
        groups = [H for H in elation.enumerate_subgroups(p, h, mm, cap=cap)
                  if n in {nn for nn, _ in elation.dimension_profile(H).admissible}]
        for H in groups:
            common_intersection_check(H, frame, sample)
        per_order.append({
            "m": mm,
            "d": mm // n,
            "subgroups": len(groups),
            "orbits_checked": len(groups) * len(sample),
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
