"""Points and subspaces of PG(s-1, q).

A projective point is a tuple of GF(q) encodings scaled so its first nonzero
coordinate is 1.  A t-dimensional subspace (vector dimension t, projective
dimension t-1) is carried by the unique reduced-row-echelon basis of its row
space, pivots ascending, stored as a tuple of row tuples; equal subspaces
therefore compare equal as values, and span is the one way from generating
rows to that form.  Enumeration walks pivot-column patterns and fills the
free entries, returning a sorted tuple of subspaces, so the number emitted
matching the Gaussian binomial is a structural fact, not a coincidence.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

from . import combinat, linalg
from .errors import CapExceeded, VerificationError
from .gf import make_field

SUBSPACE_CAP_ENV = "GALELA_CAP_SUBSPACES"
DEFAULT_SUBSPACE_CAP = 10**7


def subspace_cap(override=None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get(SUBSPACE_CAP_ENV)
    return int(env) if env else DEFAULT_SUBSPACE_CAP


@functools.cache
def field_for(q: int):
    """Canonical field whose elements are the ints 0..q-1."""
    p, n = combinat.prime_power(q)
    return make_field(p, n)


@dataclass(frozen=True)
class Subspace:
    """RREF-carried subspace of GF(q)^s; basis rows are the canonical form."""

    q: int
    basis: tuple

    @property
    def s(self) -> int:
        return len(self.basis[0])

    @property
    def t(self) -> int:
        return len(self.basis)


def enumerate_points(s: int, q: int) -> list[tuple]:
    """All points of PG(s-1, q), sorted; first nonzero coordinate is 1."""
    if s < 1:
        raise ValueError(f"bad ambient dimension {s}")
    field = field_for(q)
    pts = []
    for lead in range(s):
        for tail in itertools.product(field.elements(), repeat=s - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    if len(pts) != combinat.theta(s, q):
        raise VerificationError("point count is not theta(s,q)",
                                {"case": (s, q), "points": len(pts)})
    return pts


def normalize_point(v, q: int) -> tuple:
    field = field_for(q)
    for x in v:
        if x:
            if x == 1:
                return tuple(v)
            iv = field.inv(x)
            return tuple(field.mul(iv, y) for y in v)
    raise ValueError("zero vector is not a projective point")


def span(rows, q: int) -> Subspace:
    """Subspace spanned by rows; dependent generating sets are fine."""
    field = field_for(q)
    red, _ = linalg.rref(rows, field)
    if not red:
        raise ValueError("zero span")
    return Subspace(q, red)


def enumerate_subspaces(s: int, t: int, q: int, cap=None) -> tuple:
    """All t-dimensional subspaces of GF(q)^s in sorted canonical order.

    Walks every ascending pivot pattern; the entries right of each pivot in
    non-pivot columns range freely over GF(q).  Raises CapExceeded before
    doing any work if the Gaussian binomial says the output is too big.
    """
    if not 1 <= t <= s:
        raise ValueError(f"bad subspace dimension {t} in ambient {s}")
    total = combinat.gaussian_binomial(s, t, q)
    limit = subspace_cap(cap)
    if total > limit:
        raise CapExceeded(f"{total} subspaces exceed cap {limit}")
    field = field_for(q)
    bases = []
    for pivots in itertools.combinations(range(s), t):
        pivset = set(pivots)
        # the rows vary independently, so a basis is one choice per row and
        # the row tuples are shared between the bases that choose them
        choices = []
        for pc in pivots:
            free = [j for j in range(pc + 1, s) if j not in pivset]
            rows = []
            for assignment in itertools.product(field.elements(), repeat=len(free)):
                row = [0] * s
                row[pc] = 1
                for j, v in zip(free, assignment):
                    row[j] = v
                rows.append(tuple(row))
            choices.append(rows)
        bases.extend(itertools.product(*choices))
    bases.sort()
    members = [Subspace(q, basis) for basis in bases]
    if len(members) != total:
        raise VerificationError("subspace count is not the Gaussian binomial",
                                {"case": (s, t, q), "subspaces": len(members)})
    return tuple(members)


def contains(X: Subspace, point) -> bool:
    field = field_for(X.q)
    pivots = tuple(next(j for j, v in enumerate(row) if v) for row in X.basis)
    return linalg.in_rowspace(point, X.basis, pivots, field)


# maxsize=0 stores nothing and only counts calls: the census and the star
# checks ask for each subspace's points about once.  The decorator stays only
# because perfbench/trace_layers.py reads cache_info().
@functools.lru_cache(maxsize=0)
def subspace_points(X: Subspace) -> tuple:
    """All points of PG(s-1,q) lying in X.

    Combinations with first nonzero coefficient 1 hit each point exactly
    once, and the result is already normalized because the basis is RREF.
    """
    field = field_for(X.q)
    pts = []
    for coeff in enumerate_points(X.t, X.q):
        acc = [0] * X.s
        for c, row in zip(coeff, X.basis):
            if c:
                for k, v in enumerate(row):
                    if v:
                        acc[k] = field.add(acc[k], field.mul(c, v))
        pts.append(tuple(acc))
    if len(set(pts)) != len(pts):
        raise VerificationError("subspace points are not distinct",
                                {"subspace": X.basis, "q": X.q})
    return tuple(pts)


def is_cover(members, k: int) -> bool:
    """True when every ambient point lies on exactly k members."""
    members = list(members)
    if not members:
        return False
    s, q = members[0].s, members[0].q
    if any(X.s != s or X.q != q for X in members):
        raise ValueError("mixed ambients in cover check")
    tally: dict[tuple, int] = {}
    for X in members:
        for pt in subspace_points(X):
            tally[pt] = tally.get(pt, 0) + 1
    if len(tally) != combinat.theta(s, q):
        return False
    return all(c == k for c in tally.values())


def is_spread(members) -> bool:
    return is_cover(members, 1)


def subspace_sum(X: Subspace, Y: Subspace) -> Subspace:
    if X.q != Y.q or X.s != Y.s:
        raise ValueError("mixed ambients")
    return span(list(X.basis) + list(Y.basis), X.q)


def subspace_intersection(X: Subspace, Y: Subspace):
    """Intersection as a Subspace, or None when it is the zero space."""
    if X.q != Y.q or X.s != Y.s:
        raise ValueError("mixed ambients")
    field = field_for(X.q)
    rows = linalg.intersect_rowspaces(X.basis, Y.basis, field)
    if not rows:
        return None
    return Subspace(X.q, rows)
