"""Points and subspaces of PG(s-1, q).

A projective point is a tuple of GF(q) encodings scaled so its first nonzero
coordinate is 1.  A t-dimensional subspace (vector dimension t, projective
dimension t-1) is carried by the unique reduced-row-echelon basis of its row
space, pivots ascending, stored as a tuple of row tuples; equal subspaces
therefore compare equal as values, and span is the one way from generating
rows to that form.  Enumeration (subspace_groups) streams the RREF bases row
by row in sorted order as groups, the first t-1 rows and one shared list of
last rows, so no basis is built unless asked for (subspace_bases) and no
row until the stream is read, and checks its count at the end.  It can
stream only the subspaces inside the hyperplane x_0 = 0, the first ones
of the sorted order, and is bounded by its cap argument,
DEFAULT_SUBSPACE_CAP if None.  Vectors are listed by the one coset
enumerator, linalg.coset: the points of a subspace, only when asked for
(subspace_points), as cosets of spans of its basis rows, and the rows with
pivot p that enumerate_points and subspace_groups read as the coset of
e_p and the unit vectors after it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import combinat, linalg
from .errors import CapExceeded, VerificationError
from .gf import make_field

DEFAULT_SUBSPACE_CAP = 10**7


@functools.cache
def field_for(q: int):
    """Canonical field whose elements are the ints 0..q-1."""
    p, n = combinat.prime_power(q)
    return make_field(p, n)


class Subspace(NamedTuple):
    """RREF-carried subspace of GF(q)^s; basis rows are the canonical form."""

    q: int
    basis: tuple

    @property
    def s(self) -> int:
        return len(self.basis[0])

    @property
    def t(self) -> int:
        return len(self.basis)


def _pivot_rows(s: int, q: int) -> list[list[tuple]]:
    """rows[p]: the rows of GF(q)^s with pivot p, sorted: the coset e_p + span(e_(p+1), ...)."""
    units = linalg.identity(s)
    return [linalg.coset(units[p], units[p + 1:], field_for(q)) for p in range(s)]


def enumerate_points(s: int, q: int) -> list[tuple]:
    """All points of PG(s-1, q), sorted; first nonzero coordinate is 1."""
    if s < 1:
        raise ValueError(f"bad ambient dimension {s}")
    pts = [pt for rows in reversed(_pivot_rows(s, q)) for pt in rows]
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


def subspace_groups(s: int, t: int, q: int, cap=None, hyperplane=False):
    """The t-dimensional subspaces of GF(q)^s as (prefix, rows) groups, streamed in sorted order.

    A group stands for the RREF bases prefix + (row,), row in rows: prefix
    holds t - 1 rows, and rows is the one list of rows with pivot p.  Raises
    ValueError or CapExceeded here, before any row is listed, if t is out of
    range, the Gaussian binomial exceeds cap (DEFAULT_SUBSPACE_CAP if None)
    or q is not the order of a field.  The stream raises VerificationError
    at its end unless its groups held exactly the Gaussian binomial's count.

    With hyperplane and t < s, only the subspaces inside the hyperplane
    x_0 = 0 are streamed: the bases whose first pivot is 1 or more, which
    are the first [s-1 choose t]_q of the sorted order, and that is the
    count checked.  The cap still bounds [s choose t]_q.

    The bases are walked row by row.  A row has its pivot, a 1, in a column
    where the earlier rows are 0, and anything right of it; the later pivots
    must fall where this row is 0 too, so a row is kept only if enough such
    columns remain, and a prefix of t - 1 rows yields one group per such
    column.  Rows are tried with their pivot right to left and then in
    tuple order, which is sorted order, so the bases come out sorted and
    the bases sharing a prefix of rows are consecutive and share its tuples.
    """
    if not 1 <= t <= s:
        raise ValueError(f"bad subspace dimension {t} in ambient {s}")
    total = combinat.gaussian_binomial(s, t, q)
    limit = DEFAULT_SUBSPACE_CAP if cap is None else cap
    if total > limit:
        raise CapExceeded(f"{total} subspaces exceed cap {limit}")
    first = 1 if hyperplane and t < s else 0  # the least pivot a row may have
    field_for(q)  # ValueError unless q is the order of a field

    def extend(rows, prefix, zero):
        """Groups of the bases that begin with prefix, t - 1 rows or fewer;
        zero lists the columns right of its last pivot where all its rows are 0."""
        need = t - len(prefix)
        if need == 1:
            for p in reversed(zero):
                yield prefix, rows[p]
            return
        for k in range(len(zero) - need, -1, -1):
            later = zero[k + 1:]
            for row in rows[zero[k]]:
                free = [j for j in later if not row[j]]
                if len(free) >= need - 1:
                    yield from extend(rows, prefix + (row,), free)

    def groups():
        count = 0
        for group in extend(_pivot_rows(s, q), (), list(range(first, s))):
            count += len(group[1])
            yield group
        if count != combinat.gaussian_binomial(s - first, t, q):
            raise VerificationError("subspace count is not the Gaussian binomial",
                                    {"case": (s, t, q), "subspaces": count})

    return groups()


def subspace_bases(s: int, t: int, q: int, cap=None):
    """The RREF bases (tuples of row tuples) of subspace_groups, flattened, with its checks."""
    return (prefix + (row,) for prefix, rows in subspace_groups(s, t, q, cap) for row in rows)


def enumerate_subspaces(s: int, t: int, q: int, cap=None) -> tuple:
    """All t-dimensional subspaces of GF(q)^s in sorted canonical order, from subspace_bases."""
    return tuple(Subspace(q, basis) for basis in subspace_bases(s, t, q, cap))


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

    Each point is the combination of the basis whose coefficient vector has
    first nonzero coefficient 1, at some row i: row i plus a vector of the
    span of the rows after it, one linalg.coset per i.  The result is
    already normalized because the basis is RREF.  Taking i from last to
    first lists the coefficient vectors in sorted order, enumerate_points(t,
    q)'s.
    """
    field = field_for(X.q)
    pts = tuple(pt for i in reversed(range(X.t))
                for pt in linalg.coset(X.basis[i], X.basis[i + 1:], field))
    if len(set(pts)) != len(pts):
        raise VerificationError("subspace points are not distinct",
                                {"subspace": X.basis, "q": X.q})
    return pts


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
