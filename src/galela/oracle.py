"""Brute-force oracles that the tests and demos compare the kernels with.

No command reaches these functions, and no other module of galela imports
this one, so a CLI process never loads it.  They read no table by name:
no log, exp or Zech table, no span_log_sets and no rotate, only field
arithmetic through its methods (mul, inv, pow, from_coords), RREF and the
matrix and subspace primitives.  tests/test_oracle_rules.py checks both
rules on the source.
"""

from __future__ import annotations

import itertools

from . import combinat, elation, linalg, pspace, singer
from .gf import make_field


def orbit_partition(items, step) -> list:
    """The orbits of step on items, each a list in walk order from its first item (walk_orbits)."""
    index, firsts = singer.walk_orbits(((x, x) for x in items), step)
    walked = iter(index)
    return [list(itertools.islice(walked, size)) for _, size, _ in firsts]


def scale_projective(mat, field):
    """Canonical representative of a matrix modulo scalars: scale so the
    first nonzero entry in row-major order becomes 1."""
    for row in mat:
        for x in row:
            if x:
                if x == 1:
                    return tuple(tuple(r) for r in mat)
                iv = field.inv(x)
                return tuple(tuple(field.mul(iv, y) for y in r) for r in mat)
    raise ValueError("zero matrix has no projective class")


def subspace_intersection(X: pspace.Subspace, Y: pspace.Subspace):
    """Intersection as a Subspace, or None when it is the zero space.

    Zassenhaus: the RREF of the rows (x | x) for x in X's basis and (y | 0)
    for y in Y's has, in its rows whose first half is zero, a basis of the
    intersection in the second half.
    """
    if X.q != Y.q or X.s != Y.s:
        raise ValueError("mixed ambients")
    block = [row + row for row in X.basis] + [row + (0,) * X.s for row in Y.basis]
    red, _ = linalg.rref(block, pspace.field_for(X.q))
    inter = [row[X.s:] for row in red if not any(row[:X.s])]
    return pspace.span(inter, X.q) if inter else None


def enumerate_subgroups(p: int, h: int, m: int, cap=None) -> list:
    """All additive subgroups of GF(p^h) of order p^m, sorted canonically."""
    groups = elation._subgroup_groups(p, h, m, cap)
    tower = make_field(p, h)
    return [elation.ElationGroup(tower, prefix + (row,)) for prefix, rows in groups for row in rows]


def scalar_equivalent(H1, H2):
    """Least mu-power alpha with alpha * H1 == H2, else None.

    Prime-field scalars fix every subgroup, so the search covers the coset
    representatives mu^k, 0 <= k < (p^h - 1)/(p - 1), of GF(p^h)* over GF(p)*.
    """
    tower = H1.tower
    if H2.tower is not tower or H1.m != H2.m:
        raise ValueError("subgroups live in different settings")
    for k in range(combinat.theta(tower.h, tower.p)):
        alpha = tower.pow(tower.mu, k)
        if elation.scalar_multiple(H1, alpha).rows == H2.rows:
            return alpha
    return None


def star_point_inverse(pt, frame) -> tuple:
    """Inverse of bruckbose.star_point on affine points of the big space."""
    pt = tuple(pt)
    if len(pt) != frame.vecdim or pt[0] != 1:
        raise ValueError("not an affine point of the star space")
    d = frame.dprime
    blocks = [pt[1 + i * d:1 + (i + 1) * d] for i in range(frame.r - 1)]
    return (1,) + tuple(frame.tower.from_coords(b, frame.n) for b in blocks)


def element_order(tower, a: int) -> int:
    """Multiplicative order of a nonzero element of tower."""
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    n = tower.order - 1
    for f in combinat.prime_factors(n):
        while n % f == 0 and tower.pow(a, n // f) == 1:
            n //= f
    return n


def subfield_elements(tower, n: int) -> tuple[int, ...]:
    """Elements of the subfield GF(p^n) of tower, ascending by encoding:
    0 and the powers of its generator."""
    gamma = tower.subfield_generator(n)  # ValueError unless n | h
    return tuple(sorted({0} | {tower.pow(gamma, k) for k in range(tower.p**n - 1)}))
