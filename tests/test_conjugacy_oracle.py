"""Lemma 1's hard direction from outside galela: PGL(r, q) as a sympy permutation group.

galela's conjugacy pass tries only the q - 1 diagonals diag(1, ..., 1, d),
and the claim that no other element of PGL(r, q) conjugates two elation
groups rests on the flag argument in conjugacy_partition's docstring.  The
oracle here makes no such argument, and its functions (everything above
``galela_classes``) use sympy and the standard library alone:

- GF(p^h) comes from ``sympy.polys.galoistools``: a monic irreducible
  modulus found by ``gf_irreducible_p``, and addition and multiplication
  tables from ``gf_add``, ``gf_mul`` and ``gf_rem``;
- PGL(r, q) is generated by the transvections I + a E_ij, a over a GF(p)-basis
  of GF(q), which generate SL(r, q), and by diag(w, 1, ..., 1), w primitive,
  each written as a permutation of the points of PG(r-1, q), and
  ``PermutationGroup(...).order()`` must be |PGL(r, q)|;
- E(H), for an additive subgroup H of GF(q), is the set of permutations
  x -> x + lam x_0 e_(r-1), lam in H, and the classes are the orbits of
  these sets under conjugation by the generators, found breadth first: the
  search visits every conjugate of E(H), whatever its center and axis.

Its (|H|, class size) list must equal both galela's: the classes of
conjugacy_partition over every subgroup, and the scalar classes of
equivalence_classes.
"""

import functools
import itertools
from collections import deque
from math import prod

import pytest

galoistools = pytest.importorskip("sympy.polys.galoistools")

from sympy import ZZ
from sympy.combinatorics import Permutation, PermutationGroup

from galela import conjugacy_partition, equivalence_classes, make_field

# (r, p, h): PGL(2, q) for q in {4, 8, 9, 16} and PGL(3, q) for q in {2, 3, 4}
CASES = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 4), (3, 2, 1), (3, 3, 1), (3, 2, 2)]


def case_id(case):
    r, p, h = case
    return f"PGL({r},{p**h})"


def outside_field(p, h):
    """(add, mul, inv, primitive) for GF(p^h): tables over the encoding of
    each element as its tuple of h coefficients, highest degree first, in
    itertools.product order, so that 0 and 1 encode themselves."""
    polys = list(itertools.product(range(p), repeat=h))
    modulus = next([1, *tail] for tail in polys if galoistools.gf_irreducible_p([1, *tail], p, ZZ))
    index = {poly: i for i, poly in enumerate(polys)}

    def encode(f):
        return index[(0,) * (h - len(f)) + tuple(int(c) for c in f)]

    def arith(op):
        return [[encode(galoistools.gf_rem(op(galoistools.gf_strip(list(a)),
                                               galoistools.gf_strip(list(b)), p, ZZ),
                                           modulus, p, ZZ)) for b in polys] for a in polys]

    add, mul = arith(galoistools.gf_add), arith(galoistools.gf_mul)
    q = p**h

    def order(a):
        k, x = 1, a
        while x != 1:
            x, k = mul[x][a], k + 1
        return k

    primitive = next(a for a in range(1, q) if order(a) == q - 1)
    inv = {a: b for a in range(1, q) for b in range(1, q) if mul[a][b] == 1}
    return add, mul, inv, primitive


def outside_points(r, q):
    """The points of PG(r-1, q): nonzero vectors whose first nonzero entry is 1."""
    return [v for v in itertools.product(range(q), repeat=r) if any(v) and next(filter(None, v)) == 1]


def as_permutation(g, points, field):
    """The matrix g acting on the points, as the tuple of their images' indices."""
    add, mul, inv, _ = field
    where = {v: i for i, v in enumerate(points)}
    out = []
    for v in points:
        w = [functools.reduce(lambda acc, x: add[acc][x], (mul[a][b] for a, b in zip(row, v)), 0)
             for row in g]
        scale = inv[next(filter(None, w))]
        out.append(where[tuple(mul[scale][x] for x in w)])
    return tuple(out)


def outside_generators(r, p, h, primitive):
    """Matrices generating GL(r, q): transvections I + a E_ij for a in the
    monomials 1, x, ..., x^(h-1), and diag(primitive, 1, ..., 1)."""
    monomials = [p**k for k in range(h)]  # the encodings of x^k, highest degree first

    def matrix(entries):
        return [[entries.get((i, j), int(i == j)) for j in range(r)] for i in range(r)]

    transvections = [matrix({(i, j): a}) for i, j in itertools.permutations(range(r), 2)
                     for a in monomials]
    return transvections + [matrix({(0, 0): primitive})]


def outside_subgroups(p, h, add):
    """Every nontrivial additive subgroup of GF(p^h), as a frozenset, by closure."""
    q = p**h
    found, todo = {frozenset([0])}, [frozenset([0])]
    while todo:
        H = todo.pop()
        for b in range(q):
            if b not in H:
                K = set(H)
                for _ in range(p - 1):
                    K |= {add[x][b] for x in K}
                K = frozenset(K)
                if K not in found:
                    found.add(K)
                    todo.append(K)
    return sorted((H for H in found if len(H) > 1), key=sorted)


def conjugate(g, perm):
    """g perm g^-1 on point indices: it takes g(x) to g(perm(x))."""
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[g[x]] = g[y]
    return tuple(out)


@functools.cache
def outside_oracle(r, p, h):
    """(order of the generated group, sorted (|H|, class size) pairs)."""
    field = outside_field(p, h)
    points = outside_points(r, p**h)
    gens = [as_permutation(g, points, field) for g in outside_generators(r, p, h, field[3])]
    order = PermutationGroup([Permutation(list(g)) for g in gens]).order()

    def elations(H):
        return frozenset(as_permutation([[lam if (i, j) == (r - 1, 0) else int(i == j)
                                          for j in range(r)] for i in range(r)], points, field)
                         for lam in H)

    subgroups = outside_subgroups(p, h, field[0])
    groups = [elations(H) for H in subgroups]
    unseen, classes = set(range(len(groups))), []
    for i in range(len(groups)):
        if i not in unseen:
            continue
        orbit, queue = {groups[i]}, deque([groups[i]])
        while queue:
            E = queue.popleft()
            for g in gens:
                F = frozenset(conjugate(g, perm) for perm in E)
                if F not in orbit:
                    orbit.add(F)
                    queue.append(F)
        members = [j for j in unseen if groups[j] in orbit]
        unseen -= set(members)
        classes.append((len(subgroups[i]), len(members)))
    return order, sorted(classes)


def pgl_order(r, q):
    return q ** (r * (r - 1) // 2) * prod(q**i - 1 for i in range(2, r + 1))


def galela_classes(r, p, h):
    """galela's (|H|, class size) pairs: conjugacy_partition's, then the scalar classes'."""
    tower = make_field(p, h)
    classes = [c for m in range(1, h + 1) for c in equivalence_classes(p, h, m)]
    sets = [elems for c in classes for elems in c.member_elements()]
    partition = conjugacy_partition(tower, sets, r)
    return (sorted((len(sets[members[0]]), len(members)) for members in partition.classes),
            sorted((p**c.representative.m, c.size) for c in classes))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_the_generators_give_pgl(case):
    r, p, h = case
    assert outside_oracle(r, p, h)[0] == pgl_order(r, p**h)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_conjugacy_classes_match_the_permutation_group(case):
    _, expected = outside_oracle(*case)
    conjugacy, scalar = galela_classes(*case)
    assert conjugacy == expected
    assert scalar == expected


def test_the_oracle_lists_every_subgroup():
    # the sum over m of [h choose m]_p: 3 + 1 for GF(4), 4 + 1 for GF(9),
    # 15 + 35 + 15 + 1 for GF(16)
    assert [len(outside_subgroups(p, h, outside_field(p, h)[0]))
            for p, h in [(2, 2), (3, 2), (2, 4)]] == [4, 5, 66]
