"""Cross-checks against oracles outside galela: sympy and hypothesis.

sympy's dense GF(p)[x] arithmetic (``sympy.polys.galoistools``) is an
independent implementation of the field construction: it confirms that each
tower's modulus is the least monic irreducible, that its designated
generator is the least primitive element, and that multiplication agrees.
sympy also builds a Singer cycle of PG(s-1,p) from a primitive polynomial
of its own finding, whose orbits on subspaces (``PermutationGroup.orbit``)
must have the census's sizes, and whose logs of a hyperplane's points must
form Singer's difference set.  hypothesis drives property tests of the field
axioms, coordinate round trips, RREF canonicity and the dimension formula.  Both are test-only
dependencies (the ``test`` extra); the examples are bounded and derandomized
so the tests run in the same few seconds every time.
"""

import itertools
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
galoistools = pytest.importorskip("sympy.polys.galoistools")

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, factorint
from sympy.combinatorics import Permutation, PermutationGroup

from galela import make_field, orbit_census, subspace_intersection, subspace_sum
from galela.linalg import matmul, rref
from galela.pspace import span

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# small fields for the properties; every subfield degree is exercised
FIELDS = ((2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (2, 6), (3, 3))

# fields whose construction is checked against sympy
CONSTRUCTED = [(2, h) for h in range(1, 13)] + [(3, h) for h in range(1, 7)] + \
    [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 2)]


def to_poly(tower, a):
    """Field element as a sympy dense polynomial, highest degree first."""
    return galoistools.gf_strip(list(reversed(tower.coeffs(a))))


def from_poly(tower, poly):
    return sum(int(c) * tower.p**i for i, c in enumerate(reversed(poly)))


def sympy_modulus(tower):
    return list(reversed(tower.modulus))


def is_primitive(poly, modulus, p, order):
    """poly has multiplicative order order - 1 modulo modulus over GF(p)."""
    n = order - 1
    if galoistools.gf_pow_mod(poly, n, modulus, p, ZZ) != [1]:
        return False
    return all(galoistools.gf_pow_mod(poly, n // r, modulus, p, ZZ) != [1] for r in factorint(n))


@pytest.mark.parametrize("p,h", CONSTRUCTED)
def test_modulus_is_least_monic_irreducible(p, h):
    tower = make_field(p, h)
    assert len(tower.modulus) == h + 1 and tower.modulus[-1] == 1
    assert galoistools.gf_irreducible_p(sympy_modulus(tower), p, ZZ)
    # every monic polynomial of degree h with a smaller encoding is reducible
    for enc in range(tower.from_coeffs(tower.modulus[:-1])):
        smaller = [1] + list(reversed(tower.coeffs(enc)))
        assert not galoistools.gf_irreducible_p(smaller, p, ZZ)


@pytest.mark.parametrize("p,h", CONSTRUCTED)
def test_generator_is_least_primitive(p, h):
    tower = make_field(p, h)
    modulus = sympy_modulus(tower)
    assert is_primitive(to_poly(tower, tower.mu), modulus, p, tower.order)
    assert not any(is_primitive(to_poly(tower, a), modulus, p, tower.order)
                   for a in range(1, tower.mu))


@pytest.mark.parametrize("p,h", [(p, h) for p, h in CONSTRUCTED if p**h <= 3**6])
def test_exp_and_zech_tables_match_sympy(p, h):
    """exp[k] is mu^k mod the modulus, and zech[k] is the log of 1 + mu^k."""
    tower = make_field(p, h)
    modulus = sympy_modulus(tower)
    mu = to_poly(tower, tower.mu)
    powers = [[1]]
    for _ in range(tower.order - 2):
        powers.append(galoistools.gf_rem(galoistools.gf_mul(powers[-1], mu, p, ZZ),
                                         modulus, p, ZZ))
    assert [to_poly(tower, tower.exp[k]) for k in range(tower.order - 1)] == powers
    log = {tuple(poly): k for k, poly in enumerate(powers)}
    for k, power in enumerate(powers):
        one_plus = galoistools.gf_add(power, [1], p, ZZ)
        # 1 + mu^k = 0 has no log; the table holds 0 there
        assert tower.zech[k] == (log[tuple(one_plus)] if one_plus else 0)


# (s, t, p): t-subspaces of PG(s-1, p) under a Singer cycle built by sympy
SINGER_CASES = [(4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 3, 2), (4, 2, 3)]


def normalized(v, p):
    """v scaled so that its first nonzero entry is 1, over GF(p), p prime."""
    lead = pow(next(c for c in v if c), -1, p)
    return tuple(c * lead % p for c in v)


def sympy_singer(s, p):
    """The points of PG(s-1, p) and a Singer cycle on their indices, from sympy alone.

    The modulus f is the first monic irreducible of degree s, in sympy's
    dense order, in which x has order p^s - 1.  A point is a nonzero vector
    of s coefficients, highest degree first, scaled so that its first
    nonzero entry is 1; the cycle multiplies it by x modulo f.
    """
    for tail in itertools.product(range(p), repeat=s):
        f = [1, *tail]
        if galoistools.gf_irreducible_p(f, p, ZZ) and is_primitive([1, 0], f, p, p**s):
            break

    def times_x(v):
        prod = galoistools.gf_rem(galoistools.gf_mul(list(v), [1, 0], p, ZZ), f, p, ZZ)
        return normalized((0,) * (s - len(prod)) + tuple(int(c) for c in prod), p)

    points = sorted({normalized(v, p) for v in itertools.product(range(p), repeat=s) if any(v)})
    index = {v: i for i, v in enumerate(points)}
    return points, Permutation([index[times_x(v)] for v in points]), times_x


def subspace_point_sets(points, t, p):
    """Every t-subspace of PG(s-1, p) as the sorted tuple of its point indices:
    span(X, P) holds X, P and the points x + cP, x in X and c != 0."""
    index = {v: i for i, v in enumerate(points)}
    level = {(i,) for i in range(len(points))}
    for _ in range(t - 1):
        grown = set()
        for X in level:
            for P in set(range(len(points))) - set(X):
                v = points[P]
                sums = {index[normalized([(a + c * b) % p for a, b in zip(points[x], v)], p)]
                        for x in X for c in range(1, p)}
                grown.add(tuple(sorted({*X, P, *sums})))
        level = grown
    return sorted(level)


def theta(k, p):
    return (p**k - 1) // (p - 1)


@pytest.mark.parametrize("s,t,p", SINGER_CASES)
def test_orbit_sizes_match_a_sympy_singer_cycle(s, t, p):
    points, cycle, _ = sympy_singer(s, p)
    group = PermutationGroup([cycle])
    assert group.order() == theta(s, p)
    subspaces = subspace_point_sets(points, t, p)
    assert all(len(X) == theta(t, p) for X in subspaces)
    seen, sizes = set(), []
    for X in subspaces:
        if X not in seen:
            orbit = {tuple(sorted(Y)) for Y in group.orbit(X, action="sets")}
            seen |= orbit
            sizes.append(len(orbit))
    assert seen == set(subspaces)
    assert sorted(sizes) == sorted(rec.size for rec in orbit_census(s, t, p).orbits)


@pytest.mark.parametrize("s,p", sorted({(s, p) for s, _, p in SINGER_CASES}))
def test_hyperplane_logs_are_a_singer_difference_set(s, p):
    """The logs, mod theta(s,p), of the points with constant coefficient 0
    give every nonzero difference exactly theta(s-2,p) times."""
    _, _, times_x = sympy_singer(s, p)
    n = theta(s, p)
    cur, logs = (0,) * (s - 1) + (1,), {}
    for k in range(n):
        logs[cur] = k
        cur = times_x(cur)
    assert len(logs) == n and cur == (0,) * (s - 1) + (1,)
    D = [k for v, k in logs.items() if v[-1] == 0]
    assert len(D) == theta(s - 1, p)
    differences = Counter((a - b) % n for a, b in itertools.permutations(D, 2))
    assert sorted(differences) == list(range(1, n))
    assert set(differences.values()) == {theta(s - 2, p)}


# every GF(p^h) of order at most 4096 with a proper subfield; in a field of
# prime order the only subfield is the field itself
TOWERS = [(p, h) for p in range(2, 65) if all(p % d for d in range(2, p))
          for h in range(2, 13) if p**h <= 4096]


@pytest.mark.parametrize("p,h", TOWERS)
def test_subfield_maps_are_isomorphisms(p, h):
    """Brute force: to_subfield and from_subfield are inverse field isomorphisms."""
    big = make_field(p, h)
    for n in (n for n in range(1, h + 1) if h % n == 0):
        small = make_field(p, n)
        sub = big.subfield_elements(n)
        down = {a: big.to_subfield(a, n) for a in sub}
        assert sorted(down.values()) == list(range(small.order))
        assert all(big.from_subfield(b, n) == a for a, b in down.items())
        if n == h:
            assert all(a == b for a, b in down.items())
            continue
        for a in sub:
            for b in sub:
                assert down[big.add(a, b)] == small.add(down[a], down[b])
                assert down[big.mul(a, b)] == small.mul(down[a], down[b])


@st.composite
def field_elements(draw, k=3):
    tower = make_field(*draw(st.sampled_from(FIELDS)))
    return tower, [draw(st.integers(0, tower.order - 1)) for _ in range(k)]


@SETTINGS
@given(field_elements())
def test_multiplication_matches_sympy(case):
    tower, (a, b, _) = case
    prod = galoistools.gf_rem(galoistools.gf_mul(to_poly(tower, a), to_poly(tower, b), tower.p, ZZ),
                              sympy_modulus(tower), tower.p, ZZ)
    assert tower.mul(a, b) == from_poly(tower, prod)


@SETTINGS
@given(field_elements())
def test_field_axioms(case):
    F, (a, b, c) = case
    add, mul = F.add, F.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, F.neg(a)) == 0 and F.sub(a, b) == add(a, F.neg(b))
    assert F.pow(a, F.order) == a
    if a:
        assert mul(a, F.inv(a)) == 1


@SETTINGS
@given(st.data())
def test_coords_round_trip(data):
    tower = make_field(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.sampled_from([n for n in range(1, tower.h + 1) if tower.h % n == 0]))
    a = data.draw(st.integers(0, tower.order - 1))
    assert tower.from_coords(tower.coords(a, n), n) == a
    cs = tuple(data.draw(st.integers(0, tower.p**n - 1)) for _ in range(tower.h // n))
    assert tower.coords(tower.from_coords(cs, n), n) == cs


@st.composite
def matrices(draw):
    """A field and a small matrix over it (rows may be dependent or zero)."""
    tower = make_field(*draw(st.sampled_from(FIELDS[:7])))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entry = st.integers(0, tower.order - 1)
    return tower, tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


@SETTINGS
@given(matrices(), st.data())
def test_rref_is_canonical(case, data):
    tower, mat = case
    red, pivots = rref(mat, tower)
    assert rref(red, tower) == (red, pivots)
    for i, c in enumerate(pivots):
        assert red[i][c] == 1 and all(red[k][c] == 0 for k in range(len(red)) if k != i)
        assert not any(red[i][:c])
    # the form depends on the row space only: add row combinations, shuffle
    entry = st.integers(0, tower.order - 1)
    combos = tuple(tuple(data.draw(entry) for _ in mat) for _ in range(data.draw(st.integers(0, 3))))
    rows = data.draw(st.permutations(mat + matmul(combos, mat, tower)))
    assert rref(rows, tower) == (red, pivots)


@SETTINGS
@given(matrices(), st.data())
def test_dimension_formula(case, data):
    tower, first = case
    cols = len(first[0])
    entry = st.integers(0, tower.order - 1)
    second = tuple(tuple(data.draw(entry) for _ in range(cols))
                   for _ in range(data.draw(st.integers(1, 4))))
    if not any(map(any, first)) or not any(map(any, second)):
        return
    X, Y = span(first, tower.order), span(second, tower.order)
    meet = subspace_intersection(X, Y)
    assert subspace_sum(X, Y).t + (meet.t if meet else 0) == X.t + Y.t
