"""Tests for the exact counting helpers.

The Gaussian binomial values are cross-checked against a brute-force
subspace count that enumerates row spans directly, so the closed form
and the enumeration never drift apart.
"""

import itertools

import pytest

from galela import (
    divisors,
    gaussian_binomial,
    make_field,
    moebius,
    prime_power,
    theta,
)
from galela.combinat import exact_div, is_prime


def brute_subspace_count(a, b, q):
    """Count b-dimensional subspaces of GF(q)^a by collecting spans.

    Deliberately naive: every b-tuple of vectors is spanned via closure
    under addition and scalar multiplication, and distinct spans are
    collected as frozensets of vectors.  Only usable for tiny a.
    """
    field = make_field(*prime_power(q))
    vectors = list(itertools.product(range(q), repeat=a))

    def vadd(u, v):
        return tuple(field.add(x, y) for x, y in zip(u, v))

    def vscale(c, u):
        return tuple(field.mul(c, x) for x in u)

    def span(rows):
        pts = {(0,) * a}
        for r in rows:
            new = set()
            for c in range(q):
                step = vscale(c, r)
                for p in pts:
                    new.add(vadd(p, step))
            pts = new
        return frozenset(pts)

    spans = set()
    for rows in itertools.combinations(vectors[1:], b):
        s = span(rows)
        if len(s) == q**b:
            spans.add(s)
    if b == 0:
        return 1
    return len(spans)


class TestTheta:
    def test_zero_dimension(self):
        assert theta(0, 2) == 0
        assert theta(0, 9) == 0

    def test_single_point(self):
        for q in (2, 3, 4, 5, 8, 9):
            assert theta(1, q) == 1

    def test_known_values(self):
        assert theta(2, 2) == 3
        assert theta(3, 2) == 7
        assert theta(4, 2) == 15
        assert theta(2, 4) == 5
        assert theta(3, 4) == 21
        assert theta(2, 16) == 17

    def test_geometric_sum(self):
        # theta(t, q) is 1 + q + ... + q^(t-1)
        for t in range(6):
            for q in (2, 3, 4, 9):
                assert theta(t, q) == sum(q**i for i in range(t))

    def test_matches_gaussian_binomial(self):
        for t in range(1, 9):
            for q in (2, 3, 4, 8, 9):
                assert theta(t, q) == gaussian_binomial(t, 1, q)


class TestGaussianBinomial:
    def test_trivial_cases(self):
        for a in range(7):
            assert gaussian_binomial(a, 0, 2) == 1
            assert gaussian_binomial(a, a, 3) == 1
        assert gaussian_binomial(2, 5, 2) == 0
        assert gaussian_binomial(0, 1, 4) == 0

    def test_known_values(self):
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(6, 2, 2) == 651
        assert gaussian_binomial(6, 3, 2) == 1395
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(2, 1, 16) == 17

    def test_duality(self):
        for a in range(9):
            for b in range(a + 1):
                for q in (2, 3, 4):
                    assert gaussian_binomial(a, b, q) == gaussian_binomial(
                        a, a - b, q
                    )

    @pytest.mark.parametrize(
        "a,b,q",
        [
            (3, 1, 2),
            (3, 2, 2),
            (4, 2, 2),
            (4, 1, 3),
            (3, 2, 3),
            (3, 1, 4),
            (2, 1, 5),
        ],
    )
    def test_against_brute_force(self, a, b, q):
        assert gaussian_binomial(a, b, q) == brute_subspace_count(a, b, q)

    def test_pascal_recurrence(self):
        # [a, b]_q = q^b [a-1, b]_q + [a-1, b-1]_q
        for a in range(1, 8):
            for b in range(1, a + 1):
                for q in (2, 3, 4):
                    assert gaussian_binomial(a, b, q) == q**b * gaussian_binomial(
                        a - 1, b, q
                    ) + gaussian_binomial(a - 1, b - 1, q)


class TestMoebius:
    def test_known_values(self):
        assert moebius(1) == 1
        assert moebius(2) == -1
        assert moebius(3) == -1
        assert moebius(4) == 0
        assert moebius(6) == 1
        assert moebius(12) == 0
        assert moebius(30) == -1

    def test_sum_over_divisors(self):
        # sum_{d | n} mu(d) vanishes except at n = 1
        for n in range(1, 1001):
            total = sum(moebius(d) for d in divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            moebius(0)
        with pytest.raises(ValueError):
            moebius(-4)


class TestDivisors:
    def test_examples(self):
        assert list(divisors(1)) == [1]
        assert list(divisors(12)) == [1, 2, 3, 4, 6, 12]
        assert list(divisors(49)) == [1, 7, 49]

    def test_sorted_and_complete(self):
        for n in (2, 6, 36, 97, 360):
            ds = list(divisors(n))
            assert ds == sorted(ds)
            assert ds == [d for d in range(1, n + 1) if n % d == 0]


class TestExactDiv:
    def test_exact(self):
        assert exact_div(15, 3) == 5
        assert exact_div(0, 7) == 0

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            exact_div(7, 2)


class TestPrimePower:
    def test_examples(self):
        assert prime_power(2) == (2, 1)
        assert prime_power(16) == (2, 4)
        assert prime_power(27) == (3, 3)
        assert prime_power(125) == (5, 3)

    def test_rejects_non_prime_power(self):
        for bad in (1, 6, 12, 100):
            with pytest.raises(ValueError):
                prime_power(bad)


def trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(-3, 10**5) if is_prime(n) != trial_division(n)] == []

    def test_strong_pseudoprimes_are_composite(self):
        # the first passes the bases 2, 3, 5 and 7, the second every prime
        # base up to 23
        assert 151 * 751 * 28351 == 3215031751
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_large_primes(self):
        assert is_prime(10**18 + 3)
        assert is_prime(2**89 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))
