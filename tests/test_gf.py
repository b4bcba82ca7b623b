"""Tests for towered finite field arithmetic.

The defining polynomial choices are pinned against an independent
irreducibility scan over GF(2), and the subfield machinery is checked
against the Frobenius fixed-point characterisation of subfields.
"""

import itertools
import random

import pytest

from galela import FieldTower, make_field


def gf2_poly_mod(num, den):
    """Remainder of num by den, both GF(2)[x] polynomials as bit masks."""
    dd = den.bit_length() - 1
    while num.bit_length() - 1 >= dd:
        num ^= den << (num.bit_length() - 1 - dd)
    return num


def gf2_irreducible(mask):
    """Irreducibility over GF(2) by trial division, mask encoding."""
    deg = mask.bit_length() - 1
    for d in range(1, deg // 2 + 1):
        for trial in range(1 << d, 1 << (d + 1)):
            if gf2_poly_mod(mask, trial) == 0:
                return False
    return True


def first_irreducible_gf2(deg):
    """Smallest monic irreducible of given degree in encoding order."""
    for mask in range(1 << deg, 1 << (deg + 1)):
        if gf2_irreducible(mask):
            return mask
    raise AssertionError("no irreducible found")


def coeffs_to_mask(cs):
    return sum(c << i for i, c in enumerate(cs))


class TestModulusChoice:
    def test_prime_field_modulus(self):
        assert make_field(2, 1).modulus == (0, 1)
        assert make_field(5, 1).modulus == (0, 1)

    def test_gf4_modulus(self):
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_gf16_modulus(self):
        assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)

    @pytest.mark.parametrize("h", [2, 3, 4, 5, 6, 8])
    def test_modulus_is_first_irreducible(self, h):
        tower = make_field(2, h)
        assert coeffs_to_mask(tower.modulus) == first_irreducible_gf2(h)

    def test_modulus_has_no_root_gf3(self):
        tower = make_field(3, 3)
        cs = tower.modulus
        assert len(cs) == 4 and cs[-1] == 1
        for x in range(3):
            value = sum(c * x**i for i, c in enumerate(cs)) % 3
            assert value != 0


class TestArithmetic:
    def test_gf4_multiplication(self):
        t = make_field(2, 2)
        # mu * mu = mu + 1 under x^2 + x + 1
        assert t.mul(t.mu, t.mu) == t.add(t.mu, 1)

    def test_gf16_sample_products(self):
        t = make_field(2, 4)
        # mu^4 = mu + 1 under x^4 + x + 1
        assert t.pow(t.mu, 4) == t.add(t.mu, 1)
        assert t.mul(0, 7) == 0
        assert t.mul(1, 7) == 7

    @pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (3, 1), (2, 4), (5, 1)])
    def test_field_axioms_exhaustive(self, p, h):
        t = make_field(p, h)
        elems = range(t.order)
        for a in elems:
            assert t.add(a, 0) == a
            assert t.mul(a, 1) == a
            assert t.add(a, t.neg(a)) == 0
            if a:
                assert t.mul(a, t.inv(a)) == 1
        for a, b, c in itertools.product(elems, repeat=3):
            assert t.add(a, b) == t.add(b, a)
            assert t.mul(a, b) == t.mul(b, a)
            assert t.add(t.add(a, b), c) == t.add(a, t.add(b, c))
            assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
            assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))

    @pytest.mark.parametrize("p,h", [(2, 6), (3, 4), (5, 3), (2, 8)])
    def test_field_axioms_sampled(self, p, h):
        t = make_field(p, h)
        rng = random.Random(7)
        for _ in range(800):
            a, b, c = (rng.randrange(t.order) for _ in range(3))
            assert t.add(t.add(a, b), c) == t.add(a, t.add(b, c))
            assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
            assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
            if a:
                assert t.mul(a, t.inv(a)) == 1

    def test_subtraction(self):
        t = make_field(3, 2)
        for a in range(t.order):
            for b in range(t.order):
                assert t.add(t.sub(a, b), b) == a

    def test_pow_negative_exponent(self):
        t = make_field(2, 4)
        for a in range(1, t.order):
            assert t.mul(t.pow(a, -1), a) == 1
            assert t.pow(a, -2) == t.inv(t.mul(a, a))

    def test_fermat(self):
        for p, h in [(2, 4), (3, 2), (5, 2)]:
            t = make_field(p, h)
            for a in range(1, t.order):
                assert t.pow(a, t.order - 1) == 1

    def test_inv_zero_raises(self):
        t = make_field(2, 2)
        with pytest.raises(ZeroDivisionError):
            t.inv(0)

    def test_coeff_round_trip(self):
        t = make_field(3, 3)
        for a in range(t.order):
            cs = t.coeffs(a)
            assert len(cs) == 3
            assert all(0 <= c < 3 for c in cs)
            assert t.from_coeffs(cs) == a


class TestGenerator:
    def test_mu_is_two_for_gf16(self):
        assert make_field(2, 4).mu == 2

    def test_mu_has_full_order(self):
        for p, h in [(2, 1), (2, 2), (2, 4), (3, 2), (2, 6), (3, 3), (5, 2)]:
            t = make_field(p, h)
            assert t.element_order(t.mu) == t.order - 1

    def test_mu_is_smallest_generator(self):
        for p, h in [(2, 4), (3, 2), (5, 2)]:
            t = make_field(p, h)
            for a in range(1, t.mu):
                assert t.element_order(a) < t.order - 1

    def test_exp_log_tables(self):
        t = make_field(2, 4)
        for k in range(t.order - 1):
            assert t.log[t.exp[k]] == k
            assert t.exp[k] == t.pow(t.mu, k)

    def test_element_orders(self):
        t = make_field(2, 4)
        assert t.element_order(1) == 1
        assert t.element_order(t.mu) == 15
        assert t.element_order(t.pow(t.mu, 5)) == 3
        assert t.element_order(t.pow(t.mu, 3)) == 5
        with pytest.raises(ValueError):
            t.element_order(0)


class TestSubfields:
    def test_subfield_elements_gf16(self):
        t = make_field(2, 4)
        assert set(t.subfield_elements(1)) == {0, 1}
        mu5 = t.pow(t.mu, 5)
        mu10 = t.pow(t.mu, 10)
        assert set(t.subfield_elements(2)) == {0, 1, mu5, mu10}
        assert set(t.subfield_elements(4)) == set(range(16))

    @pytest.mark.parametrize("p,h", [(2, 4), (2, 6), (3, 2)])
    def test_subfield_is_frobenius_fixed_set(self, p, h):
        # GF(p^n) inside GF(p^h) is exactly the fixed set of x -> x^(p^n)
        t = make_field(p, h)
        for n in [d for d in range(1, h + 1) if h % d == 0]:
            fixed = {a for a in range(t.order) if t.pow(a, p**n) == a}
            assert set(t.subfield_elements(n)) == fixed

    def test_subfield_element_count(self):
        t = make_field(2, 6)
        for n in (1, 2, 3, 6):
            assert len(t.subfield_elements(n)) == 2**n

    def test_subfield_elements_closed(self):
        t = make_field(2, 6)
        sub = set(t.subfield_elements(2))
        for a in sub:
            for b in sub:
                assert t.add(a, b) in sub
                assert t.mul(a, b) in sub

    def test_rejects_non_divisor(self):
        t = make_field(2, 4)
        with pytest.raises(ValueError):
            t.subfield_elements(3)

    def test_subfield_generator_order(self):
        t = make_field(2, 6)
        for n in (1, 2, 3, 6):
            g = t.subfield_generator(n)
            assert t.pow(t.mu, (t.order - 1) // (2**n - 1)) == g
            if n > 1:
                assert t.element_order(g) == 2**n - 1

    def test_to_subfield_isomorphism(self):
        # the canonical identification matches multiplication and addition
        t = make_field(2, 4)
        small = make_field(2, 2)
        sub = t.subfield_elements(2)
        for a in sub:
            for b in sub:
                assert t.to_subfield(t.mul(a, b), 2) == small.mul(
                    t.to_subfield(a, 2), t.to_subfield(b, 2)
                )
                assert t.to_subfield(t.add(a, b), 2) == small.add(
                    t.to_subfield(a, 2), t.to_subfield(b, 2)
                )

    def test_subfield_round_trip(self):
        t = make_field(2, 6)
        for n in (1, 2, 3):
            for b in range(2**n):
                assert t.to_subfield(t.from_subfield(b, n), n) == b

    def test_to_subfield_rejects_outsider(self):
        t = make_field(2, 4)
        with pytest.raises(ValueError):
            t.to_subfield(t.mu, 2)


class TestMinimalPolynomial:
    def test_subfield_member_is_linear(self):
        t = make_field(2, 4)
        mu5 = t.pow(t.mu, 5)
        mp = t.minimal_polynomial(mu5, 2)
        assert len(mp) == 2 and mp[-1] == 1

    def test_gf4_generator_over_prime_field(self):
        t = make_field(2, 4)
        mu5 = t.pow(t.mu, 5)
        # mu^5 generates GF(4), minimal polynomial x^2 + x + 1 over GF(2)
        assert t.minimal_polynomial(mu5, 1) == (1, 1, 1)

    def test_degree_divides_extension(self):
        t = make_field(2, 6)
        for a in range(t.order):
            for n in (1, 2, 3):
                deg = len(t.minimal_polynomial(a, n)) - 1
                assert (6 // n) % deg == 0

    def test_annihilates_element(self):
        t = make_field(2, 4)
        for a in range(t.order):
            for n in (1, 2):
                mp = t.minimal_polynomial(a, n)
                acc = 0
                for i, c in enumerate(mp):
                    acc = t.add(acc, t.mul(c, t.pow(a, i)))
                assert acc == 0

    def test_coefficients_live_in_subfield(self):
        t = make_field(2, 6)
        sub = set(t.subfield_elements(2))
        for a in (t.mu, t.pow(t.mu, 3), t.pow(t.mu, 7)):
            for c in t.minimal_polynomial(a, 2):
                assert c in sub


class TestCoords:
    def test_zero_and_basis(self):
        t = make_field(2, 4)
        assert t.coords(0, 2) == (0, 0)
        assert t.coords(1, 2) == (1, 0)
        assert t.coords(t.mu, 2) == (0, 1)

    def test_round_trip_gf16(self):
        t = make_field(2, 4)
        for n in (1, 2, 4):
            d = 4 // n
            for a in range(t.order):
                cs = t.coords(a, n)
                assert len(cs) == d
                assert t.from_coords(cs, n) == a

    def test_linearity_over_subfield(self):
        t = make_field(2, 4)
        small = make_field(2, 2)
        sub = t.subfield_elements(2)
        for a in range(t.order):
            for b in range(t.order):
                ca, cb = t.coords(a, 2), t.coords(b, 2)
                assert t.coords(t.add(a, b), 2) == tuple(
                    small.add(x, y) for x, y in zip(ca, cb)
                )
            for c in sub:
                sc = t.to_subfield(c, 2)
                assert t.coords(t.mul(c, a), 2) == tuple(
                    small.mul(sc, x) for x in t.coords(a, 2)
                )

    def test_coords_distinct(self):
        t = make_field(2, 6)
        for n in (1, 2, 3):
            seen = {t.coords(a, n) for a in range(t.order)}
            assert len(seen) == t.order


class TestConstruction:
    def test_deterministic(self):
        a = FieldTower(2, 4)
        b = FieldTower(2, 4)
        assert a.modulus == b.modulus
        assert a.mu == b.mu
        assert a.exp == b.exp

    def test_make_field_caches(self):
        assert make_field(3, 2) is make_field(3, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_field(4, 2)
        with pytest.raises(ValueError):
            make_field(2, 0)
        with pytest.raises(ValueError):
            make_field(-3, 1)

