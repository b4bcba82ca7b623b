"""Arithmetic in GF(p^h) and its lattice of subfields.

Field elements are plain ints in [0, p**h): the base-p digits of the int are
the coefficients, ascending degree, of the polynomial representative modulo
the field's irreducible modulus.  A FieldTower owns the tables for one field
and exposes arithmetic as methods; the int encoding keeps elements hashable
and cheap to move through orbit enumerations.

Construction is deterministic.  The modulus is the first monic irreducible of
degree h in ascending integer-encoding order (for h = 1 this lands on the
polynomial x), and the designated generator mu is the first element, in the
same order, of full multiplicative order p^h - 1.  For every n | h the
subfield GF(p^n) sits inside the field as the fixed points of x -> x^(p^n),
generated by mu**((p^h-1)/(p^n-1)); conversion to the standalone canonical
GF(p^n) goes through the smallest root of that generator's minimal
polynomial, which makes the conversion a field isomorphism rather than a
mere relabeling.

The exp and log tables come from one walk of x -> x * mu, which is
GF(p)-linear and so steps by table lookups on the digits; the walk must
meet every nonzero element before it returns to 1.  The Zech table
zech[k] = log(1 + mu^k) is built from them on first use and compared with
the field's own addition as it is built, once per field object, as the
walk and the subfield maps are checked when they are built.  Every log set
is expanded with it: those of the subgroups of this field, and, when this
field is GF(q^s), those of the subspaces in the Singer census of PG(s-1,q).
"""

from __future__ import annotations

import itertools
import operator

from . import combinat, linalg
from .errors import CapExceeded, VerificationError

FIELD_ORDER_CAP = 1 << 20

_CACHE: dict[tuple[int, int], "FieldTower"] = {}


def make_field(p: int, h: int) -> "FieldTower":
    """Canonical (cached) tower for GF(p^h)."""
    key = (p, h)
    if key not in _CACHE:
        _CACHE[key] = FieldTower(p, h)
    return _CACHE[key]


def field_order(p: int, h: int) -> int:
    """p^h, checked as a FieldTower checks it before building any table."""
    if not combinat.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if h < 1:
        raise ValueError(f"bad extension degree {h}")
    if p**h > FIELD_ORDER_CAP:
        raise CapExceeded(f"field order {p**h} exceeds cap {FIELD_ORDER_CAP}")
    return p**h


def add_digits(a: int, b: int, p: int) -> int:
    """Digit-wise sum mod p of two non-negative ints in base p.

    This is the sum of the GF(p)-vectors whose coordinates are the digits:
    of two field elements, or of two vectors over GF(p^n) packed as
    sum v_i * p^(n*i), whose digits are their entries' coefficients.
    """
    out = 0
    mult = 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + db) % p * mult
        mult *= p
    return out


class FieldTower:
    """One field GF(p^h) with tables, plus canonical subfield structure."""

    def __init__(self, p: int, h: int):
        self.order = order = field_order(p, h)
        self.p, self.h = p, h
        self._digit_cache = [self._digits_of(a) for a in range(order)] if order <= 1 << 16 else None
        self._digit_index = None if self._digit_cache is None else \
            {digits: a for a, digits in enumerate(self._digit_cache)}
        self.modulus = self._smallest_irreducible()
        self.mu = self._smallest_primitive()
        if p == 2:
            # digit-wise addition mod 2 is xor: no Python frame per call, in
            # linalg's map(field.add, ...) as in the table walk below
            self.add = self.sub = operator.xor
        self._build_tables()
        # mu has full order, so this power has order p^n - 1 and generates GF(p^n)
        self.subfield_generators = {n: self.exp[(order - 1) // (p**n - 1)]
                                    for n in combinat.divisors(h)}
        self._subfield_sets: dict[int, frozenset] = {}
        self._subfield_maps: dict[int, tuple[dict, dict]] = {}
        self._coords_ctx: dict[int, tuple] = {}
        self._coords_cache: dict[tuple[int, int], tuple] = {}
        # set here, not on first use: an attribute added to an instance after
        # __init__ slows every attribute lookup on it
        self._zech = None

    def __repr__(self):
        return f"GF({self.p}^{self.h})"

    # -- encoding ---------------------------------------------------------

    def _digits_of(self, a: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.h):
            a, d = divmod(a, p)
            out.append(d)
        return tuple(out)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of a, ascending degree, length h."""
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of {self!r}")
        if self._digit_cache is not None:
            return self._digit_cache[a]
        return self._digits_of(a)

    def from_coeffs(self, cs) -> int:
        if self._digit_index is not None:
            a = self._digit_index.get(tuple(cs))
            if a is not None:
                return a
        if len(cs) != self.h or any(not 0 <= c < self.p for c in cs):
            raise ValueError(f"bad coefficient vector {cs!r} for {self!r}")
        a = 0
        for c in reversed(cs):
            a = a * self.p + c
        return a

    def elements(self):
        return range(self.order)

    # -- construction -----------------------------------------------------

    def _poly_divmod(self, num, den):
        # dense coefficient lists over GF(p), ascending degree
        p = self.p
        num = list(num)
        dd = len(den) - 1
        lead_inv = pow(den[-1], -1, p)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i] * lead_inv % p
            if c:
                for j, dc in enumerate(den):
                    num[i - dd + j] = (num[i - dd + j] - c * dc) % p
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        return num

    def _is_irreducible(self, poly) -> bool:
        p = self.p
        deg = len(poly) - 1
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                den = list(tail) + [1]
                rem = self._poly_divmod(poly, den)
                if rem == [0]:
                    return False
        return True

    def _smallest_irreducible(self) -> tuple[int, ...]:
        p, h = self.p, self.h
        for enc in range(p**h):
            poly = list(self._digits_of(enc)) + [1]
            if self._is_irreducible(poly):
                return tuple(poly)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _raw_mul(self, a: int, b: int) -> int:
        p, h = self.p, self.h
        da = self.coeffs(a)
        db = self.coeffs(b)
        prod = [0] * (2 * h - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    if cb:
                        prod[i + j] = (prod[i + j] + ca * cb) % p
        mod = self.modulus
        for i in range(2 * h - 2, h - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(h):
                    if mod[j]:
                        prod[i - h + j] = (prod[i - h + j] - c * mod[j]) % p
        return self.from_coeffs(prod[:h])

    def _raw_pow(self, a: int, k: int) -> int:
        result = 1
        base = a
        while k:
            if k & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            k >>= 1
        return result

    def _smallest_primitive(self) -> int:
        target = self.order - 1
        fac = combinat.prime_factors(target)
        for a in range(1, self.order):
            if all(self._raw_pow(a, target // f) != 1 for f in fac):
                return a
        raise AssertionError("no primitive element found")  # unreachable

    def _build_tables(self):
        p, h = self.p, self.h
        n = self.order - 1
        # x -> x * mu is GF(p)-linear, so it is the digit combination of the
        # images of the monomials x^i * mu; tabulating the combinations of the
        # low and of the high digits leaves one addition per step
        half = (h + 1) // 2
        images = [self._raw_mul(p**i, self.mu) for i in range(h)]
        add = self.add

        def combinations(imgs):
            out = [0]
            for img in imgs:
                multiples = [self._raw_mul(c, img) for c in range(p)]
                out = [add(x, y) for y in multiples for x in out]
            return out

        low_table, high_table = combinations(images[:half]), combinations(images[half:])
        split = p**half
        exp = [0] * 2 * n
        log = [-1] * self.order
        cur = 1
        for k in range(n):
            exp[k] = cur
            exp[k + n] = cur
            log[cur] = k
            high, low = divmod(cur, split)
            cur = add(low_table[low], high_table[high])
        if cur != 1 or -1 in log[1:]:  # mu^n = 1 and mu^k, k < n, hit every nonzero element
            raise VerificationError("designated generator does not have full order",
                                    {"field": (self.p, self.h), "mu": self.mu})
        self.exp = exp
        self.log = log

    @property
    def zech(self) -> list:
        """zech[k] = log(1 + mu^k), the Zech logarithm, for 0 <= k < p^h - 1.

        Adding 1 changes only the constant coefficient.  Where 1 + mu^k = 0
        the entry is 0, as if the sum were 1: a basis element inside the span
        of the ones before it then repeats a point of the span's log set and
        fails its point count.  Built on first use, each entry checked
        against add as it is built (a log set need not read them all):
        VerificationError unless exp[zech[k]] = 1 + mu^k, or zech[k] = 0
        where that sum is 0.
        """
        if self._zech is None:
            p, exp, log = self.p, self.exp, self.log
            zech = []
            for k, x in enumerate(itertools.islice(exp, self.order - 1)):
                s = x + 1 if x % p != p - 1 else x + 1 - p
                z = log[s] if s else 0
                total = self.add(1, x)
                if (exp[z] != total) if total else z:
                    raise VerificationError("Zech table differs from the field's addition",
                                            {"field": (p, self.h), "k": k, "zech": z,
                                             "one_plus_mu_k": total})
                zech.append(z)
            self._zech = zech
        return self._zech

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        # characteristic 2 binds add to operator.xor in __init__
        if self.h == 1:
            return (a + b) % self.p
        return add_digits(a, b, self.p)

    def neg(self, a: int) -> int:
        # -1 is the element p - 1 of GF(p), and 1 in characteristic 2
        return a if self.p == 2 else self.mul(self.p - 1, a)

    def sub(self, a: int, b: int) -> int:
        # characteristic 2 binds sub to operator.xor in __init__
        if self.h == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self.exp[self.order - 1 - self.log[a]]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError(f"0**{k} in {self!r}")
        return self.exp[(self.log[a] * k) % (self.order - 1)]

    # -- subfields ----------------------------------------------------------

    def _check_subfield_degree(self, n: int):
        if n < 1 or self.h % n != 0:
            raise ValueError(f"GF({self.p}^{n}) is not a subfield of {self!r}")

    def _subfield_set(self, n: int) -> frozenset:
        if n not in self._subfield_sets:
            e = (self.order - 1) // (self.p**n - 1)
            members = {self.exp[(e * k) % (self.order - 1)] for k in range(self.p**n - 1)}
            self._subfield_sets[n] = frozenset({0} | members)
        return self._subfield_sets[n]

    def subfield_generator(self, n: int) -> int:
        self._check_subfield_degree(n)
        return self.subfield_generators[n]

    def minimal_polynomial(self, a: int, n: int) -> tuple[int, ...]:
        """Minimal polynomial of a over the subfield GF(p^n).

        Coefficients come back ascending and monic, as elements of this field
        (they land in the subfield; use to_subfield to move them to the
        canonical GF(p^n)).
        """
        self._check_subfield_degree(n)
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of {self!r}")
        conj = [a]
        qn = self.p**n
        c = self.pow(a, qn)
        while c != a:
            conj.append(c)
            c = self.pow(c, qn)
        poly = [1]
        for c in conj:
            nc = self.neg(c)
            nxt = [0] * (len(poly) + 1)
            for i, co in enumerate(poly):
                nxt[i + 1] = self.add(nxt[i + 1], co)
                nxt[i] = self.add(nxt[i], self.mul(co, nc))
            poly = nxt
        sub = self._subfield_set(n)
        where = {"field": (self.p, self.h), "n": n, "element": a, "polynomial": tuple(poly)}
        if any(co not in sub for co in poly):
            raise VerificationError("minimal polynomial escaped the subfield", where)
        if (self.h // n) % len(conj):
            raise VerificationError("minimal polynomial degree does not divide h/n", where)
        return tuple(poly)

    # -- canonical subfield isomorphism -------------------------------------

    def _subfield_map(self, n: int):
        if n in self._subfield_maps:
            return self._subfield_maps[n]
        if n == self.h:
            ident = {a: a for a in range(self.order)}
            self._subfield_maps[n] = (ident, dict(ident))
            return self._subfield_maps[n]
        small = make_field(self.p, n)
        gamma = self.subfield_generators[n]
        # coefficients lie in GF(p) (checked there), valid in the small field as-is
        coeffs = self.minimal_polynomial(gamma, 1)
        roots = [b for b in range(small.order) if self._eval_small(coeffs, b, small) == 0]
        where = {"field": (self.p, self.h), "n": n, "polynomial": coeffs}
        if not roots:
            raise VerificationError("minimal polynomial has no root in the canonical subfield",
                                    where)
        rho = min(roots)
        # gamma^k -> rho^k is multiplicative by construction
        down, up = {0: 0}, {0: 0}
        big_el = small_el = 1
        for _ in range(small.order - 1):
            down[big_el] = small_el
            up[small_el] = big_el
            big_el = self.mul(big_el, gamma)
            small_el = small.mul(small_el, rho)
        if len(down) != small.order or len(up) != small.order:
            raise VerificationError("subfield map is not a bijection", {**where, "root": rho})
        # additive on all pairs once adding each element of the GF(p)-basis
        # gamma^0..gamma^(n-1) to every x commutes with the map
        for b in (self.pow(gamma, j) for j in range(n)):
            for x in down:
                if down.get(self.add(x, b)) != small.add(down[x], down[b]):
                    raise VerificationError("subfield map is not additive",
                                            {**where, "root": rho, "x": x, "y": b})
        self._subfield_maps[n] = (down, up)
        return down, up

    @staticmethod
    def _eval_small(coeffs, b, small):
        acc = 0
        power = 1
        for c in coeffs:
            if c:
                acc = small.add(acc, small.mul(c, power))
            power = small.mul(power, b)
        return acc

    def to_subfield(self, a: int, n: int) -> int:
        """Move a subfield element to its canonical GF(p^n) encoding."""
        self._check_subfield_degree(n)
        down, _ = self._subfield_map(n)
        try:
            return down[a]
        except KeyError:
            raise ValueError(f"{a} does not lie in the GF({self.p}^{n}) subfield") from None

    def from_subfield(self, b: int, n: int) -> int:
        self._check_subfield_degree(n)
        _, up = self._subfield_map(n)
        try:
            return up[b]
        except KeyError:
            raise ValueError(f"{b} is not an element of GF({self.p}^{n})") from None

    # -- coordinates over a subfield -----------------------------------------

    def _coords_context(self, n: int):
        if n not in self._coords_ctx:
            p, h = self.p, self.h
            dprime = h // n
            small = make_field(p, n)
            gamma = self.subfield_generators[n]
            rho = self.to_subfield(gamma, n)
            cols = []
            for i in range(dprime):
                mi = self.pow(self.mu, i)
                for j in range(n):
                    cols.append(self.coeffs(self.mul(mi, self.pow(gamma, j))))
            mat = tuple(tuple(cols[c][r] for c in range(h)) for r in range(h))
            prime = make_field(p, 1)
            minv = linalg.mat_inverse(mat, prime)
            rho_pows = [1]
            for _ in range(n - 1):
                rho_pows.append(small.mul(rho_pows[-1], rho))
            self._coords_ctx[n] = (minv, small, tuple(rho_pows))
        return self._coords_ctx[n]

    def coords(self, a: int, n: int) -> tuple[int, ...]:
        """Coordinates of a in the power basis 1, mu, ..., mu^(h/n - 1) over GF(p^n).

        Entries are canonical GF(p^n) encodings, so they can feed straight
        into subspace machinery over the small field.  Every n takes the
        same path; for n = h the basis is 1 alone and gamma = rho = mu, so
        the one entry is a itself.
        """
        self._check_subfield_degree(n)
        key = (a, n)
        cached = self._coords_cache.get(key)
        if cached is not None:
            return cached
        minv, small, rho_pows = self._coords_context(n)
        digits = self.coeffs(a)
        p = self.p
        x = [sum(mr * d for mr, d in zip(row, digits)) % p for row in minv]
        out = []
        for i in range(self.h // n):
            acc = 0
            for j in range(n):
                c = x[i * n + j]
                if c:
                    acc = small.add(acc, small.mul(c, rho_pows[j]))
            out.append(acc)
        out = tuple(out)
        self._coords_cache[key] = out
        return out

    def from_coords(self, cs, n: int) -> int:
        """Inverse of coords: assemble sum(c_i * mu^i) from GF(p^n) encodings."""
        self._check_subfield_degree(n)
        dprime = self.h // n
        if len(cs) != dprime:
            raise ValueError(f"expected {dprime} coordinates, got {len(cs)}")
        _, up = self._subfield_map(n)
        acc = 0
        for i, c in enumerate(cs):
            if c:  # i < h/n <= p^h - 1, so exp[i] is mu^i
                if c not in up:
                    raise ValueError(f"{c} is not an element of GF({self.p}^{n})")
                acc = self.add(acc, self.mul(up[c], self.exp[i]))
        return acc
