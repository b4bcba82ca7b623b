"""Exact counting helpers: point counts, Gaussian binomials, Moebius function.

Everything runs in arbitrary-precision integers.  A division that should be
exact but is not raises immediately instead of rounding; the closed-form
orbit counts depend on that discipline.
"""

from __future__ import annotations


def exact_div(num: int, den: int) -> int:
    """Integer quotient num/den, raising ArithmeticError on a remainder."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division: {num} / {den}")
    return q


# Miller-Rabin with these bases is exact below 3317044064679887385961981
# (about 3.3e24), the least composite that passes all of them
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Trial division by PRIME_BASES, which settles n < 43^2, then a
    deterministic Miller-Rabin test with those bases: no loop runs up to
    sqrt(n), so a huge prime is told at once."""
    for f in PRIME_BASES:
        if n % f == 0:
            return n == f
    if n < 43 * 43:
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    return sorted(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError(f"moebius undefined for {n}")
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**n with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    [(p, n)] = fac.items()
    return p, n


def theta(t: int, q: int) -> int:
    """Number of points of PG(t-1, q), i.e. (q^t - 1)/(q - 1); theta(0) = 0."""
    if t < 0:
        raise ValueError(f"negative dimension {t}")
    if q < 2:
        raise ValueError(f"bad field order {q}")
    return exact_div(q**t - 1, q - 1)


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of GF(q)^a; zero when b > a."""
    if a < 0 or b < 0:
        raise ValueError(f"negative arguments ({a}, {b})")
    if q < 2:
        raise ValueError(f"bad field order {q}")
    if b > a:
        return 0
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return exact_div(num, den)
