"""Small exact integer helpers shared across the package.

Everything here is pure and deterministic; all arithmetic is on Python
ints, so there is no overflow to worry about.
"""

from functools import lru_cache

# Witnesses making Miller-Rabin deterministic below psi_12 =
# 3,317,044,064,679,887,385,961,981, the least strong pseudoprime to all
# twelve (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017); the first four suffice below
# 3,215,031,751, the least strong pseudoprime to all of them
# (C. Pomerance, J. L. Selfridge and S. S. Wagstaff, "The pseudoprimes
# to 25 * 10^9", Math. Comp. 35, 1980).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_FOUR_BOUND = 3_215_031_751

_CACHE_SIZE = 1024  # arguments kept by the divisor cache below

# Largest array the package enumerates: a tabulated or whole-field
# evaluated finite field (`fforacle`) or the exponent pairs of one Kummer
# order (`classify`).
TABLE_LIMIT = 1 << 22


def is_int(value) -> bool:
    """True for an int but not a bool: a float or bool would pass range
    checks and then compute."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_prime(n: int) -> bool:
    """Deterministic primality test: True for a prime below psi_12.
    False for every n at or above psi_12, before any work, since the
    bases cannot certify one there; each caller refuses it as it
    refuses a composite."""
    if n < 2 or n >= 3_317_044_064_679_887_385_961_981:
        return False
    for p in _MR_BASES:  # the witnesses are the first twelve primes
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES if n >= _MR_FOUR_BOUND else _MR_BASES[:4]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"positive integer expected, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=_CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"positive integer expected, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def is_power_of(n: int, p: int) -> bool:
    """True iff n is p**e for some e >= 0 (for p = 0: n = 1)."""
    if n < 1:
        return False
    while p and n % p == 0:
        n //= p
    return n == 1
