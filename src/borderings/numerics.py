"""Extended naturals, base-b valuations, digit expansions, small arithmetic functions and primes.

Everything here is exact integer arithmetic on Python's unbounded ints; no
floating point is used anywhere.  Valuations take values in N ∪ {+inf}: a
plain int, None for +inf, from `ord_b` to every output, summed by `ext_sum`
and ordered by `ext_le`; :class:`ExtNat` only wraps `exponent_sequence`'s values.
Primality is decided here alone: below SIEVE_MAX off one grow-only sieve
(`prime_sieve`), past it by trial division, for `is_prime`, `iter_primes`,
`least_prime_in` and `primes_up_to` alike.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, count
from typing import Iterator


class ExtNat:
    """A nonnegative integer or +infinity, as `exponent_sequence` hands one out."""

    __slots__ = ("_v",)

    def __init__(self, value: int | None):
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"ExtNat value must be an int or None, got {value!r}")
            if value < 0:
                raise ValueError(f"ExtNat value must be nonnegative, got {value}")
        self._v = value

    @property
    def is_finite(self) -> bool:
        return self._v is not None

    @property
    def value(self) -> int:
        """The finite value; raises on infinity."""
        if self._v is None:
            raise ValueError("infinite ExtNat has no integer value")
        return self._v

    # A plain int is compared as it is: a negative one equals no ExtNat.
    def __eq__(self, other) -> bool:
        if isinstance(other, ExtNat):
            return self._v == other._v
        if isinstance(other, int) and not isinstance(other, bool):
            return self._v == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._v)

    def __repr__(self) -> str:
        return "ExtNat(inf)" if self._v is None else f"ExtNat({self._v})"

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)


def ext_sum(*terms: int | None) -> int | None:
    """The sum of extended naturals, None (inf) as soon as one term is None."""
    return None if None in terms else sum(terms)


def ext_le(x: int | None, y: int | None) -> bool:
    """x <= y for extended naturals, with None (inf) above every int."""
    return y is None or (x is not None and x <= y)


def ord_b(b: int, a: int) -> int | None:
    """Largest k with a*Z contained in b^k*Z, as a plain int (None for inf).

    For b >= 2 this is the usual base-b valuation sup{k : b^k | a}, with
    ord_b(0) = inf.  The degenerate bases follow the ideal-theoretic
    reading: ord_0(a) is inf for a = 0 and 0 otherwise, and ord_1(a) is
    inf for every a.
    """
    if b < 0:
        raise ValueError(f"base must be >= 0, got {b}")
    if b == 0:
        return None if a == 0 else 0
    if b == 1 or a == 0:
        return None
    k = 0
    while a % b == 0:
        a //= b
        k += 1
    return k


def digits(a: int, b: int, count: int) -> tuple[int, ...]:
    """First `count` base-b digits of a, via d_k = floor(a/b^k) - b*floor(a/b^(k+1)).

    Python's floor division makes the formula correct for negative a as
    well (e.g. every digit of -1 in base 2 is 1).
    """
    if b < 2:
        raise ValueError(f"digit base must be >= 2, got {b}")
    if count < 1:
        raise ValueError(f"digit count must be positive, got {count}")
    out = []
    q = a
    for _ in range(count):
        q_next = q // b
        out.append(q - b * q_next)
        q = q_next
    return tuple(out)


def digit_sum(n: int, b: int) -> int:
    """Sum of the base-b digits of n >= 0."""
    if n < 0:
        raise ValueError(f"digit_sum needs n >= 0, got {n}")
    if b < 2:
        raise ValueError(f"digit base must be >= 2, got {b}")
    s = 0
    while n:
        s += n % b
        n //= b
    return s


def cumulative_digit_sum(n: int, b: int) -> int:
    """Sum of digit_sum(j, b) over 1 <= j <= n-1 (zero for n = 1)."""
    if n < 1:
        raise ValueError(f"cumulative_digit_sum needs n >= 1, got {n}")
    return sum(digit_sum(j, b) for j in range(1, n))


def floor_sum(k: int, m: int) -> int:
    """Sum of floor(i/m) for 0 <= i < k, in closed form.

    Grouping the i by blocks of m gives k*q - m*C(q+1, 2) with
    q = floor(k/m); the direct-summation oracle in the tests pins this
    down (the variant with C(q, 2) undercounts).
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"upper limit must be >= 0, got {k}")
    q = k // m
    return k * q - m * (q + 1) * q // 2


# Largest trial divisor of `prime_factors`: it factors every n < 2^40, which holds every
# base a base spec names (<= 10^4) and every base `alpha_P` factors (<= 2 * 10^10 for k <=
# 10^5).  Reaching it takes about 0.04 s on a 2-vCPU Xeon.
TRIAL_DIVISION_MAX = 1 << 20


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division up to TRIAL_DIVISION_MAX."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if f > TRIAL_DIVISION_MAX:
            raise ValueError(f"cannot factor {n}: no divisor up to {TRIAL_DIVISION_MAX}, where trial division stops")
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# One entry per base: held above factored.BASE_SPEC_MAX (10**4), the most bases
# a query can name, so a repeated query over its full base list hits every
# time instead of evicting each base before its next use.
@lru_cache(maxsize=1 << 14)
def omega_totient(b: int) -> tuple[int, int]:
    """omega(b), its number of distinct prime divisors, and Euler's totient of b >= 1, from one factorisation."""
    factors = prime_factors(b)
    return len(factors), math.prod((p - 1) * p ** (e - 1) for p, e in factors.items())


def prime_flags(n: int) -> bytearray:
    """Flags of 0..n-1, for n >= 3: flags[i] is 1 exactly when i is prime, by sieve of Eratosthenes.

    The odd numbers start flagged, so each odd prime p strikes only its odd
    multiples from p^2, stepping by 2p.
    """
    flags = bytearray(b"\0\1") * ((n + 1) // 2)
    del flags[n:]
    flags[1:3] = b"\0\1"
    for p in range(3, math.isqrt(n - 1) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, n, 2 * p)))
    return flags


# Most flags the shared prime sieve holds: 4 MiB, built in about 10 ms on a
# 2-vCPU Xeon.  Primality at or past it is decided by trial division.
SIEVE_MAX = 1 << 22
_sieve = prime_flags(1 << 10)  # the one grow-only sieve: _sieve[n] is 1 exactly when n is prime


def prime_sieve(n: int) -> bytearray | None:
    """The shared flags, doubled until they hold n >= 0; None when n is at or past SIEVE_MAX."""
    global _sieve
    size = len(_sieve)
    if n >= size:
        if n >= SIEVE_MAX:
            return None
        while size <= n:
            size *= 2
        _sieve = prime_flags(min(size, SIEVE_MAX))
    return _sieve


def is_prime(n: int) -> bool:
    """Primality (n < 2 is not prime): read off the shared sieve, by trial division past it."""
    if n < 2:
        return False
    flags = prime_sieve(n)
    if flags is not None:
        return flags[n] == 1
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    r = math.isqrt(n)
    while f <= r:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def iter_primes() -> Iterator[int]:
    """Every prime in increasing order, off the shared sieve as it grows and by trial division past it."""
    n = 2
    while (flags := prime_sieve(n)) is not None:
        n = flags.find(1, n)
        if n < 0:  # none left below the flags' end: grow them from there
            n = len(flags)
            continue
        yield n
        n += 1
    yield from filter(is_prime, count(n))


def least_prime_in(r: int, m: int) -> int | None:
    """The least prime p = r (mod m), for m >= 2 and 0 <= r < m; None when the class holds none."""
    g = math.gcd(r, m)
    if g > 1:  # the class's members are multiples of g: g is its one prime, or it has none
        return g if g % m == r and is_prime(g) else None
    x = r  # Dirichlet: the class holds a prime, so the search ends; r = 1 is flagged no prime
    while (flags := prime_sieve(x)) is not None:
        size = len(flags)
        while x < size:
            if flags[x]:
                return x
            x += m
    while not is_prime(x):
        x += m
    return x


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, read off the shared sieve, or off flags of their own at or past SIEVE_MAX."""
    return list(compress(range(n + 1), prime_sieve(n) or prime_flags(n + 1))) if n >= 2 else []
