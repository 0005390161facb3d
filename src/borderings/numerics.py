"""Extended naturals, base-b valuations, digit expansions and small arithmetic functions.

Everything here is exact integer arithmetic on Python's unbounded ints; no
floating point is used anywhere.  Valuations take values in N ∪ {+inf}: a
plain int, with None for +inf, from `ord_b` through every greedy step, and
:class:`ExtNat` where `exponent_sequence` and others hand one out.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering


@total_ordering
class ExtNat:
    """A nonnegative integer or +infinity, with saturating addition.

    Comparison is the total order with infinity maximal.
    """

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

    def __add__(self, other) -> "ExtNat":
        if isinstance(other, ExtNat):
            other = other._v
        elif not isinstance(other, int) or isinstance(other, bool):
            return NotImplemented
        if self._v is None or other is None:
            return INF
        return ExtNat(self._v + other)

    __radd__ = __add__

    # A plain int is compared as it is: a negative one equals no ExtNat and
    # lies below every one, and no ExtNat is built for it.
    def __eq__(self, other) -> bool:
        if isinstance(other, ExtNat):
            return self._v == other._v
        if isinstance(other, int) and not isinstance(other, bool):
            return self._v == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, ExtNat):
            other = other._v
        elif not isinstance(other, int) or isinstance(other, bool):
            return NotImplemented
        if self._v is None:
            return False
        return other is None or self._v < other

    def __hash__(self) -> int:
        return hash(self._v)

    def __repr__(self) -> str:
        return "ExtNat(inf)" if self._v is None else f"ExtNat({self._v})"

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)


INF = ExtNat(None)
ZERO = ExtNat(0)


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


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division (small inputs only)."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
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


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (n < 2 is not prime)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    r = math.isqrt(n)
    while f <= r:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]
