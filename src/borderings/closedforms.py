"""Closed-form exponent formulas for S = Z, progressions and P, with their combinatorial backing.

These serve both as fast paths and as independent oracles against the
greedy engine: the Z formula is the geometric floor sum, the progression
formula its gcd-reduced form, the P formula is driven by Euler's totient
and the distinct-prime count, and the partition bound, `numerics.floor_sum`
with its minimising `equality_profile`, ties the P lower bound to the floor sums.
"""

from __future__ import annotations

import math

from .intsets import Primes
from .numerics import digit_sum, omega_totient, prime_factors


def alpha_AP(k: int, b: int, d: int = 1) -> int:
    """Exponent of b in the k-th invariant for a progression with step d.

    The sum of floor(k/m_l) over l >= 1, with m_l = b^l / gcd(b^l, d):
    ord_b(d*x) counts the levels l with m_l | x, the first k members leave
    at least floor(k/m_l) of them in each class of x mod m_l, and x = k
    attains all these bounds at once.  With e = d / gcd(b^(l-1), d) coprime
    to m_(l-1), m_l = m_(l-1) * b / gcd(b, e) never decreases, so the sum
    stops at the first m_l > k.
    """
    if b < 2:
        raise ValueError(f"alpha_AP needs b >= 2, got {b}")
    if k < 0:
        raise ValueError(f"alpha_AP needs k >= 0, got {k}")
    if d < 1:
        raise ValueError(f"alpha_AP needs d >= 1, got {d}")
    total, m = 0, b
    while True:
        if d > 1:
            g = math.gcd(b, d)
            m, d = m // g, d // g
        if m > k:
            return total
        total += k // m
        m *= b


def alpha_Z(k: int, b: int) -> int:
    """Exponent of b in the k-th invariant for the integers: sum of floor(k/b^l), the case d = 1."""
    return alpha_AP(k, b)


def beta(k: int, ell: int, b: int) -> int:
    """Binomial exponent of b for (Z, N), floor-sum form."""
    if not 0 <= ell <= k:
        raise ValueError(f"need 0 <= ell <= k, got ell={ell}, k={k}")
    return alpha_Z(k, b) - alpha_Z(ell, b) - alpha_Z(k - ell, b)


def beta_digit(k: int, ell: int, b: int) -> int:
    """Binomial exponent of b via carries: (d_b(l) + d_b(k-l) - d_b(k)) / (b-1)."""
    if not 0 <= ell <= k:
        raise ValueError(f"need 0 <= ell <= k, got ell={ell}, k={k}")
    num = digit_sum(ell, b) + digit_sum(k - ell, b) - digit_sum(k, b)
    if num % (b - 1) != 0:
        raise ArithmeticError(f"carry count {num} not divisible by b-1={b - 1}")
    return num // (b - 1)


def alpha_P(k: int, b: int) -> int:
    """Exponent of b in the k-th invariant for the primes.

    Zero whenever totient(b) + omega(b) > k; otherwise the floor sum of
    (k - omega(b)) over totient(b), b*totient(b), b^2*totient(b), ...
    """
    if b < 2:
        raise ValueError(f"alpha_P needs b >= 2, got {b}")
    if k < 0:
        raise ValueError(f"alpha_P needs k >= 0, got {k}")
    w, m = omega_totient(b)
    n = k - w
    if n < 0:
        return 0
    total = 0
    while m <= n:
        total += n // m
        m *= b
    return total


def equality_profile(k: int, m: int) -> tuple[int, ...]:
    """The unique (up to order) minimising partition: parts q+1 and q, q = floor(k/m)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    q = k // m
    big = k - m * q
    return tuple([q + 1] * big + [q] * (m - big))


def p_test_lower_bound(k: int, b: int) -> int:
    """Lower bound for summed exponent values of any primes test sequence up to k."""
    w = omega_totient(b)[0]
    if k < w:
        raise ValueError(f"need k >= omega(b) = {w}, got k = {k}")
    return sum(alpha_P(j, b) for j in range(w, k + 1))


def prime_witness_sequence(b: int, e: int) -> list[int]:
    """An explicit initial b-ordering of the primes, independent of the greedy engine.

    Starts with the distinct prime divisors of b in increasing order, then
    for each residue class mod b^e coprime to b (classes ascending) the
    smallest prime in that class.  Valid as a b-ordering for indices up to
    omega(b) + totient(b^e) - 1.
    """
    if b < 2 or e < 1:
        raise ValueError(f"need b >= 2 and e >= 1, got b={b}, e={e}")
    primes = Primes()
    seq = sorted(prime_factors(b))
    mod = b**e
    for r in range(1, mod):
        if math.gcd(r, b) == 1:
            p = primes.pick_in_class(r, mod)
            seq.append(p)
    return seq
