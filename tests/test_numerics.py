"""Tests for extended naturals, valuations, digits and arithmetic functions."""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borderings.numerics as numerics
from borderings.cli import EXPONENTS_K_MAX
from borderings.factored import BASE_SPEC_MAX, parse_base_spec
from borderings.factorials import factorial
from borderings.intsets import Primes
from borderings.numerics import (
    TRIAL_DIVISION_MAX,
    ExtNat,
    cumulative_digit_sum,
    digit_sum,
    digits,
    ext_le,
    ext_sum,
    floor_sum,
    is_prime,
    least_prime_in,
    omega_totient,
    ord_b,
    prime_factors,
    prime_flags,
    primes_up_to,
)
from oracle import is_prime_by_trial, totients_and_omegas

extnats = st.one_of(st.integers(min_value=0, max_value=10**6), st.none())  # None for inf


class TestExtNat:
    def test_construction(self):
        assert ExtNat(3).value == 3 and ExtNat(3).is_finite
        assert not ExtNat(None).is_finite
        with pytest.raises(ValueError):
            ExtNat(-1)
        with pytest.raises(TypeError):
            ExtNat(2.5)
        with pytest.raises(TypeError):
            ExtNat(True)
        with pytest.raises(ValueError):
            ExtNat(None).value

    @given(extnats)
    def test_equality_hash_and_text(self, a):
        assert ExtNat(a) == ExtNat(a) and hash(ExtNat(a)) == hash(ExtNat(a))
        assert str(ExtNat(a)) == ("inf" if a is None else str(a))
        assert repr(ExtNat(a)) == f"ExtNat({ExtNat(a)})"
        if a is not None:
            assert ExtNat(a) == a and a == ExtNat(a) and ExtNat(a) != a + 1

    def test_no_arithmetic_or_order(self):
        # sums and comparisons of exponents are ext_sum and ext_le on plain values
        with pytest.raises(TypeError):
            ExtNat(2) + 3
        with pytest.raises(TypeError):
            ExtNat(2) < ExtNat(3)

    @given(extnats, st.integers(max_value=-1))
    def test_negative_ints_equal_no_value(self, a, n):
        a = ExtNat(a)
        assert a != n and not a == n and n != a
        assert n not in [a]


class TestExtArithmetic:
    @given(extnats, extnats)
    def test_addition_commutative(self, a, b):
        assert ext_sum(a, b) == ext_sum(b, a)

    @given(extnats, extnats, extnats)
    def test_addition_associative(self, a, b, c):
        assert ext_sum(ext_sum(a, b), c) == ext_sum(a, ext_sum(b, c)) == ext_sum(a, b, c)

    @given(extnats)
    def test_infinity_absorbs(self, a):
        assert ext_sum(a, None) is None and ext_sum(None, a) is None

    def test_finite_sums_are_int_sums(self):
        assert ext_sum() == 0 and ext_sum(4) == 4 and ext_sum(2, 3, 0) == 5
        assert ext_sum(0, None, 7) is None

    @given(extnats, extnats)
    def test_total_order(self, a, b):
        assert ext_le(a, b) or ext_le(b, a)
        if ext_le(a, b) and ext_le(b, a):
            assert a == b

    @given(extnats)
    def test_infinity_maximal(self, a):
        assert ext_le(a, None)
        assert ext_le(None, a) is (a is None)

    def test_finite_order_is_int_order(self):
        assert ext_le(2, 4) and ext_le(3, 3) and not ext_le(4, 2)


class TestOrdB:
    def test_examples(self):
        assert ord_b(6, 36) == 2
        assert ord_b(2, 0) is None
        assert ord_b(1, 5) is None
        assert ord_b(0, 7) == 0
        assert ord_b(0, 0) is None
        assert ord_b(10, -1000) == 3

    @given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=0, max_value=12))
    def test_even_in_the_difference(self, a, b):
        assert ord_b(b, -a) == ord_b(b, a)
        if a != 0 and b >= 2:
            assert type(ord_b(b, a)) is int

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            ord_b(-2, 4)

    @given(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=2, max_value=12),
    )
    def test_superadditive_in_products(self, a1, a2, b):
        lhs = ord_b(b, a1 * a2)
        rhs = ext_sum(ord_b(b, a1), ord_b(b, a2))
        assert ext_le(rhs, lhs)
        if is_prime(b):
            assert lhs == rhs


class TestDigits:
    def test_examples(self):
        assert list(digits(10, 3, 4)) == [1, 0, 1, 0]
        assert list(digits(-1, 2, 5)) == [1, 1, 1, 1, 1]
        assert list(digits(0, 7, 3)) == [0, 0, 0]
        with pytest.raises(ValueError):
            digits(5, 1, 3)

    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=12),
    )
    def test_reconstruction_mod_bk(self, a, b, k):
        d = digits(a, b, k)
        assert all(0 <= x < b for x in d)
        partial = sum(x * b**i for i, x in enumerate(d))
        assert (partial - a) % b**k == 0

    def test_nonnegative_tail_vanishes(self):
        d = digits(37, 5, 10)
        assert list(d)[3:] == [0] * 7


class TestDigitSums:
    def test_examples(self):
        assert digit_sum(10, 3) == 2
        assert digit_sum(5, 3) == 3
        for b in range(2, 12):
            for k in range(b):
                assert digit_sum(k, b) == k

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10**4), st.integers(min_value=2, max_value=50))
    def test_floor_sum_identity(self, n, b):
        total, m = 0, b
        while m <= n:
            total += n // m
            m *= b
        assert digit_sum(n, b) == n - (b - 1) * total

    def test_floor_sum_identity_full_grid(self):
        # d_b(n) = n - (b-1) * sum_i floor(n/b^i) for every n <= 10^4, b <= 50,
        # using the recurrences d(n) = d(n//b) + n%b and A(n) = n//b + A(n//b)
        N = 10**4
        for b in range(2, 51):
            d = [0] * (N + 1)
            a = [0] * (N + 1)
            for n in range(1, N + 1):
                q = n // b
                d[n] = d[q] + n % b
                a[n] = q + a[q]
                assert d[n] == n - (b - 1) * a[n], (n, b)
            assert d[N] == digit_sum(N, b)

    def test_cumulative(self):
        assert cumulative_digit_sum(1, 2) == 0
        assert cumulative_digit_sum(4, 2) == 4
        # brute force fixes this at 19: digit sums of 1..9 in base 3
        # are 1,2,1,2,3,2,3,4,1
        assert cumulative_digit_sum(10, 3) == 19
        for b in (2, 3, 7):
            for n in range(1, 80):
                assert cumulative_digit_sum(n, b) == sum(digit_sum(j, b) for j in range(1, n))


class TestFloorSum:
    def test_examples(self):
        assert floor_sum(7, 3) == 5
        assert floor_sum(3, 5) == 0
        for k in range(30):
            assert floor_sum(k, 1) == k * (k - 1) // 2

    def test_against_direct_summation_and_weighted_form(self):
        for k in range(0, 201):
            for m in range(1, 51):
                direct = sum(i // m for i in range(k))
                q = k // m
                weighted = (k - m * q) * (q + 1) * q // 2 + (m - k + m * q) * q * (q - 1) // 2
                assert floor_sum(k, m) == direct == weighted

    def test_compact_identity_variant_spot_check(self):
        # the compact closed form needs C(q+1, 2); the variant with
        # C(q, 2) disagrees with direct summation already at (7, 3)
        k, m = 7, 3
        q = k // m
        bad_variant = k * q - m * (q * (q - 1) // 2)
        good = k * q - m * ((q + 1) * q // 2)
        assert bad_variant == 11
        assert good == 5 == floor_sum(7, 3)


class TestArithmeticFunctions:
    def test_examples(self):
        assert omega_totient(12) == (2, 4)
        assert omega_totient(1)[1] == 1
        for p in (2, 3, 5, 7, 11, 13):
            assert omega_totient(p)[1] == p - 1

    def test_totient_prime_power_rule(self):
        for b in range(2, 30):
            for n in range(1, 5):
                assert omega_totient(b**n)[1] == b ** (n - 1) * omega_totient(b)[1]

    def test_cache_holds_a_full_base_list(self):
        # P's auto list for k = 1228 has 9,970 bases; a cache smaller than the
        # list evicts every base before the repeat reaches it again
        assert omega_totient.cache_info().maxsize > BASE_SPEC_MAX
        auto = parse_base_spec("auto")
        factorial(Primes(), auto, 1228)
        misses = omega_totient.cache_info().misses
        factorial(Primes(), auto, 1228)
        assert omega_totient.cache_info().misses == misses

    def test_sieve_matches_trial_division(self):
        # the sieve is a test oracle for the cached per-base factorisation
        phi, omegas = totients_and_omegas(3000)
        assert len(phi) == len(omegas) == 3001
        for b in range(2, 3001):
            assert (omegas[b], phi[b]) == omega_totient(b), b

    def test_primes(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert primes_up_to(10) == [2, 3, 5, 7]
        assert primes_up_to(1) == []
        ps = primes_up_to(10**4)
        assert len(ps) == 1229
        assert all(is_prime(p) for p in ps[:100])

    def test_prime_flags(self):
        # every length from 3, odd and even, against trial division; and a
        # length past 10^6, whose flags count pi(10^6) = 78,498
        for n in range(3, 600):
            assert list(prime_flags(n)) == [int(is_prime_by_trial(i)) for i in range(n)], n
        flags = prime_flags(10**6 + 1)
        assert len(flags) == 10**6 + 1 and sum(flags) == 78498
        top = [999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983]
        assert [i for i in range(10**6 - 100, 10**6 + 1) if flags[i]] == top

    def test_primes_up_to_matches_trial_division(self, fresh_sieve):
        # every n <= 5,000: off the shared sieve under the default ceiling, and
        # past a ceiling of 3,000 off flags of their own
        want = [p for p in range(5001) if is_prime_by_trial(p)]
        for ceiling in (numerics.SIEVE_MAX, 3000):
            fresh_sieve(ceiling)
            for n in range(-2, 5001):
                assert primes_up_to(n) == want[: bisect_right(want, n)], (ceiling, n)

    def test_primes_up_to_reads_the_shared_sieve(self, fresh_sieve, monkeypatch):
        # a primes: base spec grows the one sieve once, then builds no flags
        built = []
        real = numerics.prime_flags
        monkeypatch.setattr(numerics, "prime_flags", lambda n: built.append(n) or real(n))
        assert len(primes_up_to(10**4)) == 1229
        assert built == [1 << 14]
        for n in (2, 1000, 10**4, (1 << 14) - 1):
            assert primes_up_to(n) == [p for p in range(n + 1) if is_prime(p)]
        assert built == [1 << 14]

    @pytest.mark.parametrize("m", [2, 3, 30, 97, 4095, 4096, 4097, 5000])
    def test_least_prime_in_matches_a_scan_of_every_class(self, fresh_sieve, m):
        # every class, coprime or not, r = 0 and r = 1 among them, under a
        # ceiling of 2^12: small moduli search below it, large ones across it
        # or wholly past it.  A coprime class is scanned until its first prime;
        # any other, whose one prime would be at most m, through 20 members
        fresh_sieve(1 << 12)
        for r in range(m):
            members = count(r, m) if math.gcd(r, m) == 1 else islice(count(r, m), 20)
            want = next((x for x in members if is_prime_by_trial(x)), None)
            assert least_prime_in(r, m) == want, (r, m)
        assert len(numerics._sieve) <= 1 << 12

    def test_prime_factors(self):
        assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
        assert prime_factors(1) == {}
        with pytest.raises(ValueError):
            prime_factors(0)

    def test_trial_division_budget_edge(self):
        # divisors up to 2^20 factor every n < 2^40, which holds every base a
        # spec names and every base alpha_P factors (b <= 2k^2, k <= EXPONENTS_K_MAX)
        assert TRIAL_DIVISION_MAX == 2**20
        assert max(BASE_SPEC_MAX, 2 * EXPONENTS_K_MAX**2) < 2**40
        below, above = 1048573, 1048583  # the primes either side of 2^20
        assert prime_factors(below**2) == {below: 2}
        assert prime_factors(below * above) == {below: 1, above: 1}
        assert prime_factors(1099511627689) == {1099511627689: 1}  # the largest prime below 2^40
        assert prime_factors(6 * 1048571 * below) == {2: 1, 3: 1, 1048571: 1, below: 1}
        start = time.perf_counter()
        for n in (above**2, 12 * above**2, 2**61 - 1):
            with pytest.raises(ValueError, match=f"no divisor up to {TRIAL_DIVISION_MAX}"):
                prime_factors(n)
        assert time.perf_counter() - start < 2
