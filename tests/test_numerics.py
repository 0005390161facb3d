"""Tests for extended naturals, valuations, digits and arithmetic functions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderings.factored import BASE_SPEC_MAX, parse_base_spec
from borderings.factorials import factorial
from borderings.intsets import Primes
from borderings.numerics import (
    INF,
    ExtNat,
    cumulative_digit_sum,
    digit_sum,
    digits,
    floor_sum,
    is_prime,
    omega_totient,
    ord_b,
    prime_factors,
    primes_up_to,
)
from oracle import totients_and_omegas

extnats = st.one_of(st.integers(min_value=0, max_value=10**6).map(ExtNat), st.just(INF))


class TestExtNat:
    def test_construction(self):
        assert ExtNat(3).value == 3
        assert not INF.is_finite
        with pytest.raises(ValueError):
            ExtNat(-1)
        with pytest.raises(TypeError):
            ExtNat(2.5)
        with pytest.raises(ValueError):
            INF.value

    @given(extnats, extnats)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(extnats, extnats, extnats)
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(extnats)
    def test_infinity_absorbs(self, a):
        assert a + INF == INF

    @given(extnats, extnats)
    def test_total_order(self, a, b):
        assert (a <= b) or (b <= a)
        if a <= b and b <= a:
            assert a == b

    @given(extnats)
    def test_infinity_maximal(self, a):
        assert a <= INF

    def test_int_interop(self):
        assert ExtNat(2) + 3 == 5
        assert 1 + ExtNat(2) == ExtNat(3)
        assert ExtNat(2) < 4

    @given(extnats, st.integers(max_value=-1))
    def test_negative_ints_lie_below_every_value(self, a, n):
        assert a != n and not a == n and n != a
        assert n < a and a > n and not a < n and not a <= n
        assert n not in [a]


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
        lhs = ExtNat(ord_b(b, a1 * a2))
        rhs = ExtNat(ord_b(b, a1)) + ExtNat(ord_b(b, a2))
        assert rhs <= lhs
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

    def test_prime_factors(self):
        assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
        assert prime_factors(1) == {}
        with pytest.raises(ValueError):
            prime_factors(0)
