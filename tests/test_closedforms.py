"""Tests for the closed-form evaluators and their combinatorial backing."""

from __future__ import annotations

import math

import pytest

import borderings.numerics as numerics_module
from borderings.closedforms import (
    alpha_AP,
    alpha_P,
    alpha_Z,
    beta,
    beta_digit,
    equality_profile,
    p_test_lower_bound,
    prime_witness_sequence,
)
from borderings.factored import BaseSet
from borderings.factorials import factorial
from borderings.intsets import Primes
from borderings.numerics import digit_sum, floor_sum, omega_totient
from borderings.ordering import b_ordering, evaluate_test_sequence

from oracle import partition_minimum, up_to


class TestAlphaZ:
    def test_examples(self):
        assert alpha_Z(12, 2) == 10
        assert alpha_Z(4, 2) == 3
        for b in range(2, 20):
            for k in range(b):
                assert alpha_Z(k, b) == 0

    def test_matches_greedy(self):
        from borderings.intsets import AllIntegers

        for b in (2, 5, 9):
            run = b_ordering(AllIntegers(), b, 45)
            assert run.exponents == [alpha_Z(k, b) for k in range(46)]


class TestAlphaAP:
    def test_matches_the_defining_sum(self):
        # sum over l of floor(k / m_l), m_l = b^l / gcd(b^l, d), every level summed
        for b in range(2, 13):
            for d in list(range(1, 41)) + [b**9, 2**60, 6**20 * 7]:
                mods = [b**l // math.gcd(b**l, d) for l in range(1, 70)]
                for k in range(0, 60, 3):
                    assert alpha_AP(k, b, d) == sum(k // m for m in mods), (k, b, d)

    def test_integers_are_the_case_d_one(self):
        for b in range(2, 13):
            for k in range(200):
                assert alpha_Z(k, b) == alpha_AP(k, b) == alpha_AP(k, b, 1)

    def test_step_coprime_to_b_times_a_power_of_b(self):
        # d = b^e * u with gcd(u, b) = 1 adds e to every valuation
        for b, e, u in ((2, 0, 3), (2, 5, 9), (6, 3, 35), (10, 1, 7)):
            for k in range(40):
                assert alpha_AP(k, b, b**e * u) == e * k + alpha_Z(k, b)

    def test_step_sharing_part_of_b(self):
        # ap:0,2 at b = 4: m_l = 2, 8, 32, ...
        assert [alpha_AP(k, 4, 2) for k in range(10)] == [k // 2 + k // 8 for k in range(10)]

    def test_rejects_bad_arguments(self):
        for args in ((3, 1, 1), (-1, 2, 1), (3, 2, 0)):
            with pytest.raises(ValueError):
                alpha_AP(*args)


class TestBeta:
    def test_examples(self):
        assert beta(10, 5, 3) == 2 == beta_digit(10, 5, 3)
        assert beta(8, 4, 2) == 1 == beta_digit(8, 4, 2)
        for k in range(25):
            assert beta(k, 0, 7) == 0

    def test_dual_forms_full_grid(self):
        # k <= 300, all l, bases <= 30, via per-base lookup tables
        for b in range(2, 31):
            A = [alpha_Z(n, b) for n in range(301)]
            D = [digit_sum(n, b) for n in range(301)]
            for k in range(301):
                for ell in range(k + 1):
                    floor_form = A[k] - A[ell] - A[k - ell]
                    num = D[ell] + D[k - ell] - D[k]
                    assert num % (b - 1) == 0
                    assert floor_form == num // (b - 1)
                    assert floor_form >= 0


class TestAlphaP:
    def test_examples(self):
        assert alpha_P(3, 2) == 3
        assert alpha_P(3, 3) == 1
        for b in range(2, 30):
            for k in range(sum(omega_totient(b))):
                assert alpha_P(k, b) == 0

    def test_base_is_factored_once(self, monkeypatch):
        calls = []
        original = numerics_module.prime_factors

        def counting_prime_factors(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(numerics_module, "prime_factors", counting_prime_factors)
        values = [alpha_P(k, 6) for k in range(100)]
        assert values[99] == 97 // 2 + 97 // 12 + 97 // 72  # omega(6) = totient(6) = 2
        assert calls.count(6) <= 1

    def test_matches_greedy(self):
        P = Primes()
        for b in (2, 3, 6, 12):
            run = b_ordering(P, b, 25)
            assert run.exponents == [alpha_P(k, b) for k in range(26)]

    def test_witness_sequences(self):
        # the explicit construction: prime divisors of b, then the smallest
        # prime in each coprime class mod b^e, classes ascending
        for b, e in ((2, 5), (3, 3), (6, 2), (10, 2), (12, 2)):
            seq = prime_witness_sequence(b, e)
            assert len(seq) == omega_totient(b)[0] + omega_totient(b**e)[1]
            assert len(set(seq)) == len(seq)
            vals = evaluate_test_sequence(seq, b)
            for k, v in enumerate(vals):
                assert v.is_finite and v.value == alpha_P(k, b), (b, e, k)


def factorial_P(k, bases):
    return factorial(Primes(), BaseSet.explicit(bases), k)


class TestFactorialP:
    def test_small_values(self):
        assert factorial_P(3, [2, 3]).value() == 24
        assert factorial_P(1, [2, 3, 5, 7]).value() == 1
        assert factorial_P(4, range(2, 5)).value() == 2**4 * 3 * 4

    def test_bhargava_specialisation(self):
        # over prime bases this is the classical primes-set factorial:
        # k!_P = 2^a2 * 3^a3 * ... with the totient floor sums
        import math

        primes = [2, 3, 5, 7, 11, 13]
        vals = [factorial_P(k, primes).value() for k in range(8)]
        assert vals == [1, 1, 2, 24, 48, 5760, 11520, 2903040]
        # sanity: consecutive ratios are integers (generalized integers)
        for a, b in zip(vals, vals[1:]):
            assert b % a == 0
        assert math.gcd(vals[3], 24) == 24


class TestLemma82:
    def test_examples(self):
        assert floor_sum(7, 3) == 5
        assert sorted(equality_profile(7, 3)) == [2, 2, 3]
        assert floor_sum(3, 5) == 0
        assert sorted(equality_profile(3, 5)) == [0, 0, 1, 1, 1]
        for k in range(10):
            assert floor_sum(k, 1) == k * (k - 1) // 2

    def test_brute_force_grid_with_unique_profiles(self):
        for k in range(13):
            for m in range(1, 7):
                best, minimizers = partition_minimum(k, m)
                assert best == floor_sum(k, m)
                profile = tuple(sorted(equality_profile(k, m)))
                assert minimizers == [profile], (k, m, minimizers)


class TestPTestBound:
    def test_examples(self):
        assert p_test_lower_bound(3, 2) == 0 + 0 + 1 + 3
        assert p_test_lower_bound(1, 2) == 0
        assert p_test_lower_bound(2, 6) == 0
        with pytest.raises(ValueError):
            p_test_lower_bound(0, 6)

    def test_unfolds_to_cumulative_alpha(self):
        for b in range(2, 13):
            for k in range(omega_totient(b)[0], 41):
                assert p_test_lower_bound(k, b) == sum(alpha_P(j, b) for j in range(k + 1))

    def test_bounds_random_prime_sequences(self):
        import random

        P = Primes()
        pool = up_to(P, 200)
        rng = random.Random(6)
        for _ in range(40):
            b = rng.randint(2, 12)
            k = rng.randint(omega_totient(b)[0], 8)
            seq = [rng.choice(pool) for _ in range(k + 1)]
            total = 0
            vals = evaluate_test_sequence(seq, b)
            finite = all(v.is_finite for v in vals)
            if finite:
                total = sum(v.value for v in vals)
                assert total >= p_test_lower_bound(k, b)
