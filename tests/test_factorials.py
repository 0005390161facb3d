"""Tests for generalized factorials, integers, binomials and row products."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from borderings import closedforms
from borderings import factorials as factorials_module
from borderings.closedforms import alpha_Z, beta
from borderings.factored import BaseSet, FactoredNumber
from borderings.factorials import (
    factorial,
    gen_binomial,
    gen_integer,
    nu_bar,
    pairwise_multiple_check,
    row_product,
    row_product_direct,
)
from borderings.intsets import (
    AllIntegers,
    ArithmeticProgression,
    ExplicitFinite,
    Primes,
    parse_set_spec,
)
from borderings.numerics import ord_b
from borderings.ordering import b_ordering, exponent_sequence, pairwise_valuation_sum

Z = AllIntegers()
AUTO = BaseSet.auto()


class TestFactorial:
    def test_published_values(self):
        F = factorial(Z, AUTO, 12)
        assert F.value() == 9_535_274_090_496_000
        assert F.refine_to_primes().format_factored() == "2^24 * 3^10 * 5^3 * 7 * 11"
        assert factorial(Z, AUTO, 0).value() == 1
        assert factorial(Z, AUTO, 1).value() == 1

    def test_empty_base_set(self):
        assert factorial(Z, BaseSet.explicit([]), 5) == FactoredNumber.one()

    def test_legendre_reduction(self):
        for k in range(21):
            T = BaseSet.primes_up_to(max(k, 2))
            assert factorial(Z, T, k).value() == math.factorial(k)

    def test_degenerate_bases_in_explicit_lists(self):
        S = ExplicitFinite([0, 1, 2])
        # below |S| base 0 contributes 0^0 = 1; at/after |S| it kills the product
        assert factorial(S, BaseSet.explicit([0]), 2).value() == 1
        assert factorial(S, BaseSet.explicit([0]), 3).value() == 0
        # base 1 contributes 1 forever
        assert factorial(S, BaseSet.explicit([1]), 5).value() == 1
        assert factorial(Z, BaseSet.explicit([0, 1]), 7).value() == 1

    def test_progression_has_nontrivial_first_factorial(self):
        S = ArithmeticProgression(1, 4)
        F = factorial(S, BaseSet.all_up_to(8), 1)
        assert F.exponent(2) == 2 and F.exponent(4) == 1
        assert F.value() == 16  # gcd of differences is 4, so 1!_{S,T} > 1


class TestGenInteger:
    def test_published_values(self):
        assert gen_integer(Z, AUTO, 12).value() == 3456
        assert gen_integer(Z, AUTO, 36).value() == 362_797_056
        assert gen_integer(Z, AUTO, 60).refine_to_primes() == FactoredNumber(
            {2: 13, 3: 6, 5: 6}
        )

    def test_exponents_are_valuations_over_Z(self):
        for n in range(1, 61):
            g = gen_integer(Z, AUTO, n)
            for b in range(2, n + 1):
                assert g.exponent(b) == ord_b(b, n)

    def test_point_queries_read_two_indices_per_base(self, monkeypatch):
        # each base asks the closed form for alpha_n and alpha_(n-1) only,
        # never for the whole prefix alpha_0..alpha_n
        calls = []

        def counting(k, b):
            calls.append(b)
            return alpha_Z(k, b)

        monkeypatch.setattr(closedforms, "alpha_Z", counting)
        G = gen_integer(Z, AUTO, 60)
        assert all(G.exponent(b) == ord_b(b, 60) for b in range(2, 61))
        per_base = Counter(calls)
        assert set(per_base) == set(range(2, 61))
        assert max(per_base.values()) <= 2

    def test_telescoping(self):
        rng = random.Random(2)
        for _ in range(15):
            values = sorted(rng.sample(range(-30, 31), rng.randint(3, 9)))
            S = ExplicitFinite(values)
            T = BaseSet.range(2, rng.randint(2, 10))
            n = rng.randint(1, len(values) - 1)
            prod = FactoredNumber.one()
            for j in range(1, n + 1):
                prod = prod * gen_integer(S, T, j)
            assert prod == factorial(S, T, n)

    def test_zero_beyond_set_size(self):
        S = ExplicitFinite([4, 7, 9])
        assert gen_integer(S, BaseSet.range(2, 6), 3).is_zero
        assert gen_integer(S, BaseSet.range(2, 6), 5).is_zero
        for T in (BaseSet.explicit([1]), BaseSet.explicit([])):  # T within {1}: every factorial is 1
            assert gen_integer(S, T, 7).value() == 1
        with pytest.raises(ValueError):
            gen_integer(S, BaseSet.range(2, 6), 0)


class TestGenBinomial:
    def test_published_values(self):
        assert gen_binomial(Z, AUTO, 10, 5).value() == 1_088_640
        assert gen_binomial(Z, AUTO, 8, 4).value() == 3360
        assert gen_binomial(Z, AUTO, 9, 4).value() == 54_432
        for k in range(11):
            assert gen_binomial(Z, AUTO, k, 0).value() == 1

    def test_bounds_checked(self):
        S = ExplicitFinite(range(5))
        with pytest.raises(ValueError):
            gen_binomial(S, BaseSet.range(2, 4), 5, 2)
        with pytest.raises(ValueError):
            gen_binomial(Z, AUTO, 4, 5)

    def test_always_positive_integers(self):
        rng = random.Random(8)
        for _ in range(30):
            values = sorted(rng.sample(range(-40, 41), rng.randint(3, 10)))
            S = ExplicitFinite(values)
            T = BaseSet.range(2, rng.randint(2, 12))
            k = rng.randint(0, len(values) - 1)
            ell = rng.randint(0, k)
            assert gen_binomial(S, T, k, ell).value() >= 1

    def test_decreasing_alphas_are_refused(self, monkeypatch):
        # the theory makes every exponent difference nonnegative; if the
        # invariants ever decreased, the factored result must refuse the
        # negative exponent instead of printing it
        def decreasing(S, bases, ks):
            return [("closed-form", [100 - k for k in ks]) for _ in bases]

        monkeypatch.setattr(factorials_module, "invariants", decreasing)
        with pytest.raises(ValueError):
            gen_integer(Z, BaseSet.explicit([2]), 5)
        with pytest.raises(ValueError):
            gen_binomial(Z, BaseSet.explicit([2]), 6, 2)


class TestPairwiseMultiple:
    def test_trivial_and_random(self):
        assert pairwise_multiple_check(Z, BaseSet.range(2, 10), [5])
        rng = random.Random(12)
        for _ in range(25):
            values = sorted(rng.sample(range(-30, 31), rng.randint(3, 8)))
            S = ExplicitFinite(values)
            seq = [rng.choice(values) for _ in range(rng.randint(2, 6))]
            assert pairwise_multiple_check(S, BaseSet.range(2, 10), seq)

    def test_greedy_prefix_gives_equality_of_products(self):
        from borderings.ordering import b_ordering, pairwise_valuation_sum, exponent_sequence

        S = ExplicitFinite(range(-5, 6))
        run = b_ordering(S, 6, 6)
        gamma = pairwise_valuation_sum(run.elements, 6)
        total = sum(v.value for v in exponent_sequence(S, 6, 6).values)
        assert gamma == total


# every route: closed forms for Z, N, P, both ap: sets and the equally spaced
# list, the greedy for the last list
ROUTE_SETS = ("Z", "N", "P", "ap:3,10", "ap:-20,3", "list:-7,-2,3,8,13,18", "list:-9,-4,0,1,5,12,30")
# degenerate bases, and bases above every k asked
ROUTE_BASES = BaseSet.explicit([0, 1, 2, 3, 4, 6, 9, 10, 12, 17, 30])


def alpha_quotient(S, bases, top, others=()):
    """prod_b b^(alpha_top - sum of alpha_k over others), one exponent_sequence call per base and index."""
    exps = {}
    for b in bases:
        e = exponent_sequence(S, b, top).values[top]
        rest = [exponent_sequence(S, b, k).values[k] for k in others]
        exps[b] = e.value - sum(r.value for r in rest) if e.is_finite else None
    return FactoredNumber(exps)


class TestOneRouteCallPerQuery:
    """The factorial layer asks for every base at once; per-base, per-index sequences are the oracle."""

    @pytest.mark.parametrize("spec", ROUTE_SETS)
    def test_factored_functions_match_per_base_alphas(self, spec):
        S = parse_set_spec(spec)
        top = 8 if S.cardinality is None else S.cardinality
        for T in (ROUTE_BASES, AUTO) if spec in ("Z", "N", "P") else (ROUTE_BASES,):
            for k in range(top + 1):
                assert factorial(S, T, k) == alpha_quotient(S, T.resolve(S, k), k), k
            for n in range(1, top):
                assert gen_integer(S, T, n) == alpha_quotient(S, T.resolve(S, n), n, (n - 1,)), n
                for ell in range(n + 1):
                    want = alpha_quotient(S, T.resolve(S, n), n, (ell, n - ell))
                    assert gen_binomial(S, T, n, ell) == want, (n, ell)

    @pytest.mark.parametrize("spec", ROUTE_SETS)
    def test_pairwise_check_matches_per_base_alphas(self, spec):
        S = parse_set_spec(spec)
        rng = random.Random(spec)
        members = list(itertools.islice(S.iter_canonical(), 8))
        for _ in range(12):
            # members only (always a multiple), or any integers (often not)
            pool = members if rng.random() < 0.5 else range(-12, 13)
            seq = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            for T in (ROUTE_BASES, AUTO) if spec in ("Z", "N", "P") else (ROUTE_BASES,):
                n = len(seq) - 1

                def multiple(b):  # the pairwise total, None for inf, is at least alpha_0 + ... + alpha_n
                    alphas = [exponent_sequence(S, b, k).values[k] for k in range(n + 1)]
                    total = pairwise_valuation_sum(seq, b)
                    return total is None or (
                        all(a.is_finite for a in alphas) and total >= sum(a.value for a in alphas)
                    )

                want = all(multiple(b) for b in T.resolve(S, n))
                assert pairwise_multiple_check(S, T, seq) is want, (seq, T.spec)


class TestRowProducts:
    def test_small_rows(self):
        assert row_product(1).value() == 1
        assert row_product(2).value() == 2
        # row 4 of the table reads 1, 16, 24, 16, 1; the product is 6144
        assert row_product(4).value() == 16 * 24 * 16
        assert row_product(4) == FactoredNumber({2: 5, 3: 1, 4: 3})

    def test_direct_product_oracle(self):
        for n in range(1, 26):
            assert row_product(n) == row_product_direct(n)

    def test_nu_bar_matches_beta_sums(self):
        for n in range(1, 61):
            for b in range(2, n + 1):
                assert nu_bar(n, b) == sum(beta(n, k, b) for k in range(n + 1))

    def test_nu_bar_beta_sums_full_scale(self):
        # precomputed alpha tables keep the n <= 200 sweep fast
        for b in range(2, 201):
            A = [alpha_Z(j, b) for j in range(201)]
            for n in range(b, 201):
                total = sum(A[n] - A[k] - A[n - k] for k in range(n + 1))
                assert nu_bar(n, b) == total

    def test_partial_row_products(self):
        for n in (6, 11, 17):
            assert row_product(n, n) == row_product(n)
            assert row_product(n, 2).value() == 2 ** nu_bar(n, 2)
            prev = 1
            for x in range(2, n + 1):
                cur = row_product(n, x).value()
                assert cur >= prev  # nonnegative exponents only add factors
                prev = cur
        with pytest.raises(ValueError):
            row_product(5, 6)
        with pytest.raises(ValueError):
            row_product(5, 1)


class TestDivisibilityProperties:
    def test_base_set_monotone(self):
        rng = random.Random(3)
        for _ in range(20):
            values = sorted(rng.sample(range(-30, 31), rng.randint(3, 9)))
            S = ExplicitFinite(values)
            t2 = sorted(rng.sample(range(2, 14), rng.randint(2, 6)))
            t1 = sorted(rng.sample(t2, rng.randint(1, len(t2))))
            k = rng.randint(0, len(values) - 1)
            f1 = factorial(S, BaseSet.explicit(t1), k)
            f2 = factorial(S, BaseSet.explicit(t2), k)
            assert f1.exponentwise_divides(f2)
            assert f2.value() % f1.value() == 0

    def test_set_antitone(self):
        rng = random.Random(4)
        for _ in range(20):
            big = sorted(rng.sample(range(-30, 31), rng.randint(4, 10)))
            small = sorted(rng.sample(big, rng.randint(2, len(big) - 1)))
            T = BaseSet.range(2, rng.randint(2, 10))
            k = rng.randint(0, len(small) - 1)
            f_small = factorial(ExplicitFinite(small), T, k)
            f_big = factorial(ExplicitFinite(big), T, k)
            assert f_big.exponentwise_divides(f_small)

    def test_primes_factorials_against_closed_form(self):
        P = Primes()
        for k in (0, 1, 3, 5, 8):
            greedy = {b: b_ordering(P, b, k).exponents[k] for b in AUTO.resolve(P, k)}
            assert factorial(P, AUTO, k) == FactoredNumber(greedy)
        assert factorial(P, BaseSet.explicit([2, 3]), 3).value() == 24
