"""Acceptance gate: every contract criterion at its stated scale and tolerance.

All checks are exact (tolerance zero).  Each test prints a PASS line on
success (visible with `pytest -s`), and the module enforces the stated
runtime budgets.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

import pytest

from borderings.closedforms import alpha_P, alpha_Z, equality_profile
from borderings.factored import BaseSet
from borderings.factorials import factorial, gen_binomial, gen_integer
from borderings.intsets import AllIntegers, ExplicitFinite, Primes, parse_set_spec
from borderings.numerics import floor_sum
from borderings.ordering import (
    CANONICAL,
    RandomTieBreak,
    b_ordering,
    evaluate_multiplicative,
    evaluate_test_sequence,
)
from borderings.tables import TABLE_NAMES, compare
from borderings.verify import run_suite

from oracle import partition_minimum


def _report(criterion: str, elapsed: float, budget: float) -> None:
    print(f"PASS {criterion} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{criterion}: {elapsed:.2f}s exceeded budget {budget}s"


def test_criterion_1_tables_reproduce_byte_identically():
    t0 = time.perf_counter()
    for which in TABLE_NAMES:
        mismatches = compare(which)
        assert not mismatches, f"table {which}: " + "; ".join(mismatches[:5])
    _report("criterion 1: appendix tables byte-identical", time.perf_counter() - t0, 1.0)


def test_criterion_2_legendre_reduction():
    t0 = time.perf_counter()
    Z = AllIntegers()
    for k in range(21):
        T = BaseSet.primes_up_to(max(k, 2))
        assert factorial(Z, T, k).value() == math.factorial(k), k
    _report("criterion 2: primes-base factorial is k! for k <= 20", time.perf_counter() - t0, 1.0)


def test_criterion_3_closed_form_vs_greedy_integers():
    t0 = time.perf_counter()
    Z = AllIntegers()
    for b in range(2, 13):
        run = b_ordering(Z, b, 100)
        for k, v in enumerate(run.exponents):
            assert v == alpha_Z(k, b), (b, k)
    _report(
        "criterion 3: certified greedy equals floor sums on Z (b <= 12, k <= 100)",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_4_closed_form_vs_greedy_primes():
    t0 = time.perf_counter()
    P = Primes()
    for b in range(2, 13):
        run = b_ordering(P, b, 40)
        for k, v in enumerate(run.exponents):
            assert v == alpha_P(k, b), (b, k)
    # 3!_{P,P} = 2^3 * 3 = 24
    assert factorial(P, BaseSet.explicit([2, 3]), 3).value() == 24
    _report(
        "criterion 4: certified greedy equals totient formula on P (b <= 12, k <= 40)",
        time.perf_counter() - t0,
        120.0,
    )


@pytest.mark.parametrize("b,k", [(6, 15200), (12, 7000)])
def test_greedy_over_primes_runs_deep(b, k):
    # the searches for a class's least prime pass 10^7 here, though no prime
    # either run picks reaches 10^6; each ends by Dirichlet's theorem
    t0 = time.perf_counter()
    run = b_ordering(Primes(), b, k)
    assert len(run.exponents) == k + 1
    for i, v in enumerate(run.exponents):
        assert v == alpha_P(i, b), i
    _report(
        f"addendum: certified greedy equals totient formula on P (b = {b}, k <= {k:,})",
        time.perf_counter() - t0,
        60.0,
    )


@pytest.mark.parametrize(
    "b,digest",
    [
        (2, "20ad04be60523b7206e4fecbb767bdd2e6e7280506b21dfed25548fa4f556b4d"),
        (6, "723c22c3c0fbcf8078816262b1c4f3ae55caef6c6610ab43b4a39de613a8b89c"),
    ],
)
def test_greedy_over_a_large_finite_set(b, digest):
    # sha256 of (elements, exponents, certified) of the whole run, recorded
    # from the engine that kept every unused member in one flat map; it took
    # 0.40 s at b = 2 and 0.20 s at b = 6 on a shared 2-vCPU Xeon
    values = random.Random(1600).sample(range(-(10**6), 10**6 + 1), 1600)
    S = parse_set_spec("list:" + ",".join(map(str, values)))
    t0 = time.perf_counter()
    run = b_ordering(S, b, len(values) - 1)
    elapsed = time.perf_counter() - t0
    assert sorted(run.elements) == sorted(values)
    payload = repr((run.elements, run.exponents, run.certified))
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
    _report(f"addendum: greedy run over a 1,600-member list: set (b = {b})", elapsed, 10.0)


def test_criterion_5_well_definedness_at_desk_scale():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for trial in range(100):
        values = sorted(rng.sample(range(-50, 51), rng.randint(2, 12)))
        S = ExplicitFinite(values)
        k = len(values) + 1
        for b in range(2, 13):
            reference = None
            for variant in range(5):
                if variant == 0:
                    run = b_ordering(S, b, k, CANONICAL)
                else:
                    run = b_ordering(
                        S, b, k, RandomTieBreak(rng.randrange(1 << 30)), start=rng.choice(values)
                    )
                key = tuple(str(v) for v in run.exponents)
                if reference is None:
                    reference = key
                else:
                    assert key == reference, (values, b, variant)
    _report(
        "criterion 5: well-definedness over 100 random sets x 11 bases x 5 variants",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_6_additive_vs_multiplicative_example():
    t0 = time.perf_counter()
    add = evaluate_test_sequence([0, 1, 2, 5], 6)
    mult = evaluate_multiplicative([0, 1, 2, 5], 6)
    mult_alt = evaluate_multiplicative([0, 2, 4, 5], 6)
    assert add[3].is_finite and add[3].value == 0
    assert mult[3].is_finite and mult[3].value == 1
    assert mult_alt[3].is_finite and mult_alt[3].value == 0
    # two product-minimising orderings disagree on the product valuation,
    # so that variant carries no well-defined invariant
    assert mult[3] != mult_alt[3]
    _report(
        "criterion 6: additive/multiplicative split on {0..5} at base 6",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    for name in (
        "majorization",
        "superadditivity",
        "monotonicity",
        "divisibility",
        "transport",
        "maxmin",
    ):
        rep = run_suite(name, seed=97, scale=1.0)
        assert rep.passed, f"{name}: {rep.failures[:3]}"
        if name == "majorization":
            dominance = [i for i in rep.instances if i.name == "prefix-sum-dominance"]
            assert len(dominance) >= 200
        if name == "maxmin":
            assert len(rep.instances) >= 50
    _report("criterion 7: property suites (theorem-scale checks)", time.perf_counter() - t0, 300.0)


def test_criterion_8_knuth_wilf_counterexample():
    t0 = time.perf_counter()
    Z = AllIntegers()
    g4 = gen_integer(Z, BaseSet.auto(), 4).value()
    g6 = gen_integer(Z, BaseSet.auto(), 6).value()
    g2 = gen_integer(Z, BaseSet.auto(), 2).value()
    assert (g4, g6) == (16, 36)
    assert math.gcd(g4, g6) == 4
    assert g2 == 2
    assert math.gcd(g4, g6) != g2  # regular divisibility fails for the full base set
    for k in range(31):  # yet the binomials all stay integral
        for ell in range(k + 1):
            assert gen_binomial(Z, BaseSet.auto(), k, ell).value() >= 1
    _report("criterion 8: regular-divisibility failure with integral binomials", time.perf_counter() - t0, 30.0)


def test_criterion_9_partition_and_floor_sum_oracles():
    t0 = time.perf_counter()
    for k in range(13):
        for m in range(1, 7):
            best, minimizers = partition_minimum(k, m)
            assert best == floor_sum(k, m), (k, m)
            assert minimizers == [tuple(sorted(equality_profile(k, m)))], (k, m)
    for k in range(201):
        for m in range(1, 51):
            direct = sum(i // m for i in range(k))
            q = k // m
            weighted = (k - m * q) * (q + 1) * q // 2 + (m - k + m * q) * q * (q - 1) // 2
            assert floor_sum(k, m) == direct == weighted, (k, m)
    # documented discrepancy: the compact identity printed with C(q, 2)
    # does not match direct summation; C(q+1, 2) does
    k, m = 7, 3
    q = k // m
    assert k * q - m * (q * (q - 1) // 2) == 11 != 5
    assert k * q - m * ((q + 1) * q // 2) == 5 == floor_sum(7, 3)
    _report(
        "criterion 9: partition minimiser and floor-sum oracles (erratum documented)",
        time.perf_counter() - t0,
        30.0,
    )


def test_row_exponent_cross_check_full_scale():
    # exact nu_bar(n, b) = sum of binomial exponents for n <= 200
    from borderings.factorials import nu_bar

    t0 = time.perf_counter()
    for b in range(2, 201):
        A = [alpha_Z(j, b) for j in range(201)]
        for n in range(b, 201):
            assert nu_bar(n, b) == sum(A[n] - A[k] - A[n - k] for k in range(n + 1)), (n, b)
    _report("addendum: row exponents equal binomial-exponent sums (n <= 200)", time.perf_counter() - t0, 60.0)
