"""Tests for the greedy ordering engine and its certification."""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderings.intsets import (
    AllIntegers,
    ArithmeticProgression,
    ExplicitFinite,
    IntegerSet,
    NonnegativeIntegers,
    Primes,
    canonical_key,
    parse_set_spec,
)
from borderings.numerics import INF, ExtNat
from borderings.ordering import (
    CANONICAL,
    RandomTieBreak,
    b_ordering,
    check_majorization,
    evaluate_multiplicative,
    evaluate_test_sequence,
    exponent_sequence,
    greedy_step,
    invariants,
    pairwise_valuation_sum,
)
from borderings.closedforms import alpha_P, alpha_Z
import borderings.ordering as ordering_module

from oracle import (
    all_greedy_exponent_tuples,
    class_oracle_step,
    step_value,
    subset_pair_minimum,
    up_to,
    windowed_min,
    zero_base_step,
)


def as_ints(values):
    """Values as plain ints, None for inf: an ExtNat is unwrapped, an int or None passes as it is."""
    return [(v.value if v.is_finite else None) if isinstance(v, ExtNat) else v for v in values]


def greedy(S, b, k):
    """alpha_0..alpha_k(S, b) read off one canonical b-ordering, None past |S| - 1:
    the reference every formula is checked against.
    """
    return b_ordering(S, b, k).exponents


class ProgressionPlus(IntegerSet):
    """An infinite progression with finitely many extra members."""

    def __init__(self, ap, extra):
        self.ap = ap
        self.extra = sorted({a for a in extra if not ap.contains(a)}, key=canonical_key)
        self.spec = f"{ap.spec}+{self.extra}"

    def contains(self, a):
        return self.ap.contains(a) or a in self.extra

    def iter_canonical(self):
        return heapq.merge(self.ap.iter_canonical(), self.extra, key=canonical_key)

    def residue_status(self, r, m):
        if self.ap.residue_status(r, m) is None:
            return None
        return tuple(a for a in self.extra if (a - r) % m == 0)

    def pick_in_class(self, r, m):
        found = [a for a in [self.ap.pick_in_class(r, m), *self.extra] if a is not None and (a - r) % m == 0]
        return min(found, key=canonical_key, default=None)


class TestEvaluation:
    def test_additive_examples(self):
        assert as_ints(evaluate_test_sequence([0, 1, 2, 5], 6)) == [0, 0, 0, 0]
        assert as_ints(evaluate_test_sequence([7, 7], 2)) == [0, None]
        assert as_ints(evaluate_test_sequence([0, 1, 2, 3, 4], 2)) == [0, 0, 1, 1, 3]

    def test_multiplicative_examples(self):
        assert as_ints(evaluate_multiplicative([0, 1, 2, 5], 6)) == [0, 0, 0, 1]
        assert as_ints(evaluate_multiplicative([0, 2, 4, 5], 6)) == [0, 0, 0, 0]
        with pytest.raises(ValueError):
            evaluate_multiplicative([0, 1], 1)

    def test_additive_le_multiplicative_equality_for_primes(self):
        rng = random.Random(5)
        for _ in range(60):
            seq = [rng.randint(-40, 40) for _ in range(rng.randint(2, 7))]
            for b in range(2, 13):
                add = evaluate_test_sequence(seq, b)
                mult = evaluate_multiplicative(seq, b)
                assert all(a <= m for a, m in zip(add, mult))
                if b in (2, 3, 5, 7, 11):
                    assert add == mult

    def test_pairwise_sum(self):
        assert pairwise_valuation_sum([0, 1, 2], 2) == 1
        assert pairwise_valuation_sum([0, 6, 12], 6) == 3
        rng = random.Random(11)
        for _ in range(40):
            seq = [rng.randint(-30, 30) for _ in range(rng.randint(2, 6))]
            b = rng.randint(2, 12)
            gamma = pairwise_valuation_sum(seq, b)
            perm = seq[:]
            rng.shuffle(perm)
            assert pairwise_valuation_sum(perm, b) == gamma
            total = ExtNat(0)
            for v in evaluate_test_sequence(seq, b):
                total = total + v
            assert gamma == total


class TestGreedyStep:
    def test_empty_prefix(self):
        for S in (AllIntegers(), Primes(), ExplicitFinite([4, -1, 9])):
            res = greedy_step([], 7, S)
            assert res.value == 0
            assert res.element == next(iter(S.iter_canonical()))

    def test_integers_step(self):
        res = greedy_step([0, 1], 2, AllIntegers())
        assert res.value == 1
        # canonical policy picks the smallest minimizer by (|a|, sign):
        # -1 ties with 2 at value 1 and wins on absolute value
        assert res.element == -1

    def test_primes_step_matches_window_oracle(self):
        P = Primes()
        res = greedy_step([2, 3, 5, 7], 2, P)
        best, minimizers = windowed_min([2, 3, 5, 7], 2, up_to(P, 2000))
        assert res.value == best == 4
        assert res.element == minimizers[0] == 17

    def test_certified_steps_match_window_oracle(self):
        rng = random.Random(3)
        sets = [AllIntegers(), NonnegativeIntegers(), Primes(), ArithmeticProgression(-3, 5)]
        for _ in range(40):
            S = rng.choice(sets)
            b = rng.randint(2, 10)
            k = rng.randint(1, 7)
            prefix = b_ordering(S, b, k - 1).elements
            res = greedy_step(prefix, b, S)
            best, minimizers = windowed_min(prefix, b, up_to(S, 3000))
            assert res.value == best, (S.spec, b, prefix)
            assert res.element == minimizers[0], (S.spec, b, prefix)

    def test_adversarial_prefixes_match_wide_window(self):
        # arbitrary prefixes (repetitions included), not just greedy-built
        rng = random.Random(123)
        sets = [
            AllIntegers(),
            NonnegativeIntegers(),
            Primes(),
            ArithmeticProgression(0, 3),
            ArithmeticProgression(-17, 6),
            ArithmeticProgression(5, 12),
        ]
        for _ in range(120):
            S = rng.choice(sets)
            b = rng.randint(2, 13)
            pool = up_to(S, 120)
            prefix = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
            res = greedy_step(prefix, b, S)
            best, minimizers = windowed_min(prefix, b, up_to(S, 5000))
            assert res.value == best, (S.spec, b, prefix)
            assert res.element == minimizers[0], (S.spec, b, prefix)

    @pytest.mark.parametrize("spec", ["Z", "N", "P", "ap:3,10", "ap:-20,3"])
    def test_canonical_runs_match_the_class_oracle(self, spec):
        # every step up to k = 12, while the oracle's b^(V+1) classes stay
        # at desk scale (it scores each of them against the whole prefix)
        S = parse_set_spec(spec)
        for b in (2, 3, 4, 6):
            run = b_ordering(S, b, 12)
            checked = 0
            for i in range(1, 13):
                found = class_oracle_step(run.elements[:i], b, S, 20000)
                if found is None:
                    break
                assert (run.exponents[i], run.elements[i]) == found, (spec, b, i)
                checked += 1
            assert checked >= 6, (spec, b, checked)

    def test_far_offset_prefixes_certify(self):
        # prefix clusters far from the origin force deep residue levels on
        # one branch while the global minimum stays near zero
        rng = random.Random(7)
        for _ in range(20):
            b = rng.randint(2, 8)
            base = rng.randint(10**6, 10**7)
            prefix = [base + rng.randint(0, 50) for _ in range(rng.randint(2, 6))]
            res = greedy_step(prefix, b, AllIntegers())
            best, _ = windowed_min(prefix, b, up_to(AllIntegers(), 60))
            assert res.value <= best


class TestBOrdering:
    def test_integers_match_floor_sums(self):
        run = b_ordering(AllIntegers(), 2, 20)
        assert run.exponents == [alpha_Z(k, 2) for k in range(21)]
        assert as_ints(evaluate_test_sequence(run.elements, run.base)) == run.exponents

    def test_finite_set_exhaustion(self):
        S = ExplicitFinite(range(6))
        run = b_ordering(S, 6, 8)
        assert run.exponents == [0] * 6 + [None, None, None]
        # after exhaustion the canonical first element repeats
        assert run.elements[6:] == [0, 0, 0]
        assert sorted(run.elements[:6]) == list(range(6))

    def test_degenerate_bases(self):
        S = ExplicitFinite([3, 7, 9])
        run0 = b_ordering(S, 0, 4)
        assert run0.exponents == [0, 0, 0, None, None]
        assert sorted(run0.elements[:3]) == [3, 7, 9]
        run1 = b_ordering(S, 1, 3)
        assert run1.exponents == [0, None, None, None]

    @pytest.mark.parametrize("spec", ["Z", "N", "P", "ap:-7,3", "list:9,-4,0,5,12"])
    def test_base_zero_takes_the_first_unused_member(self, spec):
        # each step of the run and of a replay in a fresh state against a
        # walk of S from its first member, past |S| for the list
        S = parse_set_spec(spec)
        members = list(islice(S.iter_canonical(), 5))
        for start in (None, members[1], members[4]):
            for seed in (None, 3):
                for k in (0, 3, 9):
                    policy = CANONICAL if seed is None else RandomTieBreak(seed)
                    run = b_ordering(S, 0, k, policy, start=start)
                    assert run.exponents[0] == 0 and start in (None, run.elements[0])
                    for i in range(1, k + 1):
                        want = zero_base_step(run.elements[:i], S)
                        assert (run.elements[i], run.exponents[i]) == want, (spec, start, seed, k, i)
                        assert greedy_step(run.elements[:i], 0, S, policy) == want, (spec, start, seed, k, i)

    def test_base_zero_reads_each_member_once(self, monkeypatch):
        # one cursor over S for the whole run, not a walk from its first member at each step
        reads, original = [], AllIntegers.iter_canonical

        def counting_iter(self):
            for a in original(self):
                reads.append(a)
                yield a

        monkeypatch.setattr(AllIntegers, "iter_canonical", counting_iter)
        run = b_ordering(AllIntegers(), 0, 2000)
        assert run.exponents == [0] * 2001 and len(set(run.elements)) == 2001
        assert len(reads) <= 2001 + 2

    def test_start_element(self):
        S = ExplicitFinite([1, 4, 6, 9])
        run = b_ordering(S, 3, 3, start=9)
        assert run.elements[0] == 9
        with pytest.raises(ValueError):
            b_ordering(S, 3, 3, start=2)

    def test_negative_base_is_refused_before_step_zero(self):
        for k in (0, 3):
            with pytest.raises(ValueError, match="base must be >= 0"):
                b_ordering(AllIntegers(), -3, k, start=5)

    def test_well_definedness_against_full_branch_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            values = sorted(rng.sample(range(-25, 26), rng.randint(2, 6)))
            b = rng.randint(2, 10)
            k = len(values)  # one step past exhaustion
            oracle = all_greedy_exponent_tuples(values, b, k)
            assert len(oracle) == 1, (values, b, oracle)
            engine = b_ordering(ExplicitFinite(values), b, k)
            assert tuple(engine.exponents) in oracle, (values, b)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sets(st.integers(-40, 40), min_size=2, max_size=9),
        st.sampled_from([*range(2, 13), 30]),
    )
    def test_prefix_sums_are_subset_minima(self, values, b):
        values = sorted(values)
        alphas = as_ints(exponent_sequence(ExplicitFinite(values), b, len(values) - 1).values)
        for k in range(len(values)):
            assert sum(alphas[: k + 1]) == subset_pair_minimum(values, b, k), (values, b, k)

    def test_prefix_sums_are_subset_minima_on_larger_sets(self):
        rng = random.Random(29)
        for _ in range(6):
            values = sorted(rng.sample(range(-500, 501), rng.randint(14, 18)))
            b = rng.choice([2, 3, 4, 6, 10, 12])
            alphas = as_ints(exponent_sequence(ExplicitFinite(values), b, 3).values)
            for k in range(4):
                assert sum(alphas[: k + 1]) == subset_pair_minimum(values, b, k), (values, b, k)

    def test_random_policy_same_exponents(self):
        values = [-7, -2, 0, 3, 12, 14]
        S = ExplicitFinite(values)
        reference = b_ordering(S, 6, 7).exponents
        for seed in range(6):
            run = b_ordering(S, 6, 7, RandomTieBreak(seed), start=values[seed % len(values)])
            assert run.exponents == reference
            assert run.strategy == f"random[seed={seed}]"

    def test_random_policy_reproducible_per_seed(self):
        S = ExplicitFinite(range(-6, 7))
        a = b_ordering(S, 4, 9, RandomTieBreak(42))
        b = b_ordering(S, 4, 9, RandomTieBreak(42))
        assert a.elements == b.elements and a.exponents == b.exponents


class TestExponentSequence:
    def test_closed_form_dispatch_and_force_greedy(self):
        Z = AllIntegers()
        fast = exponent_sequence(Z, 5, 30)
        assert fast.source == "closed-form"
        assert as_ints(fast.values) == greedy(Z, 5, 30)
        P = Primes()
        fastp = exponent_sequence(P, 6, 20)
        slowp = b_ordering(P, 6, 20)
        assert fastp.source == "closed-form"
        assert as_ints(fastp.values) == slowp.exponents

    def test_nonnegative_integers_match_integers(self):
        N = NonnegativeIntegers()
        for b in (2, 3, 6, 10):
            assert greedy(N, b, 25) == [alpha_Z(k, b) for k in range(26)]

    def test_degenerate_bases(self):
        S = ExplicitFinite(range(4))
        assert as_ints(exponent_sequence(S, 0, 6).values) == [0, 0, 0, 0, None, None, None]
        assert as_ints(exponent_sequence(S, 1, 3).values) == [0, None, None, None]
        assert as_ints(exponent_sequence(Primes(), 1, 2).values) == [0, None, None]

    def test_extreme_bounds(self):
        rng = random.Random(23)
        for _ in range(20):
            values = sorted(rng.sample(range(-30, 31), rng.randint(2, 8)))
            S = ExplicitFinite(values)
            b = rng.randint(2, 12)
            k = len(values) + 1
            mid = exponent_sequence(S, b, k).values
            low = exponent_sequence(S, 0, k).values
            high = exponent_sequence(S, 1, k).values
            assert all(low[i] <= mid[i] <= high[i] for i in range(k + 1))

    def test_deep_progression_is_certified(self):
        # step 2^20: every valuation gains 20, so the greedy walk descends
        # past depth 20 and alpha_i = 20*i + alpha_Z(i, 2)
        S = parse_set_spec("ap:0,1048576")
        run = b_ordering(S, 2, 20)
        assert run.exponents == [20 * i + alpha_Z(i, 2) for i in range(21)]
        seq = exponent_sequence(S, 2, 20)
        assert seq.source == "closed-form" and as_ints(seq.values) == run.exponents

    def test_finite_sequence_runs_only_up_to_its_size(self, monkeypatch):
        S, steps = ExplicitFinite([1, 2, 4]), []  # not a progression: the greedy serves it
        original = ordering_module.greedy_step
        # the run past |S| is the reference for the padded tail
        full = b_ordering(S, 2, 12)

        def counting_greedy_step(*args, **kwargs):
            steps.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ordering_module, "greedy_step", counting_greedy_step)
        seq = exponent_sequence(S, 2, 100000)
        assert len(steps) <= 3
        assert as_ints(seq.values[:13]) == full.exponents and seq.values[13:] == [INF] * (100000 - 12)
        assert seq.certified_steps == [True] * 100001 and seq.source == "greedy"

    def test_primes_factor_the_base_once(self, monkeypatch):
        import borderings.closedforms as closedforms_module
        import borderings.numerics as numerics_module

        calls = []
        original = numerics_module.prime_factors

        def counting_prime_factors(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(numerics_module, "prime_factors", counting_prime_factors)
        monkeypatch.setattr(closedforms_module, "prime_factors", counting_prime_factors)
        numerics_module.omega_totient.cache_clear()  # factored once per process, so start cold
        seq = exponent_sequence(Primes(), 6, 100)
        assert calls == [6]
        assert [v.value for v in seq.values] == [alpha_P(k, 6) for k in range(101)]


def route_values(S, b, ks):
    """alpha_k(S, b) for each k in ks through the one route, plain ints with None for inf."""
    return invariants(S, (b,), ks)[0][1]


class TestPointQuery:
    SETS = ["Z", "N", "P", "list:-7,0,3,4,12,20", "list:5", "range:-2..3", "ap:1,4", "ap:-3,6", "ap:0,8"]

    @pytest.mark.parametrize("spec", SETS)
    @pytest.mark.parametrize("against_greedy", [False, True])
    def test_alpha_is_the_sequence_entry(self, spec, against_greedy):
        S = parse_set_spec(spec)
        for b in (0, 1, 2, 3, 6, 10):
            seq = exponent_sequence(S, b, 14)
            want = greedy(S, b, 14) if against_greedy else as_ints(seq.values)
            for k in (0, 1, 5, 9, 14):
                assert route_values(S, b, (k,)) == [want[k]], (spec, b, k)
            assert route_values(S, b, range(15)) == want
            assert route_values(S, b, (9, 2, 9)) == [want[9], want[2], want[9]]

    def test_finite_set_runs_only_up_to_its_size(self, monkeypatch):
        S, steps = ExplicitFinite([1, 2, 4]), []  # not a progression: the greedy serves it
        original = ordering_module.greedy_step

        def counting_greedy_step(*args, **kwargs):
            steps.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ordering_module, "greedy_step", counting_greedy_step)
        assert route_values(S, 2, (10**9,)) == [None]
        assert len(steps) <= 3
        assert route_values(S, 2, (2, 10**9)) == [1, None]

    def test_bases_above_the_diameter_take_the_closed_form(self, monkeypatch):
        # b above max(S) - min(S) divides no difference: 0 below |S|, INF from there
        rng = random.Random(31)
        sets = [ExplicitFinite(rng.sample(range(-60, 61), rng.randint(3, 14))) for _ in range(12)]
        sets = [S for S in sets if S.step is None]  # progressions take alpha_AP
        cases = []
        for S in sets:
            width, k = S.values[-1] - S.values[0], len(S.values) + 2
            for b in (width, width + 1, 10**30):
                cases.append((S, b, k, b_ordering(S, b, k).exponents))
        ran = []
        original = ordering_module.b_ordering

        def recording_b_ordering(S, b, k, *args, **kwargs):
            ran.append((S.spec, b))
            return original(S, b, k, *args, **kwargs)

        monkeypatch.setattr(ordering_module, "b_ordering", recording_b_ordering)
        assert len(sets) >= 10
        for S, b, k, want in cases:
            ran.clear()
            seq = exponent_sequence(S, b, k)
            assert as_ints(seq.values) == want, (S.spec, b)
            if b > S.values[-1] - S.values[0]:
                assert want == [0] * len(S.values) + [None] * 3
                assert (seq.source, ran) == ("closed-form", []), (S.spec, b)
            else:
                assert (seq.source, ran) == ("greedy", [(S.spec, b)]), (S.spec, b)

    @pytest.mark.parametrize("spec", SETS)
    def test_one_route_call_for_many_bases(self, spec):
        # plain ints (None for infinity) inside, greedy steps included; ExtNat at the boundary
        S, bases, ks = parse_set_spec(spec), (0, 1, 2, 3, 6, 10, 2), (9, 0, 14, 3)
        rows = invariants(S, bases, ks)
        assert len(rows) == len(bases)
        for b, (source, values) in zip(bases, rows):
            assert all(v is None or type(v) is int for v in values)
            run = b_ordering(S, b, max(ks))
            step = greedy_step(run.elements, b, S)
            assert all(v is None or type(v) is int for v in [*run.exponents, step.value])
            assert [run.exponents[k] for k in ks] == values
            seq = exponent_sequence(S, b, 14)
            assert source == seq.source
            assert all(type(v) is ExtNat for v in seq.values)
            assert as_ints(seq.values[k] for k in ks) == values

    def test_an_over_limit_finite_greedy_is_refused_before_any_step(self, monkeypatch):
        def no_append(self, a):
            raise AssertionError("a greedy step ran")

        monkeypatch.setattr(ordering_module._GreedyState, "append", no_append)
        # not a progression, so the greedy serves it; at b = 2 the even class
        # holds 2,301 members, and a run to k = 4,600 re-scores up to 4,600 * 2,301
        S = ExplicitFinite([*range(4600), 10**6])
        with pytest.raises(ValueError, match="re-scores up to 10,584,600 members; the limit is 10,000,000"):
            exponent_sequence(S, 2, 4600)

    def test_the_greedy_limit_is_inclusive(self, monkeypatch):
        # list:0,1,2,3,4,10 at b = 2: k = 5 times its 4 even members
        S, steps = ExplicitFinite([0, 1, 2, 3, 4, 10]), []
        original = ordering_module.greedy_step

        def counting_greedy_step(*args, **kwargs):
            steps.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ordering_module, "greedy_step", counting_greedy_step)
        monkeypatch.setattr(ordering_module, "GREEDY_WORK_MAX", 19)
        with pytest.raises(ValueError, match="re-scores up to 20 members; the limit is 19"):
            route_values(S, 2, (5,))
        assert steps == []
        monkeypatch.setattr(ordering_module, "GREEDY_WORK_MAX", 20)
        assert route_values(S, 2, (5, 7)) == [greedy(S, 2, 5)[5], None]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            route_values(AllIntegers(), -1, (3,))
        with pytest.raises(ValueError):
            route_values(ExplicitFinite([1, 2]), 2, (-1,))
        with pytest.raises(ValueError):
            route_values(AllIntegers(), 2, (4, -1))
        with pytest.raises(ValueError, match="base must be >= 0, got -3"):
            invariants(AllIntegers(), (2, 0, -3), (4,))



class TestProgressionFormula:
    """Progressions, finite or not, take alpha_AP; the certified greedy is the reference."""

    def test_finite_progressions_match_the_greedy(self):
        # k = n + 1 reads two indices of the INF tail
        for n in range(1, 14):
            for d in range(1, 25):
                for first in (0, 1, -7):
                    S = ExplicitFinite(range(first, first + n * d, d))
                    for b in range(2, 13):
                        seq = exponent_sequence(S, b, n + 1)
                        assert seq.source == "closed-form"
                        assert as_ints(seq.values) == greedy(S, b, n + 1), (n, d, first, b)

    def test_progressions_match_the_greedy(self):
        # steps sharing a factor with b included
        for d in range(1, 25):
            for first in (3, -5):
                S = ArithmeticProgression(first, d)
                for b in range(2, 13):
                    seq = exponent_sequence(S, b, 20)
                    assert seq.source == "closed-form"
                    assert as_ints(seq.values) == greedy(S, b, 20), (first, d, b)

    def test_deep_step(self):
        d = 2**60
        for S, expected in (
            (ArithmeticProgression(0, d), [60 * i + alpha_Z(i, 2) for i in range(9)]),
            (ExplicitFinite([0, d, 2 * d]), [0, 60, 121] + [None] * 6),
        ):
            seq = exponent_sequence(S, 2, 8)
            assert seq.source == "closed-form" and as_ints(seq.values) == expected
            assert as_ints(seq.values) == greedy(S, 2, 8)

    @pytest.mark.parametrize("spec", ["list:9,1,5", "list:1,1,3", "list:5,-1", "list:4"])
    def test_unsorted_and_duplicated_lists(self, spec):
        S = parse_set_spec(spec)
        for b in range(2, 13):
            seq = exponent_sequence(S, b, 5)
            assert seq.source == "closed-form"
            assert as_ints(seq.values) == greedy(S, b, 5)

    @pytest.mark.parametrize("spec", ["list:1,5,9,14", "list:0,2,3,6", "list:-3,0,3,6,10"])
    def test_one_element_off_a_progression_stays_greedy(self, spec):
        assert exponent_sequence(parse_set_spec(spec), 6, 6).source == "greedy"

    @pytest.mark.parametrize("spec", ["Z", "N", "P", "ap:3,12", "range:-4..5", "list:2,8,14,20"])
    def test_force_greedy_bypasses_every_formula(self, spec):
        S = parse_set_spec(spec)
        for b in (2, 6, 12):
            seq = exponent_sequence(S, b, 9)
            assert seq.source == "closed-form"
            assert as_ints(seq.values) == greedy(S, b, 9), (spec, b)


class TestMajorization:
    def test_greedy_prefix_equality(self):
        S = ExplicitFinite([-9, -4, 0, 1, 7, 12])
        run = b_ordering(S, 2, 5)
        report = check_majorization(S, 2, run.elements)
        assert report.ok
        assert report.equality_positions == list(range(6))

    def test_strict_dominance_case(self):
        # odd numbers only: every difference is even, so prefix sums
        # exceed the invariants strictly from the second step on
        report = check_majorization(AllIntegers(), 2, [1, 3, 5, 7])
        assert report.ok
        assert as_ints(report.sequence_values) == [0, 1, 3, 4]
        assert report.equality_positions == [0]

    def test_reversed_run_is_also_an_ordering(self):
        # reflection symmetry makes 5,4,...,0 an initial 2-ordering of Z
        report = check_majorization(AllIntegers(), 2, [5, 4, 3, 2, 1, 0])
        assert report.ok and report.equality_positions == list(range(6))

    def test_random_sequences_dominate(self):
        rng = random.Random(29)
        for _ in range(50):
            values = sorted(rng.sample(range(-40, 41), rng.randint(3, 9)))
            S = ExplicitFinite(values)
            b = rng.randint(2, 12)
            seq = [rng.choice(values) for _ in range(rng.randint(2, 7))]
            assert check_majorization(S, b, seq).ok

    def test_element_validation(self):
        with pytest.raises(ValueError):
            check_majorization(Primes(), 2, [2, 4])


class TestIncrementalKernel:
    # element lists recorded from the engine that re-summed the prefix for
    # every candidate at every step; the running-value kernel must make the
    # same random draws in the same order
    RANDOM_RUNS = [
        ("range:0..15", 2, 20, 3,
         [7, 4, 10, 13, 1, 0, 14, 11, 6, 5, 15, 12, 9, 2, 3, 8, 0, 0, 0, 0, 0]),
        ("list:-7,-3,0,1,4,9,10,12,18,25", 6, 12, 11,
         [12, 25, 10, -3, -7, 18, 9, 1, 4, 0, 0, 0, 0]),
        ("range:-6..6", 3, 14, 5, [3, 1, 2, 6, -5, -1, -2, 5, 0, -4, -6, 4, -3, 0, 0]),
        ("ap:1,3", 2, 15, 2, [10, 1, 4, 7, 16, 19, 22, 13, 25, 34, 43, 40, 37, 46, 31, 28]),
        ("Z", 4, 12, 9, [14, 1, 0, -1, -5, -4, 6, -7, 5, 7, 8, -6, 3]),
        ("P", 6, 10, 4, [53, 3, 2, 7, 37, 11, 13, 5, 19, 29, 61]),
    ]

    @pytest.mark.parametrize("spec,b,k,seed,expected", RANDOM_RUNS)
    def test_random_tie_break_runs_are_reproduced(self, spec, b, k, seed, expected):
        run = b_ordering(parse_set_spec(spec), b, k, RandomTieBreak(seed))
        assert run.elements == expected
        assert run.exponents == as_ints(evaluate_test_sequence(run.elements, run.base))

    @pytest.mark.parametrize(
        "S,b,k,config",  # config: keyword arguments of both calls, {} for the defaults
        [
            (ExplicitFinite(range(-5, 6)), 2, 14, {}),
            (ExplicitFinite([-9, -4, 0, 1, 7, 12, 20, 33]), 6, 10, {}),
            (AllIntegers(), 3, 30, {}),
            (Primes(), 6, 25, {}),
            (ArithmeticProgression(2, 5), 10, 20, {}),
            (ArithmeticProgression(0, 4096), 2, 10, {}),
        ],
    )
    def test_greedy_step_on_every_prefix_matches_the_run(self, S, b, k, config):
        run = b_ordering(S, b, k, **config)
        for i in range(k + 1):
            res = greedy_step(run.elements[:i], b, S, **config)
            assert (res.element, res.value) == (run.elements[i], run.exponents[i]), (S.spec, b, i)

    def test_valuations_per_run_are_linear_in_steps(self, monkeypatch):
        calls = 0
        original = ordering_module.ord_b

        def counting_ord_b(b, a):
            nonlocal calls
            calls += 1
            return original(b, a)

        monkeypatch.setattr(ordering_module, "ord_b", counting_ord_b)
        rng = random.Random(48)
        S = ExplicitFinite(rng.sample(range(-500, 500), 48))
        for b in (2, 6, 10):
            calls = 0
            run = b_ordering(S, b, 47)
            assert sorted(run.elements) == sorted(S.values)
            assert calls <= 48 * (47 + 1), (b, calls)


def run_digest(run) -> str:
    payload = repr((run.elements, as_ints(run.exponents), run.certified))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestMemoizedFrontier:
    # sha256 of (elements, exponents, certified), recorded from the engine
    # that asked S for every residue status and witness at every step; the
    # fourth column holds keyword arguments of b_ordering, {} for the defaults
    CANONICAL_RUNS = [
        ("P", 6, 400, {},
         "166a7ffa5b90ec9f7994fd3ffc5afb51d6c1d6dde7fd396c678684a52130ccd3"),
        ("Z", 2, 400, {},
         "f23da30fb50d99924454de5e93e21795d3b3b441f542c9150d758398ce86d2b0"),
        ("N", 5, 100, {},
         "840a0ef5ed7bbd2f7dfeffd3aada85ab1726ff8b15193bf8598b79db5cf0f0bc"),
        ("ap:3,7", 4, 100, {},
         "24cbeb0073d7a77c97c220e3ea992fd4f3d7e846f03361cea1860310bfd3c0f8"),
        ("ap:2,6", 6, 100, {},
         "0b74c4f9cad2afb988c9a39a77892d06d3c662e6bde83b67c4e3ed433673a8ae"),
    ]
    RANDOM_RUNS = [
        ("P", 6, 60, {}, 8,
         "475fc983a20c765bb2db588c8f2697f8bea04d199c6e6e3e586bdf443356781e"),
        ("Z", 6, 80, {}, 13,
         "501a178649aa1c3c96af1d16fe3d6fb0b874f202bf4cc6f14caef9ee0717668c"),
        ("ap:-20,3", 6, 60, {}, 2,
         "15b608ee4100d083d5671f98de313679e5dfebff2f733797e7f57ff859fcbf6d"),
        ("P", 12, 120, {}, 1,
         "4000b47c467f88a8a3ba85e741bb920cf0e637e108ca45d1b799d484dc75c7b6"),
        ("N", 10, 150, {}, 3,
         "0671965e298e014575afa9d564a7baa32bc11bdde39ae8e923ab31c09ae7c8dd"),
    ]

    @pytest.mark.parametrize("spec,b,k,config,digest", CANONICAL_RUNS)
    def test_canonical_runs_are_reproduced(self, spec, b, k, config, digest):
        assert run_digest(b_ordering(parse_set_spec(spec), b, k, **config)) == digest

    @pytest.mark.parametrize("spec,b,k,config,seed,digest", RANDOM_RUNS)
    def test_random_tie_break_runs_are_reproduced(self, spec, b, k, config, seed, digest):
        run = b_ordering(parse_set_spec(spec), b, k, RandomTieBreak(seed), **config)
        assert run_digest(run) == digest

    @staticmethod
    def count_residue_questions(monkeypatch, cls):
        """Count the engine's residue_status and pick_in_class calls per (r mod m, m).

        Calls a set makes to itself (Primes.pick_in_class asks its own
        residue_status) are not the engine's and are not counted.
        """
        asked = {"residue_status": Counter(), "pick_in_class": Counter()}
        depth = [0]
        for name in asked:
            original = getattr(cls, name)

            def counting(self, r, m, *args, _name=name, _original=original, **kwargs):
                if not depth[0]:
                    asked[_name][(r % m, m)] += 1
                depth[0] += 1
                try:
                    return _original(self, r, m, *args, **kwargs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(cls, name, counting)
        return asked

    @pytest.mark.parametrize("S,b,k", [(Primes(), 6, 200), (AllIntegers(), 2, 200)])
    def test_each_residue_question_is_asked_once_per_run(self, monkeypatch, S, b, k):
        asked = self.count_residue_questions(monkeypatch, type(S))
        b_ordering(S, b, k)
        for name, counts in asked.items():
            assert counts, name
            assert max(counts.values()) == 1, (name, counts.most_common(3))


class TestPersistentFrontier:
    # sha256 of (elements, exponents, certified), recorded from the engine
    # that walked the residue frontier from the root at every step
    RUNS = [
        ("Z", 2, 1600, None, None,
         "6c948a96e71efe88b0bd4da39320be18b97dac50227743feb472a19ddbf63063"),
        ("P", 6, 800, 101, None,
         "f35c95d176050349ab6525ffbee5af65d572d77043c51b54dd4045a07e0b3aa0"),
        ("P", 12, 400, None, None,
         "b4c698643a8e71f8de965bdbb6172cc1425be332eb2f5ee45e04bb95e7027b1e"),
        ("ap:-20,3", 6, 150, None, None,
         "50bd8d51ba46ddc70debc3425b95905de17bfd42aaab8e58eb840671d9019c7a"),
        ("Z", 2, 300, None, 7,
         "bd242a9a531458b835701c04f7f3c2f1bf4d9de6773c1f661bc852e51e99b3b6"),
    ]

    @pytest.mark.parametrize("spec,b,k,start,seed,digest", RUNS)
    def test_runs_are_reproduced(self, spec, b, k, start, seed, digest):
        policy = CANONICAL if seed is None else RandomTieBreak(seed)
        run = b_ordering(parse_set_spec(spec), b, k, policy, start=start)
        assert run_digest(run) == digest

    def test_canonical_step_work_does_not_grow_with_the_tie_set(self, monkeypatch):
        # the first 1,024 elements of the run are a full residue system mod
        # 2^10, so all 1,024 classes mod 2^11 left free tie at the last step
        run = b_ordering(AllIntegers(), 2, 1024)
        state = ordering_module._GreedyState(AllIntegers(), 2)
        for a in run.elements[:-2]:
            state.append(a)
        state.step(CANONICAL)  # step 1,023 leaves its summaries, as in the run
        state.append(run.elements[-2])
        keys = 0
        original = ordering_module.canonical_key

        def counting_key(a):
            nonlocal keys
            keys += 1
            return original(a)

        monkeypatch.setattr(ordering_module, "canonical_key", counting_key)
        step = state.step(CANONICAL)
        assert (step.element, step.value) == (run.elements[-1], run.exponents[-1])
        assert keys <= 16, keys

    def test_kept_summaries_equal_fresh_ones(self):
        # an append drops only the summaries of the classes it lies in and
        # re-scores only the bucket it lies in; every summary kept, every
        # bucket with each finite member's excess, and every bucket's kept
        # minimum must equal the one a fresh state computes for the prefix
        rng = random.Random(30)
        lists = [parse_set_spec("list:" + ",".join(map(str, rng.sample(range(-1000, 1000), 48)))) for _ in range(2)]
        runs = [(Primes(), 6, 120, 20), (AllIntegers(), 3, 100, 20), (ArithmeticProgression(-20, 3), 6, 80, 20)]
        below = ProgressionPlus(ArithmeticProgression(0, 8), [2, 6, -6, 18, 3, 7])  # buckets below the root
        runs += [(below, 2, 24, 1), (below, 6, 24, 1)]
        runs += [(S, b, 46, 1) for S in lists for b in (2, 6, 10)]
        for S, b, k, every in runs:
            state = ordering_module._GreedyState(S, b)
            compared = 0
            for i in range(k + 1):
                state.append(state.step(CANONICAL).element)
                if i % every:
                    continue
                state.step(CANONICAL)
                fresh = ordering_module._GreedyState(S, b)
                for a in state.prefix:
                    fresh.append(a)
                fresh.step(CANONICAL)
                for cid, (summary, entries, finite) in fresh.nodes.items():
                    if cid in state.nodes:
                        kept, kept_entries, kept_finite = state.nodes[cid]
                        assert kept_finite == finite, (S.spec, b, i, cid)
                        for r1, bucket in kept_finite.items():
                            assert kept_entries[r1] == entries[r1] == min(bucket.values()), (S.spec, b, i, cid, r1)
                        if kept is not None and summary is not None:
                            assert kept == summary, (S.spec, i, cid)
                            compared += 1
            assert compared > 2 * (k // 20), S.spec

    @pytest.mark.parametrize(
        "first,step,extra",
        [(0, 8, [2, 6, -6, 18, 3, 7]), (-9, 27, [0, 1, 2, 4, 5, 10, 13, 40, -14]), (12, 12, [-2, 6, 18])],
    )
    def test_finite_members_below_the_root(self, first, step, extra):
        # a progression plus a few points meets some classes below the root
        # in finitely many members, whose excess each append must keep; the
        # third set opens such a node after a prefix element entered one of them
        S = ProgressionPlus(ArithmeticProgression(first, step), extra)
        window = up_to(S, 3000)
        for b in (2, 3, 4, 6):
            run = b_ordering(S, b, 24)
            for i in range(1, 25):
                best, minimizers = windowed_min(run.elements[:i], b, window)
                assert (run.exponents[i], run.elements[i]) == (best, minimizers[0]), (b, i)
            tied = b_ordering(S, b, 24, RandomTieBreak(5))
            assert tied.exponents == run.exponents

    def test_scored_subclass_ties_a_bucket_canonically(self):
        # an entry scored from a subclass's node and a bucket's least member
        # can tie at one total: the canonical key alone must decide.  In the
        # first set at b = 6, step 3 ties 13 (class 1 mod 6, infinite, scored)
        # with 35 (class 5 mod 6, a bucket) at value 1, and 13 comes first
        rng = random.Random(31)
        sets = [ProgressionPlus(ArithmeticProgression(7, 6), [-17, -16, 17, 25, 35])]
        for _ in range(8):
            ap = ArithmeticProgression(rng.randint(-20, 20), rng.randint(2, 12))
            sets.append(ProgressionPlus(ap, rng.sample(range(-40, 41), rng.randint(2, 7))))
        for S in sets:
            for b in (2, 3, 4, 6):
                run = b_ordering(S, b, 25)
                checked = 0
                for i in range(1, 26):
                    # up to 2,000 classes: the first 4 steps at least, in about 0.4 s in all
                    found = class_oracle_step(run.elements[:i], b, S, 2000)
                    if found is None:
                        break
                    assert (run.exponents[i], run.elements[i]) == found, (S.spec, b, i)
                    checked += 1
                assert checked >= 4, (S.spec, b, checked)
        assert b_ordering(sets[0], 6, 3).elements == [7, -16, 17, 13]

    def test_walk_deeper_than_the_recursion_limit(self):
        # every class mod 2^l with l <= 1500 that meets the set holds the
        # whole prefix; the walk keeps its own stack
        run = b_ordering(ArithmeticProgression(0, 2**1500), 2, 6)
        assert run.exponents == [1500 * i + alpha_Z(i, 2) for i in range(7)]
        run = b_ordering(ArithmeticProgression(0, 2**1500), 2, 6, RandomTieBreak(3))
        assert run.exponents == [1500 * i + alpha_Z(i, 2) for i in range(7)]

    def test_far_negative_progression_is_canonical(self):
        run = b_ordering(parse_set_spec("ap:-100000000,1"), 2, 4)
        assert run.elements == [0, 1, -1, 2, -2]
        assert run.exponents == [alpha_Z(i, 2) for i in range(5)]


def finite_runs_digest(S, b, start, seed) -> str:
    """sha256 of (elements, exponents) of four runs of S past exhaustion:
    canonical and RandomTieBreak(seed), each without and with `start`."""
    runs = []
    for first in (None, start):
        for policy in (CANONICAL, RandomTieBreak(seed)):
            run = b_ordering(S, b, len(S.values) + 1, policy, start=first)
            runs.append((run.elements, as_ints(run.exponents)))
    return hashlib.sha256(repr(runs).encode()).hexdigest()


class TestFiniteRuns:
    # recorded from the engine that scanned every member of a finite S at
    # every step; bases run from 2 past the diameter (which divides no
    # difference) to 10**25, and the third and fourth columns are the
    # start and the random seed
    RUNS = [
        ("list:-7,-3,0,1,4,9,10,12,18,25", 2, 9, 11,
         "ee1b79198a2d21f650da191478893c04bb9b294174708629b35c4e737cf076f9"),
        ("list:-7,-3,0,1,4,9,10,12,18,25", 3, 9, 11,
         "0af9a756b7b6b13dc49499ddb0c6e3a26e1b43a452bd24d4c6c90d53d60cd205"),
        ("list:-7,-3,0,1,4,9,10,12,18,25", 6, 9, 11,
         "722c9ce500cd78a717023e5a7f7a2a02f361b53b35b83359f6dab22446f89607"),
        ("list:-7,-3,0,1,4,9,10,12,18,25", 10, 9, 11,
         "81308dc786992cf2a453c99a64a06017fb3e14380cb8b967dd3d49b041ddd47a"),
        ("list:-7,-3,0,1,4,9,10,12,18,25", 12, 9, 11,
         "3fe6a0001e71e67d3ff038ff19736a35cb16f8f2c1a867265debcf7a8bcc36aa"),
        ("list:-7,-3,0,1,4,9,10,12,18,25", 33, 9, 11,
         "ee91f9b67156cfe0daf2f47c90c4d9dd608224a9b43082fd771d441cb43a3263"),
        ("list:-7,-3,0,1,4,9,10,12,18,25", 10**25, 9, 11,
         "ee91f9b67156cfe0daf2f47c90c4d9dd608224a9b43082fd771d441cb43a3263"),
        ("list:-40,-17,-16,-5,0,2,3,8,11,27,64,65,90", 2, 27, 5,
         "55b3ab3ecd92351d94fa3975a35654bfe4ae79325e5c484d6c97db987a5e48a6"),
        ("list:-40,-17,-16,-5,0,2,3,8,11,27,64,65,90", 3, 27, 5,
         "a4946a549c327d4cd487a2d487296cbc5979f795a00c399525a620ca61fe0e6e"),
        ("list:-40,-17,-16,-5,0,2,3,8,11,27,64,65,90", 6, 27, 5,
         "630fab96154760fa11c77f2e5e9d2b94191761c0ffc608ef1ab1d659f20ff7c9"),
        ("list:-40,-17,-16,-5,0,2,3,8,11,27,64,65,90", 10, 27, 5,
         "88215c3146d763449214ec8c547d738b06797bb76f7898b9de992c8fae0d0fbb"),
        ("list:-40,-17,-16,-5,0,2,3,8,11,27,64,65,90", 12, 27, 5,
         "769f5a5fbbf69095b3dc6a0e421da88c6380df407c7e1f4289a8c4aa755a0f28"),
        ("list:-40,-17,-16,-5,0,2,3,8,11,27,64,65,90", 131, 27, 5,
         "b68eab93d73238e19988a2e42f28645bf36dbb2dd770c43d4360c996056a7bd6"),
        ("list:-40,-17,-16,-5,0,2,3,8,11,27,64,65,90", 10**25, 27, 5,
         "b68eab93d73238e19988a2e42f28645bf36dbb2dd770c43d4360c996056a7bd6"),
        ("list:1,2,4,8,16,32,64,128,256", 2, 64, 3,
         "3a9e15e50cd08af5627fb9af2119a15424708d4e3234aa8e4ef1d4441d4abe18"),
        ("list:1,2,4,8,16,32,64,128,256", 3, 64, 3,
         "78bfee5ea407e4f243498d25dba3df19b7758b585f17152a38c27a2fa1b06522"),
        ("list:1,2,4,8,16,32,64,128,256", 6, 64, 3,
         "06eafef70b58dd09fb79002934e22e1f016a22513e89909d9a93914a9819cb74"),
        ("list:1,2,4,8,16,32,64,128,256", 10, 64, 3,
         "401c70ce05ea5f767752fd046c5700915afe978ad9de3e0c4af3e77363ecd288"),
        ("list:1,2,4,8,16,32,64,128,256", 12, 64, 3,
         "23ba11ea829d4fd40901b14e67f18252fbbcb49e752ad01b9cae9c794d14d51c"),
        ("list:1,2,4,8,16,32,64,128,256", 256, 64, 3,
         "e9867ec9fb60bcf8a9b95144e5fbf5029c6e828e2130c8c95446341eba01aa52"),
        ("list:1,2,4,8,16,32,64,128,256", 10**25, 64, 3,
         "e9867ec9fb60bcf8a9b95144e5fbf5029c6e828e2130c8c95446341eba01aa52"),
        ("list:-1000,-24,-3,0,5,6,7,12,36,500,1001,1024", 2, -24, 8,
         "27e9b19ccf84c538922ca6559cde3cbe409f5d366fe719fb141d9894ffa37074"),
        ("list:-1000,-24,-3,0,5,6,7,12,36,500,1001,1024", 3, -24, 8,
         "ca45732f378b5f636ec2c338614228344383f0d86421bef9b04e72f529555421"),
        ("list:-1000,-24,-3,0,5,6,7,12,36,500,1001,1024", 6, -24, 8,
         "ed5863439894fd1c4ae63e6e9cca91edd7abb8e46bda18ca444bfc06079dc8bd"),
        ("list:-1000,-24,-3,0,5,6,7,12,36,500,1001,1024", 10, -24, 8,
         "210cfd2d29cc570870c77b260060ddddab6580812c5ae3c3e7a4c1fb06c96f50"),
        ("list:-1000,-24,-3,0,5,6,7,12,36,500,1001,1024", 12, -24, 8,
         "3e9d7a5699612dbec542bb1e9bb3dd05f6bb7ac4911671466f6a685aa4a8a9b7"),
        ("list:-1000,-24,-3,0,5,6,7,12,36,500,1001,1024", 2025, -24, 8,
         "1cc89d7c80039c7f0c18bad5ff1da4fe412f5d61119c1175170179e4eeeec16c"),
        ("list:-1000,-24,-3,0,5,6,7,12,36,500,1001,1024", 10**25, -24, 8,
         "1cc89d7c80039c7f0c18bad5ff1da4fe412f5d61119c1175170179e4eeeec16c"),
    ]

    @pytest.mark.parametrize("spec,b,start,seed,digest", RUNS)
    def test_runs_are_reproduced(self, spec, b, start, seed, digest):
        assert finite_runs_digest(parse_set_spec(spec), b, start, seed) == digest

    def test_a_finite_set_is_asked_no_residue_question(self, monkeypatch):
        def refuse(self, r, m):
            raise AssertionError(f"asked about {r} mod {m}")

        def runs():
            S = ExplicitFinite([-9, -4, 0, 1, 7, 12, 20, 33])
            return [b_ordering(S, b, 9, policy) for b in (2, 6) for policy in (CANONICAL, RandomTieBreak(4))]

        want = runs()
        monkeypatch.setattr(ExplicitFinite, "residue_status", refuse)
        monkeypatch.setattr(ExplicitFinite, "pick_in_class", refuse)
        assert runs() == want

    def test_a_base_with_many_classes(self):
        # S meets 7 of the 10**19 classes mod b: a step must not visit the others
        S = ExplicitFinite([0, 3, 7, 12, 30, 10**20, 5 * 10**19 + 1])
        b = 10**19
        run = b_ordering(S, b, 6)
        assert sorted(run.elements) == list(S.values)
        for i in range(1, 7):
            prefix = run.elements[:i]
            best, minimizers = windowed_min(prefix, b, list(S.iter_canonical()))
            assert step_value(prefix, b, run.elements[i]) == best == run.exponents[i], i
            assert run.elements[i] == minimizers[0], i
