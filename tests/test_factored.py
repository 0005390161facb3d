"""Tests for factored numbers, their conventions, and base-set resolution."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import borderings.factored as factored_module
from borderings.factored import (
    AUTO_K_MAX_P,
    AUTO_K_MAX_Z,
    BASE_SPEC_MAX,
    BaseSet,
    BaseSetError,
    FactoredNumber,
    group_digits,
    parse_base_spec,
)
from borderings.intsets import AllIntegers, ArithmeticProgression, NonnegativeIntegers, Primes
from borderings.numerics import INF, ExtNat, omega_totient


class TestConventions:
    def test_empty_product_is_one(self):
        assert FactoredNumber.one().value() == 1
        assert FactoredNumber({}).format_factored() == "1"
        assert FactoredNumber({5: 0}).format_factored() == "1"  # exponent 0 elided

    def test_zero_conventions(self):
        assert FactoredNumber({0: INF}).value() == 0
        assert FactoredNumber({2: INF}).value() == 0
        assert FactoredNumber({0: 3}).value() == 0  # 0^3 = 0
        assert FactoredNumber({0: 0}).value() == 1  # 0^0 = 1
        assert FactoredNumber({2: INF}) == FactoredNumber.zero()  # normalised marker

    def test_one_to_infinity_is_one(self):
        F = FactoredNumber({1: INF})
        assert F.value() == 1
        assert not F.is_zero
        assert F.format_factored() == "1^inf"

    def test_plain_product(self):
        F = FactoredNumber({2: 7, 3: 3})
        assert F.value() == 3456
        assert F.format_factored() == "2^7 * 3^3"


class TestArithmetic:
    def test_multiplication_merges(self):
        a = FactoredNumber({2: 3, 5: 1})
        b = FactoredNumber({2: 1, 3: 2})
        assert (a * b).value() == a.value() * b.value()
        assert (a * FactoredNumber.zero()).is_zero

    def test_refine_to_primes(self):
        assert FactoredNumber({6: 2}).refine_to_primes() == FactoredNumber({2: 2, 3: 2})
        mixed = FactoredNumber({2: 1, 4: 2, 12: 1})
        assert mixed.refine_to_primes() == FactoredNumber({2: 7, 3: 1})
        prime_only = FactoredNumber({2: 5, 7: 1})
        assert prime_only.refine_to_primes() == prime_only
        assert FactoredNumber.zero().refine_to_primes().is_zero
        assert FactoredNumber({1: INF}).refine_to_primes() == FactoredNumber.one()

    def test_divisibility(self):
        a = FactoredNumber({2: 3, 3: 1})
        b = FactoredNumber({2: 4, 3: 1, 5: 2})
        assert a.exponentwise_divides(b)
        assert not b.exponentwise_divides(a)
        assert a.integer_divides(b)
        # exponentwise is strictly stronger: 8 divides 36*? no -- pick a case
        c = FactoredNumber({6: 1})  # 6
        d = FactoredNumber({2: 1, 3: 1})  # also 6, different bases
        assert c.integer_divides(d) and d.integer_divides(c)
        assert not c.exponentwise_divides(d)

    def test_exponentwise_divides_with_infinite_exponents(self):
        unit = FactoredNumber({1: INF})
        assert unit.exponentwise_divides(unit)
        assert FactoredNumber({1: 5}).exponentwise_divides(unit)
        assert not unit.exponentwise_divides(FactoredNumber({1: 5}))
        assert not unit.exponentwise_divides(FactoredNumber({2: 5}))
        assert FactoredNumber({2: 5}).exponentwise_divides(FactoredNumber.zero()) is False


class TestBoundary:
    """Exponents are held as plain ints inside and handed out as ExtNat."""

    def test_exponents_leave_as_extnat(self):
        F = FactoredNumber({2: 3, 1: INF, 5: ExtNat(1)})
        assert all(type(e) is ExtNat for _, e in F.items())
        assert list(F.items()) == [(1, INF), (2, ExtNat(3)), (5, ExtNat(1))]
        for b in (1, 2, 3, 5):
            assert type(F.exponent(b)) is ExtNat
        assert F.exponent(3) == ExtNat(0) and F.exponent(1) == INF
        assert all(type(e) is ExtNat for _, e in FactoredNumber.zero().items())

    def test_int_and_extnat_exponents_are_the_same_number(self):
        a, b = FactoredNumber({2: ExtNat(3)}), FactoredNumber({2: 3})
        assert a == b and hash(a) == hash(b)
        assert FactoredNumber({1: INF, 3: 0}) == FactoredNumber({1: None})
        assert hash(FactoredNumber({1: INF})) == hash(FactoredNumber({1: None}))

    def test_infinite_exponent_on_a_real_base_is_zero(self):
        F = FactoredNumber({2: INF, 3: 4})
        assert F.is_zero and F == FactoredNumber.zero() and F.value() == 0

    @pytest.mark.parametrize("e", [-1, -(10**30)])
    def test_negative_exponent_raises(self, e):
        with pytest.raises(ValueError):
            FactoredNumber({2: e})
        with pytest.raises(ValueError):
            FactoredNumber.parse(f"3 * 2^{e}")

    @pytest.mark.parametrize("e", [1.0, "2", True])
    def test_non_integer_exponent_raises(self, e):
        with pytest.raises(TypeError):
            FactoredNumber({2: e})


factored_numbers = st.dictionaries(
    st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15]),
    st.one_of(st.integers(min_value=0, max_value=40).map(ExtNat), st.just(INF)),
    max_size=5,
).map(FactoredNumber)


class TestTextFormat:
    def test_examples(self):
        assert FactoredNumber({2: 24, 3: 10, 5: 3, 7: 1, 11: 1}).format_factored() == (
            "2^24 * 3^10 * 5^3 * 7 * 11"
        )
        assert FactoredNumber.zero().format_factored() == "0"
        assert FactoredNumber.parse("2^24 * 3^10 * 5^3 * 7 * 11").value() == 9535274090496000
        assert FactoredNumber.parse("0").is_zero
        assert FactoredNumber.parse("1") == FactoredNumber.one()

    def test_lone_base_one_keeps_its_exponent(self):
        # bare "1" is the empty product, so 1^1 alone must say so
        assert FactoredNumber({1: 1}).format_factored() == "1^1"
        assert FactoredNumber.parse("1^1") == FactoredNumber({1: 1}) != FactoredNumber.one()
        assert FactoredNumber({1: 1, 2: 1}).format_factored() == "1 * 2"

    @given(factored_numbers)
    @example(FactoredNumber({1: 1}))
    def test_round_trip(self, F):
        assert FactoredNumber.parse(F.format_factored()) == F

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            FactoredNumber.parse("2^3 * 2")
        with pytest.raises(ValueError):
            FactoredNumber.parse("2^3 * * 5")

    def test_group_digits(self):
        assert group_digits(9535274090496000) == "9,535,274,090,496,000"
        assert group_digits(7) == "7"


class TestBaseSets:
    def test_explicit_and_range(self):
        assert BaseSet.explicit([5, 2, 2, 0]).resolve() == (0, 2, 5)
        assert BaseSet.range(2, 6).resolve() == (2, 3, 4, 5, 6)
        assert BaseSet.primes_up_to(12).resolve() == (2, 3, 5, 7, 11)
        assert BaseSet.all_up_to(5).resolve() == (2, 3, 4, 5)

    def test_auto_for_integers(self):
        Z = AllIntegers()
        assert BaseSet.auto().resolve(Z, 6) == (2, 3, 4, 5, 6)
        assert BaseSet.auto().resolve(Z, 1) == ()

    def test_auto_for_primes_cutoff(self):
        P = Primes()
        for k in (3, 5, 8, 12):
            bases = BaseSet.auto().resolve(P, k)
            assert all(sum(omega_totient(b)) <= k for b in bases)
            # nothing above the resolved list can still qualify
            top = max(bases)
            for b in range(top + 1, 2 * k * k + 2):
                assert sum(omega_totient(b)) > k
        assert BaseSet.auto().resolve(P, 3) == (2, 3, 4)

    def test_auto_for_primes_sieve_matches_trial_division(self):
        # the sieve gives the same bases as filtering with totient and omega
        n = 2 * AUTO_K_MAX_P**2 + 1
        weight = [0, 0] + [sum(omega_totient(b)) for b in range(2, n + 1)]
        for k in range(1, AUTO_K_MAX_P + 1):
            want = tuple(b for b in range(2, 2 * k * k + 2) if weight[b] <= k)
            assert BaseSet.auto().resolve(Primes(), k) == want, k

    @pytest.mark.parametrize(
        "S,limit",
        [(AllIntegers(), AUTO_K_MAX_Z), (NonnegativeIntegers(), AUTO_K_MAX_Z), (Primes(), AUTO_K_MAX_P)],
    )
    def test_auto_refuses_k_past_its_limit_before_any_work(self, monkeypatch, S, limit):
        def no_work(n):
            raise AssertionError("the totient sieve ran past the k limit")

        monkeypatch.setattr(factored_module, "totients_and_omegas", no_work)
        with pytest.raises(BaseSetError, match=f"k <= {limit}"):
            BaseSet.auto().resolve(S, limit + 1)

    def test_limits_cover_what_the_library_asks_for(self):
        # verify and the CLI tests resolve auto bases up to k = 48 for Z and
        # k = 26 for P; the limits stay well above both
        assert AUTO_K_MAX_Z >= 48 and AUTO_K_MAX_P >= 26
        assert BaseSet.auto().resolve(AllIntegers(), AUTO_K_MAX_Z)[-1] == AUTO_K_MAX_Z
        assert BaseSet.auto().resolve(Primes(), 26)[-1] == 72

    def test_prime_cutoff_below_two_is_rejected(self):
        for cutoff in (-3, 0, 1):
            with pytest.raises(BaseSetError):
                BaseSet.primes_up_to(cutoff)
            with pytest.raises(BaseSetError):
                parse_base_spec(f"primes:{cutoff}")
        assert BaseSet.primes_up_to(2).resolve() == (2,)
        assert BaseSet.explicit([]).resolve() == ()  # an empty list stays legal

    @pytest.mark.parametrize(
        "spec,widest,count",
        [
            ("upto:{}", BASE_SPEC_MAX, BASE_SPEC_MAX - 1),
            ("primes:{}", BASE_SPEC_MAX, 1229),
            ("range:7..{}", BASE_SPEC_MAX + 6, BASE_SPEC_MAX),
        ],
    )
    def test_oversized_base_spec_is_refused_before_it_is_built(self, monkeypatch, spec, widest, count):
        assert len(parse_base_spec(spec.format(widest)).resolve()) == count

        def no_work(*args, **kwargs):
            raise AssertionError("a base list was built past the size limit")

        monkeypatch.setattr(factored_module, "primes_up_to", no_work)
        monkeypatch.setattr(BaseSet, "resolve", no_work)
        with pytest.raises(BaseSetError, match="limit"):
            parse_base_spec(spec.format(widest + 1))

    def test_oversized_base_list_is_refused(self):
        widest = "list:" + ",".join(map(str, range(2, BASE_SPEC_MAX + 2)))
        assert len(parse_base_spec(widest).resolve()) == BASE_SPEC_MAX
        assert len(parse_base_spec(widest + ",2,3").resolve()) == BASE_SPEC_MAX  # repeats count once
        over = f"base list length {BASE_SPEC_MAX + 1} is over the limit {BASE_SPEC_MAX}"
        with pytest.raises(BaseSetError, match=over):
            parse_base_spec(widest + f",{BASE_SPEC_MAX + 2}")
        with pytest.raises(BaseSetError, match=over):
            BaseSet.explicit(range(BASE_SPEC_MAX + 1))

    def test_auto_needs_known_set(self):
        with pytest.raises(BaseSetError):
            BaseSet.auto().resolve(ArithmeticProgression(1, 4), 5)
        with pytest.raises(BaseSetError):
            BaseSet.auto().resolve(AllIntegers(), None)

    def test_parse_base_spec(self):
        assert parse_base_spec("auto") == BaseSet.auto()
        assert parse_base_spec("upto:9").resolve() == tuple(range(2, 10))
        assert parse_base_spec("primes:7").resolve() == (2, 3, 5, 7)
        assert parse_base_spec("list:0,1,6").resolve() == (0, 1, 6)
        assert parse_base_spec("range:3..5").resolve() == (3, 4, 5)
        for bad in ("nope", "upto:x", "range:4", "list:a"):
            with pytest.raises(BaseSetError):
                parse_base_spec(bad)
