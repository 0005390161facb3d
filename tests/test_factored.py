"""Tests for factored numbers, their conventions, and base-set resolution."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import borderings.factored as factored_module
from borderings.factored import (
    BASE_SPEC_MAX,
    BaseSet,
    BaseSetError,
    FactoredNumber,
    group_digits,
    parse_base_spec,
)
from borderings.factorials import factorial, gen_binomial, gen_integer
from borderings.intsets import AllIntegers, ArithmeticProgression, Primes, parse_set_spec
from borderings.numerics import INF, ExtNat, primes_up_to
from borderings.ordering import invariants
from oracle import totients_and_omegas

# one set of each kind `auto` resolves for, with the largest k each test asks
# of it; `file:` is read from a temporary file holding FILE_MEMBERS
FILE_MEMBERS = (3, -1, 4, 1, -5, 9, 2, -6)
AUTO_SETS = {
    "Z": 8, "N": 8, "P": 8, "ap:3,7": 8, "ap:-20,6": 8,
    "list:-9,0,4,5,12,31,-40": 7, "range:-3..8": 12, "file:": len(FILE_MEMBERS),
}


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
        # the first k+1 primes span p_(k+1) - 2
        for k in (0, 5, 8, 12):
            assert BaseSet.auto().resolve(Primes(), k) == tuple(range(2, primes_up_to(100)[k] - 1)), k
        assert BaseSet.auto().resolve(Primes(), 3) == (2, 3, 4, 5)

    def test_auto_for_primes_matches_the_totient_support(self):
        # alpha_k(P, b) > 0 exactly when totient(b) + omega(b) <= k.  Every
        # such b lies below 6,803 for k <= 1228: totient(b) >= sqrt(b/2) puts b
        # below 2k^2 < 2*3*5*...*19, so b has at most 7 prime factors and
        # totient(b)/b >= (1/2)(2/3)(4/5)(6/7)(10/11)(12/13)(16/17) > 0.1805
        phi, omegas = totients_and_omegas(BASE_SPEC_MAX)
        for k in [*range(101), 1228]:
            support = [b for b in range(2, BASE_SPEC_MAX + 1) if phi[b] + omegas[b] <= k]
            assert factorial(Primes(), BaseSet.auto(), k) == factorial(Primes(), BaseSet.explicit(support), k), k

    @pytest.mark.parametrize("spec", sorted(AUTO_SETS))
    def test_auto_refuses_k_past_its_limit_before_any_work(self, monkeypatch, tmp_path, spec):
        S = _auto_set(spec, tmp_path)

        def no_work(*args, **kwargs):
            raise AssertionError("auto bases read the set past the k limit")

        monkeypatch.setattr(type(S), "iter_canonical", no_work)
        with pytest.raises(BaseSetError, match=f"k for auto bases {BASE_SPEC_MAX + 1} is over the limit"):
            BaseSet.auto().resolve(S, BASE_SPEC_MAX + 1)

    def test_limits_cover_what_the_library_asks_for(self):
        # verify and the CLI tests resolve auto bases up to k = 48 for Z and
        # k = 26 for P; the width limit stays well above both
        assert BaseSet.auto().resolve(AllIntegers(), 48)[-1] == 48
        assert BaseSet.auto().resolve(Primes(), 26)[-1] == 101  # 103 - 2
        # the largest k each resolves for: Z spans k, P spans p_(k+1) - 2
        assert BaseSet.auto().resolve(AllIntegers(), BASE_SPEC_MAX)[-1] == BASE_SPEC_MAX
        assert BaseSet.auto().resolve(Primes(), 1228)[-1] == 9971  # 9973 - 2
        with pytest.raises(BaseSetError, match="auto base cutoff 10005 is over the limit"):
            BaseSet.auto().resolve(Primes(), 1229)  # 10007 - 2
        # a small k whose members span far: 0, 10000, 20000
        assert BaseSet.auto().resolve(parse_set_spec("ap:0,5000"), 2)[-1] == BASE_SPEC_MAX
        with pytest.raises(BaseSetError, match="auto base cutoff 20000 is over the limit"):
            BaseSet.auto().resolve(parse_set_spec("ap:0,10000"), 2)

    @pytest.mark.parametrize("spec", sorted(AUTO_SETS))
    def test_auto_matches_a_cutoff_above_the_diameter(self, tmp_path, spec):
        S, top = _auto_set(spec, tmp_path), AUTO_SETS[spec]
        wide = BaseSet.range(2, 300)  # three times every diameter here, or more
        assert all(b < 100 for k in range(top + 2) for b in BaseSet.auto().resolve(S, k))
        for k in range(top + 2):
            assert factorial(S, BaseSet.auto(), k) == factorial(S, wide, k), k
            if k >= 1:
                assert gen_integer(S, BaseSet.auto(), k) == gen_integer(S, wide, k), k
        for k in range(min(top, 6) + 1):
            for ell in range(k + 1):
                assert gen_binomial(S, BaseSet.auto(), k, ell) == gen_binomial(S, wide, k, ell), (k, ell)

    @pytest.mark.parametrize("spec", sorted(AUTO_SETS))
    def test_no_base_above_the_width_carries_an_exponent(self, tmp_path, spec):
        S, top = _auto_set(spec, tmp_path), AUTO_SETS[spec]
        for k in range(min(top, S.cardinality or top + 1)):
            bases = BaseSet.auto().resolve(S, k)
            width = bases[-1] if bases else 1
            above = range(width + 1, width + 41)
            for b, (_, values) in zip(above, invariants(S, above, range(k + 1))):
                assert values == [0] * (k + 1), (k, b)

    def test_finite_set_past_its_size_gives_zero(self):
        for spec in ("list:5", "list:0", "list:1,2,3", "list:-9,0,4,5,12,31,-40"):
            S = parse_set_spec(spec)
            n = S.cardinality
            assert BaseSet.auto().resolve(S, n - 1) == tuple(range(2, max(S.values) - min(S.values) + 1))
            for k in (n, n + 1, n + 5):
                assert BaseSet.auto().resolve(S, k) == (2,)
                assert factorial(S, BaseSet.auto(), k) == FactoredNumber.zero(), (spec, k)
                assert gen_integer(S, BaseSet.auto(), k) == FactoredNumber.zero(), (spec, k)

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

    def test_auto_needs_the_index_k(self):
        assert BaseSet.auto().resolve(ArithmeticProgression(1, 4), 5) == tuple(range(2, 21))
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


def _auto_set(spec: str, tmp_path):
    if spec == "file:":
        path = tmp_path / "set.txt"
        path.write_text("".join(f"{a}\n" for a in FILE_MEMBERS))
        spec += str(path)
    return parse_set_spec(spec)
