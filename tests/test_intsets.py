"""Tests for set descriptors: membership, enumeration order, residue knowledge."""

from __future__ import annotations

import math
import random
from itertools import islice

import pytest

import borderings.intsets as intsets_module
from borderings.intsets import (
    RANGE_WIDTH_MAX,
    AllIntegers,
    ArithmeticProgression,
    ExplicitFinite,
    NonnegativeIntegers,
    Primes,
    SetSpecError,
    canonical_key,
    parse_set_spec,
)

from oracle import up_to


def _is_prime_by_trial(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestParsing:
    def test_grammar(self):
        assert isinstance(parse_set_spec("Z"), AllIntegers)
        assert isinstance(parse_set_spec("N"), NonnegativeIntegers)
        assert isinstance(parse_set_spec("P"), Primes)
        ap = parse_set_spec("ap:1,4")
        assert isinstance(ap, ArithmeticProgression)
        assert (ap.first, ap.step) == (1, 4)
        s = parse_set_spec("list:3,1,2,2")
        assert s.values == (1, 2, 3)
        r = parse_set_spec("range:-2..2")
        assert r.values == (-2, -1, 0, 1, 2)

    def test_file_spec(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("5\n-3\n8\n")
        s = parse_set_spec(f"file:{path}")
        assert s.values == (-3, 5, 8)

    def test_errors(self):
        # one wrap: a known kind names its spec and the reason it was refused
        reasons = {
            "ap:1": "not enough values to unpack (expected 2, got 1)",
            "ap:1,2,3": "too many values to unpack (expected 2)",
            "ap:1,0": "progression step must be positive, got 0",
            "list:": "explicit set must be nonempty",
            "list:2,,x": "invalid literal for int() with base 10: 'x'",
            "range:5": "expected range:lo..hi",
            "range:abc": "expected range:lo..hi",
            "range:5..1": "explicit set must be nonempty",
            "range:a..b": "invalid literal for int() with base 10: 'a'",
            "file:/nonexistent": "[Errno 2] No such file or directory: '/nonexistent'",
        }
        for spec, reason in reasons.items():
            with pytest.raises(SetSpecError) as info:
                parse_set_spec(f" {spec}\n")
            assert str(info.value) == f"bad set spec {spec!r}: {reason}"
        for spec in ("???", "list", "range", "ap", "Z:"):
            with pytest.raises(SetSpecError) as info:
                parse_set_spec(spec)
            assert str(info.value) == f"unrecognised set spec {spec!r}"
        with pytest.raises(SetSpecError):
            ExplicitFinite([])

    def test_oversized_range_is_refused_before_it_is_built(self, monkeypatch):
        lo = -7
        widest = f"range:{lo}..{lo + RANGE_WIDTH_MAX - 1}"
        assert len(parse_set_spec(widest).values) == RANGE_WIDTH_MAX

        def refuse(*args, **kwargs):
            raise AssertionError("ExplicitFinite built for an oversized range")

        monkeypatch.setattr(intsets_module, "ExplicitFinite", refuse)
        with pytest.raises(SetSpecError, match="limit"):
            parse_set_spec(f"range:{lo}..{lo + RANGE_WIDTH_MAX}")

    def test_oversized_list_is_refused_before_it_is_built(self, monkeypatch):
        # built in process: one argv string is capped near 128 KiB
        widest = "list:" + ",".join(map(str, range(RANGE_WIDTH_MAX)))
        assert len(parse_set_spec(widest).values) == RANGE_WIDTH_MAX

        def refuse(*args, **kwargs):
            raise AssertionError("ExplicitFinite built for an oversized list")

        monkeypatch.setattr(intsets_module, "ExplicitFinite", refuse)
        over = f"{RANGE_WIDTH_MAX + 1} members; the limit is {RANGE_WIDTH_MAX}"
        with pytest.raises(SetSpecError, match=over):
            parse_set_spec(widest + f",{RANGE_WIDTH_MAX}")

    def test_oversized_file_stops_reading_at_the_limit(self, tmp_path):
        # a bad line past the limit is never read, so the size error wins
        path = tmp_path / "set.txt"
        path.write_text("".join(f"{v}\n" for v in range(RANGE_WIDTH_MAX + 1)) + "x\n")
        over = f"{RANGE_WIDTH_MAX + 1} members; the limit is {RANGE_WIDTH_MAX}"
        with pytest.raises(SetSpecError, match=over):
            parse_set_spec(f"file:{path}")


class TestEnumeration:
    def test_canonical_order_examples(self):
        assert up_to(AllIntegers(), 2) == [0, 1, -1, 2, -2]
        assert up_to(Primes(), 10) == [2, 3, 5, 7]
        assert up_to(ExplicitFinite(range(6)), 100) == [0, 1, 2, 3, 4, 5]
        assert up_to(NonnegativeIntegers(), 3) == [0, 1, 2, 3]
        assert up_to(ExplicitFinite([-2, 2, 1]), 2) == [1, 2, -2]

    def test_iter_canonical_matches_bounded(self):
        for S in (AllIntegers(), Primes(), ArithmeticProgression(1, 4)):
            head = list(islice(S.iter_canonical(), 12))
            assert sorted(head, key=canonical_key) == head
            assert all(S.contains(a) for a in head)

    def test_progression_enumeration_matches_a_brute_force_oracle(self):
        # the first n members in canonical order, for every n <= 40: the 40
        # smallest nonnegative members all lie within reach, so every member
        # past it comes later
        n = 40
        for first in range(-120, 121):
            for step in range(1, 13):
                reach = abs(first) + n * step
                members = [
                    x for x in range(-reach, reach + 1) if x >= first and (x - first) % step == 0
                ]
                want = sorted(members, key=canonical_key)[:n]
                got = list(islice(ArithmeticProgression(first, step).iter_canonical(), n))
                assert got == want, (first, step)

    def test_membership(self):
        assert Primes().contains(97)
        assert not Primes().contains(91)
        assert ArithmeticProgression(1, 4).contains(13)
        assert not ArithmeticProgression(1, 4).contains(-3)  # one-sided
        assert not ExplicitFinite(range(6)).contains(6)
        assert AllIntegers().contains(-(10**12))

    def test_cardinality(self):
        assert ExplicitFinite(range(6)).cardinality == 6
        assert AllIntegers().cardinality is None
        assert Primes().cardinality is None
        assert ArithmeticProgression(-5, 4).cardinality is None

    def test_progression_step(self):
        assert ExplicitFinite(range(-4, 6)).step == 1
        assert ExplicitFinite([9, 1, 5]).step == 4
        assert ExplicitFinite([1, 1, 3]).step == 2
        assert ExplicitFinite([7]).step == 1
        assert parse_set_spec("list:3,-1").step == 4
        assert ExplicitFinite([1, 2, 4]).step is None
        # span 3 * 2 and first gap 2, yet not equally spaced
        assert ExplicitFinite([0, 2, 3, 6]).step is None
        # a small first gap and a huge span: the check compares neighbours and
        # never lists the span
        assert ExplicitFinite([0, 1, 10**20]).step is None
        assert ExplicitFinite([0, 1, 3 * 10**9]).step is None
        assert ExplicitFinite([-(10**30), 0, 10**30]).step == 10**30


class TestResidueStatus:
    def test_primes_examples(self):
        P = Primes()
        assert P.residue_status(3, 4) is None
        assert P.residue_status(0, 4) == ()
        assert P.residue_status(2, 4) == (2,)
        assert P.residue_status(3, 9) == (3,)

    def test_consistency_with_scan(self):
        # a class is infinite exactly when it holds members in every shell
        # bounds[i-1] < |a| <= bounds[i]; a finite answer lists the scan's
        # members of the class in canonical order, and pick_in_class reads
        # its first one
        bounds = (0, 10**2, 10**3, 10**4)
        sets = [
            AllIntegers(),
            NonnegativeIntegers(),
            Primes(),
            parse_set_spec("ap:2,6"),
            parse_set_spec("ap:-5,4"),
        ]
        for S in sets:
            scan = up_to(S, bounds[-1])
            for m in (2, 3, 4, 5, 8, 9, 12):
                for r in range(m):
                    in_class = [a for a in scan if a % m == r]
                    every_shell = all(
                        any(lo < abs(a) <= hi for a in in_class) for lo, hi in zip(bounds, bounds[1:])
                    )
                    members = S.residue_status(r, m)
                    assert (members is None) == every_shell, (S.spec, r, m)
                    if members is not None:
                        assert members == tuple(in_class), (S.spec, r, m)
                        assert S.pick_in_class(r, m) == (members[0] if members else None)


class TestPickInClass:
    def test_examples(self):
        assert Primes().pick_in_class(1, 4) == 5
        assert AllIntegers().pick_in_class(2, 5) == 2
        assert AllIntegers().pick_in_class(4, 5) == -1

    def test_result_is_canonical_member(self):
        sets = [
            AllIntegers(),
            NonnegativeIntegers(),
            Primes(),
            ArithmeticProgression(-5, 4),
        ]
        for S in sets:
            for m in (2, 3, 5, 9):
                for r in range(m):
                    if S.residue_status(r, m) == ():
                        continue
                    a = S.pick_in_class(r, m)
                    assert a is not None
                    assert S.contains(a) and a % m == r
                    # nothing smaller in canonical order sits in the class
                    for x in up_to(S, abs(a)):
                        if canonical_key(x) < canonical_key(a):
                            assert x % m != r

    def test_primes_match_a_trial_division_oracle(self):
        # every class mod m <= 60: a coprime class's least prime, or a
        # non-coprime class's one prime or None
        bound = 10**4
        primes = [x for x in range(2, bound) if _is_prime_by_trial(x)]
        for m in range(2, 61):
            for r in range(m):
                want = next((p for p in primes if p % m == r), None)
                if want is None:
                    assert math.gcd(r, m) > 1, (r, m)
                assert Primes().pick_in_class(r, m) == want, (r, m)

    @pytest.mark.parametrize("r,m", [(1, 10**7 + 1), (4, 10**7 + 19), (10**7 - 1, 2 * 10**7), (12345, 3 * 10**7 + 1)])
    def test_primes_search_past_ten_million(self, r, m):
        # r is not prime, so every candidate the search tries past it exceeds
        # 10^7; it steps by m until a prime and returns the least one
        assert math.gcd(r, m) == 1
        a = Primes().pick_in_class(r, m)
        assert a is not None and a % m == r and _is_prime_by_trial(a)
        assert all(not _is_prime_by_trial(x) for x in range(r, a, m))

    def test_progression_matches_a_brute_force_oracle(self):
        # the witness is computed, not searched for; `cap` is still drawn so
        # the seeded cases stay the same
        rng = random.Random(20000)
        for _ in range(5000):
            first, step = rng.randint(-120, 120), rng.randint(1, 12)
            m, cap = rng.randint(2, 24), rng.randint(0, 40)
            r = rng.randrange(m)
            S = ArithmeticProgression(first, step)
            case = (first, step, r, m, cap)
            reach = abs(first) + math.lcm(step, m)  # the class's least member is within reach
            want = next((x for x in up_to(AllIntegers(), reach) if S.contains(x) and x % m == r), None)
            assert S.pick_in_class(r, m) == want, case

    def test_far_negative_progression(self):
        # neither the witnesses nor the enumeration list the span down to first
        S = ArithmeticProgression(-(10**12), 1)
        assert S.pick_in_class(0, 2) == 0
        assert S.pick_in_class(1, 2) == 1
        assert list(islice(S.iter_canonical(), 5)) == [0, 1, -1, 2, -2]
        assert up_to(S, -1) == []

    def test_negative_first_progression(self):
        S = ArithmeticProgression(-10, 3)
        a = S.pick_in_class(2, 9)
        assert a is not None and S.contains(a) and a % 9 == 2
