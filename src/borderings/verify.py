"""Verification suites: seeded, deterministic property checks at desk scale.

Each suite draws its instances from a single seeded RNG, so identical
(seed, scale) runs check identical instances.  A failed instance carries
enough parameters to rerun it by hand; failures indicate implementation
bugs, not counterexamples to the underlying theory.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations_with_replacement, takewhile

from . import closedforms, tables
from .factored import BaseSet, FactoredNumber
from .factorials import (
    factorial,
    gen_binomial,
    gen_integer,
    nu_bar,
    pairwise_multiple_check,
    row_product,
    row_product_direct,
)
from .intsets import AllIntegers, ExplicitFinite, Primes
from .numerics import floor_sum, is_prime, ord_b, totient, omega
from .ordering import (
    CANONICAL,
    RandomTieBreak,
    b_ordering,
    check_majorization,
    evaluate_multiplicative,
    evaluate_test_sequence,
    exponent_sequence,
)
from .series import (
    TruncatedSeries,
    maxmin_check,
    phi_b,
    t_ordering,
)


@dataclass
class Instance:
    name: str
    params: dict
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    scale: float
    instances: list[Instance] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.instances)

    @property
    def failures(self) -> list[Instance]:
        return [i for i in self.instances if not i.passed]

    def add(self, name: str, params: dict, passed: bool, detail: str = "") -> None:
        self.instances.append(Instance(name, params, bool(passed), detail))

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "scale": self.scale,
            "passed": self.passed,
            "checked": len(self.instances),
            "failed": len(self.failures),
            "instances": [asdict(i) for i in self.instances],
        }


# Largest --scale: every instance count grows with it, and the closed-forms
# suite faster than linearly.  On a 2-vCPU Xeon under Python 3.11,
# `verify --suite all --seed 7` takes about 1.6 s at scale 1, 3.6 s at 2
# and 19 s at 5; closed-forms alone takes 112 s at 10.
SCALE_MAX = 5.0


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _random_finite_set(rng: random.Random, max_size: int = 12, span: int = 50) -> ExplicitFinite:
    return ExplicitFinite(rng.sample(range(-span, span + 1), rng.randint(2, max_size)))


def _values_str(values) -> str:
    return ",".join(str(v) for v in values)


def _tie_invariance(rng: random.Random, run, starts, reruns: int) -> str:
    """The first rerun whose exponents differ from run(CANONICAL)'s, or "" if none does.

    `run(policy, start=...)` orders with the given tie-break; each of the
    `reruns` reruns draws its RandomTieBreak seed, then its start from `starts`.
    """
    reference = run(CANONICAL).exponents
    for variant in range(1, reruns + 1):
        policy = RandomTieBreak(rng.randrange(1 << 30))
        exponents = run(policy, start=rng.choice(starts)).exponents
        if exponents != reference:
            return f"variant {variant}: {exponents} != {reference}"
    return ""


def _closed_form_miss(values, formula, b: int) -> str:
    """The first k with values[k] != formula(k, b), or "" if there is none."""
    for k, v in enumerate(values):
        if v != (want := formula(k, b)):
            return f"alpha_{k} = {v}, formula gives {want}"
    return ""


def _superadditivity_miss(alphas) -> str:
    """The first (k, l) with alphas[k + l] < alphas[k] + alphas[l], or "" if there is none."""
    for k in range(len(alphas)):
        for ell in range(len(alphas) - k):
            if alphas[k + ell] < alphas[k] + alphas[ell]:
                return f"alpha_{k + ell} < alpha_{k} + alpha_{ell}"
    return ""


# ---------------------------------------------------------------------------
# suites


def _suite_well_definedness(rep: SuiteReport, rng: random.Random) -> None:
    for i in range(_count(100, rep.scale)):
        S = _random_finite_set(rng)
        k = len(S.values) + 1  # run past exhaustion to cover the infinite tail
        detail = ""
        for b in range(2, 13):
            if detail := _tie_invariance(rng, partial(b_ordering, S, b, k), S.values, 4):
                detail = f"b={b} {detail}"
                break
        rep.add("identical-exponents", {"set": _values_str(S.values), "k": k}, not detail, detail)


def _suite_majorization(rep: SuiteReport, rng: random.Random) -> None:
    n_seqs = _count(200, rep.scale)
    sets = [("finite", None), ("Z", AllIntegers()), ("P", Primes())]
    for i in range(n_seqs):
        kind, S = sets[i % len(sets)]
        if S is None:
            S = _random_finite_set(rng)
            pool = S.values
        else:
            pool = list(takewhile(lambda a: abs(a) <= 60, S.iter_canonical()))
        b = rng.randint(2, 12)
        length = rng.randint(2, 8)
        seq = [rng.choice(pool) for _ in range(length)]
        report = check_majorization(S, b, seq)
        rep.add(
            "prefix-sum-dominance",
            {"set": S.spec, "b": b, "seq": _values_str(seq)},
            report.ok,
            f"violations at m={report.violations}" if not report.ok else "",
        )
    # equality case: initial b-orderings meet the invariants at every prefix
    for i in range(_count(40, rep.scale)):
        S = _random_finite_set(rng, max_size=10)
        b = rng.randint(2, 12)
        k = rng.randint(1, len(S.values) - 1)
        run = b_ordering(S, b, k)
        report = check_majorization(S, b, run.elements)
        ok = report.ok and report.equality_positions == list(range(k + 1))
        rep.add(
            "equality-on-greedy-prefix",
            {"set": _values_str(S.values), "b": b, "k": k},
            ok,
            f"equalities={report.equality_positions}" if not ok else "",
        )


def _suite_superadditivity(rep: SuiteReport, rng: random.Random) -> None:
    for i in range(_count(60, rep.scale)):
        S = _random_finite_set(rng)
        b = rng.randint(2, 12)
        detail = _superadditivity_miss(exponent_sequence(S, b, len(S.values) + 2).values)
        rep.add("superadditive", {"set": _values_str(S.values), "b": b}, not detail, detail)
    for S, name, k_max in ((AllIntegers(), "Z", 60), (Primes(), "P", 40)):
        for b in range(2, 13):
            detail = _superadditivity_miss(exponent_sequence(S, b, k_max).values)
            rep.add("superadditive", {"set": name, "b": b, "k_max": k_max}, not detail, detail)


def _suite_monotonicity(rep: SuiteReport, rng: random.Random) -> None:
    for i in range(_count(60, rep.scale)):
        S = _random_finite_set(rng)
        b = rng.randint(2, 12)
        k_max = len(S.values) + 2
        alphas = exponent_sequence(S, b, k_max).values
        nondecreasing = all(alphas[j] <= alphas[j + 1] for j in range(k_max))
        zeros = exponent_sequence(S, 0, k_max).values
        ones = exponent_sequence(S, 1, k_max).values
        extreme = all(zeros[j] <= alphas[j] <= ones[j] for j in range(k_max + 1))
        rep.add(
            "nondecreasing+extreme-bounds",
            {"set": _values_str(S.values), "b": b},
            nondecreasing and extreme,
        )
    # set-antitone: a subset has pointwise larger exponents
    for i in range(_count(40, rep.scale)):
        big = _random_finite_set(rng, max_size=12).values
        size = rng.randint(2, max(2, len(big) - 1))
        small = sorted(rng.sample(big, size))
        b = rng.randint(2, 12)
        k_max = len(small)
        a_small = exponent_sequence(ExplicitFinite(small), b, k_max).values
        a_big = exponent_sequence(ExplicitFinite(big), b, k_max).values
        ok = all(a_small[j] >= a_big[j] for j in range(k_max + 1))
        rep.add(
            "set-antitone",
            {"small": _values_str(small), "big": _values_str(big), "b": b},
            ok,
        )
    # additive values never exceed multiplicative ones; equality at prime b
    for i in range(_count(60, rep.scale)):
        values = _random_finite_set(rng).values
        b = rng.randint(2, 12)
        length = rng.randint(2, 7)
        seq = [rng.choice(values) for _ in range(length)]
        add = evaluate_test_sequence(seq, b)
        mult = evaluate_multiplicative(seq, b)
        ok = all(a <= m for a, m in zip(add, mult))
        if ok and is_prime(b):
            ok = all(a == m for a, m in zip(add, mult))
        rep.add("additive-le-multiplicative", {"b": b, "seq": _values_str(seq)}, ok)
    # the natural ordering attains the Z invariants for every base at once
    naturals = list(range(41))
    for b in range(2, 13):
        detail = _closed_form_miss(evaluate_test_sequence(naturals, b), closedforms.alpha_Z, b)
        rep.add("natural-order-attains-invariants", {"b": b, "k_max": 40}, not detail, detail)


def _random_base_set(rng: random.Random) -> BaseSet:
    choice = rng.randrange(3)
    if choice == 0:
        hi = rng.randint(2, 12)
        return BaseSet.range(2, hi)
    if choice == 1:
        vals = sorted(rng.sample(range(2, 16), rng.randint(1, 5)))
        if rng.random() < 0.3:
            vals = [rng.choice([0, 1])] + vals
        return BaseSet.explicit(vals)
    return BaseSet.primes_up_to(rng.randint(2, 13))


def _suite_divisibility(rep: SuiteReport, rng: random.Random) -> None:
    # generalized integers and binomials land in the positive integers
    for i in range(_count(50, rep.scale)):
        S = _random_finite_set(rng)
        T = _random_base_set(rng)
        n = rng.randint(1, len(S.values) - 1)
        g = gen_integer(S, T, n)
        ok = not g.is_zero and g.value() >= 1
        ell = rng.randint(0, n)
        bn = gen_binomial(S, T, n, ell)
        ok = ok and not bn.is_zero and bn.value() >= 1
        rep.add(
            "integrality",
            {"set": _values_str(S.values), "bases": T.spec, "n": n, "l": ell},
            ok,
        )
    # telescoping: the factorial is the product of the generalized integers
    for i in range(_count(25, rep.scale)):
        S = _random_finite_set(rng, max_size=9)
        T = _random_base_set(rng)
        n = rng.randint(1, len(S.values) - 1)
        prod = FactoredNumber.one()
        for j in range(1, n + 1):
            prod = prod * gen_integer(S, T, j)
        ok = prod == factorial(S, T, n)
        rep.add("telescoping", {"set": _values_str(S.values), "bases": T.spec, "n": n}, ok)
    # base-set monotone and set-antitone factorial divisibility
    for i in range(_count(40, rep.scale)):
        S = _random_finite_set(rng)
        t2 = sorted(rng.sample(range(2, 16), rng.randint(2, 6)))
        t1 = sorted(rng.sample(t2, rng.randint(1, len(t2))))
        k = rng.randint(0, len(S.values) - 1)
        f1 = factorial(S, BaseSet.explicit(t1), k)
        f2 = factorial(S, BaseSet.explicit(t2), k)
        ok = f1.exponentwise_divides(f2) and f1.integer_divides(f2)
        big = _random_finite_set(rng, max_size=12).values
        small = sorted(rng.sample(big, rng.randint(2, max(2, len(big) - 1))))
        kk = rng.randint(0, len(small) - 1)
        T = _random_base_set(rng)
        f_small = factorial(ExplicitFinite(small), T, kk)
        f_big = factorial(ExplicitFinite(big), T, kk)
        ok = ok and f_big.exponentwise_divides(f_small) and f_big.integer_divides(f_small)
        rep.add(
            "factorial-divisibility",
            {"T1": t1, "T2": t2, "k": k, "small": _values_str(small), "kk": kk},
            ok,
        )
    # pairwise-difference products are multiples of the factorial run
    for i in range(_count(40, rep.scale)):
        S = _random_finite_set(rng)
        T = BaseSet.range(2, rng.randint(2, 10))
        length = rng.randint(1, min(6, len(S.values)))
        seq = rng.sample(S.values, length)
        ok = pairwise_multiple_check(S, T, seq)
        rep.add(
            "pairwise-multiple",
            {"set": _values_str(S.values), "bases": T.spec, "seq": _values_str(seq)},
            ok,
        )
    # the classical counterexample: gcd'ing generalized integers misbehaves...
    Z = AllIntegers()
    g4 = gen_integer(Z, BaseSet.auto(), 4).value()
    g6 = gen_integer(Z, BaseSet.auto(), 6).value()
    g2 = gen_integer(Z, BaseSet.auto(), 2).value()
    ok = (g4, g6, g2) == (16, 36, 2) and math.gcd(g4, g6) == 4 and math.gcd(g4, g6) != g2
    rep.add("regular-divisibility-fails", {"values": [g4, g6, g2]}, ok)
    # ...while every row binomial stays integral
    ok = True
    for k in range(31):
        for ell in range(k + 1):
            v = gen_binomial(Z, BaseSet.auto(), k, ell).value()
            if v < 1:
                ok = False
    rep.add("row-binomials-integral", {"k_max": 30}, ok)


def _digit_map(S: ExplicitFinite, b: int):
    """alpha_0..alpha_{|S|-1}(S, b), and phi_b of S's members at a cap 2 above the largest."""
    alphas = exponent_sequence(S, b, len(S.values) - 1).values
    cap = max((v.value for v in alphas if v.is_finite), default=0) + 2
    return alphas, cap, [phi_b(v, b, cap) for v in S.values]


def _suite_transport(rep: SuiteReport, rng: random.Random) -> None:
    for i in range(_count(40, rep.scale)):
        S = _random_finite_set(rng, max_size=9, span=40)
        b = rng.randint(2, 10)
        alphas, cap, U = _digit_map(S, b)
        run = t_ordering(U, len(U) - 1)
        ok = True
        detail = ""
        for j, (av, tv) in enumerate(zip(alphas, run.exponents)):
            if av.is_finite:
                if not (tv.exact and tv.floor == av.value):
                    ok = False
                    detail = f"k={j}: integer side {av}, series side {tv.render()}"
                    break
            elif tv.exact:
                ok = False
                detail = f"k={j}: integer side inf, series side {tv.render()}"
                break
        rep.add(
            "digit-map-preserves-invariants",
            {"set": _values_str(S.values), "b": b, "cap": cap},
            ok,
            detail,
        )


def _random_series_family(rng: random.Random, cap: int) -> list[TruncatedSeries]:
    size = rng.randint(3, 7)
    out: list[TruncatedSeries] = []
    seen = set()
    while len(out) < size:
        coeffs = tuple(rng.randint(-2, 2) for _ in range(rng.randint(2, 5)))
        f = TruncatedSeries(list(coeffs) + [0] * (cap - len(coeffs)))
        if f.coeffs not in seen:
            seen.add(f.coeffs)
            out.append(f)
    return out


SERIES_CAP = 16  # truncation cap for random series families


def _suite_maxmin(rep: SuiteReport, rng: random.Random) -> None:
    for i in range(_count(50, rep.scale)):
        if i % 2 == 0:
            S = _random_finite_set(rng, max_size=7, span=30)
            b = rng.randint(2, 8)
            _, _, U = _digit_map(S, b)
            family = f"phi_{b}({_values_str(S.values)})"
        else:
            U = _random_series_family(rng, SERIES_CAP)
            family = f"random-series[{len(U)}]"
        k = rng.randint(1, len(U) - 1)
        detail = _tie_invariance(rng, partial(t_ordering, U, k), range(len(U)), 2)
        if not detail:
            report = maxmin_check(U, k, samples=12, seed=rng.randrange(1 << 30))
            if not report.ok:
                detail = (
                    f"witness {report.witness_min} vs alpha {report.alpha_k}; "
                    f"{report.sample_violations} sample violations"
                )
        rep.add("t-ordering-invariance+maxmin", {"family": family, "k": k}, not detail, detail)


def _suite_closed_forms(rep: SuiteReport, rng: random.Random) -> None:
    Z, P = AllIntegers(), Primes()
    for S, k_max, formula, name in (
        (Z, _count(100, rep.scale), closedforms.alpha_Z, "greedy-matches-floor-sums-Z"),
        (P, _count(40, rep.scale), closedforms.alpha_P, "greedy-matches-totient-formula-P"),
    ):
        for b in range(2, 13):
            detail = _closed_form_miss(b_ordering(S, b, k_max).exponents, formula, b)
            rep.add(name, {"b": b, "k_max": k_max}, not detail, detail)
    # explicit witness orderings of the primes, built without the engine
    for b in range(2, 13):
        e = 2 if totient(b) * b >= 25 else 3 if totient(b) * b * b >= 25 else 5
        seq = closedforms.prime_witness_sequence(b, e)
        detail = _closed_form_miss(evaluate_test_sequence(seq, b), closedforms.alpha_P, b)
        rep.add("prime-witness-sequence", {"b": b, "e": e, "len": len(seq)}, not detail, detail)
    ok = factorial(P, BaseSet.explicit([2, 3]), 3).value() == 24
    rep.add("primes-factorial-3-is-24", {}, ok)
    # dual beta implementations agree
    ok = all(
        closedforms.beta(k, ell, b) == closedforms.beta_digit(k, ell, b)
        for k in range(0, _count(120, rep.scale))
        for ell in range(k + 1)
        for b in (2, 3, 5, 6, 10, 12)
    )
    rep.add("beta-floor-equals-beta-digit", {"k_max": _count(120, rep.scale)}, ok)
    # generalized integers over Z factor through plain valuations
    ok = all(
        gen_integer(Z, BaseSet.auto(), n).exponent(b) == ord_b(b, n)
        for n in range(1, 61)
        for b in range(2, n + 1)
    )
    rep.add("integer-exponents-are-valuations", {"n_max": 60}, ok)
    # partition-minimisation bound: brute force vs floor sums, with profiles
    ok = True
    detail = ""
    for k in range(13):
        for m in range(1, 7):
            best, best_parts = None, []
            for parts in combinations_with_replacement(range(k + 1), m):
                if sum(parts) != k:
                    continue
                s = sum(p * (p - 1) // 2 for p in parts)
                if best is None or s < best:
                    best, best_parts = s, [parts]
                elif s == best:
                    best_parts.append(parts)
            want = closedforms.lemma82_min(k, m)
            profile = tuple(sorted(closedforms.equality_profile(k, m)))
            if best != want or best_parts != [profile]:
                ok = False
                detail = f"k={k} m={m}: brute {best}/{best_parts} vs {want}/{profile}"
    rep.add("partition-minimum-and-profile", {"k_max": 12, "m_max": 6}, ok, detail)
    # floor sums: direct summation, weighted form, and the compact identity
    ok = True
    for k in range(0, 201):
        for m in range(1, 51):
            direct = sum(i // m for i in range(k))
            q = k // m
            weighted = (k - m * q) * (q + 1) * q // 2 + (m - k + m * q) * q * (q - 1) // 2
            if not (direct == floor_sum(k, m) == weighted):
                ok = False
    rep.add("floor-sum-forms-agree", {"k_max": 200, "m_max": 50}, ok)
    # spot-document the bad compact variant: C(q,2) in place of C(q+1,2)
    q = 7 // 3
    bad = 7 * q - 3 * (q * (q - 1) // 2)
    rep.add(
        "compact-identity-variant-is-wrong",
        {"k": 7, "m": 3, "direct": 5, "bad_variant": bad},
        floor_sum(7, 3) == 5 and bad == 11,
        "the compact form needs C(q+1,2); the C(q,2) variant gives 11, not 5",
    )
    # cumulative bound for primes test sequences
    ok = all(
        closedforms.p_test_lower_bound(k, b)
        == sum(closedforms.alpha_P(j, b) for j in range(k + 1))
        for b in range(2, 13)
        for k in range(omega(b), 41)
    )
    rep.add("p-test-bound-unfolds", {"k_max": 40}, ok)
    # row products: digit formula vs direct binomial products, and beta sums
    n_max = _count(25, rep.scale)
    ok = all(row_product(n) == row_product_direct(n) for n in range(1, n_max + 1))
    rep.add("row-product-direct", {"n_max": n_max}, ok)
    ok = all(
        nu_bar(n, b) == sum(closedforms.beta(n, k, b) for k in range(n + 1))
        for n in range(1, _count(60, rep.scale) + 1)
        for b in range(2, n + 1)
    )
    rep.add("row-exponent-equals-beta-sum", {"n_max": _count(60, rep.scale)}, ok)


def _suite_tables(rep: SuiteReport, rng: random.Random) -> None:
    for which in tables.TABLE_NAMES:
        diff = tables.compare(which)
        rep.add(
            f"table-{which}",
            {"table": which},
            diff.ok,
            "; ".join(diff.mismatches[:3]),
        )


_SUITES = {
    "well-definedness": _suite_well_definedness,
    "majorization": _suite_majorization,
    "superadditivity": _suite_superadditivity,
    "monotonicity": _suite_monotonicity,
    "divisibility": _suite_divisibility,
    "transport": _suite_transport,
    "maxmin": _suite_maxmin,
    "closed-forms": _suite_closed_forms,
    "tables": _suite_tables,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, scale: float = 1.0) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if not 0 < scale <= SCALE_MAX:
        raise ValueError(f"scale must satisfy 0 < scale <= {SCALE_MAX}, got {scale}")
    rep = SuiteReport(name, seed, scale)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    _SUITES[name](rep, rng)
    rep.elapsed = time.perf_counter() - t0
    return rep


def run_all(seed: int = 0, scale: float = 1.0) -> list[SuiteReport]:
    return [run_suite(name, seed=seed, scale=scale) for name in SUITE_NAMES]
