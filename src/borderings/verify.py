"""Verification suites: seeded, deterministic property checks at desk scale.

Each suite draws its instances from a single seeded RNG, so identical
(seed, scale) runs check identical instances.  A failed instance carries
enough parameters to rerun it by hand, and its detail names the first case
that failed; failures indicate implementation bugs, not counterexamples to
the underlying theory.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations_with_replacement, count, product, takewhile

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
from .numerics import floor_sum, is_prime, omega_totient, ord_b
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

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.instances)

    @property
    def failures(self) -> list[Instance]:
        return [i for i in self.instances if not i.passed]

    def add(self, name: str, params: dict, miss: str) -> None:
        """Record an instance that passes exactly when `miss`, its first failing case, is empty."""
        self.instances.append(Instance(name, params, not miss, miss))

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


def _miss(cases, holds, say) -> str:
    """say(*case) for the first case where holds(*case) is false, or "" if every case holds."""
    return next((say(*case) for case in cases if not holds(*case)), "")


def _closed_form_miss(values, formula, b: int) -> str:
    """The first k with values[k] != formula(k, b), or "" if there is none."""
    return _miss(
        ((k, v, formula(k, b)) for k, v in enumerate(values)),
        lambda k, v, want: v == want,
        "alpha_{} = {}, formula gives {}".format,
    )


def _superadditivity_miss(alphas) -> str:
    """The first (k, l) with alphas[k + l] < alphas[k] + alphas[l], or "" if there is none."""
    return _miss(
        ((k, ell) for k in range(len(alphas)) for ell in range(len(alphas) - k)),
        lambda k, ell: alphas[k + ell] >= alphas[k] + alphas[ell],
        lambda k, ell: f"alpha_{k + ell} < alpha_{k} + alpha_{ell}",
    )


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
        rep.add("identical-exponents", {"set": _values_str(S.values), "k": k}, detail)


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
        detail = "" if report.ok else f"violations at m={report.violations}"
        rep.add("prefix-sum-dominance", {"set": S.spec, "b": b, "seq": _values_str(seq)}, detail)
    # equality case: initial b-orderings meet the invariants at every prefix
    for i in range(_count(40, rep.scale)):
        S = _random_finite_set(rng, max_size=10)
        b = rng.randint(2, 12)
        k = rng.randint(1, len(S.values) - 1)
        run = b_ordering(S, b, k)
        report = check_majorization(S, b, run.elements)
        ok = report.ok and report.equality_positions == list(range(k + 1))
        detail = "" if ok else f"violations at m={report.violations}, equalities={report.equality_positions}"
        rep.add("equality-on-greedy-prefix", {"set": _values_str(S.values), "b": b, "k": k}, detail)


def _suite_superadditivity(rep: SuiteReport, rng: random.Random) -> None:
    for i in range(_count(60, rep.scale)):
        S = _random_finite_set(rng)
        b = rng.randint(2, 12)
        detail = _superadditivity_miss(exponent_sequence(S, b, len(S.values) + 2).values)
        rep.add("superadditive", {"set": _values_str(S.values), "b": b}, detail)
    for S, name, k_max in ((AllIntegers(), "Z", 60), (Primes(), "P", 40)):
        for b in range(2, 13):
            detail = _superadditivity_miss(exponent_sequence(S, b, k_max).values)
            rep.add("superadditive", {"set": name, "b": b, "k_max": k_max}, detail)


def _suite_monotonicity(rep: SuiteReport, rng: random.Random) -> None:
    for i in range(_count(60, rep.scale)):
        S = _random_finite_set(rng)
        b = rng.randint(2, 12)
        k_max = len(S.values) + 2
        alphas = exponent_sequence(S, b, k_max).values
        zeros = exponent_sequence(S, 0, k_max).values
        ones = exponent_sequence(S, 1, k_max).values
        detail = _miss(
            zip(count(), alphas, alphas[1:]),
            lambda j, a, after: a <= after,
            lambda j, a, after: f"alpha_{j} = {a} > alpha_{j + 1} = {after}",
        ) or _miss(
            zip(count(), alphas, zeros, ones),
            lambda j, a, low, high: low <= a <= high,
            "alpha_{} = {} outside [{}, {}], its values at b = 0 and 1".format,
        )
        rep.add("nondecreasing+extreme-bounds", {"set": _values_str(S.values), "b": b}, detail)
    # set-antitone: a subset has pointwise larger exponents
    for i in range(_count(40, rep.scale)):
        big = _random_finite_set(rng, max_size=12).values
        size = rng.randint(2, max(2, len(big) - 1))
        small = sorted(rng.sample(big, size))
        b = rng.randint(2, 12)
        k_max = len(small)
        a_small = exponent_sequence(ExplicitFinite(small), b, k_max).values
        a_big = exponent_sequence(ExplicitFinite(big), b, k_max).values
        detail = _miss(
            zip(count(), a_small, a_big),
            lambda j, low, high: low >= high,
            "alpha_{} = {} on the subset < {} on the set".format,
        )
        rep.add("set-antitone", {"small": _values_str(small), "big": _values_str(big), "b": b}, detail)
    # additive values never exceed multiplicative ones; equality at prime b
    for i in range(_count(60, rep.scale)):
        values = _random_finite_set(rng).values
        b = rng.randint(2, 12)
        length = rng.randint(2, 7)
        seq = [rng.choice(values) for _ in range(length)]
        add = evaluate_test_sequence(seq, b)
        mult = evaluate_multiplicative(seq, b)
        prime = is_prime(b)
        detail = _miss(
            zip(count(), add, mult),
            lambda j, a, m: a == m if prime else a <= m,
            "term {}: additive {}, multiplicative {}".format,
        )
        rep.add("additive-le-multiplicative", {"b": b, "seq": _values_str(seq)}, detail)
    # the natural ordering attains the Z invariants for every base at once
    naturals = list(range(41))
    for b in range(2, 13):
        detail = _closed_form_miss(evaluate_test_sequence(naturals, b), closedforms.alpha_Z, b)
        rep.add("natural-order-attains-invariants", {"b": b, "k_max": 40}, detail)


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
        ell = rng.randint(0, n)
        bn = gen_binomial(S, T, n, ell)
        detail = _miss(
            ((f"[{n}]", g), (f"[{n} choose {ell}]", bn)),
            lambda what, v: not v.is_zero and v.value() >= 1,
            lambda what, v: f"{what} = {v.format_factored()}",
        )
        rep.add("integrality", {"set": _values_str(S.values), "bases": T.spec, "n": n, "l": ell}, detail)
    # telescoping: the factorial is the product of the generalized integers
    for i in range(_count(25, rep.scale)):
        S = _random_finite_set(rng, max_size=9)
        T = _random_base_set(rng)
        n = rng.randint(1, len(S.values) - 1)
        prod = FactoredNumber.one()
        for j in range(1, n + 1):
            prod = prod * gen_integer(S, T, j)
        fact = factorial(S, T, n)
        detail = "" if prod == fact else f"[1]...[{n}] = {prod.format_factored()}, {n}! = {fact.format_factored()}"
        rep.add("telescoping", {"set": _values_str(S.values), "bases": T.spec, "n": n}, detail)
    # base-set monotone and set-antitone factorial divisibility
    for i in range(_count(40, rep.scale)):
        S = _random_finite_set(rng)
        t2 = sorted(rng.sample(range(2, 16), rng.randint(2, 6)))
        t1 = sorted(rng.sample(t2, rng.randint(1, len(t2))))
        k = rng.randint(0, len(S.values) - 1)
        f1 = factorial(S, BaseSet.explicit(t1), k)
        f2 = factorial(S, BaseSet.explicit(t2), k)
        big = _random_finite_set(rng, max_size=12).values
        small = sorted(rng.sample(big, rng.randint(2, max(2, len(big) - 1))))
        kk = rng.randint(0, len(small) - 1)
        T = _random_base_set(rng)
        f_small = factorial(ExplicitFinite(small), T, kk)
        f_big = factorial(ExplicitFinite(big), T, kk)
        detail = _miss(
            ((f"{k}! over T1 into T2", f1, f2), (f"{kk}! over {_values_str(big)} into small", f_big, f_small)),
            lambda what, d, m: d.exponentwise_divides(m) and d.integer_divides(m),
            lambda what, d, m: f"{what}: {d.format_factored()} does not divide {m.format_factored()}",
        )
        rep.add("factorial-divisibility", {"T1": t1, "T2": t2, "k": k, "small": _values_str(small), "kk": kk}, detail)
    # pairwise-difference products are multiples of the factorial run
    for i in range(_count(40, rep.scale)):
        S = _random_finite_set(rng)
        T = BaseSet.range(2, rng.randint(2, 10))
        length = rng.randint(1, min(6, len(S.values)))
        seq = rng.sample(S.values, length)
        detail = _miss(
            product(T.values),
            lambda b: pairwise_multiple_check(S, BaseSet.range(b, b), seq),
            lambda b: f"b={b}: ord_b over the pairwise differences < alpha_0 + ... + alpha_{length - 1}",
        )
        rep.add("pairwise-multiple", {"set": _values_str(S.values), "bases": T.spec, "seq": _values_str(seq)}, detail)
    # the classical counterexample: gcd'ing generalized integers misbehaves...
    Z = AllIntegers()
    g4 = gen_integer(Z, BaseSet.auto(), 4).value()
    g6 = gen_integer(Z, BaseSet.auto(), 6).value()
    g2 = gen_integer(Z, BaseSet.auto(), 2).value()
    ok = (g4, g6, g2) == (16, 36, 2) and math.gcd(g4, g6) == 4 and math.gcd(g4, g6) != g2
    detail = "" if ok else f"[4], [6], [2] = {g4}, {g6}, {g2}, want 16, 36, 2"
    rep.add("regular-divisibility-fails", {"values": [g4, g6, g2]}, detail)
    # ...while every row binomial stays integral
    detail = _miss(
        ((k, ell, gen_binomial(Z, BaseSet.auto(), k, ell).value()) for k in range(31) for ell in range(k + 1)),
        lambda k, ell, v: v >= 1,
        "[{} choose {}] = {}".format,
    )
    rep.add("row-binomials-integral", {"k_max": 30}, detail)


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
        detail = _miss(
            zip(count(), alphas, run.exponents),
            lambda j, av, tv: (tv.exact and tv.floor == av.value) if av.is_finite else not tv.exact,
            lambda j, av, tv: f"k={j}: integer side {av}, series side {tv.render()}",
        )
        rep.add("digit-map-preserves-invariants", {"set": _values_str(S.values), "b": b, "cap": cap}, detail)


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
        rep.add("t-ordering-invariance+maxmin", {"family": family, "k": k}, detail)


def _partition_minimum(k: int, m: int) -> tuple[int, list[tuple[int, ...]]]:
    """By brute force: the least sum of C(p, 2) over m parts p summing to k, and every partition attaining it."""
    best, best_parts = None, []
    for parts in combinations_with_replacement(range(k + 1), m):
        if sum(parts) != k:
            continue
        s = sum(p * (p - 1) // 2 for p in parts)
        if best is None or s < best:
            best, best_parts = s, [parts]
        elif s == best:
            best_parts.append(parts)
    return best, best_parts


def _floor_sum_forms(k: int, m: int) -> tuple[int, int, int, int, int]:
    """k, m, then sum(i // m for i < k) by direct summation, by floor_sum and by the weighted form."""
    q = k // m
    weighted = (k - m * q) * (q + 1) * q // 2 + (m - k + m * q) * q * (q - 1) // 2
    return k, m, sum(i // m for i in range(k)), floor_sum(k, m), weighted


def _suite_closed_forms(rep: SuiteReport, rng: random.Random) -> None:
    Z, P, auto = AllIntegers(), Primes(), BaseSet.auto()
    for S, k_max, formula, name in (
        (Z, _count(100, rep.scale), closedforms.alpha_Z, "greedy-matches-floor-sums-Z"),
        (P, _count(40, rep.scale), closedforms.alpha_P, "greedy-matches-totient-formula-P"),
    ):
        for b in range(2, 13):
            detail = _closed_form_miss(b_ordering(S, b, k_max).exponents, formula, b)
            rep.add(name, {"b": b, "k_max": k_max}, detail)
    # explicit witness orderings of the primes, built without the engine
    for b in range(2, 13):
        phi = omega_totient(b)[1]
        e = 2 if phi * b >= 25 else 3 if phi * b * b >= 25 else 5
        seq = closedforms.prime_witness_sequence(b, e)
        detail = _closed_form_miss(evaluate_test_sequence(seq, b), closedforms.alpha_P, b)
        rep.add("prime-witness-sequence", {"b": b, "e": e, "len": len(seq)}, detail)
    v = factorial(P, BaseSet.explicit([2, 3]), 3).value()
    rep.add("primes-factorial-3-is-24", {}, "" if v == 24 else f"3! over P and bases 2, 3 is {v}")
    # dual beta implementations agree
    k_max = _count(120, rep.scale)
    cases = ((k, ell, b) for k in range(k_max) for ell in range(k + 1) for b in (2, 3, 5, 6, 10, 12))
    detail = _miss(
        ((k, ell, b, closedforms.beta(k, ell, b), closedforms.beta_digit(k, ell, b)) for k, ell, b in cases),
        lambda k, ell, b, floors, digits: floors == digits,
        "k={} l={} b={}: beta {}, beta_digit {}".format,
    )
    rep.add("beta-floor-equals-beta-digit", {"k_max": k_max}, detail)
    # generalized integers over Z factor through plain valuations
    integers = {n: gen_integer(Z, auto, n) for n in range(2, 61)}
    detail = _miss(
        ((n, b, integer.exponent(b), ord_b(b, n)) for n, integer in integers.items() for b in range(2, n + 1)),
        lambda n, b, e, v: e == v,
        "[{}]: exponent of {} is {}, ord_b gives {}".format,
    )
    rep.add("integer-exponents-are-valuations", {"n_max": 60}, detail)
    # partition-minimisation bound: brute force vs floor sums, with profiles
    detail = _miss(
        (
            (k, m, *_partition_minimum(k, m), closedforms.lemma82_min(k, m),
             tuple(sorted(closedforms.equality_profile(k, m))))
            for k, m in product(range(13), range(1, 7))
        ),
        lambda k, m, best, parts, want, profile: best == want and parts == [profile],
        "k={} m={}: brute {}/{} vs {}/{}".format,
    )
    rep.add("partition-minimum-and-profile", {"k_max": 12, "m_max": 6}, detail)
    # floor sums: direct summation, weighted form, and the compact identity
    detail = _miss(
        (_floor_sum_forms(k, m) for k, m in product(range(201), range(1, 51))),
        lambda k, m, direct, closed, weighted: direct == closed == weighted,
        "k={} m={}: direct {}, floor_sum {}, weighted {}".format,
    )
    rep.add("floor-sum-forms-agree", {"k_max": 200, "m_max": 50}, detail)
    # spot-document the bad compact variant: C(q,2) in place of C(q+1,2); it passes with this note
    q = 7 // 3
    bad = 7 * q - 3 * (q * (q - 1) // 2)
    params = {"k": 7, "m": 3, "direct": 5, "bad_variant": bad}
    note = "the compact form needs C(q+1,2); the C(q,2) variant gives 11, not 5"
    ok = floor_sum(7, 3) == 5 and bad == 11
    rep.instances.append(Instance("compact-identity-variant-is-wrong", params, ok, note))
    # cumulative bound for primes test sequences
    cases = ((b, k) for b in range(2, 13) for k in range(omega_totient(b)[0], 41))
    detail = _miss(
        (
            (b, k, closedforms.p_test_lower_bound(k, b), sum(closedforms.alpha_P(j, b) for j in range(k + 1)))
            for b, k in cases
        ),
        lambda b, k, bound, total: bound == total,
        "b={} k={}: bound {}, sum of alpha_P {}".format,
    )
    rep.add("p-test-bound-unfolds", {"k_max": 40}, detail)
    # row products: digit formula vs direct binomial products, and beta sums
    n_max = _count(25, rep.scale)
    detail = _miss(
        ((n, row_product(n), row_product_direct(n)) for n in range(1, n_max + 1)),
        lambda n, got, want: got == want,
        lambda n, got, want: f"n={n}: digit formula {got.format_factored()}, direct {want.format_factored()}",
    )
    rep.add("row-product-direct", {"n_max": n_max}, detail)
    n_max = _count(60, rep.scale)
    cases = ((n, b) for n in range(1, n_max + 1) for b in range(2, n + 1))
    detail = _miss(
        ((n, b, nu_bar(n, b), sum(closedforms.beta(n, k, b) for k in range(n + 1))) for n, b in cases),
        lambda n, b, nu, total: nu == total,
        "n={} b={}: nu_bar {}, sum of beta {}".format,
    )
    rep.add("row-exponent-equals-beta-sum", {"n_max": n_max}, detail)


def _suite_tables(rep: SuiteReport, rng: random.Random) -> None:
    for which in tables.TABLE_NAMES:
        rep.add(f"table-{which}", {"table": which}, "; ".join(tables.compare(which)[:3]))


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
    _SUITES[name](rep, random.Random(seed))
    return rep
