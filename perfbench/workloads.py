"""Seeded query lists for the three benchmark workloads.

A run of a workload makes several rounds over one query list.  The list
is made of blocks, and every block has the same fixed composition of
cells (kind, size, base).  The seed and the block draw what each cell
holds: set elements, progression steps, series coefficients.  Each round
asks every query of the list again, on an input whose work is the same
but whose value is new: the same list set translated, the same
progression from another first element, Z, N or P from another first
element.  `theory-mix` queries are too small and varied for that, so each
round draws their contents afresh within the same cell shapes.  No query
is asked twice with the same input, so a cache of results kept across
calls gains nothing, except for the argument-less `tables.generate`.

A query's `slot` is its position in the list, the same in every round.
Each query carries its own check, which runs outside the timed region
and returns None when the result is right, or a one-line reason.
Reference results that cost a whole ordering to get (the rerun checks)
are computed once per slot and kept in the run's `memo`.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    slot: int = 0  # position in the workload's query list, the same in every round
    every: int = 1  # asked in every `every`-th round of an untraced run


def _rng(workload: str, seed: int, *index) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + index)))


def _mismatch(got, want) -> Optional[str]:
    """First index where two exponent lists differ, as a reason string."""
    got, want = [str(v) for v in got], [str(v) for v in want]
    if got == want:
        return None
    if len(got) != len(want):
        return f"length {len(got)} != {len(want)}"
    i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return f"alpha_{i} = {got[i]}, expected {want[i]}"


def _rerun_check(B, S, b, k, tie_seed: int, start: int, memo: dict, slot: int):
    """Invariance check: a rerun under a seeded random tie-break and start.

    The rerun is made once per slot.  The queries of later rounds ask a
    translate of S, whose exponents are the same.
    """

    def check(values) -> Optional[str]:
        if slot not in memo:
            policy = B.ordering.RandomTieBreak(tie_seed)
            memo[slot] = B.ordering.b_ordering(S, b, k, policy, start=start).exponents
        why = _mismatch(values, memo[slot])
        return f"rerun (start {start}, tie seed {tie_seed}): {why}" if why else None

    return check


# -- finite --------------------------------------------------------------

# |S| per cell of a block: a 4x span, all of it in the cubic region (the
# time grows as |S|^2.8..2.9 from 16 to 96 elements).  Cost hangs on |S|
# much more than on the base or the kind of set, so each size is a group
# of like queries.  The 64-element cells hold the top 20% of the list, so
# p90 falls in their middle; the 25-element cells hold ranks 30%..70%, so
# p50 falls in theirs.  Short queries fit many rounds in a run, so each
# query's mean over the rounds rests on many samples.
FINITE_SIZES = (16,) * 6 + (25,) * 8 + (40,) * 2 + (64,) * 4
FINITE_BLOCKS = 5  # 100 queries


def finite_round(B, seed: int, rnd: int, memo: dict) -> list[Query]:
    """The query list, its sets translated by a seeded offset per round and query."""
    shift = _rng("finite", seed, "shift", rnd)
    queries = []
    for block in range(FINITE_BLOCKS):
        rng = _rng("finite", seed, block)
        for cell, n in enumerate(FINITE_SIZES):
            slot = block * len(FINITE_SIZES) + cell
            b = 2 + slot % 11
            c = shift.randint(-10_000, 10_000)
            if cell % 2 == 0:
                values = sorted(rng.sample(range(-10 * n, 10 * n + 1), n))
                S = B.intsets.parse_set_spec("list:" + ",".join(str(v + c) for v in values))
                S0 = B.intsets.ExplicitFinite(values)
                tail = _rerun_check(B, S0, b, n - 1, rng.randrange(1 << 30), rng.choice(values), memo, slot)
            else:
                lo = rng.randint(-1000, 1000) + c
                S = B.intsets.parse_set_spec(f"range:{lo}..{lo + n - 1}")
                tail = _closed_form_check(lambda i, b=b: B.closedforms.alpha_Z(i, b))
            queries.append(
                Query(
                    f"finite/{n}",
                    lambda S=S, b=b, k=n - 1: B.ordering.exponent_sequence(S, b, k),
                    _certified_then(lambda seq: seq.certified_steps, lambda seq: seq.values, tail),
                    slot,
                )
            )
    _rng("finite", seed, "order", rnd).shuffle(queries)
    return queries


def finite_warmup(B) -> list[Query]:
    S = B.intsets.parse_set_spec("list:" + ",".join(str(7 * i * i - 40) for i in range(12)))
    return [Query("warmup", lambda: B.ordering.exponent_sequence(S, 3, 11), lambda _: None)]


def _certified_then(certs, values, tail):
    def check(result) -> Optional[str]:
        flags = certs(result)
        if not all(flags):
            return f"step {flags.index(False)} not certified"
        return tail(values(result))

    return check


def _closed_form_check(alpha):
    def check(values) -> Optional[str]:
        return _mismatch(values, [alpha(i) for i in range(len(values))])

    return check


# -- infinite ------------------------------------------------------------

# (set kind, b, k).  "apc" is an ap: set whose step is coprime to b, "aps"
# one whose step shares a factor with b.  P at b = 6 and k = 800 is where
# the primes at a composite base grow faster than quadratically (about 5x
# the time of k = 400).  The k levels hold ranks 0..30% (25), ..70% (50)
# and ..97% (100) of the list, so p50 falls in k = 50 and p90 in k = 100.
# The three long queries take three quarters of a round, so they are
# asked in every third round only, and the short ones, each timed at its
# mean over the rounds, get three times as many samples.
LONG_EVERY = 3
_KINDS = ("Z", "N", "P", "apc", "aps")


def _level(k: int, count: int, offset: int) -> tuple:
    return tuple((_KINDS[i % 5], 2 + (i + offset) % 11, k) for i in range(count))


INFINITE_CELLS = (
    (("P", 6, 800), ("P", 12, 400), ("Z", 2, 400))
    + _level(100, 27, 0) + _level(50, 40, 3) + _level(25, 30, 7)
)  # 100 queries

_SMALL_PRIMES = (2, 3, 5, 7, 11)
_PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _random_start(rng: random.Random, kind: str) -> int:
    """A seeded first element of Z, N or P: the exponents do not depend on it."""
    if kind == "Z":
        return rng.randint(-1000, 1000)
    if kind == "N":
        return rng.randint(0, 1000)
    return rng.choice(_PRIMES_BELOW_1000)


def _valuation(b: int, a: int) -> int:
    v = 0
    while a % b == 0:
        a //= b
        v += 1
    return v


def infinite_round(B, seed: int, rnd: int, memo: dict) -> list[Query]:
    """The query list, each query on a new first element in every round."""
    rng = _rng("infinite", seed)
    first = _rng("infinite", seed, "first", rnd)
    cf = B.closedforms
    queries = []
    for slot, (kind, b, k) in enumerate(INFINITE_CELLS):
        start = None
        if kind in ("Z", "N", "P"):
            S = B.intsets.parse_set_spec(kind)
            start = _random_start(first, kind)
            alpha = cf.alpha_P if kind == "P" else cf.alpha_Z
            tail = _closed_form_check(lambda i, b=b, alpha=alpha: alpha(i, b))
        else:
            coprime = kind == "apc"
            # the step sways the cost by up to 3x, so it belongs to the cell, like b
            steps = [s for s in range(2, 40) if (math.gcd(s, b) == 1) == coprime]
            step = steps[slot % len(steps)]
            tie_seed, j = rng.randrange(1 << 30), rng.randrange(16)
            a = first.randint(-40, 40)
            S = B.intsets.parse_set_spec(f"ap:{a},{step}")
            if coprime:
                tail = _closed_form_check(lambda i, b=b: cf.alpha_Z(i, b))
            elif b in _SMALL_PRIMES:
                v = _valuation(b, step)
                tail = _closed_form_check(lambda i, b=b, v=v: i * v + cf.alpha_Z(i, b))
            else:
                tail = _rerun_check(B, S, b, k, tie_seed, a + step * j, memo, slot)
        queries.append(
            Query(
                f"infinite/{S.spec}/b{b}/k{k}",
                lambda S=S, b=b, k=k, start=start: B.ordering.b_ordering(S, b, k, start=start),
                _certified_then(lambda run: run.certified, lambda run: run.exponents, tail),
                slot,
                LONG_EVERY if k >= 400 else 1,
            )
        )
    _rng("infinite", seed, "order", rnd).shuffle(queries)
    return queries


def infinite_warmup(B) -> list[Query]:
    out = []
    for spec, b in (("Z", 2), ("N", 3), ("P", 6), ("ap:1,4", 2)):
        S = B.intsets.parse_set_spec(spec)
        out.append(Query("warmup", lambda S=S, b=b: B.ordering.b_ordering(S, b, 30), lambda _: None))
    return out


# -- theory-mix ----------------------------------------------------------

# Each cell fixes the shape of its query; the seed, block and round draw
# only the contents (set elements, bases, series coefficients, k within a
# narrow range), so a cell costs about the same in every round.
# tables.generate takes no arguments, so the table cells and the
# `cli tables` cell are the only ones that repeat exactly.
MIX_CELLS = (
    # factored functions on a list set over 8 explicit bases: (fn, |S|, k[, l])
    ("list", "factorial", 6, 5), ("list", "gen_integer", 8, 6), ("list", "gen_binomial", 10, 8, 3),
    ("list", "factorial", 12, 9), ("list", "gen_integer", 12, 11), ("list", "gen_binomial", 12, 10, 5),
    # the same on Z or N, and P, with auto bases (closed forms): (sets, fn, k +- 3)
    ("auto", "ZN", "factorial", 30), ("auto", "ZN", "gen_integer", 25), ("auto", "ZN", "gen_binomial", 28),
    ("auto", "P", "factorial", 20), ("auto", "P", "gen_integer", 16), ("auto", "P", "gen_binomial", 18),
    ("legendre",), ("legendre",), ("legendre",), ("legendre",),
    # t-ordering of a digit-map family: (cap, |U|, b)
    ("transport", 16, 6, 3), ("transport", 16, 9, 7), ("transport", 32, 6, 2), ("transport", 32, 9, 10),
    # maxmin_check on digit maps, (cap, |U|, k, b), and on random integer series, (cap, |U|, k)
    ("maxmin-digit", 16, 6, 3, 5), ("maxmin-digit", 16, 6, 3, 3),
    ("maxmin-digit", 32, 6, 3, 2), ("maxmin-digit", 32, 5, 4, 8),
    ("maxmin-random", 16, 5, 2), ("maxmin-random", 16, 6, 4),
    ("maxmin-random", 32, 5, 3), ("maxmin-random", 32, 4, 2),
    ("table", 1), ("table", 2), ("table", 3), ("table", 4),
    ("cli", 0), ("cli", 1), ("cli", 2), ("cli", 3), ("cli", 4), ("cli", 5),
)
MAXMIN_SAMPLES = 6


def _roundtrip(B, F) -> Optional[str]:
    text = F.format_factored()
    back = B.factored.FactoredNumber.parse(text)
    return None if back == F else f"parse({text!r}) gives {back.format_factored()!r}"


def _factored_query(B, kind: str, fn: str, S, T, args: tuple, lhs, rhs) -> Query:
    """A factored query whose result F must satisfy lhs(F) == rhs() and round-trip."""

    def check(F) -> Optional[str]:
        got, want = lhs(F), rhs()
        if got != want or got.value() != want.value():
            return f"{fn}{args}: {got.format_factored()} != {want.format_factored()}"
        return _roundtrip(B, F)

    return Query(kind, lambda: getattr(B.factorials, fn)(S, T, *args), check)


def _product(B, factors):
    out = B.factored.FactoredNumber.one()
    for F in factors:
        out = out * F
    return out


def _list_query(B, rng: random.Random, fn: str, n: int, k: int, ell: int = 0) -> Query:
    """factorial, gen_integer or gen_binomial on a random list set over 8 explicit bases.

    Checks: the telescoping product of generalized integers is the
    factorial, [k] * (k-1)! = k!, and C(k, l) * l! * (k-l)! = k!.
    """
    fz = B.factorials
    S = B.intsets.parse_set_spec("list:" + ",".join(map(str, rng.sample(range(-50, 51), n))))
    T = B.factored.parse_base_spec("list:" + ",".join(map(str, rng.sample(range(13), 8))))
    fact = lambda j: fz.factorial(S, T, j)  # noqa: E731
    if fn == "factorial":
        rhs = lambda: _product(B, (fz.gen_integer(S, T, m) for m in range(1, k + 1)))  # noqa: E731
        return _factored_query(B, "mix/list", fn, S, T, (k,), lambda F: F, rhs)
    if fn == "gen_integer":
        return _factored_query(B, "mix/list", fn, S, T, (k,), lambda F: F * fact(k - 1), lambda: fact(k))
    lhs = lambda F: F * fact(ell) * fact(k - ell)  # noqa: E731
    return _factored_query(B, "mix/list", fn, S, T, (k, ell), lhs, lambda: fact(k))


def _auto_query(B, rng: random.Random, specs: str, fn: str, k_mid: int) -> Query:
    """The same functions on Z, N or P with auto bases, checked against the closed forms."""
    cf = B.closedforms
    spec, k = rng.choice(specs), rng.randint(k_mid - 3, k_mid + 3)
    ell = rng.randint(k // 4, k // 2)
    S = B.intsets.parse_set_spec(spec)
    T = B.factored.parse_base_spec("auto")
    alpha = cf.alpha_P if spec == "P" else cf.alpha_Z
    # every base outside this range has exponent 0 at index k
    bases = range(2, 2 * k * k + 2) if spec == "P" else range(2, k + 1)
    if fn == "factorial":
        args, exp = (k,), lambda b: alpha(k, b)
    elif fn == "gen_integer":
        args, exp = (k,), lambda b: alpha(k, b) - alpha(k - 1, b)
    else:
        args, exp = (k, ell), lambda b: alpha(k, b) - alpha(ell, b) - alpha(k - ell, b)
    rhs = lambda: B.factored.FactoredNumber({b: exp(b) for b in bases})  # noqa: E731
    return _factored_query(B, f"mix/auto/{spec}", fn, S, T, args, lambda F: F, rhs)


def _legendre_query(B, rng: random.Random) -> Query:
    """factorial(Z, primes <= k, k) is k! (Legendre's formula)."""
    k = rng.randint(2, 40)
    Z = B.intsets.parse_set_spec("Z")
    T = B.factored.parse_base_spec(f"primes:{k}")

    def check(F) -> Optional[str]:
        if F.value() != math.factorial(k):
            return f"factorial(Z, primes<={k}, {k}) = {F.format_factored()} is not {k}!"
        return _roundtrip(B, F)

    return Query("mix/legendre", lambda: B.factorials.factorial(Z, T, k), check)


FAMILY_TRIES = 200  # draws before a family search gives up and fails its query


class NoFamily(Exception):
    """No drawn family met the exponent cap within FAMILY_TRIES draws."""


def _digit_family(B, rng: random.Random, size: int, span: int, cap: int, b: int):
    """phi_b images of a random list set whose exponents all resolve below `cap`.

    Half the values are negative.  A negative value's digits are nonzero
    all the way up to the cap, a small nonnegative value's are mostly 0,
    and series arithmetic skips zero coefficients; a fixed split of signs
    keeps the cost of a cell the same from round to round.
    """
    for _ in range(FAMILY_TRIES):
        half = size // 2
        values = sorted(rng.sample(range(-span, 0), half) + rng.sample(range(span + 1), size - half))
        S = B.intsets.ExplicitFinite(values)
        alphas = B.ordering.exponent_sequence(S, b, size - 1).values
        if max(a.value for a in alphas) + 2 <= cap:
            return [B.series.phi_b(v, b, cap) for v in values], alphas
    raise NoFamily(f"no {size}-element digit family at b={b} below cap {cap} in {FAMILY_TRIES} draws")


def _random_series_family(B, rng: random.Random, size: int, cap: int):
    """Distinct integer series whose t-ordering exponents all resolve below `cap`."""
    for _ in range(FAMILY_TRIES):
        out, seen = [], set()
        while len(out) < size:
            coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(2, 5))]
            f = B.series.TruncatedSeries(coeffs + [0] * (cap - len(coeffs)))
            if f.coeffs not in seen:
                seen.add(f.coeffs)
                out.append(f)
        exps = B.series.t_ordering(out, size - 1).exponents
        if all(e.exact for e in exps) and max(e.floor for e in exps) + 2 <= cap:
            return out
    raise NoFamily(f"no {size}-element random series family below cap {cap} in {FAMILY_TRIES} draws")


def _transport_query(B, rng: random.Random, cap: int, size: int, b: int) -> Query:
    """t_ordering of a digit-map family carries the integer exponents over exactly."""
    U, alphas = _digit_family(B, rng, size, 40, cap, b)

    def check(run) -> Optional[str]:
        for j, (a, t) in enumerate(zip(alphas, run.exponents)):
            if not (t.exact and t.floor == a.value):
                return f"t-ordering exponent {j} is {t.render()}, integer side {a}"
        return None

    return Query(f"mix/transport/{cap}", lambda: B.series.t_ordering(U, size - 1), check)


def _maxmin_query(B, rng: random.Random, family: str, cap: int, size: int, k: int, b: int = 0) -> Query:
    if family == "digit":
        U, _ = _digit_family(B, rng, size, 30, cap, b)
    else:
        U = _random_series_family(B, rng, size, cap)
    sample_seed = rng.randrange(1 << 30)

    def check(report) -> Optional[str]:
        if report.ok:
            return None
        return (
            f"maxmin k={k}: witness {report.witness_min} vs alpha {report.alpha_k}, "
            f"{report.sample_violations} sample violations"
        )

    return Query(
        f"mix/maxmin-{family}/{cap}",
        lambda: B.series.maxmin_check(U, k, samples=MAXMIN_SAMPLES, seed=sample_seed),
        check,
    )


def _table_query(B, which: int) -> Query:
    golden = B.tables.golden(which).encode()

    def check(text) -> Optional[str]:
        return None if text.encode() == golden else f"table {which} differs from its golden file"

    return Query(f"mix/table{which}", lambda: B.tables.generate(which), check)


def _cli_argv(rng: random.Random, variant: int) -> list[str]:
    fmt = ["--format", ("text", "csv", "json")[variant % 3]]
    if variant == 0:
        spec = "list:" + ",".join(map(str, rng.sample(range(-60, 61), 8)))
        return ["exponents", "--set", spec, "--base", str(rng.randint(2, 12)), "--k", "7"] + fmt
    if variant == 1:
        return ["factorial", "--set", rng.choice("ZN"), "--bases", "auto", "--k", str(rng.randint(17, 23))] + fmt
    if variant == 2:
        return ["integer", "--set", "P", "--bases", "auto", "--n", str(rng.randint(9, 15))] + fmt
    if variant == 3:
        spec = "list:" + ",".join(map(str, rng.sample(range(-30, 31), 8)))
        return ["binomial", "--set", spec, "--bases", "list:2,3,4,6", "--k", "7", "--l", "3"] + fmt
    if variant == 4:
        return ["rowproduct", "--n", str(rng.randint(20, 30))] + fmt
    return ["tables", "--which", "3"] + fmt


def _cli_query(B, rng: random.Random, variant: int) -> Query:
    argv = _cli_argv(rng, variant)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = B.cli.main(argv)
        return code, out.getvalue()

    def check(result) -> Optional[str]:
        code, text = result
        if code != 0 or not text:
            return f"borderings {' '.join(argv)} exited {code}"
        return None

    return Query(f"mix/cli/{argv[0]}", run, check)


def _mix_query(B, rng: random.Random, cell) -> Query:
    kind, *params = cell
    if kind == "list":
        return _list_query(B, rng, *params)
    if kind == "auto":
        return _auto_query(B, rng, *params)
    if kind == "legendre":
        return _legendre_query(B, rng)
    if kind == "transport" or kind.startswith("maxmin-"):
        try:
            if kind == "transport":
                return _transport_query(B, rng, *params)
            return _maxmin_query(B, rng, kind[7:], *params)
        except NoFamily as e:
            reason = str(e)
            return Query(f"mix/{kind}", lambda: None, lambda _: reason)
    if kind == "table":
        return _table_query(B, *params)
    return _cli_query(B, rng, *params)


MIX_BLOCKS = 3  # 114 queries


def mix_round(B, seed: int, rnd: int, memo: dict) -> list[Query]:
    """The query list, its contents drawn afresh in every round."""
    queries = []
    for block in range(MIX_BLOCKS):
        rng = _rng("theory-mix", seed, block, rnd)
        for cell, spec in enumerate(MIX_CELLS):
            q = _mix_query(B, rng, spec)
            q.slot = block * len(MIX_CELLS) + cell
            queries.append(q)
    _rng("theory-mix", seed, "order", rnd).shuffle(queries)
    return queries


def mix_warmup(B) -> list[Query]:
    rng = _rng("theory-mix-warmup", 0)
    cells = (("list", "factorial", 4, 3), ("auto", "P", "factorial", 8), ("legendre",),
             ("transport", 16, 4, 3), ("maxmin-random", 16, 4, 2), ("table", 2), ("cli", 0))
    return [_mix_query(B, rng, cell) for cell in cells]


WORKLOADS = {
    "finite": (finite_round, finite_warmup),
    "infinite": (infinite_round, infinite_warmup),
    "theory-mix": (mix_round, mix_warmup),
}
