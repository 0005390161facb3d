"""Greedy b-ordering engine: exponent sequences, certification, majorization checks.

A b-ordering of S picks each next element to minimise the sum of base-b
valuations of its differences to all predecessors.  The minimum is
certified by branch and bound on residue classes mod b^l: the number of
prefix elements in a subclass is a lower bound on the value its members
add, and a subclass holding no prefix element attains it with its
smallest member.  The walk always ends: every opened subclass holds a
prefix element, so its bound grows by at least one per level.  A finite
S is one finitely-met class at the root, which holds every unused member
at its exact value, bucketed by subclass, so its walk never goes below
the root.  Each opened class is a node kept for the whole run; an append
patches one entry, or one bucket, in each node on its residue path and
nothing else.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional, Sequence

from . import closedforms
from .numerics import ExtNat, ext_le, ext_sum, ord_b
from .intsets import (
    AllIntegers,
    ArithmeticProgression,
    ExplicitFinite,
    IntegerSet,
    Primes,
    canonical_key,
)


class CanonicalTieBreak:
    """Deterministic default: smallest (|a|, nonnegative-first) minimizer."""

    name = "canonical"

    def choose(self, candidates: Sequence[int]) -> int:
        return min(candidates, key=canonical_key)


class RandomTieBreak:
    """Seeded random choice among minimizers; for well-definedness stress only."""

    def __init__(self, seed: int):
        self.name = f"random[seed={seed}]"
        self._rng = random.Random(seed)

    def choose(self, candidates: Sequence[int]) -> int:
        return self._rng.choice(sorted(candidates))


CANONICAL = CanonicalTieBreak()


class StepResult(NamedTuple):
    """One greedy step: the element chosen and its value, None for inf."""

    element: int
    value: Optional[int]


@dataclass
class BOrdering:
    """A computed b-ordering with its exponent sequence, None for inf."""

    base: int
    elements: list[int]
    exponents: list[Optional[int]]
    strategy: str

    @property
    def certified(self) -> list[bool]:
        """Always true per step: each is a residue-walk proof."""
        return [True] * len(self.elements)


def _valuation_sum(b: int, a: int, others) -> Optional[int]:
    """sum of ord_b(a - c) over c in others, as a plain int (None for inf)."""
    total = 0
    for c in others:
        v = ord_b(b, a - c)
        if v is None:
            return None
        total += v
    return total


def evaluate_test_sequence(seq: Sequence[int], b: int) -> list[Optional[int]]:
    """Additive exponent values of a test sequence: a_i -> sum_j ord_b(a_i - a_j), None for inf."""
    return [_valuation_sum(b, a, seq[:i]) for i, a in enumerate(seq)]


def evaluate_multiplicative(seq: Sequence[int], b: int) -> list[Optional[int]]:
    """Multiplicative variant: ord_b of the product of differences.

    Always >= the additive value, with equality for prime b; the gap is
    what makes product-minimising orderings ill-defined for composite b.
    """
    if b < 2:
        raise ValueError(f"multiplicative evaluation needs b >= 2, got {b}")
    out = []
    for i, a in enumerate(seq):
        prod = 1
        for j in range(i):
            prod *= a - seq[j]
        out.append(ord_b(b, prod) if i else 0)
    return out


def pairwise_valuation_sum(seq: Sequence[int], b: int) -> Optional[int]:
    """Sum of ord_b over all pairwise differences, None for inf; equals the sum of
    the exponents, since ord_b(-x) = ord_b(x).
    """
    return ext_sum(*evaluate_test_sequence(seq, b))


START_POOL = 32  # candidate pool size for randomised starts


def _initial_element(S: IntegerSet, policy: CanonicalTieBreak | RandomTieBreak) -> int:
    if isinstance(policy, RandomTieBreak):
        pool = []
        for a in S.iter_canonical():
            pool.append(a)
            if len(pool) >= START_POOL:
                break
        return policy.choose(pool)
    return next(iter(S.iter_canonical()))


class _GreedyState:
    """The prefix of one greedy run and what its steps need, kept current on append.

    `levels[l - 1]` maps each prefix residue mod b^l to its count, filled
    from the prefix when the first node at depth l - 1 opens, then updated
    by each append.  Levels open in order 1, 2, ...: a node at depth d opens
    only from its parent at depth d - 1.

    The branch and bound keeps one node per opened class r mod b^l,
    under the class id b^l + r (it lies in [b^l, 2*b^l), so no two classes
    share one): [summary, entries, finite].  A member's excess is its value
    less the prefix counts of its class on levels 1..l, which all its
    members share.  `finite` maps the residue mod b^(l+1) of each
    finitely-met subclass with a member outside the prefix to its bucket,
    which maps each such member to (excess, 1, canonical key, member); a
    finite S is one such class at the root.  `entries` maps that residue
    to the bucket's least member, and the residue of each infinite
    subclass to an exact entry, (count + the subclass's summary excess, 1,
    key, member) where count is its prefix count on level l+1 (a realized
    subclass, count 0, gives its smallest member), or to a lower bound
    (count, 0, residue) for a subclass not yet scored.  The summary is the
    least entry, or None while unknown.  A node is opened once, and
    stored only after S has answered all its questions.
    """

    def __init__(self, S: IntegerSet, b: int):
        self.S, self.b = S, b
        self.prefix: list[int] = []
        self.levels: list[dict[int, int]] = []
        self.nodes: dict[int, list] = {}
        self.unused = self._unused() if b == 0 else None  # the b = 0 cursor; it reads S from the first step on

    def append(self, a: int) -> None:
        """Add a to the prefix.  Of the nodes, only those of the classes a lies in
        change: each drops its summary and turns the entry a lies in into a lower
        bound, or re-scores the bucket a lies in.
        """
        b, levels = self.b, self.levels
        mod = 1
        for counts in levels:
            mod *= b
            r = a % mod
            counts[r] = counts.get(r, 0) + 1
        node, depth, mod = self.nodes.get(1), 0, 1
        while node is not None:
            node[0] = None
            mod *= b
            r1 = a % mod
            entries, bucket = node[1], node[2].get(r1)
            if bucket is not None:
                # only a's own subclass moves: ord_b(f - a) = depth for every
                # other member f, which the prefix counts already carry
                bucket.pop(a, None)
                for f, (excess, _, key, _) in bucket.items():
                    bucket[f] = (excess + ord_b(b, f - a) - depth, 1, key, f)
                if bucket:
                    entries[r1] = min(bucket.values())
                else:  # its last member is used
                    del node[2][r1], entries[r1]
                break
            if r1 not in entries:  # a meets no unused member of S below here
                break
            entries[r1] = (levels[depth][r1], 0, r1)
            depth += 1
            node = self.nodes.get(mod + r1)
        self.prefix.append(a)

    def step(self, policy: CanonicalTieBreak | RandomTieBreak) -> StepResult:
        S, b = self.S, self.b
        if not self.prefix:
            return StepResult(_initial_element(S, policy), 0)
        if b < 2:
            nxt = next(self.unused, None) if b == 0 else None
            if nxt is None:  # b = 1, or b = 0 with S used up
                return StepResult(next(iter(S.iter_canonical())), None)
            return StepResult(nxt, 0)
        return self._branch_and_bound(policy)

    def _unused(self) -> Iterator[int]:
        """S's members outside the prefix in canonical order, for b = 0, where each is worth 0.

        A member is yielded again at each step until the prefix holds it;
        the prefix only grows, so a member passed over is never needed again.
        """
        prefix, seen, synced = self.prefix, set(), 0
        for a in self.S.iter_canonical():
            while True:
                seen.update(prefix[synced:])  # a prefix may repeat a member: count places, not members
                synced = len(prefix)
                if a in seen:
                    break
                yield a

    def _branch_and_bound(self, policy: CanonicalTieBreak | RandomTieBreak) -> StepResult:
        """Certified minimum of sum_j ord_b(a' - a_j) over S.

        The root summary holds the least value and its canonical member.
        Other policies draw from the full tie set, found by going down only
        into subclasses whose entry attains their class's summary; a
        realized one gives its smallest member, and a bucket every member
        that attains it.  Once a finite S is used up, later steps repeat
        its canonical first member at infinity.
        """
        root = self.nodes.get(1) or self._open(0, 0, 1)
        if not root[1]:
            return StepResult(next(iter(self.S.iter_canonical())), None)
        value, _, _, element = self._summary(root)
        if not isinstance(policy, CanonicalTieBreak):
            b, nodes = self.b, self.nodes
            pool, todo = [], [(1, 1)]
            while todo:
                mod, cid = todo.pop()
                (target, *_), entries, finite = nodes[cid]
                # under a current summary an entry equal to it is exact; a
                # finitely-met subclass has a bucket, a scored one a node,
                # and a realized one neither
                mod *= b
                for r1, (total, *_, a) in entries.items():
                    if total == target:
                        if r1 in finite:
                            pool.extend(f for excess, _, _, f in finite[r1].values() if excess == target)
                        elif mod + r1 in nodes:
                            todo.append((mod, mod + r1))
                        else:
                            pool.append(a)
            element = policy.choose(pool)
        return StepResult(element, value)

    def _open(self, r: int, depth: int, mod: int) -> list:
        """The node of the class r mod b^depth (`mod`), asking S about each subclass once.

        A finite S is one finitely-met class: its root takes every member
        from `iter_canonical` and asks S nothing, so the cost does not grow with b;
        only the subclasses its members lie in get a bucket.
        """
        S, levels = self.S, self.levels
        mod1 = mod * self.b
        entries: dict[int, tuple] = {}
        finite: dict[int, dict] = {}
        if S.cardinality is not None:  # only its root is ever opened
            self._bucket(finite, S.iter_canonical(), depth, mod1)
        else:
            if len(levels) == depth:  # the first node at this depth
                levels.append(dict(Counter(c % mod1 for c in self.prefix)))
            counts = levels[depth]
            for r1 in range(r, mod1, mod):
                members = S.residue_status(r1, mod1)
                if members is not None:
                    self._bucket(finite, members, depth, mod1)
                elif r1 in counts:
                    entries[r1] = (counts[r1], 0, r1)
                else:
                    # a realized class holds no prefix element, so its smallest
                    # member is never excluded and depends on S alone
                    w = S.pick_in_class(r1, mod1)
                    entries[r1] = (0, 1, canonical_key(w), w)
        for r1, bucket in finite.items():
            entries[r1] = min(bucket.values())
        node = self.nodes[mod + r] = [None, entries, finite]
        return node

    def _bucket(self, finite: dict, members, depth: int, mod1: int) -> None:
        """Score each member outside the prefix into its subclass's bucket in `finite`."""
        b, prefix = self.b, self.prefix
        for f in members:
            # a prefix element outside the class adds less than depth to f's value
            excess = 0
            for c in prefix:
                v = ord_b(b, f - c)
                if v is None:
                    break
                if v > depth:
                    excess += v - depth
            else:
                finite.setdefault(f % mod1, {})[f] = (excess, 1, canonical_key(f), f)

    def _summary(self, node: list) -> tuple:
        """The summary of the root `node`, after scoring every subclass it needs.

        A lower bound sorts before an exact entry of equal total, so the
        least entry is exact only when no unscored subclass could hold a
        smaller or tied member; otherwise that subclass is scored first.
        An explicit stack stands in for recursion: a progression with step
        2^1500 nests 1,500 levels at b = 2.
        """
        b, nodes = self.b, self.nodes
        depth, mod, stack = 0, 1, []
        while True:
            if node[0] is None:
                top = min(node[1].values())
                if not top[1]:  # a lower bound: score that subclass, then come back
                    stack.append((node, top, depth, mod))
                    depth += 1
                    mod *= b
                    r1 = top[2]
                    node = nodes.get(mod + r1) or self._open(r1, depth, mod)
                    continue
                node[0] = top
            if not stack:
                return node[0]
            excess, _, key, a = node[0]
            node, (c, _, r1), depth, mod = stack.pop()
            node[1][r1] = (c + excess, 1, key, a)


def greedy_step(
    prefix: Sequence[int],
    b: int,
    S: IntegerSet,
    policy: CanonicalTieBreak | RandomTieBreak = CANONICAL,
) -> StepResult:
    """One greedy extension step: an element of provably minimal value over all of S.

    A plain prefix is replayed into a fresh state; `b_ordering` passes its
    running state instead, so no step replays the prefix: an append
    re-scores only the classes it lies in, which over a finite S are the
    members congruent to it mod b.
    """
    if b < 0:
        raise ValueError(f"base must be >= 0, got {b}")
    state = prefix
    if not isinstance(state, _GreedyState):
        state = _GreedyState(S, b)
        for a in prefix:
            state.append(a)
    return state.step(policy)


def b_ordering(
    S: IntegerSet,
    b: int,
    k: int,
    policy: CanonicalTieBreak | RandomTieBreak = CANONICAL,
    start: Optional[int] = None,
) -> BOrdering:
    """A b-ordering of S of length k+1 with its exponents."""
    if b < 0:
        raise ValueError(f"base must be >= 0, got {b}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if start is not None and not S.contains(start):
        raise ValueError(f"start element {start} is not in {S.spec}")
    state = _GreedyState(S, b)
    exponents: list[Optional[int]] = []
    for i in range(k + 1):
        step = StepResult(start, 0) if i == 0 and start is not None else greedy_step(state, b, S, policy)
        state.append(step.element)
        exponents.append(step.value)
    return BOrdering(b, state.prefix, exponents, policy.name)


@dataclass
class ExponentSequence:
    """The well-defined invariants alpha_0..alpha_k of (S, b)."""

    values: list[ExtNat]
    source: str

    @property
    def certified_steps(self) -> list[bool]:
        """Always true per index: each value is a formula or a walk proof."""
        return [True] * len(self.values)


# Most member updates a finite greedy query may make.  Each step of a run over
# a finite S re-scores the unused members of one class mod b, so a run to
# index k makes at most k times the size of S's largest class mod b of them,
# at 0.2-0.3 us each on a 2-vCPU Xeon: the limit is about 3 s of greedy.
GREEDY_WORK_MAX = 10**7


def invariants(S: IntegerSet, bases: Sequence[int], ks: Sequence[int]) -> list[tuple[str, list]]:
    """[(source, [alpha_k(S, b) for k in ks]) for b in bases]: the one route from (S, b, k) to alpha_k.

    The route is picked once per query; values are plain ints, None for inf.
    Degenerate bases take O(1).  Z, P, every ap: set and every finite set
    whose sorted members are equally spaced take O(log_b k) closed forms;
    `b_ordering` runs the greedy on them.  A finite progression a, a+d, ...,
    a+(n-1)d in its natural order is a b-ordering: a candidate a+xd with
    x >= k has value sum_l #{j < k : m_l | x-j} >= sum_l floor(k/m_l), and
    x = k attains it (see `closedforms.alpha_AP`).  A base above a finite
    set's diameter divides no difference of its members, so every index
    below |S| is 0.  Any other base gets one canonical greedy run up to
    max(ks).  For a finite S each index from |S| on is None, a certified inf,
    as every later step repeats an element; a finite run past GREEDY_WORK_MAX
    is refused with ValueError before its first step.
    """
    if any(b < 0 for b in bases):
        raise ValueError(f"base must be >= 0, got {min(bases)}")
    if min(ks) < 0:
        raise ValueError(f"k must be >= 0, got {min(ks)}")
    n = S.cardinality
    inside = [n is None or k < n for k in ks]
    form = step = width = None
    if isinstance(S, AllIntegers):
        form = closedforms.alpha_Z
    elif isinstance(S, Primes):
        form = closedforms.alpha_P
    elif isinstance(S, (ArithmeticProgression, ExplicitFinite)) and S.step is not None:
        form, step = closedforms.alpha_AP, S.step
    elif n is not None:
        width = max(S.iter_canonical()) - min(S.iter_canonical())
    rows = []
    for b in bases:
        if b == 0:
            rows.append(("degenerate-base", [0 if i else None for i in inside]))
        elif b == 1:
            rows.append(("degenerate-base", [None if k else 0 for k in ks]))
        elif step is not None:  # step passed plainly: a *args call costs as much as the formula
            rows.append(("closed-form", [form(k, b, step) if i else None for k, i in zip(ks, inside)]))
        elif form is not None:  # Z or P, both infinite
            rows.append(("closed-form", [form(k, b) for k in ks]))
        elif width is not None and b > width:
            rows.append(("closed-form", [0 if i else None for i in inside]))
        else:
            # a step inside S has a finite value: some member is not yet used
            top = max(ks) if n is None else min(max(ks), n - 1)
            if n is not None and top * n > GREEDY_WORK_MAX:  # else no class can pass the limit
                work = top * max(Counter(a % b for a in S.iter_canonical()).values())
                if work > GREEDY_WORK_MAX:
                    raise ValueError(
                        f"a greedy run to k = {top} over this set at b = {b} re-scores up to {work:,} members;"
                        f" the limit is {GREEDY_WORK_MAX:,}"
                    )
            run = b_ordering(S, b, top).exponents
            rows.append(("greedy", [run[k] if i else None for k, i in zip(ks, inside)]))
    return rows


def exponent_sequence(S: IntegerSet, b: int, k: int) -> ExponentSequence:
    """alpha_0..alpha_k(S, b), listed with the route that gave them."""
    # a negative k reaches the check as itself, not as an empty range
    ((source, values),) = invariants(S, (b,), range(min(k, 0), k + 1))
    return ExponentSequence([ExtNat(v) for v in values], source)


@dataclass
class MajorizationReport:
    """Prefix-sum dominance of a test sequence over the set invariants."""

    sequence_values: list[Optional[int]]
    equality_positions: list[int] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_majorization(S: IntegerSet, b: int, seq: Sequence[int]) -> MajorizationReport:
    """Check that prefix sums of seq's exponents dominate the invariants'.

    A violation would falsify the implementation, not the theorem, so the
    report carries the offending prefix lengths explicitly.
    """
    if b < 2:
        raise ValueError(f"majorization check needs b >= 2, got {b}")
    elements = tuple(seq)
    for a in elements:
        if not S.contains(a):
            raise ValueError(f"sequence element {a} is not in {S.spec}")
    seq_values = evaluate_test_sequence(elements, b)
    ((_, inv),) = invariants(S, (b,), range(max(len(elements), 1)))
    report = MajorizationReport(seq_values)
    for m, (got, least) in enumerate(zip(accumulate(seq_values, ext_sum), accumulate(inv, ext_sum))):
        if got == least:
            report.equality_positions.append(m)
        elif not ext_le(least, got):
            report.violations.append(m)
    return report
