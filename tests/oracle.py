"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's greedy engine and closed forms:
valuations are recomputed by repeated division, minima by exhaustive
scans, and orderings by exploring every greedy branch.  The t-ordering
reference takes only the library's order type and error from `series`.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, takewhile

from borderings.series import CapError, TOrderValue

INFINITY = None  # oracle-side marker for an infinite valuation


def up_to(S, bound):
    """The members of S with |a| <= bound, in canonical order."""
    return list(takewhile(lambda a: abs(a) <= bound, S.iter_canonical()))


def ord_oracle(b: int, a: int):
    """Valuation by repeated division; None encodes infinity."""
    if b == 0:
        return INFINITY if a == 0 else 0
    if b == 1:
        return INFINITY
    if a == 0:
        return INFINITY
    k = 0
    while a % b == 0:
        a //= b
        k += 1
    return k


def step_value(prefix, b, a):
    """Sum of valuations of differences, or None for infinity."""
    total = 0
    for p in prefix:
        o = ord_oracle(b, a - p)
        if o is INFINITY:
            return INFINITY
        total += o
    return total


def all_greedy_exponent_tuples(values, b, k):
    """Exponent tuples over every greedy ordering of a finite set.

    Explores every start element and every minimizer branch; the result
    set having size one is exactly the well-definedness statement.
    """
    results: set[tuple] = set()

    def rec(prefix, exps):
        if len(prefix) == k + 1:
            results.add(tuple(exps))
            return
        vals = {a: step_value(prefix, b, a) for a in values}
        finite = {a: v for a, v in vals.items() if v is not INFINITY}
        if finite:
            m = min(finite.values())
            for a, v in finite.items():
                if v == m:
                    rec(prefix + [a], exps + [m])
        else:
            rec(prefix + [values[0]], exps + [INFINITY])

    for a0 in values:
        rec([a0], [0])
    return results


def subset_pair_minimum(values, b, k):
    """min over (k+1)-subsets A of values of sum_{x<y in A} ord_b(y - x), for b >= 2.

    For a finite S and k < |S| this is alpha_0 + ... + alpha_k of (S, b):
    every ordering of A has A's pairwise sum as its value sum, which
    dominates the invariants' prefix sum, and a b-ordering's first k+1
    elements attain it.  No greedy step, prefix or tie-break rule is used.
    """
    return min(
        sum(ord_oracle(b, y - x) for x, y in combinations(A, 2))
        for A in combinations(values, k + 1)
    )


def zero_base_step(prefix, S):
    """A step at b = 0, where every unused member is worth 0, by a walk of S from its first member.

    Returns (the first member outside the prefix, 0), or (S's first member,
    INFINITY) once the prefix holds every member.
    """
    used = set(prefix)
    for a in S.iter_canonical():
        if a not in used:
            return a, 0
    return next(iter(S.iter_canonical())), INFINITY


def windowed_min(prefix, b, candidates):
    """Exhaustive minimum of the step value over an explicit window."""
    best = INFINITY
    minimizers = []
    for a in candidates:
        v = step_value(prefix, b, a)
        if v is INFINITY:
            continue
        if best is INFINITY or v < best:
            best, minimizers = v, [a]
        elif v == best:
            minimizers.append(a)
    return best, minimizers


def class_oracle_step(prefix, b, S, classes_max):
    """Exact greedy step (value, canonical element) over any S, b >= 2, with no walk.

    A member's value truncated at V + 1, sum_j min(ord_b(a - a_j), V + 1),
    depends only on its class mod b^(V+1).  At the first V at which some
    class met by S scores exactly V, every member of such a class has value
    V and none holds a prefix element, and no member of S has a smaller
    value; so the element is the least class pick.  Returns None when
    b^(V+1) passes classes_max before any class reaches V.
    """
    level = 0
    while b ** (level + 1) <= classes_max:
        m = b ** (level + 1)
        reached = []
        for r in range(m):
            score = 0
            for p in prefix:
                o = ord_oracle(b, r - p)
                score += level + 1 if o is INFINITY or o > level else o
            if score == level and S.residue_status(r, m) != ():
                reached.append(r)
        if reached:
            picks = [S.pick_in_class(r, m) for r in reached]
            return level, min(picks, key=lambda a: (abs(a), a < 0))
        level += 1
    return None


def partition_minimum(k: int, m: int):
    """Minimum of sum C(n_i, 2) over m-part partitions of k, with minimizers."""
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


def totients_and_omegas(n: int) -> tuple[list[int], list[int]]:
    """totient(b) and omega(b) for every 0 <= b <= n, from one sieve (entries 0, 1 unused)."""
    phi, omegas = list(range(n + 1)), [0] * (n + 1)
    for p in range(2, n + 1):
        if not omegas[p]:  # no smaller prime divides p
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
                omegas[m] += 1
    return phi, omegas


def order_of_difference(f, g):
    """ord_t(f - g), read off the first coefficient at which f and g differ, or at-least their least cap."""
    for i, (a, c) in enumerate(zip(f.coeffs, g.coeffs)):
        if a != c:
            return TOrderValue.of(i)
    return TOrderValue.at_least(min(f.cap, g.cap))


def coefficient_t_ordering(U, k, policy, start=None):
    """(indices, exponents) of the greedy t-ordering, each order read by order_of_difference.

    Raises CapError where an unresolved candidate lies below the exact minimum.
    """
    indices = [start if start is not None else policy.choose(range(len(U)))]
    exponents = [TOrderValue.of(0)]
    sums = [TOrderValue.of(0)] * len(U)
    for _ in range(k):
        last = U[indices[-1]]
        sums = [s + order_of_difference(f, last) for s, f in zip(sums, U)]
        exact = [s.floor for s in sums if s.exact]
        if exact:
            vmin = min(exact)
            if any(not s.exact and s.floor < vmin for s in sums):
                raise CapError(f"a candidate is unresolved below the exact minimum {vmin}")
            chosen = policy.choose([i for i, s in enumerate(sums) if s.exact and s.floor == vmin])
        else:
            chosen = policy.choose(range(len(U)))
        indices.append(chosen)
        exponents.append(sums[chosen])
    return indices, exponents
