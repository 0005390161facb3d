"""Generalized factorials, integers, binomial coefficients and row products over (S, T).

The k-th factorial for (S, T) is the product over bases b in T of
b^alpha_k(S, b), kept in factored form; generalized integers and
binomials are the telescoped exponent differences, which the underlying
theory guarantees are nonnegative.  Degenerate bases 0 and 1 follow the
conventions of the factored-number module.
"""

from __future__ import annotations

from typing import Sequence

from .factored import BaseSet, FactoredNumber
from .intsets import AllIntegers, IntegerSet
from .numerics import INF, ZERO, ExtNat, cumulative_digit_sum, digit_sum
from .ordering import (
    DEFAULT_CONFIG,
    EngineConfig,
    alpha,
    alphas,
    pairwise_valuation_sum,
)


def factorial(
    S: IntegerSet,
    T: BaseSet,
    k: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> FactoredNumber:
    """The k-th generalized factorial for (S, T) in factored form."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return FactoredNumber({b: alpha(S, b, k, config) for b in T.resolve(S, k)})


def gen_integer(
    S: IntegerSet,
    T: BaseSet,
    n: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> FactoredNumber:
    """The n-th generalized integer: the exponentwise ratio of consecutive factorials.

    Zero for n >= |S| (except for T = {1}, where every factorial is 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bases = T.resolve(S, n)
    card = S.cardinality
    if card.is_finite and n >= card.value:
        if set(bases) == {1}:
            return FactoredNumber({1: INF})
        return FactoredNumber.zero()
    exps: dict[int, ExtNat | int] = {}
    for b in bases:
        if b == 0:
            continue  # alpha stays 0 below |S|
        if b == 1:
            exps[1] = INF  # ratio of 1^inf factors is still the unit
            continue
        a_n, a_prev = alphas(S, b, (n, n - 1), config)
        exps[b] = a_n.value - a_prev.value
    return FactoredNumber(exps)


def gen_binomial(
    S: IntegerSet,
    T: BaseSet,
    k: int,
    ell: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> FactoredNumber:
    """The generalized binomial coefficient (k over ell) for (S, T)."""
    if not 0 <= ell <= k:
        raise ValueError(f"need 0 <= ell <= k, got ell={ell}, k={k}")
    card = S.cardinality
    if card.is_finite and k >= card.value:
        raise ValueError(f"k = {k} is not below |S| = {card.value}")
    bases = T.resolve(S, k)
    exps: dict[int, ExtNat | int] = {}
    for b in bases:
        if b == 0:
            continue
        if b == 1:
            if k >= 1:
                exps[1] = INF
            continue
        a_k, a_ell, a_rest = alphas(S, b, (k, ell, k - ell), config)
        exps[b] = a_k.value - a_ell.value - a_rest.value
    return FactoredNumber(exps)


def pairwise_multiple_check(
    S: IntegerSet,
    T: BaseSet,
    seq: Sequence[int],
    config: EngineConfig = DEFAULT_CONFIG,
) -> bool:
    """Check that the pairwise-difference product over T is a multiple of 0!..n!.

    Per base this is exactly prefix-sum dominance of the sequence's
    exponent values over the invariants, checked exponentwise.
    """
    elements = list(seq.elements) if hasattr(seq, "elements") else list(seq)
    n = len(elements) - 1
    if n < 0:
        raise ValueError("sequence must be nonempty")
    for b in T.resolve(S, n):
        if pairwise_valuation_sum(elements, b) < sum(alphas(S, b, range(n + 1), config), ZERO):
            return False
    return True


def nu_bar(n: int, b: int) -> int:
    """Total exponent of b in the n-th row product, by the digit-sum formula.

    The formula is exact; a non-integer here would mean an implementation
    bug, so the division is checked.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    num = 2 * cumulative_digit_sum(n, b) - (n - 1) * digit_sum(n, b)
    if num % (b - 1) != 0:
        raise ArithmeticError(f"row exponent numerator {num} not divisible by {b - 1}")
    return num // (b - 1)


def row_product(n: int, x: int | None = None) -> FactoredNumber:
    """Product of the generalized binomial coefficients in row n for (Z, N).

    With x, the product is truncated to bases <= x.
    """
    if x is not None and not 2 <= x <= n:
        raise ValueError(f"need 2 <= x <= n, got x={x}, n={n}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return FactoredNumber({b: nu_bar(n, b) for b in range(2, (n if x is None else x) + 1)})


def row_product_direct(n: int) -> FactoredNumber:
    """Oracle for row_product: multiply the row binomials directly."""
    S = AllIntegers()
    out = FactoredNumber.one()
    for k in range(n + 1):
        out = out * gen_binomial(S, BaseSet.auto(), n, k)
    return out

