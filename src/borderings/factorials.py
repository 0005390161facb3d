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
from .numerics import cumulative_digit_sum, digit_sum, ext_le, ext_sum
from .ordering import invariants, pairwise_valuation_sum


def factorial(S: IntegerSet, T: BaseSet, k: int) -> FactoredNumber:
    """The k-th generalized factorial for (S, T) in factored form."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    bases = T.resolve(S, k)
    return FactoredNumber({b: values[0] for b, (_, values) in zip(bases, invariants(S, bases, (k,)))})


def _quotient(S: IntegerSet, bases: Sequence[int], ks: Sequence[int]) -> FactoredNumber:
    """The product over bases b of b^(alpha_{ks[0]} - the other alpha_k(S, b)).

    Callers reach a base b >= 2 only with every k below |S|, where each
    alpha is a plain int.  A base 1 gives the unit 1^inf once ks[0] >= 1,
    and a base 0 adds nothing, as alpha_k(S, 0) = 0 below |S|.
    """
    exps: dict[int, int | None] = {}
    for b, (_, (e, *rest)) in zip(bases, invariants(S, bases, ks)):
        if b >= 2:
            exps[b] = e - sum(rest)
        elif b == 1 and ks[0] >= 1:
            exps[1] = None
    return FactoredNumber(exps)


def gen_integer(S: IntegerSet, T: BaseSet, n: int) -> FactoredNumber:
    """The n-th generalized integer: the exponentwise ratio of consecutive factorials.

    Zero for n >= |S|, unless every base is 1 (or there is none), where
    every factorial is 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bases = T.resolve(S, n)
    if S.cardinality is not None and n >= S.cardinality and any(b != 1 for b in bases):
        return FactoredNumber.zero()
    return _quotient(S, bases, (n, n - 1))


def gen_binomial(S: IntegerSet, T: BaseSet, k: int, ell: int) -> FactoredNumber:
    """The generalized binomial coefficient (k over ell) for (S, T)."""
    if not 0 <= ell <= k:
        raise ValueError(f"need 0 <= ell <= k, got ell={ell}, k={k}")
    if S.cardinality is not None and k >= S.cardinality:
        raise ValueError(f"k = {k} is not below |S| = {S.cardinality}")
    return _quotient(S, T.resolve(S, k), (k, ell, k - ell))


def pairwise_multiple_check(S: IntegerSet, T: BaseSet, seq: Sequence[int]) -> bool:
    """Check that the pairwise-difference product over T is a multiple of 0!..n!.

    Per base this compares only the full sums: the ord_b total over all
    pairwise differences against alpha_0 + ... + alpha_n.  Dominance at
    every prefix is `ordering.check_majorization`'s job.
    """
    elements = list(seq)
    n = len(elements) - 1
    if n < 0:
        raise ValueError("sequence must be nonempty")
    bases = T.resolve(S, n)
    for b, (_, values) in zip(bases, invariants(S, bases, range(n + 1))):
        if not ext_le(ext_sum(*values), pairwise_valuation_sum(elements, b)):
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

