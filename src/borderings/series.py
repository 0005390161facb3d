"""Truncated formal power series over exact rationals, t-orderings, and digit maps.

Coefficients are given as int or Fraction and held as Fraction; anything
else (a float, say) is refused rather than turned into a binary fraction.
A product runs on integer numerators over one common denominator and
returns to Fraction once per output coefficient; the max-min check holds
its polynomials in x as integer rows, one per power of x, throughout.
Inside, an integer series of length n is packed into one int at t = 2^w
(Kronecker substitution): a product is one int multiply, and Horner's rule
runs in Z/2^(n*w), the image of Z[t]/t^n.  The width w is one bit more than
a bound on every output coefficient, so the n balanced base-2^w digits of the
result are its coefficients, and ord_t is the index of the digit that holds
the lowest set bit, as it is of the difference of two packed t-ordering members.

Everything is truncated at a degree cap; a vanishing truncation never
pretends to be exact.  Orders below the cap are reported exactly, orders
at or beyond it only as lower bounds, and any comparison whose outcome
truncation cannot justify raises CapError instead of guessing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import ord_b
from .numerics import digits as base_digits
from .ordering import CANONICAL, TieBreakPolicy


class CapError(ArithmeticError):
    """A comparison or equality check needed exactness beyond the cap."""


@dataclass(frozen=True)
class TOrderValue:
    """An ord_t result (or sum of them) under truncation.

    exact=True means the value is exactly `floor`; otherwise only
    `floor` <= value is known (the coefficients below the cap vanished).
    """

    floor: int
    exact: bool

    @classmethod
    def of(cls, v: int) -> "TOrderValue":
        return cls(v, True)

    @classmethod
    def at_least(cls, v: int) -> "TOrderValue":
        return cls(v, False)

    def __add__(self, other: "TOrderValue") -> "TOrderValue":
        return TOrderValue(self.floor + other.floor, self.exact and other.exact)

    def must_equal(self, v: int) -> bool:
        """Exact equality with an integer; raises if truncation hides the answer."""
        if self.exact:
            return self.floor == v
        if v < self.floor:
            return False
        raise CapError(f"order known only as >= {self.floor}; cannot compare with {v}")

    def must_le(self, v: int) -> bool:
        if self.exact:
            return self.floor <= v
        if self.floor > v:
            return False
        raise CapError(f"order known only as >= {self.floor}; cannot bound by {v}")

    def render(self) -> str:
        return str(self.floor) if self.exact else f">={self.floor}"


class TruncatedSeries:
    """A power series known exactly up to (not including) degree cap."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"series coefficients must be int or Fraction, got {c!r}")
        self.coeffs = tuple(map(Fraction, coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series needs a positive cap")

    @property
    def cap(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries([a + c for a, c in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries([a - c for a, c in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cap, other.cap)
        (a, c), d = _scaled((self.coeffs, other.coeffs), n)
        return TruncatedSeries([Fraction(v, d * d) for v in _convolve(a, c)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def ord_t(self) -> TOrderValue:
        """Index of the first nonzero coefficient, or an at-least-cap marker."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return TOrderValue.of(i)
        return TOrderValue.at_least(self.cap)

    def __repr__(self) -> str:
        terms = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"TruncatedSeries({body}; cap={self.cap})"


def _scaled(seqs, n: Optional[int] = None) -> tuple[list[list[int]], int]:
    """Each coefficient sequence, cut to n terms if n is given, as integer numerators over one denominator d."""
    d = math.lcm(*{c.denominator for cs in seqs for c in cs[:n]})
    return [[c.numerator * (d // c.denominator) for c in cs[:n]] for cs in seqs], d


def _pack(cs: list[int], w: int) -> int:
    """The integer series cs at t = 2^w: sum of cs[i] * 2^(w*i)."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << w) + c
    return acc


def _unpack(v: int, w: int, n: int) -> list[int]:
    """The n lowest balanced base-2^w digits of v, each in [-2^(w-1), 2^(w-1))."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    for _ in range(n):
        c = v & mask
        if c >= half:
            c -= 1 << w
        out.append(c)
        v = (v - c) >> w
    return out


def _convolve(a: list[int], c: list[int]) -> list[int]:
    """The product of two integer coefficient lists of one length, truncated to it.

    w is one bit more than ||a||_1 * max|c|, a bound on every output coefficient.
    """
    w = (sum(map(abs, a)) * max(map(abs, c))).bit_length() + 1
    return _unpack(_pack(a, w) * _pack(c, w), w, len(a))


def phi_b(a: int, b: int, cap: int) -> TruncatedSeries:
    """The base-b digit map: a -> sum of d_k t^k with d_k the digits of a.

    Preserves congruences: ord_t(phi_b(a1) - phi_b(a2)) = ord_b(a1 - a2).
    Not a ring map, but it carries b-orderings to t-orderings.
    """
    return TruncatedSeries(base_digits(a, b, cap))


def congruence_check(b: int, a1: int, a2: int, cap: int) -> bool:
    """Verify ord_t(phi_b(a1) - phi_b(a2)) == ord_b(a1 - a2) at this cap."""
    lhs = (phi_b(a1, b, cap) - phi_b(a2, b, cap)).ord_t()
    rhs = ord_b(b, a1 - a2)
    if rhs is None or rhs >= cap:
        return not lhs.exact  # both sides capped-infinite
    return lhs.exact and lhs.floor == rhs


def _qk_rows(Fs: list[list[int]], n: int) -> list[list[int]]:
    """The integer rows B_0..B_k of the product of (y - F_j) mod t^n, lowest power of y first.

    A factor y - F maps B_i to B_(i-1) - B_i*F.
    """
    zero = [0] * n
    rows = [[1] + zero[1:]]
    for F in Fs:
        rows = [[x - y for x, y in zip(lo, _convolve(c, F[:n]))] for lo, c in zip([zero] + rows, rows + [zero])]
    return rows


def _horner(C: list[list[int]], F: list[int], d: int, n: int) -> tuple[int, int]:
    """(A_0 packed at t = 2^w, w) with A_0 = d^k * sum_i C_i * (F/d)^i mod t^n.

    A_k = C_k, A_i = A_(i+1)*F + C_i*d^(k-i) runs on ints mod 2^(n*w): t -> 2^w
    is a ring map from Z[t]/t^n.  A_i's coefficients are at most B_i in size,
    B_k = max|C_k|, B_i = B_(i+1)*||F||_1 + max|C_i|*d^(k-i); w is one bit
    more than B_0.  C's rows and F need at least n terms.
    """
    k = len(C) - 1
    norm = sum(map(abs, F[:n]))
    bound = 0
    for i in range(k, -1, -1):
        bound = bound * norm + max(map(abs, C[i][:n])) * d ** (k - i)
    w = bound.bit_length() + 1
    mask = (1 << n * w) - 1
    P = _pack(F[:n], w)
    acc = 0
    for i in range(k, -1, -1):
        acc = (acc * P + _pack(C[i][:n], w) * d ** (k - i)) & mask
    return acc, w


@dataclass
class TOrdering:
    """A greedy t-ordering of a finite set of series with its exponent values."""

    indices: list[int]
    elements: list[TruncatedSeries]
    exponents: list[TOrderValue]


def _order(v: int, w: int, n: int) -> TOrderValue:
    """ord_t of an integer series packed at t = 2^w and known mod t^n, or at-least n if it vanishes there.

    Each nonzero coefficient, below 2^w in size, sets a bit of its own digit.
    """
    if v:
        o = ((v & -v).bit_length() - 1) // w
        if o < n:
            return TOrderValue.of(o)
    return TOrderValue.at_least(n)


def t_ordering(
    U: Sequence[TruncatedSeries],
    k: int,
    policy: TieBreakPolicy = CANONICAL,
    start: Optional[int] = None,
) -> TOrdering:
    """Greedy ordering of U minimising summed ord_t of differences at each step.

    Each candidate's sum is kept current by one ord_t per step.  Raises
    CapError if truncation leaves a minimisation ambiguous; choose the cap
    above the largest exponent the run can attain.
    """
    if not U:
        raise ValueError("U must be nonempty")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    idx = start if start is not None else policy.choose(range(len(U)))
    if not 0 <= idx < len(U):
        raise ValueError(f"start index {idx} out of range")
    Fs, _ = _scaled([f.coeffs for f in U])
    # 2^w above twice the largest |numerator|, so above every coefficient of a difference
    w = max(abs(c) for F in Fs for c in F).bit_length() + 1
    members = [(_pack(F, w), len(F)) for F in Fs]
    indices = [idx]
    exponents = [TOrderValue.of(0)]
    sums = [TOrderValue.of(0)] * len(U)
    for _ in range(k):
        last, cap = members[indices[-1]]
        sums = [s + _order(v - last, w, min(n, cap)) for s, (v, n) in zip(sums, members)]
        exact_vals = [s.floor for s in sums if s.exact]
        if exact_vals:
            vmin = min(exact_vals)
            for s in sums:
                if not s.exact and s.floor < vmin:
                    raise CapError(
                        f"candidate order >= {s.floor} is unresolved below exact minimum {vmin}"
                    )
            chosen = policy.choose([i for i, s in enumerate(sums) if s.exact and s.floor == vmin])
        else:
            # every candidate is capped: record the chosen at-least marker
            chosen = policy.choose(range(len(U)))
        indices.append(chosen)
        exponents.append(sums[chosen])
    return TOrdering(indices, [U[i] for i in indices], exponents)


COEFF_BOUND = 3  # sampled coefficients have integer entries in [-COEFF_BOUND, COEFF_BOUND]
T_DEGREE = 3  # ... and t-degree at most T_DEGREE


def _random_rows(rng: random.Random, degree: int, cap: int) -> list[list[int]]:
    """Rows of a random t-primitive polynomial of x-degree `degree`, lowest power of x first.

    Entries lie in [-COEFF_BOUND, COEFF_BOUND] up to t^T_DEGREE, cut or zero-padded to
    `cap`; drawn again until the leading row and some constant term are nonzero.
    """
    pad = [0] * max(0, cap - T_DEGREE - 1)
    while True:
        rows = [
            [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(T_DEGREE + 1)][:cap] + pad
            for _ in range(degree + 1)
        ]
        if any(rows[degree]) and any(r[0] for r in rows):
            return rows


@dataclass
class MaxMinReport:
    """Both checkable directions of the max-min characterisation at index k."""

    alpha_k: int
    witness_min: int
    witness_equal: bool
    sample_violations: int

    @property
    def ok(self) -> bool:
        return self.witness_equal and self.sample_violations == 0


def _min_order_over(Fs: list[list[int]], d: int, C: list[list[int]]) -> TOrderValue:
    """The least ord_t(p(f)) over f = F/d for F in Fs, for p with integer rows C (or a multiple).

    p(f) is known mod t^n, n the least length of F and the rows.  Raises
    CapError if truncation leaves the minimum ambiguous.  Once an exact
    minimum m is known, later members are evaluated mod t^m only: an order
    below m is exact there, and one at or above m cannot change the result
    (an unresolved floor >= m raises nothing either).
    """
    own = min(map(len, C))
    best: Optional[TOrderValue] = None
    floors_unresolved: list[int] = []
    for F in Fs:
        if best is not None and best.floor == 0:
            return best  # nothing lies below order 0
        n = min(len(F), own) if best is None else min(len(F), own, best.floor)
        acc, w = _horner(C, F, d, n)
        o = _order(acc, w, n)
        if not o.exact:
            floors_unresolved.append(o.floor)
        elif best is None or o.floor < best.floor:
            best = o
    if best is None:
        return TOrderValue.at_least(min(floors_unresolved))
    if any(fl < best.floor for fl in floors_unresolved):
        raise CapError(f"minimum ambiguous: unresolved order below exact {best.floor}")
    return best


def maxmin_check(
    U: Sequence[TruncatedSeries],
    k: int,
    samples: int = 20,
    seed: int = 0,
) -> MaxMinReport:
    """Verify the witness equality and sampled upper bounds for alpha_k(U).

    (a) the monic product over a t-ordering prefix attains alpha_k(U) as
    its minimum order over U; (b) every sampled primitive polynomial of
    degree k has minimum order <= alpha_k(U).  The full maximisation over
    all primitive polynomials is not machine-checkable and not attempted.
    U is scaled once to numerators F over one d.  d^k * q_k(F/d) = prod (F - F_j),
    so q_k's orders are its integer rows' at F itself, with denominator 1.
    """
    run = t_ordering(U, k)
    alpha = run.exponents[k]
    if not alpha.exact:
        raise CapError(f"alpha_{k}(U) not resolved below the cap (>= {alpha.floor})")
    Fs, d = _scaled([f.coeffs for f in U])
    prefix = [Fs[i] for i in run.indices[:k]]
    witness = _min_order_over(Fs, 1, _qk_rows(prefix, min(map(len, prefix), default=8)))
    witness_equal = witness.must_equal(alpha.floor)

    rng = random.Random(seed)
    cap = min(f.cap for f in U)
    violations = 0
    for _ in range(samples):
        if not _min_order_over(Fs, d, _random_rows(rng, k, cap)).must_le(alpha.floor):
            violations += 1
    return MaxMinReport(
        alpha_k=alpha.floor,
        witness_min=witness.floor,
        witness_equal=witness_equal,
        sample_violations=violations,
    )
