"""Subsets of Z with membership, canonical enumeration and residue-class knowledge.

The canonical element order used everywhere downstream is (|a|, nonnegative
before negative).  Every infinite set answers residue-class questions exactly;
P asks each of its questions of the primes in `numerics`.
"""

from __future__ import annotations

import heapq
import math
import os
import stat
from itertools import count, islice
from typing import Iterator, Optional

from .numerics import is_prime, iter_primes, least_prime_in


class SetSpecError(ValueError):
    """Raised for malformed set-spec strings or invalid set parameters."""


def canonical_key(a: int) -> tuple[int, int]:
    """Sort key for the canonical order: by |a|, nonnegative first."""
    return (abs(a), 0 if a >= 0 else 1)


class IntegerSet:
    """Base class for subsets of Z.

    Subclasses provide exact membership and enumeration in canonical order.
    Residue questions are asked of infinite sets only: the members of a
    class for any modulus m >= 2, and the class's smallest member.
    """

    spec: str  # the set-spec string this set round-trips to
    cardinality: Optional[int] = None  # the number of members; None for infinitely many

    def contains(self, a: int) -> bool:
        raise NotImplementedError

    def iter_canonical(self) -> Iterator[int]:
        """Members in canonical order; unbounded for infinite sets."""
        raise NotImplementedError

    def residue_status(self, r: int, m: int) -> Optional[tuple[int, ...]]:
        """The members congruent to r mod m in canonical order, () when there
        are none, or None when there are infinitely many.
        """
        raise NotImplementedError

    def pick_in_class(self, r: int, m: int) -> Optional[int]:
        """Smallest member (canonical order) congruent to r mod m.

        Returns None when the class has no member.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


def _check_modulus(r: int, m: int) -> int:
    if m < 2:
        raise ValueError(f"residue modulus must be >= 2, got {m}")
    return r % m


class ExplicitFinite(IntegerSet):
    """A finite set; `step` is the common difference of its sorted members, or None
    when they are not equally spaced (1 for a single member).
    """

    def __init__(self, values, spec: str | None = None):
        vals = sorted(set(int(v) for v in values))
        if not vals:
            raise SetSpecError("explicit set must be nonempty")
        step = vals[1] - vals[0] if len(vals) > 1 else 1
        self.step = step if all(y - x == step for x, y in zip(vals, vals[1:])) else None
        self.values = tuple(vals)
        self.cardinality = len(vals)
        self._members = frozenset(vals)
        self._canonical = tuple(sorted(vals, key=canonical_key))
        self.spec = spec if spec is not None else "list:" + ",".join(map(str, vals))

    def contains(self, a: int) -> bool:
        return a in self._members

    def iter_canonical(self) -> Iterator[int]:
        return iter(self._canonical)


class AllIntegers(IntegerSet):
    spec = "Z"

    def contains(self, a: int) -> bool:
        return True

    def iter_canonical(self) -> Iterator[int]:
        yield 0
        n = 1
        while True:
            yield n
            yield -n
            n += 1

    def residue_status(self, r: int, m: int) -> None:
        _check_modulus(r, m)
        return None

    def pick_in_class(self, r, m):
        r = _check_modulus(r, m)
        neg = r - m  # the class's least-|a| members are r and r - m
        return r if canonical_key(r) <= canonical_key(neg) else neg


class Primes(IntegerSet):
    spec = "P"

    def contains(self, a: int) -> bool:
        return is_prime(a)

    def iter_canonical(self) -> Iterator[int]:
        return iter_primes()

    def residue_status(self, r: int, m: int) -> Optional[tuple[int, ...]]:
        r = _check_modulus(r, m)
        g = math.gcd(r, m)
        if g == 1:
            # Dirichlet: infinitely many primes in every class coprime to m
            return None
        # a prime p = r (mod m) must divide g, hence equal g
        return (g,) if g % m == r and is_prime(g) else ()

    def pick_in_class(self, r, m):
        return least_prime_in(_check_modulus(r, m), m)


class ArithmeticProgression(IntegerSet):
    """The one-sided progression first, first+step, first+2*step, ..."""

    def __init__(self, first: int, step: int):
        if step < 1:
            raise SetSpecError(f"progression step must be positive, got {step}")
        self.first = first
        self.step = step
        self.spec = f"ap:{first},{step}"

    def contains(self, a: int) -> bool:
        return a >= self.first and (a - self.first) % self.step == 0

    def iter_canonical(self) -> Iterator[int]:
        if self.first >= 0:
            return count(self.first, self.step)
        # the members >= 0 rise from first % step; those below 0 fall to first
        low = self.first % self.step
        below = range(low - self.step, self.first - 1, -self.step)
        return heapq.merge(count(low, self.step), below, key=canonical_key)

    def residue_status(self, r: int, m: int) -> Optional[tuple[int, ...]]:
        r = _check_modulus(r, m)
        g = math.gcd(self.step, m)
        return None if (r - self.first) % g == 0 else ()

    def pick_in_class(self, r, m):
        r = _check_modulus(r, m)
        g = math.gcd(self.step, m)
        if (r - self.first) % g != 0:
            return None
        # first + i*step = r (mod m)  <=>  i = i0 (mod m/g)
        mg = m // g
        i0 = ((r - self.first) // g * pow(self.step // g, -1, mg)) % mg if mg > 1 else 0
        d = mg * self.step
        x = self.first + i0 * self.step  # the class's least member; members rise by d
        if x >= 0:
            return x
        # the canonically least member is the least one >= 0 or the one below it
        return min(x % d, x % d - d, key=canonical_key)


class NonnegativeIntegers(ArithmeticProgression):
    """N = 0, 1, 2, ...: the progression ap:0,1 under its own spec."""

    def __init__(self):
        super().__init__(0, 1)
        self.spec = "N"


RANGE_WIDTH_MAX = 10**5  # most members a range:, list: or file: spec may name; each is built in full


def parse_range(body: str) -> tuple[int, int]:
    """The bounds of a ``<lo>..<hi>`` spec body, as set and base specs write them."""
    if ".." not in body:
        raise ValueError("expected range:lo..hi")
    lo, hi = body.split("..", 1)
    return int(lo), int(hi)


def _finite(values, spec: str | None) -> ExplicitFinite:
    """The finite set of `values`, taking no more than one member past RANGE_WIDTH_MAX."""
    values = list(islice(values, RANGE_WIDTH_MAX + 1))
    if len(values) > RANGE_WIDTH_MAX:
        raise ValueError(f"at least {len(values)} members; the limit is {RANGE_WIDTH_MAX}")
    return ExplicitFinite(values, spec)


def parse_set_spec(spec: str) -> IntegerSet:
    """Parse the set-spec grammar used by the CLI and config files.

    Grammar: ``Z`` | ``N`` | ``P`` | ``ap:<first>,<step>`` |
    ``list:<c1>,<c2>,...`` | ``file:<path>`` | ``range:<lo>..<hi>``, each of
    the last three naming at most RANGE_WIDTH_MAX members.  A malformed spec
    of a known kind raises ``bad set spec '<spec>': <reason>``.
    """
    spec = spec.strip()
    head, colon, body = spec.partition(":")
    kind = head + colon  # a kind with a body needs its colon
    try:
        if kind == "Z":
            return AllIntegers()
        if kind == "N":
            return NonnegativeIntegers()
        if kind == "P":
            return Primes()
        if kind == "ap:":
            first, step = body.split(",")
            return ArithmeticProgression(int(first), int(step))
        if kind == "list:":
            return _finite((int(t) for t in body.split(",") if t.strip()), None)
        if kind == "file:":
            if not stat.S_ISREG(os.stat(body).st_mode):  # a FIFO would block open, a device never end
                raise ValueError("not a regular file")
            with open(body) as fh:
                return _finite((int(line) for line in fh if line.strip()), spec)
        if kind == "range:":
            lo, hi = parse_range(body)
            return _finite(range(lo, hi + 1), spec)
    except (ValueError, OSError) as e:
        raise SetSpecError(f"bad set spec {spec!r}: {e}") from None
    raise SetSpecError(f"unrecognised set spec {spec!r}")
