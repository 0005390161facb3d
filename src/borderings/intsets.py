"""Subsets of Z with membership, canonical enumeration and residue-class knowledge.

The canonical element order used everywhere downstream is (|a|, nonnegative
before negative).  Every set answers residue-class questions exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .numerics import INF, ExtNat, is_prime, primes_up_to


SEARCH_CAP = 10**7  # default cap for in-class element searches


class SetSpecError(ValueError):
    """Raised for malformed set-spec strings or invalid set parameters."""


class SearchExhausted(RuntimeError):
    """An element search hit its configured cap without an answer."""


def canonical_key(a: int) -> tuple[int, int]:
    """Sort key for the canonical order: by |a|, nonnegative first."""
    return (abs(a), 0 if a >= 0 else 1)


class ResidueKind(Enum):
    EMPTY = "empty"
    FINITE_ONLY = "finite_only"
    INFINITE = "infinite"


@dataclass(frozen=True)
class ResidueStatus:
    """What a set knows about its intersection with a residue class r mod m."""

    kind: ResidueKind
    members: tuple[int, ...] = ()

    @classmethod
    def empty(cls) -> "ResidueStatus":
        return cls(ResidueKind.EMPTY)

    @classmethod
    def finite(cls, members) -> "ResidueStatus":
        members = tuple(sorted(members, key=canonical_key))
        return cls(ResidueKind.FINITE_ONLY, members) if members else cls(ResidueKind.EMPTY)

    @classmethod
    def infinite(cls) -> "ResidueStatus":
        return cls(ResidueKind.INFINITE)

    @property
    def nonempty(self) -> bool:
        return self.kind is not ResidueKind.EMPTY


class IntegerSet:
    """Base class for subsets of Z.

    Subclasses provide exact membership, bounded enumeration in canonical
    order, residue-class status for any modulus m >= 2, and a smallest-
    element search within a residue class.
    """

    spec: str  # the set-spec string this set round-trips to

    @property
    def cardinality(self) -> ExtNat:
        return INF

    def contains(self, a: int) -> bool:
        raise NotImplementedError

    def elements_up_to(self, bound: int) -> list[int]:
        """All members with |a| <= bound, in canonical order."""
        raise NotImplementedError

    def iter_canonical(self) -> Iterator[int]:
        """Members in canonical order; unbounded for infinite sets."""
        bound, seen = 16, 0
        while True:
            elems = self.elements_up_to(bound)
            yield from elems[seen:]
            if not self.cardinality.is_finite or len(elems) < int(self.cardinality.value):
                seen = len(elems)
                bound *= 2
            else:
                return

    def residue_status(self, r: int, m: int) -> ResidueStatus:
        raise NotImplementedError

    def pick_in_class(self, r: int, m: int, cap: int = SEARCH_CAP) -> Optional[int]:
        """Smallest member (canonical order) congruent to r mod m.

        Returns None when the class is provably exhausted; raises
        SearchExhausted if an infinite class exceeds the search cap.
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
        self._members = frozenset(vals)
        self._canonical = tuple(sorted(vals, key=canonical_key))
        self.spec = spec if spec is not None else "list:" + ",".join(map(str, vals))

    @property
    def cardinality(self) -> ExtNat:
        return ExtNat(len(self.values))

    def contains(self, a: int) -> bool:
        return a in self._members

    def elements_up_to(self, bound: int) -> list[int]:
        return [a for a in self._canonical if abs(a) <= bound]

    def iter_canonical(self) -> Iterator[int]:
        return iter(self._canonical)

    def residue_status(self, r: int, m: int) -> ResidueStatus:
        r = _check_modulus(r, m)
        return ResidueStatus.finite(a for a in self.values if a % m == r)

    def pick_in_class(self, r, m, cap=SEARCH_CAP):
        r = _check_modulus(r, m)
        for a in self._canonical:
            if a % m == r:
                return a
        return None


class AllIntegers(IntegerSet):
    spec = "Z"

    def contains(self, a: int) -> bool:
        return True

    def elements_up_to(self, bound: int) -> list[int]:
        out = [0]
        for n in range(1, bound + 1):
            out.extend((n, -n))
        return out if bound >= 0 else []

    def iter_canonical(self) -> Iterator[int]:
        yield 0
        n = 1
        while True:
            yield n
            yield -n
            n += 1

    def residue_status(self, r: int, m: int) -> ResidueStatus:
        _check_modulus(r, m)
        return ResidueStatus.infinite()

    def pick_in_class(self, r, m, cap=SEARCH_CAP):
        r = _check_modulus(r, m)
        neg = r - m  # the class's least-|a| members are r and r - m
        return r if canonical_key(r) <= canonical_key(neg) else neg


class _PrimeCache:
    """Grow-only sieve shared by all Primes instances."""

    def __init__(self):
        self.limit = 1 << 10
        self.primes = primes_up_to(self.limit)

    def extend_to(self, limit: int) -> None:
        if limit > self.limit:
            self.limit = max(limit, self.limit * 2)
            self.primes = primes_up_to(self.limit)

    def iter_primes(self) -> Iterator[int]:
        i = 0
        while True:
            if i >= len(self.primes):
                self.extend_to(self.limit * 2)
            yield self.primes[i]
            i += 1


class Primes(IntegerSet):
    spec = "P"
    _cache = _PrimeCache()

    def contains(self, a: int) -> bool:
        return is_prime(a)

    def elements_up_to(self, bound: int) -> list[int]:
        if bound < 2:
            return []
        self._cache.extend_to(bound)
        ps = self._cache.primes
        return ps[: bisect.bisect_right(ps, bound)]

    def iter_canonical(self) -> Iterator[int]:
        return self._cache.iter_primes()

    def residue_status(self, r: int, m: int) -> ResidueStatus:
        r = _check_modulus(r, m)
        g = math.gcd(r, m)
        if g == 1:
            # Dirichlet: infinitely many primes in every class coprime to m
            return ResidueStatus.infinite()
        # a prime p = r (mod m) must divide g, hence equal g
        if is_prime(g) and g % m == r:
            return ResidueStatus.finite([g])
        return ResidueStatus.empty()

    def pick_in_class(self, r, m, cap=SEARCH_CAP):
        r = _check_modulus(r, m)
        status = self.residue_status(r, m)
        if status.kind is ResidueKind.EMPTY:
            return None
        if status.kind is ResidueKind.FINITE_ONLY:
            return status.members[0]
        x = r if r > 1 else r + m
        while x <= cap:
            if is_prime(x):
                return x
            x += m
        raise SearchExhausted(f"no prime in class {r} mod {m} below cap {cap}")


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

    def elements_up_to(self, bound: int) -> list[int]:
        # start at the first member >= -bound
        start = self.first + max(0, -((bound + self.first) // self.step)) * self.step
        return sorted(range(start, bound + 1, self.step), key=canonical_key)

    def iter_canonical(self) -> Iterator[int]:
        if self.first >= 0:
            x = self.first
            while True:
                yield x
                x += self.step
        else:
            yield from super().iter_canonical()

    def residue_status(self, r: int, m: int) -> ResidueStatus:
        r = _check_modulus(r, m)
        g = math.gcd(self.step, m)
        return ResidueStatus.infinite() if (r - self.first) % g == 0 else ResidueStatus.empty()

    def pick_in_class(self, r, m, cap=SEARCH_CAP):
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


RANGE_WIDTH_MAX = 10**5  # most members a range: spec may name; it is built in full


def parse_set_spec(spec: str) -> IntegerSet:
    """Parse the set-spec grammar used by the CLI and config files.

    Grammar: ``Z`` | ``N`` | ``P`` | ``ap:<first>,<step>`` |
    ``list:<c1>,<c2>,...`` | ``file:<path>`` | ``range:<lo>..<hi>``, with a
    range of at most RANGE_WIDTH_MAX members.
    """
    spec = spec.strip()
    if spec == "Z":
        return AllIntegers()
    if spec == "N":
        return NonnegativeIntegers()
    if spec == "P":
        return Primes()
    if spec.startswith("ap:"):
        body = spec[3:]
        try:
            first_s, step_s = body.split(",")
            return ArithmeticProgression(int(first_s), int(step_s))
        except (ValueError, TypeError) as e:
            raise SetSpecError(f"bad progression spec {spec!r}: {e}") from None
    if spec.startswith("list:"):
        body = spec[5:]
        try:
            values = [int(tok) for tok in body.split(",") if tok.strip() != ""]
        except ValueError as e:
            raise SetSpecError(f"bad list spec {spec!r}: {e}") from None
        if not values:
            raise SetSpecError(f"empty list spec {spec!r}")
        return ExplicitFinite(values)
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path) as fh:
                values = [int(line) for line in fh if line.strip()]
        except OSError as e:
            raise SetSpecError(f"cannot read set file {path!r}: {e}") from None
        except ValueError as e:
            raise SetSpecError(f"bad integer in set file {path!r}: {e}") from None
        if not values:
            raise SetSpecError(f"set file {path!r} is empty")
        return ExplicitFinite(values, spec=spec)
    if spec.startswith("range:"):
        body = spec[6:]
        if ".." not in body:
            raise SetSpecError(f"bad range spec {spec!r}: expected lo..hi")
        lo_s, hi_s = body.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as e:
            raise SetSpecError(f"bad range spec {spec!r}: {e}") from None
        if hi < lo:
            raise SetSpecError(f"bad range spec {spec!r}: hi < lo")
        if hi - lo + 1 > RANGE_WIDTH_MAX:
            raise SetSpecError(
                f"range spec {spec!r} names {hi - lo + 1} members; the limit is {RANGE_WIDTH_MAX}"
            )
        return ExplicitFinite(range(lo, hi + 1), spec=spec)
    raise SetSpecError(f"unrecognised set spec {spec!r}")
