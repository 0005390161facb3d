"""Factored numbers: formal products of bases b >= 0 with extended-natural exponents.

The value semantics follow the conventions for degenerate bases:
b^inf = 0 for b >= 2 and for b = 0, while 1^inf = 1, and b^0 = 1 for
every b including 0^0 = 1.  Zero-valued numbers normalise to the single
marker 0^inf so that formatting and parsing round-trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .intsets import parse_range
from .numerics import ExtNat, prime_factors, primes_up_to


class BaseSetError(ValueError):
    """Raised when a base-set spec cannot be resolved to a finite list."""


# Largest cutoff of upto:/primes:/auto, widest range: and longest list: a base spec may name.
# The list is built in full and every base costs one point value;
# `factorial --set Z --bases upto:10000 --k 3` takes about 0.4 s.
BASE_SPEC_MAX = 10**4


class FactoredNumber:
    """An immutable map base -> exponent, normalised on construction.

    Exponents come as int or ExtNat, are held as int (None for inf) and leave as ExtNat.
    """

    __slots__ = ("_exp",)

    def __init__(self, exponents=None):
        norm: dict[int, int | None] = {}
        zero = False
        for b, e in (exponents or {}).items():
            if not isinstance(b, int) or b < 0:
                raise ValueError(f"base must be an integer >= 0, got {b!r}")
            if isinstance(e, ExtNat):
                e = e.value if e.is_finite else None
            elif e is not None and (e.__class__ is not int or e < 0):
                ExtNat(e)  # raises, as for any negative or non-integer exponent
            if e == 0:
                continue
            if b == 0 or (b >= 2 and e is None):
                # 0^e = 0 for e >= 1 (finite or not), b^inf = 0 for b >= 2
                zero = True
                break
            norm[b] = e
        self._exp = {0: None} if zero else norm

    @classmethod
    def one(cls) -> "FactoredNumber":
        return cls({})

    @classmethod
    def zero(cls) -> "FactoredNumber":
        return cls({0: None})

    @property
    def is_zero(self) -> bool:
        return 0 in self._exp

    def exponent(self, b: int) -> ExtNat:
        return ExtNat(self._exp.get(b, 0))

    def items(self):
        return ((b, ExtNat(self._exp[b])) for b in sorted(self._exp))

    def value(self) -> int:
        """Exact integer value of the product."""
        if self.is_zero:
            return 0
        return math.prod(b**e for b, e in self._exp.items() if b != 1)  # 1^e = 1 even for e = inf

    def __mul__(self, other: "FactoredNumber") -> "FactoredNumber":
        if self.is_zero or other.is_zero:
            return FactoredNumber.zero()
        merged = dict(self._exp)
        for b, e in other._exp.items():
            merged[b] = None if e is None or (mine := merged.get(b, 0)) is None else mine + e
        return FactoredNumber(merged)

    def refine_to_primes(self) -> "FactoredNumber":
        """Value-preserving rewrite onto prime bases only."""
        if self.is_zero:
            return FactoredNumber.zero()
        out: dict[int, int] = {}
        for b, e in self._exp.items():
            if b == 1:
                continue  # 1^e = 1; b^inf for b >= 2 made the number zero
            for p, f in prime_factors(b).items():
                out[p] = out.get(p, 0) + f * e
        return FactoredNumber(out)

    def exponentwise_divides(self, other: "FactoredNumber") -> bool:
        """True when every base exponent of self is <= the one in other."""
        return all(ExtNat(e) <= other.exponent(b) for b, e in self._exp.items())

    def integer_divides(self, other: "FactoredNumber") -> bool:
        """Plain integer divisibility of the values."""
        v1, v2 = self.value(), other.value()
        if v1 == 0:
            return v2 == 0
        return v2 % v1 == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredNumber):
            return NotImplemented
        return self._exp == other._exp

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._exp.items())))

    def format_factored(self) -> str:
        """Canonical factored-form text: bases ascending, exponent 1 elided.

        A lone base 1 keeps its exponent: bare `1` is the empty product.
        """
        if self.is_zero:
            return "0"
        if not self._exp:
            return "1"
        parts = []
        for b in sorted(self._exp):
            e = self._exp[b]
            if e == 1 and (b != 1 or len(self._exp) > 1):
                parts.append(str(b))
            else:
                parts.append(f"{b}^{'inf' if e is None else e}")
        return " * ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FactoredNumber":
        """Inverse of format_factored."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        if text == "1":
            return cls.one()
        exps: dict[int, int | None] = {}
        for part in text.split("*"):
            part = part.strip()
            if not part:
                raise ValueError(f"empty factor in {text!r}")
            if "^" in part:
                b_s, e_s = part.split("^", 1)
                e = None if e_s.strip() in ("inf", "∞") else int(e_s)
            else:
                b_s, e = part, 1
            b = int(b_s)
            if b in exps:
                raise ValueError(f"repeated base {b} in {text!r}")
            exps[b] = e
        return cls(exps)

    def __repr__(self) -> str:
        return f"FactoredNumber({self.format_factored()!r})"


def group_digits(n: int) -> str:
    """Decimal rendering with thousands separators, matching the table style."""
    return f"{n:,}"


@dataclass(frozen=True)
class BaseSet:
    """A finite set of allowed bases, or the `auto` marker resolved per (S, k).

    `spec` is the base-spec text that parses back to this set; `values` is
    the ascending base list, or None for `auto`.  `auto` takes every base
    from 2 up to the diameter of the first k+1 canonical members of S: by
    the majorization theorem no larger base carries a nonzero alpha_0..k,
    so the product over them is the product over all of N.  A finite S
    with k >= |S| resolves to (2,), where alpha_k is inf and k! is 0.  A
    cutoff above BASE_SPEC_MAX is refused, k itself before S is read.
    """

    spec: str
    values: tuple[int, ...] | None = None

    @classmethod
    def explicit(cls, values) -> "BaseSet":
        vals = tuple(sorted(set(int(v) for v in values)))
        for v in vals:
            if v < 0:
                raise BaseSetError(f"bases must be >= 0, got {v}")
        _check_size("base list length", len(vals))
        return cls("list:" + ",".join(map(str, vals)), vals)

    @classmethod
    def range(cls, lo: int, hi: int) -> "BaseSet":
        if lo < 0 or hi < lo:
            raise BaseSetError(f"bad base range {lo}..{hi}")
        _check_size("base range width", hi - lo + 1)
        return cls(f"range:{lo}..{hi}", tuple(range(lo, hi + 1)))

    @classmethod
    def primes_up_to(cls, cutoff: int) -> "BaseSet":
        if cutoff < 2:
            raise BaseSetError(f"prime cutoff must be >= 2, got {cutoff}")
        _check_size("prime cutoff", cutoff)
        return cls(f"primes:{cutoff}", tuple(primes_up_to(cutoff)))

    @classmethod
    def all_up_to(cls, cutoff: int) -> "BaseSet":
        if cutoff < 2:
            raise BaseSetError(f"base cutoff must be >= 2, got {cutoff}")
        _check_size("base cutoff", cutoff)
        return cls(f"upto:{cutoff}", tuple(range(2, cutoff + 1)))

    @classmethod
    def auto(cls) -> "BaseSet":
        return cls("auto")

    def resolve(self, S=None, k: int | None = None) -> tuple[int, ...]:
        """The concrete ascending list of bases."""
        if self.values is not None:
            return self.values
        if k is None:
            raise BaseSetError("auto bases need the index k to resolve")
        _check_size("k for auto bases", k)  # k+1 distinct integers span at least k
        members = list(islice(S.iter_canonical(), k + 1))
        if len(members) <= k:
            return (2,)  # k >= |S|: alpha_k(S, b) is inf at every base b >= 2
        width = max(members) - min(members)
        _check_size("auto base cutoff", width)
        return tuple(range(2, width + 1))


def _check_size(what: str, n: int) -> None:
    if n > BASE_SPEC_MAX:
        raise BaseSetError(f"{what} {n} is over the limit {BASE_SPEC_MAX}")


def parse_base_spec(spec: str) -> BaseSet:
    """Parse the base-set grammar: auto | upto:<n> | primes:<n> | list:... | range:lo..hi.

    A malformed spec of a known kind raises ``bad base spec '<spec>': <reason>``.
    """
    spec = spec.strip()
    head, colon, body = spec.partition(":")
    kind = head + colon  # a kind with a body needs its colon
    try:
        if kind == "auto":
            return BaseSet.auto()
        if kind == "upto:":
            return BaseSet.all_up_to(int(body))
        if kind == "primes:":
            return BaseSet.primes_up_to(int(body))
        if kind == "list:":
            return BaseSet.explicit(int(t) for t in body.split(",") if t.strip())
        if kind == "range:":
            return BaseSet.range(*parse_range(body))
    except ValueError as e:
        raise BaseSetError(f"bad base spec {spec!r}: {e}") from None
    raise BaseSetError(f"unrecognised base spec {spec!r}")
