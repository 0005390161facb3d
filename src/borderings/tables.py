"""Regeneration of the reference value tables for (S, T) = (Z, N).

The golden files under golden/ hold the published values; the
generators here recompute every entry from scratch and must agree
byte for byte.  Cells are pipe-separated, decimals carry thousands
separators, and factored forms are prime-refined canonical text.
"""

from __future__ import annotations

import importlib.resources
from typing import Optional

from .factored import BaseSet, group_digits
from .factorials import factorial, gen_binomial, gen_integer
from .intsets import AllIntegers

_Z = AllIntegers()
_AUTO = BaseSet.auto()


def _cell(F) -> str:
    return F.refine_to_primes().format_factored()


def table1_lines() -> list[str]:
    """Generalized integers: decimal for n <= 40, factored for n <= 60."""
    lines = ["n|decimal|factored"]
    for n in range(1, 61):
        g = gen_integer(_Z, _AUTO, n)
        dec = group_digits(g.value()) if n <= 40 else ""
        lines.append(f"{n}|{dec}|{_cell(g)}")
    return lines


def table2_lines() -> list[str]:
    """Generalized factorials for k <= 19, decimal and factored."""
    lines = ["k|decimal|factored"]
    for k in range(20):
        f = factorial(_Z, _AUTO, k)
        lines.append(f"{k}|{group_digits(f.value())}|{_cell(f)}")
    return lines


def table3_lines() -> list[str]:
    """Generalized binomial coefficients, decimal, full rows k <= 10."""
    lines = ["k\\l|" + "|".join(str(l) for l in range(11))]
    for k in range(11):
        cells = [group_digits(gen_binomial(_Z, _AUTO, k, l).value()) for l in range(k + 1)]
        lines.append(f"{k}|" + "|".join(cells))
    return lines


def table4_lines() -> list[str]:
    """Generalized binomial coefficients, factored, columns l <= 7."""
    lines = ["k\\l|" + "|".join(str(l) for l in range(8))]
    for k in range(11):
        cells = [_cell(gen_binomial(_Z, _AUTO, k, l)) for l in range(min(k, 7) + 1)]
        lines.append(f"{k}|" + "|".join(cells))
    return lines


_GENERATORS = {1: table1_lines, 2: table2_lines, 3: table3_lines, 4: table4_lines}
TABLE_NAMES = tuple(_GENERATORS)


def generate(which: int) -> str:
    if which not in _GENERATORS:
        raise ValueError(f"table number must be in {sorted(_GENERATORS)}, got {which}")
    return "\n".join(_GENERATORS[which]()) + "\n"


def golden(which: int) -> str:
    if which not in _GENERATORS:
        raise ValueError(f"table number must be in {sorted(_GENERATORS)}, got {which}")
    ref = importlib.resources.files("borderings") / "golden" / f"table{which}.txt"
    return ref.read_text()


def compare(which: int, text: Optional[str] = None) -> list[str]:
    """The lines where a generated table (regenerated if not given) differs from its golden file."""
    gen_lines = (generate(which) if text is None else text).splitlines()
    gold_lines = golden(which).splitlines()
    mismatches = []
    for i in range(max(len(gen_lines), len(gold_lines))):
        g = gen_lines[i] if i < len(gen_lines) else "<missing>"
        h = gold_lines[i] if i < len(gold_lines) else "<missing>"
        if g != h:
            mismatches.append(f"line {i + 1}: generated {g!r} != golden {h!r}")
    return mismatches
