#!/usr/bin/env python3
"""Time the single-query anchor points that ROADMAP.md quotes, for comparison.

    python3 perfbench/anchors.py

Prints one JSON line per anchor with the median seconds over REPEATS runs:
finite b = 6 exponent sequences at |S| = 100 and 200 (a range: set and a
seeded random list: set), and certified b_ordering of Z and P at k = 400
(b = 2 and b = 6).  These are single large queries, not a workload; the
benchmark proper is run.py.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from borderings import intsets, ordering  # noqa: E402

REPEATS = 3


def anchors():
    rng = random.Random("anchors")
    for n in (100, 200):
        listed = sorted(rng.sample(range(-10 * n, 10 * n + 1), n))
        for spec in (f"range:1..{n}", "list:" + ",".join(map(str, listed))):
            S = intsets.parse_set_spec(spec)
            name = f"finite b=6 |S|={n} {spec.split(':')[0]}"
            yield name, lambda S=S, n=n: ordering.exponent_sequence(S, 6, n - 1)
    for spec in ("Z", "P"):
        for b in (2, 6):
            S = intsets.parse_set_spec(spec)
            yield f"{spec} b={b} k=400", lambda S=S, b=b: ordering.b_ordering(S, b, 400)


def main() -> int:
    for name, fn in anchors():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        print(json.dumps({"anchor": name, "median_s": round(statistics.median(times), 4)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
