"""Mutation check: each recorded mutant of the library must fail the tests named for it.

Run from anywhere with `python tests/mutants.py` (needs pytest and
hypothesis).  It copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, checks that every named test passes on the unmutated copy, then
applies one mutant at a time and requires `pytest -x -q` on its node ids to
fail.  Exit status 0 means every mutant was killed; otherwise each survivor
is named.  pytest does not collect this file (it is not `test_*.py`);
`tests/test_imports.py` checks that every `before` text occurs exactly once
in the current source, so a refactor that moves mutated code fails there
until this list is brought up to date.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDERING = "src/borderings/ordering.py"
FACTORED = "src/borderings/factored.py"
SERIES = "src/borderings/series.py"
INTSETS = "src/borderings/intsets.py"

_FINITE_RUNS = "tests/test_ordering.py::TestFiniteRuns::test_runs_are_reproduced"
_SUBSET_MINIMA = "tests/test_ordering.py::TestBOrdering::test_prefix_sums_are_subset_minima_on_larger_sets"
_BELOW_ROOT = "tests/test_ordering.py::TestPersistentFrontier::test_finite_members_below_the_root"
_APPEND = "bucket[f] = (excess + ord_b(b, f - a) - depth, 1, key, f)"
_AUTO = "tests/test_factored.py::TestBaseSets::test_auto_matches_a_cutoff_above_the_diameter"
_PACKED = "tests/test_series.py::TestPackedKernels::"
_PICK = "tests/test_intsets.py::TestPickInClass::"
_STATUS_SCAN = "tests/test_intsets.py::TestResidueStatus::test_consistency_with_scan"

# (file under the repository root, exact text before, text after, node ids that must fail)
MUTANTS = [
    # the excess update of a finite member in _GreedyState.append
    (ORDERING, _APPEND, "bucket[f] = (excess + ord_b(b, f - a) - depth + 1, 1, key, f)",
     [_FINITE_RUNS, _SUBSET_MINIMA]),
    (ORDERING, _APPEND, "bucket[f] = (excess + min(ord_b(b, f - a) - depth, 1), 1, key, f)",
     [_FINITE_RUNS, _SUBSET_MINIMA]),
    # a finite S sits at the root, where depth is 0: only members below it see `- depth`
    (ORDERING, _APPEND, "bucket[f] = (excess + ord_b(b, f - a), 1, key, f)", [_BELOW_ROOT]),
    # a bucket's kept minimum left stale after an append re-scores the bucket
    (ORDERING, "entries[r1] = min(bucket.values())\n                else:", "pass\n                else:",
     [_FINITE_RUNS]),
    # the same update where _open scores a finitely-met class
    (ORDERING, "excess += v - depth", "excess += v", [_BELOW_ROOT]),
    # members bucketed by their class mod b^l, not by their subclass mod b^(l+1)
    (ORDERING, "finite.setdefault(f % mod1, {})", "finite.setdefault(f % mod, {})", [_FINITE_RUNS]),
    # a scored subclass's entry sorted after a bucket's minimum of equal total and smaller key
    (ORDERING, "node[1][r1] = (c + excess, 1, key, a)", "node[1][r1] = (c + excess, 2, key, a)",
     ["tests/test_ordering.py::TestPersistentFrontier::test_scored_subclass_ties_a_bucket_canonically"]),
    # lower bounds sorted after exact entries of equal total
    (ORDERING,
     "top = min(node[1].values())",
     "top = min(node[1].values(), key=lambda e: (e[0], 1 - e[1], e[2:]))",
     ["tests/test_ordering.py::TestGreedyStep::test_certified_steps_match_window_oracle",
      "tests/test_ordering.py::TestGreedyStep::test_adversarial_prefixes_match_wide_window"]),
    # the finite cut of invariants reads index |S| as inside S
    (ORDERING, "inside = [n is None or k < n for k in ks]", "inside = [n is None or k <= n for k in ks]",
     ["tests/test_factorials.py::TestOneRouteCallPerQuery"]),
    # a b = 1 step is worth 0, not infinity
    (ORDERING,
     "return StepResult(next(iter(S.iter_canonical())), None)",
     "return StepResult(next(iter(S.iter_canonical())), 0)",
     ["tests/test_ordering.py::TestBOrdering::test_degenerate_bases"]),
    # auto bases from the first k members, or stopping one short of their diameter
    (FACTORED,
     "members = list(islice(S.iter_canonical(), k + 1))",
     "members = list(islice(S.iter_canonical(), k))",
     [_AUTO]),
    (FACTORED, "return tuple(range(2, width + 1))", "return tuple(range(2, width))", [_AUTO]),
    # q_k's rows built from (y + F) factors
    (SERIES, "[[x - y for x, y in zip(lo, _convolve(", "[[x + y for x, y in zip(lo, _convolve(",
     ["tests/test_series.py::TestPolynomials::test_qk_basics",
      "tests/test_series.py::TestIntegerKernels::test_qk_matches_fraction_product"]),
    # Horner's scale left at 1
    (SERIES, "_pack(C[i][:n], w) * d ** (k - i)", "_pack(C[i][:n], w)",
     ["tests/test_series.py::TestPolynomials::test_eval_examples",
      "tests/test_series.py::TestIntegerKernels::test_evaluation_matches_fraction_horner"]),
    # sample rows kept with a zero leading row, or with every constant term zero
    (SERIES, "if any(rows[degree]) and any(r[0] for r in rows):", "if any(r[0] for r in rows):",
     [_PACKED + "test_row_draw_has_its_degree_and_is_primitive",
      _PACKED + "test_row_draw_makes_the_fraction_draws"]),
    (SERIES, "if any(rows[degree]) and any(r[0] for r in rows):", "if any(rows[degree]):",
     [_PACKED + "test_row_draw_has_its_degree_and_is_primitive",
      "tests/test_series.py::TestMaxMin::test_k_zero"]),
    # q_k's integer rows evaluated at F/d instead of at the numerators F
    (SERIES, "_min_order_over(Fs, 1, _qk_rows(", "_min_order_over(Fs, d, _qk_rows(",
     ["tests/test_series.py::TestMaxMin::test_fraction_families"]),
    # packing widths one bit short: an output equal to the bound unpacks with the wrong sign
    (SERIES,
     "(sum(map(abs, a)) * max(map(abs, c))).bit_length() + 1",
     "(sum(map(abs, a)) * max(map(abs, c))).bit_length()",
     [_PACKED + "test_product_at_the_width_edge"]),
    (SERIES, "w = bound.bit_length() + 1", "w = bound.bit_length()",
     [_PACKED + "test_evaluation_at_the_width_edge"]),
    # ord_t read off the lowest set bit with digits taken one bit narrower
    (SERIES, "o = ((v & -v).bit_length() - 1) // w", "o = ((v & -v).bit_length() - 1) // (w - 1)",
     [_PACKED + "test_order_read_from_the_lowest_set_bit",
      "tests/test_series.py::TestOrderKernels::test_order_of_a_packed_difference"]),
    # t_ordering's packing width one bit short: a difference of 2^j and -2^j carries into the next digit
    (SERIES, "w = max(abs(c) for F in Fs for c in F).bit_length() + 1",
     "w = max(abs(c) for F in Fs for c in F).bit_length()",
     ["tests/test_series.py::TestPackedTOrdering::test_t_ordering_at_the_width_edge"]),
    # balanced digits read as plain ones: negative coefficients come out as 2^w + c
    (SERIES, "        if c >= half:\n            c -= 1 << w\n", "",
     [_PACKED + "test_product_at_the_width_edge",
      "tests/test_series.py::TestIntegerKernels::test_product_matches_fraction_convolution"]),
    # Z's least member of a class taken as r, even where r - m is nearer 0
    (INTSETS, "return r if canonical_key(r) <= canonical_key(neg) else neg", "return r",
     [_PICK + "test_examples"]),
    # a composite modulus's prime divisor g reported in a class other than g's
    (INTSETS, "return (g,) if is_prime(g) and g % m == r else ()", "return (g,) if is_prime(g) else ()",
     [_STATUS_SCAN]),
    # a progression's class answered by the step alone, not by gcd(step, m)
    (INTSETS, "return None if (r - self.first) % g == 0 else ()",
     "return None if (r - self.first) % self.step == 0 else ()", [_STATUS_SCAN]),
    # a progression's pick below 0 left as the least member >= 0
    (INTSETS, "return min(x % d, x % d - d, key=canonical_key)", "return x % d",
     [_PICK + "test_result_is_canonical_member"]),
    # the index of a progression's class member off by one when m/g = 1
    (INTSETS, "% mg if mg > 1 else 0", "% mg if mg > 1 else 1",
     [_PICK + "test_progression_matches_a_brute_force_oracle"]),
]


def _pytest(where: Path, ids) -> int:
    # no bytecode cache: a mutant of the same size written within the
    # second of the last import would otherwise load the stale .pyc
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    return subprocess.run(cmd, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _name(path: str, before: str, after: str) -> str:
    return f"{path}: {before!r} -> {after!r}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, where / sub, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", where)
        ids = list(dict.fromkeys(i for *_, mutant_ids in MUTANTS for i in mutant_ids))
        if code := _pytest(where, ids):
            print(f"the named tests do not pass unmutated (pytest exit {code})")
            return 1
        survivors = []
        for path, before, after, mutant_ids in MUTANTS:
            target = where / path
            text = target.read_text()
            if text.count(before) != 1:
                print(f"not found exactly once: {_name(path, before, after)}")
                return 1
            target.write_text(text.replace(before, after))
            code = _pytest(where, mutant_ids)
            target.write_text(text)
            # exit 1 is a failing test; any other exit is a broken run, not a kill
            print(f"{'killed' if code == 1 else f'SURVIVED (pytest exit {code})'}: {_name(path, before, after)}")
            if code != 1:
                survivors.append(_name(path, before, after))
        print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
        for name in survivors:
            print(f"survivor: {name}")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
