"""Tests for the verification harness plumbing (suites are exercised elsewhere)."""

from __future__ import annotations

import json
from dataclasses import asdict
from types import SimpleNamespace

import pytest

import borderings.verify as verify
from borderings.cli import main
from borderings.factored import FactoredNumber
from borderings.verify import SCALE_MAX, SUITE_NAMES, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_scale_bound_is_inclusive():
    # the CLI tests cover inf, nan, 1e9, 0 and -3
    assert run_suite("tables", scale=SCALE_MAX).passed
    with pytest.raises(ValueError, match="scale"):
        run_suite("tables", scale=SCALE_MAX * 1.01)


def test_reports_are_deterministic_per_seed():
    a = run_suite("transport", seed=5, scale=0.1)
    b = run_suite("transport", seed=5, scale=0.1)
    assert [asdict(i) for i in a.instances] == [asdict(i) for i in b.instances]
    c = run_suite("transport", seed=6, scale=0.1)
    assert [i.params for i in a.instances] != [i.params for i in c.instances]


def test_report_structure():
    rep = run_suite("tables", seed=0, scale=1.0)
    d = rep.as_dict()
    assert d["suite"] == "tables"
    assert d["checked"] == len(rep.instances) == 4
    assert d["failed"] == 0 and d["passed"] is True
    assert all(set(i) >= {"name", "params", "passed"} for i in d["instances"])


def test_every_suite_passes():
    reports = [run_suite(name, seed=1, scale=0.05) for name in SUITE_NAMES]
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(r.passed for r in reports)


def test_a_miss_names_an_infinite_value_inf():
    # exponents are None for inf inside the library; a failure detail prints inf
    holds = lambda j, a, m: a == m  # noqa: E731
    assert verify._miss([(0, 1, 1), (1, None, 2)], holds, "term {}: {} vs {}".format) == "term 1: inf vs 2"
    assert verify._miss([(0, None, None)], holds, "{} {} {}".format) == ""


def _reruns(*args, **kwargs):
    """True for the seeded reruns, which alone pass a start."""
    return "start" in kwargs


# (suite, function verify calls, which of its calls to corrupt, the result
# field (None for the whole result), how to corrupt it, the instance family
# that must then fail)
FAULTS = {
    "well-definedness": (
        "well-definedness",
        "b_ordering",
        _reruns,
        "exponents",
        lambda e: e[:-1],
        "identical-exponents",
    ),
    "maxmin-invariance": (
        "maxmin",
        "t_ordering",
        _reruns,
        "exponents",
        lambda e: e[:-1],
        "t-ordering-invariance+maxmin",
    ),
    "superadditivity": (
        "superadditivity",
        "invariants",
        lambda S, bases, ks: S.spec == "P",
        None,
        lambda rows: [(source, [*v[:-1], 0]) for source, v in rows],
        "superadditive",
    ),
    "greedy-vs-formula": (
        "closed-forms",
        "b_ordering",
        lambda S, b, k, *rest, **kw: S.spec == "Z" and b == 6,
        "exponents",
        lambda e: [*e[:3], e[3] + 1, *e[4:]],
        "greedy-matches-floor-sums-Z",
    ),
    "monotonicity": (
        "monotonicity",
        "invariants",
        lambda S, bases, ks: bases[0] >= 2,
        None,
        lambda rows: [(source, [v[0], 99, *v[2:]]) for source, v in rows],
        "nondecreasing+extreme-bounds",
    ),
    "integrality": (
        "divisibility",
        "gen_binomial",
        lambda *args: True,
        None,
        lambda v: FactoredNumber.zero(),
        "integrality",
    ),
    "row-product": (
        "closed-forms",
        "row_product",
        lambda n: n == 2,
        None,
        lambda v: v * FactoredNumber({2: 1}),
        "row-product-direct",
    ),
}


def _inject(monkeypatch, fault):
    """Patch the function verify calls so that its first call matching the fault
    returns a result whose one field is corrupted; returns the suite to run."""
    suite, name, when, field, corrupt, _ = FAULTS[fault]
    real = getattr(verify, name)
    hit = []

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        if hit or not when(*args, **kwargs):
            return out
        hit.append(True)
        return corrupt(out) if field is None else SimpleNamespace(**{field: corrupt(getattr(out, field))})

    monkeypatch.setattr(verify, name, patched)
    return suite


@pytest.mark.parametrize("fault", FAULTS)
def test_a_failing_instance_is_reported(monkeypatch, fault):
    rep = run_suite(_inject(monkeypatch, fault), seed=7, scale=0.1)
    assert rep.passed is False
    (failed,) = rep.failures
    assert failed.name == FAULTS[fault][-1]
    assert failed.passed is False and failed.detail
    d = rep.as_dict()
    assert d["passed"] is False and d["failed"] == 1


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_exits_1_and_prints_the_failure(monkeypatch, capsys, fault):
    suite = _inject(monkeypatch, fault)
    code = main(["verify", "--suite", suite, "--seed", "7", "--scale", "0.1"])
    out = capsys.readouterr().out
    monkeypatch.undo()
    _inject(monkeypatch, fault)
    (failed,) = run_suite(suite, seed=7, scale=0.1).failures
    assert code == 1
    assert f"FAIL {suite}: " in out
    assert f"  FAIL {failed.name} {json.dumps(failed.params, sort_keys=True)} {failed.detail}\n" in out
