"""Tests for the verification harness plumbing (suites are exercised elsewhere)."""

from __future__ import annotations

import pytest

from borderings.verify import SCALE_MAX, SUITE_NAMES, run_all, run_suite


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
    assert [i.as_dict() for i in a.instances] == [i.as_dict() for i in b.instances]
    c = run_suite("transport", seed=6, scale=0.1)
    assert [i.params for i in a.instances] != [i.params for i in c.instances]


def test_report_structure():
    rep = run_suite("tables", seed=0, scale=1.0)
    d = rep.as_dict()
    assert d["suite"] == "tables"
    assert d["checked"] == len(rep.instances) == 4
    assert d["failed"] == 0 and d["passed"] is True
    assert all(set(i) >= {"name", "params", "passed"} for i in d["instances"])


def test_run_all_covers_every_suite():
    reports = run_all(seed=1, scale=0.05)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(r.passed for r in reports)
