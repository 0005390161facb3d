"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import borderings.numerics as numerics


@pytest.fixture
def fresh_sieve(monkeypatch):
    """numerics' shared prime sieve started over at 2^10 flags; call the result to start it over
    again under another ceiling.  Both are put back after the test.
    """

    def restart(ceiling: int = numerics.SIEVE_MAX) -> None:
        monkeypatch.setattr(numerics, "SIEVE_MAX", ceiling)
        monkeypatch.setattr(numerics, "_sieve", numerics.prime_flags(1 << 10))

    restart()
    return restart
