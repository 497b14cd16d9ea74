"""Shared fixtures: converged constants at the precisions the suites need.

Solves are session-scoped because every downstream module consumes the
same spectral data; wall-clock times are recorded so the acceptance tests
can assert the runtime bounds without re-solving.
"""

import time

import pytest
from mpmath import mp

from pwextremal import spectral
from pwextremal.spectral import solve_constants

_timings = {}


def timed_solve(digits, **kw):
    t0 = time.monotonic()
    consts = solve_constants(digits, **kw)
    _timings[digits] = time.monotonic() - t0
    return consts


@pytest.fixture(scope="session")
def solve_timings():
    return _timings


@pytest.fixture(scope="session")
def consts12():
    return timed_solve(12)


@pytest.fixture(scope="session")
def consts30():
    return timed_solve(30)


@pytest.fixture(scope="session")
def consts50():
    return timed_solve(50)


@pytest.fixture
def sweeps(monkeypatch):
    """(N, dps) of every backward sweep made while it is active."""
    calls = []
    sweep = spectral._sweep

    def counted(sys, lam, side=False):
        calls.append((sys.N, mp.dps))
        return sweep(sys, lam, side)

    monkeypatch.setattr(spectral, "_sweep", counted)
    return calls
