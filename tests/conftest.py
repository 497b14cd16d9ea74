"""Shared fixtures: converged constants at the precisions the suites need.

Solves are session-scoped because every downstream module consumes the
same spectral data; wall-clock times are recorded so the acceptance tests
can assert the runtime bounds without re-solving.
"""

import time

import pytest

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
def eigen_solves(monkeypatch):
    """The N of every spectral.ground_eigenpair call made while it is active."""
    calls = []
    solve = spectral.ground_eigenpair

    def counted(*args, **kwargs):
        calls.append(args[0].N)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "ground_eigenpair", counted)
    return calls
