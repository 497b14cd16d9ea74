"""Shared fixtures: converged constants at the precisions the suites need.

Solves are session-scoped because every downstream module consumes the
same spectral data; the `sweeps` fixture records the solver's work so
tests can bound it without timing anything.
"""

import json

import pytest
from mpmath import mp

from pwextremal import extremal, spectral
from pwextremal.spectral import solve_constants


@pytest.fixture(scope="session")
def consts12():
    return solve_constants(12)


@pytest.fixture(scope="session")
def consts30():
    return solve_constants(30)


@pytest.fixture(scope="session")
def consts50():
    return solve_constants(50)


@pytest.fixture(scope="session")
def consts60():
    return solve_constants(60)


@pytest.fixture
def sweeps(monkeypatch):
    """(N, dps) of every backward sweep made while it is active, through
    either module that calls the sweep."""
    calls = []
    sweep = spectral._sweep

    def counted(sys, lam):
        calls.append((sys.N, mp.dps))
        return sweep(sys, lam)

    for module in (spectral, extremal):
        monkeypatch.setattr(module, "_sweep", counted)
    return calls


@pytest.fixture
def payload(monkeypatch):
    """The JSON payload of a pwx command on given constants, with the
    solve replaced by those constants."""
    from pwextremal import cli

    def run(consts, *argv):
        monkeypatch.setattr(cli, "solve_constants", lambda digits: consts)
        digits = str(consts.digits_certified)
        args = cli._build_parser().parse_args(list(argv) + ["--digits", digits])
        return json.loads("".join(cli._HANDLERS[args.command](args)[0]))

    return run
