"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name and reads attributes off their arguments; a refactor that renames or
re-signs one of them breaks ``perfbench/run.py --trace 1``.  These tests
read the tracer's tables as they stand and check them against the
package."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest
from mpmath import mp

from pwextremal.spectral import build_matrix

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    for group, (home, names) in tracer.GROUPS.items():
        module = importlib.import_module("pwextremal." + home)
        for name in names:
            assert callable(getattr(module, name, None)), (group, home, name)


def test_traced_arguments_keep_their_attributes(tracer):
    # the tracer reads .N off the first argument of ground_eigenpair
    home, names = tracer.GROUPS["spectral.eigenpair"]
    solve = getattr(importlib.import_module("pwextremal." + home), names[0])
    first = next(iter(inspect.signature(solve).parameters.values()))
    assert first.annotation in ("TridiagonalSystem", build_matrix(16, 1).__class__)
    with mp.workdps(20):
        attrs = tracer._attrs("spectral.eigenpair", (build_matrix(16, 1),), {})
    assert attrs == {"N": 16, "dps": 20}
