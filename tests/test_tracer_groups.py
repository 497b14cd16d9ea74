"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name and reads attributes off their arguments; a refactor that renames or
re-signs one of them breaks ``perfbench/run.py --trace 1``.  These tests
read the tracer's tables as they stand and check them against the
package."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from pwextremal.spectral import TridiagonalSystem

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
    assert first.annotation in ("TridiagonalSystem", TridiagonalSystem)
    with mp.workdps(20):
        attrs = tracer._attrs("spectral.eigenpair", (TridiagonalSystem(16, 1),), {})
    assert attrs == {"N": 16, "dps": 20}


def test_importing_cli_registers_every_module_the_tracer_reads(tracer):
    # install imports pwextremal.cli alone, then reads
    # sys.modules["pwextremal." + m] for each m of MODULES; cli registers
    # the modules it loads lazily there without running them
    env = dict(os.environ)
    src = str(TRACER.parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import json, sys; import pwextremal.cli; "
        "print(json.dumps([m for m in sys.argv[1:] if 'pwextremal.' + m not in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *tracer.MODULES],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
