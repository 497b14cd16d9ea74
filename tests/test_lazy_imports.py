"""Which package modules a ``pwx`` command runs.

``cli`` registers ``extremal``, ``fourier`` and ``lseries`` without
running them, and a command runs one the first time it reads one of its
functions.  ``constants`` and ``--help`` need none of the three; with no
bytecode cache, compiling them took about a fifth of a ``constants``
run.  Each test runs in a fresh interpreter, because the test process
has long since run every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAZY = ("extremal", "fourier", "lseries")

# runs pwx with the argv given as JSON, then prints its exit code and
# which of LAZY ran
PROBE = """
import contextlib, io, json, sys, types
from pwextremal import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
ran = {m: type(sys.modules["pwextremal." + m]) is types.ModuleType for m in %r}
print(json.dumps([code, ran]))
""" % (LAZY,)


def _python(source, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, reads",
    [
        (["--help"], ()),
        (["constants", "--digits", "12"], ()),
        (["verify", "--suite", "ode", "--digits", "12"], ("extremal",)),
    ],
)
def test_a_command_runs_only_the_modules_it_reads(argv, reads):
    # a top-level `from .extremal import ...` in cli, or one of fourier
    # or lseries, would run that module on every command
    assert _python(PROBE, json.dumps(argv)) == [0, {m: m in reads for m in LAZY}]


def test_a_refused_command_runs_no_module():
    # a cap is checked before the solve, and a cap held in cli is read
    # without running the modules that own the others
    argv = ["verify", "--suite", "ode", "--digits", "3401"]
    assert _python(PROBE, json.dumps(argv)) == [2, {m: False for m in LAZY}]


def test_a_module_imported_first_is_the_one_cli_reads():
    # a second copy would hold its own functions, so a monkeypatch or a
    # tracer wrapper on one would miss the calls made through the other
    source = """
import json, sys, types
import pwextremal.extremal as first
from pwextremal import cli
print(json.dumps([
    cli.extremal is first is sys.modules["pwextremal.extremal"],
    type(first) is types.ModuleType,
    cli.extremal.refined_spectral_frame is first.refined_spectral_frame,
]))
"""
    assert _python(source) == [True, True, True]
