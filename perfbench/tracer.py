"""Per-layer tracing of one ``pwx`` command, from outside the package.

Run as a script it replaces ``python -m pwextremal``:

    PYTHONPATH=src python3 perfbench/tracer.py constants --digits 30

It imports the package, wraps the public functions listed in ``GROUPS``
on every ``pwextremal`` module that bound them (so calls made through
``from .spectral import ground_eigenpair`` and calls inside ``spectral``
itself are both seen), runs ``pwextremal.cli.main`` and prints one
``TRACE_PREFIX`` line with the summary on stderr.  The summary's
``overhead_s`` is the number of spans times the cost a wrapper adds to one
call, measured on a no-op before the command runs.  The payload on stdout
is untouched.  Each command runs in a fresh process, so the package's
process-global frame cache starts cold as it does for a user.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from mpmath import mp

TRACE_PREFIX = "PERFBENCH_TRACE "

# group name -> (module, functions).  A group's busy time counts only its
# outermost spans; self time is summed over all of them.  Groups with no
# metric of their own (zero_lookup, reflection, checks) keep their time out
# of cli.self_s.
GROUPS = {
    "cli": ("cli", ["main"]),
    "spectral.solve_constants": ("spectral", ["solve_constants"]),
    "spectral.eigenpair": ("spectral", ["ground_eigenpair"]),
    "extremal.frame": ("extremal", ["refined_spectral_frame"]),
    "extremal.taylor": ("extremal", ["taylor_factor", "taylor_extremal"]),
    "extremal.offset_coefficients": ("extremal", ["offset_coefficients"]),
    "extremal.refine_zeros_newton": ("extremal", ["refine_zeros_newton"]),
    "extremal.build_zero_model": ("extremal", ["build_zero_model"]),
    "extremal.summation_system": ("extremal", ["summation_system"]),
    "extremal.summation_check": ("extremal", ["summation_check"]),
    "extremal.residual_checks": (
        "extremal",
        [
            "check_ode_residual",
            "check_extremal_ode_residual",
            "check_quadratic_relation",
            "zero_curvature_residual",
            "check_functional_equation",
        ],
    ),
    "extremal.zero_lookup": ("extremal", ["tau", "zeros_signed"]),
    "fourier.band_transform": (
        "fourier",
        ["build_band_transform", "transform_value", "parseval_defect", "window_basis_coefficients"],
    ),
    "fourier.legendre": ("fourier", ["legendre_band_coefficients", "legendre_band_value"]),
    "fourier.reflection": ("fourier", ["endpoint_reflection_constants"]),
    "lseries.integrality": ("lseries", ["check_integrality"]),
    "lseries.l_series": ("lseries", ["l_series"]),
    "lseries.brute_force": ("lseries", ["brute_force_value"]),
    "lseries.checks": ("lseries", ["check_Lodd", "check_residue_identity", "check_symmetry_conjecture"]),
    "mpcore.series_multiply": ("mpcore", ["series_multiply"]),
    "mpcore.series_reciprocal": ("mpcore", ["series_reciprocal"]),
}

MODULES = ("cli", "spectral", "extremal", "fourier", "lseries", "mpcore")


@dataclass
class Span:
    group: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps every span in memory; `summary()` aggregates them at the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open: list = []

    def open(self, group: str, attrs: dict) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(group, self.clock(), parent=parent, attrs=attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def summary(self) -> dict:
        return summarize(self.spans)


def _nearest(spans: list, index: int, groups) -> Optional[int]:
    parent = spans[index].parent
    while parent is not None and spans[parent].group not in groups:
        parent = spans[parent].parent
    return parent


def summarize(spans: list) -> dict:
    """Aggregate a span list (parents precede children) into counters.

    Returns ``groups`` (calls, busy s, self s per group), ``modules``
    (self s per module), ``eigenpair`` rungs keyed "kind N dps" where kind
    is root (inside solve_constants), frame (inside refined_spectral_frame)
    or other, and the frame/taylor extras.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    groups: dict = {}
    modules = {m: 0.0 for m in MODULES}
    rungs: dict = {}
    frame_misses = set()
    taylor = {"max_T": 0, "max_dps": 0}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_s = dur - child_time[i]
        g = groups.setdefault(s.group, {"calls": 0, "s": 0.0, "self_s": 0.0})
        g["calls"] += 1
        g["self_s"] += self_s
        if _nearest(spans, i, (s.group,)) is None:
            g["s"] += dur
        modules[s.group.split(".")[0]] += self_s
        if s.group == "spectral.eigenpair":
            owner = _nearest(spans, i, ("spectral.solve_constants", "extremal.frame"))
            if owner is None:
                kind = "other"
            elif spans[owner].group == "extremal.frame":
                kind = "frame"
                frame_misses.add(owner)
            else:
                kind = "root"
            key = "%s %d %d" % (kind, s.attrs["N"], s.attrs["dps"])
            r = rungs.setdefault(key, {"count": 0, "s": 0.0})
            r["count"] += 1
            r["s"] += dur
        elif s.group == "extremal.taylor":
            taylor["max_T"] = max(taylor["max_T"], s.attrs["T"])
        elif s.group == "extremal.frame" and s.parent is not None:
            if spans[s.parent].group == "extremal.taylor":
                taylor["max_dps"] = max(taylor["max_dps"], s.attrs["need_dps"])
    return {
        "groups": groups,
        "modules": modules,
        "eigenpair": rungs,
        "frame_misses": len(frame_misses),
        "taylor": taylor,
    }


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _attrs(group: str, args, kwargs) -> dict:
    if group == "spectral.eigenpair":
        return {"N": args[0].N, "dps": mp.dps}
    if group == "extremal.frame":
        return {"need_dps": _arg(args, kwargs, 1, "need_dps")}
    if group == "extremal.taylor":
        return {"T": _arg(args, kwargs, 1, "T")}
    return {}


def _wrap(tracer: Tracer, group: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(group, _attrs(group, args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in GROUPS on each module that binds it."""
    import importlib

    importlib.import_module("pwextremal.cli")
    package = [m for n, m in sys.modules.items() if n.startswith("pwextremal.")]
    for group, (home, names) in GROUPS.items():
        module = sys.modules["pwextremal." + home]
        for name in names:
            original = getattr(module, name)
            wrapper = _wrap(tracer, group, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def calibrate(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    wrapped = _wrap(Tracer(), "cli", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def main(argv: list) -> int:
    tracer = Tracer()
    install(tracer)
    per_call = calibrate()
    cli = sys.modules["pwextremal.cli"]
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["overhead_s"] = per_call * len(tracer.spans)
        print(TRACE_PREFIX + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
