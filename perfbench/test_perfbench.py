"""Self-tests of the benchmark:  python3 -m pytest perfbench/test_perfbench.py"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, summarize  # noqa: E402


def _toy_spans():
    # cli 0-10
    #   solve_constants 1-6: eigenpair 2-3 (N 64), eigenpair 3-5 (N 128)
    #   taylor 6-9 (T 40)
    #     frame 6.5-8.5 (need 600): eigenpair 7-8 (N 256, dps 524)
    #   frame 9-9.5 (need 20), no solve
    return [
        Span("cli", 0, 10),
        Span("spectral.solve_constants", 1, 6, parent=0),
        Span("spectral.eigenpair", 2, 3, parent=1, attrs={"N": 64, "dps": 48}),
        Span("spectral.eigenpair", 3, 5, parent=1, attrs={"N": 128, "dps": 48}),
        Span("extremal.taylor", 6, 9, parent=0, attrs={"T": 40}),
        Span("extremal.frame", 6.5, 8.5, parent=4, attrs={"need_dps": 600}),
        Span("spectral.eigenpair", 7, 8, parent=5, attrs={"N": 256, "dps": 524}),
        Span("extremal.frame", 9, 9.5, parent=0, attrs={"need_dps": 20}),
    ]


def test_self_time_subtracts_direct_children():
    s = summarize(_toy_spans())
    g = s["groups"]
    assert g["cli"]["self_s"] == 10 - 5 - 3 - 0.5
    assert g["spectral.solve_constants"]["self_s"] == 5 - 1 - 2
    assert g["extremal.taylor"]["self_s"] == 3 - 2
    assert g["extremal.frame"] == {"calls": 2, "s": 2.5, "self_s": 1 + 0.5}
    assert s["modules"]["spectral"] == 2 + 1 + 2 + 1
    assert sum(s["modules"].values()) == 10


def test_eigenpair_kinds_and_frame_misses():
    s = summarize(_toy_spans())
    assert s["eigenpair"] == {
        "root 64 48": {"count": 1, "s": 1},
        "root 128 48": {"count": 1, "s": 2},
        "frame 256 524": {"count": 1, "s": 1},
    }
    assert s["frame_misses"] == 1
    assert s["taylor"] == {"max_T": 40, "max_dps": 600}
    m = run.layer_metrics([s])
    assert m["spectral.eigenpair.root.count"][0] == 2
    assert m["spectral.eigenpair.root.max_N"][0] == 128
    assert m["spectral.eigenpair.frame.max_dps"][0] == 524
    assert m["extremal.frame.hit_ratio"][0] == 0.5


def test_nested_calls_of_one_group_count_busy_time_once():
    spans = [
        Span("lseries.l_series", 0, 4),
        Span("lseries.l_series", 1, 2, parent=0),
    ]
    g = summarize(spans)["groups"]["lseries.l_series"]
    assert g == {"calls": 2, "s": 4, "self_s": 4}


def test_tracer_builds_parent_links():
    ticks = iter(range(10))
    t = Tracer(clock=lambda: next(ticks))
    outer = t.open("cli", {})
    inner = t.open("spectral.solve_constants", {})
    t.close(inner)
    t.close(outer)
    assert [(s.start, s.end, s.parent) for s in t.spans] == [(0, 3, None), (1, 2, 0)]


def test_wrappers_reach_every_importing_binding():
    # solves inside spectral go through its own module global, so a wrapper
    # on the extremal/fourier bindings alone would see none of them
    argv = ["constants", "--digits", "30"]
    res = run.run_command(run.traced_pwx(argv), 120)
    assert res["exit"] == 0
    assert res["stdout"] == run.run_command(run.pwx(argv), 120)["stdout"]
    line = [
        x
        for x in res["stderr"].decode().splitlines()
        if x.startswith(run.tracer.TRACE_PREFIX)
    ][-1]
    m = run.layer_metrics([json.loads(line[len(run.tracer.TRACE_PREFIX):])])
    assert m["spectral.eigenpair.root.count"][0] == 221
    assert m["spectral.eigenpair.root.max_per_rung"][0] == 111
    assert reference.check_constants(res["stdout"].decode(), 30) == []


def _constants_payload(digits):
    d = reference.constants_reference(digits)
    d.update({"N": 128, "digits_certified": digits})
    return json.dumps(d, indent=2) + "\n"


def _flip_last_digit(text):
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_reference_rejects_a_flipped_constant_digit():
    for digits in (30, 50, 100):
        good = _constants_payload(digits)
        assert reference.check_constants(good, digits) == []
        d = json.loads(good)
        d["lambda_star"] = _flip_last_digit(d["lambda_star"])
        argv = ["constants", "--digits", str(digits)]
        assert run.check_payload(argv, json.dumps(d), 0) != []
        assert run.check_payload(argv, good[:-20], 0) != []
        assert run.check_payload(argv, "[]", 0) != []


def _zeros_payload():
    rows = ["n,tau_n,method"]
    for n in range(1, 41):
        tau = {1: reference.TAU1_REF, 3: reference.TAU3_REF}.get(n, "%d.4" % n)
        rows.append("%d,%s,newton" % (n, reference.truncate(tau, 20)))
    return "\n".join(rows) + "\n"


def test_reference_rejects_a_flipped_zero_digit():
    good = _zeros_payload()
    assert reference.check_zeros(good, 40, 20) == []
    tau3 = reference.truncate(reference.TAU3_REF, 20)
    bad = good.replace(tau3, _flip_last_digit(tau3))
    argv = ["zeros", "--count", "40", "--digits", "20"]
    assert run.check_payload(argv, good, 0) == []
    assert run.check_payload(argv, bad, 0) != []
    assert reference.check_zeros(good.replace("\n40,40.4,newton", ""), 40, 20) != []


def test_reference_rejects_a_failed_or_missing_check():
    checks = [{"check": c, "status": "pass"} for c in reference.VERIFY_CHECKS]
    good = {"checks": checks, "failed": 0, "passed": True}
    assert reference.check_verify(json.dumps(good), 0) == []
    assert reference.check_verify(json.dumps(good), 1) != []
    missing = dict(good, checks=checks[:-1])
    assert reference.check_verify(json.dumps(missing), 0) != []
    failed = dict(good, checks=checks[:-1] + [{"check": "integrality", "status": "fail"}])
    assert reference.check_verify(json.dumps(failed), 0) != []


def test_compare_refuses_a_different_backend():
    base = {"workload": "zeros", "trace": 0, "env": {"mpmath_backend": "python"}}
    assert compare.refusal(base, base) is None
    other = dict(base, env={"mpmath_backend": "gmpy"})
    assert "backend" in compare.refusal(base, other)


def test_calibrator_times_slices_only_while_a_child_runs():
    runner = run.Runner(run.time.monotonic() + 60, run.Calibrator())
    try:
        busy = "import time\nt = time.time()\nwhile time.time() - t < 1: pass"
        res = runner._run([sys.executable, "-c", busy])
        idle = runner.calibrator.total
        run.time.sleep(0.3)
        assert runner.calibrator.total == idle
    finally:
        runner.calibrator.close()
    assert not runner.calibrator._thread.is_alive()
    assert res["exit"] == 0
    assert res["cal_slices"] > 0 and res["cal_cpu_s"] > 0
    scale = run.ref_scale([res])
    assert scale == run.CAL_REF_S * res["cal_slices"] / res["cal_cpu_s"]
    assert run.ref_scale([dict(res, cal_slices=0, cal_cpu_s=0.0)], fallback=2.0) == 2.0
