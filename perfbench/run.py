"""Benchmark of the ``pwx`` command line on fixed workloads.

    python3 perfbench/run.py --workload constants --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each command runs in a fresh
``python -m pwextremal`` process (the package from ``src``, no install),
one after another: a closed loop with one client.  With ``--trace 0`` the
passes repeat while they fit in ``--seconds`` (at least one) and the
end-to-end metrics are medians over passes, scaled to a reference speed
by a calibration thread that shares the children's CPU (see Calibrator).
With ``--trace 1`` one pass runs through ``tracer.py`` and gives the
per-layer metrics.  Every payload is checked against frozen reference
values.

The inputs are fixed command lines, so ``--seed`` selects nothing; it is
recorded in the result.  The second-last stdout line is a JSON record with
the environment and every command; the last line is the summary.
See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

try:
    import reference
except ImportError as exc:  # not run from a checkout of the repository
    sys.exit("error: %s" % exc)
import tracer
from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = {
    # the spectral root ladder alone, across the precision dimension
    "constants": [
        ["constants", "--digits", "30"],
        ["constants", "--digits", "50"],
        ["constants", "--digits", "100"],
    ],
    # dominated by the 524-dps refined_spectral_frame re-solve
    "zeros": [["zeros", "--count", "40", "--digits", "20"]],
    # every suite: all layers, and 16 frame calls sharing one cold miss
    "verify": [["verify", "--suite", "all", "--digits", "30"]],
}

SETUP_GROUP = 7  # setup samples before the first pass and after each pass
CAL_NICE = 10  # the calibration thread gets about a tenth of the CPU
CAL_REF_S = 0.015  # reference CPU time of one slice: times are scaled to it
RUN_LIMIT_S = 170.0  # a run must end within 180 s
COMMAND_TIMEOUT_S = 150.0


def _value(argv, flag):
    return int(argv[argv.index(flag) + 1])


def check_payload(argv, payload: str, exit_code: int) -> list:
    """Problems with one command's output; empty when it is correct."""
    if argv[0] == "verify":
        return reference.check_verify(payload, exit_code)
    problems = [] if exit_code == 0 else ["exit code %d" % exit_code]
    if argv[0] == "constants":
        return problems + reference.check_constants(payload, _value(argv, "--digits"))
    return problems + reference.check_zeros(
        payload, _value(argv, "--count"), _value(argv, "--digits")
    )


def run_command(cmd: list, timeout: float) -> dict:
    """Run one child to completion; wall time, its own rusage and output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = {}
    killed = []

    def read(name, stream):
        out[name] = stream.read()

    def kill():
        killed.append(True)
        proc.kill()

    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    readers = [
        threading.Thread(target=read, args=("stdout", proc.stdout)),
        threading.Thread(target=read, args=("stderr", proc.stderr)),
    ]
    for r in readers:
        r.start()
    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return {
        "exit": proc.returncode,
        "timed_out": bool(killed),
        "stdout": out.get("stdout", b""),
        "stderr": out.get("stderr", b""),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def calibration_slice():
    """Fixed mpmath work that stands for the program's inner loops.

    Three-term recurrences of mpf numbers at the precisions of the spectral
    root ladder (66 digits) and of the frame re-solve (524 digits).  It uses
    nothing of the package, so a change to the package cannot move it; its
    CPU time follows only the speed the machine gives the CPU it runs on.
    """
    acc = mpf(0)
    for dps, reps in ((66, 4), (524, 1)):
        with mp.workdps(dps):
            lam = mpf(3) / 7
            for r in range(reps):
                p_prev, p = mpf(1), mpf(2) - lam
                for k in range(1, 129):
                    c = mpf(2 * k + 1) / (k + r + 2) - lam
                    p, p_prev = c * p - mpf(k) / (k + 3) * p_prev, p
                    if abs(p) > 1e50:
                        p /= 1e50
                        p_prev /= 1e50
                acc += p
    return acc


class Calibrator:
    """Times calibration slices in a low-priority thread while a child runs.

    This process and its children are pinned to one CPU.  The thread runs
    there with nice CAL_NICE, so while a child runs the scheduler gives it
    about a tenth of that CPU, in turns of a few milliseconds between the
    child's.  The CPU time of a slice then follows the speed of the CPU at
    the same moments as the child, and the child's times divided by it no
    longer move with the load that other tenants of the host put on it.
    """

    def __init__(self):
        self.total = (0, 0.0)  # slices finished while measuring, their CPU time
        self._measuring = False
        self._lock = threading.Lock()
        self._quit = False
        self._go = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), CAL_NICE)
        calibration_slice()  # warm-up
        while True:
            self._go.wait()
            if self._quit:
                return
            c0 = time.thread_time()
            calibration_slice()
            cpu = time.thread_time() - c0
            with self._lock:
                if self._measuring:
                    n, total = self.total
                    self.total = (n + 1, total + cpu)

    def start(self):
        self._measuring = True
        self._go.set()

    def stop(self):
        """After this returns, no slice is added to ``total``."""
        with self._lock:
            self._measuring = False
        self._go.clear()

    def close(self, timeout: float = 10.0):
        self._quit = True
        self._go.set()
        self._thread.join(timeout)


def ref_scale(results, fallback: float = 1.0) -> float:
    """Factor that scales times measured during ``results`` to a CPU on
    which a calibration slice takes CAL_REF_S; ``fallback`` when no slice
    finished during them."""
    slices = sum(r["cal_slices"] for r in results)
    cpu_s = sum(r["cal_cpu_s"] for r in results)
    return CAL_REF_S * slices / cpu_s if slices and cpu_s > 0 else fallback


def pwx(argv):
    return [sys.executable, "-m", "pwextremal"] + argv


def traced_pwx(argv):
    return [sys.executable, str(HERE / "tracer.py")] + argv


class Runner:
    """Runs commands under one deadline and tallies failures.

    ``attempted`` and ``failed`` count the workload's commands only; a
    failed ``--help`` setup sample is counted in ``setup_failed``.  With a
    ``calibrator``, each command's result gives the calibration slices that
    finished while it ran and their CPU time.
    """

    def __init__(self, deadline: float, calibrator=None):
        self.deadline = deadline
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.setup_failed = 0
        self.records = []

    def timeout(self) -> float:
        return min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic())

    def _run(self, cmd) -> dict:
        if self.calibrator is None:
            return run_command(cmd, self.timeout())
        n0, cpu0 = self.calibrator.total
        self.calibrator.start()
        try:
            res = run_command(cmd, self.timeout())
        finally:
            self.calibrator.stop()
        n1, cpu1 = self.calibrator.total
        res["cal_slices"], res["cal_cpu_s"] = n1 - n0, cpu1 - cpu0
        return res

    def setup_sample(self) -> dict:
        res = self._run(pwx(["--help"]))
        if res["exit"] != 0 or not res["stdout"].startswith(b"usage: pwx"):
            self.setup_failed += 1
        return res

    def command(self, argv, build=pwx) -> dict:
        res = self._run(build(argv))
        payload = res["stdout"].decode("utf-8", "replace")
        if res["timed_out"]:
            problems = ["timed out"]
        else:
            problems = check_payload(argv, payload, res["exit"])
        res["sha256"] = hashlib.sha256(res["stdout"]).hexdigest()
        self._tally(argv, res, problems)
        return res

    def pass_(self, commands) -> list:
        return [self.command(argv) for argv in commands]

    def _tally(self, argv, res, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.records.append(
            {
                "argv": " ".join(argv),
                "exit": res["exit"],
                "wall_s": res["wall_s"],
                "cpu_s": res["cpu_s"],
                "rss_mb": res["rss_mb"],
                "cal_slices": res.get("cal_slices"),
                "cal_cpu_s": res.get("cal_cpu_s"),
                "sha256": res.get("sha256"),
                "problems": problems,
            }
        )


def environment(started_load: float) -> dict:
    import mpmath
    import mpmath.libmp

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": started_load,
        "commit": commit,
    }


def load_digests() -> dict:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)


def digest_mismatches(passes, commands, digests) -> int:
    """How many of the workload's commands printed a payload whose sha256
    differs from the one stored in digests.json."""
    return sum(
        any(results[i]["sha256"] != digests.get(" ".join(argv)) for results in passes)
        for i, argv in enumerate(commands)
    )


def timed_run(runner: Runner, commands, seconds: int) -> tuple:
    runner.setup_sample()  # warm-up: writes the bytecode cache
    # setup samples are taken in groups around the passes, so that they
    # see the same states of the machine as the passes do
    setup = [[runner.setup_sample() for _ in range(SETUP_GROUP)]]
    passes = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        passes.append(runner.pass_(commands))
        setup.append([runner.setup_sample() for _ in range(SETUP_GROUP)])
        # start another pass only if one more as long as the last still
        # ends within the measuring time (and the run's deadline)
        end = 2 * time.monotonic() - begun
        if end > min(start + seconds, runner.deadline) or runner.failed:
            break

    # each command is scaled by the slices that finished while it ran; a
    # --help sample is too short for that, so each is scaled by the slices
    # of its group
    pooled = ref_scale([r for group in setup + passes for r in group])

    def per_pass(key, total=sum, scaled=False):
        def value(r):
            return r[key] * (ref_scale([r], pooled) if scaled else 1)

        return statistics.median(total(value(r) for r in p) for p in passes)

    setup_s = statistics.median(r["wall_s"] for group in setup for r in group)
    metrics = {
        "wall_ref_s": (per_pass("wall_s", scaled=True), "s"),
        "cpu_ref_s": (per_pass("cpu_s", scaled=True), "s"),
        "peak_rss_mb": (per_pass("rss_mb", max), "MB"),
        "setup_s": (
            statistics.median(
                r["wall_s"] * ref_scale(group, pooled) for group in setup for r in group
            ),
            "s",
        ),
    }
    unscaled = {"wall_s": per_pass("wall_s"), "cpu_s": per_pass("cpu_s"), "setup_s": setup_s}
    return metrics, passes, unscaled


def _rung_metrics(prefix: str, summaries: list, kind: str) -> dict:
    rungs = [
        (int(key.split()[1]), int(key.split()[2]), r)
        for s in summaries
        for key, r in s["eigenpair"].items()
        if key.split()[0] == kind
    ]
    count = sum(r["count"] for _n, _d, r in rungs)
    busy = sum(r["s"] for _n, _d, r in rungs)
    out = {prefix + "count": (count, "count"), prefix + "s": (busy, "s")}
    if kind != "other":
        out[prefix + "s_per_solve"] = (busy / count if count else 0.0, "s")
        out[prefix + "max_per_rung"] = (max((r["count"] for _n, _d, r in rungs), default=0), "count")
        out[prefix + "max_N"] = (max((n for n, _d, _r in rungs), default=0), "N")
        out[prefix + "max_dps"] = (max((d for _n, d, _r in rungs), default=0), "digits")
    return out


def layer_metrics(summaries: list) -> dict:
    """Per-layer metrics of one traced pass (one summary per command)."""

    def group(name, key):
        return sum(s["groups"].get(name, {}).get(key, 0) for s in summaries)

    m = {}
    m["spectral.solve_constants.s"] = (group("spectral.solve_constants", "s"), "s")
    for kind in ("root", "frame", "other"):
        m.update(_rung_metrics("spectral.eigenpair.%s." % kind, summaries, kind))
    calls = group("extremal.frame", "calls")
    misses = sum(s["frame_misses"] for s in summaries)
    m["extremal.frame.calls"] = (calls, "count")
    m["extremal.frame.misses"] = (misses, "count")
    m["extremal.frame.hit_ratio"] = ((calls - misses) / calls if calls else 0.0, "ratio")
    m["extremal.frame.s"] = (group("extremal.frame", "s"), "s")
    m["extremal.taylor.calls"] = (group("extremal.taylor", "calls"), "count")
    m["extremal.taylor.self_s"] = (group("extremal.taylor", "self_s"), "s")
    m["extremal.taylor.max_T"] = (max((s["taylor"]["max_T"] for s in summaries), default=0), "terms")
    m["extremal.taylor.max_dps"] = (max((s["taylor"]["max_dps"] for s in summaries), default=0), "digits")
    for name in ("offset_coefficients", "refine_zeros_newton", "build_zero_model", "residual_checks"):
        m["extremal.%s.self_s" % name] = (group("extremal." + name, "self_s"), "s")
    for name in ("summation_system", "summation_check"):
        m["extremal.%s.s" % name] = (group("extremal." + name, "s"), "s")
    m["fourier.band_transform.self_s"] = (group("fourier.band_transform", "self_s"), "s")
    m["fourier.legendre.s"] = (group("fourier.legendre", "s"), "s")
    m["lseries.integrality.s"] = (group("lseries.integrality", "s"), "s")
    m["lseries.l_series.calls"] = (group("lseries.l_series", "calls"), "count")
    m["lseries.l_series.s"] = (group("lseries.l_series", "s"), "s")
    m["lseries.brute_force.s"] = (group("lseries.brute_force", "s"), "s")
    for name in ("series_multiply", "series_reciprocal"):
        m["mpcore.%s.calls" % name] = (group("mpcore." + name, "calls"), "count")
        m["mpcore.%s.s" % name] = (group("mpcore." + name, "s"), "s")
    for module in tracer.MODULES:
        m[module + ".self_s"] = (sum(s["modules"][module] for s in summaries), "s")
    return m


def traced_run(runner: Runner, commands) -> tuple:
    traced = [runner.command(argv, build=traced_pwx) for argv in commands]
    summaries = []
    for t in traced:
        lines = [
            line
            for line in t["stderr"].decode("utf-8", "replace").splitlines()
            if line.startswith(tracer.TRACE_PREFIX)
        ]
        if lines:
            summaries.append(json.loads(lines[-1][len(tracer.TRACE_PREFIX):]))
        elif t["exit"] == 0:  # a non-zero exit already counts as failed
            runner.failed += 1
    metrics = layer_metrics(summaries)
    metrics["cli.payload_bytes"] = (sum(len(t["stdout"]) for t in traced), "bytes")
    metrics["trace.overhead_s"] = (sum(s["overhead_s"] for s in summaries), "s")
    return metrics, [traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pwextremal" / "__init__.py").is_file():
        print("error: no pwextremal package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    env = environment(os.getloadavg()[0])
    # this process, its threads and every child share one CPU, so the
    # calibration thread measures the CPU the commands run on
    env["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    commands = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        runner = Runner(deadline)
        metrics, passes = traced_run(runner, commands)
        unscaled = None
    else:
        runner = Runner(deadline, Calibrator())
        try:
            metrics, passes, unscaled = timed_run(runner, commands, args.seconds)
        finally:
            runner.calibrator.close()
    mismatches = digest_mismatches(passes, commands, load_digests())
    if args.trace:
        metrics["cli.payload_digest_mismatch"] = (mismatches, "count")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "passes": len(passes),
        "unscaled": unscaled,
        "error_rate": runner.failed / runner.attempted,
        "setup_failed": runner.setup_failed,
        "payload_digest_mismatch": mismatches,
        "commands": runner.records,
    }
    summary = {
        "correct": runner.failed == 0 and runner.setup_failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
