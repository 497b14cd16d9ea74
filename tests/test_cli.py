"""End-to-end tests of the command-line interface.

Every test shells out to ``python -m pwextremal`` so argument parsing,
exit codes, and the stdout/stderr split are exercised exactly as a user
sees them.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from decimal import ROUND_DOWN, Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from refvals import C_REF, H0_REF, L1_REF


SRC = str(Path(__file__).resolve().parent.parent / "src")
DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def run_cli(*argv):
    # the child finds the package from src, as pytest's own process does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "pwextremal"] + list(argv),
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )


def test_constants_payload():
    proc = run_cli("constants", "--digits", "12")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["C"] == "0.540928821901"
    assert payload["L1"].startswith("-0.45195216488")
    assert payload["digits_certified"] == 12


def test_constants_fifty_digit_prefixes():
    proc = run_cli("constants", "--digits", "50")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["C"] == C_REF[: 50 + 2]
    assert payload["L1"] == L1_REF[: 50 + 3]


def test_rerun_is_byte_identical():
    first = run_cli("constants", "--digits", "12")
    second = run_cli("constants", "--digits", "12")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_manifest_goes_to_stderr():
    proc = run_cli("constants", "--digits", "12")
    manifest = json.loads(proc.stderr.strip().splitlines()[-1])
    assert manifest["command"] == "constants"
    assert manifest["parameters"]["digits"] == 12
    assert manifest["outputs"] == []
    assert "timestamp" in manifest
    # the payload itself must carry no timestamp, or reruns would differ
    assert "timestamp" not in proc.stdout


_FOOTPRINT = """
import sys
import mpmath
before = set(sys.modules)
import pwextremal.cli
added = sorted(m for m in sys.modules if m not in before and m.split(".")[0] != "pwextremal")
print(" ".join(added))
pwextremal.cli.main(["constants", "--digits", "12"])
"""


def test_import_footprint_and_utc_timestamp():
    # past mpmath, importing the CLI loads only argparse and json (no
    # dataclasses, datetime, csv or typing), and the manifest timestamp is
    # ISO 8601 UTC with microseconds whatever the local zone
    env = dict(os.environ, PYTHONPATH=SRC, TZ="XYZ-5")
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.splitlines()[0].split())
    allowed = {"argparse", "gettext", "_json"}
    allowed |= {"json", "json.decoder", "json.encoder", "json.scanner"}
    assert added <= allowed, sorted(added - allowed)
    stamp = json.loads(proc.stderr.strip().splitlines()[-1])["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", stamp), stamp
    when = datetime.fromisoformat(stamp)
    assert when.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - when) < timedelta(minutes=10)


def test_digits_floor_is_a_usage_error():
    assert run_cli("constants", "--digits", "9").returncode == 2


def test_unknown_export_target_rejected():
    assert run_cli("export", "nonsense").returncode == 2


def test_unknown_suite_rejected():
    assert run_cli("verify", "--suite", "nonsense").returncode == 2


def test_zeros_table():
    proc = run_cli("zeros", "--count", "8", "--digits", "20")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,tau_n,method"
    assert len(lines) == 9
    previous = mpf(0)
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == n
        value = mpf(fields[1])
        assert n < value < n + mpf("0.5")
        assert value > previous
        previous = value
        assert fields[2] in ("newton", "series")
    rerun = run_cli("zeros", "--count", "8", "--digits", "20")
    assert rerun.stdout == proc.stdout


def test_zeros_switch_to_series_tail():
    proc = run_cli("zeros", "--count", "40", "--digits", "12")
    methods = {line.split(",")[2] for line in proc.stdout.splitlines()[1:]}
    assert methods == {"newton", "series"}


def test_verify_quadratic_passes():
    proc = run_cli("verify", "--suite", "quadratic", "--digits", "12")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["suite"] == "quadratic"
    assert report["passed"] is True
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_gate_scales_with_digits(capsys):
    # in process: the residual gate at 50 digits is 10^-(50-10)
    from pwextremal.cli import main

    assert main(["verify", "--suite", "quadratic", "--digits", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert [c["bound"] for c in report["checks"]] == ["1.0e-40", "1.0e-40"]


def test_verify_summation_passes(capsys):
    # in process: the tau ladder and the second (drift 1) zero system,
    # each a head of 2 digits + 40 zeros plus a closed-form tail
    from pwextremal.cli import main

    argv = ["verify", "--suite", "summation", "--digits", "12"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in report["checks"]] == [
        "summation-extremal",
        "summation-second-system",
    ]
    assert [c["status"] for c in report["checks"]] == ["pass", "pass"]
    for check in report["checks"]:
        assert check["parameters"]["head"] == 64
        assert "zeros" not in check["parameters"]


@pytest.mark.parametrize("digits", [70, 100])
def test_verify_summation_passes_past_sixty_digits(digits, capsys):
    # in process: the second system's eigenvector is cut where it falls
    # under 10^-(digits+20), wherever that is inside its truncation; at
    # 70 digits it falls there only past half of N = 64
    from pwextremal.cli import main

    assert main(["verify", "--suite", "summation", "--digits", str(digits)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in report["checks"]] == ["pass", "pass"]


def test_verify_all_passes_at_100_digits(capsys):
    # in process: every suite at once, where the Taylor models run at
    # their callers' digits plus a guard and the frame at the largest
    # request plus its own
    from pwextremal.cli import main

    assert main(["verify", "--suite", "all", "--digits", "100"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert (report["passed"], report["failed"], len(report["checks"])) == (True, 0, 26)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "98bb6a9aceb80a30220d053d3edcdbe02f355709dda3406d38e5f84baa93957a"
    )


def test_verify_all_sweeps_stay_at_the_needed_precision(capsys, sweeps):
    # in process: at the benchmark's digits every backward sweep, those of
    # the frame re-solves included, runs on at most N = 128 rows and at
    # most 170 digits; the largest frame request is the second Legendre
    # pass, 157 digits, solved at 157 + 12
    from pwextremal.cli import main

    assert main(["verify", "--suite", "all", "--digits", "30"]) == 0
    capsys.readouterr()
    assert max(N for N, _dps in sweeps) <= 128
    assert max(dps for _N, dps in sweeps) <= 170


def test_verify_count_is_gone(capsys):
    # the summation head follows --digits; zeros --count stays
    from pwextremal.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "summation", "--count", "2000"])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


def _summation_args(digits):
    import argparse

    return argparse.Namespace(digits=digits)


@pytest.mark.parametrize("digits", [12, 30, 50])
def test_summation_checks_pass_below_the_requested_digits(
    digits, consts12, consts30, consts50
):
    # in process: both checks pass with bound tail_bound + 10^-(digits-10),
    # and their discrepancies are under 10^-digits
    from pwextremal import cli

    consts = {12: consts12, 30: consts30, 50: consts50}[digits]
    checks = cli._suite_summation(consts, _summation_args(digits))
    for check in checks:
        assert check["status"] == "pass", check
        assert mpf(check["discrepancy"]) < mpf(10) ** -digits, check
        with mp.workdps(20):
            gate = mpf(check["parameters"]["tail_bound"]) + mpf(10) ** (10 - digits)
            assert abs(mpf(check["bound"]) / gate - 1) < mpf("1e-7"), check


def test_summation_checks_fail_on_a_shifted_drift(consts30, monkeypatch):
    # a drift weight off by 10^-(digits-12) = 1e-18 fails both checks; the
    # gate of a sum over 10 000 zeros, 6.8e-12 + 1e-10, could not see it
    from pwextremal import cli, extremal

    check = extremal.summation_check

    def shifted(a_param, zeros, tail):
        return check(a_param + mpf(10) ** -18, zeros, tail)

    monkeypatch.setattr(extremal, "summation_check", shifted)
    checks = cli._suite_summation(consts30, _summation_args(30))
    assert [c["status"] for c in checks] == ["fail", "fail"]


def test_verify_summation_payload_pinned(capsys):
    # in process, at the benchmark's digits: the printed discrepancies and
    # tail parameters hold every digit through changes to the zero
    # ladders and the summation
    from pwextremal.cli import main

    assert main(["verify", "--suite", "summation", "--digits", "30"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert [c["discrepancy"] for c in report["checks"]] == [
        "5.982482083e-39",
        "5.59328282e-42",
    ]
    assert [c["parameters"] for c in report["checks"]] == [
        {"head": 100, "order": 19, "tail_bound": "1.9810866e-37"},
        {"head": 100, "order": 19, "matrix_drift": "1.0", "tail_bound": "5.5423879e-37"},
    ]


def test_verify_residual_payloads_pinned(capsys):
    # in process, at the benchmark's digits: the printed discrepancies of
    # the residual and transform suites hold every digit through changes
    # to the Taylor models, the zero Newton and the reflection samples
    from pwextremal.cli import main

    pinned = {
        "ode": ["8.877219791e-43", "6.47202055e-53"],
        "functional": ["5.872931621e-52"],
        "quadratic": ["1.536719919e-42", "6.272984052e-44"],
        "fourier": ["6.985144713e-51", "1.85931756e-51", "0.0", "1.734762389e-52"],
    }
    for suite, discrepancies in pinned.items():
        assert main(["verify", "--suite", suite, "--digits", "30"]) == 0, suite
        report = json.loads(capsys.readouterr().out)
        assert [c["discrepancy"] for c in report["checks"]] == discrepancies, suite


def test_verify_lseries_payloads_pinned(capsys):
    # in process, at the benchmark's digits: every printed discrepancy,
    # certified bound and order-doubling shift of the series suites holds
    # every digit through changes to how the continuation gets its Hurwitz
    # values and binomial coefficients
    from pwextremal.cli import main

    keys = ("discrepancy", "certified_bound", "order_doubling_shift")
    pinned = {
        "lseries": [
            ("1.504428656e-36", "4.5455471e-28", None),
            ("3.21621524e-34", "3.1813956e-26", None),
            ("3.80977963e-32", "2.76725e-24", None),
            ("3.778707298e-30", "2.3787111e-22", None),
            ("0.5", "3.4000018e-29", None),
            ("3.945834075e-39", "4.0530372e-28", None),
            ("1.432379771e-41", "6.0018327e-28", None),
            ("2.88455184e-44", "8.0000923e-28", None),
            ("5.092995407e-38", None, None),
            ("2.419548892e-29", None, None),
            ("5.009619908e-29", None, None),
        ],
        "conjectures": [
            ("2.839904205e-35", "5.9140141e-27", "6.7971818e-56"),
            ("4.157440119e-33", "4.6765052e-25", "1.1664575e-56"),
            ("4.584191222e-31", "3.7444186e-23", "1.9820304e-57"),
            (None, None, None),
        ],
    }
    for suite, rows in pinned.items():
        assert main(["verify", "--suite", suite, "--digits", "30"]) == 0, suite
        report = json.loads(capsys.readouterr().out)
        got = [tuple(c.get(k) for k in keys) for c in report["checks"]]
        assert got == rows, suite


def test_lseries_rows_are_written_from_the_check_numbers(consts12, monkeypatch):
    # in process, with the checks replaced by their numbers: the claimed
    # lodd values are gated by their certified bounds, the value at s = 0
    # is report-only with its note, and the residue rows carry the signs
    from pwextremal import cli, lseries

    lodd = [(-1, mpf(2), mpf(1)), (-3, mpf("-1e-40"), mpf("1e-30")), (0, mpf(-5), mpf(1))]
    residues = [(1, mpf("1e-40"), mpf("1e-30"), mpf(-2), mpf(3))]
    monkeypatch.setattr(lseries, "check_Lodd", lambda consts, m: lodd)
    monkeypatch.setattr(lseries, "check_residue_identity", lambda consts, k: residues)
    monkeypatch.setattr(lseries, "l_series", lambda consts, kind, s: SimpleNamespace(value=0))
    monkeypatch.setattr(lseries, "brute_force_value", lambda *args: (mpf(0), mpf(0)))
    rows = cli._suite_lseries(consts12, _summation_args(12))
    assert [(r["check"], r["status"]) for r in rows] == [
        ("lodd", "fail"),
        ("lodd", "pass"),
        ("lodd", "report-only"),
        ("residue-identity", "pass"),
        ("even-odd-bridge", "pass"),
        ("brute-vs-continuation", "pass"),
        ("brute-vs-continuation", "pass"),
    ]
    zero = rows[2]
    assert list(zero) == [
        "check", "parameters", "discrepancy", "certified_bound", "status", "note"
    ]
    assert (zero["parameters"], zero["discrepancy"]) == ({"s": 0}, "5.0")
    assert zero["note"] == "no claimed value; reported for the record"
    assert (rows[3]["residue_sign"], rows[3]["odd_value_sign"]) == (-1, 1)
    assert "bound" in rows[4] and "certified_bound" not in rows[4]


def test_entry_takes_the_discrepancy_exactly():
    # |discrepancy| is taken without rounding to the working precision: at
    # mpmath's default 53 bits, a discrepancy 2^-140 past a 53-bit bound
    # would round onto the bound and pass
    from pwextremal import cli

    with mp.workdps(15):
        bound = mpf(10) ** -20
    with mp.workprec(200):
        over = bound + mpf(2) ** -140
        under = -over
    with mp.workdps(15):
        rows = [cli._entry("x", {}, d, bound) for d in (over, under)]
    assert [row["status"] for row in rows] == ["fail", "fail"]
    assert rows[0]["discrepancy"] == rows[1]["discrepancy"]


def test_integrality_row_names_the_first_violation(consts12, monkeypatch):
    # in process: a scan integral through depth - 3 names depth - 2
    from pwextremal import cli, lseries

    monkeypatch.setattr(lseries, "check_symmetry_conjecture", lambda consts, k: [])
    monkeypatch.setattr(lseries, "check_integrality", lambda depth: depth - 3)
    args = _summation_args(12)
    args.terms = 40
    [row] = cli._suite_conjectures(consts12, args)
    assert list(row.items()) == [
        ("check", "integrality"),
        ("parameters", {"n_max": 40}),
        ("first_violation", 38),
        ("integral_through", 37),
        ("status", "report-only"),
    ]


def test_default_depth_caps_are_checked_before_the_solve(capsys, monkeypatch):
    # in process, with no solve: past the --digits whose default window
    # order (digits // 2) or Legendre pair count (digits // 3 + 8) passes
    # its cap, past the last default order of h, or past a command's
    # measured cap, the command is a usage error naming the
    # largest --digits; at that --digits it goes on to the solve.  The
    # same holds for an explicit --terms past its target's cap, and the
    # error names --terms; a verify suite that does not read --terms
    # rejects it at any value
    from pwextremal import cli

    def solve(digits):
        raise cli.SolverError("solve reached")

    monkeypatch.setattr(cli, "solve_constants", solve)
    for argv, largest in (
        (["export", "c-basis"], 81),
        (["export", "legendre"], 170),
        (["verify", "--suite", "fourier"], 170),
        (["verify", "--suite", "all"], 170),
        (["zeros", "--count", "40"], 760),
        (["export", "rho"], 720),
        (["export", "lvalues"], 582),
        (["verify", "--suite", "summation"], 580),
        (["verify", "--suite", "lseries"], 572),
        (["verify", "--suite", "conjectures"], 574),
        (["export", "h"], 1293),
        (["export", "c-basis", "--terms", "2"], 1293),
        (["verify", "--suite", "ode"], 3400),
        (["verify", "--suite", "functional"], 7300),
        (["verify", "--suite", "quadratic"], 6600),
    ):
        assert cli.main(argv + ["--digits", str(largest + 1)]) == 2, argv
        assert "--digits %d or less" % largest in capsys.readouterr().err
        assert cli.main(argv + ["--digits", str(largest)]) == 1, argv
        assert "solve reached" in capsys.readouterr().err
    # a c-basis or h order given within its cap lifts the limit on --digits
    argv = ["export", "c-basis", "--digits", "100", "--terms", "40"]
    assert cli.main(argv) == 1
    assert cli.main(["export", "h", "--digits", "1400", "--terms", "100"]) == 1
    for command, outside, inside, message in (
        (["export", "legendre"], 128, 127, "--terms 127 or less"),
        (["export", "c-basis"], 41, 40, "--terms 40 or less"),
        (["export", "h"], 1, 2, "--terms 2 or more"),
        (["export", "h"], 5501, 5500, "--terms 5500 or less"),
        (["export", "rho"], 751, 750, "--terms 750 or less"),
        (["export", "taylor-phi"], 6501, 6500, "--terms 6500 or less"),
        (["export", "taylor-Phi"], 25001, 25000, "--terms 25000 or less"),
        (["export", "lvalues"], 601, 600, "--terms 600 or less"),
        (["verify", "--suite", "conjectures"], 401, 400, "--terms 400 or less"),
        (["verify", "--suite", "all"], 401, 400, "--terms 400 or less"),
        (["verify", "--suite", "quadratic"], 1, None, "does not read --terms"),
    ):
        argv = command + ["--digits", "30"]
        assert cli.main(argv + ["--terms", str(outside)]) == 2, command
        assert message in capsys.readouterr().err
        if inside is not None:
            argv += ["--terms", str(inside)]
        assert cli.main(argv) == 1, command
        assert "solve reached" in capsys.readouterr().err
    # the same for the --count of zeros
    assert cli.main(["zeros", "--count", "2000001"]) == 2
    assert "zeros needs --count 2000000 or less" in capsys.readouterr().err
    assert cli.main(["zeros", "--count", "2000000"]) == 1
    assert "solve reached" in capsys.readouterr().err


def test_lseries_digit_caps_are_the_last_continuation_order():
    # the L-series rows stop where a continuation order of one of their
    # l_series calls would pass lseries' 600, before their runs pass
    # 100 s: at the cap every order is found, one digit past it one is not
    from pwextremal import cli, lseries

    def orders(command, digits):
        consts = SimpleNamespace(digits_certified=digits)
        if command == "export lvalues":
            calls = lseries._lvalue_calls(6)
        else:
            calls = lseries._suite_calls(consts, [command.split()[-1]])
        return [
            lseries._expansion_order(s, digits)
            for kind, s, order in calls
            if order is None and not lseries._is_pole(kind, s)
        ]

    for command in ("verify --suite lseries", "verify --suite conjectures", "export lvalues"):
        cap = cli.MAX_DIGITS[command]
        assert max(orders(command, cap)) <= 600, command
        with pytest.raises(cli.SolverError, match="exceeds 600"):
            orders(command, cap + 1)


def test_export_h_digit_cap_is_the_last_default_transform_order():
    # without --terms export h takes fourier._transform_terms' order, which
    # exists at the cap and not one digit past it
    from pwextremal import cli, fourier

    cap = cli.MAX_DIGITS_WITHOUT_TERMS["export h"]
    assert fourier._transform_terms(cap, C_REF) == 399
    with pytest.raises(cli.SolverError):
        fourier._transform_terms(cap + 1, C_REF)
    # export c-basis builds the transform at that order whatever --terms is
    assert cli.MAX_DIGITS["export c-basis"] == cap


def test_legendre_and_window_caps_are_the_last_depths_fourier_accepts(monkeypatch):
    # the caps of export legendre, verify --suite fourier, export legendre
    # --terms and export c-basis without --terms are the last values
    # whose Legendre pair count or window order fourier accepts, run with
    # the forward passes and the fit stubbed out: at each cap the table is
    # made, one past it legendre_band_coefficients refuses the pairs or
    # the window order passes window_basis_coefficients' MAX_WINDOW
    from pwextremal import cli, fourier

    def forward(consts, K, wd):
        return [mpf(0)] * (2 * K + 1)

    def legendre(digits, terms):
        consts = SimpleNamespace(digits_certified=digits)
        return fourier.legendre_band_coefficients(consts, terms)

    monkeypatch.setattr(fourier, "_legendre_forward", forward)
    for cap in (cli.MAX_DIGITS["export legendre"], cli.MAX_DIGITS["verify --suite fourier"]):
        legendre(cap, None)
        with pytest.raises(cli.UsageError, match="pairs beyond"):
            legendre(cap + 1, None)
    cap = cli.MAX_TERMS["export legendre"]
    assert len(legendre(30, cap)) == cap + 1
    with pytest.raises(cli.UsageError, match="pairs beyond"):
        legendre(30, cap + 1)
    orders = []

    def fit(band, K):
        orders.append(K)
        return [mpf(0)] * K, mpf(1)

    monkeypatch.setattr(fourier, "build_band_transform", lambda consts: None)
    monkeypatch.setattr(fourier, "window_basis_coefficients", fit)
    cap = cli.MAX_DIGITS_WITHOUT_TERMS["export c-basis"]
    for digits in (cap, cap + 1):
        fourier.basis_table(SimpleNamespace(digits_certified=digits), "c-basis", None)
    assert orders[0] <= fourier.MAX_WINDOW < orders[1]


def test_verify_exit_code_reflects_failure(consts12, capsys, monkeypatch):
    # in process: a zero-curvature residual of 1, far past its bound of
    # 10^-2, fails its row, and the failed row sets the exit code; the
    # other row of the suite still passes
    from pwextremal import cli, extremal

    monkeypatch.setattr(cli, "solve_constants", lambda digits: consts12)
    monkeypatch.setattr(extremal, "zero_curvature_residual", lambda consts: mpf(1))
    assert cli.main(["verify", "--suite", "quadratic", "--digits", "12"]) == 1
    report = json.loads(capsys.readouterr().out)
    statuses = [(c["check"], c["status"]) for c in report["checks"]]
    assert statuses == [("quadratic-first-integral", "pass"), ("zero-curvature", "fail")]
    assert (report["failed"], report["passed"]) == (1, False)


def test_verify_conjectures_report_only():
    proc = run_cli(
        "verify", "--suite", "conjectures", "--digits", "12", "--terms", "40"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    for check in report["checks"]:
        assert check["status"] == "report-only"


def test_out_writes_payload_and_manifest(tmp_path):
    target = tmp_path / "constants.json"
    proc = run_cli("constants", "--digits", "12", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    payload = json.loads(target.read_text())
    assert payload["C"] == "0.540928821901"
    manifest = json.loads((tmp_path / "constants.json.manifest.json").read_text())
    assert manifest["command"] == "constants"
    assert manifest["outputs"] == [str(target)]


def test_out_to_a_device_puts_the_manifest_on_stderr(capsys):
    # in process: a device --out gets no sidecar beside it
    from pwextremal.cli import main

    sidecar = os.devnull + ".manifest.json"
    try:
        assert main(["constants", "--digits", "12", "--out", os.devnull]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["command"] == "constants"
        assert manifest["outputs"] == [os.devnull]
        assert not os.path.exists(sidecar)
    finally:
        if os.path.isfile(sidecar):
            os.remove(sidecar)


def test_out_is_checked_before_the_solve(tmp_path, capsys, monkeypatch):
    # in process: a directory, or a path in a missing directory, is a usage
    # error naming the path before the solve; a write that fails after it
    # is one error line and exit 1, with no traceback
    from pwextremal import cli

    solve = cli.solve_constants

    def refused(digits):
        raise cli.SolverError("solve reached")

    monkeypatch.setattr(cli, "solve_constants", refused)
    for out in (str(tmp_path), str(tmp_path / "missing" / "x.json")):
        assert cli.main(["constants", "--digits", "12", "--out", out]) == 2
        assert "error: --out %s" % out in capsys.readouterr().err
    if os.path.exists("/dev/full"):  # a device every write to fails on
        monkeypatch.setattr(cli, "solve_constants", solve)
        assert cli.main(["constants", "--digits", "12", "--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full: ")
        assert len(err.splitlines()) == 1


def test_zeros_rows_are_written_as_they_are_made(consts12, monkeypatch):
    # in process: the header goes out before any zero is computed and each
    # row before the next zero, so the table is never held whole
    from pwextremal import cli, extremal

    made, written, tau = [], [], extremal.tau

    def counted(model, n):
        made.append(n)
        return tau(model, n)

    monkeypatch.setattr(cli, "solve_constants", lambda digits: consts12)
    monkeypatch.setattr(extremal, "tau", counted)
    monkeypatch.setattr(
        cli.sys, "stdout",
        SimpleNamespace(writelines=lambda lines: written.extend(len(made) for _ in lines)),
    )
    assert cli.main(["zeros", "--count", "3", "--digits", "12"]) == 0
    assert written == [0, 1, 2, 3]


def test_export_rho_coefficients():
    proc = run_cli("export", "rho", "--terms", "6", "--digits", "15")
    payload = json.loads(proc.stdout)
    assert payload["series"] == "rho"
    assert payload["coeffs"][0] == "0.0"
    assert payload["coeffs"][1].startswith("0.0846549979")
    assert payload["coeffs"][2] == "0.0"
    assert payload["coeffs"][3].startswith("0.0056342784")


def test_export_taylor_phi():
    proc = run_cli("export", "taylor-phi", "--terms", "5", "--digits", "15")
    payload = json.loads(proc.stdout)
    assert payload["coeffs"][0].startswith("1.0")
    assert payload["coeffs"][1] == "0.0"
    assert payload["coeffs"][2].startswith("-0.97789580")
    assert len(payload["coeffs"]) == 6


def test_export_factor_taylor_starts_with_slope():
    proc = run_cli("export", "taylor-Phi", "--terms", "4", "--digits", "15")
    payload = json.loads(proc.stdout)
    assert payload["coeffs"][0].startswith("1.0")
    assert payload["coeffs"][1].startswith("-0.4519521648")


def test_export_h_basis_values():
    proc = run_cli("export", "h", "--terms", "12", "--digits", "20")
    payload = json.loads(proc.stdout)
    assert payload["basis"] == "h"
    # (1-u)^n basis: u=1 leaves only the unused constant slot, so h(1) = 0
    assert payload["coeffs"][0] == "0.0"
    with mp.workdps(30):
        total = sum(mpf(c) for c in payload["coeffs"])
        assert abs(total - mpf(H0_REF)) < mpf("1e-13")


def test_export_legendre_even_support():
    proc = run_cli(
        "export", "legendre", "--terms", "6", "--digits", "12", "--format", "csv"
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,coefficient"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][1].startswith("1.0")
    assert rows[1][1] == "0.0"
    assert rows[2][1].startswith("-1.013")
    assert len(rows) == 7


def test_export_legendre_prints_only_true_digits(capsys):
    # in process: each entry is printed down to 10^-(digits+5), the
    # absolute accuracy that the two-pass check backs, so a 130-digit run
    # cut at that place agrees with a 100-digit run in every printed digit
    from pwextremal.cli import main
    from pwextremal.mpcore import decimal_truncated

    runs = {}
    for digits in (100, 130):
        assert main(["export", "legendre", "--digits", str(digits)]) == 0
        runs[digits] = json.loads(capsys.readouterr().out)["coeffs"]
    short, long = runs[100], runs[130]
    assert len(long) >= len(short)
    with mp.workdps(200):
        assert [decimal_truncated(mpf(v), 100, -105) for v in long[: len(short)]] == short
    # the tail below the place reads 0.0, and d_20 ~ 3.1e-34 keeps 72 digits
    assert short[-1] == "0.0"
    assert len(short[20].lstrip("0.")) == 72


def test_export_c_basis_prints_only_true_digits(capsys):
    # in process: each c_k is printed down to the absolute place that the
    # fit's error bound backs, so every digit printed at 30 digits is one
    # of a 60-digit run of the same window order (15, the default at 30).
    # That bound sums the band series' tail on the fit's nodes, 3.4e-46
    # at 30 digits, so c_11..c_13 print digits
    from pwextremal.cli import main

    runs = {}
    for argv in (["--digits", "30"], ["--digits", "60", "--terms", "15"]):
        assert main(["export", "c-basis"] + argv) == 0
        runs[argv[1]] = json.loads(capsys.readouterr().out)["coeffs"]
    short, long = runs["30"], runs["60"]
    assert len(short) == len(long) == 16
    with localcontext() as ctx:
        ctx.prec = 100
        for k, (s, v) in enumerate(zip(short, long)):
            place = Decimal(1).scaleb(Decimal(s).as_tuple().exponent)
            assert Decimal(v).quantize(place, rounding=ROUND_DOWN) == Decimal(s), k
    # c_11 ~ 1.5e-33 keeps 13 digits above the bound, c_13 ~ 7.0e-43
    # keeps 3 and c_14 ~ 9.6e-48 none
    assert short[11] == "1.477066024598e-33"
    assert short[13] == "6.98e-43"
    assert short[14] == "0.0"


@pytest.mark.parametrize(
    "command",
    [
        "constants --digits 30",
        "constants --digits 50",
        "constants --digits 100",
        "zeros --count 40 --digits 20",
    ],
)
def test_payloads_match_the_benchmark_digests(command, capsys):
    # in process, against the benchmark's stored sha256 (read only); its
    # verify entry predates the current verify payload and is left out
    from pwextremal.cli import main

    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == json.loads(DIGESTS.read_text())[command]


# sha256 of payloads that run through the series layer (Taylor models,
# series products and reciprocals, the zero model).  Refresh a digest only
# when a change alters that payload by design, and name the change in
# CHANGES.md; any other mismatch is a regression.
SERIES_PAYLOADS = {
    "export taylor-phi --terms 300 --digits 30":
        "486794eab8a2f48cd949aaf9bca90300b2f347235e99d8547c3dd76c3065576e",
    "export taylor-Phi --terms 200 --digits 100":
        "26d31901227e58b45046bb1fdcbac0884936cf3f3fd2579cf2f5bb6a97c22bdc",
    "export rho --digits 100":
        "2e8a14f3649643a7c08313135fdb8b49d027b315030d8fc074365493ece52291",
    "export rho --digits 30 --format csv":
        "80bfea70b8531a0948c10175b43be7c6716ed0bcca6308f597b061b76d0a87dc",
    "export h --digits 100":
        "1fee39444495f635fb3615f0b926629b349ae42bcf65185597d7c8be9a93ff45",
    "export lvalues --digits 30":
        "373cf76068a25b4a1576084b1cb704fd7b8ab6e5cfef0e83f4ef0bcaed10d9df",
    "export lvalues --digits 30 --format csv":
        "f3ce50f1d95205258120fdf905375ad654236d427162a3220f9662821351e9a1",
    "verify --suite all --digits 30":
        "72e915fa44af3422671335b427d4a3e8b1ba3a755721c50de13992c1ff082bca",
    "verify --suite lseries --digits 30":
        "68484d7a1199823be171177e85f8eae7cf9c9f0cd53ba043f933e7bd14297339",
    "zeros --count 40 --digits 100":
        "22542e31e3b4fc3ecdb1c1a3c39c12f566142ec03584f9bf4d88a6716896111d",
    "zeros --count 40 --digits 200":
        "1d58118e3de324acd7aad07fe372d9751c151801f12f9a465e7b84e813ee044c",
    "export c-basis --digits 30":
        "3f2bdb359ec31a84dd79c24ce01414d09902a627e7e7f214d92dbcc9249e93fb",
    "export c-basis --digits 60 --terms 12 --format csv":
        "067edf7bcad39b0c76e0466ba7b380269bdc95c4640f9d7b7be3ad5821ea3fa8",
    "export legendre --digits 30":
        "8abf375607a0ea623d525807182e01db6b91d53543244cf19a2fa87a8db9d36a",
    # 60 rows pass the default 2 * 18, so 31 pairs are made
    "export legendre --digits 30 --terms 60 --format csv":
        "a6c1c7d3d27a6d579acfb8d5d9a7d0bf08b876d463b60f7781524f59836e550f",
    # the factor model's floor of order 2
    "export taylor-Phi --digits 30 --terms 1":
        "555ffdcda70577fc340dea3f603a67873f0ded3a13eba9addaf10db93004c59d",
}


@pytest.mark.parametrize("command", sorted(SERIES_PAYLOADS))
def test_series_payloads_pinned(command, capsys):
    from pwextremal.cli import main

    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SERIES_PAYLOADS[command]


def test_export_lvalues_csv():
    proc = run_cli(
        "export", "lvalues", "--terms", "2", "--digits", "15", "--format", "csv"
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "kind,s,is_pole,value,residue,error_bound"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    table = {(r[0], r[1]): r for r in rows}
    assert table[("plus", "1")][2] == "True"
    assert table[("plus", "1")][4] == "1.0"
    assert table[("minus", "1")][3].startswith("-0.4519521648")


def _script_target():
    """The target pyproject.toml names for pwx: by tomllib (Python 3.11
    on) or tomli when one is there, else from the pwx = "..." line of
    [project.scripts], as Python 3.10 without tomli has no TOML parser."""
    text = (Path(SRC).parent / "pyproject.toml").read_text()
    for name in ("tomllib", "tomli"):
        try:
            parser = __import__(name)
        except ImportError:
            continue
        return parser.loads(text)["project"]["scripts"]["pwx"]
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^pwx\s*=\s*"([^"]*)"', section, re.M).group(1)


def test_script_target_without_a_toml_parser(monkeypatch):
    # as on Python 3.10 without tomli: both imports fail
    monkeypatch.setitem(sys.modules, "tomllib", None)
    monkeypatch.setitem(sys.modules, "tomli", None)
    assert _script_target() == "pwextremal.cli:main"


def test_pwx_entry_point():
    # the installed script when there is one, else the target that
    # pyproject.toml names for it, run on src as the script would run it
    exe = shutil.which("pwx")
    if exe is not None:
        argv, env = [exe], None
    else:
        target = _script_target()
        assert target == "pwextremal.cli:main"
        module, function = target.split(":")
        code = "import sys, %s as m; sys.exit(m.%s())" % (module, function)
        argv = [sys.executable, "-c", code]
        env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        argv + ["constants", "--digits", "10"],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["C"] == "0.5409288219"
