"""Payload checks for the benchmark workloads.

The reference strings are the frozen values of the test suite's
``tests/refvals.py``, imported from there.

Each ``check_*`` function returns a list of problems; an empty list means
the payload is correct.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from refvals import (  # noqa: E402
    A_STAR_REF,
    C_REF,
    L1_REF,
    LAMBDA_STAR_REF,
    TAU1_REF,
    TAU3_REF,
)

VERIFY_CHECKS = (
    ["factor-ode", "minimizer-ode", "reflection-equation"]
    + ["quadratic-first-integral", "zero-curvature"]
    + ["summation-extremal", "summation-second-system"]
    + ["transform-route-agreement", "band-edge-vanishing", "band-mean"]
    + ["endpoint-reflection-constants"]
    + ["lodd"] * 5
    + ["residue-identity"] * 3
    + ["even-odd-bridge"]
    + ["brute-vs-continuation"] * 2
    + ["symmetry-conjecture"] * 3
    + ["integrality"]
)


def significant_digits(text: str) -> int:
    digits = text.lstrip("-").replace(".", "").lstrip("0")
    return len(digits)


def truncate(text: str, digits: int) -> str:
    """Cut a plain decimal string after `digits` significant digits."""
    out, sig = [], 0
    for ch in text:
        if ch.isdigit() and (sig or ch != "0"):
            if sig == digits:
                break
            sig += 1
        out.append(ch)
    return "".join(out)


def _derived_refs(digits: int) -> dict:
    """a_star = pi/(4C) and lambda_star = -L1/(2C) from the longer C and L1
    strings, for requests beyond the digits A_STAR_REF and LAMBDA_STAR_REF
    hold."""
    from mpmath import mp, mpf

    with mp.workdps(significant_digits(C_REF) + 10):
        C, L1 = mpf(C_REF), mpf(L1_REF)
        a_star = mp.nstr(mp.pi / (4 * C), digits + 10, strip_zeros=False)
        lam = mp.nstr(-L1 / (2 * C), digits + 10, strip_zeros=False)
    return {"a_star": a_star, "lambda_star": lam}


def constants_reference(digits: int) -> dict:
    """The four constants truncated to `digits` significant digits.

    A frozen string is used when it holds more digits than asked (so its
    last, possibly rounded, digit is never compared); otherwise the value
    is derived from C_REF and L1_REF.
    """
    refs = {"C": C_REF, "L1": L1_REF, "a_star": A_STAR_REF, "lambda_star": LAMBDA_STAR_REF}
    short = [k for k in ("a_star", "lambda_star") if significant_digits(refs[k]) <= digits]
    if short:
        refs.update({k: v for k, v in _derived_refs(digits).items() if k in short})
    return {k: truncate(v, digits) for k, v in refs.items()}


def _json_object(payload: str):
    """(object, problems): the payload parsed, or None and why not."""
    try:
        got = json.loads(payload)
    except ValueError as exc:
        return None, ["payload is not JSON: %s" % exc]
    if not isinstance(got, dict):
        return None, ["payload is not a JSON object"]
    return got, []


def check_constants(payload: str, digits: int) -> list:
    got, problems = _json_object(payload)
    if got is None:
        return problems
    for key, want in constants_reference(digits).items():
        if got.get(key) != want:
            problems.append("%s = %r, expected %r" % (key, got.get(key), want))
    if got.get("digits_certified") != digits:
        problems.append("digits_certified = %r" % got.get("digits_certified"))
    return problems


def check_zeros(payload: str, count: int, digits: int) -> list:
    rows = list(csv.reader(io.StringIO(payload)))
    if not rows or rows[0] != ["n", "tau_n", "method"]:
        return ["bad header %r" % (rows[:1],)]
    body = rows[1:]
    if len(body) != count:
        return ["%d rows, expected %d" % (len(body), count)]
    problems = []
    if [r[0] for r in body] != [str(n) for n in range(1, count + 1)]:
        problems.append("row indices are not 1..%d" % count)
    try:
        taus = [float(r[1]) for r in body]
    except (IndexError, ValueError) as exc:
        return problems + ["unparsable tau: %s" % exc]
    if any(b <= a for a, b in zip(taus, taus[1:])):
        problems.append("tau_n not strictly increasing")
    for n, ref in ((1, TAU1_REF), (3, TAU3_REF)):
        if body[n - 1][1] != truncate(ref, digits):
            problems.append("tau_%d = %r, expected %r" % (n, body[n - 1][1], truncate(ref, digits)))
    return problems


def check_verify(payload: str, exit_code: int) -> list:
    got, problems = _json_object(payload)
    if got is None:
        return problems
    if exit_code != 0:
        problems.append("exit code %d" % exit_code)
    if got.get("failed") != 0 or got.get("passed") is not True:
        problems.append("failed = %r" % got.get("failed"))
    names = [c.get("check") for c in got.get("checks", [])]
    if sorted(names) != sorted(VERIFY_CHECKS):
        problems.append("checks %r differ from the expected 26" % names)
    if any(c.get("status") == "fail" for c in got.get("checks", [])):
        problems.append("a check reports status fail")
    return problems
