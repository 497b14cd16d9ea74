"""Command-line front end.

Four commands cover the package surface: ``constants`` prints the
certified constants, ``zeros`` tabulates the zero ladder, ``verify`` runs
named identity suites and sets the exit code from their outcome, and
``export`` writes coefficient tables of the series representations.

Output conventions.  The payload goes to stdout, or to --out when given;
numeric content is serialized as decimal strings truncated to the
requested digits, and a payload rerun with the same parameters is
byte-identical.  Only this module turns numbers into payload text; the
others return numbers and records, each at the precision its module
chose; no function here sets one.  Each table comes from one function
of its module; extremal.zero_table holds the zero model's precision over
the whole table, so the zeros are formatted at it too.  What backs the
printed constants: two solves, at guard g and 2g extra digits, agree to 10^-(digits+1), and the truncation size N is
picked from an estimate of the eigenvector's tail decay, not from a
proved bound.  Each run also emits a manifest recording the command,
parameters, and output files: as a ``.manifest.json`` sidecar beside a
regular --out file, as one line on stderr otherwise, a device --out
included (the manifest carries a timestamp, which is why it never shares
the payload channel).  CSV rows are written as they are made.  An --out
that is a directory, or in no directory, is refused before the solve.

Which modules a command loads.  ``extremal``, ``fourier`` and
``lseries`` are registered on import but run only when a command first
reads one of their functions, so ``constants`` and ``--help`` load only
``spectral`` and ``mpcore``: without a bytecode cache, compiling the
other three took about a fifth of each ``constants`` run.

One check, _check_caps, refuses before the solve every --digits, --count
or --terms past a command's row in MAX_DIGITS, MAX_DIGITS_WITHOUT_TERMS
(when --terms is absent) or MAX_TERMS, and any --terms of a command with
no MAX_TERMS row; a verify run takes the smallest cap of its suites.

Each summation check of ``verify`` passes within the tail bound that
extremal.check_summation returns plus 10^-(digits-10).

Every number of a verify row comes from a check function of
``extremal``, ``fourier`` or ``lseries``; one builder, _entry, writes the
rows, and the gates are this module's.  A row's ``bound`` is a tolerance
this module sets from --digits (plus the tail bound in the summation
checks); its ``certified_bound`` is an error bound the computation itself
carries: the L-series continuation's error bounds, plus 10^-(digits-2) on
a claimed value.

Exit codes: 0 on success and on a verify run whose theorem-backed checks
all pass; 1 on solver or certification failure, on any failed check, or
when the payload cannot be written; 2 on usage errors.  Conjecture probes
are report-only and never affect the exit code.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import stat
import sys
import time
from types import SimpleNamespace

from mpmath import mp, mpf

from .mpcore import (
    MAX_INTEGRALITY_DEPTH,
    MAX_PAIRS,
    MAX_WINDOW,
    SolverError,
    UsageError,
    decimal_truncated,
)
from .spectral import solve_constants


def _lazy(name: str):
    """The package module `name`, registered in sys.modules and on the
    package as an import registers it, but run only when one of its
    attributes is first read; a module already imported is returned as
    it is, so there is never a second copy of it."""
    full = __package__ + "." + name
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


extremal, fourier, lseries = _lazy("extremal"), _lazy("fourier"), _lazy("lseries")

EXPORT_TARGETS = (
    "taylor-phi",
    "taylor-Phi",
    "rho",
    "h",
    "c-basis",
    "legendre",
    "lvalues",
)

# The caps _check_caps puts on each flag before the solve.  The largest
# --digits of the targets whose default order follows --digits, held when
# --terms is absent: c-basis's window order digits // 2 is capped at
# MAX_WINDOW, and past 1293 fourier._transform_terms finds no order of h
# within its cap.
MAX_DIGITS_WITHOUT_TERMS = {"export c-basis": 2 * MAX_WINDOW + 1, "export h": 1293}

# The largest --digits of each command: for the fourier suite and export
# legendre the largest whose default Legendre pair count, digits // 3 + 8,
# fits in MAX_PAIRS; for c-basis h's, as its band transform takes h's
# default order; for the L-series rows the last before a continuation order
# passes lseries' 600, short of 100 s; for the others where one run
# passes about 100 s, extrapolated from the growth between the runs listed
# (2-core x86 VM, one run each, at 300 and 450 digits where no digits are
# named; zeros with --count 40).
MAX_DIGITS = {
    "zeros": 760,  # 450, 600, 750: 10.3 s, 35.3 s, 93.5 s
    "export rho": 720,  # 450, 600, 720: 15.3 s, 41.9 s, 95.5 s
    "export lvalues": 582,  # 300, 450, 582: 4.7 s, 19.2 s, 62.1 s
    "export legendre": 3 * (MAX_PAIRS - 8) + 2,
    "export c-basis": MAX_DIGITS_WITHOUT_TERMS["export h"],
    "verify --suite ode": 3400,  # 1000, 3000, 3500: 2.8 s, 64.7 s, 108.9 s
    "verify --suite functional": 7300,  # 4000, 7000, 8000: 19.7 s, 85.2 s, 128 s
    "verify --suite quadratic": 6600,  # 4000, 6000, 7000: 29.7 s, 78.3 s, 110.9 s
    "verify --suite summation": 580,  # 300, 450, 600: 8.5 s, 35.6 s, 113.3 s
    "verify --suite fourier": 3 * (MAX_PAIRS - 8) + 2,
    "verify --suite lseries": 572,  # 300, 450, 572: 4.5 s, 19.5 s, 49.0 s
    "verify --suite conjectures": 574,  # 300, 450, 574: 7.0 s, 19.8 s, 55.7 s
}

# The largest --count of zeros and --terms of each command that reads it;
# those not derived from a package cap where one run at --digits 30 passes
# about 100 s, extrapolated from the runs listed (2-core x86 VM, one run
# each).  taylor-phi stops before that: past 6500 terms its minimizer
# sweep needs a truncation past spectral's N cap at some --digits the solve
# accepts (at 30 digits past 8185 terms; 8000 took 18.0 s).
MAX_TERMS = {
    "zeros": 2000000,  # 200 000, 500 000: 7.7 s, 22.0 s (168 MB)
    "export rho": 750,  # 200, 400, 560: 2.6 s, 19.3 s, 45.1 s
    "export taylor-phi": 6500,
    "export taylor-Phi": 25000,  # 8000, 16 000, 20 000: 6.5 s, 35.6 s, 56.8 s
    "export h": 5500,  # 1000, 2000, 4000: 2.3 s, 9.8 s, 45.3 s
    "export lvalues": 600,  # 150, 300, 600: 3.1 s, 14.2 s, 83.6 s
    "export legendre": 2 * MAX_PAIRS - 1,  # (terms + 2) // 2 pairs
    "export c-basis": MAX_WINDOW,  # the window order
    "verify --suite conjectures": MAX_INTEGRALITY_DEPTH,  # the scan depth
}


# ----------------------------------------------------------------------
# payload records


def _entry(name, parameters, discrepancy, bound, key="bound", gated=True, **scan):
    """One verify row: |discrepancy| to 10 digits and the bound to 8 under
    `key`, or on the integrality scan's row the `scan` fields in their
    place, then the status: pass or fail on a gated row, report-only on
    any other.  |discrepancy| is exact, the sign flipped without rounding,
    so the row prints and gates the number its check returned.  A suite
    appends its notes to the row after the status."""
    row = {"check": name, "parameters": parameters, **scan}
    if discrepancy is not None:
        if discrepancy < 0:
            discrepancy = mp.fneg(discrepancy, exact=True)
        row["discrepancy"], row[key] = mp.nstr(discrepancy, 10), mp.nstr(bound, 8)
    row["status"] = ("pass" if discrepancy <= bound else "fail") if gated else "report-only"
    return row


def _bound(args, drop: int):
    """Pass threshold 10^-E, E = digits - drop, at least 2."""
    return mpf(10) ** (-max(2, args.digits - drop))


# ----------------------------------------------------------------------
# verification suites
#
# Each suite calls check functions of extremal, fourier or lseries, which
# compute the numbers of its rows at the precision they choose, and only
# writes the rows: it sets no working precision and reads no other
# module's guard (tests/test_payload_layer.py).  It reads the checks off
# those modules when it runs, so that defining it loads no module and the
# function read is the one perfbench/tracer.py wraps.  A residual row
# passes within 10^-(digits-10).


def _suite_ode(consts, args):
    b = _bound(args, 10)
    parameters = {"points": 20, "radius": 5}
    return [
        _entry("factor-ode", parameters, extremal.check_ode_residual(consts), b),
        _entry("minimizer-ode", parameters, extremal.check_extremal_ode_residual(consts), b),
    ]


def _suite_functional(consts, args):
    parameters = {"points": 20, "circle": "self-dual"}
    defect = extremal.check_functional_equation(consts)
    return [_entry("reflection-equation", parameters, defect, _bound(args, 10))]


def _suite_quadratic(consts, args):
    b = _bound(args, 10)
    relation = extremal.check_quadratic_relation(consts)
    return [
        _entry("quadratic-first-integral", {"points": 20, "radius": 3}, relation, b),
        _entry("zero-curvature", {"n": 1}, extremal.zero_curvature_residual(consts), b),
    ]


def _suite_summation(consts, args):
    b = _bound(args, 10)
    names = ("summation-extremal", "summation-second-system")
    out = []
    for name, (defect, zeros, tail, drift) in zip(names, extremal.check_summation(consts)):
        parameters = {"head": len(zeros), "order": tail.order}
        if drift is not None:
            parameters["matrix_drift"] = mp.nstr(drift, 8)
        parameters["tail_bound"] = mp.nstr(tail.bound, 8)
        out.append(_entry(name, parameters, defect, tail.bound + b))
    return out


def _suite_fourier(consts, args):
    terms, route, edge, mean = fourier.check_transform_routes(consts)
    relations = fourier.check_endpoint_relations(consts)
    parameters = {"grid_points": 11, "terms": terms}
    return [
        _entry("transform-route-agreement", parameters, route, _bound(args, 15)),
        _entry("band-edge-vanishing", {"u": "+-1"}, edge, _bound(args, 10)),
        _entry("band-mean", {}, mean, _bound(args, 10)),
        _entry("endpoint-reflection-constants", {"relations": 3}, relations, _bound(args, 5)),
    ]


# brute_force_value's cap: four Euler-Maclaurin corrections leave it near
# 2.5e-29 at s = 3 and the terms of lseries.check_brute_force whatever
# --digits is, so its gate stays 10^-_BRUTE_EXPONENT, a measurement
_BRUTE_EXPONENT = 12


def _suite_lseries(consts, args):
    lodd = lseries.check_Lodd(consts, lseries.SUITE_ROWS)
    residues = lseries.check_residue_identity(consts, lseries.SUITE_ROWS)
    out = [_entry("lodd", {"s": s}, d, b, "certified_bound", s != 0) for s, d, b in lodd]
    out[-1]["note"] = "no claimed value; reported for the record"  # s = 0
    for k, d, b, residue, odd in residues:
        row = _entry("residue-identity", {"k": k, "s": 1 - 2 * k}, d, b, "certified_bound")
        row.update(residue_sign=int(mp.sign(residue)), odd_value_sign=int(mp.sign(odd)))
        out.append(row)
    bridge = lseries.check_bridge(consts)
    out.append(_entry("even-odd-bridge", {"s": 2}, bridge, _bound(args, 5)))
    brute_bound = mpf(10) ** (-_BRUTE_EXPONENT)
    for kind, s, terms, disc in lseries.check_brute_force(consts):
        parameters = {"kind": kind, "s": s, "terms": terms}
        out.append(_entry("brute-vs-continuation", parameters, disc, brute_bound))
    return out


def _suite_conjectures(consts, args):
    out = []
    for k, d, b, shift in lseries.check_symmetry_conjecture(consts, lseries.SUITE_ROWS):
        row = _entry("symmetry-conjecture", {"k": k}, d, b, "certified_bound", False)
        row["order_doubling_shift"] = mp.nstr(shift, 8)
        out.append(row)
    depth = args.terms if args.terms is not None else 200
    through = lseries.check_integrality(depth)
    first = None if through == depth else through + 1
    scan = {"first_violation": first, "integral_through": through}
    out.append(_entry("integrality", {"n_max": depth}, None, None, gated=False, **scan))
    return out


# the verify suites, in the order `all` runs them
_SUITE_RUNNERS = {
    "ode": _suite_ode,
    "functional": _suite_functional,
    "quadratic": _suite_quadratic,
    "summation": _suite_summation,
    "fourier": _suite_fourier,
    "lseries": _suite_lseries,
    "conjectures": _suite_conjectures,
}

SUITES = tuple(_SUITE_RUNNERS) + ("all",)


# ----------------------------------------------------------------------
# command handlers: each returns (payload text chunks, exit code)


def _cmd_constants(args):
    consts = solve_constants(args.digits)
    d = consts.digits_certified
    names = ("C", "L1", "a_star", "lambda_star")
    record = {k: decimal_truncated(getattr(consts, k), d) for k in names}
    record.update(N=consts.N, digits_certified=d)
    return [json.dumps(record, indent=2) + "\n"], 0


def _csv(header, rows):
    """The CSV lines of header and rows, each made when it is read: the
    writer's file has str for its write, so writerow returns the line."""
    import csv  # here, not at the top: only the CSV payloads need it

    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    return map(writer.writerow, itertools.chain([header], rows))


def _check_caps(args, commands) -> None:
    """Refuse, before the solve, a --terms that none of `commands` reads (none
    has a MAX_TERMS row), and a flag past the smallest cap its tables give
    those commands, naming the command whose cap that is."""
    tables = [("digits", MAX_DIGITS, ""), ("count", MAX_TERMS, ""), ("terms", MAX_TERMS, "")]
    if getattr(args, "terms", None) is None:
        tables.append(("digits", MAX_DIGITS_WITHOUT_TERMS, " without --terms"))
    elif not any(c in MAX_TERMS for c in commands):
        raise UsageError("%s does not read --terms" % commands[0])
    for flag, caps, note in tables:
        listed = [(caps[c], c) for c in commands if c in caps]
        cap, command = min(listed, default=(float("inf"), ""))
        if (getattr(args, flag, None) or 0) > cap:
            raise UsageError("%s needs --%s %d or less%s" % (command, flag, cap, note))


def _cmd_zeros(args):
    _check_caps(args, ["zeros"])
    model = extremal.build_zero_model(solve_constants(args.digits))
    # rows are made while _emit writes them, after this handler has
    # returned, and formatted at the model's precision, which zero_table
    # holds from the first row to the last
    table = extremal.zero_table(model, args.count)
    rows = ((n, decimal_truncated(t, args.digits), method) for n, t, method in table)
    return _csv(["n", "tau_n", "method"], rows), 0


def _cmd_verify(args):
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    _check_caps(args, ["verify --suite " + name for name in names])
    consts = solve_constants(args.digits)
    if {"lseries", "conjectures"} & set(names):
        lseries.reserve_for_suites(consts, names)
    checks = [c for name in names for c in _SUITE_RUNNERS[name](consts, args)]
    failed = sum(1 for c in checks if c.get("status") == "fail")
    payload = {
        "suite": args.suite,
        "digits": args.digits,
        "checks": checks,
        "failed": failed,
        "passed": failed == 0,
    }
    return [json.dumps(payload, indent=2) + "\n"], 0 if failed == 0 else 1


def _cmd_export(args):
    _check_caps(args, ["export " + args.what])
    if args.what == "h" and args.terms == 1:
        raise UsageError("export h needs --terms 2 or more")
    consts = solve_constants(args.digits)
    if args.what == "lvalues":
        top = args.terms if args.terms is not None else 6
        values = []
        for v in lseries.l_values(consts, top):
            key = "residue" if v.is_pole else "value"
            row = {"s": str(v.s), "kind": v.kind, "is_pole": v.is_pole}
            row["error_bound"] = mp.nstr(v.error_bound, 8)
            row[key] = mp.nstr(getattr(v, key), 20)
            values.append(row)
        document = {"table": "lvalues", "digits": args.digits, "values": values}
        header = ["kind", "s", "is_pole", "value", "residue", "error_bound"]
        rows = [[v.get(k, "") for k in header] for v in values]
    else:
        if args.what in ("taylor-phi", "taylor-Phi", "rho"):
            key, lowest = "series", None
            coeffs = extremal.series_table(consts, args.what, args.terms)
        else:
            key = "basis"
            coeffs, lowest = fourier.basis_table(consts, args.what, args.terms)
        strings = [decimal_truncated(c, args.digits, lowest) for c in coeffs]
        label = "c" if args.what == "c-basis" else args.what
        document = {key: label, "digits": args.digits, "coeffs": strings}
        header, rows = ["n", "coefficient"], enumerate(strings)
    if args.format == "json":
        return [json.dumps(document, indent=2) + "\n"], 0
    return _csv(header, rows), 0


_HANDLERS = {
    "constants": _cmd_constants,
    "zeros": _cmd_zeros,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


# ----------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwx",
        description="Constants, zeros, verification suites, and series exports "
        "for the band-limited L1 extremal problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--digits",
            type=int,
            default=30,
            help="certified decimal digits, minimum 10 (default 30)",
        )
        p.add_argument(
            "--out",
            default=None,
            help="write the payload to this file instead of stdout; the "
            "manifest goes to a .manifest.json sidecar beside a regular file, "
            "else to stderr",
        )

    p = sub.add_parser("constants", help="compute the certified constants")
    common(p)

    p = sub.add_parser("zeros", help="CSV table of the zero ladder")
    p.add_argument(
        "--count", type=int, default=32, help="number of zeros (default 32)"
    )
    common(p)

    p = sub.add_parser(
        "verify",
        help="run a verification suite",
        description="Run identity checks; each passes when its discrepancy "
        "is within its bound.  The summation checks sum 2 --digits + 40 "
        "zeros directly and the rest in closed form, with bound "
        "tail_bound + 10^-(digits-10).",
    )
    p.add_argument(
        "--suite",
        choices=SUITES,
        default="all",
        help="which checks to run (default all)",
    )
    p.add_argument(
        "--terms",
        type=int,
        default=None,
        help="integrality scan depth for the conjecture suite (default 200, "
        "at most %d); other suites reject it" % MAX_INTEGRALITY_DEPTH,
    )
    common(p)

    p = sub.add_parser("export", help="write a coefficient table")
    p.add_argument("what", choices=EXPORT_TARGETS)
    p.add_argument(
        "--terms",
        type=int,
        default=None,
        help="highest coefficient index (default: a per-target natural length)",
    )
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="payload format (default json)",
    )
    common(p)

    return parser


def _manifest(args) -> dict:
    skip = {"command", "out"}
    parameters = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    return {
        "command": args.command,
        "parameters": parameters,
        "digits": args.digits,
        "outputs": [args.out] if args.out else [],
        "timestamp": _utc_timestamp(),
    }


def _utc_timestamp() -> str:
    """Now as ISO 8601 UTC with microseconds, YYYY-MM-DDTHH:MM:SS.ffffff+00:00."""
    seconds, micros = divmod(time.time_ns() // 1000, 1000000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + ".%06d+00:00" % micros


def _check_out(path) -> None:
    """Refuse, before the solve, an --out that is a directory or whose
    parent directory does not exist."""
    if path is None:
        return
    if os.path.isdir(path):
        raise UsageError("--out %s is a directory" % path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError("--out %s: its directory does not exist" % path)


def _emit(args, payload) -> None:
    """Payload chunks to --out or stdout, each written as it is made; the
    manifest to a sidecar beside a regular --out file, else (stdout, or a
    device such as /dev/null) as one line on stderr."""
    manifest = _manifest(args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(payload)
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if regular:
            with open(args.out + ".manifest.json", "w") as fh:
                fh.write(json.dumps(manifest, indent=2) + "\n")
            return
    else:
        sys.stdout.writelines(payload)
    print(json.dumps(manifest), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.digits < 10:
        parser.error("--digits must be at least 10")
    if getattr(args, "count", None) is not None and args.count < 1:
        parser.error("--count must be positive")
    if getattr(args, "terms", None) is not None and args.terms < 1:
        parser.error("--terms must be positive")
    try:
        _check_out(args.out)
        payload, code = _HANDLERS[args.command](args)
        # a streamed payload is made while it is written, so inside the try
        _emit(args, payload)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: cannot write %s: %s" % (args.out or "stdout", exc), file=sys.stderr)
        return 1
    return code
