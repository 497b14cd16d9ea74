"""Dirichlet-type series over the zero ladder and the conjecture probes.

Two series are attached to the positive zero parameters tau_n: the
one-signed sum of tau_n^{-s} and its alternating companion.  Both are
computed for real s by analytic continuation: each term is expanded as a
half-integer power times a binomial correction series in 1/(n + 1/2), a
short head is summed directly from the zero model, and the remaining
lattice sums collapse to Hurwitz zeta values.  Every order with exponent
w = s + j >= 2 takes its value from one mpcore.hurwitz_zetas table per
lattice point, kept on the zero model from w = 2 and made once per
command at the longest length and the highest precision its calls read
(reserve_for_suites, l_values), with a stated error; a non-integer w
makes a table of its own, and mpmath's zeta (and the digamma at w = 1)
serves only the few orders with w < 2.  The one-signed series is
meromorphic with simple poles on the negative odd integers (and at 1);
the alternating one is entire.

The continuation carries an error bound built from the geometric
majorant of the offset coefficients, a_m <= 2^{-m-1}, so every
discrepancy the check functions return comes with the bound that decides
calling it zero or not.  That majorant is the premise of the bound, and it
is checked on the computed a_1..a_M only (see extremal.rho_tail_bound);
nothing here covers the coefficients past M.  Every function reads the
one zero model of its constants, extremal.build_zero_model(consts).

The check functions return numbers only, one tuple per identity tested;
cli turns them into verify rows and decides which of them gate the exit
code.

check_integrality is the odd one out: it runs the coefficient recursion
of the even minimizer over the formal symbols b^2 and lambda in Python
integers, each u_n modulo A_n = n_max!/n!, which is exact enough to decide
divisibility by n+1 at every step (see check_integrality), and returns
how far every u_n has integer coefficients.  Each row of u_n, one power
of b^2, is packed into one int with a slot per power of -lambda, so a step
is a few big-integer operations a row (Kronecker substitution, see
_packed_rows): 0.46 s at depth 200, 2.1 s at 300 and 6.1 s at 400 on a
slow stretch of the VM (see mpcore.MAX_INTEGRALITY_DEPTH).  No floating point is involved on that
path.
"""

import math
import struct
from itertools import repeat

from mpmath import mp, mpf

from .mpcore import (
    MAX_INTEGRALITY_DEPTH,
    TARGET_MARGIN,
    SolverError,
    UsageError,
    alternating_halfinteger_tail,
    hurwitz_zetas,
    series_derivative,
    series_multiply,
    series_reciprocal,
)
from .spectral import ExtremalConstants
from .extremal import (
    binomial_tail_expansion,
    build_zero_model,
    tau,
    tau_series,
    taylor_extremal,
)


class LSeriesValue:
    """One evaluation of a zero-ladder series.

    kind is "plus" (one-signed) or "minus" (alternating, sign (-1)^n).
    At a pole of the plus series, value is None and residue holds the
    residue; error_bound always refers to whichever number is present.
    """

    def __init__(
        self, s, kind: str, value, error_bound: mpf, is_pole: bool = False, residue=None
    ):
        self.s, self.kind, self.value, self.error_bound = s, kind, value, error_bound
        self.is_pole, self.residue = is_pole, residue


def _as_real(s):
    if isinstance(s, complex) or isinstance(s, mp.mpc):
        raise UsageError("only real s is supported")
    return s


def _is_integer(s) -> bool:
    try:
        return mpf(s) == int(mpf(s))
    except (TypeError, ValueError):
        return False


# zeros summed directly before the lattice sums take over
_N0 = 8

# The precisions of this module.  l_series sums at digits +
# _CONTINUATION_GUARD (plus the digits q^-s magnifies for s < 0) and a
# residue at digits + _RESIDUE_GUARD: both cover the rounding of their
# sums, which the error bound leaves out, and nothing backs the 30 or the
# 25.  The checks run at digits + CHECK_GUARD, which cli's verify rows
# take their discrepancies at too; nothing backs the 20.  A value read off
# the certified inputs is granted _INPUT_LOSS digits of them, an
# allowance nothing backs.
_CONTINUATION_GUARD = 30
_RESIDUE_GUARD = 25
CHECK_GUARD = 20
_INPUT_LOSS = 2


def _expansion_order(s: float, digits: int) -> int:
    """Smallest truncation order whose certified tail clears the target.

    J starts at J0 = max(8, ceil|s| + 4, ceil(2 - s)), large enough that
    every bounded term has exponent s + j >= 2, and steps by 2 until the
    tail term of _certified_tail falls under 10^-(digits + TARGET_MARGIN).
    Each step multiplies that term by x0^2 = q^-2, so the steps come in
    closed form from log10 of the term at J0, in floats.  A step past 600
    raises SolverError; a J0 past 600 that needs no step is kept.  An odd
    J is then rounded up to even.
    """
    q = _N0 + 1.5
    J = max(8, math.ceil(abs(s)) + 4, math.ceil(2 - s))
    p = max(1, math.ceil(abs(s)))
    log_tail = (
        math.log10(1 + q) - s * math.log10(q) + p * math.log10(1.5)
        - (J + 1) * math.log10(q) - math.log10(1 - 1 / q)
    )
    steps = math.ceil(max(0.0, log_tail + digits + TARGET_MARGIN) / (2 * math.log10(q)))
    if steps and J + 2 * steps > 600:
        raise SolverError("continuation order exceeds 600 at s=%s" % float(s))
    J += 2 * steps
    return J + J % 2


def _certified_tail(s, J: int, M: int):
    """(tail past J, offset-series truncation term) at current precision:
    the tail of sum_j e_j(s) T(s+j) past order J is below
    (1+q) q^{-s} (3/2)^p x0^{J+1} / (1 - x0) with x0 = 1/q, q = _N0 + 3/2
    and p = max(1, ceil|s|), and the offset series past M adds the second.
    """
    q = mpf(2 * _N0 + 3) / 2
    x0 = 1 / q
    p = max(1, int(mp.ceil(abs(s))))
    scale = (1 + q) * q ** (-s)
    tail = scale * mpf(1.5) ** p * x0 ** (J + 1) / (1 - x0)
    rho_term = (
        scale * p * (1 - x0 ** 2 / (4 - x0 ** 2)) ** (-(p + 1))
        * (x0 / 2) ** (M + 2) / (1 - x0 / 2)
    )
    return tail, rho_term


def _lattice_points(kind: str) -> list:
    """The Hurwitz parameters of a kind's lattice sums, q = _N0 + 3/2 for
    the plus kind and q/2, (q + 1)/2 for the minus kind; all exact."""
    q = mpf(2 * _N0 + 3) / 2
    return [q] if kind == "plus" else [q / 2, (q + 1) / 2]


def _is_pole(kind: str, s) -> bool:
    """Whether s is a pole of the series: 1 or a negative odd integer of
    the plus kind."""
    return kind == "plus" and _is_integer(s) and int(mpf(s)) <= 1 and (1 - int(mpf(s))) % 2 == 0


def _continuation_dps(s: float, digits: int) -> int:
    """The working precision of l_series at s: digits +
    _CONTINUATION_GUARD, plus the digits q^-s magnifies for s < 0."""
    amp = max(0, int(-s * math.log10(_N0 + 1.5)) + 1) if s < 0 else 0
    return digits + _CONTINUATION_GUARD + amp


def _hurwitz_table(zeros, q, w, n: int) -> list:
    """[zeta(w + i, q) for i < n] at the working precision p, each within
    2^-(p+10) of its value before it is rounded (mpcore.hurwitz_zetas).

    For an integer w >= 2 the values are read off the table of q kept on
    the zero model, which starts at w = 2, and rounded to p.  It is made
    at the first read, or made anew when a read needs more values or
    more bits than it holds, at the most any read so far asked for;
    reserve_lattice_tables makes it once, before the reads of a command.
    A table made at P >= p bits keeps hurwitz_zetas' bound for the
    reader at p: within 2^-(P+10) <= 2^-(p+10) before the roundings to P
    and then to p, which together move a value by at most one unit in its
    p-th bit, where a table made at p moves it by half of one.  Any other
    w makes a table of its own.

    So a value read at p depends, within that bound, on the bits of the
    table the zero model already holds, and with it on the reads and
    reservations made before on the same constants: the same call may
    differ in its last bits between two orders of calls.  A command that
    reserves first reads every value off one table, whatever its order.
    """
    if w != int(w):
        return hurwitz_zetas(q, w, n)
    start, prec = int(w) - 2, mp.prec
    held_prec, held = zeros.lattice.get(q, (0, []))
    if held_prec < prec or len(held) < start + n:
        prec, length = max(prec, held_prec), max(start + n, len(held))
        with mp.workprec(prec):
            held = hurwitz_zetas(q, 2, length)
        zeros.lattice[q] = (prec, held)
    return [+z for z in held[start:start + n]]


def _lattice_sums(zeros, kind: str, w, n: int) -> list:
    """Lattice sums of the tail past _N0 at exponents w + i, i < n, w >= 2:
    sum_{m > _N0} (m + 1/2)^-v = zeta(v, q) for the plus kind and
    sum_{m > _N0} (-1)^m (m + 1/2)^-v = (-1)^(_N0+1) 2^-v (zeta(v, q/2)
    - zeta(v, (q+1)/2)) for the minus kind, q = _N0 + 3/2.  The zeta
    values are sliced off the zero model's table of each lattice point
    and rounded to the working precision (_hurwitz_table).
    """
    tables = [_hurwitz_table(zeros, q, w, n) for q in _lattice_points(kind)]
    if kind == "plus":
        return tables[0]
    sign = 1 if _N0 % 2 else -1
    low, high = tables
    return [
        sign * (mpf(2) ** -(w + i) * (a - b))
        for i, (a, b) in enumerate(zip(low, high))
    ]


def reserve_lattice_tables(consts: ExtremalConstants, calls) -> None:
    """Make the lattice tables that the l_series calls (kind, s, order) of
    `calls` read: one per lattice point, from w = 2, at the longest length
    and the highest precision any of the calls reads, so that none of them
    makes one.  An integer s reads w = 2 .. s + J, J its order; a pole or a
    non-integer s reads no kept table.
    """
    if not calls:
        return
    digits = consts.digits_certified
    need = {}
    for kind, s, order in calls:
        if _is_pole(kind, s) or not _is_integer(s):
            continue
        s = int(mpf(s))
        J = order if order is not None else _expansion_order(s, digits)
        with mp.workdps(_continuation_dps(s, digits)):
            prec = mp.prec
        for q in _lattice_points(kind):
            held_prec, length = need.get(q, (0, 0))
            need[q] = (max(prec, held_prec), max(s + J - 1, length))
    zeros = build_zero_model(consts)
    for q, (prec, length) in need.items():
        with mp.workprec(prec):
            _hurwitz_table(zeros, q, 2, length)


def l_series(consts: ExtremalConstants, kind: str, s, order: int = None) -> LSeriesValue:
    """Continuation value of the zero-ladder series at real s, to the
    certified digits of `consts`, with the first _N0 zeros of its zero
    model summed directly.

    Past them the value is sum_j e_j T(s + j) through order J, e_j the
    coefficients of binomial_tail_expansion and T the lattice sums of
    _lattice_sums for s + j >= 2, of mp.zeta (plus) or
    alternating_halfinteger_tail (minus) below 2.  The error bound adds
    the truncation past J, the offset series past M, the input digits and
    table_term, 2^-(prec+10) sum |e_j| for the tables: each zeta value is
    within 2^-(prec+10) before its rounding to prec, also when it is read
    off a table made at more bits (_hurwitz_table); that rounding, at most
    one unit in the last place, is left to the guard with the others.
    Since the bits of that table follow the calls made before on the same
    constants, so may the last bits of the value, within the bound.

    The plus kind has simple poles at s = 1 and the negative odd
    integers; there the returned record carries the residue instead of a
    value.  The minus kind is entire.
    """
    if kind not in ("plus", "minus"):
        raise UsageError("kind must be 'plus' or 'minus'")
    _as_real(s)
    digits = consts.digits_certified
    zeros = build_zero_model(consts)

    if _is_pole(kind, s):
        k = int(mpf(s))
        J = (1 - k) + 6
        with mp.workdps(digits + _RESIDUE_GUARD):
            e = binomial_tail_expansion(zeros.rho_coeffs, mpf(k), J)
            residue = e[1 - k]
            bound = (2 + abs(k)) * mpf(10) ** (-(digits - _INPUT_LOSS))
        return LSeriesValue(
            s=k, kind=kind, value=None, error_bound=bound, is_pole=True,
            residue=residue,
        )

    s_float = float(s)
    J = order if order is not None else _expansion_order(s_float, digits)
    with mp.workdps(_continuation_dps(s_float, digits)):
        s_mp = mpf(s)
        q = mpf(2 * _N0 + 3) / 2
        head = mpf(0)
        head_abs = mpf(0)
        for n in range(1, _N0 + 1):
            term = tau(zeros, n) ** (-s_mp)
            if kind == "minus" and n % 2 == 1:
                term = -term
            head += term
            head_abs += abs(term)
        e = binomial_tail_expansion(zeros.rho_coeffs, s_mp, J)
        j0 = max(0, int(mp.ceil(2 - s_mp)))  # first order with s + j >= 2
        table = _lattice_sums(zeros, kind, s_mp + j0, J + 1 - j0) if J >= j0 else []
        tail_sum = mpf(0)
        tail_abs = mpf(0)
        table_abs = mpf(0)
        for j, ej in enumerate(e):
            if ej == 0:
                continue
            w = s_mp + j
            if j >= j0:
                T = table[j - j0]
                table_abs += abs(ej)
            elif kind == "plus":
                T = mp.zeta(w, q)
            else:
                T = -alternating_halfinteger_tail(w, _N0)
            tail_sum += ej * T
            tail_abs += abs(ej * T)
        value = head + tail_sum
        tail, rho_term = _certified_tail(s_mp, J, zeros.M)
        input_term = 4 * (1 + abs(s_mp)) * (head_abs + tail_abs) * mpf(10) ** (
            -digits
        )
        table_term = mpf(2) ** -(mp.prec + 10) * table_abs
        bound = tail + rho_term + input_term + table_term
    return LSeriesValue(s=s, kind=kind, value=value, error_bound=bound)


# digits past the certified ones that l_plus_even_from_phi asks of its
# minimizer model, which cover the rounding of the reciprocal and of the
# product the docstring bounds; nothing backs the 10
_LOG_DERIVATIVE_EXTRA = 10


def l_plus_even_from_phi(consts: ExtremalConstants, k_max: int):
    """Values of the plus series at 2, 4, .., 2*k_max from the minimizer.

    The minimizer is the product over its zeros, so the log-derivative
    route gives the even values as scaled Taylor coefficients of the log:
    value at 2k = -k times the coefficient of z^{2k}, which is the
    coefficient of z^{2k-1} in phi'/phi over 2k.  The reciprocal takes
    series_reciprocal's majorant 2^-(prec+64) e(z) |1/phi~|
    (max|phi| |1/phi| + 1/2), which stayed within 2^9 of every
    coefficient of 1/phi at 30, 100 and 300 digits (k_max = 6).  The
    product takes series_multiply's absolute bound, 4T max|phi'|
    max|1/phi| 2^-(prec+64): max|phi'| is under 2 and max|1/phi| is
    1/phi(0) = 1 (measured at 30 digits for k_max = 3 and 6), while the
    coefficient read, -2 L+(2k), is about 2^-k, so the bound stays below
    2^-prec of it while k + log2(8T) < 64.
    """
    if k_max < 1:
        raise UsageError("k_max must be at least 1")
    model = taylor_extremal(
        consts, k_max + 1, digits=consts.digits_certified + _LOG_DERIVATIVE_EXTRA
    )
    with mp.workdps(model.dps):
        T = 2 * k_max
        phi = model.coeffs[: T + 1]
        log_derivative = series_multiply(
            series_derivative(phi), series_reciprocal(phi, T), T
        )
        return [-log_derivative[2 * k - 1] / 2 for k in range(1, k_max + 1)]


# ----------------------------------------------------------------------
# identity checks


# the m_max and k_max cli's lseries and conjectures suites pass to the
# checks below, and the l_series calls (kind, s) of the lseries suite's
# even-odd bridge and brute-force rows
SUITE_ROWS = 3
BRIDGE_CALLS = (("plus", 2), ("minus", 1))
BRUTE_CALLS = (("plus", 3), ("minus", 3))


def _lodd_calls(m_max: int) -> list:
    """The l_series calls (kind, s, order) of check_Lodd, in its order."""
    return [("minus", -1 - 2 * m, None) for m in range(m_max + 1)] + [("minus", 0, None)]


def _residue_calls(k: int) -> list:
    """The l_series calls (kind, s, order) of check_residue_identity at k:
    the pole of the plus series at 1 - 2k, the alternating value at 2k - 1."""
    return [("plus", 1 - 2 * k, None), ("minus", 2 * k - 1, None)]


def _symmetry_calls(k: int, digits: int) -> list:
    """The l_series calls (kind, s, order) of check_symmetry_conjecture at
    k: the plus value at -2k at its order and at twice it, and at 2k."""
    J = _expansion_order(-2 * k, digits)
    return [("plus", -2 * k, J), ("plus", -2 * k, 2 * J), ("plus", 2 * k, None)]


def _suite_calls(consts: ExtremalConstants, names) -> list:
    """The l_series calls (kind, s, order) of cli's verify suites among
    `names`: the lseries suite's and the conjectures suite's."""
    rows = range(1, SUITE_ROWS + 1)
    calls = []
    if "lseries" in names:
        calls += _lodd_calls(SUITE_ROWS)
        calls += [(kind, s, None) for kind, s in BRIDGE_CALLS + BRUTE_CALLS]
        calls += [call for k in rows for call in _residue_calls(k)]
    if "conjectures" in names:
        digits = consts.digits_certified
        calls += [call for k in rows for call in _symmetry_calls(k, digits)]
    return calls


def reserve_for_suites(consts: ExtremalConstants, names) -> None:
    """Make the lattice tables that the verify suites `names` read, before
    the first of them runs (reserve_lattice_tables)."""
    reserve_lattice_tables(consts, _suite_calls(consts, names))


def _lvalue_calls(top: int) -> list:
    """The l_series calls (kind, s, order) of l_values, in its order."""
    return [(kind, s, None) for s in range(1, top + 1) for kind in ("minus", "plus")]


def l_values(consts: ExtremalConstants, top: int) -> list:
    """l_series of the minus and then the plus kind at s = 1, 2, .., top,
    the rows of cli's export lvalues, from one reservation of the lattice
    tables they read."""
    calls = _lvalue_calls(top)
    reserve_lattice_tables(consts, calls)
    return [l_series(consts, kind, s, order=order) for kind, s, order in calls]


def check_Lodd(consts: ExtremalConstants, m_max: int) -> list:
    """Alternating series at the negative odd integers, as tuples
    (s, discrepancy, certified bound) for s = -1, -3, .., -1 - 2 m_max
    and then s = 0.

    The value at -1 must be -1/(4C) and the values at -3, -5, .. must
    vanish; the value at 0 carries no claim, so its discrepancy is the
    value itself, with the continuation's own error bound.
    """
    digits = consts.digits_certified
    out = []
    slack = mpf(10) ** (-(digits - _INPUT_LOSS))
    with mp.workdps(digits + CHECK_GUARD):
        target = -1 / (4 * mpf(consts.C))
        for kind, s, order in _lodd_calls(m_max):
            val = l_series(consts, kind, s, order=order)
            if s == -1:
                out.append((s, val.value - target, val.error_bound + slack))
            elif s:
                out.append((s, val.value, val.error_bound + slack))
            else:
                out.append((0, val.value, val.error_bound))
    return out


def check_residue_identity(consts: ExtremalConstants, k_max: int) -> list:
    """Residues of the plus series against the alternating odd values, as
    tuples (k, discrepancy, certified bound, residue, odd value) for
    k = 1 .. k_max.

    The residue at s = 1-2k equals, after the phase powers cancel to a
    real sign, (2/pi) (-1)^{k-1} times the alternating value at 2k-1
    divided by (2 pi C)^{2k-1}.
    """
    out = []
    with mp.workdps(consts.digits_certified + CHECK_GUARD):
        C = mpf(consts.C)
        for k in range(1, k_max + 1):
            pole, odd = [
                l_series(consts, kind, s, order=order) for kind, s, order in _residue_calls(k)
            ]
            if not pole.is_pole:
                raise SolverError("expected a pole at s=%d" % (1 - 2 * k))
            rhs = (
                (2 / mp.pi)
                * (-1) ** (k - 1)
                * odd.value
                / (2 * mp.pi * C) ** (2 * k - 1)
            )
            certified = (
                pole.error_bound
                + odd.error_bound / (2 * mp.pi * C) ** (2 * k - 1)
                + mpf(10) ** (-(consts.digits_certified - _INPUT_LOSS))
            )
            out.append((k, pole.residue - rhs, certified, pole.residue, odd.value))
    return out


def check_symmetry_conjecture(consts: ExtremalConstants, k_max: int) -> list:
    """Conjectured reflection between the plus values at -2k and 2k, as
    tuples (k, discrepancy, certified bound, order-doubling shift) for
    k = 1 .. k_max.

    Report-only by policy: the comparison is
    value(-2k) vs (-1)^k value(2k) / (2 pi C)^{2k}, with the continuation
    truncation doubled once; the shift that makes in value(-2k) shows the
    discrepancy is not an artifact of the order choice.
    """
    digits = consts.digits_certified
    out = []
    with mp.workdps(digits + CHECK_GUARD):
        C = mpf(consts.C)
        for k in range(1, k_max + 1):
            neg, neg2, pos = [
                l_series(consts, kind, s, order=order)
                for kind, s, order in _symmetry_calls(k, digits)
            ]
            rhs = (-1) ** k * pos.value / (2 * mp.pi * C) ** (2 * k)
            certified = (
                neg.error_bound
                + pos.error_bound / (2 * mp.pi * C) ** (2 * k)
                + mpf(10) ** (-(consts.digits_certified - _INPUT_LOSS))
            )
            out.append((k, neg.value - rhs, certified, abs(neg.value - neg2.value)))
    return out


# ----------------------------------------------------------------------
# integrality probe


def _recursion_step(n: int):
    """(constant, drift, shift, divisor) of step n of the recursion:
    divisor u_{n+1} = (constant - drift lambda) u_n + shift b^2 u_{n-1}."""
    return n * (n + 1) * (4 * n + 2), 4 * n + 2, 4 * n, n + 1


# steps of the integrality scan between two reductions of its slots; fewer
# reductions widen every slot by the growth of the steps between.  Of 8,
# 10, 12, 16 and 24, 8 to 12 ran within the noise of each other at depths
# 200 and 300 and 16 and 24 slower (medians of 5 to 15 runs on one CPU)
_REDUCTION_STEPS = 8


def _slot_mask(width: int, t: int, slots: int) -> int:
    """The top t bits of each of `slots` slots of `width` bits."""
    top = ((1 << t) - 1) << (width - t)
    return int.from_bytes(top.to_bytes(width // 8, "little") * slots, "little")


def _slot_quotient(num: int, d: int, mask: int):
    """num // d if d divides every slot of num, else None, the mask
    holding the top t bits of each width-bit slot; sound while d < 2^t
    and every slot of num is below d 2^(width - t) (see _packed_rows)."""
    q, r = divmod(num, d)
    return None if r or q & mask else q


def _repack(rows: list, width: int, new_width: int, modulus: int) -> list:
    """rows with every slot reduced modulo `modulus`, packed anew at
    new_width bits a slot; both widths are whole bytes.  A row's big-endian
    bytes are its slots, top first, each big-endian, so one unpack splits
    them and int.from_bytes reads each; map passes the byte order, which
    has no default before Python 3.11.  The Struct is made for the row and
    dropped: struct.unpack would keep it in struct's cache of up to 100
    formats, with one format code a slot, and so raise the scan's peak
    memory by a sixth at depth 200."""
    size, new_size = width // 8, new_width // 8
    out = []
    for row in rows:
        count = -(-row.bit_length() // width)
        split = struct.Struct("%ds" % size * count)
        slots = split.unpack(row.to_bytes(count * size, "big"))
        reduced = [c % modulus for c in map(int.from_bytes, slots, repeat("big"))]
        out.append(int.from_bytes(
            b"".join(map(int.to_bytes, reduced, repeat(new_size), repeat("big"))), "big"
        ))
    return out


def _packed_rows(n_max: int):
    """Iterator over (rows, width) for u_0, u_1, .., stopping after u_n_max
    or before the first u_n that is not integral.  Row i of u_n is one int
    of width-bit slots, slot j congruent to the coefficient of
    b^{2i} mu^j, mu = -lambda, modulo A_n = d_n d_{n+1} .. d_{n_max-1},
    the divisors of the steps to come.

    In mu every multiplier of the recursion is non-negative, and so is
    every slot: step n forms row i of its numerator as
    constant R + drift (R << width) + shift P, R row i of u_n and P row
    i - 1 of u_{n-1}, and no slot borrows from the next.  Let t be the bit
    length of the largest divisor, so every d < 2^t, and let every
    numerator slot s satisfy s < d 2^(width - t).  Then each s lies below
    2^width, the numerator's digits in base 2^width are its slots, and
    with q, r = divmod(numerator, d):

    * if d divides every slot, q has the slots s / d < 2^(width - t), so
      r = 0 and no slot of q has a bit in its top t bits;
    * if r = 0 and no slot q_j of q reaches 2^(width - t), then
      d q_j < 2^width are the base-2^width digits of d q = numerator, so
      s_j = d q_j for every j.

    So d divides every slot exactly when r = 0 and q & mask = 0
    (_slot_quotient), and then q is row i of u_{n+1}, its slots the
    slots of the numerator over d.

    Every _REDUCTION_STEPS steps, at step n, each slot of u_n and u_{n-1}
    is reduced modulo A_n, all that step n needs of u_{n-1}, and the rows
    are packed anew.  If the slots of u_k and u_{k-1} are below B, those
    of the numerator of step k are below
    (constant + drift + shift) B <= d_k g_k B, g_k the ceiling of
    (constant + drift + shift) / d_k, and those of u_{k+1} below g_k B.
    From B = A_n, every numerator slot up to the next reduction is so
    below d_k 2^(bits(A_n) + G), G the sum of bits(g_k) over those steps,
    and a width of bits(A_n) + G + t, rounded up to whole bytes, keeps it
    below d_k 2^(width - t).  The mask covers the n_max + 1 slots of the
    longest numerator row.
    """
    steps = [_recursion_step(n) for n in range(n_max)]
    t = max([d for *_, d in steps], default=1).bit_length()
    growth = [(-(-(c + dr + sh) // d)).bit_length() for c, dr, sh, d in steps]
    modulus = math.prod(d for *_, d in steps)
    rows, prev, width = [1 % modulus], [], 8  # u_0 fits any width
    yield rows, width
    for n, (constant, drift, shift, d) in enumerate(steps):
        if n % _REDUCTION_STEPS == 0:
            bits = modulus.bit_length() + sum(growth[n:n + _REDUCTION_STEPS]) + t
            new_width = -(-bits // 8) * 8
            rows = _repack(rows, width, new_width, modulus)
            prev = _repack(prev, width, new_width, modulus)
            width = new_width
            mask = _slot_mask(width, t, n_max + 1)
        out = []
        for r, p in zip(rows + [0], [0] + prev):
            q = _slot_quotient(constant * r + drift * (r << width) + shift * p, d, mask)
            if q is None:
                return
            out.append(q)
        modulus //= d
        prev, rows = rows, out
        yield rows, width


def check_integrality(n_max: int) -> int:
    """Integrality scan of the even minimizer's coefficient recursion, with
    the frame constant scaled out:

        (n+1) u_{n+1} = (4n+2) (n(n+1) - lambda) u_n + 4n b^2 u_{n-1},

    u_0 = 1, u_{-1} = 0, over the formal symbols b^2 and lambda.  Division
    by n+1 is the only source of denominators, so that every u_n has
    integer coefficients is the nontrivial claim under test.

    The scan carries u_n modulo A_n = n_max!/n! (_packed_rows), never
    exactly.  Step n divides by d = n+1, and A_n = d A_{n+1}; u_n and
    u_{n-1} are known modulo A_n, so the numerator is exact modulo
    d A_{n+1}.  While every u so far is integral, d divides each numerator
    coefficient iff it divides its residue, and then the quotient of the
    residue is u_{n+1} modulo A_{n+1}.  So the first u_n with a
    non-integer coefficient is the same as in exact arithmetic.  Each row
    of residues is packed into one int, so a step costs a few big-integer
    operations a row, not several a coefficient.

    Returns the largest n <= n_max through which every u is integral; a
    value below n_max names u_{n+1} as the first non-integral one.
    """
    if not 0 <= n_max <= MAX_INTEGRALITY_DEPTH:
        raise UsageError("n_max must lie in [0, %d]" % MAX_INTEGRALITY_DEPTH)
    return sum(1 for _ in _packed_rows(n_max)) - 1


# ----------------------------------------------------------------------
# brute-force route (independent of the continuation machinery)


# brute_force_value is capped near 2.5e-29 (s = 3, 600 terms), and ten
# significant digits of a discrepancy need about 1e-39: work past
# _BRUTE_RESOLVED digits resolves nothing, a measurement.  It sums at
# _BRUTE_GUARD digits past those, which cover the rounding of its sums and
# of mp.diffs' differences; nothing backs the 20.
_BRUTE_RESOLVED = 40
_BRUTE_GUARD = 20


def brute_force_value(consts: ExtremalConstants, kind: str, s, n_terms: int):
    """Direct summation of the series at real s > 1, with an
    Euler-Maclaurin tail on the summand f: f(n) = tau_n^-s for the plus
    kind, n <= n_terms; -tau_1^-s and then f(m) = tau_2m^-s - tau_(2m+1)^-s,
    m <= n_terms // 2, for the alternating kind (n_terms + 1 terms for an
    even n_terms).  From a, the first index not summed, the tail is the
    integral of f over [a, infinity) plus
    f(a)/2 - f'(a)/12 + f^(3)(a)/720 - f^(5)(a)/30240, the derivatives by
    mp.diffs.

    The integral is taken in u = a/t, as the integral of f(a/u) a/u^2
    over [0, 1], by mp.quad's tanh-sinh rule: in t the summand decays only
    like t^-s, which tanh-sinh resolves slowly on [a, infinity): 571
    summand evaluations a kind against 151 at s = 3 and 30 digits, the
    integral's and the derivatives' together, with the same value to 50
    digits and the same error.  u = 0 is safe.  The rule never evaluates
    an endpoint, and tau_t = t + 1/2 - rho(1/(t + 1/2)), so
    tau_t^-s = t^-s (1 + O(1/t))^-s = u^s a^-s (1 + O(u)): the pulled-back
    summand is u^(s-2) times a power series in u, analytic at 0 for an
    integer s >= 2 and an integrable endpoint singularity for real s > 1,
    the kind tanh-sinh handles (Takahasi and Mori, 1974).  Near u = 0 the
    alternating difference cancels, but each power is rounded relative to
    itself, so the pulled-back difference carries about u^(s-2) a^(1-s)
    units of the working precision, for s >= 2 no more than at u = 1.

    Returns (value, error estimate): |f^(7)(a)| / 1209600, the first
    omitted correction, plus quad's error and 10^-min(digits,
    _BRUTE_RESOLVED).  That correction caps the route at any digits:
    2.42e-29 (plus) and 5.01e-29 (alternating) for s = 3 and 600 terms,
    at 30 and at 60 digits.  Only
    the zero model is shared with l_series, so agreement of the two is a
    genuine cross-check.
    """
    if kind not in ("plus", "minus"):
        raise UsageError("kind must be 'plus' or 'minus'")
    _as_real(s)
    if s <= 1:
        raise UsageError("direct summation needs s > 1")
    digits = consts.digits_certified
    if n_terms < 64:
        raise UsageError("n_terms too small for the tail expansion")
    zeros = build_zero_model(consts)
    resolved = min(digits, _BRUTE_RESOLVED)
    with mp.workdps(resolved + _BRUTE_GUARD):
        s_mp = mpf(s)

        def power(t):
            return tau_series(zeros, t) ** (-s_mp)

        if kind == "plus":
            total = mp.fsum(tau(zeros, n) ** (-s_mp) for n in range(1, n_terms + 1))
            a, summand = mpf(n_terms + 1), power
        else:
            pairs = n_terms // 2
            total = -tau(zeros, 1) ** (-s_mp)
            total += mp.fsum(
                tau(zeros, 2 * m) ** (-s_mp) - tau(zeros, 2 * m + 1) ** (-s_mp)
                for m in range(1, pairs + 1)
            )
            a = mpf(pairs + 1)

            def summand(m):
                return power(2 * m) - power(2 * m + 1)

        def pulled_back(u):
            return summand(a / u) * a / u ** 2

        integral, quad_err = mp.quad(pulled_back, [0, 1], error=True, maxdegree=10)
        f0, d1, _, d3, _, d5, _, d7 = mp.diffs(summand, a, 7)
        tail = integral + f0 / 2 - d1 / 12 + d3 / 720 - d5 / 30240
        return total + tail, abs(d7) / 1209600 + quad_err + mpf(10) ** (-resolved)
