"""Reconstruction of the extremal function from its spectral constants.

Given the converged constants (see :mod:`pwextremal.spectral`), this module
rebuilds the two functions everything else is made of:

* the entire factor F (normalized F(0) = 1, F'(0) = L1) whose alternately
  signed zeros carry all the structure, via the coefficient recursion of
  its second-order differential equation;
* the even minimizer itself, F(z) F(-z), in closed form from the ground
  eigenvector, cross-checked against the Cauchy product of the factor
  with its reflection.

Both are truncated power series in z, kept as plain coefficient lists
(lowest power first) at the precision their model records.  On top of
them sit the zero model (offset expansion tau_n = n + 1/2 -
rho(1/(n+1/2)) and Newton refinement against the factor series; one per
constants object, built by build_zero_model and kept on the object's
`zeros` field, its series tail bound checked once, when it is made),
residual checkers for the differential equations, the quadratic
Wronskian relation and the reflection identity, the summation identity
over the zeros (a head of zeros plus a closed-form tail) with the zero
ladders of a second eigenfunction system, and a reconstruction of the
central constant from the offset coefficients alone.  Every Newton
search here, on the factor and on the Bessel series, is mpcore.newton's.
Two functions make the tables ``pwx`` prints from them: zero_table the
rows of ``zeros``, series_table the coefficients of export taylor-phi,
taylor-Phi and rho.

A note on precision.  Every working precision and tolerance here is
digits plus a guard named beside the stage it serves, with the loss it
covers and what backs it, or is read from the model that owns it
(TaylorModel.dps, ZeroModel.dps); the rules all stages share are
mpcore's TARGET_MARGIN and ESTIMATE_DPS.  Callers ask for the digits they
need, their own cancellation headroom included, and both Taylor models
run at that plus _TAYLOR_GUARD, on refined_spectral_frame at the same
precision, because both are read off stable routes: the minimizer off
the ground eigenvector, the minimal solution of its recurrence
(Gautschi, SIAM Rev. 9, 1967), and the factor off its recursion run
backward from order T + 40 or later (Olver, J. Res. NBS 71B, 1967), with
the row that run leaves out as a residual check.  Their error statements
are estimates, not proved bounds.  mpmath's precision is global to the
process, so none of this is thread-safe: run parallel work in separate
processes.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf
from mpmath.libmp import mpf_cos_sin, mpf_pi, mpf_rdiv_int, to_fixed

from .mpcore import (
    TARGET_MARGIN,
    SolverError,
    UsageError,
    beta_numeric,
    bracketed_step,
    fixed_horner,
    hurwitz_zetas,
    newton,
    series_cos_sin,
    series_derivative,
    series_eval,
    series_eval_orbit,
    series_multiply,
    series_power_diagonal,
    series_reciprocal,
    _times_i,
)
from .spectral import (
    _N_FLOOR,
    _SIDE_NOISE,
    ExtremalConstants,
    TridiagonalSystem,
    _side_root,
    _sweep,
    _tail_log10,
    _tail_size,
    ground_eigenpair,
)


# ----------------------------------------------------------------------
# refined spectral frames
#
# A re-solve continues Newton from the most precise root held: one sweep
# per precision doubling, two at the top.  It is kept on the constants
# object (its `frame` field), to live and die with its problem.

# A re-solve for need_dps digits runs at need_dps + _FRAME_GUARD: its root
# holds _SIDE_NOISE digits fewer than that (spectral), and the rest is
# spare; nothing backs the 12.  Its bracket is 2*10^-(digits - _FRAME_BRACKET)
# wide around the certified root, which is good to 10^-digits; nothing
# backs the 3 either.
_FRAME_GUARD = 12
_FRAME_BRACKET = 3


def refined_spectral_frame(consts: ExtremalConstants, need_dps: int):
    """(a_star, lambda, xi) in the b=1 frame, a_star and lambda good to at
    least need_dps decimals; xi is the ground eigenvector at a_star,
    normalized xi[0] = 1, good where the tail estimate says (see
    taylor_extremal).

    Within the digits of the frame held on consts.frame, the held values
    are returned.  Otherwise the root is re-solved at need_dps +
    _FRAME_GUARD digits by the Newton of spectral._side_root, started
    from the most precise (a, lambda) held (that frame, else the
    certified root), on the first power-of-two multiple of the certified
    N whose tail estimate clears that precision, inside a bracket of
    width 2*10^-(digits-3) around the certified root; it replaces the
    held frame.  The eigenvector is that solve's final sweep, whose
    residual _side_root checked at 10^-(dps-5).  Every caller asks for
    more than the certified digits: at least those plus _TAYLOR_GUARD.
    """
    if consts.frame is None:
        start = (consts.a_star, consts.lambda_star, consts.dps - _SIDE_NOISE)
    else:
        held, a, lam, xi = consts.frame
        if held >= need_dps:
            return a, lam, xi
        start = (a, lam, held)
    dps = need_dps + _FRAME_GUARD
    with mp.workdps(dps):
        half = mpf(10) ** (-(consts.digits_certified - _FRAME_BRACKET))
        bracket = (consts.a_star - half, consts.a_star + half)
        a_root, pair = _side_root(_tail_size(consts.N, dps), bracket, start)
        consts.frame = (need_dps, a_root, pair.lam, list(pair.xi))
    return consts.frame[1:]


# ----------------------------------------------------------------------
# Taylor models
#
# The models' guard digits, and the least start of the factor's backward
# run past the highest order wanted.  The guard covers the rounding of the
# recursions and of the closed form, on the stable routes of the note on
# precision; no bound backs it, the row-0 residual and the two-route check
# of taylor_extremal test it on every model.

_TAYLOR_GUARD = 10
_BACKWARD_START = 40


class TaylorModel:
    """Truncated Taylor expansion of the entire factor or of the even
    minimizer: coeffs[k] multiplies z^k.  It keeps the frame values
    a = 1/(2C) and lambda it was built from and dps, the requested digits
    plus _TAYLOR_GUARD, at which all of them are stored; work on the
    coefficients runs at that precision.  That they hold the requested
    digits is an estimate, backed for the minimizer by the eigenvector
    being the minimal solution (Gautschi), for the factor by Olver's
    backward start L >= T + 40 and its row-0 residual.
    """

    def __init__(self, coeffs: list, a: mpf, lam: mpf, dps: int):
        self.coeffs, self.a, self.lam, self.dps = coeffs, a, lam, dps


def _factor_coefficients(a, b, lam, T: int):
    """c_0..c_T from a(n+1) c_{n+1} = (n(n+1) - lam) c_n + b^2 c_{n-2},
    c_0 = 1, at the ambient precision.

    Rows n >= 2 have one solution growing like n!/a^n and two, the factor
    among them, decaying like b^n/n!, so the rows run backward, Olver's
    boundary-value method (J. Res. NBS 71B, 1967; J. Wimp, Computation
    with Recurrence Relations, 1984, for order 3): two runs down from L,
    started from (c_{L+1}, c_L, c_{L-1}) = (0, 1, 0) and (0, 0, 1), are
    combined so that row 1 holds with c_{-1} = 0.  The start leaves the
    growing solution at a relative (n!/L!)^2 (ab)^(L-n) at order n, an
    estimate; L is the first order from T + _BACKWARD_START on where that
    is under 10^-dps at n = T.  Row 0, a c_1 + lam c_0 = 0, holds only
    when lam is the eigenvalue at a; its residual, a check on the inputs
    and the run, raises SolverError above 10^-(dps - _TAYLOR_GUARD), the
    digits the models promise.
    """
    L = T + _BACKWARD_START
    growth = math.log10(a * b)
    while 2 * math.log10(math.perm(L, L - T)) < mp.dps + (L - T) * growth:
        L += 1
    b2 = b * b
    runs = []
    for top in (L, L - 1):  # c_top = 1, the other two start entries 0
        c = [mpf(0)] * (L + 2)
        c[top] = mpf(1)
        for n in range(L, 1, -1):
            c[n - 2] = (a * (n + 1) * c[n + 1] - (n * (n + 1) - lam) * c[n]) / b2
        runs.append(c)
    p, q = runs
    rp, rq = (2 * a * r[2] - (2 - lam) * r[1] for r in runs)  # row 1
    scale = rq * p[0] - rp * q[0]
    coeffs = [mpf(1)] + [(rq * p[n] - rp * q[n]) / scale for n in range(1, T + 1)]
    residual = abs(a * coeffs[1] + lam)
    if residual > mpf(10) ** (-(mp.dps - _TAYLOR_GUARD)):
        raise SolverError(
            "factor recursion to order %d leaves row 0 at %s, above 10^-%d; "
            "lambda is not the eigenvalue at a to the working precision"
            % (T, mp.nstr(residual, 5), mp.dps - _TAYLOR_GUARD)
        )
    return coeffs


def taylor_factor(consts: ExtremalConstants, T: int, digits: int = None) -> TaylorModel:
    """Taylor model of the entire factor in its own frame (b = pi/2), to
    `digits` (default: the certified digits).

    Coefficients start 1, L1, L1^2/2 + 2 L1 C, ...; they come from the
    backward run of _factor_coefficients at digits + _TAYLOR_GUARD, on
    a and lambda from refined_spectral_frame at that precision, and a
    residual of its dropped row above 10^-digits raises SolverError.
    """
    if T < 2:
        raise UsageError("T must be at least 2")
    digits = digits if digits is not None else consts.digits_certified
    wd = digits + _TAYLOR_GUARD
    a1, lam, _xi = refined_spectral_frame(consts, wd)
    with mp.workdps(wd):
        a = 2 * a1 / mp.pi
        coeffs = _factor_coefficients(a, mp.pi / 2, lam, T)
    return TaylorModel(coeffs=coeffs, a=a, lam=lam, dps=wd)


def taylor_extremal(
    consts: ExtremalConstants, T: int, digits: int = None
) -> TaylorModel:
    """Even minimizer as a series in z (T powers of z^2, every odd power an
    exact zero), to `digits` (default: the certified digits).

    The coefficient of z^{2m} is xi_m (-2 C pi)^m / (2m+1), xi the ground
    eigenvector of refined_spectral_frame at wd = digits + _TAYLOR_GUARD.
    As the minimal solution (Gautschi 1967), xi truncated at N is off by
    a relative |xi_N / xi_m|^2 at m, an estimate; where spectral's tail
    estimate puts that above 10^-wd at m = T, xi is swept again at the
    frame's (a, lambda), on the first power-of-two multiple of N where it
    is not.  The series must agree with the product of the factor
    (_factor_coefficients to order 2T) and its reflection to
    10^-(digits+5), else SolverError.
    """
    if T < 2:
        raise UsageError("T must be at least 2")
    digits = digits if digits is not None else consts.digits_certified
    wd = digits + _TAYLOR_GUARD
    a1, lam, xi = refined_spectral_frame(consts, wd)
    N = _tail_size(len(xi) - 1, math.ceil(wd / 2 - _tail_log10(T)))
    with mp.workdps(wd):
        if N >= len(xi):
            xi = _sweep(TridiagonalSystem(N, a1), lam)[0]
        a = 2 * a1 / mp.pi
        ratio = -mp.pi ** 2 / (2 * a1)  # -2 C pi, C = pi / (4 a1)
        coeffs = [mpf(0)] * (2 * T + 1)
        for m in range(T + 1):
            coeffs[2 * m] = xi[m] * ratio ** m / (2 * m + 1)
        # z^{2m} of F(z) F(-z), its terms paired as j and 2m - j (the odd
        # powers cancel exactly)
        c = _factor_coefficients(a, mp.pi / 2, lam, 2 * T)
        signed = [-v if k % 2 else v for k, v in enumerate(c)]
        worst = max(
            abs(u - 2 * mp.fdot(signed[:m], c[2 * m : m : -1]) - signed[m] * c[m])
            for m, u in enumerate(coeffs[::2])
        )
        if worst > mpf(10) ** (-(digits + TARGET_MARGIN)):
            raise SolverError(
                "closed-form and product routes disagree by %s" % mp.nstr(worst, 5)
            )
    return TaylorModel(coeffs=coeffs, a=a, lam=lam, dps=wd)


# ----------------------------------------------------------------------
# alternating odd power sums over the zeros, read off the reciprocal


def alternating_sums_odd(consts: ExtremalConstants, M: int, digits: int):
    """The first M alternating odd power sums S(1), S(3), .., S(2M-1).

    With psi the even minimizer and Theta = -(a/2) z^{-1} / psi, the
    coefficient of Theta at exponent 2m-1 is exactly the alternating sum
    S(2m-1) = sum_n (-1)^n tau_n^{-(2m-1)} over the unsigned zero
    parameters (S(1) is the classical first-derivative constant L1 < 0).

    The reciprocal is series_reciprocal's, within its majorant
    2^-(prec+64) e(z) |1/f~| (max|f| |1/f| + 1/2), at the model's dps.
    Over the coefficients read, that majorant stayed within 2^19, 2^51
    and 2^138 of each at 30, 100 and 300 digits (as offset_coefficients
    calls it), so a sum keeps all prec bits at the first two and
    prec - 74 at 300, inside the 40 digits offset_coefficients adds; the
    offset coefficients built on them came out bit for bit as with the
    mpf recurrence at 200 more digits, rounded once.
    """
    if M < 1:
        raise UsageError("M must be at least 1")
    model = taylor_extremal(consts, M + 2, digits=digits)
    with mp.workdps(model.dps):
        recip = series_reciprocal(model.coeffs, 2 * M + 1)
        return [-(model.a / 2) * recip[2 * m] for m in range(1, M + 1)]


# ----------------------------------------------------------------------
# offset expansion of the zeros


# digits past the certified ones at which offset_coefficients works; what
# backs the 40 is the measurement in its docstring
_OFFSET_GUARD = 40


def offset_coefficients(consts: ExtremalConstants, M: int):
    """a_1..a_M in tau_n = n + 1/2 - sum_m a_m (n+1/2)^{-m}.

    Lagrange inversion on all-real data: with G(w) = 1/(2C)
    + sum_k 2 S(2k-1) w^k / (2k-1) built from the alternating odd sums,
    the m-th offset coefficient for odd m = 2j - 1 is (-1)^j [w^j] G^m /
    (2 C m pi^{m+1}), read by mpcore.series_power_diagonal as
    [w^(k+1)] G (G^2)^k, k = j - 1; even entries vanish by the symmetry
    of the zero counting function and are returned as exact zeros.  The
    odd entries are provably nonnegative, so a negative value beyond
    roundoff raises.  The work runs at digits + _OFFSET_GUARD decimals,
    digits those certified; its loss is an estimate, not a bound: against
    a run at digits + M + 150, the largest relative error over a_1..a_M
    was 2.3e-70 at 30 digits (M = 26), 1.3e-139 at 100 (M = 83) and
    3.1e-338 at 300 (M = 245).

    The square is series_multiply's and the powers series_power_diagonal's,
    each within an absolute bound in units of 2^-(prec+64) of its
    largest entries, not relative to each coefficient.  The powers'
    entries grow (to 2^180 at 300 digits) while the coefficients read
    fall, and the errors above, measured with these integer powers, are
    what backs them (2.2e-70, 1.2e-139 and 3.1e-338 when each step
    rounded the power to the precision; 2.5e-70, 1.9e-139 and 2.8e-338
    with one rounded mpf multiply per term).  At 30, 100 and 300 digits
    they came out bit for bit as with the products, powers and
    reciprocal of mpf recurrences at 200 more digits, rounded once.
    """
    if M < 1:
        raise UsageError("M must be at least 1")
    digits = consts.digits_certified
    K = (M + 1) // 2 + 1
    wd = digits + _OFFSET_GUARD
    sums = alternating_sums_odd(consts, K, digits=wd)
    a_ref, _lam, _xi = refined_spectral_frame(consts, wd)
    with mp.workdps(wd):
        C = mp.pi / (4 * a_ref)
        g = [1 / (2 * C)]
        for k in range(1, K + 1):
            g.append(2 * sums[k - 1] / (2 * k - 1))
        square = series_multiply(g, g, K + 1)
        out = [mpf(0)] * M
        tol = mpf(10) ** (-(digits + TARGET_MARGIN))
        diagonal = series_power_diagonal(g, square, 1, (M + 1) // 2, K + 1)
        for j, coeff in enumerate(diagonal, start=1):
            m = 2 * j - 1
            val = coeff * (-1) ** j / (2 * C * m * mp.pi ** (m + 1))
            if val < -tol:
                raise SolverError(
                    "offset coefficient %d negative beyond roundoff: %s"
                    % (m, mp.nstr(val, 5))
                )
            out[m - 1] = val if val > 0 else mpf(0)
    return out


# guard bits of the fixed-point Horner loops, above the working precision:
# they cover the loops' truncations, bounded in rho_series_value and
# _bessel_series_eval
_HORNER_GUARD_BITS = 20


def rho_series_value(table, x):
    """rho(x) = sum_m a_m x^m, m = 1..M, by mpcore.fixed_horner at
    wp = prec + 20 bits on 0 < x < 1; other x raise UsageError.  table is
    0, a_1, .., a_M in fixed point at that wp, as ZeroModel.offset_table
    makes it at the working precision.  x enters by its exact mantissa,
    and may lie below 2^-wp (mp.quad evaluates tau at huge arguments).
    Each coefficient of the table is truncated to wp bits by under one
    unit (exact zeros stay 0) and the M Horner steps lose under M units,
    so the result is within 2M units of 2^-wp of rho(x) before it is
    rounded to the working precision.
    """
    x = mpf(x)
    if not 0 < x < 1:
        raise UsageError("rho series evaluated only on 0 < x < 1")
    _sign, man, exp, _bc = x._mpf_
    return mpf((fixed_horner(table, man, -exp), -(mp.prec + _HORNER_GUARD_BITS)))


def rho_tail_bound(M: int, x):
    """Bound on the dropped tail of rho past order M at argument x.

    Nonnegative coefficients summing against 2^m to at most 1/2 give
    a_m <= 2^{-m-1}, hence a tail below (x/2)^{M+1} / (2 (1 - x/2)).
    That premise is checked only on the computed a_1..a_M
    (offset_coefficients rejects a negative one, build_zero_model a
    weighted sum past 1/2); no theorem here covers the coefficients past
    M, which the bound is about.
    """
    x = mpf(x)
    if not (0 < x < 2):
        raise UsageError("tail bound valid for 0 < x < 2")
    r = x / 2
    return r ** (M + 1) / (2 * (1 - r))


# ----------------------------------------------------------------------
# the zero model

# The zero model's zeros are read at its dps, digits + _ZERO_GUARD: the
# guard covers the offset series' rounding, which rho_series_value bounds
# by 2M units of 2^-(prec+20), far under 10^-(digits + TARGET_MARGIN); a
# bound backs it, with room to spare.  The crossover n0 clears
# 10^-(digits + _CROSSOVER_SPARE), one spare order of magnitude that
# nothing backs.
_ZERO_GUARD = 15
_CROSSOVER_SPARE = 1


def zero_model_order(digits: int) -> int:
    """M = digits / 1.23 + 2, the offset series order of the zero model
    at `digits`, and export rho's default order."""
    return int(digits / 1.23) + 2


# The largest digits of the zero model, the cap of pwx zeros and export
# rho, which spend their time in offset_coefficients at
# zero_model_order(digits): about where one run passes 100 s, extrapolated
# from the growth between the runs listed (2-core x86 VM, one run each;
# zeros with --count 40).  zeros at 450, 600, 750: 10.3 s, 35.3 s, 93.5 s;
# export rho at 450, 600, 720: 15.3 s, 41.9 s, 95.5 s, timed in a slower
# stretch of the VM.
MAX_ZERO_MODEL_DIGITS = 760


class ZeroModel:
    """Offset-series description of the zeros with a refined head.

    rho_coeffs are the offset coefficients a_1..a_M; refined holds
    tau_1..tau_n0 polished by Newton against the factor series; beyond the
    crossover n0 the plain series value is taken, within the geometric
    tail bound of rho_tail_bound to the model's digits.  That bound's
    premise (a_m >= 0, sum_m a_m 2^m <= 1/2) is checked on a_1..a_M only.

    Its zeros are read at dps, digits + _ZERO_GUARD.  The bound is
    checked here, when the model is made: a bound at n0 + 1 of 10^-digits
    or more raises UsageError.  It increases in x = 1/(n + 1/2), which
    decreases in n, so it then holds at every n > n0, and tau and
    zeros_signed read the model without checks.
    build_zero_model makes the one model of a constants object and keeps
    it on the object's `zeros` field.  `lattice` holds the Hurwitz zeta
    tables of the L-series tail, one per lattice point, which
    lseries._hurwitz_table makes and reads.
    """

    def __init__(self, rho_coeffs: list, refined: list, n0: int, digits: int):
        self.rho_coeffs, self.refined, self.n0, self.digits = rho_coeffs, refined, n0, digits
        self._tables = {}  # wp -> offset_table at that wp
        self.lattice = {}  # lattice point q -> (prec, zeta(2 + i, q) for i < n)
        bound = rho_tail_bound(self.M, mpf(2) / (2 * n0 + 3))
        if bound >= mpf(10) ** (-digits):
            raise UsageError(
                "series tail bound %s too large at n=%d; increase M"
                % (mp.nstr(bound, 3), n0 + 1)
            )

    @property
    def M(self) -> int:
        return len(self.rho_coeffs)

    @property
    def dps(self) -> int:
        """The working precision at which the model's zeros are read."""
        return self.digits + _ZERO_GUARD

    def offset_table(self) -> list:
        """0, a_1, .., a_M truncated to fixed point at wp = prec + 20 bits,
        the scale rho_series_value reads at the working precision.  It is
        made on the first call at each wp and kept under that wp, so a
        table made at one precision is never read at another."""
        wp = mp.prec + _HORNER_GUARD_BITS
        table = self._tables.get(wp)
        if table is None:
            table = [0] + [to_fixed(a_m._mpf_, wp) if a_m else 0 for a_m in self.rho_coeffs]
            self._tables[wp] = table
        return table


def tau_series(model: ZeroModel, n: int):
    """Raw offset-series value of tau_n (no refined head, no certification)."""
    if n < 1:
        raise UsageError("n must be at least 1")
    X = mpf(2 * n + 1) / 2
    return X - rho_series_value(model.offset_table(), 1 / X)


def tau(model: ZeroModel, n: int):
    """n-th zero parameter tau_n; the factor vanishes at (-1)^{n+1} tau_n.

    The refined head up to n0, the series value past it, whose tail bound
    the model checked when it was made."""
    if n < 1:
        raise UsageError("n must be at least 1")
    if n <= model.n0:
        return model.refined[n - 1]
    return tau_series(model, n)


def zeros_signed(model: ZeroModel, count: int):
    """The factor's actual zeros (-1)^{n+1} tau_n for n = 1..count."""
    return [(-1) ** (n + 1) * tau(model, n) for n in range(1, count + 1)]


def _truncation_order(radius, target_exponent: int) -> int:
    """Smallest T >= 4 with (pi/2 * radius)^T / T! below 10^-target_exponent,
    from the closed-form log10 of that term."""
    log_x = math.log10(math.pi * float(radius) / 2)
    for T in range(4, 100001):
        if T * log_x - math.lgamma(T + 1) / math.log(10) < -target_exponent:
            return T
    raise SolverError("no practical truncation order for radius %s" % radius)


def _cancellation_digits(radius) -> int:
    """Headroom digits for evaluating the factor at |z| <= radius.

    Horner partial sums peak near e^{b |z|}; the extra working digits
    cover the cancellation down to the O(1)-or-smaller function values:
    log10 e^{b |z|} at b = pi/2, an estimate of that peak, plus 2 spare
    digits that nothing backs.
    """
    return int(math.pi / 2 * float(radius) / math.log(10)) + 2


# The factor's truncation on a disk sits _TRUNCATION_MARGIN digits under
# the digits its model is asked for, by the size of its first omitted term
# (_truncation_order), an estimate of the tail rather than a bound.  Zeros
# of the model are searched at the model's digits plus _ZERO_SEARCH_GUARD
# and the residual checks evaluate on their orbits at plus _ORBIT_GUARD:
# both cover Horner's rounding past the cancellation headroom, which is
# already in those digits, and nothing backs either.
_TRUNCATION_MARGIN = 10
_ZERO_SEARCH_GUARD = 20
_ORBIT_GUARD = 25


def _factor_near(consts: ExtremalConstants, radius, derivatives: int):
    """Taylor model of the factor on |z| <= radius, its series and first
    `derivatives` derivatives, and wd, the certified digits plus the
    cancellation headroom of _cancellation_digits: the model is asked for
    wd digits, callers evaluate at wd plus a guard, and the truncation
    error is below 10^-(wd + _TRUNCATION_MARGIN).
    """
    digits = consts.digits_certified + _cancellation_digits(radius)
    T = _truncation_order(radius, digits + _TRUNCATION_MARGIN)
    factor = taylor_factor(consts, T, digits=digits)
    series = [factor.coeffs]
    with mp.workdps(factor.dps):
        for _ in range(derivatives):
            series.append(series_derivative(series[-1]))
    return factor, series, digits


def refine_zeros_newton(consts: ExtremalConstants, seeds):
    """Newton-polished tau_1..tau_n, n = len(seeds), against the factor's
    Taylor series, to the certified digits.

    seeds[n-1] is a value near tau_n (build_zero_model takes the offset
    series, which lands well inside the Newton basins, holding 0.4 to all
    of the certified digits), taken to hold them all: a series step below
    the working precision costs about as much.  mpcore.newton searches each
    zero within half a unit of its seed.  The factor order is chosen so the
    Taylor truncation at the largest zero sits below the evaluation noise
    floor, including the exponential cancellation headroom.
    """
    if not seeds:
        raise UsageError("refine_zeros_newton needs at least one seed")
    digits = consts.digits_certified
    _factor, (F, dF), wd = _factor_near(consts, float(seeds[-1]) + 1, 1)

    def f(w):
        return series_eval(F, w), series_eval(dF, w)

    out = []
    with mp.workdps(wd + _ZERO_SEARCH_GUARD):
        half = mpf(1) / 2
        tol = mpf(10) ** (-(digits + TARGET_MARGIN))
        for n in range(1, len(seeds) + 1):
            sign = 1 if n % 2 else -1  # the factor vanishes at sign * tau_n
            w = sign * mpf(seeds[n - 1])
            out.append(sign * newton(bracketed_step(f, w - half, w + half), w, digits, tol)[1])
    return out


def build_zero_model(consts: ExtremalConstants) -> ZeroModel:
    """The zero model of `consts`: offset coefficients a_1..a_M plus a
    Newton-refined head, to the certified digits, with M = digits / 1.23
    + 2.  It is made on the first call and kept on consts.zeros, which
    later calls return.

    The crossover n0 is the smallest index whose series tail bound clears
    the digit target with one spare order of magnitude.  The head's Newton
    seeds are the model's own series values, tau_series at the model's
    dps, so they make the offset table that later reads at that precision
    use; the refined head is set on the model after them.  A weighted sum
    sum_{m<=M} a_m 2^m above 1/2 breaks the premise of rho_tail_bound and
    raises SolverError.
    """
    if consts.zeros is not None:
        return consts.zeros
    digits = consts.digits_certified
    M = zero_model_order(digits)
    rho = offset_coefficients(consts, M)
    with mp.workdps(digits + _ZERO_GUARD):  # the model's dps
        weighted = sum(a_m * mpf(2) ** m for m, a_m in enumerate(rho, start=1))
        if weighted > mpf(1) / 2:
            raise SolverError(
                "offset coefficients give sum a_m 2^m = %s > 1/2 at M=%d; "
                "the series tail bound does not apply" % (mp.nstr(weighted, 10), M)
            )
    n0 = 1
    while rho_tail_bound(M, mpf(2) / (2 * n0 + 1)) >= mpf(10) ** (-(digits + _CROSSOVER_SPARE)):
        n0 += 1
        if n0 > 64:
            raise UsageError(
                "series order M=%d cannot certify any practical crossover" % M
            )
    model = ZeroModel(rho_coeffs=rho, refined=[], n0=n0, digits=digits)
    with mp.workdps(model.dps):
        seeds = [tau_series(model, n) for n in range(1, n0 + 1)]
    model.refined = refine_zeros_newton(consts, seeds)
    consts.zeros = model
    return model


# ----------------------------------------------------------------------
# resummed tails of alternating zero-power sums
#
# tau_m = (m + 1/2)(1 - x rho(x)) at x = 1/(m + 1/2), so tau_m^{-s}
# expands into shifted half-integer powers with the binomial-series
# coefficients of (1 - x rho(x))^{-s}; lseries.l_series then resums the
# alternating lattice tails exactly through Hurwitz zeta differences.


def binomial_tail_expansion(rho_coeffs, s, K: int):
    """Coefficients e_0..e_K of (1 - x rho(x))^{-s} as a series in x.

    With f = 1 - x rho, whose coefficient f_k is -a_(k-1), the power
    g = f^-s solves f g' = -s f' g, so e_0 = 1 and

        e_n = sum_k a_(k-1) e_(n-k) - (1 - s)/n sum_k k a_(k-1) e_(n-k),

    k = 2..n: two dot products a coefficient, each of exact products
    rounded once, so e_n is exactly zero where every term is.
    """
    a = [mpf(c) for c in rho_coeffs[: max(0, K - 1)]]  # a[k - 2] = a_(k-1)
    ka = [k * c for k, c in enumerate(a, 2)]
    u = 1 - mpf(s)
    e = [mpf(1)] + [mpf(0)] * K
    for n in range(2, K + 1):
        past = e[n - 2 :: -1]  # e_(n-k) for k = 2..n
        e[n] = mp.fdot(a, past) - u * mp.fdot(ka, past) / n
    return e


# ----------------------------------------------------------------------
# residual checks


# digits past the certified ones at which _disk_grid makes its points.
# Their rounding costs nothing, as every residual checked on them vanishes
# at any z; the guard only fixes the points, and so the payload's bytes.
_GRID_GUARD = 30


def _disk_grid(radius, digits: int):
    """Deterministic spread of 20 nonzero sample points in the closed disk,
    made at digits + _GRID_GUARD, as five quarter-turn orbits: on each of
    the circles at 2/10, 4/10, .., 10/10 of the radius a first point w,
    turned by its own fraction of a quarter turn, and w i^j, j = 1..3,
    made exactly from it by _quarter_turns.  So series_eval_orbit at w
    gives a series at all four points of an orbit, in the order listed."""
    orbits = []
    with mp.workdps(digits + _GRID_GUARD):
        for i, k in enumerate((2, 4, 6, 8, 10)):
            r = mpf(radius) * k / 10
            theta = 2 * mp.pi * (mpf(i) / 5 + mpf(3) / 17) / 4
            orbits.append(_quarter_turns(r * mp.exp(mp.mpc(0, 1) * theta)))
    return orbits


def _quarter_turns(w):
    """(w, iw, -w, -iw), each exact: the points, in order, at which
    series_eval_orbit(f, w) evaluates f."""
    iw = _times_i(w)
    return w, iw, -w, -iw


def check_ode_residual(consts: ExtremalConstants):
    """Worst residual of the factor's second-order equation

        z^2 F'' + (2z - 1/(2C)) F' + (pi^2 z^2 / 4 + L1/(2C)) F

    over the 20 points of _disk_grid in |z| <= 5, to the certified digits:
    F, F' and F'' are each evaluated once per quarter-turn orbit."""
    orbits = _disk_grid(5, consts.digits_certified)
    factor, series, wd = _factor_near(consts, 5, 2)
    with mp.workdps(wd + _ORBIT_GUARD):
        drift = factor.a  # 1/(2C) in this frame
        lam_term = factor.lam  # L1/(2C) equals minus the eigenvalue
        pi2 = mp.pi ** 2
        worst = mpf(0)
        for orbit in orbits:
            values = [series_eval_orbit(f, orbit[0]) for f in series]
            for z, f0, f1, f2 in zip(orbit, *values):
                val = (
                    z * z * f2
                    + (2 * z - drift) * f1
                    + (pi2 * z * z / 4 - lam_term) * f0
                )
                worst = max(worst, abs(val))
    return worst


def check_extremal_ode_residual(consts: ExtremalConstants):
    """Worst residual of the third-order equation for the even minimizer,
    over the 20 points of _disk_grid in |z| <= 5, to the certified digits;
    the minimizer and its three derivatives are each evaluated once per
    quarter-turn orbit, on their nonzero classes of powers mod 4 only.

    Evaluated in the singularity-cleared form (multiplied through by z^4):

        z^4 p''' + 6 z^3 p''
        + (pi^2 z^4 + (6 + 2 L1/C) z^2 - 1/(4 C^2)) p'
        + (2 pi^2 z^3 + (2 L1/C) z) p,

    which vanishes identically for the true function.
    """
    digits = consts.digits_certified
    orbits = _disk_grid(5, digits)
    # the headroom of F(z) F(-z): twice the factor's; the model is asked
    # for the digits its truncation clears
    wd = digits + 2 * _cancellation_digits(5)
    Tz = _truncation_order(10, wd + _TRUNCATION_MARGIN)
    T = Tz // 2 + 4
    ext = taylor_extremal(consts, T, digits=wd + _TRUNCATION_MARGIN)
    series = [ext.coeffs]
    with mp.workdps(ext.dps):
        for _ in range(3):
            series.append(series_derivative(series[-1]))
    with mp.workdps(wd + _ORBIT_GUARD):
        C = 1 / (2 * ext.a)
        l1_over_c = -2 * ext.lam  # L1/C = -2 lambda
        pi2 = mp.pi ** 2
        worst = mpf(0)
        for orbit in orbits:
            values = [series_eval_orbit(f, orbit[0]) for f in series]
            for z, p0, p1, p2, p3 in zip(orbit, *values):
                z2 = z * z
                val = (
                    z2 * z2 * p3
                    + 6 * z2 * z * p2
                    + (pi2 * z2 * z2 + (6 + 2 * l1_over_c) * z2 - 1 / (4 * C * C)) * p1
                    + (2 * pi2 * z2 * z + 2 * l1_over_c * z) * p0
                )
                worst = max(worst, abs(val))
    return worst


def check_quadratic_relation(consts: ExtremalConstants):
    """Worst deviation of z^2 (F'(z)F(-z) + F'(-z)F(z)) - F(z)F(-z)/(2C)
    from its constant value -1/(2C) over the 20 points of _disk_grid in
    |z| <= 3, to the certified digits.  Each quarter-turn orbit holds -z
    with z, so F and F' are evaluated once per orbit."""
    orbits = _disk_grid(3, consts.digits_certified)
    factor, (F, d1), wd = _factor_near(consts, 3, 1)
    with mp.workdps(wd + _ORBIT_GUARD):
        drift = factor.a
        worst = mpf(0)
        for orbit in orbits:
            fs = series_eval_orbit(F, orbit[0])
            ds = series_eval_orbit(d1, orbit[0])
            for j, z in enumerate(orbit):
                # orbit[j - 2] is -z
                fp, fm = fs[j], fs[j - 2]
                val = z * z * (ds[j] * fm + ds[j - 2] * fp)
                val -= drift * fp * fm
                worst = max(worst, abs(val + drift))
    return worst


def zero_curvature_residual(consts: ExtremalConstants):
    """Residual of tau_1^2 F''(tau_1) = (1/(2C) - 2 tau_1) F'(tau_1) at the
    first zero, to the certified digits (the quadratic relation
    differentiated and restricted to a zero, where it closes without the
    function term).  The factor vanishes at tau_1 in (1, 3/2), where
    mpcore.newton finds it from 5/4 on the model of |z| <= 5/2.
    """
    factor, (F, d1, d2), wd = _factor_near(consts, 2.5, 2)
    with mp.workdps(wd + _ZERO_SEARCH_GUARD):
        step = bracketed_step(lambda w: (series_eval(F, w), series_eval(d1, w)), 1, mpf(3) / 2)
        tol = mpf(10) ** (-(consts.digits_certified + TARGET_MARGIN))
        t = newton(step, mpf(5) / 4, 0, tol)[1]
        lhs = t * t * series_eval(d2, t)
        rhs = (factor.a - 2 * t) * series_eval(d1, t)
    return abs(lhs - rhs)


# The reflection samples and the checks and fits on them run at the
# certified digits plus REFLECTION_GUARD, the factor model's truncation on
# |z| <= 0.6 included; the model is asked for digits plus
# _REFLECTION_MODEL_EXTRA.  On that circle |z| < 1, so Horner's partial
# sums do not cancel; both cover the rounding of the exponentials and of
# the 2x2 fit, and nothing backs either.
REFLECTION_GUARD = 25
_REFLECTION_MODEL_EXTRA = 10


def _reflection_samples(consts: ExtremalConstants, count: int, offset: int):
    """C and, at `count` points z of the self-dual circle |z| = 1/sqrt(2 pi C)
    turned by offset/100 of their spacing, the values (z, F(z), e^{1/(4Cz)},
    e^{-i pi z/2} F(i w), e^{i pi z/2} F(-i w)), w = 1/(2 pi C z) of the same
    modulus as z; all to the certified digits plus REFLECTION_GUARD, as is
    the factor model's truncation on |z| <= 0.6.

    4 divides count, so the points are count / 4 quarter-turn orbits: the
    k-th quarter turn of z_0 is z_0 i^k, made exactly by _quarter_turns,
    and its partner is w_0 i^-k, so i w and -i w lie on the orbit of w_0.
    F is evaluated once per orbit of z_0 and once per orbit of w_0.
    """
    digits = consts.digits_certified
    T = _truncation_order(0.6, digits + REFLECTION_GUARD)
    factor = taylor_factor(consts, T, digits=digits + _REFLECTION_MODEL_EXTRA)
    F = factor.coeffs
    with mp.workdps(digits + REFLECTION_GUARD):
        C = 1 / (2 * factor.a)
        i = mp.mpc(0, 1)
        r = 1 / mp.sqrt(2 * mp.pi * C)
        quarter = count // 4
        samples = [None] * count
        for j in range(quarter):
            z0 = r * mp.exp(i * 2 * mp.pi * (j + mpf(offset) / 100) / count)
            w0 = 1 / (2 * mp.pi * C * z0)
            fz = series_eval_orbit(F, z0)
            fw = series_eval_orbit(F, w0)  # F(w0 i^m) at m = 0..3
            for k, z in enumerate(_quarter_turns(z0)):
                # i w = w0 i^(1-k) and -i w = w0 i^(3-k)
                g_plus = mp.exp(-i * mp.pi * z / 2) * fw[(1 - k) % 4]
                g_minus = mp.exp(i * mp.pi * z / 2) * fw[(3 - k) % 4]
                samples[j + k * quarter] = (
                    z, fz[k], mp.exp(1 / (4 * C * z)), g_plus, g_minus
                )
    return C, samples


def check_functional_equation(consts: ExtremalConstants):
    """Worst residual of the reflection identity

        F(z) e^{1/(4Cz)} = [e^{i pi/4 - i pi z/2} F(i/(2 pi C z))
                            + e^{-i pi/4 + i pi z/2} F(-i/(2 pi C z))]
                           / (2 sqrt(pi C) z)

    at 20 points on the self-dual circle, five quarter-turn orbits (see
    _reflection_samples), to the certified digits."""
    C, samples = _reflection_samples(consts, 20, 37)
    with mp.workdps(consts.digits_certified + REFLECTION_GUARD):
        i = mp.mpc(0, 1)
        e_plus = mp.exp(i * mp.pi / 4)
        e_minus = mp.exp(-i * mp.pi / 4)
        norm = 2 * mp.sqrt(mp.pi * C)
        worst = mpf(0)
        for z, fz, ez, g_plus, g_minus in samples:
            rhs = (e_plus * g_plus + e_minus * g_minus) / (norm * z)
            worst = max(worst, abs(fz * ez - rhs))
    return worst


# ----------------------------------------------------------------------
# the summation identity
#
# a f'(0) = sum_mu (f(mu) - f(-mu)) over the signed zeros mu of a system,
# for f = _test_function, is checked as a head of zeros summed directly
# plus the rest in closed form.  Past its head each system's zeros lie on
# a lattice, mu_n = +-(Y_n - sigma(1/Y_n)) with Y_n = step n + shift and
# sigma a power series: the zero model's rho for the first system, the
# reverted phase series for the second.  With v = 1/Y_n,
#
#     f(Y - sigma) = K v^4 sin^5(pi Y / 5 - pi sigma(v) / 5) (1 - v sigma(v))^-4,
#
# K = (5/pi)^5.  For n in one residue class mod 5 both the sign of the
# term and sin(pi Y / 5) up to sign are fixed, so the class is one power
# series in v, and its sum over the lattice points of the class is a
# series in Hurwitz zeta values (_lattice_tail).


class SummationTail:
    """The zeros past a head, in closed form: their part of
    2 sum_mu f(mu), a bound on what the truncation of its series leaves
    out (for the second system an estimate), and the series order."""

    def __init__(self, value: mpf, bound: mpf, order: int):
        self.value, self.bound, self.order = value, bound, order


def _test_function(x):
    """f(x) = x sinc(pi x / 5)^5 of summation_check: odd, entire of
    exponential type pi, f'(0) = 1, |f(x)| <= (5/pi)^5 |x|^-4."""
    if x == 0:
        return mpf(0)
    u = mp.pi * x / 5
    return x * (mp.sin(u) / u) ** 5


def summation_check(a_param, zeros, tail: SummationTail) -> mpf:
    """Defect of a f'(0) = sum_mu (f(mu) - f(-mu)) for f = _test_function,
    with the signed zeros of `zeros` summed directly and the rest taken
    from `tail`, at the working precision.

    The identity holds for f odd, entire of exponential type at most pi
    and integrable on the line.  It sees only the odd part of f, so
    oddness loses nothing and halves the work: the head is summed as
    2 sum_mu f(mu), and f'(0) = 1 leaves a alone.  The zeros are rounded
    to the working precision, where negation is exact, and
    f(-mu_1) = -f(mu_1) must hold bit for bit at the first zero, else
    UsageError.
    """
    if not zeros:
        raise UsageError("empty zero list")
    f = _test_function
    mu1 = mpf(zeros[0])
    if f(-mu1) != -f(mu1):
        raise UsageError("summation_check needs an odd test function")
    total = 2 * mp.fsum(f(mpf(mu)) for mu in zeros) + tail.value
    return abs(mpf(a_param) - total)


def _lattice_order(majorant, s0, start: int, step: int, shift, digits: int):
    """(J, bound): the first series order J of _lattice_tail whose
    truncation bound is under 10^-(digits+5), and that bound.

    It rests on `majorant` = (A, r): |sigma_m| <= A r^m for m >= 1.  On
    |v| = R = min(1/(2r), 1/(2(|s0| + A))), s0 = sigma_0, that gives
    |sigma - s0| <= A, |1 - v sigma| >= 1/2 and |sin| <= cosh(pi A / 5),
    so every class series has |c_j| <= B R^-j, B = 16 K R^4
    cosh(pi A / 5)^5.  With sum_n Y_n^-j <= Y_1^-j + Y_1^(1-j) / (step (j-1)),
    the orders past J add at most 2 B (1 + Y_1 / (step J)) x^(J+1) / (1 - x),
    x = 1/(R Y_1).
    """
    A, r = majorant
    R = min(1 / (2 * r), 1 / (2 * (abs(s0) + A)))
    B = 16 * (5 / mp.pi) ** 5 * R ** 4 * mp.cosh(mp.pi * A / 5) ** 5
    Y1 = step * start + shift
    x = 1 / (R * Y1)
    target = mpf(10) ** (-(digits + TARGET_MARGIN))

    def bound(J):
        return 2 * B * (1 + Y1 / (step * J)) * x ** (J + 1) / (1 - x)

    J = 4
    while bound(J) >= target:
        J += 1
    return J, bound(J)


def _lattice_tail(sigma, J: int, start: int, step: int, shift, alternate: bool):
    """2 sum_{n >= start} e_n f(Y_n - sigma(1/Y_n)) through order J, for
    Y_n = step n + shift and e_n = (-1)^(n+1) when `alternate`, else 1;
    e_n sin^5(pi Y_n / 5) must have period 5 in n (`alternate` with step
    odd, or neither).

    Class r is K v^4 e_r sin^5(theta_r - phi(v)) (1 - v sigma)^-4, with
    theta_r = pi (step r + shift - sigma_0) / 5 and phi = pi (sigma -
    sigma_0) / 5, and over n = 5m + r >= start, sum Y_n^-j =
    (5 step)^-j zeta(j, m_r + (step r + shift) / (5 step)).  Orders 4..J
    need sigma_0..sigma_{J-4}; missing ones are zeros.

    The products are series_multiply's, within an absolute
    4T max|f| max|g| 2^-(prec+64), and the products of the factors'
    largest entries were at most 1 on every call measured (`verify
    --suite all --digits 30|100`, `--suite summation --digits 300`).
    The reciprocal and cosine and sine are mpcore's, within majorants
    2^-(prec+64) e(z) times a series that stayed within 2^25, 2^53 and
    2^119 of every coefficient at 30, 100 and 300 digits.  Coefficient j
    enters the value only times (5 step)^-j zeta(j, .) <=
    Y_1^-j (1 + Y_1 / (step (j - 1))), Y_1 >= 8, so an absolute error
    costs less the smaller the coefficient; at those digits both
    summation tails came out bit for bit as with the mpf recurrences and
    products at 200 more digits, rounded once.
    """
    T = J - 3  # coefficients of v^4 .. v^J
    sig = list(sigma[:T]) + [mpf(0)] * max(0, T - len(sigma))
    s0 = sig[0]
    phase = [0] + [mp.pi * c / 5 for c in sig[1:]]
    cos_phi, sin_phi = series_cos_sin(phase, T - 1)
    shrink = series_reciprocal([1] + [-c for c in sig[:-1]], T)
    shrink = series_multiply(shrink, shrink, T)
    weight = series_multiply(shrink, shrink, T)  # (1 - v sigma)^-4
    scale = mpf(5 * step)
    total = mpf(0)
    for cls in range(5):
        theta = mp.pi * (step * cls + shift - s0) / 5
        sin_t, cos_t = mp.sin(theta), mp.cos(theta)
        u = [sin_t * c - cos_t * s for c, s in zip(cos_phi, sin_phi)]
        u2 = series_multiply(u, u, T)
        g = series_multiply(series_multiply(series_multiply(u2, u2, T), u, T), weight, T)
        first = -((cls - start) // 5)  # first m with 5m + cls >= start
        zetas = hurwitz_zetas(first + (step * cls + shift) / scale, 4, J - 3)
        part = mp.fsum(g[j - 4] * scale ** -j * zetas[j - 4] for j in range(4, J + 1))
        total += -part if (alternate and cls % 2 == 0) else part
    return 2 * (5 / mp.pi) ** 5 * total


def zero_model_tail(model: ZeroModel, head: int) -> SummationTail:
    """The zeros (-1)^(n+1) tau_n, n > head, of the zero model in closed
    form, to the model's digits (_lattice_tail on Y = n + 1/2 with
    sigma = rho).

    The bound rests on the majorant a_m <= 2^(-m-1) of rho_tail_bound,
    whose premise is checked on a_1..a_M only.  It adds the rho
    truncation past M: each zero moves by at most rho_tail_bound(M, 1/Y),
    where |f'| <= K (pi + 1) (Y/2)^-4 for Y >= 8, so 2 sum_n
    16 K (pi + 1) Y_n^-4 rho_tail_bound(M, 1/Y_n) is below
    32 K (pi + 1) rho_tail_bound(M, 1/Y_1) (Y_1^-4 + Y_1^-3 / 3).
    """
    if head < 7:
        raise UsageError("zero_model_tail needs a head of at least 7 zeros")
    half = mpf(1) / 2
    J, bound = _lattice_order((half, half), 0, head + 1, 1, half, model.digits)
    value = _lattice_tail([mpf(0)] + model.rho_coeffs, J, head + 1, 1, half, True)
    Y1 = head + 3 * half
    K = (5 / mp.pi) ** 5
    rho_term = (
        32 * K * (mp.pi + 1) * rho_tail_bound(model.M, 1 / Y1)
        * (Y1 ** -4 + Y1 ** -3 / 3)
    )
    return SummationTail(value=value, bound=bound + rho_term, order=J)


# ----------------------------------------------------------------------
# companion eigenfunction systems at other drift values
#
# The ground eigenvector at drift a (b = 1 frame) is also the coefficient
# list of an entire eigenfunction in the spherical-Bessel basis: with
# alternating signs it gives the factor-like function whose positive
# zeros fill the odd rungs of the system's ladder, and with plain signs
# its reflection, whose positive zeros fill the even rungs.  At the
# extremal drift these are exactly pi/2 times the tau ladder; at other
# drifts they provide the second zero system of the summation identity.
#
# Evaluating F(x) = sum_{m<=M} c_m j_m(x), c_m = (+-1)^m xi_m.  With
# u = 1/x every spherical Bessel function is j_m(x) = sin x A_m(u) +
# cos x B_m(u), where A_m and B_m are integer polynomials of degree m + 1:
# both obey the recurrence P_{m+1} = (2m+1) u P_m - P_{m-1} of j_m, from
# A_{-1} = 0, B_{-1} = u (j_{-1} = cos x / x) and A_0 = u, B_0 = 0
# (j_0 = sin x / x).  So F(x) = sin x A(u) + cos x B(u) exactly, with
# A = sum c_m A_m and B = sum c_m B_m of degree M + 1, built once per
# ladder.  A, B, A' and B' are evaluated by Horner's rule in fixed-point
# integers, plus one cos/sin per point, at every x from the start of the
# zero scan, 2/5, on.  Below x ~ M + 4 the terms of A and B cancel and,
# with u > 1, each Horner step can magnify an earlier error by u, so the
# fixed point carries 2 bits a step beyond the 20 guard bits; the error
# budget is in the docstring of _bessel_series_eval.
#
# The phase form places the zeros.  Every A_m and B_m vanishes at u = 0,
# so A = u a(u) and B = u b(u), and F = u R(u) sin(x + psi(u)) with
# R = sqrt(a^2 + b^2) and psi = atan2(b, a), a power series in u built
# once per ladder (_phase_series).  The k-th zero solves
# x + psi(1/x) = k pi, so past a head of three zeros, found by a
# sign-change scan, each zero is seeded by the fixed point
# x <- k pi - psi(1/x).  The seed is only a seed: mpcore.newton on F
# itself certifies each zero by a step within 10^-(digits+5), and a seed
# that is poor, or falls outside the Newton bracket, costs extra steps,
# never a wrong zero.  The same psi, reverted to x = k pi - sigma(1/(k pi)),
# puts the zeros past a ladder's head on a lattice for the summation tail
# (_ladder_tail).

class _BesselSeries:
    """F = sum_m coeffs[m] j_m, with F(x) = sin x A(1/x) + cos x B(1/x):
    sin_poly and cos_poly are the coefficients of A and B, lowest power
    first, as integers scaled by 2^wp."""

    def __init__(self, coeffs: list, sin_poly: list, cos_poly: list, wp: int):
        self.coeffs, self.sin_poly, self.cos_poly, self.wp = coeffs, sin_poly, cos_poly, wp


def _bessel_step(p, q, m: int):
    """(2m+1) u p - q on integer coefficient lists in powers of u."""
    out = [0] + [(2 * m + 1) * c for c in p]
    for k, c in enumerate(q):
        out[k] -= c
    return out


def _bessel_series(xi, alternate: bool) -> _BesselSeries:
    """Closed form of sum_m (+-1)^m xi_m j_m at the ambient precision.

    The fixed point has wp = prec + 20 + 2 (M + 2) bits: from x = 2/5 on,
    u = 1/x < 2^2, so 2 bits for each of the M + 2 Horner steps cover
    their magnification (see _bessel_series_eval).  Each coefficient of A
    and B is sum_m c_m times the integer coefficient of A_m or B_m.  The
    c_m are taken to g extra bits, g covering the largest integer
    coefficient and the M + 1 terms, so the sum is within one unit of
    2^-wp; truncating it to wp bits adds at most one more.
    """
    coeffs = [-v if (alternate and m % 2) else v for m, v in enumerate(xi)]
    M = len(coeffs) - 1
    wp = mp.prec + _HORNER_GUARD_BITS + 2 * (M + 2)
    rows = []  # (A_m, B_m) for m = 0..M
    prev, cur = ([0, 0], [0, 1]), ([0, 1], [0, 0])
    for m in range(M + 1):
        rows.append(cur)
        prev, cur = cur, tuple(_bessel_step(p, q, m) for p, q in zip(cur, prev))
    g = max(abs(c).bit_length() for row in rows for P in row for c in P)
    g += M.bit_length()
    fixed = [to_fixed(c._mpf_, wp + g) for c in coeffs]

    def combine(which):
        out = [0] * (M + 2)
        for f, row in zip(fixed, rows):
            for k, c in enumerate(row[which]):
                out[k] += f * c
        return [v >> g for v in out]

    return _BesselSeries(coeffs=coeffs, sin_poly=combine(0), cos_poly=combine(1), wp=wp)


# The second system's eigenvector is cut at 10^-(digits + _BESSEL_CUT),
# which bounds what the cut moves (_eigen_bessel_coefficients, on the tail
# estimate), and solved at digits + _BESSEL_SOLVE_GUARD, which covers the
# solve's rounding and its residual gate.  The zero ladders run at
# digits + _LADDER_GUARD, which covers the rounding of their Newton steps
# and of the merged zeros (the Bessel series' own cancellation is covered
# in bits, see _bessel_series_eval).  Nothing backs the 50 or the 30.  The
# ladder tails run at digits + _LADDER_TAIL_GUARD; what backs the 15 is the
# measurement in _reverted_phase.
_BESSEL_SOLVE_GUARD = 50
_BESSEL_CUT = 20
_LADDER_GUARD = 30
_LADDER_TAIL_GUARD = 15


def _eigen_bessel_coefficients(a, digits: int):
    """Ground eigenvector at drift a, solved on the rows whose tail
    estimate (spectral._tail_size) clears 10^-(digits + _BESSEL_CUT), and
    cut before its first entry past the fifth under that.

    As the minimal solution (Gautschi 1967), its entries fall by about
    (a/2)/m^2 a row, so the first under the cut bounds all later ones, and
    the truncation at N moves entry m by a relative |xi_N / xi_m|^2, so by
    under |xi_N| <= 10^-(digits + _BESSEL_CUT) wherever |xi_m| is above
    the cut.  A cut anywhere inside N is sound; an eigenvector with no
    entry under the cut does not decay and raises SolverError.
    """
    cut_digits = digits + _BESSEL_CUT
    cut = mpf(10) ** (-cut_digits)
    N = _tail_size(_N_FLOOR, cut_digits)
    with mp.workdps(digits + _BESSEL_SOLVE_GUARD):
        pair = ground_eigenpair(TridiagonalSystem(N, a))
        for m, v in enumerate(pair.xi):
            if m > 4 and abs(v) < cut:
                return pair.xi[:m]
        raise SolverError(
            "eigenvector at a=%s does not fall below 10^-%d within N=%d; "
            "cannot truncate" % (mp.nstr(a, 8), cut_digits, N)
        )


def _bessel_series_eval(series: _BesselSeries, x):
    """Value and derivative of F = sum_m c_m j_m at x >= 2/5, where the
    zero scan starts; smaller x raise UsageError.

    From the closed form F = sin x A(u) + cos x B(u), F' = cos x A -
    sin x B - u^2 (sin x A' + cos x B'), u = 1/x, in integers scaled by
    2^wp, wp = prec + 20 + 2 (M + 2).  The Horner loop is its own, not
    mpcore.fixed_horner: one pass makes the value and the derivative of
    both polynomials.

    Error bound, in units of 2^-wp, with U = max(1, u) <= 5/2.  Every
    product is truncated by less than one unit, and each later Horner step
    magnifies an error already made by at most U, so by at most U^(M+1)
    in all.  The a_k are within two units each (see _bessel_series), u
    within four, sin x and cos x within two.  So F and F' are within
    (8 (M + 3) + 6 K + (M + 2)(3M + 7)) U^(M+3) units, K = sum_k (k + 1)
    |a_k| U^k over both polynomials; U^(M+3) also covers the factor u^2
    of F'.  As U^(M+3) < 4^(M+2), the 2 (M + 2) extra bits of wp absorb
    it.  At a = 1, 20 digits: M = 18 and K = 57 at x = 2/5, 6.3 at
    x = 1, so under 2^11 units of 2^-(prec+20).
    """
    x = mpf(x)
    # x < mpf(2) / 5 in integers: both are multiples of 2^-(prec+1) from
    # 1/4 on, and 2/5 rounds to the nearest one, (2^(prec+3) + 5) // 10
    p = mp.prec
    if to_fixed(x._mpf_, p + 1) < ((1 << (p + 3)) + 5) // 10:
        raise UsageError("Bessel series evaluated only at x >= 2/5")
    wp = series.wp
    cos, sin = mpf_cos_sin(x._mpf_, wp)
    C, S = to_fixed(cos, wp), to_fixed(sin, wp)
    u = to_fixed(mpf_rdiv_int(1, x._mpf_, wp), wp)
    a = b = da = db = 0
    for ak, bk in zip(reversed(series.sin_poly), reversed(series.cos_poly)):
        da = (da * u >> wp) + a
        db = (db * u >> wp) + b
        a = (a * u >> wp) + ak
        b = (b * u >> wp) + bk
    val = (S * a + C * b) >> wp
    der = ((C * a - S * b) >> wp) - ((u * u >> wp) * ((S * da + C * db) >> wp) >> wp)
    return mpf((val, -wp)), mpf((der, -wp))


def _phase_series(series: _BesselSeries, u_max) -> list:
    """Coefficients psi_0, psi_1, ... of the phase psi(u) = atan2(b, a)
    of F, A = u a(u) and B = u b(u), for the fixed point at
    wp = prec + 20 bits that evaluates it.

    psi_0 = atan2(b_0, a_0), and psi' = (a b' - b a') / (a^2 + b^2) is
    built with the series algebra of mpcore at the working precision and
    integrated term by term.  Terms are taken up to the first two in a
    row with |psi_k| u_max^k < 2^-wp (two, because a and b may be close
    to even and odd, and psi then close to odd); the window of terms
    doubles from twice the length of a until they appear in it, or up to
    wp terms, past which the whole window is kept.  Then the seeds may be
    poor, but the zeros do not depend on them.

    The products are series_multiply's, within an absolute
    4T max|f| max|g| 2^-(prec+64); the products of the factors' largest
    entries were at most 1 on every call measured (as for _lattice_tail).
    The reciprocal of a^2 + b^2 is series_reciprocal's, whose majorant
    carries the error of each coefficient on to the later ones: at 300
    digits it reached 2^897 times the smallest, so late coefficients of
    psi keep few correct bits.  But psi is read only at u <= u_max < 1,
    where max_k |psi_k - psi'_k| u_max^k stayed under 2^-(prec+150) on
    every call measured, psi' from the mpf recurrence at 200 more
    digits: in seeds, which Newton certifies, and reverted in the ladder
    tails, which came out bit for bit as with those references.
    """
    wp = mp.prec + _HORNER_GUARD_BITS
    a = [mpf((c, -series.wp)) for c in series.sin_poly[1:]]
    b = [mpf((c, -series.wp)) for c in series.cos_poly[1:]]
    da, db = series_derivative(a), series_derivative(b)
    T = 2 * len(a)
    num = [p - q for p, q in zip(series_multiply(a, db, T), series_multiply(b, da, T))]
    den = [p + q for p, q in zip(series_multiply(a, a, T), series_multiply(b, b, T))]
    floor = mpf(2) ** -wp
    while True:
        slope = series_multiply(num, series_reciprocal(den, T), T)
        psi = [mp.atan2(b[0], a[0])]
        psi += [c / (k + 1) for k, c in enumerate(slope)]
        small = [abs(c) * u_max ** k < floor for k, c in enumerate(psi)]
        K = next((k for k in range(1, T) if small[k] and small[k + 1]), None)
        if K is not None or T >= wp:
            return psi[:K]
        T *= 2


# fixed-point steps x <- k pi - psi(1/x) at most per seed
_SEED_STEPS = 8


def _bessel_zero_ladder(series: _BesselSeries, count: int, digits: int):
    """(zeros, psi, k): the first `count` >= 3 positive zeros of the
    Bessel-series eigenfunction, its phase series psi (_phase_series) and
    the k with x + psi(1/x) = k pi at the last zero.

    The head of three zeros is located by a sign-change scan.  Past it
    the k-th zero solves x + psi(1/x) = k pi, with k read off the last
    head zero as the nearest integer to (x + psi(1/x)) / pi.  Each seed
    starts from the second difference of the last three zeros
    (consecutive gaps approach pi, differing from it by O(1/x^2)) and
    runs x <- k pi - psi(1/x) in fixed point at prec + 20 bits, until a
    step is under 10^-(digits+5) 2^-10 or after _SEED_STEPS steps; as x
    grows, the last terms of psi that fall under one unit are dropped.
    mpcore.newton then finishes inside half a gap either side of linear
    continuation from a seed holding k digits after a last step under
    10^-k (the map contracts), or none (a head zero's, or the second
    difference that replaces a seed leaving that bracket); its step within
    10^-(digits+5), not the seed, certifies the zero.  Loss of monotonicity
    or a non-converging Newton reports a solver failure rather than bad zeros.
    """
    target = mpf(10) ** (-(digits + TARGET_MARGIN))
    zeros = []

    def refine(seed, lo, hi, held):
        step = bracketed_step(lambda r: _bessel_series_eval(series, r), lo, hi)
        return newton(step, seed, held, target)[1]

    step = mpf(2) / 5
    x = step
    pv, _ = _bessel_series_eval(series, x)
    while len(zeros) < 3 and x < 40:
        x += step
        v, _ = _bessel_series_eval(series, x)
        if v == 0:
            zeros.append(x)
        elif v * pv < 0:
            zeros.append(refine(x - step / 2, x - step, x, 0))
        pv = v
    if len(zeros) < 3:
        raise SolverError("zero scan found no ladder head at this drift")

    psi = _phase_series(series, 1 / zeros[-1])
    wp = mp.prec + _HORNER_GUARD_BITS
    phase = [to_fixed(c._mpf_, wp) for c in psi]
    pi = to_fixed(mpf_pi(wp), wp)
    small = to_fixed((target / 1024)._mpf_, wp)

    def phase_at(X):
        return fixed_horner(phase, (1 << 2 * wp) // X, wp)

    z3, z2, z1 = (to_fixed(z._mpf_, wp) for z in zeros)
    k = (z1 + phase_at(z1) + pi // 2) // pi
    while len(zeros) < count:
        k += 1
        gap = z1 - z2
        guess = z1 + 2 * gap - (z2 - z3)
        lo, hi = z1 + gap // 2, z1 + 3 * gap // 2
        # a last term under one unit at x = lo stays under it at every
        # later x: |psi_j| < 2^(j e) <= lo^j, e = floor(log2 lo)
        e = (lo >> wp).bit_length() - 1
        while len(phase) > 1 and abs(phase[-1]).bit_length() <= (len(phase) - 1) * e:
            phase.pop()
        X = guess
        for _ in range(_SEED_STEPS):
            nxt = k * pi - phase_at(X)
            moved = abs(nxt - X)
            X = nxt
            if moved < small or not lo < X < hi:
                break
        held = int((wp - moved.bit_length()) * math.log10(2))
        if not lo < X < hi:
            X, held = guess, 0
        root = refine(mpf((X, -wp)), mpf((lo, -wp)), mpf((hi, -wp)), held)
        if root <= zeros[-1]:
            raise SolverError("zero ladder lost monotonicity")
        zeros.append(root)
        z3, z2, z1 = z2, z1, to_fixed(root._mpf_, wp)
    return zeros, psi, int(k)


def _reverted_phase(psi, T: int) -> list:
    """sigma_0..sigma_{T-1} with x = X - sigma(1/X) on x + psi(1/x) = X.

    With v = 1/x and w = 1/X, v = w phi(v), phi = 1 + v psi(v), and
    Lagrange-Buermann gives [w^n] v = [v^(n-1)] phi^n / n; then
    sigma(w) = 1/w - 1/v(w).

    The powers of phi come from series_power_diagonal, each step within
    an absolute bound in units of 2^-(prec+64) of the largest entries of
    the power and of phi, their product reaching 2^25 at 100 digits and
    2^69 at 300.  At 300 digits one step's bound is then about
    2^-(prec-14) of the first coefficients, inside the 33 bits that
    digits + _LADDER_TAIL_GUARD holds past the tails' 10^-(digits+5).
    The reciprocal's majorant stayed within 2^14 of every coefficient,
    and sigma_m enters _lattice_tail only times Y^-m, Y >= 8; the tails
    came out bit for bit as with the mpf references at 200 more digits
    (see _lattice_tail).
    """
    phi = [mpf(1)] + list(psi[:T])
    # v/w = sum_n [w^n] v w^(n-1), [v^(n-1)] phi^n = [v^k] phi phi^k
    diagonal = series_power_diagonal(phi, phi, 0, T + 1, T + 1)
    ratio = [c / n for n, c in enumerate(diagonal, start=1)]
    inverse = series_reciprocal(ratio, T + 1)
    return [-c for c in inverse[1:]]


# coefficients of the reverted phase series that estimate its majorant
_MAJORANT_TERMS = 8


def _ladder_tail(psi, k: int, digits: int) -> SummationTail:
    """The zeros x_j, j > k, of one Bessel ladder (x_j + psi(1/x_j) = j pi)
    in closed form, as their part of 2 sum f(2 x / pi).

    On the lattice Y = 2j, 2 x_j / pi = Y - sigma2(1/Y), with
    sigma2_m = (2/pi)^(m+1) sigma_m from _reverted_phase.  psi has no
    proven majorant, so the bound of _lattice_order is an estimate here:
    r is 5/4 of the largest |sigma2_m|^(1/m) and A the largest
    |sigma2_m| r^-m over m = 1.._MAJORANT_TERMS - 1, and nothing checks
    the coefficients past them.
    """
    c = 2 / mp.pi

    def scaled(T):
        return [c ** (m + 1) * s for m, s in enumerate(_reverted_phase(psi, T))]

    sigma = scaled(_MAJORANT_TERMS)
    r = 5 * max(abs(s) ** (mpf(1) / m) for m, s in enumerate(sigma) if m) / 4
    A = max(abs(s) / r ** m for m, s in enumerate(sigma) if m)
    J, bound = _lattice_order((A, r), sigma[0], k + 1, 2, 0, digits)
    if J - 3 > _MAJORANT_TERMS:
        sigma = scaled(J - 3)
    value = _lattice_tail(sigma, J, k + 1, 2, 0, False)
    return SummationTail(value=value, bound=bound, order=J)


def summation_system(a, head: int, digits: int):
    """(a_param, zeros, tail) of the eigenfunction system at matrix drift
    a, rescaled from the b = 1 frame to exponential type pi/2, for
    :func:`summation_check`, to `digits` digits.

    zeros holds the first `head` (at least 4) zeros of each sign:
    positive entries are the scaled zeros of the alternating Bessel
    series, negative entries the reflected zeros of its companion, in
    increasing absolute value.  Both ladders come from
    _bessel_zero_ladder: phase-series seeds, each zero certified by a
    Newton step under 10^-(digits+5).  The two increasing ladders must
    interleave, so they are merged by taking their zeros in turn,
    starting from the smaller first zero, and one pass checks that the
    merged values increase by more than 10^-(digits+5): a decrease means
    two neighbours of one sign and a smaller rise a collision, both
    reported as a solver failure.  Each zero is scaled by +-2/pi with one
    multiply.  tail holds the zeros past the head of both ladders, each
    through its phase series (_ladder_tail; the reflected ladder's part
    enters with a minus sign, as f is odd); its bound is an estimate.  A
    tail from the fifth zero on puts every class sum of _lattice_tail at a
    Hurwitz shift of at least 1, as mpcore.hurwitz_zetas needs.  At the
    extremal drift the zeros reproduce 1/(2C) and the signed tau ladder.
    """
    if head < 4:
        raise UsageError("head must be at least 4")
    with mp.workdps(digits + _LADDER_GUARD):
        a = mpf(a)
        if not (0 < a < mpf(3) / 2):
            raise UsageError("summation_system requires 0 < a < 3/2")
        xi = _eigen_bessel_coefficients(a, digits)
        plus, psi_plus, k_plus = _bessel_zero_ladder(_bessel_series(xi, True), head, digits)
        minus, psi_minus, k_minus = _bessel_zero_ladder(
            _bessel_series(xi, False), head, digits
        )
        scale = 2 / mp.pi
        if plus[0] <= minus[0]:
            pairs, scales = zip(plus, minus), (scale, -scale)
        else:
            pairs, scales = zip(minus, plus), (-scale, scale)
        collision = mpf(10) ** (-(digits + TARGET_MARGIN))
        out = []
        prev = None
        for pair in pairs:
            for t, s in zip(pair, scales):
                if prev is not None and t - prev <= collision:
                    if t < prev:
                        raise SolverError("zero ladders do not interleave at a=%s" % a)
                    raise SolverError(
                        "zeros of the two ladders collide at %s (a=%s)"
                        % (mp.nstr(prev, 15), a)
                    )
                out.append(s * t)
                prev = t
        with mp.workdps(digits + _LADDER_TAIL_GUARD):
            up = _ladder_tail(psi_plus, k_plus, digits)
            down = _ladder_tail(psi_minus, k_minus, digits)
        tail = SummationTail(
            value=up.value - down.value,
            bound=up.bound + down.bound,
            order=max(up.order, down.order),
        )
        return a * scale, out, tail


def _summation_head(digits: int) -> int:
    """Zeros each summation check sums directly, 2 digits + 40 (half of
    them of each sign in the second system).  Past them the tail series
    reach 10^-(digits+5) at an order of about digits / 2 + 4; heads of
    3 digits + 60 and 4 digits + 80 were no faster at 30 and 50 digits."""
    return 2 * digits + 40


def check_summation(consts: ExtremalConstants) -> list:
    """The summation identity on two zero systems, as tuples (defect,
    zeros, tail, drift): first the signed zeros of the zero model at
    a = 2 a* / pi, with drift None, then summation_system at matrix drift
    1, to the certified digits, both at the zero model's dps.

    Each sums a head of _summation_head zeros directly and the zeros past
    it in closed form, as power series in the inverse lattice point whose
    class sums are Hurwitz zeta values.  The first system's tail bound
    rests on the offset coefficients' majorant, checked on the computed
    coefficients only; the second system's is an estimate.
    """
    digits = consts.digits_certified
    head = _summation_head(digits)
    model = build_zero_model(consts)
    with mp.workdps(model.dps):
        a = 2 * mpf(consts.a_star) / mp.pi
        zeros = zeros_signed(model, head)
        tail = zero_model_tail(model, head)
        out = [(summation_check(a, zeros, tail), zeros, tail, None)]
        drift = mpf(1)
        a, zeros, tail = summation_system(drift, head // 2, digits)
        out.append((summation_check(a, zeros, tail), zeros, tail, drift))
    return out


_BETA_TAIL_MARGIN = 7
_BETA_SUM_GUARD = 25


def constant_from_zeros_alternating(consts: ExtremalConstants):
    """The central constant from 1/C = 2 + 4 sum_n (-1)^n (n + 1/2 - tau_n).

    The alternating sum collapses through the offset expansion to
    sum_m a_m 2^m (beta(m) - 1) with Dirichlet beta, so no zeros are
    evaluated at all; the remainder past M is below 3^-M / 4, which M puts
    under 10^-(digits + _BETA_TAIL_MARGIN), a bound.  The sum runs at
    digits + _BETA_SUM_GUARD, which covers its rounding over M terms;
    nothing backs the 25.
    """
    digits = consts.digits_certified
    M = int((digits + _BETA_TAIL_MARGIN) / 0.477) + 2
    rho = offset_coefficients(consts, M)
    with mp.workdps(digits + _BETA_SUM_GUARD):
        total = mpf(0)
        for m in range(1, M + 1):
            a_m = rho[m - 1]
            if a_m == 0:
                continue
            total += a_m * mpf(2) ** m * (beta_numeric(m) - 1)
        return 1 / (2 + 4 * total)


# ----------------------------------------------------------------------
# export tables


def zero_table(model: ZeroModel, count: int):
    """(n, tau_n, method) for n = 1..count, made as they are read; method
    is "newton" on the refined head and "series" past the crossover n0.

    One block at the model's dps spans the whole table, not one a row (an
    enter and exit costs 2 to 3 us, half a second over 200000 rows), so a
    reader formatting the rows between them runs at that precision too."""
    with mp.workdps(model.dps):
        for n in range(1, count + 1):
            yield n, tau(model, n), "newton" if n <= model.n0 else "series"


def series_table(consts: ExtremalConstants, what: str, terms: int) -> list:
    """Coefficients 0..n, lowest power first, of the export target `what`,
    `terms` its --terms or None: the Taylor series of the minimizer
    (taylor-phi) or of the factor (taylor-Phi), n = terms or 24, or the
    offset series rho, 0 then a_1..a_M, M = terms or zero_model_order's
    order at the certified digits.  The minimizer's model of T pairs holds
    2T + 1 coefficients and the factor's of order T, T + 1; each takes
    T >= 2."""
    if what == "rho":
        M = terms if terms is not None else zero_model_order(consts.digits_certified)
        return [mpf(0)] + offset_coefficients(consts, M)
    n = terms if terms is not None else 24
    if what == "taylor-phi":
        model = taylor_extremal(consts, max(2, n // 2 + 1))
    else:
        model = taylor_factor(consts, max(2, n))
    return model.coeffs[: n + 1]
