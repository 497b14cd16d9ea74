"""Tridiagonal spectral solver for the extremal constants.

The extremal constant C and the companion value L1 (the derivative of the
entire factor at the origin) are obtained from a one-parameter family of
tridiagonal eigenproblems.  In the b=1 frame the operator acts on Legendre
coefficients through the infinite tridiagonal matrix with row m

    sub(m) = -a m/(2m-1),   diag(m) = m(m+1),   super(m) = a (m+1)/(2m+3),

and the solver's job is:

1. truncate the matrix to rows 0..N, with N chosen before the solve;
2. find the coupling a and the smallest eigenvalue lambda of the
   truncation at which the alternating Legendre-endpoint sum
   S = sum_n (-1)^{floor((n-1)/2)} xi_n of the ground eigenvector
   vanishes (this is the phase condition selecting the extremal
   eigenfunction);
3. convert: C = pi/(4a) and L1 = -2 C lambda.

The eigenvector is the minimal solution of the three-term recurrence that
defines the matrix (Gautschi, SIAM Rev. 9, 1967), so for a trial
(a, lambda) one backward sweep over rows N..1, started from xi_{N+1} = 0
and xi_N = 1, yields it; for 0 < a < 3/2 and lambda < 2 - a every term of
that sweep is positive, so it runs without cancellation.  Row 0, which
the sweep leaves out, is the eigen-condition g(a, lambda) = 0.  The sweep
carries the derivatives of its entries in lambda and, since sub and sup
are linear in a, in a, and sums S and its two derivatives as it goes, so
one sweep gives both equations g = 0 and S = 0 and their Jacobian.

Step 2 is Newton on that 2x2 system with precision doubling
(mpcore.newton): a seed from the bracket midpoint at 20 digits and a
small N, then one sweep per step at twice the digits the last step is
known to hold, up to the working precision; there the first step within
the noise floor 10^-(dps-6) of S, from an iterate made at that
precision, ends the solve.  The sweep at the final iterate is the
eigenpair.  With a fixed, ground_eigenpair runs the same loop on g alone.

Step 1 rests on the decay of the eigenvector: the root moves with N by
about the last entry xi_N (measured: 1e-31, 1e-78, 1e-191, 1e-454 at
N = 16, 32, 64, 128 against 1e-29, 1e-75, 1e-187, 1e-449 for xi_N), and
log10 |xi_N| is close to N log10(a/2) - 2 log10 N!.  N is taken where that
estimate, at a = 3/2, clears the digit goal; it is an estimate of the
tail, not a proved bound on the truncation error.

The sweep and the residual gate run on Python integers, in block fixed
point with guard bits past the ambient mpmath precision (see _sweep and
_checked_pair), and hand back mpf values rounded to it; the rest runs in
mpf at that precision.  The callers set it: solve_constants to digits
plus guard for each of its two runs, and in extremal
refined_spectral_frame around _side_root, taylor_extremal around its
re-sweep by _sweep and _eigen_bessel_coefficients around
ground_eigenpair.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from mpmath import mp, mpf
from mpmath.libmp import mpf_div, mpf_rdiv_int, to_fixed

from .mpcore import _SEED_DPS, TARGET_MARGIN, SolverError, UsageError, bracketed_step, newton


# ----------------------------------------------------------------------
# matrix construction


class TridiagonalSystem:
    """Truncated (N+1)x(N+1) tridiagonal matrix in the b=1 frame: rows
    0..N of the matrix in the module docstring at coupling a."""

    def __init__(self, N: int, a):
        if N < 2:
            raise UsageError("N must be at least 2")
        self.N, self.a = N, mpf(a)


class EigenPair:
    """Eigenvalue lam, eigenvector xi normalized xi[0] = 1 (a list, or the
    _SweptVector of a sweep until a caller stores it) and the residual
    ||(T - lam) xi|| / ||xi|| it was checked at."""

    def __init__(self, lam: mpf, xi: Sequence, residual: mpf):
        self.lam, self.xi, self.residual = lam, xi, residual


# The precision schedule.  The side-condition root is swept on _SEED_N
# rows at _SEED_DPS; solve_constants searches it in _BRACKET, works at
# _GUARD digits past the request (twice that in its second run),
# truncates at twice the first power of two from _N_FLOOR whose tail
# clears its digits, and no truncation passes _N_CAP.
_BRACKET = ("1.44", "1.46")
_GUARD = 18
_SEED_N = 32
_N_FLOOR = 64
_N_CAP = 4096

# The sweep's fixed point: guard bits past the working precision and the
# bit length of N, and the headroom above them that its state may grow
# into before it is shifted down.
_SWEEP_GUARD_BITS = 10
_SWEEP_HEADROOM_BITS = 64

# Digits under the working dps that the solve's tolerances give up.
# _SIDE_NOISE: S sums the N + 1 entries of the sweep with alternating
# signs, and the root's Newton ends at a step within 10^-(dps-6), its
# noise floor; the root it leaves is taken to hold dps - 6 digits.
# _RESIDUAL_LOSS: the eigenpair residual gate of _checked_pair.
# _EIGEN_STEP_LOSS: the step that ends ground_eigenpair's Newton on g.
# None of the three is derived from a bound; the residual gate checks
# every pair the solve ends on.
_SIDE_NOISE = 6
_RESIDUAL_LOSS = 5
_EIGEN_STEP_LOSS = 2

# solve_constants' two runs agree to 10^-(digits + _AGREEMENT_MARGIN); the
# margin keeps their difference under the last certified digit, a choice
# that nothing backs.
_AGREEMENT_MARGIN = 1


# ----------------------------------------------------------------------
# the backward sweep


def _side_sign(n: int) -> int:
    """Sign of xi_n in the side condition S: -,+,+,-,-,+,... from n = 0."""
    return -1 if ((n - 1) // 2) % 2 else 1


class _SweptVector(Sequence):
    """The entries xi_0..xi_N a sweep stored, as integers: xi_m is
    proportional to man[m] 2^exp[m], man[m] a mantissa of frac (the
    sweep's F) bits or more.  Reading entry m gives it as an mpf
    normalized to xi_0 = 1, rounded to the ambient precision from within
    2^-(frac-1) relative; a sweep whose vector no caller reads converts
    nothing.
    """

    def __init__(self, man, exp, frac):
        self.man, self.exp, self.frac = man, exp, frac
        self._scale = frac + man[0].bit_length()
        self._inv = (1 << self._scale) // man[0]  # 2^scale / xi_0, >= 2^(frac-1)

    def __len__(self):
        return len(self.man)

    def __getitem__(self, m):
        return mpf((self.man[m] * self._inv, self.exp[m] - self.exp[0] - self._scale))


def _sweep(sys: TridiagonalSystem, lam):
    """Rows N..1 of (T - lam) xi = 0 solved downward, in block fixed point.

    lam is an mpf, taken at its own precision.  Returns (xi, g, g_lam,
    (g_a, S, S_lam, S_a)).  xi is the _SweptVector of the sweep, read
    normalized xi[0] = 1; it satisfies rows 1..N to the rounding below.
    Row 0 is left over as g = -lam + sup(0) xi_1/xi_0, which vanishes
    exactly at an eigenvalue of the truncation; g_lam is its
    lam-derivative, carried through the same recurrence.  The sweep also
    carries the a-derivative and sums the side condition S and its
    partials over the unnormalized entries as it goes, so no derivative
    vector is stored; xi, g and g_lam do not read that state.

    Row m, divided by its sub-diagonal entry, reads

        xi_{m-1} = (2m-1) ((2m+3) (c/a) xi_m + (m+1) xi_{m+1}) / ((2m+3) m),

    c = m(m+1) - lam: up(m)/low(m) is an exact rational, and c/a =
    m(m+1) alpha - nu in alpha = 1/a and nu = lam/a.  In those two
    parameters c/a is linear with the exact slopes m(m+1) and -1, so the
    sweep carries the derivatives in alpha and nu, and the chain rule
    turns them into the a- and lam-derivatives after row 1.  A row costs
    one big product per carried quantity, small-integer products and one
    division by the small integer (2m+3) m.

    Number format: integers scaled by 2^F, F = prec + bitlen(N) +
    _SWEEP_GUARD_BITS guard bits; alpha and nu are rounded to F bits once.
    The carried state (xi_m, xi_{m+1}, their nu- and alpha-derivatives, S
    and its two partials) shares one binary exponent.  Renormalisation:
    the state is linear in the start vector xi_N = 1, xi_{N+1} = 0, so when
    xi_m passes F + _SWEEP_HEADROOM_BITS bits the whole state is shifted
    down together until xi_m has F + 1.  Each stored entry keeps the
    exponent of its block, so every xi_m keeps F bits relative to itself,
    however far below xi_0 it lies (taylor_extremal reads small entries
    to a relative precision).

    Rounding, an estimate rather than a proved bound: each row truncates
    by under three units of its block, and alpha and nu are off by under
    two units, which moves each row's c/a by a few units of 2^-F relative.
    The sweep runs in the direction in which xi, the minimal solution, is
    the dominant one (Gautschi 1967), so an error once made is carried
    along at the relative size it had.  Summed over the N rows, xi_m is
    within about 3 N 2^-F < 2^-(prec + _SWEEP_GUARD_BITS - 2) relative,
    and g, S and their partials within as much relative to the largest
    terms they are made of; they are then rounded to the working precision.
    """
    N = sys.N
    F = mp.prec + N.bit_length() + _SWEEP_GUARD_BITS
    top = F + _SWEEP_HEADROOM_BITS
    a = sys.a
    alpha = to_fixed(mpf_rdiv_int(1, a._mpf_, F), F)
    nu = to_fixed(mpf_div(lam._mpf_, a._mpf_, F), F)
    x, x_up = 1 << F, 0  # xi_m, xi_{m+1}; xi_{N+1} = 0 drops sup(N)
    dx, dx_up = 0, 0  # their derivatives in nu
    ex, ex_up = 0, 0  # and in alpha
    s, ds, es = _side_sign(N) * x, 0, 0  # S and partials, times xi_0
    shift = 0
    man, exp = [x], [shift]
    for m in range(N, 0, -1):
        k = m * (m + 1) * alpha - nu  # c/a
        odd, p, q = 2 * m - 1, 2 * m + 3, m * (2 * m + 3)
        ex, ex_up = (
            odd * (p * ((k * ex >> F) + m * (m + 1) * x) + (m + 1) * ex_up) // q,
            ex,
        )
        x, x_up, dx, dx_up = (
            odd * (p * (k * x >> F) + (m + 1) * x_up) // q,
            x,
            odd * (p * ((k * dx >> F) - x) + (m + 1) * dx_up) // q,
            dx,
        )
        if _side_sign(m - 1) > 0:
            s, ds, es = s + x, ds + dx, es + ex
        else:
            s, ds, es = s - x, ds - dx, es - ex
        if x.bit_length() > top:
            t = x.bit_length() - F - 1
            x, x_up, dx, dx_up = x >> t, x_up >> t, dx >> t, dx_up >> t
            ex, ex_up, s, ds, es = ex >> t, ex_up >> t, s >> t, ds >> t, es >> t
            shift += t
        man.append(x)
        exp.append(shift)
    man.reverse()
    exp.reverse()
    xi = _SweptVector(man, exp, F)
    # row 0 from xi_1/xi_0 = r and its partials in nu and alpha, each a
    # difference of exact integer products, rounded once; d/dlam = d/dnu / a
    # and d/da = -(d/dalpha + lam d/dnu) / a^2
    xx = x * x
    r = mpf(x_up) / x
    r_nu = mpf(dx_up * x - x_up * dx) / xx
    g = -lam + a * r / 3
    g_lam = -1 + r_nu / 3
    r_alpha = mpf(ex_up * x - x_up * ex) / xx
    g_a = (r - (r_alpha + lam * r_nu) / a) / 3
    S = mpf(s) / x
    S_nu = mpf(ds * x - s * dx) / xx
    S_alpha = mpf(es * x - s * ex) / xx
    return xi, g, g_lam, (g_a, S, S_nu / a, -(S_alpha + lam * S_nu) / (a * a))


def _where(N: int, a, lam) -> str:
    fields = (N, mp.dps, mp.nstr(mpf(a), 20), mp.nstr(mpf(lam), 20))
    return "at N=%d, %d dps, a=%s, lambda=%s" % fields


def _checked_pair(sys: TridiagonalSystem, lam, xi: _SweptVector) -> EigenPair:
    """(lam, xi) from a sweep, once ||(T - lam) xi|| / ||xi|| <= 10^-(dps-5)
    and lam lies in [0, a/3], where for 0 < a < 3/2 the ground eigenvalue
    is the only one.  The signs of xi need no check: at lam < 2 every row
    of the sweep adds positive multiples of xi_m and xi_{m+1} (c/a =
    (m(m+1) - lam)/a > 0 for m >= 1), so no entry it stores is negative.

    The residual is evaluated on the sweep's integers: its entries on the
    scale of xi_0 (those below one unit of it read as 0), a and lam cut to
    the sweep's F fraction bits (exact for values of the working precision
    above 2^-(F-prec)), and row m times (2m-1)(2m+3), which makes the
    matrix rationals integers:

        -a m(2m+3) xi_{m-1} + (2m-1)(2m+3)(m(m+1) - lam) xi_m
            + a (m+1)(2m-1) xi_{m+1}.

    Only the division of each row by its factor is truncated, by under a
    unit.  The pair keeps xi, which converts its entries to mpf only when a
    caller reads them.
    """
    F, top = xi.frac, xi.exp[0]
    y = [v >> (top - e) for v, e in zip(xi.man, xi.exp)]
    y.append(0)  # xi_{N+1} = 0, and y[-1] stands for xi_{-1} in row 0
    A, L = to_fixed(sys.a._mpf_, F), to_fixed(lam._mpf_, F)
    worst = 0
    for m in range(sys.N + 1):
        odd, p = 2 * m - 1, 2 * m + 3
        row = A * ((m + 1) * odd * y[m + 1] - m * p * y[m - 1])
        row += odd * p * ((m * (m + 1) * y[m] << F) - L * y[m])
        worst = max(worst, abs(row) // abs(odd * p))
    residual = mpf(worst) / (max(map(abs, y)) << F)
    target = mpf(10) ** (-(mp.dps - _RESIDUAL_LOSS))
    if residual > target:
        raise SolverError(
            "eigenpair residual %s exceeds %s %s; raise the working precision"
            % (mp.nstr(residual, 5), mp.nstr(target, 5), _where(sys.N, sys.a, lam))
        )
    if not 0 <= lam <= sys.a / 3:
        raise SolverError(
            "ground eigenvalue %s escaped [0, a/3] %s"
            % (mp.nstr(lam, 10), _where(sys.N, sys.a, lam))
        )
    return EigenPair(lam=lam, xi=xi, residual=residual)


def ground_eigenpair(sys: TridiagonalSystem) -> EigenPair:
    """Smallest eigenpair of the truncated system, normalized xi[0] = 1.

    mpcore.newton on the row-0 condition g of the backward sweep, from
    a/3 (holding no digits), the top of the interval [0, a/3] that holds
    the eigenvalue, inside (a - 2, 2 - a): below 2 - a the sweep is
    positive and the ground eigenvalue is the only one.  Its last step, a
    step within 10^-(dps-2), gives lambda; one more sweep there is the
    eigenvector, whose residual ||(T - lambda) xi|| / ||xi|| must reach
    10^-(dps-5).  Either failure, or no end, raises SolverError.
    """
    if not (0 < sys.a < mpf(3) / 2):
        raise UsageError("ground_eigenpair requires 0 < a < 3/2")
    step = bracketed_step(lambda x: _sweep(sys, x)[1:3], sys.a - 2, 2 - sys.a)
    lam = newton(step, sys.a / 3, 0, mpf(10) ** (-(mp.dps - _EIGEN_STEP_LOSS)))[1]
    pair = _checked_pair(sys, lam, _sweep(sys, lam)[0])
    pair.xi = list(pair.xi)
    return pair


# ----------------------------------------------------------------------
# the truncation size and the side-condition root


def _tail_log10(n: int) -> float:
    """Tail estimate log10 |xi_n| ~ n log10(a/2) - 2 log10 n! (xi_0 = 1) at
    a = 3/2, the top of the range of a where the sweep runs."""
    return n * math.log10(0.75) - 2 * math.lgamma(n + 1) / math.log(10)


def _tail_size(N: int, digits: int) -> int:
    """First of N, 2N, 4N, ... whose tail estimate |xi_N| (_tail_log10) is
    <= 10^-digits; it decays faster than any geometric sequence.  Past
    _N_CAP it raises UsageError.
    """
    while _tail_log10(N) > -digits:
        N *= 2
        if N > _N_CAP:
            raise UsageError(
                "%d digits need a truncation past N=%d" % (digits, _N_CAP)
            )
    return N


def truncation_size(digits: int) -> int:
    """N of the root solve for `digits` decimals: 2 N', where N' is the first
    power of two from _N_FLOOR whose tail estimate clears 10^-(digits+5).

    N' alone clears that estimate.  The factor two stays until the planned
    minimal truncation (ROADMAP.md, "Minimal truncation"), because halving
    N changes the payload's N field.  An N past _N_CAP, before or after
    the factor two, raises UsageError naming `digits`.
    """
    try:
        N = 2 * _tail_size(_N_FLOOR, digits + TARGET_MARGIN)
    except UsageError:
        raise UsageError(
            "%d digits need a truncation past N=%d" % (digits, _N_CAP)
        ) from None
    if N > _N_CAP:
        raise UsageError(
            "%d digits need a truncation of N=%d, past the cap N=%d"
            % (digits, N, _N_CAP)
        )
    return N


def _side_root(N: int, bracket, start):
    """Root (a, lambda) of g = S = 0 on N + 1 rows, at the ambient precision.

    Returns (a, pair), pair the ground eigenpair at a from the final sweep,
    checked by _checked_pair, its xi still the sweep's _SweptVector.
    mpcore.newton steps (a, lambda) from start = (a, lambda, the digits
    they hold), else from (m, m/3), m the bracket midpoint, holding none:
    one sweep a step, on _SEED_N rows at _SEED_DPS digits.  It ends at a
    step within 10^-(dps-6), the noise floor of S, from an iterate made at
    the ambient dps (one from a lower dps can pass that test with g above
    the gate of _checked_pair).  Sweeping an iterate outside the bracket
    or 0 <= lambda < 2 - a, or no end, raises SolverError.
    """
    dps = mp.dps
    lo, hi = mpf(bracket[0]), mpf(bracket[1])
    a, lam, held = start or ((lo + hi) / 2, (lo + hi) / 6, 0)

    def step(x):
        a, lam = x
        n = min(N, _SEED_N) if mp.dps == _SEED_DPS else N
        if not (lo <= a <= hi and 0 <= lam < 2 - a):
            raise SolverError(
                "Newton left the bracket [%s, %s] or 0 <= lambda < 2 - a %s"
                % (mp.nstr(lo, 20), mp.nstr(hi, 20), _where(n, a, lam))
            )
        sys = TridiagonalSystem(n, a)
        xi, g, g_lam, (g_a, S, S_lam, S_a) = _sweep(sys, lam)
        det = g_a * S_lam - g_lam * S_a
        da = (g * S_lam - g_lam * S) / det
        dl = (g_a * S - S_a * g) / det
        return (sys.a - da, lam - dl), max(abs(da), abs(dl)), (sys, xi)

    tol = mpf(10) ** (-(dps - _SIDE_NOISE))
    try:
        (_a, lam), _nxt, (sys, xi) = newton(step, (a, lam), held, tol)
    except SolverError as err:
        raise SolverError("side condition on N=%d rows at %d dps: %s" % (N, dps, err)) from None
    return sys.a, _checked_pair(sys, lam, xi)


# ----------------------------------------------------------------------
# public results


class ExtremalConstants:
    """Converged constants plus the spectral data behind them.

    C is the extremal constant; L1 the derivative at 0 of the entire
    factor; a_star = pi/(4C) the root of the side condition in the b=1
    frame; lambda_star = -L1/(2C) the ground eigenvalue (frame-invariant).
    The ground eigenvector is not kept: every reader asks for it past the
    certified digits, from extremal.refined_spectral_frame.  dps is the
    working precision of the solve's final run.  frame is the cache of
    extremal.refined_spectral_frame, or None: (digits, a, lambda, xi) of
    its last, most precise re-solve, a and lambda good to `digits` by a
    solve past them on an N whose tail estimate clears that, xi its
    minimal solution (Gautschi), good where the tail estimate says.  zeros
    is the cache of extremal.build_zero_model, the one zero model of these
    constants that every zero, summation and L-series check reads, or None
    until the first of them asks; its tail bound is checked when made.
    """

    def __init__(
        self, C: mpf, L1: mpf, a_star: mpf, lambda_star: mpf, N: int,
        digits_certified: int, dps: int,
    ):
        self.C, self.L1, self.a_star, self.lambda_star = C, L1, a_star, lambda_star
        self.N, self.digits_certified, self.dps = N, digits_certified, dps
        self.frame: tuple | None = None
        self.zeros: object | None = None


def solve_constants(digits: int) -> ExtremalConstants:
    """Compute the extremal constants to `digits` decimals.

    Solves the root in _BRACKET twice on N = truncation_size(digits) rows,
    at _GUARD and at 2*_GUARD extra digits; the second solve continues the
    first's Newton from its root at the higher precision.  C from the two must
    agree to 10^-(digits+1).  What that backs is that doubling the guard
    digits moves C by less than 10^-(digits+1) at this N; that N clears
    the truncation error rests on the tail estimate of truncation_size,
    not on a proved bound.
    """
    if digits < 10:
        raise UsageError("digits must be at least 10")
    N = truncation_size(digits)

    C = start = None
    for g in (_GUARD, 2 * _GUARD):
        first, dps = C, digits + g
        with mp.workdps(dps):
            a_root, pair = _side_root(N, _BRACKET, start)
            C = mp.pi / (4 * a_root)
        start = (a_root, pair.lam, dps - _SIDE_NOISE)

    with mp.workdps(dps):
        disagreement = abs(first - C)
        allowed = mpf(10) ** (-(digits + _AGREEMENT_MARGIN))
        if disagreement > allowed:
            raise SolverError(
                "certification failed: runs at guard %d and %d disagree by %s"
                % (_GUARD, 2 * _GUARD, mp.nstr(disagreement, 5))
            )
        L1 = -2 * C * pair.lam
    return ExtremalConstants(
        C=C,
        L1=L1,
        a_star=a_root,
        lambda_star=pair.lam,
        N=N,
        digits_certified=digits,
        dps=dps,
    )
