"""Fourier side of the extremal reconstruction.

The even extremal function (type pi, value 1 at the origin) has a real,
even Fourier transform supported on (-pi, pi).  In the normalized
frequency u = xi / pi the transform is computed two independent ways:

* a series in powers of (1 - u) whose n-th coefficient is built from
  the (n-1)-st Taylor coefficient of the square of the entire factor,
  converging on the whole band including the endpoints;

* an even Legendre expansion whose coefficients come straight from the
  ground eigenvector, through the triangular change of basis between
  even monomials and spherical Bessel functions.

Agreement of the two is one of the strongest end-to-end checks in the
package, since they consume different spectral data (Taylor recursion
versus eigenvector) and different basis machinery.  Both the Clenshaw
sum of the Legendre expansion and the least-squares fit of the endpoint
constants of the factor's reflection law are computed here, the latter
on the reflection samples of :mod:`pwextremal.extremal`.

Everything here stays inside the band.  The transform convention is
F(xi) = integral f(x) exp(-i xi x) dx, so the value at u = 0 is the
integral of the function and the normalized mean over the band is 1.
"""

import math

from mpmath import mp, mpf

from .mpcore import (
    ESTIMATE_DPS,
    MAX_PAIRS,
    MAX_WINDOW,
    TARGET_MARGIN,
    SolverError,
    UsageError,
    series_eval,
    series_multiply,
)
from .spectral import ExtremalConstants
from .extremal import (
    _TAYLOR_GUARD,
    REFLECTION_GUARD,
    _reflection_samples,
    taylor_extremal,
    taylor_factor,
)


# The band transform's guards.  Its coefficients are made at digits +
# _TRANSFORM_GUARD, from a factor model as precise: the factorial weights
# and window_basis_coefficients magnify their errors; nothing backs the
# 35, and _value_error_on_nodes carries the error it leaves.  Its series
# order clears 10^-(digits + _TRANSFORM_TAIL_MARGIN) in a term that bounds
# no error, a choice that fixes the export h payload.  A value of it is
# summed at _VALUE_GUARD digits past those asked for, which covers the
# rounding of that sum; for transform_value, _value_error_on_nodes bounds
# it.
_TRANSFORM_GUARD = 35
_TRANSFORM_TAIL_MARGIN = 12
_VALUE_GUARD = 20


class BandTransform:
    """Transform of the even extremal function on its band.

    coeffs[n] multiplies (1 - u)^n for n >= 1 (entry 0 is unused and
    kept at zero); value(u) is a Horner evaluation in t = 1 - u.  The
    series terminates at u = 1 by construction, so the endpoint value
    there is exactly zero; vanishing at u = -1 is a nontrivial property
    of the coefficients and is checked, not imposed.
    """

    def __init__(self, coeffs: list, C: mpf, digits: int):
        self.coeffs, self.C, self.digits = coeffs, C, digits

    @property
    def terms(self) -> int:
        return len(self.coeffs) - 1


def _transform_terms(digits: int, C) -> int:
    """Series order of the band transform: the first n >= 8 at which
    pi (2 pi / C)^(n-1) / (n! (n-1)!) falls below
    10^-(digits + _TRANSFORM_TAIL_MARGIN), from
    the closed-form log10 of that term.

    That term is (C/2) 2^n times the coefficient bound of
    _value_error_on_nodes and bounds no error; _value_error_on_nodes does.
    The rule fixes the default order, and so the `export h` payload.
    """
    log_ratio = math.log10(2 * math.pi / float(C))
    for n in range(8, 400):
        log_term = math.log10(math.pi) + (n - 1) * log_ratio
        log_size = log_term - (math.lgamma(n + 1) + math.lgamma(n)) / math.log(10)
        if log_size < -(digits + _TRANSFORM_TAIL_MARGIN):
            return n
    raise SolverError("transform series did not reach the tail target")


def build_band_transform(consts: ExtremalConstants, terms: int = None) -> BandTransform:
    """Series for the transform in powers of (1 - u), u the frequency / pi.

    The n-th coefficient is pi / (n! (2C)^n) times the (n-1)-st Taylor
    coefficient of the squared factor, assembled at a working precision
    that keeps the certified digits after the factorial weights, from a
    factor model as precise (window_basis_coefficients magnifies errors).

    The factor's coefficients c_k fall like (pi/2)^k / k!, so the absolute
    bound of mpcore.series_multiply, 4N max|c|^2 2^-(prec+64), lies far
    above the late squared coefficients, which export h prints to every
    significant digit.  The product therefore runs wider, by the bits from
    max|c|^2 down to |c_0| min|c|: that puts the bound at
    4N 2^-(prec+64) |c_0 c_n| (1 + 2^-prec) at every n, a term of the
    coefficient's own sum, so the n-th coefficient is as accurate,
    relative to its sum of |c_i c_(n-1-i)|, as one mpf rounding.
    """
    digits = consts.digits_certified
    N = terms if terms is not None else _transform_terms(digits, consts.C)
    if N < 2:
        raise UsageError("terms must be at least 2")
    wd = digits + _TRANSFORM_GUARD
    factor = taylor_factor(consts, N + 1, digits=wd)
    with mp.workdps(factor.dps):
        c = factor.coeffs[:N]
        mags = [mp.mag(x) for x in c if x]  # 2^(mag-1) <= |x| < 2^mag
        with mp.workprec(mp.prec + 2 * max(mags) - mp.mag(c[0]) - min(mags) + 2):
            squared = series_multiply(c, c, N)
    with mp.workdps(wd):
        C = 1 / (2 * factor.a)
        coeffs = [mpf(0)]
        weight = mpf(1)
        for n in range(1, N + 1):
            weight /= 2 * C * n
            coeffs.append(mp.pi * squared[n - 1] * weight)
    return BandTransform(coeffs=coeffs, C=C, digits=digits)


def transform_value(model: BandTransform, u, digits: int = None):
    """The band transform at normalized frequency u: series_eval in t = 1 - u."""
    with mp.workdps(max(model.digits, digits or 0) + _VALUE_GUARD):
        return series_eval(model.coeffs, 1 - mp.mpmathify(u))


def parseval_defect(model: BandTransform):
    """|normalized band mean - 1|; the mean equals the value at the origin.

    Term-wise integration of (1 - u)^n over the band gives 2^{n+1}/(n+1),
    so the defect is computed exactly from the coefficients with no
    quadrature involved.
    """
    with mp.workdps(model.digits + _VALUE_GUARD):
        total = mp.fsum(
            model.coeffs[n] * mpf(2) ** (n + 1) / (n + 1)
            for n in range(1, model.terms + 1)
        )
        return abs(total / 2 - 1)


# ----------------------------------------------------------------------
# Legendre representation from the ground eigenvector


def _double_factorial_log10(n: int) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma((n - 1) // 2 + 1) - ((n - 1) // 2) * math.log(2)
    ) / math.log(10)


def default_pairs(digits: int) -> int:
    """Pair count legendre_band_coefficients takes when none is given."""
    return digits // 3 + 8


# The forward substitution runs at digits plus its amplification estimate
# plus _LEGENDRE_GUARD, which covers the rounding the estimate leaves out,
# and once more _LEGENDRE_SECOND_PASS digits higher; the two passes must
# agree to 10^-(digits + TARGET_MARGIN), which checks the first.  Nothing
# backs the 35 or the 48.
_LEGENDRE_GUARD = 35
_LEGENDRE_SECOND_PASS = 48


def legendre_band_coefficients(consts: ExtremalConstants, pairs: int = None) -> list:
    """Even Legendre coefficients of the band transform, from the eigenvector.

    Rescaling the even extremal function to exponential type 1 makes its
    transform live on (-1, 1); expanding the plane wave in Legendre
    polynomials turns the Taylor coefficients (which the ground
    eigenvector gives in closed form) into spherical-Bessel expansion
    coefficients by a triangular system, and those are, up to alternating
    signs, exactly the Legendre coefficients of the transform.

    Returns the full list d_0, 0, d_2, 0, ... suitable for Clenshaw
    evaluation; d_0 = 1 holds identically (the normalized band mean).
    The forward substitution runs at two working precisions, and the
    coefficients must agree to an absolute 10^-(digits + TARGET_MARGIN);
    that is all they are known to, however small an entry is (export
    legendre prints them down to that place).
    """
    digits = consts.digits_certified
    K = pairs if pairs is not None else default_pairs(digits)
    if K < 2:
        raise UsageError("pairs must be at least 2")
    if K > MAX_PAIRS:
        raise UsageError("pairs beyond %d exceeds the supported range" % MAX_PAIRS)
    # precision budget: the triangular substitution multiplies by (4m+1)!!
    # while the incoming terms carry (2C/pi)^m, and the bracket cancels
    # down to the final coefficient size
    amplify = max(
        _double_factorial_log10(4 * m + 1) - m * 0.46 for m in range(1, K + 1)
    )
    wd = digits + int(amplify) + _LEGENDRE_GUARD
    first = _legendre_forward(consts, K, wd)
    second = _legendre_forward(consts, K, wd + _LEGENDRE_SECOND_PASS)
    tol = mpf(10) ** (-(digits + TARGET_MARGIN))
    with mp.workdps(wd):
        worst = max(abs(a - b) for a, b in zip(first, second))
        if worst > tol:
            raise SolverError(
                "legendre coefficients unstable between precisions (%s)"
                % mp.nstr(worst, 3)
            )
        if abs(first[-1]) > tol or abs(first[-3]) > tol:
            raise SolverError("legendre tail has not converged; increase pairs")
    return second


def _legendre_forward(consts: ExtremalConstants, K: int, wd: int) -> list:
    """One forward-substitution pass at working precision wd, on the even
    minimizer's Taylor coefficients (extremal.taylor_extremal, whose frame
    is asked for wd digits) rescaled to type 1 by pi^{-2m}."""
    model = taylor_extremal(consts, K, digits=wd - _TAYLOR_GUARD)
    with mp.workdps(wd):
        shrink = mp.pi ** -2
        bessel_coeffs = []
        for m in range(K + 1):
            acc = model.coeffs[2 * m] * shrink ** m
            for k in range(m):
                j = m - k
                acc -= (
                    bessel_coeffs[k]
                    * (-1) ** j
                    / (mpf(2) ** j * mp.factorial(j) * mp.fac2(2 * m + 2 * k + 1))
                )
            bessel_coeffs.append(acc * mp.fac2(4 * m + 1))
        out = []
        for k in range(K + 1):
            out.append((-1) ** k * bessel_coeffs[k])
            out.append(mpf(0))
        out.pop()
        return out


def legendre_band_value(coeffs: list, u):
    """sum_k coeffs[k] P_k(u) by Clenshaw's backward recurrence."""
    b1 = mpf(0)
    b2 = mpf(0)
    for k in range(len(coeffs) - 1, -1, -1):
        b1, b2 = (
            coeffs[k] + mpf(2 * k + 1) / (k + 1) * u * b1 - mpf(k + 1) / (k + 2) * b2,
            b1,
        )
    return b1


# ----------------------------------------------------------------------
# endpoint reflection constants


def endpoint_reflection_constants(consts: ExtremalConstants):
    """The two complex endpoint constants of the factor's reflection law,
    by least squares against the functional equation (nothing is assumed
    about their closed form).

    Writes z F(z) e^{1/(4Cz)} = k_plus e^{-i pi z/2} F(i/(2 pi C z))
    + k_minus e^{+i pi z/2} F(-i/(2 pi C z)) and solves the 2x2 complex
    normal equations over 24 points on the self-dual circle, six
    quarter-turn orbits (see extremal._reflection_samples), to the
    certified digits.  The constants must come out as complex conjugates
    on the quarter diagonals, k_pm = e^{+-i pi/4} / sqrt(4 pi C), with
    k_plus^2 - k_minus^2 = i / (2 pi C) and
    k_plus e^{i pi/4} + k_minus e^{-i pi/4} = 0.
    """
    _C, samples = _reflection_samples(consts, 24, 41)
    with mp.workdps(consts.digits_certified + REFLECTION_GUARD):
        m00 = m01 = m11 = rhs0 = rhs1 = mp.mpc(0)
        for z, fz, ez, g_plus, g_minus in samples:
            y = z * fz * ez
            m00 += mp.conj(g_plus) * g_plus
            m01 += mp.conj(g_plus) * g_minus
            m11 += mp.conj(g_minus) * g_minus
            rhs0 += mp.conj(g_plus) * y
            rhs1 += mp.conj(g_minus) * y
        m10 = mp.conj(m01)
        det = m00 * m11 - m01 * m10
        k_plus = (rhs0 * m11 - m01 * rhs1) / det
        k_minus = (m00 * rhs1 - m10 * rhs0) / det
    return k_plus, k_minus


# ----------------------------------------------------------------------
# identity checks, at the certified digits plus REFLECTION_GUARD


def check_transform_routes(consts: ExtremalConstants):
    """(terms, route, edge, mean): the band series' order, the largest
    |band series - Legendre expansion| on the 11 points u = -1, -4/5, .., 1,
    the larger |transform| at u = +-1, where it must vanish, and the
    parseval_defect of the band mean."""
    band = build_band_transform(consts)
    leg = legendre_band_coefficients(consts)
    with mp.workdps(consts.digits_certified + REFLECTION_GUARD):
        grid = [mpf(k) / 5 - 1 for k in range(11)]
        route = max(abs(transform_value(band, u) - legendre_band_value(leg, u)) for u in grid)
        edge = max(abs(transform_value(band, 1)), abs(transform_value(band, -1)))
        return band.terms, route, edge, parseval_defect(band)


def check_endpoint_relations(consts: ExtremalConstants):
    """The largest defect of the three relations of the endpoint constants:
    k_plus^2 - k_minus^2 = i / (2 pi C),
    k_plus e^{i pi/4} + k_minus e^{-i pi/4} = 0 and
    |k_plus| = 1 / sqrt(4 pi C)."""
    with mp.workdps(consts.digits_certified + REFLECTION_GUARD):
        k_plus, k_minus = endpoint_reflection_constants(consts)
        C = mpf(consts.C)
        return max(
            abs(k_plus ** 2 - k_minus ** 2 - mp.j / (2 * mp.pi * C)),
            abs(k_plus * mp.exp(mp.j * mp.pi / 4) + k_minus * mp.exp(-mp.j * mp.pi / 4)),
            abs(abs(k_plus) - 1 / mp.sqrt(4 * mp.pi * C)),
        )


# ----------------------------------------------------------------------
# even-window basis


# The window fit reads the transform at _FIT_VALUE_EXTRA digits past the
# certified ones, and solves at digits + 3 K + _FIT_GUARD: 3 K digits for
# the fit matrix's conditioning, which grows with K (||A^+||_2 is 57,
# 1.2e10 and 8.8e28 at K = 4, 15 and 40), and the guard for the rest.
# What backs them is the error bound the fit returns; nothing backs the
# 10 or the 40 themselves.
_FIT_VALUE_EXTRA = 10
_FIT_GUARD = 40


def _value_error_on_nodes(model: BandTransform):
    """Bound on the error of transform_value(model, u, digits +
    _FIT_VALUE_EXTRA) for u in [0, 1], where |1 - u| <= 1, from the bound
    pi^n / (C^n (n-1)! n!) on the n-th coefficient (not proved; a test
    checks it on every computed one at 30 and 100 digits): that bound
    summed past model.terms (the terms fall like 1/n!^2); the
    coefficients' own error, a relative 10^-(digits + _TRANSFORM_GUARD)
    (the working digits of build_band_transform and of its factor model)
    of the bound summed up to model.terms; and Horner's rounding in
    transform_value, 2 (terms + 1) units of its last place times
    sum |h_n|.  It is summed at ESTIMATE_DPS, in mpf: its terms leave the
    range of floats.
    """
    N, digits = model.terms, model.digits
    horner_dps = digits + _FIT_VALUE_EXTRA + _VALUE_GUARD
    with mp.workdps(ESTIMATE_DPS):
        q = mp.pi / mpf(model.C)
        head = tail = mpf(0)
        term, n = q, 1  # the bound at n
        while n <= N or term > tail * mpf(10) ** -20:
            if n <= N:
                head += term
            else:
                tail += term
            term *= q / (n * (n + 1))
            n += 1
        magnitude = mp.fsum(abs(h) for h in model.coeffs)
        return (
            tail
            + head * mpf(10) ** -(digits + _TRANSFORM_GUARD)
            + 2 * (N + 1) * magnitude * mpf(10) ** -horner_dps
        )


def window_basis_coefficients(model: BandTransform, K: int):
    """Least-squares fit of the transform onto (1 - u^2)^n, n = 1..K:
    (the coefficients of n = 1..K, an absolute bound on their error).

    The fit runs on max(3K, 48) Chebyshev nodes of [0, 1]; evenness makes
    the negative half redundant.  Low K gives the classic short window
    ansatz whose quality is measured, not assumed; K around half the
    certified digits reaches the precision floor.

    The bound is ||A^+||_2 sqrt(points) e, A the fit matrix and e the
    bound of _value_error_on_nodes on each fitted value: the
    least-squares solution moves by at most ||A^+||_2 times the 2-norm
    of an error in the fitted values.  At 30 digits e is 4.0e-57.
    ||A^+||_2 = 1/sigma_min(A) is read off the singular values of A; it
    is 57, 1.2e10 and 8.8e28 at K = 4, 15 and 40.  The fit's own
    rounding, at 3K + _FIT_GUARD digits past the certified ones, lies far
    below.
    """
    if K < 1:
        raise UsageError("K must be at least 1")
    if K > MAX_WINDOW:
        raise UsageError("K beyond %d exceeds the supported range" % MAX_WINDOW)
    digits = model.digits
    points = max(3 * K, 48)
    with mp.workdps(digits + 3 * K + _FIT_GUARD):
        nodes = [mp.cos(mp.pi * (2 * i + 1) / (4 * points)) for i in range(points)]
        A = mp.matrix(points, K)
        b = mp.matrix(points, 1)
        for i, u in enumerate(nodes):
            t = 1 - u * u
            power = mpf(1)
            for n in range(K):
                power *= t
                A[i, n] = power
            b[i] = transform_value(model, u, digits=digits + _FIT_VALUE_EXTRA)
        solution, _qr_residual = mp.qr_solve(A, b)
        amplify = 1 / min(mp.svd_r(A, compute_uv=False))
        error = amplify * mp.sqrt(points) * _value_error_on_nodes(model)
        return [solution[n] for n in range(K)], error
