"""Reference implementations that tests compare the package against.

Each one computes its quantity the plain way, apart from the package's
own kernels: the Legendre polynomials by the Bonnet recurrence, against
which the Clenshaw summation is checked, the side condition S as a sum
over a stored eigenvector, against which the backward sweep's running sum
is checked, the backward sweep itself in plain mpf arithmetic, against
which its block fixed-point kernel is checked, the summation identity as
a plain sum over an explicit zero list, against which the head-plus-tail
sums are checked, the integrality recursion in exact rational
arithmetic, against which its residues reduced coefficient by
coefficient are checked, and those residues, against which the packed
rows of the integrality scan are checked, and the Taylor coefficients of the factor and of the even
minimizer by their coefficient recursions run forward, against which the
closed form on the eigenvector and the backward factor run are checked,
the Cauchy product of two truncated power series by one mpf multiply
and one mpf add per term, the reciprocal and the cosine and sine of one
by their recurrences in mpf, rounding every term, and the
Lagrange-Buermann coefficients [z^(k+s)] f g^k stepped by those mpf
products, against which the integer kernel of mpcore's series_multiply,
series_reciprocal, series_cos_sin and series_power_diagonal is checked,
log(1+f) and exp(f) of a truncated power series by their derivative
identities, against which the binomial tail expansion of the zero model
is checked and which majorize cosine and sine of a series, the same
Lagrange-Buermann coefficients from each power formed in full in exact
rationals, against which the stepped powers are checked, and the
truncation orders of
the factor's Taylor model and of the band transform's series as
products of terms accumulated at 25 digits, the continuation order of
the L-series as a search stepping its tail term at 30 digits and the
factor's cancellation headroom at 25 digits, against which their closed
forms in floats are checked, and the brute-force tail integral of the
L-series over [a, infinity) in t itself, against which its pulled-back
form on [0, 1] is checked.
"""

import math
from fractions import Fraction

from mpmath import mp, mpf

from pwextremal import extremal, lseries
from pwextremal.extremal import _test_function
from pwextremal.lseries import _N0, _certified_tail
from pwextremal.mpcore import SolverError, UsageError


def _padded(f, n: int) -> list:
    """The coefficients of z^0 .. z^(n-1) of f as mpf values, zero past
    its end; an mpf entry is kept as it is."""
    a = [c if isinstance(c, mpf) else mpf(c) for c in f[:n]]
    return a + [mpf(0)] * (n - len(a))


def legendre_pair(n: int, x):
    """(P_n(x), P_{n-1}(x)) by the Bonnet recurrence; P_{-1} taken as 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p_prev, p = mpf(1), x
    if n == 0:
        return mpf(1), mpf(0)
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


def legendre_condition(pair) -> mpf:
    """S = sum_n (-1)^{floor((n-1)/2)} xi_n (sign pattern -,+,+,-,-,+,...)
    over the eigenvector of an EigenPair.

    The extremal parameter a is the root of S(a) = 0: vanishing of this
    alternating endpoint sum is the phase condition picking out the
    eigenfunction whose zeros interlace correctly.  The solver sums S
    inside its sweep; this is the plain sum over a stored vector.
    """
    total = mpf(0)
    for n, x in enumerate(pair.xi):
        total += -x if ((n - 1) // 2) % 2 else x
    return total


def reference_sweep(N: int, a, lam):
    """The backward sweep of spectral._sweep in plain mpf arithmetic, with
    the matrix entries of each row formed as they stand: rows N..1 of
    (T - lam) xi = 0 solved downward from xi_{N+1} = 0, xi_N = 1.

    Returns (xi, g, g_lam, (g_a, S, S_lam, S_a)) as the kernel does, xi a
    list normalized xi[0] = 1, g = -lam + sup(0) xi_1/xi_0, g_lam and g_a
    its lam- and a-derivatives, and the side condition S with its
    partials.
    """
    a, lam = mpf(a), mpf(lam)

    def sub(m):
        return -a * m / (2 * m - 1)

    def sup(m):
        return a * (m + 1) / (2 * m + 3)

    x, x_up = mpf(1), mpf(0)  # xi_m, xi_{m+1}
    dx, dx_up = mpf(0), mpf(0)  # their derivatives in lam
    ex, ex_up = mpf(0), mpf(0)  # and in a
    sign = -1 if ((N - 1) // 2) % 2 else 1
    s, ds, es = sign * x, mpf(0), mpf(0)  # S and partials, times xi_0
    tail = [x]
    for m in range(N, 0, -1):
        c, up, low = m * (m + 1) - lam, sup(m), sub(m)
        cx = c * x
        # low and up are proportional to a, so c x / (a low) is what the
        # a-dependence of the row adds to the derivative
        ex, ex_up = -(c * ex + up * ex_up - cx / a) / low, ex
        x, x_up, dx, dx_up = (
            -(cx + up * x_up) / low,
            x,
            -(c * dx - x + up * dx_up) / low,
            dx,
        )
        if ((m - 2) // 2) % 2:
            s, ds, es = s - x, ds - dx, es - ex
        else:
            s, ds, es = s + x, ds + dx, es + ex
        tail.append(x)
    g = -lam + sup(0) * x_up / x
    g_lam = -1 + sup(0) * (dx_up * x - x_up * dx) / (x * x)
    xi = [v / x for v in reversed(tail)]
    g_a = (g + lam) / a + sup(0) * (ex_up * x - x_up * ex) / (x * x)
    S = s / x
    return xi, g, g_lam, (g_a, S, (ds - S * dx) / x, (es - S * ex) / x)


def direct_summation(zeros):
    """(2 sum_mu f(mu), tail bound) over an explicit list of signed zeros,
    f = x sinc(pi x / 5)^5 the test function of the summation checks.

    |f(x)| <= K |x|^-4, K = (5/pi)^5, bounds the zeros left out by
    2 K (X^-3 / 3 + X^-4), X the largest |mu| summed.
    """
    total = 2 * mp.fsum(_test_function(mpf(mu)) for mu in zeros)
    X = max(abs(mpf(mu)) for mu in zeros)
    return total, 2 * (mpf(5) / mp.pi) ** 5 * (X ** -3 / 3 + X ** -4)


def forward_factor_coefficients(a, b, lam, T: int):
    """c_0..c_T from a(n+1) c_{n+1} = (n(n+1) - lam) c_n + b^2 c_{n-2},
    c_0 = 1, run forward.  A solution growing like n!/a^n takes over, so
    order T costs about 2 log10(T!) digits of the working precision."""
    c = [mpf(1), -lam / a]
    for n in range(1, T):
        nxt = (n * (n + 1) - lam) * c[n]
        if n >= 2:
            nxt += b * b * c[n - 2]
        c.append(nxt / (a * (n + 1)))
    return c


def forward_even_coefficients(a, b, lam, T: int):
    """u_0..u_T, the coefficients of z^0, z^2, .., z^{2T} of the even
    minimizer, from its three-term relation run forward,

        u_{n+1} = ((n(n+1) - lam) u_n + 2 b^2 n/(2n+1) u_{n-1})
                  * 2(2n+1) / (a^2 (n+1)),

    with the same loss of digits as forward_factor_coefficients."""
    u = [mpf(1), -2 * lam / (a * a)]
    for n in range(1, T):
        nxt = (n * (n + 1) - lam) * u[n] + 2 * b * b * u[n - 1] * n / (2 * n + 1)
        u.append(nxt * (2 * (2 * n + 1)) / (a * a * (n + 1)))
    return u


def recursion_polynomials(n_max: int):
    """Iterator over u_0..u_n_max, exact polynomials in (b^2, lambda).

    The recursion is the coefficient recursion of the even minimizer with
    the frame constant scaled out:

        (n+1) u_{n+1} = (4n+2) (n(n+1) - lambda) u_n + 4n b^2 u_{n-1},

    u_0 = 1, u_{-1} = 0.  Each u_n is yielded as (rows, den): rows[i][j]
    is the integer numerator of the coefficient of b^{2i} lambda^j, for
    0 <= i <= n/2 and 0 <= j <= n - 2i, and den > 0 is the least common
    denominator of the coefficients, so u_n = rows / den.
    """
    prev, prev_den = (), 1
    rows, den = ((1,),), 1
    yield rows, den
    for n in range(n_max):
        # numerator of (n+1) u_{n+1} over lcm(den, prev_den)
        common = den * prev_den // math.gcd(den, prev_den)
        drift = (4 * n + 2) * (common // den)
        constant = n * (n + 1) * drift
        shift = 4 * n * (common // prev_den)
        out = []
        for i in range((n + 1) // 2 + 1):
            row = [0] * (n - 2 * i + 2)
            if i < len(rows):
                for j, c in enumerate(rows[i]):
                    row[j] += constant * c
                    row[j + 1] -= drift * c
            if i:
                for j, c in enumerate(prev[i - 1]):
                    row[j] += shift * c
            out.append(row)
        scale = (n + 1) * common
        g = math.gcd(scale, *(c for row in out for c in row))
        prev, prev_den = rows, den
        rows = tuple(tuple(c // g for c in row) for row in out)
        den = scale // g
        yield rows, den


def series_product(f, g, T: int) -> list:
    """The coefficients of z^0 .. z^(n-1) of f g, n = min(T, len(f) +
    len(g) - 1), each summed in mpf at the ambient precision, one rounded
    multiply and one rounded add per pair of nonzero entries."""
    n = min(T, len(f) + len(g) - 1)
    out = [mpf(0)] * n
    nonzero = [(j, b) for j, b in enumerate(g[:n]) if b != 0]
    for i, a in enumerate(f[:n]):
        if a == 0:
            continue
        for j, b in nonzero:
            if i + j >= n:
                break
            out[i + j] += a * b
    return out


def series_inverse(f, T: int) -> list:
    """1/f truncated to T coefficients by its recurrence in mpf at the
    ambient precision, r_n = -(sum_{j=1}^{n} f_j r_(n-j)) / f_0, one
    rounded multiply and one rounded add per nonzero f_j; f(0) must be
    nonzero."""
    if not f or f[0] == 0:
        raise UsageError("reciprocal needs a nonzero constant term")
    inv0 = mpf(1) / f[0]
    out = [inv0] + [mpf(0)] * (T - 1)
    for n in range(1, T):
        s = mpf(0)
        for j in range(1, min(n, len(f) - 1) + 1):
            if f[j] != 0:
                s += f[j] * out[n - j]
        out[n] = -inv0 * s
    return out


def series_cos_sin(f, T: int):
    """(cos f, sin f) for f(0) = 0, through exponent T, from C' = -f' S
    and S' = f' C in mpf at the ambient precision:
    e C_e = -sum_{j=1}^{e} j a_j S_{e-j}, e S_e = sum_{j=1}^{e} j a_j C_{e-j},
    rounding every term."""
    if f and f[0] != 0:
        raise UsageError("series_cos_sin requires f(0) = 0")
    a = _padded(f, T + 1)
    C = [mpf(1)] + [mpf(0)] * T
    S = [mpf(0)] * (T + 1)
    for e in range(1, T + 1):
        c = s = mpf(0)
        for j in range(1, e + 1):
            if a[j] != 0:
                c += j * a[j] * S[e - j]
                s += j * a[j] * C[e - j]
        C[e] = -c / e
        S[e] = s / e
    return C, S


def series_log1p(f, T: int) -> list:
    """log(1+f) = sum_{k>=1} (-1)^{k+1} f^k / k for f(0) = 0, through
    exponent T.

    Computed through the derivative identity (log(1+f))' = f'/(1+f), which
    yields the same truncated series in O(T^2) coefficient operations.
    """
    if f and f[0] != 0:
        raise UsageError("series_log1p requires f(0) = 0")
    a = _padded(f, T + 1)  # a[e] = coeff of z^e in f
    # L' (1+f) = f'  with L = sum l_e z^e:
    # (e) l_e = e*a_e - sum_{j=1}^{e-1} (j l_j) a_{e-j}
    l = [mpf(0)] * (T + 1)
    for e in range(1, T + 1):
        s = e * a[e]
        for j in range(1, e):
            if l[j] != 0 and a[e - j] != 0:
                s -= j * l[j] * a[e - j]
        l[e] = s / e
    return l


def series_exp0(f, T: int) -> list:
    """exp(f) for f(0) = 0, through exponent T.

    Uses E' = f' E, so E_0 = 1 and e*E_e = sum_{j=1}^{e} j a_j E_{e-j}.
    """
    if f and f[0] != 0:
        raise UsageError("series_exp0 requires f(0) = 0")
    a = _padded(f, T + 1)  # a[e] = coeff of z^e in f
    E = [mpf(0)] * (T + 1)
    E[0] = mpf(1)
    for e in range(1, T + 1):
        s = mpf(0)
        for j in range(1, e + 1):
            if a[j] != 0 and E[e - j] != 0:
                s += j * a[j] * E[e - j]
        E[e] = s / e
    return E


def power_diagonal(f, g, shift: int, count: int) -> list:
    """[z^(k+shift)] f g^k for k < count, each power f g^k formed anew and
    in full, without truncation, by plain convolution of exact rationals."""

    def product(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    out = []
    for k in range(count):
        power = [Fraction(c) for c in f]
        for _ in range(k):
            power = product(power, g)
        out.append(power[k + shift] if k + shift < len(power) else Fraction(0))
    return out


def stepped_power_diagonal(f, g, shift: int, count: int, T: int) -> list:
    """[z^(k+shift)] f g^k for k < count, f g^k truncated to T
    coefficients and stepped from f by count - 1 products with g, each
    the mpf product series_product, so every step rounds the power to the
    ambient precision."""
    power = f
    out = [power[shift]]
    for k in range(1, count):
        power = series_product(power, g, T)
        out.append(power[k + shift] if k + shift < len(power) else mpf(0))
    return out


def truncation_orders(radius, target_exponents) -> list:
    """For each target exponent in ascending order, the smallest T >= 4
    with (pi/2 * radius)^T / T! below 10^-target: log10 of the term summed
    factor by factor at 25 digits, in one pass that serves every target
    (the first T for a larger target is never smaller)."""
    orders = []
    with mp.workdps(25):
        x = mp.pi * mpf(radius) / 2
        logterm = mpf(0)
        T = 1
        while len(orders) < len(target_exponents):
            logterm += mp.log10(x) - mp.log10(T)
            while (
                len(orders) < len(target_exponents)
                and logterm < -target_exponents[len(orders)]
                and T >= 4
            ):
                orders.append(T)
            T += 1
            if T > 100000:
                raise SolverError(
                    "no practical truncation order for radius %s" % radius
                )
    return orders


def transform_terms(digits: int, C) -> int:
    """First n >= 8, below 400, at which pi (2 pi / C)^(n-1) / (n! (n-1)!)
    falls below 10^-(digits+12), by multiplying the term up at 25 digits."""
    with mp.workdps(25):
        ratio = 2 * mp.pi / mpf(C)
        target = mpf(10) ** (-(digits + 12))
        term = mp.pi
        n = 1
        while n < 400:
            if term < target and n >= 8:
                return n
            n += 1
            term *= ratio / (n * (n - 1))
    raise SolverError("transform series did not reach the tail target")


def expansion_order(s: int, digits: int) -> int:
    """The continuation order of lseries.l_series at an integer s: J from
    max(8, |s| + 4, 2 - s) in steps of 2, the tail term of _certified_tail
    multiplied by x0^2 at each, at 30 digits, until it falls under
    10^-(digits+5); a step past 600 raises SolverError.  An odd J is
    rounded up to even."""
    with mp.workdps(30):
        target = mpf(10) ** -(digits + 5)
        J = max(8, abs(s) + 4, 2 - s)
        tail = _certified_tail(s, J, 0)[0]
        step = (2 / mpf(2 * _N0 + 3)) ** 2  # x0^2
        while tail > target:
            J += 2
            tail *= step
            if J > 600:
                raise SolverError("continuation order exceeds 600 at s=%d" % s)
    return J + J % 2


def cancellation_digits(radius) -> int:
    """The factor's cancellation headroom on |z| <= radius,
    log10 e^(pi radius / 2) truncated, plus 2, at 25 digits."""
    with mp.workdps(25):
        return int(mp.pi / 2 * mpf(radius) / mp.log(10)) + 2


def integrality_residues(n_max: int):
    """Iterator over u_0, u_1, .. modulo A_n = d_n d_{n+1} .. d_{n_max-1},
    the divisors of the steps to come, stopping after u_n_max or before
    the first u_n that is not integral; the steps are read from
    lseries._recursion_step.  rows[i][j] of u_n is the coefficient of
    b^{2i} lambda^j, 0 <= i <= n/2, 0 <= j <= n - 2i, each reduced on its
    own at every step.  Against it the packed rows of
    lseries.check_integrality are checked."""
    steps = [lseries._recursion_step(n) for n in range(n_max)]
    modulus = math.prod(d for *_, d in steps)
    rows, prev = [[1 % modulus]], []
    yield rows
    for n, (constant, drift, shift, d) in enumerate(steps):
        # row i of the numerator: row i of u_n and its lambda shift, and
        # row i - 1 of u_{n-1}
        out = []
        for r, p in zip(rows + [[]], [[0] * (n + 2)] + prev):
            row = [
                (constant * a - drift * b + shift * c) % modulus
                for a, b, c in zip(r + [0], [0] + r, p)
            ]
            if math.gcd(d, *row) != d:
                return
            out.append([c // d for c in row])
        modulus //= d
        prev, rows = rows, out
        yield rows


def brute_force_on_t(consts, kind: str, s, n_terms: int):
    """lseries.brute_force_value with its tail integral taken in t itself,
    over [a, infinity) by mp.quad's tanh-sinh rule, as it was before the
    substitution u = a/t: the same head sums, Euler-Maclaurin corrections
    and error terms.  Against it the pulled-back integral is checked."""
    zeros = extremal.build_zero_model(consts)
    resolved = min(consts.digits_certified, lseries._BRUTE_RESOLVED)
    with mp.workdps(resolved + lseries._BRUTE_GUARD):
        s_mp = mpf(s)

        def power(t):
            return extremal.tau_series(zeros, t) ** (-s_mp)

        if kind == "plus":
            total = mp.fsum(extremal.tau(zeros, n) ** (-s_mp) for n in range(1, n_terms + 1))
            a, summand = mpf(n_terms + 1), power
        else:
            pairs = n_terms // 2
            total = -extremal.tau(zeros, 1) ** (-s_mp)
            total += mp.fsum(
                extremal.tau(zeros, 2 * m) ** (-s_mp) - extremal.tau(zeros, 2 * m + 1) ** (-s_mp)
                for m in range(1, pairs + 1)
            )
            a = mpf(pairs + 1)

            def summand(m):
                return power(2 * m) - power(2 * m + 1)

        integral, quad_err = mp.quad(summand, [a, mp.inf], error=True, maxdegree=10)
        f0, d1, _, d3, _, d5, _, d7 = mp.diffs(summand, a, 7)
        tail = integral + f0 / 2 - d1 / 12 + d3 / 720 - d5 / 30240
        return total + tail, abs(d7) / 1209600 + quad_err + mpf(10) ** (-resolved)
