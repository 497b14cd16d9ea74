"""Precision-managed arithmetic substrate.

Everything downstream runs on top of the ingredients collected here:

* truncated power series as plain coefficient lists, lowest power first,
  and the handful of operations the project actually needs (Horner
  evaluation, at one point or at the four quarter turns of one, Cauchy
  product, reciprocal, cosine and sine, derivative), the coefficients
  [z^(k+s)] f g^k that Lagrange-Buermann inversion reads
  (:func:`series_power_diagonal`) and Horner's rule on fixed-point
  integers (:func:`fixed_horner`).  The operations that sum products
  convert each input once to integers at one binary exponent, sum exact
  integer products and round each coefficient once, within a bound in
  units of 2^-(prec+64) set by the largest entries;
* :func:`newton`, the package's one Newton loop, with precision doubling,
  and :func:`bracketed_step`, the step of every scalar root search;
* the Dirichlet beta function through Hurwitz zeta values, and a table
  of Hurwitz zeta values at one shift q >= 1 for a ladder of integer
  exponents w, w + 1, .. from w >= 2;
* exact decimal truncation of an mpf for the serialized output;
* the size caps of the Legendre, window-basis and integrality layers;
* the two precision rules every stage shares, TARGET_MARGIN and
  ESTIMATE_DPS.

The precision policy: every working precision and tolerance in the
package is digits plus a named constant, or is read from the object that
owns it (a Taylor or zero model's dps).  Each stage's guards are named in
the module that owns the stage, with the loss each covers and whether a
bound, a measurement or nothing backs it; tests/test_precision_policy.py
finds any digits plus a bare literal.

Scalars are plain ``mpmath.mpf`` values ("big reals").  All functions expect
to be called with the global mpmath precision already set, normally via
``with mp.workdps(...):``.  Decimal constants must always be parsed from
strings under the active precision, never stored as module-level mpf
literals, because a literal parsed at import time is frozen at whatever
precision happened to be active then.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import to_fixed


class UsageError(ValueError):
    """Raised when an operation is invoked outside its contract."""


class SolverError(RuntimeError):
    """Numerical failure: residual bound or certification not reached."""


# The package's size caps, here so that cli reads them without loading
# fourier or lseries: the largest Legendre pair count and window-basis
# order of fourier, and the deepest integrality scan of lseries, whose work
# grows about as depth^3.5: on packed rows it took 0.46 s at 200, 2.1 s at
# 300 and 6.1 s at 400 (medians of 7, 5 and 3 interleaved runs on one core
# of a shared 2-core x86 VM, Python 3.11, in a slow stretch: the VM's speed
# varies by up to 1.6x), with a _repack that split each row by one
# struct.unpack call, before it made one struct.Struct a row.
MAX_PAIRS = 64
MAX_WINDOW = 40
MAX_INTEGRALITY_DEPTH = 400

# A result said to hold `digits` decimals is searched and checked to
# 10^-(digits + TARGET_MARGIN): a Newton search ends there, a two-run or
# two-route check passes within it, and export legendre prints down to
# that place.  The margin keeps the result's own error under its last
# digit; nothing backs the 5, it is a choice.
TARGET_MARGIN = 5

# The decimal digits at which an error estimate is computed, of which only
# the order of magnitude is read.  Measured: the lowest place of export
# c-basis came out the same at 15 and 25 digits, and at the fit's own
# precision, on 26 (digits, K) cases from 10 to 100 digits, and its
# payload at 300 digits (--terms 5) did not move.
ESTIMATE_DPS = 25


# ----------------------------------------------------------------------
# Newton with precision doubling

# the step bound of every Newton search, and the least dps of its steps
_NEWTON_STEPS = 100
_SEED_DPS = 20


def newton(step, x, held, tol):
    """Newton from x, holding `held` digits, with precision doubling (Brent
    and Zimmermann, Modern Computer Arithmetic, 4.2).  step(x) returns
    (nxt, size, state), newton (x, nxt, state) of the last step.  An
    iterate holding d digits is stepped at 2d + 4, at least _SEED_DPS and
    at most the working dps; a step of 10^-k leaves 2k - 2, at most its
    dps - 6.  A step within tol at the working dps, from the seed or an
    iterate a step there made, ends the search, so a seed within tol costs
    one step; _NEWTON_STEPS steps without an end raise SolverError.
    """
    dps = mp.dps
    seed, made = x, dps
    for _ in range(_NEWTON_STEPS):
        prec = min(dps, max(_SEED_DPS, 2 * held + 4))
        with mp.workdps(prec):
            nxt, size, state = step(x)
            if prec == dps == made and size <= tol:
                return x, nxt, state
            held = min(prec - 6, 2 * int(-mp.mag(size) * math.log10(2)) - 2 if size else prec)
        x, made = nxt, prec
    raise SolverError(
        "Newton from %s did not converge in %d steps" % (mp.nstr(seed, 20), _NEWTON_STEPS)
    )


def bracketed_step(f, lo, hi):
    """The step for newton on f(r) = (value, derivative) inside (lo, hi): a
    Newton step that would leave it goes half way to the end it points at."""

    def step(r):
        value, slope = f(r)
        move = value / slope
        nxt = r - move
        if not lo < nxt < hi:
            nxt = (r + (lo if move > 0 else hi)) / 2
        return nxt, abs(move), None

    return step


# ----------------------------------------------------------------------
# truncated power series
#
# A series is the list of its coefficients, lowest power first, computed at
# the ambient precision.  Callers may build one with int entries ([0] + ..,
# [1] + ..); the operations below make mpf values of those without rounding
# an mpf entry again.


def series_eval(f, z):
    """Horner evaluation of the series f at z, real or complex."""
    acc = 0
    for c in reversed(f):
        acc = acc * z + c
    return acc


def fixed_horner(coeffs, man: int, shift: int) -> int:
    """sum_k coeffs[k] x^k at x = man 2^-shift by Horner's rule on integers
    of one fixed-point scale, acc <- (acc man >> shift) + c.  Each step
    floors once, by under one unit, and at |x| <= 1 no later step magnifies
    that: the result is within len(coeffs) - 1 units of the exact sum."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * man >> shift) + c
    return acc


def _times_i(x):
    """i x, exactly: the parts of x swap and one changes sign."""
    return mp.mpc(-mp.im(x), mp.re(x))


def series_eval_orbit(f, w):
    """(f(w), f(iw), f(-w), f(-iw)) for a series f with real coefficients,
    from one pass over f.

    With S_r the Horner sum of class r, the coefficients c_k with
    k = r mod 4, in w^4, f(i^j w) = sum_r i^(jr) w^r S_r: the four values
    are sums of t_r = w^r S_r by +-1 and +-i, and a product by i is
    exact.  A class whose coefficients are all exactly zero is skipped
    (the odd ones of an even series, the even ones of an odd series).

    Horner's rounding stays where _cancellation_digits of extremal
    budgets it: a partial sum of class r, times its power of w, is a
    partial sum of f's terms c_k w^k, so every one is bounded by
    sum_k |c_k| |w|^k, as in Horner's pass at one point, and each of the
    four values is off by a few units of that sum per coefficient.
    """
    w2 = w * w
    w4 = w2 * w2
    t = []
    for r, power in enumerate((1, w, w2, w2 * w)):
        cls = f[r::4]
        t.append(series_eval(cls, w4) * power if any(cls) else 0)
    even, odd = t[0] + t[2], t[1] + t[3]
    real_turn, imag_turn = t[0] - t[2], _times_i(t[1] - t[3])
    return even + odd, real_turn + imag_turn, even - odd, real_turn - imag_turn


# bits past the precision at which the series operations keep each input,
# power and carried term, below the largest entry: they cover the rounding
# of the entries, summed over up to n terms, and coefficients under the
# scale of the largest entries, by up to about 64 - log2(4n) bits.  The
# bounds below are in units of 2^-(prec+64); g << h says no coefficient of
# |g|, the absolute values of g's, exceeds h's, e(z) = 1 + z + .. +
# z^(n-1) for n returned, and f~ is f as _fixed_factor rounds it, within
# half a unit of 2^(E-prec-64), E its top (|entries| < 2^E <= 2 max|f|).
_PRODUCT_GUARD_BITS = 64


def _fixed_factor(f, n: int, wp: int):
    """(ints, exp): f[0] .. f[n-1] as ints times 2^exp, one exp for all,
    wp bits below 2^top, top the least with every |entry| < 2^top; each
    rounded to the nearest unit, so within half a unit, and exact zeros
    stay 0.  ints is empty when every entry is zero."""
    raw = [c._mpf_ if isinstance(c, mpf) else mpf(c)._mpf_ for c in f[:n]]
    top = max((e + bc for _sign, man, e, bc in raw if man), default=None)
    if top is None:
        return [], 0
    exp = top - wp
    ints = []
    for sign, man, e, _bc in raw:
        shift = e - exp
        v = man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1
        ints.append(-v if sign else v)
    return ints, exp


def _fixed_product(F, G, n: int) -> list:
    """sum_i F[i] G[k-i] for k < n, exactly: the Cauchy product of
    integer series."""
    last = len(G) - 1
    rev = G[::-1]
    out = []
    for k in range(n):
        lo, hi = max(0, k - last), min(k, len(F) - 1) + 1
        out.append(sum(map(mul, F[lo:hi], rev[last - k + lo : last - k + hi])))
    return out


def series_multiply(f, g, T: int) -> list:
    """Cauchy product of f and g, its coefficients of z^0 .. z^(n-1),
    n = min(T, len(f) + len(g) - 1), as mpf values: the exact integer
    sums of f~ g~, each rounded once to the ambient precision.  With at
    most n products a coefficient, each sum is off by under
    n (2^(E_f+E_g) + 2^(E_f+E_g-prec-66)) units, so before that rounding
    by at most

        4 n max|f| max|g| 2^-(prec+64)  (1 + 2^-(prec+66)),

    absolute, not relative to each coefficient: one far below the
    product of the factors' largest entries keeps fewer correct bits than
    the precision.  Each caller says why its coefficients can take that.
    """
    if T < 1:
        raise UsageError("T must be positive")
    n = min(T, len(f) + len(g) - 1)
    wp = mp.prec + _PRODUCT_GUARD_BITS
    F, ef = _fixed_factor(f, n, wp)
    G, eg = _fixed_factor(g, n, wp)
    return [mpf((c, ef + eg)) for c in _fixed_product(F, G, n)]


def series_power_diagonal(f, g, shift: int, count: int, T: int) -> list:
    """[z^(k+shift)] f g^k for k < count, as Lagrange-Buermann inversion
    reads them: f g^k truncated to T coefficients, stepped from p_0 = f~
    by count - 1 exact integer products q_k = p_(k-1) g~ (_fixed_product),
    whose [z^(k+shift)] is rounded once to the ambient precision; p_k is
    q_k kept at prec + 64 bits below its top E_k, with no mpf round trip.
    With eps_i = p_i - q_i,

        q_k = f~ g~^k + sum_{i=1}^{k-1} eps_i g~^(k-i)   (mod z^T),
        |eps_i| << 2^(E_i-prec-65) e(z),

    absolute bounds set by each power's largest entries, which the later
    factors carry on; callers say why the coefficients they read can take
    them.  The entry for k = 0 is f[shift] itself.
    """
    wp = mp.prec + _PRODUCT_GUARD_BITS
    power, exp = _fixed_factor(f, T, wp)
    G, eg = _fixed_factor(g, T, wp)
    out = [mpf(f[shift])]
    for k in range(1, count):
        power, exp = _fixed_product(power, G, T), exp + eg
        out.append(mpf((power[k + shift], exp)))
        drop = max(map(abs, power), default=0).bit_length() - wp
        if drop > 0:
            power, exp = [(c + (1 << drop - 1)) >> drop for c in power], exp + drop
    return out


def series_reciprocal(f, T: int) -> list:
    """1/f truncated to T coefficients; f(0) must not round to 0 in f~.

    r_n = -sum_{j=1}^{n} f~_j r_(n-j) / f~_0 is carried in units of
    v = 2^(-E-prec-64): an exact dot product against the output so far
    and one rounded integer division; each r_n is then rounded once to
    the ambient precision.  The recurrence carries every error on, so the
    bound is a majorant: r = 1/f~ + v f~_0 d / f~ with |d| << e(z)/2, and
    1/f~ - 1/f = (f - f~) / (f f~), so (mod z^T)

        |r - 1/f| << 2^-(prec+64) e(z) |1/f~| (max|f| |1/f| + 1/2).

    Each caller says why its coefficients can take that.
    """
    wp = mp.prec + _PRODUCT_GUARD_BITS
    F, exp = _fixed_factor(f, T, wp)
    if not F or not F[0]:
        raise UsageError("reciprocal needs a nonzero constant term")
    head, rest = F[0], F[1:]
    out = [((1 << 2 * wp + 1) + head) // (2 * head)]
    for _ in range(1, T):
        out.append((head - 2 * sum(map(mul, rest, reversed(out)))) // (2 * head))
    return [mpf((c, -2 * wp - exp)) for c in out]


def series_cos_sin(f, T: int):
    """(cos f, sin f) for f(0) = 0, through exponent T, from C' = -f' S
    and S' = f' C: C_0 = 1, S_0 = 0, e C_e = -sum_{j=1}^{e} j a~_j S_(e-j)
    and e S_e = sum_{j=1}^{e} j a~_j C_(e-j), each an exact dot product
    against the output so far, in units of 2^-(prec+64), and one rounded
    integer division, then rounded once to the ambient precision.  The
    recurrence carries the roundings on, within exp(|f~|) e(z) units of
    (cos f~, sin f~), and cos f~ - cos f and sin f~ - sin f are each
    within exp(|f|) (exp(|h|) - 1), h = f~ - f, so (mod z^(T+1))

        |C - cos f| + |S - sin f| << 2^-(prec+64) (1 + 2^E) e(z) exp(|f| + |h|).
    """
    if f and f[0]:
        raise UsageError("series_cos_sin requires f(0) = 0")
    wp = mp.prec + _PRODUCT_GUARD_BITS
    F, exp = _fixed_factor(f, T + 1, wp)
    slope = [j * c for j, c in enumerate(F)][1:]  # the j a~_j from j = 1
    up, down = max(exp, 0), max(-exp, 0)
    C, S = [1 << wp], [0]
    for e in range(1, T + 1):
        den = e << down
        c = sum(map(mul, slope, reversed(S))) << up
        s = sum(map(mul, slope, reversed(C))) << up
        C.append((den - 2 * c) // (2 * den))
        S.append((2 * s + den) // (2 * den))
    return [mpf((c, -wp)) for c in C], [mpf((s, -wp)) for s in S]


def series_derivative(f) -> list:
    """Term-wise derivative; the constant term drops out.  Each term is
    one mpf multiply, rounded to the ambient precision, so a series built
    at a higher one is differentiated under that (a Taylor model's dps)."""
    return [(k + 1) * f[k + 1] for k in range(len(f) - 1)] or [mpf(0)]


# ----------------------------------------------------------------------
# Dirichlet beta and Hurwitz zeta tables


def beta_numeric(s):
    """Numeric Dirichlet beta for real s via Hurwitz zeta.

    The two Hurwitz terms individually blow up at s=1 while their
    difference stays finite, so the Leibniz value is special-cased.
    """
    if s == 1:
        return mp.pi / 4
    return mpf(4) ** (-s) * (mp.zeta(s, mpf(1) / 4) - mp.zeta(s, mpf(3) / 4))


@lru_cache(maxsize=64)
def _euler_maclaurin_constants(P: int, wp: int):
    """1 / (2 pi)^2 and B_2k (2 pi)^2k / (2k)!, k = 1..P, in fixed point
    at wp bits: the constants of every hurwitz_zetas run at one wp."""
    with mp.workprec(wp):
        c = to_fixed((1 / (4 * mp.pi ** 2))._mpf_, wp)
        bern = tuple(
            to_fixed((mp.bernoulli(2 * k) * (2 * mp.pi) ** (2 * k)
                      / mp.factorial(2 * k))._mpf_, wp)
            for k in range(1, P + 1)
        )
    return c, bern


def hurwitz_zetas(q, w, n: int) -> list:
    """[zeta(w + i, q) for i in range(n)] for an integer w >= 2 and
    q >= 1, each within 2^-(prec+10) before it is rounded to the working
    precision.  A reader working at p < prec bits who rounds a value to p
    gets it within 2^-(prec+10) < 2^-(p+10) before the two roundings, to
    prec and then to p, which together move it by at most one unit in its
    p-th bit, where a table made at p bits moves it by half of one.

    One Euler-Maclaurin run serves every exponent.  N terms (q + m)^-w
    are summed directly, the first power of each m by w - 1 multiplies
    from 1/(q + m) and each later one by one multiply from the last, and
    at Q = q + N >= 2 (W + 2P + 1) / pi, W = w + n - 1 the largest
    exponent,

        zeta(v, Q) = Q^(1-v) / (v-1) + Q^-v / 2
                     + sum_{k=1}^{P} B_2k / (2k)! (v)_(2k-1) Q^(1-v-2k) + R,

    (v)_i the rising factorial.  The derivatives of x^-v alternate in
    sign, so |R| is below the first omitted term, k = P + 1; with
    |B_2k| / (2k)! <= 4 (2 pi)^-2k and 2 pi Q >= 4 (v + 2P + 1), that term
    is below 4^-2P times the leading term Q^(1-v) / (v-1) < 1, and
    P = ceil((prec + 10) / 4) puts R below 2^-(prec+10).

    The sums run in fixed point at wp bits, where q, w and so every factor
    v + i are exact.  Every value in them is at most 1 but the scaled
    Bernoulli numbers b_k = B_2k (2 pi)^2k / (2k)!, |b_k| <= 4, each
    product is truncated by less than one unit of 2^-wp, and a truncation
    is never magnified: the powers are of 1/(q + m) <= 1, and the
    Bernoulli terms are carried as t_k = (v)_(2k-1) Q^(1-v-2k) / (2 pi)^2k,
    each k step a factor (v + 2k - 1)(v + 2k) / (2 pi Q)^2 <= 1/16.  So
    the direct powers are within 2v units each, Q^-v and Q^(1-v) / (v-1)
    within 2v, t_k within 8 and b_k t_k within 40: at most
    2 W N + 5 W + 40 P units, which the wp - prec - 10 guard bits cover.

    Each power and each t_k is a product with the one before, so once one
    is 0 every later one is too: the loop over orders stops at the first
    power that is 0 and the Bernoulli loop at the first t_k, and no sum
    changes.  Both get there early on late orders, since every factor is
    at most 1 (x <= one, the k step at most 1/16).
    """
    if n < 1 or not isinstance(w, int) or w < 2 or not q >= 1:
        raise UsageError("hurwitz_zetas needs n >= 1, an integer w >= 2 and q >= 1")
    prec = mp.prec
    P = -(-(prec + 10) // 4)
    W = w + n - 1
    with mp.workprec(prec + 20):
        N = max(0, int(mp.ceil(2 * (w + n + 2 * P) / mp.pi - q)))
    wp = prec + 10 + (2 * W * N + 5 * W + 40 * P).bit_length()
    one = 1 << wp
    qf = to_fixed(mpf(q)._mpf_, wp)
    wf = w * one
    c, bern = _euler_maclaurin_constants(P, wp)

    def first_power(x, v):
        """x^v in fixed point, by v - 1 multiplies."""
        p = x
        for _ in range(v - 1):
            p = p * x >> wp
        return p

    sums = [0] * n
    for m in range(N):
        y = qf + m * one
        x = (one << wp) // y
        p = first_power(x, w)
        sums[0] += p
        for i in range(1, n):
            p = p * x >> wp
            if not p:
                break
            sums[i] += p
    y = qf + N * one
    inv = (one << wp) // y
    step = (inv * inv >> wp) * c >> wp  # 1 / (2 pi Q)^2
    out = []
    prev = first_power(inv, w - 1)  # Q^(1-v) at step v
    for i in range(n):
        v = wf + i * one
        power = prev * inv >> wp
        total = (prev << wp) // (v - one) + (power >> 1)
        t = ((v * power >> wp) * inv >> wp) * c >> wp
        for k, b in enumerate(bern, start=1):
            total += b * t >> wp
            t = ((v + (2 * k - 1) * one) * (v + 2 * k * one) >> wp) * t * step >> 2 * wp
            if not t:
                break
        out.append(mpf((sums[i] + total, -wp)))
        prev = power
    return out


# ----------------------------------------------------------------------
# deterministic decimal serialization

# The payload layout is that of mp.nstr at digits + _LAYOUT_EXTRA
# significant digits, which the first decimal_truncated cut down.  It
# covers no loss; the payloads' bytes rest on it.
_LAYOUT_EXTRA = 12


def _decimal_string(n: int) -> str:
    """str(n) for an integer n >= 0, split on a power of ten until each
    part has under 2000 bits (603 digits), so that no single str() call
    passes Python's integer-to-string limit, 640 digits or more."""
    if n.bit_length() < 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its digits
    high, low = divmod(n, 10 ** k)
    return _decimal_string(high) + _decimal_string(low).zfill(k)


def decimal_truncated(x, digits: int, lowest: int = None) -> str:
    """Decimal string of the mpf x with `digits` significant digits,
    truncated not rounded.

    Truncation keeps the certified-digits semantics literal: every digit
    printed is a true digit of the value.  The digits come from integer
    arithmetic on the exact binary mantissa and exponent, so no rounding
    carry can reach them.  A value known only to an absolute 10^lowest
    (`lowest` given, a negative place) prints no digit below that place,
    and reads 0.0 when it lies under 10^lowest.  The layout is mp.nstr's:
    fixed point for a decimal exponent e with
    min(-((digits + _LAYOUT_EXTRA) // 3), -5) < e < digits, scientific
    notation otherwise, whatever `lowest` drops.
    """
    if digits < 1:
        raise UsageError("digits must be positive")
    if not isinstance(x, mpf):
        raise UsageError("decimal_truncated takes an mpf, not %s" % type(x).__name__)
    if x == 0 or not mp.isfinite(x):
        return mp.nstr(x, digits, strip_zeros=False)
    man, exp = x.man_exp
    man = abs(man)
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    # 2^(bits-1) <= |x| < 2^bits, so floor(log10|x|) is e or e + 1: settle
    # which before the cut, which `lowest` may move
    e = math.floor((man.bit_length() + exp - 1) * math.log10(2))
    if (num >= den * 10 ** (e + 1)) if e >= -1 else (num * 10 ** -(e + 1) >= den):
        e += 1
    if lowest is not None and e < lowest:
        return mp.nstr(mpf(0), digits, strip_zeros=False)
    k = e - digits + 1 if lowest is None else max(e - digits + 1, lowest)
    head = num // (den * 10 ** k) if k >= 0 else num * 10 ** -k // den
    kept = _decimal_string(head)
    sign = "-" if x < 0 else ""
    if min(-((digits + _LAYOUT_EXTRA) // 3), -5) < e < 0:
        return sign + "0." + "0" * (-e - 1) + kept
    if 0 <= e < digits:
        return sign + (kept[: e + 1] + "." + kept[e + 1 :]).rstrip(".")
    return sign + (kept[0] + "." + kept[1:]).rstrip(".") + "e%+d" % e
