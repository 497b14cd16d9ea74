"""Tridiagonal spectral solver for the extremal constants.

The extremal constant C and the companion value L1 (the derivative of the
entire factor at the origin) are obtained from a one-parameter family of
tridiagonal eigenproblems.  In the b=1 frame the operator acts on Legendre
coefficients through the infinite tridiagonal matrix with row m

    sub(m) = -a m/(2m-1),   diag(m) = m(m+1),   super(m) = a (m+1)/(2m+3),

and the solver's job is:

1. for a truncation size N and coupling a, find the smallest eigenvalue and
   its eigenvector (normalized so the leading entry is 1);
2. root-find on a so that the alternating Legendre-endpoint sum
   S = sum_n (-1)^{floor((n-1)/2)} xi_n vanishes (this is the phase
   condition selecting the extremal eigenfunction), starting from the best
   root already known when there is one;
3. double N until the root stabilizes, each rung starting from the root of
   the rung before, then convert: C = pi/(4a) and L1 = -2 C lambda.

Step 1 is a single mechanism.  The eigenvector is the minimal solution of
the three-term recurrence that defines the matrix (Gautschi, SIAM Rev. 9,
1967), so for a trial lambda one backward sweep over rows N..1, started
from xi_{N+1} = 0 and xi_N = 1, yields it; for 0 < a < 3/2 and lambda < 2
every term of that sweep is positive, so it runs without cancellation.
Row 0, which the sweep leaves out, is the eigen-condition g(lambda) = 0,
and Newton on g (with g' from the same sweep differentiated in lambda)
finds the eigenvalue.  Step 2 is regula falsi with the Illinois fix.  A
search given a starting root first evaluates S there and keeps it when S is
already at its noise floor; otherwise it grows a sign-changing bracket
outward from it (S' is about 1.1 near the root, so the first half-width,
twice |S|, usually holds the root) and runs regula falsi on that, or on
the caller's whole bracket when the grown one never changes sign.  A rung
whose truncation no longer moves the root then costs one eigen-solve and
other warm searches three to nine, against nine to thirteen from the
bracket.

Truncation error decays superexponentially (the eigenvector entries die
off faster than any geometric sequence), so the ladder stabilizes at small
N even for high digit counts.

All numeric kernels here run under the ambient mpmath precision; only
solve_constants manages PrecisionContext objects itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from mpmath import mp, mpf

from .mpcore import PrecisionContext, UsageError, decimal_truncated, default_guard


class SolverError(RuntimeError):
    """Numerical failure: residual bound or certification not reached."""


# ----------------------------------------------------------------------
# matrix construction


@dataclass
class TridiagonalSystem:
    """Truncated (N+1)x(N+1) tridiagonal matrix in the b=1 frame."""

    N: int
    a: mpf

    def __post_init__(self):
        if self.N < 2:
            raise UsageError("N must be at least 2")
        self.a = mpf(self.a)

    def sub(self, m: int) -> mpf:
        """Entry (m, m-1), defined for 1 <= m <= N."""
        return -self.a * m / (2 * m - 1)

    def diag(self, m: int) -> mpf:
        return mpf(m * (m + 1))

    def sup(self, m: int) -> mpf:
        """Entry (m, m+1), defined for 0 <= m <= N-1."""
        return self.a * (m + 1) / (2 * m + 3)


def build_matrix(N: int, a) -> TridiagonalSystem:
    return TridiagonalSystem(N=N, a=mpf(a))


@dataclass
class EigenPair:
    lam: mpf
    xi: list
    residual: mpf = field(default_factory=lambda: mpf(0))


# Work bounds: Newton steps per eigen-solve, regula falsi steps per root,
# widenings of a bracket grown from a starting root, and the largest
# truncation either ladder may reach.  A grown bracket starts at half-width
# _GROW_FIRST |S(guess)| and widens by _GROW_FACTOR.
_NEWTON_STEPS = 100
_ROOT_STEPS = 200
_GROW_STEPS = 8
_GROW_FIRST = 2
_GROW_FACTOR = 10
_N_CAP = 4096


# ----------------------------------------------------------------------
# the backward sweep


def _sweep(sys: TridiagonalSystem, lam):
    """Rows N..1 of (T - lam) xi = 0 solved downward: (xi, g, g').

    xi is normalized xi[0] = 1 and satisfies rows 1..N exactly.  Row 0 is
    left over as g(lam) = -lam + sup(0) xi_1/xi_0, which vanishes exactly
    at an eigenvalue of the truncation; g' is its lam-derivative, carried
    through the same recurrence.
    """
    x, x_up = mpf(1), mpf(0)  # xi_m, xi_{m+1}; xi_{N+1} = 0 drops sup(N)
    dx, dx_up = mpf(0), mpf(0)  # their derivatives in lam
    tail = [x]
    for m in range(sys.N, 0, -1):
        c, up, low = sys.diag(m) - lam, sys.sup(m), sys.sub(m)
        x, x_up, dx, dx_up = (
            -(c * x + up * x_up) / low,
            x,
            -(c * dx - x + up * dx_up) / low,
            dx,
        )
        tail.append(x)
    g = -lam + sys.sup(0) * x_up / x
    dg = -1 + sys.sup(0) * (dx_up * x - x_up * dx) / (x * x)
    return [v / x for v in reversed(tail)], g, dg


def _apply(sys: TridiagonalSystem, v):
    n = sys.N + 1
    out = []
    for m in range(n):
        acc = sys.diag(m) * v[m]
        if m > 0:
            acc += sys.sub(m) * v[m - 1]
        if m < n - 1:
            acc += sys.sup(m) * v[m + 1]
        out.append(acc)
    return out


def ground_eigenpair(sys: TridiagonalSystem, lambda_seed=None) -> EigenPair:
    """Smallest eigenpair of the truncated system, normalized xi[0] = 1.

    Newton on the row-0 condition g of the backward sweep, started from
    lambda_seed (typically the eigenvalue of a nearby solve) or else from
    a/3, the top of the interval [0, a/3] that holds the eigenvalue.  The
    sweep at the converged lambda is the eigenvector.  Iterates must stay
    below 2 - a, where the sweep is positive and the ground eigenvalue is
    the only one; the residual ||(T - lambda) xi|| / ||xi|| must reach
    10^-(dps-5).  Either failure raises SolverError.
    """
    if not (0 < sys.a < mpf(3) / 2):
        raise UsageError("ground_eigenpair requires 0 < a < 3/2")
    lam = sys.a / 3 if lambda_seed is None else mpf(lambda_seed)
    tol = mpf(10) ** (-(mp.dps - 2))
    converged = False
    for _ in range(_NEWTON_STEPS):
        xi, g, dg = _sweep(sys, lam)
        if converged:
            break
        step = g / dg
        lam -= step
        if not lam < 2 - sys.a:
            raise SolverError(
                "eigenvalue Newton left lambda < 2 - a at N=%d, a=%s"
                % (sys.N, mp.nstr(sys.a, 10))
            )
        converged = abs(step) <= tol * max(1, abs(lam))
    else:
        raise SolverError(
            "eigenvalue Newton did not converge in %d steps" % _NEWTON_STEPS
        )
    tv = _apply(sys, xi)
    residual = max(abs(t - lam * x) for t, x in zip(tv, xi)) / max(abs(x) for x in xi)
    target = mpf(10) ** (-(mp.dps - 5))
    if residual > target:
        raise SolverError(
            "eigenpair residual %s exceeds %s; raise the working precision"
            % (mp.nstr(residual, 5), mp.nstr(target, 5))
        )
    return EigenPair(lam=lam, xi=xi, residual=residual)


def assert_ground_invariants(pair: EigenPair, a) -> None:
    """Ground-state sanity for 0 < a < 3/2: localization and positivity.

    Entries below ten times the residual (relative to the largest entry)
    count as noise, and their signs are not checked.
    """
    where = "at N=%d, a=%s" % (len(pair.xi) - 1, mp.nstr(mpf(a), 20))
    if not (0 <= pair.lam <= mpf(a) / 3):
        raise SolverError(
            "ground eigenvalue %s escaped [0, a/3] %s" % (mp.nstr(pair.lam, 10), where)
        )
    floor = 10 * pair.residual * max(abs(x) for x in pair.xi)
    for n, x in enumerate(pair.xi):
        if x <= 0 and abs(x) > floor:
            raise SolverError("ground eigenvector entry %d is not positive %s" % (n, where))


# ----------------------------------------------------------------------
# the a-dependent side condition and its root


def legendre_condition(pair: EigenPair) -> mpf:
    """S = sum_n (-1)^{floor((n-1)/2)} xi_n (sign pattern -,+,+,-,-,+,...).

    The extremal parameter a is the root of S(a) = 0: vanishing of this
    alternating endpoint sum is the phase condition picking out the
    eigenfunction whose zeros interlace correctly.
    """
    total = mpf(0)
    for n, x in enumerate(pair.xi):
        if ((n - 1) // 2) % 2:
            total -= x
        else:
            total += x
    return total


def _condition_value(N: int, a, lambda_seed=None):
    sys = build_matrix(N, a)
    pair = ground_eigenpair(sys, lambda_seed=lambda_seed)
    return legendre_condition(pair), pair


def _grow_bracket(N: int, lo, hi, x, f, pair):
    """Sign-changing bracket around a starting root x with S(x) = f.

    Probes x -+ w, clipped to [lo, hi], for w = _GROW_FIRST |f| widened
    _GROW_FACTOR-fold up to _GROW_STEPS times.  The side the root should be
    on (below x when f > 0, since S' > 0 near it) is probed first.  Returns
    (lo, f_lo, hi, f_hi, pair): x and the first probe past a sign change,
    or, when none was found, the caller's ends lo and hi, so a warm start
    costs at most two extra solves over the search from the bracket and
    never loses a root that search would find.
    """
    ends = [(x, f), (x, f)]  # lowest and highest point probed so far
    first = 0 if f > 0 else 1
    w = _GROW_FIRST * abs(f)
    for _ in range(_GROW_STEPS):
        for side in (first, 1 - first):
            y = max(x - w, lo) if side == 0 else min(x + w, hi)
            if y == ends[side][0]:
                continue  # clipped to an end already probed
            f_y, pair = _condition_value(N, y, pair.lam)
            ends[side] = (y, f_y)
            if f_y * f <= 0:
                ends[1 - side] = (x, f)
                return (*ends[0], *ends[1], pair)
        w *= _GROW_FACTOR
    for side, y in ((0, lo), (1, hi)):
        if y != ends[side][0]:
            f_y, pair = _condition_value(N, y, pair.lam)
            ends[side] = (y, f_y)
    return (*ends[0], *ends[1], pair)


def _solve_root_for_N(N: int, bracket, lambda_seed=None, guess=None):
    """Root of S(a) = 0 for one truncation size, at the ambient precision.

    Without a guess the search starts from the caller's bracket.  With one
    (a root from a nearby solve, inside the bracket) S is evaluated there
    first, and the guess is returned when |S| <= 10^-(dps-6), the noise
    floor of S; otherwise the bracket is grown outward from the guess
    inside the caller's, falling back to the caller's when it never
    changes sign (see _grow_bracket).  Then regula falsi with the
    Illinois fix: each step evaluates S at the secant point of the bracket
    ends, and when one end is kept twice in a row its value is halved, so
    both ends move in.  It stops at the same noise floor, or when the
    bracket is narrower than it: S' is about 1 near the root, so a bracket
    that narrow holds no point where S rises above its noise.  Every
    evaluation is one eigen-solve, warm-started from the eigenvalue of the
    previous one.  A bracket without a sign change raises SolverError.
    """
    lo, hi = mpf(bracket[0]), mpf(bracket[1])
    s_tol = mpf(10) ** (-(mp.dps - 6))
    if guess is None:
        f_lo, pair = _condition_value(N, lo, lambda_seed)
        f_hi, pair = _condition_value(N, hi, pair.lam)
    else:
        x = mpf(guess)
        if not lo <= x <= hi:
            raise UsageError("the starting root lies outside the bracket")
        f, pair = _condition_value(N, x, lambda_seed)
        if abs(f) <= s_tol:
            return x, pair
        lo, f_lo, hi, f_hi, pair = _grow_bracket(N, lo, hi, x, f, pair)
    if f_lo * f_hi > 0:
        raise SolverError(
            "side condition does not change sign on the bracket [%s, %s] "
            "(width %s) at N=%d, %d dps"
            % (mp.nstr(lo, 20), mp.nstr(hi, 20), mp.nstr(hi - lo, 5), N, mp.dps)
        )
    kept = 0  # +1 when the last step kept lo, -1 when it kept hi
    for _ in range(_ROOT_STEPS):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f, pair = _condition_value(N, x, pair.lam)
        if abs(f) <= s_tol:
            return x, pair
        if (f > 0) == (f_hi > 0):
            hi, f_hi = x, f
            if kept == 1:
                f_lo /= 2
            kept = 1
        else:
            lo, f_lo = x, f
            if kept == -1:
                f_hi /= 2
            kept = -1
        if hi - lo <= s_tol:
            return x, pair
    raise SolverError(
        "side-condition root not found in %d steps at N=%d, %d dps"
        % (_ROOT_STEPS, N, mp.dps)
    )


# ----------------------------------------------------------------------
# public results


@dataclass
class ExtremalConstants:
    """Converged constants plus the spectral data behind them.

    C is the extremal constant; L1 the derivative at 0 of the entire
    factor; a_star = pi/(4C) the root of the side condition in the b=1
    frame; lambda_star = -L1/(2C) the ground eigenvalue (frame-invariant);
    xi the ground eigenvector at a_star, normalized xi[0] = 1.  frame is
    the cache of extremal.refined_spectral_frame: (dps, a, lambda) from
    the most precise re-solve so far, or None.
    """

    C: mpf
    L1: mpf
    a_star: mpf
    lambda_star: mpf
    xi: list
    N: int
    digits_certified: int
    ctx: PrecisionContext
    frame: Optional[tuple] = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        d = self.digits_certified
        with self.ctx.working():
            return {
                "C": decimal_truncated(self.C, d),
                "L1": decimal_truncated(self.L1, d),
                "a_star": decimal_truncated(self.a_star, d),
                "lambda_star": decimal_truncated(self.lambda_star, d),
                "N": self.N,
                "digits_certified": d,
            }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _ladder_root(digits: int, initial_N: int, bracket, guard: int, guess=None):
    """Run the (N, precision) ladder; returns (a, pair, N, working_dps).

    The first rung starts from guess (or from the bracket when there is
    none) and every later rung from the root of the rung before, so a rung
    whose truncation no longer moves the root costs one eigen-solve.  N
    doubles until the root moves by at most 10^-(digits+5); a ladder that
    passes N = _N_CAP without stabilizing raises SolverError.
    """
    ctx = PrecisionContext(digits=digits, guard=guard)
    stop = mpf(10) ** (-(digits + 5))
    prev_a = lam_seed = None
    N = initial_N
    with ctx.working():
        while N <= _N_CAP:
            a_root, pair = _solve_root_for_N(
                N, bracket, lambda_seed=lam_seed, guess=guess
            )
            assert_ground_invariants(pair, a_root)
            if prev_a is not None and abs(a_root - prev_a) <= stop:
                return a_root, pair, N, ctx.working_dps
            prev_a = guess = a_root
            lam_seed = pair.lam
            N *= 2
    raise SolverError(
        "truncation ladder exhausted at N=%d without stabilizing at %d dps"
        % (_N_CAP, ctx.working_dps)
    )


def solve_constants(
    digits: int,
    initial_N: int = 64,
    bracket=("1.44", "1.46"),
    guard: Optional[int] = None,
) -> ExtremalConstants:
    """Compute the extremal constants certified to `digits` decimals.

    Runs the truncation ladder twice, at guard and 2*guard extra digits,
    and demands agreement of C to 10^-(digits+1) before reporting.  The
    second run searches the same bracket, starting from the first run's
    root: its ladder begins again at initial_N, whose root may lie far
    from that start, and its search stops where its own precision puts the
    root, so agreement does not follow from the start.  What the check
    backs is that doubling the guard digits moves C by less than
    10^-(digits+1).
    """
    if digits < 10:
        raise UsageError("digits must be at least 10")
    if guard is None:
        guard = default_guard(max(initial_N * 4, 1000))

    runs = []
    guess = None
    for g in (guard, 2 * guard):
        a_root, pair, N, wdps = _ladder_root(digits, initial_N, bracket, g, guess=guess)
        with mp.workdps(wdps):
            C = mp.pi / (4 * a_root)
            L1 = -2 * C * pair.lam
        guess = a_root
        runs.append((a_root, pair, N, wdps, C, L1))

    (a1, pair1, N1, w1, C1, L11), (a2, pair2, N2, w2, C2, L12) = runs
    with mp.workdps(w2):
        disagreement = abs(C1 - C2)
        allowed = mpf(10) ** (-(digits + 1))
        if disagreement > allowed:
            raise SolverError(
                "certification failed: runs at guard %d and %d disagree by %s"
                % (guard, 2 * guard, mp.nstr(disagreement, 5))
            )
    ctx = PrecisionContext(digits=digits, guard=2 * guard)
    return ExtremalConstants(
        C=C2,
        L1=L12,
        a_star=a2,
        lambda_star=pair2.lam,
        xi=pair2.xi,
        N=N2,
        digits_certified=digits,
        ctx=ctx,
    )
