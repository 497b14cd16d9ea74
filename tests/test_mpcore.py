"""Tests for the arithmetic substrate: series algebra, the Newton loop,
the Legendre oracle (and fourier's Clenshaw sum against it), the
Dirichlet beta function and truncated decimal output; also the reference
log(1+f) and exp(f) of tests/oracles.py, which the series tests use as
majorants."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

import oracles
from oracles import (
    legendre_pair,
    power_diagonal,
    series_exp0,
    series_log1p,
    series_product,
)
from pwextremal import fourier, mpcore
from pwextremal.mpcore import (
    SolverError,
    UsageError,
    alternating_halfinteger_tail,
    beta_numeric,
    bracketed_step,
    decimal_truncated,
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
)


@pytest.fixture(autouse=True)
def _fixed_precision():
    with mp.workdps(40):
        yield


def test_multiply_difference_of_squares():
    h = series_multiply([1, 1], [1, -1], 3)
    assert h == [1, 0, -1]
    assert all(isinstance(c, mpf) for c in h)


def test_multiply_associative_commutative_bitwise():
    rng = random.Random(7)
    coeffs = lambda: [mpf(rng.uniform(-1, 1)) for _ in range(6)]
    f, g, h = coeffs(), coeffs(), coeffs()
    T = 6
    assert series_multiply(f, g, T) == series_multiply(g, f, T)
    left = series_multiply(series_multiply(f, g, T), h, T)
    right = series_multiply(f, series_multiply(g, h, T), T)
    for x, y in zip(left, right):
        assert abs(x - y) <= mpf(10) ** -(mp.dps - 8) * (1 + abs(x))


# a factor entry: an exact zero, an int, or an integer of up to 200 bits
# times 2^-500 .. 2^100, so magnitudes from 2^-500 to 2^300, either sign
_entry = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.tuples(st.integers(-(1 << 200), 1 << 200), st.integers(-500, 100)),
)


def _factor(entries, decay):
    """The factor of _entry draws, the k-th divided by k! (rounded at 700
    digits) when `decay` is set; undecayed int draws stay ints."""
    out = []
    with mp.workdps(700):
        for k, e in enumerate(entries):
            if isinstance(e, tuple):
                e = mp.ldexp(mpf(e[0]), e[1])
            out.append(e / mp.factorial(k) if decay else e)
    return out


@settings(deadline=None)
@given(
    st.lists(_entry, min_size=1, max_size=40),
    st.lists(_entry, min_size=1, max_size=40),
    st.booleans(),
    st.booleans(),
    st.integers(-6, 6),
    st.integers(15, 300),
)
@example([0, 0], [3, 1], False, True, 2, 40)  # a zero factor, T past the product
@example([3, 0, -2], [1, (5, -200)], False, False, -2, 15)
def test_multiply_within_its_absolute_bound(a, b, decay_f, decay_g, extra, dps):
    # against the mpf product of tests/oracles.py at 200 more digits, for T
    # below and above len(f) + len(g) - 1: the docstring's absolute bound
    # 4 n max|f| max|g| 2^-(prec+64) (1 + 2^-(prec+66)), plus the final
    # rounding of each coefficient to prec bits; entries spanning many
    # orders of magnitude make coefficients far below max|f| max|g|,
    # where only the absolute bound holds
    f, g = _factor(a, decay_f), _factor(b, decay_g)
    T = max(1, len(f) + len(g) - 1 + extra)
    n = min(T, len(f) + len(g) - 1)
    with mp.workdps(dps):
        got = series_multiply(f, g, T)
        prec = mp.prec
    assert len(got) == n and all(isinstance(c, mpf) for c in got)
    with mp.workdps(dps + 200):
        want = series_product(f, g, T)
        big = max(abs(mpf(c)) for c in f) * max(abs(mpf(c)) for c in g)
        bound = 4 * n * big * mpf(2) ** -(prec + 64) * (1 + mpf(2) ** -(prec + 66))
        for k, (x, y) in enumerate(zip(got, want)):
            assert abs(x - y) <= bound + abs(y) * mpf(2) ** -prec, k


# the three bound tests below check mpcore's series operations against
# their mpf references at 200 more digits, within the majorant each
# docstring states in units of 2^-(prec+64), plus the final rounding of
# each coefficient to prec bits


def _within(got, want, bound, prec):
    """Each |got - want| within its bound and the final rounding."""
    assert len(got) == len(want) and all(isinstance(c, mpf) for c in got)
    for k, (x, y, b) in enumerate(zip(got, want, bound)):
        assert abs(x - y) <= b + (abs(y) + b) * mpf(2) ** -prec, k


def _running(f):
    """e(z) f: the partial sums of f."""
    out, acc = [], mpf(0)
    for c in f:
        acc += c
        out.append(acc)
    return out


def _top_scale(f, n):
    """max |f[0..n-1]|, at least 2^E / 2 for the top E of _fixed_factor."""
    return max((abs(mpf(c)) for c in f[:n]), default=mpf(0))


@settings(deadline=None)
@given(
    st.lists(_entry, min_size=1, max_size=40),
    st.booleans(),
    st.integers(1, 45),
    st.integers(15, 300),
)
@example([1, 1], False, 5, 40)
@example([(1, -500), (1, 300), 3], False, 4, 15)  # f(0) rounds to 0
def test_reciprocal_within_its_majorant(a, decay, T, dps):
    # |r - 1/f| << 2^-(prec+64) e(z) |1/f~| (max|f| |1/f| + 1/2), f~ the
    # input as the kernel rounds it; an f(0) that rounds to 0 is refused
    f = _factor(a, decay)
    with mp.workdps(dps):
        prec = mp.prec
        F, exp = mpcore._fixed_factor(f, T, prec + 64)
        if not F or not F[0]:
            with pytest.raises(UsageError):
                series_reciprocal(f, T)
            return
        got = series_reciprocal(f, T)
    with mp.workdps(dps + 200):
        want = oracles.series_inverse(f, T)
        rounded = oracles.series_inverse([mpf((c, exp)) for c in F], T)
        big = _top_scale(f, T)
        inner = [big * abs(c) + mpf(1) / 2 for c in want]
        scale = _running(series_product([abs(c) for c in rounded], inner, T))
        _within(got, want, [c * mpf(2) ** -(prec + 64) for c in scale], prec)


@settings(deadline=None)
@given(
    st.lists(_entry, max_size=40),
    st.booleans(),
    st.integers(0, 40),
    st.integers(15, 300),
)
@example([1], False, 9, 40)
@example([(3, 200), 0, (-5, -400)], False, 6, 15)
def test_cos_sin_within_its_majorant(a, decay, T, dps):
    # |C - cos f| + |S - sin f| << 2^-(prec+64) (1 + 2 max|f|) e(z)
    # exp(|f| + |h|), |h| << max|f| 2^-(prec+64) e(z) past z^0
    f = [0] + _factor(a, decay)
    with mp.workdps(dps):
        prec = mp.prec
        C, S = series_cos_sin(f, T)
    with mp.workdps(dps + 200):
        want_c, want_s = oracles.series_cos_sin(f, T)
        big = _top_scale(f, T + 1)
        nudge = big * mpf(2) ** -(prec + 64)
        padded = [abs(mpf(c)) for c in f[: T + 1]] + [mpf(0)] * (T + 1 - len(f))
        majorant = series_exp0([0] + [c + nudge for c in padded[1:]], T)
        bound = [
            c * (1 + 2 * big) * mpf(2) ** -(prec + 64) for c in _running(majorant)
        ]
        _within(C, want_c, bound, prec)
        _within(S, want_s, bound, prec)


@settings(deadline=None)
@given(
    st.lists(_entry, min_size=2, max_size=20),
    st.lists(_entry, min_size=1, max_size=20),
    st.booleans(),
    st.booleans(),
    st.integers(0, 1),
    st.integers(1, 10),
    st.integers(0, 5),
    st.integers(15, 300),
)
@example([1, 1], [1, 1], False, False, 0, 6, 0, 40)
@example(
    [(1, 290), 0, (-3, -480)], [0, (7, -500), (1, 300)], False, False, 1, 5, 2, 15
)
def test_power_diagonal_within_its_majorant(
    a, b, decay_f, decay_g, shift, count, extra, dps
):
    # q_k = f~ g~^k + sum_{i<k} eps_i g~^(k-i), |eps_i| << 2^(E_i-prec-65)
    # e(z), against count - 1 mpf products at 200 more digits; with
    # |f~| << F = |f| + max|f| 2^-(prec+64) e(z), G likewise, and
    # 2^E_i <= 2 max|q_i| <= 4 max F G^i, the error of [z^(k+s)] q_k is
    # under that of F G^k - |f| |g|^k + 2^-(prec+62) sum_i max(F G^i)
    # e(z) G^(k-i)
    f, g = _factor(a, decay_f), _factor(b, decay_g)
    T = count + shift + extra
    with mp.workdps(dps):
        prec = mp.prec
        got = series_power_diagonal(f, g, shift, count, T)
    with mp.workdps(dps + 200):
        want = oracles.stepped_power_diagonal(f, g, shift, count, T)
        unit = mpf(2) ** -(prec + 64)

        def times(h, q):
            """h q to T coefficients, zero past its end."""
            out = series_product(h, q, T)
            return out + [mpf(0)] * (T - len(out))

        absf, absg = [abs(mpf(c)) for c in f[:T]], [abs(mpf(c)) for c in g[:T]]
        F = [c + _top_scale(f, T) * unit for c in absf]
        G = [c + _top_scale(g, T) * unit for c in absg]
        powers, exact = [F], [absf]  # F G^k and |f| |g|^k
        for _ in range(1, count):
            powers.append(times(powers[-1], G))
            exact.append(times(exact[-1], absg))
        bound = [mpf(0)]  # f[shift] itself, rounded once
        for k in range(1, count):
            total = powers[k][k + shift] - exact[k][k + shift]
            for i in range(1, k):
                eps = [4 * max(powers[i]) * unit] * T
                for _ in range(k - i):
                    eps = times(eps, G)
                total += eps[k + shift]
            bound.append(total)
        _within(got, want, bound, prec)


def test_log1p_mercator():
    L = series_log1p([0, 1], 3)
    assert L[0] == 0
    assert L[1] == 1
    assert abs(L[2] + mpf(1) / 2) < mpf(10) ** -35
    assert abs(L[3] - mpf(1) / 3) < mpf(10) ** -35


def test_log1p_substitution():
    L = series_log1p([0, 0, -1], 6)
    # -z^2 - z^4/2 - z^6/3, every odd power an exact zero
    assert len(L) == 7
    assert L[2] == -1
    assert abs(L[4] + mpf(1) / 2) < mpf(10) ** -35
    assert abs(L[6] + mpf(1) / 3) < mpf(10) ** -35
    assert L[1] == L[3] == L[5] == 0


def test_log1p_rejects_constant_term():
    with pytest.raises(UsageError):
        series_log1p([1, 1], 4)


def test_exp_log_roundtrip_random():
    rng = random.Random(2024)
    for trial in range(5):
        T = rng.randrange(8, 33)
        f = [mpf(0)] + [mpf(rng.uniform(-1, 1)) for _ in range(T - 1)]
        back = series_exp0(series_log1p(f, T), T)
        assert back[0] == 1
        for e in range(1, T):
            diff = abs(back[e] - f[e])
            assert diff < mpf(10) ** -(mp.dps - T), (trial, e)


def test_reciprocal_and_pow():
    f = [1, 1]  # 1 + z
    r = series_reciprocal(f, 5)
    for e in range(5):
        assert abs(r[e] - (-1) ** e) < mpf(10) ** -35
    prod = series_multiply(f, r, 5)
    assert prod[0] == 1
    for e in range(1, 5):
        assert abs(prod[e]) < mpf(10) ** -35


def test_reciprocal_keeps_even_parity():
    r = series_reciprocal([2, 0, 1, 0, 3], 5)
    assert r[1] == r[3] == 0


def test_series_eval_is_horner():
    f = [mpf(1), mpf(-2), mpf(3)]
    assert series_eval(f, 2) == 1 - 4 + 12
    assert series_eval(f, mp.mpc(0, 1)) == mp.mpc(-2, -2)
    assert series_eval([], mpf(5)) == 0


def _as_mpf(q):
    return mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("shift", [0, 1])
def test_power_diagonal_matches_full_powers(shift):
    # random rational series, each f g^k formed in full and exactly by the
    # oracle; the stepped, truncated powers agree within 10^-(dps-10) of
    # the same coefficients of |f| |g|^k, which bound every partial sum
    rng = random.Random(5 + shift)
    f, g = (
        [Fraction(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(n)]
        for n in (7, 9)
    )
    count = 8
    want = power_diagonal(f, g, shift, count)
    scale = power_diagonal([abs(c) for c in f], [abs(c) for c in g], shift, count)
    got = series_power_diagonal(
        [_as_mpf(c) for c in f], [_as_mpf(c) for c in g], shift, count, count + shift
    )
    assert len(got) == count
    for k, (u, v, w) in enumerate(zip(got, want, scale)):
        assert abs(u - _as_mpf(v)) <= mpf(10) ** -(mp.dps - 10) * _as_mpf(w), k


@pytest.mark.parametrize("count", [1, 2, 7])
def test_power_diagonal_makes_count_minus_one_products(count, monkeypatch):
    # count - 1 integer products of the kernel, each to T coefficients,
    # and none through series_multiply's mpf round trip; exact on
    # integer input
    calls = []
    product = mpcore._fixed_product

    def counted(F, G, n):
        calls.append(n)
        return product(F, G, n)

    def refused(f, g, T):
        raise AssertionError("an mpf product")

    monkeypatch.setattr(mpcore, "_fixed_product", counted)
    monkeypatch.setattr(mpcore, "series_multiply", refused)
    f, g = [mpf(2), mpf(3), mpf(-1)], [mpf(1), mpf(1)]
    got = series_power_diagonal(f, g, 0, count, count)
    assert calls == [count] * (count - 1)
    want = power_diagonal([2, 3, -1], [1, 1], 0, count)
    assert got == [_as_mpf(v) for v in want]


@pytest.mark.parametrize(
    "man, shift",
    # x just under 1, x = 0.62.., and x = 2^-127.. with wp + exp < 0
    [((1 << 100) - 3, 100), (0x9E3779B97F4A7C15, 64), ((1 << 52) + 12345, 180)],
)
def test_fixed_horner_within_a_unit_per_step(man, shift):
    # coefficients of both signs at a scale of 2^-wp, wp = 120, against
    # exact rational evaluation: every step floors once and x < 1 magnifies
    # no earlier error, so the result is below the value by under
    # len(coeffs) units
    rng = random.Random(shift)
    wp = 120
    coeffs = [rng.randint(-(1 << wp), 1 << wp) for _ in range(15)]
    assert any(c < 0 for c in coeffs)
    x = Fraction(man, 1 << shift)
    exact = sum(Fraction(c) * x ** k for k, c in enumerate(coeffs))
    got = fixed_horner(coeffs, man, shift)
    assert exact - len(coeffs) < got <= exact


def test_fixed_horner_is_exact_on_integers():
    # x = 1 (man = 2^shift): no step truncates
    assert fixed_horner([3, -5, 7], 1 << 10, 10) == 5
    assert fixed_horner([], 3, 2) == 0


@pytest.mark.parametrize("kind", ["general", "even", "odd"])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 120])
def test_series_eval_orbit_matches_horner_at_each_turn(length, kind):
    # random real series, the even and odd ones with exact zeros, at the
    # four quarter turns of complex points, against series_eval at each,
    # within 2^-(prec-10) sum |c_k| |w|^k: the partial sums of both passes
    # lie under that sum
    rng = random.Random(10 * length + len(kind))
    f = [mpf(rng.uniform(-1, 1)) for _ in range(length)]
    if kind != "general":
        keep = 0 if kind == "even" else 1
        f = [c if k % 2 == keep else mpf(0) for k, c in enumerate(f)]
    for _ in range(4):
        w = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        turns = (w, mp.mpc(-w.imag, w.real), -w, mp.mpc(w.imag, -w.real))
        tol = mpf(2) ** -(mp.prec - 10) * sum(
            abs(c) * abs(w) ** k for k, c in enumerate(f)
        )
        for got, z in zip(series_eval_orbit(f, w), turns):
            assert abs(got - series_eval(f, z)) <= tol, (z, got)


# ----------------------------------------------------------------------
# properties of the series algebra the summation tails rest on, for random
# short series: each identity is checked coefficient by coefficient
# against the rounding its own sums allow, 10^-(dps-8) times the sum of
# the absolute values of the products that make the coefficient


def _series(draw_coeffs):
    return [mpf(c) for c in draw_coeffs]


def _abs_series(f):
    return [abs(c) for c in f]


def _close(got, want, scale):
    tol = mpf(10) ** -(mp.dps - 8)
    for k, (x, y) in enumerate(zip(got, want)):
        assert abs(x - y) <= tol * (1 + scale[k]), k


_unit = st.floats(-1, 1, allow_nan=False)
_constant = st.one_of(st.floats(-2, -0.5), st.floats(0.5, 2))


@given(_constant, st.lists(_unit, max_size=11))
def test_reciprocal_inverts_multiply(c0, rest):
    f = _series([c0] + rest)
    T = len(f)
    inv = series_reciprocal(f, T)
    prod = series_multiply(f, inv, T)
    scale = series_multiply(_abs_series(f), _abs_series(inv), T)
    _close(prod, [1] + [0] * (T - 1), scale)


@given(st.lists(st.floats(-0.25, 0.25), min_size=1, max_size=11))
def test_exp0_inverts_log1p(rest):
    f = _series([0] + rest)
    T = len(f) - 1
    back = series_exp0(series_log1p(f, T), T)
    big = series_exp0(series_log1p(_abs_series(f), T), T)
    # |log(1 + f)| is majorized by -log(1 - |f|) and exp by exp
    scale = series_exp0(
        [-c for c in series_log1p([-abs(c) for c in f], T)], T
    )
    assert back[0] == 1
    _close(back, [1] + f[1:], [max(a, b) for a, b in zip(scale, big)])


@given(st.lists(_unit, min_size=2, max_size=12), st.lists(_unit, min_size=2, max_size=12))
def test_derivative_product_rule(a, b):
    f, g = _series(a), _series(b)
    T = len(f) + len(g) - 1
    left = series_derivative(series_multiply(f, g, T))
    df, dg = series_derivative(f), series_derivative(g)
    right = [
        x + y
        for x, y in zip(
            series_multiply(df, g, T - 1) + [mpf(0)] * T,
            series_multiply(f, dg, T - 1) + [mpf(0)] * T,
        )
    ]
    scale = [
        (k + 1) * c
        for k, c in enumerate(series_multiply(_abs_series(f), _abs_series(g), T)[1:])
    ]
    _close(left, right, scale)


@given(st.lists(_unit, min_size=1, max_size=11))
def test_cos_sin_are_a_unit_pair(rest):
    # cos^2 + sin^2 = 1, and both match the scalar functions at z = 1/8
    f = _series([0] + rest)
    T = len(f) - 1
    C, S = series_cos_sin(f, T)
    square = [
        x + y for x, y in zip(series_multiply(C, C, T + 1), series_multiply(S, S, T + 1))
    ]
    bound = series_exp0(_abs_series(f), T)  # majorizes cos and sin
    scale = series_multiply(bound, bound, T + 1)
    _close(square, [1] + [0] * T, scale)
    with pytest.raises(UsageError):
        series_cos_sin([1, 1], 3)


def test_cos_sin_of_a_line():
    C, S = series_cos_sin([0, 1], 9)
    assert len(C) == len(S) == 10
    for k in range(10):
        want_c = 0 if k % 2 else (-1) ** (k // 2) / mp.factorial(k)
        want_s = (-1) ** (k // 2) / mp.factorial(k) if k % 2 else 0
        assert abs(C[k] - want_c) < mpf(10) ** -38
        assert abs(S[k] - want_s) < mpf(10) ** -38


def test_hurwitz_zetas_closed_forms():
    # at an integer shift zeta(j, q) = zeta(j) - sum_{m<q} m^-j: q = 1,
    # q = 23 (a short direct sum) and q = 200 (none), within 2^-(prec+10)
    # plus the final rounding of mpmath's Riemann zeta at three times the
    # precision, which covers the cancellation; below 1 the shift
    # q^-j + zeta(j, q + 1), checked relative to zeta(j, 1/2) =
    # (2^j - 1) zeta(j)
    def integer_shift(q):
        return lambda j: mp.zeta(j) - mp.fsum(mpf(m) ** -j for m in range(1, q))

    prec = mp.prec
    for q in (1, 23, 200):
        got = hurwitz_zetas(mpf(q), 2, 23)
        assert len(got) == 23
        for j, value in enumerate(got, start=2):
            with mp.workdps(3 * mp.dps):
                ref = integer_shift(q)(j)
                tol = mpf(2) ** -(prec + 10) + mpf(2) ** -prec * ref
                assert abs(value - ref) < tol, (q, j)
    got = hurwitz_zetas(mpf(1) / 2, 2, 23)
    for j, value in enumerate(got, start=2):
        with mp.workdps(3 * mp.dps):
            ref = (2 ** j - 1) * mp.zeta(j)
        assert abs(value / ref - 1) < mpf(10) ** -(mp.dps - 2), j
    with pytest.raises(UsageError):
        hurwitz_zetas(mpf(0), 2, 5)
    with pytest.raises(UsageError):
        hurwitz_zetas(mpf(1), 2, 0)


def test_hurwitz_zetas_real_first_exponent():
    # zeta(5/2 + i, q) at q = 19/4 and at q = 1/4, which goes through the
    # shift q^-w + zeta(w, q + 1), against a direct sum of 30 terms plus
    # mpmath's Hurwitz zeta at q + 30, both at three times the precision:
    # within 2^-(prec+10) plus the rounding to the working precision, one
    # rounding at q >= 1 and two below, where the shift adds a rounded term
    prec = mp.prec
    w = mpf(5) / 2
    for q, roundings in ((mpf(19) / 4, 1), (mpf(1) / 4, 2)):
        got = hurwitz_zetas(q, w, 24)
        assert len(got) == 24
        for i, value in enumerate(got):
            with mp.workdps(3 * mp.dps):
                v = w + i
                ref = mp.fsum((q + m) ** -v for m in range(30)) + mp.zeta(v, q + 30)
                tol = mpf(2) ** -(prec + 10) + roundings * mpf(2) ** -prec * ref
                assert abs(value - ref) < tol, (q, i)
    # the error proof needs a first exponent of at least 2
    for w in (mpf("1.5"), 1, mpf(-3)):
        with pytest.raises(UsageError):
            hurwitz_zetas(mpf(19) / 4, w, 4)


def test_hurwitz_zetas_late_orders():
    # 88 orders at q = 19/4 and the 60 digits l_series sums at for 30:
    # the late orders' direct powers and Bernoulli terms reach 0 in fixed
    # point, where both loops stop; checked as in the closed-form test
    # against mpmath at three times the precision
    q = mpf(19) / 4
    with mp.workdps(60):
        prec = mp.prec
        got = hurwitz_zetas(q, 2, 88)
        assert len(got) == 88
        for j, value in enumerate(got, start=2):
            with mp.workdps(3 * mp.dps):
                ref = mp.zeta(j, q)
                tol = mpf(2) ** -(prec + 10) + mpf(2) ** -prec * ref
                assert abs(value - ref) < tol, j


def test_newton_halves_toward_the_bracket():
    # plain Newton on atan diverges from 1.5 (it oscillates outward from
    # any |x| > 1.39); the half-way rule keeps it in (-2, 2) and it lands
    f = lambda x: (mp.atan(x), 1 / (1 + x * x))
    with mp.workdps(40):
        _x, root, _state = newton(bracketed_step(f, -2, 2), mpf("1.5"), 0, mpf(10) ** -30)
    assert abs(root) < mpf(10) ** -30


def test_newton_gives_up_naming_the_seed():
    calls = []

    def f(x):
        calls.append(x)
        return x * x + 1, 2 * x

    with pytest.raises(SolverError, match=r"from 0\.3 did not converge in 100 steps"):
        newton(bracketed_step(f, -10, 10), mpf("0.3"), 0, mpf(10) ** -30)
    assert len(calls) == mpcore._NEWTON_STEPS == 100


def _sqrt2_step(precisions):
    """bracketed_step on x^2 - 2 in (1, 2), noting the dps of each call."""

    def f(x):
        precisions.append(mp.dps)
        return x * x - 2, 2 * x

    return bracketed_step(f, 1, 2)


def test_newton_doubles_the_precision_from_a_seed_holding_nothing():
    # from 20 digits the steps rise with the digits each leaves, and the
    # search ends with two at the working dps: one makes an iterate there,
    # the next finds its step within tol
    precisions = []
    with mp.workdps(100):
        _x, root, _state = newton(_sqrt2_step(precisions), mpf("1.5"), 0, mpf(10) ** -95)
        assert abs(root - mp.sqrt(2)) < mpf(10) ** -98
    assert precisions[0] == 20
    assert precisions == sorted(precisions)
    assert 20 < precisions[-3] < 100
    assert precisions.count(100) == 2


def test_newton_seed_within_tol_costs_one_step():
    # a seed that holds the working digits is stepped there at once, and
    # counts as made there: one evaluation, which returns the seed and the
    # iterate its step makes
    precisions = []
    with mp.workdps(50):
        seed = mp.sqrt(2)
        x, nxt, state = newton(_sqrt2_step(precisions), seed, 50, mpf(10) ** -45)
        assert x == seed and state is None
        assert nxt == seed - (seed * seed - 2) / (2 * seed)
    assert precisions == [50]


def test_legendre_values():
    assert legendre_pair(0, mpf("0.3"))[0] == 1
    for n in range(11):
        assert legendre_pair(n, mpf(1))[0] == 1
    p2 = legendre_pair(2, mpf("0.5"))[0]
    assert abs(p2 + mpf("0.125")) < mpf(10) ** -35


def test_legendre_bonnet_residual():
    rng = random.Random(11)
    for _ in range(20):
        x = mpf(rng.uniform(-1, 1))
        for n in (1, 5, 17, 60, 199):
            pn, pn_minus = legendre_pair(n, x)
            pn_plus = legendre_pair(n + 1, x)[0]
            resid = (n + 1) * pn_plus - (2 * n + 1) * x * pn + n * pn_minus
            assert abs(resid) < mpf(10) ** -(mp.dps - 6)


def test_clenshaw_matches_direct():
    rng = random.Random(3)
    coeffs = [mpf(rng.uniform(-2, 2)) for _ in range(12)]
    x = mpf("0.37")
    direct = sum(c * legendre_pair(k, x)[0] for k, c in enumerate(coeffs))
    assert abs(fourier.legendre_band_value(coeffs, x) - direct) < mpf(10) ** -(mp.dps - 6)


def test_beta_values():
    # the Leibniz value at s=1 and Catalan's constant at s=2
    assert abs(beta_numeric(1) - mp.pi / 4) < mpf(10) ** -38
    assert abs(beta_numeric(2) - mp.catalan) < mpf(10) ** -38
    assert abs(beta_numeric(mpf(2)) - mp.catalan) < mpf(10) ** -38


def test_alternating_halfinteger_tail_matches_bruteforce():
    w = mpf(3)
    for n_start in (4, 5, 40):
        brute = mpf(0)
        for m in range(n_start + 1, n_start + 4001):
            term = mpf(2 * m + 1) / 2
            brute += (-1) ** (m + 1) * term ** (-w)
        # pair the remaining alternating tail crudely
        closed = alternating_halfinteger_tail(w, n_start)
        assert abs(closed - brute) < mpf(10) ** -9, n_start


def test_alternating_halfinteger_tail_at_one():
    # w = 1 sits on the removable Hurwitz singularity; check the digamma
    # branch against a paired brute-force sum
    with mp.workdps(30):
        for n_start in (4, 5):
            brute = mpf(0)
            for m in range(n_start + 1, n_start + 200001):
                brute += (-1) ** (m + 1) / (mpf(2 * m + 1) / 2)
            closed = alternating_halfinteger_tail(mpf(1), n_start)
            # partial alternating sum is within half the first dropped term
            gap = abs(closed - brute)
            assert gap < mpf(1) / (2 * (n_start + 200001)), n_start


def _exact(x):
    man, exp = x.man_exp
    return Fraction(abs(man)) * Fraction(2) ** exp * (-1 if x < 0 else 1)


_decimals = st.builds(
    "{}{}.{}{}{}e{}".format,
    st.sampled_from(["", "-"]),
    st.integers(1, 9),
    st.text("0123456789", max_size=20),
    st.integers(0, 30).map(lambda k: "9" * k),
    st.text("0123456789", max_size=10),
    st.integers(-30, 30),
)


@given(_decimals, st.integers(1, 60))
@example("0.1234" + "9" * 20 + "1", 4)
@example("0." + "9" * 25, 3)
def test_decimal_truncated_properties(text, digits):
    with mp.workdps(60):
        x = mpf(text)
        out = decimal_truncated(x, digits)
    exact = _exact(x)
    value = Fraction(out)
    mant, _, exp = out.partition("e")
    places = len(mant.partition(".")[2])
    unit = Fraction(10) ** (int(exp or 0) - places)
    assert len(mant.lstrip("-").replace(".", "").lstrip("0")) == digits
    assert (value < 0) == (exact < 0)
    assert abs(value) <= abs(exact)
    assert abs(exact) - abs(value) < unit


@given(_decimals, st.integers(1, 60), st.integers(-40, -1))
@example("0." + "9" * 25, 30, -3)
@example("-0.000123456", 5, -6)
def test_decimal_truncated_stops_at_the_lowest_place(text, digits, lowest):
    # the digits down to 10^lowest, never more than `digits` of them, in
    # the layout of the untruncated string; a value under the place is 0.0
    with mp.workdps(60):
        x = mpf(text)
        out = decimal_truncated(x, digits, lowest)
        full = decimal_truncated(x, digits)
    exact = _exact(x)
    if abs(exact) < Fraction(10) ** lowest:
        assert out == "0.0"
        return
    value = Fraction(out)
    mant, _, exp = out.partition("e")
    places = len(mant.partition(".")[2])
    unit = Fraction(10) ** (int(exp or 0) - places)
    assert unit >= Fraction(10) ** lowest
    assert (value < 0) == (exact < 0)
    assert abs(value) <= abs(exact)
    assert abs(exact) - abs(value) < unit
    full_mant, _, full_exp = full.partition("e")
    assert full_mant.startswith(mant) and full_exp == exp


@pytest.mark.parametrize("digits", [5000, 12000])
def test_decimal_truncated_past_the_int_string_limit(digits):
    # more digits than one str() call may convert under Python's default
    # limit of 4300; against mp.nstr at ten more digits, which needs the
    # limit lifted, in fixed and in scientific layout
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with mp.workdps(digits + 20):
            values = [mp.sqrt(2), mp.sqrt(3) * mpf(10) ** (3 * digits)]
            got = [decimal_truncated(x, digits) for x in values]
            sys.set_int_max_str_digits(0)
            ref = [mp.nstr(x, digits + 10) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)
    for out, full in zip(got, ref):
        mant, _, exp = out.partition("e")
        full_mant, _, full_exp = full.partition("e")
        assert len(mant.replace(".", "")) == digits
        assert full_mant.startswith(mant) and exp == full_exp
    assert got[1].endswith("e+%d" % (3 * digits))


def test_decimal_truncated_layout():
    assert decimal_truncated(mpf(0), 5) == "0.0"
    assert decimal_truncated(mp.inf, 5) == "+inf"
    assert decimal_truncated(mpf(1000), 4) == "1000"
    assert decimal_truncated(mpf("-0.000123456"), 3) == "-0.000123"
    assert decimal_truncated(mpf("1.23456e-9"), 3) == "1.23e-9"
    # an integer part longer than the kept digits goes to scientific form,
    # still truncated
    assert decimal_truncated(mpf("12345.678"), 4) == "1.234e+4"
    with pytest.raises(UsageError):
        decimal_truncated(mpf(1), 0)
