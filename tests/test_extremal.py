"""Tests for the extremal-function reconstruction layer.

Closed forms for the leading Taylor coefficients, odd sums, and offset
coefficients are frozen against the reference constants in refvals.py, so
every pipeline stage is checked against an expression that never ran
through the code under test.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import refvals
from oracles import (
    cancellation_digits,
    direct_summation,
    forward_even_coefficients,
    forward_factor_coefficients,
    series_exp0,
    series_log1p,
    transform_terms,
    truncation_orders,
)
from pwextremal import extremal, fourier, lseries
from pwextremal.mpcore import UsageError
from pwextremal.spectral import SolverError


def _refs():
    """(C, L1) parsed from the frozen reference strings at 60 digits."""
    with mp.workdps(60):
        return mpf(refvals.C_REF), mpf(refvals.L1_REF)


# ----------------------------------------------------------------------
# Taylor models


def test_factor_leading_coefficients(consts30):
    C, L1 = _refs()
    model = extremal.taylor_factor(consts30, 8)
    with mp.workdps(60):
        a2 = L1 ** 2 / 2 + 2 * L1 * C
        a3 = L1 ** 3 / 6 + mpf(8) / 3 * L1 ** 2 * C + 8 * L1 * C ** 2 + mp.pi ** 2 * C / 6
        assert model.coeffs[0] == 1
        assert abs(model.coeffs[1] - L1) < mpf("1e-25")
        assert abs(model.coeffs[2] - a2) < mpf("1e-25")
        assert abs(model.coeffs[3] - a3) < mpf("1e-25")


def test_factor_frame_constants(consts30):
    C, L1 = _refs()
    model = extremal.taylor_factor(consts30, 4)
    with mp.workdps(60):
        assert abs(model.a - 1 / (2 * C)) < mpf("1e-25")
        assert abs(model.lam + L1 / (2 * C)) < mpf("1e-25")


def test_general_frame_rescaling(consts30):
    # the same eigenfunction written in the b=1 frame has coefficients
    # scaled by (2/pi)^n relative to its own frame
    a1, lam, _xi = extremal.refined_spectral_frame(consts30, 60)
    native = extremal.taylor_factor(consts30, 10, digits=25)
    with mp.workdps(60):
        unit = extremal._factor_coefficients(a1, 1, lam, 10)
        scale = 2 / mp.pi
        for n in range(11):
            rhs = native.coeffs[n] * scale ** n
            assert abs(unit[n] - rhs) < mpf("1e-20")


def test_extremal_leading_coefficients(consts30):
    C, L1 = _refs()
    model = extremal.taylor_extremal(consts30, 6)
    with mp.workdps(60):
        u1 = 4 * C * L1
        u2 = 96 * L1 * C ** 3 + (24 * L1 ** 2 + 2 * mp.pi ** 2) * C ** 2
        assert model.coeffs[0] == 1
        assert abs(model.coeffs[2] - u1) < mpf("1e-25")
        assert abs(model.coeffs[4] - u2) < mpf("1e-25")
        assert abs(u1 - mpf(refvals.U1_REF)) < mpf("1e-5")


def test_extremal_parity_exact(consts30):
    model = extremal.taylor_extremal(consts30, 6)
    assert len(model.coeffs) == 13
    for k in range(1, len(model.coeffs), 2):
        assert model.coeffs[k] == 0


def test_extremal_cross_check_runs(consts30):
    # the product route is recomputed inside and must agree; a pass here
    # is the two-route consistency statement
    model = extremal.taylor_extremal(consts30, 12)
    assert len(model.coeffs) == 25
    assert model.dps == consts30.digits_certified + extremal._TAYLOR_GUARD


def test_taylor_models_match_the_forward_recursions(consts30):
    # the closed form on the eigenvector and the backward factor run
    # against the forward recursions at 700 digits, where their loss of
    # about 2 log10(T!) digits (400 at T = 120) still leaves 300
    fresh = copy.copy(consts30)
    fresh.frame = None
    a1, lam, _xi = extremal.refined_spectral_frame(fresh, 700)
    with mp.workdps(700):
        a = 2 * a1 / mp.pi
        even = forward_even_coefficients(a, mp.pi / 2, lam, 61)
        factor = forward_factor_coefficients(a, mp.pi / 2, lam, 120)
    ext = extremal.taylor_extremal(consts30, 61, digits=50)
    fac = extremal.taylor_factor(consts30, 120, digits=50)
    with mp.workdps(700):
        for m, u in enumerate(even):
            assert abs(ext.coeffs[2 * m] / u - 1) < mpf(10) ** -55, m
        for n, c in enumerate(factor):
            assert abs(fac.coeffs[n] / c - 1) < mpf(10) ** -55, n


def test_extremal_sweeps_past_the_frame_for_high_orders(consts30, sweeps):
    # at 100 digits plus the guard the N = 128 frame holds xi_m only to
    # about m = 115 by the tail estimate; order 120 sweeps again on
    # N = 256 and keeps its digits there, against the forward recursion
    fresh = copy.copy(consts30)
    fresh.frame = None
    a1, lam, _xi = extremal.refined_spectral_frame(fresh, 1000)
    with mp.workdps(1000):
        u = forward_even_coefficients(2 * a1 / mp.pi, mp.pi / 2, lam, 120)
    fresh.frame = None
    sweeps.clear()
    ext = extremal.taylor_extremal(fresh, 120, digits=100)
    assert max(N for N, _dps in sweeps) == 256
    with mp.workdps(1000):
        for m in (60, 110, 120):
            assert abs(ext.coeffs[2 * m] / u[m] - 1) < mpf(10) ** -100, m


def test_truncation_validation(consts30):
    with pytest.raises(UsageError):
        extremal.taylor_factor(consts30, 1)
    with pytest.raises(UsageError):
        extremal.taylor_extremal(consts30, 0)


def test_closed_form_orders_match_the_accumulated_loops():
    # the float log10 searches give the orders that accumulating the terms
    # at 25 digits gives, on radii from the reflection samples (0.6) to past
    # the minimizer's disk (10), and on the transform at digits 10..699
    targets = list(range(5, 699, 3))
    for radius in (0.6, 2.44, 3, 4.4, 5, 9.5, 10, 20.5, 40.5):
        got = [extremal._truncation_order(radius, t) for t in targets]
        assert got == truncation_orders(radius, targets), radius
    for digits in range(10, 700):
        got = fourier._transform_terms(digits, refvals.C_REF)
        assert got == transform_terms(digits, refvals.C_REF), digits


def test_refined_frame_cached_on_constants(consts30, sweeps, payload):
    # a request at or below the held frame's digits makes no sweep, and
    # the cache stays out of the payload
    first = extremal.refined_spectral_frame(consts30, 100)
    held = consts30.frame[0]
    assert held >= 100
    sweeps.clear()
    for need in (40, 100, held):
        assert extremal.refined_spectral_frame(consts30, need) == first
    assert sweeps == []
    assert "frame" not in payload(consts30, "constants")


def test_refined_frame_work_count(consts30, sweeps):
    # the re-solve continues Newton from the certified root at the
    # request plus the frame guard, 212 digits, on the certified N = 128,
    # whose tail already clears them; one sweep per precision doubling
    fresh = copy.copy(consts30)
    fresh.frame = None
    a1, _lam, _xi = extremal.refined_spectral_frame(fresh, 200)
    assert fresh.frame[0] == 200
    assert 0 < len(sweeps) <= 4
    assert max(dps for _N, dps in sweeps) <= 212
    assert max(N for N, _dps in sweeps) <= 128
    with mp.workdps(130):
        assert abs(a1 - mp.pi / (4 * mpf(refvals.C_REF))) < mpf(10) ** -100


def test_refined_frame_starts_from_the_held_frame(consts30, sweeps):
    # a request past the held frame starts from it: its 150 digits need
    # no sweep below the target precision
    fresh = copy.copy(consts30)
    fresh.frame = None
    extremal.refined_spectral_frame(fresh, 150)
    sweeps.clear()
    extremal.refined_spectral_frame(fresh, 250)
    assert [dps for _N, dps in sweeps] == [262, 262]


def test_dropped_row_trips(consts30):
    # the backward factor run leaves row 0 out; an eigenvalue off by
    # 10^-(digits-5) must trip its residual, not return coefficients
    digits = 30
    a1, lam, _xi = extremal.refined_spectral_frame(consts30, digits + 10)
    with mp.workdps(digits + 10):
        a = 2 * a1 / mp.pi
        extremal._factor_coefficients(a, mp.pi / 2, lam, 120)
        with pytest.raises(SolverError, match="row 0"):
            extremal._factor_coefficients(
                a, mp.pi / 2, lam + mpf(10) ** -(digits - 5), 120
            )


# ----------------------------------------------------------------------
# odd sums


def test_odd_sums_closed_forms(consts30):
    C, L1 = _refs()
    sums = extremal.alternating_sums_odd(consts30, 3, 30)
    with mp.workdps(60):
        L3 = 24 * L1 * C ** 2 + (mp.pi ** 2 / 2 + 2 * L1 ** 2) * C
        L5 = (
            1920 * L1 * C ** 4
            + (40 * mp.pi ** 2 + 448 * L1 ** 2) * C ** 3
            + (2 * L1 * mp.pi ** 2 + 8 * L1 ** 3) * C ** 2
        )
        assert abs(sums[0] - L1) < mpf("1e-28")
        assert abs(sums[1] - L3) < mpf("1e-27")
        assert abs(sums[2] - L5) < mpf("1e-26")


# ----------------------------------------------------------------------
# offset coefficients


def test_offset_coefficients_closed_forms(consts30):
    C, L1 = _refs()
    rho = extremal.offset_coefficients(consts30, 6)
    with mp.workdps(60):
        L3 = 24 * L1 * C ** 2 + (mp.pi ** 2 / 2 + 2 * L1 ** 2) * C
        L5 = (
            1920 * L1 * C ** 4
            + (40 * mp.pi ** 2 + 448 * L1 ** 2) * C ** 3
            + (2 * L1 * mp.pi ** 2 + 8 * L1 ** 3) * C ** 2
        )
        a1 = -L1 / (mp.pi ** 2 * C)
        a3 = (L1 ** 2 / C ** 2 + L3 / (12 * C ** 3)) / mp.pi ** 4
        a5 = (
            -2 * L1 ** 3 / C ** 3 - L3 * L1 / (3 * C ** 4) - L5 / (80 * C ** 5)
        ) / mp.pi ** 6
        assert abs(rho[0] - a1) < mpf("1e-28")
        assert abs(rho[2] - a3) < mpf("1e-28")
        assert abs(rho[4] - a5) < mpf("1e-28")
    assert abs(rho[0] - mpf(refvals.A1_REF)) < mpf("2e-13")
    assert abs(rho[2] - mpf(refvals.A3_REF)) < mpf("2e-14")
    assert abs(rho[4] - mpf(refvals.A5_REF)) < mpf("2e-15")


def test_offset_coefficients_structure(consts30):
    rho = extremal.offset_coefficients(consts30, 20)
    partial = mpf(0)
    with mp.workdps(40):
        for m, a_m in enumerate(rho, start=1):
            if m % 2 == 0:
                assert a_m == 0
            else:
                assert a_m > 0
                nxt = partial + a_m * mpf(2) ** m
                assert nxt > partial
                partial = nxt
        assert partial < mpf("0.5")


def _horner_oracle(rho_coeffs, x):
    """rho(x) by mpf Horner at the ambient precision."""
    acc = mpf(0)
    for a_m in reversed(rho_coeffs):
        acc = acc * x + a_m
    return acc * x


def _offset_table(rho_coeffs):
    """The offset table of a model on rho_coeffs at the working precision;
    the model's head is never read."""
    return extremal.ZeroModel(rho_coeffs, [], 1, 1).offset_table()


_half = st.fractions(-Fraction(1, 2), Fraction(1, 2), max_denominator=10**12)


@settings(deadline=None)
@given(
    st.lists(_half, min_size=1, max_size=80),
    st.booleans(),
    st.fractions(0, Fraction(2, 3), max_denominator=10**9).filter(lambda q: q > 0),
    st.integers(15, 1000),
)
def test_rho_series_value_matches_oracle(coeffs, zero_even, x, dps):
    # coefficients carry more bits than the working precision, as
    # offset_coefficients' do; the bound is the docstring's 2M units of
    # 2^-(prec + 20) plus the final rounding to prec bits, so it catches
    # any error that survives that rounding (a coefficient rounded to
    # prec bits first fails it)
    if zero_even:
        coeffs = [0 if m % 2 == 0 else c for m, c in enumerate(coeffs, start=1)]
    with mp.workdps(dps + 10):
        rho = [mpf(c.numerator) / c.denominator for c in coeffs]
    with mp.workdps(dps):
        xm = mpf(x.numerator) / x.denominator
        value = extremal.rho_series_value(_offset_table(rho), xm)
        prec = mp.prec
    with mp.workdps(dps + 40):
        exact = _horner_oracle(rho, xm)
        units = 2 * len(rho) * mpf(2) ** -(prec + 20)
        assert abs(value - exact) <= units + abs(exact) * mpf(2) ** -prec


def test_rho_series_value_domain():
    for x in (mpf(0), mpf("-0.5"), mpf(1), mpf("1.5")):
        with pytest.raises(UsageError):
            extremal.rho_series_value([0, 1], x)


# ----------------------------------------------------------------------
# the zero model


def test_zero_head_reference_values(consts30):
    zs = extremal.build_zero_model(consts30).refined
    with mp.workdps(40):
        assert abs(zs[0] - mpf(refvals.TAU1_REF)) < mpf("1e-22")
        assert abs(zs[2] - mpf(refvals.TAU3_REF)) < mpf("1e-22")


def test_zero_newton_from_a_seed_near_its_bracket_edge(consts30):
    # the search runs within half a unit of the seed; from tau_1 + 0.4 the
    # first step leaves it, and the half-way rule brings the iterate back
    # (restarting at the bracket midpoint would return to the seed)
    with mp.workdps(40):
        tau1 = mpf(refvals.TAU1_REF)
        (t,) = extremal.refine_zeros_newton(consts30, [tau1 + mpf("0.4")])
        assert abs(t - tau1) < mpf("1e-22")


def test_zero_model_interlacing(consts30):
    model = extremal.build_zero_model(consts30)
    prev = mpf(0)
    for n in range(1, 61):
        t = extremal.tau(model, n)
        assert n < t < n + mpf(1) / 2
        assert t > prev
        prev = t


def test_newton_matches_series_within_tail_bound(consts30):
    model = extremal.build_zero_model(consts30)
    upto = model.n0 + 3
    with mp.workdps(45):
        seeds = [extremal.tau_series(model, n) for n in range(1, upto + 1)]
    refined = extremal.refine_zeros_newton(consts30, seeds)
    with mp.workdps(45):
        for n in range(1, upto + 1):
            series_val = extremal.tau_series(model, n)
            bound = extremal.rho_tail_bound(model.M, mpf(2) / (2 * n + 1))
            assert abs(refined[n - 1] - series_val) <= bound + mpf("1e-24")


def test_offset_table_is_kept_per_precision(consts30):
    # the model's own dps, at which the zeros and summation commands read
    # it, and brute_force_value's, in turn and back: each read equals a
    # fresh model's, which has made no table yet
    model = extremal.build_zero_model(consts30)
    digits = model.digits
    brute = min(digits, lseries._BRUTE_RESOLVED) + lseries._BRUTE_GUARD
    assert brute != model.dps
    for dps in (model.dps, brute, model.dps):
        fresh = extremal.ZeroModel(model.rho_coeffs, model.refined, model.n0, digits)
        with mp.workdps(dps):
            for n in (1, model.n0, model.n0 + 1, 100):
                assert extremal.tau_series(model, n) == extremal.tau_series(fresh, n)
                assert extremal.tau(model, n) == extremal.tau(fresh, n)


def test_cancellation_headroom_in_floats(consts30):
    # the radii the package asks for, and tau_n + 1 for the refined head,
    # as refine_zeros_newton takes them: the float form equals the mpf one
    model = extremal.build_zero_model(consts30)
    radii = [0.6, 2.5, 3, 5] + [float(t) + 1 for t in model.refined]
    for radius in radii:
        assert extremal._cancellation_digits(radius) == cancellation_digits(radius), radius


def test_tau_gate(consts30):
    with pytest.raises(UsageError):
        extremal.tau(extremal.build_zero_model(consts30), 0)


def test_zero_model_checks_its_tail_bound_when_made(consts30):
    # six offset coefficients leave a tail bound near 1e-7 at n = 4, far
    # above 10^-30: the model is refused when it is made, not when read
    model = extremal.build_zero_model(consts30)
    with pytest.raises(UsageError, match="tail bound .* at n=4"):
        extremal.ZeroModel(
            rho_coeffs=model.rho_coeffs[:6],
            refined=model.refined[:3],
            n0=3,
            digits=model.digits,
        )


def test_zeros_signed_reads_the_model_unchecked(consts30, monkeypatch):
    # the model checked its tail bound when it was made, so reading 800
    # zeros evaluates no bound
    model = extremal.build_zero_model(consts30)
    calls = []
    bound = extremal.rho_tail_bound

    def counted(M, x):
        calls.append(x)
        return bound(M, x)

    monkeypatch.setattr(extremal, "rho_tail_bound", counted)
    with mp.workdps(45):
        signed = extremal.zeros_signed(model, 800)
        assert calls == []
        for n in (1, model.n0, model.n0 + 1, model.n0 + 2, 800):
            assert signed[n - 1] == (-1) ** (n + 1) * extremal.tau(model, n)


def test_zero_model_rejects_heavy_offset_coefficients(consts30, monkeypatch):
    # the series tail bound assumes sum_m a_m 2^m <= 1/2; here it is
    # 0.2 * 2 + 0.05 * 8 = 0.8
    def heavy(consts, M, digits=None):
        return [mpf("0.2"), mpf(0), mpf("0.05")]

    monkeypatch.setattr(extremal, "offset_coefficients", heavy)
    with pytest.raises(SolverError, match="1/2"):
        extremal.build_zero_model(
            extremal.ExtremalConstants(
                C=consts30.C,
                L1=consts30.L1,
                a_star=consts30.a_star,
                lambda_star=consts30.lambda_star,
                N=consts30.N,
                digits_certified=consts30.digits_certified,
                dps=consts30.dps,
            )
        )


def test_signed_zeros_alternate(consts30):
    model = extremal.build_zero_model(consts30)
    signed = extremal.zeros_signed(model, 6)
    for n, mu in enumerate(signed, start=1):
        assert (mu > 0) == (n % 2 == 1)


# ----------------------------------------------------------------------
# residual checks


def test_ode_residual(consts30):
    assert extremal.check_ode_residual(consts30) < mpf("1e-20")


def test_extremal_ode_residual(consts30):
    assert extremal.check_extremal_ode_residual(consts30) < mpf("1e-20")


def test_quadratic_relation(consts30):
    assert extremal.check_quadratic_relation(consts30) < mpf("1e-20")


def test_zero_curvature(consts30):
    assert extremal.zero_curvature_residual(consts30) < mpf("1e-20")


def test_functional_equation(consts30):
    assert extremal.check_functional_equation(consts30) < mpf("1e-20")


def test_reflection_coefficients(consts30):
    C, _L1 = _refs()
    k_plus, k_minus = fourier.endpoint_reflection_constants(consts30)
    with mp.workdps(60):
        mag = 1 / mp.sqrt(4 * mp.pi * C)
        want_plus = mag * mp.exp(mp.mpc(0, 1) * mp.pi / 4)
        want_minus = mag * mp.exp(-mp.mpc(0, 1) * mp.pi / 4)
        assert abs(k_plus - want_plus) < mpf("1e-25")
        assert abs(k_minus - want_minus) < mpf("1e-25")


def _move_taylor_models(monkeypatch, field):
    """Make both Taylor models come out with `field` (a or lam) moved by
    1e-15, at the model's own precision."""
    for name in ("taylor_factor", "taylor_extremal"):

        def moved(consts, T, digits=None, build=getattr(extremal, name)):
            model = build(consts, T, digits=digits)
            with mp.workdps(model.dps):
                value = getattr(model, field) + mpf("1e-15")
            model = copy.copy(model)
            setattr(model, field, value)
            return model

        monkeypatch.setattr(extremal, name, moved)


@pytest.mark.parametrize(
    "field, checks",
    [
        ("a", ["check_ode_residual", "check_quadratic_relation", "check_functional_equation"]),
        ("lam", ["check_ode_residual", "check_extremal_ode_residual"]),
    ],
)
def test_circle_checks_fail_on_a_moved_model(consts30, monkeypatch, field, checks):
    # each circle check reads the constant it is about off the model it
    # evaluates, so a model off by 1e-15 there fails the 1e-20 of the
    # tests above
    _move_taylor_models(monkeypatch, field)
    for name in checks:
        assert getattr(extremal, name)(consts30) > mpf("1e-20"), name


# ----------------------------------------------------------------------
# summation identity


def test_summation_rejects_non_odd_functions(consts30, monkeypatch):
    # the identity sees only the odd part of f, which summation_check
    # takes as given: an even f, or one with an even part, is refused
    model = extremal.build_zero_model(consts30)
    zeros = extremal.zeros_signed(model, 40)
    none = extremal.SummationTail(value=mpf(0), bound=mpf(0), order=0)

    def sinc4(x):
        if x == 0:
            return mpf(1)
        u = mp.pi * x / 4
        return (mp.sin(u) / u) ** 4

    def mixed(x):
        if x == 0:
            return mpf(1)
        u = mp.pi * x / 5
        return x * (mp.sin(u) / u) ** 5 + sinc4(x)

    for f in (sinc4, mixed):
        monkeypatch.setattr(extremal, "_test_function", f)
        with pytest.raises(UsageError, match="odd"):
            extremal.summation_check(consts30.a_star, zeros, none)


def test_summation_odd_function(consts30):
    # f(x) = x sinc(pi x / 5)^5 has type pi, f'(0) = 1, and O(x^-4) decay;
    # past a head of 800 zeros the tail series needs few orders
    model = extremal.build_zero_model(consts30)
    with mp.workdps(45):
        zeros = extremal.zeros_signed(model, 800)
        # the unscaled zero set pairs with the drift constant 1/(2C)
        a_param = 2 * consts30.a_star / mp.pi
        tail = extremal.zero_model_tail(model, 800)
        defect = extremal.summation_check(a_param, zeros, tail)
        assert len(zeros) == 800
        assert tail.order < 15
        assert tail.bound < mpf("1e-35")
        assert defect < mpf("1e-30")
        # its majorant bound on f' holds from Y = 8 on
        with pytest.raises(UsageError, match="at least 7"):
            extremal.zero_model_tail(model, 6)


def test_binomial_tail_expansion_matches_log_exp(consts30):
    # the power recurrence against exp(-s log(1 - x rho)) through the
    # series helpers, at integer, half-integer and negative s; the odd
    # coefficients of the even series are exactly zero
    rho = extremal.build_zero_model(consts30).rho_coeffs
    with mp.workdps(50):
        log = series_log1p([0, 0] + [-c for c in rho[:29]], 30)
        for s in (mpf(3), mpf("2.5"), mpf(1), mpf(-5), mpf(-6)):
            got = extremal.binomial_tail_expansion(rho, s, 30)
            ref = series_exp0([-s * c for c in log], 30)
            assert len(got) == 31
            for n, value in enumerate(got):
                want = ref[n]
                assert abs(value - want) <= mpf(10) ** -45 * max(1, abs(want)), (s, n)
            assert all(value == 0 for value in got[1::2]), s


def test_summation_tails_match_the_direct_sum(consts30):
    # head plus closed-form tail against the plain sum over 10 000 zeros
    # (tests/oracles.py), within that sum's own tail bound, for both
    # systems at 30 digits
    model = extremal.build_zero_model(consts30)
    with mp.workdps(45):
        direct, bound = direct_summation(extremal.zeros_signed(model, 10000))
        assert bound < mpf("7e-12")
        head = extremal.zeros_signed(model, 100)
        tail = extremal.zero_model_tail(model, 100)
        assert abs(direct_summation(head)[0] + tail.value - direct) < bound
        _a, many, _tail = extremal.summation_system(mpf(1), 5000, 30)
        direct, bound = direct_summation(many)
        assert bound < mpf("7e-12")
        _a, head, tail = extremal.summation_system(mpf(1), 50, 30)
        assert abs(direct_summation(head)[0] + tail.value - direct) < bound


def test_summation_system_recovers_extremal_ladder(consts30):
    # at the extremal drift the Bessel-series ladder must reproduce the
    # signed tau zeros and the drift weight 1/(2C)
    a_param, mu, _tail = extremal.summation_system(consts30.a_star, 14, digits=24)
    model = extremal.build_zero_model(consts30)
    with mp.workdps(40):
        ref = extremal.zeros_signed(model, 28)
        assert abs(a_param - 1 / (2 * consts30.C)) < mpf("1e-28")
        assert len(mu) == 28
        assert max(abs(x - y) for x, y in zip(mu, ref)) < mpf("1e-27")


def test_summation_system_other_drift(consts30):
    a_param, mu, tail = extremal.summation_system(mpf(1), 60, digits=20)
    with mp.workdps(40):
        assert abs(a_param - 2 / mp.pi) < mpf("1e-30")
    # signs interleave and absolute values increase
    assert len(mu) == 120
    for x, y in zip(mu, mu[1:]):
        assert abs(y) > abs(x)
        assert mp.sign(x) * mp.sign(y) == -1
    # the identity itself, head plus tail, to the requested digits
    with mp.workdps(35):
        assert tail.bound < mpf("1e-25")
        assert extremal.summation_check(a_param, mu, tail) < mpf("1e-20")


def test_summation_system_rejects_colliding_zeros(monkeypatch):
    # a zero shared by the two ladders keeps the signs alternating, so
    # only the distance check can catch it; the alternating series is the
    # one with c_1 = -xi_1 < 0
    def ladder(series, count, digits):
        first = 1 if series.coeffs[1] < 0 else 2
        zeros = [mpf(first + 2 * k) for k in range(count)]
        if first == 2:
            zeros[1] = mpf(3)
        return zeros, None, None

    monkeypatch.setattr(extremal, "_bessel_zero_ladder", ladder)
    with pytest.raises(SolverError, match="collide"):
        extremal.summation_system(mpf(1), 10, 20)


def test_summation_system_rejects_ladders_that_do_not_interleave(monkeypatch):
    # two zeros of the reflected ladder between neighbours of the other
    def ladder(series, count, digits):
        first = 1 if series.coeffs[1] < 0 else 2
        zeros = [mpf(first + 2 * k) for k in range(count)]
        if first == 2:
            zeros[1] = mpf("2.5")
        return zeros, None, None

    monkeypatch.setattr(extremal, "_bessel_zero_ladder", ladder)
    with pytest.raises(SolverError, match="interleave"):
        extremal.summation_system(mpf(1), 10, 20)


def test_bessel_series_matches_besselj_oracle():
    # the closed form from the scan start 2/5 on, against
    # j_m(x) = sqrt(pi/(2x)) J_{m+1/2}(x) from mpmath's own Bessel function
    with mp.workdps(50):
        xi = extremal._eigen_bessel_coefficients(mpf(1), 20)
        M = len(xi) - 1
        points = [mpf("0.4"), mpf(7), M + mpf("3.9"), M + mpf("4.1"),
                  mpf("100.3"), mpf("2718.28"), mpf(30000)]
        tol = mpf(10) ** -(mp.dps - 10)
        for alternate in (True, False):
            series = extremal._bessel_series(xi, alternate)
            for x in points:
                val, der = extremal._bessel_series_eval(series, x)
                with mp.workdps(80):
                    ref_val = ref_der = mpf(0)
                    w = mp.sqrt(mp.pi / (2 * x))
                    for m, c in enumerate(xi):
                        c = -c if (alternate and m % 2) else c
                        J = mp.besselj(m + mpf(1) / 2, x)
                        dJ = mp.besselj(m + mpf(1) / 2, x, derivative=1)
                        ref_val += c * w * J
                        ref_der += c * w * (dJ - J / (2 * x))
                assert abs(val - ref_val) < tol, (alternate, x)
                assert abs(der - ref_der) < tol, (alternate, x)
            with pytest.raises(UsageError):
                extremal._bessel_series_eval(series, mpf("0.39"))


def test_summation_system_work_count(monkeypatch):
    # past the head scan each zero costs its Newton steps alone; the
    # phase-series seed is within 10^-(digits+5) 2^-10 of the zero, so one
    # evaluation, whose step is under 10^-(digits+5), certifies it: at most
    # 1.1 evaluations a zero at 100 and at 1000 zeros a sign (the
    # second-difference seed alone took 3.1 and 2.4); counted by wrapping
    # the series evaluator
    calls = []
    evaluate = extremal._bessel_series_eval

    def counted(series, x):
        calls.append((series.coeffs[1] < 0, x))
        return evaluate(series, x)

    monkeypatch.setattr(extremal, "_bessel_series_eval", counted)
    for head in (100, 1000):
        calls.clear()
        _a, mu, _tail = extremal.summation_system(mpf(1), head, digits=20)
        with mp.workdps(50):
            for alternate in (True, False):
                ladder = sorted(
                    abs(m) * mp.pi / 2 for m in mu if (m > 0) == alternate
                )
                assert len(ladder) == head
                # the scan stops one step of 0.4 past the third zero, and
                # every later Newton iterate lies half a gap (about pi/2)
                # beyond it
                scan_end = ladder[2] + mpf("0.4")
                past_scan = [
                    x for alt, x in calls if alt == alternate and x > scan_end
                ]
                assert len(past_scan) <= mpf("1.1") * (head - 3), (
                    head,
                    alternate,
                )


def _drift_one_series(alternate):
    """Bessel series of the drift 1 system at 20 digits, built at the
    working precision of summation_system."""
    xi = extremal._eigen_bessel_coefficients(mpf(1), 20)
    return extremal._bessel_series(xi, alternate)


def test_zero_ladder_without_phase_seeds(monkeypatch):
    # a phase series of zeros seeds every zero at k pi: poor seeds cost
    # Newton steps, never a different zero
    calls = []
    evaluate = extremal._bessel_series_eval

    def counted(series, x):
        calls.append(x)
        return evaluate(series, x)

    monkeypatch.setattr(extremal, "_bessel_series_eval", counted)
    with mp.workdps(50):
        both = [_drift_one_series(alternate) for alternate in (True, False)]
        seeded = [extremal._bessel_zero_ladder(s, 60, 20)[0] for s in both]
        seeded_calls = len(calls)
        phase = extremal._phase_series
        monkeypatch.setattr(
            extremal, "_phase_series", lambda s, u: [mpf(0)] * len(phase(s, u))
        )
        calls.clear()
        unseeded = [extremal._bessel_zero_ladder(s, 60, 20)[0] for s in both]
        for zs, ws in zip(seeded, unseeded):
            assert max(abs(z - w) for z, w in zip(zs, ws)) < mpf(10) ** -25
        assert len(calls) > seeded_calls + 120


def test_zeros_solve_the_phase_equation():
    # the k-th zero solves x + psi(1/x) = k pi, k counting up from the
    # head, at the 4th, 100th and 5000th zero
    with mp.workdps(50):
        series = _drift_one_series(True)
        zeros, phase, k_last = extremal._bessel_zero_ladder(series, 5000, 20)

        def offset(n):
            x = zeros[n - 1]
            v = x + mp.polyval(phase[::-1], 1 / x)
            k = mp.nint(v / mp.pi)
            return k, abs(v - k * mp.pi)

        k3, _ = offset(3)
        for n in (4, 100, 5000):
            k, miss = offset(n)
            assert k - k3 == n - 3
            assert miss < mpf(10) ** -25, n
        assert k == k_last


def test_summation_system_validation():
    with pytest.raises(UsageError):
        extremal.summation_system(mpf(2), 10, 20)
    with pytest.raises(UsageError):
        extremal.summation_system(mpf(1), 1, 20)


# ----------------------------------------------------------------------
# the constant reconstructed from the zeros


def test_constant_from_alternating_series(consts30):
    recon = extremal.constant_from_zeros_alternating(consts30)
    assert abs(recon - consts30.C) < mpf("1e-20")
