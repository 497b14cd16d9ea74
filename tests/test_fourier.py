"""Tests for the band-transform layer.

The quadrature oracle at the bottom integrates the extremal function
directly (product over zeros, log-accumulated, with an analytic tail
correction) and never touches the series machinery under test, so the
1e-6 comparisons are genuinely independent.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

import refvals
from pwextremal import extremal, fourier
from pwextremal.mpcore import UsageError
from pwextremal.spectral import solve_constants


@pytest.fixture(scope="module")
def band30(consts30):
    return fourier.build_band_transform(consts30)


@pytest.fixture(scope="module")
def legendre30(consts30):
    return fourier.legendre_band_coefficients(consts30)


def test_endpoint_values(band30):
    assert fourier.transform_value(band30, 1) == 0
    assert abs(fourier.transform_value(band30, -1)) < mpf("1e-20")


def test_value_at_origin(band30):
    with mp.workdps(40):
        ref = mpf(refvals.H0_REF)
        assert abs(fourier.transform_value(band30, 0) - ref) < mpf("1e-24")


def test_evenness(band30):
    worst = mpf(0)
    with mp.workdps(50):
        for j in range(1, 17):
            u = mpf(j) / 17
            gap = abs(
                fourier.transform_value(band30, u)
                - fourier.transform_value(band30, -u)
            )
            worst = max(worst, gap)
    assert worst < mpf("1e-15")


def test_coefficient_growth_order(band30):
    # entire of order 1/2 in (1 - u): the n-th coefficient behaves like
    # (scale)^n / (n!)^2, so |coeff|^(1/n) * n^2 stays within a narrow band
    with mp.workdps(40):
        values = []
        for n in range(8, band30.terms + 1):
            c = abs(band30.coeffs[n])
            values.append(c ** (mpf(1) / n) * n * n)
        assert max(values) / min(values) < 4


@pytest.mark.parametrize("digits", [30, 100])
def test_coefficients_lie_under_the_node_bound(digits, consts30):
    # every computed |h_n| under pi^n / (C^n (n-1)! n!), the bound that
    # _value_error_on_nodes sums; h_1 = pi / (2C) sits at half of it, and
    # that ratio is the largest
    consts = consts30 if digits == 30 else solve_constants(digits)
    band = fourier.build_band_transform(consts)
    with mp.workdps(40):
        q = mp.pi / mpf(band.C)
        ratios = [
            abs(band.coeffs[n]) * mp.factorial(n) * mp.factorial(n - 1) / q ** n
            for n in range(1, band.terms + 1)
        ]
    assert abs(ratios[0] - mpf(1) / 2) < mpf("1e-30")
    assert max(ratios) == ratios[0]


def test_parseval(band30):
    assert fourier.parseval_defect(band30) < mpf("1e-20")


def test_legendre_head_and_edge(legendre30):
    assert legendre30[0] == 1
    for k in range(1, len(legendre30), 2):
        assert legendre30[k] == 0
    with mp.workdps(60):
        edge = mp.fsum(legendre30)
        assert abs(edge) < mpf("1e-30")


def test_legendre_matches_band_series(band30, legendre30):
    with mp.workdps(60):
        for num, den in ((0, 1), (1, 4), (3, 4)):
            u = mpf(num) / den
            via_legendre = fourier.legendre_band_value(legendre30, u)
            via_series = fourier.transform_value(band30, u)
            assert abs(via_legendre - via_series) < mpf("1e-15")


def test_legendre_decay(legendre30):
    with mp.workdps(40):
        mags = [abs(legendre30[2 * k]) for k in range(len(legendre30) // 2 + 1)]
        for k in range(3, len(mags) - 1):
            if mags[k] == 0:
                continue
            assert mags[k + 1] / mags[k] < mpf("0.3")
        assert mags[-1] < mpf("1e-35")


def test_eigenvector_taylor_relation(consts30):
    # the stated closed form for the even Taylor coefficients in terms of
    # the ground eigenvector, against the recursion route
    ext = extremal.taylor_extremal(consts30, 8)
    _a, _lam, xi = extremal.refined_spectral_frame(consts30, ext.dps)
    with mp.workdps(45):
        C = mpf(consts30.C)
        for m in range(7):
            lhs = ext.coeffs[2 * m]
            rhs = xi[m] * (-2 * mp.pi * C) ** m / (2 * m + 1)
            assert abs(lhs - rhs) < mpf("1e-25")


def test_reflection_constant_identities(consts30):
    k_plus, k_minus = fourier.endpoint_reflection_constants(consts30)
    with mp.workdps(60):
        C = mpf(refvals.C_REF)
        i = mp.mpc(0, 1)
        assert abs(k_plus ** 2 - k_minus ** 2 - i / (2 * mp.pi * C)) < mpf("1e-25")
        assert abs(
            k_plus * mp.exp(i * mp.pi / 4) + k_minus * mp.exp(-i * mp.pi / 4)
        ) < mpf("1e-25")
        magnitude = 1 / mp.sqrt(4 * mp.pi * C)
        assert abs(abs(k_plus) - magnitude) < mpf("1e-25")
        assert abs(abs(k_minus) - magnitude) < mpf("1e-25")
        assert abs(magnitude - mpf("0.3835526669522665281")) < mpf("1e-18")


def _window_residual(band, coeffs):
    """Largest error of the (1 - u^2)^n fit over 65 uniform points of
    [0, 1], independent of the fit's Chebyshev nodes."""
    K = len(coeffs)
    with mp.workdps(band.digits + 3 * K + 40):
        worst = mpf(0)
        for j in range(65):
            u = mpf(j) / 64
            t = 1 - u * u
            fit = mpf(0)
            power = mpf(1)
            for c in coeffs:
                power *= t
                fit += c * power
            exact = fourier.transform_value(band, u, digits=band.digits + 10)
            worst = max(worst, abs(fit - exact))
    return worst


def test_window_basis_short(band30, consts30):
    # degree-4 window: measured quality of the classic short ansatz
    coeffs, error = fourier.window_basis_coefficients(band30, 4)
    assert _window_residual(band30, coeffs) < mpf("1e-10")
    # 1/sigma_min(A) = 57 on 48 nodes, sqrt(48), and the band's 4.0e-57
    # on the nodes
    assert mpf("1.4e-54") < error < mpf("1.7e-54")
    with mp.workdps(40):
        # the leading window coefficient is the slope constant at the edge:
        # -value'(1) / 2 = coeffs[1]/2 of the band series
        assert abs(coeffs[0] - mpf(refvals.A_STAR_REF)) < mpf("1e-8")


def test_window_basis_full(band30):
    coeffs, _error = fourier.window_basis_coefficients(band30, 16)
    assert _window_residual(band30, coeffs) < mpf("1e-15")
    with mp.workdps(60):
        total = mp.fsum(coeffs)
        origin = fourier.transform_value(band30, 0)
        assert abs(total - origin) < mpf("1e-12")
        # exact edge-slope identity: c_1 equals pi/(4C)
        assert abs(coeffs[0] - mpf(refvals.A_STAR_REF)) < mpf("1e-25")


def test_window_basis_gate(band30):
    with pytest.raises(UsageError):
        fourier.window_basis_coefficients(band30, 0)


# ----------------------------------------------------------------------
# quadrature oracle


def _tau_table_float(consts, count):
    model = extremal.build_zero_model(consts)
    return np.array([float(extremal.tau(model, n)) for n in range(1, count + 1)])


def _log_tail_correction(x, q, a1):
    """log of the product over zeros beyond the table, via Hurwitz sums.

    Sum over n > N of log(1 - x^2/tau_n^2) with tau_n = n + 1/2 - rho_n and
    rho_n ~ a1/(n + 1/2): power sums of 1/tau reduce to zeta(s, q) plus a
    first-order offset correction; higher offset orders are negligible at
    q around 2000.
    """
    total = np.zeros_like(x)
    for j in range(1, 12):
        s_tail = float(mp.zeta(2 * j, q)) + 2 * j * a1 * float(mp.zeta(2 * j + 2, q))
        total -= x ** (2 * j) * s_tail / j
    return total


def _phi_values(x, taus, a1):
    """Extremal function on a float grid via its zero product."""
    q = len(taus) + 1.5
    ratios = 1.0 - (x[:, None] / taus[None, :]) ** 2
    signs = np.prod(np.sign(ratios), axis=1)
    logs = np.sum(np.log(np.abs(ratios)), axis=1)
    return signs * np.exp(logs + _log_tail_correction(x, q, a1))


def _oracle_transform(consts, u, panels=448, table=2048):
    taus = _tau_table_float(consts, table)
    a1 = float(mpf(refvals.A1_REF))  # leading zero-offset coefficient
    nodes, weights = np.polynomial.legendre.leggauss(12)
    edges = np.concatenate(([0.0], taus[:panels]))
    partial = np.zeros(panels)
    acc = 0.0
    for m in range(panels):
        lo, hi = edges[m], edges[m + 1]
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        x = mid + half * nodes
        vals = _phi_values(x, taus, a1) * np.cos(np.pi * u * x)
        acc += 2 * half * np.dot(weights, vals)
        partial[m] = acc
    # three passes of a width-4 box filter kill the alternating panel
    # signs and the cosine modulation, leaving the slow tail drift
    smoothed = partial[-160:]
    for _ in range(3):
        smoothed = (
            smoothed[:-3] + smoothed[1:-2] + smoothed[2:-1] + smoothed[3:]
        ) / 4
    return smoothed[-1], abs(smoothed[-1] - smoothed[-8])


def test_quadrature_oracle(band30, consts30):
    for num, den in ((0, 1), (1, 2)):
        u = mpf(num) / den
        oracle, spread = _oracle_transform(consts30, float(u))
        series = float(fourier.transform_value(band30, u))
        assert spread < 5e-7, spread
        assert abs(oracle - series) < 1e-6, (u, oracle, series)
