"""Tests for the tridiagonal solver: matrix construction, eigenpairs,
the backward sweep, the side-condition root, and the truncation size."""

import re

import numpy as np
import pytest
from mpmath import mp, mpf

from pwextremal import mpcore, spectral
from pwextremal.mpcore import UsageError
from pwextremal.spectral import (
    EigenPair,
    SolverError,
    TridiagonalSystem,
    _checked_pair,
    _side_root,
    _sweep,
    _SweptVector,
    ground_eigenpair,
    solve_constants,
    truncation_size,
)

import refvals
from oracles import legendre_condition, reference_sweep


def dense_matrix(N, a, exact=False):
    """Dense copy of the truncation, for oracle use: in double precision,
    or with exact=True as an mp.matrix at the working precision."""
    M = mp.matrix(N + 1, N + 1) if exact else np.zeros((N + 1, N + 1))
    for m in range(N + 1):
        M[m, m] = m * (m + 1)
        if m > 0:
            M[m, m - 1] = -a * m / (2 * m - 1)
        if m < N:
            M[m, m + 1] = a * (m + 1) / (2 * m + 3)
    return M


def _row_defects(N, a, lam):
    """(T - lam) xi on the dense matrix for the sweep's vector at (a, lam),
    and the sweep's row-0 value g: the sweep solves rows 1..N and leaves
    row 0 as g xi_0."""
    xi, g, _g_lam, _extra = _sweep(TridiagonalSystem(N, a), lam)
    v = mp.matrix(list(xi))
    return dense_matrix(N, a, exact=True) * v - lam * v, g


def test_build_matrix_entries():
    M = dense_matrix(2, 1.0)
    assert [M[m, m] for m in range(3)] == [0, 2, 6]
    assert M[0, 1] == pytest.approx(1 / 3) and M[1, 2] == pytest.approx(2 / 5)
    assert M[1, 0] == -1 and M[2, 1] == pytest.approx(-2 / 3)
    with mp.workdps(30):
        defects, g = _row_defects(2, mpf(1), mpf("0.2"))
        assert abs(defects[0] - g) < mpf(10) ** -25
        assert all(abs(d) < mpf(10) ** -25 for d in defects[1:])


def test_build_matrix_zero_coupling_is_diagonal():
    M = dense_matrix(2, 1e-30)
    assert abs(M[1, 0]) < 1e-29 and abs(M[1, 2]) < 1e-29
    with mp.workdps(30):
        xi, g, _g_lam, _extra = _sweep(TridiagonalSystem(2, mpf("1e-30")), mpf(0))
        # xi = (1, a/2, a^2/18) and g = a^2/6 to first order in a
        assert abs(xi[1]) < mpf("1e-29") and abs(xi[2]) < mpf("1e-59")
        assert abs(g) < mpf("1e-59")


def test_build_matrix_entries_rational_in_a():
    # the sweep's exact row rationals reproduce the dense matrix's entries,
    # which are linear in a, at any a and order
    with mp.workdps(40):
        for N, a in ((4, mpf("1.45")), (40, mpf("0.7"))):
            defects, g = _row_defects(N, a, mpf("0.41"))
            assert abs(defects[0] - g) < mpf(10) ** -35
            assert all(abs(d) < mpf(10) ** -35 for d in defects[1:]), N


def test_build_matrix_rejects_small_N():
    with pytest.raises(UsageError):
        TridiagonalSystem(1, 1)


def test_ground_pair_decoupled_limit():
    with mp.workdps(30):
        pair = ground_eigenpair(TridiagonalSystem(20, mpf("1e-8")))
        assert abs(pair.lam) < mpf("1e-7")
        assert abs(pair.xi[0] - 1) == 0
        for x in pair.xi[1:]:
            assert abs(x) < mpf("1e-7")


def test_ground_pair_localization_and_residual():
    with mp.workdps(40):
        sys = TridiagonalSystem(40, 1)
        pair = ground_eigenpair(sys)
        assert 0 <= pair.lam <= mpf(1) / 3
        assert pair.residual <= mpf(10) ** -(mp.dps - 5)


def test_ground_pair_against_dense_oracle():
    with mp.workdps(40):
        pair = ground_eigenpair(TridiagonalSystem(40, 1))
        lam_mp = float(pair.lam)
        xi_mp = [float(x) for x in pair.xi[:9]]
    eigs, vecs = np.linalg.eig(dense_matrix(20, 1.0))
    k = int(np.argmin(eigs.real))
    lam_oracle = eigs[k].real
    assert abs(lam_mp - lam_oracle) < 1e-10
    v = vecs[:, k].real / vecs[0, k].real
    for n in range(9):
        assert abs(xi_mp[n] - v[n]) < 1e-12, n


def test_ground_pair_positivity_range():
    with mp.workdps(35):
        for a in ("0.3", "0.9", "1.45"):
            pair = ground_eigenpair(TridiagonalSystem(48, mpf(a)))
            floor = 100 * pair.residual
            for x in pair.xi:
                assert x > 0 or abs(x) <= floor


def test_ground_pair_eigenvector_decay():
    with mp.workdps(60):
        pair = ground_eigenpair(TridiagonalSystem(64, mpf("1.4519436")))
        # superexponential decay: consecutive ratios shrink
        ratios = []
        for n in range(2, 30, 4):
            ratios.append(abs(pair.xi[n + 1] / pair.xi[n]))
        for r1, r2 in zip(ratios, ratios[1:]):
            assert r2 < r1
        assert ratios[-1] < mpf("0.05")


def test_ground_pair_rejects_bad_coupling():
    with mp.workdps(30):
        with pytest.raises(UsageError):
            ground_eigenpair(TridiagonalSystem(16, mpf(2)))


def test_legendre_condition_examples():
    with mp.workdps(30):
        zero = mpf(0)
        unit = EigenPair(lam=zero, xi=[mpf(1)] + [zero] * 8, residual=zero)
        assert legendre_condition(unit) == -1
        two = EigenPair(lam=zero, xi=[mpf(1), mpf(1)] + [zero] * 7, residual=zero)
        assert legendre_condition(two) == 0
        # sign pattern -,+,+,-,-,+ on the first six entries
        probe = EigenPair(lam=zero, xi=[mpf(1)] * 6, residual=zero)
        assert legendre_condition(probe) == -1 + 1 + 1 - 1 - 1 + 1


def test_side_condition_sign_change_on_bracket():
    with mp.workdps(30):
        values = {}
        for a in ("1.44", "1.46"):
            pair = ground_eigenpair(TridiagonalSystem(64, mpf(a)))
            values[a] = legendre_condition(pair)
        assert (values["1.44"] > 0) != (values["1.46"] > 0)


def test_solve_constants_within_paper_bracket(consts12):
    with mp.workdps(consts12.dps):
        assert mpf("0.5409288219") <= consts12.C <= mpf("0.5409288220")
        assert consts12.digits_certified == 12


def test_solve_constants_matches_reference_50(consts50):
    with mp.workdps(consts50.dps):
        assert abs(consts50.C - mpf(refvals.C_REF)) < mpf(10) ** -50
        assert abs(consts50.L1 - mpf(refvals.L1_REF)) < mpf(10) ** -50
        assert abs(consts50.a_star - mpf(refvals.A_STAR_REF)) < mpf(10) ** -39
        assert abs(consts50.lambda_star - mpf(refvals.LAMBDA_STAR_REF)) < mpf(10) ** -50


def test_solve_constants_internal_identities(consts30):
    with mp.workdps(consts30.dps):
        assert abs(consts30.C - mp.pi / (4 * consts30.a_star)) < mpf(10) ** -(mp.dps - 3)
        assert abs(consts30.L1 + 2 * consts30.C * consts30.lambda_star) < mpf(10) ** -(
            mp.dps - 3
        )


def test_solve_constants_invariances(consts12, monkeypatch):
    monkeypatch.setattr(spectral, "_BRACKET", ("1.41", "1.48"))
    monkeypatch.setattr(spectral, "_GUARD", 25)
    alt = solve_constants(12)
    with mp.workdps(alt.dps):
        assert abs(alt.C - consts12.C) < mpf(10) ** -12
        assert abs(alt.a_star - consts12.a_star) < mpf(10) ** -12


def _top_sweeps(sweeps, consts):
    """Sweeps at the working precision of each of the two runs."""
    guard = (consts.dps - consts.digits_certified) // 2
    return [
        sum(1 for _N, dps in sweeps if dps == consts.digits_certified + g)
        for g in (guard, 2 * guard)
    ]


def test_solve_constants_work_count(sweeps):
    # each run ends with one Newton step at its working precision and one
    # sweep that finds the step at the noise floor; the steps below it
    # cost one sweep each, three at 20 digits on 32 rows, then one per
    # precision doubling
    solve_constants(30)
    assert sweeps == (
        [(32, 20)] * 3 + [(128, 24), (128, 40)] + [(128, 48)] * 2 + [(128, 66)] * 2
    )


def test_solve_constants_fifty_digit_work_count(sweeps):
    consts = solve_constants(50)
    assert all(0 < n <= 3 for n in _top_sweeps(sweeps, consts))


def test_sweep_partials_match_finite_differences():
    # the partials of g and S in lambda and a that the sweep carries agree
    # with central differences taken at higher precision, and its S with
    # the plain sum over the normalized vector
    a, lam = mpf("1.45"), mpf("0.41")
    with mp.workdps(50):
        xi, _g, g_lam, (g_a, S, S_lam, S_a) = _sweep(TridiagonalSystem(64, a), lam)
        pair = EigenPair(lam=lam, xi=xi, residual=mpf(0))
        assert abs(S - legendre_condition(pair)) < mpf(10) ** -40
    with mp.workdps(90):
        h = mpf(10) ** -25

        def values(da, dl):
            _xi, g, _g_lam, extra = _sweep(TridiagonalSystem(64, a + da), lam + dl)
            return g, extra[1]

        for (da, dl), dg, dS in (((0, h), g_lam, S_lam), ((h, 0), g_a, S_a)):
            (g_hi, s_hi), (g_lo, s_lo) = values(da, dl), values(-da, -dl)
            assert abs((g_hi - g_lo) / (2 * h) - dg) < mpf(10) ** -30, (da, dl)
            assert abs((s_hi - s_lo) / (2 * h) - dS) < mpf(10) ** -30, (da, dl)


@pytest.mark.parametrize("N, dps", [(32, 20), (128, 66), (128, 169), (256, 524)])
def test_sweep_matches_the_mpf_reference(N, dps):
    # the block fixed-point kernel against the plain mpf sweep: g, S and
    # their partials, and every entry relative to itself; the entries span
    # more than one block of the kernel, so it renormalises (at N = 256
    # they fall to about 1e-1051)
    with mp.workdps(dps):
        a, lam = mpf(refvals.A_STAR_REF), mpf(refvals.LAMBDA_STAR_REF)
        tol = mpf(10) ** -(dps - 5)
        xi, g, g_lam, extra = _sweep(TridiagonalSystem(N, a), lam)
        ref_xi, ref_g, ref_g_lam, ref_extra = reference_sweep(N, a, lam)
        got, want = [g, g_lam, *extra], [ref_g, ref_g_lam, *ref_extra]
        for k, (u, v) in enumerate(zip(got, want)):
            assert abs(u - v) <= tol * max(1, abs(v)), k
        assert len(xi) == len(ref_xi) == N + 1
        for m, (u, v) in enumerate(zip(xi, ref_xi)):
            assert abs(u - v) <= tol * abs(v), m
        assert ref_xi[-1] < mpf(2) ** -(mp.prec + 100)


def test_residual_gate_trips_on_a_moved_eigenvalue():
    with mp.workdps(40):
        sys = TridiagonalSystem(64, mpf("1.45"))
        lam = ground_eigenpair(sys).lam + mpf(10) ** -(mp.dps - 8)
        with pytest.raises(SolverError) as err:
            _checked_pair(sys, lam, _sweep(sys, lam)[0])
    message = str(err.value)
    assert "eigenpair residual" in message
    assert re.search(r"N=64, 40 dps, a=1\.45, lambda=0\.\d+", message), message


def test_truncation_size_chosen_in_advance():
    # twice the first power of two from 64 whose tail estimate clears the
    # digits: the N at which a ladder doubling from 64 sees the root stand
    assert [truncation_size(d) for d in (12, 30, 100, 200, 400, 1000)] == [
        128,
        128,
        128,
        256,
        256,
        512,
    ]


def test_truncation_size_checks_the_cap_after_doubling():
    # 15000 digits clear their tail at N' = 4096, within the cap, but the
    # doubled N = 8192 is past it
    with pytest.raises(UsageError, match="15000 digits.*8192.*cap N=4096"):
        truncation_size(15000)
    assert truncation_size(12000) == 4096


def test_truncation_cap_errors_name_the_requested_digits():
    # past the cap after the doubling (15000) or before it (40000), the
    # message names the digits asked for, not the digits plus the guard
    for digits in (15000, 40000):
        with pytest.raises(UsageError, match="^%d digits need" % digits):
            truncation_size(digits)


def test_solve_constants_thousand_digits(sweeps):
    consts = solve_constants(1000)
    assert consts.N == 512
    assert all(0 < n <= 3 for n in _top_sweeps(sweeps, consts))
    with mp.workdps(consts.dps):
        for value, ref in ((consts.C, refvals.C_REF), (consts.L1, refvals.L1_REF)):
            places = len(ref.split(".")[1])
            assert abs(value - mpf(ref)) < mpf(10) ** -(places - 1), ref[:12]


def test_solve_constants_two_hundred_digits():
    consts = solve_constants(200)
    assert consts.N == 256
    with mp.workdps(consts.dps):
        assert abs(consts.C - mpf(refvals.C_REF)) < mpf(10) ** -110


def test_sign_change_error_names_the_search():
    # a bracket that holds no root: Newton leaves it on its way to the root
    with mp.workdps(30):
        with pytest.raises(SolverError) as err:
            _side_root(64, ("1.30", "1.40"), None)
    message = str(err.value)
    assert re.search(r"N=\d+, \d+ dps, a=\S+, lambda=\S+", message), message
    assert "[1.3, 1.4]" in message


def test_ground_invariant_errors_name_N_and_a():
    # _checked_pair refuses a pair that passes its residual gate but is not
    # the ground state: the second eigenpair of rows 0..2, lambda > a/3
    with mp.workdps(30):
        sys = TridiagonalSystem(2, mpf("1.45"))
        eigenvalues = mp.eig(dense_matrix(2, sys.a, exact=True), right=False)
        second = sorted(mp.re(v) for v in eigenvalues)[1]
        with pytest.raises(SolverError, match=r"escaped .* at N=2, 30 dps, a=1\.45"):
            _checked_pair(sys, second, _sweep(sys, second)[0])
        # and a crafted vector with a negative entry, which no sweep at
        # lambda < 2 makes: the residual gate refuses it
        F = 100
        signed = _SweptVector([1 << F, -(1 << (F - 1)), 1 << (F - 3)], [0, 0, 0], F)
        with pytest.raises(SolverError, match=r"at N=2, 30 dps, a=1\.45"):
            _checked_pair(sys, mpf("0.1"), signed)


def test_solve_constants_reads_no_vector(monkeypatch):
    # neither run's eigenvector is read: the constants keep no vector, and
    # refined_spectral_frame re-solves for it past the certified digits
    reads = []
    getitem = _SweptVector.__getitem__

    def counted(self, m):
        value = getitem(self, m)
        reads.append(m)
        return value

    monkeypatch.setattr(_SweptVector, "__getitem__", counted)
    solve_constants(30)
    assert reads == []


def test_solve_constants_rejects_low_digits():
    with pytest.raises(UsageError):
        solve_constants(9)


def test_side_root_seed_independent():
    # Newton from either end of the paper bracket, and from 1.30 far below
    # the root, reaches the root the midpoint seed finds
    with mp.workdps(40):
        bracket = ("1.25", "1.50")
        root, _ = _side_root(64, bracket, None)
        for x in ("1.44", "1.46", "1.30"):
            other, _ = _side_root(64, bracket, start=(mpf(x), mpf(x) / 3, 0))
            assert abs(other - root) <= mpf(10) ** -(mp.dps - 6), x


def test_side_root_work_is_bounded(monkeypatch):
    # mpcore.newton holds the one step bound; the error names the rows,
    # the working precision and the seed (a, lambda)
    monkeypatch.setattr(mpcore, "_NEWTON_STEPS", 3)
    with mp.workdps(40):
        with pytest.raises(SolverError) as err:
            _side_root(64, ("1.44", "1.46"), None)
    message = str(err.value)
    assert "did not converge in 3 steps" in message
    assert "on N=64 rows at 40 dps" in message
    assert re.search(r"from \(1\.45, 0\.48333\d+\)", message), message


def test_truncation_doubling_stability():
    # at 50 digits plus a guard of 20 the root barely moves past N=128
    with mp.workdps(70):
        a128, _ = _side_root(128, ("1.44", "1.46"), None)
        a256, _ = _side_root(256, ("1.44", "1.46"), None)
        assert abs(a128 - a256) < mpf(10) ** (-mpf("0.05") * 128)


def test_constants_json_fields(consts12, payload):
    doc = payload(consts12, "constants")
    assert set(doc) == {"C", "L1", "a_star", "lambda_star", "N", "digits_certified"}
    assert doc["digits_certified"] == 12
    assert isinstance(doc["N"], int)
    assert doc["C"].startswith("0.540928821901")
