"""Tests for the tridiagonal solver: matrix construction, eigenpairs,
the side-condition root, and the truncation ladder."""

import json

import numpy as np
import pytest
from mpmath import mp, mpf

from pwextremal import spectral
from pwextremal.mpcore import PrecisionContext, UsageError
from pwextremal.spectral import (
    EigenPair,
    SolverError,
    _solve_root_for_N,
    assert_ground_invariants,
    build_matrix,
    ground_eigenpair,
    legendre_condition,
    solve_constants,
)

import refvals


def dense_matrix(N, a):
    """Double-precision dense copy of the truncation, for oracle use."""
    M = np.zeros((N + 1, N + 1))
    for m in range(N + 1):
        M[m, m] = m * (m + 1)
        if m > 0:
            M[m, m - 1] = -a * m / (2 * m - 1)
        if m < N:
            M[m, m + 1] = a * (m + 1) / (2 * m + 3)
    return M


def test_build_matrix_entries():
    with mp.workdps(30):
        sys = build_matrix(2, 1)
        assert [sys.diag(m) for m in range(3)] == [0, 2, 6]
        assert abs(sys.sup(0) - mpf(1) / 3) < mpf(10) ** -25
        assert abs(sys.sup(1) - mpf(2) / 5) < mpf(10) ** -25
        assert abs(sys.sub(1) + 1) < mpf(10) ** -25
        assert abs(sys.sub(2) + mpf(2) / 3) < mpf(10) ** -25


def test_build_matrix_zero_coupling_is_diagonal():
    with mp.workdps(30):
        sys = build_matrix(2, mpf("1e-30"))
        assert abs(sys.sub(1)) < mpf("1e-29")
        assert abs(sys.sup(1)) < mpf("1e-29")


def test_build_matrix_entries_rational_in_a():
    with mp.workdps(40):
        a = mpf("1.45")
        sys = build_matrix(4, a)
        for m in range(1, 5):
            assert sys.sub(m) == -a * m / (2 * m - 1)
        for m in range(4):
            assert sys.sup(m) == a * (m + 1) / (2 * m + 3)


def test_build_matrix_rejects_small_N():
    with pytest.raises(UsageError):
        build_matrix(1, 1)


def test_ground_pair_decoupled_limit():
    with mp.workdps(30):
        pair = ground_eigenpair(build_matrix(20, mpf("1e-8")))
        assert abs(pair.lam) < mpf("1e-7")
        assert abs(pair.xi[0] - 1) == 0
        for x in pair.xi[1:]:
            assert abs(x) < mpf("1e-7")


def test_ground_pair_localization_and_residual():
    with mp.workdps(40):
        sys = build_matrix(40, 1)
        pair = ground_eigenpair(sys)
        assert 0 <= pair.lam <= mpf(1) / 3
        assert pair.residual <= mpf(10) ** -(mp.dps - 5)


def test_ground_pair_against_dense_oracle():
    with mp.workdps(40):
        pair = ground_eigenpair(build_matrix(40, 1))
        lam_mp = float(pair.lam)
        xi_mp = [float(x) for x in pair.xi[:9]]
    eigs, vecs = np.linalg.eig(dense_matrix(20, 1.0))
    k = int(np.argmin(eigs.real))
    lam_oracle = eigs[k].real
    assert abs(lam_mp - lam_oracle) < 1e-10
    v = vecs[:, k].real / vecs[0, k].real
    for n in range(9):
        assert abs(xi_mp[n] - v[n]) < 1e-12, n


def test_ground_pair_seed_independent():
    # Newton on the sweep condition reaches the same eigenvalue from the
    # bottom and top of [0, a/3] and from the eigenvalue of another a
    with mp.workdps(50):
        sys = build_matrix(64, mpf("1.45"))
        stale = ground_eigenpair(build_matrix(64, mpf("1.2"))).lam
        lams = [
            ground_eigenpair(sys, lambda_seed=seed).lam
            for seed in (mpf(0), sys.a / 3, stale)
        ]
        for lam in lams[1:]:
            assert abs(lam - lams[0]) <= mpf(10) ** -(mp.dps - 5)


def test_ground_pair_positivity_range():
    with mp.workdps(35):
        for a in ("0.3", "0.9", "1.45"):
            pair = ground_eigenpair(build_matrix(48, mpf(a)))
            floor = 100 * pair.residual
            for x in pair.xi:
                assert x > 0 or abs(x) <= floor


def test_ground_pair_eigenvector_decay():
    with mp.workdps(60):
        pair = ground_eigenpair(build_matrix(64, mpf("1.4519436")))
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
            ground_eigenpair(build_matrix(16, mpf(2)))


def test_legendre_condition_examples():
    with mp.workdps(30):
        unit = EigenPair(lam=mpf(0), xi=[mpf(1)] + [mpf(0)] * 8)
        assert legendre_condition(unit) == -1
        two = EigenPair(lam=mpf(0), xi=[mpf(1), mpf(1)] + [mpf(0)] * 7)
        assert legendre_condition(two) == 0
        # sign pattern -,+,+,-,-,+ on the first six entries
        probe = EigenPair(lam=mpf(0), xi=[mpf(1)] * 6)
        assert legendre_condition(probe) == -1 + 1 + 1 - 1 - 1 + 1


def test_side_condition_sign_change_on_bracket():
    with mp.workdps(30):
        values = {}
        for a in ("1.44", "1.46"):
            pair = ground_eigenpair(build_matrix(64, mpf(a)))
            values[a] = legendre_condition(pair)
        assert (values["1.44"] > 0) != (values["1.46"] > 0)


def test_solve_constants_within_paper_bracket(consts12):
    with consts12.ctx.working():
        assert mpf("0.5409288219") <= consts12.C <= mpf("0.5409288220")
        assert consts12.digits_certified == 12


def test_solve_constants_matches_reference_50(consts50):
    with consts50.ctx.working():
        assert abs(consts50.C - mpf(refvals.C_REF)) < mpf(10) ** -50
        assert abs(consts50.L1 - mpf(refvals.L1_REF)) < mpf(10) ** -50
        assert abs(consts50.a_star - mpf(refvals.A_STAR_REF)) < mpf(10) ** -39
        assert abs(consts50.lambda_star - mpf(refvals.LAMBDA_STAR_REF)) < mpf(10) ** -50


def test_solve_constants_internal_identities(consts30):
    with consts30.ctx.working():
        assert abs(consts30.C - mp.pi / (4 * consts30.a_star)) < mpf(10) ** -(mp.dps - 3)
        assert abs(consts30.L1 + 2 * consts30.C * consts30.lambda_star) < mpf(10) ** -(
            mp.dps - 3
        )


def test_solve_constants_invariances(consts12):
    alt = solve_constants(12, initial_N=32, bracket=("1.41", "1.48"), guard=25)
    with alt.ctx.working():
        assert abs(alt.C - consts12.C) < mpf(10) ** -12
        assert abs(alt.a_star - consts12.a_star) < mpf(10) ** -12


def test_solve_constants_work_count(eigen_solves):
    # each side-condition evaluation is one eigen-solve; only the first
    # rung of the first run searches the whole bracket (about ten steps),
    # every later search starts from the root found before it
    solve_constants(30)
    assert 0 < len(eigen_solves) <= 20


def test_solve_constants_fifty_digit_work_count(eigen_solves):
    # the root search stops at the noise floor of S, not at a bracket
    # width tied to the digit goal: at 50 digits that width lay above the
    # floor, and the N=128 rung warm-started from the N=64 root it left
    # spent 3 solves instead of 1 (18 in all before)
    solve_constants(50)
    assert 0 < len(eigen_solves) <= 17


def test_warm_start_matches_cold_search():
    # a guess 10^-digits off the root and a guess on either bracket end
    # lead to the root the search from the bracket finds
    digits = 30
    bracket = (mpf("1.44"), mpf("1.46"))
    with PrecisionContext(digits=digits, guard=18).working():
        cold, _ = _solve_root_for_N(64, bracket)
        for guess in (cold + mpf(10) ** -digits, bracket[0], bracket[1]):
            warm, pair = _solve_root_for_N(64, bracket, guess=guess)
            assert abs(warm - cold) <= mpf(10) ** -(digits + 5), guess
            assert bracket[0] <= warm <= bracket[1]
            assert abs(legendre_condition(pair)) <= mpf(10) ** -(mp.dps - 6)


def test_warm_start_guess_already_a_root(eigen_solves):
    # a guess at the noise floor of S is returned after one evaluation
    with mp.workdps(40):
        bracket = (mpf("1.44"), mpf("1.46"))
        root, _ = _solve_root_for_N(64, bracket)
        eigen_solves.clear()
        again, _ = _solve_root_for_N(64, bracket, guess=root)
        assert again == root
        assert len(eigen_solves) == 1
        with pytest.raises(UsageError):
            _solve_root_for_N(64, bracket, guess=mpf("1.47"))


def test_grown_bracket_widenings_are_bounded(monkeypatch):
    # a side condition that never changes sign: the bracket grown from
    # the guess widens _GROW_STEPS times inside the caller's bracket, the
    # caller's ends are probed last, then the search gives up with the
    # caller's bracket in the message
    probes = []

    def positive(N, a, lambda_seed=None):
        probes.append(a)
        return mpf("1e-20"), EigenPair(lam=mpf(0), xi=[mpf(1)] * (N + 1))

    monkeypatch.setattr(spectral, "_condition_value", positive)
    monkeypatch.setattr(spectral, "_GROW_STEPS", 3)
    with mp.workdps(40):
        guess = mpf("1.45")
        with pytest.raises(SolverError) as err:
            _solve_root_for_N(64, ("1.44", "1.46"), guess=guess)
        assert len(probes) == 1 + 2 * 3 + 2
        widest = max(abs(a - guess) for a in probes[:-2])
        last = spectral._GROW_FIRST * mpf("1e-20") * spectral._GROW_FACTOR ** 2
        assert abs(widest / last - 1) < mpf(10) ** -10
        assert probes[-2:] == [mpf("1.44"), mpf("1.46")]
    message = str(err.value)
    assert "does not change sign" in message
    assert "N=64" in message and "40 dps" in message
    assert "[1.44, 1.46]" in message


def test_grown_bracket_falls_back_to_caller_bracket(monkeypatch):
    # a root farther from the guess than the widest grown probe: the
    # search from the caller's ends still finds it
    def far_root(N, a, lambda_seed=None):
        f = (a - mpf("1.45")) ** 3 + mpf("1e-21")
        return f, EigenPair(lam=mpf(0), xi=[mpf(1)] * (N + 1))

    monkeypatch.setattr(spectral, "_condition_value", far_root)
    monkeypatch.setattr(spectral, "_GROW_STEPS", 3)
    with mp.workdps(40):
        root, _ = _solve_root_for_N(64, ("1.44", "1.46"), guess=mpf("1.45"))
        assert abs(root - (mpf("1.45") - mpf("1e-7"))) < mpf(10) ** -18


def test_solve_constants_long_first_ladder(consts30):
    # from N=8 the first run climbs several rungs, so the second run's
    # first rung (N=8 again) has its root far from the first run's root
    alt = solve_constants(30, initial_N=8)
    with alt.ctx.working():
        assert abs(alt.C - consts30.C) < mpf(10) ** -30
        assert abs(alt.a_star - consts30.a_star) < mpf(10) ** -30


def test_solve_constants_two_hundred_digits():
    # the first run stops at N=256, three rungs past N=64, where the
    # second run starts again
    consts = solve_constants(200)
    assert consts.N == 256
    with consts.ctx.working():
        assert abs(consts.C - mpf(refvals.C_REF)) < mpf(10) ** -110


def test_sign_change_error_names_the_search():
    with mp.workdps(30):
        with pytest.raises(SolverError) as err:
            _solve_root_for_N(64, ("1.30", "1.40"))
    message = str(err.value)
    assert "N=64" in message and "30 dps" in message
    assert "[1.3, 1.4]" in message


def test_ground_invariant_errors_name_N_and_a():
    with mp.workdps(30):
        a = mpf("1.45")
        high = EigenPair(lam=mpf(1), xi=[mpf(1), mpf("0.5"), mpf("0.1")])
        with pytest.raises(SolverError, match=r"escaped .* at N=2, a=1\.45"):
            assert_ground_invariants(high, a)
        signed = EigenPair(lam=mpf("0.1"), xi=[mpf(1), mpf("-0.5"), mpf("0.1")])
        with pytest.raises(SolverError, match=r"entry 1 .* at N=2, a=1\.45"):
            assert_ground_invariants(signed, a)


def test_solve_constants_rejects_low_digits():
    with pytest.raises(UsageError):
        solve_constants(9)


def test_truncation_doubling_stability():
    # at 50-digit working precision the root barely moves past N=128
    from pwextremal.mpcore import PrecisionContext

    ctx = PrecisionContext(digits=50, guard=20)
    with ctx.working():
        a128, _ = _solve_root_for_N(128, (mpf("1.44"), mpf("1.46")))
        a256, _ = _solve_root_for_N(256, (mpf("1.44"), mpf("1.46")))
        assert abs(a128 - a256) < mpf(10) ** (-mpf("0.05") * 128)


def test_constants_json_fields(consts12):
    doc = json.loads(consts12.to_json())
    assert set(doc) == {"C", "L1", "a_star", "lambda_star", "N", "digits_certified"}
    assert doc["digits_certified"] == 12
    assert isinstance(doc["N"], int)
    assert doc["C"].startswith("0.540928821901")
