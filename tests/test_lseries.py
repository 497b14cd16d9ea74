"""Tests for the zero-ladder series layer.

The float64 oracle at the bottom re-sums the series directly from the
offset coefficients in numpy and never touches the continuation
machinery, so the 1e-12 agreement is an independent confirmation.
"""

import copy
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import refvals
from oracles import (
    brute_force_on_t,
    expansion_order,
    integrality_residues,
    recursion_polynomials,
)
from pwextremal import extremal, lseries
from pwextremal.mpcore import SolverError, UsageError


def test_minus_at_one_is_the_derivative_constant(consts30):
    val = lseries.l_series(consts30, "minus", 1)
    with mp.workdps(50):
        assert abs(val.value - mpf(refvals.L1_REF)) < mpf("1e-28")
    assert val.error_bound > 0
    assert not val.is_pole


def test_plus_at_two_closed_form(consts30):
    val = lseries.l_series(consts30, "plus", 2)
    with mp.workdps(60):
        C = mpf(refvals.C_REF)
        L1 = mpf(refvals.L1_REF)
        assert abs(val.value + 4 * C * L1) < mpf("1e-25")
        assert abs(val.value + mpf(refvals.U1_REF)) < mpf("1e-5")


def test_phi_route_agreement(consts30):
    from_phi = lseries.l_plus_even_from_phi(consts30, 5)
    with mp.workdps(45):
        for k in range(1, 6):
            direct = lseries.l_series(consts30, "plus", 2 * k)
            assert abs(from_phi[k - 1] - direct.value) < mpf("1e-15")
            assert direct.value > 0
            assert from_phi[k - 1] > 0


def test_pole_structure(consts30):
    for s in (1, -1, -3, -5):
        val = lseries.l_series(consts30, "plus", s)
        assert val.is_pole
        assert val.value is None
        assert val.residue is not None
    for s in (3, 2, 0, -2, -4):
        assert not lseries.l_series(consts30, "plus", s).is_pole
    for s in (1, 0, -1, -3, -5):
        val = lseries.l_series(consts30, "minus", s)
        assert not val.is_pole
        assert val.value is not None


def test_residue_closed_form(consts30):
    pole = lseries.l_series(consts30, "plus", -1)
    with mp.workdps(60):
        C = mpf(refvals.C_REF)
        L1 = mpf(refvals.L1_REF)
        assert abs(pole.residue - L1 / (mp.pi ** 2 * C)) < mpf("1e-25")
        # the residue at -1 is minus the leading offset coefficient
        assert abs(pole.residue + mpf(refvals.A1_REF)) < mpf("1e-12")
    assert pole.residue < 0
    res_at_one = lseries.l_series(consts30, "plus", 1)
    with mp.workdps(40):
        assert abs(res_at_one.residue - 1) < mpf("1e-25")


def test_lodd_at_fifty_digits(consts50):
    rows = lseries.check_Lodd(consts50, 3)
    assert [s for s, _disc, _bound in rows] == [-1, -3, -5, -7, 0]
    # the claimed values hold within their certified bounds; s = 0 has none
    for s, disc, bound in rows[:-1]:
        assert abs(disc) <= bound, s
        assert abs(disc) < mpf("1e-30"), s
    with mp.workdps(70):
        val = lseries.l_series(consts50, "minus", -1)
        C = mpf(refvals.C_REF)
        assert abs(val.value + 1 / (4 * C)) < mpf("1e-30")


def test_residue_identity_at_fifty_digits(consts50):
    rows = lseries.check_residue_identity(consts50, 3)
    assert [k for k, *_ in rows] == [1, 2, 3]
    for k, disc, bound, _residue, _odd in rows:
        assert abs(disc) <= bound, k
        assert abs(disc) < mpf("1e-30"), k
    assert [mp.sign(residue) for _k, _d, _b, residue, _odd in rows] == [-1, 1, -1]


def test_symmetry_conjecture_reports(consts50):
    rows = lseries.check_symmetry_conjecture(consts50, 3)
    assert [k for k, *_ in rows] == [1, 2, 3]
    for k, disc, _bound, shift in rows:
        assert abs(disc) < mpf("1e-30"), k
        assert shift < mpf("1e-40"), k


def test_integrality_scan():
    # the packed scan against the element-wise one, through the depth
    # verify runs and past it
    for depth in (0, 1, 40, 200, 300):
        through = sum(1 for _ in integrality_residues(depth)) - 1
        assert lseries.check_integrality(depth) == through == depth


def test_integrality_scan_memory():
    # at the depth verify runs, the packed rows modulo 200!/n! peak at
    # about 1.7 MB of traced heap, the residues one an int at 1.5 MB and
    # the exact rows at 7.1 MB
    tracemalloc.start()
    try:
        lseries.check_integrality(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _fraction_recursion(n_max, divisor=lambda n: n + 1):
    """u_0..u_n_max as {(i, j): Fraction} dicts, straight from the
    recursion with step n divided by divisor(n); stops after the first
    u_n with a non-integer coefficient."""
    out = [{(0, 0): Fraction(1)}]
    prev = {}
    for n in range(n_max):
        if any(v.denominator != 1 for v in out[n].values()):
            break
        nxt = {}
        for (i, j), v in out[n].items():
            v = v * Fraction(4 * n + 2, divisor(n))
            nxt[i, j] = nxt.get((i, j), 0) + n * (n + 1) * v
            nxt[i, j + 1] = nxt.get((i, j + 1), 0) - v
        for (i, j), v in prev.items():
            nxt[i + 1, j] = nxt.get((i + 1, j), 0) + Fraction(4 * n, divisor(n)) * v
        prev = out[n]
        out.append({key: v for key, v in nxt.items() if v})
    return out


def _as_fractions(rows, den):
    return {
        (i, j): Fraction(c, den)
        for i, row in enumerate(rows)
        for j, c in enumerate(row)
        if c
    }


def test_recursion_matches_fraction_oracle():
    oracle = _fraction_recursion(40)
    polys = list(recursion_polynomials(40))
    assert len(polys) == 41
    for n, (rows, den) in enumerate(polys):
        assert den > 0
        assert len(rows) == n // 2 + 1
        assert [len(row) for row in rows] == [n - 2 * i + 1 for i in range(len(rows))]
        assert _as_fractions(rows, den) == oracle[n], n


def _unpacked(rows, width, n):
    """The slots of the packed rows of u_n, row i holding n - 2i + 1."""
    low = (1 << width) - 1
    return [
        [row >> (width * j) & low for j in range(n - 2 * i + 1)]
        for i, row in enumerate(rows)
    ]


def test_residues_match_exact_rows():
    # the oracle's residues are the exact rows reduced modulo 40!/n!, and
    # the scan's slots are those rows in mu = -lambda, reduced the same
    # way; n <= 40 runs past five reductions
    residues = list(integrality_residues(40))
    packed = list(lseries._packed_rows(40))
    assert len(residues) == len(packed) == 41
    for n, ((rows, den), got, (slots, width)) in enumerate(
        zip(recursion_polynomials(40), residues, packed)
    ):
        assert den == 1
        modulus = math.factorial(40) // math.factorial(n)
        assert got == [[c % modulus for c in row] for row in rows], n
        signed = [
            [(-1) ** j * c % modulus for j, c in enumerate(row)]
            for row in _unpacked(slots, width, n)
        ]
        assert signed == got, n


def test_integrality_scan_stops_at_first_violation(monkeypatch):
    # with the divisor of the recursion changed, the scan reports the
    # first non-integral u_n of an exact Fraction run; dividing step 12
    # by 8 (n + 1) makes u_13 and u_14 integral and u_15 not, so the
    # residues must carry the extra powers of 2 through two steps.  The
    # changes at the steps around a reduction of the packed slots show
    # the violation at once (a factor 3) or a step or two later (a
    # factor 2), at every reduction cadence
    step = lseries._recursion_step
    for cadence in (1, 3, lseries._REDUCTION_STEPS):
        monkeypatch.setattr(lseries, "_REDUCTION_STEPS", cadence)
        cases = [
            (lambda n: n + 3, 1),
            (lambda n: 2 * (n + 1) if n >= 10 else n + 1, 12),
            (lambda n: 8 * (n + 1) if n == 12 else n + 1, 15),
        ]
        for at in (cadence - 1, cadence, cadence + 1, 2 * cadence):
            for factor in (2, 3):
                divisor = lambda n, at=at, f=factor: f * (n + 1) if n == at else n + 1
                cases.append((divisor, len(_fraction_recursion(40, divisor)) - 1))
        for divisor, expected in cases:
            exact = _fraction_recursion(40, divisor)
            assert len(exact) - 1 == expected
            assert any(v.denominator != 1 for v in exact[-1].values())
            monkeypatch.setattr(
                lseries, "_recursion_step", lambda n, d=divisor: step(n)[:3] + (d(n),)
            )
            assert lseries.check_integrality(40) == expected - 1, (cadence, expected)


def test_slot_mask_catches_what_the_remainder_misses():
    # slots (d - 2^W mod d, 1) sum to a multiple of d, yet d does not
    # divide the low slot: divmod leaves no remainder, and only the mask
    # of the quotient's top t bits tells
    width, d = 16, 7
    t = d.bit_length()
    mask = lseries._slot_mask(width, t, 2)
    assert mask == 0xE000E000
    num = d - (1 << width) % d + (1 << width)
    assert num % d == 0
    assert lseries._slot_quotient(num, d, mask) is None
    assert lseries._slot_quotient(2 * d + (d << width), d, mask) == 2 + (1 << width)


def test_recursion_polynomial_heads():
    polys = list(recursion_polynomials(2))
    assert polys[0] == (((1,),), 1)
    assert polys[1] == (((0, -2),), 1)
    assert polys[2] == (((0, -12, 6), (2,)), 1)


def test_recursion_matches_taylor_coefficients(consts30):
    # evaluating the formal polynomials on the invariant frame data
    # reproduces the minimizer's Taylor coefficients after undoing the
    # frame scaling z -> (2 a / pi) z
    polys = list(recursion_polynomials(6))
    ext = extremal.taylor_extremal(consts30, 7)
    with mp.workdps(45):
        astar = mpf(consts30.a_star)
        lam = mpf(consts30.lambda_star)
        scale = (2 * astar / mp.pi) ** 2
        for n, (rows, den) in enumerate(polys):
            formal = sum(
                mpf(c) / den * astar ** (2 * i) * lam ** j
                for i, row in enumerate(rows)
                for j, c in enumerate(row)
            )
            direct = ext.coeffs[2 * n] * scale ** n
            assert abs(formal - direct) < mpf("1e-20")


def test_brute_force_agreement(consts30):
    for kind in ("plus", "minus"):
        for s in (2, 3, 4, 5):
            cont = lseries.l_series(consts30, kind, s)
            brute, err = lseries.brute_force_value(
                consts30, kind, s, 2000
            )
            assert abs(cont.value - brute) <= err + cont.error_bound


def test_brute_force_real_exponent(consts30):
    s = mpf("2.5")
    cont = lseries.l_series(consts30, "plus", s)
    brute, err = lseries.brute_force_value(consts30, "plus", s, 2000)
    assert abs(cont.value - brute) <= err + cont.error_bound


@pytest.mark.parametrize("fixture", ["consts30", "consts60"])
def test_brute_force_tail_in_u_matches_the_integral_in_t(fixture, request):
    # the tail integral pulled back to [0, 1] by u = a/t against the
    # integral over [a, infinity) in t, at an integer s, where the
    # pulled-back summand is analytic at u = 0, and at a real s, where it
    # has a u^(1/2) endpoint singularity
    consts = request.getfixturevalue(fixture)
    for kind in ("plus", "minus"):
        for s in (3, mpf(5) / 2):
            value, error = lseries.brute_force_value(consts, kind, s, 600)
            reference, reference_error = brute_force_on_t(consts, kind, s, 600)
            assert abs(value - reference) <= error, (kind, s)
            assert error <= 2 * reference_error, (kind, s)


def test_brute_force_tail_evaluation_count(consts30, monkeypatch):
    # at s = 3 the pulled-back tail makes 151 summand evaluations a kind at
    # 30 digits, the quadrature's and mp.diffs' together (571 in t),
    # counted by wrapping the series value each summand reads
    extremal.build_zero_model(consts30)
    evaluations = []
    tau_series = lseries.tau_series

    def counted(model, t):
        evaluations.append(t)
        return tau_series(model, t)

    monkeypatch.setattr(lseries, "tau_series", counted)
    for kind, per_summand in (("plus", 1), ("minus", 2)):
        evaluations.clear()
        lseries.brute_force_value(consts30, kind, 3, 600)
        assert len(evaluations) <= 200 * per_summand, kind


def _fresh_tables(consts):
    """A copy of consts whose zero model holds no lattice table yet."""
    model = copy.copy(extremal.build_zero_model(consts))
    model.lattice = {}
    fresh = copy.copy(consts)
    fresh.zeros = model
    return fresh


def _counted_tables(monkeypatch):
    """The lattice points of every hurwitz_zetas call lseries makes while
    the test runs, counted by wrapping its binding."""
    tables = []
    table = lseries.hurwitz_zetas

    def counted_table(q, w, n):
        tables.append(q)
        return table(q, w, n)

    monkeypatch.setattr(lseries, "hurwitz_zetas", counted_table)
    return tables


def test_l_series_work_count(consts30, monkeypatch):
    # every order with exponent w = s + j >= 2 comes from one hurwitz_zetas
    # table per lattice point (q = 19/2, or 19/4 and 21/4 for the
    # alternating kind), made once for the calls reserved and kept on the
    # zero model; mpmath's zeta serves only w < 2, once per order for the
    # plus kind and twice for the minus kind, whose w = 1 order takes the
    # digamma instead; counted by wrapping both
    fresh = _fresh_tables(consts30)
    calls = [("plus", 3, None), ("minus", 3, None), ("plus", -6, None), ("minus", -5, None)]
    zetas = []
    zeta = mp.zeta

    def counted_zeta(w, q, *args, **kwargs):
        zetas.append(int(w))
        return zeta(w, q, *args, **kwargs)

    monkeypatch.setattr(mp, "zeta", counted_zeta)
    tables = _counted_tables(monkeypatch)
    lseries.reserve_lattice_tables(fresh, calls)
    assert sorted(tables) == [4.75, 5.25, 9.5]
    tables.clear()
    for (kind, s, _order), orders in zip(
        calls, ([], [], [-6, -4, -2, 0], [-5, -5, -3, -3, -1, -1])
    ):
        zetas.clear()
        lseries.l_series(fresh, kind, s)
        assert sorted(zetas) == orders, (kind, s)
    assert tables == []
    # a call past what the tables hold makes its lattice points' tables
    # anew, at the most any call so far read, and a later call reads them
    for kind, s, lattice in (("plus", 9, [9.5]), ("minus", -7, [4.75, 5.25]), ("plus", 8, [])):
        tables.clear()
        lseries.l_series(fresh, kind, s)
        assert sorted(tables) == lattice, (kind, s)
    # a non-integer exponent makes tables of its own, which are not kept
    tables.clear()
    lseries.l_series(fresh, "minus", mpf("2.5"))
    assert sorted(tables) == [4.75, 5.25]
    assert sorted(fresh.zeros.lattice) == [4.75, 5.25, 9.5]


@pytest.mark.parametrize(
    "argv", [["verify", "--suite", "lseries"], ["verify", "--suite", "conjectures"],
             ["export", "lvalues"]],
)
def test_one_table_per_lattice_point_per_command(consts30, monkeypatch, payload, argv):
    # the command makes the tables of every l_series call it will make
    # before the first, so hurwitz_zetas runs at most once per lattice
    # point however many calls read it (24 in verify --suite all)
    fresh = _fresh_tables(consts30)
    tables = _counted_tables(monkeypatch)
    payload(fresh, *argv)
    assert len(tables) == len(set(tables)) and tables
    assert set(tables) <= {4.75, 5.25, 9.5}


@pytest.mark.parametrize(
    "argv, listed",
    [
        (["verify", "--suite", "lseries"], lambda c: lseries._suite_calls(c, ["lseries"])),
        (["verify", "--suite", "conjectures"],
         lambda c: lseries._suite_calls(c, ["conjectures"])),
        (["export", "lvalues"], lambda c: lseries._lvalue_calls(6)),
    ],
)
def test_reserved_calls_are_the_calls_made(consts30, monkeypatch, payload, argv, listed):
    # the calls a command reserves tables for are the l_series calls it
    # then makes, counted by wrapping the binding, so the lists in lseries
    # cannot drift from the checks that read them
    made = []
    l_series = lseries.l_series

    def recorded(consts, kind, s, order=None):
        made.append((kind, s, order))
        return l_series(consts, kind, s, order=order)

    monkeypatch.setattr(lseries, "l_series", recorded)
    payload(_fresh_tables(consts30), *argv)
    assert sorted(made) == sorted(listed(consts30))


@settings(max_examples=30, deadline=None)
@given(
    q=st.sampled_from([mpf(19) / 4, mpf(21) / 4, mpf(19) / 2]),
    prec=st.integers(60, 400),
    extra_bits=st.integers(0, 80),
    w=st.integers(2, 14),
    n=st.integers(1, 16),
    extra_length=st.integers(0, 24),
)
def test_table_read_at_fewer_bits_keeps_its_bound(q, prec, extra_bits, w, n, extra_length):
    # a value sliced off a longer table made at more bits and rounded to
    # the reader's precision p is within 2^-(p+10) plus one unit in its
    # p-th bit of zeta, where a table made at p is within 2^-(p+10) plus
    # half of one (_hurwitz_table); so the two lie within the sum
    model = types.SimpleNamespace(lattice={})
    with mp.workprec(prec + extra_bits):
        lseries._hurwitz_table(model, q, 2, w - 2 + n + extra_length)
    with mp.workprec(prec):
        read = lseries._hurwitz_table(model, q, w, n)
        own = lseries.hurwitz_zetas(q, w, n)
    assert model.lattice[q][0] == prec + extra_bits
    with mp.workprec(prec + 60):
        for i, (r, o) in enumerate(zip(read, own)):
            exact = mp.zeta(w + i, q)
            unit = abs(exact) * mpf(2) ** (1 - prec)
            floor = mpf(2) ** -(prec + 10)
            assert abs(r - exact) <= floor + unit, i
            assert abs(o - exact) <= floor + unit / 2, i
            assert abs(r - o) <= 2 * floor + 3 * unit / 2, i


def _order_or_refusal(order, s, digits):
    try:
        return order(s, digits)
    except SolverError:
        return "refused"


def test_expansion_order_in_closed_form_matches_the_search():
    # s: the half-integers in [-20, 20], the symmetry conjecture's -2 .. -14
    # and, sparsely, the export lvalues range past 20; digits 10 to 600
    grid = [k / 2 for k in range(-40, 41)] + list(range(-14, -1)) + list(range(21, 601, 29))
    for s in grid:
        for digits in range(10, 601, 37):
            got = _order_or_refusal(lseries._expansion_order, float(s), digits)
            assert got == _order_or_refusal(expansion_order, s, digits), (s, digits)
    # a search that steps past 600 is refused; one that starts past 600 and
    # needs no step runs there, as export lvalues --terms 600 does
    with pytest.raises(SolverError, match="exceeds 600 at s=-20.0"):
        lseries._expansion_order(-20.0, 600)
    assert lseries._expansion_order(601.0, 600) == expansion_order(601, 600) == 606


def test_order_override_stays_consistent(consts30):
    auto = lseries.l_series(consts30, "minus", 3)
    short = lseries.l_series(consts30, "minus", 3, order=12)
    assert short.error_bound > auto.error_bound
    assert abs(short.value - auto.value) <= short.error_bound + auto.error_bound


def test_one_zero_model_serves_every_check(consts30, monkeypatch, payload):
    # on constants with no zero model yet, the zero checks share one: the
    # offset expansion and the head Newton run once between them, and the
    # model stays on the constants; the zero-curvature check needs none
    fresh = copy.copy(consts30)
    fresh.zeros = None
    calls = []
    for name in ("offset_coefficients", "refine_zeros_newton"):
        def counted(*args, _name=name, _fn=getattr(extremal, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(extremal, name, counted)
    extremal.zero_curvature_residual(fresh)
    assert calls == [] and fresh.zeros is None
    extremal.zeros_signed(extremal.build_zero_model(fresh), 40)
    lseries.l_series(fresh, "plus", 3)
    lseries.brute_force_value(fresh, "minus", 3, 64)
    lseries.check_symmetry_conjecture(fresh, 1)
    assert sorted(calls) == ["offset_coefficients", "refine_zeros_newton"]
    assert fresh.zeros is extremal.build_zero_model(fresh)
    assert "zeros" not in payload(fresh, "constants")


def test_validation(consts30):
    with pytest.raises(UsageError):
        lseries.l_series(consts30, "signed", 2)
    with pytest.raises(UsageError):
        lseries.l_series(consts30, "plus", 2 + 1j)
    with pytest.raises(UsageError):
        lseries.brute_force_value(consts30, "plus", 1, 2000)
    with pytest.raises(UsageError):
        lseries.brute_force_value(consts30, "plus", 2, 10)
    with pytest.raises(UsageError):
        lseries.l_plus_even_from_phi(consts30, 0)
    for depth in (-1, lseries.MAX_INTEGRALITY_DEPTH + 1):
        with pytest.raises(UsageError):
            lseries.check_integrality(depth)


def test_json_round_trip(consts30, payload):
    # export lvalues writes a value, or at a pole the residue, per row
    minus, plus = payload(consts30, "export", "lvalues", "--terms", "1")["values"]
    assert minus["kind"] == "minus"
    assert not minus["is_pole"]
    assert minus["value"].startswith("-0.4519521648844")
    assert plus["is_pole"]
    assert plus["residue"] == "1.0"
    assert "value" not in plus


# ----------------------------------------------------------------------
# float64 direct-summation oracle


def test_numpy_direct_summation_oracle(consts30):
    zeros30 = extremal.build_zero_model(consts30)
    rho = np.array([float(c) for c in zeros30.rho_coeffs])
    n = np.arange(1.0, 100001.0)
    x = 1.0 / (n + 0.5)
    # rho(x) = sum_m a_m x^m with a_m = rho[m-1]
    powers = np.polynomial.polynomial.polyval(x, np.concatenate(([0.0], rho)))
    taus = (n + 0.5) - powers
    partial = np.sum(taus ** -3.0)
    q = 100001.0
    a1 = float(zeros30.rho_coeffs[0])
    # integral comparison from the midpoint, two asymptotic orders
    tail = q ** -2.0 / 2.0 + 0.75 * a1 * q ** -4.0
    oracle = partial + tail
    cont = float(lseries.l_series(consts30, "plus", 3).value)
    assert abs(oracle - cont) < 1e-12
