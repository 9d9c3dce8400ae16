import io
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import sig3.moduli
import sig3.transfer
import sig3.weierstrass
from sig3.cli import emit_csv
from sig3.delta import period_route_gap, verify_ode_delta, verify_trimidiation
from sig3.errors import ConfigError
from sig3.moduli import DeltaContext, ModulusSet, modulus_from_kappa, params_from_p
from sig3.transfer import (
    DEFAULT_TOL,
    MAX_GRID_POINTS,
    grid_points,
    grid_report,
    verify_identity56,
    verify_identity57,
    verify_identity58,
)
from oracles import HALF, ONE, THIRD, TWO_THIRDS, hyp2f1_exact, rel_err, search_worst, toward_both_ends

DEFAULT_GRID = (0.05, 0.95, 0.05)
TRIMID_SAMPLES = (0.3 + 0.0j, 0.2 + 0.1j, 0.5 + 0.3j)


# ------------------------------------------------- identities ----


def test_identity56_at_half_against_series_oracles():
    check = verify_identity56(0.5)
    lhs_oracle = 1.75 * float(hyp2f1_exact(HALF, HALF, ONE, Fraction(5, 32)))
    rhs_oracle = math.sqrt(2.0) * float(hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(243, 343)))
    assert rel_err(check.lhs, lhs_oracle) < 1e-13
    assert rel_err(check.rhs, rhs_oracle) < 1e-13
    assert check.relerr <= 1e-10
    assert check.passed


def test_identity57_at_half_against_series_oracles():
    check = verify_identity57(0.5)
    lhs_oracle = 1.75 * float(hyp2f1_exact(HALF, HALF, ONE, Fraction(27, 32)))
    rhs_oracle = math.sqrt(6.0) * float(hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(100, 343)))
    assert rel_err(check.lhs, lhs_oracle) < 1e-13
    assert rel_err(check.rhs, rhs_oracle) < 1e-13
    assert check.relerr <= 1e-10


def test_identity58_at_half():
    check = verify_identity58(0.5)
    assert check.relerr <= 1e-10
    assert check.passed


# At p = 1e-9 the rational 1 - alpha, and at p = 1 - 1e-9 beta itself, round
# above 1 before params_from_p clamps them.
@pytest.mark.parametrize(
    "p", [1e-100, 1e-9, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-9, math.nextafter(1.0, 0.0)]
)
def test_identities_hold_at_spot_parameters(p):
    assert verify_identity56(p).relerr <= 4e-15
    assert verify_identity57(p).relerr <= 4e-15
    assert verify_identity58(p).relerr <= 4e-15


@pytest.mark.parametrize("p", [1e-6, 0.3, 0.999])
def test_identity_checks_are_views_of_the_grid_row(p):
    row = grid_report(p, p, 0.1).rows[0]
    assert verify_identity56(p) == (row.lhs56, row.rhs56, row.relerr56, row.pass56)
    assert verify_identity57(p) == (row.lhs57, row.rhs57, row.relerr57, row.pass57)
    assert verify_identity58(p) == (row.lhs58, row.rhs58, row.relerr58, row.pass58)


def test_identity58_passes_at_looser_tolerance_near_one():
    assert verify_identity58(0.95, tol=1e-9).passed


def test_identity_limits_toward_p_of_one():
    # As p -> 1 both sides of identity 57 approach 3.
    check = verify_identity57(0.999, tol=1e-9)
    assert abs(check.lhs - 3.0) < 2e-2
    assert abs(check.rhs - 3.0) < 2e-2
    assert check.passed


def test_identity_limits_toward_p_of_zero():
    # As p -> 0 both sides of identity 56 approach 1.
    check = verify_identity56(1e-3)
    assert abs(check.lhs - 1.0) < 2e-3
    assert abs(check.rhs - 1.0) < 2e-3


def test_identity58_error_is_dominated_by_56_and_57():
    # 58 is the quotient of the first two, so first-order error propagation
    # bounds its residual by theirs.
    for i in range(1, 20):
        p = 0.05 * i
        r56 = verify_identity56(p).relerr
        r57 = verify_identity57(p).relerr
        r58 = verify_identity58(p).relerr
        assert r58 <= 2.0 * (r56 + r57) + 1e-15


# ---------------------------------------------- delta ODE check ----


def test_delta_ode_residual_at_sample_points():
    for kappa in (0.3, 0.6, 0.9):
        rows = verify_ode_delta(DeltaContext(modulus_from_kappa(kappa)), (0.2, 0.5, 0.9))
        assert max(residual for _, _, residual, _ in rows) <= 1e-9


def test_delta_ode_residual_vanishes_at_zero():
    [(u, gap, residual, phase_gap)] = verify_ode_delta(DeltaContext(modulus_from_kappa(0.6)), (0.0,))
    assert u == 0.0 and gap == 0.0 and residual < 1e-14 and phase_gap == 0.0


# The worst unbiased |delta - inv| on the 17-point profile grid, measured
# from kappa = 0.05 to 0.999999, is 1.55e-15 at 0.999999 (3.11e-15 at
# 0.99999, which these tests do not hold).
_UNBIASED_GAP = 2e-15


def _profile_certificate(ctx):
    """The worst (gap, residual, phase_gap) over the rows of the 17-point
    profile grid."""
    rows = verify_ode_delta(ctx, [2.0 * ctx.omega * i / 16 for i in range(17)])
    return tuple(max(column) for column in list(zip(*rows))[1:])


@pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9, 0.99, 0.999, 0.9999, 0.999999])
def test_reference_certificate_gap_is_roundoff(kappa):
    # Measured 6.7e-16, 3.3e-16 and 8.9e-16 at kappa = 0.99, 0.999, 0.9999.
    assert _profile_certificate(DeltaContext(modulus_from_kappa(kappa)))[0] <= _UNBIASED_GAP


def test_reference_certificate_gap_at_kappa_0_99999():
    # The worst gap of the profile grids, measured 2.78e-15 at u = 15 omega/8,
    # 3.3 units of ulp(u) |delta'(u)| there, and past the shared bound that
    # 0.999999 (1.55e-15) still meets.  ROADMAP item 15 asks for bounds in
    # such units.
    assert _profile_certificate(DeltaContext(modulus_from_kappa(0.99999)))[0] <= 3.5e-15


@pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
def test_reference_certificate_sees_a_biased_bridge(kappa):
    # The bridge constant a moved by one part in 1e13 reads 4.0e-15, 1.8e-14
    # and 5.3e-14 at kappa = 0.3, 0.6 and 0.9.  The phase and so the ODE
    # residual and G(T(u)) - u do not move at all: only the gap sees the bias.
    ctx = DeltaContext(modulus_from_kappa(kappa))
    scale, rungs, a, b = ctx.bridge
    biased = ctx._replace(bridge=(scale, rungs, a * (1.0 + 1e-13), b))
    gap, residual, phase_gap = _profile_certificate(biased)
    assert gap >= 1e-15 and gap > _UNBIASED_GAP
    assert (residual, phase_gap) == _profile_certificate(ctx)[1:]


@pytest.mark.parametrize("kappa", [0.05, 0.3, 0.6, 0.9])
def test_reference_certificate_sees_a_biased_scale(kappa):
    # The bridge's scale, from u to the argument of sn, moved by one part in
    # 1e13: delta and the phase move together, and G(T(u)) - u reads 7.9e-14
    # to 1.1e-13, against <= 8.9e-16 unbiased.  That is the check the Halley
    # inversion made, now made of the closed form.
    ctx = DeltaContext(modulus_from_kappa(kappa))
    scale, rungs, a, b = ctx.bridge
    biased = ctx._replace(bridge=(scale * (1.0 + 1e-13), rungs, a, b))
    assert _profile_certificate(ctx)[2] <= 1e-15
    assert _profile_certificate(biased)[2] >= 5e-14


def test_delta_ode_refuses_an_empty_sample():
    # No row at all would read as a pass that checked nothing.
    with pytest.raises(ConfigError, match="u_grid is empty"):
        verify_ode_delta(DeltaContext(modulus_from_kappa(0.6)), [])


def test_delta_ode_refuses_an_empty_generator():
    # An empty generator is truthy: the samples are counted once drawn.
    with pytest.raises(ConfigError, match="u_grid is empty"):
        verify_ode_delta(DeltaContext(modulus_from_kappa(0.6)), (u for u in []))


def test_delta_ode_running_integral_is_compensated():
    # 1,001 stretches at kappa = 0.6: the worst |G(T) - u| reads 9.7e-16
    # with the compensated sum and 2.7e-15 with a plain one (2.0e-14 on
    # 10,001 points).
    ctx = DeltaContext(modulus_from_kappa(0.6))
    rows = verify_ode_delta(ctx, [2.0 * ctx.omega * i / 1000 for i in range(1001)])
    assert len(rows) == 1001
    assert max(phase_gap for _, _, _, phase_gap in rows) <= 1.5e-15


# ---------------------------------------------- trimidiation ----


@pytest.mark.parametrize("kappa", [0.4, 0.7, 1.0 / math.sqrt(2.0)])
def test_trimidiation_identity(kappa):
    assert verify_trimidiation(DeltaContext(ModulusSet(kappa)), TRIMID_SAMPLES) <= 1e-8


@pytest.mark.parametrize("kappa", [0.4, 0.7, 0.9])
def test_trimidiation_identity_cells_out(kappa):
    # Both sides reduce their arguments onto their own lattices.  The Velu
    # sum has kappa's real period and a third of its imaginary one, so the
    # shift is a period of the left side and, turned by sqrt3 i, of the right.
    ctx = DeltaContext(ModulusSet(kappa))
    shift = complex(7.0 * ctx.cell.period_re, 5.0 * ctx.cell.period_im / 3.0)
    assert verify_trimidiation(ctx, [z + shift for z in TRIMID_SAMPLES]) <= 1e-10


def _seeded_samples(count=60):
    rng = random.Random(7)
    return [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(count)]


@pytest.mark.parametrize("kappa", [1e-3, 0.05, 0.3, 0.6, 0.9, 0.99, 0.9999])
def test_trimidiation_holds_to_roundoff(kappa):
    assert verify_trimidiation(DeltaContext(ModulusSet(kappa)), _seeded_samples()) <= 1e-14


@pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
def test_trimidiation_sees_a_third_of_a_wrong_imaginary_period(kappa):
    # The check ties omega' from F3(1 - kappa^2) to the lattice of lambda:
    # w = 2 omega'/3, read off the cell of kappa, off by one part in 1e12
    # reads a decade above the roundoff bound of the test before.
    ctx = DeltaContext(ModulusSet(kappa))
    moved = ctx._replace(cell=ctx.cell._replace(period_im=ctx.cell.period_im * (1.0 + 1e-12)))
    assert verify_trimidiation(moved, _seeded_samples()) >= 1e-13


@pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
def test_trimidiation_sees_a_wrong_bridge_constant(kappa):
    # Both sides run dn3's own bridge b + v^2: a b off by one part in 1e12
    # on the lattice of kappa alone reads above the roundoff bound.
    ctx = DeltaContext(ModulusSet(kappa))
    scale, rungs, a, b = ctx.bridge
    moved = ctx._replace(bridge=(scale, rungs, a, b * (1.0 + 1e-12)))
    assert verify_trimidiation(moved, _seeded_samples()) >= 1e-14


def test_trimidiation_reads_each_lattice_once(monkeypatch):
    # Every constant of either lattice is read off its context: with both
    # contexts built, a call derives no midpoint gap and no half period.
    ctx = sig3.moduli.context(ModulusSet(0.6))
    sig3.moduli.context(ModulusSet(ctx.modulus.lam))
    calls = []

    def counting(route):
        def counted(m):
            calls.append(m)
            return route(m)
        return counted

    monkeypatch.setattr(sig3.moduli, "midpoint_gaps", counting(sig3.moduli.midpoint_gaps))
    monkeypatch.setattr(sig3.moduli, "half_periods_sig3", counting(sig3.moduli.half_periods_sig3))
    assert verify_trimidiation(ctx, _seeded_samples()) <= 1e-14
    assert calls == []


def test_trimidiation_calls_no_wp(monkeypatch):
    # Both sides form 1/3 + wp as (e1 - e3) times the bridge b + v^2 of
    # weierstrass._shifted, not through wp itself.
    def refuse(*args):
        raise AssertionError("verify_trimidiation must not take this route")

    monkeypatch.setattr(sig3.weierstrass, "wp", refuse)
    monkeypatch.setattr(sig3.weierstrass, "wp_and_derivative", refuse)
    sig3.moduli.context.cache_clear()
    assert verify_trimidiation(DeltaContext(ModulusSet(0.6)), TRIMID_SAMPLES) <= 1e-14


def test_trimidiation_refuses_an_empty_sample():
    with pytest.raises(ConfigError, match="z_samples is empty"):
        verify_trimidiation(DeltaContext(ModulusSet(0.4)), [])


def test_trimidiation_refuses_an_empty_iterator():
    with pytest.raises(ConfigError, match="z_samples is empty"):
        verify_trimidiation(DeltaContext(ModulusSet(0.4)), iter([]))


def test_trimidiation_is_even_in_z():
    ctx = DeltaContext(ModulusSet(0.4))
    assert verify_trimidiation(ctx, (0.2 + 0.1j,)) == verify_trimidiation(ctx, (-0.2 - 0.1j,))


# ------------------------------------------------ period routes ----


def test_period_route_gap_certifies_the_lattice_of_kappa():
    # omega of each context, from F3, against the scale of its Gauss
    # ladder, and -i omega' against K'/r from the AGM at the k^2 and r of
    # that ladder: 1,031 kappa, log-spaced from 1e-99 to 1/2 and in
    # 1 - kappa from 1/2 down to 1e-15.  Measured worst 1.44e-15 (real)
    # and 7.1e-16 (imaginary).
    lo, half = -99.0, math.log10(0.5)
    kappas = [10.0 ** (lo + (half - lo) * i / 515) for i in range(516)]
    kappas += [1.0 - 10.0 ** (half + (-15.0 - half) * i / 515) for i in range(1, 516)]
    assert len(kappas) == 1031 and kappas[0] < 1.1e-99 and kappas[-1] > 1.0 - 1.1e-15
    for kappa in kappas:
        assert max(period_route_gap(DeltaContext(ModulusSet(kappa)))) <= 2e-15, kappa


def test_period_route_gap_holds_at_a_searched_worst_case():
    # The 2e-15 of the test above, at the worst imaginary column that
    # search_worst finds from kappa = 1e-99 (seed 1, 10,000 draws, 1,000
    # refinements, ~0.1 s): above the grid's 7.1e-16, below the bound.  The
    # real column has its own search in tests/test_delta.py.
    def gaps(kappa):
        return period_route_gap(DeltaContext(ModulusSet(kappa)))

    _, kappa = search_worst(lambda k: gaps(k)[1], seed=1, floor=1e-99, draws=10_000, steps=1_000)
    assert max(gaps(kappa)) <= 2e-15, kappa
    # The point it found: the imaginary column read 1.1499537152622767e-15.
    assert max(gaps(6.031397319333802e-43)) <= 2e-15


@pytest.mark.parametrize("which", [0, 1], ids=["e2-e3", "e1-e2"])
def test_period_route_gap_sees_a_biased_midpoint_gap(monkeypatch, which):
    # One closed-form gap moved by 1e-12 moves the ladder's k^2 and r off
    # the periods of F3.  Measured 7.2e-14 to 5.0e-13 over these kappa;
    # the same gaps at the transfer arguments of p read ~4e-16 either way.
    gaps = sig3.moduli.midpoint_gaps

    def biased(mod):
        moved = list(gaps(mod))
        moved[which] *= 1.0 + 1e-12
        return tuple(moved)

    monkeypatch.setattr(sig3.moduli, "midpoint_gaps", biased)
    for kappa in (0.05, 0.3, 0.6, 0.9, 0.999, 0.999999):
        assert max(period_route_gap(DeltaContext(ModulusSet(kappa)))) >= 5e-14, kappa


# ------------------------------------------------------ grids ----


def test_grid_points_default_count():
    points = grid_points(*DEFAULT_GRID)
    assert len(points) == 19
    assert points == sorted(points)
    assert abs(points[0] - 0.05) < 1e-12 and abs(points[-1] - 0.95) < 1e-12


def test_grid_points_single():
    assert grid_points(0.5, 0.5, 0.1) == [0.5]


def test_grid_points_rejects_empty_and_bad_step():
    with pytest.raises(ConfigError):
        grid_points(0.95, 0.05, 0.05)
    with pytest.raises(ConfigError):
        grid_points(0.1, 0.9, 0.0)
    with pytest.raises(ConfigError):
        grid_points(0.1, 0.9, -0.1)


def test_grid_points_cap_is_checked_on_the_count():
    assert len(grid_points(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
    with pytest.raises(ConfigError):
        grid_points(0.0, float(MAX_GRID_POINTS), 1.0)


@pytest.mark.parametrize("tol", [math.nan, -1e-10, math.inf])
def test_grid_report_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigError):
        grid_report(0.5, 0.5, 0.1, tol=tol)


def test_grid_report_default_grid_all_pass():
    report = grid_report(*DEFAULT_GRID, tol=1e-10)
    assert len(report.rows) == 19
    assert report.all_pass
    assert all(report.max_relerr[key] <= 1e-10 for key in ("56", "57", "58"))
    assert [row.p for row in report.rows] == sorted(row.p for row in report.rows)


def test_grid_report_rejects_out_of_range_grid():
    # The whole grid, then only its last point, then only its first: the
    # check reads the two ends, and either end alone lets one through.
    for grid in ((1.5, 2.0, 0.1), (0.5, 1.0, 0.25), (0.0, 0.5, 0.25)):
        with pytest.raises(ConfigError):
            grid_report(*grid)


def test_grid_report_evaluates_near_the_endpoints():
    for p in (1e-4, 0.9999):
        report = grid_report(p, p, 0.1)
        assert len(report.rows) == 1
        assert report.all_pass


def test_grid_report_holds_to_roundoff_on_the_fine_grid():
    # Both complements come from exact rational formulas, so p = 0.001 and
    # p = 0.999 keep every digit.
    report = grid_report(0.001, 0.999, 0.001)
    assert len(report.rows) == 999
    assert report.all_pass
    assert all(report.max_relerr[key] <= 1e-15 for key in ("56", "57", "58"))


def test_identities_hold_to_roundoff_toward_both_ends_of_the_domain():
    # 10,002 p: log-spaced toward 0 from just above the underflow floor of
    # params_from_p (~2.2324e-103), and toward 1 with 1 - p down to 2^-53.
    # The module docstring bounds every residual by 1e-15 on (0, 1), and
    # each rhs stays well clear of 0 (rhs58 is smallest, 0.0815 at
    # p = 1 - 2^-53), so a residual is divided by rhs with no guard.
    points = toward_both_ends()
    assert len(points) == 10_002 and points[5001] == 1.0 - 2.0 ** -53
    for p in points:
        row = sig3.transfer._transfer_row(p, sig3.transfer.DEFAULT_TOL)
        assert max(row.relerr56, row.relerr57, row.relerr58) <= 1e-15, p
        assert min(row.rhs56, row.rhs57, row.rhs58) >= 0.08, p


def test_identities_hold_to_roundoff_at_a_searched_worst_case():
    # The module docstring's "below 1e-15 on all of (0, 1)", at the worst
    # residual that search_worst finds above the underflow floor of
    # params_from_p (seed 1, 15,000 draws, 2,000 refinements, ~0.12 s).
    def worst(p):
        row = sig3.transfer._transfer_row(p, sig3.transfer.DEFAULT_TOL)
        return max(row.relerr56, row.relerr57, row.relerr58)

    value, p = search_worst(worst, seed=1, floor=2.24e-103, draws=15_000, steps=2_000)
    assert value <= 1e-15, p
    # The point it found: the worst of the three read 9.474798984407555e-16.
    assert worst(0.9998679887545867) <= 1e-15


def test_grid_report_summary_is_a_pass_over_its_rows():
    # The maxima and all_pass against a plain loop over the rows, first at
    # the default tolerance, then at the second-largest residual of the
    # grid, where exactly one identity fails on exactly one row.
    report = grid_report(*DEFAULT_GRID)
    residuals = sorted((getattr(row, "relerr" + k), i, k)
                       for i, row in enumerate(report.rows) for k in ("56", "57", "58"))
    assert residuals[-1][0] > residuals[-2][0] > 0.0
    for tol in (DEFAULT_TOL, residuals[-2][0]):
        checked = grid_report(*DEFAULT_GRID, tol=tol)
        failures = [(i, k) for i, row in enumerate(checked.rows) for k in ("56", "57", "58")
                    if not getattr(row, "pass" + k)]
        assert checked.max_relerr == {k: max(getattr(row, "relerr" + k) for row in checked.rows)
                                      for k in ("56", "57", "58")}
        assert checked.all_pass == (not failures)
        assert checked.max_relerr == report.max_relerr
    assert failures == [residuals[-1][1:]]
    assert not checked.all_pass


def test_grid_report_sabotaged_tolerance_fails():
    report = grid_report(0.3, 0.7, 0.2, tol=1e-300)
    assert not report.all_pass


def test_grid_report_computes_each_kernel_value_once_per_point(monkeypatch):
    # transfer binds the kernels by name, so the counters go on its names.
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("params_from_p", "f2_complement", "f3_complement"):
        monkeypatch.setattr(sig3.transfer, name, counting(name, getattr(sig3.transfer, name)))
    grid_report(0.001, 0.999, 0.001)
    assert calls == {"params_from_p": 999, "f2_complement": 1998, "f3_complement": 1998}


@pytest.mark.parametrize("p", [0.001, 0.5, 0.999])
def test_identity_checks_are_cut_from_the_grid_row(p):
    row = grid_report(p, p, 1.0).rows[0]
    assert verify_identity56(p) == row[3:6] + row[12:13]
    assert verify_identity57(p) == row[6:9] + row[13:14]
    assert verify_identity58(p) == row[9:12] + row[14:15]


def test_rows_and_params_are_immutable():
    row = grid_report(0.5, 0.5, 1.0).rows[0]
    with pytest.raises(AttributeError):
        row.lhs56 = 0.0
    params = params_from_p(0.5)
    with pytest.raises(AttributeError):
        params.alpha = 0.0


def test_report_is_deterministic():
    a = grid_report(*DEFAULT_GRID)
    b = grid_report(*DEFAULT_GRID)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    emit_csv(a, buf_a)
    emit_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
