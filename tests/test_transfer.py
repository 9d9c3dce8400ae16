import io
import math
from collections import Counter
from fractions import Fraction

import pytest

import sig3.transfer
from sig3.cli import emit_csv
from sig3.delta import DeltaContext
from sig3.errors import ConfigError
from sig3.moduli import modulus_from_kappa, params_from_p, trimidiation
from sig3.transfer import (
    MAX_GRID_POINTS,
    grid_points,
    grid_report,
    period_route_gap,
    verify_identity56,
    verify_identity57,
    verify_identity58,
    verify_ode_delta,
    verify_trimidiation,
)
from sig3.weierstrass import _lattice
from oracles import HALF, ONE, THIRD, TWO_THIRDS, hyp2f1_exact, rel_err

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
        assert verify_ode_delta(DeltaContext(modulus_from_kappa(kappa)), (0.2, 0.5, 0.9)) <= 1e-9


def test_delta_ode_residual_vanishes_at_zero():
    assert verify_ode_delta(DeltaContext(modulus_from_kappa(0.6)), (0.0,)) < 1e-14


def test_delta_ode_refuses_an_empty_sample():
    # A maximum over no point would read 0.0, a pass that checked nothing.
    with pytest.raises(ConfigError, match="u_grid is empty"):
        verify_ode_delta(DeltaContext(modulus_from_kappa(0.6)), [])


# ---------------------------------------------- trimidiation ----


@pytest.mark.parametrize("kappa", [0.4, 0.7, 1.0 / math.sqrt(2.0)])
def test_trimidiation_identity(kappa):
    assert verify_trimidiation(kappa, TRIMID_SAMPLES) <= 1e-8


@pytest.mark.parametrize("kappa", [0.4, 0.7, 0.9])
def test_trimidiation_identity_cells_out(kappa):
    # Both sides reduce their arguments onto their own lattices: the left
    # on the (h2, h3) lattice, whose periods come only from its invariants.
    cell = _lattice(*trimidiation(modulus_from_kappa(kappa)))[2]
    shift = complex(7.0 * cell.period_re, 5.0 * cell.period_im)
    assert verify_trimidiation(kappa, [z + shift for z in TRIMID_SAMPLES]) <= 1e-10


def test_trimidiation_refuses_an_empty_sample():
    with pytest.raises(ConfigError, match="z_samples is empty"):
        verify_trimidiation(0.4, [])


def test_trimidiation_is_even_in_z():
    plus = verify_trimidiation(0.4, (0.2 + 0.1j,))
    minus = verify_trimidiation(0.4, (-0.2 - 0.1j,))
    assert plus == minus


# ------------------------------------------------ period routes ----


def test_period_routes_agree_on_the_default_grid():
    worst_identity = 0.0
    worst_route = 0.0
    for p in grid_points(*DEFAULT_GRID):
        gap_re, gap_im = period_route_gap(p)
        assert gap_re <= 1e-10
        assert gap_im <= 1e-10
        worst_route = max(worst_route, gap_re, gap_im)
        worst_identity = max(
            worst_identity, verify_identity56(p).relerr, verify_identity57(p).relerr
        )
    # The geometric restatement must track the direct residuals to a decade.
    assert worst_route <= 10.0 * worst_identity + 1e-15


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
    with pytest.raises(ConfigError):
        grid_report(1.5, 2.0, 0.1)


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
    # params_from_p (~3.25e-103), and toward 1 with 1 - p down to 2^-53.
    # The module docstring bounds every residual by 1e-15 on (0, 1), and
    # each rhs stays well clear of 0 (rhs58 is smallest, 0.0815 at
    # p = 1 - 2^-53), so a residual is divided by rhs with no guard.
    n = 5000
    lo, lo1, hi = math.log(3.3e-103), math.log(2.0 ** -53), math.log(0.5)
    points = [math.exp(lo + (hi - lo) * i / n) for i in range(n + 1)]
    points += [1.0 - math.exp(lo1 + (hi - lo1) * i / n) for i in range(n + 1)]
    assert points[n + 1] == 1.0 - 2.0 ** -53
    for p in points:
        row = sig3.transfer._transfer_row(p, sig3.transfer.DEFAULT_TOL)
        assert max(row.relerr56, row.relerr57, row.relerr58) <= 1e-15, p
        assert min(row.rhs56, row.rhs57, row.rhs58) >= 0.08, p


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
