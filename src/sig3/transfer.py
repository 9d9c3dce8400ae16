"""Numerical certification of the three transfer identities.

With alpha(p) = p^3(2+p)/(1+2p) and beta(p) = (27/4) p^2(1+p)^2/(1+p+p^2)^3,
the identities under test are, for 0 < p < 1,

    (56)  (1+p+p^2) F2(alpha)   = sqrt(1+2p) F3(beta)
    (57)  (1+p+p^2) F2(1-alpha) = sqrt(3+6p) F3(1-beta)
    (58)  F2(1-alpha)/F2(alpha) = sqrt3 F3(1-beta)/F3(beta)

with F2 = F(1/2,1/2;1;.) and F3 = F(1/3,2/3;1;.).  The numeric labels are
the row/column identifiers used throughout the CSV report format.

The identities are exact, so every observed relative error is pure
implementation noise: below 1e-15 on all of (0, 1), 8.1e-16 at worst on the
grid 0.001:0.999:0.001, so the default tolerance 1e-10 leaves five decades.
tests/test_transfer.py holds both bounds.  The first holds on 10,002 p
log-spaced toward 0 and toward 1, in
test_identities_hold_to_roundoff_toward_both_ends_of_the_domain, and at
the worst p that a seeded search finds, in
test_identities_hold_to_roundoff_at_a_searched_worst_case; the second in
test_grid_report_holds_to_roundoff_on_the_fine_grid.  Every rhs there is
at least 0.08 (rhs58 is 0.0815 at p = 1 - 2^-53), so a residual is
|lhs - rhs| / rhs with no guard.

A grid point costs one ``params_from_p`` call, of which it reads four
fields, and four complement kernels; the kernels are most of a row.  The
point becomes one ``VerificationRow``, built by ``tuple.__new__`` past the
named tuple's Python-level constructor, and ``grid_report`` takes its
maxima and verdict column by column over the rows.  Rows, reports and the
per-identity ``IdentityCheck`` are named tuples: they unpack, index and
compare equal to plain tuples.

The kernels are not most of a ``sig3 verify`` call.  On the grid
0.001:0.999:0.001 one call in process takes ~11.4 ms: ``grid_report``
~5.5 ms and the CSV writer ``cli.emit_csv`` ~5.7 ms, nearly all of it
``repr`` of the floats (min of 200 rounds, shared 2-CPU VM, Python
3.11.7).

Besides the identities the module holds only the grid.  The other
certificates, ``period_route_gap`` of the half periods of kappa against
the Gauss ladder of their own lattice and ``verify_ode_delta`` and
``verify_trimidiation`` of delta and dn3, live in ``delta`` with the
periods, the bridge and the reference route they certify; this module
imports nothing from ``delta`` or ``weierstrass``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError
from .hypergeom import f2_complement, f3_complement
from .moduli import SQRT3, params_from_p

DEFAULT_TOL = 1e-10
MAX_GRID_POINTS = 1_000_000  # larger grids are refused before any point is built


class IdentityCheck(NamedTuple):
    lhs: float
    rhs: float
    relerr: float
    passed: bool


class VerificationRow(NamedTuple):
    """One grid point: both sides, residual and verdict for each identity."""

    p: float
    alpha: float
    beta: float
    lhs56: float
    rhs56: float
    relerr56: float
    lhs57: float
    rhs57: float
    relerr57: float
    lhs58: float
    rhs58: float
    relerr58: float
    pass56: bool
    pass57: bool
    pass58: bool


class VerificationReport(NamedTuple):
    rows: tuple[VerificationRow, ...]
    tol: float
    all_pass: bool
    max_relerr: dict[str, float]


def _transfer_row(p: float, tol: float) -> VerificationRow:
    """All three identities at p from one parametrization and four kernels,
    each taking the exact complement of its argument: neither 1 - alpha nor
    1 - beta is ever formed by subtraction."""
    alpha, beta, alpha_comp, beta_comp = params_from_p(p)[1:5]
    q = 1.0 + p + p * p
    f2_alpha = f2_complement(alpha_comp)
    f2_alpha_comp = f2_complement(alpha)
    f3_beta = f3_complement(beta_comp)
    f3_beta_comp = f3_complement(beta)
    lhs56 = q * f2_alpha
    rhs56 = math.sqrt(1.0 + 2.0 * p) * f3_beta
    relerr56 = abs(lhs56 - rhs56) / rhs56
    lhs57 = q * f2_alpha_comp
    rhs57 = math.sqrt(3.0 + 6.0 * p) * f3_beta_comp
    relerr57 = abs(lhs57 - rhs57) / rhs57
    lhs58 = f2_alpha_comp / f2_alpha
    rhs58 = SQRT3 * f3_beta_comp / f3_beta
    relerr58 = abs(lhs58 - rhs58) / rhs58
    # tuple.__new__ skips the named tuple's Python-level __new__.
    return tuple.__new__(VerificationRow, (
        p, alpha, beta,
        lhs56, rhs56, relerr56, lhs57, rhs57, relerr57, lhs58, rhs58, relerr58,
        relerr56 <= tol, relerr57 <= tol, relerr58 <= tol,
    ))


def verify_identity56(p: float, tol: float = DEFAULT_TOL) -> IdentityCheck:
    """(1+p+p^2) F2(alpha) against sqrt(1+2p) F3(beta)."""
    row = _transfer_row(p, tol)
    return IdentityCheck(row.lhs56, row.rhs56, row.relerr56, row.pass56)


def verify_identity57(p: float, tol: float = DEFAULT_TOL) -> IdentityCheck:
    """(1+p+p^2) F2(1-alpha) against sqrt(3+6p) F3(1-beta)."""
    row = _transfer_row(p, tol)
    return IdentityCheck(row.lhs57, row.rhs57, row.relerr57, row.pass57)


def verify_identity58(p: float, tol: float = DEFAULT_TOL) -> IdentityCheck:
    """F2(1-alpha)/F2(alpha) against sqrt3 F3(1-beta)/F3(beta)."""
    row = _transfer_row(p, tol)
    return IdentityCheck(row.lhs58, row.rhs58, row.relerr58, row.pass58)


def grid_points(start: float, stop: float, step: float) -> list[float]:
    """Arithmetic grid, endpoints inclusive within half a step.

    Bounds must be finite and the grid at most MAX_GRID_POINTS long; the
    length is checked before the list is built.
    """
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ConfigError(f"grid bounds must be finite: start={start} stop={stop} step={step}")
    if step <= 0.0:
        raise ConfigError(f"grid step must be positive, got {step}")
    span = (stop - start + 0.5 * step) / step
    # count = floor(span) + 1 exceeds the cap exactly when span reaches it;
    # span is infinite when the quotient overflows.
    if span >= MAX_GRID_POINTS:
        raise ConfigError(
            f"grid start={start} stop={stop} step={step} has more than {MAX_GRID_POINTS} points"
        )
    count = math.floor(span) + 1
    if count < 1:
        raise ConfigError(f"empty grid: start={start} stop={stop} step={step}")
    return [start + i * step for i in range(count)]


def grid_report(
    p_start: float,
    p_stop: float,
    p_step: float,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Run all three identities on the grid and assemble the report.

    Every grid point must lie in (0, 1); a point so small that alpha
    underflows raises DomainError.  Rows are evaluated independently, in
    the ascending order of the grid.  ``tol`` must be a finite,
    non-negative number.
    """
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tolerance must be finite and non-negative, got {tol}")
    points = grid_points(p_start, p_stop, p_step)
    # The points ascend, so the two ends bound every other.
    if not (0.0 < points[0] and points[-1] < 1.0):
        raise ConfigError(f"grid from {points[0]} to {points[-1]} is not inside (0, 1)")
    rows = tuple(_transfer_row(p, tol) for p in points)
    # One column per field; the grid is never empty, so each max has a value.
    _, _, _, _, _, e56, _, _, e57, _, _, e58, ok56, ok57, ok58 = zip(*rows)
    all_pass = all(ok56) and all(ok57) and all(ok58)
    return VerificationReport(rows, tol, all_pass, {"56": max(e56), "57": max(e57), "58": max(e58)})
