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
The tests hold both bounds, the first on 10,002 p log-spaced toward 0 and
toward 1.  Every rhs there is at least 0.08 (rhs58 is 0.0815 at
p = 1 - 2^-53), so a residual is |lhs - rhs| / rhs with no guard.

A grid point costs one ``params_from_p`` call and four complement kernels,
and becomes one ``VerificationRow``, built in a single positional call.
Rows, reports and the per-identity ``IdentityCheck`` are named tuples: they
unpack, index and compare equal to plain tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .delta import DeltaContext, _reference_delta, _sig3_half_periods, delta_phase
from .errors import ConfigError
from .hypergeom import f2_complement, f3_complement
from .moduli import modulus_from_kappa, params_from_p, trimidiation, invariants
from .weierstrass import _jacobi_half_periods, wp

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
    params = params_from_p(p)
    q = 1.0 + p + p * p
    f2_alpha = f2_complement(params.alpha_comp)
    f2_alpha_comp = f2_complement(params.alpha)
    f3_beta = f3_complement(params.beta_comp)
    f3_beta_comp = f3_complement(params.beta)
    lhs56 = q * f2_alpha
    rhs56 = math.sqrt(1.0 + 2.0 * p) * f3_beta
    relerr56 = abs(lhs56 - rhs56) / rhs56
    lhs57 = q * f2_alpha_comp
    rhs57 = math.sqrt(3.0 + 6.0 * p) * f3_beta_comp
    relerr57 = abs(lhs57 - rhs57) / rhs57
    lhs58 = f2_alpha_comp / f2_alpha
    rhs58 = math.sqrt(3.0) * f3_beta_comp / f3_beta
    relerr58 = abs(lhs58 - rhs58) / rhs58
    return VerificationRow(
        p, params.alpha, params.beta,
        lhs56, rhs56, relerr56, lhs57, rhs57, relerr57, lhs58, rhs58, relerr58,
        relerr56 <= tol, relerr57 <= tol, relerr58 <= tol,
    )


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


def verify_ode_delta(ctx: DeltaContext, u_grid: Sequence[float]) -> float:
    """Maximum scaled residual of 9 (delta')^2 = 4(1-delta)(delta^3+3delta^2-4lambda^2).

    delta and delta' are evaluated analytically at the phase T(u) by the
    reference route's arc form (finite differences would dominate the
    residual budget).  Residuals are scaled by 1 + delta^4.  An empty
    ``u_grid`` raises ConfigError: a maximum over no point certifies nothing.
    """
    if not u_grid:
        raise ConfigError("verify_ode_delta needs at least one u; u_grid is empty")
    worst = 0.0
    for u in u_grid:
        worst = max(worst, _ode_residual(delta_phase(u, ctx), ctx))
    return worst


def _ode_residual(T: float, ctx: DeltaContext) -> float:
    """The scaled residual of ``verify_ode_delta`` at the phase T = T(u)."""
    d, d_prime = _reference_delta(T, ctx)
    lhs = 9.0 * d_prime * d_prime
    rhs = 4.0 * (1.0 - d) * (d * d * (d + 3.0) - 4.0 * ctx.modulus.lam ** 2)
    return abs(lhs - rhs) / (1.0 + d ** 4)


def verify_trimidiation(kappa: float, z_samples: Sequence[complex]) -> float:
    """Maximum relative residual of wp(z; h2, h3) = -3 wp(sqrt3 i z; g2(lam), g3(lam)).

    The left side lives on the lattice of (h2, h3), the right on the
    complementary-modulus lattice turned a quarter turn; samples must avoid
    both lattices (PoleError otherwise).  h2 = 9 g2(lam) and h3 = -27 g3(lam)
    hold exactly, so the check is the homogeneity wp(cz; c^-4 g2, c^-6 g3) =
    c^-2 wp(z; g2, g3) at c = sqrt3 i, which holds on any lattice.  It tests
    the reduction and the bridge of ``wp`` on two lattices; it does not
    check that the lattice of (h2, h3) is kappa's with omega'/3.  An empty
    ``z_samples`` raises ConfigError.
    """
    if not z_samples:
        raise ConfigError("verify_trimidiation needs at least one z; z_samples is empty")
    mod = modulus_from_kappa(kappa)
    inv_h = trimidiation(mod)
    inv_lam = invariants(mod.complement)
    rot = math.sqrt(3.0) * 1j
    worst = 0.0
    for z in z_samples:
        lhs = wp(z, inv_h)
        rhs = -3.0 * wp(rot * z, inv_lam)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def period_route_gap(p: float) -> tuple[float, float]:
    """Relative disagreement of the two half-period routes at parameter p.

    Returns the gaps for omega and for -i omega'.  This is the geometric
    restatement of identities 56 and 57 and should track their residuals
    to within a decade.
    """
    params = params_from_p(p)
    sig = _sig3_half_periods(params.beta, params.beta_comp)
    jac = _jacobi_half_periods(params.alpha, params.alpha_comp, math.sqrt(params.r2))
    gap_re = abs(sig.omega - jac.omega) / sig.omega
    gap_im = abs(sig.omega_prime.imag - jac.omega_prime.imag) / sig.omega_prime.imag
    return gap_re, gap_im


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
    for p in points:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"grid point {p} outside (0, 1)")
    rows = tuple(_transfer_row(p, tol) for p in points)
    all_pass = True
    worst56 = worst57 = worst58 = 0.0
    for _, _, _, _, _, e56, _, _, e57, _, _, e58, ok56, ok57, ok58 in rows:
        all_pass = all_pass and ok56 and ok57 and ok58
        worst56 = max(worst56, e56)
        worst57 = max(worst57, e57)
        worst58 = max(worst58, e58)
    return VerificationReport(rows, tol, all_pass, {"56": worst56, "57": worst57, "58": worst58})
