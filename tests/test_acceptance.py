"""Acceptance suite: every shipping criterion, one test each, at the
tolerances promised in the package contract.  Run with ``pytest -s`` to see
one verdict line per criterion."""

import math
import time

from sig3.cli import CSV_HEADER, main
from sig3.delta import (
    DeltaContext,
    delta,
    delta_integral,
    dn3,
    period_route_gap,
    verify_ode_delta,
    verify_trimidiation,
)
from sig3.hypergeom import f2, f3
from sig3.moduli import context, half_periods_sig3, midpoint_gaps, modulus_from_kappa, params_from_p
from sig3.transfer import grid_points, grid_report
from sig3.weierstrass import wp
from oracles import hyp2f1_series, sig3_invariants, wp_duplication

GRID = (0.05, 0.95, 0.05)
KAPPAS = (0.3, 0.6, 0.9)


def report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_transfer_identities():
    started = time.perf_counter()
    rep = grid_report(*GRID, tol=1e-10)
    elapsed = time.perf_counter() - started
    ok = (
        len(rep.rows) == 19
        and rep.all_pass
        and max(rep.max_relerr.values()) <= 1e-10
        and elapsed < 1.0
    )
    report(1, "transfer identities on the default grid", ok)


def test_criterion_2_period_cross_route():
    ok = True
    for kappa in grid_points(*GRID):
        gap_re, gap_im = period_route_gap(DeltaContext(modulus_from_kappa(kappa)))
        ok = ok and gap_re <= 1e-10 and gap_im <= 1e-10
    report(2, "half-period route agreement", ok)


def test_criterion_3_oracle_equivalence():
    ok = True
    for i in range(1, 100):
        x = i / 100.0
        ok = ok and abs(f2(x) - hyp2f1_series(0.5, 0.5, 1.0, x)) <= 1e-12 * f2(x)
        ok = ok and abs(f3(x) - hyp2f1_series(1.0 / 3.0, 2.0 / 3.0, 1.0, x)) <= 1e-12 * f3(x)
    report(3, "AGM routes vs series oracle", ok)


def test_criterion_4_invariant_structure():
    ok = True
    for kappa in KAPPAS:
        mod = modulus_from_kappa(kappa)
        g2, g3 = sig3_invariants(kappa)
        low, high, shift = midpoint_gaps(mod)
        e3 = shift - 1.0 / 3.0
        e2 = e3 + low
        e1 = e2 + high
        for e in (e1, e2, e3):
            ok = ok and abs(4.0 * e ** 3 - g2 * e - g3) <= 1e-13
        ok = ok and abs(e1 + e2 + e3) <= 1e-14
        periods = half_periods_sig3(mod)
        om, omp = periods.omega, periods.omega_prime
        for z, e in ((om, e1), (om + omp, e2), (omp, e3)):
            ok = ok and abs(wp(z, context(mod)).real - e) <= 1e-10 * abs(e)
    report(4, "midpoint values and lattice structure", ok)


def test_criterion_5_jacobi_bridge():
    mod = modulus_from_kappa(0.6)
    ctx = context(mod)
    g2, g3 = sig3_invariants(mod.kappa)
    periods = half_periods_sig3(mod)
    omega, omega_im = periods.omega, periods.omega_prime.imag
    ok = True
    for frac in (0.2, 0.5, 0.9, 1.3, 1.8):
        for z in (frac * omega, complex(frac * omega, 0.4 * omega_im)):
            ref = wp_duplication(z, g2, g3)[0]
            ok = ok and abs(wp(z, ctx) - ref) <= 1e-9 * abs(ref)
    report(5, "Jacobi bridge against Laurent duplication", ok)


def test_criterion_6_delta_construction():
    ctx = DeltaContext(modulus_from_kappa(0.6))
    omega = half_periods_sig3(ctx.modulus).omega
    ok = delta(0.0, ctx) == 1.0
    period_gap = abs(2.0 * delta_integral(0.5 * math.pi, ctx) - 2.0 * omega)
    ok = ok and period_gap <= 1e-10 * omega
    for kappa in KAPPAS:
        rows = verify_ode_delta(DeltaContext(modulus_from_kappa(kappa)), (0.2, 0.5, 0.9))
        ok = ok and max(residual for _, _, residual, _ in rows) <= 1e-9
    for u in (0.3, 0.7):
        ok = ok and abs(dn3(u, ctx.modulus) - delta(u, ctx)) <= 1e-8
    report(6, "delta initial value, period, ODE, dn3", ok)


def test_criterion_7_trimidiation():
    # Velu's identity on the lattice of kappa with a point of order three,
    # w = 2 omega'/3, against the quarter-turned lattice of lambda: also
    # from seven and five cells out, a shift by a period of both sides.
    samples = (0.3 + 0.0j, 0.2 + 0.1j, 0.5 + 0.3j)
    ok = True
    for kappa in (0.4, 0.7, 1.0 / math.sqrt(2.0)):
        ctx = DeltaContext(modulus_from_kappa(kappa))
        ok = ok and verify_trimidiation(ctx, samples) <= 1e-8
        shift = complex(7.0 * ctx.cell.period_re, 5.0 * ctx.cell.period_im / 3.0)
        ok = ok and verify_trimidiation(ctx, [z + shift for z in samples]) <= 1e-10
    report(7, "trimidiation identity", ok)


def test_criterion_8_exact_rational_spot_values():
    params = params_from_p(0.5)
    low, high, shift = midpoint_gaps(modulus_from_kappa(math.sqrt(params.beta)))
    ok = (
        abs(params.alpha - 5.0 / 32.0) <= 1e-14
        and abs(params.beta - 243.0 / 343.0) <= 1e-14
        and abs(low + high - 32.0 / 49.0) <= 1e-14
        and abs(shift + low + high - 1.0 / 3.0 - 59.0 / 147.0) <= 1e-14
    )
    report(8, "exact rational spot values", ok)


def test_criterion_9_cli_contract(tmp_path):
    out = tmp_path / "report.csv"
    ok = main(["verify", "--quiet", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    ok = ok and len(lines) == 20 and lines[0] == CSV_HEADER
    rep = grid_report(*GRID)
    for line, row in zip(lines[1:], rep.rows):
        fields = line.split(",")
        ok = ok and [float(f) for f in fields[:12]] == [
            row.p, row.alpha, row.beta,
            row.lhs56, row.rhs56, row.relerr56,
            row.lhs57, row.rhs57, row.relerr57,
            row.lhs58, row.rhs58, row.relerr58,
        ]
    ok = ok and main(["verify", "--quiet", "--tol", "1e-300", "--out", str(out)]) == 1
    ok = ok and main(["verify", "--grid", "1.5:2:0.1", "--out", str(out)]) == 2
    report(9, "CLI exit codes and CSV round trip", ok)
