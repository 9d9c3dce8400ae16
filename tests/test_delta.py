import importlib
import math
import random
from fractions import Fraction

import pytest

import sig3.hypergeom
import sig3.quadrature
import sig3.weierstrass
from sig3.delta import (
    DeltaContext,
    delta,
    delta_integral,
    delta_phase,
    dn3,
    period_route_gap,
)
from sig3.errors import DomainError, NonConvergence, PoleError
from sig3.hypergeom import f2_complement, f_half
from sig3.moduli import HalfPeriodPair, ModulusSet, context, half_periods_sig3, modulus_from_kappa, params_from_p
from sig3.quadrature import KRONROD_CENTRE, QK21, integrate
from sig3.transfer import grid_report
from sig3.weierstrass import WP_MAX_MODULUS, wp, _inv_sn
from oracles import ONE, THIRD, TWO_THIRDS, exact_midpoints, hyp2f1_exact, rel_err, search_worst

# The package namespace exports the function delta under the module's name.
delta_module = importlib.import_module("sig3.delta")


@pytest.fixture(scope="module")
def ctx06():
    return DeltaContext(modulus_from_kappa(0.6))


@pytest.fixture(scope="module")
def omega06(ctx06):
    return half_periods_sig3(ctx06.modulus).omega


# ------------------------------------------------- half periods ----


def test_real_half_period_small_modulus_limit():
    periods = half_periods_sig3(modulus_from_kappa(1e-7))
    assert abs(periods.omega - 0.5 * math.pi) < 1e-12


def test_imaginary_half_period_self_complementary():
    periods = half_periods_sig3(modulus_from_kappa(1.0 / math.sqrt(2.0)))
    assert rel_err(periods.omega_prime.imag, math.sqrt(3.0) * periods.omega) < 1e-14


def test_complementary_rotation_relation():
    # omega'(kappa) = i sqrt3 omega(lambda) for any modulus.
    for kappa in (0.2, 0.55, 0.83):
        mod = modulus_from_kappa(kappa)
        lhs = half_periods_sig3(mod).omega_prime.imag
        rhs = math.sqrt(3.0) * half_periods_sig3(ModulusSet(mod.lam)).omega
        assert rel_err(lhs, rhs) < 1e-14


def test_half_periods_at_transfer_modulus():
    # kappa^2 = beta(1/2) = 243/343; oracle is the exact series.
    periods = half_periods_sig3(modulus_from_kappa(math.sqrt(243.0 / 343.0)))
    oracle = 0.5 * math.pi * float(hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(243, 343)))
    assert rel_err(periods.omega, oracle) < 1e-12


def _jacobi_route(p):
    """Half periods through the classical basis at transfer parameter p:
    r omega = (pi/2) F(1/2, 1/2; 1; alpha), r omega' = i (pi/2) F(1/2, 1/2;
    1; 1 - alpha), r^2 = e1 - e3 = (1 + 2p)/(1 + p + p^2)^2."""
    params = params_from_p(p)
    q = 1.0 + p + p * p
    r = math.sqrt((1.0 + 2.0 * p) / (q * q))
    half_pi = 0.5 * math.pi
    return HalfPeriodPair(half_pi * f2_complement(params.alpha_comp) / r,
                          1j * (half_pi * f2_complement(params.alpha) / r))


def test_jacobi_route_small_p_limit():
    periods = _jacobi_route(1e-3)
    assert abs(periods.omega - 0.5 * math.pi) < 1e-4


def test_jacobi_route_matches_sig3_route():
    for p in (0.1, 0.5, 0.9):
        params = params_from_p(p)
        sig = half_periods_sig3(modulus_from_kappa(math.sqrt(params.beta)))
        jac = _jacobi_route(p)
        assert rel_err(jac.omega, sig.omega) < 1e-10
        assert rel_err(jac.omega_prime.imag, sig.omega_prime.imag) < 1e-10


def test_jacobi_route_imaginary_part_against_series():
    # -i omega'(p=1/2) = (sqrt3/2) pi F(1/3,2/3;1;100/343).
    periods = _jacobi_route(0.5)
    oracle = 0.5 * math.sqrt(3.0) * math.pi * float(
        hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(100, 343))
    )
    assert rel_err(periods.omega_prime.imag, oracle) < 1e-10


# ------------------------------------------------- arc integral ----


def test_arc_integral_vanishes_at_zero(ctx06):
    assert delta_integral(0.0, ctx06) == 0.0


def test_arc_integral_quarter_value_is_the_half_period(ctx06, omega06):
    g = delta_integral(0.5 * math.pi, ctx06)
    assert abs(g - omega06) <= 1e-10 * omega06


def test_arc_integral_symmetry_over_half_cell(ctx06):
    g_half = delta_integral(0.5 * math.pi, ctx06)
    g_full = delta_integral(math.pi, ctx06)
    assert abs(g_full - 2.0 * g_half) < 1e-11


def test_arc_integral_is_strictly_increasing(ctx06):
    values = [delta_integral(t, ctx06) for t in (0.0, 0.4, 0.9, 1.4, 2.0, 2.7, 3.1)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_arc_integral_odd_in_t(ctx06):
    assert abs(delta_integral(-0.8, ctx06) + delta_integral(0.8, ctx06)) < 1e-13


@pytest.mark.parametrize("kappa", [0.6, 0.99])
def test_arc_integral_reaches_far_phases(kappa):
    # G(T) = G(r) + 2n G(pi/2) with r = T - n pi: past pi/2 the integral is
    # reduced modulo pi, so T = 1e4 no longer fills MAX_INTERVALS (T = 300
    # raised NonConvergence at 0.6).  Against 2n omega plus the quadrature
    # over the exact remainder in 40 digits: measured 1.05e-16 at 0.6 and
    # 1.22e-16 at 0.99.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    k2 = mpmath.mpf(kappa) ** 2
    third = mpmath.mpf(1) / 3
    T = mpmath.mpf(1e4)
    turns = int(mpmath.nint(T / mpmath.pi))
    exact = turns * mpmath.pi * mpmath.hyp2f1(third, 2 * third, 1, k2) + mpmath.quad(
        lambda t: mpmath.hyp2f1(third, 2 * third, 0.5, k2 * mpmath.sin(t) ** 2), [0, T - turns * mpmath.pi])
    ctx = DeltaContext(ModulusSet(kappa))
    assert float(abs(delta_integral(1e4, ctx) - exact) / exact) <= 2e-16
    assert delta_integral(-1e4, ctx) == -delta_integral(1e4, ctx)


@pytest.mark.parametrize("kappa", [0.6, 0.99])
@pytest.mark.parametrize("u", [1e3, 1e5])
def test_arc_integral_inverts_the_phase_far_out(kappa, u):
    # G(T(u)) = u, the paper's definition of T, a thousand and a hundred
    # thousand units out: measured within one ulp of u (1.1e-13 at 1e3,
    # <= 1.5e-11 at 1e5).
    ctx = DeltaContext(ModulusSet(kappa))
    assert abs(delta_integral(delta_phase(u, ctx), ctx) - u) <= 2.0 * math.ulp(u)


def test_quadrature_budget_failure(monkeypatch):
    # 1/t has no integral over [0, 1]: each split of the interval at 0 leaves
    # its error (ln 2) in place, so the partition fills its budget.
    message = r"\[0\.0, 1\.0\] not converged to 1e-13 within MAX_INTERVALS = 250 intervals"
    with pytest.raises(NonConvergence, match=message):
        integrate(lambda t: 1.0 / t, 0.0, 1.0, 1e-13)
    # inf - inf leaves a NaN estimate, which never counts as converged.
    with pytest.raises(NonConvergence, match="estimated error nan left"):
        integrate(lambda t: math.inf, 0.0, 1.0, 1e-13)
    # With a budget of one interval, an integrand the first interval does
    # not resolve fails, and one it does resolve still integrates.
    monkeypatch.setattr(sig3.quadrature, "MAX_INTERVALS", 1)
    with pytest.raises(NonConvergence, match="within MAX_INTERVALS = 1 intervals: estimated error"):
        integrate(abs, -1.0, 1.0, 1e-12)
    assert abs(integrate(lambda t: t * t, 0.0, 1.0, 1e-12) - 1.0 / 3.0) <= 1e-15


def test_quadrature_evaluates_each_panel_once(monkeypatch):
    # Each interval of the partition is one panel, evaluated once: 1 panel
    # when the root is accepted, 2 more per split.  The 21-point rule is
    # exact for t^2; it misses the kink of |t| on [-1, 1], which is exact on
    # either half, so that partition splits exactly once.
    calls = []
    panel = sig3.quadrature._panel

    def counted(f, a, b):
        calls.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(sig3.quadrature, "_panel", counted)
    assert abs(integrate(lambda t: t * t, 0.0, 1.0, 1e-12) - 1.0 / 3.0) <= 1e-15
    assert calls == [(0.0, 1.0)]
    calls.clear()
    assert abs(integrate(abs, -1.0, 1.0, 1e-12) - 1.0) <= 1e-15
    assert calls == [(-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0)]


def _qk21_sums(n):
    """The Kronrod and the embedded Gauss sum of t^n over [-1, 1], from the
    table alone."""
    kronrod = KRONROD_CENTRE * (1.0 if n == 0 else 0.0)
    gauss = 0.0
    for x, wk, wg in QK21:
        pair = (-x) ** n + x ** n
        kronrod += wk * pair
        gauss += wg * pair
    return kronrod, gauss


def test_gauss_kronrod_table_is_exact():
    # K21 integrates t^n exactly for n <= 31 and G10 for n <= 19, measured
    # within 4 ulps; one degree more misses by far more.  Odd degrees vanish
    # by symmetry, so the even ones carry the test.
    for n in range(0, 32, 2):
        kronrod, gauss = _qk21_sums(n)
        exact = 2.0 / (n + 1)
        assert abs(kronrod - exact) <= 8 * math.ulp(exact)
        if n <= 19:
            assert abs(gauss - exact) <= 8 * math.ulp(exact)
    assert abs(_qk21_sums(20)[1] - 2.0 / 21) > 1e-6
    assert abs(_qk21_sums(32)[0] - 2.0 / 33) > 1e-12
    # The Gauss nodes are every other Kronrod node, and 0 is not one of them.
    assert [wg > 0.0 for _, _, wg in QK21] == [False, True] * 5
    assert [x for x, _, _ in QK21] == sorted((x for x, _, _ in QK21), reverse=True)


def test_quadrature_panel_reads_its_gauss_sum():
    # On [0, 1] the panel's estimate, |K21 - G10| rescaled as qk21 does, is
    # roundoff while G10 is exact (n <= 19) and jumps at n = 20, where it
    # is not (measured 1.67e-14).
    for n in range(20):
        error, a, b, kronrod = sig3.quadrature._panel(lambda t: t ** n, 0.0, 1.0)
        assert (a, b) == (0.0, 1.0)
        assert error <= 2e-16 and abs(kronrod - 1.0 / (n + 1)) <= 8 * math.ulp(1.0 / (n + 1))
    assert sig3.quadrature._panel(lambda t: t ** 20, 0.0, 1.0)[0] > 1e-14


def test_quadrature_meets_its_tolerance_at_an_endpoint_singularity():
    # No node sits on an endpoint, so t^-1/2 is never evaluated at 0, and
    # the Kronrod estimate is not fooled by the singularity: measured 5.9e-14.
    assert abs(integrate(lambda t: t ** -0.5, 0.0, 1.0, 1e-13) - 2.0) <= 1e-13


# ------------------------------------------------------- delta ----


def test_delta_initial_condition_is_exact(ctx06):
    assert delta(0.0, ctx06) == 1.0


def test_delta_phase_is_the_inverse(ctx06, omega06):
    assert delta_phase(0.0, ctx06) == 0.0
    assert abs(delta_phase(omega06, ctx06) - 0.5 * math.pi) < 1e-10
    # global structure: adding a period advances the phase by pi
    t = delta_phase(0.4, ctx06)
    assert abs(delta_phase(0.4 + 2.0 * omega06, ctx06) - (t + math.pi)) < 1e-9


def test_delta_phase_is_odd_bitwise(ctx06, omega06):
    # Reduced into cell -1, a small negative u lost its digits: 8.3e-8
    # relative at u = -1e-10.  Below 2^-28, T(u) = u - (4/27) kappa^2 u^3
    # rounds to u, where 1/sn would overflow.
    for u in (5e-324, 1e-300, 1e-10, 1e-6, 0.3, omega06, 5.0):
        assert delta_phase(-u, ctx06) == -delta_phase(u, ctx06), u
    for u in (5e-324, 1e-300, 1e-10, 2.0 ** -28):
        assert delta_phase(u, ctx06) == u


def test_delta_phase_monotone(ctx06, omega06):
    grid = [-0.5, 0.0, 0.3, 0.9, omega06, 2.1, 2.0 * omega06 + 0.2]
    values = [delta_phase(u, ctx06) for u in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_delta_phase_reaches_kappa_one_minus_1e_10():
    # At kappa = 1 - 1e-10 and T ~ pi/2, G' = 1/delta ~ 5e4: one ulp of T
    # moves G by ~1e-11, and the Halley inversion this closed form replaced
    # raised NonConvergence here.  The closed form meets G(T) = u within
    # two such ulps (measured 4.6e-12, the quadrature's error included),
    # and its 1/F matches delta to roundoff (measured 2.4e-16).
    ctx = DeltaContext(modulus_from_kappa(0.9999999999))
    u = 15.0 * ctx.omega / 16.0
    T = delta_phase(u, ctx)
    d = delta(u, ctx)
    assert 0.0 < T < 0.5 * math.pi
    assert abs(delta_integral(T, ctx) - u) <= 2.0 * math.ulp(T) / d
    assert abs(delta_module._reference_delta(T, ctx)[0] - d) <= 1e-15


def _mpmath_phase_residual(kappa, mpmath):
    """T -> |G(T) - u| / F(T) in 50 digits, for the float T: the distance
    to the exact T(u) to first order, one Newton step of the paper's
    definition.  G(T) = omega + sign(T - pi/2) H(|T - pi/2|), with H the
    integral of F(pi/2 - s) over [0, sigma] taken in y, s = lambda sinh y:
    F ds = cos(z/3) lambda cosh y / cos z dy stays smooth however sharp the
    peak 1/lambda of F at pi/2."""
    k = mpmath.mpf(kappa)
    lam = mpmath.sqrt((1 - k) * (1 + k))
    third = mpmath.mpf(1) / 3
    half_pi = mpmath.pi / 2
    omega = half_pi * mpmath.hyp2f1(third, 2 * third, 1, k * k)

    def kernel(s, scale):
        # F(pi/2 - s) times scale: cos z = sqrt(sin^2 s + lambda^2 cos^2 s)
        cos_z = mpmath.sqrt(mpmath.sin(s) ** 2 + (lam * mpmath.cos(s)) ** 2)
        return mpmath.cos(mpmath.atan2(k * mpmath.cos(s), cos_z) / 3) * scale / cos_z

    def residual(T, u):
        d = mpmath.mpf(T) - half_pi
        H = mpmath.quad(lambda y: kernel(lam * mpmath.sinh(y), lam * mpmath.cosh(y)),
                        [0, mpmath.asinh(abs(d) / lam)])
        return float(abs(omega + mpmath.sign(d) * H - u) / kernel(d, 1))

    return residual


@pytest.mark.parametrize("kappa", [1e-100, 0.3, 0.9, 0.999999, 0.9999999999, 1.0 - 2.0 ** -52])
def test_delta_phase_against_50_digit_values(kappa):
    # Seeded u over one period, and u next to omega on both sides, down to
    # the float below it.  Measured <= 9.7e-16 relative to max(1, T) up to
    # kappa = 1 - 1e-10 and 2.8e-15 at 1 - 2^-52.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ctx = DeltaContext(modulus_from_kappa(kappa))
    omega = ctx.omega
    rng = random.Random(27)
    grid = sorted([rng.uniform(0.0, 2.0 * omega) for _ in range(5)] + [math.nextafter(omega, 0.0)]
                  + [omega * (1.0 + sign * 10.0 ** -j) for j in (1, 6, 13) for sign in (-1, 1)])
    residual = _mpmath_phase_residual(kappa, mpmath)
    phases = [delta_phase(u, ctx) for u in grid]
    # Monotone, not strictly: next to omega at kappa near 1, T' = delta ~ 1e-8.
    assert all(b >= a for a, b in zip(phases, phases[1:]))
    for u, T in zip(grid, phases):
        assert residual(T, u) <= 1e-14 * max(1.0, T), (u, T)
        assert delta_phase(-u, ctx) == -T


# Bounds set on the Halley inversion that the closed form replaced, which
# measured 2.30e-14, 2.50e-14 and 1.83e-13 from kappa = 0.9999 up.  At
# 0.9999 that is delta's own final subtraction 1 - a/(b + v^2) (ROADMAP
# item 1): against 30-digit values the reference read 2.3e-15 and delta
# 2.3e-14.  At 0.999999 one ulp of T moves delta by ~8e-14 near u = omega.
# Every other kappa is held to 1e-14.
_INVERSION_ROUTE_BOUNDS = {0.9999: 2.4e-14, 0.99999: 2.6e-14, 0.999999: 1.9e-13}


def phase_unit(ctx):
    """The worst first-order rounding of G(T(u)) - u over a period:
    ulp(u) + F(T) ulp(T), with u <= 2 omega, T <= pi and F(T) <= F(pi/2) =
    1/delta(omega)."""
    return math.ulp(2.0 * ctx.omega) + math.ulp(math.pi) / delta(ctx.omega, ctx)


@pytest.mark.parametrize("kappa", [0.05, 0.3, 0.6, 0.9, 0.99, 0.995, 0.999, 0.9999, 0.99999, 0.999999])
def test_delta_matches_the_integral_inversion_route(kappa):
    # Production (Jacobi bridge) against reference (delta in its arc form at
    # the phase T(u)) over a full period; i = 8 is u = omega.  The phase
    # meets the paper's G(T(u)) = u within one phase_unit: measured <= 0.9.
    ctx = DeltaContext(modulus_from_kappa(kappa))
    bound = _INVERSION_ROUTE_BOUNDS.get(kappa, 1e-14)
    grid = [2.0 * ctx.omega * i / 16 for i in range(17)]
    for u in grid:
        reference = delta_module._reference_delta(delta_phase(u, ctx), ctx)[0]
        assert rel_err(delta(u, ctx), reference) <= bound, u
    assert max(row[3] for row in delta_module.verify_ode_delta(ctx, grid)) <= phase_unit(ctx)


def _inversion_gap(kappa):
    """The worst relative gap of delta to the reference route at 15 u =
    2 omega (j + 0.37)/16, off the grid above."""
    ctx = DeltaContext(ModulusSet(kappa))
    us = [2.0 * ctx.omega * (j + 0.37) / 16 for j in range(15)]
    return max(rel_err(delta(u, ctx), delta_module._reference_delta(delta_phase(u, ctx), ctx)[0]) for u in us)


# The two searches below (seed 3, 1,500 draws, 500 refinements, ~0.12 s
# each) break the docstring's bounds next to the top of each range, both
# at u = 2 omega 8.37/16, just past omega.  Against 30-digit values delta
# is the side that is off: its quotient a/(b + v^2) carries 3.6-3.7 eps, and
# the final subtraction 1 - a/(b + v^2) multiplies that by (1 - delta)/delta
# (ROADMAP item 1).  Seeds 1 and 2 find 1.40e-14 and 1.35e-14 below 0.999,
# and 3.6e-13 and 3.9e-13 below 0.999999.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND: 1.47e-14 at kappa = 0.9988071803680321, over 1e-14")
def test_delta_holds_1e_14_up_to_kappa_0_999_at_a_searched_worst_case():
    # There delta is 1.36e-14 and the reference 1.1e-15 off; (1 - delta)/delta = 16.5.
    value, kappa = search_worst(lambda k: _inversion_gap(k) if k <= 0.999 else 0.0, seed=3, floor=5.8e-103,
                                draws=1_500, steps=500)
    assert max(value, _inversion_gap(0.9988071803680321)) <= 1e-14, kappa


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND: 4.23e-13 at kappa = 0.9999989972096096, over 1.9e-13")
def test_delta_holds_1_9e_13_up_to_kappa_0_999999_at_a_searched_worst_case():
    # There delta is 4.49e-13 and the reference 2.6e-14 off; (1 - delta)/delta = 569.
    value, kappa = search_worst(lambda k: _inversion_gap(k) if k <= 0.999999 else 0.0, seed=3, floor=5.8e-103,
                                draws=1_500, steps=500)
    assert max(value, _inversion_gap(0.9999989972096096)) <= 1.9e-13, kappa


@pytest.mark.parametrize("points", [4, 16])
def test_certificate_crosses_the_peak_at_the_float_below_one(points):
    # kappa = 1 - 2^-53.  On an even grid the peak of the kernel at T = pi/2
    # lies inside the stretch between the two middle points, which the
    # running integral crosses in one call.  |G(T) - u| measures 8.7e-11 and
    # 4.7e-9, under one phase_unit (2.6e-8): the quadrature's error near
    # the peak (ROADMAP item 16).
    ctx = DeltaContext(modulus_from_kappa(1.0 - 2.0 ** -53))
    grid = [2.0 * ctx.omega * i / (points - 1) for i in range(points)]
    rows = delta_module.verify_ode_delta(ctx, grid)
    assert [row[0] for row in rows] == grid
    assert max(row[3] for row in rows) <= phase_unit(ctx)


def test_delta_periodicity(ctx06, omega06):
    assert abs(delta(0.4 + 2.0 * omega06, ctx06) - delta(0.4, ctx06)) < 1e-9


def test_delta_evenness(ctx06):
    for u in (0.25, 0.7, 1.4):
        assert abs(delta(-u, ctx06) - delta(u, ctx06)) < 1e-12


def test_delta_evenness_is_bitwise(ctx06, omega06):
    for u in (1e-9, 0.25, omega06, 2.9, 40.0):
        assert delta(-u, ctx06) == delta(u, ctx06)


def test_delta_at_the_half_period(ctx06, omega06):
    assert rel_err(delta(omega06, ctx06), 1.0 / f_half(0.36)) < 1e-10


def test_delta_range(ctx06, omega06):
    for u in (0.1 * omega06, 0.4 * omega06, 0.9 * omega06):
        assert 0.0 < delta(u, ctx06) <= 1.0


def test_delta_context_validation():
    # Every modulus in (0, 1) is accepted; near kappa = 1 the half-period
    # value delta(omega) = lambda / cos(theta/3) still holds to roundoff.
    for kappa in (0.995, 0.9999, 0.999999):
        mod = modulus_from_kappa(kappa)
        ctx = DeltaContext(mod)
        expected = mod.lam / math.cos(math.asin(kappa) / 3.0)
        assert rel_err(delta(ctx.omega, ctx), expected) <= 5e-14


def test_delta_is_the_bridge_through_sn_bitwise():
    # delta climbs the Gauss ladder cached in its context with the one
    # recursion for v = 1/sn that sn, wp and dn3 use, so the value is the
    # bridge 1 - a/(b + v^2) to the last bit.  Inside the centred cell the
    # reduction leaves u as it is, and dn3 climbs the same ladder at
    # complex argument with zero imaginary parts: the same value bitwise.
    for kappa in (0.05, 0.3, 0.6, 0.9, 0.99, 0.999999):
        ctx = DeltaContext(modulus_from_kappa(kappa))
        for i in range(-40, 41):
            u = 0.137 * i * ctx.omega
            if i == 0:
                assert delta(u, ctx) == 1.0
                continue
            scale, rungs, a, b = ctx.bridge
            v = _inv_sn(u * scale, rungs)
            assert delta(u, ctx) == 1.0 - a / (b + v * v), (kappa, u)
            if abs(u) < ctx.omega:
                assert dn3(u, ctx.modulus) == delta(u, ctx), (kappa, u)


def test_delta_rejects_non_finite(ctx06):
    with pytest.raises(DomainError):
        delta(math.inf, ctx06)
    for u in (math.inf, math.nan):
        with pytest.raises(DomainError):
            delta_phase(u, ctx06)


def test_delta_integral_refuses_a_non_finite_phase(ctx06):
    # inf used to reach math.sin (ValueError), and NaN ran the whole
    # quadrature budget before NonConvergence.
    for T in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="not finite"):
            delta_integral(T, ctx06)


def test_delta_has_the_domain_of_dn3(ctx06):
    # |u| >= WP_MAX_MODULUS (~4.5036e7) is refused, as by dn3: beyond it the
    # rounding of u alone exceeds the lattice's pole threshold.  The
    # reference route's delta_phase refuses the same u.
    mod = ctx06.modulus
    for u in (1e300, -1e300, 4.6e7, WP_MAX_MODULUS, math.nan):
        with pytest.raises(DomainError):
            delta(u, ctx06)
        with pytest.raises(DomainError):
            dn3(u, mod)
        with pytest.raises(DomainError):
            delta_phase(u, ctx06)
    for u in (4e7, -4e7, math.nextafter(WP_MAX_MODULUS, 0.0)):
        assert 0.0 < delta(u, ctx06) <= 1.0


# --------------------------------------------------------- dn3 ----


def test_dn3_matches_delta_on_the_real_axis():
    for kappa in (0.05, 0.3, 0.6, 0.9, 0.99, 0.999):
        ctx = DeltaContext(modulus_from_kappa(kappa))
        for i in range(1, 32):
            u = 2.0 * ctx.omega * i / 32
            assert abs(dn3(u, ctx.modulus) - delta(u, ctx)) <= 1e-14, (kappa, u)


def test_real_and_integer_arguments_reduce_as_complex_ones(ctx06):
    # The lattice reduction reads abs, .real and .imag of z as it comes,
    # which floats and ints have too: the same bits as at complex(z).
    mod = ctx06.modulus

    def bits(value):
        return value.real.hex(), value.imag.hex()

    assert bits(dn3(0.7, mod)) == bits(dn3(complex(0.7), mod))
    assert bits(dn3(1, mod)) == bits(dn3(complex(1), mod))
    assert bits(wp(0.7, ctx06)) == bits(wp(complex(0.7), ctx06))


def test_dn3_tends_to_one_at_the_origin(ctx06):
    # wp blows up like 1/z^2, so dn3(z) = 1 - (4/9) kappa^2 z^2 + O(z^4).
    value = dn3(0.01, ctx06.modulus)
    assert abs(value - 1.0) < 3e-5


def test_dn3_pole_two_thirds_up_the_imaginary_half_period(ctx06):
    mod = ctx06.modulus
    omega_prime = half_periods_sig3(mod).omega_prime
    with pytest.raises(PoleError):
        dn3(2.0 / 3.0 * omega_prime, mod)


def test_dn3_propagates_lattice_pole(ctx06):
    with pytest.raises(PoleError):
        dn3(1e-9, ctx06.modulus)


def test_dn3_calls_no_wp(monkeypatch):
    # dn3 and wp share the bridge b + v^2 of weierstrass._shifted; dn3
    # forms it directly, not through wp's (e1 - e3)(b + v^2) - 1/3.
    def refuse(*args):
        raise AssertionError("dn3 must not take this route")

    monkeypatch.setattr(sig3.weierstrass, "wp", refuse)
    monkeypatch.setattr(sig3.weierstrass, "wp_and_derivative", refuse)
    context.cache_clear()
    mod = modulus_from_kappa(0.6)
    for z in (0.3, 0.2 + 0.4j, -5.1 + 33.0j):
        dn3(z, mod)


def test_dn3_builds_one_context_per_modulus():
    context.cache_clear()
    for kappa in (0.3, 0.7):
        for z in (0.3, 0.2 + 0.4j, -5.1 + 33.0j):
            dn3(z, modulus_from_kappa(kappa))
    info = context.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


def test_delta_context_is_read_only(ctx06):
    # dn3 shares one context per modulus.
    with pytest.raises(AttributeError):
        ctx06.omega = 1.0
    with pytest.raises(AttributeError):
        del ctx06.bridge_a
    assert not hasattr(ctx06, "__dict__")


def test_delta_context_omega_is_half_the_cells_period_bitwise():
    # The context reads omega off its cell, which stores 2 omega: on 2,002
    # seeded kappa, log-spaced toward both ends of (5.8e-103, 1), it is the
    # float half_periods_sig3 gives.
    rng = random.Random(44)
    near0, near1, half = math.log(5.8e-103), math.log(2.0 ** -53), math.log(0.5)
    kappas = ([5.8e-103, 1.0 - 2.0 ** -53] + [math.exp(rng.uniform(near0, half)) for _ in range(1000)]
              + [1.0 - math.exp(rng.uniform(near1, half)) for _ in range(1000)])
    for kappa in kappas:
        mod = ModulusSet(kappa)
        assert DeltaContext(mod).omega == half_periods_sig3(mod).omega, kappa


@pytest.mark.parametrize("kappa", [0.9999, 0.99999])
def test_reference_delta_keeps_its_digits_near_kappa_one(kappa):
    # 1/f_half(kappa^2 sin^2 T) forms 1 - kappa^2 sin^2 T and loses up to
    # 5.6e-13 (kappa = 0.9999) and 4.3e-12 (0.99999) within 1% of T = pi/2;
    # the kernel's cos^2 T + lambda^2 sin^2 T keeps them (measured 3.6e-16).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ctx = DeltaContext(modulus_from_kappa(kappa))
    third = mpmath.mpf(1) / 3
    for i in range(999):
        T = 0.5 * math.pi * (0.99 + 0.02 * i / 998)
        x = mpmath.mpf(kappa) ** 2 * mpmath.sin(mpmath.mpf(T)) ** 2
        ref = 1 / mpmath.hyp2f1(third, 2 * third, mpmath.mpf(1) / 2, x)
        assert abs(delta_module._reference_delta(T, ctx)[0] - ref) <= 1e-15 * ref, T


@pytest.mark.parametrize("kappa", [0.9999, 0.99999])
def test_reference_delta_derivative_keeps_its_digits_near_kappa_one(kappa):
    # delta' = d/dT(1/F)/F at F = F(1/3, 2/3; 1/2; kappa^2 sin^2 T), on 999
    # T within 1% of pi/2 (pi/2 itself, where delta' = 0, left out).  The
    # arc form measures <= 7.1e-16; differentiating F in x = kappa^2 sin^2 T
    # divides by 1 - x and loses up to 1.6e-12 (kappa = 0.9999) and 1.2e-11.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ctx = DeltaContext(modulus_from_kappa(kappa))
    third = mpmath.mpf(1) / 3
    k2 = mpmath.mpf(kappa) ** 2
    for i in range(1, 1000):
        T = 0.5 * math.pi * (0.99 + 0.02 * i / 999)
        t = mpmath.mpf(T)
        x = k2 * mpmath.sin(t) ** 2
        F = mpmath.hyp2f1(third, 2 * third, mpmath.mpf(1) / 2, x)
        dF = mpmath.mpf(4) / 9 * mpmath.hyp2f1(4 * third, 5 * third, mpmath.mpf(3) / 2, x) * k2 * mpmath.sin(2 * t)
        ref = -dF / F ** 3
        assert abs(delta_module._reference_delta(T, ctx)[1] - ref) <= 1e-15 * abs(ref), T


def _mpmath_dn3(kappa, mpmath):
    """dn3 and |dn3'| as functions of z, in 40 digits on the exact lattice
    of kappa: the midpoints of ``oracles.exact_midpoints`` for the binary
    value of kappa, the Jacobi bridge for wp, and
    wp'^2 = 4 wp^3 - g2 wp - g3 with the exact g2, g3 of that kappa."""
    t = mpmath.mpf(kappa) ** 2
    g2 = mpmath.mpf(4) / 27 * (9 - 8 * t)
    g3 = mpmath.mpf(8) / 729 * (27 - 36 * t + 8 * t * t)
    e1, e2, e3 = exact_midpoints(kappa, mpmath)
    m = (e2 - e3) / (e1 - e3)
    r = mpmath.sqrt(e1 - e3)
    c = mpmath.mpf(4) / 9 * t

    def dn3_and_deriv(z):
        sn_ = mpmath.ellipfun("sn", mpmath.mpc(z.real, z.imag) * r, m=m)
        wp_value = e3 + (e1 - e3) / sn_ ** 2
        wp_deriv = mpmath.sqrt(4 * wp_value ** 3 - g2 * wp_value - g3)
        shifted = mpmath.mpf(1) / 3 + wp_value
        return 1 - c / shifted, abs(c * wp_deriv / shifted ** 2)

    return dn3_and_deriv


@pytest.mark.parametrize("kappa", [0.05, 0.6, 0.95])
def test_dn3_against_40_digit_values(kappa):
    # The centred cell and cells 1 to 50 out.  The bound is relative to the
    # condition number |z dn3'/dn3| where it exceeds 1: rounding z alone
    # costs that many ulps next to a zero or a pole of dn3.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    mod = modulus_from_kappa(kappa)
    periods = half_periods_sig3(mod)
    omega, omega_im = periods.omega, periods.omega_prime.imag
    reference = _mpmath_dn3(kappa, mpmath)
    offsets = [(a, b) for a in (-0.85, -0.2, 0.6) for b in (-0.9, 0.15, 0.7)]
    cells = [(0, 0)] + [(d * dm, d * dn) for d in (1, 2, 5, 10, 20, 50)
                        for dm, dn in ((1, 0), (0, 1), (-1, 1), (1, -1))]
    for m, n in cells:
        for a, b in offsets:
            z = complex(omega * (2 * m + a), omega_im * (2 * n + b))
            ref_value, ref_deriv = reference(z)
            condition = float(abs(z) * ref_deriv / abs(ref_value))
            err = float(abs(dn3(z, mod) - ref_value) / abs(ref_value))
            assert err <= 1e-11 * max(1.0, condition), (z, err, condition)


def _cell_edges_and_pole(omega, omega_im):
    """The worst places for the complex descent in the centred cell: the
    top and bottom edges |Im z| = |omega'|, where |Im phi| at the foot of
    the ladder is largest, the right and left edges Re z = +-omega, and
    points within 1% of the sn pole at omega' (omega' itself included)."""
    steps = [i / 10 - 1.0 for i in range(21)]
    points = [complex(a * omega, b * omega_im) for a in steps for b in (-1.0, 1.0)]
    points += [complex(a * omega, b * omega_im) for a in (-1.0, 1.0) for b in steps if abs(b) > 0.05]
    points.append(complex(0.0, omega_im))
    for radius in (1e-2, 1e-3, 1e-4):
        for j in range(12):
            angle = 2.0 * math.pi * j / 12
            points.append(complex(radius * omega_im * math.cos(angle),
                                  omega_im * (1.0 + radius * math.sin(angle))))
    return points


def _mpmath_wp(kappa, mpmath):
    """wp and wp' as functions of z, in 40 digits on the exact lattice of
    kappa (``oracles.exact_midpoints``), through the Jacobi bridge."""
    e1, e2, e3 = exact_midpoints(kappa, mpmath)
    m = (e2 - e3) / (e1 - e3)
    r = mpmath.sqrt(e1 - e3)

    def wp_and_deriv(z):
        u = mpmath.mpc(z.real, z.imag) * r
        sn_, cn, dn = (mpmath.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn"))
        return e3 + (e1 - e3) / sn_ ** 2, -2 * (e1 - e3) * r * cn * dn / sn_ ** 3

    return wp_and_deriv


@pytest.mark.parametrize("kappa", [1e-5, 1e-3, 0.05, 0.6, 0.95, 0.9999])
def test_complex_descent_at_its_worst_places(kappa):
    # Relative to max(1, |z f'/f|), the rounding of z, for wp and dn3.
    # dn3 = 1 - a/(b + v^2) also cancels next to its zeros, by the factor
    # |1 - dn3|/|dn3|, which joins the condition: at the corners
    # +-omega +- omega', where dn3' = 0, it reaches 62 at kappa = 0.9999
    # (a bridge without that cancellation is ROADMAP item 1).  Measured
    # <= 1.9e-15 for wp and <= 3.2e-15 for dn3 over these points, apart
    # from dn3 at those corners: 2.4e-14, or 5.1e-16 of its condition.  wp
    # runs on the same lattice, at kappa = 1e-5 and 1e-3 too, where the
    # cubic solve of the rounded (g2, g3) left no lattice.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    mod = modulus_from_kappa(kappa)
    periods = half_periods_sig3(mod)
    points = _cell_edges_and_pole(periods.omega, periods.omega_prime.imag)
    reference = _mpmath_dn3(kappa, mpmath)
    for z in points:
        ref_value, ref_deriv = reference(z)
        condition = max(1.0, float(abs(z) * ref_deriv / abs(ref_value)),
                        float(abs(1 - ref_value) / abs(ref_value)))
        err = float(abs(dn3(z, mod) - ref_value) / abs(ref_value))
        assert err <= 1e-14 * condition, (z, err, condition)
    ctx = context(mod)
    reference = _mpmath_wp(kappa, mpmath)
    for z in points:
        ref_value, ref_deriv = reference(z)
        condition = max(1.0, float(abs(mpmath.mpc(z) * ref_deriv / ref_value)))
        err = float(abs(wp(z, ctx) - ref_value) / abs(ref_value))
        assert err <= 1e-14 * condition, (z, err, condition)


@pytest.mark.parametrize("kappa", [1e-6, 1e-8])
def test_delta_at_small_modulus_against_40_digit_values(kappa):
    # k^2 and 1 - k^2 come from the closed-form gaps, so no midpoint is
    # subtracted from another and e2 - e3 ~ 0.11 kappa^3 keeps its digits
    # (measured <= 5.5e-17).  The addition-formula route refused both.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ctx = DeltaContext(modulus_from_kappa(kappa))
    reference = _mpmath_dn3(kappa, mpmath)
    for i in range(1, 40):
        u = 2.0 * ctx.omega * (i + 0.37) / 40
        ref = reference(complex(u))[0]
        assert abs(delta(u, ctx) - ref) <= 1e-15 * ref, u


def _ladder_bound(kappa):
    """test_the_ladder_certifies_the_period's bound on the real column."""
    eps = 2.0 ** -52
    return 3.0 * eps if kappa <= 0.9 else 4.0 * eps if kappa <= 1.0 - 1e-6 else 8.5 * eps


def _real_gap(kappa):
    return period_route_gap(DeltaContext(modulus_from_kappa(kappa)))[0]


def test_the_ladder_certifies_the_period():
    # The real column of the route gap, |omega scale/(pi/2) - 1|: omega from
    # agm3 against the context's Gauss ladder, whose scale is
    # sqrt(e1 - e3)/prod(1 + k_n) = r (pi/2)/K.  2,002 fresh contexts,
    # log-spaced from kappa = 1e-100 to 1/2 and in 1 - kappa from 1/2 down
    # to 2^-53.  Measured worst: 2.5, 3.0 and 7.0 eps in the three ranges;
    # the ladder's rounding grows with its rungs.
    n = 1000
    lo, lo1, hi = math.log(1e-100), math.log(2.0 ** -53), math.log(0.5)
    kappas = [math.exp(lo + (hi - lo) * i / n) for i in range(n + 1)]
    kappas += [1.0 - math.exp(lo1 + (hi - lo1) * i / n) for i in range(n + 1)]
    # A seeded search's worst: the real column reads 1.887379141862766e-15
    # at kappa = 1 - 67 * 2^-53, exactly the 8.5 eps bound.
    kappas.append(1.0 - 67 * 2.0 ** -53)
    for kappa in kappas:
        assert _real_gap(kappa) <= _ladder_bound(kappa), kappa


def test_the_ladder_holds_the_period_at_a_searched_worst_case():
    # The 8.5 eps that _phase_in_quarter's docstring states, at the worst
    # real column that search_worst finds from kappa = 1e-100 (seed 1,
    # 10,000 draws, 1,000 refinements, ~0.1 s).
    value, kappa = search_worst(_real_gap, seed=1, floor=1e-100, draws=10_000, steps=1_000)
    assert value <= 8.5 * 2.0 ** -52, kappa
    # The point it found is the last fixed case of the test above,
    # kappa = 1 - 67 * 2^-53, where the real column read 1.887379141862766e-15.


@pytest.mark.xfail(strict=True, reason="FOUND: the 3 and 4 eps ranges of _ladder_bound break")
def test_the_ladder_holds_its_tighter_ranges_at_searched_points():
    # Below kappa = 1 - 1e-6 the grid of test_the_ladder_certifies_the_period
    # reads at most 2.5 and 3.0 eps, but a search reads more: 4.5 eps at
    # kappa = 0.9999897081169815 (search_worst of the real column over
    # _ladder_bound, seed 3, 10,000 draws, 1,000 refinements), and 4.0 eps
    # at 0.8356707550353271 and 4.5 eps at 0.9999985583032078 (a sweep of
    # 40,000 seeded draws per range).  Each is within the 8.5 eps the
    # docstring states, and over its range's bound.
    for kappa in (0.8356707550353271, 0.9999897081169815, 0.9999985583032078):
        assert _real_gap(kappa) <= _ladder_bound(kappa), kappa


def test_the_ladder_sees_a_bias_the_transfer_identities_cannot(monkeypatch):
    # The ladder calls no AGM, so agm3 biased by 1e-13 moves omega alone.
    # Biasing agm by the same factor too moves both sides of (56)-(58)
    # alike: the grid's worst residual stays roundoff (8.41e-16, against
    # 8.06e-16 unbiased), while the route gap's real column still reads
    # 1.0e-13.
    def least_gap():
        return min(period_route_gap(DeltaContext(modulus_from_kappa(kappa)))[0] for kappa in (0.3, 0.6, 0.9))

    agm, agm3 = sig3.hypergeom.agm, sig3.hypergeom.agm3
    monkeypatch.setattr(sig3.hypergeom, "agm3", lambda a, b: agm3(a, b) * (1.0 + 1e-13))
    assert least_gap() >= 5e-14
    monkeypatch.setattr(sig3.hypergeom, "agm", lambda a, b: agm(a, b) * (1.0 + 1e-13))
    assert least_gap() >= 5e-14
    assert max(grid_report(0.001, 0.999, 0.001).max_relerr.values()) <= 1e-15


def test_a_bias_of_agm_alone_is_left_to_the_transfer_identities(monkeypatch):
    # agm scaled by 1 + 1e-13 where its second argument is below 1/2, that
    # is F2 near its singular end.  The route gap's real column calls no
    # AGM and stays roundoff (measured <= 1.1e-16 at these kappa); (56),
    # (57) and (58) each read 1.0e-13 on the verify grid.
    agm = sig3.hypergeom.agm
    monkeypatch.setattr(sig3.hypergeom, "agm", lambda a, b: agm(a, b) * (1.0 + 1e-13) if b < 0.5 else agm(a, b))
    for kappa in (0.999, 0.999999):
        assert period_route_gap(DeltaContext(modulus_from_kappa(kappa)))[0] <= 2e-15, kappa
    assert max(grid_report(0.001, 0.999, 0.001).max_relerr.values()) >= 5e-14


def test_delta_context_accepts_kappa_down_to_underflow():
    # Below ~5.8e-103 e2 - e3 ~ 0.11 kappa^3 is no longer a normal float.
    ctx = DeltaContext(modulus_from_kappa(1e-100))
    assert delta(ctx.omega, ctx) == 1.0
    with pytest.raises(DomainError):
        DeltaContext(modulus_from_kappa(1e-103))
