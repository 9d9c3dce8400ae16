import math
from fractions import Fraction

import importlib

import pytest

import sig3.moduli
import sig3.quadrature
import sig3.weierstrass
from sig3.delta import (
    DeltaContext,
    delta,
    delta_integral,
    delta_phase,
    dn3,
    half_periods_sig3,
)
from sig3.errors import DomainError, NonConvergence, PoleError
from sig3.hypergeom import f_half
from sig3.moduli import modulus_from_kappa, params_from_p, trimidiation
from sig3.quadrature import GAUSS_NODES, GAUSS_WEIGHTS, integrate
from sig3.weierstrass import WP_MAX_MODULUS, wp, _inv_sn, _jacobi_half_periods, _lattice
from oracles import ONE, THIRD, TWO_THIRDS, hyp2f1_exact, rel_err

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
        rhs = math.sqrt(3.0) * half_periods_sig3(mod.complement).omega
        assert rel_err(lhs, rhs) < 1e-14


def test_half_periods_at_transfer_modulus():
    # kappa^2 = beta(1/2) = 243/343; oracle is the exact series.
    periods = half_periods_sig3(modulus_from_kappa(math.sqrt(243.0 / 343.0)))
    oracle = 0.5 * math.pi * float(hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(243, 343)))
    assert rel_err(periods.omega, oracle) < 1e-12


def _jacobi_route(p):
    """Half periods through the classical basis at transfer parameter p:
    r omega = (pi/2) F(1/2, 1/2; 1; alpha), r omega' = i (pi/2) F(1/2, 1/2;
    1; 1 - alpha), r = sqrt(e1 - e3), as ``transfer.period_route_gap`` takes
    them."""
    params = params_from_p(p)
    return _jacobi_half_periods(params.alpha, params.alpha_comp, math.sqrt(params.r2))


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
    # A node takes its own panel from its parent: 3 panels when the root is
    # accepted, 2 more per split.  The 15-point rule is exact for t^2; it
    # misses the kink of |t| on [-1, 1], which is exact on either half, so
    # that tree splits exactly once (7 panels, where re-evaluating each
    # child's panel made 9).
    calls = []
    panel = sig3.quadrature._panel

    def counted(f, a, b):
        calls.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(sig3.quadrature, "_panel", counted)
    assert abs(integrate(lambda t: t * t, 0.0, 1.0, 1e-12) - 1.0 / 3.0) <= 1e-15
    assert calls == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]
    calls.clear()
    assert abs(integrate(abs, -1.0, 1.0, 1e-12) - 1.0) <= 1e-15
    assert len(calls) == 7 and len(set(calls)) == 7
    assert calls[:3] == [(-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0)]


def test_gauss_legendre_rule_matches_numpy():
    numpy = pytest.importorskip("numpy")
    nodes, weights = numpy.polynomial.legendre.leggauss(15)
    for ours, ref in zip(GAUSS_NODES, nodes):
        # One ulp: the second node is correctly rounded here, numpy's is not.
        assert abs(ours - ref) <= math.ulp(ref)
    for ours, ref in zip(GAUSS_WEIGHTS, weights):
        assert rel_err(ours, ref) <= 1e-14


# ------------------------------------------------------- delta ----


def test_delta_initial_condition_is_exact(ctx06):
    assert delta(0.0, ctx06) == 1.0


def test_delta_phase_is_the_inverse(ctx06, omega06):
    assert delta_phase(0.0, ctx06) == 0.0
    assert abs(delta_phase(omega06, ctx06) - 0.5 * math.pi) < 1e-10
    # global structure: adding a period advances the phase by pi
    t = delta_phase(0.4, ctx06)
    assert abs(delta_phase(0.4 + 2.0 * omega06, ctx06) - (t + math.pi)) < 1e-9


def test_delta_phase_monotone(ctx06, omega06):
    grid = [-0.5, 0.0, 0.3, 0.9, omega06, 2.1, 2.0 * omega06 + 0.2]
    values = [delta_phase(u, ctx06) for u in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


# Measured worst 2.30e-14, 2.50e-14 and 1.83e-13 from kappa = 0.9999 up.
# At 0.9999 that is delta's own final subtraction 1 - a/(b + v^2) (ROADMAP
# item 1): against 30-digit values the reference reads 2.3e-15 and delta
# 2.3e-14.  At 0.999999 one ulp of T moves delta by ~8e-14 near u = omega,
# and both routes read ~1e-13.  Every other kappa is held to 1e-14.
_INVERSION_ROUTE_BOUNDS = {0.9999: 2.4e-14, 0.99999: 2.6e-14, 0.999999: 1.9e-13}


@pytest.mark.parametrize("kappa", [0.05, 0.3, 0.6, 0.9, 0.99, 0.995, 0.999, 0.9999, 0.99999, 0.999999])
def test_delta_matches_the_integral_inversion_route(kappa):
    # Production (Jacobi bridge) against reference (inverting the arc
    # integral, delta in its arc form) over a full period; i = 8 is
    # u = omega.
    ctx = DeltaContext(modulus_from_kappa(kappa))
    bound = _INVERSION_ROUTE_BOUNDS.get(kappa, 1e-14)
    for i in range(17):
        u = 2.0 * ctx.omega * i / 16
        reference = delta_module._reference_delta(delta_phase(u, ctx), ctx)[0]
        assert rel_err(delta(u, ctx), reference) <= bound, u


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
            v = _inv_sn(u * ctx.bridge_scale, ctx.cell.rungs)
            assert delta(u, ctx) == 1.0 - ctx.bridge_a / (ctx.bridge_b + v * v), (kappa, u)
            if abs(u) < ctx.omega:
                assert dn3(u, ctx.modulus) == delta(u, ctx), (kappa, u)


def test_delta_rejects_non_finite(ctx06):
    with pytest.raises(DomainError):
        delta(math.inf, ctx06)
    for u in (math.inf, math.nan):
        with pytest.raises(DomainError):
            delta_phase(u, ctx06)


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


def test_dn3_builds_no_invariants_and_calls_no_wp(monkeypatch):
    def refuse(*args):
        raise AssertionError("dn3 must not take this route")

    monkeypatch.setattr(sig3.moduli, "invariants", refuse)
    monkeypatch.setattr(sig3.weierstrass, "_lattice", refuse)
    monkeypatch.setattr(sig3.weierstrass, "wp_and_derivative", refuse)
    delta_module._context.cache_clear()
    mod = modulus_from_kappa(0.6)
    for z in (0.3, 0.2 + 0.4j, -5.1 + 33.0j):
        dn3(z, mod)


def test_dn3_builds_one_context_per_modulus():
    delta_module._context.cache_clear()
    for kappa in (0.3, 0.7):
        for z in (0.3, 0.2 + 0.4j, -5.1 + 33.0j):
            dn3(z, modulus_from_kappa(kappa))
    info = delta_module._context.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


def test_delta_context_repr_names_its_modulus(ctx06):
    assert repr(ctx06) == f"DeltaContext({modulus_from_kappa(0.6)!r})"


def test_delta_context_is_read_only(ctx06):
    # dn3 shares one context per modulus.
    with pytest.raises(AttributeError):
        ctx06.omega = 1.0
    with pytest.raises(AttributeError):
        del ctx06.bridge_a
    assert not hasattr(ctx06, "__dict__")


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
    of kappa: the roots of 4t^3 - g2 t - g3 for the exact g2, g3 of the
    binary value of kappa, the Jacobi bridge for wp, and
    wp'^2 = 4 wp^3 - g2 wp - g3."""
    t = mpmath.mpf(kappa) ** 2
    g2 = mpmath.mpf(4) / 27 * (9 - 8 * t)
    g3 = mpmath.mpf(8) / 729 * (27 - 36 * t + 8 * t * t)
    roots = mpmath.polyroots([4, 0, -g2, -g3], maxsteps=200, extraprec=200)
    e1, e2, e3 = sorted((mpmath.re(root) for root in roots), reverse=True)
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


def _float_midpoints(inv):
    """The float e1, e2, e3 that ``wp`` holds for ``inv``: the trigonometric
    cubic solve of ``weierstrass._lattice``, repeated here and tied to it
    bitwise through the e3 and e1 - e3 it returns."""
    m = math.sqrt(inv.g2 / 3.0)
    phi = math.acos(min(1.0, max(-1.0, inv.g3 / (m * m * m)))) / 3.0
    third = 2.0 * math.pi / 3.0
    e1, e2, e3 = (m * math.cos(phi - j * third) for j in range(3))
    assert _lattice(*inv)[:2] == (e3, e1 - e3)
    return e1, e2, e3


def _mpmath_wp_on_float_midpoints(inv, mpmath):
    """wp and wp' in 40 digits on the lattice of the float midpoints that
    ``wp`` itself holds, so that only the descent is measured: the cubic
    solve of the midpoints is exact here."""
    e1, e2, e3 = (mpmath.mpf(e) for e in _float_midpoints(inv))
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
    # <= 8.9e-16 for wp and <= 3.2e-15 for dn3 over these points, apart
    # from dn3 at those corners: 2.4e-14, or 5.1e-16 of its condition.  At
    # kappa = 1e-5 the float invariants have no positive discriminant, and
    # at 1e-3 their e2 - e3 rounds below 1e-14 of the spread: wp refuses
    # both with DomainError (ROADMAP item 1), while dn3 serves them.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    mod = modulus_from_kappa(kappa)
    periods = half_periods_sig3(mod)
    reference = _mpmath_dn3(kappa, mpmath)
    for z in _cell_edges_and_pole(periods.omega, periods.omega_prime.imag):
        ref_value, ref_deriv = reference(z)
        condition = max(1.0, float(abs(z) * ref_deriv / abs(ref_value)),
                        float(abs(1 - ref_value) / abs(ref_value)))
        err = float(abs(dn3(z, mod) - ref_value) / abs(ref_value))
        assert err <= 1e-14 * condition, (z, err, condition)
    inv = sig3.moduli.invariants(mod)
    if kappa <= 1e-3:
        with pytest.raises(DomainError):
            wp(0.3, inv)
        return
    cell = _lattice(*inv)[2]
    reference = _mpmath_wp_on_float_midpoints(inv, mpmath)
    for z in _cell_edges_and_pole(cell.period_re / 2, cell.period_im / 2):
        ref_value, ref_deriv = reference(z)
        condition = max(1.0, float(abs(mpmath.mpc(z) * ref_deriv / ref_value)))
        err = float(abs(wp(z, inv) - ref_value) / abs(ref_value))
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


def test_delta_context_accepts_kappa_down_to_underflow():
    # Below ~5.8e-103 e2 - e3 ~ 0.11 kappa^3 is no longer a normal float.
    ctx = DeltaContext(modulus_from_kappa(1e-100))
    assert delta(ctx.omega, ctx) == 1.0
    with pytest.raises(DomainError):
        DeltaContext(modulus_from_kappa(1e-103))


# ------------------------------------- trimidiated lattice checks ----


def test_trimidiated_lattice_periodicity():
    mod = modulus_from_kappa(0.7)
    inv_h = trimidiation(mod)
    period_h = _lattice(*inv_h)[2].period_re
    z = 0.31 + 0.17j
    a = wp(z, inv_h)
    b = wp(z + period_h, inv_h)
    assert abs(a - b) <= 1e-9 * abs(a)


def test_trimidiation_divides_the_imaginary_period_by_three():
    for kappa in (0.4, 0.7):
        mod = modulus_from_kappa(kappa)
        periods = half_periods_sig3(mod)
        cell_h = _lattice(*trimidiation(mod))[2]
        assert rel_err(cell_h.period_im / 2, periods.omega_prime.imag / 3.0) < 1e-9
        assert rel_err(cell_h.period_re / 2, periods.omega) < 1e-9
