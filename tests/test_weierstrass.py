import math
import random
from decimal import Decimal, getcontext

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sig3.weierstrass
from sig3.delta import DeltaContext, dn3
from sig3.errors import DomainError, NonConvergence, PoleError
from sig3.moduli import invariants, midpoint_gaps, modulus_from_kappa
from sig3.weierstrass import (
    HalfPeriodPair,
    WeierstrassInvariants,
    sn,
    wp,
    wp_and_derivative,
    _jacobi_half_periods,
    _lattice,
)
from oracles import agm_decimal, hyp2f1_series, jacobi_sn_ode, rel_err, wp_duplication

# sn(0.5, 0.3) frozen from the RK4 integration of the Jacobi system.
SN_HALF_03 = 0.4778610525427159
# (pi/2) F(1/2,1/2;1;x) at x = 5/32 and 27/32, frozen from the exact series.
K_AT_5_32 = 1.638213834366379
KPRIME_AT_5_32 = 2.3701853442961056


def _periods(inv):
    """omega and omega' of the lattice that ``wp`` holds for ``inv``."""
    cell = _lattice(*inv)[2]
    return HalfPeriodPair(cell.period_re / 2, 1j * (cell.period_im / 2))


@pytest.fixture(scope="module")
def config06():
    # e1 > e2 > e3 summed from the closed-form gaps, each gap added once.
    mod = modulus_from_kappa(0.6)
    low, high, shift = midpoint_gaps(mod)
    e3 = shift - 1.0 / 3.0
    inv = invariants(mod)
    return mod, inv, (e3 + low + high, e3 + low, e3), _periods(inv)


# ---------------------------------------------------------------- wp ----


def test_wp_principal_part():
    inv = WeierstrassInvariants(0.9066666666666666, 0.16545185185185185)
    for z in (1e-3, 1e-4):
        assert abs(z * z * wp(z, inv) - 1.0) < 1e-11


def test_wp_is_even(config06):
    _, inv, _, periods = config06
    rng = random.Random(20_240_601)
    for _ in range(20):
        z = complex(
            rng.uniform(0.05, 1.9) * periods.omega,
            rng.uniform(0.05, 0.9) * periods.omega_prime.imag,
        )
        a = wp(z, inv)
        b = wp(-z, inv)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_wp_satisfies_its_differential_equation(config06):
    _, inv, _, periods = config06
    rng = random.Random(77)
    samples = [
        complex(rng.uniform(0.1, 1.8) * periods.omega, rng.uniform(0.05, 0.85) * periods.omega_prime.imag)
        for _ in range(10)
    ]
    for z in samples:
        p, dp = wp_and_derivative(z, inv)
        residual = abs(dp * dp - (4.0 * p ** 3 - inv.g2 * p - inv.g3))
        assert residual <= 1e-9 * abs(4.0 * p ** 3)


def test_wp_reproduces_midpoint_values(config06):
    _, inv, (e1, e2, e3), periods = config06
    om, omp = periods.omega, periods.omega_prime
    assert rel_err(wp(om, inv).real, e1) < 1e-10
    assert rel_err(wp(om + omp, inv).real, e2) < 1e-10
    assert rel_err(wp(omp, inv).real, e3) < 1e-10


def test_wp_pole_guard(config06):
    _, inv, _, _ = config06
    with pytest.raises(PoleError):
        wp(0.0, inv)
    with pytest.raises(PoleError):
        wp(1e-9 + 0j, inv)


def test_wp_derivative_against_finite_differences(config06):
    _, inv, _, _ = config06
    h = 1e-6
    for z in (0.4 + 0.0j, 0.5 + 0.3j):
        _, dp = wp_and_derivative(z, inv)
        fd = (wp(z + h, inv) - wp(z - h, inv)) / (2.0 * h)
        assert abs(dp - fd) <= 1e-8 * abs(dp)


# ---------------------------------------------------------------- sn ----


def test_sn_at_zero_and_quarter_period():
    assert sn(0.0, 0.3) == 0.0
    for k in (0.2, 0.5, 0.9):
        K = _quarter_periods(k)[0]
        assert abs(sn(K, k) - 1.0) < 1e-12


def test_sn_frozen_value_against_ode_oracle():
    value = sn(0.5, 0.3)
    assert abs(value - SN_HALF_03) < 5e-14
    assert abs(value - jacobi_sn_ode(0.5, 0.3)) < 5e-13


def test_sn_periodicity_and_sign_reversal():
    k = 0.45
    K = _quarter_periods(k)[0]
    for u in (0.3, 1.1, 2.6):
        assert abs(sn(u + 4.0 * K, k) - sn(u, k)) < 1e-9
        assert abs(sn(u + 2.0 * K, k) + sn(u, k)) < 1e-9


def test_sn_differential_relation_by_finite_differences():
    k = 0.7
    m = k * k
    h = 1e-5
    for u in (0.2, 0.8, 1.7):
        s = sn(u, k)
        ds = (sn(u + h, k) - sn(u - h, k)) / (2.0 * h)
        residual = abs(ds * ds - (1.0 - s * s) * (1.0 - m * s * s))
        assert residual <= 1e-9


@given(
    u=st.floats(min_value=-50.0, max_value=50.0),
    k=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_sn_is_bounded(u, k):
    assert abs(sn(u, k)) <= 1.0 + 1e-14


def test_sn_rejects_bad_modulus():
    for k in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            sn(0.5, k)


@pytest.mark.parametrize("k", [1e-6, 1e-3, 0.3, 0.6, 0.9, 0.99, 0.999999, 1.0 - 1e-12])
def test_sn_against_40_digit_values_over_a_period(k):
    # Relative to max(1, |u sn'/sn|): next to a zero of sn, rounding u
    # alone costs that many ulps.  Measured <= 4.2e-16.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    m = mpmath.mpf(k) ** 2
    period = float(4 * mpmath.ellipk(m))
    for i in range(199):
        u = period * (i + 0.5) / 199
        ref = mpmath.ellipfun("sn", mpmath.mpf(u), m=m)
        slope = u * mpmath.sqrt(abs((1 - ref * ref) * (1 - m * ref * ref)))  # |u cn dn|
        assert abs(sn(u, k) - ref) <= 1e-15 * max(abs(ref), slope), u


def test_landen_ladders_of_the_lattice_scan_moduli():
    # The descent stops on its quadratic rate, so each ladder has a fixed
    # number of rungs: a change in convergence changes these counts.  One
    # Gauss ladder of k serves the whole centred cell.
    for kappa, rungs in ((0.05, 2), (0.6, 3), (0.95, 4)):
        mod = modulus_from_kappa(kappa)
        inv = invariants(mod)
        for cell in (_lattice(*inv)[2], DeltaContext(mod).cell):
            assert len(cell.rungs) == rungs, kappa


def test_landen_descent_raises_past_its_depth_budget(monkeypatch):
    # Ladders are cached per modulus, so this k must not have been used
    # before; it needs more than one rung.
    monkeypatch.setattr(sig3.weierstrass, "SN_MAX_DEPTH", 1)
    with pytest.raises(NonConvergence, match="exceeded depth 1"):
        sn(0.5, 0.987654321)


def test_sn_rejects_non_finite_arguments():
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            sn(u, 0.5)
    # From WP_MAX_MODULUS (~4.5e7) on, the rounding of u alone leaves few
    # correct digits, as for dn3 and delta.
    for u in (1e15, -1e300, 4.6e7):
        with pytest.raises(DomainError, match="too large"):
            sn(u, 0.5)


# ---------------------------------------------- quarter periods ----


def _quarter_periods(k):
    """K and K' of the modulus k: the half periods at unit spread, with
    1 - k^2 taken as (1-k)(1+k)."""
    periods = _jacobi_half_periods(k * k, (1.0 - k) * (1.0 + k), 1.0)
    return periods.omega, periods.omega_prime.imag


def test_quarter_periods_small_modulus_limit():
    K = _quarter_periods(1e-8)[0]
    assert abs(K - 0.5 * math.pi) < 1e-14


def test_quarter_periods_self_complementary():
    K, K_prime = _quarter_periods(1.0 / math.sqrt(2.0))
    assert rel_err(K, K_prime) < 1e-14


def test_quarter_periods_frozen_transfer_point():
    K, K_prime = _quarter_periods(math.sqrt(5.0 / 32.0))
    assert rel_err(K, K_AT_5_32) < 1e-13
    assert rel_err(K_prime, KPRIME_AT_5_32) < 1e-13


@pytest.mark.parametrize("k", [0.999999, 1.0 - 1e-9])
def test_quarter_periods_near_unit_modulus_against_agm_oracle(k):
    # K = (pi/2)/agm(1, k') with k' = sqrt((1-k)(1+k)) taken exactly in
    # 50-digit decimal; forming 1 - k^2 in floats would lose ~log10(1/k'^2)
    # digits here.
    getcontext().prec = 50
    kd = Decimal(k)
    k_comp = ((1 - kd) * (1 + kd)).sqrt()
    K_over_half_pi = _quarter_periods(k)[0] / (0.5 * math.pi)
    assert rel_err(K_over_half_pi, float(1 / agm_decimal(Decimal(1), k_comp))) <= 1e-15


@pytest.mark.parametrize("m", [0.0, 1.0, -0.1, 2.0])
def test_quarter_periods_domain(m):
    # K and K' exist exactly when the squared modulus m lies in (0, 1).
    with pytest.raises(DomainError):
        _jacobi_half_periods(m, 1.0 - m, 1.0)


# ------------------------------------------- midpoints / periods ----


def test_half_periods_match_cubic_kernel(config06):
    # omega = (pi/2) F(1/3,2/3;1;kappa^2); the series is the oracle here.
    _, _, _, periods = config06
    oracle = 0.5 * math.pi * hyp2f1_series(1.0 / 3.0, 2.0 / 3.0, 1.0, 0.36)
    assert rel_err(periods.omega, oracle) < 1e-10


def test_half_periods_scaling(config06):
    # (g2, g3) -> (t^4 g2, t^6 g3), that is e_i -> t^2 e_i, sends
    # omega -> omega/t (lattice homogeneity).
    _, inv, _, periods = config06
    t = 4.0
    scaled_periods = _periods(WeierstrassInvariants(t ** 4 * inv.g2, t ** 6 * inv.g3))
    assert rel_err(scaled_periods.omega, periods.omega / t) < 1e-14
    assert rel_err(scaled_periods.omega_prime.imag, periods.omega_prime.imag / t) < 1e-14


def test_half_periods_degenerate_spread():
    # At kappa = 1e-3 the cubic solve of the float invariants leaves e2 - e3
    # below 1e-14 of the spread: no lattice survives.
    inv = invariants(modulus_from_kappa(1e-3))
    with pytest.raises(DomainError, match="too small for a period lattice"):
        _lattice(*inv)
    # A float discriminant just above 0 whose rounded roots give e1 == e2.
    with pytest.raises(DomainError, match="too small for a period lattice"):
        _lattice(2.9999999999999996, -0.9999999999999997)


def _lattice_period_gap(g2, g3):
    """|omega scale/(pi/2) - 1| on the lattice ``wp`` holds for (g2, g3):
    omega from the AGM against the cell's Gauss ladder, whose scale is
    sqrt(e1 - e3)/prod(1 + k_n) = r (pi/2)/K."""
    cell = _lattice(g2, g3)[2]
    return abs(0.5 * cell.period_re * cell.scale / (0.5 * math.pi) - 1.0)


def test_the_ladder_certifies_the_lattice_period():
    # 802 kappa from 0.05 to 1 - 1e-10 through the float invariants.  The
    # half periods and the ladder read k^2 and k'^2 from the same floats:
    # measured worst 1.1e-15.  Periods that took k'^2 as (1 - k)(1 + k)
    # while the ladder read it off the midpoints would miss by up to 3.2e-13.
    n = 400
    kappas = [0.05 + 0.45 * i / n for i in range(n)]
    kappas += [1.0 - 0.5 * 10.0 ** (-9.7 * i / n) for i in range(n + 2)]
    assert kappas[-1] >= 1.0 - 1e-10
    for kappa in kappas:
        assert _lattice_period_gap(*invariants(modulus_from_kappa(kappa))) <= 2e-15, kappa


def test_the_ladder_certifies_random_lattice_periods():
    # 3,000 seeded lattices from roots e1 > e2 > e3 summing to 0, the spread
    # e1 - e3 log-uniform in [1e-3, 1e3] and (e2 - e3)/(e1 - e3) in
    # [1e-12, 1].  Below 1e-7 the rounded (g2, g3) may leave a discriminant
    # <= 0 or e2 - e3 within 1e-14 of the spread, which _lattice refuses.
    # Measured: 670 refused, worst on the 2,330 others 6.7e-16 (1.6e-14
    # if the periods alone took k'^2 as (1 - k)(1 + k)).
    rng = random.Random(35)
    certified = 0
    for _ in range(3000):
        spread = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        ratio = math.exp(rng.uniform(math.log(1e-12), 0.0))
        e3 = -spread * (1.0 + ratio) / 3.0
        e1, e2 = e3 + spread, e3 + ratio * spread
        g2, g3 = 2.0 * (e1 * e1 + e2 * e2 + e3 * e3), 4.0 * e1 * e2 * e3
        try:
            gap = _lattice_period_gap(g2, g3)
        except DomainError:
            assert ratio < 1e-7, (spread, ratio)
            continue
        assert gap <= 2e-15, (spread, ratio)
        certified += 1
    assert certified >= 2000


def test_midpoints_from_invariants_round_trip(config06):
    # The cubic solve of the lattice recovers e3 and e1 - e3 of the gaps.
    _, inv, (e1, _, e3), _ = config06
    e3_solved, spread, _ = _lattice(*inv)
    assert abs(e3_solved - e3) < 1e-13
    assert abs(spread - (e1 - e3)) < 1e-13


def test_invariants_must_be_finite():
    for g2, g3 in ((math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError):
            WeierstrassInvariants(g2, g3)


def test_midpoints_from_invariants_rejects_negative_discriminant():
    with pytest.raises(DomainError, match="do not give three real midpoints"):
        _lattice(1.0, 1.0)


# ------------------------------------------------------- bridge ----


def test_wp_at_real_half_period(config06):
    _, inv, (e1, _, _), periods = config06
    assert rel_err(wp(periods.omega, inv).real, e1) < 1e-12


def test_wp_agrees_with_the_duplication_reference(config06):
    # The Laurent-plus-duplication route shares nothing with the Jacobi
    # bridge but the invariants; in the centred cell it holds ~1e-12.
    _, inv, _, periods = config06
    om, omp = periods.omega, periods.omega_prime.imag
    for frac in (0.2, 0.5, 0.9, 1.3, 1.8):
        z = frac * om
        assert rel_err(wp(z, inv).real, wp_duplication(z, inv.g2, inv.g3)[0].real) < 1e-11
    for a in (-0.9, -0.4, 0.3, 0.8):
        for b in (-0.95, -0.3, 0.1, 0.6, 1.0):
            z = complex(a * om, b * omp)
            value, deriv = wp_and_derivative(z, inv)
            ref_value, ref_deriv = wp_duplication(z, inv.g2, inv.g3)
            assert abs(value - ref_value) <= 1e-11 * abs(ref_value)
            assert abs(deriv - ref_deriv) <= 1e-10 * abs(ref_deriv)


def test_wp_blows_up_at_the_origin(config06):
    _, inv, _, _ = config06
    values = [wp(z, inv).real for z in (0.2, 0.1, 0.05, 0.02)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_wp_pole_at_full_period(config06):
    _, inv, _, periods = config06
    with pytest.raises(PoleError):
        wp(2.0 * periods.omega, inv)


# ------------------------------------------------- far cells ----


@pytest.mark.parametrize("kappa", [0.6, 0.9, 0.99])
@given(
    a=st.floats(min_value=-1.0, max_value=1.0),
    b=st.floats(min_value=-1.0, max_value=1.0),
    m=st.integers(min_value=-1000, max_value=1000),
    n=st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_wp_is_periodic_out_to_a_thousand_cells(kappa, a, b, m, n):
    # Scaled by max(1, |wp|): next to a zero of wp, rounding the shifted
    # argument alone moves wp by |wp'| ulp(z), a few 1e-13 this far out.
    inv = invariants(modulus_from_kappa(kappa))
    periods = _periods(inv)
    z = complex(a * periods.omega, b * periods.omega_prime.imag)
    assume(abs(z) >= 0.05 * periods.omega)
    near = wp(z, inv)
    far = wp(z + 2 * m * periods.omega + 2 * n * periods.omega_prime, inv)
    assert abs(far - near) <= 1e-9 * max(1.0, abs(near))


def test_wp_pole_guard_at_a_far_lattice_point(config06):
    _, inv, _, periods = config06
    lattice_point = 2 * 700 * periods.omega - 2 * 300 * periods.omega_prime
    with pytest.raises(PoleError):
        wp(lattice_point + 5e-9, inv)
    assert abs(wp(lattice_point + 0.3, inv) - wp(0.3, inv)) <= 1e-9 * abs(wp(0.3, inv))


@pytest.mark.parametrize("z", [math.nan, complex(0.3, math.nan), math.inf, complex(0.1, -math.inf),
                               1e300, complex(0.2, 1e300), 1e8])
def test_wp_rejects_unreducible_arguments(config06, z):
    _, inv, _, _ = config06
    for evaluate in (wp, wp_and_derivative):
        with pytest.raises(DomainError):
            evaluate(z, inv)


def test_wp_serves_lattices_with_small_periods():
    # (1e36, 0): real period 3.7e-9 and ladder scale 8.5e8, so every z is
    # within 1e-8 of a lattice point; the radius is read as |z - P| scale.
    inv = WeierstrassInvariants(1e36, 0.0)
    periods = _periods(inv)
    assert 2.0 * periods.omega < 1e-8 and _lattice(*inv)[2].scale > 1e8
    z = 0.3 * 2.0 * periods.omega + 0.2 * 2.0 * periods.omega_prime
    assert math.isfinite(abs(wp(z, inv)))
    with pytest.raises(PoleError):
        wp(1e-9 * 2.0 * periods.omega, inv)


@pytest.mark.parametrize("mu", [2.0 ** -40, 2.0 ** -10, 2.0 ** 10])
def test_wp_is_homogeneous_bitwise(mu):
    # wp(z; g2, g3) = mu^2 wp(mu z; g2/mu^4, g3/mu^6): every step of the
    # cubic solve, the periods, the ladder and the reduction scales by a
    # power of two exactly.  At mu = 2^-40 the periods are ~1e-12.
    inv = WeierstrassInvariants(1.2, 0.2)
    scaled = WeierstrassInvariants(inv.g2 / mu ** 4, inv.g3 / mu ** 6)
    periods = _periods(inv)
    for a, b in ((0.3, 0.2), (0.45, -0.1), (-0.2, 0.4)):
        z = a * 2.0 * periods.omega + b * 2.0 * periods.omega_prime
        assert mu * mu * wp(mu * z, scaled) == wp(z, inv), (mu, z)


def test_every_lattice_of_a_modulus_keeps_the_absolute_radii():
    # Periods 2 omega >= pi put the scale at or below 1, where the radii of
    # _centred are those of z itself: wp and dn3 refuse within 1e-8 in z.
    for kappa in (1e-100, 1e-6, 0.05, 0.6, 0.95, 0.999999, 1.0 - 2.0 ** -53):
        mod = modulus_from_kappa(kappa)
        assert DeltaContext(mod).cell.scale <= 1.0, kappa
        if 0.05 <= kappa <= 0.999999:
            assert _lattice(*invariants(mod))[2].scale <= 1.0, kappa
    mod = modulus_from_kappa(0.999999)
    inv = invariants(mod)
    point = 2.0 * _periods(inv).omega
    with pytest.raises(PoleError):
        wp(point + 0.99e-8, inv)
    assert math.isfinite(abs(wp(point + 1.01e-8, inv)))
    with pytest.raises(PoleError):
        dn3(complex(0.99e-8, 0.0), mod)
    assert math.isfinite(abs(dn3(complex(1.01e-8, 0.0), mod)))


def test_wp_forms_no_derivative_and_equals_its_value_bitwise(monkeypatch):
    # Near and far cells of the lattice_scan moduli.
    rng = random.Random(7)
    cases = []
    for kappa in (0.05, 0.6, 0.95):
        inv = invariants(modulus_from_kappa(kappa))
        periods = _periods(inv)
        for m, n in ((0, 0), (1, -1), (-20, 7), (50, 50)):
            z = complex(2 * periods.omega * (m + rng.random() - 0.5),
                        2 * periods.omega_prime.imag * (n + rng.random() - 0.5))
            cases.append((z, inv, wp_and_derivative(z, inv)[0]))

    def refuse(*args):
        raise AssertionError("wp must not form the derivative")

    monkeypatch.setattr(sig3.weierstrass, "wp_and_derivative", refuse)
    for z, inv, expected in cases:
        assert repr(wp(z, inv)) == repr(expected), z


def test_wp_refuses_non_rectangular_lattices():
    with pytest.raises(DomainError):
        wp(0.3 + 0.1j, WeierstrassInvariants(1.0, 1.0))


@pytest.mark.parametrize("g2, g3", [(1e300, 0.0), (1.0, 1e160), (6e102, 1.0), (1.0, -2e154)])
def test_wp_refuses_invariants_whose_discriminant_overflows(g2, g3):
    # g2^3 or g3^2 overflows a float: a DomainError, not an OverflowError.
    inv = WeierstrassInvariants(g2, g3)
    for f in (wp, wp_and_derivative):
        with pytest.raises(DomainError, match="too large"):
            f(0.5, inv)


# ----------------------------------------- 40-digit reference ----


def _mpmath_bridge(inv, mpmath):
    """wp and wp' as functions of z, from the Jacobi bridge in 40 digits on
    the exact roots of 4t^3 - g2 t - g3 for the float (g2, g3)."""
    g2, g3 = mpmath.mpf(inv.g2), mpmath.mpf(inv.g3)
    roots = mpmath.polyroots([4, 0, -g2, -g3], maxsteps=200, extraprec=200)
    e1, e2, e3 = sorted((mpmath.re(t) for t in roots), reverse=True)
    m = (e2 - e3) / (e1 - e3)
    r = mpmath.sqrt(e1 - e3)

    def wp_and_deriv(z):
        u = mpmath.mpc(z.real, z.imag) * r
        sn, cn, dn = (mpmath.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn"))
        return e3 + (e1 - e3) / sn ** 2, -2 * (e1 - e3) * r * cn * dn / sn ** 3

    return wp_and_deriv


@pytest.mark.parametrize("kappa, bound", [
    (0.05, 1e-12), (0.3, 1e-14), (0.6, 1e-14), (0.9, 1e-14), (0.95, 1e-14), (0.99, 1e-14),
])
def test_wp_against_40_digit_jacobi_values(kappa, bound):
    # At kappa = 0.05 e2 - e3 is 1.4e-5 of e1 - e3, and the trigonometric
    # cubic solve leaves 6.2e-13 in e2 and e3 (wp is within 1.6e-15 of the
    # bridge on those float midpoints).  The bound is relative
    # to the condition number |z wp'/wp| where it exceeds 1: near a zero
    # of wp, rounding z sqrt(e1 - e3) alone costs that many ulps.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    inv = invariants(modulus_from_kappa(kappa))
    periods = _periods(inv)
    reference = _mpmath_bridge(inv, mpmath)
    for a in (-1.0, -0.55, -0.1, 0.35, 0.8):
        for b in (-1.0, -0.7, -0.25, 0.2, 0.65, 0.95):
            z = complex(a * periods.omega, b * periods.omega_prime.imag)
            ref_value, ref_deriv = reference(z)
            condition = float(abs(mpmath.mpc(z) * ref_deriv / ref_value))
            err = float(abs(wp(z, inv) - ref_value) / abs(ref_value))
            assert err <= bound * max(1.0, condition), (z, err, condition)
