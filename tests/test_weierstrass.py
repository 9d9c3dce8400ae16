import math
import random
from decimal import Decimal, getcontext

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sig3.weierstrass
from sig3.delta import dn3
from sig3.errors import DomainError, NonConvergence, PoleError
from sig3.hypergeom import f2_complement
from sig3.moduli import (
    DeltaContext,
    HalfPeriodPair,
    context,
    half_periods_sig3,
    midpoint_gaps,
    modulus_from_kappa,
)
from sig3.weierstrass import sn, wp, wp_and_derivative, _cell
from oracles import (
    agm_decimal,
    exact_midpoints,
    hyp2f1_series,
    jacobi_sn_ode,
    rel_err,
    sig3_invariants,
    wp_duplication,
)

# sn(0.5, 0.3) frozen from the RK4 integration of the Jacobi system.
SN_HALF_03 = 0.4778610525427159
# (pi/2) F(1/2,1/2;1;x) at x = 5/32 and 27/32, frozen from the exact series.
K_AT_5_32 = 1.638213834366379
KPRIME_AT_5_32 = 2.3701853442961056


@pytest.fixture(scope="module")
def config06():
    # e1 > e2 > e3 summed from the closed-form gaps, each gap added once.
    mod = modulus_from_kappa(0.6)
    low, high, shift = midpoint_gaps(mod)
    e3 = shift - 1.0 / 3.0
    return mod, context(mod), (e3 + low + high, e3 + low, e3), half_periods_sig3(mod)


# ---------------------------------------------------------------- wp ----


def test_wp_principal_part(config06):
    _, ctx, _, _ = config06
    for z in (1e-3, 1e-4):
        assert abs(z * z * wp(z, ctx) - 1.0) < 1e-11


def test_wp_is_even(config06):
    _, ctx, _, periods = config06
    rng = random.Random(20_240_601)
    for _ in range(20):
        z = complex(
            rng.uniform(0.05, 1.9) * periods.omega,
            rng.uniform(0.05, 0.9) * periods.omega_prime.imag,
        )
        a = wp(z, ctx)
        b = wp(-z, ctx)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_wp_satisfies_its_differential_equation(config06):
    # wp'^2 = 4 wp^3 - g2 wp - g3 with the paper's (g2, g3) of kappa.
    mod, ctx, _, periods = config06
    g2, g3 = sig3_invariants(mod.kappa)
    rng = random.Random(77)
    samples = [
        complex(rng.uniform(0.1, 1.8) * periods.omega, rng.uniform(0.05, 0.85) * periods.omega_prime.imag)
        for _ in range(10)
    ]
    for z in samples:
        p, dp = wp_and_derivative(z, ctx)
        residual = abs(dp * dp - (4.0 * p ** 3 - g2 * p - g3))
        assert residual <= 1e-9 * abs(4.0 * p ** 3)


def test_wp_reproduces_midpoint_values(config06):
    _, ctx, (e1, e2, e3), periods = config06
    om, omp = periods.omega, periods.omega_prime
    assert rel_err(wp(om, ctx).real, e1) < 1e-10
    assert rel_err(wp(om + omp, ctx).real, e2) < 1e-10
    assert rel_err(wp(omp, ctx).real, e3) < 1e-10


def test_wp_pole_guard(config06):
    _, ctx, _, _ = config06
    with pytest.raises(PoleError):
        wp(0.0, ctx)
    with pytest.raises(PoleError):
        wp(1e-9 + 0j, ctx)


def test_wp_derivative_against_finite_differences(config06):
    _, ctx, _, _ = config06
    h = 1e-6
    for z in (0.4 + 0.0j, 0.5 + 0.3j):
        _, dp = wp_and_derivative(z, ctx)
        fd = (wp(z + h, ctx) - wp(z - h, ctx)) / (2.0 * h)
        assert abs(dp - fd) <= 1e-8 * abs(dp)


# ---------------------------------------------------------------- sn ----


def test_sn_at_zero_and_quarter_period():
    assert sn(0.0, 0.3) == 0.0
    for k in (0.2, 0.5, 0.9):
        K = _quarter_periods_of(k)[0]
        assert abs(sn(K, k) - 1.0) < 1e-12


def test_sn_frozen_value_against_ode_oracle():
    value = sn(0.5, 0.3)
    assert abs(value - SN_HALF_03) < 5e-14
    assert abs(value - jacobi_sn_ode(0.5, 0.3)) < 5e-13


def test_sn_periodicity_and_sign_reversal():
    k = 0.45
    K = _quarter_periods_of(k)[0]
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
        assert len(DeltaContext(modulus_from_kappa(kappa)).cell.rungs) == rungs, kappa


def test_landen_descent_raises_past_its_depth_budget(monkeypatch):
    # sn builds its ladder per call; this k needs more than one rung.
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


def _quarter_periods(m, m_comp):
    """K and K' of k^2 = m, k'^2 = m_comp: (pi/2) F(1/2, 1/2; 1; .) at each,
    from ``f2_complement`` of the other."""
    return 0.5 * math.pi * f2_complement(m_comp), 0.5 * math.pi * f2_complement(m)


def _quarter_periods_of(k):
    """K and K' of the modulus k, with 1 - k^2 taken as (1-k)(1+k)."""
    return _quarter_periods(k * k, (1.0 - k) * (1.0 + k))


def test_quarter_periods_small_modulus_limit():
    K = _quarter_periods_of(1e-8)[0]
    assert abs(K - 0.5 * math.pi) < 1e-14


def test_quarter_periods_self_complementary():
    K, K_prime = _quarter_periods_of(1.0 / math.sqrt(2.0))
    assert rel_err(K, K_prime) < 1e-14


def test_quarter_periods_frozen_transfer_point():
    K, K_prime = _quarter_periods_of(math.sqrt(5.0 / 32.0))
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
    K_over_half_pi = _quarter_periods_of(k)[0] / (0.5 * math.pi)
    assert rel_err(K_over_half_pi, float(1 / agm_decimal(Decimal(1), k_comp))) <= 1e-15


@pytest.mark.parametrize("m", [0.0, 1.0, -0.1, 2.0])
def test_quarter_periods_domain(m):
    # K and K' exist exactly when the squared modulus m lies in (0, 1).
    with pytest.raises(DomainError):
        _quarter_periods(m, 1.0 - m)


# ------------------------------------------- midpoints / periods ----


def test_half_periods_match_cubic_kernel(config06):
    # omega = (pi/2) F(1/3,2/3;1;kappa^2); the series is the oracle here.
    _, _, _, periods = config06
    oracle = 0.5 * math.pi * hyp2f1_series(1.0 / 3.0, 2.0 / 3.0, 1.0, 0.36)
    assert rel_err(periods.omega, oracle) < 1e-10


def _lattice_period_gap(m, m_comp, r):
    """|omega scale/(pi/2) - 1| on the lattice with k^2 = m, k'^2 = m_comp
    and r = sqrt(e1 - e3): omega = K/r from the AGM against the Gauss
    ladder of ``_cell``, whose scale is r/prod(1 + k_n) = r (pi/2)/K."""
    K, K_prime = _quarter_periods(m, m_comp)
    cell = _cell(HalfPeriodPair(K / r, 1j * K_prime / r), r, m, m_comp)
    return abs(0.5 * cell.period_re * cell.scale / (0.5 * math.pi) - 1.0)


def test_the_ladder_certifies_the_lattice_period():
    # 802 kappa from 0.05 to 1 - 1e-10, at the k^2, k'^2 and r of kappa's
    # closed-form gaps: the half periods and the ladder read the same
    # floats.  Periods that took k'^2 as (1 - k)(1 + k) while the ladder
    # read it off the gaps would miss by more near kappa = 1.
    n = 400
    kappas = [0.05 + 0.45 * i / n for i in range(n)]
    kappas += [1.0 - 0.5 * 10.0 ** (-9.7 * i / n) for i in range(n + 2)]
    assert kappas[-1] >= 1.0 - 1e-10
    for kappa in kappas:
        low, high, _ = midpoint_gaps(modulus_from_kappa(kappa))
        spread = low + high
        assert _lattice_period_gap(low / spread, high / spread, math.sqrt(spread)) <= 2e-15, kappa


def test_the_ladder_certifies_random_lattice_periods():
    # 3,000 seeded lattices from midpoints e1 > e2 > e3 summing to 0, the
    # spread e1 - e3 log-uniform in [1e-3, 1e3] and (e2 - e3)/(e1 - e3) in
    # [1e-12, 1]; k^2 and k'^2 are read off the float midpoints.
    rng = random.Random(35)
    for _ in range(3000):
        spread = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        ratio = math.exp(rng.uniform(math.log(1e-12), 0.0))
        e3 = -spread * (1.0 + ratio) / 3.0
        e1, e2 = e3 + spread, e3 + ratio * spread
        gap = _lattice_period_gap((e2 - e3) / (e1 - e3), (e1 - e2) / (e1 - e3), math.sqrt(e1 - e3))
        assert gap <= 2e-15, (spread, ratio)


# ------------------------------------------------------- bridge ----


def test_wp_at_real_half_period(config06):
    _, ctx, (e1, _, _), periods = config06
    assert rel_err(wp(periods.omega, ctx).real, e1) < 1e-12


def test_wp_agrees_with_the_duplication_reference(config06):
    # The Laurent-plus-duplication route shares nothing with the Jacobi
    # bridge but the invariants; in the centred cell it holds ~1e-12.
    mod, ctx, _, periods = config06
    g2, g3 = sig3_invariants(mod.kappa)
    om, omp = periods.omega, periods.omega_prime.imag
    for frac in (0.2, 0.5, 0.9, 1.3, 1.8):
        z = frac * om
        assert rel_err(wp(z, ctx).real, wp_duplication(z, g2, g3)[0].real) < 1e-11
    for a in (-0.9, -0.4, 0.3, 0.8):
        for b in (-0.95, -0.3, 0.1, 0.6, 1.0):
            z = complex(a * om, b * omp)
            value, deriv = wp_and_derivative(z, ctx)
            ref_value, ref_deriv = wp_duplication(z, g2, g3)
            assert abs(value - ref_value) <= 1e-11 * abs(ref_value)
            assert abs(deriv - ref_deriv) <= 1e-10 * abs(ref_deriv)


def test_wp_blows_up_at_the_origin(config06):
    _, ctx, _, _ = config06
    values = [wp(z, ctx).real for z in (0.2, 0.1, 0.05, 0.02)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_wp_pole_at_full_period(config06):
    _, ctx, _, periods = config06
    with pytest.raises(PoleError):
        wp(2.0 * periods.omega, ctx)


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
    mod = modulus_from_kappa(kappa)
    ctx, periods = context(mod), half_periods_sig3(mod)
    z = complex(a * periods.omega, b * periods.omega_prime.imag)
    assume(abs(z) >= 0.05 * periods.omega)
    near = wp(z, ctx)
    far = wp(z + 2 * m * periods.omega + 2 * n * periods.omega_prime, ctx)
    assert abs(far - near) <= 1e-9 * max(1.0, abs(near))


def test_wp_pole_guard_at_a_far_lattice_point(config06):
    _, ctx, _, periods = config06
    lattice_point = 2 * 700 * periods.omega - 2 * 300 * periods.omega_prime
    with pytest.raises(PoleError):
        wp(lattice_point + 5e-9, ctx)
    assert abs(wp(lattice_point + 0.3, ctx) - wp(0.3, ctx)) <= 1e-9 * abs(wp(0.3, ctx))


@pytest.mark.parametrize("z", [math.nan, complex(0.3, math.nan), math.inf, complex(0.1, -math.inf),
                               1e300, complex(0.2, 1e300), 1e8])
def test_wp_rejects_unreducible_arguments(config06, z):
    _, ctx, _, _ = config06
    for evaluate in (wp, wp_and_derivative):
        with pytest.raises(DomainError):
            evaluate(z, ctx)


def test_every_lattice_of_a_modulus_keeps_the_absolute_radii():
    # Periods 2 omega >= pi put the ladder's scale at or below 1, so the
    # radii of _centred are those of z itself: on 1,002 seeded kappa,
    # log-spaced toward both ends of (5.8e-103, 1) plus 1e-100 and
    # 1 - 2^-53, the scale reaches 1.0 (at 1e-100, where e1 - e3 rounds to
    # 1) and never exceeds it.  wp and dn3 refuse within 1e-8 in z.
    rng = random.Random(45)
    near0, near1, half = math.log(5.8e-103), math.log(2.0 ** -53), math.log(0.5)
    kappas = ([1e-100, 1.0 - 2.0 ** -53] + [math.exp(rng.uniform(near0, half)) for _ in range(500)]
              + [1.0 - math.exp(rng.uniform(near1, half)) for _ in range(500)])
    for kappa in kappas:
        assert DeltaContext(modulus_from_kappa(kappa)).cell.scale <= 1.0, kappa
    mod = modulus_from_kappa(0.999999)
    ctx = context(mod)
    point = 2.0 * ctx.omega
    with pytest.raises(PoleError):
        wp(point + 0.99e-8, ctx)
    assert math.isfinite(abs(wp(point + 1.01e-8, ctx)))
    with pytest.raises(PoleError):
        dn3(complex(0.99e-8, 0.0), mod)
    assert math.isfinite(abs(dn3(complex(1.01e-8, 0.0), mod)))


def test_wp_forms_no_derivative_and_equals_its_value_bitwise(monkeypatch):
    # Near and far cells of the lattice_scan moduli.
    rng = random.Random(7)
    cases = []
    for kappa in (0.05, 0.6, 0.95):
        mod = modulus_from_kappa(kappa)
        ctx, periods = context(mod), half_periods_sig3(mod)
        for m, n in ((0, 0), (1, -1), (-20, 7), (50, 50)):
            z = complex(2 * periods.omega * (m + rng.random() - 0.5),
                        2 * periods.omega_prime.imag * (n + rng.random() - 0.5))
            cases.append((z, ctx, wp_and_derivative(z, ctx)[0]))

    def refuse(*args):
        raise AssertionError("wp must not form the derivative")

    monkeypatch.setattr(sig3.weierstrass, "wp_and_derivative", refuse)
    for z, ctx, expected in cases:
        assert repr(wp(z, ctx)) == repr(expected), z


# ----------------------------------------- 40-digit reference ----


def _mpmath_bridge(kappa, mpmath):
    """wp and wp' as functions of z, from the Jacobi bridge at mpmath's
    precision on the exact lattice of kappa (``oracles.exact_midpoints``)."""
    e1, e2, e3 = exact_midpoints(kappa, mpmath)
    m = (e2 - e3) / (e1 - e3)
    r = mpmath.sqrt(e1 - e3)

    def wp_and_deriv(z):
        u = mpmath.mpc(z.real, z.imag) * r
        sn_, cn, dn = (mpmath.ellipfun(kind, u, m=m) for kind in ("sn", "cn", "dn"))
        return e3 + (e1 - e3) / sn_ ** 2, -2 * (e1 - e3) * r * cn * dn / sn_ ** 3

    return wp_and_deriv


# Cells (m, n) out to 20 in each direction, the centred one first.
FAR_CELLS = ((0, 0), (1, 0), (0, -1), (-2, 3), (7, -5), (-13, -1), (20, 20), (-20, 11))


@pytest.mark.parametrize("kappa, bound", [
    (1e-100, 1e-14), (1e-5, 1e-14), (1e-3, 1e-14),
    (0.05, 1e-14), (0.3, 1e-14), (0.6, 1e-14), (0.9, 1e-14), (0.95, 1e-14), (0.99, 1e-14),
    (0.999999, 1e-14),
])
def test_wp_against_40_digit_jacobi_values(kappa, bound):
    # wp runs on kappa's own lattice, so one bound holds at every kappa
    # (measured <= 1.9e-15, at 0.95).  The cubic solve of the rounded
    # (g2, g3) held 0.05 to 1e-12 only, and left no lattice at 1e-100,
    # 1e-5 and 1e-3, where wp raised DomainError.
    # The bound is relative to the condition number |z wp'/wp| where it
    # exceeds 1: near a zero of wp, rounding z sqrt(e1 - e3) alone costs
    # that many ulps, and far out so does the rounding of the period.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    mod = modulus_from_kappa(kappa)
    ctx, periods = context(mod), half_periods_sig3(mod)
    reference = _mpmath_bridge(kappa, mpmath)
    for m, n in FAR_CELLS:
        for a in (-1.0, -0.55, -0.1, 0.35, 0.8):
            for b in (-1.0, -0.25, 0.2, 0.95):
                z = complex(periods.omega * (2 * m + a), periods.omega_prime.imag * (2 * n + b))
                ref_value, ref_deriv = reference(z)
                condition = float(abs(mpmath.mpc(z) * ref_deriv / ref_value))
                err = float(abs(wp(z, ctx) - ref_value) / abs(ref_value))
                assert err <= bound * max(1.0, condition), (z, err, condition)
