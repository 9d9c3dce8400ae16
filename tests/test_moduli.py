import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sig3.moduli
from sig3.errors import DomainError
from sig3.moduli import (
    ModulusSet,
    invariants,
    midpoint_gaps,
    modulus_from_kappa,
    p_from_s_c,
    params_from_p,
)
from sig3.transfer import grid_points
from sig3.weierstrass import wp, _lattice
from oracles import rel_err, toward_both_ends

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)


def exact_invariants(kappa):
    """(g2, g3) on the exact binary value of kappa, in rational arithmetic."""
    t = Fraction(kappa) ** 2
    g2 = Fraction(4, 27) * (9 - 8 * t)
    g3 = Fraction(8, 729) * (27 - 36 * t + 8 * t * t)
    return float(g2), float(g3)


# ----------------------------------------------------------- moduli ----


def test_modulus_self_complementary_point():
    mod = modulus_from_kappa(1.0 / math.sqrt(2.0))
    assert rel_err(mod.lam, 1.0 / math.sqrt(2.0)) < 1e-15
    assert rel_err(mod.theta, math.pi / 4.0) < 1e-15


@pytest.mark.parametrize("kappa", [0.0, 1.0, -0.3, 1.7])
def test_modulus_rejects_endpoints(kappa):
    with pytest.raises(DomainError):
        modulus_from_kappa(kappa)


def test_modulus_set_checks_its_fields():
    theta = math.asin(0.6)
    assert modulus_from_kappa(0.6) == ModulusSet(0.6, 0.8, theta) == (0.6, 0.8, theta)
    for fields in ((0.6, 0.7, theta), (0.6, 0.8, 0.6), (1.0, 0.0, 0.5 * math.pi)):
        with pytest.raises(DomainError):
            ModulusSet(*fields)


def test_modulus_at_transfer_half():
    # kappa(p=1/2) = 9 sqrt(21)/49; its trisected sine is sqrt3/(2 sqrt7).
    mod = modulus_from_kappa(9.0 * math.sqrt(21.0) / 49.0)
    assert rel_err(math.sin(mod.theta / 3.0), SQRT3 / (2.0 * SQRT7)) < 1e-15


def test_modulus_complement_is_involutive():
    mod = modulus_from_kappa(0.3)
    assert rel_err(mod.complement.complement.kappa, 0.3) < 1e-15


# ------------------------------------------------ parametrization ----


def test_params_at_half_reproduce_exact_rationals():
    params = params_from_p(0.5)
    assert params.alpha == 5.0 / 32.0  # dyadic, exact
    assert rel_err(params.beta, 243.0 / 343.0) < 1e-15
    assert rel_err(params.r2, 32.0 / 49.0) < 1e-15
    assert rel_err(params.s ** 2, 3.0 / 28.0) < 1e-15
    assert rel_err(params.X, 177.0 / 98.0) < 1e-15
    assert rel_err(params.s3c, 15.0 * SQRT3 / 784.0) < 1e-15
    # the midpoint-route modulus agrees with alpha (both equal 5/32)
    assert rel_err(params.k2, 5.0 / 32.0) < 1e-14


def test_params_small_p_limits():
    params = params_from_p(1e-3)
    assert params.alpha < 1e-8
    assert params.beta < 1e-5
    assert abs(params.r2 - 1.0) < 5e-3


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.01])
def test_params_domain(p):
    with pytest.raises(DomainError):
        params_from_p(p)


def test_p_from_s_c_exact_surds():
    assert rel_err(p_from_s_c(SQRT3 / (2.0 * SQRT7), 5.0 / (2.0 * SQRT7)), 0.5) < 1e-15


def test_p_from_s_c_small_s():
    s = 1e-4
    assert 0.0 < p_from_s_c(s, math.sqrt(1.0 - s * s)) < 1e-3


def test_p_from_s_c_rejects_bad_input():
    with pytest.raises(DomainError):
        p_from_s_c(0.5, math.sqrt(0.75))  # theta = pi/2 endpoint
    with pytest.raises(DomainError):
        p_from_s_c(0.0, 1.0)
    with pytest.raises(DomainError):
        p_from_s_c(0.3, 0.3)  # not a sine/cosine pair


@given(p=st.floats(min_value=1e-3, max_value=0.999))
@settings(max_examples=80, deadline=None)
def test_parametrization_round_trip(p):
    params = params_from_p(p)
    assert abs(p_from_s_c(params.s, params.c) - p) <= 1e-14


@pytest.mark.parametrize("p", [i / 10.0 for i in range(1, 10)])
def test_parametrization_round_trip_on_the_decade_grid(p):
    params = params_from_p(p)
    assert abs(p_from_s_c(params.s, params.c) - p) <= 1e-14


@pytest.mark.parametrize("p", [i / 10.0 for i in range(1, 10)])
def test_dual_routes_on_the_decade_grid(p):
    # alpha against the midpoint-ratio modulus, beta against the trisected
    # sine route; params_from_p enforces both internally, asserted here too.
    params = params_from_p(p)
    kappa_s = params.s * (3.0 - 4.0 * params.s ** 2)
    assert abs(params.alpha - params.k2) <= 1e-14 * params.alpha
    assert abs(params.beta - kappa_s ** 2) <= 1e-14 * params.beta


@pytest.mark.parametrize("p", [1e-100, 1e-6, 0.001, 0.3, 0.999, math.nextafter(1.0, 0.0)])
def test_complements_against_exact_rationals(p):
    # 1 - alpha and 1 - beta evaluated in rational arithmetic on the binary p;
    # the float route keeps full relative precision even where they are tiny.
    params = params_from_p(p)
    x = Fraction(p)
    alpha = x ** 3 * (2 + x) / (1 + 2 * x)
    beta = Fraction(27, 4) * x ** 2 * (1 + x) ** 2 / (1 + x + x * x) ** 3
    assert rel_err(params.alpha_comp, float(1 - alpha)) <= 1e-15
    assert rel_err(params.beta_comp, float(1 - beta)) <= 1e-15


def test_parametrization_refuses_underflowing_alpha():
    assert params_from_p(1e-100).alpha > 0.0
    for p in (1e-105, 1e-110):  # alpha subnormal, then zero
        with pytest.raises(DomainError):
            params_from_p(p)


def params_plain(p):
    """params_from_p's formulas written plainly, with min() clamps and no
    guard: the reference its tuned body must match bit for bit."""
    q = 1.0 + p + p * p
    sq = math.sqrt(q)
    s = 0.5 * SQRT3 * p / sq
    c = 0.5 * (2.0 + p) / sq
    s2 = s * s
    X = (8.0 * s2 - 12.0) * s2 + 3.0
    s3c = s2 * s * c
    alpha = min(1.0, p * p * p * (2.0 + p) / (1.0 + 2.0 * p))
    beta = min(1.0, 6.75 * (p * (1.0 + p)) ** 2 / (q * q * q))
    alpha_comp = min(1.0, (1.0 - p) * (1.0 + p) ** 3 / (1.0 + 2.0 * p))
    beta_comp = min(1.0, ((1.0 - p) * (2.0 + p) * (1.0 + 2.0 * p)) ** 2 / (4.0 * q * q * q))
    r2 = (1.0 + 2.0 * p) / (q * q)
    k2 = 16.0 * s3c / (8.0 * s3c + SQRT3 * X)
    return p, s, c, X, s3c, alpha, beta, alpha_comp, beta_comp, r2, k2


def test_params_match_the_plain_formulas_bit_for_bit():
    # On the verify grid and on 10,002 p toward both ends, where the clamps
    # to 1 fire 1,202 times.  float.hex compares bits, not values.
    points = grid_points(0.001, 0.999, 0.001) + toward_both_ends()
    assert len(points) == 999 + 10_002
    for p in points:
        assert [x.hex() for x in params_from_p(p)] == [x.hex() for x in params_plain(p)], p


@pytest.mark.parametrize("p", [1e-3, 0.3, 0.999])
@pytest.mark.parametrize("shift", [1e-12, 1e-14])
def test_parametrization_guard_sees_a_wrong_sqrt3(monkeypatch, p, shift):
    # sqrt3 one part in 1e12 (or 1e14) high moves s, and with it the
    # midpoint-route k2 and the sine-route kappa^2, but leaves the rational
    # alpha and beta as they are.  At shift 1e-14 the largest gap is 2.0e-14,
    # 2.4e-14 and 5.0e-14 at the three p: a CROSS_ROUTE_TOL raised by a
    # factor 2.1 no longer fires at p = 1e-3.
    monkeypatch.setattr(sig3.moduli, "SQRT3", SQRT3 * (1.0 + shift))
    with pytest.raises(ArithmeticError, match=f"routes disagree at p={p}"):
        params_from_p(p)


@given(p=st.floats(min_value=1e-3, max_value=0.999))
@settings(max_examples=80, deadline=None)
def test_transfer_arguments_stay_in_range(p):
    params = params_from_p(p)
    assert 0.0 < params.alpha < 1.0
    assert 0.0 < params.beta < 1.0
    assert params.r2 > 0.0


# ------------------------------------------------------ invariants ----


def test_invariants_small_modulus_limit():
    inv = invariants(modulus_from_kappa(1e-8))
    assert rel_err(inv.g2, 4.0 / 3.0) < 1e-14
    assert rel_err(inv.g3, 8.0 / 27.0) < 1e-14


def test_invariants_match_exact_rational_arithmetic():
    for kappa in (0.1, 0.3, 0.6, 0.8):
        inv = invariants(modulus_from_kappa(kappa))
        g2x, g3x = exact_invariants(kappa)
        assert rel_err(inv.g2, g2x) < 1e-15
        assert rel_err(inv.g3, g3x) < 1e-15


def test_invariants_complementary_form_agreement():
    for kappa in (0.1, 0.25, 0.5, 0.75, 0.9):
        mod = modulus_from_kappa(kappa)
        inv = invariants(mod)
        u = mod.lam ** 2
        g2_alt = (4.0 / 27.0) * (8.0 * u + 1.0)
        g3_alt = (8.0 / 729.0) * (8.0 * u * u + 20.0 * u - 1.0)
        assert rel_err(inv.g2, g2_alt) < 1e-15
        assert abs(inv.g3 - g3_alt) < 1e-15 * (8.0 / 729.0) * (27.0 + 36.0 * kappa ** 2)


def test_invariants_are_built_once_per_modulus():
    # Cached per modulus: a repeat call, also with an equal ModulusSet built
    # afresh, returns the very same pair.
    mod = modulus_from_kappa(0.4321)
    first = invariants(mod)
    assert invariants(mod) is first
    assert invariants(modulus_from_kappa(0.4321)) is first


def test_discriminant_positive_inside_the_family():
    for kappa in (0.05, 0.3, 0.6, 0.9, 0.99):
        inv = invariants(modulus_from_kappa(kappa))
        assert inv.g2 ** 3 - 27.0 * inv.g3 ** 2 > 0.0


# ------------------------------------------------------- midpoints ----


def test_midpoints_at_transfer_half():
    # At p = 1/2 the midpoints are 59/147, -22/147 and -37/147.
    params = params_from_p(0.5)
    gaps = midpoint_gaps(modulus_from_kappa(math.sqrt(params.beta)))
    for got, want in zip(gaps, (5.0 / 49.0, 27.0 / 49.0, 4.0 / 49.0)):
        assert rel_err(got, want) < 1e-14


def test_midpoint_gaps_against_400_digit_values():
    # Each gap relative to its own size; measured <= 7.1e-16 for e2 - e3,
    # 3.5e-16 for e1 - e2 and 6.0e-16 for 1/3 + e3.  The exact values
    # subtract midpoints, and 1/3 + e3 ~ (4/27) kappa^2 at kappa = 1e-100
    # needs the 400 digits.
    mpmath = pytest.importorskip("mpmath")
    kappas = [10.0 ** (-7.0 + 7.0 * i / 200) for i in range(200)]
    kappas += [1.0 - 10.0 ** -j for j in range(1, 16)] + [math.nextafter(1.0, 0.0)]
    kappas += [1e-100, 1e-50, 1e-20, 1e-10]
    with mpmath.workdps(400):
        for kappa in kappas:
            third = mpmath.asin(mpmath.mpf(kappa)) / 3
            s, c = mpmath.sin(third), mpmath.cos(third)
            x = (8 * s * s - 12) * s * s + 3
            gap = 8 * mpmath.sqrt(3) * s ** 3 * c
            e1, e2, e3 = 2 * x / 9, (gap - x) / 9, -(gap + x) / 9
            exact = (e2 - e3, e1 - e2, mpmath.mpf(1) / 3 + e3)
            for got, want in zip(midpoint_gaps(modulus_from_kappa(kappa)), exact):
                assert abs(got - want) <= 1e-15 * want, (kappa, got)


@pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
def test_midpoints_are_cubic_roots(kappa):
    # e1 > e2 > e3 summed from the gaps, each gap added once: their sum
    # ties the three closed forms together.
    mod = modulus_from_kappa(kappa)
    inv = invariants(mod)
    low, high, shift = midpoint_gaps(mod)
    e3 = shift - 1.0 / 3.0
    mids = (e3 + low + high, e3 + low, e3)
    for e in mids:
        assert abs(4.0 * e ** 3 - inv.g2 * e - inv.g3) <= 1e-13 * max(1.0, abs(inv.g3))
    assert abs(sum(mids)) <= 1e-14


# Above p ~ 0.95 the arcsin route through kappa = sqrt(beta) -> 1 amplifies
# rounding by 1/lambda and the 1e-14 budget no longer holds.
@given(p=st.floats(min_value=1e-3, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_midpoint_spread_matches_parametrization(p):
    params = params_from_p(p)
    low, high, _ = midpoint_gaps(modulus_from_kappa(math.sqrt(params.beta)))
    assert abs(low + high - params.r2) <= 1e-14


# ------------------------------------------- wp at two thirds of omega' ----


# wp(2 omega'/3) = -1/3, the constant in the Velu identity that
# ``delta.verify_trimidiation`` checks, holds on the lattice of the
# invariants too.  kappa = 0.1 is left out: there the trigonometric cubic
# solve of the midpoints alone costs ~3e-12.
@pytest.mark.parametrize("kappa", [0.35, 0.6, 0.9, 0.99])
def test_wp_at_two_thirds_of_the_imaginary_half_period_is_minus_a_third(kappa):
    inv = invariants(modulus_from_kappa(kappa))
    omega_prime = 0.5j * _lattice(*inv)[2].period_im
    assert abs(wp(2.0 * omega_prime / 3.0, inv) + 1.0 / 3.0) <= 1e-13
