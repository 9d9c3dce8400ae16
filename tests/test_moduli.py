import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sig3.errors import DomainError
from sig3.moduli import (
    ModulusSet,
    _trisected,
    context,
    half_periods_sig3,
    invariants,
    midpoint_gaps,
    modulus_from_kappa,
    params_from_p,
)
from sig3.transfer import grid_points, grid_report
from sig3.weierstrass import wp
from oracles import exact_midpoints, rel_err, sig3_invariants, toward_both_ends

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)
# The two float routes of the parametrization agree to this, in units of
# each quantity's term scale: alpha and beta themselves, 1 for the complements.
CROSS_ROUTE_TOL = 1e-14
# The smallest p whose alpha ~ 2p^3 is a normal float.
P_FLOOR = 2.2323972485981933e-103


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
    assert rel_err(ModulusSet(mod.lam).kappa, mod.kappa) < 1e-15
    assert rel_err(_trisected(mod.kappa)[0], math.sin(math.pi / 12.0)) < 1e-15


@pytest.mark.parametrize("kappa", [0.0, 1.0, -0.3, 1.7])
def test_modulus_rejects_endpoints(kappa):
    with pytest.raises(DomainError):
        modulus_from_kappa(kappa)


def test_modulus_set_checks_its_fields():
    # kappa is the one field; lambda is derived from it, so there is nothing
    # left to check but 0 < kappa < 1.
    assert modulus_from_kappa is ModulusSet
    assert ModulusSet(0.6) == (0.6,)
    assert rel_err(ModulusSet(0.6).lam, 0.8) < 1e-15
    for kappa in (0.0, 1.0, -0.3, math.nan):
        with pytest.raises(DomainError):
            ModulusSet(kappa)
    with pytest.raises(TypeError):
        ModulusSet(0.6, 0.8)


def test_modulus_at_transfer_half():
    # kappa(p=1/2) = 9 sqrt(21)/49; its trisected sine is sqrt3/(2 sqrt7).
    mod = modulus_from_kappa(9.0 * math.sqrt(21.0) / 49.0)
    assert rel_err(_trisected(mod.kappa)[0], SQRT3 / (2.0 * SQRT7)) < 1e-15


def test_modulus_complement_is_involutive():
    mod = modulus_from_kappa(0.3)
    assert rel_err(ModulusSet(ModulusSet(mod.lam).lam).kappa, 0.3) < 1e-15


# ------------------------------------------------ parametrization ----


def trisected_route(p, sqrt3=SQRT3):
    """The parametrization's second route, through the trisected angle:
    s and c from p, X = 8s^4 - 12s^2 + 3, the midpoint-route Jacobi modulus
    k2 = 16 s^3 c/(8 s^3 c + sqrt3 X) and kappa^2 = (s(3 - 4s^2))^2.
    Returns (s, X, s^3 c, k2, kappa^2)."""
    q = 1.0 + p + p * p
    sq = math.sqrt(q)
    s = 0.5 * sqrt3 * p / sq
    c = 0.5 * (2.0 + p) / sq
    s2 = s * s
    X = (8.0 * s2 - 12.0) * s2 + 3.0
    s3c = s2 * s * c
    k2 = 16.0 * s3c / (8.0 * s3c + sqrt3 * X)
    kappa_s = s * (3.0 - 4.0 * s2)
    return s, X, s3c, k2, kappa_s * kappa_s


def cross_route_gaps(p, sqrt3=SQRT3):
    """Gaps of alpha and beta to the trisected route, relative, and of the
    rational complements to 1 - alpha and 1 - beta, absolute."""
    params = params_from_p(p)
    k2, kappa2 = trisected_route(p, sqrt3)[3:]
    return (abs(params.alpha - k2) / params.alpha, abs(params.beta - kappa2) / params.beta,
            abs(params.alpha_comp - (1.0 - params.alpha)), abs(params.beta_comp - (1.0 - params.beta)))


def test_params_at_half_reproduce_exact_rationals():
    params = params_from_p(0.5)
    assert params.alpha == 5.0 / 32.0  # dyadic, exact
    assert rel_err(params.beta, 243.0 / 343.0) < 1e-15
    low, high, _ = midpoint_gaps(modulus_from_kappa(math.sqrt(params.beta)))
    assert rel_err(low + high, 32.0 / 49.0) < 1e-15  # the spread e1 - e3
    s, X, s3c, k2, _ = trisected_route(0.5)
    assert rel_err(s ** 2, 3.0 / 28.0) < 1e-15
    assert rel_err(X, 177.0 / 98.0) < 1e-15
    assert rel_err(s3c, 15.0 * SQRT3 / 784.0) < 1e-15
    # the midpoint-route modulus agrees with alpha (both equal 5/32)
    assert rel_err(k2, 5.0 / 32.0) < 1e-14


def test_params_small_p_limits():
    params = params_from_p(1e-3)
    assert params.alpha < 1e-8
    assert params.beta < 1e-5
    low, high, _ = midpoint_gaps(modulus_from_kappa(math.sqrt(params.beta)))
    assert abs(low + high - 1.0) < 5e-3  # the spread e1 - e3


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.01])
def test_params_domain(p):
    with pytest.raises(DomainError):
        params_from_p(p)


# ----------------------------------- exact proofs of the parametrization ----
#
# Each identity below is between rational functions of one variable.  It
# holds everywhere once its cleared numerator, lhs_num rhs_den - rhs_num
# lhs_den, vanishes at more points than its degree; the comments give that
# degree, with q = 1 + p + p^2.


def holds_identically(lhs, rhs, degree):
    """lhs == rhs in exact rationals at the degree + 1 points 1, 2, ...;
    no denominator here vanishes at a positive integer."""
    return all(lhs(x) == rhs(x) for x in map(Fraction, range(1, degree + 2)))


def exact_params(p):
    """alpha, beta, 1 - alpha and 1 - beta by params_from_p's formulas."""
    q = 1 + p + p * p
    return (p ** 3 * (2 + p) / (1 + 2 * p), Fraction(27, 4) * p ** 2 * (1 + p) ** 2 / q ** 3,
            (1 - p) * (1 + p) ** 3 / (1 + 2 * p), ((1 - p) * (2 + p) * (1 + 2 * p)) ** 2 / (4 * q ** 3))


def exact_trisected(p):
    """s^2, X and s^3 c / sqrt3 of the trisected route, each rational in p:
    s = (sqrt3/2) p/sqrt(q) and c = (1/2)(2+p)/sqrt(q) give s^2 = 3p^2/(4q)
    and s c/sqrt3 = p(2+p)/(4q)."""
    q = 1 + p + p * p
    s2 = 3 * p * p / (4 * q)
    return s2, (8 * s2 - 12) * s2 + 3, s2 * p * (2 + p) / (4 * q)


def test_midpoint_route_modulus_is_alpha_exactly():
    # k2 = 16 s^3 c/(8 s^3 c + sqrt3 X), the sqrt3 cancelled, is
    # 2A/(A + q^2 X) with A = 3p^3(2+p); against alpha the cleared numerator
    # has degree 8.  It reduces to (3/2) p^3 (2+p) + q^2 X = 3(1+2p).
    def k2(p):
        _, X, s3c = exact_trisected(p)
        return 16 * s3c / (8 * s3c + X)

    assert holds_identically(k2, lambda p: exact_params(p)[0], 8)


def test_trisected_sine_route_squares_to_beta_exactly():
    # s^2 (3 - 4s^2)^2 = 3p^2 (3q - 3p^2)^2/(4q^3): degree 12 against beta.
    def kappa2(p):
        s2 = exact_trisected(p)[0]
        return s2 * (3 - 4 * s2) ** 2

    assert holds_identically(kappa2, lambda p: exact_params(p)[1], 12)


def test_complements_sum_to_one_exactly():
    # p^3(2+p) + (1-p)(1+p)^3 - (1+2p), degree 4, and
    # 27 p^2 (1+p)^2 + ((1-p)(2+p)(1+2p))^2 - 4q^3, degree 6.
    one = lambda p: Fraction(1)
    assert holds_identically(lambda p: exact_params(p)[0] + exact_params(p)[2], one, 4)
    assert holds_identically(lambda p: exact_params(p)[1] + exact_params(p)[3], one, 6)


def test_invariants_complementary_forms_exactly():
    # g2 and g3 in t = kappa^2 against their forms in lambda^2 = 1 - t:
    # degrees 1 and 2.
    assert holds_identically(lambda t: Fraction(4, 27) * (9 - 8 * t),
                             lambda t: Fraction(4, 27) * (8 * (1 - t) + 1), 1)
    assert holds_identically(lambda t: Fraction(8, 729) * (27 - (36 - 8 * t) * t),
                             lambda t: Fraction(8, 729) * ((8 * (1 - t) + 20) * (1 - t) - 1), 2)


def exact_bridge(p):
    """a, b, r^2 and alpha of delta's bridge 1 - a x/(1 + b x), rational in
    p: r^2 = e1 - e3 = (1+2p)/q^2, a = (4/9) kappa^2/r^2, and b = (1/3 + e3)/r^2
    with 1/3 + e3 = (4/9) s^2 (3 - 2 s^2 - 2 sqrt3 s c), midpoint_gaps' form,
    where 2 sqrt3 s c = 6 (s^3 c/sqrt3)/s^2."""
    q = 1 + p + p * p
    r2 = (1 + 2 * p) / q ** 2
    s2, _, s3c = exact_trisected(p)
    shift = Fraction(4, 9) * s2 * (3 - 2 * s2 - 6 * s3c / s2)
    alpha, beta = exact_params(p)[:2]
    return Fraction(4, 9) * beta / r2, shift / r2, r2, alpha


def test_phase_constant_c_exactly():
    # c = 1 + b - a/3 of moduli.DeltaContext.phase_terms is (1+p)^3/((1+2p) q);
    # both sides have denominator (1+2p) q and numerators of degree <= 4: 7.
    def c(p):
        a, b, _, _ = exact_bridge(p)
        return 1 + b - a / 3

    assert holds_identically(c, lambda p: (1 + p) ** 3 / ((1 + 2 * p) * (1 + p + p * p)), 7)


def test_closed_form_phase_lies_on_the_unit_circle_exactly():
    # sin^2 T + cos^2 T = 1 for delta_phase's closed form, x = sn^2:
    #   x (3 + (3b - a) x)^2/(9 r^2) + (1 - x)(1 - alpha x) = (1 + b x)^3.
    # Times 4 kappa^2 = 9 a r^2 this is 4 kappa^2 (1 + bx)^3 - a x (3 +
    # (3b - a) x)^2 = 4 kappa^2 (1 - x)(1 - alpha x): the remainder Q is
    # linear.  Both sides are cubics in x, so four x suffice; at each, both
    # are rational in p over (1 + 2p)^3 with numerators of degree 6: 9.
    def sides(p, x):
        a, b, r2, alpha = exact_bridge(p)
        lhs = x * (3 + (3 * b - a) * x) ** 2 / (9 * r2) + (1 - x) * (1 - alpha * x)
        return lhs, (1 + b * x) ** 3

    for x in map(Fraction, (1, 2, 3, 4)):
        assert holds_identically(lambda p: sides(p, x)[0], lambda p: sides(p, x)[1], 9)
    # 3b - a = -3 p^3/(q (1 + 2p)), degree 3 + 3.
    assert holds_identically(lambda p: 3 * exact_bridge(p)[1] - exact_bridge(p)[0],
                             lambda p: -3 * p ** 3 / ((1 + p + p * p) * (1 + 2 * p)), 6)


# --------------------------------------- the two routes in floats ----


def test_trisected_route_agrees_with_the_rational_formulas():
    # The exact identities above, held in floats on the verify grid and on
    # 10,002 p toward both ends, down to just above P_FLOOR.
    points = grid_points(0.001, 0.999, 0.001) + toward_both_ends()
    for p in points:
        assert max(cross_route_gaps(p)) <= CROSS_ROUTE_TOL, p


@pytest.mark.parametrize("p", [i / 10.0 for i in range(1, 10)])
def test_dual_routes_on_the_decade_grid(p):
    assert max(cross_route_gaps(p)) <= CROSS_ROUTE_TOL


@pytest.mark.parametrize("p", [1e-3, 0.3, 0.999])
@pytest.mark.parametrize("shift", [1e-12, 1e-14])
def test_parametrization_guard_sees_a_wrong_sqrt3(p, shift):
    # sqrt3 one part in 1e12 (or 1e14) high moves s, and with it the
    # midpoint-route k2 and the sine-route kappa^2, but leaves the rational
    # alpha and beta as they are.  At shift 1e-14 the largest gap is 2.0e-14,
    # 2.4e-14 and 5.0e-14 at the three p: a CROSS_ROUTE_TOL raised by a
    # factor 2.1 no longer sees it at p = 1e-3.
    assert max(cross_route_gaps(p, SQRT3 * (1.0 + shift))) > CROSS_ROUTE_TOL


@pytest.mark.parametrize("p", [1e-100, 1e-6, 0.001, 0.3, 0.999, math.nextafter(1.0, 0.0)])
def test_complements_against_exact_rationals(p):
    # 1 - alpha and 1 - beta evaluated in rational arithmetic on the binary p;
    # the float route keeps full relative precision even where they are tiny.
    params = params_from_p(p)
    alpha, beta = exact_params(Fraction(p))[:2]
    assert rel_err(params.alpha_comp, float(1 - alpha)) <= 1e-15
    assert rel_err(params.beta_comp, float(1 - beta)) <= 1e-15


def test_parametrization_refuses_underflowing_alpha():
    # alpha ~ 2p^3 sets the floor.  The p from there up to ~3.25e-103,
    # where s^3 c ~ 0.65 p^3 of the trisected route leaves the normal
    # floats, hold every identity to roundoff.
    assert params_from_p(P_FLOOR).alpha >= sys.float_info.min
    report = grid_report(P_FLOOR, 3.3e-103, 1e-105)
    assert len(report.rows) == 108 and report.all_pass
    assert max(report.max_relerr.values()) <= 1e-15
    for p in (math.nextafter(P_FLOOR, 0.0), 1e-105, 1e-110):  # alpha subnormal, then zero
        with pytest.raises(DomainError, match="alpha"):
            params_from_p(p)


def params_plain(p):
    """params_from_p's formulas written plainly, with min() clamps and no
    floor: the reference its tuned body must match bit for bit."""
    q = 1.0 + p + p * p
    alpha = min(1.0, p * p * p * (2.0 + p) / (1.0 + 2.0 * p))
    beta = min(1.0, 6.75 * (p * (1.0 + p)) ** 2 / (q * q * q))
    alpha_comp = min(1.0, (1.0 - p) * (1.0 + p) ** 3 / (1.0 + 2.0 * p))
    beta_comp = min(1.0, ((1.0 - p) * (2.0 + p) * (1.0 + 2.0 * p)) ** 2 / (4.0 * q * q * q))
    return p, alpha, beta, alpha_comp, beta_comp


def test_params_match_the_plain_formulas_bit_for_bit():
    # On the verify grid and on 10,002 p toward both ends, where the clamps
    # to 1 fire 1,211 times.  float.hex compares bits, not values.
    points = grid_points(0.001, 0.999, 0.001) + toward_both_ends()
    assert len(points) == 999 + 10_002
    for p in points:
        assert [x.hex() for x in params_from_p(p)] == [x.hex() for x in params_plain(p)], p


def test_alpha_stays_below_one_unclamped():
    # params_from_p clamps beta and the complements to 1, not alpha: its
    # rounding never reaches 1.  At the float below 1, alpha = 1 - 3 2^-53.
    p = 1.0
    for _ in range(2 ** 16):
        p = math.nextafter(p, 0.0)
        assert params_from_p(p).alpha < 1.0, p
    assert params_from_p(math.nextafter(1.0, 0.0)).alpha == 1.0 - 3.0 * 2.0 ** -53


# ------------------------------------------------ modulus to p ----


def test_modulus_p_at_transfer_half():
    # kappa(p = 1/2) = 9 sqrt(21)/49.
    assert rel_err(modulus_from_kappa(9.0 * math.sqrt(21.0) / 49.0).p, 0.5) < 1e-15


def test_modulus_p_carries_kappa_squared_to_beta():
    # 2,000 kappa: log-spaced from 1e-100 to 1/2, then toward 1 down to
    # 1 - kappa = 2^-53.  Measured worst 1.12e-15, at kappa = 6.5e-8.
    kappas = [10.0 ** (-100.0 + (100.0 - math.log10(2.0)) * i / 999) for i in range(1000)]
    kappas += [1.0 - 2.0 ** (-1.0 - 52.0 * i / 999) for i in range(1000)]
    assert kappas[-1] == math.nextafter(1.0, 0.0)
    for kappa in kappas:
        beta = params_from_p(modulus_from_kappa(kappa).p).beta
        assert rel_err(beta, float(Fraction(kappa) ** 2)) <= 2e-15, kappa


def test_modulus_p_against_40_digit_values():
    # The same formula at 40 digits, from the float kappa; p ~ (2/sqrt3) s
    # for small kappa and 1 - p ~ 2^-27 at the float below 1.
    mpmath = pytest.importorskip("mpmath")
    kappas = [10.0 ** (-100.0 + 100.0 * i / 150) for i in range(150)]
    kappas += [1.0 - 10.0 ** -j for j in range(1, 16)] + [math.nextafter(1.0, 0.0)]
    with mpmath.workdps(40):
        for kappa in kappas:
            third = mpmath.asin(mpmath.mpf(kappa)) / 3
            s, c = mpmath.sin(third), mpmath.cos(third)
            want = 2 * (s * s + mpmath.sqrt(3) * s * c) / (3 - 4 * s * s)
            assert abs(modulus_from_kappa(kappa).p - want) <= 1e-15 * want, kappa


@pytest.mark.parametrize("p", [i / 10.0 for i in range(1, 10)])
def test_parametrization_round_trip_on_the_decade_grid(p):
    # p -> kappa = sqrt(beta) -> p; measured <= 8.9e-16.
    assert abs(modulus_from_kappa(math.sqrt(params_from_p(p).beta)).p - p) <= 1e-14


@given(p=st.floats(min_value=1e-3, max_value=0.999))
@settings(max_examples=80, deadline=None)
def test_transfer_arguments_stay_in_range(p):
    params = params_from_p(p)
    assert 0.0 < params.alpha < 1.0
    assert 0.0 < params.beta < 1.0
    low, high, _ = midpoint_gaps(modulus_from_kappa(math.sqrt(params.beta)))
    assert low + high > 0.0  # the spread e1 - e3


# ------------------------------------------------------ invariants ----
# The paper's (g2, g3) of kappa, ``oracles.sig3_invariants``, which the
# tests of wp's differential equation and of the midpoints read.


def test_invariants_small_modulus_limit():
    g2, g3 = sig3_invariants(1e-8)
    assert rel_err(g2, 4.0 / 3.0) < 1e-14
    assert rel_err(g3, 8.0 / 27.0) < 1e-14


def test_invariants_match_exact_rational_arithmetic():
    for kappa in (0.1, 0.3, 0.6, 0.8):
        g2, g3 = sig3_invariants(kappa)
        g2x, g3x = exact_invariants(kappa)
        assert rel_err(g2, g2x) < 1e-15
        assert rel_err(g3, g3x) < 1e-15


def test_invariants_complementary_form_agreement():
    # 210 kappa: log-spaced from 1e-8 to 1, then toward 1 down to 1e-15;
    # measured <= 5.7e-16 for both.
    kappas = [10.0 ** (-8.0 + 8.0 * i / 150) for i in range(150)]
    kappas += [1.0 - 10.0 ** (-j / 4.0) for j in range(1, 61)]
    for kappa in kappas:
        g2, g3 = sig3_invariants(kappa)
        u = modulus_from_kappa(kappa).lam ** 2
        g2_alt = (4.0 / 27.0) * (8.0 * u + 1.0)
        g3_alt = (8.0 / 729.0) * (8.0 * u * u + 20.0 * u - 1.0)
        assert rel_err(g2, g2_alt) < 1e-15
        assert abs(g3 - g3_alt) < 1e-15 * (8.0 / 729.0) * (27.0 + 36.0 * kappa ** 2)


def test_invariants_are_built_once_per_modulus():
    # ``invariants`` is ``context``, the name perfbench calls: wp takes the
    # context of kappa's lattice, cached per modulus, so a repeat call, also
    # with an equal ModulusSet built afresh, returns the very same context.
    assert invariants is context
    mod = modulus_from_kappa(0.4321)
    first = invariants(mod)
    assert invariants(mod) is first
    assert invariants(modulus_from_kappa(0.4321)) is first


def test_discriminant_positive_inside_the_family():
    for kappa in (0.05, 0.3, 0.6, 0.9, 0.99):
        g2, g3 = sig3_invariants(kappa)
        assert g2 ** 3 - 27.0 * g3 ** 2 > 0.0


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
            e1, e2, e3 = exact_midpoints(kappa, mpmath)
            exact = (e2 - e3, e1 - e2, mpmath.mpf(1) / 3 + e3)
            for got, want in zip(midpoint_gaps(modulus_from_kappa(kappa)), exact):
                assert abs(got - want) <= 1e-15 * want, (kappa, got)


@pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9])
def test_midpoints_are_cubic_roots(kappa):
    # e1 > e2 > e3 summed from the gaps, each gap added once: their sum
    # ties the three closed forms together.
    g2, g3 = sig3_invariants(kappa)
    low, high, shift = midpoint_gaps(modulus_from_kappa(kappa))
    e3 = shift - 1.0 / 3.0
    mids = (e3 + low + high, e3 + low, e3)
    for e in mids:
        assert abs(4.0 * e ** 3 - g2 * e - g3) <= 1e-13 * max(1.0, abs(g3))
    assert abs(sum(mids)) <= 1e-14


# Above p ~ 0.95 the arcsin route through kappa = sqrt(beta) -> 1 amplifies
# rounding by 1/lambda and the 1e-14 budget no longer holds.
@given(p=st.floats(min_value=1e-3, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_midpoint_spread_matches_parametrization(p):
    q = 1.0 + p + p * p
    low, high, _ = midpoint_gaps(modulus_from_kappa(math.sqrt(params_from_p(p).beta)))
    assert abs(low + high - (1.0 + 2.0 * p) / (q * q)) <= 1e-14


# ------------------------------------------- wp at two thirds of omega' ----


# wp(2 omega'/3) = -1/3, the constant in the Velu identity that
# ``delta.verify_trimidiation`` checks, holds for wp too: measured
# <= 5.6e-17 on kappa's lattice, where the cubic solve of the rounded
# (g2, g3) read ~3e-12 at kappa = 0.1.
@pytest.mark.parametrize("kappa", [0.1, 0.35, 0.6, 0.9, 0.99])
def test_wp_at_two_thirds_of_the_imaginary_half_period_is_minus_a_third(kappa):
    mod = modulus_from_kappa(kappa)
    omega_prime = half_periods_sig3(mod).omega_prime
    assert abs(wp(2.0 * omega_prime / 3.0, context(mod)) + 1.0 / 3.0) <= 1e-15
