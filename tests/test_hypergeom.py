import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sig3 import cli, hypergeom, transfer
from sig3.delta import period_route_gap
from sig3.errors import DomainError, NonConvergence
from sig3.hypergeom import (
    agm,
    agm3,
    f2,
    f2_complement,
    f3,
    f3_complement,
    f_half,
)
from sig3.moduli import DeltaContext, ModulusSet, half_periods_sig3, modulus_from_kappa
from oracles import (
    HALF,
    ONE,
    THIRD,
    TWO_THIRDS,
    agm3_decimal,
    agm_decimal,
    f3_complement_decimal,
    hyp2f1_exact,
    hyp2f1_series,
    rel_err,
)

# Parameter triples (a, b, c) of the float series oracle.
F2_PARAMS = (0.5, 0.5, 1.0)
F3_PARAMS = (1.0 / 3.0, 2.0 / 3.0, 1.0)
F_HALF_PARAMS = (1.0 / 3.0, 2.0 / 3.0, 0.5)

# Frozen from the exact-rational series oracle (hyp2f1_exact); the oracle is
# re-run below so a broken freeze cannot hide.
F2_AT_HALF = 1.1803405990160962
F2_AT_5_32 = 1.0429193183237468
F3_AT_243_343 = 1.2905468138800527
F3_AT_7_8 = 1.505254038857066
F_HALF_AT_9_25 = 1.2213535839028458
AGM_1_INV_SQRT2 = 0.847213084793979  # 50-digit decimal AGM iteration
# F(1/3, 2/3; 1/2; x) next to the singularity, from 40-digit mpmath hyp2f1.
F_HALF_NEAR_ONE = {
    0.9999: 86.76872837354368,
    1.0 - 2.0 ** -30: 28378.087096406896,
}
# Closed forms at the singular value k3^2 = (2 - sqrt3)/4, to 40 digits
# (mpmath at 60): F3(1/2) = sqrt(pi)/(Gamma(2/3) Gamma(5/6)), K(k3) =
# 3^(1/4) Gamma(1/3)^3/(2^(7/3) pi), F2(1/2) = sqrt(pi)/Gamma(3/4)^2, and
# both sides of (56) at p = (sqrt3 - 1)/2, where beta = 1/2 and alpha =
# k3^2: 3 K(k3)/pi = 3^(1/4) F3(1/2).
F3_AT_HALF_40 = Decimal("1.159595266963928365769992051570020881945")
K_AT_K3_40 = Decimal("1.598142002112540144460965105390112888901")
F2_AT_HALF_40 = Decimal("1.180340599016096226045337940558488587234")
SIDES56_AT_K3_40 = Decimal("1.526113196393934013004308130025095138993")
P_AT_K3 = (math.sqrt(3.0) - 1.0) / 2.0


# The float series is the oracle that the AGM and closed-form routes are
# checked against; these tests check the oracle itself.


def test_series_is_exactly_one_at_zero():
    for params in (F2_PARAMS, F3_PARAMS, F_HALF_PARAMS):
        assert hyp2f1_series(*params, 0.0) == 1.0


def test_series_frozen_value_at_half():
    value = hyp2f1_series(*F2_PARAMS, 0.5)
    assert rel_err(value, F2_AT_HALF) < 1e-15
    oracle = float(hyp2f1_exact(HALF, HALF, ONE, Fraction(1, 2)))
    assert rel_err(value, oracle) < 1e-15


@pytest.mark.parametrize("x", [1.0, 1.5, -0.01, math.inf])
def test_series_rejects_bad_arguments(x):
    with pytest.raises(ValueError):
        hyp2f1_series(*F2_PARAMS, x)


def test_series_nonconvergence_when_starved():
    with pytest.raises(ArithmeticError):
        hyp2f1_series(*F2_PARAMS, 0.9, max_terms=5)


@pytest.mark.parametrize("func,params", [(f2, F2_PARAMS), (f3, F3_PARAMS)])
def test_agm_routes_match_series_on_grid(func, params):
    # 99-point grid over [0.01, 0.99]; AGM route against the series oracle.
    worst = 0.0
    previous = 0.0
    for i in range(1, 100):
        x = i / 100.0
        via_agm = func(x)
        via_series = hyp2f1_series(*params, x)
        worst = max(worst, abs(via_agm - via_series) / via_agm)
        assert via_agm > previous  # strictly increasing
        previous = via_agm
    assert worst <= 1e-12


def test_f2_f3_floor_at_one():
    assert f2(0.0) == 1.0
    assert f3(0.0) == 1.0
    for x in (1e-6, 0.3, 0.8):
        assert f2(x) > 1.0
        assert f3(x) > 1.0


def test_f2_spot_value_at_transfer_argument():
    # 5/32 is alpha(p = 1/2), exact in rational arithmetic.
    value = f2(5.0 / 32.0)
    assert rel_err(value, F2_AT_5_32) < 1e-14
    oracle = float(hyp2f1_exact(HALF, HALF, ONE, Fraction(5, 32)))
    assert rel_err(value, oracle) < 1e-14


def test_f3_spot_value_at_transfer_argument():
    # 243/343 is beta(p = 1/2).
    value = f3(243.0 / 343.0)
    assert rel_err(value, F3_AT_243_343) < 1e-14
    oracle = float(hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(243, 343)))
    assert rel_err(value, oracle) < 1e-14


@pytest.mark.parametrize("func", [f2, f3])
def test_agm_routes_reject_the_singular_point(func):
    with pytest.raises(DomainError):
        func(1.0)
    with pytest.raises(DomainError):
        func(-0.2)


@pytest.mark.parametrize("func,complement", [(f2, f2_complement), (f3, f3_complement)])
def test_kernels_are_their_complement_routes_bitwise(func, complement):
    for x in (0.0, 1e-300, 1e-9, 0.3, 0.5, 0.75, 1.0 - 1e-9, math.nextafter(1.0, 0.0)):
        assert func(x) == complement(1.0 - x)
    assert complement(1.0) == 1.0
    for y in (0.0, -0.1, math.nextafter(1.0, 2.0)):
        with pytest.raises(DomainError):
            complement(y)


def test_f_half_spot_value():
    value = f_half(0.36)
    assert rel_err(value, F_HALF_AT_9_25) < 1e-14
    oracle = float(hyp2f1_exact(THIRD, TWO_THIRDS, HALF, Fraction(0.36)))
    assert rel_err(value, oracle) < 1e-14


def test_f_half_matches_the_series_oracle():
    # Closed form against the Gauss series, up to x = 0.98 (kappa = 0.99),
    # where the series still converges.
    for x in [i / 100.0 for i in range(98)] + [0.9801]:
        assert rel_err(f_half(x), hyp2f1_series(*F_HALF_PARAMS, x)) < 1e-13


def test_f_half_near_singularity_against_40_digit_values():
    for x, value in F_HALF_NEAR_ONE.items():
        assert rel_err(f_half(x), value) <= 1e-15
    for x in (1.0, -0.1):
        with pytest.raises(DomainError):
            f_half(x)


def test_agm_fixed_point_is_exact():
    assert agm(1.0, 1.0) == 1.0
    assert agm(3.5, 3.5) == 3.5


def test_agm_lemniscatic_constant():
    value = agm(1.0, 1.0 / math.sqrt(2.0))
    assert rel_err(value, AGM_1_INV_SQRT2) < 1e-14
    oracle = float(agm_decimal(Decimal(1), Decimal(2).sqrt() / 2))
    assert rel_err(value, oracle) < 1e-14


def _anchor_errors() -> list[float]:
    """Exact relative errors of f3(1/2), (pi/2) f2(k3^2), f2(1/2) and the
    two sides of (56) at p = (sqrt3 - 1)/2 against their closed forms."""
    row = transfer.grid_report(P_AT_K3, P_AT_K3, 1.0).rows[0]
    pairs = (
        (f3(0.5), F3_AT_HALF_40),
        (math.pi / 2.0 * f2((2.0 - math.sqrt(3.0)) / 4.0), K_AT_K3_40),
        (f2(0.5), F2_AT_HALF_40),
        (row.lhs56, SIDES56_AT_K3_40),
        (row.rhs56, SIDES56_AT_K3_40),
    )
    return [float(abs(Fraction(value) - Fraction(c)) / Fraction(c)) for value, c in pairs]


def test_kernels_meet_the_singular_value_anchors():
    # Measured 7.3e-17, 3.1e-17, 2.2e-19, 2.9e-17 and 2.9e-17; math.gamma's
    # F2(1/2) is 3.8e-16 low, so the constants are mpmath's.
    assert max(_anchor_errors()) <= 3e-16


def test_the_anchors_see_a_bias_the_transfer_identities_cannot(monkeypatch):
    # A factor common to agm and agm3 scales both sides of (56) alike.
    agm_, agm3_ = hypergeom.agm, hypergeom.agm3
    monkeypatch.setattr(hypergeom, "agm", lambda a, b: agm_(a, b) * (1.0 + 1e-13))
    monkeypatch.setattr(hypergeom, "agm3", lambda a, b: agm3_(a, b) * (1.0 + 1e-13))
    assert min(_anchor_errors()) >= 5e-14
    assert transfer.grid_report(P_AT_K3, P_AT_K3, 1.0).max_relerr["56"] <= 3e-16


def test_agm_rejects_nonpositive_input():
    bad = (0.0, 1.0), (1.0, -2.0), (1.0, -0.0), (-1.0, -1.0), (math.inf, 1.0), (1.0, math.inf), (
        math.inf, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)
    for mean in (agm, agm3):
        for a, b in bad:
            with pytest.raises(DomainError):
                mean(a, b)


def test_agm_nonconvergence_budget(monkeypatch):
    monkeypatch.setattr(hypergeom, "AGM_MAX_ITERS", 1)
    with pytest.raises(NonConvergence):
        agm(1.0, 1e-9)


positive = st.floats(min_value=1e-3, max_value=1e3)


@given(a=positive, b=positive)
@settings(max_examples=60, deadline=None)
def test_agm_symmetry_and_bounds(a, b):
    value = agm(a, b)
    assert agm(b, a) == value
    assert min(a, b) <= value <= max(a, b)


@given(a=positive, b=positive)
@settings(max_examples=40, deadline=None)
def test_agm_homogeneity(a, b):
    base = agm(a, b)
    for c in (2.0, 10.0):
        assert rel_err(agm(c * a, c * b), c * base) < 1e-14


def test_agm3_fixed_point_is_exact():
    assert agm3(1.0, 1.0) == 1.0


def test_agm3_spot_value_against_series():
    # 1/agm3(1, 1/2) = F(1/3, 2/3; 1; 7/8).
    value = 1.0 / agm3(1.0, 0.5)
    assert rel_err(value, F3_AT_7_8) < 1e-14
    oracle = float(hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(7, 8)))
    assert rel_err(value, oracle) < 1e-14


# s >= 0.22 keeps 1 - s^3 <= 0.99, inside the series oracle's good range.
@given(s=st.floats(min_value=0.22, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_agm3_inverts_the_cubic_kernel(s):
    lhs = 1.0 / agm3(1.0, s)
    rhs = hyp2f1_series(*F3_PARAMS, 1.0 - s ** 3)
    assert rel_err(lhs, rhs) < 1e-12


def test_agm3_nonconvergence_budget(monkeypatch):
    monkeypatch.setattr(hypergeom, "AGM_MAX_ITERS", 1)
    with pytest.raises(NonConvergence):
        agm3(1.0, 0.01)


# Just below each stop, eps = (1 - 2^-23) times the threshold, the mean is
# returned at once, exactly, and its whole error is the truncation:
# eps^2/16 <= 2^-56 for agm, (2/243) eps^3 <= 2^-57.9 for agm3.
EPS2 = 2.0 ** -26 - 2.0 ** -49
EPS3 = 2.0 ** -17 - 2.0 ** -40


@pytest.mark.parametrize("a,b", [(1.0, 1.0 - EPS2), (1.0 - EPS2, 1.0), (1.0, 1.0 + EPS2)])
def test_agm_truncation_bound_at_its_worst(a, b):
    assert abs(a - b) <= hypergeom.AGM_STOP * a
    got = agm(a, b)
    assert Fraction(got) == (Fraction(a) + Fraction(b)) / 2
    limit = agm_decimal(Decimal(a), Decimal(b))
    err = abs(Decimal(got) - limit) / limit
    assert 0.999 * 2.0 ** -56 <= err <= 2.0 ** -56


@pytest.mark.parametrize("a,b", [(3.0, 3.0 - 3.0 * EPS3), (3.0, 3.0 + 3.0 * EPS3)])
def test_agm3_truncation_bound_at_its_worst(a, b):
    assert abs(a - b) <= hypergeom.AGM3_STOP * a
    got = agm3(a, b)
    assert Fraction(got) == (Fraction(a) + 2 * Fraction(b)) / 3
    limit = agm3_decimal(Decimal(a), Decimal(b))
    err = abs(Decimal(got) - limit) / limit
    assert 2.0 ** -58 <= err <= 2.0 ** -57.9


# The smallest AGM_MAX_ITERS that each computation runs in: one stop test per
# step plus the final one.  Each stop is the first at which the mean is its
# limit, so a budget one smaller fails.  The window's corner (2^339, 2^-1008)
# takes the docstrings' maxima, 12 agm and 8 agm3 steps, and (1, 2^-669)
# takes 11 and 7; so do the pairs one float inside each edge.
BELOW_SUM_MAX = math.nextafter(2.0 ** 340, 0.0)
ABOVE_PRODUCT_MIN = math.nextafter(2.0 ** -670, 1.0)


@pytest.mark.parametrize("budget,compute", [
    (7, lambda: transfer.grid_report(0.001, 0.999, 0.001)),
    (4, lambda: f2_complement(0.5)),
    (3, lambda: f3_complement(0.5)),
    pytest.param(13, lambda: agm(2.0 ** 339, 2.0 ** -1008), id="agm-corner"),
    pytest.param(9, lambda: agm3(2.0 ** 339, 2.0 ** -1008), id="agm3-corner"),
    pytest.param(12, lambda: agm(1.0, 2.0 ** -669), id="agm-product"),
    pytest.param(8, lambda: agm3(1.0, 2.0 ** -669), id="agm3-product"),
    pytest.param(13, lambda: agm(BELOW_SUM_MAX, 2.0 ** -1008), id="agm-sum-edge"),
    pytest.param(9, lambda: agm3(BELOW_SUM_MAX, 2.0 ** -1008), id="agm3-sum-edge"),
    pytest.param(12, lambda: agm(1.0, ABOVE_PRODUCT_MIN), id="agm-product-edge"),
    pytest.param(8, lambda: agm3(1.0, ABOVE_PRODUCT_MIN), id="agm3-product-edge"),
])
def test_agm_step_counts(monkeypatch, budget, compute):
    monkeypatch.setattr(hypergeom, "AGM_MAX_ITERS", budget)
    compute()
    monkeypatch.setattr(hypergeom, "AGM_MAX_ITERS", budget - 1)
    with pytest.raises(NonConvergence):
        compute()


TINY = 5e-324
HUGE = 1.7976931348623157e308
WINDOW = r"a0 b0 > 2\^-670 and a0 \+ b0 < 2\^340"


@pytest.mark.parametrize("a,b", [
    (1e308, 1e308), (1e308, 1.0), (1.0, 1e308), (1.0, TINY), (TINY, 1.0),
    (HUGE, TINY), (TINY, HUGE), (TINY, TINY), (HUGE, HUGE), (1e-300, 3e-310),
    (1.0, 1e-300), (1.0, 2.0 ** -670), (2.0 ** 340, 1.0),
])
def test_agm_refuses_every_pair_outside_the_window(a, b):
    # Each pair's product is at most 2^-670 or its sum at least 2^340, and
    # the error names the window.  The last two are one float across its
    # edges, whose neighbours inside are held by test_agm_step_counts.
    for mean in (agm, agm3):
        with pytest.raises(DomainError, match=WINDOW):
            mean(a, b)


def test_no_kernel_reaches_the_refusal(capsys):
    # Every pair the package forms lies in the window: the smallest,
    # (1, sqrt(5e-324)) with product 2.2e-162, is far above 2^-670, and no
    # argument exceeds 1.  sig3 eval accepts x < 1, so 1 - x >= 2^-53.
    for y in (TINY, 2.0 ** -1022, 1e-300, 0.5, 1.0):
        f2_complement(y)
        f3_complement(y)
    half_periods_sig3(ModulusSet(1e-160))  # kappa^2 is subnormal
    for fn, x in itertools.product(("f2", "f3"), (0.0, TINY, 0.5, 1.0 - 2.0 ** -53)):
        assert cli.main(["eval", fn, repr(x)]) == 0, (fn, x)
    assert capsys.readouterr().err == ""
    transfer.grid_report(0.001, 0.999, 0.001)
    for kappa in (1e-100, 1.0 - 2.0 ** -53):
        period_route_gap(DeltaContext(modulus_from_kappa(kappa)))


# 40-digit check of f3_complement on seeded y plus twelve that moved by 2 ulp
# when the cubic stop went from |a - b| <= 1e-15 a to 2^-17 a.  The worst of
# these 212 inputs sits 2.7 ulp from its value, before that change and after.
F3_TWO_ULP_MOVERS = (
    0.061543718163384886, 0.07196013814736191, 0.08091153535649376,
    0.11364327344440706, 0.5795329489359988, 0.13030837876844392,
    1.589668745789999e-168, 1.2588693653532356e-159, 5.714819746942602e-175,
    1.6052173235099384e-98, 3.6873368495522134e-90, 2.2943373600936924e-189,
)


def test_f3_complement_against_40_digit_values():
    # The decimal route is pinned to the exact Gauss series at y = 1/8.
    exact = hyp2f1_exact(THIRD, TWO_THIRDS, ONE, Fraction(7, 8), tol=Fraction(1, 10 ** 30))
    assert abs(f3_complement_decimal(0.125) - Decimal(exact.numerator) / exact.denominator) <= Decimal("1e-28")
    rng = random.Random(19)
    ys = F3_TWO_ULP_MOVERS + tuple(1.0 - rng.random() for _ in range(100)) + tuple(
        10.0 ** rng.uniform(-300.0, 0.0) for _ in range(100))
    for y in ys:
        got = f3_complement(y)
        assert abs(Decimal(got) - f3_complement_decimal(y)) <= Decimal(3 * math.ulp(got)), y


def test_cbrt_keeps_its_digits_on_subnormals():
    # pow(x, 1/3) misses a subnormal's cube root by ln(x) (1/3 - fl(1/3)),
    # ~1.4e-14, and y^3 on the subnormal grid cannot polish it back; the
    # exact prescale into the normal range can.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(23)
    xs = (5e-324, 1.5e-323, 3.3e-320) + tuple(
        rng.randrange(1, 2 ** rng.randint(1, 52)) * 5e-324 for _ in range(500))
    with mpmath.workdps(40):
        for x in xs:
            ref = mpmath.cbrt(mpmath.mpf(x))
            assert abs(mpmath.mpf(hypergeom._cbrt(x)) - ref) <= 2.0 ** -52 * ref, x


def test_cbrt_is_within_one_ulp_and_mostly_nearest():
    # y is the nearest float when x lies between the cubes of the midpoints
    # to y's two neighbours, and within one ulp when it lies between the
    # neighbours' own cubes.  Measured: never more than one ulp off, and
    # not the nearest float for 1,106 of the 10,000 x.
    rng = random.Random(29)
    not_nearest = 0
    for _ in range(10_000):
        x = 2.0 ** rng.uniform(-1022.0, 1023.0)
        y = hypergeom._cbrt(x)
        exact = Fraction(x)
        low, mid, high = (Fraction(t) for t in (math.nextafter(y, 0.0), y, math.nextafter(y, math.inf)))
        if not (low + mid) ** 3 <= 8 * exact <= (high + mid) ** 3:
            not_nearest += 1
            assert low ** 3 < exact < high ** 3, x
    assert not_nearest <= 1_500
