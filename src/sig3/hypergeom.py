"""Gauss hypergeometric specializations, by AGM and by closed form.

Three specializations of F(a, b; c; x) carry the whole package:

* ``f2``     -- F(1/2, 1/2; 1; x), the classical complete-elliptic-integral
  kernel, evaluated through the quadratic arithmetic-geometric mean.
* ``f3``     -- F(1/3, 2/3; 1; x), its signature-three counterpart,
  evaluated through the cubically convergent AGM variant.
* ``f_half`` -- F(1/3, 2/3; 1/2; x), the integrand kernel of the delta
  function, evaluated in closed form: with x = sin^2 z,

      F(1/3, 2/3; 1/2; sin^2 z) = cos(z/3) / cos z

  (DLMF 15.4.12 with a = 1/3), exact on all of [0, 1).

Each AGM stops at the step whose mean already is its limit to within
2^-56 relative: with eps = |a - b|/a, the quadratic mean (a + b)/2 sits
eps^2/16 from the limit and the cubic mean (a + 2b)/3 sits (2/243) eps^3
from it, so ``AGM_STOP`` and ``AGM3_STOP`` are one threshold per order of
convergence, reached within ``AGM_MAX_ITERS`` steps.  Every finite positive
pair gets a finite answer: the iteration runs unscaled on the pairs whose
products and sums stay normal (all the kernels' pairs), and on any other
pair after an exact power-of-two prescale.  Every routine is a pure,
bit-deterministic function of its arguments.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergence

AGM_STOP = 2.0 ** -26  # eps^2/16 <= 2^-56
AGM3_STOP = 2.0 ** -17  # (2/243) eps^3 <= 2^-57.9
AGM_MAX_ITERS = 64

# The unscaled window a0 b0 > 2^-670, a0 + b0 < 2^340 keeps every product
# either mean forms normal and finite: agm's a b never falls below a0 b0,
# agm3's b (a^2 + ab + b^2)/3 stays above (a0 b0)^1.5 / 27, and no iterate
# exceeds 2^340.  A pair whose binary exponents differ by at most _SPAN
# lands inside it once its geometric mean is scaled to ~1; a wider pair
# first takes steps in a form that cannot overflow.
_PRODUCT_MIN = 2.0 ** -670
_SUM_MAX = 2.0 ** 340
_SPAN = 670


def _rescaled(mean, wide_step, a0: float, b0: float) -> float:
    """mean(a0, b0) for a pair outside the unscaled window.

    Refuses a non-finite or nonpositive pair.  A pair spanning more than
    2^_SPAN takes ``wide_step`` (which narrows the span to at most its
    square root); a narrower one is scaled by the power of two that brings
    its geometric mean to ~1, exactly, so mean(2^k a, 2^k b) = 2^k mean(a, b)
    wherever both pairs are scaled.
    """
    if not (0.0 < a0 < math.inf and 0.0 < b0 < math.inf):
        raise DomainError(f"{mean.__name__} needs finite positive arguments, got ({a0}, {b0})")
    ea, eb = math.frexp(a0)[1], math.frexp(b0)[1]
    if abs(ea - eb) > _SPAN:
        return mean(*wide_step(a0, b0))
    shift = (ea + eb) // 2
    return math.ldexp(mean(math.ldexp(a0, -shift), math.ldexp(b0, -shift)), shift)


def _agm_wide_step(a: float, b: float) -> tuple[float, float]:
    return 0.5 * a + 0.5 * b, math.sqrt(a) * math.sqrt(b)


def agm(a0: float, b0: float) -> float:
    """Common limit of a' = (a+b)/2, b' = sqrt(ab), for finite a0, b0 > 0.

    With eps = |a - b|/a the limit is (a + b)/2 - (eps^2/16)(1 + O(eps)) a,
    so once eps <= ``AGM_STOP`` = 2^-26 the mean (a + b)/2 is returned,
    2^-56 (an eighth of an ulp) from the limit.  Quadratic convergence
    gets there in at most 12 steps from any pair in the unscaled window,
    far inside the ``AGM_MAX_ITERS`` cap.
    """
    if not (a0 > 0.0 and a0 * b0 > _PRODUCT_MIN and a0 + b0 < _SUM_MAX):
        return _rescaled(agm, _agm_wide_step, a0, b0)
    a, b = a0, b0
    for _ in range(AGM_MAX_ITERS):
        if abs(a - b) <= AGM_STOP * a:
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise NonConvergence(f"agm({a0}, {b0}) not converged in {AGM_MAX_ITERS} iterations")


def _cbrt(x: float) -> float:
    # One Newton polish recovers the ulp lost by pow(x, 1/3).
    if x == 0.0:
        return 0.0
    y = x ** (1.0 / 3.0)
    return y - (y * y * y - x) / (3.0 * y * y)


def _agm3_wide_step(a: float, b: float) -> tuple[float, float]:
    # Past a span of 2^670 the smaller argument is below an ulp of the
    # larger in a + 2b and in a^2 + ab + b^2, which leaves m^2, m = max(a, b).
    # b and m are scaled by powers of 8 into [1/2, 4) so that nothing in
    # (b m^2 / 3)^(1/3) overflows or goes subnormal.
    m = max(a, b)
    i, j = math.frexp(b)[1] // 3, math.frexp(m)[1] // 3
    x = math.ldexp(b, -3 * i) * math.ldexp(m, -3 * j) ** 2 / 3.0
    return a / 3.0 + b / 1.5, math.ldexp(_cbrt(x), i + 2 * j)


def agm3(a0: float, b0: float) -> float:
    """Cubic AGM: common limit of a' = (a+2b)/3, b' = (b(a^2+ab+b^2)/3)^(1/3).

    Its limit inverts the signature-three kernel through
    ``1/agm3(1, s) = F(1/3, 2/3; 1; 1 - s^3)``.  Since
    a'^3 - b'^3 = (a - b)^3/27 exactly, the gap shrinks to eps^3/81 in one
    step, with eps = |a - b|/a, and the limit lies (2/243) eps^3 (1 + O(eps)) a
    from (a + 2b)/3.  So once eps <= ``AGM3_STOP`` = 2^-17 the mean
    (a + 2b)/3 is returned, 2^-57.9 from the limit, after at most 8 steps
    from any pair in the unscaled window.  For finite a0, b0 > 0.
    """
    if not (a0 > 0.0 and a0 * b0 > _PRODUCT_MIN and a0 + b0 < _SUM_MAX):
        return _rescaled(agm3, _agm3_wide_step, a0, b0)
    a, b = a0, b0
    for _ in range(AGM_MAX_ITERS):
        if abs(a - b) <= AGM3_STOP * a:
            return (a + 2.0 * b) / 3.0
        a, b = (a + 2.0 * b) / 3.0, _cbrt(b * (a * a + a * b + b * b) / 3.0)
    raise NonConvergence(f"agm3({a0}, {b0}) not converged in {AGM_MAX_ITERS} iterations")


def f2_complement(y: float) -> float:
    """F(1/2, 1/2; 1; 1 - y) for y in (0, 1], computed as 1/agm(1, sqrt(y)).

    Passing y itself keeps the digits of a small y, which 1 - x would lose.
    """
    if not 0.0 < y <= 1.0:
        raise DomainError(f"f2 complement must lie in (0, 1], got {y}")
    return 1.0 / agm(1.0, math.sqrt(y))


def f3_complement(y: float) -> float:
    """F(1/3, 2/3; 1; 1 - y) for y in (0, 1], computed as 1/agm3(1, y^(1/3))."""
    if not 0.0 < y <= 1.0:
        raise DomainError(f"f3 complement must lie in (0, 1], got {y}")
    return 1.0 / agm3(1.0, _cbrt(y))


def f2(x: float) -> float:
    """F(1/2, 1/2; 1; x) for x in [0, 1), computed as f2_complement(1 - x).

    The AGM route stays accurate arbitrarily close to the logarithmic
    singularity at x = 1, where the power series stalls.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"f2 argument must lie in [0, 1), got {x}")
    return f2_complement(1.0 - x)


def f3(x: float) -> float:
    """F(1/3, 2/3; 1; x) for x in [0, 1), computed as f3_complement(1 - x)."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"f3 argument must lie in [0, 1), got {x}")
    return f3_complement(1.0 - x)


def f_half(x: float) -> float:
    """F(1/3, 2/3; 1/2; x) = cos(z/3)/cos z at x = sin^2 z, for x in [0, 1).

    Grows like (1-x)^(-1/2) toward the singularity at x = 1; the closed
    form keeps full relative accuracy all the way up to it: 1 - x is exact
    for x >= 1/2, and atan2 needs no clamping where asin would.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"f_half argument must lie in [0, 1), got {x}")
    cos_z = math.sqrt(1.0 - x)
    return math.cos(math.atan2(math.sqrt(x), cos_z) / 3.0) / cos_z
