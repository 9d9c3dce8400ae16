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
convergence, reached within ``AGM_MAX_ITERS`` steps.  Both means answer the
pairs of one window, a0 > 0, a0 b0 > 2^-670 and a0 + b0 < 2^340, where
every product and sum they form stays normal and finite, and refuse any
other pair with ``DomainError``.  Every pair the kernels form lies inside
it: the smallest, (1, sqrt(5e-324)), has product ~2.2e-162, and no
argument exceeds 1.  Every routine is a pure, bit-deterministic function
of its arguments.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergence

AGM_STOP = 2.0 ** -26  # eps^2/16 <= 2^-56
AGM3_STOP = 2.0 ** -17  # (2/243) eps^3 <= 2^-57.9
AGM_MAX_ITERS = 64

# The window a0 b0 > 2^-670, a0 + b0 < 2^340 keeps every product either
# mean forms normal and finite: agm's a b never falls below a0 b0, agm3's
# b (a^2 + ab + b^2)/3 stays above (a0 b0)^1.5 / 27, and no iterate
# exceeds 2^340.
_PRODUCT_MIN = 2.0 ** -670
_SUM_MAX = 2.0 ** 340


def agm(a0: float, b0: float) -> float:
    """Common limit of a' = (a+b)/2, b' = sqrt(ab), for a pair in the window
    a0 > 0, a0 b0 > 2^-670, a0 + b0 < 2^340; any other pair, infinities and
    NaN included, raises ``DomainError``.

    With eps = |a - b|/a the limit is (a + b)/2 - (eps^2/16)(1 + O(eps)) a,
    so once eps <= ``AGM_STOP`` = 2^-26 the mean (a + b)/2 is returned,
    2^-56 (an eighth of an ulp) from the limit.  Quadratic convergence
    gets there in at most 12 steps from any pair in the window, far inside
    the ``AGM_MAX_ITERS`` cap.
    """
    if not (a0 > 0.0 and a0 * b0 > _PRODUCT_MIN and a0 + b0 < _SUM_MAX):
        raise DomainError(f"agm needs a0 > 0, a0 b0 > 2^-670 and a0 + b0 < 2^340, got ({a0}, {b0})")
    a, b = a0, b0
    for _ in range(AGM_MAX_ITERS):
        if abs(a - b) <= AGM_STOP * a:
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise NonConvergence(f"agm({a0}, {b0}) not converged in {AGM_MAX_ITERS} iterations")


def _cbrt(x: float) -> float:
    # For x > 0, which every caller passes.  One Newton polish recovers the
    # ulp lost by pow(x, 1/3).  A subnormal x is scaled by 2^192 = (2^64)^3
    # into the normal range first, exactly, so y^3 keeps its digits.  Not
    # math.cbrt: it needs Python 3.11, and glibc's was more than one ulp off
    # for 2,185 of 10,000 normal x, where this never was (tests/test_hypergeom.py).
    if x < 2.0 ** -1022:
        return _cbrt(x * 2.0 ** 192) * 2.0 ** -64
    y = x ** (1.0 / 3.0)
    return y - (y * y * y - x) / (3.0 * y * y)


def agm3(a0: float, b0: float) -> float:
    """Cubic AGM: common limit of a' = (a+2b)/3, b' = (b(a^2+ab+b^2)/3)^(1/3).

    Its limit inverts the signature-three kernel through
    ``1/agm3(1, s) = F(1/3, 2/3; 1; 1 - s^3)``.  Since
    a'^3 - b'^3 = (a - b)^3/27 exactly, the gap shrinks to eps^3/81 in one
    step, with eps = |a - b|/a, and the limit lies (2/243) eps^3 (1 + O(eps)) a
    from (a + 2b)/3.  So once eps <= ``AGM3_STOP`` = 2^-17 the mean
    (a + 2b)/3 is returned, 2^-57.9 from the limit, after at most 8 steps.
    For a pair in ``agm``'s window, a0 > 0, a0 b0 > 2^-670, a0 + b0 < 2^340;
    any other pair raises ``DomainError``.
    """
    if not (a0 > 0.0 and a0 * b0 > _PRODUCT_MIN and a0 + b0 < _SUM_MAX):
        raise DomainError(f"agm3 needs a0 > 0, a0 b0 > 2^-670 and a0 + b0 < 2^340, got ({a0}, {b0})")
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
