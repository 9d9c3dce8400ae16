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

Both AGM iterations stop at relative tolerance ``AGM_REL_TOL`` within
``AGM_MAX_ITERS`` steps.  Every routine is a pure, bit-deterministic
function of its arguments.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergence

AGM_REL_TOL = 1e-15
AGM_MAX_ITERS = 64


def agm(a0: float, b0: float) -> float:
    """Common limit of a' = (a+b)/2, b' = sqrt(ab), for a0, b0 > 0.

    Stops when ``|a - b| <= AGM_REL_TOL * a``; quadratic convergence makes
    the ``AGM_MAX_ITERS`` cap generous even for ratios as extreme as 1e300.
    """
    if not (a0 > 0.0 and b0 > 0.0):
        raise DomainError(f"agm needs positive arguments, got ({a0}, {b0})")
    a, b = a0, b0
    for _ in range(AGM_MAX_ITERS):
        if abs(a - b) <= AGM_REL_TOL * a:
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise NonConvergence(f"agm({a0}, {b0}) not converged in {AGM_MAX_ITERS} iterations")


def _cbrt(x: float) -> float:
    # One Newton polish recovers the ulp lost by pow(x, 1/3).
    if x == 0.0:
        return 0.0
    y = x ** (1.0 / 3.0)
    return y - (y * y * y - x) / (3.0 * y * y)


def agm3(a0: float, b0: float) -> float:
    """Cubic AGM: common limit of a' = (a+2b)/3, b' = (b(a^2+ab+b^2)/3)^(1/3).

    Its limit inverts the signature-three kernel through
    ``1/agm3(1, s) = F(1/3, 2/3; 1; 1 - s^3)``.
    """
    if not (a0 > 0.0 and b0 > 0.0):
        raise DomainError(f"agm3 needs positive arguments, got ({a0}, {b0})")
    a, b = a0, b0
    for _ in range(AGM_MAX_ITERS):
        if abs(a - b) <= AGM_REL_TOL * a:
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
