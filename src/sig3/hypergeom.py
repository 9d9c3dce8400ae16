"""Gauss hypergeometric specializations and their AGM accelerators.

Three specializations of F(a, b; c; x) carry the whole package:

* ``f2``     -- F(1/2, 1/2; 1; x), the classical complete-elliptic-integral
  kernel, evaluated through the quadratic arithmetic-geometric mean.
* ``f3``     -- F(1/3, 2/3; 1; x), its signature-three counterpart,
  evaluated through the cubically convergent AGM variant.
* ``f_half`` -- F(1/3, 2/3; 1/2; x), the integrand kernel of the delta
  function, evaluated by direct power series.

The plain power series ``gauss_2f1_series`` doubles as the reference
oracle for all three: the AGM routes must reproduce it on [0, 0.99].
Every routine is a pure function of its arguments and is bit-deterministic
for a fixed :class:`EvalConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergence

__all__ = [
    "EvalConfig",
    "HyperTriple",
    "DEFAULT_CONFIG",
    "F2_PARAMS",
    "F3_PARAMS",
    "F_HALF_PARAMS",
    "F_HALF_DERIV_PARAMS",
    "gauss_2f1_series",
    "f2",
    "f3",
    "f2_complement",
    "f3_complement",
    "f_half",
    "f_half_deriv",
    "agm",
    "agm3",
]


@dataclass(frozen=True)
class EvalConfig:
    """Numeric knobs shared by series and AGM evaluators.

    rel_tol is a relative stopping tolerance, max_terms caps the power
    series, max_iters caps AGM-type iterations.
    """

    rel_tol: float = 1e-15
    max_terms: int = 100_000
    max_iters: int = 64

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class HyperTriple:
    """Parameter triple (a, b, c) of the Gauss series F(a, b; c; x)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        # c = 0, -1, -2, ... makes every denominator Pochhammer vanish.
        if self.c <= 0.0 and self.c == int(self.c):
            raise DomainError(f"c must not be zero or a negative integer, got {self.c}")


F2_PARAMS = HyperTriple(0.5, 0.5, 1.0)
F3_PARAMS = HyperTriple(1.0 / 3.0, 2.0 / 3.0, 1.0)
F_HALF_PARAMS = HyperTriple(1.0 / 3.0, 2.0 / 3.0, 0.5)
# Contiguous shift for d/dx F(1/3,2/3;1/2;x) = (4/9) F(4/3,5/3;3/2;x).
F_HALF_DERIV_PARAMS = HyperTriple(4.0 / 3.0, 5.0 / 3.0, 1.5)


def gauss_2f1_series(params: HyperTriple, x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Sum the Gauss series sum_n (a)_n (b)_n / ((c)_n n!) x^n for x in [0, 1).

    Terms are built by the multiplicative recurrence
    ``t_{n+1} = t_n (a+n)(b+n) x / ((c+n)(1+n))`` (never factorial ratios)
    and accumulated with compensated summation.  The sum stops at the first
    term below ``rel_tol`` times the partial sum; for x > 0.9 two
    consecutive below-threshold terms are required, guarding slow tails.

    Raises DomainError for x outside [0, 1) and NonConvergence when
    ``max_terms`` is exhausted first.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"series argument must lie in [0, 1), got {x}")
    a, b, c = params.a, params.b, params.c
    need_below = 2 if x > 0.9 else 1
    below = 0
    term = 1.0
    total = 1.0
    comp = 0.0  # Kahan compensation
    for n in range(config.max_terms):
        term *= (a + n) * (b + n) * x / ((c + n) * (1.0 + n))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= config.rel_tol * abs(total):
            below += 1
            if below >= need_below:
                return total
        else:
            below = 0
    raise NonConvergence(
        f"2F1 series did not meet rel_tol={config.rel_tol} within "
        f"{config.max_terms} terms at x={x}"
    )


def agm(a0: float, b0: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Common limit of a' = (a+b)/2, b' = sqrt(ab), for a0, b0 > 0.

    Stops when ``|a - b| <= rel_tol * a``; quadratic convergence makes the
    ``max_iters`` cap generous even for ratios as extreme as 1e300.
    """
    if not (a0 > 0.0 and b0 > 0.0):
        raise DomainError(f"agm needs positive arguments, got ({a0}, {b0})")
    a, b = a0, b0
    for _ in range(config.max_iters):
        if abs(a - b) <= config.rel_tol * a:
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise NonConvergence(f"agm({a0}, {b0}) not converged in {config.max_iters} iterations")


def _cbrt(x: float) -> float:
    # One Newton polish recovers the ulp lost by pow(x, 1/3).
    if x == 0.0:
        return 0.0
    y = x ** (1.0 / 3.0)
    return y - (y * y * y - x) / (3.0 * y * y)


def agm3(a0: float, b0: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Cubic AGM: common limit of a' = (a+2b)/3, b' = (b(a^2+ab+b^2)/3)^(1/3).

    Its limit inverts the signature-three kernel through
    ``1/agm3(1, s) = F(1/3, 2/3; 1; 1 - s^3)``.
    """
    if not (a0 > 0.0 and b0 > 0.0):
        raise DomainError(f"agm3 needs positive arguments, got ({a0}, {b0})")
    a, b = a0, b0
    for _ in range(config.max_iters):
        if abs(a - b) <= config.rel_tol * a:
            return (a + 2.0 * b) / 3.0
        a, b = (a + 2.0 * b) / 3.0, _cbrt(b * (a * a + a * b + b * b) / 3.0)
    raise NonConvergence(f"agm3({a0}, {b0}) not converged in {config.max_iters} iterations")


def f2_complement(y: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F(1/2, 1/2; 1; 1 - y) for y in (0, 1], computed as 1/agm(1, sqrt(y)).

    Passing y itself keeps the digits of a small y, which 1 - x would lose.
    """
    if not 0.0 < y <= 1.0:
        raise DomainError(f"f2 complement must lie in (0, 1], got {y}")
    return 1.0 / agm(1.0, math.sqrt(y), config)


def f3_complement(y: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F(1/3, 2/3; 1; 1 - y) for y in (0, 1], computed as 1/agm3(1, y^(1/3))."""
    if not 0.0 < y <= 1.0:
        raise DomainError(f"f3 complement must lie in (0, 1], got {y}")
    return 1.0 / agm3(1.0, _cbrt(y), config)


def f2(x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F(1/2, 1/2; 1; x) for x in [0, 1), computed as f2_complement(1 - x).

    The AGM route stays accurate arbitrarily close to the logarithmic
    singularity at x = 1, where the power series stalls.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"f2 argument must lie in [0, 1), got {x}")
    return f2_complement(1.0 - x, config)


def f3(x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F(1/3, 2/3; 1; x) for x in [0, 1), computed as f3_complement(1 - x)."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"f3 argument must lie in [0, 1), got {x}")
    return f3_complement(1.0 - x, config)


def f_half(x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F(1/3, 2/3; 1/2; x) by series; diverges like (1-x)^(-1/2) at x = 1.

    No transformation is applied near the singularity: keep x <= 0.9801
    (modulus kappa <= 0.99).  Closer to 1 the series raises NonConvergence
    rather than returning a silently degraded value.
    """
    return gauss_2f1_series(F_HALF_PARAMS, x, config)


def f_half_deriv(x: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """d/dx F(1/3, 2/3; 1/2; x) = (4/9) F(4/3, 5/3; 3/2; x)."""
    return (4.0 / 9.0) * gauss_2f1_series(F_HALF_DERIV_PARAMS, x, config)
