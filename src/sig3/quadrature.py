"""Adaptive composite Gauss-Legendre quadrature (15-point panels).

The error of an interval is estimated by how far its panel disagrees with
the sum of its two halves.  One error budget serves the whole integral:
the interval with the largest estimate is split until the estimates sum to
the tolerance, and the halves of a split interval become the panels of its
two children, so each panel is evaluated exactly once.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NonConvergence

# The budget of the subdivision: the partition holds at most this many
# intervals, which costs 4 MAX_INTERVALS - 1 panels.
MAX_INTERVALS = 250


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Each positive root of P_n is polished by Newton steps from the
    Tricomi estimate cos(pi (i + 3/4)/(n + 1/2)); the negative half is
    its mirror image, and an odd n gets the exact root 0.
    """
    half = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(8):  # quadratic convergence: 3-4 steps reach roundoff
            p, dp = _legendre(n, x)
            x -= p / dp
        dp = _legendre(n, x)[1]
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    middle = [(0.0, 2.0 / _legendre(n, 0.0)[1] ** 2)] if n % 2 else []
    pairs = [(-x, w) for x, w in half] + middle + [(x, w) for x, w in reversed(half)]
    return tuple(x for x, _ in pairs), tuple(w for _, w in pairs)


GAUSS_NODES, GAUSS_WEIGHTS = _gauss_legendre(15)


def _panel(f: Callable[[float], float], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    acc = 0.0
    for t, w in zip(GAUSS_NODES, GAUSS_WEIGHTS):
        acc += w * f(mid + half * t)
    return half * acc


def _halves(f, a, b, whole):
    """[a, b] with its two halves evaluated, as (error, a, mid, b, left,
    right): the estimate |whole - (left + right)| leads, so ``max`` picks
    the worst interval."""
    mid = 0.5 * (a + b)
    left, right = _panel(f, a, mid), _panel(f, mid, b)
    return abs(whole - (left + right)), a, mid, b, left, right


def integrate(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    Global error control, as QUADPACK's QAG does it: each interval of the
    partition carries its panel and the panels of its two halves, whose
    difference estimates its error.  While the summed estimate exceeds
    ``tol``, the interval with the largest estimate is split; its halves,
    already evaluated, become the panels of the two new intervals, so every
    panel is evaluated once: 3 panels when the first interval is accepted,
    4 more per split.  A non-finite estimate never counts as converged.
    An empty interval integrates to 0.0, and b < a to minus the integral
    over [b, a].  Raises NonConvergence, naming the interval and the error
    left, once the partition would grow past ``MAX_INTERVALS`` intervals.
    """
    if a == b:
        return 0.0
    parts = [_halves(f, a, b, _panel(f, a, b))]
    while not sum(part[0] for part in parts) <= tol:
        if len(parts) >= MAX_INTERVALS:
            raise NonConvergence(
                f"integral over [{a}, {b}] not converged to {tol} within MAX_INTERVALS = "
                f"{MAX_INTERVALS} intervals: estimated error {sum(part[0] for part in parts)} left"
            )
        worst = max(parts)
        parts.remove(worst)
        _, lo, mid, hi, left, right = worst
        parts += _halves(f, lo, mid, left), _halves(f, mid, hi, right)
    return math.fsum(part[4] + part[5] for part in parts)
