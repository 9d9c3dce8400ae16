"""Adaptive composite Gauss-Legendre quadrature (15-point panels).

A panel is accepted when it agrees with the sum of its two halves; the
halves of a rejected panel become the panels of its two children, so each
panel of the tree is evaluated exactly once.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NonConvergence

MAX_DEPTH = 40


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


def _adaptive(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left, right = _panel(f, a, mid), _panel(f, mid, b)
    split = left + right
    if abs(whole - split) <= tol:
        return split
    if depth >= MAX_DEPTH:
        raise NonConvergence(
            f"interval [{a}, {b}] not converged to {tol} within depth {MAX_DEPTH}"
        )
    tol, depth = 0.5 * tol, depth + 1
    return _adaptive(f, a, mid, left, tol, depth) + _adaptive(f, mid, b, right, tol, depth)


def integrate(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    Each panel is compared against its two halves; disagreeing panels are
    halved with the tolerance split between the children.  A node receives
    its own panel from its parent, which already evaluated it as a half, so
    every panel is evaluated once: 3 panels when the root is accepted, two
    more per split.  An empty interval integrates to 0.0.  Raises
    NonConvergence once the subdivision budget is exhausted.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol)
    return _adaptive(f, a, b, _panel(f, a, b), tol, 0)
