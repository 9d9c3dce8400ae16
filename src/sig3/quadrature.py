"""Adaptive Gauss-Kronrod quadrature on QUADPACK's 21-point rule (qk21).

The 21 Kronrod nodes hold the 10-point Gauss nodes as every other one, so
one evaluation of a panel gives both sums, and their difference, rescaled
as qk21 rescales it, estimates the panel's error (R. Piessens, E. de
Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner, QUADPACK, Springer 1983).
One error budget serves the whole integral: the interval with the largest
estimate is split until the estimates sum to the tolerance.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NonConvergence

# The budget of the subdivision: the partition holds at most this many
# intervals, which costs 2 MAX_INTERVALS - 1 panels.
MAX_INTERVALS = 250

# qk21 on [-1, 1]: (x, Kronrod weight, Gauss weight) for the positive nodes,
# descending; the Gauss weight is 0.0 where x is a Kronrod node only.  The
# centre x = 0 is a Kronrod node only, with weight KRONROD_CENTRE.
QK21 = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390, 0.066671344308688137593568809893332),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190, 0.149451349150580593145776339657697),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805, 0.219086362515982043995534934228163),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074, 0.0),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707, 0.269266719309996355091226921569469),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068, 0.295524224714752870173892994651338),
)
KRONROD_CENTRE = 0.149445554002916905664936468389821


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """[a, b] as (error, a, b, integral): the 21-point Kronrod sum K21 is the
    integral, and the error leads so that ``max`` picks the worst interval.
    The error is QUADPACK's qk21 estimate: |K21 - G10| rescaled by the
    panel's spread resasc = |half| sum wk |f - K21/2| over the 21 nodes to
    resasc min(1, (200 |K21 - G10| / resasc)^1.5), so it measures the
    Kronrod sum's error rather than the embedded Gauss sum's.  QUADPACK's
    floor at 50 eps resabs is left out: it is set by the size of the
    integrand, and ``integrate``'s tolerance is absolute.  Each of the 21
    nodes is evaluated once."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    centre = f(mid)
    pairs = [(f(mid - half * x), f(mid + half * x)) for x, _, _ in QK21]
    kronrod = KRONROD_CENTRE * centre
    gauss = 0.0
    for (_, wk, wg), (left, right) in zip(QK21, pairs):
        kronrod += wk * (left + right)
        gauss += wg * (left + right)
    mean = 0.5 * kronrod
    spread = KRONROD_CENTRE * abs(centre - mean)
    for (_, wk, _), (left, right) in zip(QK21, pairs):
        spread += wk * (abs(left - mean) + abs(right - mean))
    error = abs(kronrod - gauss)
    if spread and error:
        error = spread * min(1.0, (200.0 * error / spread) ** 1.5)
    return abs(half) * error, a, b, half * kronrod


def integrate(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    Global error control, as QUADPACK's QAG does it: each interval of the
    partition carries its 21-point Kronrod sum and ``_panel``'s estimate.
    While the summed estimate exceeds ``tol``, the interval with the largest
    estimate is replaced by its two halves, each evaluated once: 1 panel
    when the first interval is accepted, 2 more per split.  A non-finite
    estimate never counts as converged.  The estimate assumes an integrand
    smooth on each panel; at an endpoint singularity it can undershoot
    (t^-1/2 on [0, 1] at ``tol`` = 1e-13 returns 2 - 2.7e-15, within the
    tolerance).  The reference kernel of ``delta`` has no such singularity.
    An empty interval integrates to 0.0, and b < a to minus the integral
    over [b, a].  Raises NonConvergence, naming the interval and the error
    left, once the partition would grow past ``MAX_INTERVALS`` intervals.
    """
    if a == b:
        return 0.0
    parts = [_panel(f, a, b)]
    while not sum(part[0] for part in parts) <= tol:
        if len(parts) >= MAX_INTERVALS:
            raise NonConvergence(
                f"integral over [{a}, {b}] not converged to {tol} within MAX_INTERVALS = "
                f"{MAX_INTERVALS} intervals: estimated error {sum(part[0] for part in parts)} left"
            )
        worst = max(parts)
        parts.remove(worst)
        _, lo, hi, _ = worst
        mid = 0.5 * (lo + hi)
        parts += _panel(f, lo, mid), _panel(f, mid, hi)
    return math.fsum(part[3] for part in parts)
