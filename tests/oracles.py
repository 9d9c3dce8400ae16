"""Independent oracles used to pin expected values in the tests.

Nothing here touches the package's own evaluation paths: the series oracles
run in exact rational and in compensated float arithmetic, the AGM oracle in
50-digit decimal, and the sn oracle integrates the Jacobi differential
system directly.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)
ONE = Fraction(1)


def hyp2f1_exact(a: Fraction, b: Fraction, c: Fraction, x: Fraction,
                 tol: Fraction = Fraction(1, 10 ** 25)) -> Fraction:
    """Gauss series in exact rational arithmetic, truncated below ``tol``."""
    term = ONE
    total = ONE
    n = 0
    while True:
        term *= (a + n) * (b + n) * x / ((c + n) * (1 + n))
        total += term
        n += 1
        if abs(term) < tol * total:
            return total
        if n > 20_000:
            raise RuntimeError("exact series did not converge")


def hyp2f1_series(a: float, b: float, c: float, x: float,
                  rel_tol: float = 1e-15, max_terms: int = 100_000) -> float:
    """Gauss series sum_n (a)_n (b)_n / ((c)_n n!) x^n in floats, for x in [0, 1).

    Terms follow the recurrence t_{n+1} = t_n (a+n)(b+n) x / ((c+n)(1+n))
    and are summed with Kahan compensation.  The sum stops at the first
    term below ``rel_tol`` times the partial sum; for x > 0.9 two
    consecutive such terms are required, guarding slow tails.  Raises
    ValueError outside [0, 1) and ArithmeticError once ``max_terms`` runs out.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"series argument must lie in [0, 1), got {x}")
    need_below = 2 if x > 0.9 else 1
    below = 0
    term = total = 1.0
    comp = 0.0
    for n in range(max_terms):
        term *= (a + n) * (b + n) * x / ((c + n) * (1.0 + n))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= rel_tol * abs(total):
            below += 1
            if below >= need_below:
                return total
        else:
            below = 0
    raise ArithmeticError(f"series not converged within {max_terms} terms at x={x}")


def agm_decimal(a: Decimal, b: Decimal, digits: int = 50) -> Decimal:
    """Plain AGM iteration carried out in ``digits``-digit decimal."""
    getcontext().prec = digits
    for _ in range(digits):
        if a == b:
            break
        a, b = (a + b) / 2, (a * b).sqrt()
    return (a + b) / 2


def jacobi_sn_ode(u: float, k: float, steps: int = 20_000) -> float:
    """sn(u, k) by RK4 on the system s' = c d, c' = -s d, d' = -k^2 s c."""
    m = k * k

    def rhs(state):
        s, c, d = state
        return (c * d, -s * d, -m * s * c)

    h = u / steps
    state = (0.0, 1.0, 1.0)
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(tuple(y + 0.5 * h * dy for y, dy in zip(state, k1)))
        k3 = rhs(tuple(y + 0.5 * h * dy for y, dy in zip(state, k2)))
        k4 = rhs(tuple(y + h * dy for y, dy in zip(state, k3)))
        state = tuple(
            y + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
            for y, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
    return state[0]


def richardson_diff(f, x: float, h: float = 1e-6) -> float:
    """Richardson-extrapolated central difference of f at x."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
