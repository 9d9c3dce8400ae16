"""Independent oracles used to pin expected values in the tests.

Nothing here touches the package's own evaluation paths: the series oracles
run in exact rational and in compensated float arithmetic, the two AGM oracles
in 50-digit decimal, the sn oracle integrates the Jacobi differential system
directly, and the wp oracle sums the Laurent series of the invariants and
doubles its way back out.  ``sig3_invariants`` gives the paper's (g2, g3)
of a modulus, and ``exact_midpoints`` the midpoint values of its lattice at
any mpmath precision, with no root-finder.  ``toward_both_ends`` is the p
set that several tests walk to the edges of the transfer domain,
``search_worst`` finds the point of (0, 1) where a documented bound is
closest to breaking, and ``clear_sig3_caches`` empties the package's
caches for the tests that patch or trace it.
"""

from __future__ import annotations

import math
import random
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)
ONE = Fraction(1)


def clear_sig3_caches() -> None:
    """Clear every cache of every loaded sig3 module: ``moduli.context``,
    which holds the one lattice of each configuration (``invariants`` is
    the same cache), and the CLI's parser.  A cached function's body runs
    only on a miss, and a context built under a patch would outlive it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("sig3."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def sig3_invariants(kappa: float) -> tuple[float, float]:
    """The invariants of the configuration kappa, in floats:

        g2 = (4/27)(9 - 8 kappa^2),
        g3 = (8/729)(27 - 36 kappa^2 + 8 kappa^4).
    """
    t = kappa * kappa
    return (4.0 / 27.0) * (9.0 - 8.0 * t), (8.0 / 729.0) * (27.0 - (36.0 - 8.0 * t) * t)


def exact_midpoints(kappa: float, mpmath):
    """e1 > e2 > e3 of the lattice of the binary value of kappa, at
    mpmath's working precision, in closed form: with s, c = sin,
    cos(arcsin(kappa)/3), x = 3 - 12 s^2 + 8 s^4 and g = 8 sqrt3 s^3 c,

        e1 = 2x/9,   e2 = (g - x)/9,   e3 = -(g + x)/9.

    No root of the cubic is sought, so e2 - e3 = g/9 ~ (4/27) kappa^3
    keeps its digits at any kappa."""
    third = mpmath.asin(mpmath.mpf(kappa)) / 3
    s, c = mpmath.sin(third), mpmath.cos(third)
    x = (8 * s * s - 12) * s * s + 3
    gap = 8 * mpmath.sqrt(3) * s ** 3 * c
    return 2 * x / 9, (gap - x) / 9, -(gap + x) / 9


def toward_both_ends(n: int = 5000) -> list[float]:
    """2n + 2 p in (0, 1): n + 1 log-spaced toward 0 from just above the
    underflow floor of params_from_p (~2.2324e-103) up to 1/2, then n + 1
    toward 1 from 1/2 down to 1 - p = 2^-53."""
    lo, lo1, hi = math.log(2.24e-103), math.log(2.0 ** -53), math.log(0.5)
    points = [math.exp(lo + (hi - lo) * i / n) for i in range(n + 1)]
    return points + [1.0 - math.exp(lo1 + (hi - lo1) * i / n) for i in range(n + 1)]


def search_worst(f, seed: int, floor: float, draws: int, steps: int) -> tuple[float, float]:
    """Seeded search for the x in [floor, 1 - 2^-53] where f is largest;
    returns (f(x), x).  Of the ``draws``, 30% are log-spaced toward 0 (down
    to ``floor``), 30% toward 1 (1 - x down to 2^-53) and 40% uniform.  Then
    ``steps`` refinements from the best draw: each scales x, or 1 - x above
    1/2, by exp(N(0, s)) with s falling from 1 to 1e-6, and keeps a better
    point.  The same seed and f give the same point."""
    rng = random.Random(seed)
    near0, near1, half, top = math.log(floor), math.log(2.0 ** -53), math.log(0.5), 1.0 - 2.0 ** -53

    def draw():
        u = rng.random()
        if u < 0.3:
            return math.exp(rng.uniform(near0, half))
        if u < 0.6:
            return 1.0 - math.exp(rng.uniform(near1, half))
        return max(floor, rng.random())

    value, x = max((f(x), x) for x in (draw() for _ in range(draws)))
    for i in range(steps):
        factor = math.exp(rng.gauss(0.0, 10.0 ** (-6.0 * i / steps)))
        y = x * factor if x <= 0.5 else 1.0 - (1.0 - x) * factor
        if floor <= y <= top and (fy := f(y)) > value:
            value, x = fy, y
    return value, x


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


def agm3_decimal(a: Decimal, b: Decimal, digits: int = 50) -> Decimal:
    """Cubic AGM a' = (a+2b)/3, b' = (b(a^2+ab+b^2)/3)^(1/3) in
    ``digits``-digit decimal, whose exponent range holds any float pair."""
    getcontext().prec = digits
    third = Decimal(1) / 3
    for _ in range(digits):
        if a == b:
            break
        a, b = (a + 2 * b) / 3, (b * (a * a + a * b + b * b) / 3) ** third
    return (a + 2 * b) / 3


def f3_complement_decimal(y: float, digits: int = 40) -> Decimal:
    """F(1/3, 2/3; 1; 1 - y) as 1/agm3(1, y^(1/3)), all in ``digits``-digit
    decimal: no 1 - y is formed, so a tiny y keeps every digit."""
    getcontext().prec = digits
    return 1 / agm3_decimal(Decimal(1), Decimal(y) ** (Decimal(1) / 3), digits)


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


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# Laurent truncation of the reference wp: 20 coefficients c_2 .. c_21, and
# the tail target that sets the radius of the disc the argument is halved
# into.  Duplication roughly squares error, so a longer series buys a larger
# disc, i.e. fewer error-amplifying halvings.
LAURENT_COEFFS = 20
LAURENT_TAIL_TARGET = 1e-18
WP_MAX_HALVINGS = 64  # |z| up to 2^64 r0 reduces into the Laurent disc


@lru_cache(maxsize=64)
def _laurent(g2: float, g3: float) -> tuple[tuple[float, ...], float]:
    """Laurent coefficients c_2..c_N and the reduction radius for (g2, g3).

    c_2 = g2/20, c_3 = g3/28, and for k >= 4 the standard recurrence
    c_k = 3 sum_{m=2}^{k-2} c_m c_{k-m} / ((2k+1)(k-3)).  The radius r0 is
    the largest r with |c_N| r^(2N) <= tail target, capped at half the
    convergence-radius estimate |c_N|^(-1/(2N)).
    """
    n_last = LAURENT_COEFFS + 1  # coefficients are indexed c_2 .. c_{n_last}
    c = [0.0] * (n_last + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, n_last + 1):
        acc = 0.0
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    tail = max(abs(c[n_last]), abs(c[n_last - 1]), 1e-300)
    rho_half = 0.5 * tail ** (-1.0 / (2 * n_last))
    r0 = min(rho_half, (LAURENT_TAIL_TARGET / tail) ** (1.0 / (2 * n_last)))
    return tuple(c), r0


def wp_duplication(z: complex, g2: float, g3: float) -> tuple[complex, complex]:
    """Weierstrass wp and wp' from the invariants alone, with no lattice.

    The argument is halved into the Laurent disc, the series is summed, and
    the pair is pushed back up through the duplication formula

        wp(2z) = -2 wp + ((6 wp^2 - g2/2) / (2 wp'))^2,

    with wp' propagated by the differentiated formula.  ~1e-13 relative
    within a cell of the origin, less on nearly degenerate lattices and far
    out, where duplication amplifies the error.  Raises ZeroDivisionError at
    the origin or when a halving lands on a half period, and
    ArithmeticError once WP_MAX_HALVINGS runs out.
    """
    w = complex(z)
    coeffs, r0 = _laurent(g2, g3)
    halvings = 0
    while abs(w) > r0:
        w *= 0.5
        halvings += 1
        if halvings > WP_MAX_HALVINGS:
            raise ArithmeticError(f"argument reduction for wp({z}) exceeded budget")
    w2 = w * w
    p = 1.0 / w2
    dp = -2.0 / (w2 * w)
    wpow = 1.0 + 0.0j
    for k in range(2, len(coeffs)):
        wpow *= w2  # w^(2k-2)
        p += coeffs[k] * wpow
        dp += (2 * k - 2) * coeffs[k] * wpow / w
    for _ in range(halvings):
        b = 6.0 * p * p - 0.5 * g2  # = wp''
        a = b / (2.0 * dp)
        p, dp = -2.0 * p + a * a, -dp + a * (6.0 * p - b * b / (2.0 * dp * dp))
    return p, dp
