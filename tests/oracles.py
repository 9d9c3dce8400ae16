"""Independent oracles used to pin expected values in the tests.

Nothing here touches the package's own evaluation paths: the series oracles
run in exact rational and in compensated float arithmetic, the two AGM oracles
in 50-digit decimal, the sn oracle integrates the Jacobi differential system
directly, and the wp oracle sums the Laurent series of the invariants and
doubles its way back out.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

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
