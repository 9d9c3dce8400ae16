"""Weierstrass and Jacobi elliptic machinery over real invariant pairs.

The central evaluator is ``wp``: the Weierstrass function from its
invariants (g2, g3), computed by halving the argument into a disc where a
truncated Laurent expansion is accurate to roundoff and then undoing the
halvings with the algebraic duplication formula.  The derivative is
propagated alongside the value, so no square-root branch is ever chosen.

The classical bridges live here too: Jacobi sn by the descending Landen
recursion, quarter periods K and K' through the AGM, and the dictionary
between midpoint values e1 > e2 > e3, the Jacobi modulus
k^2 = (e2-e3)/(e1-e3), and the Weierstrass half-periods
omega = K/sqrt(e1-e3), omega' = iK'/sqrt(e1-e3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateLattice, DomainError, NonConvergence, PoleError
from .hypergeom import f2_complement

__all__ = [
    "WeierstrassInvariants",
    "MidpointTriple",
    "HalfPeriodPair",
    "JacobiModulus",
    "wp",
    "wp_and_derivative",
    "wp_via_sn",
    "sn",
    "jacobi_quarter_periods",
    "half_periods_from_midpoints",
    "midpoints_from_invariants",
]

# Laurent truncation: 20 coefficients c_2 .. c_21.  The reduction radius is
# chosen per lattice so the truncated tail stays below ~1e-16 relative to
# the principal part; duplication roughly squares error, so pre-reduction
# accuracy dominates and a longer series buys a larger radius, i.e. fewer
# error-amplifying halvings (12 coefficients leave ~1e-9 at the imaginary
# half-period of small-modulus lattices).
LAURENT_COEFFS = 20
LAURENT_TAIL_TARGET = 1e-18
POLE_THRESHOLD = 1e-8  # |z| below this: 1/z^2 noise exceeds 1e16
SN_MODULUS_FLOOR = 1e-14  # stop the Landen descent here
SN_MAX_DEPTH = 12
WP_MAX_HALVINGS = 64  # |z| up to 2^64 r0 reduces into the Laurent disc


@dataclass(frozen=True)
class WeierstrassInvariants:
    """Invariant pair (g2, g3) of a Weierstrass function."""

    g2: float
    g3: float

    def __post_init__(self):
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise DomainError(f"invariants must be finite, got ({self.g2}, {self.g3})")

    @property
    def discriminant(self) -> float:
        return self.g2 ** 3 - 27.0 * self.g3 ** 2


@dataclass(frozen=True)
class MidpointTriple:
    """Midpoint values e1 > e2 > e3 of a real-lattice Weierstrass function.

    The strict ordering is validated at construction: the labels fix the
    Jacobi modulus, so unordered input is an error, never silently sorted.
    """

    e1: float
    e2: float
    e3: float

    def __post_init__(self):
        if self.e1 == self.e2 or self.e2 == self.e3:
            raise DegenerateLattice(
                f"midpoint values collapse: ({self.e1}, {self.e2}, {self.e3})"
            )
        if not self.e1 > self.e2 > self.e3:
            raise DomainError(
                f"midpoint values must satisfy e1 > e2 > e3, got "
                f"({self.e1}, {self.e2}, {self.e3})"
            )

    @property
    def spread(self) -> float:
        """e1 - e3, the squared scaling factor r^2 between the two theories."""
        return self.e1 - self.e3

    @property
    def jacobi_m(self) -> float:
        """Squared Jacobi modulus k^2 = (e2 - e3)/(e1 - e3)."""
        return (self.e2 - self.e3) / (self.e1 - self.e3)


@dataclass(frozen=True)
class HalfPeriodPair:
    """Half periods (omega, omega') with omega > 0 and omega' on the positive
    imaginary axis; the fundamental periods are (2 omega, 2 omega')."""

    omega: float
    omega_prime: complex

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.omega_prime.real != 0.0 or not self.omega_prime.imag > 0.0:
            raise DomainError(
                f"omega' must be purely imaginary with positive imaginary part, "
                f"got {self.omega_prime}"
            )


@dataclass(frozen=True)
class JacobiModulus:
    """Jacobi modulus k with its quarter periods K and K'."""

    k: float
    K: float
    K_prime: float


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


def wp_and_derivative(z: complex, inv: WeierstrassInvariants) -> tuple[complex, complex]:
    """Weierstrass function and its derivative at z for invariants (g2, g3).

    The argument is halved until it lies inside the Laurent disc, then the
    pair (wp, wp') is pushed back up through the duplication formula

        wp(2z) = -2 wp + ((6 wp^2 - g2/2) / (2 wp'))^2,

    with wp' propagated by the differentiated formula.  Raises PoleError
    when z is within ``POLE_THRESHOLD`` of the origin and NonConvergence if
    the halving budget (WP_MAX_HALVINGS) is exhausted.

    Accuracy is ~1e-13 relative within a couple of lattice cells of the
    origin.  On nearly degenerate lattices (two midpoint values close:
    modulus near 0, or a trimidiated lattice of a modulus near 1),
    arguments several cells out can lose a few more digits when the
    halving trajectory passes a flattened half-period.
    """
    w = complex(z)
    if abs(w) < POLE_THRESHOLD:
        raise PoleError(f"argument {z} is within {POLE_THRESHOLD} of a lattice point")
    g2 = inv.g2
    coeffs, r0 = _laurent(g2, inv.g3)
    halvings = 0
    while abs(w) > r0:
        w *= 0.5
        halvings += 1
        if halvings > WP_MAX_HALVINGS:
            raise NonConvergence(f"argument reduction for wp({z}) exceeded budget")

    w2 = w * w
    p = 1.0 / w2
    dp = -2.0 / (w2 * w)
    wpow = 1.0 + 0.0j
    for k in range(2, len(coeffs)):
        wpow *= w2  # w^(2k-2)
        p += coeffs[k] * wpow
        dp += (2 * k - 2) * coeffs[k] * wpow / w

    try:
        for _ in range(halvings):
            b = 6.0 * p * p - 0.5 * g2  # = wp''
            a = b / (2.0 * dp)
            p, dp = -2.0 * p + a * a, -dp + a * (6.0 * p - b * b / (2.0 * dp * dp))
    except ZeroDivisionError:
        raise PoleError(f"argument {z} reduced onto a half-period (wp' = 0)") from None
    return p, dp


def wp(z: complex, inv: WeierstrassInvariants) -> complex:
    """Weierstrass function wp(z; g2, g3); see ``wp_and_derivative``."""
    return wp_and_derivative(z, inv)[0]


def sn(u: float, k: float) -> float:
    """Jacobi sn(u, k) for real u and modulus 0 < k < 1.

    Descending Landen transformation: the modulus ladder is driven down
    below ``SN_MODULUS_FLOOR`` (depth <= 12 suffices for any k in (0,1); the
    descent is quadratic), the circular limit sin is evaluated there, and
    the amplitude is back-substituted through the ladder.  Periodicity
    sn(u + 4K) = sn(u) is inherited exactly from the sine.
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    ladder_a: list[float] = []
    ladder_b: list[float] = []
    a = 1.0
    b = (1.0 - k) * (1.0 + k)  # complementary parameter (k')^2
    scale = 1.0
    for _ in range(SN_MAX_DEPTH + 1):
        ladder_a.append(a)
        b = math.sqrt(b)
        ladder_b.append(b)
        scale = 0.5 * (a + b)
        if abs(a - b) <= SN_MODULUS_FLOOR * a:
            break
        b *= a
        a = scale
    else:
        raise NonConvergence(f"Landen descent for k={k} exceeded depth {SN_MAX_DEPTH}")

    phi = scale * u
    if abs(phi) < 1e-100:
        # sn(u) = u - (1+k^2) u^3/6 + ... collapses to u; the cotangent
        # ladder below would overflow on such arguments.
        return u
    s, c, d = math.sin(phi), math.cos(phi), 1.0
    if s == 0.0:
        return 0.0
    ratio = c / s
    cot = scale * ratio
    for a_i, b_i in zip(reversed(ladder_a), reversed(ladder_b)):
        ratio *= cot
        cot *= d
        d = (b_i + ratio) / (a_i + ratio)
        ratio = cot / a_i
    val = 1.0 / math.sqrt(cot * cot + 1.0)
    return val if s >= 0.0 else -val


def jacobi_quarter_periods(k: float) -> JacobiModulus:
    """Quarter periods K = (pi/2) F(1/2,1/2;1;k^2), K' likewise at 1 - k^2,
    each from the complement of its argument ((1-k)(1+k) keeps K accurate as k -> 1)."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    half_pi = 0.5 * math.pi
    K = half_pi * f2_complement((1.0 - k) * (1.0 + k))
    return JacobiModulus(k=k, K=K, K_prime=half_pi * f2_complement(k * k))


def half_periods_from_midpoints(mids: MidpointTriple) -> HalfPeriodPair:
    """Half periods of the Weierstrass function with midpoint values ``mids``.

    omega = K/sqrt(e1-e3) and omega' = iK'/sqrt(e1-e3), with the Jacobi
    modulus read off the midpoint spread.  Raises DegenerateLattice when a
    spread underflows the tolerance and no lattice survives.
    """
    spread = mids.spread
    gap = mids.e2 - mids.e3
    scale = max(abs(mids.e1), abs(mids.e3))
    if spread <= 1e-14 * scale or gap <= 1e-14 * spread:
        raise DegenerateLattice(
            f"midpoint spreads ({spread}, {gap}) too small for a period lattice"
        )
    quarter = jacobi_quarter_periods(math.sqrt(mids.jacobi_m))
    r = math.sqrt(spread)
    return HalfPeriodPair(omega=quarter.K / r, omega_prime=1j * (quarter.K_prime / r))


def midpoints_from_invariants(inv: WeierstrassInvariants) -> MidpointTriple:
    """Solve 4t^3 - g2 t - g3 = 0 for the three real midpoint values.

    Uses the trigonometric form of the cubic, valid exactly when the
    discriminant is positive (rectangular lattice); otherwise raises
    DegenerateLattice.
    """
    if inv.g2 <= 0.0 or inv.discriminant <= 0.0:
        raise DegenerateLattice(
            f"invariants ({inv.g2}, {inv.g3}) do not give three real midpoints"
        )
    m = math.sqrt(inv.g2 / 3.0)
    # cos(3 phi) = g3 (3/g2)^(3/2); |.| <= 1 follows from the discriminant.
    arg = min(1.0, max(-1.0, inv.g3 / (m * m * m)))
    phi = math.acos(arg) / 3.0
    third = 2.0 * math.pi / 3.0
    return MidpointTriple(
        e1=m * math.cos(phi),
        e2=m * math.cos(phi - third),
        e3=m * math.cos(phi - 2.0 * third),
    )


def wp_via_sn(z: float, mids: MidpointTriple) -> float:
    """Weierstrass value on the real axis through the Jacobi bridge
    wp(z) = e3 + (e1 - e3)/sn^2(z sqrt(e1 - e3), k)."""
    r = math.sqrt(mids.spread)
    s = sn(z * r, math.sqrt(mids.jacobi_m))
    if abs(s) < POLE_THRESHOLD:
        raise PoleError(f"argument {z} is a period of the lattice (sn vanishes)")
    return mids.e3 + mids.spread / (s * s)
