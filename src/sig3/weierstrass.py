"""Weierstrass and Jacobi elliptic machinery over real invariant pairs.

The central evaluator is ``wp``: the Weierstrass function from its
invariants (g2, g3) on a rectangular lattice.  The argument is reduced
into the centred period cell, and the classical Jacobi bridge

    wp(z) = e3 + (e1 - e3)/sn^2(z sqrt(e1 - e3), k)

is evaluated there at complex argument, sn(x + iy) coming from the real
sn, cn and dn of x at k and of y at k' through the addition formulas.
One private helper does the reduction and the addition formulas, for
``wp`` on the lattice of (g2, g3) and for ``delta.dn3`` on the lattice of
its modulus.

The rest of the dictionary lives here too: Jacobi sn by the descending
Landen recursion (one cached ladder per modulus), and the map between
midpoint values e1 > e2 > e3, the Jacobi modulus k^2 = (e2-e3)/(e1-e3),
and the Weierstrass half-periods omega = K/sqrt(e1-e3),
omega' = iK'/sqrt(e1-e3), with the quarter periods K and K' through the
AGM.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, NonConvergence, PoleError
from .hypergeom import f2_complement

__all__ = [
    "WeierstrassInvariants",
    "MidpointTriple",
    "HalfPeriodPair",
    "wp",
    "wp_and_derivative",
    "sn",
    "half_periods_from_midpoints",
    "midpoints_from_invariants",
]

POLE_THRESHOLD = 1e-8  # |z| below this: 1/z^2 noise exceeds 1e16
SN_MODULUS_FLOOR = 2.0 ** -26  # stop the Landen descent at |a - b| <= this * a
SN_MAX_DEPTH = 12
# Beyond this modulus (~4.5e7) the rounding of z alone, |z| eps, exceeds
# POLE_THRESHOLD: no lattice point can be told apart from its neighbourhood.
WP_MAX_MODULUS = POLE_THRESHOLD / sys.float_info.epsilon


class WeierstrassInvariants(NamedTuple("WeierstrassInvariants", [("g2", float), ("g3", float)])):
    """Invariant pair (g2, g3) of a Weierstrass function."""

    __slots__ = ()

    def __new__(cls, g2: float, g3: float):
        if not (math.isfinite(g2) and math.isfinite(g3)):
            raise DomainError(f"invariants must be finite, got ({g2}, {g3})")
        return super().__new__(cls, g2, g3)

    @property
    def discriminant(self) -> float:
        return self.g2 ** 3 - 27.0 * self.g3 ** 2


class MidpointTriple(NamedTuple("MidpointTriple", [("e1", float), ("e2", float), ("e3", float)])):
    """Midpoint values e1 > e2 > e3 of a real-lattice Weierstrass function.

    The strict ordering is validated at construction: the labels fix the
    Jacobi modulus, so unordered input is an error, never silently sorted.
    """

    __slots__ = ()

    def __new__(cls, e1: float, e2: float, e3: float):
        if e1 == e2 or e2 == e3:
            raise DomainError(f"midpoint values collapse: ({e1}, {e2}, {e3})")
        if not e1 > e2 > e3:
            raise DomainError(f"midpoint values must satisfy e1 > e2 > e3, got ({e1}, {e2}, {e3})")
        return super().__new__(cls, e1, e2, e3)

    @property
    def spread(self) -> float:
        """e1 - e3, the squared scaling factor r^2 between the two theories."""
        return self.e1 - self.e3

    @property
    def jacobi_m(self) -> float:
        """Squared Jacobi modulus k^2 = (e2 - e3)/(e1 - e3)."""
        return (self.e2 - self.e3) / (self.e1 - self.e3)


class HalfPeriodPair(NamedTuple("HalfPeriodPair", [("omega", float), ("omega_prime", complex)])):
    """Half periods (omega, omega') with omega > 0 and omega' on the positive
    imaginary axis; the fundamental periods are (2 omega, 2 omega')."""

    __slots__ = ()

    def __new__(cls, omega: float, omega_prime: complex):
        if not omega > 0.0:
            raise DomainError(f"omega must be positive, got {omega}")
        if omega_prime.real != 0.0 or not omega_prime.imag > 0.0:
            raise DomainError(
                f"omega' must be purely imaginary with positive imaginary part, got {omega_prime}"
            )
        return super().__new__(cls, omega, omega_prime)


def wp_and_derivative(z: complex, inv: WeierstrassInvariants) -> tuple[complex, complex]:
    """Weierstrass function and its derivative at z for invariants (g2, g3).

    z = x + iy is reduced into the centred cell |x| <= omega,
    |y| <= |omega'|, where the complex Jacobi bridge gives
    wp = e3 + (e1-e3)/sn^2 and wp' = -2 (e1-e3)^(3/2) cn dn/sn^3 at
    z sqrt(e1-e3).  With s, c, d = sn, cn, dn(x sqrt(e1-e3), k) and s1, c1,
    d1 those of y sqrt(e1-e3) at k' (DLMF 22.6.1), the addition formulas
    (A&S 16.21.1-4) read

        sn = (s d1 + i c d s1 c1)/D,   cn = (c c1 - i s d s1 d1)/D,
        dn = (d c1 d1 - i k^2 s c s1)/D,   D = c1^2 + k^2 s^2 s1^2.

    Only rectangular lattices (positive discriminant) are served; others
    raise DomainError.  Raises PoleError within ``POLE_THRESHOLD`` of
    a lattice point, and DomainError for a z that is not finite or has
    |z| >= ``WP_MAX_MODULUS``.

    Against 40-digit values on the exact roots of (g2, g3), the relative
    error is below 1e-14 times max(1, |z wp'/wp|) for kappa in [0.3, 0.99],
    in every cell: the reduction adds only ~|z| eps to the argument.  At
    kappa = 0.05 the trigonometric cubic solve of the midpoints limits it
    to ~6e-13.
    """
    e3, spread, cell = _lattice(inv.g2, inv.g3)
    inv_sn, denom, s, c, d, s1, c1, d1 = _centred_inv_sn(z, cell)
    cn_dn = complex(c * c1, -s * d * s1 * d1) * complex(d * c1 * d1, -cell.m * s * c * s1)
    inv_sn2 = inv_sn * inv_sn
    return e3 + spread * inv_sn2, (-2.0 * spread * cell.r / (denom * denom)) * cn_dn * inv_sn2 * inv_sn


def wp(z: complex, inv: WeierstrassInvariants) -> complex:
    """Weierstrass function wp(z; g2, g3), with the domain, errors and
    accuracy of ``wp_and_derivative``.  It forms no derivative: the value
    is the same expression e3 + (e1-e3)/sn^2, so it equals
    ``wp_and_derivative(z, inv)[0]`` bitwise."""
    e3, spread, cell = _lattice(inv.g2, inv.g3)
    inv_sn = _centred_inv_sn(z, cell)[0]
    return e3 + spread * (inv_sn * inv_sn)


class _Cell(NamedTuple):
    """A rectangular lattice as the Jacobi bridge sees it: the periods
    2 omega and 2|omega'|, r = sqrt(e1 - e3), k^2, and the ``_landen``
    ladders of k and of k'."""

    period_re: float
    period_im: float
    r: float
    m: float
    ladder: tuple
    ladder_comp: tuple


def _centred_inv_sn(z: complex, cell: _Cell) -> tuple:
    """1/sn(z r, k) after reducing z into the centred cell of ``cell``,
    followed by the pieces wp' needs: D, s, c, d, s1, c1 and d1 in the
    notation of ``wp_and_derivative``.  Raises DomainError for a z that is
    not finite or has |z| >= ``WP_MAX_MODULUS``, PoleError within
    ``POLE_THRESHOLD`` of a lattice point."""
    w = complex(z)
    if not abs(w) < WP_MAX_MODULUS:
        raise DomainError(f"argument {z} is not finite, or too large to reduce onto the lattice")
    period_re, period_im, r, m, ladder, ladder_comp = cell
    # Exact: z minus the nearest lattice point, ties to the even multiple.
    x = math.remainder(w.real, period_re)
    y = math.remainder(w.imag, period_im)
    if math.hypot(x, y) < POLE_THRESHOLD:
        raise PoleError(f"argument {z} is within {POLE_THRESHOLD} of a lattice point")
    s, c, d = _sncndn(x * r, ladder)
    s1, c1, d1 = _sncndn(y * r, ladder_comp)
    denom = c1 * c1 + m * (s * s1) ** 2
    return denom / complex(s * d1, c * d * s1 * c1), denom, s, c, d, s1, c1, d1


@lru_cache(maxsize=64)
def _lattice(g2: float, g3: float) -> tuple[float, float, _Cell]:
    """e3, e1 - e3 and the ``_Cell`` of ``wp`` for (g2, g3).  The ladders
    of k and of k' are built from their exact complementary parameters,
    (e1-e2)/(e1-e3) and k^2: forming 1 - k'^2 from k' would lose digits on
    small-modulus lattices."""
    mids = midpoints_from_invariants(WeierstrassInvariants(g2, g3))
    periods = half_periods_from_midpoints(mids)
    spread = mids.spread
    m = mids.jacobi_m
    cell = _Cell(
        2.0 * periods.omega, 2.0 * periods.omega_prime.imag, math.sqrt(spread), m,
        _landen((mids.e1 - mids.e2) / spread), _landen(m),
    )
    return mids.e3, spread, cell


@lru_cache(maxsize=64)
def _landen(m_comp: float) -> tuple[tuple[tuple[float, float], ...], float]:
    """Descending Landen ladder of the modulus k with 1 - k^2 = m_comp: the
    rungs (a_i, b_i), last first, and the scale from u to the circular
    amplitude.  The descent is quadratic, so it stops on that rate: at
    |a - b| <= ``SN_MODULUS_FLOOR`` a the next rung would only square a
    bottom modulus (a-b)/(a+b) <= 7.5e-9 whose O(k^2) effect on sn is
    already below half an ulp.  Any float 1 - k^2 > 0 needs at most 12
    rungs; 1 - k^2 >= 2.2e-16 at most 8."""
    rungs: list[tuple[float, float]] = []
    a, b = 1.0, m_comp
    for _ in range(SN_MAX_DEPTH + 1):
        b = math.sqrt(b)
        rungs.append((a, b))
        scale = 0.5 * (a + b)
        if abs(a - b) <= SN_MODULUS_FLOOR * a:
            return tuple(reversed(rungs)), scale
        b *= a
        a = scale
    raise NonConvergence(f"Landen descent for 1 - k^2 = {m_comp} exceeded depth {SN_MAX_DEPTH}")


def _sncndn(u: float, ladder: tuple[tuple[tuple[float, float], ...], float]) -> tuple[float, float, float]:
    """sn, cn and dn of real u on a ``_landen`` ladder: the circular limit
    sin and cos at the bottom, the amplitude back-substituted up the rungs."""
    rungs, scale = ladder
    phi = scale * u
    if abs(phi) < 1e-100:
        # sn(u) = u - (1+k^2) u^3/6 + ... collapses to u; the cotangent
        # ladder below would overflow on such arguments.
        return u, 1.0, 1.0
    s, c, d = math.sin(phi), math.cos(phi), 1.0
    ratio = c / s
    cot = scale * ratio
    for a_i, b_i in rungs:
        ratio *= cot
        cot *= d
        d = (b_i + ratio) / (a_i + ratio)
        ratio = cot / a_i
    val = 1.0 / math.sqrt(cot * cot + 1.0)
    if s < 0.0:
        val = -val
    return val, cot * val, d


def sn(u: float, k: float) -> float:
    """Jacobi sn(u, k) for real u and modulus 0 < k < 1, by the descending
    Landen transformation on the cached ladder of k.  Periodicity
    sn(u + 4K) = sn(u) is inherited exactly from the sine.  A u that is not
    finite raises DomainError."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    if not math.isfinite(u):
        raise DomainError(f"argument must be finite, got {u}")
    return _sncndn(u, _landen((1.0 - k) * (1.0 + k)))[0]


def half_periods_from_midpoints(mids: MidpointTriple) -> HalfPeriodPair:
    """Half periods of the Weierstrass function with midpoint values ``mids``.

    omega = K/sqrt(e1-e3) and omega' = iK'/sqrt(e1-e3), with the Jacobi
    modulus k read off the midpoint spread and the quarter periods
    K = (pi/2) F(1/2,1/2;1;k^2), K' likewise at 1 - k^2, each from the
    complement of its argument ((1-k)(1+k) keeps K accurate as k -> 1).
    Raises DomainError when a spread underflows the tolerance and no
    lattice survives.
    """
    spread = mids.spread
    gap = mids.e2 - mids.e3
    scale = max(abs(mids.e1), abs(mids.e3))
    if spread <= 1e-14 * scale or gap <= 1e-14 * spread:
        raise DomainError(
            f"midpoint spreads ({spread}, {gap}) too small for a period lattice"
        )
    k = math.sqrt(mids.jacobi_m)
    half_pi = 0.5 * math.pi
    r = math.sqrt(spread)
    return HalfPeriodPair(
        omega=half_pi * f2_complement((1.0 - k) * (1.0 + k)) / r,
        omega_prime=1j * (half_pi * f2_complement(k * k) / r),
    )


def midpoints_from_invariants(inv: WeierstrassInvariants) -> MidpointTriple:
    """Solve 4t^3 - g2 t - g3 = 0 for the three real midpoint values.

    Uses the trigonometric form of the cubic, valid exactly when the
    discriminant is positive (rectangular lattice); otherwise raises
    DomainError.
    """
    if inv.g2 <= 0.0 or inv.discriminant <= 0.0:
        raise DomainError(
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

