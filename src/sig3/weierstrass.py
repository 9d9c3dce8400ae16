"""Weierstrass and Jacobi elliptic machinery over real invariant pairs.

The central evaluator is ``wp``: the Weierstrass function from its
invariants (g2, g3) on a rectangular lattice.  The argument is reduced
into the centred period cell, and the classical Jacobi bridge

    wp(z) = e3 + (e1 - e3) v^2,    v = 1/sn(z sqrt(e1 - e3), k),

is evaluated there at complex argument.  v comes from the descending
Landen (Gauss) transformation (DLMF 22.7.1) read for the reciprocal,

    1/sn(w, k) = (v1 + k1/v1)/(1 + k1),   v1 = 1/sn(w/(1 + k1), k1),

on one ladder k > k1 > k2 > ... per lattice: v starts as 1/sin at the foot
and climbs the rungs, at real or complex w alike.  ``wp`` runs it on the
lattice of (g2, g3); ``delta.dn3``, ``delta.delta`` and
``delta.verify_trimidiation`` on the lattice of their modulus; ``sn``
on the real axis.  ``_ladder`` caches nothing itself: each lattice builds
its ladder once, in ``_cell``, and keeps it, ``wp``'s in the cache of
``_lattice`` and a modulus's in its ``DeltaContext``, which ``dn3`` caches
per modulus (``delta._context``).  Only ``sn`` builds a ladder per call.

The lattice of (g2, g3) has one private home, ``_lattice``: it solves
4t^3 - g2 t - g3 = 0 for the midpoint values e1 > e2 > e3, reads
k^2 = (e2-e3)/(e1-e3) and k'^2 = (e1-e2)/(e1-e3) off them once, and hands
the same two floats to the half periods omega = K/sqrt(e1-e3),
omega' = iK'/sqrt(e1-e3), with the quarter periods K and K' through the AGM
(``_jacobi_half_periods``), and to the cell's ladder.  The lattice of a
modulus kappa needs no cubic: ``delta.DeltaContext`` builds it from the
closed-form midpoint gaps, with its half periods through F(1/3, 2/3; 1; .),
and ``delta.period_route_gap`` holds omega against that ladder's scale
and -i omega' against K'/r at the same gaps.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, NonConvergence, PoleError
from .hypergeom import f2_complement

POLE_THRESHOLD = 1e-8  # |z| below this: 1/z^2 noise exceeds 1e16
SN_MODULUS_FLOOR = 2.0 ** -27  # stop the Landen descent at k_N cosh(Y) <= this
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


class HalfPeriodPair(NamedTuple):
    """Half periods (omega, omega') with omega > 0 and omega' on the positive
    imaginary axis; the fundamental periods are (2 omega, 2 omega').  Both
    producers, ``_jacobi_half_periods`` and ``delta.half_periods_sig3``,
    build omega and -i omega' as positive multiples of kernel values >= 1,
    so the invariant holds by construction and nothing checks it."""

    omega: float
    omega_prime: complex


def wp_and_derivative(z: complex, inv: WeierstrassInvariants) -> tuple[complex, complex]:
    """Weierstrass function and its derivative at z for invariants (g2, g3).

    z = x + iy is reduced into the centred cell |x| <= omega, |y| <= |omega'|,
    where wp = e3 + (e1-e3) v^2, v = 1/sn(z sqrt(e1-e3), k) by ``_inv_sn``,
    and wp' = 2 (e1-e3) v dv/dz: dv/dz = -scale cos(phi) v^2 at the foot,
    times (1 - k_n/v^2)/(1 + k_n) per rung.

    Only rectangular lattices (positive discriminant) are served; others,
    and invariants so large that g2^3 or g3^2 overflows, raise DomainError
    (``_lattice``).  Raises PoleError within ``POLE_THRESHOLD`` of
    a lattice point, and DomainError for a z that is not finite or has
    |z| >= ``WP_MAX_MODULUS``; on a lattice with periods below ~pi both
    radii hold for z scaled to the foot of the ladder (``_centred``), so
    wp(z; g2, g3) = mu^2 wp(mu z; g2/mu^4, g3/mu^6) is served on small
    lattices too.

    Against 40-digit values on the exact roots of (g2, g3), the relative
    error is below 1e-14 times max(1, |z wp'/wp|) for kappa in [0.3, 0.99],
    in every cell: the reduction adds only ~|z| eps to the argument.  At
    kappa = 0.05 the trigonometric cubic solve of the midpoints limits it
    to ~6e-13.
    """
    e3, spread, cell = _lattice(inv.g2, inv.g3)
    phi = _centred(z, cell)
    v = 1.0 / cmath.sin(phi)
    dv = -cell.scale * cmath.cos(phi) * (v * v)
    for k, k_up in cell.rungs:
        dv *= (1.0 - k / (v * v)) / k_up
        v = (v + k / v) / k_up
    return e3 + spread * (v * v), 2.0 * spread * v * dv


def wp(z: complex, inv: WeierstrassInvariants) -> complex:
    """Weierstrass function wp(z; g2, g3), with the domain, errors and
    accuracy of ``wp_and_derivative``.  It forms no derivative: the value
    is the same expression e3 + (e1-e3) v^2 from the same recursion, so it
    equals ``wp_and_derivative(z, inv)[0]`` bitwise."""
    e3, spread, cell = _lattice(inv.g2, inv.g3)
    v = _inv_sn(_centred(z, cell), cell.rungs, cmath.sin)
    return e3 + spread * (v * v)


class _Cell(NamedTuple):
    """A rectangular lattice as the Jacobi bridge sees it: the periods
    2 omega and 2|omega'|, the scale sqrt(e1 - e3)/prod(1 + k_n) from z to
    the circular argument at the foot of its ``_ladder``, and the rungs."""

    period_re: float
    period_im: float
    scale: float
    rungs: tuple[tuple[float, float], ...]


def _cell(periods: HalfPeriodPair, r: float, m: float, m_comp: float) -> _Cell:
    """The ``_Cell`` of ``periods``, r = sqrt(e1 - e3), m = k^2 and
    m_comp = 1 - k^2, its ladder good up to |Im z r| = |omega'| r = K'."""
    height = periods.omega_prime.imag
    rungs, scale = _ladder(m, m_comp, r * height)
    return _Cell(2.0 * periods.omega, 2.0 * height, r * scale, rungs)


def _centred(z: complex, cell: _Cell) -> complex:
    """The circular argument scale (z - P) at the foot of ``cell``'s ladder,
    P the lattice point nearest z.  z may be complex, float or int: its
    abs, real and imaginary parts are read as they come.

    Raises DomainError for a z that is not finite or has |z| >=
    ``WP_MAX_MODULUS``, PoleError within ``POLE_THRESHOLD`` of a lattice
    point.  Where the scale exceeds 1 (periods below ~pi) both radii are
    read in the foot's units instead, |z| scale and |z - P| scale, so a
    lattice with periods of 1e-9 still has points to evaluate.  Every
    lattice of a modulus kappa has scale <= 1 and sees the absolute radii."""
    period_re, period_im, scale, _ = cell
    if not abs(z) < WP_MAX_MODULUS or (scale > 1.0 and not abs(z) * scale < WP_MAX_MODULUS):
        raise DomainError(f"argument {z} is not finite, or too large to reduce onto the lattice")
    # Exact: z minus the nearest lattice point, ties to the even multiple.
    x = math.remainder(z.real, period_re)
    y = math.remainder(z.imag, period_im)
    h = math.hypot(x, y)
    if h < POLE_THRESHOLD and h * scale < POLE_THRESHOLD:
        raise PoleError(f"argument {z} is within {POLE_THRESHOLD} of a lattice point")
    return complex(x * scale, y * scale)


@lru_cache(maxsize=64)
def _lattice(g2: float, g3: float) -> tuple[float, float, _Cell]:
    """e3, e1 - e3 and the ``_Cell`` of ``wp`` for (g2, g3).

    The midpoints e1 > e2 > e3 are the roots of 4t^3 - g2 t - g3, solved in
    trigonometric form, which is valid exactly when the discriminant
    g2^3 - 27 g3^2 is positive (a rectangular lattice); otherwise
    DomainError, as also where g2^3 or g3^2 overflows a float (g2 above
    ~5.6e102 or |g3| above ~1.3e154).  Rounded roots with
    e1 <= e2, a spread e1 - e3 below 1e-14 of the midpoints or e2 - e3
    below 1e-14 of the spread leave no period lattice: DomainError too.
    k^2 = (e2-e3)/(e1-e3) and k'^2 = (e1-e2)/(e1-e3) are formed once, and
    the half periods (``_jacobi_half_periods``) and the ladder (``_cell``)
    take the same two floats, so the ladder's scale certifies omega."""
    try:
        if g2 <= 0.0 or g2 ** 3 - 27.0 * g3 ** 2 <= 0.0:
            raise DomainError(f"invariants ({g2}, {g3}) do not give three real midpoints")
    except OverflowError:
        raise DomainError(f"invariants ({g2}, {g3}) are too large: g2^3 or g3^2 overflows") from None
    m = math.sqrt(g2 / 3.0)
    # cos(3 phi) = g3 (3/g2)^(3/2); |.| <= 1 follows from the discriminant.
    arg = min(1.0, max(-1.0, g3 / (m * m * m)))
    phi = math.acos(arg) / 3.0
    third = 2.0 * math.pi / 3.0
    e1, e2, e3 = m * math.cos(phi), m * math.cos(phi - third), m * math.cos(phi - 2.0 * third)
    spread, gap = e1 - e3, e2 - e3
    if not e1 > e2 or spread <= 1e-14 * max(abs(e1), abs(e3)) or gap <= 1e-14 * spread:
        raise DomainError(f"midpoint spreads ({spread}, {gap}) too small for a period lattice")
    r, k2, k2_comp = math.sqrt(spread), gap / spread, (e1 - e2) / spread
    return e3, spread, _cell(_jacobi_half_periods(k2, k2_comp, r), r, k2, k2_comp)


def _ladder(m: float, m_comp: float, height: float) -> tuple[tuple[tuple[float, float], ...], float]:
    """Descending Landen (Gauss) ladder of k, k^2 = m, k'^2 = m_comp
    (DLMF 22.7.1): the rungs (k_n, 1 + k_n), foot first, and the scale
    1/prod(1 + k_n) from w to the circular argument phi at the foot.  Rungs
    come from k_n = k_{n-1}^2/(1 + k'_{n-1})^2, k'_n = 2 sqrt(k'_{n-1})/(1 +
    k'_{n-1}): 1 - k' and 1 - k_n, which cancel for small k, are never formed.

    Stop rule for |Re w| <= K, |Im w| <= height (K' for the centred cell, 0
    on the real axis): sin in place of sn(., k_N) at the foot drops
    (k_N^2/4)(phi cot phi - cos^2 phi) relative to 1/sin phi (DLMF 22.10.4),
    at most k_N^2 cosh^2(Y) for |Im phi| <= Y = scale height.  The descent
    stops at k_N cosh(Y) <= ``SN_MODULUS_FLOOR`` = 2^-27, the bound then
    2^-54.  Y stays near pi K'/(2K) while k_N falls like q^(2^(N-1)), so
    the top edge of the cell costs at most one rung over the real axis, and
    no float 0 < k < 1 needs more than 12."""
    rungs: list[tuple[float, float]] = []
    k2, k_comp, scale = m, math.sqrt(m_comp), 1.0
    for _ in range(SN_MAX_DEPTH):
        k = k2 / ((1.0 + k_comp) * (1.0 + k_comp))
        k_comp = 2.0 * math.sqrt(k_comp) / (1.0 + k_comp)
        rungs.append((k, 1.0 + k))
        scale /= 1.0 + k
        if k * math.cosh(scale * height) <= SN_MODULUS_FLOOR:
            return tuple(reversed(rungs)), scale
        k2 = k * k
    raise NonConvergence(f"Landen descent for k^2 = {m} exceeded depth {SN_MAX_DEPTH}")


def _inv_sn(phi, rungs: tuple[tuple[float, float], ...], sin=math.sin):
    """1/sn(w, k) from the circular argument phi = scale w at the foot of a
    ``_ladder``: v = 1/sin(phi), then v <- (v + k_n/v)/(1 + k_n) up the rungs
    (DLMF 22.7.1 for the reciprocal).  Real phi takes ``math.sin``, complex
    phi ``cmath.sin``; phi = 0 raises ZeroDivisionError."""
    v = 1.0 / sin(phi)
    for k, k_up in rungs:
        v = (v + k / v) / k_up
    return v


def sn(u: float, k: float) -> float:
    """Jacobi sn(u, k) for real u and modulus 0 < k < 1, by the descending
    Landen transformation on the real-axis ladder of k, built per call.
    Periodicity sn(u + 4K) = sn(u) is inherited exactly from the sine.  A u
    that is not finite or has |u| >= ``WP_MAX_MODULUS`` (~4.5e7), where the
    rounding of u alone leaves few correct digits, raises DomainError."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    if not abs(u) < WP_MAX_MODULUS:
        raise DomainError(f"argument {u} is not finite, or too large to reduce onto the period")
    if abs(u) < 1e-100:
        return u  # sn(u) = u - (1+k^2) u^3/6 + ... to the last bit; 1/sin would overflow
    rungs, scale = _ladder(k * k, (1.0 - k) * (1.0 + k), 0.0)
    return 1.0 / _inv_sn(scale * u, rungs)


def _jacobi_half_periods(m: float, m_comp: float, r: float) -> HalfPeriodPair:
    """omega = K/r and omega' = iK'/r, K = (pi/2) F(1/2,1/2;1;m) and K' at
    m_comp = 1 - m, each from ``f2_complement`` of the other argument."""
    half_pi = 0.5 * math.pi
    return HalfPeriodPair(
        omega=half_pi * f2_complement(m_comp) / r,
        omega_prime=1j * (half_pi * f2_complement(m) / r),
    )
