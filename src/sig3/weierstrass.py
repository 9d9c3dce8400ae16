"""The Jacobi bridge, and the Weierstrass function on the lattice of kappa.

On a rectangular lattice with midpoint values e1 > e2 > e3 the classical
Jacobi bridge (DLMF 23.6(i)) reads

    wp(z) = e3 + (e1 - e3) v^2,    v = 1/sn(z sqrt(e1 - e3), k),

k^2 = (e2 - e3)/(e1 - e3).  v comes from the descending Landen (Gauss)
transformation (DLMF 22.7.1) read for the reciprocal,

    1/sn(w, k) = (v1 + k1/v1)/(1 + k1),   v1 = 1/sn(w/(1 + k1), k1),

on one ladder k > k1 > k2 > ... per lattice: v starts as 1/sin at the foot
and climbs the rungs, at real or complex w alike.  The argument is first
reduced into the centred period cell (``_centred``).

The lattice is that of a modulus kappa, held by its ``moduli.DeltaContext``:
``_cell`` builds the context's cell and ladder once, from the closed-form
midpoint gaps, and ``_shifted`` forms the bridge (1/3 + wp)/(e1 - e3) =
b + v^2 on it, the one home that ``wp``, ``delta.dn3`` and
``delta.verify_trimidiation`` share.  ``delta.delta`` and the phase climb
the same ladder on the real axis through ``_inv_sn``, and ``sn`` on the
real-axis ladder of any modulus k, built per call.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import DomainError, NonConvergence, PoleError

POLE_THRESHOLD = 1e-8  # |z| below this: 1/z^2 noise exceeds 1e16
SN_MODULUS_FLOOR = 2.0 ** -27  # stop the Landen descent at k_N cosh(Y) <= this
SN_MAX_DEPTH = 12
# Beyond this modulus (~4.5e7) the rounding of z alone, |z| eps, exceeds
# POLE_THRESHOLD: no lattice point can be told apart from its neighbourhood.
WP_MAX_MODULUS = POLE_THRESHOLD / sys.float_info.epsilon


def wp_and_derivative(z: complex, ctx) -> tuple[complex, complex]:
    """Weierstrass function of the configuration's invariants (g2, g3), and
    its derivative, at z on the lattice of ``ctx``, a ``moduli.DeltaContext``
    (``moduli.context`` caches one per modulus; ``moduli.invariants`` is
    the same cache).

    z = x + iy is reduced into the centred cell |x| <= omega, |y| <= |omega'|,
    where wp = (e1 - e3)(b + v^2) - 1/3, v = 1/sn(z sqrt(e1 - e3), k) by
    the recursion of ``_inv_sn``, and wp' = 2 (e1 - e3) v dv/dz:
    dv/dz = -scale cos(phi) v^2 at the foot, times (1 - k_n/v^2)/(1 + k_n)
    per rung.  Raises PoleError within ``POLE_THRESHOLD`` of a lattice
    point, and DomainError for a z that is not finite or has
    |z| >= ``WP_MAX_MODULUS``.

    Against 40-digit values on kappa's exact lattice, the relative error is
    below 1e-14 times max(1, |z wp'/wp|) out to 20 cells, at kappa from
    1e-100 to 0.999999: tests/test_weierstrass.py holds that in
    test_wp_against_40_digit_jacobi_values.
    """
    cell = ctx.cell
    phi = _centred(z, cell)
    v = 1.0 / cmath.sin(phi)
    dv = -cell.scale * cmath.cos(phi) * (v * v)
    for k, k_up in cell.rungs:
        dv *= (1.0 - k / (v * v)) / k_up
        v = (v + k / v) / k_up
    spread = ctx.phase_terms[1]
    return spread * (ctx.bridge[3] + v * v) - 1.0 / 3.0, 2.0 * spread * v * dv


def wp(z: complex, ctx) -> complex:
    """Weierstrass function wp(z; g2, g3) of ``ctx``'s modulus, with the
    domain, errors and accuracy of ``wp_and_derivative``.  It forms no
    derivative: the value is the same expression (e1 - e3)(b + v^2) - 1/3
    from the same recursion, through ``_shifted``, so it equals
    ``wp_and_derivative(z, ctx)[0]`` bitwise."""
    return ctx.phase_terms[1] * _shifted(z, ctx) - 1.0 / 3.0


class _Cell(NamedTuple):
    """A rectangular lattice as the Jacobi bridge sees it: the periods
    2 omega and 2|omega'|, the scale sqrt(e1 - e3)/prod(1 + k_n) from z to
    the circular argument at the foot of its ``_ladder``, and the rungs."""

    period_re: float
    period_im: float
    scale: float
    rungs: tuple[tuple[float, float], ...]


def _cell(periods, r: float, m: float, m_comp: float) -> _Cell:
    """The ``_Cell`` of the half periods ``periods`` (a
    ``moduli.HalfPeriodPair``), r = sqrt(e1 - e3), m = k^2 and
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
    point.  Both radii are those of z itself: every lattice of a modulus
    kappa has periods 2 omega >= pi and scale <= 1."""
    period_re, period_im, scale, _ = cell
    if not abs(z) < WP_MAX_MODULUS:
        raise DomainError(f"argument {z} is not finite, or too large to reduce onto the lattice")
    # Exact: z minus the nearest lattice point, ties to the even multiple.
    x = math.remainder(z.real, period_re)
    y = math.remainder(z.imag, period_im)
    if math.hypot(x, y) < POLE_THRESHOLD:
        raise PoleError(f"argument {z} is within {POLE_THRESHOLD} of a lattice point")
    return complex(x * scale, y * scale)


def _shifted(z: complex, ctx) -> complex:
    """(1/3 + wp(z))/(e1 - e3) = b + v^2 on the lattice of the
    ``moduli.DeltaContext`` ``ctx``: z reduced into the centred cell, v =
    1/sn by the Gauss recursion on its ladder.  The one home of the bridge
    that ``wp``, ``delta.dn3`` and ``delta.verify_trimidiation`` share."""
    cell = ctx.cell
    v = _inv_sn(_centred(z, cell), cell.rungs, cmath.sin)
    return ctx.bridge[3] + v * v


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
