"""The signature-three delta function and the periods of its lattice.

For modulus kappa, let G(T) be the strictly increasing primitive

    G(T) = integral_0^T F(1/3, 2/3; 1/2; kappa^2 sin^2 t) dt.

The paper defines delta as the derivative of the inverse of G: writing
T(u) for the inverse,

    delta(u) = T'(u) = 1 / F(1/3, 2/3; 1/2; kappa^2 sin^2 T(u)),

so delta(0) = 1 and delta is even with least positive period 2 omega,
where omega = G(pi/2) = (pi/2) F(1/3, 2/3; 1; kappa^2).

delta extends to the doubly periodic function

    dn3(z) = 1 - (4/9) kappa^2 / (1/3 + wp(z; g2, g3)),

coperiodic with the Weierstrass function of the configuration.  The
Jacobi bridge wp(z) = e3 + (e1 - e3)/sn^2(z sqrt(e1 - e3), k),
k^2 = (e2 - e3)/(e1 - e3) (DLMF 23.6(i)), with the closed-form midpoint
values of the configuration, turns this into

    dn3(z) = 1 - a / (b + 1/sn^2(z sqrt(e1 - e3), k)),
    a = (4/9) kappa^2 / (e1 - e3),     b = (1/3 + e3) / (e1 - e3),

the same expression on the real axis giving delta(u).

``DeltaContext`` holds these constants for one modulus, from the closed
forms of e2 - e3, e1 - e2 and 1/3 + e3 in ``moduli.midpoint_gaps``: no
midpoint is subtracted from another.  ``delta`` at real u and ``dn3`` at
complex z, reduced into the centred cell of the lattice of kappa itself,
take v = 1/sn from the Gauss recursion ``weierstrass._inv_sn`` on the
context's ladder.  Neither calls ``wp`` or builds invariants.

The reference route is the paper's own construction, inverting G by
Halley steps over adaptive quadrature of the closed-form kernel
(``delta_integral``, ``delta_phase``); the tests and ``verify_ode_delta``
check the production route against it.  ``quadrature.integrate`` holds
one error budget per integral: it splits the 15-point Gauss-Legendre
interval whose panel disagrees most with the sum of its halves until the
estimates sum to QUAD_TOL, and no panel is evaluated twice.  The
inversion integrates [0, T] once, then only each step, and stops once
|G(T) - u| <= QUAD_TOL.  The kernel is formed from
cos z = sqrt(cos^2 t + lambda^2 sin^2 t), so it keeps its digits at the
peak t = pi/2.  The two routes agree to 1e-14 relative up to
kappa = 0.999 and to 1.9e-13 up to kappa = 0.999999.  There the gap is
the conditioning of delta near u = omega, where one ulp of T moves delta
by ~8e-14 relative, and both routes are that close to 30-digit values.
Near kappa = 1 - 1e-10 a one-ulp step in T moves G by more than QUAD_TOL,
and the inversion raises NonConvergence rather than return a T short of
it.

The signature-three half periods through F(1/3, 2/3; 1; .) live here
too; ``transfer.period_route_gap`` holds them against the classical route
through F(1/2, 1/2; 1; .) at the transfer arguments, an agreement that is
the analytic content of the transfer identities.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import DomainError, NonConvergence, PoleError
from .hypergeom import f3_complement
from .moduli import ModulusSet, midpoint_gaps
from .quadrature import integrate
from .weierstrass import WP_MAX_MODULUS, HalfPeriodPair, _cell, _centred, _inv_sn

# The tolerance of the reference route: absolute, on each quadrature of G
# and on the residual G(T) - u of its inversion.
QUAD_TOL = 1e-12


class DeltaContext:
    """A modulus kappa with the constants of the production route.

    Every field but the modulus is derived once, at construction, from the
    closed forms of ``moduli.midpoint_gaps`` and ``half_periods_sig3``: omega,
    the bridge constants a and b, and ``cell``, the lattice of
    kappa with the Gauss ladder of k (``weierstrass._Cell``).  ``delta``
    reads the ladder's scale from the slot ``bridge_scale``, faster to read
    than a tuple field.  ``dn3`` shares one context per modulus, so no field
    can be reassigned.  Every kappa in (0, 1) from ~5.8e-103 up is accepted;
    below, e2 - e3 ~ 0.11 kappa^3 is not a normal float: DomainError.
    """

    __slots__ = ("modulus", "omega", "bridge_scale", "bridge_a", "bridge_b", "cell")

    def __init__(self, modulus: ModulusSet):
        low, high, shift = midpoint_gaps(modulus)
        spread = low + high  # e1 - e3
        periods = half_periods_sig3(modulus)
        cell = _cell(periods, math.sqrt(spread), low / spread, high / spread)
        fields = {
            "modulus": modulus,
            "omega": periods.omega,
            "bridge_scale": cell.scale,
            "bridge_a": (4.0 / 9.0) * modulus.kappa * modulus.kappa / spread,
            "bridge_b": shift / spread,
            "cell": cell,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"DeltaContext is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"DeltaContext({self.modulus!r})"


# dn3's contexts, one per modulus, bounded as ``weierstrass._lattice`` is.
_context = lru_cache(maxsize=64)(DeltaContext)


def half_periods_sig3(mod: ModulusSet) -> HalfPeriodPair:
    """Half periods in the signature-three basis:

        omega  = (pi/2) F(1/3, 2/3; 1; kappa^2),
        omega' = i (sqrt3/2) pi F(1/3, 2/3; 1; 1 - kappa^2).

    Equivalently omega' = i sqrt3 omega(lambda), the complementary-modulus
    relation behind the imaginary-period formula.  A kappa below ~1.6e-162,
    whose square underflows to 0, raises DomainError.
    """
    k = mod.kappa
    k2 = k * k
    if not k2:
        raise DomainError(f"modulus kappa = {k!r} is too small: kappa^2 underflows to 0")
    return _sig3_half_periods(k2, (1.0 - k) * (1.0 + k))


def _sig3_half_periods(k2: float, k2_comp: float) -> HalfPeriodPair:
    """The half periods above from kappa^2 and its complement 1 - kappa^2,
    each F3 value taken from the complement of its argument."""
    half_pi = 0.5 * math.pi
    return HalfPeriodPair(
        omega=half_pi * f3_complement(k2_comp),
        omega_prime=1j * (math.sqrt(3.0) * half_pi * f3_complement(k2)),
    )


def _arc(kappa: float):
    """The reference route's kernel t -> F(1/3, 2/3; 1/2; kappa^2 sin^2 t).

    F = cos(z/3)/cos z with sin z = kappa sin t, and cos z =
    sqrt(cos^2 t + lambda^2 sin^2 t), lambda^2 = (1 - kappa)(1 + kappa),
    never forms 1 - kappa^2 sin^2 t: near kappa = 1 and t = pi/2 that
    difference keeps only a few digits, and its rounding noise is more than
    the adaptive quadrature can integrate away.  ``kernel(t, True)``
    returns (F, z/3, sin z, cos z, cos t), the terms of dF/dt as well.
    """
    lam2 = (1.0 - kappa) * (1.0 + kappa)

    def kernel(t: float, terms: bool = False):
        st = math.sin(t)
        ct = math.cos(t)
        cos_z = math.sqrt(ct * ct + lam2 * st * st)
        sin_z = kappa * st
        third = math.atan2(sin_z, cos_z) / 3.0
        f = math.cos(third) / cos_z
        return (f, third, sin_z, cos_z, ct) if terms else f

    return kernel


def _reference_delta(T: float, ctx: DeltaContext) -> tuple[float, float]:
    """delta = 1/F and delta' = -(dF/dT)/F^3 at the phase T = T(u) by the
    reference route, F = cos(z/3)/cos z as in ``_arc``; sin z = kappa sin T
    gives dF/dT = (sin z cos(z/3) - sin(z/3) cos z/3) kappa cos T / cos^3 z.
    Near kappa = 1 and T = pi/2 both keep the digits that
    1 - kappa^2 sin^2 T would lose."""
    kappa = ctx.modulus.kappa
    f, third, sin_z, cos_z, ct = _arc(kappa)(T, True)
    df = (sin_z * math.cos(third) - math.sin(third) * cos_z / 3.0) * kappa * ct / cos_z ** 3
    return 1.0 / f, -df / (f * f * f)


def delta_integral(T: float, ctx: DeltaContext) -> float:
    """G(T): the arc integral of F(1/3, 2/3; 1/2; kappa^2 sin^2 t) up to T (odd in T)."""
    return integrate(_arc(ctx.modulus.kappa), 0.0, T, QUAD_TOL)


def _invert_in_quarter(u: float, ctx: DeltaContext) -> float:
    """Solve G(T) = u for T, for u in [0, omega], by Halley's method (Newton's
    with G'' = F' from ``_reference_delta``) within a bisection bracket;
    G' = F >= 1 keeps the problem well conditioned.

    G is carried as a running sum: one integral up to the first guess, then
    one over each step.  The iteration stops once |G(T) - u| <= QUAD_TOL
    and returns the step from there, whose error is of the order of the
    cube of that residual.
    """
    kernel = _arc(ctx.modulus.kappa)
    T = u / ctx.omega * (0.5 * math.pi)
    G = delta_integral(T, ctx)
    lo, hi = 0.0, 0.5 * math.pi + 0.01  # the pad absorbs quadrature-vs-AGM seams
    for _ in range(80):
        g = G - u
        d, d_prime = _reference_delta(T, ctx)
        step = g * d  # Newton's g/F; Halley's divides it by 1 - step F'/(2F), F'/F = -d'/d^2
        T_next = T - step / (1.0 + 0.5 * step * d_prime / (d * d))
        if abs(g) <= QUAD_TOL:
            return T_next
        if g > 0.0:
            hi = T
        else:
            lo = T
        if not lo < T_next < hi:
            T_next = 0.5 * (lo + hi)
        G += integrate(kernel, T, T_next, QUAD_TOL)
        T = T_next
    raise NonConvergence(f"inverting the arc integral at u={u} left |G(T) - u| = {abs(G - u)} in 80 steps")


def delta_phase(u: float, ctx: DeltaContext) -> float:
    """T(u), the inverse of G, for any real u.

    u is reduced modulo the period 2 omega and reflected into [0, omega],
    where the inversion runs on a single monotone branch; the ambient
    branch is restored afterwards, making T a global increasing bijection.
    Its domain is that of ``delta``: a u that is not finite or has
    |u| >= ``WP_MAX_MODULUS`` raises DomainError.
    """
    if not abs(u) < WP_MAX_MODULUS:
        raise DomainError(f"argument {u} is not finite, or too large to reduce onto the period")
    omega = ctx.omega
    period = 2.0 * omega
    cells = math.floor(u / period)
    v = u - cells * period
    if v <= omega:
        branch = _invert_in_quarter(v, ctx)
    else:
        branch = math.pi - _invert_in_quarter(period - v, ctx)
    return cells * math.pi + branch


def delta(u: float, ctx: DeltaContext) -> float:
    """The delta function, by the production route: the Jacobi bridge

        delta(u) = 1 - a / (b + v^2),    v = 1/sn(u sqrt(e1 - e3), k),

    with a, b and k as in the module docstring.  It equals the paper's
    1/F(1/3,2/3;1/2; kappa^2 sin^2 T(u)), which ``delta_phase`` evaluates
    by the reference route.  delta(0) = 1 exactly, delta(-u) = delta(u)
    bitwise, values lie in (0, 1] (b > 0 because e3 > -1/3, and v^2 >= 1)
    and repeat with period 2 omega.  Its domain is that of ``dn3``: a u
    that is not finite or has |u| >= ``WP_MAX_MODULUS`` (~4.5e7) raises
    DomainError.
    """
    if not abs(u) < WP_MAX_MODULUS:
        raise DomainError(f"argument {u} is not finite, or too large to reduce onto the period")
    phi = u * ctx.bridge_scale
    if not phi:
        return 1.0
    v = _inv_sn(phi, ctx.cell.rungs)
    return 1.0 - ctx.bridge_a / (ctx.bridge_b + v * v)


def dn3(z: complex, mod: ModulusSet) -> complex:
    """The elliptic extension of delta, at complex z:

        dn3(z) = 1 - (4/9) kappa^2 / (1/3 + wp(z))
               = 1 - a / (b + v^2),    v = 1/sn(z sqrt(e1 - e3), k),

    the Jacobi bridge of ``delta`` on the lattice of kappa itself, with the
    constants of a ``DeltaContext`` cached per modulus.  z is reduced into
    the centred cell and v taken at complex argument as in
    ``weierstrass.wp``.  Agrees with ``delta`` on the real axis.  Poles of
    the quotient sit where wp = -1/3 (for instance two thirds of the way up
    the imaginary half-period); PoleError is raised at lattice points and
    where |1/3 + wp| <= 1e-8 (1/3 + e3), a margin that shrinks with
    1/3 + e3 ~ (4/27) kappa^2, the size of 1/3 + wp near omega'.
    """
    ctx = _context(mod)
    cell = ctx.cell
    v = _inv_sn(_centred(z, cell), cell.rungs, cmath.sin)
    shifted = ctx.bridge_b + v * v  # (1/3 + wp)/(e1 - e3)
    if abs(shifted) <= 1e-8 * ctx.bridge_b:
        raise PoleError(f"dn3 pole: 1/3 + wp({z}) is within 1e-8 (1/3 + e3) of 0")
    return 1.0 - ctx.bridge_a / shifted
