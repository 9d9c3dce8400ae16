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

``moduli.DeltaContext`` holds these constants for one modulus, from the
closed forms of e2 - e3, e1 - e2 and 1/3 + e3 in ``moduli.midpoint_gaps``:
no midpoint is subtracted from another.  Its cell is the one lattice of
the configuration.  ``delta`` at real u and ``dn3`` at complex z, reduced
into the centred cell, take v = 1/sn from the Gauss recursion
``weierstrass._inv_sn`` on the context's ladder; ``dn3`` forms b + v^2
in ``weierstrass._shifted``, as ``wp`` does.

The paper's construction is the reference route.  Its phase T(u) has a
closed form in the sn that ``delta`` already computes, since the transfer
principle of Berndt, Bhargava and Garvan (Trans. AMS 347 (1995)) also holds
for the incomplete integral: ``delta_phase`` evaluates it with no
root-finding.  What the paper defines, G(T(u)) = u and delta = 1/F at
T(u), is then checked by ``verify_ode_delta``, which the tests and
``sig3 delta --samples`` run, the latter once over its whole grid.  It
integrates G by adaptive quadrature of the closed-form kernel, one
stretch between neighbouring phases at a time, as ``delta_integral``
does from 0.
``quadrature.integrate`` holds one error budget per integral: it splits the
interval with the largest qk21 error estimate, from the disagreement of its
21-point Kronrod and embedded 10-point Gauss sums, until the estimates sum
to QUAD_TOL, and no node is evaluated twice.
The kernel is formed from cos z = sqrt(cos^2 t + lambda^2 sin^2 t), so it
keeps its digits at the peak t = pi/2.  The phase is within 1e-14 of
50-digit values from kappa = 1e-100 to 1 - 2^-52.  delta agrees with 1/F at
T(u) to 1e-14 relative up to kappa = 0.999 and to 1.9e-13 up to
kappa = 0.999999, the conditioning of delta near u = omega and its final
subtraction, on the grid of tests/test_delta.py.  A seeded search breaks
both just below the top of each range, with delta the side that is off:
test_delta_holds_1e_14_up_to_kappa_0_999_at_a_searched_worst_case and
test_delta_holds_1_9e_13_up_to_kappa_0_999999_at_a_searched_worst_case
are strict xfails at 1.47e-14 and 4.23e-13.  Near kappa = 1,
G' = F ~ 1/lambda, so |G(T(u)) - u| grows as F(T) ulp(T): on the
17-point profile 2.7e-12 at kappa = 1 - 1e-10, 3.3e-11 at 1 - 1e-12,
1.5e-9 at 1 - 1e-15 and 4.1e-9 at 1 - 2.2e-16.

Three certificates live here with what they certify.
``verify_ode_delta`` holds ``delta`` and the phase against the paper's
definition and the reference kernel to the paper's ODE, with one running
integral over its grid.
``verify_trimidiation`` holds ``dn3``'s own bridge b + v^2, formed in one
place, ``weierstrass._shifted``, to Velu's identity.  ``period_route_gap``
holds the context's own half periods, through F(1/3, 2/3; 1; .), against
the lattice its ladder climbs: omega against Gauss's product (pi/2)/scale
for K/r, with no AGM, and -i omega' against the classical K'/r through
F(1/2, 1/2; 1; .) at the k^2 and r of the ladder.  K/r by the AGM at that
k^2 would be identity (56) at p(kappa), which ``grid_report`` checks.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import ConfigError, DomainError, PoleError
from .hypergeom import f2_complement
from .moduli import SQRT3, DeltaContext, ModulusSet, context
from .quadrature import integrate
from .weierstrass import WP_MAX_MODULUS, _inv_sn, _shifted

# The tolerance of the reference route: absolute, on each quadrature of G.
QUAD_TOL = 1e-12


def period_route_gap(ctx: DeltaContext) -> tuple[float, float]:
    """Relative gaps for omega and for -i omega' of the lattice of kappa,
    read off the context alone.

    ``ctx`` holds both half periods from F(1/3, 2/3; 1; .): omega =
    ``ctx.cell.period_re / 2`` and -i omega' = ``ctx.cell.period_im / 2``.
    The real gap is |omega scale/(pi/2) - 1|: the ladder's scale is
    r prod 1/(1 + k_n), r = sqrt(e1 - e3), so (pi/2)/scale is Gauss's
    product for K/r, and omega is held to the ladder that ``delta``,
    ``dn3`` and the phase climb, with no AGM.  The imaginary gap compares
    -i omega' with the classical K'/r = (pi/2) F(1/2, 1/2; 1; k'^2)/r by
    the AGM, at the k^2 and e1 - e3 of ``phase_terms``.  By the transfer principle each
    pair agrees exactly, so each gap is roundoff unless a midpoint gap, a
    kernel or the assembly is wrong.  A bias shared by agm and agm3 moves
    the real gap and not (56)-(58); a bias of agm alone moves (56)-(58)
    and can leave the real gap at roundoff.  Both gaps are below 2e-15
    from kappa = 1e-99 to 1 - 2^-53: tests/test_transfer.py holds that on
    a grid, in test_period_route_gap_certifies_the_lattice_of_kappa, and
    at the worst imaginary gap that a seeded search finds, in
    test_period_route_gap_holds_at_a_searched_worst_case.
    """
    _, spread, k2, _ = ctx.phase_terms
    half_pi, height = 0.5 * math.pi, 0.5 * ctx.cell.period_im
    classical = half_pi * f2_complement(k2) / math.sqrt(spread)  # K'/r
    return abs(ctx.omega * ctx.cell.scale / half_pi - 1.0), abs(height - classical) / height


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
    """G(T): the arc integral of F(1/3, 2/3; 1/2; kappa^2 sin^2 t) up to T (odd in T).
    A T that is not finite raises DomainError.

    F has period pi and is even about pi/2, so G(r + n pi) = G(r) +
    2n G(pi/2).  T is reduced modulo pi to r = remainder(T, pi), |r| <= pi/2,
    so every finite T takes at most two integrals of at most a half period
    each; for |T| <= pi/2, n = 0 and G is the one integral from 0 to T.  At
    T = 1e4 and 1e6, G is within 1.5e-16 relative of 40-digit values at
    kappa = 0.6 and 0.99."""
    if not math.isfinite(T):
        raise DomainError(f"phase {T} is not finite")
    kernel = _arc(ctx.modulus.kappa)
    rest = math.remainder(T, math.pi)
    turns = round((T - rest) / math.pi)
    G = integrate(kernel, 0.0, rest, QUAD_TOL)
    return G + 2 * turns * integrate(kernel, 0.0, 0.5 * math.pi, QUAD_TOL) if turns else G


def _phase_in_quarter(w: float, ctx: DeltaContext) -> float:
    """T(w) for w in [0, omega], in closed form in sn = 1/v on the ladder.

    The bridge delta = 1 - a x/(1 + b x), x = sn^2, and delta = 1/F with
    F = cos(z/3)/cos z, sin z = kappa sin T, give the transfer principle
    for the incomplete integral, with r^2 = e1 - e3:

        cos T = cn dn / (1 + b x)^(3/2),
        sin T = sn (3 + (3b - a) x) / (3 r (1 + b x)^(3/2)).

    Their squares sum to 1 exactly (tests/test_moduli.py proves it in p).
    Dividing both by sn^3/(1 + b x)^(3/2), with t = cn^2/sn^2 = v^2 - 1,
    gives T = atan2(c + t, r sqrt((1 + t) t (t + k'^2))), c = 1 + b - a/3.
    Past omega/2, v^2 - 1 would cancel, so t = k'^2/t(omega - w), from
    cs(K - x) = k' sc(x); omega - w is exact, and omega scale = pi/2 on the
    ladder to a few ulps: the real gap of ``period_route_gap``, which
    tests/test_delta.py holds to 8.5 eps on a grid of kappa, in
    test_the_ladder_certifies_the_period, and at the worst kappa that a
    seeded search finds, in
    test_the_ladder_holds_the_period_at_a_searched_worst_case.  Below
    2^-28, T = w - (4/27) kappa^2 w^3 rounds to w.
    """
    if w <= 2.0 ** -28:
        return w
    rest = ctx.omega - w
    if not rest:
        return 0.5 * math.pi
    c, spread, _, k2_comp = ctx.phase_terms
    scale, rungs, _, _ = ctx.bridge
    v = _inv_sn(min(w, rest) * scale, rungs)
    t = v * v - 1.0
    if rest < w:
        t = k2_comp / t
    return math.atan2(c + t, math.sqrt(spread) * math.sqrt((1.0 + t) * t * (t + k2_comp)))


def delta_phase(u: float, ctx: DeltaContext) -> float:
    """T(u), the inverse of G, for any real u, in closed form: no root is
    sought and no integral taken (``_phase_in_quarter``).

    T is odd, T(-u) = -T(u) bitwise: |u| is reduced modulo the period
    2 omega and reflected into [0, omega], where the phase is a single
    monotone branch; the ambient branch and the sign of u are restored
    afterwards, making T a global increasing bijection.  (Reducing a small
    negative u into cell -1 would cost it its digits.)  Within 1e-14 of
    50-digit values relative to max(1, T), from kappa = 1e-100 to
    1 - 2^-52.  Its domain is that of ``delta``: a u that is not finite or
    has |u| >= ``WP_MAX_MODULUS`` raises DomainError.
    """
    size = abs(u)
    if not size < WP_MAX_MODULUS:
        raise DomainError(f"argument {u} is not finite, or too large to reduce onto the period")
    omega = ctx.omega
    period = 2.0 * omega
    cells = math.floor(size / period)
    v = size - cells * period
    if v <= omega:
        branch = _phase_in_quarter(v, ctx)
    else:
        branch = math.pi - _phase_in_quarter(period - v, ctx)
    return math.copysign(cells * math.pi + branch, u)


def delta(u: float, ctx: DeltaContext) -> float:
    """The delta function, by the production route: the Jacobi bridge

        delta(u) = 1 - a / (b + v^2),    v = 1/sn(u sqrt(e1 - e3), k),

    with a, b and k as in the module docstring.  It equals the paper's
    1/F(1/3,2/3;1/2; kappa^2 sin^2 T(u)) at the phase T of
    ``delta_phase``, which ``verify_ode_delta`` checks.  delta(0) = 1
    exactly, delta(-u) = delta(u) bitwise, values lie in (0, 1] (b > 0
    because e3 > -1/3, and v^2 >= 1) and repeat with period 2 omega.  Its
    domain is that of ``dn3``: a u that is not finite or has
    |u| >= ``WP_MAX_MODULUS`` (~4.5e7) raises DomainError.
    """
    if not abs(u) < WP_MAX_MODULUS:
        raise DomainError(f"argument {u} is not finite, or too large to reduce onto the period")
    scale, rungs, a, b = ctx.bridge
    phi = u * scale
    if not phi:
        return 1.0
    v = _inv_sn(phi, rungs)
    return 1.0 - a / (b + v * v)


def dn3(z: complex, mod: ModulusSet) -> complex:
    """The elliptic extension of delta, at complex z:

        dn3(z) = 1 - (4/9) kappa^2 / (1/3 + wp(z))
               = 1 - a / (b + v^2),    v = 1/sn(z sqrt(e1 - e3), k),

    the Jacobi bridge of ``delta`` on the lattice of kappa itself, with the
    constants of the context that ``moduli.context`` caches per modulus.
    z is reduced into the centred cell and v taken at complex argument by
    ``weierstrass._shifted``, as for ``wp``.  Agrees with ``delta`` on the
    real axis.  Poles of the quotient sit where wp = -1/3 (for instance two
    thirds of the way up the imaginary half-period); PoleError is raised at
    lattice points and where |1/3 + wp| <= 1e-8 (1/3 + e3), a margin that
    shrinks with 1/3 + e3 ~ (4/27) kappa^2, the size of 1/3 + wp near
    omega'.
    """
    ctx = context(mod)
    shifted = _shifted(z, ctx)
    _, _, a, b = ctx.bridge
    if abs(shifted) <= 1e-8 * b:
        raise PoleError(f"dn3 pole: 1/3 + wp({z}) is within 1e-8 (1/3 + e3) of 0")
    return 1.0 - a / shifted


def verify_ode_delta(ctx: DeltaContext, u_grid: Iterable[float]) -> list[tuple[float, float, float, float]]:
    """The reference route's certificate over ``u_grid``: one row (u, gap,
    residual, phase_gap) per u, in ascending order of u.

    ``delta_phase`` gives the phase T(u) in closed form, and
    ``_reference_delta`` evaluates delta = 1/F and delta' there analytically
    (finite differences would dominate the residual budget).

    - ``gap`` is |delta(u) - 1/F(T(u))|: the algebra of the closed form
      against the production route's bridge.  It is blind to a wrong
      argument of sn, which moves both alike.
    - ``residual`` is the residual of the paper's ODE

          9 (delta')^2 = 4(1-delta)(delta^3+3delta^2-4lambda^2),

      scaled by 1 + delta^4.  It depends on T alone and holds at every T:
      it certifies the arc kernel's closed form and its derivative.
    - ``phase_gap`` is |G(T(u)) - u|, the paper's definition of T, with G
      carried as one running integral over the grid in ascending order,
      from G(0) = 0: each step integrates from the previous T only, and the
      steps are summed with Neumaier's compensation, so a dense grid adds
      no rounding of its own.  It sees what the gap cannot, such as a wrong
      scale from u to the argument of sn.

    The integrals take nearly all of the call's time.  ``u_grid`` may be
    any iterable; one that yields no u raises ConfigError: rows over no
    point certify nothing.
    """
    grid = sorted(u_grid)
    if not grid:
        raise ConfigError("verify_ode_delta needs at least one u; u_grid is empty")
    kappa = ctx.modulus.kappa
    kernel = _arc(kappa)
    lam2 = (1.0 - kappa) * (1.0 + kappa)
    rows = []
    G = comp = T_prev = 0.0
    for u in grid:
        T = delta_phase(u, ctx)
        step = integrate(kernel, T_prev, T, QUAD_TOL)
        comp += (G - (G + step)) + step if abs(G) >= abs(step) else (step - (G + step)) + G
        G += step
        T_prev = T
        ref, ref_prime = _reference_delta(T, ctx)
        rhs = 4.0 * (1.0 - ref) * (ref * ref * (ref + 3.0) - 4.0 * lam2)
        residual = abs(9.0 * ref_prime * ref_prime - rhs) / (1.0 + ref ** 4)
        rows.append((u, abs(ref - delta(u, ctx)), residual, abs(G - u + comp)))
    return rows


def verify_trimidiation(ctx: DeltaContext, z_samples: Iterable[complex]) -> float:
    """Maximum relative residual of Velu's identity for the trimidiation on
    the lattice of ``ctx``'s modulus kappa.

    w = 2 omega'/3 has order three on the lattice of kappa, and dividing
    its imaginary period by three gives the lattice of lambda, turned a
    quarter turn and divided by sqrt3 (J. Velu, C. R. Acad. Sci. Paris 273
    (1971)); with wp(w) = wp(2w) = -1/3,

        wp(z) + wp(z + w) + wp(z - w) + 2/3 = -3 wp_lambda(sqrt3 i z).

    With Q = 1/3 + wp = (e1 - e3) ``_shifted``, lhs = Q(z) + (Q(z + w) +
    Q(z - w)) and rhs = 4/3 - 3 Q_lambda(sqrt3 i z); the residual is
    |lhs - rhs| / max(1, |rhs|), even in z bitwise because the pair is
    summed first.  Both sides run ``dn3``'s own bridge, with its constant b,
    on a context: ``ctx`` for kappa and the cached context of lambda, so
    omega from F3(kappa^2) meets omega from F3(lambda^2).  w and each
    e1 - e3 are read off the two contexts: nothing is derived again and
    no ``wp`` is called.  Samples must keep z, z +- w and sqrt3 i z off
    the lattices (PoleError otherwise).  An empty
    ``z_samples``, an iterable of any kind, raises ConfigError.
    """
    z_samples = list(z_samples)
    if not z_samples:
        raise ConfigError("verify_trimidiation needs at least one z; z_samples is empty")
    ctx_comp = context(ModulusSet(ctx.modulus.lam))
    spread, spread_comp = ctx.phase_terms[1], ctx_comp.phase_terms[1]  # e1 - e3 of each
    w = 1j * ctx.cell.period_im / 3.0
    rot = SQRT3 * 1j
    worst = 0.0
    for z in z_samples:
        lhs = spread * (_shifted(z, ctx) + (_shifted(z + w, ctx) + _shifted(z - w, ctx)))
        rhs = 4.0 / 3.0 - 3.0 * spread_comp * _shifted(rot * z, ctx_comp)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst
