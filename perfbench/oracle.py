"""30-digit mpmath oracles for the benchmark's accuracy checks.

Nothing here calls into ``sig3``: the kernels come from ``mpmath.hyp2f1``
and the Weierstrass function from the Jacobi bridge

    wp(z) = e3 + (e1 - e3) / sn^2(z sqrt(e1 - e3), k),  k^2 = (e2 - e3)/(e1 - e3),

with e1 > e2 > e3 the roots of 4t^3 - g2 t - g3 found by ``mpmath.polyroots``.
Every float argument is taken exactly as the binary value it holds, so an
oracle value is the true function at the input the package actually saw.
These calls are slow (up to milliseconds each); keep them out of any timed
region.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

DIGITS = 30
mp.mp.dps = DIGITS

_HALF = mp.mpf(1) / 2
_THIRD = mp.mpf(1) / 3
_TWO_THIRDS = mp.mpf(2) / 3


def f2(x: float) -> mp.mpf:
    """F(1/2, 1/2; 1; x)."""
    return mp.hyp2f1(_HALF, _HALF, 1, mp.mpf(x))


def f3(x: float) -> mp.mpf:
    """F(1/3, 2/3; 1; x)."""
    return mp.hyp2f1(_THIRD, _TWO_THIRDS, 1, mp.mpf(x))


def f_half(x: float) -> mp.mpf:
    """F(1/3, 2/3; 1/2; x)."""
    return mp.hyp2f1(_THIRD, _TWO_THIRDS, _HALF, mp.mpf(x))


def one_minus_f2(x: float) -> mp.mpf:
    """F(1/2, 1/2; 1; 1 - x) with the complement formed at oracle precision."""
    return mp.hyp2f1(_HALF, _HALF, 1, 1 - mp.mpf(x))


def one_minus_f3(x: float) -> mp.mpf:
    """F(1/3, 2/3; 1; 1 - x) with the complement formed at oracle precision."""
    return mp.hyp2f1(_THIRD, _TWO_THIRDS, 1, 1 - mp.mpf(x))


def sig3_invariants(kappa: float) -> tuple[mp.mpf, mp.mpf]:
    """g2 = (4/27)(9 - 8 kappa^2), g3 = (8/729)(27 - 36 kappa^2 + 8 kappa^4)."""
    t = mp.mpf(kappa) ** 2
    return (mp.mpf(4) / 27 * (9 - 8 * t), mp.mpf(8) / 729 * (27 - 36 * t + 8 * t * t))


@lru_cache(maxsize=None)
def _lattice(g2, g3):
    """(e1, e3, r, m): midpoints, r = sqrt(e1 - e3), m = k^2."""
    roots = mp.polyroots([4, 0, -mp.mpf(g2), -mp.mpf(g3)], extraprec=4 * DIGITS)
    e1, e2, e3 = sorted((mp.re(t) for t in roots), reverse=True)
    return e1, e3, mp.sqrt(e1 - e3), (e2 - e3) / (e1 - e3)


def half_periods(g2, g3) -> tuple[mp.mpf, mp.mpf]:
    """(omega, -i omega') = (K(k), K(k')) / sqrt(e1 - e3)."""
    _, _, r, m = _lattice(g2, g3)
    return mp.ellipk(m) / r, mp.ellipk(1 - m) / r


def wp(z: complex, g2, g3) -> mp.mpc:
    """Weierstrass wp(z; g2, g3) through the Jacobi bridge."""
    e1, e3, r, m = _lattice(g2, g3)
    s = mp.ellipfun("sn", mp.mpc(z) * r, m=m)
    return e3 + (e1 - e3) / (s * s)


def dn3_from_wp(wp_value, kappa: float):
    """dn3 = 1 - (4/9) kappa^2 / (1/3 + wp)."""
    return 1 - mp.mpf(4) / 9 * mp.mpf(kappa) ** 2 / (_THIRD + wp_value)


def conditions(z: complex, wp_value, kappa: float) -> tuple[float, float]:
    """Relative condition numbers |z f'(z) / f(z)| of wp and of dn3 at z,
    on the lattice of ``sig3_invariants(kappa)``; wp'^2 = 4wp^3 - g2 wp - g3."""
    g2, g3 = sig3_invariants(kappa)
    dwp = mp.sqrt(4 * wp_value ** 3 - g2 * wp_value - g3)
    shifted = _THIRD + wp_value
    c = mp.mpf(4) / 9 * mp.mpf(kappa) ** 2
    dn3 = 1 - c / shifted
    return (
        float(abs(z * dwp / wp_value)),
        float(abs(z * c * dwp / (shifted * shifted * dn3))),
    )


def delta(u: float, kappa: float) -> mp.mpf:
    """delta(u) = dn3(u) on the real axis, with the exact invariants of kappa."""
    return mp.re(dn3_from_wp(wp(u, *sig3_invariants(kappa)), kappa))


def relerr(value, reference) -> float:
    """|value - reference| / |reference|, evaluated at oracle precision."""
    return float(abs(mp.mpmathify(value) - reference) / abs(reference))
