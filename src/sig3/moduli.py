"""Signature-three moduli and the p-parametrization.

A configuration is fixed by its modulus kappa in (0, 1) alone, the one
field of ``ModulusSet``; the complementary modulus lambda = sqrt(1 - kappa^2)
and the modular angle theta = arcsin kappa follow from it.  Trisecting the
angle, s = sin(theta/3) and c = cos(theta/3) (formed in one place,
``_trisected``), rationalizes everything: the one-parameter family

    s = (sqrt3/2) p / sqrt(1+p+p^2),   c = (1/2)(2+p) / sqrt(1+p+p^2)

carries p in (0, 1) onto the admissible (s, c) pairs, and under it the
transfer arguments

    alpha = p^3 (2+p) / (1+2p)          (the Jacobi modulus squared)
    beta  = (27/4) p^2 (1+p)^2 / (1+p+p^2)^3   (= kappa^2)

become rational in p.  This module owns those maps, the closed-form
midpoint gaps e2 - e3, e1 - e2 and 1/3 + e3 and the half periods in the
signature-three basis.  Together they fix the lattice of kappa, the one
lattice of a configuration: ``DeltaContext`` builds it once, with its
Gauss ladder (``weierstrass._cell``), and ``context`` caches one context
per modulus.  ``delta``, ``dn3``, ``weierstrass.wp`` and the lattice
certificates run on it.  ``ModulusSet.p`` goes back from kappa to p.

Each value has one formula here.  The identities that tie the formulas
together (alpha as the midpoint-route modulus, beta as the square of the
trisected sine route, and each complement as one minus its argument) are
proven exactly in the tests.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .hypergeom import f3_complement
from .weierstrass import _cell

SQRT3 = math.sqrt(3.0)
_FLOAT_MIN = sys.float_info.min


class ModulusSet(NamedTuple("ModulusSet", [("kappa", float)])):
    """The modulus kappa in (0, 1), which alone fixes the configuration; the
    complementary modulus ``lam`` and the transfer parameter ``p`` are
    derived from it, and lambda's own configuration is ``ModulusSet(lam)``."""

    __slots__ = ()

    def __new__(cls, kappa: float):
        if not 0.0 < kappa < 1.0:
            raise DomainError(f"modulus must lie in (0, 1), got {kappa}")
        return super().__new__(cls, kappa)

    @property
    def lam(self) -> float:
        """The complementary modulus sqrt((1 - kappa)(1 + kappa))."""
        return math.sqrt((1.0 - self.kappa) * (1.0 + self.kappa))

    @property
    def p(self) -> float:
        """The transfer parameter of this modulus: beta(p) = kappa^2 at

            p = 2(s^2 + sqrt3 s c)/(3 - 4 s^2),  s, c = sin, cos(theta/3).
        """
        s, c = _trisected(self.kappa)
        return 2.0 * (s * s + SQRT3 * s * c) / (3.0 - 4.0 * s * s)


def _trisected(kappa: float) -> tuple[float, float]:
    """s, c = sin, cos(theta/3) of the modular angle theta = arcsin kappa."""
    third = math.asin(kappa) / 3.0
    return math.sin(third), math.cos(third)


class TransferParams(NamedTuple):
    """The parameter p with the transfer quantities a verify row reads, as
    a named tuple: it unpacks, indexes and compares equal to a plain tuple.

    alpha is the squared Jacobi modulus and beta = kappa^2; alpha_comp and
    beta_comp are 1 - alpha and 1 - beta from their own rational formulas,
    free of the cancellation that subtraction suffers.
    """

    p: float
    alpha: float
    beta: float
    alpha_comp: float
    beta_comp: float


# The same class under the name that perfbench/ and the tests call.
modulus_from_kappa = ModulusSet


def params_from_p(p: float) -> TransferParams:
    """Evaluate the p-parametrization at 0 < p < 1, every field from its
    rational formula in p (q = 1 + p + p^2):

        alpha = p^3 (2+p) / (1+2p),     1 - alpha = (1-p)(1+p)^3 / (1+2p),
        beta  = (27/4) p^2 (1+p)^2 / q^3,
        1 - beta = ((1-p)(2+p)(1+2p))^2 / (4 q^3).

    Below p ~ 2.2324e-103, alpha ~ 2p^3 is not a normal float: DomainError.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"transfer parameter must lie in (0, 1), got {p}")
    q = 1.0 + p + p * p
    q3 = q * q * q
    # All four lie in (0, 1); rounding lifts them up to two ulps above 1,
    # the complements where p is tiny and beta where p is near 1.  Each
    # clamp is an if, not a min() call: the calls cost a fifth of the function.
    alpha = p * p * p * (2.0 + p) / (1.0 + 2.0 * p)
    if alpha < _FLOAT_MIN:
        raise DomainError(f"transfer parameter {p} is too small: alpha ~ 2p^3 underflows")
    beta = 6.75 * (p * (1.0 + p)) ** 2 / q3
    if beta > 1.0:
        beta = 1.0
    alpha_comp = (1.0 - p) * (1.0 + p) ** 3 / (1.0 + 2.0 * p)
    if alpha_comp > 1.0:
        alpha_comp = 1.0
    beta_comp = ((1.0 - p) * (2.0 + p) * (1.0 + 2.0 * p)) ** 2 / (4.0 * q3)
    if beta_comp > 1.0:
        beta_comp = 1.0
    # tuple.__new__ skips the named tuple's Python-level __new__.
    return tuple.__new__(TransferParams, (p, alpha, beta, alpha_comp, beta_comp))


def midpoint_gaps(mod: ModulusSet) -> tuple[float, float, float]:
    """e2 - e3, e1 - e2 and 1/3 + e3 of the configuration, in closed form:

        e2 - e3 = (16 sqrt3/9) s^3 c,
        e1 - e2 = (4 sqrt3/9) sin(2 phi/3) (1 + cos(2 phi/3)),
        1/3 + e3 = (4/9) s^2 (3 - 2 s^2 - 2 sqrt3 s c),

    with s, c = sin, cos(theta/3) and phi = atan2(lambda, kappa).  No
    midpoint is subtracted from another, so each keeps its digits at both
    ends of (0, 1).  Below kappa ~ 5.8e-103, e2 - e3 ~ 0.11 kappa^3 is not
    a normal float: DomainError.
    """
    kappa = mod.kappa
    s, c = _trisected(kappa)
    phi = 2.0 * math.atan2(mod.lam, kappa) / 3.0
    low = (16.0 * SQRT3 / 9.0) * s * s * s * c
    if low < _FLOAT_MIN:
        raise DomainError(f"modulus {kappa} is too small: e2 - e3 ~ 0.11 kappa^3 underflows")
    high = (4.0 * SQRT3 / 9.0) * math.sin(phi) * (1.0 + math.cos(phi))
    shift = (4.0 / 9.0) * s * s * (3.0 - 2.0 * s * s - 2.0 * SQRT3 * s * c)
    return low, high, shift


class HalfPeriodPair(NamedTuple):
    """Half periods (omega, omega') with omega > 0 and omega' on the positive
    imaginary axis; the fundamental periods are (2 omega, 2 omega').  Its
    producer, ``half_periods_sig3``, builds omega and -i omega' as positive
    multiples of kernel values >= 1, so the invariant holds by
    construction and nothing checks it."""

    omega: float
    omega_prime: complex


def half_periods_sig3(mod: ModulusSet) -> HalfPeriodPair:
    """Half periods in the signature-three basis:

        omega  = (pi/2) F(1/3, 2/3; 1; kappa^2),
        omega' = i (sqrt3/2) pi F(1/3, 2/3; 1; 1 - kappa^2).

    Equivalently omega' = i sqrt3 omega(lambda), the complementary-modulus
    relation behind the imaginary-period formula.  Each F3 value is taken
    from the complement of its argument.  A kappa below ~1.6e-162, whose
    square underflows to 0, raises DomainError.
    """
    k = mod.kappa
    k2 = k * k
    if not k2:
        raise DomainError(f"modulus kappa = {k!r} is too small: kappa^2 underflows to 0")
    half_pi = 0.5 * math.pi
    return HalfPeriodPair(
        omega=half_pi * f3_complement((1.0 - k) * (1.0 + k)),
        omega_prime=1j * (SQRT3 * half_pi * f3_complement(k2)),
    )


class DeltaContext(NamedTuple("DeltaContext", [("modulus", ModulusSet), ("omega", float), ("cell", tuple),
                                               ("bridge", tuple), ("phase_terms", tuple)])):
    """A modulus kappa with the constants of its lattice, as a named tuple
    built from the modulus alone: ``DeltaContext(modulus)``.

    Every field but the modulus is derived once, at construction, from the
    closed forms of ``midpoint_gaps`` and ``half_periods_sig3``:
    ``cell``, the lattice of kappa with the Gauss ladder of k
    (``weierstrass._Cell``); omega, half the cell's real period, so the
    phase, the route gap and the reduction into the cell read one float;
    ``bridge``, the (scale, rungs, a, b) that ``delta.delta`` reads in one
    unpack: the ladder's scale and rungs, copied from the cell because
    reading them off it by name makes each ``delta`` call 7-13% slower,
    with the bridge constants a = (4/9) kappa^2/(e1 - e3) and
    b = (1/3 + e3)/(e1 - e3); and ``phase_terms``, the
    (c, e1 - e3, k^2, k'^2) of the ladder and of ``delta_phase``'s closed
    form, c = 1 + b - a/3, k^2 = (e2 - e3)/(e1 - e3) and
    k'^2 = (e1 - e2)/(e1 - e3) = 1 - alpha(p).  ``wp`` and
    ``verify_trimidiation`` read its spread e1 - e3 too, and
    ``period_route_gap`` its e1 - e3 and k^2.  ``context`` shares one
    context per modulus; as a tuple, no field can be reassigned.  Every
    kappa in (0, 1) from ~5.8e-103 up is accepted; below, e2 - e3 ~ 0.11
    kappa^3 is not a normal float: DomainError.
    """

    __slots__ = ()

    def __new__(cls, modulus: ModulusSet):
        # The periods first: a kappa whose square underflows is refused as such.
        periods = half_periods_sig3(modulus)
        low, high, shift = midpoint_gaps(modulus)
        spread = low + high  # e1 - e3
        k2, k2_comp = low / spread, high / spread
        cell = _cell(periods, math.sqrt(spread), k2, k2_comp)
        a, b = (4.0 / 9.0) * modulus.kappa * modulus.kappa / spread, shift / spread
        return super().__new__(cls, modulus, 0.5 * cell.period_re, cell, (cell.scale, cell.rungs, a, b),
                               (1.0 + b - a / 3.0, spread, k2, k2_comp))


# The contexts of dn3, wp and Velu's complementary lattice, one per modulus.
context = lru_cache(maxsize=64)(DeltaContext)
# The same cache under the name that perfbench/ calls, wp(z, invariants(mod)).
invariants = context
