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

become rational in p.  This module owns those maps plus the invariant pair
(g2, g3) and the closed-form midpoint gaps e2 - e3, e1 - e2 and 1/3 + e3.
The gaps fix the lattice of kappa, on which ``delta``, ``dn3`` and
``delta.verify_trimidiation`` run; the invariants serve only ``wp``,
which rebuilds a lattice from them.  ``ModulusSet.p`` goes back from
kappa to p.

Each value has one formula here.  The identities that tie the formulas
together (alpha as the midpoint-route modulus, beta as the square of the
trisected sine route, each complement as one minus its argument, and the
complementary forms of the invariants) are proven exactly in the tests.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .weierstrass import WeierstrassInvariants

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


@lru_cache(maxsize=64)
def invariants(mod: ModulusSet) -> WeierstrassInvariants:
    """Invariant pair of the configuration, cached per modulus:

        g2 = (4/27)(9 - 8 kappa^2),
        g3 = (8/729)(27 - 36 kappa^2 + 8 kappa^4).
    """
    t = mod.kappa * mod.kappa
    g2 = (4.0 / 27.0) * (9.0 - 8.0 * t)
    g3 = (8.0 / 729.0) * (27.0 - (36.0 - 8.0 * t) * t)
    return WeierstrassInvariants(g2=g2, g3=g3)


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
