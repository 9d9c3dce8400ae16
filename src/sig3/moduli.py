"""Signature-three moduli and the p-parametrization.

A configuration is fixed by a modulus kappa in (0, 1) with complementary
modulus lambda = sqrt(1 - kappa^2) and modular angle theta = arcsin kappa.
Trisecting the angle, s = sin(theta/3) and c = cos(theta/3), rationalizes
everything: the one-parameter family

    s = (sqrt3/2) p / sqrt(1+p+p^2),   c = (1/2)(2+p) / sqrt(1+p+p^2)

carries p in (0, 1) onto the admissible (s, c) pairs, and under it the
transfer arguments

    alpha = p^3 (2+p) / (1+2p)          (the Jacobi modulus squared)
    beta  = (27/4) p^2 (1+p)^2 / (1+p+p^2)^3   (= kappa^2)

become rational in p.  This module owns those maps plus the invariant pair
(g2, g3), the closed-form midpoint gaps e2 - e3, e1 - e2 and 1/3 + e3, and
the trimidiation data (h2, h3) of the lattice whose imaginary period is one
third the original.

``params_from_p``, ``invariants`` and ``trimidiation`` compute each value
by two independent routes, cross-check them and refuse to return
inconsistent values.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .weierstrass import WeierstrassInvariants

SQRT3 = math.sqrt(3.0)
# Consistency level for redundant closed-form routes, in units of the
# natural term scale of each formula.
CROSS_ROUTE_TOL = 1e-14


class ModulusSet(NamedTuple("ModulusSet", [("kappa", float), ("lam", float), ("theta", float)])):
    """Modulus kappa, complementary modulus, and modular angle (radians)."""

    __slots__ = ()

    def __new__(cls, kappa: float, lam: float, theta: float):
        if not 0.0 < kappa < 1.0:
            raise DomainError(f"modulus must lie in (0, 1), got {kappa}")
        if abs(lam - math.sqrt((1.0 - kappa) * (1.0 + kappa))) > 1e-15:
            raise DomainError(f"complementary modulus {lam} does not match {kappa}")
        if abs(kappa - math.sin(theta)) > 1e-15:
            raise DomainError(f"modular angle {theta} does not match {kappa}")
        return super().__new__(cls, kappa, lam, theta)

    @property
    def complement(self) -> "ModulusSet":
        return modulus_from_kappa(self.lam)


class TransferParams(NamedTuple):
    """The parameter p with every derived transfer quantity, as a named
    tuple: it unpacks, indexes and compares equal to a plain tuple.

    X is the quartic 8s^4 - 12s^2 + 3, s3c the product s^3 c, r2 the
    midpoint spread e1 - e3, and k2 the squared Jacobi modulus; alpha = k2
    and beta = kappa^2 hold by construction to CROSS_ROUTE_TOL.  alpha_comp
    and beta_comp are 1 - alpha and 1 - beta from their own rational
    formulas, free of the cancellation that subtraction suffers.
    """

    p: float
    s: float
    c: float
    X: float
    s3c: float
    alpha: float
    beta: float
    alpha_comp: float
    beta_comp: float
    r2: float
    k2: float


def modulus_from_kappa(kappa: float) -> ModulusSet:
    """Build the (kappa, lambda, theta) triple for 0 < kappa < 1."""
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"modulus must lie in (0, 1), got {kappa}")
    lam = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    return ModulusSet(kappa=kappa, lam=lam, theta=math.asin(kappa))


def params_from_p(p: float) -> TransferParams:
    """Evaluate the full p-parametrization at 0 < p < 1.

    alpha is computed from its own rational formula and k2 from the
    midpoint route 16 s^3 c / (8 s^3 c + sqrt3 X); beta likewise from its
    rational formula and kappa^2 from s(3 - 4s^2).  The complements

        1 - alpha = (1-p)(1+p)^3 / (1+2p),
        1 - beta  = ((1-p)(2+p)(1+2p))^2 / (4 (1+p+p^2)^3)

    are checked against subtraction to CROSS_ROUTE_TOL (their term scale
    is 1).  Disagreement beyond CROSS_ROUTE_TOL means a broken build, not
    bad input, and raises ArithmeticError.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"transfer parameter must lie in (0, 1), got {p}")
    q = 1.0 + p + p * p
    sq = math.sqrt(q)
    s = 0.5 * SQRT3 * p / sq
    c = 0.5 * (2.0 + p) / sq
    s2 = s * s
    X = (8.0 * s2 - 12.0) * s2 + 3.0
    s3c = s2 * s * c
    if s3c < sys.float_info.min:
        raise DomainError(f"transfer parameter {p} is too small: s^3 c and alpha ~ 2p^3 underflow")

    # All four lie in (0, 1); rounding lifts them up to two ulps above 1,
    # the complements where p is tiny and beta where p is near 1.
    alpha = min(1.0, p * p * p * (2.0 + p) / (1.0 + 2.0 * p))
    beta = min(1.0, 6.75 * (p * (1.0 + p)) ** 2 / (q * q * q))
    alpha_comp = min(1.0, (1.0 - p) * (1.0 + p) ** 3 / (1.0 + 2.0 * p))
    beta_comp = min(1.0, ((1.0 - p) * (2.0 + p) * (1.0 + 2.0 * p)) ** 2 / (4.0 * q * q * q))
    r2 = (1.0 + 2.0 * p) / (q * q)
    k2 = 16.0 * s3c / (8.0 * s3c + SQRT3 * X)

    kappa_s = s * (3.0 - 4.0 * s2)
    gaps = (
        abs(alpha - k2) / alpha,
        abs(beta - kappa_s * kappa_s) / beta,
        abs(alpha_comp - (1.0 - alpha)),
        abs(beta_comp - (1.0 - beta)),
    )
    if max(gaps) > CROSS_ROUTE_TOL:
        raise ArithmeticError(
            f"transfer parametrization routes disagree at p={p}: gaps for alpha, beta, "
            f"1 - alpha, 1 - beta are {gaps}"
        )
    return TransferParams(p, s, c, X, s3c, alpha, beta, alpha_comp, beta_comp, r2, k2)


def p_from_s_c(s: float, c: float) -> float:
    """Invert the parametrization: p = 2(s^2 + sqrt3 s c)/(3 - 4 s^2).

    Valid for (s, c) = (sin(theta/3), cos(theta/3)) with theta in
    (0, pi/2), i.e. 0 < s < 1/2 and matching cosine.
    """
    if not 0.0 < s < 0.5:
        raise DomainError(f"sine of the trisected angle must lie in (0, 1/2), got {s}")
    if c <= 0.0 or abs(s * s + c * c - 1.0) > 1e-12:
        raise DomainError(f"({s}, {c}) is not a sine/cosine pair")
    return 2.0 * (s * s + SQRT3 * s * c) / (3.0 - 4.0 * s * s)


@lru_cache(maxsize=64)
def invariants(mod: ModulusSet) -> WeierstrassInvariants:
    """Invariant pair of the configuration:

        g2 = (4/27)(9 - 8 kappa^2),
        g3 = (8/729)(27 - 36 kappa^2 + 8 kappa^4).

    The equivalent complementary forms (4/27)(8 lambda^2 + 1) and
    (8/729)(8 lambda^4 + 20 lambda^2 - 1) are evaluated as a guard; they
    must agree to CROSS_ROUTE_TOL of each polynomial's term scale (g3
    itself crosses zero near kappa = 0.975, where a value-relative
    comparison would be meaningless).  The pair is cached per modulus, so
    the guard runs the first time each modulus is seen.
    """
    t = mod.kappa * mod.kappa
    u = mod.lam * mod.lam
    g2 = (4.0 / 27.0) * (9.0 - 8.0 * t)
    g3 = (8.0 / 729.0) * (27.0 - (36.0 - 8.0 * t) * t)
    g2_alt = (4.0 / 27.0) * (8.0 * u + 1.0)
    g3_alt = (8.0 / 729.0) * ((8.0 * u + 20.0) * u - 1.0)
    g2_scale = (4.0 / 27.0) * (9.0 + 8.0 * t)
    g3_scale = (8.0 / 729.0) * (27.0 + (36.0 + 8.0 * t) * t)
    if abs(g2 - g2_alt) > CROSS_ROUTE_TOL * g2_scale or abs(g3 - g3_alt) > CROSS_ROUTE_TOL * g3_scale:
        raise ArithmeticError(
            f"invariant routes disagree at kappa={mod.kappa}: "
            f"({g2}, {g3}) vs ({g2_alt}, {g3_alt})"
        )
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
    kappa, lam, theta = mod
    s, c = math.sin(theta / 3.0), math.cos(theta / 3.0)
    phi = 2.0 * math.atan2(lam, kappa) / 3.0
    low = (16.0 * SQRT3 / 9.0) * s * s * s * c
    if low < sys.float_info.min:
        raise DomainError(f"modulus {kappa} is too small: e2 - e3 ~ 0.11 kappa^3 underflows")
    high = (4.0 * SQRT3 / 9.0) * math.sin(phi) * (1.0 + math.cos(phi))
    shift = (4.0 / 9.0) * s * s * (3.0 - 2.0 * s * s - 2.0 * SQRT3 * s * c)
    return low, high, shift


def trimidiation(mod: ModulusSet) -> WeierstrassInvariants:
    """Invariants (h2, h3) of the lattice with imaginary period divided by
    three, as the pair (g2, g3) of that lattice.

    Two routes: through b = -1/3 (the Weierstrass value at two thirds of
    the imaginary half-period),

        h2 = 120 b^2 - 9 g2,    h3 = 280 b^3 - 42 b g2 - 27 g3,

    and the closed forms h2 = (4/3)(1 + 8 kappa^2),
    h3 = (8/27)(1 - 20 kappa^2 - 8 kappa^4).  The two must agree to
    CROSS_ROUTE_TOL of the term scale (h3 has a zero near kappa = 0.221).
    """
    b = -1.0 / 3.0
    inv = invariants(mod)
    h2_b = 120.0 * b * b - 9.0 * inv.g2
    h3_b = 280.0 * b * b * b - 42.0 * b * inv.g2 - 27.0 * inv.g3
    t = mod.kappa * mod.kappa
    h2 = (4.0 / 3.0) * (1.0 + 8.0 * t)
    h3 = (8.0 / 27.0) * (1.0 - (20.0 + 8.0 * t) * t)
    h3_scale = (8.0 / 27.0) * (1.0 + (20.0 + 8.0 * t) * t)
    if abs(h2 - h2_b) > CROSS_ROUTE_TOL * h2 or abs(h3 - h3_b) > CROSS_ROUTE_TOL * h3_scale:
        raise ArithmeticError(
            f"trimidiation routes disagree at kappa={mod.kappa}: "
            f"({h2}, {h3}) vs ({h2_b}, {h3_b})"
        )
    return WeierstrassInvariants(g2=h2, g3=h3)
