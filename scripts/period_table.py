#!/usr/bin/env python3
"""Tabulate both half-period routes across a modulus grid.

For each kappa the real and imaginary half-periods are computed once in the
signature-three basis (cubic AGM) and once through the classical Jacobi
basis at the matching transfer parameter; the relative gaps are the
geometric form of the transfer identities.
"""

import argparse
import math
import sys

from sig3.delta import half_periods_jacobi_route, half_periods_sig3
from sig3.moduli import modulus_from_kappa, p_from_s_c
from sig3.transfer import grid_points


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappas", default="0.1:0.9:0.1", help="kappa grid start:stop:step")
    args = ap.parse_args()
    try:
        kappas = grid_points(*(float(part) for part in args.kappas.split(":")))
        mods = [modulus_from_kappa(kappa) for kappa in kappas]
    except (TypeError, ValueError) as exc:  # ConfigError and DomainError are ValueErrors
        ap.error(f"--kappas {args.kappas!r}: {exc}")

    print(f"{'kappa':>6} {'p':>10} {'omega':>18} {'-i omega_prime':>18} {'gap_re':>9} {'gap_im':>9}")
    for mod in mods:
        third = mod.theta / 3.0
        p = p_from_s_c(math.sin(third), math.cos(third))
        sig = half_periods_sig3(mod)
        jac = half_periods_jacobi_route(p)
        gap_re = abs(sig.omega - jac.omega) / sig.omega
        gap_im = abs(sig.omega_prime.imag - jac.omega_prime.imag) / sig.omega_prime.imag
        print(
            f"{mod.kappa:6.3f} {p:10.6f} {sig.omega:18.15f} {sig.omega_prime.imag:18.15f} "
            f"{gap_re:9.2e} {gap_im:9.2e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
