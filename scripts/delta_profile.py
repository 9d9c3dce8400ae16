#!/usr/bin/env python3
"""Profile the delta function over one period and check it against both
independent routes.

Prints delta(u) on a uniform grid across [0, 2 omega], the pointwise gap to
the paper's integral-inversion route 1/F(1/3,2/3;1/2; kappa^2 sin^2 T(u)),
the gap to the doubly periodic extension dn3 (wp by halving and
duplication), and the differential-equation residual.  The integral
inversion reaches its tolerance up to kappa ~ 0.999; beyond that it raises
QuadratureFailure, reported as an error with exit status 1.
"""

import argparse
import math
import sys

from sig3.delta import DeltaContext, delta, delta_phase, dn3
from sig3.errors import Sig3Error
from sig3.hypergeom import f_half
from sig3.moduli import modulus_from_kappa
from sig3.transfer import verify_ode_delta


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=float, default=0.6)
    ap.add_argument("--samples", type=int, default=17)
    args = ap.parse_args()
    if args.samples < 2:
        ap.error(f"--samples must be at least 2, got {args.samples}")
    try:
        mod = modulus_from_kappa(args.kappa)
    except ValueError as exc:  # DomainError
        ap.error(f"--kappa {args.kappa}: {exc}")
    try:
        profile(mod, args.samples)
    except Sig3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def profile(mod, samples: int) -> None:
    ctx = DeltaContext(mod)
    omega = ctx.omega
    k2 = mod.kappa * mod.kappa
    print(f"kappa = {mod.kappa}   omega = {omega!r}   period = {2 * omega!r}")
    print(f"{'u':>10} {'delta(u)':>20} {'|delta - inv|':>14} {'|delta - dn3|':>14}")
    interior = []
    for i in range(samples):
        u = 2.0 * omega * i / (samples - 1)
        d = delta(u, ctx)
        inv_gap = abs(1.0 / f_half(k2 * math.sin(delta_phase(u, ctx)) ** 2) - d)
        # dn3 needs wp, which has poles at the lattice points 0 and 2 omega
        near_pole = min(u, abs(2.0 * omega - u)) < 1e-6
        dn3_gap = float("nan") if near_pole else abs(dn3(u, mod) - d)
        if not near_pole:
            interior.append(u)
        print(f"{u:10.5f} {d:20.15f} {inv_gap:14.3e} {dn3_gap:14.3e}")
    residual = verify_ode_delta(mod.kappa, [u for u in interior if 0 < u < 2 * omega])
    print(f"\nmax scaled ODE residual over the interior grid: {residual:.3e}")


if __name__ == "__main__":
    sys.exit(main())
