"""Command-line front end: evaluate kernels, dump periods, verify identities.

Exit codes: 0 all requested checks passed, 1 a verification failed (or an
I/O failure), 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import IO, Sequence

from .delta import DeltaContext, delta, half_periods_jacobi_route, half_periods_sig3
from .errors import ConfigError, DomainError, Sig3Error
from .hypergeom import f2, f3, f_half
from .moduli import modulus_from_kappa, p_from_s_c
from .transfer import DEFAULT_TOL, VerificationReport, grid_report

__all__ = ["main", "run", "emit_csv"]

CSV_HEADER = (
    "p,alpha,beta,lhs56,rhs56,relerr56,lhs57,rhs57,relerr57,"
    "lhs58,rhs58,relerr58,pass56,pass57,pass58"
)

EVAL_FUNCTIONS = {"f2": f2, "f3": f3, "fhalf": f_half}


def emit_csv(report: VerificationReport, sink: IO[str]) -> None:
    """Write the report as CSV: repr-rendered numbers (shortest round-trip
    form, at most 17 significant digits), lowercase booleans, one newline
    per line."""
    if not report.rows:
        raise ConfigError("refusing to emit an empty report")
    sink.write(CSV_HEADER + "\n")
    for r in report.rows:
        fields = [
            repr(r.p), repr(r.alpha), repr(r.beta),
            repr(r.lhs56), repr(r.rhs56), repr(r.relerr56),
            repr(r.lhs57), repr(r.rhs57), repr(r.relerr57),
            repr(r.lhs58), repr(r.rhs58), repr(r.relerr58),
            "true" if r.pass56 else "false",
            "true" if r.pass57 else "false",
            "true" if r.pass58 else "false",
        ]
        sink.write(",".join(fields) + "\n")


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"grid must be three numbers, got {text!r}") from None
    return start, stop, step


def _cmd_verify(args: argparse.Namespace) -> int:
    start, stop, step = _parse_grid(args.grid)
    report = grid_report(start, stop, step, tol=args.tol)
    if not args.quiet:
        for label in ("56", "57", "58"):
            verdict = "pass" if all(
                getattr(r, f"pass{label}") for r in report.rows
            ) else "FAIL"
            print(
                f"identity{label}: max relerr {report.max_relerr[label]:.3e} "
                f"(tol {report.tol:.1e}) {verdict}"
            )
        print(f"{len(report.rows)} grid points: {'all pass' if report.all_pass else 'FAILURES'}")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as sink:
            emit_csv(report, sink)
    else:
        emit_csv(report, sys.stdout)
    return 0 if report.all_pass else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    print(repr(EVAL_FUNCTIONS[args.fn](args.x)))
    return 0


def _cmd_periods(args: argparse.Namespace) -> int:
    mod = modulus_from_kappa(args.kappa)
    sig = half_periods_sig3(mod)
    third = mod.theta / 3.0
    p = p_from_s_c(math.sin(third), math.cos(third))
    jac = half_periods_jacobi_route(p)
    gap_re = abs(sig.omega - jac.omega) / sig.omega
    gap_im = abs(sig.omega_prime.imag - jac.omega_prime.imag) / sig.omega_prime.imag
    print(f"kappa = {args.kappa!r}  (transfer parameter p = {p!r})")
    print(f"omega    sig3={sig.omega!r} jacobi={jac.omega!r} relgap={gap_re:.3e}")
    print(
        f"-i*omega' sig3={sig.omega_prime.imag!r} "
        f"jacobi={jac.omega_prime.imag!r} relgap={gap_im:.3e}"
    )
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    ctx = DeltaContext(modulus_from_kappa(args.kappa))
    print(repr(delta(args.u, ctx)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sig3",
        description="Signature-three elliptic numerics and transfer-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity suite over a p grid")
    verify.add_argument("--grid", default="0.05:0.95:0.05", help="p grid as start:stop:step")
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL, help="pass tolerance")
    verify.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    verify.add_argument("--quiet", action="store_true", help="suppress the summary")
    verify.set_defaults(handler=_cmd_verify)

    evaluate = sub.add_parser("eval", help="evaluate one hypergeometric kernel")
    evaluate.add_argument("fn", choices=sorted(EVAL_FUNCTIONS))
    evaluate.add_argument("x", type=float)
    evaluate.set_defaults(handler=_cmd_eval)

    periods = sub.add_parser("periods", help="print both half-period routes at a modulus")
    periods.add_argument("--kappa", type=float, required=True)
    periods.set_defaults(handler=_cmd_periods)

    dlt = sub.add_parser("delta", help="evaluate the delta function")
    dlt.add_argument("--kappa", type=float, required=True)
    dlt.add_argument("--u", type=float, required=True)
    dlt.set_defaults(handler=_cmd_delta)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Sig3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
