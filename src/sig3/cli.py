"""Command-line front end: evaluate kernels, tabulate periods, profile
delta, verify identities.

Exit codes: 0 all requested checks passed, 1 a verification failed (or an
I/O failure, or the reference route could not reach its tolerance), 2
usage or domain errors.  A reader that closes standard output early (as in
``sig3 verify | head -1``) is not a failure: the output stops without a
message and the exit code is the verdict, which each handler computes
before it returns the function that writes its output.

The front end imports no private name: a ``delta`` profile prints the
reference route's gap, |G(T) - u| and ODE residual from the rows of its
certificate, ``delta.verify_ode_delta``, called once over the profile's
grid.  Negative numbers are values in every form ``float`` reads, "-1e-5"
and "-inf" included.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import IO, Callable, Sequence

from .delta import delta, dn3, period_route_gap, verify_ode_delta
from .errors import ConfigError, DomainError, Sig3Error
from .hypergeom import f2, f3, f_half
from .moduli import DeltaContext, ModulusSet
from .transfer import (
    DEFAULT_TOL,
    MAX_GRID_POINTS,
    VerificationReport,
    VerificationRow,
    grid_points,
    grid_report,
)

# CSV columns are the VerificationRow fields: the floats, then from pass56
# on the verdicts.
CSV_HEADER = ",".join(VerificationRow._fields)

EVAL_FUNCTIONS = {"f2": f2, "f3": f3, "fhalf": f_half}

# argparse reads an argument that starts with "-" as an option unless it
# matches its negative-number pattern, which has no exponent and no
# infinity: "--u -1e-5" would lack its value.  This prefix, each parser's
# pattern from _build_parser on, matches every negative float literal, and
# float() then judges the whole argument.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def emit_csv(report: VerificationReport, sink: IO[str]) -> None:
    """Write the report as CSV: repr-rendered numbers (shortest round-trip
    form, at most 17 significant digits), lowercase booleans, one newline
    per line, one ``sink.write`` per line.

    The identities are exact, so the two sides of one often round to the
    same double: in 997 of the 2,997 pairs on the grid 0.001:0.999:0.001.
    Where rhs == lhs and both are nonzero, they are the same double bit
    for bit, and rhs reuses lhs's text instead of a second ``repr``.  Zero
    is left out because 0.0 == -0.0 while the two print differently, and
    NaN equals nothing, so each prints as ``repr`` gives it.  The numeric
    fields are floats, as ``grid_report`` builds them.  A report with no
    rows, which ``grid_report`` never returns, writes the header alone."""
    sink.write(CSV_HEADER + "\n")
    for p, alpha, beta, lhs56, rhs56, e56, lhs57, rhs57, e57, lhs58, rhs58, e58, ok56, ok57, ok58 in report.rows:
        t56, t57, t58 = repr(lhs56), repr(lhs57), repr(lhs58)
        sink.write(
            f"{p!r},{alpha!r},{beta!r},"
            f"{t56},{t56 if lhs56 == rhs56 and lhs56 else repr(rhs56)},{e56!r},"
            f"{t57},{t57 if lhs57 == rhs57 and lhs57 else repr(rhs57)},{e57!r},"
            f"{t58},{t58 if lhs58 == rhs58 and lhs58 else repr(rhs58)},{e58!r},"
            f"{'true' if ok56 else 'false'},{'true' if ok57 else 'false'},{'true' if ok58 else 'false'}\n"
        )


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"grid must be three numbers, got {text!r}") from None
    return start, stop, step


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Callable[[], None]]:
    start, stop, step = _parse_grid(args.grid)
    report = grid_report(start, stop, step, tol=args.tol)

    def write() -> None:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as sink:
                emit_csv(report, sink)
        if not args.quiet:
            for label in ("56", "57", "58"):
                # Every relerr is finite, so this is all(passNN) over the rows.
                verdict = "pass" if report.max_relerr[label] <= report.tol else "FAIL"
                print(
                    f"identity{label}: max relerr {report.max_relerr[label]:.3e} "
                    f"(tol {report.tol:.1e}) {verdict}"
                )
            print(f"{len(report.rows)} grid points: {'all pass' if report.all_pass else 'FAILURES'}")
        if args.out is None:
            emit_csv(report, sys.stdout)

    return (0 if report.all_pass else 1), write


def _cmd_eval(args: argparse.Namespace) -> tuple[int, Callable[[], None]]:
    return 0, lambda: print(repr(EVAL_FUNCTIONS[args.fn](args.x)))


def _cmd_periods(args: argparse.Namespace) -> tuple[int, Callable[[], None]]:
    # A single kappa is the one-point grid kappa:kappa:1.  Every row is
    # computed before the table starts, so a bad grid prints no rows.
    text = args.kappa if ":" in args.kappa else f"{args.kappa}:{args.kappa}:1"
    lines = [_period_line(DeltaContext(ModulusSet(kappa))) for kappa in grid_points(*_parse_grid(text))]
    header = f"{'kappa':>20} {'p':>22} {'omega':>18} {'-i omega_prime':>18} {'gap_re':>9} {'gap_im':>9}"
    return 0, lambda: print(header, *lines, sep="\n")


def _period_line(ctx: DeltaContext) -> str:
    """One table row: kappa, p, omega, -i omega' and the two route gaps of
    the lattice of kappa."""
    mod = ctx.modulus
    gap_re, gap_im = period_route_gap(ctx)
    return (
        f"{mod.kappa!r:>20} {mod.p!r:>22} {ctx.omega:18.15f} {0.5 * ctx.cell.period_im:18.15f} "
        f"{gap_re:9.2e} {gap_im:9.2e}"
    )


def _cmd_delta(args: argparse.Namespace) -> tuple[int, Callable[[], None]]:
    ctx = DeltaContext(ModulusSet(args.kappa))
    if args.u is not None:
        return 0, lambda: print(repr(delta(args.u, ctx)))
    # Samples 0 and N - 1 are the lattice points 0 and 2 omega, where the ODE
    # residual is not taken: a third sample is the first interior point.
    if not 3 <= args.samples <= MAX_GRID_POINTS:
        raise ConfigError(f"--samples must lie in [3, {MAX_GRID_POINTS}], got {args.samples}")
    lines = _profile_lines(ctx, args.samples)  # all rows first: a failure prints none
    return 0, lambda: print(*lines, sep="\n")


def _profile_lines(ctx: DeltaContext, samples: int) -> list[str]:
    """delta on a uniform grid over [0, 2 omega], its gaps to the reference
    route and to dn3, the phase's |G(T) - u| and the ODE residual.  The
    gaps and residual of every row come from one call of the reference
    route's certificate ``verify_ode_delta`` over the grid: one running
    arc integral from 0 to pi."""
    mod = ctx.modulus
    omega = ctx.omega
    lines = [
        f"kappa = {mod.kappa}   omega = {omega!r}   period = {2 * omega!r}",
        f"{'u':>10} {'delta(u)':>20} {'|delta - inv|':>14} {'|delta - dn3|':>14} {'|G(T) - u|':>14}",
    ]
    rows = verify_ode_delta(ctx, [2.0 * omega * i / (samples - 1) for i in range(samples)])
    for u, inv_gap, residual, phase_gap in rows:
        d = delta(u, ctx)
        # dn3 refuses the lattice points 0 and 2 omega, the poles of its
        # 1/sn^2 (dn3 itself tends to 1 there)
        near_pole = min(u, abs(2.0 * omega - u)) < 1e-6
        dn3_gap = float("nan") if near_pole else abs(dn3(u, mod) - d)
        lines.append(f"{u:10.5f} {d:20.15f} {inv_gap:14.3e} {dn3_gap:14.3e} {phase_gap:14.3e}")
    # Rows 0 and N - 1 are the lattice points, where no residual is taken.
    worst = max(residual for _, _, residual, _ in rows[1:-1])
    lines.append(f"\nmax scaled ODE residual over the interior grid: {worst:.3e}")
    return lines


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, and building it costs about a millisecond."""
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

    periods = sub.add_parser("periods", help="tabulate both half-period routes over kappa")
    periods.add_argument("--kappa", required=True, help="kappa, or a grid start:stop:step")
    periods.set_defaults(handler=_cmd_periods)

    dlt = sub.add_parser("delta", help="evaluate or profile the delta function")
    dlt.add_argument("--kappa", type=float, required=True)
    at = dlt.add_mutually_exclusive_group(required=True)
    at.add_argument("--u", type=float, help="print delta(u)")
    at.add_argument("--samples", type=int, help="profile delta at this many points over one period")
    dlt.set_defaults(handler=_cmd_delta)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code) if exc.code else 0
    try:
        code, write = args.handler(args)
        try:
            write()
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped.  Later writes, and the flush at shutdown,
            # go to the null device instead of raising again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Sig3Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
