import hashlib
import importlib.util
import io
import math
import os
import platform
import re
import subprocess
import sys
import types
from itertools import product
from pathlib import Path

import pytest

import sig3
import sig3.cli
import sig3.transfer
from sig3.cli import CSV_HEADER, emit_csv, main
from sig3.delta import delta, period_route_gap, verify_ode_delta
from sig3.hypergeom import f2
from sig3.moduli import DeltaContext, half_periods_sig3, modulus_from_kappa
from sig3.transfer import VerificationReport, VerificationRow, grid_points, grid_report

SRC = Path(__file__).resolve().parent.parent / "src"
delta_module = importlib.import_module("sig3.delta")  # sig3.delta is the function
HEADER = (
    "p,alpha,beta,lhs56,rhs56,relerr56,lhs57,rhs57,relerr57,"
    "lhs58,rhs58,relerr58,pass56,pass57,pass58"
)


def run_verify(tmp_path, *extra):
    out = tmp_path / "report.csv"
    code = main(["verify", "--out", str(out), *extra])
    return code, out


def test_default_verify_run(tmp_path, capsys):
    code, out = run_verify(tmp_path)
    assert code == 0
    text = out.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[-1] == ""  # trailing newline, nothing after
    assert len(lines) == 21  # header + 19 rows + final empty split
    assert lines[0] == HEADER
    summary = capsys.readouterr().out
    assert "identity56" in summary and "identity57" in summary and "identity58" in summary


def test_csv_round_trips_bit_exactly(tmp_path):
    _, out = run_verify(tmp_path)
    report = grid_report(0.05, 0.95, 0.05)
    lines = out.read_text(encoding="utf-8").splitlines()
    for line, row in zip(lines[1:], report.rows):
        fields = line.split(",")
        numeric = [float(f) for f in fields[:12]]
        assert numeric == [
            row.p, row.alpha, row.beta,
            row.lhs56, row.rhs56, row.relerr56,
            row.lhs57, row.rhs57, row.relerr57,
            row.lhs58, row.rhs58, row.relerr58,
        ]
        assert fields[12:] == [
            "true" if flag else "false" for flag in (row.pass56, row.pass57, row.pass58)
        ]


def test_csv_uses_bare_newlines(tmp_path):
    _, out = run_verify(tmp_path)
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")


def test_single_row_report_is_two_lines(tmp_path):
    out = tmp_path / "one.csv"
    code = main(["verify", "--grid", "0.5:0.5:0.1", "--out", str(out)])
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2


def test_sabotaged_tolerance_exits_one(tmp_path):
    code, _ = run_verify(tmp_path, "--tol", "1e-300")
    assert code == 1


def test_malformed_grid_exits_two(tmp_path, capsys):
    for grid in ("1.5:2:0.1", "abc", "0.1:0.9", "0.9:0.1:0.05", "a:b:c"):
        code = main(["verify", "--grid", grid, "--out", str(tmp_path / "x.csv")])
        assert code == 2, grid
    err = capsys.readouterr().err
    assert "error:" in err
    assert "grid must be three numbers, got 'a:b:c'" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_exits_two(tmp_path, capsys, tol):
    code, _ = run_verify(tmp_path, "--tol", tol)
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan:0.5:0.1", "0.1:inf:0.1", "0.1:0.5:nan", "0.1:0.5:inf"])
def test_non_finite_grid_exits_two(tmp_path, capsys, grid):
    code = main(["verify", "--grid", grid, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oversized_grid_exits_two(tmp_path, capsys):
    # 10^8 points: refused from the computed count, before any point is built.
    code = main(["verify", "--grid", "0.1:0.2:1e-9", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fine_grid_verify_exits_zero(tmp_path):
    code, out = run_verify(tmp_path, "--grid", "0.001:0.999:0.001", "--quiet")
    assert code == 0
    assert len(out.read_text(encoding="utf-8").split("\n")) == 1001


def test_underflowing_grid_point_exits_two(tmp_path, capsys):
    # alpha ~ 2p^3 underflows at p = 1e-110.
    code = main(["verify", "--grid", "1e-110:1e-110:1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [None, "4e-16", "0"])
def test_verify_summary_verdicts(tmp_path, capsys, tol):
    # The summary takes each verdict from the identity's max relerr.  It
    # must print what the row-by-row verdicts say: all pass at the default
    # tolerance, identity 56 alone at 4e-16, none at 0.
    extra = [] if tol is None else ["--tol", tol]
    code, _ = run_verify(tmp_path, *extra)
    report = grid_report(0.05, 0.95, 0.05, **({} if tol is None else {"tol": float(tol)}))
    expected = ""
    for label in ("56", "57", "58"):
        verdict = "pass" if all(getattr(r, f"pass{label}") for r in report.rows) else "FAIL"
        expected += (
            f"identity{label}: max relerr {report.max_relerr[label]:.3e} "
            f"(tol {report.tol:.1e}) {verdict}\n"
        )
    expected += f"19 grid points: {'all pass' if report.all_pass else 'FAILURES'}\n"
    assert capsys.readouterr().out == expected
    assert code == (0 if report.all_pass else 1)
    verdicts = [line.split()[-1] for line in expected.splitlines()[:3]]
    assert verdicts == {None: ["pass"] * 3, "4e-16": ["pass", "FAIL", "FAIL"], "0": ["FAIL"] * 3}[tol]


def test_verify_quiet_suppresses_summary(tmp_path, capsys):
    code, _ = run_verify(tmp_path, "--quiet")
    assert code == 0
    assert capsys.readouterr().out == ""


def test_verify_without_out_streams_csv(capsys):
    code = main(["verify", "--grid", "0.5:0.5:0.1", "--quiet"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2


def test_eval_f3_at_zero(capsys):
    assert main(["eval", "f3", "0"]) == 0
    assert capsys.readouterr().out == "1.0\n"


def test_eval_f2_prints_round_trip_value(capsys):
    assert main(["eval", "f2", "0.5"]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == f2(0.5)


def test_eval_domain_error_exits_two(capsys):
    assert main(["eval", "fhalf", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_unknown_function_exits_two(capsys):
    assert main(["eval", "nope", "0.5"]) == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def periods_table(capsys, kappa):
    """Run ``sig3 periods --kappa kappa``; return its header and split rows."""
    assert main(["periods", "--kappa", kappa]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["kappa", "p", "omega", "-i", "omega_prime", "gap_re", "gap_im"]
    return [row.split() for row in rows]


def test_periods_subcommand(capsys):
    [row] = periods_table(capsys, "0.6")
    ctx = DeltaContext(modulus_from_kappa(0.6))
    sig = half_periods_sig3(ctx.modulus)
    assert row[0] == "0.6"
    assert row[2:4] == [f"{sig.omega:.15f}", f"{sig.omega_prime.imag:.15f}"]
    assert row[4:] == [f"{gap:.2e}" for gap in period_route_gap(ctx)]


def test_periods_grid_prints_the_route_gaps(capsys):
    rows = periods_table(capsys, "0.1:0.9:0.1")
    assert [row[0] for row in rows] == [repr(k) for k in grid_points(0.1, 0.9, 0.1)]
    for row in rows:
        gaps = period_route_gap(DeltaContext(modulus_from_kappa(float(row[0]))))
        assert row[4:] == [f"{gap:.2e}" for gap in gaps]
        assert max(gaps) <= 1e-10


def test_periods_names_each_modulus_exactly(capsys):
    # Three-decimal rounding printed the last two kappas as 0.999 and 1.000.
    rows = periods_table(capsys, "0.9991:0.9999:0.0004")
    kappas = grid_points(0.9991, 0.9999, 0.0004)
    assert [float(row[0]) for row in rows] == kappas
    assert len(set(row[1] for row in rows)) == 3
    assert all(k < 1.0 for k in kappas)


def test_periods_domain_error(capsys):
    assert main(["periods", "--kappa", "1.2"]) == 2


def test_periods_reaches_the_lattice_floor_and_names_the_modulus_below(capsys):
    # Below kappa ~ 5.8e-103 the gap e2 - e3 of the lattice underflows; the
    # error names the modulus given, not a transfer parameter derived from it.
    [row] = periods_table(capsys, "6e-103")
    assert row[0] == "6e-103"
    assert main(["periods", "--kappa", "1e-120"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: modulus 1e-120 is too small" in err


# 1e-300: kappa^2 underflows to 0, so half_periods_sig3 refuses the modulus;
# every row is computed before the header is written.
@pytest.mark.parametrize("grid", ["0.1:0.9:0", "0.1:nan:0.1", "0.1:0.9", "0.5:1.0:0.5", "1e-300"])
def test_periods_bad_grid_exits_two(capsys, grid):
    assert main(["periods", "--kappa", grid]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    if grid == "1e-300":
        assert "modulus kappa = 1e-300 is too small: kappa^2 underflows to 0" in err


def test_delta_subcommand(capsys):
    assert main(["delta", "--kappa", "0.6", "--u", "0.4"]) == 0
    printed = capsys.readouterr().out.strip()
    expected = delta(0.4, DeltaContext(modulus_from_kappa(0.6)))
    assert float(printed) == expected


def test_delta_subcommand_domain_error(capsys):
    assert main(["delta", "--kappa", "0.999", "--u", "0.4"]) == 0
    assert main(["delta", "--kappa", "1.0", "--u", "0.4"]) == 2
    assert main(["eval", "fhalf", "0.9999"]) == 0


def test_negative_exponent_form_is_a_value(capsys):
    # argparse's own negative-number pattern has no exponent, so "-1e-5"
    # was taken for an option and --u lacked its value.
    assert main(["delta", "--kappa", "0.6", "--u=-1e-5"]) == 0
    joined = capsys.readouterr().out
    assert main(["delta", "--kappa", "0.6", "--u", "-1e-5"]) == 0
    assert capsys.readouterr().out == joined == "0.999999999984\n"


@pytest.mark.parametrize("args, message", [
    (["delta", "--kappa", "0.6", "--u", "-inf"], "argument -inf is not finite"),
    (["eval", "f2", "-1e-3"], "f2 argument must lie in [0, 1), got -0.001"),
])
def test_negative_literal_reaches_the_domain_check(capsys, args, message):
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("--kappa", "0.6", "--samples", "1"),
    ("--kappa", "0.6", "--samples", "0"),
    ("--kappa", "1.5", "--samples", "3"),
    ("--kappa", "0.6", "--u", "0.4", "--samples", "3"),
    ("--kappa", "0.6"),
    ("--kappa", "0.6", "--samples", str(sig3.transfer.MAX_GRID_POINTS + 1)),
    ("--kappa", "0.6", "--u", "1e300"),  # the rounding of u alone exceeds the period
    ("--kappa", "1e-200", "--u", "1"),  # e2 - e3 ~ 0.11 kappa^3 underflows: no lattice
    ("--kappa", "0.6", "--samples", "2"),  # only the lattice points 0 and 2 omega: no interior point
])
def test_delta_profile_bad_input_exits_two(capsys, args):
    assert main(["delta", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_delta_profile_runs(capsys):
    assert main(["delta", "--kappa", "0.6", "--samples", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7  # title, column header, 3 rows, blank, residual
    assert [float(line.split()[1]) for line in lines[2:5]] == pytest.approx([1.0, 0.8187637, 1.0])
    assert lines[-1].startswith("max scaled ODE residual")


def test_delta_profile_reports_the_reference_route_limit(capsys):
    # At kappa = 0.999999 the profile stays within 5e-13 of delta.  The ODE
    # residual is roundoff of the arc form at each T, measured 1.7e-15.
    assert main(["delta", "--kappa", "0.999999", "--samples", "17"]) == 0
    lines = capsys.readouterr().out.splitlines()
    gaps = [float(row.split()[2]) for row in lines[2:19]]
    assert len(gaps) == 17 and max(gaps) <= 5e-13
    assert float(lines[-1].split()[-1]) <= 2e-15


def test_delta_profile_reaches_kappa_one_minus_1e_10(capsys):
    # The Halley inversion stopped here with NonConvergence: one ulp of T
    # moves G by more than the quadrature's 1e-12.  The closed-form phase
    # has no such stop; |G(T) - u| then reads F(T) ulp(T) plus the
    # quadrature's error, measured <= 2.7e-12.
    assert main(["delta", "--kappa", "0.9999999999", "--samples", "17"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("|G(T) - u|")
    rows = [row.split() for row in lines[2:19]]
    assert len(rows) == 17
    assert max(float(row[2]) for row in rows) <= 2e-15
    assert max(float(row[4]) for row in rows) <= 1e-11


def test_delta_profile_reaches_kappa_one_minus_1e_12(capsys):
    # The panel-minus-halves estimate filled MAX_INTERVALS here: near the
    # 1/lambda peak of the kernel its differences were rounding noise.  The
    # Kronrod estimate converges.  |G(T) - u| is measured <= 3.3e-11, under
    # F(T) ulp(T) = ulp(pi/2)/delta(omega) = 1.4e-10 at u = omega.
    assert main(["delta", "--kappa", "0.999999999999", "--samples", "17"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[2:19]]
    assert len(rows) == 17
    assert max(float(row[2]) for row in rows) <= 2e-15
    assert max(float(row[4]) for row in rows) <= 5e-11


def test_delta_profile_reaches_kappa_one_minus_1e_13(capsys):
    # The raw |K21 - G10| estimate filled MAX_INTERVALS here on the row
    # u = 2 omega, when its integral ran over [0, pi]; qk21's rescaled
    # estimate converges.  |delta - inv| is measured 2.50e-15 and
    # |G(T) - u| 1.6e-10, under F(T) ulp(T) = ulp(pi/2)/delta(omega)
    # = 4.3e-10 at u = omega.
    assert main(["delta", "--kappa", "0.9999999999999", "--samples", "17"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[2:19]]
    assert len(rows) == 17
    assert max(float(row[2]) for row in rows) <= 3e-15
    assert max(float(row[4]) for row in rows) <= 3.5e-10


def test_delta_profile_that_fails_prints_no_rows(capsys, monkeypatch):
    # A budget of one interval leaves the stretch from 0 to T(omega/2)
    # unresolved at kappa = 0.99, so the one call of the certificate raises
    # NonConvergence at the second of five rows.  Every row is computed
    # before the table starts, so standard output stays empty.
    monkeypatch.setattr(sig3.quadrature, "MAX_INTERVALS", 1)
    assert main(["delta", "--kappa", "0.99", "--samples", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "within MAX_INTERVALS = 1 intervals" in err


def test_delta_profile_reaches_kappa_0_9999(capsys):
    # The kernel formed from cos^2 t + lambda^2 sin^2 t keeps its digits at
    # the peak t = pi/2, so the reference route follows delta there.
    assert main(["delta", "--kappa", "0.9999", "--samples", "17"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:19]
    gaps = [float(row.split()[2]) for row in rows]
    assert len(gaps) == 17 and max(gaps) <= 1e-13


def test_delta_profile_inverts_once_per_point(capsys, monkeypatch):
    # One call of the certificate serves the whole profile: one closed-form
    # phase per row and one running integral, whose 17 stretches chain from
    # 0 to T(2 omega) = pi.  The rows used to take one integral each from 0.
    phases, integrals = [], []
    phase = delta_module.delta_phase
    integral = delta_module.integrate

    def counting_phase(u, ctx):
        phases.append(u)
        return phase(u, ctx)

    def counting_integral(f, a, b, tol):
        integrals.append((a, b))
        return integral(f, a, b, tol)

    monkeypatch.setattr(delta_module, "delta_phase", counting_phase)
    monkeypatch.setattr(delta_module, "integrate", counting_integral)
    assert main(["delta", "--kappa", "0.6", "--samples", "17"]) == 0
    assert len(phases) == 17 and len(integrals) == 17
    assert integrals[0][0] == 0.0 and integrals[-1][1] == math.pi
    assert all(b == a for (_, b), (a, _) in zip(integrals, integrals[1:]))
    monkeypatch.undo()
    ctx = DeltaContext(modulus_from_kappa(0.6))
    rows = verify_ode_delta(ctx, [2.0 * ctx.omega * i / 16 for i in range(1, 16)])
    worst = max(residual for _, _, residual, _ in rows)
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"max scaled ODE residual over the interior grid: {worst:.3e}"


def test_delta_profile_kernel_count_near_kappa_one(capsys, monkeypatch):
    # At kappa = 1 - 1e-12 the one pass evaluates the arc kernel 1,529
    # times; one integral from 0 per row took 13,751.
    calls = []
    arc = delta_module._arc

    def counting_arc(kappa):
        kernel = arc(kappa)

        def counted(t, terms=False):
            calls.append(t)
            return kernel(t, terms)

        return counted

    monkeypatch.setattr(delta_module, "_arc", counting_arc)
    assert main(["delta", "--kappa", "0.999999999999", "--samples", "17"]) == 0
    assert len(calls) <= 2000


def test_delta_profile_reaches_the_float_below_one(capsys):
    # kappa = 1 - 2.2e-16: the integral from 0 to pi of the last row ran out
    # of MAX_INTERVALS, and the profile exited 1.  Each stretch of the one
    # running integral converges; |G(T) - u| reads up to 4.1e-9 there, the
    # error of the quadrature near the kernel's peak (ROADMAP item 16).
    assert main(["delta", "--kappa", "0.9999999999999998", "--samples", "17"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 21  # title, header, 17 rows, blank, residual


@pytest.mark.parametrize("extra, verdict", [([], 0), (["--tol", "1e-300"], 1)])
def test_closed_pipe_exits_with_the_verdict(extra, verdict):
    # The 999-row CSV overflows the pipe buffer, so the writer is still
    # writing when the reader goes away.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sig3", "verify", "--grid", "0.001:0.999:0.001", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    assert first.startswith(b"identity56")
    assert code == verdict
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_import_loads_no_numpy():
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import sig3; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_import_loads_no_dataclasses():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import sig3, sig3.cli; "
            "assert 'dataclasses' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_public_names_are_pinned():
    # A name is exported only if the CLI, another module or a certificate
    # calls it; a new one has to be added here on purpose.
    names = {name for name, value in vars(sig3).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == {
        "ConfigError", "DomainError", "NonConvergence", "PoleError", "Sig3Error",
        "f2", "f3", "f_half",
        "wp",
        "ModulusSet", "invariants", "modulus_from_kappa",
        "params_from_p",
        "DeltaContext", "delta", "delta_phase", "dn3",
        "half_periods_sig3",
        "DEFAULT_TOL", "grid_report",
        "period_route_gap", "verify_ode_delta", "verify_trimidiation",
    }


def test_readme_library_sketch_runs():
    # The sketch names public functions and fields; renaming or deleting
    # one fails here rather than in a reader's session.
    readme = (SRC.parent / "README.md").read_text()
    blocks = readme.split("```python\n")
    assert len(blocks) == 2
    sketch = blocks[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})


def test_traced_names_resolve_to_functions():
    # The benchmark's traced run wraps these by name; a name that no longer
    # resolves would break only that run.
    spec = importlib.util.spec_from_file_location("tracing", SRC.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    keys = [f"{module}.{fn}" for module, names in tracing.TRACED.items() for fn in names]
    assert set(tracing.SAMPLED) <= set(keys)
    for key in keys:
        module, fn = key.split(".")
        assert callable(getattr(importlib.import_module(f"sig3.{module}"), fn, None)), key


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "sig3", "periods", "--kappa", "0.6"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[1].split()[0] == "0.6"


def test_console_script_target_returns_the_exit_code(capsys):
    # The console-script wrapper passes the target's return value to
    # sys.exit.  A regex reads the table: Python 3.10 has no tomllib.
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^\[project\.scripts\]\nsig3 = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    target = getattr(importlib.import_module(module), name)
    assert target(["eval", "f2", "0.5"]) == 0
    assert target(["verify", "--tol", "nan"]) == 2
    assert capsys.readouterr().out == f"{f2(0.5)!r}\n"


def test_csv_header_is_the_row_fields():
    assert CSV_HEADER == ",".join(VerificationRow._fields) == HEADER


def test_emit_csv_writes_the_header_alone_for_a_report_with_no_rows():
    # grid_points refuses an empty grid, so grid_report never returns one.
    report = grid_report(0.5, 0.5, 0.1)
    sink = io.StringIO()
    emit_csv(report._replace(rows=()), sink)
    assert sink.getvalue() == HEADER + "\n"


def _reference_csv(report) -> list[str]:
    """The CSV lines as plain repr and lowercase verdicts, no text shared."""
    return [HEADER] + [
        ",".join(map(repr, row[:12])) + "".join("," + str(v).lower() for v in row[12:])
        for row in report.rows
    ]


# Side pairs that a shared text must not blur: equal, unequal, the two
# zeros either way round, equal infinities, NaN against itself and a value.
SIDE_PAIRS = (
    (1.5, 1.5), (1.5, math.nextafter(1.5, 2.0)), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0),
    (math.inf, math.inf), (-math.inf, -math.inf), (math.nan, math.nan), (math.nan, 2.0),
    (5e-324, 5e-324), (-1e300, -1e300),
)


def _hand_built_report() -> VerificationReport:
    rows = []
    for i, verdicts in enumerate(product((False, True), repeat=3)):
        for j in range(len(SIDE_PAIRS)):
            sides = [SIDE_PAIRS[(j + k) % len(SIDE_PAIRS)] for k in range(3)]
            relerrs = (0.0, math.nan, 1e-17 * (i + 1))
            rows.append(VerificationRow(
                0.125 * i, -0.0, math.inf,
                *[x for (lhs, rhs), e in zip(sides, relerrs) for x in (lhs, rhs, e)],
                *verdicts,
            ))
    return VerificationReport(tuple(rows), 1e-10, False, {})


@pytest.mark.parametrize("report", [grid_report(0.001, 0.999, 0.001), _hand_built_report()],
                         ids=["benchmark_grid", "hand_built"])
def test_emit_csv_matches_the_plain_repr_writer(report):
    sink = io.StringIO()
    emit_csv(report, sink)
    assert sink.getvalue().split("\n") == _reference_csv(report) + [""]


def test_emit_csv_prints_an_equal_pair_once():
    # A float whose repr counts itself: equal nonzero sides take one repr,
    # zeros and unequal sides take their own.
    calls = []

    class Counted(float):
        def __repr__(self):
            calls.append(self)
            return float.__repr__(self)

    row = VerificationRow(0.5, 0.25, 0.75, *map(Counted, (
        1.25, 1.25, 0.0, 0.0, -0.0, 0.0, 2.0, 3.0, 0.0)), True, True, True)
    sink = io.StringIO()
    emit_csv(VerificationReport((row,), 1e-10, True, {}), sink)
    assert sink.getvalue().split("\n")[1] == "0.5,0.25,0.75,1.25,1.25,0.0,0.0,-0.0,0.0,2.0,3.0,0.0,true,true,true"
    assert len(calls) == 8


def test_emit_csv_streams_one_line_per_write():
    report = grid_report(0.001, 0.999, 0.001)
    writes = []
    emit_csv(report, types.SimpleNamespace(write=writes.append))
    assert writes[0] == HEADER + "\n"
    assert len(writes) == len(report.rows) + 1
    for text, row in zip(writes[1:], report.rows):
        assert text.endswith("\n") and text.count("\n") == 1
        assert text.split(",", 1)[0] == repr(row.p)


def test_io_failure_exits_one(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["verify", "--grid", "0.5:0.5:0.1", "--quiet", "--out", str(target)])
    assert code == 1


# The SHA-256 of the standard output of four commands.  A change that moves
# one of these outputs on purpose edits its digest here.
CONTRACT_OUTPUTS = {
    "verify": "e4df1654793993c9acf2ae6839f4c515a247184e486545d327db1bbbcdb883eb",
    "verify --grid 0.001:0.999:0.001 --quiet": "692fda07c8c9de9ff7edac1c1f9f130257de5ec6dad245b35728261b386cac3f",
    "periods --kappa 0.05:0.95:0.05": "24a74eb2cf358d48c902fe29ad19621df4d086cf7d6bb62ad877c2b564c0c15e",
    "delta --kappa 0.6 --samples 17": "ce70f0ac239fd804b78bdfd723f445039efd646ddea6179b600a1f21f6ca81f0",
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or platform.machine() != "x86_64",
                    reason="the digests were taken with glibc's libm on x86-64; another libm rounds differently")
@pytest.mark.parametrize("command", list(CONTRACT_OUTPUTS))
def test_contract_outputs_are_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONTRACT_OUTPUTS[command]
