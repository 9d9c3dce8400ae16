import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sig3
import sig3.cli
import sig3.transfer
from sig3.cli import CSV_HEADER, emit_csv, main
from sig3.delta import DeltaContext, delta, half_periods_sig3
from sig3.errors import ConfigError
from sig3.hypergeom import f2
from sig3.moduli import modulus_from_kappa
from sig3.transfer import VerificationRow, grid_points, grid_report, period_route_gap, verify_ode_delta

SRC = Path(__file__).resolve().parent.parent / "src"
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
    sig = half_periods_sig3(modulus_from_kappa(0.6))
    assert row[0] == "0.6"
    assert row[2:4] == [f"{sig.omega:.15f}", f"{sig.omega_prime.imag:.15f}"]
    assert row[4:] == [f"{gap:.2e}" for gap in period_route_gap(float(row[1]))]


def test_periods_grid_prints_the_route_gaps(capsys):
    rows = periods_table(capsys, "0.1:0.9:0.1")
    assert [row[0] for row in rows] == [repr(k) for k in grid_points(0.1, 0.9, 0.1)]
    for row in rows:
        gaps = period_route_gap(float(row[1]))
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


@pytest.mark.parametrize("args", [
    ("--kappa", "0.6", "--samples", "1"),
    ("--kappa", "0.6", "--samples", "0"),
    ("--kappa", "1.5", "--samples", "3"),
    ("--kappa", "0.6", "--u", "0.4", "--samples", "3"),
    ("--kappa", "0.6"),
    ("--kappa", "0.6", "--samples", str(sig3.transfer.MAX_GRID_POINTS + 1)),
    ("--kappa", "0.6", "--u", "1e300"),  # the rounding of u alone exceeds the period
    ("--kappa", "1e-200", "--u", "1"),  # e2 - e3 ~ 0.11 kappa^3 underflows: no lattice
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
    # kappa = 0.999999 is the documented reach of the reference route: one
    # error budget per integral and a stop on |G(T) - u| keep the profile
    # within 5e-13 of delta there.  The ODE residual is roundoff of the arc
    # form at each T, measured 1.4e-15.
    assert main(["delta", "--kappa", "0.999999", "--samples", "17"]) == 0
    lines = capsys.readouterr().out.splitlines()
    gaps = [float(row.split()[2]) for row in lines[2:19]]
    assert len(gaps) == 17 and max(gaps) <= 5e-13
    assert float(lines[-1].split()[-1]) <= 2e-15


def test_delta_profile_that_fails_prints_no_rows(capsys, monkeypatch):
    # A budget of one interval leaves G(pi/2) unresolved at kappa = 0.99, so
    # the third of five points raises NonConvergence after two rows are
    # computed.  Every row is computed before the table starts, so standard
    # output stays empty.
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
    # One arc-integral inversion per row serves both the |delta - inv|
    # column and the ODE residual.
    calls = []
    counted = sig3.cli.delta_phase

    def counting(u, ctx):
        calls.append(u)
        return counted(u, ctx)

    monkeypatch.setattr(sig3.cli, "delta_phase", counting)
    monkeypatch.setattr(sig3.transfer, "delta_phase", counting)
    assert main(["delta", "--kappa", "0.6", "--samples", "17"]) == 0
    assert len(calls) == 17
    monkeypatch.undo()
    ctx = DeltaContext(modulus_from_kappa(0.6))
    worst = verify_ode_delta(ctx, [2.0 * ctx.omega * i / 16 for i in range(1, 16)])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"max scaled ODE residual over the interior grid: {worst:.3e}"


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
        "agm", "agm3", "f2", "f3", "f_half",
        "WeierstrassInvariants", "sn", "wp", "wp_and_derivative",
        "ModulusSet", "invariants", "modulus_from_kappa",
        "p_from_s_c", "params_from_p", "trimidiation",
        "DeltaContext", "delta", "delta_integral", "delta_phase", "dn3",
        "half_periods_sig3",
        "DEFAULT_TOL", "grid_report",
        "period_route_gap", "verify_identity56", "verify_identity57", "verify_identity58",
        "verify_ode_delta", "verify_trimidiation",
    }


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


def test_csv_header_is_the_row_fields():
    assert CSV_HEADER == ",".join(VerificationRow._fields) == HEADER


def test_emit_csv_refuses_empty_report():
    report = grid_report(0.5, 0.5, 0.1)
    empty = type(report)(rows=(), tol=report.tol, all_pass=True, max_relerr={})
    with pytest.raises(ConfigError):
        import io

        emit_csv(empty, io.StringIO())


def test_io_failure_exits_one(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["verify", "--grid", "0.5:0.5:0.1", "--quiet", "--out", str(target)])
    assert code == 1
