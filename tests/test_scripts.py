import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize("args", [("--samples", "1"), ("--samples", "0"), ("--kappa", "1.5")])
def test_delta_profile_bad_input_exits_two(args):
    result = run_script("delta_profile.py", *args)
    assert result.returncode == 2
    assert "error:" in result.stderr and "Traceback" not in result.stderr


def test_delta_profile_runs():
    result = run_script("delta_profile.py", "--kappa", "0.6", "--samples", "3")
    assert result.returncode == 0, result.stderr
    assert "max scaled ODE residual" in result.stdout


def test_delta_profile_reports_the_reference_route_limit():
    # Beyond kappa ~ 0.999 the integral inversion cannot reach its
    # tolerance; the script says so instead of printing a traceback.
    result = run_script("delta_profile.py", "--kappa", "0.9999", "--samples", "3")
    assert result.returncode == 1
    assert "error:" in result.stderr and "Traceback" not in result.stderr
