#!/usr/bin/env python3
"""Benchmark of sig3: time to a certified answer at unchanged accuracy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``verify_grid``, ``delta_profile`` and ``lattice_scan`` (see
workloads.py and README.md).  One single-threaded process builds the inputs
from the seed, calls the package from ``src/`` in a closed loop for S
seconds, checks every result against an independent oracle outside the
timed region, and prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (evals_per_s,
setup_s, max_relerr, pass_share).  ``failed`` counts the operations that
gave no answer (raised, or returned a non-finite value); an answer that
misses its oracle is an accuracy figure, reported as ``fail_share`` and
``pass_share``, not a failed operation.  With ``--trace 1`` the loop runs S/2 seconds
untraced and S/2 traced, and the metrics are the per-layer ones.
``--workload all`` runs the three workloads in turn, each with its own
report and JSON line.  Exits 2 without a result when the package sources
or mpmath are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Timed set-up interpreters before and after the timed loop, each batch after
# one untimed warm-up; split so that one slow spell of the machine cannot
# cover them all.
SETUP_CHILDREN = (4, 3)
IMPORT_CHILDREN = 3
CHILD_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
# The machine the benchmark was built on shares its cores, and its speed moved
# by up to 50% in spells lasting minutes; every timing moved with it.  A fixed
# pure-Python burst, timed between the calls under test, measures that speed,
# and the end-to-end times are rescaled to CALIBRATION_REFERENCE_S per burst.
# The burst has the shape of the package's inner loops (a hypergeometric
# series, AGM steps) but lives here, so no change to the package moves it.
CALIBRATION_REFERENCE_S = 2.5e-3
CALIBRATION_EVERY_S = 0.1


def calibration_burst() -> float:
    """Wall time of the fixed calibration work."""
    t0 = perf_counter()
    for _ in range(6):
        term = total = 1.0
        for n in range(1500):
            term *= (n + 1 / 3) * (n + 2 / 3) * 0.97 / ((n + 0.5) * (n + 1.0))
            total += term
        a, b = 1.0, 0.3
        for _ in range(30):
            a, b = 0.5 * (a + b), math.sqrt(a * b)
    return perf_counter() - t0


def speed(bursts: list[float]) -> float:
    """Machine speed relative to the reference: > 1 when the bursts ran fast."""
    return CALIBRATION_REFERENCE_S / statistics.median(bursts)


@dataclass
class Measurement:
    times: list[list[float]]
    ops_per_item: int
    attempted: int = 0
    failed: int = 0
    missed: int = 0
    raised: Counter = field(default_factory=Counter)
    bursts: list[float] = field(default_factory=list)
    # Operations of each item that missed the oracle, from its first call.
    item_missed: dict[int, int] = field(default_factory=dict)

    @property
    def pass_share(self) -> float:
        """Share of the seeded operations whose answer met the oracle tolerance.

        Each item counts once, so the figure depends on the seed's inputs only,
        not on how many passes the loop made.
        """
        return 1.0 - sum(self.item_missed.values()) / (len(self.times) * self.ops_per_item)

    @property
    def raw_evals_per_s(self) -> float:
        """Operations per second at the geometric mean of the items' median times.

        Per-item medians over the passes drop the preemptions of a shared
        machine; the geometric mean keeps items whose cost differs by decades
        from swamping the rest, so the figure does not swing with which
        inputs a seed drew.
        """
        per_item = [statistics.median(t) for t in self.times]
        return self.ops_per_item / math.exp(statistics.fmean(math.log(t) for t in per_item))

    @property
    def evals_per_s(self) -> float:
        """``raw_evals_per_s`` at the reference machine speed."""
        return self.raw_evals_per_s / speed(self.bursts)


def measure(workload, seconds: float, seed: int) -> Measurement:
    """Closed loop over the items until ``seconds`` have elapsed; the first
    pass always completes.  Each pass visits the items in a fresh seeded
    order, so an item's samples fall in different spells of machine speed
    rather than always next to the same neighbours.  Checks and calibration
    bursts run between timed calls."""
    m = Measurement(times=[[] for _ in workload.items], ops_per_item=workload.ops_per_item)
    order = list(range(len(workload.items)))
    rng = random.Random(seed)
    m.bursts.append(calibration_burst())
    next_burst = perf_counter() + CALIBRATION_EVERY_S
    deadline = perf_counter() + seconds
    passes = 0
    while True:
        rng.shuffle(order)
        for i in order:
            item = workload.items[i]
            t0 = perf_counter()
            try:
                result = workload.call(item)
            except Exception as exc:  # noqa: BLE001 -- a raised exception is a failed operation
                result = None
                m.raised[type(exc).__name__] += 1
            m.times[i].append(perf_counter() - t0)
            failed, missed = workload.check(i, result)
            m.attempted += workload.ops_per_item
            m.failed += failed
            m.missed += missed
            m.item_missed.setdefault(i, missed)
            if perf_counter() >= next_burst:
                m.bursts.append(calibration_burst())
                next_burst = perf_counter() + CALIBRATION_EVERY_S
            if passes and perf_counter() >= deadline:
                return m
        passes += 1
        if perf_counter() >= deadline:
            return m


def latency_summary(m: Measurement) -> str:
    samples = sorted(t * 1e3 for ts in m.times for t in ts)
    n = len(samples)
    if n < 2:
        return f"latency_ms median {samples[0]:.6g} (n={n})"
    q1, median, q3 = statistics.quantiles(samples, n=4)
    text = f"latency_ms median {median:.6g} q1 {q1:.6g} q3 {q3:.6g}"
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            text += f" p{pct:g} {samples[math.ceil(pct / 100.0 * n) - 1]:.6g}"
            break
    per = f"per call of {m.ops_per_item} operations" if m.ops_per_item > 1 else "per operation"
    return f"{text} (n={n}, {per})"


def time_children(cmd: list[str], count: int, problems: list[str], bursts: list[float]) -> list[tuple[float, str]]:
    """Run ``cmd`` once untimed, then ``count`` times one after another, with
    a calibration burst (appended to ``bursts``) before each timed run;
    return (wall seconds, stderr) of each timed run."""
    runs = []
    for k in range(count + 1):
        if k:
            bursts.append(calibration_burst())
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            problems.append(f"child {cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if k:
            runs.append((elapsed, proc.stderr))
    return runs


def import_times_ms(stderr: str) -> tuple[float, float]:
    """(sig3, numpy) cumulative import times from ``-X importtime`` output.

    numpy is the sum over outermost ``numpy*`` entries, i.e. those with no
    ``numpy*`` module among their importers.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    sig3_us = numpy_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, name, cumulative in reversed(entries):  # importers now precede importees
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_numpy = name == "numpy" or name.startswith("numpy.")
        if is_numpy and not any(flag for _, flag in stack):
            numpy_us += cumulative
        if name == "sig3":
            sig3_us = cumulative
        stack.append((depth, is_numpy))
    return sig3_us / 1e3, numpy_us / 1e3


def end_to_end(workload, seconds: float, seed: int) -> tuple[Measurement, dict]:
    cmd = [sys.executable, str(HERE / "first_op.py"), str(SRC), json.dumps(workload.first_op)]
    before, after = SETUP_CHILDREN
    bursts: list[float] = []
    children = time_children(cmd, before, workload.problems, bursts)
    m = measure(workload, seconds, seed)
    children += time_children(cmd, after, workload.problems, bursts)
    setup = statistics.median(t for t, _ in children) * speed(bursts)
    print(latency_summary(m))
    print("setup children s: " + " ".join(f"{t:.4f}" for t, _ in children))
    print(f"machine speed {speed(m.bursts):.4f} x reference over {len(m.bursts)} calibration bursts "
          f"({speed(bursts):.4f} around the set-up children); raw evals_per_s {m.raw_evals_per_s!r} 1/s")
    metrics = {
        "evals_per_s": (m.evals_per_s, "1/s"),
        "setup_s": (setup, "s"),
        "max_relerr": (workload.max_relerr(), "ratio"),
        "pass_share": (m.pass_share, "ratio"),
    }
    return m, metrics


def per_layer(workload, seconds: float, seed: int) -> tuple[Measurement, dict]:
    import oracle
    from tracing import Tracer

    plain = measure(workload, 0.5 * seconds, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, 0.5 * seconds, seed)
    finally:
        tracer.uninstall()
    print(latency_summary(traced) + " [traced]")

    metrics = {}
    ops = traced.attempted
    for key, calls in tracer.calls.items():
        metrics[f"{key}.calls_per_op"] = (calls / ops, "calls/op")
        metrics[f"{key}.self_us_per_op"] = (tracer.self_s[key] * 1e6 / ops, "us/op")

    # (sampled function, args and result -> (value, oracle value))
    sampled = {
        "hypergeom.f2.max_relerr": ("hypergeom.f2", lambda a, r: (r, oracle.f2(a[0]))),
        "hypergeom.f3.max_relerr": ("hypergeom.f3", lambda a, r: (r, oracle.f3(a[0]))),
        "hypergeom.f_half.max_relerr": ("hypergeom.f_half", lambda a, r: (r, oracle.f_half(a[0]))),
        "weierstrass.wp.max_relerr": (
            "weierstrass.wp_and_derivative",
            lambda a, r: (r[0], oracle.wp(a[0], a[1].g2, a[1].g3)),
        ),
    }
    for name, (key, pair) in sampled.items():
        errors = [oracle.relerr(*pair(args, result)) for args, result in tracer.samples[key].items]
        metrics[name] = (max(errors, default=0.0), "ratio")

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import sig3"
    runs = time_children([sys.executable, "-X", "importtime", "-c", code], IMPORT_CHILDREN, workload.problems, [])
    split = [import_times_ms(stderr) for _, stderr in runs]
    metrics["import.sig3_ms"] = (statistics.median(s for s, _ in split), "ms")
    metrics["import.numpy_ms"] = (statistics.median(n for _, n in split), "ms")
    metrics["trace.overhead_share"] = (plain.evals_per_s / traced.evals_per_s - 1.0, "ratio")

    total = Measurement(times=plain.times, ops_per_item=plain.ops_per_item,
                        attempted=plain.attempted + traced.attempted,
                        failed=plain.failed + traced.failed,
                        missed=plain.missed + traced.missed,
                        raised=plain.raised + traced.raised)
    return total, metrics


def run_workload(workload_class, seed: int, seconds: float, trace: int) -> None:
    """Build, measure and check one workload; print its report and JSON line."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        t0 = perf_counter()
        workload = workload_class(seed, workdir)
        print(f"workload {workload.name}: {len(workload.items)} items x {workload.ops_per_item} "
              f"operations, inputs built in {perf_counter() - t0:.2f} s")
        run = per_layer if trace else end_to_end
        m, metrics = run(workload, seconds, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_share {m.missed / m.attempted!r} ratio ({m.missed} of {m.attempted} operations missed "
          f"the oracle tolerance; {m.failed} of them gave no answer)")
    if m.raised:
        print(f"raised: {dict(m.raised)}")
    for problem in dict.fromkeys(workload.problems):
        print(f"check failed: {problem}")
    result = {
        "correct": not workload.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sig3" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401 -- the oracle needs it
    except ImportError:
        print("error: the benchmark's oracle needs mpmath", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sig3.cli  # noqa: F401 -- loads every sig3 module before any lookup
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 -- context only
        numpy_version = "absent"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"context: seed={args.seed} seconds={args.seconds:g} trace={args.trace} nproc={nproc} "
          f"python={platform.python_version()} numpy={numpy_version}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
