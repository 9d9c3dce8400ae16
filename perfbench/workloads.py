"""The benchmark's three workloads.

Each workload makes its inputs from the seed in its constructor (set-up,
untimed), exposes them as ``items``, and offers

* ``call(item)``   -- the timed call into ``sig3``;
* ``check(i, r)``  -- untimed: compares result ``r`` of item ``i`` against
  the oracle and returns ``(failed, missed)``, the operations of that call
  that gave no answer (raised, or returned a non-finite value) and those
  whose answer missed the oracle by more than TOL (the failed ones
  included).  A miss is an accuracy figure, reported as ``pass_share``;
  only ``failed`` goes to the JSON ``failed``.  Broken output contracts (non-determinism, a CSV that does not re-parse, an exit
  code that contradicts the report) are appended to ``problems``;
* ``max_relerr()`` -- untimed: the worst relative error against the oracle
  on a fixed, seed-independent probe set, so the figure is deterministic and
  comparable between runs;
* ``first_op``     -- the JSON payload ``first_op.py`` needs to repeat the
  first call in a fresh interpreter.

``sig3`` functions are looked up on their modules at call time, so the
traced run's rebinding takes effect.
"""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction

import oracle

TOL = 1e-10  # oracle tolerance per operation, the CLI's default pass tolerance
PROBE_SEED = 0  # the probe sets are the workload generators at this seed


def _module(name: str):
    return sys.modules[f"sig3.{name}"]


class _Determinism:
    """Records each item's first result and flags any later result that differs
    (compared by repr, so a repeated nan counts as the same)."""

    def __init__(self, problems: list[str]):
        self.first: dict[int, str] = {}
        self.problems = problems

    def same(self, index: int, result) -> None:
        text = repr(result)
        if self.first.setdefault(index, text) != text:
            self.problems.append(f"item {index}: result changed between passes")


class VerifyGrid:
    """``sig3 verify`` over the full default-margin grid, in process.

    One call certifies 999 grid points, one operation each.  The grid keeps
    p = 0.001, where identities 57 and 58 lose digits to cancellation.
    """

    name = "verify_grid"
    GRID = "0.001:0.999:0.001"
    START, STEP, COUNT = 0.001, 0.001, 999
    HEADER = (
        "p,alpha,beta,lhs56,rhs56,relerr56,lhs57,rhs57,relerr57,"
        "lhs58,rhs58,relerr58,pass56,pass57,pass58"
    )
    # Rows whose six identity sides are also checked against mpmath.
    SPOT_P = (0.001, 0.002, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)

    def __init__(self, seed: int, workdir: str):
        # The grid is the product's fixed headline input; the seed has nothing to vary.
        self.out = os.path.join(workdir, "verify.csv")
        self.argv = ["verify", "--grid", self.GRID, "--quiet", "--out", self.out]
        self.items = [self.argv]
        self.ops_per_item = self.COUNT
        self.problems: list[str] = []
        self.first_op = {"workload": self.name, "argv": self.argv}
        self._csv: bytes | None = None
        self._failed_rows = 0
        self._worst = 0.0

    def call(self, argv):
        return _module("cli").main(argv)

    def check(self, index: int, exit_code) -> tuple[int, int]:
        if exit_code not in (0, 1):  # raised (None) or refused its arguments
            if exit_code is not None:
                self.problems.append(f"verify exited {exit_code}")
            return self.COUNT, self.COUNT
        with open(self.out, "rb") as fh:
            data = fh.read()
        os.remove(self.out)  # the next call must write the report afresh
        if self._csv is None:
            self._csv = data
            self._analyse(data.decode("utf-8"))
        elif data != self._csv:
            self.problems.append("CSV is not byte-identical across passes")
        expected = 0 if self._failed_flags == 0 else 1
        if exit_code != expected:
            self.problems.append(f"exit code {exit_code} contradicts the CSV pass columns")
        return 0, self._failed_rows

    def max_relerr(self) -> float:
        return self._worst

    def _analyse(self, text: str) -> None:
        lines = text.split("\n")
        if lines[0] != self.HEADER or lines[-1] != "" or len(lines) != self.COUNT + 2:
            self.problems.append("CSV header or row count is wrong")
            self._failed_flags = self._failed_rows = self.COUNT
            self._worst = 1.0
            return
        spot = {round(p / self.STEP) - 1 for p in self.SPOT_P}
        failed_flags = failed_rows = 0
        for i, line in enumerate(lines[1:-1]):
            fields = line.split(",")
            numbers = [float(f) for f in fields[:12]]
            flags = fields[12:]
            if [repr(v) for v in numbers] != fields[:12] or any(f not in ("true", "false") for f in flags):
                self.problems.append(f"row {i} does not re-parse bit-exactly")
            passed = [f == "true" for f in flags]
            p = numbers[0]
            if p != self.START + i * self.STEP:
                self.problems.append(f"row {i} has p={p!r}, not the grid value")
            row_fail = not all(passed)
            for k, ok in enumerate(passed):
                lhs, rhs, relerr = numbers[3 + 3 * k: 6 + 3 * k]
                exact = _exact_relerr(lhs, rhs)
                if math.isfinite(lhs + rhs) and not math.isclose(relerr, float(exact), rel_tol=1e-14):
                    self.problems.append(f"row {i} relerr{56 + k} does not match its sides")
                if ok != (relerr <= TOL):
                    self.problems.append(f"row {i} pass{56 + k} contradicts its relerr")
                self._worst = max(self._worst, float(exact))
                row_fail |= exact > TOL
            if i in spot:
                worst = self._spot_relerr(numbers)
                self._worst = max(self._worst, worst)
                row_fail |= worst > TOL
            failed_flags += not all(passed)
            failed_rows += row_fail
        self._failed_flags = failed_flags
        self._failed_rows = failed_rows

    @staticmethod
    def _spot_relerr(numbers: list[float]) -> float:
        """Worst error of alpha, beta and the six identity sides of one row."""
        p, alpha, beta = numbers[:3]
        P = Fraction(p)
        alpha_exact = P ** 3 * (2 + P) / (1 + 2 * P)
        beta_exact = Fraction(27, 4) * P ** 2 * (1 + P) ** 2 / (1 + P + P * P) ** 3
        mp = oracle.mp
        pm = mp.mpf(p)
        q = 1 + pm + pm * pm
        f2a, f2c = oracle.f2(alpha), oracle.one_minus_f2(alpha)
        f3b, f3c = oracle.f3(beta), oracle.one_minus_f3(beta)
        refs = [
            q * f2a, mp.sqrt(1 + 2 * pm) * f3b,
            q * f2c, mp.sqrt(3 + 6 * pm) * f3c,
            f2c / f2a, mp.sqrt(3) * f3c / f3b,
        ]
        sides = numbers[3:5] + numbers[6:8] + numbers[9:11]
        errs = [_finite_relerr(v, r) for v, r in zip(sides, refs)]
        errs.append(float(_exact_relerr(alpha, alpha_exact)))
        errs.append(float(_exact_relerr(beta, beta_exact)))
        return max(errs)


class DeltaProfile:
    """``delta(u, ctx)`` across one period [0, 2 omega] at four moduli.

    u is stratified: each of PER_KAPPA equal slices of the period gets one
    seeded point, so every seed covers the whole period.  The cost of one
    point spans three decades (cheap near u = 0, dear near omega at
    kappa = 0.99), which is why throughput is a geometric mean.
    """

    name = "delta_profile"
    KAPPAS = (0.3, 0.6, 0.9, 0.99)
    PER_KAPPA = 96
    PROBE_PER_KAPPA = 16

    def __init__(self, seed: int, workdir: str):
        D, M = _module("delta"), _module("moduli")
        self.contexts = [D.DeltaContext(M.modulus_from_kappa(k)) for k in self.KAPPAS]
        self.items = self._points(seed, self.PER_KAPPA)
        self.ops_per_item = 1
        self.expected = [float(oracle.delta(u, self.KAPPAS[j])) for j, u in self.items]
        self.problems: list[str] = []
        self._seen = _Determinism(self.problems)
        j, u = self.items[0]
        self.first_op = {"workload": self.name, "kappa": self.KAPPAS[j], "u": u}

    @classmethod
    def _points(cls, seed: int, per_kappa: int) -> list[tuple[int, float]]:
        rng = random.Random(seed)
        points = []
        for j, kappa in enumerate(cls.KAPPAS):
            omega, _ = oracle.half_periods(*oracle.sig3_invariants(kappa))
            period = 2.0 * float(omega)
            points += [(j, period * (i + rng.random()) / per_kappa) for i in range(per_kappa)]
        return points

    def call(self, item):
        j, u = item
        return _module("delta").delta(u, self.contexts[j])

    def check(self, index: int, value) -> tuple[int, int]:
        self._seen.same(index, value)
        if value is None or not math.isfinite(value):
            return 1, 1
        ref = self.expected[index]
        return 0, int(not abs(value - ref) <= TOL * abs(ref))

    def max_relerr(self) -> float:
        worst = 0.0
        for j, u in self._points(PROBE_SEED, self.PROBE_PER_KAPPA):
            ref = oracle.delta(u, self.KAPPAS[j])
            worst = max(worst, _probe_relerr(lambda: self.call((j, u)), ref))
        return worst


class LatticeScan:
    """``wp(z, invariants(mod))`` and ``dn3(z, mod)`` near the origin and far out.

    z = z0 + 2m omega + 2n omega' with z0 = 2a omega + 2b omega' in the
    centred cell.  Near-origin points (m = n = 0) are stratified over a 4x4
    grid of the cell; far points sit in cells d steps out along eight
    directions, d up to 50.  A draw is redrawn if it lies within 0.05 cell
    of a lattice point, or where the relative condition number |z f'/f| of
    wp or dn3 exceeds MAX_CONDITION (next to a zero of either, or a pole of
    dn3): there double rounding of z alone could approach the tolerance, so
    a miss would say nothing about the method.  Redraws are rare: none of
    the 960 draws of seeds 0 to 4 needed one.
    """

    name = "lattice_scan"
    KAPPAS = (0.05, 0.6, 0.95)
    NEAR_SIDE = 4
    DISTANCES = (1, 2, 5, 10, 20, 50)
    DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
    CLEARANCE = 0.05
    MAX_CONDITION = 1e4  # x 1.1e-16 leaves two decades below TOL
    MAX_DRAWS = 1000

    def __init__(self, seed: int, workdir: str):
        M = _module("moduli")
        self.moduli = [M.modulus_from_kappa(k) for k in self.KAPPAS]
        points = self._points(seed)
        self.items = [(j, z) for j, z, _, _ in points]
        self.ops_per_item = 1
        self.expected = [(complex(w), complex(d)) for _, _, w, d in points]
        self.problems: list[str] = []
        self._seen = _Determinism(self.problems)
        j, z = self.items[0]
        self.first_op = {"workload": self.name, "kappa": self.KAPPAS[j], "z": [z.real, z.imag]}

    @classmethod
    def _points(cls, seed: int) -> list[tuple[int, complex, object, object]]:
        rng = random.Random(seed)
        side = cls.NEAR_SIDE
        points = []
        for j, kappa in enumerate(cls.KAPPAS):
            inv = oracle.sig3_invariants(kappa)
            omega, omega_im = (2.0 * float(h) for h in oracle.half_periods(*inv))

            def draw(m, n, box):
                for _ in range(cls.MAX_DRAWS):
                    a, b = box()
                    if max(abs(a), abs(b)) < cls.CLEARANCE:
                        continue
                    z = complex(omega * (m + a), omega_im * (n + b))
                    w = oracle.wp(z, *inv)
                    d = oracle.dn3_from_wp(w, kappa)
                    if max(oracle.conditions(z, w, kappa)) <= cls.MAX_CONDITION:
                        return (j, z, w, d)
                raise RuntimeError(f"no admissible sample in cell ({m}, {n}) at kappa={kappa}")

            for i in range(side * side):
                lo_a, lo_b = (i % side) / side - 0.5, (i // side) / side - 0.5
                points.append(draw(0, 0, lambda: (lo_a + rng.random() / side, lo_b + rng.random() / side)))
            for d in cls.DISTANCES:
                for dm, dn in cls.DIRECTIONS:
                    points.append(draw(d * dm, d * dn, lambda: (rng.random() - 0.5, rng.random() - 0.5)))
        return points

    def call(self, item):
        j, z = item
        mod = self.moduli[j]
        w = _module("weierstrass").wp(z, _module("moduli").invariants(mod))
        return w, _module("delta").dn3(z, mod)

    def check(self, index: int, result) -> tuple[int, int]:
        self._seen.same(index, result)
        if result is None or not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in result):
            return 1, 1
        for value, ref in zip(result, self.expected[index]):
            if not abs(value - ref) <= TOL * abs(ref):
                return 0, 1
        return 0, 0

    def max_relerr(self) -> float:
        worst = 0.0
        for j, z, w, d in self._points(PROBE_SEED):
            worst = max(worst, _probe_relerr(lambda: self.call((j, z)), (w, d)))
        return worst


def _exact_relerr(value: float, reference) -> Fraction | float:
    """|value - reference| / |reference| in exact rationals; a non-finite
    value or a zero reference scores 1 (no correct digit)."""
    if not (math.isfinite(value) and reference != 0):
        return 1.0
    reference = Fraction(reference)
    return abs(Fraction(value) - reference) / abs(reference)


def _finite_relerr(value, reference) -> float:
    """``oracle.relerr`` that scores a nan or infinite value as 1."""
    if not all(math.isfinite(part) for part in (value.real, value.imag)):
        return 1.0
    return oracle.relerr(value, reference)


def _probe_relerr(evaluate, refs) -> float:
    """Worst relative error of one probe call; a call that raises scores 1."""
    try:
        values = evaluate()
    except Exception:  # noqa: BLE001 -- any failure means no correct digit
        return 1.0
    if not isinstance(values, tuple):
        values, refs = (values,), (refs,)
    return max(_finite_relerr(v, r) for v, r in zip(values, refs))


WORKLOADS = {w.name: w for w in (VerifyGrid, DeltaProfile, LatticeScan)}
