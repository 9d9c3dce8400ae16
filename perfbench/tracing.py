"""Per-layer tracing from outside the package.

Each traced public function is replaced by a wrapper that counts calls and
times them.  The wrapper is bound under every name that held the original in
any loaded ``sig3`` module (``f2`` lives in ``sig3.hypergeom`` but is also
called as ``sig3.transfer.f2``, ``sig3.delta.f2`` and ``sig3.weierstrass.f2``),
so calls between modules are seen too.  Self time is inclusive time minus the
inclusive time of wrapped calls made inside it.  Counts and times stay in
memory; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import sys
from time import perf_counter

TRACED = {
    "hypergeom": ("f2", "f3", "f_half", "agm", "agm3"),
    "moduli": ("params_from_p", "invariants", "modulus_from_kappa"),
    "weierstrass": ("wp_and_derivative", "sn"),
    "quadrature": ("integrate",),
    "delta": ("delta_phase", "delta_integral", "dn3"),
    "transfer": ("verify_identity56", "verify_identity57", "verify_identity58", "grid_report"),
    "cli": ("emit_csv",),
}
# Functions whose arguments and results are sampled for the oracle.
SAMPLED = ("hypergeom.f2", "hypergeom.f3", "hypergeom.f_half", "weierstrass.wp_and_derivative")
SAMPLE_CAP = 64


class Sample:
    """Every ``stride``-th call's (args, result); the stride doubles whenever
    the buffer reaches twice SAMPLE_CAP, so the sample spans the whole run
    and is the same for the same sequence of calls."""

    def __init__(self):
        self.calls = 0
        self.stride = 1
        self.items: list[tuple[tuple, object]] = []

    def add(self, args: tuple, result) -> None:
        self.calls += 1
        if self.calls % self.stride:
            return
        self.items.append((args, result))
        if len(self.items) >= 2 * SAMPLE_CAP:
            del self.items[::2]  # keep the multiples of the doubled stride
            self.stride *= 2


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.samples: dict[str, Sample] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sig3" or n.startswith("sig3.")]
        for module, names in TRACED.items():
            for fn in names:
                key = f"{module}.{fn}"
                original = getattr(sys.modules[f"sig3.{module}"], fn)
                wrapper = self._wrap(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def _wrap(self, key: str, fn):
        self.calls[key] = 0
        self.self_s[key] = 0.0
        sample = self.samples.setdefault(key, Sample()) if key in SAMPLED else None
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if sample is not None:
                sample.add(args, result)
            return result

        return wrapper
