"""The fault matrix: which certificate sees which fault.

Each fault scales one quantity by 1 + 1e-12 on the module that reads it,
with the cached contexts cleared before and after.  The
certificates read:
- T: the worst of (56)-(58) over ``grid_report(0.001, 0.999, 0.001)``;
- re and im: ``period_route_gap``'s two columns;
- gap, res and ph: ``verify_ode_delta``'s three columns on 17 points
  over one period;
- V: ``verify_trimidiation`` on 12 z.
The route gap and the ODE run at every kappa of KAPPAS, Velu's identity at
the first four.  A certificate sees a fault when it reads both above 50
times its clean reading and above 2e-14.  A new certificate adds its
letter to the rows it sees; a fix edits its row.
"""

import importlib
import random

import pytest

from sig3 import hypergeom, moduli, transfer, weierstrass
from sig3.delta import period_route_gap, verify_ode_delta, verify_trimidiation
from sig3.moduli import DeltaContext, ModulusSet
from sig3.transfer import grid_report
from oracles import clear_sig3_caches

delta_module = importlib.import_module("sig3.delta")  # sig3.delta is the function
FAULT = 1.0 + 1e-12
KAPPAS = (0.05, 0.3, 0.6, 0.9, 0.999, 0.999999)
_rng = random.Random(7)
Z = [complex(_rng.uniform(-1.5, 1.5), _rng.uniform(-1.5, 1.5)) for _ in range(12)]


def _readings():
    """Each certificate's worst reading over its kappas."""
    worst = dict.fromkeys(("re", "im", "gap", "res", "ph", "V"), 0.0)
    worst["T"] = max(grid_report(0.001, 0.999, 0.001).max_relerr.values())
    for i, kappa in enumerate(KAPPAS):
        ctx = DeltaContext(ModulusSet(kappa))
        rows = verify_ode_delta(ctx, [2.0 * ctx.omega * j / 16 for j in range(17)])
        columns = dict(zip(("re", "im"), period_route_gap(ctx)))
        columns.update(zip(("gap", "res", "ph"), map(max, list(zip(*rows))[1:])))
        if i < 4:
            columns["V"] = verify_trimidiation(ctx, Z)
        for name, value in columns.items():
            worst[name] = max(worst[name], value)
    return worst


def _scaled(fn, index=None):
    """fn with its result, or the field ``index`` of its tuple, times FAULT."""
    def faulty(*args):
        value = fn(*args)
        if index is None:
            return value * FAULT
        return tuple.__new__(type(value), (*value[:index], value[index] * FAULT, *value[index + 1:]))
    return faulty


def _top_rung(cell_fn):
    """cell_fn with the k of its ladder's top rung, climbed last, times FAULT."""
    def faulty(*args):
        cell = cell_fn(*args)
        k, k_up = cell.rungs[-1]
        return cell._replace(rungs=(*cell.rungs[:-1], (k * FAULT, k_up)))
    return faulty


def _faulty_arc(kappa, arc=delta_module._arc):
    """The reference kernel with F times FAULT, alone or with its terms."""
    kernel = arc(kappa)

    def faulty(t, terms=False):
        if terms:
            f, *rest = kernel(t, True)
            return (f * FAULT, *rest)
        return kernel(t) * FAULT
    return faulty


# fault -> [(module, name, replacement)], the certificates that see it.
FAULTS = {
    "agm": ([(hypergeom, "agm", _scaled(hypergeom.agm))], "T im"),
    "f2_complement": ([(m, "f2_complement", _scaled(hypergeom.f2_complement)) for m in (transfer, delta_module)],
                      "T im"),
    "agm3": ([(hypergeom, "agm3", _scaled(hypergeom.agm3))], "T re im gap ph V"),
    # A bias shared by both means moves both sides of (56)-(58) alike.
    "agm and agm3": ([(hypergeom, "agm", _scaled(hypergeom.agm)), (hypergeom, "agm3", _scaled(hypergeom.agm3))],
                     "re gap ph V"),
    "_cbrt": ([(hypergeom, "_cbrt", _scaled(hypergeom._cbrt))], "T re im gap ph V"),
    "e2 - e3": ([(moduli, "midpoint_gaps", _scaled(moduli.midpoint_gaps, 0))], "re im gap V"),
    "e1 - e2": ([(moduli, "midpoint_gaps", _scaled(moduli.midpoint_gaps, 1))], "re im gap V"),
    "1/3 + e3": ([(moduli, "midpoint_gaps", _scaled(moduli.midpoint_gaps, 2))], "gap V"),
    "omega": ([(moduli, "half_periods_sig3", _scaled(moduli.half_periods_sig3, 0))], "re gap ph V"),
    "omega'": ([(moduli, "half_periods_sig3", _scaled(moduli.half_periods_sig3, 1))], "im V"),
    # The context's omega is half this period, the same float: the row is omega's.
    "the cell's real period": ([(moduli, "_cell", _scaled(moduli._cell, 0))], "re gap ph V"),
    "the ladder's top rung k": ([(moduli, "_cell", _top_rung(moduli._cell))], "gap ph V"),
    "the ladder's scale": ([(moduli, "_cell", _scaled(moduli._cell, 2))], "re gap ph V"),
    # delta's real axis and the complex bridge of weierstrass._shifted.
    "_inv_sn": ([(m, "_inv_sn", _scaled(weierstrass._inv_sn)) for m in (delta_module, weierstrass)], "gap ph V"),
    "_arc": ([(delta_module, "_arc", _faulty_arc)], "gap res ph"),
    "integrate": ([(delta_module, "integrate", _scaled(delta_module.integrate))], "ph"),
    "delta' of the reference": ([(delta_module, "_reference_delta", _scaled(delta_module._reference_delta, 1))],
                                "res"),
    "alpha": ([(transfer, "params_from_p", _scaled(moduli.params_from_p, 1))], "T"),
    "1 - alpha": ([(transfer, "params_from_p", _scaled(moduli.params_from_p, 3))], "T"),
    "1 - beta": ([(transfer, "params_from_p", _scaled(moduli.params_from_p, 4))], "T"),
    # Blind: sig3 periods prints p and no certificate reads it.  Item 10
    # gives ModulusSet.p the p of the lattice, which the route gap checks.
    "ModulusSet.p": ([(ModulusSet, "p", property(_scaled(ModulusSet.p.fget)))], ""),
}

# The clean readings, at most a few times their measured values.
CLEAN_BOUNDS = {"T": 1e-15, "re": 1e-15, "im": 1e-15, "gap": 3e-15, "res": 3e-15, "ph": 1e-13, "V": 5e-15}


@pytest.fixture(scope="module")
def clean():
    clear_sig3_caches()
    return _readings()


def test_the_clean_readings_are_roundoff(clean):
    assert clean.keys() == CLEAN_BOUNDS.keys()
    assert {name for name, value in clean.items() if value > CLEAN_BOUNDS[name]} == set(), clean


@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_fault_is_seen_by_its_certificates(fault, clean, monkeypatch):
    patches, seers = FAULTS[fault]
    clear_sig3_caches()
    try:
        with monkeypatch.context() as patched:
            for home, name, replacement in patches:
                patched.setattr(home, name, replacement)
            readings = _readings()
    finally:
        clear_sig3_caches()
    seen = {name for name, value in readings.items() if value > max(50.0 * clean[name], 2e-14)}
    assert seen == set(seers.split()), readings
