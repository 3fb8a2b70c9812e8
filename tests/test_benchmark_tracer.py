"""The benchmark's tracer still finds what it wraps in the package.

perfbench/tracer.py patches ``synthesis.scipy.optimize.minimize`` and
recognises the ascent's early stop by its class name, so renaming either
would break the traced benchmark runs; this check fails first.
"""
import importlib.util
from pathlib import Path

import scipy

from entpaths.synthesis import OptimizerBudget, sample_target

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_ascents_of_a_two_gate_search():
    from entpaths import synthesis

    target, _ = sample_target(3, 2, seed=5)
    tracer = _load_tracer().Tracer(0.9999)
    tracer.install()
    try:
        result = synthesis.optimize_gates(((0, 1), (1, 2)), target,
                                          OptimizerBudget(3, 200), seed=1,
                                          success_fidelity=0.9999)
    finally:
        tracer.uninstall()
    counters = tracer.counters
    assert counters["synthesis.optimize_gates.calls"] == 1
    assert counters["synthesis.lbfgs.calls"] == result.restarts_run
    assert counters["synthesis.lbfgs.fun.calls"] >= result.restarts_run
    # the target is exactly preparable on this layout, so the search ends
    # on an early stop, which the tracer must recognise by name
    assert result.converged
    assert counters["synthesis.lbfgs.early_stops"] >= 1
    assert synthesis.scipy is scipy
