"""The benchmark's tracer still finds what it wraps in the package.

perfbench/tracer.py patches ``synthesis.scipy.optimize.minimize`` and
recognises the ascent's early stop by its class name, so renaming either
would break the traced benchmark runs; this check fails first.  It also
wraps the package's layer functions by name, and a layer that the
pipeline stops calling would read 0 in the per-layer metrics, so one
target's evaluation must pass through each of them.
"""
import importlib.util
from pathlib import Path

import scipy

from entpaths.harness import ExperimentConfig
from entpaths.synthesis import SearchSettings, sample_target

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
                                          SearchSettings(restarts=3, iterations=200), seed=1)
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


def test_one_target_passes_through_every_traced_layer():
    from entpaths import harness

    config = ExperimentConfig.from_dict({
        "n": 3, "targets": {"count": 1, "r_gen": 1, "seed": 3},
        "budget": {"restarts": 2, "iters": 100}, "r_max": 2,
        "samples_per_r": 1, "geo_restarts": 2})
    tracer = _load_tracer().Tracer(config.threshold)
    tracer.install()
    try:
        outcome = harness.evaluate_target(config, 0)
    finally:
        tracer.uninstall()
    assert outcome.r_star == 1  # a one-gate target is found exactly
    for name in ("synthesis.estimate_state_complexity", "synthesis.optimize_gates",
                 "synthesis.optimize_gates_collect", "synthesis.enumerate_architectures",
                 "harness.evaluate_target", "harness.collect_families",
                 "trajectories.trajectory"):
        assert tracer.counters[name + ".calls"] >= 1, name
