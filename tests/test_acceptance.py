"""Release gate: every check this package promises, in one module.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
check (add -s to see the measured numbers).  The checks are ordered
bottom-up: amplitude bookkeeping first, then the entanglement stack, then
the synthesis and experiment layers, then end-to-end CLI reproducibility.
"""

import json
import math
import time

import numpy as np

from entpaths import harness
from entpaths.canonical import canonical_json, write_canonical_json
from entpaths.cli import main as cli_main
from entpaths.core import (StateVector, fidelity, haar_random_su4,
                           random_architecture, random_circuit, run_circuit)
from entpaths.entanglement import (Measure, geometric_entanglement,
                                   von_neumann_entropy)
from entpaths.harness import ExperimentConfig, report_to_dict
from entpaths.paths import deutsch_path_table, enumerate_paths
from entpaths.synthesis import (ComplexityEstimate, SearchSettings,
                                estimate_state_complexity, sample_target)
from entpaths.trajectories import path_entanglement_sum, trajectory

import oracles
from conftest import random_product_state, random_state


def _report(num, name, detail):
    print(f"[check {num:>2}/10] {name}: PASS ({detail})")


def test_01_path_sums_match_direct_simulation():
    """Summing configuration-path amplitudes reproduces the simulator.

    100 seeded random circuits, 20 random endpoint pairs each; the whole
    sweep has to finish inside 60 s.
    """
    rng = np.random.default_rng(823)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        num_gates = int(rng.integers(1, 6))
        circuit = random_circuit(n, random_architecture(n, num_gates, rng), rng)
        dim = 2 ** n
        endpoints = [(int(rng.integers(dim)), int(rng.integers(dim)))
                     for _ in range(20)]
        direct = {}
        summed = {}
        for q0 in {q for q, _ in endpoints}:
            initial = StateVector.basis_state(n, q0)
            direct[q0] = run_circuit(circuit, initial=initial)[-1].amplitudes
            sums = np.zeros(dim, dtype=np.complex128)
            for configs, amplitude in enumerate_paths(circuit, q0):
                sums[configs[-1]] += amplitude
            summed[q0] = sums
        for q0, qf in endpoints:
            worst = max(worst, abs(summed[q0][qf] - direct[q0][qf]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 60.0
    _report(1, "path sums match direct simulation",
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_02_path_count_is_four_to_the_gate_count():
    rng = np.random.default_rng(824)
    checked = 0
    for n in (2, 3):
        for num_gates in range(1, 6):
            circuit = random_circuit(n, random_architecture(n, num_gates, rng), rng)
            q0 = int(rng.integers(2 ** n))
            count = sum(1 for _ in enumerate_paths(circuit, q0))
            assert count == 4 ** num_gates
            checked += 1
    _report(2, "path count is 4**R from a fixed start",
            f"{checked} circuits, R up to 5")


def test_03_entanglement_fixture_values(bell, ghz3, w3):
    for product in (StateVector.zero_state(2), StateVector.zero_state(3),
                    random_product_state(3, 31)):
        assert geometric_entanglement(product) < 1e-9
    assert np.isclose(geometric_entanglement(bell), 0.5, atol=1e-6)
    assert np.isclose(geometric_entanglement(ghz3), 0.5, atol=1e-6)
    assert np.isclose(geometric_entanglement(w3), 5.0 / 9.0, atol=1e-4)

    s_bell = von_neumann_entropy(bell, [0])
    assert np.isclose(s_bell, 1.0, atol=1e-9)
    # W marginal spectrum is {1/3, 2/3}, so the entropy is log2(3) - 2/3.
    s_w = von_neumann_entropy(w3, [1])
    assert np.isclose(s_w, math.log2(3.0) - 2.0 / 3.0, atol=1e-6)
    _report(3, "entanglement fixture values",
            f"S(W marginal) = {s_w:.5f}")


def test_04_geometric_measure_agrees_with_brute_force():
    worst = 0.0
    for seed in range(20):
        n = 2 if seed < 10 else 3
        state = random_state(n, 400 + seed)
        fast = geometric_entanglement(state)
        slow = oracles.grid_polish_geometric(state.amplitudes, n)
        worst = max(worst, abs(fast - slow))
    assert worst < 1e-4
    _report(4, "alternating optimization vs grid+polish",
            f"20 states, max gap {worst:.2e}")


def test_05_haar_sampler_statistics():
    samples = 10_000
    rng = np.random.default_rng(825)
    mean_sq = np.zeros((4, 4))
    worst_unitarity = 0.0
    eye = np.eye(4)
    for _ in range(samples):
        u = haar_random_su4(rng)
        mean_sq += np.abs(u) ** 2
        worst_unitarity = max(worst_unitarity,
                              float(np.max(np.abs(u.conj().T @ u - eye))))
    mean_sq /= samples
    # Var(|U_ij|^2) = 2/(d(d+1)) - 1/d^2 = 3/80 for d = 4.
    three_se = 3.0 * math.sqrt(3.0 / 80.0 / samples)
    deviation = float(np.max(np.abs(mean_sq - 0.25)))
    assert deviation < three_se
    assert worst_unitarity < 1e-10
    _report(5, "Haar sampler statistics",
            f"max entry deviation {deviation:.2e} < {three_se:.2e}, "
            f"unitarity {worst_unitarity:.1e}")


def test_06_function_tester_interference():
    balanced = deutsch_path_table("not_x")
    assert balanced["outcome_bit"] == 1
    assert abs(balanced["probability_first_qubit_one"] - 1.0) < 1e-12
    for variant in ("zero", "one"):
        constant = deutsch_path_table(variant)
        assert constant["outcome_bit"] == 0
        assert abs(constant["probability_first_qubit_one"]) < 1e-12

    # Discarded outcomes cancel exactly: their 16 per-path contributions
    # sum to float zero with both signs present, not merely to something
    # small.
    cancelled = 0
    for report in (balanced, deutsch_path_table("zero")):
        finals = [complex(a["re"], a["im"]) for a in report["steps"][-1]["amplitudes"]]
        for config in range(4):
            if abs(finals[config]) > 1e-12:
                continue
            entry = report["final_path_contributions"][config]
            contribs = [complex(re, im) for re, im in zip(entry["contributions_re"],
                                                          entry["contributions_im"])]
            total = sum(contribs)
            assert total == 0
            reals = [c.real for c in contribs if c.real != 0.0]
            assert any(v > 0 for v in reals) and any(v < 0 for v in reals)
            cancelled += 1
    assert cancelled == 4
    _report(6, "function tester interference",
            f"balanced -> 1, constants -> 0, {cancelled} exact cancellations")


def test_07_trajectory_sum_properties():
    """Triangle bound and additivity exactly; telescoping when monotone.

    The 1000 random trajectories take values on the grid k/1024 so that
    every partial sum is an exact binary float: the first two properties
    are then asserted with ==, no tolerance.
    """
    rng = np.random.default_rng(826)
    measure = Measure.GEOMETRIC
    for _ in range(1000):
        length = int(rng.integers(2, 9))
        values = rng.integers(0, 4097, size=length) / 1024.0
        total = path_entanglement_sum(tuple(values))
        assert total >= abs(values[-1] - values[0])

        split = int(rng.integers(1, length))
        left = tuple(values[:split + 1])
        right = tuple(values[split:])
        assert path_entanglement_sum(left) + path_entanglement_sum(right) == total

        ordered = np.sort(values)
        mono = tuple(ordered)
        gap = float(ordered[-1] - ordered[0])
        assert abs(path_entanglement_sum(mono) - gap) < 1e-12

    # The same bound on measured trajectories of actual circuits.
    for seed in range(10):
        circuit = random_circuit(2, random_architecture(2, 1 + seed % 5, 700 + seed),
                                 900 + seed)
        values = trajectory(run_circuit(circuit), measure, geo_restarts=8)
        assert path_entanglement_sum(values) >= abs(values[-1] - values[0]) - 1e-12
    _report(7, "trajectory sum properties",
            "1000 exact dyadic trajectories + 10 measured ones")


def test_08_synthesis_soundness():
    """r_star never exceeds the generating gate count; witnesses replay.

    25 three-qubit targets at the default search budget inside 10 minutes,
    plus the two-qubit special case where one gate always suffices.
    """
    start = time.perf_counter()
    worst_replay = 0.0
    for i in range(25):
        r_gen = (i % 3) + 1
        target, _ = sample_target(3, r_gen, 900 + i)
        estimate = estimate_state_complexity(target, SearchSettings(), seed=900 + i)
        assert isinstance(estimate, ComplexityEstimate)
        assert estimate.r_star <= r_gen
        replayed = fidelity(run_circuit(estimate.witness)[-1], target)
        worst_replay = max(worst_replay,
                           abs(replayed - estimate.achieved_fidelity))
    for i in range(5):
        target, _ = sample_target(2, (i % 3) + 1, 950 + i)
        estimate = estimate_state_complexity(target, SearchSettings(), seed=950 + i)
        assert isinstance(estimate, ComplexityEstimate)
        assert estimate.r_star == 1
    elapsed = time.perf_counter() - start
    assert worst_replay < 1e-9
    assert elapsed < 600.0
    _report(8, "synthesis soundness",
            f"25 + 5 targets, witness replay gap {worst_replay:.1e}, "
            f"{elapsed:.0f}s")


def test_09_experiment_run_is_deterministic_and_complete():
    """A 50-target run: same bytes for any worker count, coherent report.

    No scientific value is asserted here, only that the experiment
    completes, reproduces, and reports consistently.
    """
    config = ExperimentConfig.from_dict({
        "n": 3,
        "targets": {"count": 50, "r_gen": 2, "seed": 17},
        "r_max": 2,
        "budget": {"restarts": 8, "iters": 500},
        "samples_per_r": 2,
        "geo_restarts": 8,
    })
    serial = report_to_dict(config, harness.run_experiment(config, jobs=1))
    parallel = report_to_dict(config, harness.run_experiment(config, jobs=2))
    assert canonical_json(serial) == canonical_json(parallel)

    aggregate = serial["aggregate"]
    assert aggregate["num_targets"] == 50
    evaluated = 50 - aggregate["num_synthesis_failures"]
    assert aggregate["all_targets"]["trials"] == evaluated
    assert (aggregate["excluding_degenerate"]["trials"]
            == evaluated - aggregate["num_degenerate"])
    for block in (aggregate["all_targets"], aggregate["excluding_degenerate"]):
        if block["trials"] == 0:
            continue
        rate = block["success_rate"]
        low, high = block["success_rate_ci95"]
        assert block["successes"] == round(rate * block["trials"])
        assert 0.0 <= low <= rate <= high <= 1.0
        assert block["epsilon_hat"] == 1.0 - rate
        eps_low, eps_high = block["epsilon_hat_ci95"]
        assert eps_low == 1.0 - high and eps_high == 1.0 - low
    for target in serial["targets"]:
        if target["r_star"] is None:
            assert target["success"] is None and target["records"] == []
            continue
        assert target["min_bin"] is not None
        assert target["success"] == (target["min_bin_optimal_r"]
                                     == target["min_bin"])
    rate = aggregate["all_targets"]["success_rate"]
    _report(9, "experiment determinism and report consistency",
            f"50 targets, jobs 1 == jobs 2, observed rate {rate}")


def test_10_cli_outputs_are_byte_identical(tmp_path):
    def run(args):
        assert cli_main(args) == 0

    def tree(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    sim_cfg = tmp_path / "simulate.json"
    write_canonical_json(sim_cfg, {"n": 3, "r": 3, "seed": 5,
                                   "measure": "geometric", "geo_restarts": 8})
    paths_cfg = tmp_path / "paths.json"
    write_canonical_json(paths_cfg, {"n": 2, "r": 3, "seed": 6, "q0": "10"})
    conj_cfg = tmp_path / "conjecture.json"
    write_canonical_json(conj_cfg, {
        "n": 2,
        "targets": {"count": 3, "r_gen": 1, "seed": 9},
        "r_max": 1,
        "budget": {"restarts": 6, "iters": 300},
        "samples_per_r": 2,
        "geo_restarts": 8,
    })
    runs = [
        ("simulate", ["simulate", "--config", str(sim_cfg)], []),
        ("paths", ["paths", "--config", str(paths_cfg)], []),
        ("deutsch", ["deutsch", "--variant", "one"], []),
        ("conjecture", ["conjecture", "--config", str(conj_cfg)],
         [["--jobs", "1"], ["--jobs", "2"]]),
    ]
    compared = 0
    for name, argv, job_flags in runs:
        first, second = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        extras = job_flags if job_flags else [[], []]
        run(argv + ["--out", str(first)] + extras[0])
        run(argv + ["--out", str(second)] + extras[1])
        bytes_a, bytes_b = tree(first), tree(second)
        assert bytes_a.keys() == bytes_b.keys()
        assert bytes_a == bytes_b
        json.loads((first / "manifest.json").read_text())  # well-formed
        compared += len(bytes_a)
    _report(10, "CLI reruns are byte-identical",
            f"4 subcommands, {compared} files compared")
