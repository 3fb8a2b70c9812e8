import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpaths import entanglement
from entpaths.core import (Circuit, DimensionMismatchError, StateVector,
                           TwoQubitGate, random_architecture, random_circuit,
                           run_circuit)
from entpaths.entanglement import (Measure, ProductFitConvergenceError,
                                   von_neumann_entropy)
from entpaths.trajectories import (TrajectoryMeasureError, export_trajectory,
                                   measure_state, path_entanglement_sum,
                                   trajectory, trajectory_summary)

import oracles
from conftest import random_state

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=float)
H_KRON_I = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.eye(2))


def bell_prep_circuit():
    """Two gates on (0, 1): H on qubit 0, then CNOT; ends in a Bell state."""
    g1 = TwoQubitGate.from_unitary((0, 1), H_KRON_I)
    g2 = TwoQubitGate.from_unitary((0, 1), CNOT)
    return Circuit(2, [g1, g2])


def test_trajectory_includes_the_initial_state():
    circuit = bell_prep_circuit()
    values = trajectory(run_circuit(circuit))
    assert isinstance(values, tuple)
    assert len(values) == 3
    assert values[0] == 0.0  # |00> is a product state


def test_bell_prep_trajectory_values():
    circuit = bell_prep_circuit()
    values = trajectory(run_circuit(circuit))
    assert abs(values[1]) < 1e-9          # still product after H
    assert np.isclose(values[2], 0.5, atol=1e-9)
    assert np.isclose(path_entanglement_sum(values), 0.5, atol=1e-9)


def test_bell_prep_trajectory_in_entropy_bits():
    circuit = bell_prep_circuit()
    values = trajectory(run_circuit(circuit), Measure.VON_NEUMANN_BITS, cut=[0])
    assert np.isclose(values[2], 1.0, atol=1e-9)
    assert np.isclose(path_entanglement_sum(values), 1.0, atol=1e-9)


def test_round_trip_circuit_overshoots_the_endpoint_gap():
    # entangle and then disentangle: the sum sees both legs, the endpoint
    # difference sees none of them
    g1 = TwoQubitGate.from_unitary((0, 1), H_KRON_I @ CNOT @ H_KRON_I)
    inverse = TwoQubitGate((0, 1), g1.matrix.conj().T)
    circuit = Circuit(2, [g1, inverse])
    values = trajectory(run_circuit(circuit))
    total = path_entanglement_sum(values)
    peak = values[1]
    assert peak > 0.1
    assert np.isclose(total, 2 * peak, atol=1e-9)
    assert abs(values[2] - values[0]) < 1e-9


def test_measure_state_needs_cut_for_entropy(bell):
    with pytest.raises(ValueError):
        measure_state(bell, Measure.VON_NEUMANN_BITS)
    value = measure_state(bell, Measure.VON_NEUMANN_BITS, cut=[0])
    assert np.isclose(value, 1.0, atol=1e-9)


def test_trajectory_wraps_measure_failures_with_the_step():
    circuit = bell_prep_circuit()
    with pytest.raises(TrajectoryMeasureError) as err:
        trajectory(run_circuit(circuit), Measure.VON_NEUMANN_BITS)  # no cut
    assert err.value.step == 0


def test_trajectory_wraps_an_unconverged_geometric_fit_at_step_zero(monkeypatch):
    monkeypatch.setattr(entanglement, "GEO_MAX_SWEEPS", 1)
    with pytest.raises(TrajectoryMeasureError) as err:
        trajectory(run_circuit(bell_prep_circuit()))
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, ProductFitConvergenceError)


def test_trajectory_rejects_a_one_qubit_geometric_path_at_step_zero():
    plus = StateVector(1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    with pytest.raises(TrajectoryMeasureError) as err:
        trajectory((StateVector.zero_state(1), plus))
    assert err.value.step == 0
    assert str(err.value) == ("measure failed at step 0: "
                              "geometric entanglement needs at least 2 qubits")
    assert isinstance(err.value.__cause__, DimensionMismatchError)


def _random_path(n, num_gates, seed):
    rng = np.random.default_rng(seed)
    return run_circuit(random_circuit(n, random_architecture(n, num_gates, rng), rng))


@pytest.mark.parametrize("restarts", [1, 16])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_path_fit_matches_the_loop_oracle_state_by_state(n, restarts):
    for seed in range(3):
        path = _random_path(n, 2 + seed, (n, restarts, seed))
        values = trajectory(path, geo_restarts=restarts)
        for state, value in zip(path, values):
            reference, converged = oracles.geometric_entanglement_loop(
                state.amplitudes, n, restarts=restarts)
            assert converged
            assert abs(value - reference) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_path_entropies_match_each_state_and_the_oracle(n):
    cuts = {tuple(range(k)) for k in range(1, n)} | {(n - 1,), tuple(range(0, n, 2))}
    for seed, cut in enumerate(sorted(cuts)):
        path = _random_path(n, 2 + seed % 3, (n, seed))
        values = trajectory(path, Measure.VON_NEUMANN_BITS, cut=cut)
        assert values == tuple(von_neumann_entropy(state, cut) for state in path)
        for state, value in zip(path, values):
            reference = oracles.entropy_bits(oracles.reduced_rho(state.amplitudes, cut, n))
            assert abs(value - reference) <= 1e-12


def test_unconverged_step_after_the_first_fails_with_its_own_best_value(monkeypatch):
    # |000> converges on the second sweep; a Haar-gated state does not
    monkeypatch.setattr(entanglement, "GEO_MAX_SWEEPS", 2)
    path = _random_path(3, 3, 8)
    expected = [oracles.geometric_entanglement_loop(state.amplitudes, 3, restarts=16,
                                                    max_sweeps=2)
                for state in path]
    first = next(k for k, (_, converged) in enumerate(expected) if not converged)
    assert first > 0
    with pytest.raises(TrajectoryMeasureError) as err:
        trajectory(path, geo_restarts=16)
    assert err.value.step == first
    cause = err.value.__cause__
    assert isinstance(cause, ProductFitConvergenceError)
    assert abs(cause.best_value - expected[first][0]) <= 1e-12


@pytest.mark.parametrize("restarts", [1, 16])
def test_redrawn_sites_continue_each_restarts_generator(monkeypatch, restarts):
    # every start vector is |1>: on |000> the environments of sites 0 and 1
    # vanish in turn, and on a state with no |x11> amplitude that of site 0
    # does, so each is re-drawn from the restart's generator past its start
    starts = np.zeros((restarts, 3, 2), dtype=complex)
    starts[..., 1] = 1.0
    monkeypatch.setattr(entanglement, "_start_vectors", lambda n, r: starts)
    amps = random_state(3, 12).amplitudes.copy()
    amps[[3, 7]] = 0.0
    skewed = StateVector(3, amps / np.linalg.norm(amps))
    path = (StateVector.zero_state(3), skewed)
    values = trajectory(path, geo_restarts=restarts)
    for state, value in zip(path, values):
        reference, converged = oracles.geometric_entanglement_loop(
            state.amplitudes, 3, restarts=restarts, start_vectors=starts)
        assert converged
        assert abs(value - reference) <= 1e-12
    # after one sweep the overlap on |000> is the product of the re-drawn
    # vectors' first entries, so it pins the re-draws themselves
    monkeypatch.setattr(entanglement, "GEO_MAX_SWEEPS", 1)
    with pytest.raises(TrajectoryMeasureError) as err:
        trajectory(path, geo_restarts=restarts)
    reference, _ = oracles.geometric_entanglement_loop(
        path[0].amplitudes, 3, restarts=restarts, max_sweeps=1, start_vectors=starts)
    assert err.value.step == 0
    assert abs(err.value.__cause__.best_value - reference) <= 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
                min_size=2, max_size=9))
@settings(max_examples=120, deadline=None)
def test_sum_dominates_endpoint_gap(values):
    total = path_entanglement_sum(values)
    assert total >= abs(values[-1] - values[0]) - 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
                min_size=2, max_size=9))
@settings(max_examples=120, deadline=None)
def test_monotone_rearrangement_telescopes(values):
    ordered = sorted(values)
    total = path_entanglement_sum(ordered)
    assert np.isclose(total, ordered[-1] - ordered[0], atol=1e-12)


def test_segment_additivity_with_exact_arithmetic():
    # dyadic values make every partial sum exact, so the equality is literal
    rng = np.random.default_rng(123)
    for _ in range(50):
        values = rng.integers(0, 4096, size=7) / 1024.0
        whole = path_entanglement_sum(values)
        cutpoint = int(rng.integers(1, 6))
        left = path_entanglement_sum(values[:cutpoint + 1])
        right = path_entanglement_sum(values[cutpoint:])
        assert left + right == whole


def test_single_point_trajectory_has_zero_sum():
    assert path_entanglement_sum((0.7,)) == 0.0


def test_export_then_read_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    for measure, values in ((Measure.GEOMETRIC, rng.random(4)),
                            (Measure.VON_NEUMANN_BITS, rng.random(6))):
        values = tuple(float(v) for v in values)
        out = tmp_path / f"{measure.value}.csv"
        export_trajectory("a", measure, values, out)
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["run_id"] for row in rows] == ["a"] * len(values)
        assert [int(row["k"]) for row in rows] == list(range(len(values)))
        assert {row["measure_tag"] for row in rows} == {measure.value}
        # shortest round-trip floats: every value parses back bit-exactly
        assert tuple(float(row["entanglement"]) for row in rows) == values


def test_trajectory_summary_fields():
    doc = trajectory_summary("demo", Measure.GEOMETRIC, (0.0, 0.4, 0.1))
    assert doc["run_id"] == "demo"
    assert doc["R"] == 2
    assert doc["measure"] == "geometric"
    assert np.isclose(doc["sum"], 0.7)
    assert np.isclose(doc["max_jump"], 0.4)
    assert np.isclose(doc["final_entanglement"], 0.1)
    # a one-state path has no steps
    doc = trajectory_summary("one", Measure.VON_NEUMANN_BITS, (0.25,))
    assert (doc["R"], doc["sum"], doc["max_jump"]) == (0, 0.0, 0.0)
    assert doc["measure"] == "vonneumann"


def test_max_step_jump():
    # the largest step, not the largest value or the endpoint gap
    doc = trajectory_summary("demo", Measure.GEOMETRIC, (0.0, 0.3, 0.1, 0.6))
    assert np.isclose(doc["max_jump"], 0.5)
    # a one-state path has no steps, so no jump
    doc = trajectory_summary("one", Measure.GEOMETRIC, (0.25,))
    assert doc["max_jump"] == 0.0


def test_trajectory_of_random_circuit_is_finite_and_nonnegative():
    rng = np.random.default_rng(31)
    circuit = random_circuit(3, random_architecture(3, 3, rng), rng)
    values = trajectory(run_circuit(circuit), geo_restarts=8)
    assert all(0.0 <= v < 1.0 for v in values)
    assert path_entanglement_sum(values) >= values[-1] - 1e-12
