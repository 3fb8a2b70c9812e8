import math

import numpy as np
import pytest

from entpaths import entanglement
from entpaths.core import (StateVector, random_architecture, random_circuit,
                           run_circuit)
from entpaths.entanglement import (ProductFitConvergenceError, cut_weights,
                                   geometric_entanglement, von_neumann_entropy)

import oracles
from conftest import random_product_state, random_state


@pytest.mark.parametrize("n,keep,seed", [
    (2, [0], 1), (2, [1], 2),
    (3, [0], 3), (3, [2], 4), (3, [0, 2], 5), (3, [1, 2], 6),
    (4, [1, 3], 7), (4, [0], 8), (4, [0, 1, 2], 9),
])
def test_reduced_density_matrix_matches_loop_oracle(n, keep, seed):
    # the entropy of the kept qubits against the spectrum of the oracle's
    # explicit partial trace
    state = random_state(n, seed)
    value = von_neumann_entropy(state, keep)
    reference = oracles.entropy_bits(oracles.reduced_rho(state.amplitudes, keep, n))
    assert abs(value - reference) <= 1e-12


def test_reduced_density_matrix_requires_proper_subset(bell, w3):
    with pytest.raises(ValueError, match="proper subset"):
        von_neumann_entropy(bell, [0, 1])
    with pytest.raises(ValueError, match="proper subset"):
        von_neumann_entropy(bell, [])
    with pytest.raises(ValueError, match="out of range"):
        von_neumann_entropy(w3, [3])
    with pytest.raises(ValueError, match="duplicates"):
        von_neumann_entropy(w3, [1, 1])
    with pytest.raises(ValueError, match="needs a cut"):
        von_neumann_entropy(w3, None)
    for keep in ([0.5], [True], ["0"], "0", [-1], 5):
        with pytest.raises(ValueError, match="qubit indices"):
            von_neumann_entropy(w3, keep)
    # a cut is read once, so a generator is a cut
    assert von_neumann_entropy(w3, (q for q in [0])) == von_neumann_entropy(w3, [0])


def test_entropy_of_bell_marginal_is_one_bit(bell):
    value = von_neumann_entropy(bell, [0])
    assert isinstance(value, float)
    assert np.isclose(value, 1.0, atol=1e-9)


def test_entropy_of_product_marginal_is_zero():
    state = random_product_state(3, 21)
    for q in range(3):
        value = von_neumann_entropy(state, [q])
        assert abs(value) < 1e-9


def test_entropy_of_a_basis_state_is_positive_zero():
    # a negative zero would be written as "-0" in trajectory CSVs
    for keep in ([0], [1, 2]):
        value = von_neumann_entropy(StateVector.zero_state(3), keep)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_entropy_of_w3_marginal(w3):
    value = von_neumann_entropy(w3, [0])
    expected = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert np.isclose(value, expected, atol=1e-9)
    assert np.isclose(value, 0.9182958340544896, atol=1e-12)


def test_entropy_matches_loop_oracle_on_random_states():
    for seed in range(30, 36):
        state = random_state(3, seed)
        fast = von_neumann_entropy(state, [0, 1])
        slow = oracles.entropy_bits(oracles.reduced_rho(state.amplitudes, [0, 1], 3))
        assert np.isclose(fast, slow, atol=1e-9)


def test_geometric_entanglement_fixture_values(bell, ghz3, w3):
    assert np.isclose(geometric_entanglement(bell), 0.5, atol=1e-6)
    assert np.isclose(geometric_entanglement(ghz3), 0.5, atol=1e-6)
    assert np.isclose(geometric_entanglement(w3), 5.0 / 9.0, atol=1e-4)


def test_geometric_entanglement_vanishes_on_product_states():
    for seed in (41, 42):
        for n in (2, 3):
            state = random_product_state(n, seed)
            assert geometric_entanglement(state) < 1e-9


def test_geometric_matches_grid_polish_oracle():
    for seed in range(60, 66):
        n = 2 if seed % 2 == 0 else 3
        state = random_state(n, seed)
        fast = geometric_entanglement(state)
        slow = oracles.grid_polish_geometric(state.amplitudes, n)
        assert abs(fast - slow) < 1e-4


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("restarts", [1, 16, 32])
@pytest.mark.parametrize("name", ["random2", "random3", "random4", "random5",
                                  "zero3", "bell", "ghz3", "w3"])
def test_batched_fit_matches_loop_oracle(name, restarts, seed, request, monkeypatch):
    # seed 0 is the package's own start table; another seed's rows hand
    # both fits a start table drawn from that seed
    if name.startswith("random"):
        state = random_state(int(name[-1]), 90 + int(name[-1]))
    elif name == "zero3":
        state = StateVector.zero_state(3)
    else:
        state = request.getfixturevalue(name)
    starts = None
    if seed:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((restarts, state.num_qubits, 2, 2))
        starts = raw[..., 0] + 1j * raw[..., 1]
        starts /= np.linalg.norm(starts, axis=-1, keepdims=True)
        monkeypatch.setattr(entanglement, "_start_vectors", lambda n, r: starts)
    value = geometric_entanglement(state, restarts=restarts)
    reference, converged = oracles.geometric_entanglement_loop(
        state.amplitudes, state.num_qubits, restarts=restarts, start_vectors=starts)
    assert converged
    assert abs(value - reference) <= 1e-12


def _vanishing_environment_state(restarts, k):
    """|0> (x) u (x) |0>, u orthogonal to restart k's start vector on site 1:
    the first environment of site 0 vanishes for restart k alone."""
    v = entanglement._start_vectors(3, restarts)[k, 1]
    u = np.array([-np.conj(v[1]), np.conj(v[0])])
    return np.kron(np.kron([1.0, 0.0], u), [1.0, 0.0])


@pytest.mark.parametrize("sweeps", [1, 2, 3, 1000])
def test_compacted_rows_fit_each_state_as_if_alone(monkeypatch, sweeps):
    restarts = 4
    rng = np.random.default_rng(17)
    path = run_circuit(random_circuit(3, random_architecture(3, 3, rng), rng))
    stack = np.stack([state.amplitudes for state in path[:2]]
                     + [_vanishing_environment_state(restarts, 1)]
                     + [state.amplitudes for state in path[2:]])
    first_step = np.einsum("abc,b,c->a", stack[2].reshape(2, 2, 2),
                           *entanglement._start_vectors(3, restarts)[1, 1:].conj())
    assert np.linalg.norm(first_step) < 1e-15
    monkeypatch.setattr(entanglement, "GEO_MAX_SWEEPS", sweeps)
    values, converged = entanglement._product_fit(stack, 3, restarts)
    for amplitudes, value, ok in zip(stack, values, converged):
        alone, alone_ok = entanglement._product_fit(amplitudes[None], 3, restarts)
        assert (value, ok) == (alone[0], alone_ok[0])
        reference, reference_ok = oracles.geometric_entanglement_loop(
            amplitudes, 3, restarts=restarts, max_sweeps=sweeps)
        assert ok == reference_ok
        assert abs(value - reference) <= 1e-12


def test_unconverged_fit_raises_with_the_best_value(monkeypatch, w3):
    monkeypatch.setattr(entanglement, "GEO_MAX_SWEEPS", 1)  # a first sweep never converges
    with pytest.raises(ProductFitConvergenceError) as err:
        geometric_entanglement(w3)
    assert 0.0 <= err.value.best_value <= 1.0


def test_geometric_entanglement_deterministic(w3):
    a = geometric_entanglement(w3)
    b = geometric_entanglement(w3)
    assert a == b


def test_more_restarts_never_hurt():
    state = random_state(3, 70)
    few = geometric_entanglement(state, restarts=1)
    many = geometric_entanglement(state, restarts=32)
    assert many <= few + 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cut_weights_are_the_largest_reduced_eigenvalues(n):
    state = random_state(n, seed=40 + n)
    weights = cut_weights(state)
    assert weights.shape == (2**n,)
    assert weights[0] == weights[-1] == 1.0
    for side, value in oracles.largest_reduced_eigenvalues(state.amplitudes, n).items():
        mask = sum(1 << q for q in side)
        assert abs(weights[mask] - value) <= 1e-12


def test_cut_weights_read_one_across_a_product_cut():
    # qubits 0 and 2 against 1 and 3, each pair in a state of its own
    rng = np.random.default_rng(44)
    state = run_circuit(random_circuit(4, ((0, 2), (1, 3)), rng))[-1]
    weights = cut_weights(state)
    assert abs(weights[0b0101] - 1.0) <= 1e-12
    assert weights[0b0011] < 0.99

