import math

import numpy as np
import pytest

from entpaths import entanglement
from entpaths.core import StateVector
from entpaths.entanglement import (NumericalDomainError,
                                   ProductFitConvergenceError,
                                   geometric_entanglement,
                                   reduced_density_matrix, von_neumann_entropy)

import oracles
from conftest import random_product_state, random_state


@pytest.mark.parametrize("n,keep,seed", [
    (2, [0], 1), (2, [1], 2),
    (3, [0], 3), (3, [2], 4), (3, [0, 2], 5), (3, [1, 2], 6),
    (4, [1, 3], 7), (4, [0], 8), (4, [0, 1, 2], 9),
])
def test_reduced_density_matrix_matches_loop_oracle(n, keep, seed):
    state = random_state(n, seed)
    fast = reduced_density_matrix(state, keep)
    slow = oracles.reduced_rho(state.amplitudes, keep, n)
    assert np.allclose(fast, slow, atol=1e-12)


def test_reduced_density_matrix_properties(w3):
    rho = reduced_density_matrix(w3, [0])
    assert np.allclose(rho, rho.conj().T)
    assert np.isclose(np.trace(rho).real, 1.0)
    eigs = np.linalg.eigvalsh(rho)
    assert np.all(eigs > -1e-12)


def test_reduced_density_matrix_requires_proper_subset(bell):
    with pytest.raises(ValueError):
        reduced_density_matrix(bell, [0, 1])
    with pytest.raises(ValueError):
        reduced_density_matrix(bell, [])
    with pytest.raises(ValueError):
        reduced_density_matrix(bell, [2])


def test_entropy_of_bell_marginal_is_one_bit(bell):
    value = von_neumann_entropy(reduced_density_matrix(bell, [0]))
    assert isinstance(value, float)
    assert np.isclose(value, 1.0, atol=1e-9)


def test_entropy_of_product_marginal_is_zero():
    state = random_product_state(3, 21)
    for q in range(3):
        value = von_neumann_entropy(reduced_density_matrix(state, [q]))
        assert abs(value) < 1e-9


def test_entropy_of_w3_marginal(w3):
    value = von_neumann_entropy(reduced_density_matrix(w3, [0]))
    expected = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert np.isclose(value, expected, atol=1e-9)
    assert np.isclose(value, 0.9182958340544896, atol=1e-12)


def test_entropy_matches_loop_oracle_on_random_states():
    for seed in range(30, 36):
        state = random_state(3, seed)
        fast = von_neumann_entropy(reduced_density_matrix(state, [0, 1]))
        slow = oracles.entropy_bits(oracles.reduced_rho(state.amplitudes, [0, 1], 3))
        assert np.isclose(fast, slow, atol=1e-9)


def test_entropy_clips_harmless_negative_eigenvalues():
    rho = np.diag([1.0, -5e-11, 0.0, 0.0])
    assert von_neumann_entropy(rho) == 0.0


def test_entropy_rejects_genuinely_negative_spectrum():
    with pytest.raises(NumericalDomainError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_entropy_rejects_non_hermitian_and_wrong_trace():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.7, 0.7]))


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
def test_batched_fit_matches_loop_oracle(name, restarts, seed, request):
    if name.startswith("random"):
        state = random_state(int(name[-1]), 90 + int(name[-1]))
    elif name == "zero3":
        state = StateVector.zero_state(3)
    else:
        state = request.getfixturevalue(name)
    value = geometric_entanglement(state, restarts=restarts, seed=seed)
    reference, converged = oracles.geometric_entanglement_loop(
        state.amplitudes, state.num_qubits, restarts=restarts, seed=seed)
    assert converged
    assert abs(value - reference) <= 1e-12


def test_unconverged_fit_raises_with_the_best_value(monkeypatch, w3):
    monkeypatch.setattr(entanglement, "GEO_MAX_SWEEPS", 1)  # a first sweep never converges
    with pytest.raises(ProductFitConvergenceError) as err:
        geometric_entanglement(w3)
    assert 0.0 <= err.value.best_value <= 1.0


def test_geometric_entanglement_deterministic(w3):
    a = geometric_entanglement(w3, seed=5)
    b = geometric_entanglement(w3, seed=5)
    assert a == b


def test_more_restarts_never_hurt():
    state = random_state(3, 70)
    few = geometric_entanglement(state, restarts=1)
    many = geometric_entanglement(state, restarts=32)
    assert many <= few + 1e-15
