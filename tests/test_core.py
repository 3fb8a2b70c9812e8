import math

import numpy as np
import pytest

from entpaths.core import (NORM_ATOL, Circuit, DimensionMismatchError,
                           StateVector, TwoQubitGate, _det, _eigh, _svd, all_pairs,
                           apply_gate_matrix, basis_index, config_label,
                           fidelity, haar_random_su4,
                           load_circuit, load_state, random_architecture,
                           random_circuit, run_circuit, save_circuit,
                           save_state)

import oracles

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=float)


def test_qubit_zero_is_most_significant_bit():
    # |10> means qubit 0 set -> basis index 2
    assert basis_index((1, 0), 2) == 2
    assert basis_index((0, 1), 2) == 1
    assert basis_index((1, 0, 1), 3) == 5
    assert config_label(2, 2) == "10"
    assert config_label(5, 3) == "101"


@pytest.mark.parametrize("configuration,named", [
    (True, "True"), (False, "False"), (np.True_, "True"), (2.0, "2.0"), (None, "None"),
    ((True, False), "True"), ((1.0, 0), "1.0"), ((1, 0.0), "0.0"), ((0, 2), "2"),
    (("1", "0"), "'1'"), ("10", "'1'"),
])
def test_basis_index_rejects_bools_and_non_int_bits(configuration, named):
    with pytest.raises(ValueError, match=f"got .*{named}"):
        basis_index(configuration, 2)


def test_basis_index_bad_configurations_reach_every_caller():
    from entpaths.paths import enumerate_paths, path_sums, transition_amplitude
    circuit = random_circuit(2, [(0, 1)], np.random.default_rng(0))
    for call in (lambda: StateVector.basis_state(2, True),
                 lambda: enumerate_paths(circuit, (True, False)),
                 lambda: path_sums(circuit, (1.0, 0)),
                 lambda: transition_amplitude(circuit, 0, True)):
        with pytest.raises(ValueError):
            call()


def test_basis_index_accepts_numpy_ints():
    assert basis_index(np.int64(3), 2) == 3
    assert basis_index((np.int64(1), 0), 2) == 2


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector(2, [0.0, 0.0, 0.0, 0.0])
    # every entry has modulus below 1, so the norm test alone decides
    entry = math.sqrt(0.5)
    StateVector(1, [entry * (1.0 + 0.5 * NORM_ATOL)] * 2)
    for excess in (-2.0, 2.0):
        with pytest.raises(ValueError, match="state norm"):
            StateVector(1, [entry * (1.0 + excess * NORM_ATOL)] * 2)


@pytest.mark.parametrize("bad", [complex(0, math.nan), complex(1, math.inf)])
def test_state_vector_rejects_a_non_finite_imaginary_part(bad):
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, [bad, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("huge", [1e200, complex(1e200, 1e200)])
def test_state_vector_rejects_a_huge_entry_before_its_norm_overflows(huge):
    with pytest.raises(ValueError, match="modulus above 1"):
        StateVector(1, [huge, 0.0])


def test_state_vector_requires_power_of_two_length():
    with pytest.raises(DimensionMismatchError):
        StateVector(2, [1.0, 0.0, 0.0])


def test_state_vector_rejects_a_bool_qubit_count():
    with pytest.raises(DimensionMismatchError):
        StateVector(True, [1.0, 0.0])


def test_state_vector_is_immutable():
    state = StateVector.zero_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_basis_state():
    state = StateVector.basis_state(3, 5)
    assert state.amplitudes[5] == 1.0
    assert np.isclose(np.sum(np.abs(state.amplitudes)), 1.0)


def test_gate_rejects_non_unitary_and_non_special():
    with pytest.raises(ValueError):
        TwoQubitGate((0, 1), np.ones((4, 4)))
    with pytest.raises(ValueError):
        TwoQubitGate((0, 1), CNOT)  # det -1, must go through from_unitary
    # from_unitary's rescale by det**(-1/4) would undo a scale, so only the
    # check on the matrix as given can reject it
    for scale in (2.0, 0.5):
        with pytest.raises(ValueError, match="not a finite unitary"):
            TwoQubitGate.from_unitary((0, 1), scale * CNOT)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1e200, 1e200)])
def test_gate_rejects_non_finite_entries(bad):
    # a NaN deviation compares False with any tolerance, so a check written
    # as `deviation > tol` lets a NaN or inf matrix through; an inf or huge
    # finite entry must be rejected before the unitarity product overflows
    matrix = np.eye(4, dtype=complex)
    matrix[1, 2] = bad
    for build in (TwoQubitGate, TwoQubitGate.from_unitary):
        with pytest.raises(ValueError, match="finite"):
            build((0, 1), matrix)
    with pytest.raises(ValueError, match="finite"):
        TwoQubitGate((0, 1), np.full((4, 4), bad))


def test_gate_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        TwoQubitGate((1, 1), np.eye(4))


def test_from_unitary_rescales_cnot_into_su4():
    gate = TwoQubitGate.from_unitary((0, 1), CNOT)
    assert np.isclose(complex(np.linalg.det(gate.matrix)), 1.0)
    # the rescale divides by det**(1/4), i.e. multiplies CNOT by exp(-i pi/4)
    assert np.allclose(gate.matrix * np.exp(1j * math.pi / 4), CNOT)


def test_cnot_action_up_to_global_phase():
    gate = TwoQubitGate.from_unitary((0, 1), CNOT)
    start = StateVector.basis_state(2, (1, 0))
    out = StateVector(2, apply_gate_matrix(start.amplitudes, gate.matrix, gate.qubit_pair, 2))
    # |10> -> |11> as a ray
    assert np.isclose(abs(out.amplitudes[3]), 1.0)
    assert np.isclose(fidelity(out, StateVector.basis_state(2, 3)), 1.0)


@pytest.mark.parametrize("n,pair", [
    (2, (0, 1)), (2, (1, 0)),
    (3, (0, 2)), (3, (2, 1)),
    (4, (1, 3)), (4, (3, 0)),
])
def test_apply_gate_matches_dense_embedding(n, pair):
    rng = np.random.default_rng(hash((n, pair)) % 2**32)
    matrix = haar_random_su4(rng)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    fast = apply_gate_matrix(amps, matrix, pair, n)
    slow = oracles.embed_gate(matrix, pair, n) @ amps
    assert np.allclose(fast, slow, atol=1e-12)


def test_run_circuit_matches_dense_product_and_records_every_state():
    rng = np.random.default_rng(8)
    circuit = random_circuit(3, random_architecture(3, 4, rng), rng)
    path = run_circuit(circuit)
    assert len(path) == 5
    unitary = oracles.circuit_unitary(circuit)
    assert np.allclose(path[-1].amplitudes, unitary[:, 0], atol=1e-12)
    # intermediate states are the partial products
    partial = np.eye(8, dtype=complex)
    for k, gate in enumerate(circuit.gates, start=1):
        partial = oracles.embed_gate(gate.matrix, gate.qubit_pair, 3) @ partial
        assert np.allclose(path[k].amplitudes, partial[:, 0], atol=1e-12)


def test_run_circuit_accepts_initial_state():
    rng = np.random.default_rng(9)
    circuit = random_circuit(2, random_architecture(2, 2, rng), rng)
    start = StateVector.basis_state(2, 3)
    path = run_circuit(circuit, start)
    assert np.allclose(path[0].amplitudes, start.amplitudes)
    unitary = oracles.circuit_unitary(circuit)
    assert np.allclose(path[-1].amplitudes, unitary[:, 3], atol=1e-12)


def test_run_circuit_rejects_wrong_size_initial():
    rng = np.random.default_rng(10)
    circuit = random_circuit(3, random_architecture(3, 1, rng), rng)
    with pytest.raises(DimensionMismatchError):
        run_circuit(circuit, StateVector.zero_state(2))


def test_fidelity_bounds_and_self():
    a = StateVector.zero_state(2)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    b = StateVector(2, amps / np.linalg.norm(amps))
    f = fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert np.isclose(fidelity(b, b), 1.0)


def test_fidelity_ignores_global_phase():
    rng = np.random.default_rng(12)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    a = StateVector(3, amps)
    b = StateVector(3, amps * np.exp(0.7j))
    assert np.isclose(fidelity(a, b), 1.0)


def test_haar_sample_is_special_unitary():
    for seed in range(5):
        u = haar_random_su4(seed)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.isclose(complex(np.linalg.det(u)), 1.0, atol=1e-10)


def test_haar_sample_deterministic_per_seed():
    assert np.array_equal(haar_random_su4(42), haar_random_su4(42))
    assert not np.allclose(haar_random_su4(42), haar_random_su4(43))


def test_all_pairs_ordering():
    assert all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert all_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_random_architecture_and_circuit_deterministic():
    a1 = random_architecture(4, 6, 77)
    a2 = random_architecture(4, 6, 77)
    assert a1 == a2
    c1 = random_circuit(4, a1, 78)
    c2 = random_circuit(4, a2, 78)
    for g1, g2 in zip(c1.gates, c2.gates):
        assert np.array_equal(g1.matrix, g2.matrix)


def test_architecture_validates_slots():
    gate = TwoQubitGate((0, 1), np.eye(4))
    assert Circuit(2, (gate,)).num_gates == 1
    with pytest.raises(ValueError):
        Circuit(3, (TwoQubitGate((0, 0), np.eye(4)),))
    with pytest.raises(DimensionMismatchError):
        Circuit(3, (TwoQubitGate((0, 3), np.eye(4)),))
    for bad in (True, 2.0, "2", 0, 13):
        with pytest.raises(DimensionMismatchError):
            Circuit(bad, (gate,))
    # a pair is two distinct ints >= 0: no bool, float or string is bound
    for pair in ((0.9, True), ("1", 2.7), (0, True), (1.0, 2), ("0", "1"), "01",
                 (-1, 0), (2, 2), (0, 1, 2), (1,), 5):
        with pytest.raises(ValueError, match="qubit pair") as raised:
            TwoQubitGate(pair, np.eye(4))
        assert not isinstance(raised.value, DimensionMismatchError)
    numpy_pair = TwoQubitGate((np.int64(2), np.int32(0)), np.eye(4)).qubit_pair
    assert numpy_pair == (2, 0) and all(type(q) is int for q in numpy_pair)
    # a pair may be any two-element sequence, bound as a tuple
    for pair in ([2, 0], np.array([2, 0]), range(2, -1, -2)):
        assert TwoQubitGate(pair, np.eye(4)).qubit_pair == (2, 0)
    assert Circuit(3, (TwoQubitGate(numpy_pair, np.eye(4)),)).num_gates == 1


def test_circuit_json_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    circuit = random_circuit(3, random_architecture(3, 3, rng), rng)
    out = tmp_path / "circuit.json"
    save_circuit(circuit, out)
    loaded = load_circuit(out)
    assert loaded.num_qubits == circuit.num_qubits
    assert [g.qubit_pair for g in loaded.gates] == [g.qubit_pair for g in circuit.gates]
    for g1, g2 in zip(loaded.gates, circuit.gates):
        assert np.array_equal(g1.matrix, g2.matrix)


def test_state_json_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(14)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    out = tmp_path / "state.json"
    save_state(state, out)
    loaded = load_state(out)
    assert np.array_equal(loaded.amplitudes, state.amplitudes)


def test_load_state_rejects_corrupt_documents(tmp_path):
    out = tmp_path / "bad.json"
    for text in ('{"num_qubits": 2, "amplitudes": [1.0, 0.0]}',
                 # amplitudes are JSON numbers, not strings or bools, and
                 # fit in a float
                 '{"num_qubits": 1, "amplitudes": ["1", "0", "0", "0"]}',
                 '{"num_qubits": 1, "amplitudes": [true, false, false, false]}',
                 '{"num_qubits": 1, "amplitudes": [1' + '0' * 400 + ', 0, 0, 0]}'):
        out.write_text(text)
        with pytest.raises((ValueError, KeyError, DimensionMismatchError)):
            load_state(out)


# --- LAPACK past numpy.linalg's wrappers ----------------------------------


@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (2, 2), (2, 5, 8, 8)])
def test_lapack_helpers_match_numpy_linalg_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hermitian = stack + np.swapaxes(stack.conj(), -1, -2)
    for got, want in ((_eigh(hermitian), np.linalg.eigh(hermitian)),
                      (_svd(stack), np.linalg.svd(stack))):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    det = _det(stack)
    assert np.array_equal(det, np.linalg.det(stack))
    assert np.asarray(det).dtype == np.complex128


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("helper, wrapper", [(_eigh, np.linalg.eigh), (_svd, np.linalg.svd)],
                         ids=["eigh", "svd"])
def test_lapack_helpers_raise_numpys_error_on_nan(helper, wrapper):
    nan = np.full((2, 4, 4), complex(math.nan, 0.0))
    before = np.geterr(), np.geterrcall()
    with pytest.raises(np.linalg.LinAlgError) as expected:
        wrapper(nan)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        helper(nan)
    assert str(raised.value) == str(expected.value)
    assert (np.geterr(), np.geterrcall()) == before
