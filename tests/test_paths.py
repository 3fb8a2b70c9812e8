import math

import numpy as np
import pytest

from entpaths.core import (Circuit, ResourceCapError, StateVector,
                           TwoQubitGate, config_to_index, random_architecture,
                           random_circuit, run_circuit)
from entpaths.paths import (DEUTSCH_VARIANTS, decompose_amplitude,
                            deutsch_path_table, deutsch_report_to_dict,
                            deutsch_step_matrices, enumerate_paths,
                            interference_csv_rows, oracle_matrix, path_sums,
                            transition_amplitude, write_interference_csv)

import oracles

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=float)


def _random_circuit(n, r, seed):
    rng = np.random.default_rng(seed)
    return random_circuit(random_architecture(n, r, rng), rng)


@pytest.mark.parametrize("n,r,seed", [(2, 1, 0), (2, 3, 1), (3, 2, 2), (3, 4, 3)])
def test_path_count_is_four_to_the_r(n, r, seed):
    circuit = _random_circuit(n, r, seed)
    paths = list(enumerate_paths(circuit, 0))
    assert len(paths) == 4**r


def test_zero_amplitude_paths_are_still_counted():
    # a permutation gate zeroes 3 of every 4 branches but they stay structural
    gate = TwoQubitGate.from_unitary((0, 1), CNOT)
    circuit = Circuit.from_gates(2, [gate, gate])
    paths = list(enumerate_paths(circuit, 0))
    assert len(paths) == 16
    zero = [p for p in paths if p.amplitude == 0]
    assert len(zero) == 15


def test_each_path_has_r_plus_one_configurations():
    circuit = _random_circuit(3, 3, 5)
    for path in enumerate_paths(circuit, 2):
        assert len(path.configs) == 4
        assert path.configs[0] == 2


def test_only_the_acted_pair_changes_between_steps():
    circuit = _random_circuit(4, 3, 6)
    slots = circuit.architecture.gate_slots
    for path in enumerate_paths(circuit, 9):
        for step, (j, k) in enumerate(slots):
            changed = path.configs[step] ^ path.configs[step + 1]
            untouched = ~((1 << (4 - 1 - j)) | (1 << (4 - 1 - k)))
            assert changed & untouched == 0


@pytest.mark.parametrize("n,r,seed", [(2, 2, 10), (3, 3, 11), (3, 1, 12)])
def test_path_sums_reproduce_every_matrix_element(n, r, seed):
    circuit = _random_circuit(n, r, seed)
    unitary = oracles.circuit_unitary(circuit)
    for q0 in range(2**n):
        sums = np.zeros(2**n, dtype=complex)
        for path in enumerate_paths(circuit, q0):
            sums[path.configs[-1]] += path.amplitude
        assert np.allclose(sums, unitary[:, q0], atol=1e-9)
        shared, count = path_sums(circuit, q0)
        assert np.array_equal(shared, sums) and count == 4**r


def test_transition_amplitude_equals_unitary_entry():
    circuit = _random_circuit(3, 3, 13)
    unitary = oracles.circuit_unitary(circuit)
    for q0, qr in [(0, 0), (0, 5), (3, 6), (7, 1)]:
        amp = transition_amplitude(circuit, q0, qr)
        assert np.isclose(amp, unitary[qr, q0], atol=1e-12)


def test_final_configuration_filter_consistent_with_full_enumeration():
    circuit = _random_circuit(2, 3, 14)
    everything = list(enumerate_paths(circuit, 1))
    for qr in range(4):
        filtered = list(enumerate_paths(circuit, 1, qr))
        manual = [p for p in everything if p.configs[-1] == qr]
        assert [p.configs for p in filtered] == [p.configs for p in manual]
    assert sum(len(list(enumerate_paths(circuit, 1, qr))) for qr in range(4)) == 64


def test_configurations_accept_bit_tuples():
    circuit = _random_circuit(2, 1, 15)
    by_index = transition_amplitude(circuit, 2, 3)
    by_bits = transition_amplitude(circuit, (1, 0), (1, 1))
    assert by_index == by_bits


def test_enumeration_order_is_deterministic():
    circuit = _random_circuit(3, 2, 16)
    first = [p.configs for p in enumerate_paths(circuit, 0)]
    second = [p.configs for p in enumerate_paths(circuit, 0)]
    assert first == second


def test_path_cap_raises_before_yielding():
    circuit = _random_circuit(2, 5, 17)
    with pytest.raises(ResourceCapError) as err:
        enumerate_paths(circuit, 0, path_cap=100)
    assert "1024" in str(err.value)  # the 4**R estimate is part of the message


def test_decompose_amplitude():
    mag, phase = decompose_amplitude(1j)
    assert np.isclose(mag, 1.0) and np.isclose(phase, math.pi / 2)
    mag, phase = decompose_amplitude(-1.0 + 0.0j)
    assert np.isclose(phase, math.pi)  # -pi is normalized to +pi
    assert decompose_amplitude(0.0) == (0.0, 0.0)
    _, phase = decompose_amplitude(complex(-1.0, -0.0))
    assert phase == math.pi


def test_path_magnitude_and_phase_match_amplitude():
    circuit = _random_circuit(2, 2, 18)
    for path in enumerate_paths(circuit, 0):
        rebuilt = path.magnitude * np.exp(1j * path.phase)
        assert np.isclose(rebuilt, path.amplitude, atol=1e-12)


# --- the two-bit function tester -----------------------------------------


def test_oracle_matrix_is_the_xor_permutation():
    for variant, (f0, f1) in DEUTSCH_VARIANTS.items():
        matrix = oracle_matrix(variant)
        for x in (0, 1):
            for y in (0, 1):
                col = 2 * x + y
                row = 2 * x + (y ^ (f0 if x == 0 else f1))
                assert matrix[row, col] == 1.0


@pytest.mark.parametrize("variant", sorted(DEUTSCH_VARIANTS))
def test_deutsch_final_state_matches_direct_products(variant):
    report = deutsch_path_table(variant)
    f0, f1 = DEUTSCH_VARIANTS[variant]
    expected = oracles.deutsch_direct(f0, f1)
    assert np.allclose(report.step_amplitudes[-1], expected, atol=1e-12)


def test_deutsch_balanced_oracles_give_outcome_one():
    for variant in ("not_x", "x"):
        report = deutsch_path_table(variant)
        assert report.balanced
        assert np.isclose(report.probability_first_qubit_one, 1.0, atol=1e-12)
        assert report.outcome_bit == 1


def test_deutsch_constant_oracles_give_outcome_zero():
    for variant in ("zero", "one"):
        report = deutsch_path_table(variant)
        assert not report.balanced
        assert report.probability_first_qubit_one < 1e-12
        assert report.outcome_bit == 0


def test_deutsch_discarded_configurations_cancel_exactly():
    report = deutsch_path_table("not_x")
    # q0 = 0 outcomes are discarded: their 16 path contributions sum to zero
    # in exact float arithmetic, with genuinely nonzero terms on both signs
    for config in (0, 1):
        contribs = report.final_path_contributions[config]
        assert len(contribs) == 16
        assert sum(contribs) == 0
        positives = [c.real for c in contribs if c.real > 0]
        negatives = [c.real for c in contribs if c.real < 0]
        assert positives and negatives
        assert np.isclose(sum(positives), -sum(negatives))


def test_deutsch_contributions_sum_to_step_amplitudes():
    for variant in sorted(DEUTSCH_VARIANTS):
        report = deutsch_path_table(variant)
        final = report.step_amplitudes[-1]
        for config in range(4):
            total = sum(report.final_path_contributions[config])
            assert np.isclose(total, final[config], atol=1e-12)


def test_deutsch_steps_use_raw_matrices():
    # the tester works on the raw H/oracle/H matrices (det may be -1), so
    # the tabulated amplitudes stay real and signed, never phase-rotated
    for variant in sorted(DEUTSCH_VARIANTS):
        for matrix in deutsch_step_matrices(variant):
            assert np.allclose(matrix.imag, 0.0)
        report = deutsch_path_table(variant)
        for amplitudes in report.step_amplitudes:
            assert np.allclose(np.asarray(amplitudes).imag, 0.0, atol=1e-15)


def test_interference_csv_rows_cover_all_steps(tmp_path):
    report = deutsch_path_table("x")
    rows = interference_csv_rows(report)
    assert len(rows) == 4 * len(report.step_amplitudes)
    out = tmp_path / "interference.csv"
    write_interference_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "step,configuration,amplitude_re,amplitude_im"
    assert len(lines) == 1 + len(rows)


def test_deutsch_report_dict_is_json_ready():
    from entpaths.canonical import canonical_json
    doc = deutsch_report_to_dict(deutsch_path_table("one"))
    text = canonical_json(doc)
    assert '"variant"' in text and '"balanced"' in text
