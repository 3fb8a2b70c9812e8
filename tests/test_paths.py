import numpy as np
import pytest

from entpaths import paths as paths_module
from entpaths.core import (Circuit, ResourceCapError, TwoQubitGate,
                           random_architecture, random_circuit, run_circuit)
from entpaths.paths import (DEUTSCH_VARIANTS, deutsch_path_table, deutsch_step_matrices,
                            enumerate_paths, oracle_matrix, path_sums,
                            transition_amplitude)

import oracles

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=float)


def _random_circuit(n, r, seed):
    rng = np.random.default_rng(seed)
    return random_circuit(n, random_architecture(n, r, rng), rng)


@pytest.mark.parametrize("n,r,seed", [(2, 1, 0), (2, 3, 1), (3, 2, 2), (3, 4, 3)])
def test_path_count_is_four_to_the_r(n, r, seed):
    circuit = _random_circuit(n, r, seed)
    paths = list(enumerate_paths(circuit, 0))
    assert len(paths) == 4**r


def test_zero_amplitude_paths_are_still_counted():
    # a permutation gate zeroes 3 of every 4 branches but they stay structural
    gate = TwoQubitGate.from_unitary((0, 1), CNOT)
    circuit = Circuit(2, [gate, gate])
    paths = list(enumerate_paths(circuit, 0))
    assert len(paths) == 16
    zero = [amplitude for _, amplitude in paths if amplitude == 0]
    assert len(zero) == 15


def test_each_path_has_r_plus_one_configurations():
    circuit = _random_circuit(3, 3, 5)
    for configs, _ in enumerate_paths(circuit, 2):
        assert len(configs) == 4
        assert configs[0] == 2


def test_only_the_acted_pair_changes_between_steps():
    circuit = _random_circuit(4, 3, 6)
    slots = [gate.qubit_pair for gate in circuit.gates]
    for configs, _ in enumerate_paths(circuit, 9):
        for step, (j, k) in enumerate(slots):
            changed = configs[step] ^ configs[step + 1]
            untouched = ~((1 << (4 - 1 - j)) | (1 << (4 - 1 - k)))
            assert changed & untouched == 0


@pytest.mark.parametrize("n,r,seed", [(2, 2, 10), (3, 3, 11), (3, 1, 12)])
def test_path_sums_reproduce_every_matrix_element(n, r, seed):
    circuit = _random_circuit(n, r, seed)
    unitary = oracles.circuit_unitary(circuit)
    for q0 in range(2**n):
        sums = np.zeros(2**n, dtype=complex)
        for configs, amplitude in enumerate_paths(circuit, q0):
            sums[configs[-1]] += amplitude
        assert np.allclose(sums, unitary[:, q0], atol=1e-9)
        shared, count = path_sums(circuit, q0)
        assert np.array_equal(shared, sums) and count == 4**r


def test_transition_amplitude_equals_unitary_entry():
    circuit = _random_circuit(3, 3, 13)
    unitary = oracles.circuit_unitary(circuit)
    for q0, qr in [(0, 0), (0, 5), (3, 6), (7, 1)]:
        amp = transition_amplitude(circuit, q0, qr)
        assert np.isclose(amp, unitary[qr, q0], atol=1e-12)


def test_configurations_accept_bit_tuples():
    circuit = _random_circuit(2, 1, 15)
    by_index = transition_amplitude(circuit, 2, 3)
    by_bits = transition_amplitude(circuit, (1, 0), (1, 1))
    assert by_index == by_bits


def test_enumeration_order_is_deterministic():
    circuit = _random_circuit(3, 2, 16)
    first = [configs for configs, _ in enumerate_paths(circuit, 0)]
    second = [configs for configs, _ in enumerate_paths(circuit, 0)]
    assert first == second


def test_path_cap_raises_before_yielding():
    circuit = _random_circuit(2, 5, 17)
    with pytest.raises(ResourceCapError) as err:
        enumerate_paths(circuit, 0, path_cap=100)
    assert "1024" in str(err.value)  # the 4**R estimate is part of the message


def test_path_sums_and_transition_amplitude_check_the_cap_before_any_work(monkeypatch):
    circuit = _random_circuit(2, 5, 17)

    def no_work(*args):
        raise AssertionError("paths were expanded before the cap check")

    monkeypatch.setattr(paths_module, "_branch", no_work)
    for compute in (lambda cap: path_sums(circuit, 0, path_cap=cap),
                    lambda cap: transition_amplitude(circuit, 0, 3, path_cap=cap)):
        with pytest.raises(ResourceCapError, match="1024"):
            compute(1023)
    monkeypatch.undo()
    assert path_sums(circuit, 0, path_cap=1024)[1] == 1024


def _exact(amplitudes):
    """Bytes of a complex sequence: equal only if every bit, sign of zero
    included, is equal."""
    return np.array(list(amplitudes), dtype=complex).tobytes()


# block depth 6: R below, at and above it, including several root layers
@pytest.mark.parametrize("r", [0, 1, 2, 5, 6, 7, 9])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_walk_matches_recursive_oracle_exactly(n, r):
    rng = np.random.default_rng(1000 * n + r)
    circuit = _random_circuit(n, r, 1000 * n + r)
    matrices = [gate.matrix for gate in circuit.gates]
    pairs = [gate.qubit_pair for gate in circuit.gates]
    starts = [int(rng.integers(2**n))] if r == 9 else [0, 2**n - 1, int(rng.integers(2**n))]
    for start in starts:
        final = int(rng.integers(2**n))
        everything = list(oracles.walk_paths(matrices, pairs, n, start, None))
        ending = [(trail, a) for trail, a in everything if trail[-1] == final]
        got = list(enumerate_paths(circuit, start))
        assert [configs for configs, _ in got] == [trail for trail, _ in everything]
        assert _exact(a for _, a in got) == _exact(a for _, a in everything)
        sums = np.zeros(2**n, dtype=complex)
        for trail, amplitude in everything:
            sums[trail[-1]] += amplitude
        shared, count = path_sums(circuit, start)
        assert shared.tobytes() == sums.tobytes() and count == 4**r
        total = 0.0 + 0.0j
        for _, amplitude in ending:
            total += amplitude
        assert _exact([transition_amplitude(circuit, start, final)]) == _exact([total])


def test_block_walk_yields_zero_amplitude_branches_like_the_oracle():
    gate = TwoQubitGate.from_unitary((0, 1), CNOT)
    circuit = Circuit(2, [gate, gate])
    for start in range(4):
        expected = list(oracles.walk_paths([gate.matrix] * 2, [(0, 1)] * 2, 2, start, None))
        got = list(enumerate_paths(circuit, start))
        assert len(got) == 16
        assert [configs for configs, _ in got] == [trail for trail, _ in expected]
        assert _exact(a for _, a in got) == _exact(a for _, a in expected)


def test_path_sums_at_the_benchmark_size():
    circuit = _random_circuit(4, 10, 19)
    sums, count = path_sums(circuit, 0)
    assert count == 4**10
    assert np.abs(sums - run_circuit(circuit)[-1].amplitudes).max() < 1e-9


# --- the two-bit function tester -----------------------------------------


def test_oracle_matrix_is_the_xor_permutation():
    for variant, (f0, f1) in DEUTSCH_VARIANTS.items():
        matrix = oracle_matrix(variant)
        for x in (0, 1):
            for y in (0, 1):
                col = 2 * x + y
                row = 2 * x + (y ^ (f0 if x == 0 else f1))
                assert matrix[row, col] == 1.0


def _step_amplitudes(report):
    """report["steps"] as complex values: [k][c] is configuration c after k steps."""
    return [[complex(a["re"], a["im"]) for a in step["amplitudes"]]
            for step in report["steps"]]


def _contributions(report):
    """report["final_path_contributions"] as complex values, per configuration."""
    return [[complex(re, im) for re, im in zip(entry["contributions_re"],
                                               entry["contributions_im"])]
            for entry in report["final_path_contributions"]]


@pytest.mark.parametrize("variant", sorted(DEUTSCH_VARIANTS))
def test_deutsch_final_state_matches_direct_products(variant):
    report = deutsch_path_table(variant)
    f0, f1 = DEUTSCH_VARIANTS[variant]
    expected = oracles.deutsch_direct(f0, f1)
    assert np.allclose(_step_amplitudes(report)[-1], expected, atol=1e-12)


@pytest.mark.parametrize("variant", sorted(DEUTSCH_VARIANTS))
def test_deutsch_contributions_match_recursive_oracle_exactly(variant):
    contributions = _contributions(deutsch_path_table(variant))
    matrices = deutsch_step_matrices(variant)
    for config in range(4):
        expected = [a for _, a in oracles.walk_paths(matrices, [(0, 1)] * 3, 2, 1, config)]
        assert _exact(contributions[config]) == _exact(expected)


def test_deutsch_balanced_oracles_give_outcome_one():
    for variant in ("not_x", "x"):
        report = deutsch_path_table(variant)
        assert report["balanced"]
        assert np.isclose(report["probability_first_qubit_one"], 1.0, atol=1e-12)
        assert report["outcome_bit"] == 1


def test_deutsch_constant_oracles_give_outcome_zero():
    for variant in ("zero", "one"):
        report = deutsch_path_table(variant)
        assert not report["balanced"]
        assert report["probability_first_qubit_one"] < 1e-12
        assert report["outcome_bit"] == 0


def test_deutsch_discarded_configurations_cancel_exactly():
    contributions = _contributions(deutsch_path_table("not_x"))
    # q0 = 0 outcomes are discarded: their 16 path contributions sum to zero
    # in exact float arithmetic, with genuinely nonzero terms on both signs
    for config in (0, 1):
        contribs = contributions[config]
        assert len(contribs) == 16
        assert sum(contribs) == 0
        positives = [c.real for c in contribs if c.real > 0]
        negatives = [c.real for c in contribs if c.real < 0]
        assert positives and negatives
        assert np.isclose(sum(positives), -sum(negatives))


def test_deutsch_contributions_sum_to_step_amplitudes():
    for variant in sorted(DEUTSCH_VARIANTS):
        report = deutsch_path_table(variant)
        final = _step_amplitudes(report)[-1]
        contributions = _contributions(report)
        for config in range(4):
            total = sum(contributions[config])
            assert np.isclose(total, final[config], atol=1e-12)


def test_deutsch_steps_use_raw_matrices():
    # the tester works on the raw H/oracle/H matrices (det may be -1), so
    # the tabulated amplitudes stay real and signed, never phase-rotated
    for variant in sorted(DEUTSCH_VARIANTS):
        for matrix in deutsch_step_matrices(variant):
            assert np.allclose(matrix.imag, 0.0)
        for amplitudes in _step_amplitudes(deutsch_path_table(variant)):
            assert np.allclose(np.asarray(amplitudes).imag, 0.0, atol=1e-15)


def test_deutsch_report_dict_is_json_ready():
    from entpaths.canonical import canonical_json
    text = canonical_json(deutsch_path_table("one"))
    assert '"variant"' in text and '"balanced"' in text
