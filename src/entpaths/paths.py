"""Discrete configuration paths through a circuit and their amplitudes.

A gate sequence applied to a basis configuration splits it into a tree of
intermediate configurations: at each step only the two acted qubits may
change, so exactly four branches leave every node and an R-gate circuit
spawns 4**R structural paths.  Each path carries the product of its gate
matrix elements; summing path amplitudes into a final configuration
reproduces the transition amplitude of the full unitary.

One walk serves every entry point.  It expands all but the last six gates
into subtree roots, then branches each root's subtree over those last six
gates with numpy, 4096 paths per block, in depth-first order (branches
00, 01, 10, 11).  path_sums adds each block into the per-endpoint sums
without building a Python object per path; enumerate_paths turns blocks
into plain (configs, amplitude) pairs.  Amplitudes and sums are
bit-identical to a recursive scalar walk (tests/oracles.walk_paths).

Also includes the classic two-qubit balanced-vs-constant function tester
(Deutsch's algorithm) as a worked interference example: its report, a
plain JSON-ready dict, tabulates the per-step amplitudes and per-path
contributions that show sign cancellation killing the discarded outcomes.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Circuit,
    ResourceCapError,
    apply_gate_matrix,
    basis_index,
    config_label,
)

DEFAULT_PATH_CAP = 4**12


# Paths are expanded with numpy this many gates deep at a time: 4**6 = 4096
# paths per block keeps each block's arrays small.
_BLOCK_DEPTH = 6
_OUT2 = np.arange(4)  # acted bit-pair values 00, 01, 10, 11


def _branch(layers: list[np.ndarray], amplitudes: np.ndarray,
            columns: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]],
            num_qubits: int) -> np.ndarray:
    """Branch every node four ways per gate, appending one config array each.

    columns[g][in2, out2] is gate g's matrix element [out2, in2].  Children
    of node i sit at 4*i + out2 (out2 = the acted bit-pair value 00, 01,
    10, 11), which keeps depth-first order.  Products are formed from real
    and imaginary parts separately, rounding as the scalar complex product
    does (numpy's vectorised complex multiply may differ in the last bit).
    """
    configs = layers[-1]
    for column, (j, k) in zip(columns, pairs):
        shift_j = num_qubits - 1 - j
        shift_k = num_qubits - 1 - k
        in2 = (((configs >> shift_j) & 1) << 1) | ((configs >> shift_k) & 1)
        base = configs & ~((1 << shift_j) | (1 << shift_k))
        configs = (base[:, None] | ((_OUT2 >> 1) << shift_j)
                   | ((_OUT2 & 1) << shift_k)).ravel()
        entries = column.take(in2, axis=0).ravel()
        parents = amplitudes.repeat(4)
        amplitudes = np.empty(len(entries), dtype=complex)
        amplitudes.real = parents.real * entries.real - parents.imag * entries.imag
        amplitudes.imag = parents.real * entries.imag + parents.imag * entries.real
        layers.append(configs)
    return amplitudes


def _walk_blocks(matrices: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]],
                 num_qubits: int, start_index: int
                 ) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """Every path of the branching tree, in depth-first blocks.

    The first R - L gates (L = min(R, _BLOCK_DEPTH)) branch into 4**(R-L)
    subtree roots; a block is one root's subtree over the last L gates, as
    (layers, amplitudes): path i of the block passes through configuration
    layers[d][i * len(layers[d]) // len(amplitudes)] at step d.  Paths of
    amplitude exactly zero are structural branches and are included.
    """
    columns = [np.asarray(matrix, dtype=complex).T for matrix in matrices]
    split = max(len(columns) - _BLOCK_DEPTH, 0)
    roots = [np.array([start_index])]
    root_amplitudes = _branch(roots, np.array([1.0 + 0.0j]),
                              columns[:split], pairs[:split], num_qubits)
    for i in range(len(root_amplitudes)):
        layers = [layer[[i >> 2 * (split - d)]] for d, layer in enumerate(roots)]
        amplitudes = _branch(layers, root_amplitudes[i:i + 1],
                             columns[split:], pairs[split:], num_qubits)
        yield layers, amplitudes


def _circuit_blocks(circuit: Circuit, start: int,
                    path_cap: int) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """The block walk of a circuit; raises ResourceCapError before any work."""
    total = 4**circuit.num_gates
    if total > path_cap:
        raise ResourceCapError(
            f"4**{circuit.num_gates} = {total} paths exceeds the path cap {path_cap}"
        )
    return _walk_blocks([gate.matrix for gate in circuit.gates],
                        [gate.qubit_pair for gate in circuit.gates],
                        circuit.num_qubits, start)


def enumerate_paths(circuit: Circuit, initial_configuration, *,
                    path_cap: int = DEFAULT_PATH_CAP
                    ) -> Iterator[tuple[tuple[int, ...], complex]]:
    """Stream every configuration path of a circuit from a basis start.

    Each path is a (configs, amplitude) pair: configs holds the basis index
    at each step (length R+1, starting at the initial configuration), and
    amplitude is the product of the gate matrix elements along the path.
    Only the acted qubit pair branches at each step, giving exactly 4**R
    paths.  Raises ResourceCapError before yielding anything if 4**R
    exceeds path_cap.
    """
    start = basis_index(initial_configuration, circuit.num_qubits)
    blocks = _circuit_blocks(circuit, start, path_cap)

    def generate():
        for layers, amplitudes in blocks:
            size = len(amplitudes)
            trails = np.column_stack([np.repeat(layer, size // len(layer))
                                      for layer in layers])
            yield from zip(map(tuple, trails.tolist()), amplitudes.tolist())

    return generate()


def path_sums(circuit: Circuit, initial_configuration, *,
              path_cap: int = DEFAULT_PATH_CAP) -> tuple[np.ndarray, int]:
    """Every path amplitude from a basis start, summed per final configuration.

    Returns (sums, count): sums[c] is the total over paths ending in c, so
    sums equals the circuit unitary's column for the start, and count is
    the number of paths (4**R).  Each endpoint's sum is accumulated in
    depth-first path order.
    """
    start = basis_index(initial_configuration, circuit.num_qubits)
    sums = np.zeros(2**circuit.num_qubits, dtype=complex)
    count = 0
    for layers, amplitudes in _circuit_blocks(circuit, start, path_cap):
        np.add.at(sums, layers[-1], amplitudes)
        count += len(amplitudes)
    return sums, count


def transition_amplitude(circuit: Circuit, initial_configuration,
                         end_configuration, *,
                         path_cap: int = DEFAULT_PATH_CAP) -> complex:
    """Sum of all path amplitudes between two basis configurations.

    Agrees with the direct matrix-product amplitude of the circuit unitary;
    that identity is the core consistency check of the whole path picture.
    """
    end = basis_index(end_configuration, circuit.num_qubits)
    sums, _ = path_sums(circuit, initial_configuration, path_cap=path_cap)
    return complex(sums[end])


# --- Deutsch's algorithm as an interference table -------------------------

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

DEUTSCH_VARIANTS: dict[str, tuple[int, int]] = {
    # variant name -> (f(0), f(1))
    "not_x": (1, 0),
    "x": (0, 1),
    "zero": (0, 0),
    "one": (1, 1),
}


def oracle_matrix(variant: str) -> np.ndarray:
    """Permutation matrix |x, y> -> |x, y xor f(x)> for the chosen f."""
    if variant not in DEUTSCH_VARIANTS:
        raise ValueError(f"unknown oracle variant {variant!r}; "
                         f"choose one of {sorted(DEUTSCH_VARIANTS)}")
    table = DEUTSCH_VARIANTS[variant]
    matrix = np.zeros((4, 4))
    for x in (0, 1):
        for y in (0, 1):
            matrix[2 * x + (y ^ table[x]), 2 * x + y] = 1.0
    return matrix


def deutsch_step_matrices(variant: str) -> list[np.ndarray]:
    """The three 4x4 step matrices: H(x)H, the oracle, then H on qubit 0.

    These are raw unitaries (the oracles for balanced f have determinant
    -1); the interference analysis works on them directly so amplitudes
    stay real and signed, instead of picking up the global phase an SU(4)
    rescaling would introduce.
    """
    return [np.kron(_HADAMARD, _HADAMARD), oracle_matrix(variant),
            np.kron(_HADAMARD, np.eye(2))]


def deutsch_path_table(variant: str) -> dict:
    """Run the tester on oracle `variant` and tabulate its interference.

    Returns the JSON-ready report: `steps[k]` lists the amplitude of each
    basis configuration after k steps (k = 0 is the prepared |01> input),
    and `final_path_contributions` lists, per final configuration, the
    signed amplitudes of the 16 structural paths ending there; for the
    discarded outcomes the positive and negative contributions cancel
    exactly.
    """
    matrices = deutsch_step_matrices(variant)
    pairs = [(0, 1)] * len(matrices)
    start = 1  # |01>: query qubit 0 in |0>, answer qubit 1 in |1>
    amplitudes = np.zeros(4, dtype=np.complex128)
    amplitudes[start] = 1.0
    steps = [amplitudes]
    for matrix in matrices:
        amplitudes = apply_gate_matrix(amplitudes, matrix, (0, 1), 2)
        steps.append(amplitudes)
    # three steps are fewer than _BLOCK_DEPTH: one block holds all 4**3 paths
    ((layers, path_amplitudes),) = _walk_blocks(matrices, pairs, 2, start)
    probability = float(abs(amplitudes[2]) ** 2 + abs(amplitudes[3]) ** 2)
    f0, f1 = DEUTSCH_VARIANTS[variant]
    return {
        "variant": variant,
        "balanced": f0 != f1,
        "outcome_bit": 1 if probability > 0.5 else 0,
        "probability_first_qubit_one": probability,
        "steps": [
            {
                "step": k,
                "amplitudes": [
                    {"configuration": config_label(c, 2), "re": a.real, "im": a.imag}
                    for c, a in enumerate(step.tolist())
                ],
            }
            for k, step in enumerate(steps)
        ],
        "final_path_contributions": [
            {
                "configuration": config_label(c, 2),
                "contributions_re": path_amplitudes.real[layers[-1] == c].tolist(),
                "contributions_im": path_amplitudes.imag[layers[-1] == c].tolist(),
            }
            for c in range(4)
        ],
    }
