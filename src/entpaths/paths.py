"""Discrete configuration paths through a circuit and their amplitudes.

A gate sequence applied to a basis configuration splits it into a tree of
intermediate configurations: at each step only the two acted qubits may
change, so exactly four branches leave every node and an R-gate circuit
spawns 4**R structural paths.  Each path carries the product of its gate
matrix elements; summing path amplitudes into a final configuration
reproduces the transition amplitude of the full unitary.

Also includes the classic two-qubit balanced-vs-constant function tester
(Deutsch's algorithm) as a worked interference example: its per-step
amplitude tables and per-path contributions show sign cancellation killing
the discarded outcomes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .canonical import write_csv
from .core import (
    Circuit,
    ResourceCapError,
    apply_gate_matrix,
    config_label,
    config_to_index,
)

DEFAULT_PATH_CAP = 4**12


class PathAmplitude(NamedTuple):
    """One configuration path and its complex amplitude.

    configs holds the basis index at each step (length R+1, starting at the
    initial configuration); magnitude/phase are the polar parts of the
    amplitude with phase in (-pi, pi] and phase 0 for amplitude 0.
    """

    configs: tuple[int, ...]
    amplitude: complex
    magnitude: float
    phase: float


def decompose_amplitude(amplitude: complex) -> tuple[float, float]:
    """Polar parts (magnitude, phase) with phase in (-pi, pi]; phase(0) = 0."""
    magnitude = abs(amplitude)
    if magnitude == 0.0:
        return 0.0, 0.0
    phase = math.atan2(amplitude.imag, amplitude.real)
    if phase <= -math.pi:
        phase = math.pi
    return float(magnitude), float(phase)


def _as_index(configuration, num_qubits: int) -> int:
    if isinstance(configuration, (int, np.integer)):
        index = int(configuration)
        if not 0 <= index < 2**num_qubits:
            raise ValueError(f"configuration {index} out of range for {num_qubits} qubits")
        return index
    bits = tuple(configuration)
    if len(bits) != num_qubits:
        raise ValueError(f"expected {num_qubits} bits, got {len(bits)}")
    return config_to_index(bits)


def _walk_paths(matrices: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]],
                num_qubits: int, start_index: int,
                final_index: int | None) -> Iterator[tuple[tuple[int, ...], complex]]:
    """Depth-first walk of the branching tree over raw 4x4 step matrices.

    Branches at each step are visited in order of the output bit-pair value
    (00, 01, 10, 11), so the yield order is deterministic.  Paths whose
    amplitude is exactly zero are still structural branches and are yielded.
    """
    total = len(matrices)
    trail = [start_index]

    def step(depth: int, config: int, amplitude: complex):
        if depth == total:
            if final_index is None or config == final_index:
                yield tuple(trail), complex(amplitude)
            return
        j, k = pairs[depth]
        shift_j = num_qubits - 1 - j
        shift_k = num_qubits - 1 - k
        in2 = (((config >> shift_j) & 1) << 1) | ((config >> shift_k) & 1)
        base = config & ~(1 << shift_j) & ~(1 << shift_k)
        matrix = matrices[depth]
        for out2 in range(4):
            new_config = base | ((out2 >> 1) << shift_j) | ((out2 & 1) << shift_k)
            trail.append(new_config)
            yield from step(depth + 1, new_config, amplitude * matrix[out2, in2])
            trail.pop()

    yield from step(0, start_index, 1.0 + 0.0j)


def enumerate_paths(circuit: Circuit, initial_configuration,
                    final_configuration=None, *,
                    path_cap: int = DEFAULT_PATH_CAP) -> Iterator[PathAmplitude]:
    """Stream every configuration path of a circuit from a basis start.

    Only the acted qubit pair branches at each step, giving exactly 4**R
    paths for a fixed start; passing a final configuration filters the
    stream to paths ending there.  Raises ResourceCapError before yielding
    anything if 4**R exceeds path_cap.
    """
    n = circuit.num_qubits
    start = _as_index(initial_configuration, n)
    final = None if final_configuration is None else _as_index(final_configuration, n)
    total = 4**circuit.num_gates
    if total > path_cap:
        raise ResourceCapError(
            f"4**{circuit.num_gates} = {total} paths exceeds the path cap {path_cap}"
        )
    matrices = [gate.matrix for gate in circuit.gates]
    pairs = [gate.qubit_pair for gate in circuit.gates]

    def generate():
        for trail, amplitude in _walk_paths(matrices, pairs, n, start, final):
            magnitude, phase = decompose_amplitude(amplitude)
            yield PathAmplitude(trail, amplitude, magnitude, phase)

    return generate()


def path_sums(circuit: Circuit, initial_configuration, *,
              path_cap: int = DEFAULT_PATH_CAP) -> tuple[np.ndarray, int]:
    """Every path amplitude from a basis start, summed per final configuration.

    Returns (sums, count): sums[c] is the total over paths ending in c, so
    sums equals the circuit unitary's column for the start, and count is
    the number of paths (4**R).
    """
    sums = np.zeros(2**circuit.num_qubits, dtype=complex)
    count = 0
    for path in enumerate_paths(circuit, initial_configuration, path_cap=path_cap):
        sums[path.configs[-1]] += path.amplitude
        count += 1
    return sums, count


def transition_amplitude(circuit: Circuit, initial_configuration,
                         final_configuration, *,
                         path_cap: int = DEFAULT_PATH_CAP) -> complex:
    """Sum of all path amplitudes between two basis configurations.

    Agrees with the direct matrix-product amplitude of the circuit unitary;
    that identity is the core consistency check of the whole path picture.
    """
    total = 0.0 + 0.0j
    for path in enumerate_paths(circuit, initial_configuration,
                                final_configuration, path_cap=path_cap):
        total += path.amplitude
    return complex(total)


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


@dataclass(frozen=True, eq=False)
class DeutschReport:
    """Step-by-step interference record of the function tester.

    step_amplitudes[k][c] is the amplitude of basis configuration c after k
    steps (k = 0 is the prepared |01> input).  final_path_contributions[c]
    lists the signed amplitude of each of the 16 structural paths ending in
    configuration c; for the discarded outcomes the positive and negative
    contributions cancel exactly.
    """

    variant: str
    balanced: bool
    step_amplitudes: tuple[tuple[complex, ...], ...]
    final_path_contributions: tuple[tuple[complex, ...], ...]
    probability_first_qubit_one: float

    @property
    def outcome_bit(self) -> int:
        return 1 if self.probability_first_qubit_one > 0.5 else 0


def deutsch_path_table(variant: str) -> DeutschReport:
    """Run the tester on oracle `variant` and tabulate its interference."""
    matrices = deutsch_step_matrices(variant)
    pairs = [(0, 1)] * len(matrices)
    start = 1  # |01>: query qubit 0 in |0>, answer qubit 1 in |1>
    amplitudes = np.zeros(4, dtype=np.complex128)
    amplitudes[start] = 1.0
    steps = [tuple(complex(a) for a in amplitudes)]
    for matrix in matrices:
        amplitudes = apply_gate_matrix(amplitudes, matrix, (0, 1), 2)
        steps.append(tuple(complex(a) for a in amplitudes))
    contributions = []
    for config in range(4):
        contribs = tuple(a for _, a in _walk_paths(matrices, pairs, 2, start, config))
        contributions.append(contribs)
    probability = float(abs(amplitudes[2]) ** 2 + abs(amplitudes[3]) ** 2)
    return DeutschReport(
        variant=variant,
        balanced=DEUTSCH_VARIANTS[variant][0] != DEUTSCH_VARIANTS[variant][1],
        step_amplitudes=tuple(steps),
        final_path_contributions=tuple(contributions),
        probability_first_qubit_one=probability,
    )


def interference_csv_rows(report: DeutschReport) -> list[tuple[int, str, float, float]]:
    """Rows (step, configuration bitstring, amplitude_re, amplitude_im)."""
    rows = []
    for k, amplitudes in enumerate(report.step_amplitudes):
        for config, amplitude in enumerate(amplitudes):
            rows.append((k, config_label(config, 2),
                         float(amplitude.real), float(amplitude.imag)))
    return rows


def write_interference_csv(report: DeutschReport, path) -> None:
    write_csv(path, ("step", "configuration", "amplitude_re", "amplitude_im"),
              interference_csv_rows(report))


def deutsch_report_to_dict(report: DeutschReport) -> dict:
    """JSON-ready summary of a tester run."""
    return {
        "variant": report.variant,
        "balanced": report.balanced,
        "outcome_bit": report.outcome_bit,
        "probability_first_qubit_one": report.probability_first_qubit_one,
        "steps": [
            {
                "step": k,
                "amplitudes": [
                    {"configuration": config_label(c, 2),
                     "re": float(a.real), "im": float(a.imag)}
                    for c, a in enumerate(amps)
                ],
            }
            for k, amps in enumerate(report.step_amplitudes)
        ],
        "final_path_contributions": [
            {
                "configuration": config_label(c, 2),
                "contributions_re": [float(a.real) for a in contribs],
                "contributions_im": [float(a.imag) for a in contribs],
            }
            for c, contribs in enumerate(report.final_path_contributions)
        ],
    }
