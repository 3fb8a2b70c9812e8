"""Dense statevector simulation of n-qubit registers under two-qubit gates.

Bit-order convention shared by the whole package: qubit 0 is the MOST
significant bit of a computational-basis index.  For n = 2 the basis order
is |00>, |01>, |10>, |11>, so |10> is the state with qubit 0 set.  A
two-qubit gate on the ordered pair (j, k) is a 4x4 matrix whose row/column
index is 2*b_j + b_k.

Provides normalized state vectors, special-unitary two-qubit gates, gate
sequences over fixed qubit-pair layouts, Haar-random SU(4) sampling, and a
bit-exact JSON round trip for circuits.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .canonical import write_canonical_json

MAX_QUBITS = 12  # dense vectors only; experiments in this package run at n <= 5

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-10
DET_ATOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands disagree on qubit count or have malformed shapes."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured cap."""


def basis_index(configuration, num_qubits: int) -> int:
    """Basis index of a configuration: an index, or bits with qubit 0 most significant."""
    if isinstance(configuration, (int, np.integer)):
        index = int(configuration)
        if not 0 <= index < 2**num_qubits:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        return index
    bits = tuple(configuration)
    if len(bits) != num_qubits:
        raise DimensionMismatchError(f"expected {num_qubits} bits, got {len(bits)}")
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"configuration bits must be 0 or 1, got {b!r}")
        index = (index << 1) | b
    return index


def config_label(index: int, num_qubits: int) -> str:
    """Bitstring label such as '010' (qubit 0 first)."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    return format(index, f"0{num_qubits}b")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the n-qubit computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.num_qubits
        if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_QUBITS:
            raise DimensionMismatchError(
                f"num_qubits must be an int in [1, {MAX_QUBITS}], got {n!r}"
            )
        object.__setattr__(self, "num_qubits", int(n))
        amp = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amp.shape != (2**self.num_qubits,):
            raise DimensionMismatchError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amp.shape}"
            )
        if not (np.all(np.isfinite(amp.real)) and np.all(np.isfinite(amp.imag))):
            raise ValueError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} differs from 1 by more than {NORM_ATOL}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        """Build a state from a length-2**n vector, inferring n."""
        amp = np.asarray(amplitudes, dtype=np.complex128)
        if amp.ndim != 1 or amp.size < 2:
            raise DimensionMismatchError(f"expected a 1-d vector, got shape {amp.shape}")
        n = int(amp.size).bit_length() - 1
        if 2**n != amp.size:
            raise DimensionMismatchError(f"vector length {amp.size} is not a power of two")
        return cls(n, amp)

    @classmethod
    def basis_state(cls, num_qubits: int, configuration) -> "StateVector":
        """Computational basis state from an index or a bit sequence."""
        amp = np.zeros(2**num_qubits, dtype=np.complex128)
        amp[basis_index(configuration, num_qubits)] = 1.0
        return cls(num_qubits, amp)

    @classmethod
    def zero_state(cls, num_qubits: int) -> "StateVector":
        return cls.basis_state(num_qubits, 0)


def _unitary_4x4(matrix) -> np.ndarray:
    """A copy of `matrix` as complex128, checked to be a finite 4x4 unitary."""
    mat = np.array(matrix, dtype=np.complex128, copy=True)
    if mat.shape != (4, 4):
        raise DimensionMismatchError(f"gate matrix must be 4x4, got {mat.shape}")
    # every entry of a unitary has modulus <= 1; testing that before the
    # product rejects inf, NaN and huge entries, which would overflow it
    if not np.abs(mat).max() <= 1.0 + UNITARY_ATOL:
        raise ValueError("gate matrix is not a finite unitary (entry modulus above 1)")
    err = float(np.max(np.abs(mat.conj().T @ mat - np.eye(4))))
    if not err <= UNITARY_ATOL:
        raise ValueError(f"gate matrix is not a finite unitary (deviation {err:.3e})")
    return mat


@dataclass(frozen=True, eq=False)
class TwoQubitGate:
    """A special-unitary 4x4 matrix bound to an ordered qubit pair (j, k)."""

    qubit_pair: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        pair = tuple(int(q) for q in self.qubit_pair)
        if len(pair) != 2 or pair[0] < 0 or pair[1] < 0 or pair[0] == pair[1]:
            raise ValueError(f"qubit pair must be two distinct indices >= 0, got {pair}")
        object.__setattr__(self, "qubit_pair", pair)
        mat = _unitary_4x4(self.matrix)
        det = complex(np.linalg.det(mat))
        if abs(det - 1.0) > DET_ATOL:
            raise ValueError(
                f"gate determinant {det} is not 1; use TwoQubitGate.from_unitary "
                "to rescale an arbitrary unitary into SU(4)"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_unitary(cls, qubit_pair, matrix) -> "TwoQubitGate":
        """Bind any 4x4 unitary, rescaling by a global phase into SU(4).

        Note the rescaling multiplies the matrix by det**(-1/4); a unitary
        with determinant -1 (e.g. CNOT) picks up a global phase exp(-i*pi/4),
        which leaves all fidelities and measurement statistics unchanged.
        """
        mat = _unitary_4x4(matrix)
        det = complex(np.linalg.det(mat))
        return cls(qubit_pair, mat / det**0.25)


@dataclass(frozen=True)
class Architecture:
    """An ordered layout of two-qubit slots on an n-qubit register."""

    num_qubits: int
    gate_slots: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.num_qubits
        if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_QUBITS:
            raise DimensionMismatchError(
                f"num_qubits must be an int in [1, {MAX_QUBITS}], got {n!r}")
        object.__setattr__(self, "num_qubits", int(n))
        slots = tuple(tuple(int(q) for q in slot) for slot in self.gate_slots)
        for slot in slots:
            if len(slot) != 2 or slot[0] == slot[1]:
                raise ValueError(f"gate slot must hold two distinct qubits, got {slot}")
            if not (0 <= slot[0] < n and 0 <= slot[1] < n):
                raise DimensionMismatchError(f"gate slot {slot} out of range for n={n}")
        object.__setattr__(self, "gate_slots", slots)

    @property
    def num_gates(self) -> int:
        return len(self.gate_slots)


@dataclass(frozen=True, eq=False)
class Circuit:
    """An architecture with one SU(4) gate assigned to every slot."""

    architecture: Architecture
    gates: tuple[TwoQubitGate, ...]

    def __post_init__(self):
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if len(gates) != self.architecture.num_gates:
            raise DimensionMismatchError(
                f"{len(gates)} gates assigned to {self.architecture.num_gates} slots"
            )
        for gate, slot in zip(gates, self.architecture.gate_slots):
            if gate.qubit_pair != slot:
                raise ValueError(
                    f"gate on pair {gate.qubit_pair} assigned to slot {slot}"
                )

    @classmethod
    def from_gates(cls, num_qubits: int, gates: Sequence[TwoQubitGate]) -> "Circuit":
        arch = Architecture(num_qubits, tuple(g.qubit_pair for g in gates))
        return cls(arch, tuple(gates))

    @property
    def num_qubits(self) -> int:
        return self.architecture.num_qubits

    @property
    def num_gates(self) -> int:
        return self.architecture.num_gates


@functools.cache
def gather_index(pair: tuple[int, int], num_qubits: int) -> np.ndarray:
    """Basis indices of a 2**n vector arranged as (4, 2**(n-2)).

    Row 2*b_j + b_k holds every index with those bits on qubits (j, k), in a
    column order shared by all rows, so out[ix] = U @ psi[ix] applies U to
    the pair.  The array is cached per (pair, n) and read-only.
    """
    j, k = pair
    grid = np.arange(2**num_qubits).reshape((2,) * num_qubits)
    index = np.moveaxis(grid, (j, k), (0, 1)).reshape(4, -1)
    index.flags.writeable = False
    return index


def apply_gate_matrix(amplitudes: np.ndarray, matrix: np.ndarray,
                      qubit_pair: tuple[int, int], num_qubits: int) -> np.ndarray:
    """Raw-array fast path: apply a 4x4 matrix to qubits (j, k) of a 2**n vector."""
    ix = gather_index(qubit_pair, num_qubits)
    out = np.empty(2**num_qubits, dtype=np.complex128)
    out[ix] = matrix @ amplitudes[ix]
    return out


def run_circuit(circuit: Circuit,
                initial: StateVector | None = None) -> tuple[StateVector, ...]:
    """Run a circuit, recording every intermediate state.

    Returns the state path psi_0 .. psi_R with psi_0 the initial state
    (|0...0> unless another is given), so an R-gate circuit yields R+1 states.
    """
    n = circuit.num_qubits
    if initial is None:
        initial = StateVector.zero_state(n)
    elif initial.num_qubits != n:
        raise DimensionMismatchError(
            f"initial state has {initial.num_qubits} qubits, circuit has {n}"
        )
    states = [initial]
    amp = initial.amplitudes
    for gate in circuit.gates:
        amp = apply_gate_matrix(amp, gate.matrix, gate.qubit_pair, n)
        states.append(StateVector(n, amp))
    return tuple(states)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<b|a>|**2, clipped into [0, 1]."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError(
            f"states have {a.num_qubits} and {b.num_qubits} qubits"
        )
    overlap = abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2
    return float(min(max(overlap, 0.0), 1.0))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_random_su4(seed) -> np.ndarray:
    """Draw a 4x4 special-unitary matrix Haar-uniformly.

    Complex Ginibre sample -> QR -> fix the phases so R's diagonal is real
    positive (making Q Haar on U(4)) -> divide by a 4th root of det(Q) to
    land in SU(4).  Deterministic for a given integer seed.
    """
    rng = _as_generator(seed)
    ginibre = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return q / complex(np.linalg.det(q)) ** 0.25


def all_pairs(num_qubits: int) -> list[tuple[int, int]]:
    """All ordered-normalized qubit pairs (j, k) with j < k, lexicographic."""
    return [(j, k) for j in range(num_qubits) for k in range(j + 1, num_qubits)]


def random_architecture(num_qubits: int, num_gates: int, seed) -> Architecture:
    """Uniformly random slot sequence over the j < k pairs."""
    if num_qubits < 2:
        raise DimensionMismatchError("two-qubit slots need at least 2 qubits")
    if num_gates < 0:
        raise ValueError(f"num_gates must be >= 0, got {num_gates}")
    rng = _as_generator(seed)
    pairs = all_pairs(num_qubits)
    slots = tuple(pairs[i] for i in rng.integers(0, len(pairs), size=num_gates))
    return Architecture(num_qubits, slots)


def random_circuit(architecture: Architecture, seed) -> Circuit:
    """Instantiate every slot of an architecture with a Haar SU(4) gate."""
    rng = _as_generator(seed)
    gates = tuple(
        TwoQubitGate(slot, haar_random_su4(rng)) for slot in architecture.gate_slots
    )
    return Circuit(architecture, gates)


# --- circuit and state JSON (bit-exact round trip) -----------------------


def _to_floats(values: np.ndarray) -> list[float]:
    """Row-major complex entries as interleaved re/im floats."""
    return np.asarray(values, dtype=np.complex128).ravel().view(np.float64).tolist()


def _from_floats(raw, where: str) -> np.ndarray:
    """Complex entries from a flat list of interleaved re/im floats."""
    try:
        values = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} must be a list of numbers: {exc}") from None
    if values.ndim != 1 or values.size % 2:
        raise ValueError(f"{where} must be a flat list of re/im pairs, got shape {values.shape}")
    return values[0::2] + 1j * values[1::2]


def circuit_to_dict(circuit: Circuit) -> dict:
    """JSON-ready dict: row-major 4x4 matrices as interleaved re/im floats."""
    gates = [{"pair": list(gate.qubit_pair), "matrix": _to_floats(gate.matrix)}
             for gate in circuit.gates]
    return {"num_qubits": circuit.num_qubits, "gates": gates}


def circuit_from_dict(doc: dict) -> Circuit:
    if not isinstance(doc, dict) or "num_qubits" not in doc or "gates" not in doc:
        raise ValueError("circuit document needs 'num_qubits' and 'gates'")
    try:
        entries = [(tuple(int(q) for q in entry["pair"]), entry["matrix"])
                   for entry in doc["gates"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"circuit gates are malformed: {exc!r}") from None
    gates = [TwoQubitGate(pair, _from_floats(raw, f"gates[{i}].matrix").reshape(4, 4))
             for i, (pair, raw) in enumerate(entries)]
    return Circuit.from_gates(doc["num_qubits"], gates)


def save_circuit(circuit: Circuit, path) -> None:
    write_canonical_json(path, circuit_to_dict(circuit))


def load_circuit(path) -> Circuit:
    return circuit_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def state_to_dict(state: StateVector) -> dict:
    return {"num_qubits": state.num_qubits, "amplitudes": _to_floats(state.amplitudes)}


def state_from_dict(doc: dict) -> StateVector:
    if not isinstance(doc, dict) or "num_qubits" not in doc or "amplitudes" not in doc:
        raise ValueError("state document needs 'num_qubits' and 'amplitudes'")
    return StateVector(doc["num_qubits"], _from_floats(doc["amplitudes"], "amplitudes"))


def save_state(state: StateVector, path) -> None:
    write_canonical_json(path, state_to_dict(state))


def load_state(path) -> StateVector:
    return state_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
