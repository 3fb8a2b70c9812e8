"""Dense statevector simulation of n-qubit registers under two-qubit gates.

Bit-order convention shared by the whole package: qubit 0 is the MOST
significant bit of a computational-basis index.  For n = 2 the basis order
is |00>, |01>, |10>, |11>, so |10> is the state with qubit 0 set.  A
two-qubit gate on the ordered pair (j, k) is a 4x4 matrix whose row/column
index is 2*b_j + b_k.

Provides normalized state vectors, special-unitary two-qubit gates,
circuits (a qubit count plus a gate sequence), Haar-random SU(4) sampling,
the reference states bell, ghz3 and w3, and a bit-exact JSON round trip for
circuits.  A layout, the ordered qubit pairs a circuit's gates act on, is a
plain tuple of (j, k) pairs.

This module is also the one place that calls LAPACK past numpy.linalg's
wrappers.  The synthesis kernel's eigh and SVD and each gate's determinant
run on 4x4 matrices, where the wrappers' argument and type dispatch costs
about a third of the call; _eigh, _svd and _det run the same gufuncs with
the same signatures, so each result is numpy's bit for bit.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .canonical import write_canonical_json

MAX_QUBITS = 12  # dense vectors only; experiments in this package run at n <= 5

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-10
DET_ATOL = 1e-9
_IDENTITY = np.eye(4)


class DimensionMismatchError(ValueError):
    """Operands disagree on qubit count or have malformed shapes."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured cap."""


def basis_index(configuration, num_qubits: int) -> int:
    """Basis index of a configuration: an index, or bits with qubit 0 most significant.

    A bool is neither an index nor a bit; each bit must be an int 0 or 1.
    """
    if _is_int(configuration):
        index = int(configuration)
        if not 0 <= index < 2**num_qubits:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        return index
    try:
        bits = tuple(configuration)
    except TypeError:  # a bool or a float, say
        raise ValueError(
            f"a configuration must be an index or bits, got {configuration!r}") from None
    if len(bits) != num_qubits:
        raise DimensionMismatchError(f"expected {num_qubits} bits, got {len(bits)}")
    index = 0
    for b in bits:
        if not (_is_int(b) and b in (0, 1)):
            raise ValueError(f"configuration bits must be ints 0 or 1, got {b!r}")
        index = (index << 1) | int(b)
    return index


def _checked_num_qubits(n) -> int:
    """n as an int in [1, MAX_QUBITS]; a bool is not a qubit count."""
    if not (_is_int(n) and 1 <= n <= MAX_QUBITS):
        raise DimensionMismatchError(
            f"num_qubits must be an int in [1, {MAX_QUBITS}], got {n!r}")
    return int(n)


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
        object.__setattr__(self, "num_qubits", _checked_num_qubits(self.num_qubits))
        amp = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amp.shape != (2**self.num_qubits,):
            raise DimensionMismatchError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amp.shape}"
            )
        if not np.isfinite(amp).all():  # a complex entry is finite when both parts are
            raise ValueError("state amplitudes must be finite")
        # no entry of a unit vector has modulus above 1; testing that before
        # the norm rejects huge entries, whose squares would overflow it
        if not np.abs(amp).max() <= 1.0 + NORM_ATOL:
            raise ValueError("state amplitudes are not normalized (entry modulus above 1)")
        real, imag = amp.real, amp.imag
        norm = math.sqrt(real.dot(real) + imag.dot(imag))  # as np.linalg.norm sums it
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} differs from 1 by more than {NORM_ATOL}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

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
    err = float(np.max(np.abs(mat.conj().T @ mat - _IDENTITY)))
    if not err <= UNITARY_ATOL:
        raise ValueError(f"gate matrix is not a finite unitary (deviation {err:.3e})")
    return mat


# --- LAPACK without numpy.linalg's wrappers --------------------------------
# Each takes complex128 input, as the wrappers would convert it.  eigh and
# svd run under the errstate numpy's wrappers set, so LAPACK's failure to
# converge raises LinAlgError with numpy's message, never a RuntimeWarning.

# numpy 2 names the full-matrices SVD svd_f; numpy 1.x picks svd_n_f for
# square input (and svd_m_f for wide input, which nothing here passes)
_SVD_FULL = getattr(_umath_linalg, "svd_f", None) or _umath_linalg.svd_n_f


def _eigenvalues_did_not_converge(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _svd_did_not_converge(err, flag):
    raise LinAlgError("SVD did not converge")


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a (..., m, m) Hermitian stack: ascending
    eigenvalues and the eigenvectors as columns, from the lower triangle."""
    with np.errstate(call=_eigenvalues_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(h, signature="D->dD")


def _svd(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd of a (..., m, m) square stack: u, the descending
    singular values, vh."""
    with np.errstate(call=_svd_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _SVD_FULL(k, signature="D->DdD")


def _det(mat: np.ndarray):
    """np.linalg.det of a (..., m, m) stack."""
    return _umath_linalg.det(mat, signature="D->D")


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
        det = complex(_det(mat))
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
        det = complex(_det(mat))
        return cls(qubit_pair, mat / det**0.25)


@dataclass(frozen=True, eq=False)
class Circuit:
    """A sequence of SU(4) gates on an n-qubit register, applied in order."""

    num_qubits: int
    gates: tuple[TwoQubitGate, ...]

    def __post_init__(self):
        n = _checked_num_qubits(self.num_qubits)
        object.__setattr__(self, "num_qubits", n)
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        for gate in gates:
            if max(gate.qubit_pair) >= n:
                raise DimensionMismatchError(
                    f"gate pair {gate.qubit_pair} out of range for n={n}")

    @property
    def num_gates(self) -> int:
        return len(self.gates)


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


def random_architecture(num_qubits: int, num_gates: int,
                        seed) -> tuple[tuple[int, int], ...]:
    """Uniformly random layout: num_gates pairs drawn from the j < k pairs."""
    if num_qubits < 2:
        raise DimensionMismatchError("two-qubit slots need at least 2 qubits")
    if num_gates < 0:
        raise ValueError(f"num_gates must be >= 0, got {num_gates}")
    rng = _as_generator(seed)
    pairs = all_pairs(num_qubits)
    return tuple(pairs[i] for i in rng.integers(0, len(pairs), size=num_gates))


def random_circuit(num_qubits: int, slots: tuple[tuple[int, int], ...], seed) -> Circuit:
    """A circuit with one Haar SU(4) gate on each pair of a layout, in order."""
    rng = _as_generator(seed)
    return Circuit(num_qubits, [TwoQubitGate(slot, haar_random_su4(rng)) for slot in slots])


# name -> (qubit count, the basis indices sharing the amplitude)
_FIXTURES = {"bell": (2, (0, 3)), "ghz3": (3, (0, 7)), "w3": (3, (1, 2, 4))}


def fixture_state(name: str) -> StateVector:
    """The reference state bell, ghz3 or w3: amplitude 1/sqrt(k) on each of
    its k basis indices."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose one of {tuple(_FIXTURES)}")
    n, support = _FIXTURES[name]
    amp = np.zeros(2**n, dtype=np.complex128)
    amp[list(support)] = 1 / math.sqrt(len(support))
    return StateVector(n, amp)


# --- circuit and state JSON (bit-exact round trip) -----------------------


def _to_floats(values: np.ndarray) -> list[float]:
    """Row-major complex entries as interleaved re/im floats."""
    return np.asarray(values, dtype=np.complex128).ravel().view(np.float64).tolist()


def _is_int(value) -> bool:
    """An int (Python or numpy, so any JSON integer), and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number that is a finite float: not a bool or a string, not
    inf or nan, and not an int too large for a float."""
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


def _from_floats(raw, where: str) -> np.ndarray:
    """Complex entries from a flat list of interleaved re/im numbers."""
    if not (isinstance(raw, list) and len(raw) % 2 == 0
            and all(map(_is_finite_number, raw))):
        raise ValueError(f"{where} must be a flat list of finite re/im number pairs")
    values = np.array(raw, dtype=np.float64)
    return values[0::2] + 1j * values[1::2]


def save_circuit(circuit: Circuit, path) -> None:
    """Write the circuit as JSON: row-major 4x4 matrices as interleaved
    re/im floats."""
    gates = [{"pair": list(gate.qubit_pair), "matrix": _to_floats(gate.matrix)}
             for gate in circuit.gates]
    write_canonical_json(path, {"num_qubits": circuit.num_qubits, "gates": gates})


def load_circuit(path) -> Circuit:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "num_qubits" not in doc or "gates" not in doc:
        raise ValueError("circuit document needs 'num_qubits' and 'gates'")
    try:
        entries = [(entry["pair"], entry["matrix"]) for entry in doc["gates"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"circuit gates are malformed: {exc!r}") from None
    if not all(isinstance(pair, list) and all(map(_is_int, pair)) for pair, _ in entries):
        raise ValueError("circuit gate pairs must be lists of integer qubit indices")
    gates = [TwoQubitGate(tuple(pair), _from_floats(raw, f"gates[{i}].matrix").reshape(4, 4))
             for i, (pair, raw) in enumerate(entries)]
    return Circuit(doc["num_qubits"], gates)


def save_state(state: StateVector, path) -> None:
    write_canonical_json(path, {"num_qubits": state.num_qubits,
                                "amplitudes": _to_floats(state.amplitudes)})


def load_state(path) -> StateVector:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "num_qubits" not in doc or "amplitudes" not in doc:
        raise ValueError("state document needs 'num_qubits' and 'amplitudes'")
    return StateVector(doc["num_qubits"], _from_floats(doc["amplitudes"], "amplitudes"))
