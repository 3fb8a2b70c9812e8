"""Entanglement measures for pure n-qubit states, each returned as a float.

  * von Neumann entropy of a reduced density matrix, in bits (log base 2),
  * geometric entanglement 1 - max |<phi|psi>|**2 over product states |phi>,
    computed by the alternating single-site fit of Wei & Goldbart (PRA 68,
    042307, 2003).  One private routine fits a whole stack of same-size
    states, every (state, restart) pair a row of one batch, from start
    vectors cached per (n, restarts); geometric_entanglement fits one
    state with it and trajectories.trajectory fits every state of a path in
    one call.

Measure names which of the two a trajectory or a config refers to.
"""
from __future__ import annotations

import enum
import functools
from typing import Sequence

import numpy as np

from .core import DimensionMismatchError, StateVector

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-8
EIGENVALUE_CLAMP = -1e-10

GEO_RESTARTS = 32
GEO_TOL = 1e-9
GEO_MAX_SWEEPS = 1000


class NumericalDomainError(ValueError):
    """A matrix violates the numerical domain of the requested operation."""


class ProductFitConvergenceError(RuntimeError):
    """No restart of the product-state fit converged; carries the best value."""

    def __init__(self, message: str, best_value: float):
        super().__init__(message)
        self.best_value = best_value


class Measure(str, enum.Enum):
    """Which entanglement quantity a number represents."""

    VON_NEUMANN_BITS = "vonneumann"
    GEOMETRIC = "geometric"


def reduced_density_matrix(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Partial trace keeping the given qubits (ascending order in the result).

    Returns a 2**len(keep) square density matrix obtained by tracing out
    every qubit not listed in `keep`.
    """
    n = state.num_qubits
    kept = sorted(set(int(q) for q in keep))
    if len(kept) != len(list(keep)):
        raise ValueError(f"keep list {list(keep)} contains duplicates")
    if not kept or len(kept) >= n:
        raise ValueError(f"keep must be a nonempty proper subset of 0..{n - 1}")
    if kept[0] < 0 or kept[-1] >= n:
        raise DimensionMismatchError(f"keep {kept} out of range for {n} qubits")
    rest = [q for q in range(n) if q not in kept]
    psi = state.amplitudes.reshape((2,) * n)
    block = np.transpose(psi, kept + rest).reshape(2 ** len(kept), 2 ** len(rest))
    return block @ block.conj().T


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check hermiticity and unit trace, returning eigenvalues (ascending)."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > HERMITIAN_ATOL:
        raise NumericalDomainError("density matrix is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > TRACE_ATOL:
        raise NumericalDomainError(f"density matrix trace {trace} is not 1")
    return np.linalg.eigvalsh(rho)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) of a density matrix, in bits.

    Eigenvalues in [-1e-10, 0) are clamped to 0 (0*log 0 := 0); anything
    more negative raises, since the matrix is then not a state.
    """
    eigenvalues = validate_density_matrix(rho)
    if float(eigenvalues[0]) < EIGENVALUE_CLAMP:
        raise NumericalDomainError(
            f"density matrix has negative eigenvalue {float(eigenvalues[0])}"
        )
    lam = np.clip(eigenvalues, 0.0, None)
    positive = lam[lam > 0.0]
    entropy = float(-(positive * np.log2(positive)).sum())
    return max(entropy, 0.0)


def _unit_draw(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random unit 2-vectors of the given leading shape (real draws, then imaginary)."""
    raw = rng.standard_normal(shape + (2, 2))
    v = raw[..., 0, :] + 1j * raw[..., 1, :]
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@functools.cache
def _start_vectors(num_qubits: int, restarts: int) -> np.ndarray:
    """Start vectors (restart, site, 2): restart k's n unit vectors, drawn
    first from a generator seeded by (0, k).  Cached and read-only."""
    starts = np.stack([_unit_draw(np.random.default_rng((0, k)), (num_qubits,))
                       for k in range(restarts)])
    starts.setflags(write=False)
    return starts


def _redraw_generator(num_qubits: int, k: int) -> np.random.Generator:
    """Restart k's generator, advanced past its start draw."""
    rng = np.random.default_rng((0, k))
    _unit_draw(rng, (num_qubits,))
    return rng


def _convergence_error(value: float) -> ProductFitConvergenceError:
    return ProductFitConvergenceError(
        f"no restart converged within {GEO_MAX_SWEEPS} sweeps (best value {value})",
        best_value=value,
    )


def _product_fit(amplitudes: np.ndarray, num_qubits: int,
                 restarts: int) -> tuple[list[float], np.ndarray]:
    """Alternating product-state fit of every state of a (states, 2**n) stack.

    Returns each state's value 1 - max |<phi|psi>|**2 over its restarts and
    whether any of its restarts converged.  Every (state, restart) pair is
    one row of a single batch: one einsum per site updates every row still
    running, and each row stops on its own once a sweep moves its overlap
    by less than GEO_TOL.  Row (s, k) starts from restart k's cached start
    vectors; a site whose environment vanishes is re-drawn from restart k's
    generator, continued past the start draw, so a state's value does not
    depend on the other states in the stack.
    """
    n = num_qubits
    if n < 2:
        raise DimensionMismatchError("geometric entanglement needs at least 2 qubits")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    num_states = len(amplitudes)
    psi = np.asarray(amplitudes).reshape((num_states,) + (2,) * n)
    vectors = np.tile(_start_vectors(n, restarts), (num_states, 1, 1))  # (row, site, 2)
    overlap = np.zeros(num_states * restarts)
    previous = np.full(overlap.size, -1.0)
    active = np.arange(overlap.size)
    redraw: dict[int, np.random.Generator] = {}
    for _ in range(GEO_MAX_SWEEPS):
        local = psi[active // restarts]
        for site in range(n):
            conj = vectors[active].conj()
            others = [operand for m in range(n) if m != site
                      for operand in (conj[:, m], [n, m])]
            w = np.einsum(local, [n, *range(n)], *others, [n, site])
            norm = np.linalg.norm(w, axis=1)
            fit = norm >= 1e-15
            vectors[active[fit], site] = w[fit] / norm[fit, None]
            overlap[active[fit]] = norm[fit]
            for row in active[~fit]:
                if row not in redraw:
                    redraw[row] = _redraw_generator(n, row % restarts)
                vectors[row, site] = _unit_draw(redraw[row], ())
        done = np.abs(overlap[active] - previous[active]) < GEO_TOL
        previous[active] = overlap[active]
        active = active[~done]
        if not active.size:
            break
    running = np.zeros(overlap.size, dtype=bool)
    running[active] = True  # rows leave `active` only by converging
    converged = ~running.reshape(num_states, restarts).all(axis=1)
    best = overlap.reshape(num_states, restarts).max(axis=1)
    return [max(0.0, 1.0 - float(b) ** 2) for b in best], converged


def geometric_entanglement(state: StateVector, *,
                           restarts: int = GEO_RESTARTS) -> float:
    """1 - max |<phi|psi>|**2 over normalized product states |phi>.

    Alternating optimization: with all sites but one held fixed, the optimal
    single-site vector is the normalized contraction of the state against
    the others, so each update is exact and the overlap never decreases.
    Restarts run as one batch.  Restart k starts from vectors drawn from a
    generator seeded by (0, k) (a table cached per (n, restarts)),
    re-draws any site whose environment vanishes from that same generator,
    and stops once a sweep moves its overlap by less than GEO_TOL.  The
    value is the best over restarts, so it is monotone in the restart count;
    if no restart stops within GEO_MAX_SWEEPS sweeps,
    ProductFitConvergenceError carries it.
    """
    values, converged = _product_fit(state.amplitudes[None], state.num_qubits,
                                     restarts)
    if not converged[0]:
        raise _convergence_error(values[0])
    return values[0]
