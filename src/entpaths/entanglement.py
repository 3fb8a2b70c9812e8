"""Entanglement measures for pure n-qubit states, each returned as a float.

  * von Neumann entropy of a subset of the qubits, in bits (log base 2),
    from the squared Schmidt coefficients across the cut: one batched SVD
    scores a whole stack of states,
  * geometric entanglement 1 - max |<phi|psi>|**2 over product states |phi>,
    computed by the alternating single-site fit of Wei & Goldbart (PRA 68,
    042307, 2003).  One private routine fits a whole stack of same-size
    states, every (state, restart) pair a row of one batch, from start
    vectors cached per (n, restarts); the rows still running are kept as
    compacted arrays, and each row's value is the one it would get alone.
    geometric_entanglement fits one state with it, and
    trajectories.trajectory fits every state of a path in one call (the
    harness lays all of a target's record paths end to end for that call).

cut_weights gives a state's largest squared Schmidt coefficient across
every bipartition, from the same Schmidt blocks as the entropy; the
synthesis search bounds what a layout can reach with them.

Measure names which of the two a trajectory or a config refers to.
"""
from __future__ import annotations

import enum
import functools
from typing import Sequence

import numpy as np

from .core import DimensionMismatchError, StateVector, _checked_count, _checked_qubits

GEO_RESTARTS = 32
GEO_TOL = 1e-9
GEO_MAX_SWEEPS = 1000


class ProductFitConvergenceError(RuntimeError):
    """No restart of the product-state fit converged; carries the best value."""

    def __init__(self, message: str, best_value: float):
        super().__init__(message)
        self.best_value = best_value


class Measure(str, enum.Enum):
    """Which entanglement quantity a number represents."""

    VON_NEUMANN_BITS = "vonneumann"
    GEOMETRIC = "geometric"


def _checked_cut(keep: Sequence[int] | None, n: int) -> list[int]:
    """The kept qubits of a cut in ascending order, by core's qubit rule."""
    if keep is None:
        raise ValueError("the von Neumann measure needs a cut (qubits to keep)")
    kept = sorted(_checked_qubits(keep, n, "keep"))
    if not kept or len(kept) >= n:
        raise ValueError(f"keep must be a nonempty proper subset of 0..{n - 1}")
    return kept


def _schmidt_blocks(amplitudes: np.ndarray, n: int, kept: list[int]) -> np.ndarray:
    """Every state of a (states, 2**n) stack reshaped to the (2**|kept|,
    2**rest) block M of its Schmidt decomposition across (kept | rest): the
    singular values of M are the state's Schmidt coefficients there."""
    rest = [q for q in range(n) if q not in kept]
    num_states = len(amplitudes)
    psi = np.asarray(amplitudes).reshape((num_states,) + (2,) * n)
    return psi.transpose([0] + [q + 1 for q in kept + rest]).reshape(
        num_states, 2 ** len(kept), 2 ** len(rest))


def _entropies(amplitudes: np.ndarray, n: int, keep: Sequence[int] | None) -> list[float]:
    """Entropy of the kept qubits, in bits, for every state of a (states, 2**n) stack.

    The squared singular values p of each state's Schmidt block M are the
    spectrum of the reduced density matrix M M^dagger, and the entropy is
    -sum(p log2 p) over p > 0.  One batched SVD serves the whole stack.
    """
    blocks = _schmidt_blocks(amplitudes, n, _checked_cut(keep, n))
    p = np.linalg.svd(blocks, compute_uv=False) ** 2
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return [max(0.0, -float(h)) for h in (p * log_p).sum(axis=1)]


def von_neumann_entropy(state: StateVector, keep: Sequence[int]) -> float:
    """Entropy -sum(p log2 p) of the qubits in `keep`, in bits.

    p runs over the squared Schmidt coefficients of the state across the
    cut (keep | rest); they are never negative, and the value is never
    below +0.0.
    """
    return _entropies(state.amplitudes[None], state.num_qubits, keep)[0]


def cut_weights(state: StateVector) -> np.ndarray:
    """The largest squared Schmidt coefficient of the state across each of
    its bipartitions, as an array of 2**n entries indexed by qubit set.

    Entry `mask` belongs to the cut between the qubits q with bit 1 << q set
    in mask and the rest; it is the largest fidelity the state has with any
    state that is a product across that cut, so at most 1.0 even where a
    product cut's SVD rounds above it.  A cut and its complement share an
    entry, and the trivial entries 0 and 2**n - 1 read 1.0.  One SVD per
    cut, 2**(n-1) - 1 of them, each with qubit 0 on the kept side.
    """
    n = state.num_qubits
    everything = (1 << n) - 1
    weights = np.ones(everything + 1)
    for mask in range(1, everything, 2):
        kept = [q for q in range(n) if mask >> q & 1]
        block = _schmidt_blocks(state.amplitudes[None], n, kept)[0]
        weights[mask] = weights[everything ^ mask] = min(
            1.0, np.linalg.svd(block, compute_uv=False)[0] ** 2)
    return weights


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
    by less than GEO_TOL.  The running rows' states, conjugated site
    vectors, overlaps and row ids are compacted arrays updated in place;
    after each sweep the rows that converged write their overlaps back and
    leave them.  Row (s, k) starts from restart k's cached start vectors; a
    site whose environment vanishes is re-drawn from restart k's generator,
    continued past the start draw, so a state's value does not depend on
    the other states in the stack.
    """
    n = num_qubits
    if n < 2:
        raise DimensionMismatchError("geometric entanglement needs at least 2 qubits")
    restarts = _checked_count(restarts, 1, "restarts")
    num_states = len(amplitudes)
    psi = np.asarray(amplitudes).reshape((num_states,) + (2,) * n)
    stopped = np.zeros(num_states * restarts)  # each row's overlap, once it stops
    rows = np.arange(stopped.size)
    local = np.repeat(psi, restarts, axis=0)
    conj = np.tile(_start_vectors(n, restarts), (num_states, 1, 1)).conj()  # (row, site, 2)
    overlap = np.zeros(rows.size)
    previous = np.full(rows.size, -1.0)
    redraw: dict[int, np.random.Generator] = {}
    for _ in range(GEO_MAX_SWEEPS):
        for site in range(n):
            others = [operand for m in range(n) if m != site
                      for operand in (conj[:, m], [n, m])]
            w = np.einsum(local, [n, *range(n)], *others, [n, site])
            norm = np.linalg.norm(w, axis=1)
            fit = norm >= 1e-15
            if fit.all():
                np.conjugate(w / norm[:, None], out=conj[:, site])
            else:
                conj[fit, site] = (w[fit] / norm[fit, None]).conj()
                for i in np.flatnonzero(~fit):
                    row = int(rows[i])
                    if row not in redraw:
                        redraw[row] = _redraw_generator(n, row % restarts)
                    conj[i, site] = _unit_draw(redraw[row], ()).conj()
            np.copyto(overlap, norm, where=fit)
        done = np.abs(overlap - previous) < GEO_TOL
        previous = overlap.copy()
        if done.any():
            stopped[rows[done]] = overlap[done]
            running = ~done
            local, conj, rows, overlap, previous = (
                a[running] for a in (local, conj, rows, overlap, previous))
            if not rows.size:
                break
    stopped[rows] = overlap
    unconverged = np.zeros(stopped.size, dtype=bool)
    unconverged[rows] = True  # rows leave the batch only by converging
    converged = ~unconverged.reshape(num_states, restarts).all(axis=1)
    best = stopped.reshape(num_states, restarts).max(axis=1)
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
