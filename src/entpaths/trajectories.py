"""Entanglement analytics along the state path a circuit produces.

Evaluating a measure at every state psi_0 .. psi_R of a path (the tuple
core.run_circuit returns) gives a trajectory: the plain tuple of values
e_0 .. e_R.  Its total variation sum(|e_k - e_{k-1}|) is the headline
statistic of the synthesis experiments; the run summary reports it with
the largest single step, and export_trajectory writes the values as CSV.
Every state of a path is scored in one batch (one product-state fit under
the geometric measure, one SVD under von Neumann), so a trajectory costs
one set-up, not one per state; a step whose geometric fit does not
converge still fails as that step.  Since each state is scored as if
alone, several paths laid end to end score as each path alone, which is
how the harness scores all of a target's records in one call.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .canonical import write_csv
from .core import StateVector
from .entanglement import (
    GEO_RESTARTS,
    Measure,
    _convergence_error,
    _entropies,
    _product_fit,
    geometric_entanglement,
    von_neumann_entropy,
)

_CSV_HEADER = ("run_id", "k", "entanglement", "measure_tag")


class TrajectoryMeasureError(RuntimeError):
    """Measure evaluation failed at a specific step of a state path."""

    def __init__(self, step: int, message: str):
        super().__init__(f"measure failed at step {step}: {message}")
        self.step = step


def measure_state(state: StateVector, measure: Measure, *,
                  cut: Sequence[int] | None = None,
                  geo_restarts: int = GEO_RESTARTS) -> float:
    """Evaluate one entanglement measure on one state."""
    measure = Measure(measure)
    if measure is Measure.GEOMETRIC:
        return geometric_entanglement(state, restarts=geo_restarts)
    return von_neumann_entropy(state, cut)


def trajectory(path: Sequence[StateVector], measure: Measure = Measure.GEOMETRIC, *,
               cut: Sequence[int] | None = None,
               geo_restarts: int = GEO_RESTARTS) -> tuple[float, ...]:
    """Evaluate a measure at every state of a path, including psi_0.

    Every state of the path goes into one batch, the product-state fit
    under the geometric measure and the Schmidt-coefficient entropy under
    von Neumann, with the values that geometric_entanglement or
    von_neumann_entropy give each state alone.  So several paths laid end
    to end in `path` get, slice by slice, the values each path gets alone.
    A failure raises TrajectoryMeasureError for the first step that fails,
    chained to the measure's own error.
    """
    values: list[float] = []
    try:
        measure = Measure(measure)
        amplitudes = np.stack([state.amplitudes for state in path])
        if measure is Measure.GEOMETRIC:
            fitted, converged = _product_fit(amplitudes, path[0].num_qubits, geo_restarts)
            for value, ok in zip(fitted, converged):
                if not ok:
                    raise _convergence_error(value)
                values.append(value)
        else:
            values = _entropies(amplitudes, path[0].num_qubits, cut)
    except Exception as exc:
        raise TrajectoryMeasureError(len(values), str(exc)) from exc
    return tuple(values)


def path_entanglement_sum(values: Sequence[float]) -> float:
    """Total variation sum(|e_k - e_{k-1}|) over a trajectory's values.

    Always >= |e_R - e_0|, with equality when the trajectory is monotone
    (the sum then telescopes); concatenating trajectories adds their sums.
    """
    return float(sum(_steps(values)))


def _steps(values: Sequence[float]) -> list[float]:
    """Step sizes |e_k - e_{k-1}| for k = 1 .. R, in order."""
    return [abs(values[k] - values[k - 1]) for k in range(1, len(values))]


def export_trajectory(run_id: str, measure: Measure, values: Sequence[float], path) -> None:
    """Write one trajectory as CSV rows (run_id, k, entanglement, measure_tag).

    Floats are Python's shortest round-trip text, so parsing a cell back
    gives the exact value.
    """
    write_csv(path, _CSV_HEADER, [(run_id, k, value, measure.value)
                                 for k, value in enumerate(values)])


def trajectory_summary(run_id: str, measure: Measure, values: Sequence[float]) -> dict:
    """JSON-ready per-run summary of a trajectory e_0 .. e_R."""
    return {
        "run_id": run_id,
        "R": len(values) - 1,
        "measure": measure.value,
        "sum": path_entanglement_sum(values),
        "max_jump": float(max(_steps(values), default=0.0)),
        "final_entanglement": values[-1],
    }
