"""Entanglement analytics along the state path a circuit produces.

Evaluating a measure at every state psi_0 .. psi_R of a path (the tuple
core.run_circuit returns) gives a trajectory of values e_0 .. e_R; its
total variation sum(|e_k - e_{k-1}|) is the headline statistic of the
synthesis experiments, and the largest single step is reported alongside
it.  Under the geometric measure every state of a path goes into one
batched product-state fit, so a trajectory costs one fit's set-up, not one
per state; a step whose fit does not converge still fails as that step.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .canonical import write_csv
from .core import StateVector
from .entanglement import (
    GEO_RESTARTS,
    Measure,
    _convergence_error,
    _product_fit,
    geometric_entanglement,
    reduced_density_matrix,
    von_neumann_entropy,
)

_CSV_HEADER = ("run_id", "k", "entanglement", "measure_tag")


class TrajectoryMeasureError(RuntimeError):
    """Measure evaluation failed at a specific step of a state path."""

    def __init__(self, step: int, message: str):
        super().__init__(f"measure failed at step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class EntanglementTrajectory:
    """Per-step entanglement values e_0 .. e_R under one measure."""

    measure: Measure
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(e) for e in self.values)
        if not values:
            raise ValueError("a trajectory needs at least one value")
        for k, e in enumerate(values):
            if not np.isfinite(e) or e < 0.0:
                raise ValueError(f"entanglement value {e} at step {k} is invalid")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "measure", Measure(self.measure))

    @property
    def num_steps(self) -> int:
        return len(self.values) - 1


def measure_state(state: StateVector, measure: Measure, *,
                  cut: Sequence[int] | None = None,
                  geo_restarts: int = GEO_RESTARTS) -> float:
    """Evaluate one entanglement measure on one state."""
    measure = Measure(measure)
    if measure is Measure.GEOMETRIC:
        return geometric_entanglement(state, restarts=geo_restarts)
    if cut is None:
        raise ValueError("the von Neumann measure needs a cut (qubits to keep)")
    return von_neumann_entropy(reduced_density_matrix(state, cut))


def trajectory(path: Sequence[StateVector], measure: Measure = Measure.GEOMETRIC, *,
               cut: Sequence[int] | None = None,
               geo_restarts: int = GEO_RESTARTS) -> EntanglementTrajectory:
    """Evaluate a measure at every state of a path, including psi_0.

    The geometric measure fits every state of the path in one batch, as
    geometric_entanglement would fit each alone.  A failure raises
    TrajectoryMeasureError for the first step that fails, chained to the
    measure's own error.
    """
    values: list[float] = []
    try:
        measure = Measure(measure)
        if measure is Measure.GEOMETRIC:
            amplitudes = np.stack([state.amplitudes for state in path])
            fitted, converged = _product_fit(amplitudes, path[0].num_qubits, geo_restarts)
            for value, ok in zip(fitted, converged):
                if not ok:
                    raise _convergence_error(value)
                values.append(value)
        else:
            for state in path:
                values.append(measure_state(state, measure, cut=cut))
    except Exception as exc:
        raise TrajectoryMeasureError(len(values), str(exc)) from exc
    return EntanglementTrajectory(measure, tuple(values))


def path_entanglement_sum(traj: EntanglementTrajectory) -> float:
    """Total variation sum(|e_k - e_{k-1}|) over the trajectory.

    Always >= |e_R - e_0|, with equality when the trajectory is monotone
    (the sum then telescopes); concatenating trajectories adds their sums.
    """
    values = traj.values
    return float(sum(abs(values[i] - values[i - 1]) for i in range(1, len(values))))


def max_step_jump(traj: EntanglementTrajectory) -> float:
    """Largest single-step change max_k |e_k - e_{k-1}|."""
    values = traj.values
    if len(values) < 2:
        raise ValueError("max step jump needs a trajectory with at least 2 points")
    return float(max(abs(values[i] - values[i - 1]) for i in range(1, len(values))))


def export_trajectories(named: Sequence[tuple[str, EntanglementTrajectory]], path) -> None:
    """Write trajectories as CSV rows (run_id, k, entanglement, measure_tag).

    Floats carry 17 significant digits so reading the file back reproduces
    the exact values.
    """
    write_csv(path, _CSV_HEADER, [(run_id, k, value, traj.measure.value)
                                 for run_id, traj in named
                                 for k, value in enumerate(traj.values)])


def read_trajectories(path) -> list[tuple[str, EntanglementTrajectory]]:
    """Inverse of export_trajectories (exact float round trip).

    Raises ValueError when the header is missing, when a run mixes measure
    tags, or when a run's steps k do not run 0..R in order.
    """
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    if not lines or lines[0] != ",".join(_CSV_HEADER):
        raise ValueError(f"trajectory CSV {path} does not start with the header "
                         f"{','.join(_CSV_HEADER)!r}")
    grouped: dict[str, list[tuple[int, float, str]]] = {}
    for line in lines[1:]:
        run_id, k, value, tag = line.split(",")
        grouped.setdefault(run_id, []).append((int(k), float(value), tag))
    result = []
    for run_id, entries in grouped.items():
        steps, values, tags = zip(*entries)
        if steps != tuple(range(len(steps))):
            raise ValueError(f"run {run_id} steps {list(steps)} do not run 0..R in order")
        if len(set(tags)) != 1:
            raise ValueError(f"run {run_id} mixes measure tags {set(tags)}")
        result.append((run_id, EntanglementTrajectory(Measure(tags[0]), values)))
    return result


def trajectory_summary(run_id: str, traj: EntanglementTrajectory) -> dict:
    """JSON-ready per-run summary of a trajectory."""
    values = traj.values
    return {
        "run_id": run_id,
        "R": traj.num_steps,
        "measure": traj.measure.value,
        "sum": path_entanglement_sum(traj),
        "max_jump": max_step_jump(traj) if traj.num_steps >= 1 else 0.0,
        "final_entanglement": values[-1],
    }
