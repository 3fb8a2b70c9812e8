"""Entanglement analytics along the state sequence a circuit produces.

Evaluating a measure at every state of a run gives a trajectory
(k, e_k) for k = 0..R; its total variation sum(|e_k - e_{k-1}|) is the
headline statistic of the synthesis experiments, and the largest single
step is reported alongside it.  Under the geometric measure every state of
a path goes into one batched product-state fit, so a trajectory costs one
fit's set-up, not one per state; a step whose fit does not converge still
fails as that step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .canonical import write_csv
from .core import StatePath, StateVector
from .entanglement import (
    GEO_RESTARTS,
    Measure,
    _convergence_error,
    _product_fit,
    geometric_entanglement,
    reduced_density_matrix,
    von_neumann_entropy,
)


class TrajectoryMeasureError(RuntimeError):
    """Measure evaluation failed at a specific step of a state path."""

    def __init__(self, step: int, message: str):
        super().__init__(f"measure failed at step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class EntanglementTrajectory:
    """Per-step entanglement values (k, e_k) under one measure tag."""

    measure: Measure
    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        points = tuple((int(k), float(e)) for k, e in self.points)
        if not points:
            raise ValueError("a trajectory needs at least one point")
        for position, (k, e) in enumerate(points):
            if k != position:
                raise ValueError(
                    f"trajectory steps must run 0..R contiguously, got {k} at {position}"
                )
            if not np.isfinite(e) or e < 0.0:
                raise ValueError(f"entanglement value {e} at step {k} is invalid")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "measure", Measure(self.measure))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e for _, e in self.points)

    @property
    def num_steps(self) -> int:
        return len(self.points) - 1


def measure_state(state: StateVector, measure: Measure, *,
                  cut: Sequence[int] | None = None,
                  geo_restarts: int = GEO_RESTARTS) -> float:
    """Evaluate one entanglement measure on one state."""
    measure = Measure(measure)
    if measure is Measure.GEOMETRIC:
        return geometric_entanglement(state, restarts=geo_restarts).value
    if cut is None:
        raise ValueError("the von Neumann measure needs a cut (qubits to keep)")
    return von_neumann_entropy(reduced_density_matrix(state, cut)).value


def _path_values(path: StatePath, measure: Measure, cut: Sequence[int] | None,
                 geo_restarts: int) -> Iterator[float]:
    """Each state's value in order; the k-th next() raises step k's failure.

    The geometric measure fits every state of the path in one batch, as
    geometric_entanglement would fit each alone.
    """
    if Measure(measure) is not Measure.GEOMETRIC:
        for state in path:
            yield measure_state(state, measure, cut=cut)
        return
    amplitudes = np.stack([state.amplitudes for state in path])
    values, converged = _product_fit(amplitudes, path[0].num_qubits, geo_restarts)
    for value, ok in zip(values, converged):
        if not ok:
            raise _convergence_error(value)
        yield value


def trajectory(path: StatePath, measure: Measure = Measure.GEOMETRIC, *,
               cut: Sequence[int] | None = None,
               geo_restarts: int = GEO_RESTARTS) -> EntanglementTrajectory:
    """Evaluate a measure at every state of a path, including psi_0.

    A failure raises TrajectoryMeasureError for the first step that fails,
    chained to the measure's own error.
    """
    values = _path_values(path, measure, cut, geo_restarts)
    points = []
    for k in range(len(path)):
        try:
            points.append((k, next(values)))
        except Exception as exc:
            raise TrajectoryMeasureError(k, str(exc)) from exc
    return EntanglementTrajectory(Measure(measure), tuple(points))


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
    rows = []
    for run_id, traj in named:
        for k, value in traj.points:
            rows.append((run_id, k, value, traj.measure.value))
    write_csv(path, ("run_id", "k", "entanglement", "measure_tag"), rows)


def read_trajectories(path) -> list[tuple[str, EntanglementTrajectory]]:
    """Inverse of export_trajectories (exact float round trip)."""
    lines = [ln for ln in open(path, encoding="utf-8").read().splitlines() if ln]
    if lines[0] != "run_id,k,entanglement,measure_tag":
        raise ValueError(f"unexpected trajectory CSV header {lines[0]!r}")
    grouped: dict[str, list[tuple[int, float, str]]] = {}
    order: list[str] = []
    for line in lines[1:]:
        run_id, k, value, tag = line.split(",")
        if run_id not in grouped:
            grouped[run_id] = []
            order.append(run_id)
        grouped[run_id].append((int(k), float(value), tag))
    result = []
    for run_id in order:
        entries = grouped[run_id]
        tags = {tag for _, _, tag in entries}
        if len(tags) != 1:
            raise ValueError(f"run {run_id} mixes measure tags {tags}")
        traj = EntanglementTrajectory(Measure(tags.pop()),
                                      tuple((k, v) for k, v, _ in entries))
        result.append((run_id, traj))
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
