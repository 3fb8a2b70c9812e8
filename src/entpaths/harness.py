"""Experiment harness: family collection and the minimum-sum success test.

One ExperimentConfig carries every setting through the harness, and is
itself the SearchSettings of every synthesis search.  For each target
state the harness estimates its minimum gate count r_star, gathers
successful synthesis solutions at r_star and above from the estimate's
seed, scores every solution by the total-variation sum of its
entanglement trajectory (all of a target's solutions in one trajectory
call, their state paths laid end to end), bins those sums, and marks the
target a success iff some optimal-gate-count solution lands in the
minimum observed bin.  At each gate count the solutions come from one
list, every irreducible layout in sorted order, and a layout is known by
its index there both in the search and in the record ids; layouts the
target's cut spectra rule out are skipped.  At r_star the walk starts at
the witness's index: the search's witness is the first solution there,
and its layout resumes at the restart after the witness's.  Aggregates
report the empirical success rate with a binomial confidence interval,
plus a rank-correlation statistic between bin and gate count (reported,
never asserted).

Everything is deterministic for a fixed config and seed: per-target seeds
derive from (root seed, target index) and aggregation is by sorted target
index, so parallel runs reproduce serial ones byte for byte.
"""
from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .canonical import write_csv
from .core import MAX_QUBITS, StateVector, load_state
from .entanglement import GEO_RESTARTS, Measure
from .synthesis import (
    ComplexityEstimate,
    ComplexityNotFound,
    SearchSettings,
    _seed_key,
    can_reach,
    enumerate_architectures,
    estimate_state_complexity,
    optimize_gates_collect,
    sample_target,
)
from .trajectories import (TrajectoryMeasureError, measure_state, path_entanglement_sum,
                           trajectory)
from .validation import (ConfigError, check_fields, cut_field, int_field,
                         measure_field, need, number_field)

DELTA_BIN_DEFAULT = 1e-3
DEGENERATE_ENTANGLEMENT = 1e-6
WILSON_Z_95 = 1.959963984540054


def family_bin_of(sum_value: float, delta_bin: float) -> int:
    """Bin index floor(sum / delta) grouping trajectories into families."""
    if delta_bin <= 0.0:
        raise ValueError(f"delta_bin must be positive, got {delta_bin}")
    if not sum_value >= 0.0:
        raise ValueError(f"trajectory sums are nonnegative, got {sum_value}")
    return int(math.floor(sum_value / delta_bin))


@dataclass(frozen=True)
class PathFamilyRecord:
    """One successful synthesis solution scored by its trajectory sum."""

    record_id: str
    r: int
    sum_value: float
    family_bin: int
    is_optimal_r: bool
    achieved_fidelity: float
    architecture: tuple[tuple[int, int], ...]


def collect_families(config: ExperimentConfig, target: StateVector,
                     estimate: ComplexityEstimate, seed,
                     target_id: str) -> list[PathFamilyRecord]:
    """Gather successful synthesis solutions from r_star up to config.r_max.

    Every search and scoring setting (the search settings, samples_per_r,
    delta_bin, measure, cut, geo_restarts) is read from `config`; its search
    settings and `seed` must be those `estimate` was searched with.  At each
    gate count r the list enumerate_architectures(n, r), every irreducible
    canonical layout in sorted order, is walked in order, layout ai
    searched from seed (seed, r, ai) as in the search, and every restart
    that reaches the fidelity threshold contributes a record, up to
    samples_per_r per r.  A layout the estimate's cut weights rule out
    (synthesis.can_reach) is skipped: no restart on it would reach the
    threshold.  The list is never subsampled: a subsample would put a
    random layout first, and one that cannot reach the target burns its
    whole restart budget.  At r_star the walk starts at the witness's
    index and its first record is the search's witness as it is, circuit
    and states; the witness's layout then resumes at the restart after the
    witness's, so no restart is ascended twice, and r_star keeps at least
    the witness.  The empty witness of r_star = 0 has no layout and is its
    own record.  A gate count may give no records at all, e.g. when no
    irreducible layout of that length exists or none reaches the target.
    Gate counts below r_star are not walked: the search found no solution
    on the layouts it tried there.

    Once every solution is collected, the state paths their searches ran
    are laid end to end and scored in one trajectory call, which gives
    each state the value it would get alone; each record's sum is taken
    over its own slice.  A scoring failure raises TrajectoryMeasureError
    at the step within the failing record, naming its record id, chained
    to the measure's error.
    """
    r_star = estimate.r_star
    witness = (estimate.witness, estimate.witness_path, estimate.achieved_fidelity)
    solutions = []
    if r_star == 0:
        solutions.append((f"{target_id}-r0-witness", *witness))
    for r in range(max(r_star, 1), config.r_max + 1):
        archs = enumerate_architectures(target.num_qubits, r)
        first, resume, wanted, collected_r = 0, 0, config.samples_per_r, 0
        if r == r_star:
            first = archs.index(tuple(g.qubit_pair for g in estimate.witness.gates))
            k = estimate.witness_restart
            solutions.append((f"{target_id}-r{r}-a{first:02d}-k{k:02d}", *witness))
            resume, collected_r = k + 1, 1
        for ai in range(first, len(archs)):
            if collected_r >= wanted:
                break
            if not can_reach(archs[ai], estimate.cut_weights, config.threshold):
                continue
            for result in optimize_gates_collect(
                    archs[ai], target, config, _seed_key(seed, r, ai), wanted - collected_r,
                    resume if ai == first else 0):
                solutions.append((f"{target_id}-r{r}-a{ai:02d}-k{result.best_restart:02d}",
                                  result.circuit, result.path, result.achieved_fidelity))
                collected_r += 1
    paths = [path for _, _, path, _ in solutions]
    starts = np.cumsum([0] + [len(path) for path in paths])
    try:
        values = trajectory([state for path in paths for state in path], config.measure,
                            cut=config.cut, geo_restarts=config.geo_restarts)
    except TrajectoryMeasureError as exc:
        i = int(np.searchsorted(starts, exc.step, side="right")) - 1
        raise TrajectoryMeasureError(
            exc.step - int(starts[i]), f"record {solutions[i][0]}: {exc.__cause__}"
        ) from exc.__cause__
    records = []
    for (record_id, circuit, _, achieved), begin, end in zip(solutions, starts, starts[1:]):
        total = path_entanglement_sum(values[begin:end])
        records.append(PathFamilyRecord(
            record_id=record_id,
            r=circuit.num_gates,
            sum_value=total,
            family_bin=family_bin_of(total, config.delta_bin),
            is_optimal_r=circuit.num_gates == r_star,
            achieved_fidelity=achieved,
            architecture=tuple(g.qubit_pair for g in circuit.gates),
        ))
    return records


# --- experiment config ----------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(SearchSettings):
    """Resolved conjecture-experiment parameters (see from_dict for schema);
    the search settings and their defaults are inherited.  target_files
    holds the paths as the config gave them, and target_dir the directory
    a relative one is loaded from, which to_dict does not echo, so a config
    and its targets give the same outputs from any directory
    (targets_relative_to moves both to another directory)."""

    num_qubits: int
    target_count: int | None
    r_gen_max: int | None
    target_files: tuple[str, ...] | None
    seed: int
    delta_bin: float = DELTA_BIN_DEFAULT
    measure: Measure = Measure.GEOMETRIC
    cut: tuple[int, ...] | None = None
    samples_per_r: int = 6
    geo_restarts: int = GEO_RESTARTS
    target_dir: str | None = None

    @property
    def num_targets(self) -> int:
        if self.target_files is not None:
            return len(self.target_files)
        return self.target_count

    @classmethod
    def from_dict(cls, doc: dict, base_dir=None) -> "ExperimentConfig":
        """Validate a config document; errors name the failing field.

        Schema: {n, targets: {count, r_gen, seed} | {files: [...]},
        fidelity_tol?, r_max?, delta_E_bin?, measure?, cut?,
        budget: {restarts?, iters?}?, samples_per_r?, geo_restarts?,
        max_architectures?}.
        """
        need(isinstance(doc, dict), "config", "must be a JSON object")
        check_fields(doc, {"n", "targets", "fidelity_tol", "r_max", "delta_E_bin",
                           "measure", "cut", "budget", "samples_per_r",
                           "geo_restarts", "max_architectures"})
        n = int_field(doc, "n", None, low=2, high=MAX_QUBITS)
        need("targets" in doc, "targets", "is required")
        targets = doc["targets"]
        need(isinstance(targets, dict), "targets", "must be an object")
        count = r_gen = files = target_dir = None
        if "files" in targets:
            check_fields(targets, {"files", "seed"}, "targets")
            raw = targets["files"]
            need(isinstance(raw, list) and raw and all(isinstance(f, str) for f in raw),
                 "targets.files", "must be a nonempty list of paths")
            files = tuple(raw)
            target_dir = str(Path(base_dir if base_dir is not None else ".").resolve())
        else:
            check_fields(targets, {"count", "r_gen", "seed"}, "targets")
            count = int_field(targets, "count", None, low=1, where="targets")
            r_gen = int_field(targets, "r_gen", None, low=1, where="targets")
        seed = int_field(targets, "seed", 0, low=0, where="targets")
        cut = cut_field(doc["cut"], n) if "cut" in doc else None
        budget = doc.get("budget", {})
        need(isinstance(budget, dict), "budget", "must be an object")
        check_fields(budget, {"restarts", "iters"}, "budget")
        r_max = int_field(doc, "r_max", cls.r_max, low=1)
        delta_bin = number_field(doc, "delta_E_bin", cls.delta_bin, above=0.0)
        # no trajectory sum exceeds r_max * n, so its bin index must be finite
        try:
            finite = math.isfinite(r_max * n / delta_bin)
        except OverflowError:  # r_max * n is too large for a float
            finite = False
        need(finite, "delta_E_bin",
             f"must leave r_max * n / delta_E_bin finite, got {delta_bin:g}")
        return cls(
            num_qubits=n, target_count=count, r_gen_max=r_gen,
            target_files=files, target_dir=target_dir, seed=seed,
            fidelity_tol=number_field(doc, "fidelity_tol", cls.fidelity_tol,
                                      above=0.0, below=1.0),
            r_max=r_max,
            delta_bin=delta_bin,
            measure=measure_field(doc.get("measure", cls.measure.value), cut),
            cut=cut,
            restarts=int_field(budget, "restarts", cls.restarts, low=1, where="budget"),
            iterations=int_field(budget, "iters", cls.iterations, low=1, where="budget"),
            samples_per_r=int_field(doc, "samples_per_r", cls.samples_per_r, low=0),
            geo_restarts=int_field(doc, "geo_restarts", cls.geo_restarts, low=1),
            max_architectures=int_field(doc, "max_architectures",
                                        cls.max_architectures, low=1))

    def targets_relative_to(self, directory) -> "ExperimentConfig":
        """This config with each relative target path rewritten relative to
        `directory`, and read from there.  The conjecture command echoes
        this form into its output directory, so a manifest there reruns
        from wherever it is read, and moving the targets and outputs
        together changes no byte."""
        if self.target_files is None:
            return self
        base = Path(directory).resolve()
        files = tuple(f if Path(f).is_absolute()
                      else os.path.relpath(Path(self.target_dir, f), base)
                      for f in self.target_files)
        return replace(self, target_files=files, target_dir=str(base))

    def to_dict(self) -> dict:
        """Resolved config echo (defaults materialized)."""
        if self.target_files is not None:
            targets = {"files": list(self.target_files), "seed": self.seed}
        else:
            targets = {"count": self.target_count, "r_gen": self.r_gen_max,
                       "seed": self.seed}
        doc = {
            "n": self.num_qubits,
            "targets": targets,
            "fidelity_tol": self.fidelity_tol,
            "r_max": self.r_max,
            "delta_E_bin": self.delta_bin,
            "measure": self.measure.value,
            "budget": {"restarts": self.restarts, "iters": self.iterations},
            "samples_per_r": self.samples_per_r,
            "geo_restarts": self.geo_restarts,
            "max_architectures": self.max_architectures,
        }
        if self.cut is not None:
            doc["cut"] = list(self.cut)
        return doc


# --- per-target evaluation ------------------------------------------------


@dataclass(frozen=True)
class TargetOutcome:
    """Everything the report keeps about one target; a target whose gate
    count was not found keeps the defaults and its fidelities per r."""

    target_id: str
    r_gen: int | None
    target_entanglement: float
    degenerate: bool
    r_star: int | None = None
    exhaustiveness: str | None = None
    witness_fidelity: float | None = None
    records: tuple[PathFamilyRecord, ...] = ()
    min_bin: int | None = None
    min_bin_optimal_r: int | None = None
    success: bool | None = None
    spearman_bin_vs_r: float | None = None
    best_fidelity_per_r: tuple[tuple[int, float], ...] = ()
    fidelity_bound_per_r: tuple[tuple[int, float], ...] = ()


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman_rank_correlation(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rho with average ranks for ties; None when undefined."""
    if len(xs) != len(ys):
        raise ValueError("rank correlation needs paired samples")
    if len(xs) < 2 or len(set(xs)) < 2 or len(set(ys)) < 2:
        return None
    return float(np.corrcoef(_average_ranks(xs), _average_ranks(ys))[0, 1])


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (contains the MLE)."""
    z = WILSON_Z_95
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _load_target(config: ExperimentConfig, index: int) -> StateVector:
    """Target file `index`, read from the config's target directory when
    its path is relative, and checked against the config's qubit count."""
    path = Path(config.target_dir or ".") / config.target_files[index]
    try:
        target = load_state(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"targets.files[{index}]: cannot load {path}: {exc}") from None
    if target.num_qubits != config.num_qubits:
        raise ConfigError(
            f"targets.files[{index}] has {target.num_qubits} qubits, config n={config.num_qubits}"
        )
    return target


def evaluate_target(config: ExperimentConfig, index: int) -> TargetOutcome:
    """Full pipeline for target `index`: sample/load, estimate, collect, score."""
    target_id = f"t{index:03d}"
    if config.target_files is not None:
        target = _load_target(config, index)
        r_gen: int | None = None
    else:
        rng = np.random.default_rng(_seed_key(config.seed, index, 0))
        r_gen = int(rng.integers(1, config.r_gen_max + 1))
        target, _ = sample_target(config.num_qubits, r_gen,
                                  _seed_key(config.seed, index, 1))
    entanglement = measure_state(target, config.measure, cut=config.cut,
                                 geo_restarts=config.geo_restarts)
    degenerate = entanglement < DEGENERATE_ENTANGLEMENT
    seed = _seed_key(config.seed, index, 2)
    estimate = estimate_state_complexity(target, config, seed)
    if isinstance(estimate, ComplexityNotFound):
        return TargetOutcome(
            target_id=target_id, r_gen=r_gen, target_entanglement=entanglement,
            degenerate=degenerate,
            best_fidelity_per_r=tuple(sorted(estimate.best_fidelity_per_r.items())),
            fidelity_bound_per_r=tuple(sorted(estimate.fidelity_bound_per_r.items())))
    records = tuple(collect_families(config, target, estimate, seed, target_id))
    min_bin = min(rec.family_bin for rec in records)
    # r_star's first record is the witness, so this minimum is never empty
    min_bin_optimal_r = min(rec.family_bin for rec in records if rec.is_optimal_r)
    success = min_bin_optimal_r == min_bin
    spearman = spearman_rank_correlation(
        [float(rec.family_bin) for rec in records],
        [float(rec.r) for rec in records])
    return TargetOutcome(
        target_id=target_id, r_gen=r_gen, r_star=estimate.r_star,
        exhaustiveness=estimate.exhaustiveness,
        witness_fidelity=estimate.achieved_fidelity,
        target_entanglement=entanglement, degenerate=degenerate,
        records=records, min_bin=min_bin, min_bin_optimal_r=min_bin_optimal_r,
        success=success, spearman_bin_vs_r=spearman)


# --- the experiment -------------------------------------------------------


def run_experiment(config: ExperimentConfig,
                   jobs: int = 1) -> tuple[TargetOutcome, ...]:
    """Every target's outcome, in index order, on up to `jobs` worker
    processes and at most one worker per target.

    Every target file is loaded and checked before the first search, so a
    bad one fails the run before any work is spent.  Worker count never
    changes the result: each target is a pure function of (config, index)
    and outcomes are collected in index order.
    """
    indices = list(range(config.num_targets))
    if config.target_files is not None:
        for i in indices:
            _load_target(config, i)
    workers = min(jobs, len(indices))
    if workers <= 1:
        outcomes = [evaluate_target(config, i) for i in indices]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(evaluate_target, config, i): i for i in indices}
            by_index: dict[int, TargetOutcome] = {}
            for future in concurrent.futures.as_completed(futures):
                by_index[futures[future]] = future.result()
        outcomes = [by_index[i] for i in indices]
    return tuple(outcomes)


def _rate_block(outcomes: Sequence[TargetOutcome]) -> dict:
    trials = len(outcomes)
    successes = sum(1 for o in outcomes if o.success)
    if trials == 0:
        return {"trials": 0, "successes": 0, "success_rate": None,
                "success_rate_ci95": None, "epsilon_hat": None,
                "epsilon_hat_ci95": None}
    rate = successes / trials
    low, high = wilson_interval(successes, trials)
    return {
        "trials": trials,
        "successes": successes,
        "success_rate": rate,
        "success_rate_ci95": [low, high],
        "epsilon_hat": 1.0 - rate,
        "epsilon_hat_ci95": [1.0 - high, 1.0 - low],
    }


def report_to_dict(config: ExperimentConfig,
                   outcomes: Sequence[TargetOutcome]) -> dict:
    """Canonical-JSON-ready report with aggregates and per-target detail.

    Each target entry holds its TargetOutcome's fields, with the records as
    a list and each per-r table of fidelities as a dict keyed by str(r).
    """
    evaluated = [o for o in outcomes if o.r_star is not None]
    failures = [o for o in outcomes if o.r_star is None]
    nondegenerate = [o for o in evaluated if not o.degenerate]
    spearman_values = [o.spearman_bin_vs_r for o in evaluated
                      if o.spearman_bin_vs_r is not None]
    targets = []
    for o in outcomes:
        target = asdict(o)
        target["records"] = list(target["records"])
        target["best_fidelity_per_r"] = {str(r): f for r, f in o.best_fidelity_per_r}
        target["fidelity_bound_per_r"] = {str(r): f for r, f in o.fidelity_bound_per_r}
        targets.append(target)
    return {
        "config": config.to_dict(),
        "aggregate": {
            "num_targets": len(outcomes),
            "num_synthesis_failures": len(failures),
            "num_degenerate": sum(1 for o in evaluated if o.degenerate),
            "all_targets": _rate_block(evaluated),
            "excluding_degenerate": _rate_block(nondegenerate),
            "spearman_bin_vs_r_mean": (sum(spearman_values) / len(spearman_values)
                                       if spearman_values else None),
            "spearman_defined_count": len(spearman_values),
        },
        "targets": targets,
    }


def write_records_csv(outcomes: Sequence[TargetOutcome], path) -> None:
    """Flat per-record table (one row per collected solution)."""
    rows = []
    for outcome in outcomes:
        for rec in outcome.records:
            arch = ";".join(f"{j}-{k}" for j, k in rec.architecture) or "-"
            rows.append((outcome.target_id, rec.record_id, rec.r,
                         rec.is_optimal_r, rec.sum_value, rec.family_bin,
                         rec.achieved_fidelity, arch))
    write_csv(path, ("target_id", "record_id", "r", "is_optimal_r",
                     "sum_value", "family_bin", "achieved_fidelity",
                     "architecture"), rows)
