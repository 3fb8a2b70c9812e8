import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from entpaths import entanglement, harness, synthesis
from entpaths.canonical import canonical_json
from entpaths.core import StateVector, random_circuit, run_circuit, save_state
from entpaths.entanglement import Measure, ProductFitConvergenceError
from entpaths.harness import (ConfigError, ExperimentConfig, PathFamilyRecord,
                              collect_families, evaluate_target, family_bin_of,
                              report_to_dict, spearman_rank_correlation,
                              wilson_interval, write_records_csv)
from entpaths.synthesis import (BOUND_MARGIN, ComplexityNotFound, SearchSettings, _seed_key,
                                can_reach, enumerate_architectures, estimate_state_complexity,
                                optimize_gates, optimize_gates_collect, sample_target)
from entpaths.trajectories import (TrajectoryMeasureError, path_entanglement_sum,
                                   trajectory)

import oracles

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
LEAN = {"budget": {"restarts": 8, "iters": 500}, "samples_per_r": 2,
        "geo_restarts": 8, "r_max": 2}


def lean_config(**overrides):
    doc = {"n": 3, "targets": {"count": 3, "r_gen": 2, "seed": 21}, **LEAN}
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


# --- scalar helpers -------------------------------------------------------


def test_family_bin_floor_semantics():
    assert family_bin_of(0.0, 1e-3) == 0
    assert family_bin_of(0.0009999, 1e-3) == 0
    assert family_bin_of(0.001, 1e-3) == 1
    assert family_bin_of(0.2408, delta_bin=1e-3) == 240
    assert family_bin_of(0.75, delta_bin=0.5) == 1


def test_family_bin_rejects_bad_input():
    with pytest.raises(ValueError):
        family_bin_of(-0.5, 1e-3)
    with pytest.raises(ValueError):
        family_bin_of(0.5, delta_bin=0.0)


def test_wilson_interval_matches_scipy():
    for successes, trials in [(5, 10), (0, 20), (20, 20), (49, 50), (1, 3)]:
        low, high = wilson_interval(successes, trials)
        ref = scipy.stats.binomtest(successes, trials).proportion_ci(
            confidence_level=0.95, method="wilson")
        assert np.isclose(low, ref.low, atol=1e-12)
        assert np.isclose(high, ref.high, atol=1e-12)


def test_wilson_interval_contains_the_point_estimate():
    for successes, trials in [(0, 5), (3, 7), (7, 7), (13, 40)]:
        low, high = wilson_interval(successes, trials)
        rate = successes / trials
        assert low <= rate <= high
        assert 0.0 <= low <= high <= 1.0


def test_wilson_interval_frozen_values():
    assert np.allclose(wilson_interval(5, 10),
                       (0.236593090512564, 0.7634069094874361))
    assert np.allclose(wilson_interval(0, 20), (0.0, 0.16112515805281938))


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(6):
        a = list(rng.integers(0, 6, size=9).astype(float))  # ties likely
        b = list(rng.normal(size=9))
        ours = spearman_rank_correlation(a, b)
        ref = scipy.stats.spearmanr(a, b).statistic
        assert np.isclose(ours, ref, atol=1e-12)


def test_spearman_perfect_and_reversed():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert np.isclose(spearman_rank_correlation(xs, xs), 1.0)
    assert np.isclose(spearman_rank_correlation(xs, xs[::-1]), -1.0)


def test_spearman_degenerate_returns_none():
    assert spearman_rank_correlation([2.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]) is None
    assert spearman_rank_correlation([1.0], [1.0]) is None


# --- config validation ----------------------------------------------------


def test_config_defaults_materialize():
    config = ExperimentConfig.from_dict(
        {"n": 3, "targets": {"count": 4, "r_gen": 2}})
    assert config.seed == 0
    assert config.fidelity_tol == 1e-4
    assert config.r_max == 3
    assert config.delta_bin == 1e-3
    assert config.measure is Measure.GEOMETRIC
    assert config.restarts == 64 and config.iterations == 2000


def test_config_round_trips_through_its_echo():
    config = lean_config()
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_every_inline_config_of_the_ci_workflow_parses():
    # the workflow writes these configs inline, so no other test reads them
    docs = re.findall(r"""echo '(\{.*\})' > "\$dir/config\.json\"""", WORKFLOW.read_text())
    assert len(docs) == 4
    for doc in docs:
        ExperimentConfig.from_dict(json.loads(doc))


@pytest.mark.parametrize("doc,fragment", [
    ({}, "n"),
    ({"n": 1, "targets": {"count": 1, "r_gen": 1}}, "n"),
    ({"n": 3}, "targets"),
    ({"n": 3, "targets": {"r_gen": 1}}, "targets.count"),
    ({"n": 3, "targets": {"count": 2}}, "targets.r_gen"),
    ({"n": 3, "targets": {"count": 0, "r_gen": 1}}, "targets.count"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "bogus": 1}, "bogus"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "budget": {"x": 1}}, "budget.x"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "fidelity_tol": 2.0},
     "fidelity_tol"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": [0, 0]}, "cut"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": [0, 1, 2]}, "cut"),
    ({"n": 3, "targets": {"files": ["x.json"], "count": 2}}, "targets.count"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "delta_E_bin": True},
     "delta_E_bin"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "delta_E_bin": math.inf},
     "delta_E_bin"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "delta_E_bin": math.nan},
     "delta_E_bin"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "delta_E_bin": 10**400},
     "delta_E_bin"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "parallelism": 2},
     "parallelism"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "delta_E_bin": 1e-310},
     "delta_E_bin"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "r_max": 10**400}, "r_max * n"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": [0.5]}, "cut"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": [True]}, "cut"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": ["0"]}, "cut"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": "0"}, "cut"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": 0}, "cut"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": [-1]}, "cut"),
    ({"n": 3, "targets": {"count": 2, "r_gen": 1}, "cut": [3]}, "cut"),
])
def test_config_errors_name_the_field(doc, fragment):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(doc)
    assert fragment in str(err.value)


def test_config_entropy_measure_requires_a_cut():
    doc = {"n": 3, "targets": {"count": 1, "r_gen": 1}, "measure": "vonneumann"}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    doc["cut"] = [0]
    config = ExperimentConfig.from_dict(doc)
    assert config.measure is Measure.VON_NEUMANN_BITS
    assert config.cut == (0,)


def test_config_resolves_file_targets_against_base_dir(tmp_path, bell, monkeypatch):
    save_state(bell, tmp_path / "b.json")
    config = ExperimentConfig.from_dict(
        {"n": 2, "targets": {"files": ["b.json"]}}, base_dir=tmp_path)
    # the path is echoed as given, and loads from base_dir wherever the
    # process runs
    assert config.target_files == ("b.json",)
    assert config.to_dict()["targets"]["files"] == ["b.json"]
    assert config.num_targets == 1
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert np.array_equal(harness._load_target(config, 0).amplitudes, bell.amplitudes)


# --- family collection ----------------------------------------------------


def family_config(num_qubits, r_max, samples_per_r):
    """The search settings of the family tests: budget 8x500, fidelity_tol
    1e-4 and delta_E_bin 1e-3."""
    return ExperimentConfig.from_dict({
        "n": num_qubits, "targets": {"count": 1, "r_gen": 1},
        "budget": {"restarts": 8, "iters": 500}, "fidelity_tol": 1e-4,
        "delta_E_bin": 1e-3, "r_max": r_max, "samples_per_r": samples_per_r})


def search_and_collect(config, target, seed, target_id):
    """The estimate a run searches for a target, collecting the config's
    samples_per_r, and the records collect_families scores from it."""
    estimate = estimate_state_complexity(target, config, seed, config.samples_per_r)
    return estimate, collect_families(config, estimate, target_id)


def test_collect_families_on_bell(bell):
    estimate, records = search_and_collect(family_config(2, r_max=2, samples_per_r=3),
                                           bell, 5, "bell")
    assert estimate.r_star == 1
    # the one layout runs one restart, so r_star holds the witness alone
    assert [rec.record_id for rec in records] == ["bell-r1-a00-k00"]
    assert records[0].achieved_fidelity == estimate.achieved_fidelity
    # on two qubits every layout of two or more gates repeats the one pair,
    # so r = 2 has no irreducible layout and gives no records
    assert {rec.r for rec in records} == {1}
    for rec in records:
        assert rec.achieved_fidelity > 1.0 - 1e-4
        assert rec.is_optimal_r
        assert rec.family_bin == family_bin_of(rec.sum_value, 1e-3)
        # a two-qubit register has E_G <= 1/2, so any trajectory to a state
        # of maximal entanglement telescopes: the sum is forced to (almost)
        # 1/2, the tolerance window being the only slack
        assert abs(rec.sum_value - 0.5) < 5e-3


def test_collect_families_above_r_star_uses_irreducible_layouts():
    target = StateVector(
        3, np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0], dtype=complex))
    config = family_config(3, r_max=3, samples_per_r=3)
    estimate, records = search_and_collect(config, target, 2, "t")
    assert estimate.r_star == 2
    assert records[0].record_id.startswith("t-r2-a")
    by_r = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append(rec)
        assert rec.achieved_fidelity > 1.0 - 1e-4
        assert rec.is_optimal_r == (rec.r == 2)
        assert rec.family_bin == family_bin_of(rec.sum_value, 1e-3)
        assert not oracles.is_reducible(rec.architecture)
    assert set(by_r) == {2, 3}


def test_collect_families_is_deterministic(bell):
    config = family_config(2, r_max=2, samples_per_r=2)
    _, a = search_and_collect(config, bell, 5, "x")
    _, b = search_and_collect(config, bell, 5, "x")
    assert [(r.record_id, r.sum_value, r.family_bin) for r in a] == \
           [(r.record_id, r.sum_value, r.family_bin) for r in b]


def test_collect_families_skips_r_below_r_star():
    target = StateVector(
        3, np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0], dtype=complex))
    config = family_config(3, r_max=2, samples_per_r=2)
    estimate, records = search_and_collect(config, target, 3, "t")
    assert estimate.r_star == 2
    assert all(rec.r >= 2 for rec in records)


def _collect_scoring_each_record(config, target, estimate, seed, target_id):
    """The search's collection and collect_families, with one trajectory
    call per record: the slow path the batched scoring replaces, kept as
    its reference.  It walks the layouts itself from the estimate's
    witness, with no layout ruled out and the witness's layout run again
    from restart 0."""
    def record(record_id, circuit, achieved):
        total = path_entanglement_sum(trajectory(
            run_circuit(circuit), config.measure, cut=config.cut,
            geo_restarts=config.geo_restarts))
        return PathFamilyRecord(
            record_id=record_id, r=circuit.num_gates, sum_value=total,
            family_bin=family_bin_of(total, config.delta_bin),
            is_optimal_r=circuit.num_gates == estimate.r_star,
            achieved_fidelity=achieved,
            architecture=tuple(g.qubit_pair for g in circuit.gates))

    records = []
    if estimate.r_star == 0:
        records.append(record(f"{target_id}-r0-witness", estimate.witness,
                              estimate.achieved_fidelity))
    witness_layout = tuple(g.qubit_pair for g in estimate.witness.gates)
    for r in range(max(estimate.r_star, 1), config.r_max + 1):
        archs = enumerate_architectures(target.num_qubits, r)
        first, wanted = 0, config.samples_per_r
        if r == estimate.r_star:
            first, wanted = archs.index(witness_layout), max(wanted, 1)
        collected = 0
        for ai in range(first, len(archs)):
            if collected >= wanted:
                break
            for result in optimize_gates_collect(archs[ai], target, config, (seed, r, ai),
                                                 wanted - collected):
                records.append(record(f"{target_id}-r{r}-a{ai:02d}-k{result.best_restart:02d}",
                                      result.circuit, result.achieved_fidelity))
                collected += 1
    return records


def _split_pairs_case(samples_per_r):
    """A target made by gates on (0, 1) and then (2, 3): of the four-qubit
    two-gate layouts only ((0, 1), (2, 3)) reaches it, and four precede it.
    Returns the config (r_max one past r_star), target and estimate, which
    collects the config's samples_per_r."""
    rng = np.random.default_rng(61)
    target = run_circuit(random_circuit(4, ((0, 1), (2, 3)), rng))[-1]
    config = ExperimentConfig.from_dict({
        "n": 4, "targets": {"count": 1, "r_gen": 2}, "budget": {"restarts": 4, "iters": 200},
        "r_max": 3, "samples_per_r": samples_per_r, "geo_restarts": 8})
    return config, target, estimate_state_complexity(target, config, 6, samples_per_r)


def test_the_first_r_star_record_is_the_witness_replayed():
    config, target, estimate = _split_pairs_case(samples_per_r=2)
    assert estimate.r_star == 2
    layout = tuple(g.qubit_pair for g in estimate.witness.gates)
    assert layout == ((0, 1), (2, 3))
    ai = enumerate_architectures(4, 2).index(layout)
    assert ai == 4
    k = optimize_gates(layout, target, config, _seed_key(6, 2, ai)).best_restart
    assert estimate.solutions[0][0] == ai
    records = collect_families(config, estimate, "t")
    first = records[0]
    assert first.record_id == f"t-r2-a{ai:02d}-k{k:02d}"
    assert first.architecture == layout
    assert first.achieved_fidelity == estimate.achieved_fidelity
    witness_sum = path_entanglement_sum(trajectory(
        run_circuit(estimate.witness), config.measure, geo_restarts=config.geo_restarts))
    assert first.sum_value == witness_sum
    assert [rec.r for rec in records].count(2) == 2


def test_collection_at_r_star_starts_at_the_witness_layout(monkeypatch):
    config, target, estimate = _split_pairs_case(samples_per_r=2)
    archs = enumerate_architectures(4, estimate.r_star)
    witness_index = archs.index(tuple(g.qubit_pair for g in estimate.witness.gates))
    searched = []

    def spy(slots, target, settings, seed, max_collect, first_restart=0):
        searched.append((tuple(slots), first_restart))
        return optimize_gates_collect(slots, target, settings, seed, max_collect, first_restart)

    monkeypatch.setattr(synthesis, "optimize_gates_collect", spy)
    again = estimate_state_complexity(target, config, 6, config.samples_per_r)
    at_r_star = [archs.index(slots) for slots, _ in searched if len(slots) == estimate.r_star]
    assert at_r_star[0] == witness_index
    assert min(at_r_star) == witness_index
    # the witness's layout resumes at the restart after the witness's
    assert searched[0][1] == estimate.solutions[0][1].best_restart + 1
    assert all(first == 0 for _, first in searched[1:])
    assert any(len(slots) == estimate.r_star + 1 for slots, _ in searched)
    assert [(ai, result.best_restart) for ai, result in again.solutions] == \
           [(ai, result.best_restart) for ai, result in estimate.solutions]


def test_no_samples_per_r_keeps_the_witness_alone():
    config, target, estimate = _split_pairs_case(samples_per_r=0)
    assert len(estimate.solutions) == 1
    records = collect_families(config, estimate, "t")
    assert len(records) == 1
    assert records[0].r == estimate.r_star and records[0].is_optimal_r
    assert records[0].achieved_fidelity == estimate.achieved_fidelity


def _subsampled_case(undrawn=False):
    """A three-qubit target with r_star 2 whose search subsamples the six
    two-gate layouts: config, target, search seed and estimate.

    By default it is searched from seed 2 with max_architectures 3; the
    witness is layout 2 of the full list and the first of the subsample,
    and every r_star record sits on its layout.  With `undrawn` it is a
    target of two random gates searched from seed 4 with max_architectures
    2 and three samples a gate count, tagged sampled, whose collection at
    r_star moves on past the witness's layout to one the draw skipped."""
    if undrawn:
        target, _ = sample_target(3, 2, (0, 3))
        doc, seed = {"budget": {"restarts": 2, "iters": 300}, "samples_per_r": 3,
                     "max_architectures": 2, "geo_restarts": 8}, 4
    else:
        target = StateVector(
            3, np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0], dtype=complex))
        doc, seed = {"budget": {"restarts": 8, "iters": 500}, "samples_per_r": 2,
                     "max_architectures": 3}, 2
    config = ExperimentConfig.from_dict({"n": 3, "targets": {"count": 1, "r_gen": 1},
                                         "r_max": 3, **doc})
    return config, target, seed, estimate_state_complexity(target, config, seed,
                                                            config.samples_per_r)


def test_every_record_id_indexes_the_full_layout_list():
    # each case's tag and solutions as (r, layout index, restart)
    for undrawn, tag, expected in [
            (False, synthesis.EXHAUSTIVE, [(2, 2, 0), (2, 2, 1), (3, 0, 0), (3, 0, 1)]),
            (True, synthesis.SAMPLED,
             [(2, 2, 0), (2, 2, 1), (2, 3, 0), (3, 0, 0), (3, 0, 1), (3, 1, 0)])]:
        config, target, seed, estimate = _subsampled_case(undrawn)
        assert estimate.r_star == 2 and estimate.exhaustiveness == tag
        assert len(enumerate_architectures(3, 2)) > config.max_architectures
        assert [(result.circuit.num_gates, ai, result.best_restart)
                for ai, result in estimate.solutions] == expected
        # plain ints, as the walk counts them, not the numpy ints of the draw
        assert all(type(ai) is int for ai, _ in estimate.solutions)
        rng = np.random.default_rng(_seed_key(seed, 2, 777))
        drawn = set(rng.choice(6, size=config.max_architectures, replace=False).tolist())
        # no subsample applies past the witness
        assert any(r == 2 and ai not in drawn for r, ai, _ in expected) == undrawn
        records = collect_families(config, estimate, "t")
        assert [rec.record_id for rec in records] == [f"t-r{r}-a{ai:02d}-k{k:02d}"
                                                      for r, ai, k in expected]
        for rec, (r, ai, _) in zip(records, expected, strict=True):
            assert enumerate_architectures(3, r)[ai] == rec.architecture
        walk = oracles.search_every_layout(target, config, seed)
        assert records == _collect_scoring_each_record(config, target, walk, seed, "t")


def test_a_subsampled_search_seeds_each_layout_by_its_full_index():
    config, target, seed, estimate = _subsampled_case()
    layout = tuple(g.qubit_pair for g in estimate.witness.gates)
    assert enumerate_architectures(3, 2).index(layout) == 2
    replayed = optimize_gates(layout, target, config, _seed_key(seed, 2, 2))
    assert replayed.achieved_fidelity == estimate.achieved_fidelity
    first = collect_families(config, estimate, "t")[0]
    assert first.architecture == layout
    assert first.achieved_fidelity == estimate.achieved_fidelity


def _spy_on_the_search(monkeypatch):
    """Record the layouts the search asks can_reach about, with each answer,
    and the layouts it searches, in call order."""
    asked, searched = [], []

    def reach(slots, *args):
        asked.append((tuple(slots), can_reach(slots, *args)))
        return asked[-1][1]

    def search(slots, *args):
        searched.append(tuple(slots))
        return optimize_gates(slots, *args)

    monkeypatch.setattr(synthesis, "can_reach", reach)
    monkeypatch.setattr(synthesis, "optimize_gates", search)
    return asked, searched


def test_a_subsampled_search_tries_the_drawn_layouts_only(monkeypatch):
    asked, searched = _spy_on_the_search(monkeypatch)
    # no layout of two gates reaches a generic four-qubit state
    target, _ = sample_target(4, 8, 13)
    settings = SearchSettings(r_max=2, restarts=2, iterations=50, max_architectures=4)
    estimate = estimate_state_complexity(target, settings, 9)
    assert isinstance(estimate, ComplexityNotFound)
    assert set(estimate.fidelity_bound_per_r) == {1, 2}
    for r in (1, 2):
        archs = enumerate_architectures(4, r)
        assert len(archs) > settings.max_architectures
        rng = np.random.default_rng(_seed_key(9, r, 777))
        drawn = sorted(rng.choice(len(archs), size=settings.max_architectures, replace=False))
        assert [slots for slots, _ in asked if len(slots) == r] == [archs[i] for i in drawn]
    assert len(asked) == 2 * settings.max_architectures
    assert searched == [slots for slots, reach in asked if reach]


def test_a_zero_gate_target_keeps_its_witness_record():
    zero = StateVector.zero_state(2)
    config = family_config(2, r_max=1, samples_per_r=1)
    estimate, records = search_and_collect(config, zero, 5, "z")
    assert estimate.r_star == 0
    assert estimate.solutions[0][0] is None
    assert records[0].record_id == "z-r0-witness"
    assert records[0].r == 0 and records[0].is_optimal_r
    assert records[0].achieved_fidelity == estimate.achieved_fidelity
    assert [rec.r for rec in records[1:]] == [1]


# --- ruled-out layouts and the resumed witness, against the full walk -----


def _short_ascent_case(num_qubits, key, r_gen=2, **overrides):
    """A target (two gates by default) searched with two BFGS iterations a
    restart, so that a layout often converges only at a restart past 0.
    The cut stays when an override picks the geometric measure, which
    ignores it."""
    target, _ = sample_target(num_qubits, r_gen, (key, num_qubits))
    doc = {"n": num_qubits, "targets": {"count": 1, "r_gen": r_gen}, "fidelity_tol": 5e-4,
           "budget": {"restarts": 8, "iters": 2}, "r_max": 3, "samples_per_r": 2,
           "geo_restarts": 8, "measure": "vonneumann", "cut": [0, 1], **overrides}
    return ExperimentConfig.from_dict(doc), target


@pytest.mark.parametrize("num_qubits, key, overrides", [
    (3, 4, {}), (4, 4, {}), (4, 1, {"measure": "geometric"}),
    (3, 2, {"samples_per_r": 0}), (4, 5, {"samples_per_r": 0}),
    (4, 8, {"max_architectures": 12})])
def test_skipping_and_resuming_match_the_walk_over_every_layout(num_qubits, key, overrides):
    config, target = _short_ascent_case(num_qubits, key, **overrides)
    expected = oracles.search_every_layout(target, config, 4)
    estimate = estimate_state_complexity(target, config, 4, config.samples_per_r)
    witness = estimate.solutions[0][1]
    assert witness.best_restart == expected.witness_restart > 0
    assert estimate.r_star == expected.r_star
    assert estimate.achieved_fidelity == expected.achieved_fidelity
    assert estimate.exhaustiveness == expected.exhaustiveness
    for got, want in zip(estimate.witness.gates, expected.witness.gates, strict=True):
        assert got.qubit_pair == want.qubit_pair
        assert np.array_equal(got.matrix, want.matrix)
    for got, want in zip(witness.path, run_circuit(expected.witness), strict=True):
        assert np.array_equal(got.amplitudes, want.amplitudes)
    # the search skipped some layout
    weights = entanglement.cut_weights(target)
    assert not all(can_reach(slots, weights, config.threshold)
                   for r in range(1, estimate.r_star + 1)
                   for slots in enumerate_architectures(num_qubits, r))
    records = collect_families(config, estimate, "t")
    assert records == _collect_scoring_each_record(config, target, expected, 4, "t")
    at_r_star = [rec for rec in records if rec.is_optimal_r]
    assert len(at_r_star) == max(config.samples_per_r, 1)


def test_a_target_not_found_keeps_the_best_fidelity_over_the_layouts_searched():
    config, target = _short_ascent_case(4, 3, r_max=2, fidelity_tol=2e-4,
                                        budget={"restarts": 8, "iters": 1})
    estimate = estimate_state_complexity(target, config, 4)
    assert isinstance(estimate, ComplexityNotFound)
    # no one-gate layout can reach this target, and some two-gate ones can
    weights = entanglement.cut_weights(target)
    reach = [[can_reach(slots, weights, config.threshold)
              for slots in enumerate_architectures(4, r)] for r in (1, 2)]
    assert not any(reach[0])
    assert any(reach[1]) and not all(reach[1])
    archs = enumerate_architectures(4, 2)
    assert len(archs) <= config.max_architectures
    best = max(optimize_gates(slots, target, config, _seed_key(4, 2, ai)).achieved_fidelity
               for ai, slots in enumerate(archs) if reach[1][ai])
    assert estimate.best_fidelity_per_r == {2: best}
    # the walk over every layout, ruled out or not, stays under the ceiling
    expected = oracles.search_every_layout(target, config, 4)
    assert expected.r_star is None
    assert set(expected.best_fidelity_per_r) == set(estimate.fidelity_bound_per_r) == {1, 2}
    for r, walked in expected.best_fidelity_per_r.items():
        assert walked <= estimate.fidelity_bound_per_r[r] + BOUND_MARGIN


# the second case searches a subsample of 12 of the three-gate layouts
@pytest.mark.parametrize("key, overrides", [
    (3, {"r_max": 2, "fidelity_tol": 2e-4, "budget": {"restarts": 8, "iters": 1}}),
    (1, {"r_gen": 8, "r_max": 3, "max_architectures": 12,
         "budget": {"restarts": 4, "iters": 20}})])
def test_a_not_found_search_runs_no_layout_that_can_reach_rules_out(
        monkeypatch, key, overrides):
    config, target = _short_ascent_case(4, key, **overrides)
    assert len(enumerate_architectures(4, 3)) > 12
    asked, searched = _spy_on_the_search(monkeypatch)
    estimate = estimate_state_complexity(target, config, 4)
    assert isinstance(estimate, ComplexityNotFound)
    assert searched == [slots for slots, reach in asked if reach]
    # some layout was ruled out, and every r up to r_max has a ceiling
    assert len(searched) < len(asked)
    assert set(estimate.fidelity_bound_per_r) == set(range(1, config.r_max + 1))


def test_resumed_witnesses_give_one_report_for_any_jobs():
    config = ExperimentConfig.from_dict({
        "n": 4, "targets": {"count": 3, "r_gen": 2, "seed": 0}, "fidelity_tol": 2e-3,
        "budget": {"restarts": 32, "iters": 1}, "r_max": 3, "samples_per_r": 2,
        "geo_restarts": 8, "measure": "vonneumann", "cut": [0, 1]})
    # no gate count up to r_max is found for either target of this one
    not_found = ExperimentConfig.from_dict({
        "n": 4, "targets": {"count": 2, "r_gen": 8, "seed": 3}, "r_max": 2,
        "budget": {"restarts": 2, "iters": 20}, "geo_restarts": 4})
    reports = {}
    for name, run in (("found", config), ("not found", not_found)):
        serial = harness.run_experiment(run, jobs=1)
        parallel = harness.run_experiment(run, jobs=2)
        reports[name] = serial
        assert (canonical_json(report_to_dict(run, serial))
                == canonical_json(report_to_dict(run, parallel)))
    # every witness here was found past restart 0, and its layout resumed
    for outcome in reports["found"]:
        first, second = outcome.records[:2]
        assert not first.record_id.endswith("-k00")
        assert first.architecture == second.architecture
    for outcome in reports["not found"]:
        assert outcome.r_star is None
        assert [r for r, _ in outcome.fidelity_bound_per_r] == [1, 2]


def _family_case(num_qubits, measure, cut, key=35):
    """A two-gate target whose r_star is 2, a config one gate past it, and
    its estimate, searched with seed 4."""
    target, _ = sample_target(num_qubits, 2, (key, num_qubits))
    doc = {"n": num_qubits, "targets": {"count": 1, "r_gen": 2},
           "budget": {"restarts": 8, "iters": 500}, "r_max": 3,
           "samples_per_r": 2, "geo_restarts": 8, "measure": measure}
    if cut is not None:
        doc["cut"] = list(cut)
    config = ExperimentConfig.from_dict(doc)
    estimate = estimate_state_complexity(target, config, 4, config.samples_per_r)
    assert estimate.r_star == 2
    return config, target, estimate


@pytest.mark.parametrize("num_qubits, measure, cut, key", [
    (3, "geometric", None, 35), (3, "vonneumann", (1,), 35),
    (4, "vonneumann", (0, 1), 32)])
def test_batched_scoring_matches_one_trajectory_call_per_record(num_qubits, measure,
                                                                cut, key):
    config, target, estimate = _family_case(num_qubits, measure, cut, key)
    records = collect_families(config, estimate, "t")
    expected = _collect_scoring_each_record(config, target, estimate, 4, "t")
    assert {rec.r for rec in records} == {2, 3}
    assert all(rec.sum_value > 0.1 for rec in records)
    # dataclass equality compares every field, the floats by ==
    assert records == expected


def test_a_record_that_fails_to_score_fails_as_that_record(monkeypatch):
    config, target, estimate = _family_case(3, "geometric", None, key=31)
    # the record paths, laid end to end in the one trajectory call
    stacked = []
    monkeypatch.setattr(harness, "trajectory",
                        lambda states, *args, **kwargs: stacked.append(list(states))
                        or trajectory(states, *args, **kwargs))
    records = collect_families(config, estimate, "t")
    ends = np.cumsum([rec.r + 1 for rec in records])
    assert ends[-1] == len(stacked[0])
    paths = [stacked[0][begin:end] for begin, end in zip([0, *ends], ends)]
    # the fewest sweeps at which some record after the first fails alone
    for sweeps in range(2, 40):
        monkeypatch.setattr(entanglement, "GEO_MAX_SWEEPS", sweeps)
        alone = []
        for path in paths:
            try:
                trajectory(path, geo_restarts=config.geo_restarts)
            except TrajectoryMeasureError as exc:
                alone.append(exc)
                break
            alone.append(None)
        if alone[-1] is not None and len(alone) > 1:
            break
    else:
        pytest.fail("no sweep count fails a record after the first")
    failing, expected = len(alone) - 1, alone[-1]
    with pytest.raises(TrajectoryMeasureError) as err:
        collect_families(config, estimate, "t")
    # the step within the failing record, not an offset into the stacked states
    assert err.value.step == expected.step
    assert records[failing].record_id in str(err.value)
    cause = err.value.__cause__
    assert isinstance(cause, ProductFitConvergenceError)
    assert cause.best_value == expected.__cause__.best_value


# --- per-target evaluation and the full experiment ------------------------


def test_evaluate_target_rejects_mismatched_file(tmp_path, bell):
    save_state(bell, tmp_path / "b.json")
    config = ExperimentConfig.from_dict(
        {"n": 3, "targets": {"files": ["b.json"]}, **LEAN}, base_dir=tmp_path)
    with pytest.raises(ConfigError):
        evaluate_target(config, 0)


def test_degenerate_targets_are_dual_reported(tmp_path, bell):
    product = StateVector.zero_state(2)
    save_state(product, tmp_path / "p.json")
    save_state(bell, tmp_path / "b.json")
    config = ExperimentConfig.from_dict(
        {"n": 2, "targets": {"files": ["p.json", "b.json"], "seed": 3}, **LEAN},
        base_dir=tmp_path)
    doc = report_to_dict(config, harness.run_experiment(config))
    agg = doc["aggregate"]
    assert agg["num_targets"] == 2
    assert agg["num_degenerate"] == 1
    assert agg["all_targets"]["trials"] == 2
    assert agg["excluding_degenerate"]["trials"] == 1
    flags = {t["target_id"]: t["degenerate"] for t in doc["targets"]}
    assert flags["t000"] is True and flags["t001"] is False
    # the product target needs zero gates and its trajectory sums to zero
    outcome = doc["targets"][0]
    assert outcome["r_star"] == 0
    assert outcome["min_bin"] == 0


def test_degenerate_uses_the_configured_measure(tmp_path, bell):
    # |0> (x) Bell is entangled, but not across the cut that keeps qubit 0
    product_with_bell = StateVector(3, np.kron([1.0, 0.0], bell.amplitudes))
    save_state(product_with_bell, tmp_path / "t.json")
    doc = {"n": 3, "targets": {"files": ["t.json"]}, **LEAN}
    by_measure = {}
    for measure, extra in (("vonneumann", {"cut": [0]}), ("geometric", {})):
        config = ExperimentConfig.from_dict(
            {**doc, "measure": measure, **extra}, base_dir=tmp_path)
        by_measure[measure] = evaluate_target(config, 0)
    assert by_measure["vonneumann"].degenerate
    assert abs(by_measure["vonneumann"].target_entanglement) < 1e-9
    assert not by_measure["geometric"].degenerate
    assert np.isclose(by_measure["geometric"].target_entanglement, 0.5, atol=1e-6)


def test_synthesis_failures_are_counted_not_fatal(tmp_path, ghz3):
    # GHZ3 needs two gates, so with r_max 1 every target fails to synthesize
    files = []
    for i in range(3):
        save_state(ghz3, tmp_path / f"g{i}.json")
        files.append(str(tmp_path / f"g{i}.json"))
    config = lean_config(fidelity_tol=1e-12,
                         budget={"restarts": 1, "iters": 3}, r_max=1,
                         targets={"files": files, "seed": 21})
    doc = report_to_dict(config, harness.run_experiment(config))
    assert doc["aggregate"]["num_synthesis_failures"] == 3
    for target in doc["targets"]:
        assert target["r_star"] is None
        assert target["success"] is None
        assert target["records"] == []
        # one gate leaves a qubit of GHZ3 alone, which rules it out: no
        # layout is searched, and the ceiling is the weight of any cut
        assert target["best_fidelity_per_r"] == {}
        assert set(target["fidelity_bound_per_r"]) == {"1"}
        assert abs(target["fidelity_bound_per_r"]["1"] - 0.5) <= 1e-12


def test_report_targets_hold_exactly_the_outcome_fields(tmp_path, ghz3):
    save_state(ghz3, tmp_path / "g.json")
    fields = {f.name for f in dataclasses.fields(harness.TargetOutcome)}
    config = lean_config()
    found = report_to_dict(config, harness.run_experiment(config))
    failing = lean_config(budget={"restarts": 1, "iters": 3}, r_max=1,
                          targets={"files": [str(tmp_path / "g.json")], "seed": 21})
    not_found = report_to_dict(failing, harness.run_experiment(failing))
    assert not_found["targets"][0]["r_star"] is None
    for target in found["targets"] + not_found["targets"]:
        assert set(target) == fields


def test_conjecture_run_is_parallel_invariant():
    config = lean_config()
    serial = report_to_dict(config, harness.run_experiment(config, jobs=1))
    parallel = report_to_dict(config, harness.run_experiment(config, jobs=3))
    assert canonical_json(serial) == canonical_json(parallel)


@pytest.mark.parametrize("jobs,pools", [(1, []), (2, [2]), (3, [3]), (64, [3])])
def test_the_pool_has_at_most_one_worker_per_target(monkeypatch, inline_pool, jobs, pools):
    monkeypatch.setattr(harness, "evaluate_target", lambda config, index: index)
    assert harness.run_experiment(lean_config(), jobs=jobs) == (0, 1, 2)
    assert inline_pool == pools


def test_report_structure_and_internal_consistency():
    config = lean_config()
    doc = report_to_dict(config, harness.run_experiment(config))
    assert doc["config"] == config.to_dict()
    agg = doc["aggregate"]
    evaluated = [t for t in doc["targets"] if t["success"] is not None]
    block = agg["all_targets"]
    assert block["trials"] == len(evaluated)
    assert block["successes"] == sum(1 for t in evaluated if t["success"])
    if block["trials"]:
        assert block["success_rate"] == block["successes"] / block["trials"]
        assert np.isclose(block["epsilon_hat"], 1.0 - block["success_rate"])
        low, high = block["success_rate_ci95"]
        assert low <= block["success_rate"] <= high
        el, eh = block["epsilon_hat_ci95"]
        assert np.isclose(el, 1.0 - high) and np.isclose(eh, 1.0 - low)
    for target in doc["targets"]:
        if target["success"] is None:
            continue
        bins = [rec["family_bin"] for rec in target["records"]]
        assert target["min_bin"] == min(bins)
        optimal = [rec["family_bin"] for rec in target["records"]
                   if rec["is_optimal_r"]]
        assert target["min_bin_optimal_r"] == min(optimal)
        assert target["success"] == (target["min_bin_optimal_r"] == target["min_bin"])
        # collection replays the search's witness, so it shares its seed
        first_optimal = next(rec for rec in target["records"] if rec["is_optimal_r"])
        assert first_optimal["achieved_fidelity"] == target["witness_fidelity"]
    json.loads(canonical_json(doc))  # canonical form is valid JSON


def test_records_csv_layout(tmp_path):
    config = lean_config(targets={"count": 2, "r_gen": 2, "seed": 8})
    outcomes = harness.run_experiment(config)
    out = tmp_path / "records.csv"
    write_records_csv(outcomes, out)
    lines = out.read_text().splitlines()
    header = ("target_id,record_id,r,is_optimal_r,sum_value,family_bin,"
              "achieved_fidelity,architecture")
    assert lines[0] == header
    total_records = sum(len(o.records) for o in outcomes)
    assert len(lines) == 1 + total_records
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0].startswith("t00")
        assert cells[3] in ("true", "false")
        int(cells[2]), int(cells[5])
        float(cells[4]), float(cells[6])
