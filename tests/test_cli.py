import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entpaths import harness
from entpaths.canonical import write_canonical_json
from entpaths.cli import main
from entpaths.core import (StateVector, fixture_state, load_circuit, random_circuit,
                           run_circuit, save_circuit, save_state)
from entpaths.paths import deutsch_path_table
from entpaths.synthesis import ComplexityNotFound


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    write_canonical_json(path, doc)
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def read_trajectory_rows(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_simulate_writes_the_full_artifact_set(tmp_path):
    config = write_config(tmp_path, "sim.json", {"n": 3, "r": 3, "seed": 5})
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "circuit.json", "trajectory.csv", "summary.json", "manifest.json"}
    summary = read_json(out / "summary.json")
    assert summary["R"] == 3
    assert summary["measure"] == "geometric"
    rows = read_trajectory_rows(out / "trajectory.csv")
    assert [(row["run_id"], row["k"]) for row in rows] == [("run", str(k)) for k in range(4)]
    circuit = load_circuit(out / "circuit.json")
    assert circuit.num_gates == 3
    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == "simulate"
    assert manifest["root_seed"] == 5
    assert manifest["config"]["n"] == 3


def test_simulate_zero_gate_run_scores_the_initial_state_alone(tmp_path):
    config = write_config(tmp_path, "sim.json", {"n": 3, "r": 0, "seed": 1})
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    rows = read_trajectory_rows(out / "trajectory.csv")
    assert rows == [{"run_id": "run", "k": "0", "entanglement": "0.0",
                     "measure_tag": "geometric"}]
    summary = read_json(out / "summary.json")
    assert (summary["R"], summary["sum"], summary["max_jump"]) == (0, 0.0, 0.0)


def test_simulate_entropy_measure_via_flags(tmp_path):
    config = write_config(tmp_path, "sim.json", {"n": 2, "r": 2, "seed": 1})
    out = tmp_path / "out"
    code = main(["simulate", "--config", config, "--out", str(out),
                 "--measure", "vonneumann", "--cut", "10"])
    assert code == 0
    summary = read_json(out / "summary.json")
    assert summary["measure"] == "vonneumann"
    assert read_json(out / "manifest.json")["config"]["cut"] == [0]


def test_simulate_entropy_without_cut_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "sim.json",
                          {"n": 2, "r": 1, "seed": 1, "measure": "vonneumann"})
    code = main(["simulate", "--config", config, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "cut" in capsys.readouterr().err


def test_simulate_from_circuit_file(tmp_path):
    config = write_config(tmp_path, "a.json", {"n": 2, "r": 2, "seed": 9})
    out_a = tmp_path / "a"
    main(["simulate", "--config", config, "--out", str(out_a)])
    config_b = write_config(tmp_path, "b.json", {"circuit_file": "a/circuit.json"})
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", config_b, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == \
           (out_b / "trajectory.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, "sim.json", {"n": 2, "r": 2, "seed": 1})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["simulate", "--config", config, "--out", str(out1), "--seed", "2"])
    main(["simulate", "--config", config, "--out", str(out2)])
    assert read_json(out1 / "manifest.json")["root_seed"] == 2
    assert (out1 / "circuit.json").read_bytes() != (out2 / "circuit.json").read_bytes()


def test_unknown_config_field_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, "sim.json",
                          {"n": 2, "r": 1, "seed": 0, "typo": True})
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2
    assert "typo" in capsys.readouterr().err


def test_paths_residuals_are_tiny(tmp_path):
    config = write_config(tmp_path, "p.json",
                          {"n": 3, "r": 2, "seed": 3, "q0": "101"})
    out = tmp_path / "out"
    assert main(["paths", "--config", config, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["num_paths"] == 16
    assert summary["expected_paths"] == 16
    assert summary["q0"] == "101"
    assert summary["max_abs_residual"] < 1e-12
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == ("configuration,direct_re,direct_im,"
                       "path_sum_re,path_sum_im,abs_residual")
    assert len(lines) == 1 + 8


def test_paths_from_a_circuit_file_with_reversed_pairs(tmp_path):
    slots = ((2, 0), (3, 1), (0, 1), (3, 2))
    save_circuit(random_circuit(4, slots, 8), tmp_path / "c.json")
    config = write_config(tmp_path, "p.json", {"circuit_file": "c.json", "q0": "0110"})
    out = tmp_path / "out"
    assert main(["paths", "--config", config, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["num_paths"] == 4**4
    assert summary["max_abs_residual"] < 1e-9
    assert [gate.qubit_pair for gate in load_circuit(out / "circuit.json").gates] == list(slots)


def test_paths_resource_cap_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, "p.json",
                          {"n": 2, "r": 6, "seed": 0, "path_cap": 100})
    assert main(["paths", "--config", config, "--out", str(tmp_path / "x")]) == 3
    assert "4096" in capsys.readouterr().err  # the 4**R estimate


@pytest.mark.parametrize("variant,outcome", [
    ("not_x", 1), ("x", 1), ("zero", 0), ("one", 0),
])
def test_deutsch_subcommand(tmp_path, variant, outcome):
    out = tmp_path / variant
    assert main(["deutsch", "--variant", variant, "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["variant"] == variant
    assert report["outcome_bit"] == outcome
    assert report == deutsch_path_table(variant)
    lines = (out / "interference.csv").read_text().splitlines()
    assert lines[0] == "step,configuration,amplitude_re,amplitude_im"
    assert len(lines) == 1 + 4 * 4  # header + 4 configurations x 4 snapshots


@pytest.mark.parametrize("variant", [["x"], None, 3, "bogus"])
def test_deutsch_config_variant_must_be_a_known_name(tmp_path, capsys, variant):
    # only an absent variant defaults to not_x; null is not absent
    config = write_config(tmp_path, "d.json", {"variant": variant})
    assert main(["deutsch", "--config", config, "--out", str(tmp_path / "d")]) == 2
    assert "config error: variant " in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_deutsch_defaults_to_not_x(tmp_path):
    out = tmp_path / "d"
    assert main(["deutsch", "--out", str(out)]) == 0
    assert read_json(out / "report.json")["variant"] == "not_x"


def test_conjecture_jobs_do_not_change_bytes(tmp_path):
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"count": 2, "r_gen": 1, "seed": 7},
        "budget": {"restarts": 6, "iters": 400}, "samples_per_r": 2,
        "geo_restarts": 8, "r_max": 2})
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["conjecture", "--config", config, "--out", str(out1),
                 "--jobs", "1"]) == 0
    assert main(["conjecture", "--config", config, "--out", str(out2),
                 "--jobs", "2"]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)
    report = read_json(out1 / "report.json")
    assert report["aggregate"]["num_targets"] == 2


def test_file_targets_give_the_same_bytes_from_any_directory(tmp_path):
    # one config and its target files, copied into two directories
    outputs = []
    for where in ("a", "b/deeper"):
        root = tmp_path / where
        (root / "targets").mkdir(parents=True)
        for i in range(2):
            circuit = random_circuit(3, ((0, 1), (1, 2)), np.random.default_rng((9, i)))
            save_state(run_circuit(circuit)[-1], root / "targets" / f"t{i}.json")
        config = write_config(root, "c.json", {
            "n": 3, "targets": {"files": ["targets/t0.json", "targets/t1.json"], "seed": 4},
            "budget": {"restarts": 4, "iters": 200}, "samples_per_r": 1,
            "geo_restarts": 4, "r_max": 2})
        assert main(["conjecture", "--config", config, "--out", str(root / "out")]) == 0
        outputs.append(root / "out")
    for name in ("report.json", "manifest.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    # echoed relative to the output directory, from which a rerun reads them
    assert read_json(outputs[0] / "report.json")["config"]["targets"]["files"] == [
        "../targets/t0.json", "../targets/t1.json"]


@pytest.mark.parametrize("out", ["first", "runs/first"])
def test_conjecture_rerun_from_manifest_with_file_targets(tmp_path, out):
    # the outputs are not written next to the config, so the manifest's
    # paths must hold relative to the manifest's own directory
    (tmp_path / "in" / "targets").mkdir(parents=True)
    absolute = tmp_path / "elsewhere.json"
    for i, path in enumerate((tmp_path / "in" / "targets" / "t0.json", absolute)):
        circuit = random_circuit(3, ((0, 1), (1, 2)), np.random.default_rng((11, i)))
        save_state(run_circuit(circuit)[-1], path)
    config = write_config(tmp_path / "in", "c.json", {
        "n": 3, "targets": {"files": ["targets/t0.json", str(absolute)], "seed": 4},
        "budget": {"restarts": 4, "iters": 200}, "samples_per_r": 1,
        "geo_restarts": 4, "r_max": 2})
    out1 = tmp_path / out
    assert main(["conjecture", "--config", config, "--out", str(out1)]) == 0
    out2 = out1.parent / "second"
    assert main(["conjecture", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)
    assert read_json(out1 / "manifest.json")["config"]["targets"]["files"] == [
        os.path.relpath(tmp_path / "in" / "targets" / "t0.json", out1), str(absolute)]


def test_conjecture_rerun_from_manifest(tmp_path):
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"count": 1, "r_gen": 1, "seed": 2},
        "budget": {"restarts": 4, "iters": 300}, "samples_per_r": 1,
        "geo_restarts": 8, "r_max": 1})
    out1 = tmp_path / "first"
    main(["conjecture", "--config", config, "--out", str(out1)])
    out2 = tmp_path / "second"
    assert main(["conjecture", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_manifest_subcommand_mismatch_is_rejected(tmp_path, capsys):
    out = tmp_path / "d"
    main(["deutsch", "--out", str(out)])
    code = main(["paths", "--config", str(out / "manifest.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "deutsch" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_conjecture_file_targets_resolve_next_to_the_config(tmp_path):
    state = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    save_state(state, tmp_path / "bell.json")
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"files": ["bell.json"], "seed": 1},
        "budget": {"restarts": 6, "iters": 400}, "samples_per_r": 1,
        "geo_restarts": 8, "r_max": 2})
    out = tmp_path / "out"
    assert main(["conjecture", "--config", config, "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["targets"][0]["r_star"] == 1


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("pass" in line for line in lines)
    assert not any("FAIL" in line for line in lines)
    assert "10/10" in lines[-1]


def test_corrupt_circuit_file_is_a_config_error(tmp_path, capsys):
    identity = np.eye(4, dtype=complex).ravel().view(float).tolist()
    for doc in ({"num_qubits": 2, "gates": [{"pair": [0, 1], "matrix": [1.0, 0.0]}]},
                {"num_qubits": 2, "gates": [{"pair": [0, 1], "matrix": [float("nan")] * 32}]},
                {"num_qubits": 2, "gates": 5},
                {"num_qubits": [2], "gates": []},
                # a circuit file obeys the bounds of n: at least 2 qubits
                {"num_qubits": 1, "gates": []},
                {"num_qubits": True, "gates": []},
                # qubit indices are JSON integers and entries JSON numbers,
                # though each of these reads as a valid gate when converted
                {"num_qubits": 2, "gates": [{"pair": [0.4, 1.9], "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": ["0", "1"], "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": [False, True], "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": [-1, 0], "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": [1, 1], "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": [0, 2], "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": [0, 1, 0], "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": 1, "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": "01", "matrix": identity}]},
                {"num_qubits": 2, "gates": [{"pair": [0, 1],
                                             "matrix": [str(v) for v in identity]}]},
                {"num_qubits": 2, "gates": [{"pair": [0, 1],
                                             "matrix": [bool(v) for v in identity]}]}):
        (tmp_path / "c.json").write_text(json.dumps(doc))
        config = write_config(tmp_path, "sim.json", {"circuit_file": "c.json"})
        for subcommand in ("simulate", "paths"):
            assert main([subcommand, "--config", config, "--out", str(tmp_path / "o")]) == 2
            assert "circuit_file" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    "not json {", None,
    pytest.param('{"num_qubits": 2, "amplitudes": 5}', id="amplitudes-not-a-list"),
    pytest.param('{"num_qubits": [2], "amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}',
                 id="num_qubits-a-list"),
    pytest.param('{"num_qubits": 2, "amplitudes": ["1", "0", "0", "0", "0", "0", "0", "0"]}',
                 id="amplitudes-strings"),
    pytest.param('{"num_qubits": 2, "amplitudes": [true, false, false, false, false, false,'
                 ' false, false]}', id="amplitudes-bools")])
def test_unreadable_target_file_is_a_config_error(tmp_path, capsys, content):
    if content is not None:
        (tmp_path / "t.json").write_text(content)
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"files": ["t.json"], "seed": 1},
        "budget": {"restarts": 2, "iters": 50}, "geo_restarts": 4, "r_max": 1})
    assert main(["conjecture", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "targets.files[0]" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("bad", ["missing", "malformed", "three-qubit"])
def test_a_bad_target_file_fails_before_any_search(tmp_path, capsys, monkeypatch,
                                                   inline_pool, jobs, bad):
    save_state(fixture_state("bell"), tmp_path / "good.json")
    if bad == "malformed":
        (tmp_path / "bad.json").write_text("not json {")
    elif bad == "three-qubit":
        save_state(fixture_state("w3"), tmp_path / "bad.json")
    searches = []

    def search(*args):
        searches.append(args)
        return ComplexityNotFound({1: 0.0}, {1: 1.0})

    monkeypatch.setattr(harness, "estimate_state_complexity", search)
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"files": ["good.json", "bad.json"], "seed": 1},
        "budget": {"restarts": 2, "iters": 50}, "geo_restarts": 4, "r_max": 1})
    out = tmp_path / "o"
    assert main(["conjecture", "--config", config, "--out", str(out), "--jobs", jobs]) == 2
    assert "targets.files[1]" in capsys.readouterr().err
    assert searches == [] and inline_pool == [] and not out.exists()


@pytest.mark.filterwarnings("error")
def test_huge_target_amplitudes_are_a_config_error_without_a_warning(tmp_path, capsys):
    # the norm of such a state would overflow; the entry is rejected first
    (tmp_path / "t.json").write_text(
        '{"num_qubits": 2, "amplitudes": [1e200, 0, 0, 0, 0, 0, 0, 0]}')
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"files": ["t.json"], "seed": 1},
        "budget": {"restarts": 2, "iters": 50}, "geo_restarts": 4, "r_max": 1})
    assert main(["conjecture", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "targets.files[0]" in err and "Warning" not in err


def test_conjecture_with_no_target_found_prints_no_rate(tmp_path, capsys):
    # no single gate prepares GHZ3, so with r_max 1 no target is evaluated
    save_state(fixture_state("ghz3"), tmp_path / "ghz3.json")
    config = write_config(tmp_path, "c.json", {
        "n": 3, "targets": {"files": ["ghz3.json"], "seed": 1},
        "budget": {"restarts": 2, "iters": 50}, "geo_restarts": 4, "r_max": 1})
    out = tmp_path / "o"
    assert main(["conjecture", "--config", config, "--out", str(out)]) == 0
    aggregate = read_json(out / "report.json")["aggregate"]
    assert aggregate["num_synthesis_failures"] == 1
    assert aggregate["all_targets"]["trials"] == 0
    assert "success rate" not in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, jobs):
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"count": 1, "r_gen": 1, "seed": 2},
        "budget": {"restarts": 2, "iters": 50}, "geo_restarts": 4, "r_max": 1})
    out = tmp_path / "o"
    assert main(["conjecture", "--config", config, "--out", str(out),
                 "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_a_delta_bin_too_small_to_bin_any_sum_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", {
        "n": 2, "targets": {"count": 1, "r_gen": 1, "seed": 1}, "delta_E_bin": 1e-310,
        "budget": {"restarts": 2, "iters": 50}, "geo_restarts": 2, "r_max": 1})
    out = tmp_path / "o"
    assert main(["conjecture", "--config", config, "--out", str(out)]) == 2
    assert "delta_E_bin" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("subcommand", ["simulate", "paths", "conjecture"])
def test_simulate_paths_and_conjecture_require_config(tmp_path, capsys, subcommand):
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_deutsch_takes_no_seed(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["deutsch", "--seed", "3", "--out", str(tmp_path / "d")])
    assert exit_info.value.code == 2


# Runs main in a fresh interpreter and reports, as its last stdout line,
# whether scipy.optimize was ever imported.
FRESH_MAIN = """
import sys
from entpaths.cli import main
code = main(sys.argv[1:])
print("scipy.optimize" in sys.modules)
sys.exit(code)
"""


def run_fresh_main(argv, cwd):
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("argv", [
    ["paths", "--config", "p.json", "--out", "out"],
    ["simulate", "--config", "s.json", "--out", "out"],
    ["deutsch", "--out", "out"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_subcommands_that_never_ascend_start_without_scipy_optimize(tmp_path, argv):
    write_config(tmp_path, "p.json", {"n": 3, "r": 2, "seed": 3})
    write_config(tmp_path, "s.json", {"n": 3, "r": 3, "seed": 5})
    assert not run_fresh_main(argv, tmp_path)


def test_conjecture_ascent_loads_scipy_optimize(tmp_path):
    # two-gate targets on three qubits: some restart passes _bfgs to
    # scipy.optimize.minimize
    config = write_config(tmp_path, "c.json", {
        "n": 3, "targets": {"count": 1, "r_gen": 2, "seed": 1},
        "budget": {"restarts": 2, "iters": 50}, "samples_per_r": 1,
        "geo_restarts": 2, "r_max": 2})
    assert run_fresh_main(["conjecture", "--config", config, "--out", "out"], tmp_path)
