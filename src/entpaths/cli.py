"""Command-line front end.

Subcommands
-----------
simulate    run a (random or saved) circuit and export its entanglement
            trajectory as CSV plus a JSON summary
paths       enumerate every configuration path of a circuit and cross-check
            the summed amplitudes against direct simulation
deutsch     write the two-qubit interference table for one oracle variant
conjecture  run the full minimum-entanglement-path experiment from a config
selftest    print a pass/fail table of built-in numerical checks

Every writing subcommand drops a ``manifest.json`` next to its outputs that
echoes the fully resolved config; pointing ``--config`` at a manifest reruns
that run.  Exit codes: 0 ok, 2 config error, 3 resource cap, 4 selftest
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .canonical import write_canonical_json, write_csv
from .core import (MAX_QUBITS, ResourceCapError, StateVector, config_label,
                   fixture_state, load_circuit, random_architecture,
                   random_circuit, run_circuit, save_circuit, haar_random_su4)
from .entanglement import (GEO_RESTARTS, Measure, geometric_entanglement,
                           von_neumann_entropy)
from .harness import (ExperimentConfig, report_to_dict, run_experiment,
                      write_records_csv)
from .paths import DEFAULT_PATH_CAP, DEUTSCH_VARIANTS, deutsch_path_table, path_sums
from .trajectories import export_trajectory, trajectory, trajectory_summary
from .validation import (ConfigError, check_fields, cut_field, int_field,
                         measure_field, need)

ARTIFACT_VERSION = __version__


# --- config plumbing ------------------------------------------------------


def _load_config(path, subcommand: str) -> dict:
    """Read a JSON config; a manifest from an earlier run is unwrapped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "artifact_version" in doc and "config" in doc:
        recorded = doc.get("subcommand")
        if recorded != subcommand:
            raise ConfigError(
                f"manifest records subcommand {recorded!r}, not {subcommand!r}")
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _cut_from_bitmask(mask: str, num_qubits: int) -> list[int]:
    """Bitmask string -> kept-qubit indices; leftmost character is qubit 0.

    The result is checked like a config cut (cut_field) by the caller.
    """
    need(mask and all(c in "01" for c in mask), "--cut",
         f"must be 0/1 characters, got {mask!r}")
    need(len(mask) == num_qubits, "--cut",
         f"needs one bit per qubit ({num_qubits}), got {len(mask)}")
    return [i for i, c in enumerate(mask) if c == "1"]


def _circuit_for(doc: dict, config_dir: Path):
    """Shared n/r/seed/circuit_file resolution for simulate and paths.

    Returns (circuit, resolved-config fragment); a circuit_file pins the
    circuit exactly, otherwise (n, r) plus the seed draw a random one.
    """
    seed = int_field(doc, "seed", 0, low=0)
    if "circuit_file" in doc:
        need("n" not in doc and "r" not in doc, "circuit_file",
             "fixes n and r; drop those fields")
        raw = doc["circuit_file"]
        need(isinstance(raw, str) and raw, "circuit_file", "must be a path")
        resolved = raw if Path(raw).is_absolute() else str((config_dir / raw).resolve())
        try:
            circuit = load_circuit(resolved)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"circuit_file: cannot load {resolved}: {exc}") from None
        need(circuit.num_qubits >= 2, "circuit_file",
             f"must hold a circuit on at least 2 qubits, as n must; got {circuit.num_qubits}")
        return circuit, {"circuit_file": resolved, "seed": seed}
    need("n" in doc, "n", "is required (or give circuit_file)")
    n = int_field(doc, "n", None, low=2, high=MAX_QUBITS)
    need("r" in doc, "r", "is required (or give circuit_file)")
    r = int_field(doc, "r", None, low=0)
    rng = np.random.default_rng(seed)
    circuit = random_circuit(n, random_architecture(n, r, rng), rng)
    return circuit, {"n": n, "r": r, "seed": seed}


def _write_manifest(out_dir: Path, subcommand: str, root_seed: int,
                    resolved: dict) -> None:
    write_canonical_json(out_dir / "manifest.json", {
        "artifact_version": ARTIFACT_VERSION,
        "subcommand": subcommand,
        "root_seed": root_seed,
        "config": resolved,
    })


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- simulate -------------------------------------------------------------


def cmd_simulate(args) -> int:
    doc = _load_config(args.config, "simulate")
    check_fields(doc, {"n", "r", "seed", "circuit_file", "measure", "cut",
                       "run_id", "geo_restarts"})
    doc = dict(doc)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.measure is not None:
        doc["measure"] = args.measure

    circuit, resolved = _circuit_for(doc, Path(args.config).resolve().parent)
    n = circuit.num_qubits
    if args.cut is not None:
        doc["cut"] = _cut_from_bitmask(args.cut, n)
    cut = cut_field(doc["cut"], n) if "cut" in doc else None
    measure = measure_field(doc.get("measure", "geometric"), cut)
    run_id = doc.get("run_id", "run")
    need(isinstance(run_id, str) and run_id
         and not any(c in run_id for c in ',"\n\r'),
         "run_id", "must be a plain string without commas or quotes")
    geo_restarts = int_field(doc, "geo_restarts", GEO_RESTARTS, low=1)

    resolved.update({"measure": measure.value, "run_id": run_id,
                     "geo_restarts": geo_restarts})
    if cut is not None:
        resolved["cut"] = list(cut)

    values = trajectory(run_circuit(circuit), measure, cut=cut, geo_restarts=geo_restarts)

    out = _out_dir(args)
    save_circuit(circuit, out / "circuit.json")
    export_trajectory(run_id, measure, values, out / "trajectory.csv")
    summary = trajectory_summary(run_id, measure, values)
    write_canonical_json(out / "summary.json", summary)
    _write_manifest(out, "simulate", resolved["seed"], resolved)
    print(f"simulate: R={circuit.num_gates} n={n} "
          f"sum={summary['sum']:.6g} -> {out}")
    return 0


# --- paths ----------------------------------------------------------------


def cmd_paths(args) -> int:
    doc = _load_config(args.config, "paths")
    check_fields(doc, {"n", "r", "seed", "circuit_file", "q0", "path_cap"})
    doc = dict(doc)
    if args.seed is not None:
        doc["seed"] = args.seed

    circuit, resolved = _circuit_for(doc, Path(args.config).resolve().parent)
    n = circuit.num_qubits
    q0_label = doc.get("q0", "0" * n)
    need(isinstance(q0_label, str) and len(q0_label) == n
         and all(c in "01" for c in q0_label),
         "q0", f"must be a length-{n} bitstring")
    path_cap = int_field(doc, "path_cap", DEFAULT_PATH_CAP, low=1)
    resolved.update({"q0": q0_label, "path_cap": path_cap})

    q0 = int(q0_label, 2)
    sums, num_paths = path_sums(circuit, q0, path_cap=path_cap)
    direct = run_circuit(circuit, StateVector.basis_state(n, q0))[-1].amplitudes
    residuals = np.abs(sums - direct)

    out = _out_dir(args)
    rows = [(config_label(i, n),
             direct[i].real, direct[i].imag, sums[i].real, sums[i].imag,
             residuals[i]) for i in range(2**n)]
    write_csv(out / "residuals.csv",
              ["configuration", "direct_re", "direct_im",
               "path_sum_re", "path_sum_im", "abs_residual"], rows)
    write_canonical_json(out / "summary.json", {
        "n": n,
        "r": circuit.num_gates,
        "q0": q0_label,
        "num_paths": num_paths,
        "expected_paths": 4**circuit.num_gates,
        "max_abs_residual": float(residuals.max()),
        "path_cap": path_cap,
    })
    save_circuit(circuit, out / "circuit.json")
    _write_manifest(out, "paths", resolved["seed"], resolved)
    print(f"paths: {num_paths} paths, max residual {residuals.max():.3g} -> {out}")
    return 0


# --- deutsch --------------------------------------------------------------


def cmd_deutsch(args) -> int:
    doc = {} if args.config is None else _load_config(args.config, "deutsch")
    check_fields(doc, {"variant"})
    variant = args.variant if args.variant is not None else doc.get("variant", "not_x")
    need(isinstance(variant, str) and variant in DEUTSCH_VARIANTS, "variant",
         f"must be one of {sorted(DEUTSCH_VARIANTS)}")

    report = deutsch_path_table(variant)
    out = _out_dir(args)
    write_csv(out / "interference.csv",
              ("step", "configuration", "amplitude_re", "amplitude_im"),
              [(step["step"], a["configuration"], a["re"], a["im"])
               for step in report["steps"] for a in step["amplitudes"]])
    write_canonical_json(out / "report.json", report)
    _write_manifest(out, "deutsch", 0, {"variant": variant})
    kind = "balanced" if report["balanced"] else "constant"
    print(f"deutsch: f is {kind}, first qubit -> {report['outcome_bit']} "
          f"(P={report['probability_first_qubit_one']:.3g}) -> {out}")
    return 0


# --- conjecture -----------------------------------------------------------


def cmd_conjecture(args) -> int:
    need(args.jobs >= 1, "--jobs", f"must be >= 1, got {args.jobs}")
    doc = _load_config(args.config, "conjecture")
    doc = dict(doc)
    if args.seed is not None:
        targets = doc.get("targets")
        need(isinstance(targets, dict), "targets", "must be an object")
        doc["targets"] = dict(targets, seed=args.seed)
    if args.measure is not None:
        doc["measure"] = args.measure
    if args.cut is not None:
        n = int_field(doc, "n", None, low=2, high=MAX_QUBITS)
        doc["cut"] = _cut_from_bitmask(args.cut, n)

    config = ExperimentConfig.from_dict(doc, base_dir=Path(args.config).resolve().parent)
    outcomes = run_experiment(config, jobs=args.jobs)

    out = _out_dir(args)
    config = config.targets_relative_to(out)  # as a rerun from the manifest reads them
    doc_out = report_to_dict(config, outcomes)
    write_canonical_json(out / "report.json", doc_out)
    write_records_csv(outcomes, out / "records.csv")
    _write_manifest(out, "conjecture", config.seed, config.to_dict())
    agg = doc_out["aggregate"]["all_targets"]
    line = f"conjecture: {doc_out['aggregate']['num_targets']} targets"
    if agg["trials"]:
        low, high = agg["success_rate_ci95"]
        line += f", success rate {agg['success_rate']:.3g} [{low:.3g}, {high:.3g}]"
    print(f"{line} -> {out}")
    return 0


# --- selftest -------------------------------------------------------------


def _selftest_checks() -> list[tuple[str, float, float, float]]:
    """(name, value, target, tolerance) rows; a row passes iff
    |value - target| <= tolerance."""
    checks = []
    product = StateVector.zero_state(3)
    checks.append(("E_G |000>", geometric_entanglement(product), 0.0, 1e-9))
    checks.append(("E_G bell", geometric_entanglement(fixture_state("bell")),
                   0.5, 1e-6))
    checks.append(("E_G ghz3", geometric_entanglement(fixture_state("ghz3")),
                   0.5, 1e-6))
    checks.append(("E_G w3", geometric_entanglement(fixture_state("w3")),
                   5.0 / 9.0, 1e-4))
    checks.append(("S bell marginal",
                   von_neumann_entropy(fixture_state("bell"), [0]), 1.0, 1e-9))
    checks.append(("S w3 marginal", von_neumann_entropy(fixture_state("w3"), [0]),
                   -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3), 1e-6))

    rng = np.random.default_rng(7)
    n, r = 3, 3
    circuit = random_circuit(n, random_architecture(n, r, rng), rng)
    sums, count = path_sums(circuit, 0)
    direct = run_circuit(circuit)[-1].amplitudes
    checks.append(("path count == 4^R", float(count), float(4**r), 0.0))
    checks.append(("path-sum residual", float(np.abs(sums - direct).max()),
                   0.0, 1e-9))

    samples = 10_000
    rng = np.random.default_rng(11)
    mean_sq = np.zeros((4, 4))
    worst_unitarity = 0.0
    eye = np.eye(4)
    for _ in range(samples):
        u = haar_random_su4(rng)
        mean_sq += np.abs(u) ** 2
        worst_unitarity = max(worst_unitarity,
                              float(np.abs(u.conj().T @ u - eye).max()))
    mean_sq /= samples
    # |U_ij|^2 has mean 1/4 and variance 3/80 under the Haar measure
    se = math.sqrt(3.0 / 80.0 / samples)
    checks.append(("haar mean |U_ij|^2 dev", float(np.abs(mean_sq - 0.25).max()),
                   0.0, 3.0 * se))
    checks.append(("haar unitarity residual", worst_unitarity, 0.0, 1e-10))
    return checks


def cmd_selftest(args) -> int:
    checks = _selftest_checks()
    width = max(len(name) for name, *_ in checks)
    failures = 0
    print(f"{'check':<{width}}  {'value':>13}  {'target':>13}  {'tol':>9}  status")
    for name, value, target, tol in checks:
        ok = abs(value - target) <= tol
        failures += 0 if ok else 1
        print(f"{name:<{width}}  {value:>13.6g}  {target:>13.6g}  {tol:>9.1e}  "
              f"{'pass' if ok else 'FAIL'}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 4


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entpaths",
        description="Entanglement trajectories, path sums, and the "
                    "minimum-entanglement-path experiment.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, seed=True, jobs=False, measure=False, config_required=True):
        p.add_argument("--config", metavar="PATH", required=config_required,
                       help="JSON config (a manifest.json also works)")
        if seed:
            p.add_argument("--seed", type=int, metavar="U64",
                           help="override the config seed")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (default: current directory)")
        if jobs:
            p.add_argument("--jobs", type=int, metavar="N", default=1,
                           help="worker processes (default 1), at most one "
                                "worker per target; never changes the outputs")
        if measure:
            p.add_argument("--measure", choices=[m.value for m in Measure],
                           help="override the config entanglement measure")
            p.add_argument("--cut", metavar="BITMASK",
                           help="kept qubits for vonneumann, e.g. 110 keeps "
                                "qubits 0 and 1 (leftmost bit is qubit 0)")

    p = sub.add_parser("simulate", help="circuit run -> trajectory CSV")
    common(p, measure=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("paths", help="path enumeration vs direct simulation")
    common(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("deutsch", help="oracle interference table")
    common(p, seed=False, config_required=False)
    p.add_argument("--variant", choices=sorted(DEUTSCH_VARIANTS),
                   help="oracle choice (default not_x)")
    p.set_defaults(func=cmd_deutsch)

    p = sub.add_parser("conjecture", help="full experiment from a config")
    common(p, jobs=True, measure=True)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("selftest", help="built-in numerical checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
