"""The benchmark's workloads: inputs made from a seed, CLI argv, output checks.

Each workload is one ``entpaths`` CLI invocation.  Its inputs (configs and,
for the conjecture runs, target-state files) are written by the benchmark
from the seed and an input-set number alone; the program only reads them.  ``check`` validates the
outputs of one invocation and reports how many of its operations failed.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The conjecture config of the performance baseline; targets come from files.
CONJECTURE_BASE = {
    "fidelity_tol": 1e-4,
    "r_max": 3,
    "budget": {"restarts": 16, "iters": 500},
    "samples_per_r": 3,
    "geo_restarts": 16,
    "max_architectures": 64,
}
# Every target is two Haar-random gates on this layout, applied to |0..0>.
# A fixed layout keeps the synthesis search path (architectures tried, and
# the gate count found) the same for every seed while the states change.
TARGET_LAYOUT = ((0, 1), (1, 2))
PATH_RESIDUAL_TOL = 1e-9


def _haar_su4(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 4x4 unitary (QR of a complex Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def make_target(num_qubits: int, rng: np.random.Generator) -> dict:
    """A state document (entpaths' state JSON schema) for TARGET_LAYOUT.

    Qubit 0 is the most significant bit; a gate on (j, k) acts on the index
    2*b_j + b_k, matching the package's conventions.
    """
    psi = np.zeros((2,) * num_qubits, dtype=complex)
    psi[(0,) * num_qubits] = 1.0
    for j, k in TARGET_LAYOUT:
        gate = _haar_su4(rng).reshape(2, 2, 2, 2)
        psi = np.moveaxis(np.tensordot(gate, psi, axes=([2, 3], [j, k])), (0, 1), (j, k))
    flat = []
    for z in psi.reshape(-1):
        flat += [float(z.real), float(z.imag)]
    return {"num_qubits": num_qubits, "amplitudes": flat}


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Outcome:
    """Checked result of one invocation."""

    ops: int
    failed: int
    digest: str | None = None
    r_star_mean: float = 0.0
    not_found_frac: float = 0.0


@dataclass(frozen=True)
class Conjecture:
    name: str
    num_qubits: int
    targets: int
    twin_jobs: int | None = None  # a second --jobs whose report must match
    measure: str = "geometric"
    cut: tuple[int, ...] | None = None

    # The work of a target set varies with its states (one set of four takes
    # up to 1.2x the time of another), so a timed run gives each invocation
    # a set of its own and averages over all the targets it gets through.
    fresh_inputs = True
    # host-speed probe kinds (hostspeed.PROBES): Python control flow, small
    # numpy products and scipy's L-BFGS-B, as in synthesis
    probe = ("python", "numpy", "scipy")

    @property
    def fidelity_threshold(self) -> float:
        return 1.0 - CONJECTURE_BASE["fidelity_tol"]

    def prepare(self, seed: int, workdir: Path, inputs: int = 0) -> Path:
        """Write target set `inputs` and its config; returns the config path."""
        workdir = workdir / f"set{inputs:02d}"
        workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for i in range(self.targets):
            rng = np.random.default_rng([seed, self.num_qubits, inputs, i])
            path = workdir / f"target{i:02d}.json"
            path.write_text(json.dumps(make_target(self.num_qubits, rng)))
            files.append(path.name)
        doc = dict(CONJECTURE_BASE, n=self.num_qubits, measure=self.measure,
                   targets={"files": files, "seed": seed})
        if self.cut is not None:
            doc["cut"] = list(self.cut)
        config = workdir / "config.json"
        config.write_text(json.dumps(doc))
        return config

    def argv(self, config: Path, out: Path, jobs: int = 1) -> list[str]:
        return ["conjecture", "--config", str(config), "--out", str(out),
                "--jobs", str(jobs)]

    # an operation is a target; throughput counts targets too
    work_unit = "targets_per_s"

    @property
    def ops(self) -> int:
        return self.targets

    @property
    def work(self) -> int:
        return self.targets

    def check(self, out: Path) -> Outcome:
        report_path = out / "report.json"
        doc = json.loads(report_path.read_text())
        bad = set()
        if not _aggregate_consistent(doc["aggregate"], self.targets):
            bad = set(range(self.targets))
        found = []
        for i, target in enumerate(doc["targets"]):
            if target["r_star"] is None:
                if target["success"] is not None or target["records"]:
                    bad.add(i)
                continue
            found.append(target["r_star"])
            ok = (target["min_bin"] is not None
                  and target["success"] == (target["min_bin_optimal_r"] == target["min_bin"])
                  and target["r_star"] <= len(TARGET_LAYOUT)
                  and all(rec["achieved_fidelity"] >= self.fidelity_threshold
                          for rec in target["records"]))
            if not ok:
                bad.add(i)
        return Outcome(self.targets, len(bad), digest([report_path]),
                       r_star_mean=sum(found) / len(found) if found else 0.0,
                       not_found_frac=(self.targets - len(found)) / self.targets)


def _aggregate_consistent(aggregate: dict, count: int) -> bool:
    """The report-consistency rules of the acceptance suite's experiment test."""
    if aggregate["num_targets"] != count:
        return False
    evaluated = count - aggregate["num_synthesis_failures"]
    if aggregate["all_targets"]["trials"] != evaluated:
        return False
    if aggregate["excluding_degenerate"]["trials"] != evaluated - aggregate["num_degenerate"]:
        return False
    for block in (aggregate["all_targets"], aggregate["excluding_degenerate"]):
        if block["trials"] == 0:
            continue
        rate = block["success_rate"]
        low, high = block["success_rate_ci95"]
        eps_low, eps_high = block["epsilon_hat_ci95"]
        if not (block["successes"] == round(rate * block["trials"])
                and 0.0 <= low <= rate <= high <= 1.0
                and block["epsilon_hat"] == 1.0 - rate
                and eps_low == 1.0 - high and eps_high == 1.0 - low):
            return False
    return True


@dataclass(frozen=True)
class Paths:
    name: str
    num_qubits: int
    gates: int

    # the work is 4**gates paths whatever the seed, so every invocation of a
    # run repeats the same circuit
    fresh_inputs = False
    # the path walk is recursive Python generators multiplying numpy
    # matrix entries; no scipy
    probe = ("python", "numpy")

    def prepare(self, seed: int, workdir: Path, inputs: int = 0) -> Path:
        config = workdir / "config.json"
        config.write_text(json.dumps({"n": self.num_qubits, "r": self.gates,
                                      "seed": seed, "q0": "0" * self.num_qubits}))
        return config

    def argv(self, config: Path, out: Path, jobs: int = 1) -> list[str]:
        return ["paths", "--config", str(config), "--out", str(out)]

    # an operation is the circuit run; throughput counts its paths
    ops = 1
    work_unit = "paths_per_s"
    twin_jobs = None
    fidelity_threshold = 1.0  # unused: no synthesis

    @property
    def work(self) -> int:
        return 4**self.gates

    def check(self, out: Path) -> Outcome:
        summary = json.loads((out / "summary.json").read_text())
        ok = (summary["num_paths"] == 4**self.gates == summary["expected_paths"]
              and summary["max_abs_residual"] < PATH_RESIDUAL_TOL)
        return Outcome(1, 0 if ok else 1,
                       digest([out / "summary.json", out / "residuals.csv"]))


WORKLOADS = {
    w.name: w for w in (
        Conjecture("conj-geo-n3", num_qubits=3, targets=4),
        # two targets an invocation: at n=4 a slow spell of the host leaves
        # time for only two invocations of four targets in a 30-second run,
        # too few to average out the work that differs from set to set
        Conjecture("conj-vn-n4", num_qubits=4, targets=2, twin_jobs=2,
                   measure="vonneumann", cut=(0, 1)),
        Paths("paths-n4-r10", num_qubits=4, gates=10),
    )
}
