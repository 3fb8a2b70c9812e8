"""Benchmark of the entpaths CLI: end-to-end metrics, or per-layer from a trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload conj-geo-n3 --seed 17 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 17 --seconds 30

Each workload drives ``entpaths.cli.main(argv)`` in this process, on inputs
made from ``--seed``, and checks every invocation's outputs.  ``--trace 0``
repeats the untraced invocation for about ``--seconds`` (a conjecture
workload on a fresh target set each time) and reports the end-to-end
metrics, its wall time scaled to a reference host speed (hostspeed.py);
``--trace 1`` runs it once untraced, then traced for
about ``--seconds``, and reports the per-layer metrics.  ``--workload all``
runs every workload both ways, each in its own process.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A full record (environment, every metric, digests) and, when tracing, the
spans go to ``perfbench/out/``.  The exit code is 0 when every check
passed, 1 when one failed and 2 when the package cannot be found.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
perf = time.perf_counter


def import_cli():
    """entpaths.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "entpaths" / "__init__.py").is_file():
        raise ImportError(f"no entpaths package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entpaths.cli
    if Path(entpaths.cli.__file__).resolve().parent != SRC / "entpaths":
        raise ImportError(f"entpaths imported from {entpaths.cli.__file__}, not {SRC}")
    return entpaths.cli


def environment() -> dict:
    import numpy
    import scipy
    try:  # the checkout may not be a repository; never look above it
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except FileNotFoundError:
        git_rev = None
    source = hashlib.sha256()
    for path in sorted((SRC / "entpaths").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{name: os.environ.get(name) for name in BLAS_ENV},
    }


def setup_seconds(argv: list[str]) -> list[float]:
    """Process start to ready-to-run: interpreter, numpy, scipy and entpaths
    imports, CLI parsing and config resolution, in fresh processes."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), *argv]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = perf() - start
            proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


class Invoker:
    """Runs one workload's CLI invocations and checks each one."""

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "cli-out"
        self.configs: dict[int, Path] = {}
        self.outcomes: list[tuple[int, Outcome]] = []  # (input set, outcome)
        self.scaled: list[float] = []  # reference seconds of the sampled invocations

    def argv(self, inputs: int = 0, jobs: int = 1) -> list[str]:
        if inputs not in self.configs:
            self.configs[inputs] = self.workload.prepare(self.seed, self.workdir, inputs)
        return self.workload.argv(self.configs[inputs], self.out, jobs)

    def __call__(self, jobs: int = 1, tracer=None, speed: HostSpeed | None = None,
                 inputs: int = 0) -> float:
        """One invocation on input set `inputs`; returns its wall time in
        seconds.  With `speed`, the host speed is sampled throughout and the
        invocation's time in reference seconds is appended to `scaled`."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.argv(inputs, jobs)
        sink = io.StringIO()
        code = None
        sampling = speed.sampling() if speed else contextlib.nullcontext()
        start = perf()
        try:
            with sampling, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    tracer.run_id = f"{self.workload.name}-{len(self.outcomes)}"
                    code = tracer.call("cli.main", self.cli.main, argv)
        except Exception:  # an invocation that raises fails all its operations
            traceback.print_exc()
        wall = perf() - start
        if speed:
            self.scaled.append(speed.scaled(wall))
        outcome = None
        if code == 0:
            try:
                outcome = self.workload.check(self.out)
            except (OSError, ValueError, KeyError, TypeError):
                traceback.print_exc()
        else:
            print(f"entpaths {' '.join(argv)} exited with {code}:\n{sink.getvalue()}",
                  file=sys.stderr)
        if outcome is None:
            outcome = Outcome(self.workload.ops, self.workload.ops)
        self.outcomes.append((inputs, outcome))
        return wall

    def repeat(self, seconds: float, tracer=None, minimum: int = 2,
               speed: HostSpeed | None = None, fresh: bool = False) -> list[float]:
        """Invoke while the next invocation would end less than half an
        invocation past `seconds`, so that the run takes `seconds` on
        average; with `fresh`, each invocation on the next input set, else
        all on set 0."""
        walls = []
        start = perf()
        while len(walls) < minimum or (
                perf() - start + statistics.mean(walls) / 2 <= seconds):
            walls.append(self(tracer=tracer, speed=speed,
                              inputs=len(walls) if fresh else 0))
        return walls

    def identical(self) -> bool:
        """Invocations on the same input set produced the same output bytes."""
        digests: dict[int, set] = {}
        for inputs, outcome in self.outcomes:
            digests.setdefault(inputs, set()).add(outcome.digest)
        return all(len(d) == 1 and None not in d for d in digests.values())


def end_to_end(invoke: Invoker, workload, seconds: float, record: dict) -> dict:
    speed = HostSpeed(workload.probe)
    walls = invoke.repeat(seconds, speed=speed, fresh=workload.fresh_inputs)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setups = setup_seconds(invoke.argv())
    record.update(walls_s=walls, walls_ref_s=invoke.scaled, setups_s=setups)
    # shown in the table and the record, not gated
    record["unscaled"] = {
        "wall_raw_s": (statistics.fmean(walls), "s"),
        "host_speed": (statistics.median(
            r / w for r, w in zip(invoke.scaled, walls)), "ratio"),
    }
    return {
        "wall_s": (statistics.fmean(invoke.scaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(invoke: Invoker, workload, seconds: float, record: dict) -> dict:
    from tracer import Tracer

    # The untraced invocation runs with the host-speed probes of a timed run
    # and the traced ones without, so equal digests also show that the
    # probes change no result.  Their cost is taken out of its times.
    speed = HostSpeed(workload.probe)
    cpu_before = os.times()
    untraced = invoke(speed=speed)
    cpu_after = os.times()
    untraced -= speed.cost
    cpu_s = sum(cpu_after[:4]) - sum(cpu_before[:4]) - speed.cost

    tracer = Tracer(workload.fidelity_threshold)
    tracer.install()
    try:
        runs = invoke.repeat(seconds, tracer, minimum=1)
    finally:
        tracer.uninstall()
    pool_wall = 0.0
    if workload.twin_jobs:
        tracer.install(pool_only=True)
        try:
            pool_wall = invoke(jobs=workload.twin_jobs, tracer=tracer)
        finally:
            tracer.uninstall()
    tracer.write_spans(Path(record["workdir"]) / "spans.jsonl")

    c = tracer.counters

    def per_run(name):
        return c[name] / len(runs)

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    def p50(name):
        return statistics.median(tracer.durations(name) or [0.0])

    pool = tracer.pool_metrics()
    first = invoke.outcomes[0][1]
    record.update(untraced_wall_s=untraced, traced_walls_s=runs, pool_wall_s=pool_wall)
    metrics = {}
    for name in ("core.apply_gate_matrix", "core.run_circuit",
                 "entanglement.geometric_entanglement", "entanglement.von_neumann_entropy",
                 "trajectories.trajectory", "synthesis.optimize_gates",
                 "synthesis.optimize_gates_collect", "synthesis.enumerate_architectures"):
        metrics[name + ".calls"] = (per_run(name + ".calls"), "count")
        metrics[name + ".s"] = (per_run(name + ".s"), "s")
    metrics.update({
        "entanglement.geometric_entanglement.s_p50":
            (p50("entanglement.geometric_entanglement"), "s"),
        "entanglement.geometric_entanglement.zero_state_calls":
            (per_run("entanglement.geometric_entanglement.zero_state_calls"), "count"),
        "trajectories.trajectory.self_s": (per_run("trajectories.trajectory.self_s"), "s"),
        "synthesis.estimate_state_complexity.s":
            (per_run("synthesis.estimate_state_complexity.s"), "s"),
        "synthesis.optimize_gates.restarts_run":
            (per_run("synthesis.optimize_gates.restarts_run"), "count"),
        "synthesis.optimize_gates_collect.solutions":
            (per_run("synthesis.optimize_gates_collect.solutions"), "count"),
        "synthesis.lbfgs.calls": (per_run("synthesis.lbfgs.calls"), "count"),
        "synthesis.lbfgs.nfev": (per_run("synthesis.lbfgs.fun.calls"), "count"),
        "synthesis.lbfgs.early_stop_frac":
            (ratio("synthesis.lbfgs.early_stops", "synthesis.lbfgs.calls"), "ratio"),
        "synthesis.lbfgs.s_per_nfev":
            (ratio("synthesis.lbfgs.fun.s", "synthesis.lbfgs.fun.calls"), "s"),
        "synthesis.lbfgs.useful_frac":
            (ratio("synthesis.lbfgs.useful", "synthesis.lbfgs.calls"), "ratio"),
        "synthesis.enumerate_architectures.archs":
            (per_run("synthesis.enumerate_architectures.archs"), "count"),
        "paths.enumerate_paths.paths": (per_run("paths.enumerate_paths.items"), "count"),
        "paths.enumerate_paths.s": (per_run("paths.enumerate_paths.s"), "s"),
        "harness.evaluate_target.s_p50": (p50("harness.evaluate_target"), "s"),
        "harness.collect_families.s": (per_run("harness.collect_families.s"), "s"),
        "harness.pool.target_s_p50": (pool["target_s_p50"], "s"),
        "harness.pool.tail_s": (pool["tail_s"], "s"),
        "harness.pool.wall_s": (pool_wall, "s"),
        "harness.pool.speedup": (untraced / pool_wall if pool_wall else 0.0, "ratio"),
        "harness.run.cpu_s": (cpu_s, "s"),
        "harness.run.cpu_per_wall": (cpu_s / untraced, "ratio"),
        "harness.r_star_mean": (first.r_star_mean, "gates"),
        "harness.not_found_frac": (first.not_found_frac, "ratio"),
        "canonical.write.bytes": (per_run("canonical.write.bytes"), "B"),
        "canonical.write.s": (per_run("canonical.write.s"), "s"),
        "cli.main.s": (statistics.median(runs), "s"),
        "trace.overhead_s": (statistics.median(runs) - untraced, "s"),
    })
    return metrics


def run_workload(args) -> int:
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    invoke = Invoker(cli, workload, args.seed, workdir)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workdir": str(workdir),
              "environment": environment()}

    measure = per_layer if args.trace else end_to_end
    metrics = measure(invoke, workload, args.seconds, record)

    outcomes = [o for _, o in invoke.outcomes]
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    identical = invoke.identical()
    correct = failed == 0 and identical
    first = outcomes[0]  # input set 0, the same in every run of a seed
    wall = metrics["wall_s"][0] if "wall_s" in metrics else record["untraced_wall_s"]
    shown = dict(metrics)
    shown.update(record.pop("unscaled", {}))
    shown.update({
        workload.work_unit: (workload.work / wall, "1/s"),
        "failed_frac": (failed / attempted, "ratio"),
        "r_star_mean": (first.r_star_mean, "gates"),
        "not_found_frac": (first.not_found_frac, "ratio"),
    })
    record.update(correct=correct, attempted=attempted, failed=failed,
                  outputs_identical=identical,
                  digests=[[i, o.digest] for i, o in invoke.outcomes],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in shown.items()})
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"src={env['src_sha256'][:12]} git={env['git_rev']} nproc={env['nproc']} "
          + " ".join(f"{k}={env[k]}" for k in BLAS_ENV))
    sets = len({i for i, _ in invoke.outcomes})
    print(f"# {len(outcomes)} invocations on {sets} input set(s); repeats of a set wrote"
          f" the same outputs: {identical} (set 0 digest {first.digest})")
    for name, (value, unit) in shown.items():
        print(f"{name:<55} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process; one
    table and one combined result.  --trace is ignored."""
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            sys.stderr.write(proc.stderr)
            if proc.returncode not in (0, 1) or not lines:
                print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
                return 2
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
