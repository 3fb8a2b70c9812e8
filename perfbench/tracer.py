"""Run-time wrappers that trace the layers of ``entpaths`` from outside.

``Tracer.install`` replaces public functions of the package in every module
namespace that imported them, so calls made through any of those names pass
through a wrapper; ``Tracer.uninstall`` puts the originals back.  Nothing in
``src/`` is edited.

Every wrapped call opens a frame on a stack.  When it returns, its duration
is added to the frame below it, so each frame knows how much of its interval
its children covered; self time is duration minus that.  Calls of the coarse
layer functions are kept as spans (run id, span id, parent id, name, start,
end, self time) in memory and written out when the run ends.  The hot
kernels (gate application, the L-BFGS objective, path enumeration steps) are
only counted and timed, because they run hundreds of thousands of times.
"""
from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, function, kept as spans?) for every wrapped public function.
TRACED_FUNCTIONS = [
    ("core", "apply_gate_matrix", False),
    ("core", "run_circuit", True),
    ("entanglement", "geometric_entanglement", True),
    ("entanglement", "von_neumann_entropy", True),
    ("trajectories", "trajectory", True),
    ("synthesis", "estimate_state_complexity", True),
    ("synthesis", "optimize_gates", True),
    ("synthesis", "optimize_gates_collect", True),
    ("synthesis", "enumerate_architectures", True),
    ("harness", "evaluate_target", True),
    ("harness", "collect_families", True),
]
# Canonical writers, traced only as seen from these modules.
WRITERS = ("write_canonical_json", "write_csv")
WRITER_MODULES = ("cli", "harness")


def _is_zero_state(state) -> bool:
    amplitudes = state.amplitudes
    return amplitudes[0] == 1.0 and not amplitudes[1:].any()


# Counters added after a wrapped call returns: name -> f(result, args, kwargs).
AFTER = {
    "synthesis.optimize_gates": lambda r, a, k: {"restarts_run": r.restarts_run},
    "synthesis.optimize_gates_collect": lambda r, a, k: {"solutions": len(r)},
    "synthesis.enumerate_architectures": lambda r, a, k: {"archs": len(r)},
    "entanglement.geometric_entanglement":
        lambda r, a, k: {"zero_state_calls": int(_is_zero_state(a[0]))},
    "canonical.write": lambda r, a, k: {"bytes": os.path.getsize(a[0])},
}


class Tracer:
    """Spans and counters of one traced benchmark run, held in memory."""

    def __init__(self, fidelity_threshold: float = 1.0):
        self.fidelity_threshold = fidelity_threshold
        self.run_id = ""
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.pool_tasks: list[dict] = []
        self.pool_workers = 0
        self.pool_start = 0.0
        self._stack: list[list] = []  # [name, start, child_s, span_id, keep]
        self._next_id = 1
        self._patches: list[tuple] = []

    # --- frames -----------------------------------------------------------

    def enter(self, name: str, keep: bool) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, perf(), 0.0, span_id, keep])

    def exit(self, extra: dict | None = None) -> None:
        end = perf()
        name, start, child_s, span_id, keep = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        counters = self.counters
        counters[name + ".calls"] += 1
        counters[name + ".s"] += duration
        counters[name + ".self_s"] += self_s
        if extra:
            for key, value in extra.items():
                counters[f"{name}.{key}"] += value
        if keep:
            parent = self._stack[-1][3] if self._stack else 0
            self.spans.append((self.run_id, span_id, parent, name, start, end, self_s))

    def add_leaf_time(self, name: str, seconds: float, items: int) -> None:
        """Time spent in a kernel called from inside the current frame."""
        if self._stack:
            self._stack[-1][2] += seconds
        self.counters[name + ".s"] += seconds
        self.counters[name + ".items"] += items

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a frame named `name`, kept as a span."""
        self.enter(name, True)
        try:
            return fn(*args)
        finally:
            self.exit()

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, keep: bool):
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name, keep)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    extra = after(result, args, kwargs)
                return result
            finally:
                tracer.exit(extra)

        return traced

    def _wrap_path_stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)

            def timed():
                count = 0
                spent = 0.0
                try:
                    while True:
                        t0 = perf()
                        try:
                            item = next(stream)
                        except StopIteration:
                            spent += perf() - t0
                            return
                        spent += perf() - t0
                        count += 1
                        yield item
                finally:
                    tracer.add_leaf_time("paths.enumerate_paths", spent, count)

            return timed()

        return traced

    def _minimize(self, real_minimize):
        """scipy.optimize.minimize as seen from synthesis: one span per
        ascent, objective calls counted through a wrapped ``fun``."""
        tracer = self

        def traced(fun, x0, *args, **kwargs):
            best = [-1.0]

            def objective(x):
                tracer.enter("synthesis.lbfgs.fun", False)
                try:
                    value, grad = fun(x)
                finally:
                    tracer.exit()
                best[0] = max(best[0], -value)
                return value, grad

            tracer.enter("synthesis.lbfgs", True)
            early = useful = 0
            try:
                return real_minimize(objective, x0, *args, **kwargs)
            except Exception as exc:
                # synthesis stops an ascent that reaches its target by
                # raising its private _EarlyStop through minimize
                if type(exc).__name__ == "_EarlyStop":
                    early = useful = 1
                raise
            finally:
                if not early:
                    useful = int(best[0] >= tracer.fidelity_threshold)
                tracer.exit({"early_stops": early, "useful": useful})

        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "entpaths" or mod_name.startswith("entpaths."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def install(self, *, pool_only: bool = False) -> None:
        """Wrap the package's layers; pool_only wraps just the process pool."""
        def mod(name):
            return importlib.import_module("entpaths." + name)

        harness = mod("harness")
        futures_view = _Delegate(concurrent.futures,
                                 ProcessPoolExecutor=self._pool_class())
        self._patch(harness, "concurrent", _Delegate(harness.concurrent, futures=futures_view))
        if pool_only:
            return
        for module_name, fn_name, keep in TRACED_FUNCTIONS:
            original = getattr(mod(module_name), fn_name)
            self._patch_everywhere(
                original, self._wrap(f"{module_name}.{fn_name}", original, keep))
        paths_mod = mod("paths")
        original = paths_mod.enumerate_paths
        self._patch_everywhere(original, self._wrap_path_stream(original))
        for module_name in WRITER_MODULES:
            module = mod(module_name)
            for writer in WRITERS:
                if hasattr(module, writer):
                    self._patch(module, writer, self._wrap(
                        "canonical.write", getattr(module, writer), True))
        synthesis = mod("synthesis")
        real_scipy = synthesis.scipy
        optimize_view = _Delegate(real_scipy.optimize,
                                  minimize=self._minimize(real_scipy.optimize.minimize))
        self._patch(synthesis, "scipy", _Delegate(real_scipy, optimize=optimize_view))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    # --- process pool -----------------------------------------------------

    def _pool_class(self):
        tracer = self

        class TracedPool:
            """ProcessPoolExecutor that times every task from submit to done."""

            def __init__(self, max_workers=None, *args, **kwargs):
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers, *args, **kwargs)
                tracer.pool_workers = self._pool._max_workers
                tracer.pool_start = perf()

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.shutdown(wait=True)
                return False

            def shutdown(self, wait=True, **kwargs):
                self._pool.shutdown(wait=wait, **kwargs)

            def submit(self, fn, *args, **kwargs):
                outer = concurrent.futures.Future()
                parent = tracer._stack[-1][3] if tracer._stack else 0
                task_id = tracer._next_id
                tracer._next_id += 2
                submitted = perf()
                inner = self._pool.submit(run_in_worker, fn.__module__,
                                          fn.__name__, args, kwargs)

                def done(future):
                    finished = perf()
                    try:
                        result, worker = future.result()
                    except BaseException as exc:  # handed to the caller's future
                        outer.set_exception(exc)
                        return
                    tracer.pool_tasks.append(dict(worker, submitted=submitted,
                                                  done=finished))
                    ran = worker["end"] - worker["start"]
                    tracer.spans.append((tracer.run_id, task_id, parent,
                                         "harness.pool.task", submitted, finished,
                                         finished - submitted - ran))
                    tracer.spans.append((tracer.run_id, task_id + 1, task_id,
                                         "harness.pool.worker", worker["start"],
                                         worker["end"], ran))
                    outer.set_result(result)

                inner.add_done_callback(done)
                return outer

        return TracedPool

    # --- results ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end, _ in self.spans if n == name]

    def pool_metrics(self) -> dict[str, float]:
        """Median submit-to-done time per task, and the tail from the first
        worker going idle (its last task ending) to the last result."""
        tasks = self.pool_tasks
        if not tasks:
            return {"target_s_p50": 0.0, "tail_s": 0.0}
        last_end: dict[int, float] = {}
        for task in tasks:
            last_end[task["pid"]] = max(last_end.get(task["pid"], 0.0), task["end"])
        if len(last_end) < self.pool_workers:
            first_idle = self.pool_start
        else:
            first_idle = min(last_end.values())
        return {
            "target_s_p50": statistics.median(t["done"] - t["submitted"] for t in tasks),
            "tail_s": max(t["done"] for t in tasks) - first_idle,
        }

    def write_spans(self, path) -> None:
        keys = ("run_id", "span_id", "parent_id", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Delegate:
    """A module stand-in: the given names overridden, all others forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def run_in_worker(module: str, name: str, args, kwargs):
    """Pool task body: run module.name in the worker and report when and
    where it ran.  The function is looked up by name in the worker, so a
    wrapped function (which cannot be pickled) runs as its wrapper."""
    fn = getattr(importlib.import_module(module), name)
    start = perf()
    result = fn(*args, **kwargs)
    return result, {"pid": os.getpid(), "start": start, "end": perf()}
