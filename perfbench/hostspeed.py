"""Host speed, sampled while the benchmark times the program.

The 2-core VMs this benchmark is run on change speed by up to 2x for tens
of seconds at a time: a fixed pure-Python loop and a fixed `paths`
invocation both take twice as long, in CPU time as well as wall time, with
no steal time reported.  A 30-second run can fall wholly in a slow or a fast
spell, so raw wall times of the same code differ by up to 2x from run to run.

`HostSpeed` measures that speed beside the program.  While an invocation is
timed, a SIGALRM handler runs a fixed probe every `SAMPLE_EVERY_S` seconds
of wall time, which uses no entpaths code.  A slow spell does not slow every
kind of work alike, so the probe is made of the kinds of work the workload
does, each part a few tenths of a millisecond (`PROBES`): a loop of dict
and tuple work (Python control flow, as in the `paths` walk), 4x4 complex
numpy products (gate application), and one small L-BFGS-B minimisation
through scipy (synthesis).  The probe is timed in the main thread's CPU
time, so it sees how fast the CPU executes but not time the thread waits
for a core: contention that the program causes itself (its own threads or
worker processes) still shows in the scaled time.

A wall time `t` measured while the probe took `s_i` CPU seconds is scaled
to the reference speed, at which the probe takes `ref`, the sum of its
parts' reference times:

    t_ref = (t - probe time) * ref * mean(1 / s_i)

which is the work's own time, each interval weighted by how fast the host
ran in it.  The probes take 1 to 4% of the wall time.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.optimize import minimize

SAMPLE_EVERY_S = 0.05
_MATRIX = np.random.default_rng(0).standard_normal((4, 4)) * (1.0 + 0.5j)
_X0 = np.zeros(4)


def _python_work() -> None:
    counts: dict = {}
    acc = 0
    for i in range(1000):
        key = (i & 15, i >> 4)
        counts[key] = counts.get(key, 0) + 1
        acc += key[0] * 3 + i % 7


def _numpy_work() -> None:
    v = np.ones(4, dtype=complex)
    for _ in range(50):
        v = _MATRIX @ v
        v /= np.linalg.norm(v)


def _quadratic(x: np.ndarray) -> tuple[float, np.ndarray]:
    d = x - 1.0
    return float(d @ d), 2.0 * d


def _scipy_work() -> None:
    minimize(_quadratic, _X0, jac=True, method="L-BFGS-B")


# kind -> (work, its CPU time on a 2-core 2.0 GHz Xeon VM in a fast spell)
PROBES = {
    "python": (_python_work, 0.26e-3),
    "numpy": (_numpy_work, 0.25e-3),
    "scipy": (_scipy_work, 0.16e-3),
}


class HostSpeed:
    """Probe times (CPU seconds) and their wall-clock cost in the last
    `sampling` block."""

    def __init__(self, kinds=tuple(PROBES)) -> None:
        self.work = [PROBES[kind][0] for kind in kinds]
        self.ref = sum(PROBES[kind][1] for kind in kinds)
        self.samples: list[float] = []
        self.cost = 0.0

    def probe(self) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        for work in self.work:
            work()
        self.samples.append(time.thread_time() - cpu)
        self.cost += time.perf_counter() - wall

    @contextlib.contextmanager
    def sampling(self):
        """Probe every SAMPLE_EVERY_S of wall time inside the block, and once
        at each end, so that even a short block has samples."""
        self.samples = []
        self.cost = 0.0
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def scaled(self, wall: float) -> float:
        """`wall`, timed around the last `sampling` block, without the
        probes' cost and in reference seconds."""
        speed = statistics.fmean(1.0 / s for s in self.samples)
        return (wall - self.cost) * self.ref * speed
