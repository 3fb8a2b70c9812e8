import concurrent.futures
import math
import types

import numpy as np
import pytest

from entpaths import harness
from entpaths.core import StateVector

_S2 = 1.0 / math.sqrt(2.0)
_S3 = 1.0 / math.sqrt(3.0)


@pytest.fixture
def bell():
    return StateVector(2, [_S2, 0.0, 0.0, _S2])


@pytest.fixture
def ghz3():
    amps = np.zeros(8)
    amps[0] = amps[7] = _S2
    return StateVector(3, amps)


@pytest.fixture
def w3():
    amps = np.zeros(8)
    # |001>, |010>, |100>
    amps[1] = amps[2] = amps[4] = _S3
    return StateVector(3, amps)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_product_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = np.array([1.0 + 0.0j])
    for _ in range(num_qubits):
        single = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(amps, single / np.linalg.norm(single))
    return StateVector(num_qubits, amps)


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the harness's process pool: each pool built records its
    max_workers in the returned list and runs every task at submit, in
    this process, so a test starts no worker."""
    built = []

    class InlinePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    futures = types.SimpleNamespace(ProcessPoolExecutor=InlinePool,
                                    as_completed=concurrent.futures.as_completed)
    monkeypatch.setattr(harness, "concurrent", types.SimpleNamespace(futures=futures))
    return built
