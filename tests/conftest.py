import math

import numpy as np
import pytest

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
