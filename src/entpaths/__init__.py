"""Entanglement trajectories of quantum circuits and path-sum analysis.

The package simulates small n-qubit circuits of two-qubit gates, measures
how entanglement evolves gate by gate, enumerates discrete configuration
paths whose amplitudes sum to circuit matrix elements, synthesizes circuits
that prepare target states with as few gates as possible, and runs a
seeded, fully reproducible experiment asking whether minimum-gate
preparations travel along minimum-entanglement state paths.

The top level exports what the README quick start uses; everything else is
imported from its module (entpaths.core, entpaths.harness, ...).
"""

from .core import StateVector, random_architecture, random_circuit, run_circuit
from .entanglement import Measure, geometric_entanglement
from .fixtures import fixture_state
from .paths import enumerate_paths, transition_amplitude
from .synthesis import SynthesisProblem, estimate_state_complexity
from .trajectories import path_entanglement_sum, trajectory

__version__ = "0.1.0"

__all__ = [
    "Measure", "StateVector", "SynthesisProblem", "enumerate_paths",
    "estimate_state_complexity", "fixture_state", "geometric_entanglement",
    "path_entanglement_sum", "random_architecture", "random_circuit",
    "run_circuit", "trajectory", "transition_amplitude",
]
