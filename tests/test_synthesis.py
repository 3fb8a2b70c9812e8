import itertools
import re

import numpy as np
import pytest
import scipy.optimize

from entpaths import synthesis
from entpaths.core import (Circuit, DimensionMismatchError, ResourceCapError,
                           StateVector, TwoQubitGate, all_pairs, fidelity,
                           haar_random_su4, random_architecture, random_circuit,
                           run_circuit)
from entpaths.entanglement import cut_weights, geometric_entanglement
from entpaths.synthesis import (BOUND_MARGIN, ComplexityEstimate, ComplexityNotFound,
                                GENERATORS, STOP_FIDELITY, SearchSettings,
                                _LayoutPlan, _ascend, _fidelity_and_grad, _su4_eigh,
                                can_reach, enumerate_architectures,
                                estimate_state_complexity, layout_bound, optimize_gates,
                                optimize_gates_collect, sample_target)

import oracles
from conftest import random_state
from oracles import commuting_normal_form, params_from_su4

SMALL = SearchSettings(restarts=12, iterations=400)
# a fidelity_tol whose threshold, 0.001, every restart passes on a layout
# that reaches the target
EVERY_RESTART = 0.999


# --- the SU(4) chart ------------------------------------------------------


def test_generators_form_an_orthogonal_traceless_basis():
    assert GENERATORS.shape == (15, 4, 4)
    for a in range(15):
        ga = GENERATORS[a]
        assert np.allclose(ga, ga.conj().T)
        assert abs(np.trace(ga)) < 1e-12
        for b in range(15):
            inner = np.trace(ga @ GENERATORS[b]).real
            assert np.isclose(inner, 2.0 if a == b else 0.0, atol=1e-12)


def test_zero_parameters_give_the_identity():
    assert np.allclose(_su4_eigh(np.zeros(15))[2], np.eye(4), atol=1e-12)


def test_su4_exponential_lands_in_the_group():
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = _su4_eigh(rng.normal(scale=0.8, size=15))[2]
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.isclose(complex(np.linalg.det(u)), 1.0, atol=1e-10)


def test_su4_eigh_matches_numpy_eigh_bit_for_bit():
    # the package calls LAPACK past np.linalg.eigh; the oracle keeps the
    # exponential map as it was on np.linalg.eigh
    rng = np.random.default_rng(3)
    thetas = rng.uniform(-np.pi, np.pi, size=(7, 15))
    thetas[1] = 0.0  # H = 0: one eigenvalue, four times over
    thetas[2] = 0.0
    thetas[2, 14] = 1.3  # the last diagonal generator: a threefold eigenvalue
    thetas[3] = 0.0
    thetas[3, 12] = 0.7  # diag(1, -1, 0, 0): a twofold zero
    thetas[4] = 0.0
    thetas[4, 0] = -2.1  # an off-diagonal generator: eigenvalues +-2.1, 0, 0
    for batch in (thetas, thetas[0], thetas[1], thetas[2:5]):
        eigenvalues, vecs, mats, vecs_conj = _su4_eigh(batch)
        expected = oracles.su4_eigh(batch)
        for got, want in zip((eigenvalues, vecs, mats), expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(vecs_conj, expected[1].conj())


def test_params_round_trip_reproduces_the_matrix():
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = haar_random_su4(rng)
        rebuilt = _su4_eigh(params_from_su4(u))[2]
        # the log is defined up to a fourth root of unity global phase
        overlap = abs(np.trace(rebuilt.conj().T @ u)) / 4.0
        assert np.isclose(overlap, 1.0, atol=1e-9)


# --- fidelity and its exact gradient ------------------------------------


def _random_pairs(num_qubits, num_gates, rng):
    # ordered pairs, so slots with j > k are covered too
    return [tuple(int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            for _ in range(num_gates)]


def _check_against_expm_oracle(free, pairs, n, target):
    # the reduced gradient is the full gradient at the closed-form last
    # gate, restricted to the free gates; at that optimum the full
    # gradient on the last gate vanishes
    value, grad, last, _ = _fidelity_and_grad(free, _LayoutPlan(pairs, n, target))
    thetas = np.vstack([free, params_from_su4(last)])
    ref_value, ref_grad = oracles.fidelity_and_gradient_expm(
        thetas, GENERATORS, pairs, n, target)
    assert abs(value - ref_value) <= 1e-12
    assert np.max(np.abs(grad - ref_grad[:-1]), initial=0.0) <= 1e-8
    assert np.max(np.abs(ref_grad[-1])) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("num_gates", [1, 2, 3, 4])
def test_gradient_matches_expm_frechet_oracle(n, num_gates):
    rng = np.random.default_rng(1000 + 10 * n + num_gates)
    pairs = _random_pairs(n, num_gates, rng)
    target = random_state(n, seed=200 + 10 * n + num_gates).amplitudes
    free = rng.uniform(-np.pi, np.pi, size=(num_gates - 1, 15))
    _check_against_expm_oracle(free, pairs, n, target)


def test_gradient_at_identity_and_near_degenerate_spectra():
    # theta = 0 is the identity gate, whose eigenvalues all coincide; the two
    # other free gates have exactly and nearly repeated eigenvalues
    rng = np.random.default_rng(21)
    degenerate = np.zeros(15)
    degenerate[12] = 0.7  # diag(1, -1, 0, 0) direction: eigenvalue 0 twice
    free = np.stack([np.zeros(15), degenerate,
                     degenerate + 1e-7 * rng.normal(size=15)])
    pairs = [(0, 1), (1, 2), (0, 2), (1, 2)]
    target = random_state(3, seed=22).amplitudes
    _check_against_expm_oracle(free, pairs, 3, target)


def _dense_state(free, pairs, n):
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for theta, pair in zip(free, pairs):
        state = oracles.embed_gate(_su4_eigh(theta)[2], pair, n) @ state
    return state


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("num_gates", [1, 2, 3])
def test_closed_form_last_gate_matches_trace_norm_oracle(n, num_gates):
    rng = np.random.default_rng(60 + 10 * n + num_gates)
    pairs = _random_pairs(n, num_gates, rng)
    target = random_state(n, seed=70 + 10 * n + num_gates).amplitudes
    free = rng.uniform(-np.pi, np.pi, size=(num_gates - 1, 15))
    value, _, last, _ = _fidelity_and_grad(free, _LayoutPlan(pairs, n, target))
    before = _dense_state(free, pairs, n)
    bound = oracles.best_last_gate_fidelity(before, target, n, pairs[-1])
    # K is rank-deficient on two qubits and after one gate from |0..0>;
    # the square roots of its round-off eigenvalues are the oracle's slack
    assert abs(value - bound) <= 1e-7
    # the returned gate reaches the value, and no other gate beats it
    reached = abs(np.vdot(target, oracles.embed_gate(last, pairs[-1], n) @ before)) ** 2
    assert abs(reached - value) <= 1e-12
    assert np.allclose(last.conj().T @ last, np.eye(4), atol=1e-12)
    for _ in range(50):
        other = oracles.embed_gate(haar_random_su4(rng), pairs[-1], n)
        assert abs(np.vdot(target, other @ before)) ** 2 <= value + 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_fidelity_matches_circuit_run(n):
    rng = np.random.default_rng(30 + n)
    pairs = _random_pairs(n, 4, rng)
    free = rng.uniform(-np.pi, np.pi, size=(3, 15))
    target = random_state(n, seed=40 + n)
    value, _, last, _ = _fidelity_and_grad(free, _LayoutPlan(pairs, n, target.amplitudes))
    thetas = np.vstack([free, params_from_su4(last)])
    circuit = Circuit(n, [TwoQubitGate(pair, _su4_eigh(theta)[2])
                          for pair, theta in zip(pairs, thetas)])
    slow = fidelity(run_circuit(circuit)[-1], target)
    assert abs(value - slow) <= 1e-12


def test_ascent_succeeds_at_least_as_often_as_the_full_gate_ascent():
    # one restart per seeded target, from the same draw: the full-gate
    # ascent starts from all R gates, the closed-form one from the first
    # R - 1 of them; its parameters for all R gates replay to its value
    threshold = 1.0 - 1e-4
    full_successes = successes = 0
    for n in (2, 3, 4, 5):
        for num_gates in (1, 2, 3, 4):
            for seed in range(15):
                target, generator = sample_target(n, num_gates, (n, num_gates, seed))
                pairs = tuple(g.qubit_pair for g in generator.gates)
                rng = np.random.default_rng((n, num_gates, seed, 1))
                theta0 = rng.uniform(-np.pi, np.pi, size=(num_gates, 15))
                _, full = oracles.ascend_full_gates(theta0, pairs, n,
                                                    target.amplitudes, 500)
                plan = _LayoutPlan(pairs, n, target.amplitudes)
                free, _, last, value = _ascend(theta0[:-1], plan, 500)
                last = last * np.exp(-0.25j * np.angle(np.linalg.det(last)))
                theta = np.vstack([free, params_from_su4(last)])
                circuit = Circuit(n, [
                    TwoQubitGate(pair, _su4_eigh(t)[2]) for pair, t in zip(pairs, theta)])
                replayed = fidelity(run_circuit(circuit)[-1], target)
                assert abs(replayed - value) <= 1e-12
                full_successes += full >= threshold
                successes += value >= threshold
    assert successes >= full_successes


STATIONARY_OR_NOT = [
    (3, ((0, 1), (0, 1))),           # reducible: the last gate absorbs the first
    (4, ((0, 1), (2, 3), (0, 1))),   # reducible, with a free gate that matters
    (3, ((0, 1), (1, 2))),
    (4, ((0, 1), (1, 2), (2, 3))),
]


@pytest.mark.parametrize("n,pairs", STATIONARY_OR_NOT)
def test_ascent_matches_the_ascent_that_always_calls_scipy(n, pairs, monkeypatch):
    # targets reachable on the layout (early stops) and random ones, from a
    # random start and, short of the target, again from just beside the
    # optimum found (a gradient small but above the stationarity test); the
    # start's evaluation is handed to scipy, so both evaluate as often
    evaluations = {"package": 0, "reference": 0}

    def counted(name, fn):
        def wrapper(*args):
            evaluations[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(synthesis, "_fidelity_and_grad",
                        counted("package", _fidelity_and_grad))
    monkeypatch.setattr(oracles, "_fidelity_and_grad",
                        counted("reference", _fidelity_and_grad))
    for seed in range(6):
        if seed % 2:
            target = random_state(n, seed=300 + seed)
        else:
            target = run_circuit(random_circuit(n, pairs,
                                                np.random.default_rng(seed)))[-1]
        rng = np.random.default_rng((n, len(pairs), seed))
        theta0 = rng.uniform(-np.pi, np.pi, size=(len(pairs) - 1, 15))
        plan = _LayoutPlan(pairs, n, target.amplitudes)
        for _ in range(2):
            theta, mats, last, value = _ascend(theta0, plan, 300)
            ref_theta, ref_mats, ref_last, ref_value = oracles.ascend_always_scipy(
                theta0, plan, 300)
            assert np.array_equal(theta, ref_theta)
            assert np.array_equal(mats, ref_mats)
            assert np.array_equal(last, ref_last)
            assert value == ref_value
            if value >= STOP_FIDELITY:
                break
            theta0 = theta + 1e-6 * rng.normal(size=theta.shape)
    assert evaluations["package"] == evaluations["reference"]


def test_stationary_start_never_enters_scipy(monkeypatch):
    calls = []
    real = scipy.optimize.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis.scipy.optimize, "minimize", counting)
    pairs = ((0, 1), (0, 1))
    rng = np.random.default_rng(4)
    for seed in range(5):
        target = random_state(3, seed=310 + seed)
        theta, _, _, value = _ascend(rng.uniform(-np.pi, np.pi, size=(1, 15)),
                                     _LayoutPlan(pairs, 3, target.amplitudes), 300)
        # any first gate is absorbed, so the start already holds the optimum
        bound = oracles.best_single_gate_fidelity(target.amplitudes, 3, (0, 1))
        assert abs(value - bound) <= 1e-12
    assert calls == []
    _ascend(rng.uniform(-np.pi, np.pi, size=(1, 15)),
            _LayoutPlan(((0, 1), (1, 2)), 3, random_state(3, seed=320).amplitudes), 300)
    assert calls == [1]


def _kernel_cases(n, num_gates, rng):
    """Layouts and free-gate rows for the kernel's bitwise checks: random
    ordered pairs, the same pairs with every slot reversed (k > j first),
    and rows whose spectra are degenerate: all-zero rows (the identity,
    one eigenvalue four times) and rows on the diagonal generators alone."""
    pairs = _random_pairs(n, num_gates, rng)
    reversed_pairs = [tuple(sorted(pair, reverse=True)) for pair in pairs]
    free = rng.uniform(-np.pi, np.pi, size=(num_gates - 1, 15))
    degenerate = free.copy()
    degenerate[::2] = 0.0
    degenerate[1::2, :12] = 0.0
    return [(pairs, free), (reversed_pairs, free), (pairs, degenerate),
            (reversed_pairs, np.zeros_like(free))]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("num_gates", [1, 2, 3, 4, 5, 6])
def test_kernel_matches_the_per_call_kernel_bit_for_bit(n, num_gates):
    rng = np.random.default_rng(500 + 10 * n + num_gates)
    target = random_state(n, seed=510 + 10 * n + num_gates).amplitudes
    for pairs, free in _kernel_cases(n, num_gates, rng):
        value, grad, last, mats = _fidelity_and_grad(free, _LayoutPlan(pairs, n, target))
        ref_value, ref_grad, ref_last = oracles.fidelity_and_grad_per_call(
            free, pairs, n, target)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(last, ref_last)
        assert np.array_equal(mats, oracles.su4_eigh(free)[2])


def test_a_plan_gives_the_same_bits_whatever_it_evaluated_before():
    # the plan's scratch vectors are overwritten by every call, so
    # evaluating A, then B, then A again gives A's bits both times
    rng = np.random.default_rng(530)
    pairs = [(0, 1), (2, 1), (1, 3), (3, 0)]
    plan = _LayoutPlan(pairs, 4, random_state(4, seed=531).amplitudes)
    a, b = rng.uniform(-np.pi, np.pi, size=(2, 3, 15))
    first = _fidelity_and_grad(a, plan)
    _fidelity_and_grad(b, plan)
    again = _fidelity_and_grad(a, plan)
    assert first[0] == again[0]
    for x, y in zip(first[1:], again[1:]):
        assert np.array_equal(x, y)


BAD_LAYOUTS = [
    (((-1, 0), (0, 1), (1, 2)), ValueError, "(-1, 0)"),
    (((0, 1), (0, 0)), ValueError, "(0, 0)"),
    (((2, 2),), ValueError, "(2, 2)"),
    (((0, 1), (1, 2.0)), ValueError, "(1, 2.0)"),
    (((0, 1), (1, 3), (0, 2)), DimensionMismatchError, "3 qubits"),
    (((0, 1), (True, 2)), ValueError, "(True, 2)"),
    (((0, 1), ("1", 2)), ValueError, "('1', 2)"),
    (((0, 2), (1, 0, 2)), ValueError, "(1, 0, 2)"),
    (((0, 1), (5, 0)), DimensionMismatchError, "3 qubits"),
]


@pytest.mark.parametrize("slots,error,named", BAD_LAYOUTS)
def test_a_bad_layout_raises_before_any_kernel_call(slots, error, named, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _fidelity_and_grad(*args)

    monkeypatch.setattr(synthesis, "_fidelity_and_grad", counted)
    target = random_state(3, seed=540)
    with pytest.raises(error, match=re.escape(named)):
        optimize_gates(slots, target, SMALL, 0)
    with pytest.raises(error, match=re.escape(named)):
        optimize_gates_collect(slots, target, SMALL, 0, 2)
    if error is ValueError:  # not the register-size error
        with pytest.raises(ValueError) as raised:
            optimize_gates(slots, target, SMALL, 0)
        assert not isinstance(raised.value, DimensionMismatchError)
    assert calls == []


def _assert_same_result(result, ref):
    """Two OptimizeResults agree bit for bit."""
    assert (result.achieved_fidelity, result.converged, result.restarts_run,
            result.best_restart) == (ref.achieved_fidelity, ref.converged,
                                     ref.restarts_run, ref.best_restart)
    assert ([g.qubit_pair for g in result.circuit.gates]
            == [g.qubit_pair for g in ref.circuit.gates])
    for gate, ref_gate in zip(result.circuit.gates, ref.circuit.gates, strict=True):
        assert gate.matrix.tobytes() == ref_gate.matrix.tobytes()
    for state, ref_state in zip(result.path, ref.path, strict=True):
        assert state.amplitudes.tobytes() == ref_state.amplitudes.tobytes()


def test_a_layout_of_lists_searches_as_its_tuples():
    # a pair may be any two-element sequence; the plan hands gather_index's
    # cache the checked tuple, so a list slot reaches it hashable
    slots, listed = ((0, 1), (1, 2), (0, 1)), [[0, 1], [1, 2], [0, 1]]
    target = random_state(3, seed=560)
    settings = SearchSettings(fidelity_tol=EVERY_RESTART, restarts=4, iterations=200)
    _assert_same_result(optimize_gates(listed, target, SMALL, 5),
                        optimize_gates(slots, target, SMALL, 5))
    collected = optimize_gates_collect(listed, target, settings, 5, 3, first_restart=1)
    expected = optimize_gates_collect(slots, target, settings, 5, 3, first_restart=1)
    assert len(collected) == len(expected) == 3
    for result, ref in zip(collected, expected):
        _assert_same_result(result, ref)


def _replayed_from_parameters(slots, theta, last, target):
    """The replay before it bound the kernel's matrices: each free gate
    rebuilt from its parameters by the exponential map."""
    gates = [TwoQubitGate(pair, m) for pair, m in zip(slots[:-1], _su4_eigh(theta)[2])]
    gates.append(TwoQubitGate.from_unitary(slots[-1], last))
    path = run_circuit(Circuit(target.num_qubits, gates))
    return path, fidelity(path[-1], target)


@pytest.mark.parametrize("collect", [False, True])
@pytest.mark.parametrize("reachable", [False, True])
def test_kept_restarts_replay_the_kernels_gates(collect, reachable, monkeypatch):
    # every restart's best point is recorded, so a kept one can be
    # replayed the old way, from its parameters, and compared bit for bit
    ascents = []

    def recorded(*args):
        out = _ascend(*args)
        ascents.append(out)
        return out

    monkeypatch.setattr(synthesis, "_ascend", recorded)
    n, slots = 4, ((0, 1), (2, 3), (1, 2))
    if reachable:
        target = run_circuit(random_circuit(n, slots, np.random.default_rng(550)))[-1]
    else:
        target = random_state(n, seed=551)
    settings = SearchSettings(fidelity_tol=EVERY_RESTART, restarts=4, iterations=200)
    if collect:
        results = optimize_gates_collect(slots, target, settings, 7, 3, first_restart=1)
        first = 1
        assert len(results) == 3
    else:
        # short of the target, every restart runs and the best is kept
        results = [optimize_gates(slots, target, SMALL, 7)]
        first = 0
    for result in results:
        theta, mats, last, value = ascents[result.best_restart - first]
        expected = _su4_eigh(theta)[2]
        for g, gate in enumerate(result.circuit.gates[:-1]):
            assert np.array_equal(gate.matrix, expected[g])
        path, achieved = _replayed_from_parameters(slots, theta, last, target)
        assert result.achieved_fidelity == achieved
        assert len(result.path) == len(path)
        for state, ref in zip(result.path, path):
            assert np.array_equal(state.amplitudes, ref.amplitudes)


# --- single-architecture optimization ------------------------------------


def test_optimize_recovers_a_one_gate_preparation():
    target, _ = sample_target(2, 1, seed=3)
    result = optimize_gates(((0, 1),), target, SMALL, seed=0)
    assert result.achieved_fidelity > 1.0 - 1e-6
    assert result.converged
    prepared = run_circuit(result.circuit)[-1]
    assert np.isclose(fidelity(prepared, target), result.achieved_fidelity,
                      atol=1e-12)


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_single_gate_optimum_matches_slice_norm_oracle(pair):
    # with one gate the best reachable fidelity has a closed form
    target = random_state(3, seed=100 + pair[0] * 3 + pair[1])
    bound = oracles.best_single_gate_fidelity(target.amplitudes, 3, pair)
    result = optimize_gates((pair,), target,
                            SearchSettings(restarts=16, iterations=600), seed=1)
    assert result.achieved_fidelity <= bound + 1e-9
    assert np.isclose(result.achieved_fidelity, bound, atol=1e-6)


def test_optimize_zero_gates():
    # an empty layout has no last gate to solve for; r* = 0 is settled
    # before any search
    target = random_state(2, seed=4)
    with pytest.raises(ValueError):
        optimize_gates((), target, SMALL, 0)
    with pytest.raises(ValueError):
        optimize_gates_collect((), target, SMALL, 0, 1)


def test_optimize_rejects_a_pair_outside_the_target():
    target = random_state(2, seed=4)
    with pytest.raises(DimensionMismatchError):
        optimize_gates(((0, 1), (0, 2)), target, SMALL, 0)


def test_optimize_is_deterministic():
    target = random_state(2, seed=5)
    arch = ((0, 1),)
    a = optimize_gates(arch, target, SMALL, seed=9)
    b = optimize_gates(arch, target, SMALL, seed=9)
    assert a.achieved_fidelity == b.achieved_fidelity
    assert a.best_restart == b.best_restart
    for g1, g2 in zip(a.circuit.gates, b.circuit.gates):
        assert np.array_equal(g1.matrix, g2.matrix)


def test_early_stop_result_is_schedule_independent():
    # with a success threshold the result is the best over restarts
    # 0..first-success, so it equals a search of exactly that many restarts
    # that never stops early: it cannot depend on restart scheduling
    target, _ = sample_target(3, 2, seed=5)
    arch = ((0, 1), (1, 2))
    stopped = optimize_gates(arch, target,
                             SearchSettings(fidelity_tol=2e-3, restarts=8, iterations=3), seed=2)
    assert stopped.converged
    assert stopped.restarts_run >= 2
    full = optimize_gates(arch, target,
                          SearchSettings(fidelity_tol=1e-12, restarts=stopped.restarts_run,
                                         iterations=3), seed=2)
    assert not full.converged
    assert full.restarts_run == stopped.restarts_run
    assert full.best_restart == stopped.best_restart
    assert full.achieved_fidelity == stopped.achieved_fidelity
    assert len(full.circuit.gates) == len(stopped.circuit.gates) == 2
    for g1, g2 in zip(full.circuit.gates, stopped.circuit.gates):
        assert g1.qubit_pair == g2.qubit_pair
        assert np.array_equal(g1.matrix, g2.matrix)


def test_optimize_collect_returns_every_passing_restart_in_order():
    target = random_state(3, seed=7)
    arch = ((0, 1), (1, 2))
    results = optimize_gates_collect(
        arch, target, SearchSettings(fidelity_tol=EVERY_RESTART, restarts=5, iterations=300),
        seed=3, max_collect=5)
    assert len(results) == 5
    assert [r.best_restart for r in results] == list(range(5))
    # every ascent stops once it passes STOP_FIDELITY = 1 - 1e-9, and here
    # none lands within 1e-15 of 1, so this search runs all five restarts
    best = optimize_gates(arch, target,
                          SearchSettings(fidelity_tol=1e-15, restarts=5, iterations=300), seed=3)
    assert best.restarts_run == 5
    assert np.isclose(max(r.achieved_fidelity for r in results),
                      best.achieved_fidelity, atol=1e-12)


def test_optimize_collect_honors_threshold_and_cap():
    target = random_state(3, seed=7)
    arch = ((0, 1), (1, 2))
    # two gates on pair (0, 1) never touch qubit 2, so no restart on this
    # layout gets past the fidelity of the best single gate on that pair
    uncrossed = ((0, 1), (0, 1))
    strict = SearchSettings(restarts=3, iterations=300)
    assert oracles.best_single_gate_fidelity(target.amplitudes, 3, (0, 1)) < strict.threshold
    none = optimize_gates_collect(uncrossed, target, strict, seed=3, max_collect=3)
    assert none == []
    capped = optimize_gates_collect(
        arch, target, SearchSettings(fidelity_tol=EVERY_RESTART, restarts=5, iterations=300),
        seed=3, max_collect=2)
    assert len(capped) == 2


def test_one_gate_architecture_runs_one_exact_restart():
    # nothing is free with one gate, so more restarts could not differ
    target = random_state(3, seed=8)
    arch = ((0, 2),)
    result = optimize_gates(arch, target, SearchSettings(restarts=5, iterations=300), seed=3)
    assert result.restarts_run == 1 and result.best_restart == 0
    bound = oracles.best_single_gate_fidelity(target.amplitudes, 3, (0, 2))
    assert abs(result.achieved_fidelity - bound) <= 1e-12
    collected = optimize_gates_collect(
        arch, target, SearchSettings(fidelity_tol=EVERY_RESTART, restarts=5, iterations=300),
        seed=3, max_collect=5)
    assert len(collected) == 1


# --- architectures --------------------------------------------------------


def test_normal_form_swaps_disjoint_out_of_order_slots():
    assert commuting_normal_form(((2, 3), (0, 1))) == ((0, 1), (2, 3))


def test_normal_form_respects_shared_qubits():
    assert commuting_normal_form(((1, 2), (0, 1))) == ((1, 2), (0, 1))


def test_normal_form_is_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        slots = tuple(tuple(sorted(rng.choice(4, size=2, replace=False)))
                      for _ in range(4))
        once = commuting_normal_form(slots)
        assert commuting_normal_form(once) == once


def test_normal_form_classes_match_swap_closure_oracle():
    import itertools
    pairs = [(j, k) for j in range(4) for k in range(j + 1, 4)]
    forms = {commuting_normal_form(seq)
             for seq in itertools.product(pairs, repeat=2)}
    assert len(forms) == oracles.swap_closure_class_count(4, 2)


@pytest.mark.parametrize("n,r,count", [
    (2, 1, 1), (2, 2, 0), (3, 1, 3), (3, 2, 6), (3, 3, 12), (4, 2, 27),
    (4, 3, 120), (5, 2, 75), (5, 3, 540),
])
def test_architecture_enumeration_counts(n, r, count):
    archs = enumerate_architectures(n, r)
    assert len(archs) == count
    assert count == oracles.irreducible_class_count(n, r)
    # every entry is an irreducible normal form, listed in sorted order
    assert list(archs) == sorted(archs)
    for arch in archs:
        assert commuting_normal_form(arch) == arch
        assert not oracles.is_reducible(arch)


def test_normal_form_moves_a_slot_past_several_commuting_ones():
    # (1, 3) commutes with both slots before it, yet no adjacent disjoint
    # pair is out of order, so sorting by adjacent swaps stops short here
    assert (commuting_normal_form(((2, 4), (0, 2), (1, 3)))
            == ((1, 3), (2, 4), (0, 2)))


def test_normal_form_is_the_smallest_member_of_its_class():
    rng = np.random.default_rng(9)
    pairs = all_pairs(5)
    for _ in range(40):
        seq = tuple(pairs[i] for i in rng.integers(0, len(pairs), size=4))
        assert commuting_normal_form(seq) == min(oracles.swap_class(seq))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_below_five_qubits_matches_adjacent_swap_sort(n):
    # up to 4 qubits the earlier bubble-sorted form was already unique per
    # class, so the irreducible architectures searched there stay the same
    pairs = all_pairs(n)
    for r in range(5):
        forms = {oracles.adjacent_swap_sort(seq)
                 for seq in itertools.product(pairs, repeat=r)}
        expected = sorted(seq for seq in forms if not oracles.is_reducible(seq))
        assert list(enumerate_architectures(n, r)) == expected


def test_architecture_enumeration_is_cached_per_size():
    archs = enumerate_architectures(4, 3)
    assert isinstance(archs, tuple)
    assert enumerate_architectures(4, 3) is archs


def test_architecture_enumeration_cap():
    with pytest.raises(ResourceCapError):
        enumerate_architectures(5, 8)


def test_architecture_cap_bounds_classes_not_raw_sequences():
    # 6**7 = 279,936 raw sequences, above the cap, but far fewer classes
    assert len(enumerate_architectures(4, 7)) == 47_040


# --- targets and complexity ----------------------------------------------


def test_sample_target_is_deterministic_and_normalized():
    state1, circuit1 = sample_target(3, 2, seed=11)
    state2, circuit2 = sample_target(3, 2, seed=11)
    assert np.array_equal(state1.amplitudes, state2.amplitudes)
    assert circuit1.num_gates == 2
    assert np.isclose(np.linalg.norm(state1.amplitudes), 1.0)
    prepared = run_circuit(circuit1)[-1]
    assert np.isclose(fidelity(prepared, state1), 1.0, atol=1e-12)


@pytest.mark.parametrize("bad", [
    {"fidelity_tol": 0.0}, {"fidelity_tol": 1.0}, {"r_max": 0}, {"restarts": 0},
    {"iterations": 0}, {"max_architectures": 0}, {"r_max": 2.5},
    {"max_architectures": 2.5}, {"restarts": True}, {"iterations": 8.0},
    {"r_max": "3"}, {"restarts": -1}, {"max_architectures": np.True_},
    {"iterations": "8"}, {"r_max": np.float64(2.0)}])
def test_search_settings_reject_out_of_range_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        SearchSettings(**bad)


@pytest.mark.parametrize("name,call", [
    ("num_gates", lambda count: random_architecture(3, count, 0)),
    ("num_gates", lambda count: enumerate_architectures(3, count)),
    ("r_gen", lambda count: sample_target(3, count, 0)),
    ("restarts", lambda count: geometric_entanglement(random_state(3, seed=7),
                                                      restarts=count)),
], ids=["random_architecture", "enumerate_architectures", "sample_target",
        "geometric_entanglement"])
def test_counts_reject_bools_floats_strings_and_values_below_the_floor(name, call):
    for bad in (True, 2.0, "2", -1):
        with pytest.raises(ValueError, match=name):
            call(bad)
    call(np.int64(2))  # a numpy int is a count


@pytest.mark.parametrize("call", [
    lambda n: random_architecture(n, 1, 0),
    lambda n: sample_target(n, 1, 0),
    lambda n: enumerate_architectures(n, 1),
], ids=["random_architecture", "sample_target", "enumerate_architectures"])
def test_layout_registers_take_the_register_rule_with_floor_two(call):
    # a layout's register holds 2..MAX_QUBITS qubits; a float no longer
    # reaches range(), a bool is no count, one qubit has no pair
    for bad in (2.5, 2.0, 3.0, True, 1, 13, "3"):
        with pytest.raises(DimensionMismatchError, match="num_qubits"):
            call(bad)
    call(np.int64(3))  # a numpy int is a qubit count


def test_a_float_register_is_refused_whether_or_not_its_layouts_are_cached():
    # 3.0 hashes like 3, so the register is checked before the cache is read
    synthesis._normal_forms.cache_clear()
    with pytest.raises(DimensionMismatchError, match="num_qubits"):
        enumerate_architectures(3.0, 2)
    assert len(enumerate_architectures(3, 2)) == 6
    with pytest.raises(DimensionMismatchError, match="num_qubits"):
        enumerate_architectures(3.0, 2)


def test_zero_state_has_complexity_zero():
    estimate = estimate_state_complexity(StateVector.zero_state(3), SMALL, seed=0)
    assert isinstance(estimate, ComplexityEstimate)
    assert estimate.r_star == 0
    assert estimate.witness.num_gates == 0


def test_one_gate_target_has_complexity_one(bell):
    estimate = estimate_state_complexity(bell, SMALL, seed=1)
    assert estimate.r_star == 1
    assert estimate.achieved_fidelity > 1.0 - 1e-4


def test_witness_resimulates_to_recorded_fidelity():
    target, _ = sample_target(3, 2, seed=12)
    estimate = estimate_state_complexity(target, SMALL, seed=2)
    assert isinstance(estimate, ComplexityEstimate)
    prepared = run_circuit(estimate.witness)[-1]
    assert abs(fidelity(prepared, target) - estimate.achieved_fidelity) < 1e-9


def test_complexity_not_found_reports_best_per_r():
    target = random_state(3, seed=13)  # generic: needs 2 gates
    settings = SearchSettings(fidelity_tol=1e-9, restarts=2, iterations=60, r_max=1)
    estimate = estimate_state_complexity(target, settings, seed=3)
    assert isinstance(estimate, ComplexityNotFound)
    # one gate leaves a qubit alone, which rules out every one-gate layout
    # of a target entangled across every cut: none is searched
    assert estimate.best_fidelity_per_r == {}
    assert set(estimate.fidelity_bound_per_r) == {1}
    ceiling = estimate.fidelity_bound_per_r[1]
    assert 0.0 < ceiling < settings.threshold
    for ai, slots in enumerate(enumerate_architectures(3, 1)):
        searched = optimize_gates(slots, target, settings, seed=(3, 1, ai))
        assert 0.0 < searched.achieved_fidelity <= ceiling


def test_exhaustiveness_tag_for_full_search(bell):
    estimate = estimate_state_complexity(bell, SMALL, seed=4)
    assert estimate.exhaustiveness == "architecture_exhaustive"


def test_exhaustiveness_tag_when_subsampled():
    target, _ = sample_target(4, 2, seed=14)
    settings = SearchSettings(restarts=6, iterations=300, r_max=2, max_architectures=3)
    estimate = estimate_state_complexity(target, settings, seed=5)
    if isinstance(estimate, ComplexityEstimate) and estimate.r_star > 1:
        assert estimate.exhaustiveness == "sampled"


def test_architecture_subsampling_is_deterministic():
    target, _ = sample_target(4, 2, seed=15)
    settings = SearchSettings(restarts=4, iterations=200, r_max=2, max_architectures=3)
    e1 = estimate_state_complexity(target, settings, seed=6)
    e2 = estimate_state_complexity(target, settings, seed=6)
    assert type(e1) is type(e2)
    if isinstance(e1, ComplexityEstimate):
        assert e1.r_star == e2.r_star
        assert e1.achieved_fidelity == e2.achieved_fidelity


# --- layouts the target rules out ------------------------------------------


def _bound_targets(num_qubits):
    """A generic target and one made by two gates, which is a product
    across some cut when it has four or more qubits."""
    return [random_state(num_qubits, seed=700 + num_qubits),
            sample_target(num_qubits, 2, seed=(710, num_qubits))[0]]


@pytest.mark.parametrize("num_qubits", [3, 4, 5])
def test_layout_bound_is_the_least_weight_over_uncrossed_cuts(num_qubits):
    r_top = 3 if num_qubits == 5 else 4
    layouts = [slots for r in range(1, r_top + 1)
               for slots in enumerate_architectures(num_qubits, r)]
    connected = 0
    for target in _bound_targets(num_qubits):
        weights = cut_weights(target)
        eigenvalues = oracles.largest_reduced_eigenvalues(target.amplitudes, num_qubits)
        for slots in layouts:
            expected = oracles.uncrossed_cut_bound(slots, eigenvalues)
            bound = layout_bound(slots, weights)
            assert abs(bound - expected) <= 1e-12
            if oracles.connects_every_qubit(slots, num_qubits):
                connected += 1
                assert bound == 1.0
    # n - 1 gates are the fewest that connect n qubits
    assert (connected > 0) == (r_top >= num_qubits - 1)


@pytest.mark.parametrize("num_qubits", [3, 4, 5])
def test_no_ruled_out_layout_reaches_the_threshold(num_qubits):
    settings = SearchSettings(restarts=2, iterations=100)
    ruled_out = 0
    for target in _bound_targets(num_qubits):
        weights = cut_weights(target)
        for r in (1, 2):
            for ai, slots in enumerate(enumerate_architectures(num_qubits, r)):
                result = optimize_gates(slots, target, settings, seed=(r, ai))
                # the bound holds on every layout, in reach or not
                assert result.achieved_fidelity <= layout_bound(slots, weights) + 1e-12
                if not can_reach(slots, weights, settings.threshold):
                    ruled_out += 1
                    assert not result.converged
    # the generic target rules out at least its one-gate layouts
    assert ruled_out >= num_qubits


def test_the_split_layout_reaches_its_cut_weight():
    # ((0, 1), (2, 3)) prepares exactly the products across {0, 1} | {2, 3},
    # so its best fidelity is the target's largest squared Schmidt
    # coefficient there: the bound is tight
    target, _ = sample_target(4, 6, seed=(70, 0))
    weight = cut_weights(target)[0b0011]
    result = optimize_gates(((0, 1), (2, 3)), target,
                            SearchSettings(fidelity_tol=1e-12, restarts=3, iterations=2000),
                            seed=1)
    assert abs(result.achieved_fidelity - weight) <= 2e-15


@pytest.mark.parametrize("num_qubits, r_max, max_architectures",
                         [(3, 1, 256), (4, 3, 12), (5, 3, 8)])
def test_the_ceiling_is_the_largest_layout_bound_and_no_layout_beats_it(
        num_qubits, r_max, max_architectures):
    settings = SearchSettings(r_max=r_max, restarts=2, iterations=20,
                              max_architectures=max_architectures)
    for key in range(3):
        target, _ = sample_target(num_qubits, 8, (40 + key, num_qubits))
        estimate = estimate_state_complexity(target, settings, key)
        assert isinstance(estimate, ComplexityNotFound)
        # the walk searches every layout of the subsample, none ruled out
        walk = oracles.search_every_layout(target, settings, key)
        assert walk.r_star is None
        ceilings = estimate.fidelity_bound_per_r
        assert set(ceilings) == set(walk.best_fidelity_per_r) == set(range(1, r_max + 1))
        eigenvalues = oracles.largest_reduced_eigenvalues(target.amplitudes, num_qubits)
        for r, ceiling in ceilings.items():
            expected = max(oracles.uncrossed_cut_bound(slots, eigenvalues)
                           for slots in enumerate_architectures(num_qubits, r))
            assert abs(ceiling - expected) <= 1e-12
            assert walk.best_fidelity_per_r[r] <= ceiling + BOUND_MARGIN
            assert estimate.best_fidelity_per_r.get(r, 0.0) <= ceiling + BOUND_MARGIN


def test_two_qubits_have_a_ceiling_of_one_past_their_one_layout():
    # one exact gate lands a hair below a threshold of 1 - 1e-16; two
    # qubits have no irreducible layout of two gates, and the one-gate
    # layout already reaches every state
    settings = SearchSettings(fidelity_tol=1e-16, r_max=2, restarts=1, iterations=5)
    estimate = estimate_state_complexity(random_state(2, seed=3), settings, seed=0)
    assert isinstance(estimate, ComplexityNotFound)
    assert enumerate_architectures(2, 2) == ()
    assert estimate.fidelity_bound_per_r == {1: 1.0, 2: 1.0}
    assert set(estimate.best_fidelity_per_r) == {1}


@pytest.mark.parametrize("num_qubits", [3, 4, 5])
def test_a_target_made_on_a_layout_never_rules_it_out(num_qubits):
    # a target prepared on a layout is a product across each cut the layout
    # leaves uncrossed, however tight the tolerance
    rng = np.random.default_rng(720 + num_qubits)
    settings = SearchSettings(fidelity_tol=1e-12)
    for r in (1, 2, 3):
        for _ in range(4):
            slots = random_architecture(num_qubits, r, rng)
            target = run_circuit(random_circuit(num_qubits, slots, rng))[-1]
            assert can_reach(slots, cut_weights(target), settings.threshold)

