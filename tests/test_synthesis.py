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
                                _LayoutPlan, _ascend, _bfgs, _fidelity_and_grad, _free_gates,
                                _fresh_chart, _fresh_exp, _su4_eigh,
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


def _chart_point(free, plan, b=None):
    """The kernel's coordinates for free gates drawn as 15 parameters each:
    each fresh slot starts from its drawn gate with 6 coordinates b (0 when
    b is None, else b's rows in turn), every touched one keeps its 15."""
    starts = _su4_eigh(free[plan.fresh])[2]
    fresh = np.zeros((len(plan.fresh), 6)) if b is None else np.asarray(b)[:len(plan.fresh)]
    return np.concatenate((fresh.reshape(-1), free[plan.touched].reshape(-1))), starts


def _check_against_expm_oracle(free, pairs, n, target, b=None):
    # the reduced gradient is the full gradient at the closed-form last
    # gate, restricted to the free gates; at that optimum the full
    # gradient on the last gate vanishes.  A fresh gate is its start times
    # the exponential of its 6 coordinates, the rest of its 15 held at 0
    plan = _LayoutPlan(pairs, n, target)
    x, starts = _chart_point(free, plan, b)
    value, grad, last, _ = _fidelity_and_grad(x, starts, plan)
    split = 6 * len(plan.fresh)
    thetas = np.zeros((len(pairs), 15))
    thetas[plan.fresh, :6] = x[:split].reshape(-1, 6)
    thetas[plan.touched] = x[split:].reshape(-1, 15)
    thetas[-1] = params_from_su4(last)
    gate_starts = [np.eye(4)] * len(pairs)
    for j, g in enumerate(plan.fresh):
        gate_starts[g] = starts[j]
    ref_value, ref_grad = oracles.fidelity_and_gradient_expm(
        thetas, GENERATORS, pairs, n, target, gate_starts)
    ref = np.concatenate((ref_grad[plan.fresh, :6].reshape(-1),
                          ref_grad[plan.touched].reshape(-1)))
    assert abs(value - ref_value) <= 1e-12
    assert np.max(np.abs(grad - ref), initial=0.0) <= 1e-8
    assert np.max(np.abs(ref_grad[-1])) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("num_gates", [1, 2, 3, 4])
def test_gradient_matches_expm_frechet_oracle(n, num_gates):
    rng = np.random.default_rng(1000 + 10 * n + num_gates)
    pairs = _random_pairs(n, num_gates, rng)
    target = random_state(n, seed=200 + 10 * n + num_gates).amplitudes
    free = rng.uniform(-np.pi, np.pi, size=(num_gates - 1, 15))
    _check_against_expm_oracle(free, pairs, n, target, rng.normal(size=(num_gates, 6)))


def test_gradient_at_identity_and_near_degenerate_spectra():
    # slots 1-3 are touched, so their gates take the eigenbasis gradient:
    # theta = 0 is the identity gate, whose eigenvalues all coincide, and
    # the two after it have exactly and nearly repeated eigenvalues.  Slot 0
    # is fresh and sits at b = 0, where rho = 0
    rng = np.random.default_rng(21)
    degenerate = np.zeros(15)
    degenerate[12] = 0.7  # diag(1, -1, 0, 0) direction: eigenvalue 0 twice
    free = np.stack([rng.uniform(-np.pi, np.pi, size=15), np.zeros(15), degenerate,
                     degenerate + 1e-7 * rng.normal(size=15)])
    pairs = [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2)]
    target = random_state(3, seed=22).amplitudes
    plan = _LayoutPlan(pairs, 3, target)
    assert list(plan.fresh) == [0] and list(plan.touched) == [1, 2, 3]
    _check_against_expm_oracle(free, pairs, 3, target)


def _dense_state(free, pairs, n):
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for theta, pair in zip(free, pairs):
        state = oracles.embed_gate(_su4_eigh(theta)[2], pair, n) @ state
    return state


# --- fresh slots: the 6 coordinates that move |00> ------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fresh_slots_are_those_whose_pair_holds_00(n):
    # every enumerated layout of up to four gates, against the slots whose
    # pair the state before them leaves in |00> in every branch
    for r in range(1, 5):
        for slots in enumerate_architectures(n, r):
            plan = _LayoutPlan(slots, n, random_state(n, seed=1).amplitudes)
            fresh = oracles.untouched_slots(slots, n)
            assert list(plan.fresh) == fresh
            assert list(plan.touched) == [g for g in range(r - 1) if g not in fresh]
            assert r == 1 or plan.fresh[0] == 0


@pytest.mark.parametrize("scale", [3.0, 1.0, 1e-3, 1e-8, 1e-160, 0.0])
def test_fresh_exponential_matches_expm(scale):
    rng = np.random.default_rng(40)
    for _ in range(5):
        coeffs = scale * rng.normal(size=6)
        e = _fresh_exp(coeffs)
        assert np.max(np.abs(e - oracles.fresh_exp_expm(coeffs))) <= 1e-14
        # the first column is the one the kernel scores, to the last bit
        assert np.array_equal(e[:, 0], _fresh_chart(coeffs)[0])
        assert np.max(np.abs(e.conj().T @ e - np.eye(4))) <= 1e-14
        assert abs(np.linalg.det(e) - 1.0) <= 1e-14


# free slots 0 and 1 of ((0, 1), (2, 3), ...) are both fresh
MIXED_LAYOUTS = [
    (3, ((0, 1), (1, 2))),
    (3, ((0, 1), (1, 2), (0, 2))),
    (3, ((1, 2), (0, 1), (0, 2), (1, 2))),
    (4, ((0, 1), (2, 3), (1, 2))),
    (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    (4, ((2, 3), (0, 1), (0, 3), (1, 2))),
    (5, ((0, 1), (2, 3), (1, 2), (3, 4))),
    (5, ((0, 1), (1, 2), (3, 4), (2, 4))),
    (5, ((3, 1), (0, 2), (2, 4))),
]


@pytest.mark.parametrize("n,pairs", MIXED_LAYOUTS)
def test_gradient_matches_central_differences(n, pairs):
    rng = np.random.default_rng((n, len(pairs)))
    target = random_state(n, seed=60 + n).amplitudes
    plan = _LayoutPlan(pairs, n, target)
    free = rng.uniform(-np.pi, np.pi, size=(len(pairs) - 1, 15))
    for b in (None, 0.7 * rng.normal(size=(len(pairs), 6))):
        x, starts = _chart_point(free, plan, b)
        value, grad, _, _ = _fidelity_and_grad(x, starts, plan)
        step = 1e-6
        central = np.empty_like(x)
        for i in range(x.size):
            up, down = x.copy(), x.copy()
            up[i] += step
            down[i] -= step
            central[i] = (_fidelity_and_grad(up, starts, plan)[0]
                          - _fidelity_and_grad(down, starts, plan)[0]) / (2 * step)
        assert 0.0 < value <= 1.0
        assert np.max(np.abs(grad - central)) <= 1e-7


@pytest.mark.parametrize("n,pairs", MIXED_LAYOUTS)
def test_the_chart_starts_at_the_drawn_gates(n, pairs):
    # at b = 0 every fresh gate is its drawn gate, so the fidelity is that
    # of the kernel with every free gate in all 15 coordinates at theta0
    rng = np.random.default_rng((7, n, len(pairs)))
    target = random_state(n, seed=80 + n).amplitudes
    theta0 = rng.uniform(-np.pi, np.pi, size=(len(pairs) - 1, 15))
    plan = _LayoutPlan(pairs, n, target)
    value = _fidelity_and_grad(*_chart_point(theta0, plan), plan)[0]
    all_coordinates = oracles.fidelity_and_grad_all_coordinates(theta0, pairs, n, target)[0]
    assert abs(value - all_coordinates) <= 1e-12
    mats = _ascend(theta0, plan, 1)[1]
    assert mats.shape == (len(pairs) - 1, 4, 4)
    for m in mats:
        TwoQubitGate((0, 1), m)  # each bound gate is in SU(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("num_gates", [1, 2, 3])
def test_closed_form_last_gate_matches_trace_norm_oracle(n, num_gates):
    rng = np.random.default_rng(60 + 10 * n + num_gates)
    pairs = _random_pairs(n, num_gates, rng)
    target = random_state(n, seed=70 + 10 * n + num_gates).amplitudes
    free = rng.uniform(-np.pi, np.pi, size=(num_gates - 1, 15))
    plan = _LayoutPlan(pairs, n, target)
    value, _, last, _ = _fidelity_and_grad(*_chart_point(free, plan), plan)
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
    plan = _LayoutPlan(pairs, n, target.amplitudes)
    x, starts = _chart_point(free, plan, rng.normal(size=(3, 6)))
    value, _, last, touched = _fidelity_and_grad(x, starts, plan)
    mats = list(_free_gates(x, starts, touched, plan)) + [_su4_eigh(params_from_su4(last))[2]]
    circuit = Circuit(n, [TwoQubitGate(pair, m) for pair, m in zip(pairs, mats)])
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
                _, mats, last, value = _ascend(theta0[:-1], plan, 500)
                last = last * np.exp(-0.25j * np.angle(np.linalg.det(last)))
                mats = list(mats) + [_su4_eigh(params_from_su4(last))[2]]
                circuit = Circuit(n, [TwoQubitGate(pair, m) for pair, m in zip(pairs, mats)])
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
            theta0 = (np.stack([params_from_su4(m) for m in mats])
                      + 1e-6 * rng.normal(size=theta0.shape))
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


# --- the optimizer, against scipy's L-BFGS-B -------------------------------

# a connected layout of R gates on n qubits, for n = 3..5 and R = 2..4
GRID_LAYOUTS = {
    (3, 2): ((0, 1), (1, 2)),
    (3, 3): ((0, 1), (1, 2), (0, 2)),
    (3, 4): ((0, 1), (1, 2), (0, 2), (0, 1)),
    (4, 2): ((0, 1), (2, 3)),
    (4, 3): ((0, 1), (2, 3), (1, 2)),
    (4, 4): ((0, 1), (2, 3), (1, 2), (0, 3)),
    (5, 2): ((0, 1), (1, 2)),
    (5, 3): ((0, 1), (2, 3), (1, 4)),
    (5, 4): ((0, 1), (2, 3), (1, 2), (3, 4)),
}


@pytest.mark.parametrize("n,num_gates", sorted(GRID_LAYOUTS))
def test_bfgs_ascent_matches_lbfgsb_in_successes_and_best_fidelity(n, num_gates):
    # a target made on the layout, which every start can reach, and a Haar
    # state, which at n >= 4 none can; 16 seeded starts of 500 iterations
    pairs = GRID_LAYOUTS[n, num_gates]
    threshold = SearchSettings().threshold
    targets = [run_circuit(random_circuit(n, pairs, np.random.default_rng((n, num_gates))))[-1],
               random_state(n, seed=100 * n + num_gates)]
    for target in targets:
        plan = _LayoutPlan(pairs, n, target.amplitudes)
        ours, theirs = [], []
        for k in range(16):
            theta0 = np.random.default_rng((n, num_gates, k)).uniform(
                -np.pi, np.pi, size=(num_gates - 1, 15))
            ours.append(_ascend(theta0, plan, 500)[3])
            theirs.append(oracles.ascend_always_scipy(theta0, plan, 500, "L-BFGS-B")[3])
        ours, theirs = np.array(ours), np.array(theirs)
        assert (ours >= threshold).sum() == (theirs >= threshold).sum()
        assert abs(ours.max() - theirs.max()) <= 1e-9


def test_bfgs_meets_gtol_on_a_strictly_convex_quadratic():
    # condition number 100 in 30 dimensions, minimum 0 at x_star; with the
    # decrease test off, only the gradient test or maxiter can end it
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    hessian = (q * np.geomspace(0.1, 10.0, 30)) @ q.T
    x_star = rng.normal(size=30)
    calls = []

    def quadratic(x):
        calls.append(1)
        grad = hessian @ (x - x_star)
        return 0.5 * (x - x_star) @ grad, grad

    maxiter = 200
    x, value, grad = _bfgs(quadratic, np.zeros(30), maxiter=maxiter, ftol=0.0,
                           gtol=synthesis.LBFGS_GTOL)
    assert len(calls) <= 1 + 20 * maxiter
    assert np.abs(grad).max() <= synthesis.LBFGS_GTOL
    assert np.array_equal(grad, quadratic(x)[1]) and value == quadratic(x)[0]
    assert np.abs(x - x_star).max() <= 1e-7


def test_bfgs_stops_when_no_step_lowers_the_value():
    # a gradient that promises descent which the value never shows: the
    # first line search tries the unit step and 19 halvings, then gives up
    calls = []

    def flat(x):
        calls.append(x)
        return 1.0, np.ones_like(x)

    x0 = np.zeros(4)
    x, value, grad = _bfgs(flat, x0, maxiter=50, ftol=1e-12, gtol=1e-8)
    assert len(calls) == 21
    assert x is x0 and value == 1.0
    assert np.allclose(calls[1], -0.5 * np.ones(4))  # -g/|g|, a unit step


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
    for (pairs, free), b in itertools.product(_kernel_cases(n, num_gates, rng),
                                              (None, rng.normal(size=(num_gates, 6)))):
        plan = _LayoutPlan(pairs, n, target)
        x, starts = _chart_point(free, plan, b)
        value, grad, last, mats = _fidelity_and_grad(x, starts, plan)
        ref_value, ref_grad, ref_last, ref_mats = oracles.fidelity_and_grad_per_call(
            x, starts, pairs, n, target)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(last, ref_last)
        assert np.array_equal(mats, oracles.su4_eigh(free[plan.touched])[2])
        assert np.array_equal(mats, ref_mats)


def test_a_plan_gives_the_same_bits_whatever_it_evaluated_before():
    # the plan's scratch vectors are overwritten by every call, so
    # evaluating A, then B, then A again gives A's bits both times
    rng = np.random.default_rng(530)
    pairs = [(0, 1), (2, 1), (1, 3), (3, 0)]
    plan = _LayoutPlan(pairs, 4, random_state(4, seed=531).amplitudes)
    a, b = (_chart_point(free, plan, rng.normal(size=(3, 6)))
            for free in rng.uniform(-np.pi, np.pi, size=(2, 3, 15)))
    first = _fidelity_and_grad(*a, plan)
    _fidelity_and_grad(*b, plan)
    again = _fidelity_and_grad(*a, plan)
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


def _gates_from_parameters(theta0, x, plan):
    """Each free gate rebuilt by the exponential maps from the restart's
    draw and the ascent's point: a fresh one as its drawn gate times
    E(b), a touched one from its 15 parameters."""
    split = 6 * len(plan.fresh)
    starts = _su4_eigh(theta0[plan.fresh])[2]
    gates = np.empty((len(theta0), 4, 4), dtype=complex)
    for j, g in enumerate(plan.fresh):
        gates[g] = starts[j] @ _fresh_exp(x[6 * j:6 * j + 6])
    gates[plan.touched] = _su4_eigh(x[split:].reshape(-1, 15))[2]
    return gates


def _replayed_from_parameters(slots, free_gates, last, target):
    """The replay before it bound the kernel's matrices: each free gate
    rebuilt from its parameters by the exponential maps."""
    gates = [TwoQubitGate(pair, m) for pair, m in zip(slots[:-1], free_gates)]
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
        ascents.append((args, out))
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
        (theta0, plan, _), (x, mats, last, value) = ascents[result.best_restart - first]
        expected = _gates_from_parameters(theta0, x, plan)
        for g, gate in enumerate(result.circuit.gates[:-1]):
            assert np.array_equal(gate.matrix, expected[g])
        path, achieved = _replayed_from_parameters(slots, expected, last, target)
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
                             SearchSettings(fidelity_tol=1e-3, restarts=8, iterations=2), seed=2)
    assert stopped.converged
    assert stopped.restarts_run >= 2
    full = optimize_gates(arch, target,
                          SearchSettings(fidelity_tol=1e-12, restarts=stopped.restarts_run,
                                         iterations=2), seed=2)
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
        seed=4, max_collect=5)
    assert len(results) == 5
    assert [r.best_restart for r in results] == list(range(5))
    # every ascent stops once it passes STOP_FIDELITY = 1 - 1e-9, and here
    # none lands within 1e-15 of 1, so this search runs all five restarts
    best = optimize_gates(arch, target,
                          SearchSettings(fidelity_tol=1e-15, restarts=5, iterations=300), seed=4)
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
    {"iterations": "8"}, {"r_max": np.float64(2.0)}, {"fidelity_tol": "0.1"},
    {"fidelity_tol": None}, {"fidelity_tol": True}, {"fidelity_tol": float("nan")}])
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

