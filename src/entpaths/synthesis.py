"""Minimum-gate synthesis of target states by multi-start fidelity ascent.

Gates are parametrized by 15 real coefficients over a fixed traceless
Hermitian generator basis, mapped onto SU(4) through the matrix
exponential (a surjective, differentiable map).  For a fixed architecture,
a layout given as the tuple of qubit pairs its gates act on in order, the
preparation fidelity |<target|U_R..U_1|0..0>|**2 is maximized in two
parts.  The last gate has a closed-form optimum: one 4x4 SVD of the
overlap between the state before it and the target, gathered on its pair
(von Neumann's trace inequality), so the fidelity becomes a function of
the other R-1 gates alone (variable projection, Golub & Pereyra 1973).
That function is maximized from many seeded random starts by _bfgs, a
dense BFGS with Armijo backtracking that stops on L-BFGS-B's tests, with
the exact gradient of each gate's exponential taken in its eigenbasis; a
one-gate search is a single exact evaluation.  A free gate whose two
qubits no earlier gate touches (a fresh slot, always the first) acts on
|00>, so the state path depends on it only through its first column and
9 of its 15 coefficients are gauge: it keeps the gate U0 its restart drew
and ascends U0 E(b) in the 6 coordinates b of the generators that move
|00>, from b = 0, where E(b) has a closed form and its first column
needs no eigh.  With at most a few hundred free parameters the dense
update costs a fixed handful of numpy calls a step, less than scipy's
L-BFGS-B spent on its bookkeeping.  The kernel's one batched eigh (of
the other free gates) and one SVD per evaluation call LAPACK through
core's _eigh and _svd, past numpy.linalg's wrappers, whose dispatch costs
about a third of each call on 4x4 matrices; their results are numpy's bit
for bit.  Each ascent evaluates its start once and calls _bfgs only when
that start neither reaches the stopping fidelity nor is stationary (the
test _bfgs would make on it before any step).  Whatever does not depend
on the restart (the gather indices, the target gathered on the last pair,
|0..0> on the first, scratch state vectors) is built once per layout and
target, which also checks the layout before any ascent.  A kept restart
binds the matrices its best point gives the free gates (U0 E(b) in full
for a fresh one), and the last gate the SVD gave there, rescaled into
SU(4).  The smallest gate count at which any canonical architecture
reaches a fidelity tolerance estimates the target's exact-preparation
complexity.  One SearchSettings value carries that tolerance and the
search caps down to each restart.
_bfgs is handed to scipy.optimize.minimize as its method, the one name
read off scipy.  Only the scipy package itself is imported here; scipy
loads its `optimize` submodule on first access, so that import happens on
the first ascent that reaches _bfgs, and a process that never ascends
(every subcommand but `conjecture`) starts without it.

A layout whose gates leave some cut of the register uncrossed prepares
only states that are products across it, so its fidelity is at most the
target's largest squared Schmidt coefficient there.  The search reads
those once per target (entanglement.cut_weights), draws its subsample
first and then skips every layout whose least such bound is below the
threshold.  When no gate count is found, the largest bound over all the
layouts of a gate count is reported as a ceiling no circuit of that many
gates beats.  The search and the collection of the solutions the harness
scores are one walk: past its witness the same loop goes on to r_max in
the same layout order and seeds, the witness first, then its layout
resumed at the next restart.

Enumeration of architectures dedupes gate orderings that differ only by
swapping adjacent slots on disjoint qubit pairs, which commute, keeping
the lexicographic normal form of each class.  It also drops reducible
classes, where two gates on one pair have only disjoint gates between
them: those merge into one gate, so such a layout reaches exactly what a
shorter one reaches.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

from .core import (
    Circuit,
    ResourceCapError,
    StateVector,
    TwoQubitGate,
    _checked_count,
    _checked_num_qubits,
    _checked_pair,
    _eigh,
    _is_finite_number,
    _svd,
    all_pairs,
    fidelity,
    gather_index,
    random_architecture,
    random_circuit,
    run_circuit,
)
from .entanglement import cut_weights

NUM_GATE_PARAMS = 15
STOP_FIDELITY = 1.0 - 1e-9
LBFGS_GTOL = 1e-8
ARCH_SEQUENCE_CAP = 200_000
# round-off a layout's fidelity bound is allowed before it excludes the layout
BOUND_MARGIN = 1e-12

EXHAUSTIVE = "architecture_exhaustive"
SAMPLED = "sampled"


def _build_generators() -> np.ndarray:
    """The 15 traceless Hermitian generators of su(4) (Tr Ga Gb = 2 delta)."""
    generators = []
    for j in range(4):
        for k in range(j + 1, 4):
            m = np.zeros((4, 4), dtype=np.complex128)
            m[j, k] = 1.0
            m[k, j] = 1.0
            generators.append(m)
            m = np.zeros((4, 4), dtype=np.complex128)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            generators.append(m)
    for level in range(1, 4):
        d = np.zeros(4)
        d[:level] = 1.0
        d[level] = -level
        generators.append(np.diag(d * math.sqrt(2.0 / (level * (level + 1)))).astype(np.complex128))
    return np.stack(generators)


GENERATORS = _build_generators()
_GENERATOR_ROWS = GENERATORS.reshape(NUM_GATE_PARAMS, 16)
# what np.sinc puts in place of a zero argument
_EPS = np.finfo(np.float64).eps
# a gathered state zero off its pair's |00> row, as that row times this
_ROW_ZERO = np.array([[1.0], [0.0], [0.0], [0.0]])
# the touched gates' matrices of a layout that has none
_NO_GATES = np.empty((0, 4, 4), dtype=np.complex128)


def _su4_eigh(thetas: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For a (..., 15) parameter array, H = sum theta_a G_a = V diag(lam) V^+.

    Returns (lam, V, U, conj(V)) with U = exp(-iH) of shape (..., 4, 4).
    """
    h = (thetas @ _GENERATOR_ROWS).reshape(thetas.shape[:-1] + (4, 4))
    eigenvalues, vecs = _eigh(h)
    phases = np.exp(-1.0j * eigenvalues)
    vecs_conj = vecs.conj()
    mats = (vecs * phases[..., None, :]) @ np.swapaxes(vecs_conj, -1, -2)
    return eigenvalues, vecs, mats, vecs_conj


def _seed_key(seed, *extra) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        base = (int(seed),)
    else:
        base = tuple(int(s) for s in seed)
    return base + tuple(int(e) for e in extra)


# --- fidelity ascent ------------------------------------------------------


class _LayoutPlan:
    """What the fidelity kernel reads of one layout and target, built once
    for every restart on it: the gather index of each slot, the target
    gathered on the last pair and its conjugate transpose, and |0..0>
    gathered on the first pair.  Two state vectors, the environments of the
    touched gates and the first environment column of each fresh one times
    its start are scratch space that each kernel call overwrites before
    reading, so the plan holds nothing of any one restart.

    A free slot is fresh when no earlier slot touches either of its qubits
    (slot 0 always is): its gate acts on |00> of its pair, so the state path
    depends on it only through its first column.  `fresh` and `touched`
    list the free slots of each kind in order, and `kinds` gives each free
    slot its kind and its place in that list.

    An empty layout raises ValueError; each slot must be a qubit pair by
    core's rule (_checked_pair), any two-element sequence of indices.
    """

    __slots__ = ("index", "fresh", "touched", "kinds", "last_target", "last_target_h",
                 "start", "psi", "back", "env", "pulled")

    def __init__(self, slots: Sequence[tuple[int, int]], num_qubits: int,
                 target_amp: np.ndarray):
        if not slots:
            raise ValueError("the search needs a layout of at least one gate")
        pairs = [_checked_pair(pair, num_qubits, "layout slot") for pair in slots]
        self.index = [gather_index(pair, num_qubits) for pair in pairs]
        fresh, touched, kinds, used = [], [], [], set()
        for g, pair in enumerate(pairs[:-1]):
            kind = fresh if used.isdisjoint(pair) else touched
            kinds.append((kind is fresh, len(kind)))
            kind.append(g)
            used.update(pair)
        self.fresh = np.array(fresh, dtype=np.intp)
        self.touched = np.array(touched, dtype=np.intp)
        self.kinds = kinds
        self.last_target = target_amp[self.index[-1]]
        self.last_target_h = self.last_target.conj().T
        zero = np.zeros(target_amp.size, dtype=np.complex128)
        zero[0] = 1.0
        self.start = zero[self.index[0]]
        self.psi = np.empty_like(zero)
        self.back = np.empty_like(target_amp)
        self.env = np.empty((len(touched), 4, 4), dtype=np.complex128)
        self.pulled = np.empty((len(fresh), 4), dtype=np.complex128)


def _fresh_chart(coeffs: Sequence[float]
                 ) -> tuple[list[complex], tuple[complex, complex, complex], float, float]:
    """The first column E(b) e_0 = (cos rho, -i sinc(rho) b) of a fresh
    gate's factor E(b) (_fresh_exp), with b, rho**2 and sinc(rho), for 6
    coordinates packed as b = (coeffs[0] + i coeffs[1], ...) in C^3 and
    rho = |b|: what the kernel and _fresh_exp both build from, in Python
    floats, cheaper than numpy calls at this size."""
    r0, i0, r1, i1, r2, i2 = coeffs
    b = (complex(r0, i0), complex(r1, i1), complex(r2, i2))
    rho2 = r0 * r0 + i0 * i0 + r1 * r1 + i1 * i1 + r2 * r2 + i2 * i2
    rho = math.sqrt(rho2)
    sinc = math.sin(rho) / rho if rho else 1.0
    lower = -1.0j * sinc
    return [math.cos(rho), lower * b[0], lower * b[1], lower * b[2]], b, rho2, sinc


def _fresh_exp(coeffs: Sequence[float]) -> np.ndarray:
    """E(b) = exp(-i sum_a b_a G_a) over the generators that move |00>,
    GENERATORS[:6], for 6 coordinates packed as _fresh_chart packs them.

    With H = [[0, b^+], [b, 0]], E(b) = [[cos rho, -i sinc(rho) b^+],
    [-i sinc(rho) b, I - sinc(rho/2)**2 b b^+ / 2]] with no eigh; the last
    block is I + (cos rho - 1) b b^+ / rho**2 in a form exact as rho -> 0.
    Its first column is _fresh_chart's, the one the kernel scores.
    """
    column, b, rho2, _ = _fresh_chart(coeffs)
    rho = math.sqrt(rho2)
    half = math.sin(0.5 * rho) / (0.5 * rho) if rho else 1.0
    b = np.array(b)
    out = np.empty((4, 4), dtype=np.complex128)
    out[:, 0] = column
    out[0, 1:] = -out[1:, 0].conj()
    out[1:, 1:] = np.eye(3) - (0.5 * half * half) * (b[:, None] * b.conj())
    return out


def _fidelity_and_grad(x: np.ndarray, starts: np.ndarray, plan: _LayoutPlan
                       ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Best fidelity over the last gate, its gradient in the free gates'
    coordinates x, the best last gate and the touched gates' matrices.

    x holds 6 coordinates b for each fresh slot of the plan, then 15
    parameters theta for each touched one, each kind in slot order.  Fresh
    gate j is starts[j] E(b) (_fresh_exp), the gate its restart drew times
    one that is the identity at b = 0; since it acts on |00>, only its
    first column starts[j] E(b) e_0 is built, with E(b) e_0 =
    (cos rho, -i sinc(rho) b).  A touched gate is exp(-i sum theta_a G_a).

    With phi the state before the last gate, gathered on its pair as
    Phi = phi[ix] and the target as T = t[ix], the amplitude is
    a = tr(U K) for K = Phi T^+, so by the von Neumann trace inequality
    max_U |a| = sum of the singular values of K, reached at U* = V W^+
    where K = W S V^+.  Since U* is optimal, the gradient in the free gates
    is that of |a|**2 at U* held fixed (Danskin): the backward pass starts
    from (U*^+ (x) I) t.

    The amplitude is linear in each free gate: a = sum(E_g * U_g) with E_g
    built from the state before gate g and the target propagated back to
    just after it.  For a touched gate, with H = V diag(lam) V^+ and
    U = exp(-iH), the derivative of U along H-direction G is
    V ((V^+ G V) * L) V^+, where L holds the divided differences of
    exp(-i x) at the eigenvalues (Daleckii-Krein), so
    dF/dtheta_a = 2 Re(conj(a) sum((conj(V) M V^T) * G_a)) with
    M = (V^T E conj(V)) * L; one batched eigh serves these gates and their
    gradient.  A fresh gate's E_g is nonzero in column 0 alone, so
    a = v . E(b) e_0 with v = E_g[:, 0] starts[j], and the chain rule
    through rho = |b| gives, packed as complex numbers like b,
    dF/db = 2a (Re(alpha) b + i sinc(rho) conj(v[1:])) with
    Re(alpha) = c Im(v[1:] . b) - sinc(rho) Re(v[0]) and
    c = (cos rho - sinc rho) / rho**2.  The c term is O(rho**2 |v|), so
    the round-off of c as rho -> 0 stays below that of the others.
    """
    num_fresh = len(plan.fresh)
    split = 6 * num_fresh
    coords = x[:split].tolist()
    charts = [_fresh_chart(coords[6 * j:6 * j + 6]) for j in range(num_fresh)]
    # each fresh gate's first column, starts[j] E(b) e_0
    cols = [np.dot(start, chart[0])[:, None] for start, chart in zip(starts, charts)]
    touched = bool(len(plan.touched))
    if touched:
        eigenvalues, vecs, mats, vecs_conj = _su4_eigh(x[split:].reshape(-1, NUM_GATE_PARAMS))
    else:
        mats = _NO_GATES
    index = plan.index
    kinds = plan.kinds
    psi = plan.psi
    local = plan.start
    before = []  # the state before gate g, gathered for its pair
    for g, (fresh, j) in enumerate(kinds):
        if fresh:  # the pair holds |00>, so only row 0 is nonzero
            local = local[0]
            psi[index[g]] = cols[j] * local
        else:
            psi[index[g]] = mats[j] @ local
        before.append(local)
        local = psi[index[g + 1]]
    w, sigma, vh = _svd(local @ plan.last_target_h)
    last = vh.conj().T @ w.conj().T
    amp = float(sigma.sum())  # tr(U* K), real and nonnegative
    env = plan.env
    pulled = plan.pulled
    back = plan.back
    back[index[-1]] = last.conj().T @ plan.last_target
    for g in range(len(kinds) - 1, -1, -1):
        fresh, j = kinds[g]
        local = back[index[g]]
        if fresh:
            np.matmul(local.conj() @ before[g], starts[j], out=pulled[j])
            if g:  # the gates before it read only the |00> row
                back[index[g]] = _ROW_ZERO * (cols[j].conj().T @ local)
        else:
            env[j] = local.conj() @ before[g].T
            if g:  # nothing reads the target propagated to before gate 0
                back[index[g]] = mats[j].conj().T @ local
    grad = np.empty_like(x)
    parts = []
    for ((cos, *_), (b0, b1, b2), rho2, sinc), (v0, v1, v2, v3) in zip(charts, pulled.tolist()):
        curve = (cos - sinc) / rho2 if rho2 else 0.0
        along = 2.0 * amp * (curve * (v1 * b0 + v2 * b1 + v3 * b2).imag - sinc * v0.real)
        across = 2.0 * amp * sinc
        # Re(alpha) b + i sinc conj(v), packed as b is
        parts += (along * b0.real + across * v1.imag, along * b0.imag + across * v1.real,
                  along * b1.real + across * v2.imag, along * b1.imag + across * v2.real,
                  along * b2.real + across * v3.imag, along * b2.imag + across * v3.real)
    grad[:split] = parts
    if touched:
        # divided differences of exp(-ix), in a form that stays exact as
        # eigenvalues meet: L_jk = -i exp(-i(l_j+l_k)/2) sinc((l_j-l_k)/2),
        # with np.sinc written out as numpy computes it
        total = eigenvalues[:, :, None] + eigenvalues[:, None, :]
        diff = eigenvalues[:, :, None] - eigenvalues[:, None, :]
        half = math.pi * (diff / (2.0 * math.pi))
        half = np.where(half, half, _EPS)
        divided = -1.0j * np.exp(-0.5j * total) * (np.sin(half) / half)
        vecs_t = np.swapaxes(vecs, -1, -2)
        inner = (vecs_t @ env @ vecs_conj) * divided
        outer = vecs_conj @ inner @ vecs_t
        damp = outer.reshape(-1, 16) @ _GENERATOR_ROWS.T
        grad[split:] = (2.0 * amp * damp.real).reshape(-1)
    return amp * amp, grad, last, mats


def _free_gates(x: np.ndarray, starts: np.ndarray, mats: np.ndarray, plan: _LayoutPlan
                ) -> np.ndarray:
    """The free gates' matrices in slot order at the point x of the
    kernel's coordinates: each fresh gate starts[j] E(b) in full, each
    touched one as the kernel built it (mats).  E(b) e_0 is the kernel's
    column to the last bit; the product with starts[j] is a matrix product
    here and a matrix-vector one there, which may round differently."""
    out = np.empty((len(plan.kinds), 4, 4), dtype=np.complex128)
    for j, g in enumerate(plan.fresh):
        np.matmul(starts[j], _fresh_exp(x[6 * j:6 * j + 6].tolist()), out=out[g])
    out[plan.touched] = mats
    return out


class _EarlyStop(Exception):
    pass


def _bfgs(fun, x0: np.ndarray, *, maxiter: int, ftol: float, gtol: float, **_
          ) -> tuple[np.ndarray, float, np.ndarray]:
    """Minimize fun, which returns (value, gradient), from x0 by BFGS on a
    dense inverse Hessian (Nocedal & Wright, Numerical Optimization, 6.1);
    a method for scipy.optimize.minimize, which passes its options as
    keywords.  Returns the last point accepted, its value and gradient.

    The first step, and any step whose quasi-Newton direction is not a
    descent direction, goes along -g/|g|.  Each step starts at length 1
    and halves until the Armijo condition holds (c1 = 1e-4), at most 20
    times; when none holds the search stops.  After the first accepted
    step the inverse Hessian starts as (s.y / y.y) I.  Backtracking does
    not enforce curvature, as L-BFGS-B's Wolfe line search does, so a step
    updates H only when s.y > 0.01 * (-g.s), when the slope along it rose
    by more than 1% (Wolfe's curvature condition with c2 = 0.99): with
    L-BFGS-B's own test, s.y > eps * (-g.s), a first unit step along which
    the slope hardly changed scaled H far too large.  It stops as L-BFGS-B
    does: when max |g| <= gtol, when a step lowers the value by at most
    ftol * max(|f|, |f_new|, 1), or after maxiter steps.
    """
    x = x0
    f, g = fun(x)
    h = None  # the inverse Hessian, once a step has scaled it
    for _ in range(maxiter):
        if np.abs(g).max() <= gtol:
            break
        if h is not None:
            d = -(h @ g)
            if g @ d >= 0.0:
                h = None
        if h is None:
            d = g / -math.sqrt(g @ g)
        slope = g @ d
        step = 1.0
        for _ in range(20):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        s = x_new - x
        y = g_new - g
        sy = s @ y
        if sy > 0.01 * -step * slope:
            if h is None:
                h = np.eye(x.size) * (sy / (y @ y))
            # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, as H + s w^T + w s^T
            hy = h @ y
            rho = 1.0 / sy
            w = (0.5 * rho * (1.0 + rho * (y @ hy))) * s - rho * hy
            update = np.outer(s, w)
            h += update
            h += update.T
        converged = f - f_new <= ftol * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if converged:
            break
    return x, f, g


def _ascend(theta0: np.ndarray, plan: _LayoutPlan, iterations: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One local ascent from the free gates theta0 (every slot of the
    plan's layout but the last, 15 parameters each); returns the best point
    seen in the kernel's coordinates, the free gates there as matrices in
    slot order, the closed-form last gate there (its phase not yet fixed)
    and their fidelity.

    A fresh slot keeps its drawn gate U0 = exp(-iH(theta0)) as the start of
    its chart and ascends only the 6 coordinates b of U0 E(b) that move
    |00>, from b = 0; the other 9 would only move the gate along directions
    the state path cannot see.  A touched slot ascends all 15 from theta0.
    So the start is the drawn gates either way, and a kept fresh gate binds
    U0 E(b*), which is in SU(4).

    The start is evaluated once.  It is the answer, and _bfgs is not
    called, when nothing is free, when it already reaches STOP_FIDELITY, or
    when it is stationary: max |grad| <= LBFGS_GTOL is the test _bfgs
    applies to its first evaluation before taking any step, so the call
    would return at once.  Otherwise _bfgs starts from it through
    scipy.optimize.minimize, which takes it as a method, and is handed
    that evaluation, so no point is evaluated twice.
    """
    starts = _su4_eigh(theta0[plan.fresh])[2]
    x0 = np.concatenate((np.zeros(6 * len(plan.fresh)), theta0[plan.touched].reshape(-1)))
    best = {"f": -1.0}

    def negative(x: np.ndarray):
        value, grad, last, mats = _fidelity_and_grad(x, starts, plan)
        if value > best["f"]:
            best.update(f=value, x=x.copy(), mats=mats, last=last)
            if value >= STOP_FIDELITY:
                raise _EarlyStop
        return -value, -grad

    try:
        start = negative(x0)
        if x0.size and np.abs(start[1]).max() > LBFGS_GTOL:
            pending = [start]

            def objective(x: np.ndarray):
                if pending and np.array_equal(x, x0):  # _bfgs's first call
                    return pending.pop()
                return negative(x)

            scipy.optimize.minimize(
                objective, x0, method=_bfgs,
                options={"maxiter": iterations, "ftol": 1e-12, "gtol": LBFGS_GTOL},
            )
    except _EarlyStop:
        pass
    x = best["x"]
    return x, _free_gates(x, starts, best["mats"], plan), best["last"], best["f"]


@dataclass(frozen=True)
class SearchSettings:
    """A circuit prepares the target when its fidelity reaches
    1 - fidelity_tol.  Gate counts 1..r_max are searched, up to
    max_architectures layouts each, from `restarts` starts per layout of
    at most `iterations` BFGS iterations (_bfgs) each."""

    fidelity_tol: float = 1e-4
    r_max: int = 3
    restarts: int = 64
    iterations: int = 2000
    max_architectures: int = 256

    def __post_init__(self):
        if not (_is_finite_number(self.fidelity_tol) and 0.0 < self.fidelity_tol < 1.0):
            raise ValueError(f"fidelity_tol must be a number in (0, 1), got {self.fidelity_tol!r}")
        for name in ("r_max", "restarts", "iterations", "max_architectures"):
            _checked_count(getattr(self, name), 1, name)

    @property
    def threshold(self) -> float:
        """The fidelity a circuit must reach to count as preparing the target."""
        return 1.0 - self.fidelity_tol


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """A circuit a search kept, with the states it runs through (|0..0>
    first) and the fidelity of the last of them."""

    circuit: Circuit
    path: tuple[StateVector, ...]
    achieved_fidelity: float
    converged: bool
    restarts_run: int
    best_restart: int


def _restarts(slots: Sequence[tuple[int, int]], target: StateVector,
              settings: SearchSettings, seed, first: int = 0):
    """Run the restarts from index `first` on in order, yielding
    (k, mats, last, value) for each: the free gates' matrices, the raw
    closed-form last gate and the fidelity.

    One _LayoutPlan of the layout and target serves every restart; building
    it checks the layout before any ascent (_LayoutPlan).  Restart k starts
    its free gates from parameters drawn from a generator seeded by
    (seed, k), whichever restart came before it.  With one gate nothing is free and every
    restart would give the same answer, so only restart 0 runs.  The
    consumer decides when to stop and replays the restarts it keeps.
    """
    plan = _LayoutPlan(slots, target.num_qubits, target.amplitudes)
    num_free = len(slots) - 1
    for k in range(first, settings.restarts if num_free else 1):
        rng = np.random.default_rng(_seed_key(seed, k))
        theta0 = rng.uniform(-math.pi, math.pi, size=(num_free, NUM_GATE_PARAMS))
        _, mats, last, value = _ascend(theta0, plan, settings.iterations)
        yield k, mats, last, value


def _replay(slots: Sequence[tuple[int, int]], mats: np.ndarray, last: np.ndarray,
            target: StateVector) -> tuple[Circuit, tuple[StateVector, ...], float]:
    """Bind the gates of a restart, and give the state path they run
    through and the fidelity they reach.

    The free gates are the matrices the kernel built from their parameters
    at the restart's best point, so the exponential map is not run again;
    the closed-form last gate is bound as it is, its global phase rescaled
    so that det = 1.
    """
    *free_pairs, last_pair = slots
    gates = [TwoQubitGate(pair, m) for pair, m in zip(free_pairs, mats)]
    gates.append(TwoQubitGate.from_unitary(last_pair, last))
    circuit = Circuit(target.num_qubits, gates)
    path = run_circuit(circuit)
    return circuit, path, fidelity(path[-1], target)


def optimize_gates(slots: Sequence[tuple[int, int]], target: StateVector,
                   settings: SearchSettings, seed) -> OptimizeResult:
    """Maximize preparation fidelity over the gates of one layout of the
    target's register.

    The last gate is solved in closed form, so only the others are
    ascended.  Restart k draws their starting parameters from a generator
    seeded by (seed, k), so the search is deterministic; a one-gate
    layout has nothing free and runs a single restart, which is exact.
    Restarts stop at the first index reaching settings.threshold; the
    result is the best over restarts 0..that index, which is independent
    of how restarts are scheduled.  Exhausting the restarts below the
    threshold returns the best circuit found flagged converged=False.
    """
    threshold = settings.threshold
    best_value = -1.0
    best_gates = None
    best_restart = 0
    for k, mats, last, value in _restarts(slots, target, settings, seed):
        if value > best_value:
            best_value, best_gates, best_restart = value, (mats, last), k
        if value >= threshold:
            break
    circuit, path, achieved = _replay(slots, *best_gates, target)
    return OptimizeResult(circuit, path, achieved, achieved >= threshold, k + 1, best_restart)


def optimize_gates_collect(slots: Sequence[tuple[int, int]], target: StateVector,
                           settings: SearchSettings, seed, max_collect: int,
                           first_restart: int = 0) -> list[OptimizeResult]:
    """Run the restarts in order from first_restart on, collecting each one
    that reaches settings.threshold as its own solution, until max_collect
    (at least one) are collected.  Restart k is seeded as in
    optimize_gates, so a search that found its solution at restart k
    resumes here at k + 1.  A one-gate layout runs restart 0 alone, so it
    gives at most one solution."""
    threshold = settings.threshold
    collected: list[OptimizeResult] = []
    for k, mats, last, value in _restarts(slots, target, settings, seed, first_restart):
        if value < threshold:
            continue
        circuit, path, achieved = _replay(slots, mats, last, target)
        if achieved >= threshold:
            collected.append(OptimizeResult(circuit, path, achieved, True, k + 1, k))
            if len(collected) >= max_collect:
                break
    return collected


# --- architecture enumeration --------------------------------------------


def _disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] not in b and a[1] not in b


def _extends_normal_form(prefix: Sequence[tuple[int, int]], slot: tuple[int, int]) -> bool:
    """Whether prefix + (slot,) is an irreducible normal form, given that
    prefix is.

    A sequence is in normal form iff no slot could commute leftward past a
    larger one, and irreducible iff no slot could commute leftward onto an
    equal one, which it would merge with; so only the new slot's leftward
    path needs checking.
    """
    for prev in reversed(prefix):
        if prev == slot:
            return False
        if not _disjoint(prev, slot):
            return True
        if slot < prev:
            return False
    return True


@functools.cache
def _normal_forms(num_qubits: int,
                  num_gates: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every irreducible normal-form slot sequence of a length, in sorted
    order.

    Irreducible normal forms are prefix-closed, so extending only such
    prefixes in pair order generates each class once, already sorted.
    Raises ResourceCapError as soon as more than ARCH_SEQUENCE_CAP
    sequences of one length have been generated.
    """
    pairs = all_pairs(num_qubits)
    sequences = [()]
    for _ in range(num_gates):
        extended = []
        for seq in sequences:
            extended += [seq + (slot,) for slot in pairs if _extends_normal_form(seq, slot)]
            if len(extended) > ARCH_SEQUENCE_CAP:
                raise ResourceCapError(
                    f"more than {ARCH_SEQUENCE_CAP} architectures of {num_gates} gates"
                    f" on {num_qubits} qubits exceed the enumeration cap")
        sequences = extended
    return tuple(sequences)


def enumerate_architectures(num_qubits: int,
                            num_gates: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All irreducible canonical slot sequences of a given length, sorted.

    Slots range over the j < k pairs; one sequence in commuting normal form
    stands for each class, and classes in which two gates on one pair meet
    with only disjoint gates between them are left out.  The tuple is
    cached per (num_qubits, num_gates) and shared between callers; both
    are checked first, since a float count would share an int's cache
    entry.  Raises ResourceCapError when there are more than
    ARCH_SEQUENCE_CAP of them.
    """
    return _normal_forms(_checked_num_qubits(num_qubits, 2),
                         _checked_count(num_gates, 0, "num_gates"))


# --- layouts the target rules out -----------------------------------------


def layout_bound(slots: Sequence[tuple[int, int]], weights: np.ndarray) -> float:
    """An upper bound on the fidelity any circuit on a layout reaches, from
    the target's cut weights (entanglement.cut_weights).

    A slot crosses a cut when its two qubits lie on either side.  A circuit
    on the layout prepares a state that is a product across every cut no
    slot crosses, so its fidelity with the target is at most the target's
    largest squared Schmidt coefficient across that cut.  The bound is the
    least of those weights over the uncrossed cuts, each read once from its
    side holding qubit 0 (the odd masks, the entries cut_weights fills), and
    1.0 when every cut is crossed, as when the gates connect every qubit.
    """
    num_qubits = weights.size.bit_length() - 1
    return min((float(weights[mask]) for mask in range(1, 2**num_qubits - 1, 2)
                if all(mask >> a & 1 == mask >> b & 1 for a, b in slots)), default=1.0)


def can_reach(slots: Sequence[tuple[int, int]], weights: np.ndarray,
              threshold: float) -> bool:
    """False when the layout's bound keeps it below threshold by more than
    BOUND_MARGIN of round-off: no search on it can reach the target."""
    return layout_bound(slots, weights) >= threshold - BOUND_MARGIN


# --- targets and complexity estimation ------------------------------------


def sample_target(num_qubits: int, r_gen: int, seed) -> tuple[StateVector, Circuit]:
    """Run a random circuit (uniform slots, Haar gates) from |0..0>.

    Returns the prepared state together with the generating circuit.
    r_gen must be >= 1: a zero-gate draw would only ever produce |0..0>.
    """
    _checked_count(r_gen, 1, "r_gen")
    rng = np.random.default_rng(_seed_key(seed))
    circuit = random_circuit(num_qubits, random_architecture(num_qubits, r_gen, rng), rng)
    return run_circuit(circuit)[-1], circuit


@dataclass(frozen=True, eq=False)
class ComplexityEstimate:
    """Smallest gate count found to prepare the target within tolerance,
    and the solutions collected from it on: (layout index in
    enumerate_architectures(n, r), OptimizeResult) pairs, the witness
    first, whose index is None for the layout-less witness of r_star = 0."""

    r_star: int
    exhaustiveness: str
    solutions: tuple[tuple[int | None, OptimizeResult], ...]

    @property
    def witness(self) -> Circuit:
        """The circuit the search stopped at."""
        return self.solutions[0][1].circuit

    @property
    def achieved_fidelity(self) -> float:
        """The witness's fidelity with the target."""
        return self.solutions[0][1].achieved_fidelity


@dataclass(frozen=True, eq=False)
class ComplexityNotFound:
    """No gate count up to r_max reached the tolerance: the best fidelity
    searched at each r (none where every layout was ruled out), and at
    every r the largest layout_bound over all its layouts, subsample or
    not, which no circuit of r gates beats."""

    best_fidelity_per_r: dict[int, float]
    fidelity_bound_per_r: dict[int, float]


def estimate_state_complexity(target: StateVector, settings: SearchSettings, seed,
                              samples_per_r: int = 0):
    """Search r = 1..settings.r_max for the smallest preparable gate count
    r_star, and collect up to samples_per_r solutions at it and at each
    gate count above it, in one walk over the layouts.

    Each layout is keyed by its index ai in enumerate_architectures(n, r)
    and searched from seed (seed, r, ai); each gate count's list is walked
    in that order, and a layout can_reach rules out is skipped, since no
    circuit on it reaches the threshold.  Until the witness is found, a
    gate count with more than max_architectures layouts searches only a
    subsample of that many indices, drawn from seed (seed, r, 777) before
    any layout is ruled out, and each layout gets optimize_gates.  The
    first layout that converges gives the witness; its layout resumes at
    the restart after the witness's, so no restart is ascended twice.
    From there on every layout of r_star after the witness's, and every
    layout of each gate count above it, is walked, subsample or not, and
    each restart on it that reaches the threshold is a solution
    (optimize_gates_collect): a subsample would put a random layout first,
    and one that cannot reach the target burns its whole restart budget.
    Each gate count keeps up to samples_per_r solutions, r_star at least
    the witness; samples_per_r must be an int >= 0 (ValueError).

    Returns a ComplexityEstimate on success, its solutions in walk order,
    the witness first; it is tagged architecture-exhaustive when no gate
    count below r_star was subsampled.  Otherwise it returns a
    ComplexityNotFound with the best fidelity searched at each r and the
    ceiling the layout bounds put on it.  A target that is |0..0> within
    tolerance has r_star = 0 and a layout-less witness, and collects from
    r = 1 on.
    """
    _checked_count(samples_per_r, 0, "samples_per_r")
    n = target.num_qubits
    threshold = settings.threshold
    weights = cut_weights(target)
    zero = StateVector.zero_state(n)
    zero_fidelity = fidelity(target, zero)
    r_star, tag, solutions = None, EXHAUSTIVE, []
    if zero_fidelity >= threshold:
        r_star = 0
        solutions.append((None, OptimizeResult(Circuit(n, ()), (zero,), zero_fidelity,
                                               True, 0, 0)))
    best_per_r: dict[int, float] = {}
    for r in range(1, settings.r_max + 1):
        archs = enumerate_architectures(n, r)
        drawn = None
        if r_star is None and len(archs) > settings.max_architectures:
            rng = np.random.default_rng(_seed_key(seed, r, 777))
            drawn = set(rng.choice(len(archs), size=settings.max_architectures,
                                   replace=False).tolist())
        count = 0
        for ai, slots in enumerate(archs):
            if r_star is not None and count >= samples_per_r:
                break
            if (drawn is not None and ai not in drawn) or not can_reach(slots, weights, threshold):
                continue
            key, resume = _seed_key(seed, r, ai), 0
            if r_star is None:
                result = optimize_gates(slots, target, settings, key)
                best_per_r[r] = max(best_per_r.get(r, 0.0), result.achieved_fidelity)
                if not result.converged:
                    continue
                r_star, drawn, count, resume = r, None, 1, result.best_restart + 1
                solutions.append((ai, result))
            if count < samples_per_r:
                found = optimize_gates_collect(slots, target, settings, key,
                                               samples_per_r - count, resume)
                solutions += [(ai, solution) for solution in found]
                count += len(found)
        if drawn is not None:  # a gate count below r_star was subsampled
            tag = SAMPLED
    if r_star is not None:
        return ComplexityEstimate(r_star, tag, tuple(solutions))
    # two qubits have no layout past r = 1, whose one gate reaches every state
    ceiling = {r: max((layout_bound(slots, weights) for slots in enumerate_architectures(n, r)),
                      default=1.0)
               for r in range(1, settings.r_max + 1)}
    return ComplexityNotFound(best_per_r, ceiling)
