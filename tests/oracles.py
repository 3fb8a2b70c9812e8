"""Slow reference implementations the tests check the package against.

Everything here is deliberately written the most literal way possible —
explicit loops over basis indices, dense matrices, exhaustive search — and
shares no code path with the package, so agreement is meaningful.  The
exceptions are params_from_su4, which inverts the package's gate chart
through a matrix logarithm so tests can build parameters from a matrix,
the two ascents, kept as baselines of the package's earlier ascents (the
full-gate one runs on the package's gate chart and scipy's L-BFGS-B, and
the closed-form one on the package's fidelity kernel and either the
package's optimizer or L-BFGS-B, the optimizer it replaced), the gate
chart's exponential map as it was before it called LAPACK past
np.linalg.eigh (on the package's generators), two closed-form kernels on
that map and the package's gather index (the package's own arithmetic
with every per-layout constant rebuilt on each call, and the kernel as it
was before gates on untouched pairs ascended 6 coordinates), the
exponentials of scipy.linalg.expm on the package's generators, and the
gate-count search at the end: it walks every layout the way the search
did before layouts were ruled out, through the package's own per-layout
search.
"""

import cmath
import itertools
import math
from typing import Iterator, Sequence

from types import SimpleNamespace

import numpy as np
import scipy.linalg
from scipy.linalg import expm, expm_frechet
from scipy.optimize import minimize

from entpaths.core import Circuit, DimensionMismatchError, StateVector, fidelity, gather_index
from entpaths.synthesis import (EXHAUSTIVE, GENERATORS, LBFGS_GTOL, NUM_GATE_PARAMS,
                                SAMPLED, STOP_FIDELITY, _GENERATOR_ROWS, _bfgs,
                                _fidelity_and_grad, _free_gates, _seed_key,
                                enumerate_architectures, optimize_gates)


def embed_gate(matrix, pair, num_qubits):
    """Dense 2^n x 2^n matrix of a 4x4 gate on qubits (j, k), entry by entry.

    Qubit q is bit (n-1-q) of a basis index; gate rows/columns are 2*b_j + b_k.
    """
    j, k = pair
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        in2 = 2 * bits[j] + bits[k]
        for out2 in range(4):
            new = list(bits)
            new[j] = (out2 >> 1) & 1
            new[k] = out2 & 1
            row = 0
            for b in new:
                row = (row << 1) | b
            out[row, col] += matrix[out2, in2]
    return out


def circuit_unitary(circuit):
    """Full matrix of a circuit: later gates multiply on the left."""
    dim = 2**circuit.num_qubits
    u = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        u = embed_gate(gate.matrix, gate.qubit_pair, circuit.num_qubits) @ u
    return u


def reduced_rho(amplitudes, keep, num_qubits):
    """Partial trace by looping over every (kept, kept, dropped) triple."""
    keep = sorted(keep)
    drop = [q for q in range(num_qubits) if q not in keep]

    def full_index(kept_bits, dropped_bits):
        bit = {}
        for q, b in zip(keep, kept_bits):
            bit[q] = b
        for q, b in zip(drop, dropped_bits):
            bit[q] = b
        idx = 0
        for q in range(num_qubits):
            idx = (idx << 1) | bit[q]
        return idx

    dim = 2 ** len(keep)
    rho = np.zeros((dim, dim), dtype=complex)
    for a_bits in itertools.product((0, 1), repeat=len(keep)):
        for b_bits in itertools.product((0, 1), repeat=len(keep)):
            a = int("".join(map(str, a_bits)) or "0", 2)
            b = int("".join(map(str, b_bits)) or "0", 2)
            for e_bits in itertools.product((0, 1), repeat=len(drop)):
                rho[a, b] += (amplitudes[full_index(a_bits, e_bits)]
                              * np.conj(amplitudes[full_index(b_bits, e_bits)]))
    return rho


def entropy_bits(rho):
    """Spectral von Neumann entropy, base 2, tiny negatives clipped."""
    eigs = np.linalg.eigvalsh(rho)
    total = 0.0
    for lam in eigs:
        if lam > 1e-15:
            total -= lam * math.log2(lam)
    return total


def largest_reduced_eigenvalues(amplitudes, num_qubits):
    """The largest eigenvalue of the reduced density matrix of every
    nonempty proper subset of the qubits, keyed by the sorted subset, with
    partial traces taken by loops."""
    return {side: float(np.linalg.eigvalsh(reduced_rho(amplitudes, side, num_qubits))[-1])
            for size in range(1, num_qubits)
            for side in itertools.combinations(range(num_qubits), size)}


def uncrossed_cut_bound(slots, eigenvalues):
    """The least of `eigenvalues` (largest_reduced_eigenvalues) over every
    subset that no gate of the layout crosses, tried subset by subset; 1.0
    if there is none."""
    return min([value for side, value in eigenvalues.items()
                if all((a in side) == (b in side) for a, b in slots)], default=1.0)


def connects_every_qubit(slots, num_qubits):
    """Whether the gates of a layout join all its qubits, found by flooding
    out from qubit 0 along the slots."""
    reached = {0}
    while True:
        joined = reached.union(*(pair for pair in slots if reached & set(pair)))
        if joined == reached:
            return len(reached) == num_qubits
        reached = joined


def _bloch(theta, phi):
    return np.array([math.cos(theta / 2.0),
                     cmath.rect(math.sin(theta / 2.0), phi)])


def _product_overlap_sq(angles, amplitudes, num_qubits):
    single = [_bloch(angles[2 * q], angles[2 * q + 1]) for q in range(num_qubits)]
    prod = single[0]
    for s in single[1:]:
        prod = np.kron(prod, s)
    return abs(np.vdot(prod, amplitudes)) ** 2


def grid_polish_geometric(amplitudes, num_qubits, grid=10):
    """1 - max product overlap^2 by exhaustive Bloch-angle grid + polish.

    Independent of any alternating scheme: scan a (theta, phi) grid per
    qubit via one tensor contraction, then Nelder-Mead from the best cell.
    """
    thetas = np.linspace(0.0, math.pi, grid)
    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    angles = [(t, p) for t in thetas for p in phis]
    cands = np.array([_bloch(t, p) for t, p in angles])  # (grid^2, 2)

    # contract qubit axes front to back; candidate axes append in qubit order
    tensor = np.asarray(amplitudes).reshape((2,) * num_qubits)
    for _ in range(num_qubits):
        tensor = np.tensordot(tensor, cands.conj(), axes=([0], [1]))
    flat = np.abs(tensor) ** 2
    best_cells = np.unravel_index(int(np.argmax(flat)), flat.shape)

    x0 = []
    for cell in best_cells:
        x0.extend(angles[cell])
    result = minimize(
        lambda x: -_product_overlap_sq(x, amplitudes, num_qubits),
        np.array(x0), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000,
                 "maxfev": 20000})
    best = max(float(flat.max()), -float(result.fun))
    return 1.0 - best


def _site_environment(psi, vectors, site):
    """Contract every site but one against conj(v_m); returns a 2-vector."""
    temp = psi
    for m in sorted(range(len(vectors)), reverse=True):
        if m == site:
            continue
        temp = np.tensordot(temp, vectors[m].conj(), axes=([m], [0]))
    return temp


def geometric_entanglement_loop(amplitudes, num_qubits, *, restarts=32, tol=1e-9,
                                max_sweeps=1000, seed=0, start_vectors=None):
    """Alternating product-state fit, one restart at a time, one site at a time.

    The reference for the package's restart-batched fit: restart k draws
    from a generator seeded by (seed, k), and each site's environment is a
    tensordot chain.  Given start_vectors (restart, site, 2), restart k
    still draws its start, so later re-draws continue from the same point
    of its generator, but fits from start_vectors[k].  Returns (1 - best
    overlap**2, whether any restart converged).
    """
    n = num_qubits
    psi = np.asarray(amplitudes).reshape((2,) * n)
    best_overlap = 0.0
    any_converged = False
    for k in range(restarts):
        rng = np.random.default_rng((seed, k))
        vectors = []
        for _ in range(n):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vectors.append(v / np.linalg.norm(v))
        if start_vectors is not None:
            vectors = [np.array(v) for v in start_vectors[k]]
        overlap = 0.0
        previous = -1.0
        converged = False
        for _ in range(max_sweeps):
            for site in range(n):
                w = _site_environment(psi, vectors, site)
                norm = float(np.linalg.norm(w))
                if norm < 1e-15:
                    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    vectors[site] = v / np.linalg.norm(v)
                    continue
                vectors[site] = w / norm
                overlap = norm
            if abs(overlap - previous) < tol:
                converged = True
                break
            previous = overlap
        best_overlap = max(best_overlap, overlap)
        any_converged = any_converged or converged
    return max(0.0, 1.0 - best_overlap**2), any_converged


def best_single_gate_fidelity(amplitudes, num_qubits, pair):
    """Best fidelity one gate on `pair` can reach from |0...0>.

    The gate moves the pair's 4-dim factor anywhere on its unit sphere while
    spectators stay |0>, so the optimum is the squared norm of the target
    slice with every spectator bit fixed to 0.
    """
    j, k = pair
    slicer = [0] * num_qubits
    slicer[j] = slice(None)
    slicer[k] = slice(None)
    block = np.asarray(amplitudes).reshape((2,) * num_qubits)[tuple(slicer)]
    return float(np.sum(np.abs(block) ** 2))


_H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def deutsch_direct(f0, f1):
    """Final state of the two-qubit oracle interference demo by plain
    matrix products: |01> -> H(x)H -> U_f -> H(x)I."""
    u_f = np.zeros((4, 4))
    for x in (0, 1):
        fx = f0 if x == 0 else f1
        for y in (0, 1):
            u_f[2 * x + (y ^ fx), 2 * x + y] = 1.0
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    for step in (np.kron(_H1, _H1), u_f, np.kron(_H1, np.eye(2))):
        psi = step @ psi
    return psi


def walk_paths(matrices: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]],
               num_qubits: int, start_index: int,
               final_index: int | None) -> Iterator[tuple[tuple[int, ...], complex]]:
    """Depth-first walk of the branching tree over raw 4x4 step matrices.

    Branches at each step are visited in order of the output bit-pair value
    (00, 01, 10, 11), so the yield order is deterministic.  Paths whose
    amplitude is exactly zero are still structural branches and are yielded.

    One recursive generator frame and one scalar complex product per node:
    the reference for the package's block-vectorised path walk.
    """
    total = len(matrices)
    trail = [start_index]

    def step(depth: int, config: int, amplitude: complex):
        if depth == total:
            if final_index is None or config == final_index:
                yield tuple(trail), complex(amplitude)
            return
        j, k = pairs[depth]
        shift_j = num_qubits - 1 - j
        shift_k = num_qubits - 1 - k
        in2 = (((config >> shift_j) & 1) << 1) | ((config >> shift_k) & 1)
        base = config & ~(1 << shift_j) & ~(1 << shift_k)
        matrix = matrices[depth]
        for out2 in range(4):
            new_config = base | ((out2 >> 1) << shift_j) | ((out2 & 1) << shift_k)
            trail.append(new_config)
            yield from step(depth + 1, new_config, amplitude * matrix[out2, in2])
            trail.pop()

    yield from step(0, start_index, 1.0 + 0.0j)


def swap_class(seq):
    """Every slot sequence reachable from seq by swapping adjacent slots
    that share no qubit, found by flooding."""
    seen = set()
    frontier = [tuple(seq)]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        for i in range(len(current) - 1):
            a, b = current[i], current[i + 1]
            if len({a[0], a[1], b[0], b[1]}) == 4:
                swapped = list(current)
                swapped[i], swapped[i + 1] = b, a
                frontier.append(tuple(swapped))
    return seen


def _disjoint(a, b):
    return a[0] not in b and a[1] not in b


def commuting_normal_form(slots):
    """Lexicographically smallest sequence reachable by commuting swaps.

    Gates on disjoint pairs commute, so slot sequences related by swapping
    adjacent disjoint slots realize identical unitaries.  The representative
    of each such class is its lexicographic normal form (Anisimov & Knuth):
    repeatedly take the smallest remaining slot that commutes with every
    remaining slot before it.  The package generates these forms directly;
    this is the reference they are checked against.
    """
    rest = [tuple(int(q) for q in s) for s in slots]
    out = []
    while rest:
        free = [i for i, s in enumerate(rest)
                if all(_disjoint(s, t) for t in rest[:i])]
        out.append(rest.pop(min(free, key=rest.__getitem__)))
    return tuple(out)


def _swap_classes(num_qubits, num_gates):
    """Every class of gate-slot sequences modulo swapping adjacent disjoint
    slots, each as the set of its members."""
    pairs = [(j, k) for j in range(num_qubits) for k in range(j + 1, num_qubits)]
    seen = set()
    for seq in itertools.product(pairs, repeat=num_gates):
        if seq not in seen:
            members = swap_class(seq)
            seen |= members
            yield members


def swap_closure_class_count(num_qubits, num_gates):
    """Number of gate-slot sequences modulo swapping adjacent disjoint slots."""
    return sum(1 for _ in _swap_classes(num_qubits, num_gates))


def _has_adjacent_repeat(members):
    return any(a == b for member in members for a, b in zip(member, member[1:]))


def is_reducible(seq):
    """Whether some member of seq's swap class has two equal adjacent
    slots, i.e. two gates on one pair that merge into one gate."""
    return _has_adjacent_repeat(swap_class(seq))


def irreducible_class_count(num_qubits, num_gates):
    """Number of swap classes none of whose members repeats a slot in two
    adjacent places."""
    return sum(1 for members in _swap_classes(num_qubits, num_gates)
               if not _has_adjacent_repeat(members))


def adjacent_swap_sort(slots):
    """Bubble adjacent disjoint out-of-order slots until none are left.

    The earlier canonical form of architectures.  Its fixed points are one
    per swap class only up to 4 qubits; from 5 qubits on some classes have
    two, e.g. ((2, 4), (0, 2), (1, 3)) and ((1, 3), (2, 4), (0, 2)).
    """
    slots = list(slots)
    changed = True
    while changed:
        changed = False
        for i in range(len(slots) - 1):
            a, b = slots[i], slots[i + 1]
            if a > b and len({a[0], a[1], b[0], b[1]}) == 4:
                slots[i], slots[i + 1] = b, a
                changed = True
    return tuple(slots)


def _apply_all(full, vec):
    for u in full:
        vec = u @ vec
    return vec


def fidelity_and_gradient_expm(thetas, generators, pairs, num_qubits, target, starts=None):
    """|<target|U_R..U_1|0..0>|^2 and its gradient in every gate parameter.

    Gate g is U_g = starts[g] expm(-i sum_a thetas[g, a] generators[a]),
    starts[g] the identity when starts is None; each derivative
    dU_g/dtheta_a comes from scipy's Frechet derivative of expm, and the
    circuit runs as dense embedded 2^n x 2^n matrices.
    """
    target = np.asarray(target, dtype=complex)
    if starts is None:
        starts = [np.eye(4)] * len(pairs)
    zero = np.zeros(2**num_qubits, dtype=complex)
    zero[0] = 1.0
    exponents = [-1j * np.tensordot(theta, generators, axes=1) for theta in thetas]
    full = [embed_gate(start @ expm(x), pair, num_qubits)
            for start, x, pair in zip(starts, exponents, pairs)]
    amp = np.vdot(target, _apply_all(full, zero))
    grad = np.zeros((len(pairs), len(generators)))
    for g, (start, x, pair) in enumerate(zip(starts, exponents, pairs)):
        right = _apply_all(full[:g], zero)
        left = target.conj()
        for u in reversed(full[g + 1:]):
            left = left @ u
        for a, gen in enumerate(generators):
            du = start @ expm_frechet(x, -1j * gen, compute_expm=False)
            damp = left @ embed_gate(du, pair, num_qubits) @ right
            grad[g, a] = 2.0 * (np.conj(amp) * damp).real
    return float(abs(amp) ** 2), grad


def fresh_exp_expm(coeffs):
    """exp(-i sum_a coeffs[a] G_a) over the first six generators, those
    that move |00>, by scipy's expm."""
    return expm(-1j * np.tensordot(coeffs, GENERATORS[:6], axes=1))


def untouched_slots(slots, num_qubits):
    """The free slots (all but the last) whose pair holds |00> in every
    branch of the state before them, found by tracking which basis states
    can carry amplitude: from |0..0>, a gate on (j, k) spreads each over
    the four values of its bits j and k."""
    support = {0}
    untouched = []
    for g, (j, k) in enumerate(slots[:-1]):
        mask_j = 1 << (num_qubits - 1 - j)
        mask_k = 1 << (num_qubits - 1 - k)
        if all(not x & (mask_j | mask_k) for x in support):
            untouched.append(g)
        support = {x & ~mask_j & ~mask_k | bits for x in support
                   for bits in (0, mask_j, mask_k, mask_j | mask_k)}
    return untouched


def params_from_su4(matrix: np.ndarray) -> np.ndarray:
    """A parameter preimage of a special-unitary 4x4 matrix.

    Recovered through the principal matrix logarithm; the round trip
    synthesis._su4_eigh(params_from_su4(U))[2] equals U up to a global phase that
    is a 4th root of unity (the traceless projection of the log branch).
    """
    u = np.asarray(matrix, dtype=np.complex128)
    if u.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got {u.shape}")
    t, q = scipy.linalg.schur(u, output="complex")
    angles = np.angle(np.diagonal(t))
    h = -(q * angles[None, :]) @ q.conj().T  # U = exp(-iH)
    h = (h + h.conj().T) / 2.0
    h = h - (np.trace(h).real / 4.0) * np.eye(4)
    return np.real(np.tensordot(GENERATORS, h, axes=([1, 2], [1, 0]))) / 2.0


def best_last_gate_fidelity(before, target, num_qubits, pair):
    """max over unitary U of |<target|(U on pair)|before>|**2, entry by entry.

    K[a, b] sums before[x] * conj(target[y]) over basis pairs x, y that
    agree off the pair and carry pair values a and b; the maximum of
    |tr(U K)| over unitaries is the trace norm of K, here the sum of the
    square roots of the eigenvalues of K K^+.
    """
    j, k = pair
    kmat = np.zeros((4, 4), dtype=complex)
    for x in range(2**num_qubits):
        bits = [(x >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        a = 2 * bits[j] + bits[k]
        for b in range(4):
            new = list(bits)
            new[j] = (b >> 1) & 1
            new[k] = b & 1
            y = 0
            for bit in new:
                y = (y << 1) | bit
            kmat[a, b] += before[x] * np.conj(target[y])
    eigenvalues = np.linalg.eigvalsh(kmat @ kmat.conj().T)
    return sum(math.sqrt(max(float(e), 0.0)) for e in eigenvalues) ** 2


def su4_eigh(thetas):
    """For a (..., 15) parameter array, H = sum theta_a G_a = V diag(lam) V^+.

    Returns (lam, V, U) with U = exp(-iH) of shape (..., 4, 4).  The
    package's synthesis._su4_eigh before it called LAPACK past
    np.linalg.eigh, kept verbatim; the package's must match it bit for bit.
    """
    h = (thetas @ _GENERATOR_ROWS).reshape(thetas.shape[:-1] + (4, 4))
    eigenvalues, vecs = np.linalg.eigh(h)
    phases = np.exp(-1.0j * eigenvalues)
    mats = (vecs * phases[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return eigenvalues, vecs, mats


def fidelity_and_grad_full(thetas, pairs, num_qubits, target_amp):
    """Preparation fidelity from |0..0> and its exact gradient in every gate.

    The package's kernel before the last gate was solved in closed form,
    kept verbatim (on su4_eigh and the package's gather index) for the
    full-gate ascent below.
    """
    num_gates = len(pairs)
    eigenvalues, vecs, mats = su4_eigh(thetas)
    index = [gather_index(pair, num_qubits) for pair in pairs]
    psi = np.zeros(target_amp.size, dtype=np.complex128)
    psi[0] = 1.0
    before = []  # the state before gate g, gathered for its pair
    for u, ix in zip(mats, index):
        local = psi[ix]
        before.append(local)
        psi = np.empty_like(psi)
        psi[ix] = u @ local
    amp = np.vdot(target_amp, psi)
    env = np.empty((num_gates, 4, 4), dtype=np.complex128)
    back = target_amp
    for g in range(num_gates - 1, -1, -1):
        local = back[index[g]]
        env[g] = local.conj() @ before[g].T
        if g:  # nothing reads the target propagated to before gate 0
            back = np.empty_like(back)
            back[index[g]] = mats[g].conj().T @ local
    # divided differences of exp(-ix), in a form that stays exact as
    # eigenvalues meet: L_jk = -i exp(-i(l_j+l_k)/2) sinc((l_j-l_k)/2)
    total = eigenvalues[:, :, None] + eigenvalues[:, None, :]
    diff = eigenvalues[:, :, None] - eigenvalues[:, None, :]
    divided = -1.0j * np.exp(-0.5j * total) * np.sinc(diff / (2.0 * math.pi))
    inner = (np.swapaxes(vecs, -1, -2) @ env @ vecs.conj()) * divided
    outer = vecs.conj() @ inner @ np.swapaxes(vecs, -1, -2)
    damp = outer.reshape(num_gates, 16) @ _GENERATOR_ROWS.T
    grad = 2.0 * (amp.conjugate() * damp).real
    return float(abs(amp) ** 2), grad


def fidelity_and_grad_all_coordinates(thetas, pairs, num_qubits, target_amp):
    """Best fidelity over the last gate, its gradient in the other gates,
    and the best last gate, with every free gate exp(-iH(theta)) in all 15
    coordinates.

    The package's closed-form kernel before fresh slots ascended 6
    coordinates and before it read its per-layout constants from a plan,
    kept verbatim: every call gathers the target, builds |0..0> and
    allocates its state vectors.  Its exponential map is su4_eigh, and its
    SVD np.linalg.svd.
    """
    num_free = len(pairs) - 1
    eigenvalues, vecs, mats = su4_eigh(thetas)
    index = [gather_index(pair, num_qubits) for pair in pairs]
    psi = np.zeros(target_amp.size, dtype=np.complex128)
    psi[0] = 1.0
    before = []  # the state before gate g, gathered for its pair
    for u, ix in zip(mats, index):
        local = psi[ix]
        before.append(local)
        psi = np.empty_like(psi)
        psi[ix] = u @ local
    last_target = target_amp[index[-1]]
    w, sigma, vh = np.linalg.svd(psi[index[-1]] @ last_target.conj().T)
    last = vh.conj().T @ w.conj().T
    amp = float(sigma.sum())  # tr(U* K), real and nonnegative
    env = np.empty((num_free, 4, 4), dtype=np.complex128)
    back = np.empty_like(target_amp)
    back[index[-1]] = last.conj().T @ last_target
    for g in range(num_free - 1, -1, -1):
        local = back[index[g]]
        env[g] = local.conj() @ before[g].T
        if g:  # nothing reads the target propagated to before gate 0
            back = np.empty_like(back)
            back[index[g]] = mats[g].conj().T @ local
    # divided differences of exp(-ix), in a form that stays exact as
    # eigenvalues meet: L_jk = -i exp(-i(l_j+l_k)/2) sinc((l_j-l_k)/2)
    total = eigenvalues[:, :, None] + eigenvalues[:, None, :]
    diff = eigenvalues[:, :, None] - eigenvalues[:, None, :]
    divided = -1.0j * np.exp(-0.5j * total) * np.sinc(diff / (2.0 * math.pi))
    inner = (np.swapaxes(vecs, -1, -2) @ env @ vecs.conj()) * divided
    outer = vecs.conj() @ inner @ np.swapaxes(vecs, -1, -2)
    damp = outer.reshape(num_free, 16) @ _GENERATOR_ROWS.T
    grad = 2.0 * amp * damp.real
    return amp * amp, grad, last


_ROW_ZERO = np.array([[1.0], [0.0], [0.0], [0.0]])


def fidelity_and_grad_per_call(x, starts, pairs, num_qubits, target_amp):
    """Best fidelity over the last gate, its gradient in the free gates'
    coordinates x, the best last gate and the touched gates' matrices.

    The package's kernel written out on each call: it finds the fresh
    slots (no earlier slot shares a qubit with them), gathers the target,
    builds |0..0> and allocates every array it writes.  x holds 6
    coordinates per fresh slot, then 15 parameters per other free slot;
    fresh gate j is starts[j] exp(-i sum_a b_a G_a) over the first six
    generators, of which only the first column is applied.  The package's
    kernel must match it bit for bit: its exponential map is su4_eigh,
    its SVD np.linalg.svd and the rest the package's arithmetic.
    """
    num_free = len(pairs) - 1
    fresh, touched = [], []
    for g in range(num_free):
        earlier = {q for pair in pairs[:g] for q in pair}
        (touched if earlier & set(pairs[g]) else fresh).append(g)
    split = 6 * len(fresh)
    coords = x[:split].reshape(len(fresh), 6)
    cols, charts = [], []
    for j, start in enumerate(starts):
        r0, i0, r1, i1, r2, i2 = coords[j].tolist()
        b = [complex(r0, i0), complex(r1, i1), complex(r2, i2)]
        rho2 = r0 * r0 + i0 * i0 + r1 * r1 + i1 * i1 + r2 * r2 + i2 * i2
        rho = math.sqrt(rho2)
        sinc = math.sin(rho) / rho if rho else 1.0
        cos = math.cos(rho)
        column = [cos] + [(-1.0j * sinc) * bk for bk in b]
        cols.append(np.dot(start, column))
        charts.append((b, rho2, sinc, cos))
    mats = np.empty((0, 4, 4), dtype=np.complex128)
    if touched:
        eigenvalues, vecs, mats = su4_eigh(x[split:].reshape(-1, NUM_GATE_PARAMS))
    index = [gather_index(pair, num_qubits) for pair in pairs]
    psi = np.zeros(target_amp.size, dtype=np.complex128)
    psi[0] = 1.0
    before = []  # the state before gate g, gathered for its pair
    for g in range(num_free):
        local = psi[index[g]]
        psi = np.empty_like(psi)
        if g in fresh:  # only the |00> row of the pair is nonzero
            local = local[0]
            psi[index[g]] = cols[fresh.index(g)][:, None] * local
        else:
            psi[index[g]] = mats[touched.index(g)] @ local
        before.append(local)
    last_target = target_amp[index[-1]]
    w, sigma, vh = np.linalg.svd(psi[index[-1]] @ last_target.conj().T)
    last = vh.conj().T @ w.conj().T
    amp = float(sigma.sum())  # tr(U* K), real and nonnegative
    pulled = [None] * len(fresh)  # column 0 of each fresh environment, times starts[j]
    env = np.empty((len(touched), 4, 4), dtype=np.complex128)
    back = np.empty_like(target_amp)
    back[index[-1]] = last.conj().T @ last_target
    for g in range(num_free - 1, -1, -1):
        local = back[index[g]]
        back = np.empty_like(back)
        if g in fresh:
            j = fresh.index(g)
            pulled[j] = (local.conj() @ before[g]) @ starts[j]
            back[index[g]] = _ROW_ZERO * (cols[j].conj() @ local)
        else:
            j = touched.index(g)
            env[j] = local.conj() @ before[g].T
            back[index[g]] = mats[j].conj().T @ local
    grad = np.empty_like(x)
    for j, (b, rho2, sinc, cos) in enumerate(charts):
        v0, v1, v2, v3 = pulled[j].tolist()
        curve = (cos - sinc) / rho2 if rho2 else 0.0
        re_alpha = curve * (v1 * b[0] + v2 * b[1] + v3 * b[2]).imag - sinc * v0.real
        along, across = 2.0 * amp * re_alpha, 2.0 * amp * sinc
        for k, vk in enumerate((v1, v2, v3)):
            grad[6 * j + 2 * k] = along * b[k].real + across * vk.imag
            grad[6 * j + 2 * k + 1] = along * b[k].imag + across * vk.real
    if touched:
        # L_jk = -i exp(-i(l_j+l_k)/2) sinc((l_j-l_k)/2)
        total = eigenvalues[:, :, None] + eigenvalues[:, None, :]
        diff = eigenvalues[:, :, None] - eigenvalues[:, None, :]
        divided = -1.0j * np.exp(-0.5j * total) * np.sinc(diff / (2.0 * math.pi))
        inner = (np.swapaxes(vecs, -1, -2) @ env @ vecs.conj()) * divided
        outer = vecs.conj() @ inner @ np.swapaxes(vecs, -1, -2)
        damp = outer.reshape(-1, 16) @ _GENERATOR_ROWS.T
        grad[split:] = (2.0 * amp * damp.real).reshape(-1)
    return amp * amp, grad, last, mats


class _EarlyStop(Exception):
    pass


def ascend_full_gates(theta0, pairs, num_qubits, target_amp, iterations):
    """One local ascent over all R gates; returns the best parameters and
    fidelity seen.  The package's ascent before the closed-form last gate,
    kept verbatim as the reference its replacement must match in success."""
    num_gates = len(pairs)
    best = {"f": -1.0, "theta": theta0}

    def negative(x: np.ndarray):
        theta = x.reshape(num_gates, NUM_GATE_PARAMS)
        value, grad = fidelity_and_grad_full(theta, pairs, num_qubits, target_amp)
        if value > best["f"]:
            best["f"] = value
            best["theta"] = theta.copy()
            if value >= STOP_FIDELITY:
                raise _EarlyStop
        return -value, -grad.reshape(-1)

    try:
        minimize(
            negative, theta0.reshape(-1), jac=True, method="L-BFGS-B",
            options={"maxiter": iterations, "ftol": 1e-12, "gtol": 1e-8},
        )
    except _EarlyStop:
        pass
    return best["theta"], best["f"]


def ascend_always_scipy(theta0, plan, iterations, method=_bfgs):
    """The closed-form ascent with scipy.optimize.minimize always called, on
    the package's kernel and a plan of its layout and target: returns the
    best point seen in the kernel's coordinates, the free gates there as
    matrices (synthesis._free_gates), the raw last gate there and their
    fidelity.  Each fresh slot starts its 6 coordinates at 0 from its
    drawn gate, every other free slot its 15 at theta0.  With the
    package's _bfgs as the method it is the reference for the package's
    ascent, which skips the call on a start that early-stops or is
    stationary; with "L-BFGS-B" it is the ascent the package ran before it
    had an optimizer of its own."""
    starts = su4_eigh(theta0[plan.fresh])[2]
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
        minimize(
            negative, x0, method=method,
            jac=None if callable(method) else True,
            options={"maxiter": iterations, "ftol": 1e-12, "gtol": LBFGS_GTOL},
        )
    except _EarlyStop:
        pass
    return (best["x"], _free_gates(best["x"], starts, best["mats"], plan), best["last"],
            best["f"])


def search_every_layout(target, settings, seed):
    """The gate-count search with no layout ruled out: at each r, every
    layout of the subsample (drawn as the package draws it) is searched by
    optimize_gates in index order until one converges.  Returns a namespace
    with the fields of a ComplexityEstimate that outputs read (r_star None
    when no gate count is found), the restart that found the witness
    (witness_restart) and best_fidelity_per_r; it collects nothing past
    the witness."""
    n = target.num_qubits
    zero_fidelity = fidelity(target, StateVector.zero_state(n))
    if zero_fidelity >= settings.threshold:
        return SimpleNamespace(r_star=0, witness=Circuit(n, ()), witness_restart=0,
                               achieved_fidelity=zero_fidelity, exhaustiveness=EXHAUSTIVE,
                               best_fidelity_per_r={})
    best_per_r = {}
    exhaustive_below = True
    for r in range(1, settings.r_max + 1):
        archs = enumerate_architectures(n, r)
        indices = list(range(len(archs)))
        if len(archs) > settings.max_architectures:
            rng = np.random.default_rng(_seed_key(seed, r, 777))
            indices = sorted(rng.choice(len(archs), size=settings.max_architectures,
                                        replace=False))
        best_per_r[r] = 0.0
        for ai in indices:
            result = optimize_gates(archs[ai], target, settings, _seed_key(seed, r, ai))
            best_per_r[r] = max(best_per_r[r], result.achieved_fidelity)
            if result.converged:
                return SimpleNamespace(
                    r_star=r, witness=result.circuit, witness_restart=result.best_restart,
                    achieved_fidelity=result.achieved_fidelity,
                    exhaustiveness=EXHAUSTIVE if exhaustive_below else SAMPLED,
                    best_fidelity_per_r={})
        exhaustive_below = exhaustive_below and len(indices) == len(archs)
    return SimpleNamespace(r_star=None, best_fidelity_per_r=best_per_r)
