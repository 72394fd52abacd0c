"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
import pytest

from optbench import BinaryPolynomial, MaxCutInstance, TspInstance, maxcut_qubo, qaoa
from optbench.formulations import tour_length
from optbench.model import SampleSet, Stopwatch, Timing
from optbench.solvers import RelaxationError


@pytest.fixture
def triangle() -> MaxCutInstance:
    return MaxCutInstance(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


@pytest.fixture
def four_cycle() -> MaxCutInstance:
    return MaxCutInstance(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))


@pytest.fixture
def five_cycle() -> MaxCutInstance:
    return MaxCutInstance(
        5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0))
    )


@pytest.fixture
def unit_square() -> TspInstance:
    """Four locations on the unit circle at right angles (a rotated square)."""
    coords = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    diff = coords[:, None, :] - coords[None, :, :]
    return TspInstance(distances=np.sqrt((diff ** 2).sum(-1)), coordinates=coords)


def brute_force_cut(inst: MaxCutInstance) -> tuple[str, float]:
    """Independent max-cut oracle: enumerate every bipartition."""
    best_x, best_cut = None, -np.inf
    for bits in itertools.product("01", repeat=inst.num_nodes):
        x = "".join(bits)
        cut = sum(w for u, v, w in inst.edges if x[u] != x[v])
        if cut > best_cut:
            best_x, best_cut = x, cut
    return best_x, float(best_cut)


def brute_force_tours(inst: TspInstance) -> dict[tuple[int, ...], float]:
    """Independent tour oracle: closed-walk length of every fixed-start order."""
    k = inst.num_locations - 1
    d = inst.distances
    out = {}
    for perm in itertools.permutations(range(1, k + 1)):
        length = d[0, perm[0]] + d[perm[-1], 0]
        length += sum(d[perm[i], perm[i + 1]] for i in range(k - 1))
        out[perm] = float(length)
    return out


# ----------------------------------------------------------------------
# Dense full-space circuit oracle (independent of the package simulators)
# ----------------------------------------------------------------------

def dense_uniform(n: int) -> np.ndarray:
    return np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=np.complex128)


def dense_phase(psi: np.ndarray, costs: np.ndarray, gamma: float) -> np.ndarray:
    return psi * np.exp(-1j * gamma * costs)


def dense_single_qubit(psi: np.ndarray, n: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    """Apply a 2x2 gate to one qubit (variable `qubit` = bit `qubit`)."""
    out = psi.copy()
    stride = 1 << qubit
    for base in range(1 << n):
        if base & stride:
            continue
        a0, a1 = psi[base], psi[base | stride]
        out[base] = gate[0, 0] * a0 + gate[0, 1] * a1
        out[base | stride] = gate[1, 0] * a0 + gate[1, 1] * a1
    return out


def dense_two_qubit(psi: np.ndarray, n: int, q1: int, q2: int,
                    gate4: np.ndarray) -> np.ndarray:
    """Apply a 4x4 gate on (q1, q2); basis order |q2 q1> = 00, 01, 10, 11."""
    out = np.zeros_like(psi)
    s1, s2 = 1 << q1, 1 << q2
    for base in range(1 << n):
        if base & s1 or base & s2:
            continue
        idx = [base, base | s1, base | s2, base | s1 | s2]
        amp = np.array([psi[i] for i in idx])
        new = gate4 @ amp
        for i, value in zip(idx, new):
            out[i] = value
    return out


def dense_xy_gate(beta: float) -> np.ndarray:
    """exp(-i beta (XX + YY)) in the |q2 q1> in {00, 01, 10, 11} basis."""
    c2, s2 = np.cos(2 * beta), np.sin(2 * beta)
    gate = np.eye(4, dtype=np.complex128)
    gate[1, 1] = c2
    gate[2, 2] = c2
    gate[1, 2] = -1j * s2
    gate[2, 1] = -1j * s2
    return gate


# ----------------------------------------------------------------------
# Scalar reference kernels: one read or restart at a time, each best
# state rechecked with BinaryPolynomial.evaluate.  The package kernels must
# return exactly the same samples and costs for the same seed and starts.
# ----------------------------------------------------------------------

def _reference_quadratic(poly):
    n = poly.num_vars
    linear = np.zeros(n)
    coupling = np.zeros((n, n))
    constant = 0.0
    for term, coeff in poly.terms.items():
        if len(term) == 0:
            constant = coeff
        elif len(term) == 1:
            linear[term[0]] = coeff
        else:
            i, j = term
            coupling[i, j] += coeff
            coupling[j, i] += coeff
    return constant, linear, coupling


def _reference_start(rng, starts, index, n):
    if starts is None:
        return rng.integers(0, 2, n).astype(np.float64)
    return np.array([1.0 if c == "1" else 0.0 for c in starts[index]])


def _reference_sample_set(n, draws):
    samples, costs = {}, {}
    for x, cost in draws:
        samples[x] = samples.get(x, 0) + 1
        costs[x] = float(cost)
    return samples, costs


def reference_sa(poly, reads=100, sweeps=20, t0=None, alpha=None, kb=1.0, seed=None,
                 starts=None):
    """Scalar simulated annealing; returns (samples, costs)."""
    constant, linear, coupling = _reference_quadratic(poly)
    n = poly.num_vars
    rng = np.random.Generator(np.random.PCG64(seed))
    if t0 is None:
        states = rng.integers(0, 2, (100, n)).astype(np.float64)
        flips = rng.integers(0, n, 100)
        fields = states @ coupling
        rows = np.arange(100)
        deltas = (1.0 - 2.0 * states[rows, flips]) * (linear[flips] + fields[rows, flips])
        t0 = float(np.max(np.abs(deltas))) or 1.0
    if alpha is None:
        alpha = 1e-3 ** (1.0 / (sweeps - 1)) if sweeps > 1 else 1e-3
    draws = []
    for read in range(reads if starts is None else len(starts)):
        x = _reference_start(rng, starts, read, n)
        field = linear + coupling @ x
        cost = constant + float(linear @ x) + 0.5 * float(x @ coupling @ x)
        best_x, best_cost = x.copy(), cost
        temperature = t0
        for _ in range(sweeps):
            order = rng.permutation(n)
            uniforms = rng.random(n)
            for pos in range(n):
                i = order[pos]
                delta = (1.0 - 2.0 * x[i]) * field[i]
                if delta > 0.0:
                    exponent = -delta / (kb * temperature)
                    if exponent < -700.0 or uniforms[pos] >= math.exp(exponent):
                        continue
                sign = 1.0 - 2.0 * x[i]
                x[i] = 1.0 - x[i]
                field += sign * coupling[:, i]
                cost += delta
                if cost < best_cost:
                    best_cost, best_x = cost, x.copy()
            temperature *= alpha
        bitstring = "".join("1" if b else "0" for b in best_x)
        draws.append((bitstring, poly.evaluate(bitstring)))
    return _reference_sample_set(n, draws)


def reference_ts(poly, restarts=100, iterations=None, tenure=None, seed=None, starts=None):
    """Scalar tabu search with a FIFO tabu list; returns (samples, costs)."""
    constant, linear, coupling = _reference_quadratic(poly)
    n = poly.num_vars
    tenure = min(20, n) if tenure is None else tenure
    iterations = 5 * n if iterations is None else iterations
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = []
    for restart in range(restarts if starts is None else len(starts)):
        x = _reference_start(rng, starts, restart, n)
        field = linear + coupling @ x
        cost = constant + float(linear @ x) + 0.5 * float(x @ coupling @ x)
        best_x, best_cost = x.copy(), cost
        tabu = deque(maxlen=max(tenure, 1))
        for _ in range(iterations):
            candidates = cost + (1.0 - 2.0 * x) * field
            allowed = np.ones(n, dtype=bool)
            if tenure > 0:
                for v in tabu:
                    allowed[v] = False
                allowed |= candidates < best_cost
            if allowed.any():
                move = int(np.argmin(np.where(allowed, candidates, np.inf)))
            else:
                move = tabu[0]
            sign = 1.0 - 2.0 * x[move]
            x[move] = 1.0 - x[move]
            field += sign * coupling[:, move]
            cost = float(candidates[move])
            if tenure > 0:
                tabu.append(move)
            if cost < best_cost:
                best_cost, best_x = cost, x.copy()
        bitstring = "".join("1" if b else "0" for b in best_x)
        draws.append((bitstring, poly.evaluate(bitstring)))
    return _reference_sample_set(n, draws)


def reference_ls(inst, restarts=100, seed=None, starts=None):
    """Scalar index-order improvement sweeps; returns (samples, costs)."""
    n = inst.num_nodes
    poly = maxcut_qubo(inst)
    nbr = [[] for _ in range(n)]
    wts = [[] for _ in range(n)]
    for u, v, w in inst.edges:
        nbr[u].append(v)
        wts[u].append(w)
        nbr[v].append(u)
        wts[v].append(w)
    nbr = [np.array(a, dtype=np.int64) for a in nbr]
    wts = [np.array(a, dtype=np.float64) for a in wts]
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = []
    for restart in range(restarts if starts is None else len(starts)):
        if starts is None:
            x = rng.integers(0, 2, n).astype(np.uint8)
        else:
            x = np.array([1 if c == "1" else 0 for c in starts[restart]], dtype=np.uint8)
        changed = True
        while changed:
            changed = False
            for u in range(n):
                if nbr[u].size == 0:
                    continue
                same = x[nbr[u]] == x[u]
                if float(wts[u][same].sum() - wts[u][~same].sum()) > 0.0:
                    x[u] ^= 1
                    changed = True
        bitstring = "".join("1" if b else "0" for b in x)
        draws.append((bitstring, poly.evaluate(bitstring)))
    return _reference_sample_set(n, draws)


def reference_gw(inst, hyperplanes=1000, seed=None, tol=1e-7, patience=50, max_sweeps=20_000):
    """Low-rank relaxation with per-edge dots and per-hyperplane bitstrings.

    The package's goemans_williamson as it was before its relaxation and
    rounding were vectorised; returns a SampleSet.
    """
    watch = Stopwatch()
    n = inst.num_nodes
    rng = np.random.Generator(np.random.PCG64(seed))
    adjacency = np.zeros((n, n))
    for u, v, w in inst.edges:
        adjacency[u, v] += w
        adjacency[v, u] += w
    rank = min(n, math.ceil(math.sqrt(2.0 * n)) + 1)
    vectors = rng.normal(size=(n, rank))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    total_weight = sum(w for _, _, w in inst.edges)

    def relaxed_cut() -> float:
        bilinear = 0.0
        for u, v, w in inst.edges:
            bilinear += w * float(vectors[u] @ vectors[v])
        return 0.5 * (total_weight - bilinear)

    objective = relaxed_cut()
    streak = 0
    residual = np.inf
    converged = False
    for _ in range(max_sweeps):
        for i in range(n):
            g = adjacency[i] @ vectors
            norm = float(np.linalg.norm(g))
            if norm > 1e-12:
                vectors[i] = -g / norm
        new_objective = relaxed_cut()
        residual = abs(new_objective - objective) / max(1.0, abs(new_objective))
        objective = new_objective
        if residual < tol:
            streak += 1
            if streak >= patience:
                converged = True
                break
        else:
            streak = 0
    if not converged:
        raise RelaxationError(
            f"relaxation did not converge within {max_sweeps} sweeps "
            f"(last relative change {residual:.3e})"
        )
    t_preprocess = watch.lap()

    normals = rng.normal(size=(rank, hyperplanes))
    assignments = (vectors @ normals > 0.0).astype(np.uint8)
    edge_u = np.array([u for u, _, _ in inst.edges], dtype=np.int64)
    edge_v = np.array([v for _, v, _ in inst.edges], dtype=np.int64)
    edge_w = np.array([w for _, _, w in inst.edges])
    if inst.num_edges:
        crossing = assignments[edge_u, :] != assignments[edge_v, :]
        cuts = edge_w @ crossing
    else:
        cuts = np.zeros(hyperplanes)
    draws = [
        ("".join("1" if b else "0" for b in assignments[:, h]), -float(cuts[h]))
        for h in range(hyperplanes)
    ]
    t_solve = watch.lap()
    info = {
        "solver": "gw",
        "relaxed_cut": objective,
        "rank": rank,
        "negative_weights": bool(np.any(edge_w < 0.0)) if inst.num_edges else False,
    }
    sample_set = SampleSet.from_draws(n, draws, info=info)
    sample_set.timing = Timing(t_preprocess, t_solve, watch.lap())
    return sample_set


def reference_tsp_exhaustive(inst: TspInstance) -> tuple[tuple[int, ...], float, float]:
    """Scalar k! loop of the tour oracle: legs added in walk order, first strict minimum."""
    d = inst.distances.tolist()
    best_tour, best, worst = None, math.inf, -math.inf
    for perm in itertools.permutations(range(1, inst.num_locations)):
        length = d[0][perm[0]]
        for a, b in zip(perm, perm[1:]):
            length += d[a][b]
        length += d[perm[-1]][0]
        if length < best:
            best, best_tour = length, perm
        worst = max(worst, length)
    return best_tour, best, worst


def reference_onehot_decode(inst: TspInstance) -> tuple[np.ndarray, np.ndarray]:
    """Walk length and feasibility of every state of the one-hot QUBO basis.

    Bit k*t + j of a state set means that slot t visits location j + 1.  A
    state whose k-bit blocks are all one-hot has the length of its decoded
    walk, and is feasible when that walk visits every location once; any
    other state has length NaN and is infeasible.
    """
    k = inst.num_locations - 1
    lengths = np.full(1 << (k * k), np.nan)
    feasible = np.zeros(1 << (k * k), dtype=bool)
    for x in range(1 << (k * k)):
        blocks = [[j for j in range(k) if x >> (k * t + j) & 1] for t in range(k)]
        if all(len(hot) == 1 for hot in blocks):
            locs = [hot[0] + 1 for hot in blocks]
            lengths[x] = tour_length(inst, locs)
            feasible[x] = sorted(locs) == list(range(1, k + 1))
    return lengths, feasible


# ----------------------------------------------------------------------
# Exact-state reference kernels: the transverse circuit one qubit per pass,
# the xy mixer one pair per pass and the cost table one index mask per term.
# ----------------------------------------------------------------------

def reference_transverse_evolve(costs: np.ndarray, num_qubits: int, beta, gamma) -> np.ndarray:
    """Phase exp(-i gamma C), then cos(beta) I + i sin(beta) sigma_x on each qubit in turn."""
    psi = np.full(costs.size, 1.0 / math.sqrt(costs.size), dtype=np.complex128)
    for b, g in zip(beta, gamma):
        psi *= np.exp(-1j * g * costs)
        c, s = math.cos(b), math.sin(b)
        for q in range(num_qubits):
            view = psi.reshape(-1, 2, 1 << q)
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = c * a0 + 1j * s * a1
            view[:, 1, :] = 1j * s * a0 + c * a1
    return psi


def reference_xy_mix(psi: np.ndarray, k: int, beta: float) -> np.ndarray:
    """The xy mixer one pair rotation at a time: each block's brick-wall pairs, block by block.

    ``psi`` holds one-hot-subspace states along its last axis, of k**k
    entries; slot t's digit has stride k**t.
    """
    psi = psi.copy()
    c2, s2 = math.cos(2.0 * beta), math.sin(2.0 * beta)
    for block in range(k):
        view = psi.reshape(*psi.shape[:-1], -1, k, k ** block)
        for i, j in qaoa.xy_pair_schedule(k):
            ai = view[..., i, :].copy()
            aj = view[..., j, :]
            view[..., i, :] = c2 * ai - 1j * s2 * aj
            view[..., j, :] = -1j * s2 * ai + c2 * aj
    return psi


def reference_xy_evolve(costs: np.ndarray, k: int, beta, gamma) -> np.ndarray:
    """Uniform one-hot start, then phase exp(-i gamma C) and the per-pair xy mixer per round."""
    psi = np.full(costs.shape, 1.0 / math.sqrt(costs.shape[-1]), dtype=np.complex128)
    for b, g in zip(beta, gamma):
        psi *= np.exp(-1j * g * costs)
        psi = reference_xy_mix(psi, k, b)
    return psi


def reference_cost_vector(poly, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Costs of [start, stop): the constant, then each term added where its mask is set."""
    if stop is None:
        stop = 1 << poly.num_vars
    idx = np.arange(start, stop, dtype=np.uint64)
    costs = np.full(idx.size, poly.terms.get((), 0.0))
    for term, coeff in poly.terms.items():
        if not term:
            continue
        mask = np.uint64(sum(1 << i for i in term))
        costs[(idx & mask) == mask] += coeff
    return costs


# ----------------------------------------------------------------------
# The half basis: which polynomials have one, and the full circuit of those
# that do.
# ----------------------------------------------------------------------

def reference_flip_symmetric(poly) -> bool:
    """Whether ``poly`` has a variable to drop and costs every state as its complement.

    State 2**n - 1 - x is the complement of x, so the cost vector must equal
    its reverse, to 1e-12 of the largest cost.
    """
    if poly.num_vars == 0:
        return False
    costs = reference_cost_vector(poly)
    return bool(np.abs(costs - costs[::-1]).max() <= 1e-12 * np.abs(costs).max())


def plus_field(poly, coeff: float = 1e-6):
    """``poly`` plus ``coeff`` * x_0, which breaks its flip symmetry."""
    return BinaryPolynomial(poly.num_vars, {**poly.terms, (0,): poly.terms.get((0,), 0.0) + coeff})


def compile_full_basis(poly, cap: int | None = None):
    """``poly`` compiled for qubo on the full basis, even when it is flip-symmetric."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qaoa, "_flip_symmetric", lambda poly: False)
        return qaoa.CompiledProblem("qubo", poly, cap=cap)
