"""Classical heuristics and exhaustive oracles.

All samplers return a :class:`~optbench.model.SampleSet` and are
deterministic for a fixed seed.  Simulated annealing, tabu search and local
search re-evaluate the costs they record exactly against the input model,
once per call: one ``evaluate_batch`` pass over all best states, timed as
postprocess, so the recorded solve time covers the search alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .formulations import maxcut_qubo, tour_permutations, walk_lengths
from .instances import MaxCutInstance, TspInstance, make_rng
from .model import (
    BinaryPolynomial,
    DegreeError,
    IsingModel,
    SampleSet,
    SizeCapError,
    Stopwatch,
    Timing,
    bits_to_string,
)


class RelaxationError(RuntimeError):
    """The cut relaxation failed to converge within the iteration cap."""


# ----------------------------------------------------------------------
# Shared quadratic-model compilation
# ----------------------------------------------------------------------

def _compile_quadratic(
    model: BinaryPolynomial | IsingModel,
) -> tuple[BinaryPolynomial, float, np.ndarray, np.ndarray]:
    """Return (polynomial, constant, linear, symmetric coupling matrix).

    The coupling matrix has zero diagonal and counts each pair once on each
    side, so the local field of variable i is linear[i] + coupling[i] @ x.
    """
    poly = model.to_polynomial() if isinstance(model, IsingModel) else model
    if poly.degree > 2:
        raise DegreeError(f"solver requires degree <= 2, model has degree {poly.degree}")
    n = poly.num_vars
    linear = np.zeros(n)
    coupling = np.zeros((n, n))
    constant = 0.0
    for degree, (_, variables, coeffs) in poly.terms_by_degree().items():
        if degree == 0:
            constant = float(coeffs[0])
        elif degree == 1:
            linear[variables[:, 0]] = coeffs
        else:
            i, j = variables.T
            coupling[i, j] = coeffs
            coupling[j, i] = coeffs
    return poly, constant, linear, coupling


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, n).astype(np.float64)


def _as_state(x: str, n: int) -> np.ndarray:
    if len(x) != n:
        raise ValueError(f"start {x!r} does not have {n} bits")
    return np.array([1.0 if c == "1" else 0.0 for c in x])


def _adjacency(inst: MaxCutInstance) -> np.ndarray:
    """Dense symmetric weight matrix of a graph; parallel edges add up."""
    adjacency = np.zeros((inst.num_nodes, inst.num_nodes))
    for u, v, w in inst.edges:
        adjacency[u, v] += w
        adjacency[v, u] += w
    return adjacency


def _neighbor_lists(coupling: np.ndarray) -> list[list[tuple[int, float]]]:
    """Per variable, the (neighbor, coupling) pairs of its nonzero couplings."""
    return [list(zip(np.flatnonzero(row).tolist(), row[row != 0.0].tolist()))
            for row in coupling]


def _exact_draws(poly: BinaryPolynomial, states: np.ndarray) -> list[tuple[str, float]]:
    """One (bitstring, exact cost) draw per row of a (draws, n) 0/1 matrix.

    The costs come from one ``evaluate_batch`` call, so the recheck of a
    whole solver call is a single vectorised pass.
    """
    bits = np.ascontiguousarray(states, dtype=np.uint8)
    costs = poly.evaluate_batch(bits).tolist()
    n = bits.shape[1]
    if n == 0:
        return [("", cost) for cost in costs]
    strings = (bits + ord("0")).view(f"S{n}").ravel().astype(str).tolist()
    return list(zip(strings, costs))


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------

@dataclass
class SaConfig:
    """Simulated annealing settings.

    One read performs ``sweeps`` full passes over the variables from a
    random start; each pass proposes every variable once in random order.
    The temperature decays geometrically once per sweep.  ``t0`` and
    ``alpha`` default to an auto schedule: t0 is the largest |cost change|
    seen over 100 random probe flips and alpha is chosen so the final sweep
    runs at 1e-3 * t0.  The acceptance constant ``kb`` is fixed to 1 by
    default and simply rescales t0.
    """

    reads: int = 100
    sweeps: int = 20
    t0: float | None = None
    alpha: float | None = None
    kb: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.reads < 1:
            raise ValueError(f"reads must be >= 1, got {self.reads}")
        if self.t0 is not None and self.t0 <= 0.0:
            raise ValueError(f"t0 must be > 0, got {self.t0}")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.kb <= 0.0:
            raise ValueError(f"kb must be > 0, got {self.kb}")


def _probe_t0(
    rng: np.random.Generator, linear: np.ndarray, coupling: np.ndarray, probes: int = 100
) -> float:
    n = linear.size
    states = rng.integers(0, 2, (probes, n)).astype(np.float64)
    flips = rng.integers(0, n, probes)
    fields = states @ coupling
    rows = np.arange(probes)
    deltas = (1.0 - 2.0 * states[rows, flips]) * (linear[flips] + fields[rows, flips])
    top = float(np.max(np.abs(deltas)))
    return top if top > 0.0 else 1.0


def simulated_annealing(
    model: BinaryPolynomial | IsingModel,
    cfg: SaConfig | None = None,
    starts: Sequence[str] | None = None,
) -> SampleSet:
    """Metropolis-style annealing with single-bit-flip moves.

    A worse candidate (cost change delta > 0) is accepted with probability
    exp(-delta / (kb * T)); improving or equal moves are always accepted.
    Returns the best assignment of each read as one sample.  Reads run one
    at a time over Python floats; an accepted flip updates the local fields
    of the flipped variable's neighbours only.
    """
    cfg = cfg or SaConfig()
    watch = Stopwatch()
    poly, constant, linear, coupling = _compile_quadratic(model)
    n = poly.num_vars
    rng = make_rng(cfg.seed)
    t_start = cfg.t0 if cfg.t0 is not None else _probe_t0(rng, linear, coupling)
    if cfg.alpha is not None:
        alpha = cfg.alpha
    elif cfg.sweeps > 1:
        alpha = 1e-3 ** (1.0 / (cfg.sweeps - 1))
    else:
        alpha = 1e-3
    kb = cfg.kb
    neighbors = _neighbor_lists(coupling)
    exp = math.exp
    t_preprocess = watch.lap()

    reads = cfg.reads if starts is None else len(starts)
    best_states = np.empty((reads, n))
    for read in range(reads):
        x = _random_state(rng, n) if starts is None else _as_state(starts[read], n)
        field = (linear + coupling @ x).tolist()
        cost = constant + float(linear @ x) + 0.5 * float(x @ coupling @ x)
        spin = (1.0 - 2.0 * x).tolist()
        best_spin = spin[:]
        best_cost = cost
        temperature = t_start
        for _ in range(cfg.sweeps):
            order = rng.permutation(n).tolist()
            uniforms = rng.random(n).tolist()
            kt = kb * temperature
            for i, uniform in zip(order, uniforms):
                sign = spin[i]
                delta = sign * field[i]
                if delta > 0.0:
                    exponent = -delta / kt
                    if exponent < -700.0 or uniform >= exp(exponent):
                        continue
                spin[i] = -sign
                for j, weight in neighbors[i]:
                    field[j] += sign * weight
                cost += delta
                if cost < best_cost:
                    best_cost = cost
                    best_spin = spin[:]
            temperature *= alpha
        best_states[read] = best_spin
    t_solve = watch.lap()
    sample_set = SampleSet.from_draws(
        n, _exact_draws(poly, best_states < 0.0),
        info={"solver": "sa", "sweeps": cfg.sweeps, "t0": t_start, "alpha": alpha},
    )
    sample_set.timing = Timing(t_preprocess, t_solve, watch.lap())
    return sample_set


# ----------------------------------------------------------------------
# Tabu search
# ----------------------------------------------------------------------

@dataclass
class TsConfig:
    """Tabu search settings.

    ``tenure`` is the FIFO tabu-list capacity over flipped variable
    indices (None picks min(20, n)); ``iterations`` is the move count per
    restart (None picks 5n).
    """

    restarts: int = 100
    iterations: int | None = None
    tenure: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.tenure is not None and self.tenure < 0:
            raise ValueError(f"tenure must be >= 0, got {self.tenure}")


def tabu_search(
    model: BinaryPolynomial | IsingModel,
    cfg: TsConfig | None = None,
    starts: Sequence[str] | None = None,
) -> SampleSet:
    """Best-neighbor descent over single-bit flips with a FIFO tabu list.

    Each iteration moves to the lowest-cost non-tabu neighbor; a tabu move
    is allowed when it improves the best solution of the restart
    (aspiration).  If every move is tabu and none aspires, the
    least-recently-forbidden variable is flipped.  One sample per restart.

    All restarts step together as rows of one state matrix.  A variable is
    tabu while its last flip is among the restart's last ``tenure`` moves.
    The recorded moves name the least-recently-forbidden variable, and
    after the loop they replay each restart's best state.
    """
    cfg = cfg or TsConfig()
    watch = Stopwatch()
    poly, constant, linear, coupling = _compile_quadratic(model)
    n = poly.num_vars
    tenure = cfg.tenure if cfg.tenure is not None else min(20, n)
    iterations = cfg.iterations if cfg.iterations is not None else 5 * n
    rng = make_rng(cfg.seed)
    t_preprocess = watch.lap()

    restarts = cfg.restarts if starts is None else len(starts)
    spin = np.empty((restarts, n))
    field = np.empty((restarts, n))
    cost = np.empty(restarts)
    xs = (rng.integers(0, 2, (restarts, n)).astype(np.float64) if starts is None
          else [_as_state(start, n) for start in starts])
    for r, x in enumerate(xs):
        spin[r] = 1.0 - 2.0 * x
        field[r] = linear + coupling @ x
        cost[r] = constant + float(linear @ x) + 0.5 * float(x @ coupling @ x)
    start_spin = spin.copy()
    best_cost = cost.copy()
    offsets = np.arange(restarts) * n
    flat_spin = spin.reshape(-1)
    flat_field = field.reshape(-1)
    candidates = np.empty((restarts, n))
    flat_candidates = candidates.reshape(-1)
    cost_column = cost[:, None]
    best_column = best_cost[:, None]
    last_flip = np.full((restarts, n), -tenure - 1)
    flat_last = last_flip.reshape(-1)
    blocked = np.empty((restarts, n), dtype=bool)
    no_aspiration = np.empty((restarts, n), dtype=bool)
    # Flat index of each move, and the cost before the first and after each
    # move; the best states are replayed from them after the loop.
    moves = np.empty((iterations, restarts), dtype=np.intp)
    costs = np.empty((iterations + 1, restarts))
    costs[0] = cost
    # Only a tabu list that can hold every variable leaves a restart with no
    # allowed move; then the oldest of the last ``tenure`` moves is taken.
    may_stall = 0 < tenure and n <= tenure
    for t in range(iterations):
        np.multiply(spin, field, out=candidates)
        candidates += cost_column
        if tenure:
            np.greater_equal(last_flip, t - tenure, out=blocked)
            np.greater_equal(candidates, best_column, out=no_aspiration)
            blocked &= no_aspiration
            np.putmask(candidates, blocked, np.inf)
        move = candidates.argmin(axis=1)
        index = moves[t]
        np.add(offsets, move, out=index)
        sign = flat_spin[index]
        if may_stall:
            stalled = blocked.reshape(-1)[index]
            if stalled.any():
                index[stalled] = moves[max(t - tenure, 0), stalled]
                move = index - offsets
                sign = flat_spin[index]
                # the masked entry held inf; recompute the move's true cost
                flat_candidates[index] = sign * flat_field[index] + cost
        flat_spin[index] = -sign
        field += sign[:, None] * coupling.take(move, axis=0)
        flat_candidates.take(index, out=cost)
        costs[t + 1] = cost
        np.minimum(best_cost, cost, out=best_cost)
        if tenure:
            flat_last[index] = t
    # Improvements are strict, so a restart's best state is the first one
    # at its lowest cost: replay the moves that lead to it.
    replayed = moves[np.arange(iterations)[:, None] < costs.argmin(axis=0)]
    parity = np.bincount(replayed, minlength=restarts * n).reshape(restarts, n) % 2
    best_spin = np.where(parity == 1, -start_spin, start_spin)
    t_solve = watch.lap()
    sample_set = SampleSet.from_draws(
        n, _exact_draws(poly, best_spin < 0.0),
        info={"solver": "ts", "tenure": tenure, "iterations": iterations},
    )
    sample_set.timing = Timing(t_preprocess, t_solve, watch.lap())
    return sample_set


# ----------------------------------------------------------------------
# Max-Cut local search
# ----------------------------------------------------------------------

def local_search_maxcut(
    inst: MaxCutInstance,
    restarts: int = 100,
    seed: int | None = None,
    starts: Sequence[str] | None = None,
    poly: BinaryPolynomial | None = None,
) -> SampleSet:
    """Single-node improvement sweeps from random bipartitions.

    Sweeps the nodes in index order, moving any node whose switch strictly
    increases the cut weight, and repeats until a full sweep changes
    nothing.  The output is 1-flip stable.  One sample per restart.

    All restarts sweep together; a restart that has converged is a fixed
    point, so the sweeps that the others still need leave it unchanged.
    Gains are kept as local fields updated per move: exact for integer
    weights, and for real weights off by rounding only, which can matter
    just for a gain within a few ulps of zero.
    ``poly`` is the instance's compiled objective (``maxcut_qubo(inst)``),
    used for the exact recheck; it is built here when not given.
    """
    if starts is None and restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    watch = Stopwatch()
    n = inst.num_nodes
    poly = poly if poly is not None else maxcut_qubo(inst)
    adjacency = _adjacency(inst)
    rng = make_rng(seed)
    t_preprocess = watch.lap()

    total = restarts if starts is None else len(starts)
    # Node-major spins: entry (u, r) is +1 / -1 when node u of restart r is on side 0 / 1.
    spin = np.empty((n, total))
    xs = (rng.integers(0, 2, (total, n)) if starts is None
          else [np.array([1 if c == "1" else 0 for c in start]) for start in starts])
    for restart, x in enumerate(xs):
        spin[:, restart] = 1 - 2 * x
    # gain[u, r]: same-side minus cross weight at u, the cut gained by moving u.
    field = adjacency @ spin
    gain = spin * field
    while (gain > 0.0).any():
        # One sweep in index order.  Nodes where no restart gains are skipped:
        # a visit there changes nothing, and nothing changes until the next move.
        u = -1
        while True:
            ahead = np.flatnonzero((gain[u + 1:] > 0.0).any(axis=1))
            if ahead.size == 0:
                break
            u += 1 + int(ahead[0])
            step = np.where(gain[u] > 0.0, 2.0 * spin[u], 0.0)
            spin[u] -= step
            field -= np.outer(adjacency[u], step)
            np.multiply(spin, field, out=gain)
    t_solve = watch.lap()
    sample_set = SampleSet.from_draws(n, _exact_draws(poly, spin.T < 0.0), info={"solver": "ls"})
    sample_set.timing = Timing(t_preprocess, t_solve, watch.lap())
    return sample_set


# ----------------------------------------------------------------------
# Goemans-Williamson rounding
# ----------------------------------------------------------------------

def goemans_williamson(
    inst: MaxCutInstance,
    hyperplanes: int = 1000,
    seed: int | None = None,
    tol: float = 1e-7,
    patience: int = 50,
    max_sweeps: int = 20_000,
) -> SampleSet:
    """Low-rank cut relaxation plus random-hyperplane rounding.

    The relaxation embeds each node as a unit vector of dimension
    min(n, ceil(sqrt(2n)) + 1) and maximizes sum_e w_e (1 - v_u . v_v) / 2
    by cyclic row updates v_i <- -g_i / |g_i| with g_i the weighted neighbor
    sum (block-coordinate ascent on the sphere product).  Convergence
    requires the relative objective change to stay below ``tol`` for
    ``patience`` consecutive sweeps.  Each hyperplane then signs the node
    vectors into one cut sample.  Relaxation time lands in t_preprocess,
    rounding time in t_solve.
    """
    watch = Stopwatch()
    n = inst.num_nodes
    rng = make_rng(seed)
    adjacency = _adjacency(inst)
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
        (bits_to_string(assignments[:, h]), -float(cuts[h])) for h in range(hyperplanes)
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


# ----------------------------------------------------------------------
# TSP greedy and oracle
# ----------------------------------------------------------------------

def nearest_neighbor_tsp(inst: TspInstance, start: int = 0) -> tuple[tuple[int, ...], float]:
    """Greedy closed tour: always move to the closest unvisited location.

    Distance ties break toward the smallest location index.  Returns the
    visiting order (beginning at ``start``) and the closed tour length.
    """
    m = inst.num_locations
    if not 0 <= start < m:
        raise ValueError(f"start {start} out of range [0, {m})")
    d = inst.distances
    visited = [False] * m
    visited[start] = True
    tour = [start]
    length = 0.0
    current = start
    for _ in range(m - 1):
        best = -1
        best_distance = math.inf
        for candidate in range(m):
            if not visited[candidate] and d[current, candidate] < best_distance:
                best = candidate
                best_distance = d[current, candidate]
        visited[best] = True
        tour.append(best)
        length += best_distance
        current = best
    length += d[current, start]
    return tuple(tour), float(length)


class TspOracleResult(NamedTuple):
    tour: tuple[int, ...]
    optimal_length: float
    worst_length: float


def tsp_exhaustive(inst: TspInstance, cap: int = 10) -> TspOracleResult:
    """Best and worst closed tours by enumerating all k! slot sequences.

    Location 0 is fixed as the start.  The first minimum of the computed
    lengths, in lexicographic order of the sequences, is returned, so only
    exact ties go to the lexicographically smallest sequence.  A tour and
    its mirror image add the same legs in opposite orders and can differ by
    an ulp, so rounding decides which of the two is returned; its length is
    optimal either way.
    """
    k = inst.k
    if k > cap:
        raise SizeCapError(f"k = {k} exceeds exhaustive tour cap {cap}")
    perms = tour_permutations(k)
    lengths = walk_lengths(inst.distances, perms.T)
    best = int(np.argmin(lengths))
    return TspOracleResult(tuple(int(loc) for loc in perms[best]),
                           float(lengths[best]), float(lengths.max()))
