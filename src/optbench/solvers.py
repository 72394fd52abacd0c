"""Classical heuristics and exhaustive oracles.

All samplers return a :class:`~optbench.model.SampleSet` and are
deterministic for a fixed seed.  Local search steps all restarts together
as rows of one state matrix.  Simulated annealing does so for calls whose
reads fill chunks of at least ``_MIN_BATCH_READS``, and runs smaller calls
one read at a time, with the same random stream and samples.  Tabu search
steps all restarts together when ``restarts * n`` exceeds
``_MAX_SCALAR_TS``, and smaller calls one restart at a time over Python
floats, with the same samples bit for bit.
The solver arrays live on the polynomial: its ``quadratic_form()`` and
``neighbors()`` are built once, in the preprocess of the first call on it,
and every later call shares them.  The harness builds them for each
instance's polynomial before its records start, so a record's preprocess
excludes that shared work.
Simulated annealing, tabu search and local search re-evaluate the costs
they record exactly against the input model, once per call: one
``evaluate_batch`` pass over all best states, timed as postprocess, so the
recorded solve time covers the search alone.  Given ``starts`` are
bitstrings in the model's convention: a character other than '0' or '1'
raises ``ValueError``, and a wrong length ``DimensionError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .formulations import maxcut_qubo, tour_permutations, walk_lengths
from .instances import MaxCutInstance, TspInstance, make_rng
from .model import BinaryPolynomial, SampleSet, SizeCapError, Stopwatch, Timing, _as_bits


class RelaxationError(RuntimeError):
    """The cut relaxation failed to converge within the iteration cap."""


def _start_states(rng: np.random.Generator, starts: Sequence[str] | None, runs: range,
                  n: int) -> np.ndarray:
    """The 0/1 float start state of each of ``runs``: its given start, else one draw."""
    if starts is None:
        return rng.integers(0, 2, (len(runs), n)).astype(np.float64)
    return np.array([_as_bits(starts[r], n) for r in runs], dtype=np.float64).reshape(len(runs), n)


def _start_fields(poly: BinaryPolynomial, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The local fields and the cost of the 0/1 state ``x``."""
    linear, coupling = poly.quadratic_form()
    return linear + coupling @ x, poly.constant + float(linear @ x) + 0.5 * float(x @ coupling @ x)


def _bit_strings(states: np.ndarray) -> list[str]:
    """The bitstring of each row of a (draws, n) 0/1 matrix."""
    bits = np.ascontiguousarray(states, dtype=np.uint8)
    n = bits.shape[1]
    if n == 0:
        return [""] * bits.shape[0]
    return (bits + ord("0")).view(f"S{n}").ravel().astype(str).tolist()


def _exact_draws(poly: BinaryPolynomial, states: np.ndarray) -> list[tuple[str, float]]:
    """One (bitstring, exact cost) draw per row of a (draws, n) 0/1 matrix.

    The costs come from one ``evaluate_batch`` call, so the recheck of a
    whole solver call is a single vectorised pass.
    """
    bits = np.ascontiguousarray(states, dtype=np.uint8)
    return list(zip(_bit_strings(bits), poly.evaluate_batch(bits).tolist()))


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------

# The reads of one call step together in chunks of at most this many drawn
# orders and uniforms (2 * sweeps * n per read): 2^19 proposals, whose
# per-chunk arrays take 40 bytes each, 20 MiB in all.
_CHUNK_DRAWS = 1 << 20
# Chunks of fewer reads run one read at a time.  Both paths cost about
# c * sweeps * n per read, so the crossover is one read count.  Timed over
# 16..128 reads at n = 10, 14, 30, 60 and 5, 20 sweeps (best of 7-21 runs,
# 2-core host), the batched path broke even at 40-48 reads for n <= 14
# (0.91-1.00x the scalar time at 48, 1.06-1.25x at 32) and by 24-40 reads
# for n = 30, 60; at 128 reads it took 0.40-0.74x.
_MIN_BATCH_READS = 48
# np.exp and math.exp round apart by at most one ulp (on 4.6 % of inputs).
# A uniform this close to np.exp's value, at least 64 ulps of any value up
# to 1, is decided again with math.exp.  For an exponent below -700 the
# window holds every uniform that np.exp's value could accept (0.0 and the
# next 128), which the scalar rule rejects.
_EXP_DOUBT = 2.0 ** -46


@dataclass
class SaConfig:
    """Simulated annealing settings.

    One read performs ``sweeps`` full passes over the variables from a
    random start; each pass proposes every variable once in random order.
    The temperature decays geometrically once per sweep.  ``t0`` and
    ``alpha`` default to an auto schedule: t0 is the largest |cost change|
    seen over 100 random probe flips (1 for a model with no variables) and
    alpha is chosen so the final sweep runs at 1e-3 * t0.  The acceptance
    constant ``kb`` is fixed to 1 by default and simply rescales t0.  How
    the reads are stepped, one at a time or together, never changes the
    samples.
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
        if self.t0 is not None and not 0.0 < self.t0 < math.inf:
            raise ValueError(f"t0 must be finite and > 0, got {self.t0}")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.kb < math.inf:
            raise ValueError(f"kb must be finite and > 0, got {self.kb}")


def _probe_t0(rng: np.random.Generator, poly: BinaryPolynomial, probes: int = 100) -> float:
    linear, coupling = poly.quadratic_form()
    n = linear.size
    if n == 0:
        return 1.0
    states = rng.integers(0, 2, (probes, n)).astype(np.float64)
    flips = rng.integers(0, n, probes)
    fields = states @ coupling
    rows = np.arange(probes)
    deltas = (1.0 - 2.0 * states[rows, flips]) * (linear[flips] + fields[rows, flips])
    top = float(np.max(np.abs(deltas)))
    return top if top > 0.0 else 1.0


def _metropolis(delta: np.ndarray, uniforms: np.ndarray, kt: float) -> np.ndarray:
    """The scalar acceptance rule, decision for decision, on a vector of proposals.

    A proposal with cost change delta is accepted when delta <= 0, or when
    the exponent -delta / kt is at least -700 and its uniform lies below
    math.exp of it.  np.exp decides every uniform outside a window of
    ``_EXP_DOUBT`` around its value; the few inside are decided again by the
    scalar rule.  An exponent above 709 overflows np.exp to inf, which
    accepts; callers silence that warning.
    """
    # delta / -kt is -delta / kt bit for bit.
    gap = uniforms - np.exp(delta / -kt)
    accept = gap < 0.0
    np.abs(gap, out=gap)
    # One reduction first: a uniform lands in the window about once in 2^45.
    if np.minimum.reduce(gap) <= _EXP_DOUBT:
        for k in np.flatnonzero(gap <= _EXP_DOUBT).tolist():
            d = float(delta[k])
            exponent = -d / kt
            accept[k] = d <= 0.0 or (exponent >= -700.0
                                     and float(uniforms[k]) < math.exp(exponent))
    return accept


def _anneal_one_by_one(
    rng: np.random.Generator, starts: Sequence[str] | None, reads: int,
    poly: BinaryPolynomial, schedule: tuple,
) -> np.ndarray:
    """Best spins of ``reads`` reads, one at a time over Python floats.

    An accepted flip updates the local fields of the flipped variable's
    neighbours only.
    """
    neighbors = poly.neighbors()
    sweeps, t0, alpha, kb = schedule
    n = len(neighbors)
    exp = math.exp
    best_spins = np.empty((reads, n))
    for read in range(reads):
        x = _start_states(rng, starts, range(read, read + 1), n)[0]
        field, cost = _start_fields(poly, x)
        field = field.tolist()
        spin = (1.0 - 2.0 * x).tolist()
        best_spin = spin[:]
        best_cost = cost
        temperature = t0
        for _ in range(sweeps):
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
        best_spins[read] = best_spin
    return best_spins


def _anneal_together(
    rng: np.random.Generator, starts: Sequence[str] | None, reads: range,
    poly: BinaryPolynomial, schedule: tuple,
) -> np.ndarray:
    """Best spins of ``reads``, all stepped together as rows of one state matrix.

    The random stream is drawn up front in the scalar loop's order: per
    read, the start, then per sweep the order and the uniforms.  Each
    (sweep, position) step proposes every read's variable at that position
    and decides all of them with :func:`_metropolis`.  An accepted flip adds
    the flipped variable's dense coupling row to the fields, where a
    non-neighbour gains a signed zero that no decision can see.  Each read
    keeps its cost after every step; its best state is the first one at its
    lowest cost, replayed from the accepted flips.
    """
    coupling = poly.quadratic_form()[1]
    sweeps, t0, alpha, kb = schedule
    count, n = len(reads), coupling.shape[0]
    steps = sweeps * n
    x = np.empty((count, n))
    orders = np.empty((count, sweeps, n), dtype=np.intp)
    orders[:] = np.arange(n)
    uniforms = np.empty((count, sweeps, n))
    shuffle, fill = rng.shuffle, rng.random
    for r, read in enumerate(reads):
        x[r] = _start_states(rng, starts, range(read, read + 1), n)[0]
        for order, uniform in zip(orders[r], uniforms[r]):
            shuffle(order)
            fill(out=uniform)
    spin = 1.0 - 2.0 * x
    start_spin = spin.copy()
    field = np.empty((count, n))
    # costs[r, 0] holds read r's start cost and costs[r, t + 1] the change
    # that step t made; a running sum in step order turns them into the cost
    # after every step, the same additions the scalar loop makes.
    costs = np.empty((count, steps + 1))
    for r, row in enumerate(x):
        field[r], costs[r, 0] = _start_fields(poly, row)
    # Step t of every read: its variable, that variable's flat index in the
    # (count, n) spin and field matrices, and its uniform.
    variables = orders.reshape(count, steps).T
    index = variables + np.arange(count) * n
    uniforms = uniforms.reshape(count, steps).T
    # The spin each step flipped (before the flip), or a signed zero.
    flips = np.empty((steps, count))
    rows = np.empty((count, n))
    flat_spin = spin.reshape(-1)
    flat_field = field.reshape(-1)
    temperature = t0
    t = 0
    with np.errstate(over="ignore"):
        for _ in range(sweeps):
            kt = kb * temperature
            for _ in range(n):
                at = index[t]
                sign = flat_spin[at]
                local = flat_field[at]
                accept = _metropolis(sign * local, uniforms[t], kt)
                step = np.multiply(sign, accept, out=flips[t])
                sign -= step
                sign -= step
                flat_spin[at] = sign
                coupling.take(variables[t], axis=0, out=rows)
                rows *= step[:, None]
                field += rows
                t += 1
                np.multiply(local, step, out=costs[:, t])
            temperature *= alpha
    np.add.accumulate(costs, axis=1, out=costs)
    replayed = index[(flips != 0.0) & (np.arange(steps)[:, None] < costs.argmin(axis=1))]
    parity = np.bincount(replayed, minlength=count * n).reshape(count, n) % 2
    return np.where(parity == 1, -start_spin, start_spin)


def simulated_annealing(
    poly: BinaryPolynomial,
    cfg: SaConfig | None = None,
    starts: Sequence[str] | None = None,
) -> SampleSet:
    """Metropolis-style annealing with single-bit-flip moves.

    A worse candidate (cost change delta > 0) is accepted with probability
    exp(-delta / (kb * T)); improving or equal moves are always accepted.
    Returns the best assignment of each read as one sample.

    A call whose reads fill chunks of at least ``_MIN_BATCH_READS`` steps
    each chunk's reads together as one state matrix; smaller calls, such as
    single-read BSF calls, run one read at a time over Python floats.  Both
    draw the same random stream and return the same samples.
    """
    cfg = cfg or SaConfig()
    watch = Stopwatch()
    poly.neighbors()  # the solver arrays, built here at the first call on ``poly``
    n = poly.num_vars
    rng = make_rng(cfg.seed)
    t_start = cfg.t0 if cfg.t0 is not None else _probe_t0(rng, poly)
    if cfg.alpha is not None:
        alpha = cfg.alpha
    elif cfg.sweeps > 1:
        alpha = 1e-3 ** (1.0 / (cfg.sweeps - 1))
    else:
        alpha = 1e-3
    last = t_start
    for _ in range(cfg.sweeps - 1):
        last *= alpha
    if cfg.kb * last == 0.0:
        raise ValueError(f"the schedule's temperature underflows to 0 by sweep {cfg.sweeps} "
                         f"(t0 = {t_start!r}, alpha = {alpha!r}, kb = {cfg.kb!r})")
    schedule = (cfg.sweeps, t_start, alpha, cfg.kb)
    reads = cfg.reads if starts is None else len(starts)
    per_chunk = max(1, _CHUNK_DRAWS // max(1, 2 * cfg.sweeps * n))
    chunks = max(1, -(-reads // per_chunk))
    together = reads // chunks >= _MIN_BATCH_READS
    t_preprocess = watch.lap()

    if together:
        bounds = [reads * k // chunks for k in range(chunks + 1)]
        best_spins = np.concatenate([
            _anneal_together(rng, starts, range(lo, hi), poly, schedule)
            for lo, hi in zip(bounds, bounds[1:])
        ])
    else:
        best_spins = _anneal_one_by_one(rng, starts, reads, poly, schedule)
    t_solve = watch.lap()
    sample_set = SampleSet.from_draws(
        n, _exact_draws(poly, best_spins < 0.0),
        info={"solver": "sa", "sweeps": cfg.sweeps, "t0": t_start, "alpha": alpha},
    )
    sample_set.timing = Timing(t_preprocess, t_solve, watch.lap())
    return sample_set


# ----------------------------------------------------------------------
# Tabu search
# ----------------------------------------------------------------------

# Calls with restarts * n up to this step one restart at a time over Python
# floats, larger ones all restarts together.  Both paths cost about
# c * restarts * n per move.  Timed per call (neighbour lists included, 5
# graphs each, 2-core host), the scalar path broke even at restarts * n of
# 100-120 for n = 10..14 (ER density 0.5), 126-153 for n = 30..60 and about
# 180 for n = 20 (density 0.2); at one restart it took 0.16-0.46x the time.
_MAX_SCALAR_TS = 128


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


def _first_min(values: list[float], cost: float) -> tuple[int, float]:
    """The first index of the least ``value + cost``, and that sum.

    Rounding is monotone, so the least sum is the least value's.  A smaller
    index whose larger value rounds to the same sum would come first; the
    least value before the found index shows whether there is one.
    """
    low = min(values)
    index = values.index(low)
    low += cost
    if index and min(values[:index]) + cost == low:
        index = [value + cost for value in values].index(low)
    return index, low


def _tabu_one_by_one(
    spins: np.ndarray, fields: np.ndarray, costs: np.ndarray,
    neighbors: tuple, iterations: int, tenure: int,
) -> np.ndarray:
    """Best spins of each restart, one restart at a time over Python floats.

    A move's cost is ``gain + cost`` with ``gain = spin * field``: a spin of
    +-1 multiplies exactly, so gains update as the batched kernel's fields
    do and every candidate is its candidate (a zero may differ in sign,
    which no comparison sees).  ``open_gain`` holds the gains with tabu
    variables at inf; it is scanned when no move aspires, that is when no
    cost beats the restart's best.  A flip updates the gains of the flipped
    variable's neighbours only.
    """
    restarts, n = spins.shape
    may_stall = 0 < tenure and n <= tenure
    inf = math.inf
    best_spins = np.empty((restarts, n))
    for r in range(restarts):
        spin = spins[r].tolist()
        gain = (spins[r] * fields[r]).tolist()
        open_gain = gain[:] if tenure else gain
        cost = best_cost = float(costs[r])
        best_spin = spin[:]
        last = [-tenure - 1] * n
        moves = []
        for t in range(iterations):
            # tabu at step t: last flip at or after the horizon
            horizon = t - tenure
            if tenure and min(gain) + cost >= best_cost:
                # Nothing aspires: the first least cost among the moves not tabu.
                move, low = _first_min(open_gain, cost)
                if may_stall and last[move] >= horizon:
                    move = moves[max(horizon, 0)]
                    low = gain[move] + cost
            else:
                move, low = _first_min(gain, cost)
            sign = spin[move]
            spin[move] = -sign
            gain[move] = -gain[move]
            for j, weight in neighbors[move]:
                gain[j] += spin[j] * sign * weight
                if last[j] <= horizon:  # not tabu at step t + 1
                    open_gain[j] = gain[j]
            cost = low
            moves.append(move)
            last[move] = t
            if tenure:
                open_gain[move] = inf
                # the move of step ``horizon`` leaves the list unless made again since
                if horizon >= 0 and last[moves[horizon]] == horizon:
                    open_gain[moves[horizon]] = gain[moves[horizon]]
            if cost < best_cost:
                best_cost = cost
                best_spin = spin[:]
        best_spins[r] = best_spin
    return best_spins


def _tabu_together(
    spin: np.ndarray, field: np.ndarray, cost: np.ndarray, coupling: np.ndarray,
    iterations: int, tenure: int,
) -> np.ndarray:
    """Best spins of all restarts, stepped together as rows of one state matrix.

    A variable is tabu while its last flip is among the restart's last
    ``tenure`` moves.  The recorded moves name the least-recently-forbidden
    variable, and after the loop they replay each restart's best state.
    """
    restarts, n = spin.shape
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
    return np.where(parity == 1, -start_spin, start_spin)


def tabu_search(
    poly: BinaryPolynomial,
    cfg: TsConfig | None = None,
    starts: Sequence[str] | None = None,
) -> SampleSet:
    """Best-neighbor descent over single-bit flips with a FIFO tabu list.

    Each iteration moves to the lowest-cost non-tabu neighbor, the first
    one on ties; a tabu move is allowed when it improves the best solution
    of the restart (aspiration).  If every move is tabu and none aspires,
    the least-recently-forbidden variable is flipped.  One sample per
    restart; a model with no variables makes no moves and returns its
    constant.

    A call with ``restarts * n`` up to ``_MAX_SCALAR_TS`` steps one restart
    at a time over Python floats; larger calls step all restarts together as
    rows of one state matrix.  Both share the start draw and the exact
    recheck and return the same samples, bit for bit.
    """
    cfg = cfg or TsConfig()
    watch = Stopwatch()
    neighbors = poly.neighbors()  # with the dense form, built here at the first call on ``poly``
    n = poly.num_vars
    tenure = cfg.tenure if cfg.tenure is not None else min(20, n)
    iterations = cfg.iterations if cfg.iterations is not None else 5 * n
    rng = make_rng(cfg.seed)
    restarts = cfg.restarts if starts is None else len(starts)
    t_preprocess = watch.lap()

    xs = _start_states(rng, starts, range(restarts), n)
    spin = 1.0 - 2.0 * xs
    field, cost = np.empty((restarts, n)), np.empty(restarts)
    for r, x in enumerate(xs):
        field[r], cost[r] = _start_fields(poly, x)
    steps = iterations if n else 0  # with no variables there is no move to make
    if restarts * n <= _MAX_SCALAR_TS:
        best_spin = _tabu_one_by_one(spin, field, cost, neighbors, steps, tenure)
    else:
        best_spin = _tabu_together(spin, field, cost, poly.quadratic_form()[1], steps, tenure)
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
    ``poly`` is the instance's ``maxcut_qubo(inst)``, built when not given:
    its coupling, twice the weights, drives the sweeps, and it rechecks costs.
    """
    if starts is None and restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    watch = Stopwatch()
    n = inst.num_nodes
    poly = poly if poly is not None else maxcut_qubo(inst)
    coupling = poly.quadratic_form()[1]
    rng = make_rng(seed)
    t_preprocess = watch.lap()

    total = restarts if starts is None else len(starts)
    # Node-major spins: entry (u, r) is +1 / -1 when node u of restart r is on side 0 / 1.
    spin = np.ascontiguousarray((1.0 - 2.0 * _start_states(rng, starts, range(total), n)).T)
    # gain[u, r]: same-side minus cross weight at u, twice the cut gained by moving u.
    field = coupling @ spin
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
            field -= np.outer(coupling[u], step)
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
    poly: BinaryPolynomial | None = None,
) -> SampleSet:
    """Low-rank cut relaxation plus random-hyperplane rounding.

    The relaxation embeds each node as a unit vector of dimension
    min(n, ceil(sqrt(2n)) + 1) and maximizes sum_e w_e (1 - v_u . v_v) / 2
    by cyclic row updates v_i <- -g_i / |g_i| with g_i the weighted neighbor
    sum (block-coordinate ascent on the sphere product).  Convergence
    requires the relative objective change to stay below ``tol`` for
    ``patience`` consecutive sweeps.  Each hyperplane then signs the node
    vectors into one cut sample.  Relaxation time lands in t_preprocess,
    rounding time in t_solve.  ``poly`` is the instance's ``maxcut_qubo(inst)``,
    built when not given; its coupling, twice the weights, gives each g_i.
    """
    if hyperplanes < 1:
        raise ValueError(f"hyperplanes must be >= 1, got {hyperplanes}")
    watch = Stopwatch()
    n = inst.num_nodes
    rng = make_rng(seed)
    coupling = (poly if poly is not None else maxcut_qubo(inst)).quadratic_form()[1]
    rank = min(n, math.ceil(math.sqrt(2.0 * n)) + 1)
    vectors = rng.normal(size=(n, rank))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    total_weight = sum(w for _, _, w in inst.edges)
    edge_u = np.array([u for u, _, _ in inst.edges], dtype=np.int64)
    edge_v = np.array([v for _, v, _ in inst.edges], dtype=np.int64)
    edge_w = np.array([w for _, _, w in inst.edges])

    def relaxed_cut() -> float:
        # Every edge's dot product in one stacked (1, r) @ (r, 1) matmul,
        # summed in edge order as Python floats.
        dots = (vectors[edge_u, None, :] @ vectors[edge_v, :, None]).ravel().tolist()
        bilinear = 0.0
        for (_, _, w), dot in zip(inst.edges, dots):
            bilinear += w * dot
        return 0.5 * (total_weight - bilinear)

    objective = relaxed_cut()
    streak = 0
    residual = np.inf
    converged = False
    for _ in range(max_sweeps):
        for i in range(n):
            g = coupling[i] @ vectors
            norm = math.sqrt(g.dot(g))
            if norm > 2e-12:  # |g_i| > 1e-12 for the undoubled weights
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
    if inst.num_edges:
        crossing = assignments[edge_u, :] != assignments[edge_v, :]
        cuts = edge_w @ crossing
    else:
        cuts = np.zeros(hyperplanes)
    # 0.0 - cut is -cut for every nonzero cut, and 0.0 (not -0.0) for a zero cut.
    draws = list(zip(_bit_strings(assignments.T), (0.0 - cuts).tolist()))
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
    visiting order (beginning at ``start``) and the closed tour length, the
    ``walk_lengths`` of the tour rotated to begin at location 0.
    """
    m = inst.num_locations
    if not 0 <= start < m:
        raise ValueError(f"start {start} out of range [0, {m})")
    d = inst.distances
    tour = [start]
    unvisited = [loc for loc in range(m) if loc != start]
    while unvisited:  # min keeps the first, so the smallest, of tied locations
        tour.append(min(unvisited, key=lambda loc: d[tour[-1], loc]))
        unvisited.remove(tour[-1])
    zero = tour.index(0)
    return tuple(tour), float(walk_lengths(d, tour[zero + 1:] + tour[:zero]))


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
