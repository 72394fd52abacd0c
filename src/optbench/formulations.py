"""Problem formulations: cost polynomials, penalties, and state decoding.

Everything is a minimization problem.  Max-Cut is stored as the negated
cut weight, so optimal costs are negative; TSP encodings carry positive
penalized costs.

TSP one-hot layout: with location 0 fixed as the tour start, the k
remaining tour slots are encoded slot-major into k blocks of k bits.
Variable ``slot * k + (loc - 1)`` is 1 when tour slot ``slot`` (0-based)
holds location ``loc`` (1-based).  A block that is one-hot therefore names
the location visited at that slot.

TSP integer (HOBO) layout: each of the k slots holds a ceil(log2 k)-bit
integer, least significant bit first, naming location value+1.  Values >= k
are range violations; for cost evaluation the named location wraps modulo k
so every basis state still has a defined walk length.

Every encoding shares these tour rules, each taking one state's k slot
entries or k broadcast slot vectors, as ``walk_lengths`` does.  Every tour
length is ``walk_lengths``'s.  A clash is a slot pair naming one location
(``slot_clashes``): a state with none visits every location once.  A HOBO
state also has a range violation per slot integer >= k (``hobo_violations``)
and pays B per violation and clash; XY's B * sum_loc (1 - uses)**2 is 2B per
clash, since the uses sum to k.  ``tsp_default_penalties`` fills a missing A or B.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .instances import MaxCutInstance, TspInstance
from .model import BinaryPolynomial, _as_bits


# ----------------------------------------------------------------------
# Max-Cut
# ----------------------------------------------------------------------

def maxcut_qubo(inst: MaxCutInstance) -> BinaryPolynomial:
    """Negated-cut objective: C(x) = sum_{(i,j) in E} (2 x_i x_j - x_i - x_j) w_ij."""
    terms: dict[tuple[int, ...], float] = {}
    for u, v, w in inst.edges:
        terms[(u, v)] = terms.get((u, v), 0.0) + 2.0 * w
        terms[(u,)] = terms.get((u,), 0.0) - w
        terms[(v,)] = terms.get((v,), 0.0) - w
    return BinaryPolynomial(inst.num_nodes, terms)


def cut_weight(inst: MaxCutInstance, x: str | Sequence[int] | np.ndarray) -> float:
    """Total weight of edges crossing the bipartition."""
    bits = _as_bits(x, inst.num_nodes)
    return float(sum(w for u, v, w in inst.edges if bits[u] != bits[v]))


# ----------------------------------------------------------------------
# TSP shared pieces
# ----------------------------------------------------------------------

def tsp_default_penalties(inst: TspInstance, a: float | None = None,
                          b: float | None = None) -> tuple[float, float]:
    """(A, B) as given; a missing A is 1 / (1 + max distance), a missing B is 1."""
    return 1.0 / (1.0 + inst.max_distance()) if a is None else a, 1.0 if b is None else b


def walk_lengths(distances: np.ndarray, locs):
    """Lengths of the closed walks 0 -> locs[0] -> ... -> locs[-1] -> 0.

    ``locs`` holds one entry per tour slot along its first axis: k
    locations give one length, and k index arrays give one length per
    element of their broadcast shape, a (k, ...) array's rows too.  Slots
    on their own axes, each a short vector, give every combination of
    their locations while each leg is gathered for two slots only; the sum
    grows to the full shape as the walk goes.  Legs are added in walk
    order, so a walk has the same floating-point length wherever it is
    computed.
    """
    lengths = distances[0, locs[0]]
    for a, b in zip(locs, locs[1:]):
        leg = distances[a, b]
        if np.shape(leg) == np.shape(lengths):
            lengths += leg
        else:  # the slots so far broadcast to a smaller shape: the sum grows
            lengths = lengths + leg
    return lengths + distances[locs[-1], 0]


def tour_permutations(k: int) -> np.ndarray:
    """All k! orders of the locations 1..k, one per row, in lexicographic order."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, k + 1):
        # Orders of 0..m-1: each first value, then the orders of 0..m-2
        # shifted past it (a monotone map, so each block stays sorted).
        first = np.repeat(np.arange(m, dtype=np.int8), len(perms))
        rest = np.tile(perms, (m, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack([first, rest])
    return perms + 1


def tour_length(inst: TspInstance, sequence: Sequence[int]) -> float:
    """Length of the closed walk 0 -> sequence -> 0.

    ``sequence`` lists the locations of slots 1..k in order; entries may
    repeat (the walk is still defined, repeats contribute zero legs).
    """
    return float(walk_lengths(inst.distances, sequence))


def slot_clashes(locs):
    """Slot pairs naming one location: an int for one state's ``locs``, else an
    int16 array of the slot vectors' broadcast shape (see ``walk_lengths``)."""
    clashes = np.zeros(np.broadcast_shapes(*map(np.shape, locs)), dtype=np.int16)
    for s in range(len(locs)):
        for t in range(s):
            clashes += locs[t] == locs[s]
    return clashes if clashes.ndim else int(clashes)


# ----------------------------------------------------------------------
# One-hot encoding (k*k binary variables)
# ----------------------------------------------------------------------

def onehot_index(k: int, slot: int, loc: int) -> int:
    """Variable index of x[slot, loc]: slot 0-based in 0..k-1, loc 1-based."""
    return slot * k + (loc - 1)


def tsp_onehot_qubo(
    inst: TspInstance, a: float | None = None, b: float | None = None
) -> BinaryPolynomial:
    """One-hot TSP objective over k*k variables.

    C(x) = A * sum_i d_0i (x_{i,1} + x_{i,k})
         + A * sum_{i,j} d_ij sum_t x_{i,t} x_{j,t+1}
         + B * sum_t (1 - sum_i x_{i,t})^2
         + B * sum_i (1 - sum_t x_{i,t})^2
    """
    k = inst.k
    d = inst.distances
    a, b = tsp_default_penalties(inst, a, b)
    terms: dict[tuple[int, ...], float] = {}

    def add(key: tuple[int, ...], coeff: float) -> None:
        terms[key] = terms.get(key, 0.0) + coeff

    for loc in range(1, k + 1):
        add((onehot_index(k, 0, loc),), a * d[0, loc])
        add((onehot_index(k, k - 1, loc),), a * d[loc, 0])
    for slot in range(k - 1):
        for loc_i in range(1, k + 1):
            for loc_j in range(1, k + 1):
                if d[loc_i, loc_j] == 0.0:
                    continue
                u = onehot_index(k, slot, loc_i)
                v = onehot_index(k, slot + 1, loc_j)
                add(tuple(sorted((u, v))), a * d[loc_i, loc_j])
    # (1 - sum x)^2 = 1 - sum x + 2 * sum_{pairs} x x  after x^2 = x
    for slot in range(k):
        add((), b)
        for loc in range(1, k + 1):
            add((onehot_index(k, slot, loc),), -b)
        for loc_i in range(1, k + 1):
            for loc_j in range(loc_i + 1, k + 1):
                add((onehot_index(k, slot, loc_i), onehot_index(k, slot, loc_j)), 2.0 * b)
    for loc in range(1, k + 1):
        add((), b)
        for slot in range(k):
            add((onehot_index(k, slot, loc),), -b)
        for s1 in range(k):
            for s2 in range(s1 + 1, k):
                add(tuple(sorted((onehot_index(k, s1, loc), onehot_index(k, s2, loc)))), 2.0 * b)
    return BinaryPolynomial(k * k, terms)


def decode_onehot(x: str | Sequence[int] | np.ndarray, k: int) -> tuple[int, ...] | None:
    """Slot sequence of a one-hot encoded state, or None if a block is not one-hot.

    The returned sequence may repeat locations; full feasibility also
    requires it to be a permutation of 1..k.
    """
    bits = _as_bits(x, k * k)
    sequence = []
    for slot in range(k):
        block = bits[slot * k:(slot + 1) * k]
        if block.sum() != 1:
            return None
        sequence.append(int(np.flatnonzero(block)[0]) + 1)
    return tuple(sequence)


def onehot_feasible(x: str | Sequence[int] | np.ndarray, k: int) -> bool:
    seq = decode_onehot(x, k)
    return seq is not None and not slot_clashes(seq)


def encode_onehot(sequence: Sequence[int], k: int) -> str:
    """Bitstring with slot t's block hot at position sequence[t] - 1."""
    bits = ["0"] * (k * k)
    for slot, loc in enumerate(sequence):
        bits[onehot_index(k, slot, loc)] = "1"
    return "".join(bits)


# ----------------------------------------------------------------------
# Integer (HOBO) encoding (k * ceil(log2 k) binary variables)
# ----------------------------------------------------------------------

def hobo_bits_per_slot(k: int) -> int:
    return max(1, math.ceil(math.log2(k)))


def hobo_num_vars(k: int) -> int:
    return k * hobo_bits_per_slot(k)


def decode_hobo(x: str | Sequence[int] | np.ndarray, k: int) -> tuple[int, ...]:
    """Raw slot integers (LSB-first within each slot), length k."""
    m = hobo_bits_per_slot(k)
    bits = _as_bits(x, k * m)
    values = []
    for slot in range(k):
        v = 0
        for j in range(m):
            v |= int(bits[slot * m + j]) << j
        values.append(v)
    return tuple(values)


def hobo_violations(values, k: int) -> tuple:
    """(range violations, clashes) of one state's raw slot integers, or of
    slot vectors (see ``walk_lengths``): one violation per integer >= k, and
    the ``slot_clashes`` of the locations after the modulo-k wrap."""
    return sum(value >= k for value in values), slot_clashes([value % k for value in values])


def hobo_feasible(x: str | Sequence[int] | np.ndarray, k: int) -> bool:
    return not sum(hobo_violations(decode_hobo(x, k), k))


def hobo_cost(
    inst: TspInstance,
    x: str | Sequence[int] | np.ndarray,
    a: float | None = None,
    b: float | None = None,
) -> float:
    """A * walk length of the wrapped slot sequence + B per violation."""
    k = inst.k
    a, b = tsp_default_penalties(inst, a, b)
    values = decode_hobo(x, k)
    r, p = hobo_violations(values, k)
    return a * tour_length(inst, [v % k + 1 for v in values]) + b * (r + p)


def encode_hobo(sequence: Sequence[int], k: int) -> str:
    """Bitstring whose slot integers name the given locations (1..k)."""
    m = hobo_bits_per_slot(k)
    bits = ["0"] * (k * m)
    for slot, loc in enumerate(sequence):
        v = loc - 1
        for j in range(m):
            if (v >> j) & 1:
                bits[slot * m + j] = "1"
    return "".join(bits)
