"""Exact simulation of alternating-operator circuits in four encodings.

All circuits alternate a diagonal cost phase exp(-i * gamma_t * C) with a
mixing layer, for t = 1..p:

* ``qubo``  -- full 2**n statevector, transverse mixer exp(-i * beta * H_M)
  with H_M = -sum_i sigma_x_i, i.e. cos(beta) I + i sin(beta) sigma_x per
  qubit, started from the uniform superposition (the mixer ground state).
  A flip-symmetric polynomial, such as a Max-Cut instance's, runs on the
  half basis x_{n-1} = 0 (see below).
* ``hobo``  -- same mixer over k * ceil(log2 k) qubits carrying integer
  slot encodings of a tour.  A state costs A times the walk length of its
  decoded slots (integers wrap modulo k) plus B per slot integer >= k and
  B per unordered slot pair naming the same location.
* ``xy``    -- simulated inside the one-hot subspace (k blocks of k qubits,
  dimension k**k): brick-wall two-local XY rotations within each block,
  started from a product of W states, which is uniform over the subspace;
  no mass ever leaves it.  A tour costs A * walk length + B * sum_loc
  (1 - uses)**2 there (the per-slot one-hot penalty vanishes), and a
  polynomial over k*k variables is evaluated on the embedded states.
* ``perm``  -- simulated in the permutation basis (dimension k!): the
  projector mixer exp(-i * beta |s><s|) applied analytically, psi <- psi +
  (exp(-i * beta) - 1) <s|psi> s, started from the uniform permutation
  state |s>, so no infeasible state is ever reached.

Each (problem, encoding) pair compiles once to a ``CompiledProblem``, which
every simulator and the generator trainer run through one state-evolution
routine with one mixer method per basis (transverse, xy, projector).  The
trainer's adjoint gradient un-applies the same mixer methods on its backward
pass.  The cost phase follows how the compile filled the cost table.  A
one-hot tour QUBO's table is filled by doubling (see below), and so is each
round's phase, from the phases of its terms: O(2**n) complex products and
O(n**2) exponentials, within 1e-12 of np.exp(-1j * gamma * costs), and no
level index.  Every other table (Max-Cut and other integer tables, real
polynomials, hobo, xy and perm) keeps that phase bit for bit: it is
computed per distinct cost level and gathered, in slices, through a level
index built at first use, from a count of the costs' offsets when they are
integers within a span below 2**16, as a Max-Cut table's are, and from one
sort of the costs otherwise.  The transverse mixer applies each of
ceil(n / 6) near-equal qubit blocks as one GEMM per row by its dense Kronecker factor, each GEMM rotating the
qubit order so that the next block's qubits come lowest; the xy mixer
composes a block's pair rotations into one k x k factor and applies it as
one GEMM per block, rotating the slot order the same way.  The trainer
stacks the problems of one qubit count and state size into one compiled
problem, whose rows run through the same gates in one pass.

A tour's tables are built from their structure: its states are tuples of
k slot values, so walk lengths, feasibility and penalties broadcast one
short vector per slot over the (base,) * k table instead of decoding
every state.  The one-hot QUBO decodes only its k**k one-hot states, and
keeps their lengths and feasibility there: l* and p* are computed on them,
and the 2**(k*k) arrays are scattered once, at first read.  It fills its
2**(k*k) cost table by doubling, as an integer QUBO's; with real
coefficients that table differs from the term-order sums of
``cost_vector`` in last bits only (within 1e-12 relative).

A qubo polynomial of degree <= 2 whose cost is flip-symmetric, C(not x) =
C(x), keeps only the 2**(n-1) states with x_{n-1} = 0: the cost, the
uniform start and the transverse mixer all commute with the global flip
X^n, so psi(x) = psi(not x) at every step (Shaydulin, Hadfield, Hogg &
Safro, arXiv:2012.04713).  The rule follows the cost, not the input's
type: a Max-Cut instance compiles to its cut polynomial, which meets it,
while a tour QUBO or a polynomial with a field does not.  The state is
normalised over the half, so the expected cost, the gap and the gradients
keep their formulas.  p_star, the expected cost and the norm come from the
2**(n-1) stored amplitudes and the half table, which sums each state's
terms in its own order, so these outputs agree with the full circuit's to
1e-12 rather than bit for bit.  The cap counts stored qubits, which lets a
flip-symmetric polynomial reach 27 variables at the memory of a 26-qubit
asymmetric one.  The half table holds the optimum value too (a state and
its complement cost the same), so the harness takes a circuit's c* from
its compiled table.

Every circuit's output keeps the arrays the circuit stores and builds each
full-basis array once, at first read: it mirrors the amplitudes,
probabilities and costs of the half basis, and reads a tour's lengths and
feasibility from its compiled problem, so a one-hot QUBO's output and
compile share one scatter.  Success probability p_star is the exact mass
on optimal basis states (cost within 1e-9 of the optimum; for tours,
feasible states within 1e-9 of the optimal tour length l*).  A compiled
tour holds every state's walk length and feasibility, and its feasible
states are exactly the k! tours, so l* is the least feasible length it
holds; no outside oracle runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import formulations as forms
from .instances import MaxCutInstance, TspInstance, make_rng
from .model import BinaryPolynomial, SizeCapError, fill_by_doubling
from .solvers import tsp_exhaustive  # noqa: F401  # kept: perfbench's tracer patches this name


class LayerCountUnavailable(ValueError):
    """Requested a total layer count the construction cannot provide."""


# ----------------------------------------------------------------------
# Output container
# ----------------------------------------------------------------------

@dataclass
class OutputDistribution:
    """Exact output of one simulated circuit.

    ``basis`` is "full" (2**n bitstrings), "onehot" (k**k block
    assignments) or "perm" (k! permutations); ``costs`` holds the diagonal
    cost of every basis state.  For tour problems ``lengths``/``feasible``
    carry the decoded walk length and constraint check per state (length is
    NaN where undecodable).

    A circuit returns a ``_CircuitOutput``, which builds each full-basis
    array from the arrays the circuit stores, only when it is read.
    """

    basis: str
    probabilities: np.ndarray
    amplitudes: np.ndarray
    costs: np.ndarray
    p_star: float
    num_qubits: int | None = None
    k: int | None = None
    feasible: np.ndarray | None = None
    lengths: np.ndarray | None = None

    def expected_cost(self) -> float:
        return float(self.probabilities @ self.costs)

    def norm(self) -> float:
        return float(self.probabilities.sum())


def _mirror(half: np.ndarray) -> np.ndarray:
    """The full-basis array of a half-basis one: state x and its complement
    2**n - 1 - x share one entry, so the upper half is the lower one reversed."""
    return np.concatenate([half, half[::-1]])


class _CircuitOutput(OutputDistribution):
    """Output of a ``CompiledProblem``'s circuit, kept on the states it stores.

    On the half basis each stored amplitude, already scaled by sqrt(1/2), is
    its full-basis amplitude: ``amplitudes``, ``probabilities`` and ``costs``
    are mirrored at first read (and kept), bit for bit a full-basis output's,
    and ``expected_cost`` and ``norm`` double their sums over the half.
    ``lengths`` and ``feasible`` are the compiled problem's own.
    """

    def __init__(self, compiled: CompiledProblem, amplitudes: np.ndarray,
                 probabilities: np.ndarray, p_star: float) -> None:
        self.basis, self.num_qubits, self.k = compiled.basis, compiled.num_qubits, compiled.k
        self.p_star, self._compiled, self._stored = p_star, compiled, (amplitudes, probabilities)

    def _full(self, stored: np.ndarray) -> np.ndarray:
        return _mirror(stored) if self._compiled.half else stored

    amplitudes = functools.cached_property(lambda self: self._full(self._stored[0]))
    probabilities = functools.cached_property(lambda self: self._full(self._stored[1]))
    costs = functools.cached_property(lambda self: self._full(self._compiled.costs))
    lengths = property(lambda self: self._compiled.lengths)
    feasible = property(lambda self: self._compiled.feasible)

    def expected_cost(self) -> float:
        return (1 + self._compiled.half) * float(self._stored[1] @ self._compiled.costs)

    def norm(self) -> float:
        return (1 + self._compiled.half) * float(self._stored[1].sum())


def _check_schedule(beta, gamma) -> tuple[np.ndarray, np.ndarray]:
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    if beta.size != gamma.size or beta.size < 1:
        raise ValueError(
            f"need equal-length schedules with p >= 1, got {beta.size} and {gamma.size}"
        )
    if not (np.isfinite(beta).all() and np.isfinite(gamma).all()):
        raise ValueError(f"angles must be finite, got beta = {beta} and gamma = {gamma}")
    return beta, gamma


def xy_pair_schedule(k: int) -> list[tuple[int, int]]:
    """Brick-wall pair order on 0-based one-hot positions within a block.

    Even layer (0,1), (2,3), ...; odd layer (1,2), (3,4), ...; a wrap pair
    (k-1, 0) closes the ring when k is odd.
    """
    pairs = [(i, i + 1) for i in range(0, k - 1, 2)]
    pairs += [(i, i + 1) for i in range(1, k - 1, 2)]
    if k % 2 == 1 and k > 1:
        pairs.append((k - 1, 0))
    return pairs


def xy_pair_rotation(beta: float) -> np.ndarray:
    """Action of exp(-i beta (XX + YY)) on the span of the two one-hot states."""
    c2, s2 = math.cos(2.0 * beta), math.sin(2.0 * beta)
    return np.array([[c2, -1j * s2], [-1j * s2, c2]], dtype=np.complex128)


def _xy_factor(k: int, beta: float, derivative: bool = False):
    """The k x k action U of one block's brick-wall pair rotations (and dU/dbeta).

    The pairs of ``xy_pair_schedule`` are applied to the rows of the
    identity in order.  A pair's generator XX + YY acts as 2 sigma_x on its
    two one-hot states, so its rotation G has derivative -2i sigma_x G, and
    with ``derivative`` the product rule carries dU/dbeta along; returns
    U, or (U, dU/dbeta).
    """
    rotation = xy_pair_rotation(beta)
    factor = np.eye(k, dtype=np.complex128)
    d_factor = np.zeros_like(factor)
    for i, j in xy_pair_schedule(k):
        rows = [i, j]
        if derivative:
            d_factor[rows] = rotation @ d_factor[rows] - 2j * rotation[::-1] @ factor[rows]
        factor[rows] = rotation @ factor[rows]
    return (factor, d_factor) if derivative else factor


# ----------------------------------------------------------------------
# Compiled problem: cost table, basis and mixer of one encoding
# ----------------------------------------------------------------------

# kind -> (basis, default cap).  The cap bounds the stored qubit count on the
# full basis (n - 1 for a flip-symmetric polynomial on the half basis) and the
# number of basis states otherwise.
_ENCODINGS = {
    "qubo": ("full", 26),
    "hobo": ("full", 26),
    "xy": ("onehot", 6 ** 6),
    "perm": ("perm", math.factorial(9)),
}


# popcount(i ^ j) over the 2**w basis states of a block of w <= 6 qubits, by w.
_HAMMING = [sum((np.arange(1 << w)[:, None] ^ np.arange(1 << w)) >> b & 1 for b in range(6))
            for w in range(7)]
# The sum of sigma_x over a block of w qubits, by w: 1 where two states differ in one qubit.
_FLIPS = [(hamming == 1).astype(np.complex128) for hamming in _HAMMING]

# Entries per slice of a gather through a level index: bounds the intp copy
# of the index that np.take makes.
_SLICE = 1 << 16
# train_generator's cap on the amplitudes of one stack of problems.  Stacking
# saves per-call overhead only: on a 2-core host, gap(gradient=True) per
# problem at p = 4 falls to 0.45x at n = 10 and 0.77-0.90x at n = 12 by 2**14
# amplitudes and little further beyond, while from n = 14 a stack runs no
# faster than its rows alone.  A stack's gap holds about 112 bytes per
# amplitude, 1.75 MiB at the cap.
_STACK_AMPLITUDES = 1 << 14


def _gather(phase: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """out[...] = phase[index], in slices of the index; mode="clip" does not buffer ``out``."""
    flat_index, flat_out = index.reshape(-1), out.reshape(-1)
    for start in range(0, flat_index.size, _SLICE):
        np.take(phase, flat_index[start:start + _SLICE], out=flat_out[start:start + _SLICE],
                mode="clip")


def _index_dtype(count: int) -> type:
    """The least unsigned integer type that numbers ``count`` levels."""
    return (np.uint8 if count <= 1 << 8 else np.uint16 if count <= 1 << 16 else
            np.uint32 if count <= 1 << 32 else np.intp)


def _integer_offsets(flat: np.ndarray, low: float) -> np.ndarray | None:
    """Each entry's offset from ``low`` as uint16, or None if an entry is not an integer.

    Every entry must lie within 2**16 - 1 above ``low``.  Slices bound the float copies.
    """
    offsets = np.empty(flat.size, dtype=np.uint16)
    for start in range(0, flat.size, _SLICE):
        shifted = flat[start:start + _SLICE] - low
        part = offsets[start:start + _SLICE]
        np.copyto(part, shifted, casting="unsafe")
        if not np.array_equal(part, shifted):
            return None
    return offsets


def _level_index(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of ``costs``, ascending, and each entry's level in the least dtype.

    Costs that are integers within a span below 2**16, as a Max-Cut table's
    are, are counted: each entry's offset from the least cost, kept as
    uint16, tallies which offsets occur, the levels are the least cost plus
    those offsets, and an entry's level is the rank of its offset among them.
    Other costs take one argsort: the levels are the sorted costs where a
    new value starts, and an entry's level is the count of new values
    before its place in the sorted order, scattered back through the
    permutation.  Either way the result is np.unique's levels and
    np.searchsorted's index, bit for bit.
    """
    flat = costs.reshape(-1)
    low = flat.min()
    # The span test is false on NaN and infinite costs.
    offsets = _integer_offsets(flat, low) if flat.max() - low < 1 << 16 else None
    if offsets is not None:
        present = np.bincount(offsets) > 0
        levels = low + np.flatnonzero(present)
        index = np.empty(costs.shape, _index_dtype(levels.size))
        _gather((np.cumsum(present) - 1).astype(index.dtype), offsets, index)
        return levels, index
    order = np.argsort(flat)
    ordered = flat[order]
    new = np.empty(flat.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    levels = ordered[new]
    del ordered  # the sorted copy goes before the index comes
    new[:1] = False  # the first cost is level 0
    index = np.empty(costs.shape, _index_dtype(levels.size))
    index.reshape(-1)[order] = np.cumsum(new, dtype=index.dtype)
    return levels, index


def _slot_values(k: int, base: int) -> list[np.ndarray]:
    """The values 0..base-1 of each of k slots, slot t's on axis k - 1 - t.

    The k vectors broadcast to the (base,) * k table whose C-order position
    sum_t v_t * base**t holds slot values v (least significant first), so a
    per-slot quantity is computed base times, not base**k times.
    """
    return [np.arange(base).reshape(base, *(1,) * slot) for slot in range(k)]


def _onehot_states(k: int) -> np.ndarray:
    """The 2**(k*k) basis index of each of the k**k one-hot states, in subspace order.

    The state with slot t's hot bit at d_t, subspace index sum_t d_t * k**t,
    has basis index sum_t 2**(k*t + d_t); both orders rank the slots from
    k - 1 down and the digits upward, so the indices ascend.
    """
    return sum(1 << (k * slot + digit) for slot, digit in enumerate(_slot_values(k, k))).reshape(-1)


def _onehot_lift(values: np.ndarray, k: int, fill) -> np.ndarray:
    """The 2**(k*k) full-basis array of a k**k one-hot-subspace array: each
    one-hot state takes its subspace value (see ``_onehot_states``), every
    other state ``fill``."""
    full = np.full(1 << (k * k), fill, dtype=values.dtype)
    full[_onehot_states(k)] = values.reshape(-1)
    return full


def _flip_symmetric(poly: BinaryPolynomial) -> bool:
    """Whether C(1 - x) = C(x) for every x; only a polynomial of degree <= 2 with a variable.

    Flipping every bit adds a constant minus sum_i (2 a_i + sum_j b_ij) x_i to
    C, a_i the linear and b_ij the pair coefficients, and the constant is half
    the sum of these per-variable sums: C is flip-symmetric exactly when each
    vanishes.  A sum counts as zero within 1e-12 of its terms' absolute sum,
    since a weighted cut polynomial's a_i = -sum_j w_ij is rounded.
    """
    if poly.num_vars == 0 or poly.degree > 2:
        return False
    parts = [[] for _ in range(poly.num_vars)]
    for term, coeff in poly.terms.items():
        if len(term) == 1:
            parts[term[0]].append(2.0 * coeff)
        elif term:
            parts[term[0]].append(coeff)
            parts[term[1]].append(coeff)
    return all(abs(math.fsum(part)) <= 1e-12 * math.fsum(map(abs, part)) for part in parts)


class CompiledProblem:
    """One problem compiled for the encoding ``kind`` (see the module docstring).

    The one compiled form behind every circuit: it holds the diagonal cost
    of every basis state and, for a tour, each state's decoded walk length
    (NaN where undecodable) and feasibility (scattered from the k**k
    one-hot states at first read for the one-hot QUBO), and it applies the
    encoding's mixer.  :meth:`simulate` runs a schedule and :meth:`gap` serves the
    trainer; compile once and run as many schedules as needed.
    A qubo problem is a polynomial, a Max-Cut instance (its cut polynomial)
    or a tour (its one-hot QUBO); a polynomial that ``_flip_symmetric``
    accepts runs on the half basis x_{n-1} = 0, with ``half`` set.  An xy
    problem is a tour or a polynomial over k*k variables (pass ``k``); hobo
    and perm problems are tours.  ``a``/``b`` override the tour penalties
    (perm reads only ``a``) and ``cap`` the encoding's size cap.

    ``costs`` has shape (*stack, size): the stack shape is () for one
    problem and (G,) for G problems of one kind and state size built by
    :meth:`stack`.  The circuit methods run every row of a stack through
    the same gates, row by row along the leading axes.
    """

    def __init__(self, kind: str, problem, a: float | None = None, b: float | None = None,
                 k: int | None = None, cap: int | None = None) -> None:
        if kind not in _ENCODINGS:
            raise ValueError(f"unknown encoding kind {kind!r}")
        if isinstance(problem, MaxCutInstance) and kind == "qubo":
            problem = forms.maxcut_qubo(problem)
        tour = isinstance(problem, TspInstance)
        if tour:
            k = problem.k
        elif not isinstance(problem, BinaryPolynomial) or kind not in ("qubo", "xy"):
            raise TypeError(f"cannot compile {type(problem).__name__} for kind {kind!r}")
        elif kind == "xy" and (k is None or problem.num_vars != k * k):
            raise ValueError(f"a polynomial over {problem.num_vars} variables needs"
                             f" k with k*k variables for the xy encoding, got k = {k}")
        half = kind == "qubo" and not tour and _flip_symmetric(problem)
        self.kind, self.problem, self.k, self.half = kind, problem, k, half
        self.basis, default_cap = _ENCODINGS[kind]
        cap = default_cap if cap is None else cap
        if kind == "perm":
            self.num_qubits, extent = None, math.factorial(k)
        elif kind == "xy":
            self.num_qubits, extent = k * k, k ** k
        else:
            self.num_qubits = (forms.hobo_num_vars(k) if kind == "hobo"
                               else k * k if tour else problem.num_vars)
            extent = self.num_qubits - half
        if extent > cap:
            unit = ("stored qubits" if half else "qubits" if self.basis == "full"
                    else "basis states")
            raise SizeCapError(f"{extent} {unit} exceed the {kind} encoding's cap {cap}")
        self._quadratic = self._decoded = None
        if tour:
            a_default, b_default = forms.tsp_default_penalties(problem)
            self._compile_tour(a_default if a is None else a, b_default if b is None else b)
        elif kind == "qubo":
            self.costs = problem.cost_vector(0, 1 << extent)
        else:
            self.costs = np.full(extent, problem.constant)
            slots = self.costs.reshape((k,) * k).T  # axis t holds slot t's digit
            for term, coeff in problem.terms.items():
                digit = dict(divmod(var, k) for var in term)
                if term and len(digit) == len(term):  # else two digits of one slot
                    view = slots[(*(digit.get(t, slice(None)) for t in range(k)), ...)]
                    view += coeff

    def _compile_tour(self, a: float, b: float) -> None:
        """Walk lengths, feasibility and costs of every basis state of a tour.

        A hobo or xy state, and a decodable one-hot QUBO state, is a tuple of
        k slot values, so each table is the (base,) * k broadcast of the
        slots' short vectors (see ``_slot_values``); perm runs its k! rows.
        A state is feasible when no two slots name one location (and, for
        hobo, every slot integer is in range): with k slots and k locations,
        exactly when it visits every location once.  The repeated pairs are
        also the penalties: hobo adds B per repeated pair, and xy's B *
        sum_loc (1 - uses)**2 is B * 2 * repeats, since the uses sum to k.
        ``_decoded`` keeps the lengths and feasibility of the decoded states,
        which for the one-hot QUBO are its k**k one-hot states only.
        """
        inst, k = self.problem, self.k
        if self.kind == "perm":
            locs = forms.tour_permutations(k).T
        elif self.kind == "hobo":
            values = _slot_values(k, 1 << forms.hobo_bits_per_slot(k))
            locs = [value % k + 1 for value in values]
        else:  # xy, and qubo on its k**k decodable states: slot t's hot bit is d_t
            locs = [digit + 1 for digit in _slot_values(k, k)]
        lengths = forms.walk_lengths(inst.distances, locs)
        repeats = np.zeros(lengths.shape, dtype=np.int16)
        for s in range(k):
            for t in range(s):
                repeats += locs[t] == locs[s]
        feasible = repeats == 0
        if self.kind == "hobo":  # and every slot integer in range
            range_viol = np.zeros(lengths.shape, dtype=np.int16)
            for value in values:
                range_viol += value >= k
            feasible &= range_viol == 0
        self._decoded = lengths.reshape(-1), feasible.reshape(-1)
        if self.kind == "qubo":  # a state with a block that is not one-hot decodes to no walk
            poly = forms.tsp_onehot_qubo(inst, a=a, b=b)
            self.costs = np.empty(1 << poly.num_vars)
            poly._double_fill(self.costs, 0)  # see the module docstring
            self._quadratic = (np.asarray(poly.constant), *poly.quadratic_form())
            return
        if self.kind == "hobo":  # B per out-of-range slot integer and per repeated pair
            costs = a * lengths + b * (range_viol + repeats)
        elif self.kind == "xy":
            costs = a * lengths + b * (2.0 * repeats)
        else:
            costs = a * lengths
        self.costs = costs.reshape(-1)

    def _basis_array(self, which: int, fill) -> np.ndarray | None:
        """``_decoded[which]`` on every basis state: scattered from the one-hot
        states, ``fill`` off them, for the one-hot QUBO; None but for a tour."""
        if self._decoded is None:
            return None
        decoded = self._decoded[which]
        return _onehot_lift(decoded, self.k, fill) if self.kind == "qubo" else decoded

    # Each basis state's walk length (NaN where undecodable) and feasibility,
    # built at first read and kept.
    lengths = functools.cached_property(lambda self: self._basis_array(0, np.nan))
    feasible = functools.cached_property(lambda self: self._basis_array(1, False))

    def _stack_key(self) -> tuple:
        """What the rows of one stack share: kind, qubit count, state shape and phase rule."""
        return self.kind, self.num_qubits, self.costs.shape, self._quadratic is None

    @classmethod
    def stack(cls, parts: list[CompiledProblem]) -> CompiledProblem:
        """The problems ``parts``, of one kind, qubit count and state size, as one stack's rows.

        The stack keeps what ``gap`` reads, not the tours behind ``simulate``;
        a one-problem stack views its problem's cost table instead of copying it.
        Its rows share one phase rule: all fill their phase by doubling, or none.
        """
        if not parts:
            raise ValueError("cannot stack an empty list of problems")
        first = parts[0]
        if any(part._stack_key() != first._stack_key() for part in parts):
            raise ValueError("stacked problems need one encoding kind, qubit count, state size"
                             " and phase rule")
        stacked = cls.__new__(cls)
        stacked.kind, stacked.basis, stacked.k, stacked.half = (first.kind, first.basis, first.k,
                                                                first.half)
        stacked.num_qubits = first.num_qubits
        stacked.problem = stacked._decoded = None
        stacked.costs = (first.costs[None] if len(parts) == 1
                         else np.stack([part.costs for part in parts]))
        stacked._quadratic = (None if first._quadratic is None else
                              tuple(map(np.stack, zip(*(part._quadratic for part in parts)))))
        return stacked

    # Distinct costs of all rows, ascending, and each state's level (see
    # _level_index); built only for a phase that is not filled by doubling.
    _levels = functools.cached_property(lambda self: _level_index(self.costs))

    def _phase(self, coeff: complex, out: np.ndarray) -> None:
        """out[...] = exp(coeff * C), row by row; ``coeff`` is -i gamma or i gamma.

        A table the compile filled by doubling (a one-hot tour QUBO's) has
        its phase filled the same way, from the phases of its terms
        (``_quadratic``): O(2**n) complex products and O(n**2) exponentials,
        within 1e-12 of np.exp(coeff * costs).  Any other table takes one
        exponential per distinct cost, gathered through its level index: bit
        for bit np.exp(coeff * costs).
        """
        if self._quadratic is not None:
            for row in np.ndindex(out.shape[:-1]):  # each row exactly as when run alone
                constant, linear, coupling = (np.exp(coeff * part[row]) for part in self._quadratic)
                fill_by_doubling(out[row], constant, linear, coupling, np.multiply)
        else:
            levels, index = self._levels
            _gather(np.exp(coeff * levels), index, out)

    def evolve(self, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """Statevector of each row after p rounds of cost phase exp(-i gamma_t C) and mixer.

        Each round's phase comes from ``_phase``: by doubling for a one-hot
        tour QUBO, which never builds a level index, and through the level
        index for every other table.
        """
        if self._quadratic is None:
            _ = self._levels  # built, and its scratch freed, before the state vectors
        psi = np.full(self.costs.shape, 1.0 / math.sqrt(self.costs.shape[-1]),
                      dtype=np.complex128)
        spare = np.empty_like(psi)
        for b, g in zip(beta, gamma):
            self._phase(-1j * g, spare)
            psi *= spare
            psi, spare, _ = self._mix(psi, spare, b)
        return psi

    # Each mixer method applies its mixer of angle beta to ``psi`` (the
    # states of the stack's rows, shape (*stack, size)), with ``spare`` as
    # scratch, and returns (psi, spare, derivative).  With ``adjoint``, psi
    # has shape (2, *stack, size): the states and their costates lam taken
    # after the mixer.  The mixer's gates exp(-i beta h) are un-applied from
    # both in reverse order, and the derivative holds per row the sum over
    # gates of 2 Re<lam| -i h |state>, the mixer's term of the gradient by
    # beta (0.0 on the forward run).

    def _transverse(self, psi: np.ndarray, spare: np.ndarray, beta: float,
                    adjoint: bool = False) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        """Transverse mixer: cos(beta) I + i sin(beta) sigma_x on every qubit.

        One GEMM from psi into spare per block and row, by the block's
        Kronecker factor pw[popcount(i ^ j)]: the factor multiplies the
        transpose of the (rest, 2**w) view, whose columns are the block's w
        lowest bits, so those bits lead the product and each block rotates
        the qubit order right by w.  The widths sum to n, so after the last
        block every qubit is back in place.  A block's generator is -sum of
        its sigma_x, so its derivative term is -2 Im<lam| sum sigma_x
        |state>, read on the block's bits, which are then the top ones.

        On the half basis the blocks cover the n - 1 stored qubits, and one
        more gate acts on qubit n - 1, whose flip maps the half onto itself
        in reverse order: cos(beta) psi + i sin(beta) psi[::-1], with
        derivative term -2 Im<lam|state[::-1]>.
        """
        n, stack = self.num_qubits - self.half, psi.shape[:-1]
        count = max(1, -(-n // 6))  # ceil(n / 6) near-equal blocks, lowest first
        widths = [n // count + (i < n % count) for i in range(count)]
        c, s = math.cos(beta), math.sin(-beta if adjoint else beta)
        derivative = 0.0
        for width in widths:
            pw = np.array([c ** (width - d) * (1j * s) ** d for d in range(width + 1)])
            np.matmul(pw[_HAMMING[width]], psi.reshape(*stack, -1, 1 << width).swapaxes(-1, -2),
                      out=spare.reshape(*stack, 1 << width, -1))
            psi, spare = spare, psi
            if adjoint:  # blocks commute, so the term reads the same on either side
                np.matmul(_FLIPS[width], psi[0].reshape(*stack[1:], 1 << width, -1),
                          out=spare[0].reshape(*stack[1:], 1 << width, -1))
                derivative -= 2.0 * np.vecdot(psi[1], spare[0]).imag
        if self.half:
            np.multiply(psi[..., ::-1], 1j * s, out=spare)
            psi *= c
            psi += spare
            if adjoint:
                np.copyto(spare[0], psi[0][..., ::-1])
                derivative -= 2.0 * np.vecdot(psi[1], spare[0]).imag
        return psi, spare, derivative

    def _xy(self, psi: np.ndarray, spare: np.ndarray, beta: float,
            adjoint: bool = False) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        """XY mixer: the brick-wall pair rotations within each block.

        Every block runs the same pairs, so they are composed once into the
        k x k factor U of ``_xy_factor``, applied as one GEMM from psi into
        spare per block: as in the transverse mixer, U multiplies the
        transpose of the (rest, k) view, whose columns are the lowest slot's
        digit, so that slot leads the product and each block rotates the slot
        order by one; after k blocks every slot is back in place.  The adjoint
        applies U^dagger.  The block's derivative term, 2 Re<lam|(dU/dbeta)
        U^dagger|state> on the states after the block, is then read on the
        states before it, whose slot leads, as 2 Re<lam|U^dagger dU/dbeta|state>.
        """
        k, stack = self.k, psi.shape[:-1]
        if adjoint:
            factor, d_factor = _xy_factor(k, beta, derivative=True)
            factor = factor.conj().T
            d_factor = factor @ d_factor
        else:
            factor = _xy_factor(k, beta)
        derivative = 0.0
        for _ in range(k):
            np.matmul(factor, psi.reshape(*stack, -1, k).swapaxes(-1, -2),
                      out=spare.reshape(*stack, k, -1))
            psi, spare = spare, psi
            if adjoint:
                np.matmul(d_factor, psi[0].reshape(*stack[1:], k, -1),
                          out=spare[0].reshape(*stack[1:], k, -1))
                derivative += 2.0 * np.vecdot(psi[1], spare[0]).real
        return psi, spare, derivative

    def _projector(self, psi: np.ndarray, spare: np.ndarray, beta: float,
                   adjoint: bool = False) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        """Projector mixer exp(-i beta |s><s|), s the uniform permutation state.

        Its derivative term is 2 Im(conj(sum lam) * sum state) / k!.
        """
        size = psi.shape[-1]
        rows = psi.reshape(-1, size)
        sums = [row.sum() for row in rows]
        phase = np.exp(1j * beta) if adjoint else np.exp(-1j * beta)
        for row, total in zip(rows, sums):
            row += (phase - 1.0) * total / size
        if not adjoint:
            return psi, spare, 0.0
        half = len(sums) // 2  # the states' rows come first, then the costates'
        derivative = [2.0 * (np.conj(lam) * state).imag / size
                      for state, lam in zip(sums[:half], sums[half:])]
        return psi, spare, np.reshape(derivative, psi.shape[1:-1])

    # The mixer method of each basis.  A bound method kept on the instance
    # would make a reference cycle that holds the cost table until the next
    # garbage collection.
    _MIXERS = {"full": _transverse, "onehot": _xy, "perm": _projector}

    def _mix(self, psi: np.ndarray, spare: np.ndarray, beta: float,
             adjoint: bool = False) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        return self._MIXERS[self.basis](self, psi, spare, beta, adjoint)

    def _adjoint(self, psi: np.ndarray, beta: np.ndarray,
                 gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of <psi|C|psi> by beta and gamma, psi the circuit's output.

        Walks back from lam = C psi through the rounds, un-applying each mixer
        and cost phase from psi and lam (Jones & Gacon, arXiv:2009.02823); the
        gamma_t term is 2 Im<lam|C|state> between the two.  Holds five state
        vectors per row, whatever the depth, and returns arrays of shape
        (*stack, p).
        """
        states = np.empty((2, *psi.shape), dtype=np.complex128)  # states and costates
        states[0] = psi
        np.multiply(psi, self.costs, out=states[1])
        spare = np.empty_like(states)
        work = np.empty_like(psi)
        d_beta = np.empty((*psi.shape[:-1], len(beta)))
        d_gamma = np.empty_like(d_beta)
        for t in reversed(range(len(beta))):
            states, spare, d_beta[..., t] = self._mix(states, spare, beta[t], adjoint=True)
            np.multiply(states[0], self.costs, out=work)
            d_gamma[..., t] = 2.0 * np.vecdot(states[1], work).imag
            self._phase(1j * gamma[t], work)
            states *= work
        return d_beta, d_gamma

    def simulate(self, beta, gamma, optimal_cost: float | None = None) -> OutputDistribution:
        """Run the circuit and return its exact output distribution.

        p_star is the mass on optimal states: for a tour, feasible states
        whose length is within 1e-9 of l*, the least length among the
        feasible states, which are exactly the k! tours; otherwise states
        whose cost is within 1e-9 of ``optimal_cost`` (by default the least
        cost).
        """
        beta, gamma = _check_schedule(beta, gamma)
        psi = self.evolve(beta, gamma)
        if self.half:  # each stored state stands for itself and its complement
            psi *= math.sqrt(0.5)
        probs = np.abs(psi)
        probs *= probs
        if self._decoded is None:
            least = float(self._levels[0][0]) if optimal_cost is None else optimal_cost
            optimal = self.costs <= least + 1e-9
        else:
            lengths, feasible = self._decoded
            optimal = feasible & (lengths <= lengths[feasible].min() + 1e-9)
            if self.kind == "qubo":  # the optimal one-hot states, ascending as a mask picks them
                optimal = _onehot_states(self.k)[optimal]
        picked = probs[optimal]
        if self.half:  # summed in the order of the mirrored full basis
            picked = _mirror(picked)
        return _CircuitOutput(self, psi, probs, float(picked.sum()))

    def gap(self, beta: np.ndarray, gamma: np.ndarray, gradient: bool = False):
        """Normalized optimality gap of the expected cost; equals 1 - r for negative optima.

        With ``gradient``, returns (gap, d gap / d beta, d gap / d gamma), the
        derivatives exact from one backward pass after the forward run.  A
        stack gives one gap per row (and one gradient row per row), each bit
        for bit the row's problem run alone; one problem gives a float.  The
        schedule must hold p >= 1 rounds of each angle, as in :meth:`simulate`.
        """
        beta, gamma = _check_schedule(beta, gamma)
        reference = self.costs.min(axis=-1)
        if (reference == 0.0).any():
            raise ValueError("problem has zero optimal cost; ratios are undefined")
        psi = self.evolve(beta, gamma)
        probs = np.abs(psi) ** 2
        value = (np.vecdot(probs, self.costs) - reference) / np.abs(reference)
        value = value if value.ndim else float(value)
        if not gradient:
            return value
        d_beta, d_gamma = self._adjoint(psi, beta, gamma)
        scale = np.abs(reference)[..., None]
        return value, d_beta / scale, d_gamma / scale


# ----------------------------------------------------------------------
# Entry points and one-hot state helpers
# ----------------------------------------------------------------------

def qaoa_qubo_simulate(
    model: BinaryPolynomial | MaxCutInstance,
    beta,
    gamma,
    cap: int = _ENCODINGS["qubo"][1],
    optimal_cost: float | None = None,
) -> OutputDistribution:
    """Full-statevector run of a (possibly higher-order) diagonal cost model.

    A flip-symmetric model runs on the half basis (see the module
    docstring).  ``model`` may also be a Max-Cut instance, run as its cut
    polynomial, or a problem already compiled for the qubo encoding.
    """
    if not isinstance(model, CompiledProblem):
        model = CompiledProblem("qubo", model, cap=cap)
    return model.simulate(beta, gamma, optimal_cost)


def qaoa_tsp_simulate(
    inst: TspInstance,
    kind: str,
    beta,
    gamma,
    a: float | None = None,
    b: float | None = None,
) -> OutputDistribution:
    """Run one of the four tour encodings: qubo, hobo, xy or perm."""
    compiled = CompiledProblem(kind, inst, a=a, b=b)
    if kind == "qubo":  # the plain qubo simulator runs the compiled one-hot QUBO
        return qaoa_qubo_simulate(compiled, beta, gamma)
    dist = compiled.simulate(beta, gamma)
    del compiled._levels  # a one-run compile: its output keeps the tables, not the phase cache
    return dist


def onehot_state_index(sequence, k: int) -> int:
    """Subspace index of the one-hot state visiting ``sequence`` (1-based locs)."""
    return sum((loc - 1) * (k ** slot) for slot, loc in enumerate(sequence))


def embed_onehot_state(amplitudes: np.ndarray, k: int) -> np.ndarray:
    """Lift a k**k subspace vector into the full 2**(k*k) statevector."""
    return _onehot_lift(np.asarray(amplitudes, dtype=np.complex128), k, 0.0)


# ----------------------------------------------------------------------
# Parameter generator
# ----------------------------------------------------------------------

@dataclass
class GeneratorParams:
    """Polynomial coefficients generating a depth-p schedule from few numbers."""

    theta_beta: np.ndarray
    theta_gamma: np.ndarray

    def __post_init__(self) -> None:
        self.theta_beta = np.atleast_1d(np.asarray(self.theta_beta, dtype=np.float64))
        self.theta_gamma = np.atleast_1d(np.asarray(self.theta_gamma, dtype=np.float64))
        if self.theta_beta.size != self.theta_gamma.size or self.theta_beta.size < 1:
            raise ValueError("theta vectors must share a fixed nonzero length")

    @classmethod
    def ramp(cls, degree: int = 4) -> "GeneratorParams":
        """Coefficients of the linear ramp beta_i = 1 - i/p, gamma_i = i/p."""
        theta_beta = np.zeros(degree + 1)
        theta_gamma = np.zeros(degree + 1)
        theta_beta[0] = 1.0
        theta_beta[1] = -1.0
        theta_gamma[1] = 1.0
        return cls(theta_beta, theta_gamma)


def expand_generator(gp: GeneratorParams, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the generator polynomial at i/p for i = 1..p.

    beta_i = sum_d theta_beta[d] * (i/p)**d, likewise gamma.
    """
    if p < 1:
        raise ValueError(f"depth must be >= 1, got {p}")
    powers = _powers(p, gp.theta_beta.size)
    return powers @ gp.theta_beta, powers @ gp.theta_gamma


def _powers(p: int, terms: int) -> np.ndarray:
    """The generator's Vandermonde matrix: row i - 1 holds (i/p)**d for d < terms."""
    return np.vander(np.arange(1, p + 1) / p, terms, increasing=True)


# ----------------------------------------------------------------------
# Generator training
# ----------------------------------------------------------------------

class _BudgetExhausted(Exception):
    pass


@dataclass
class TrainResult:
    params: GeneratorParams
    objective: float
    evaluations: int
    budget_exhausted: bool


def train_generator(
    train_set,
    kind: str,
    p: int,
    init: GeneratorParams | None = None,
    budget: int = 5000,
    seed: int | None = 0,
    random_restarts: int = 4,
) -> TrainResult:
    """Fit generator coefficients by minimizing the mean optimality gap.

    Runs a quasi-Newton (L-BFGS-B) search from the given start (the linear
    ramp by default) plus ``random_restarts`` seeded random starts, and
    returns the best coefficients seen anywhere.  A flip-symmetric
    polynomial, such as a Max-Cut instance's, runs on the half basis (see
    the module docstring), so a cut polynomial trains bit for bit as its
    instance.  The problems of one qubit
    count and state size run as stacks of at most 2**14 amplitudes: each point runs one
    forward pass per stack for the gaps and one adjoint (backward) pass for
    their exact gradients, chained to the coefficients through the
    generator's Vandermonde matrix.  ``budget`` caps the objective
    evaluations: a point counts one, its gradient 2 * len(theta), as many
    as central differences would spend.  A point whose gradient does not
    fit what is left uses up the budget; exhausting it stops the search and
    flags the result.
    """
    from scipy.optimize import minimize  # imported here: its import dominates startup

    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if init is None:
        init = GeneratorParams.ramp()
    degree_len = init.theta_beta.size
    # The stacks, each with its problems' training-set positions.  Problems
    # wait in a group per stack key (a half-basis n-variable and a full
    # (n-1)-variable polynomial share a state size, not a qubit count); a
    # group is stacked and let go as soon as it is full, so only one
    # stack's copy of cost tables is made at a time.
    stacks, groups = [], {}

    def build(group: list) -> None:
        positions, parts = zip(*group)
        stacks.append((list(positions), CompiledProblem.stack(list(parts))))
        group.clear()

    for position, problem in enumerate(train_set):
        compiled = CompiledProblem(kind, problem)
        group = groups.setdefault(compiled._stack_key(), [])
        group.append((position, compiled))
        if len(group) == max(1, _STACK_AMPLITUDES // compiled.costs.size):
            build(group)
    for group in groups.values():
        if group:
            build(group)
    if not stacks:
        raise ValueError("training set is empty")
    # Per-problem gaps and gradients, in training-set order.
    gaps = np.empty(sum(len(positions) for positions, _ in stacks))
    d_betas, d_gammas = np.empty((gaps.size, p)), np.empty((gaps.size, p))
    powers = _powers(p, degree_len)

    state = {"evals": 0, "best_value": np.inf, "best_theta": None, "exhausted": False}

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        if state["evals"] >= budget:
            state["exhausted"] = True
            raise _BudgetExhausted
        with_gradient = state["evals"] + 1 + 2 * theta.size <= budget
        gp = GeneratorParams(theta[:degree_len], theta[degree_len:])
        beta, gamma = expand_generator(gp, p)
        for part, stack in stacks:
            if with_gradient:
                gaps[part], d_betas[part], d_gammas[part] = stack.gap(beta, gamma, gradient=True)
            else:
                gaps[part] = stack.gap(beta, gamma)
        value = float(np.mean(gaps))
        state["evals"] += 1
        if value < state["best_value"]:
            state["best_value"] = value
            state["best_theta"] = theta.copy()
        if not with_gradient:
            state["evals"] = budget
            state["exhausted"] = True
            raise _BudgetExhausted
        state["evals"] += 2 * theta.size
        d_beta = np.mean(d_betas, axis=0)
        d_gamma = np.mean(d_gammas, axis=0)
        return value, np.concatenate([powers.T @ d_beta, powers.T @ d_gamma])

    rng = make_rng(seed)
    starts = [np.concatenate([init.theta_beta, init.theta_gamma])]
    for _ in range(random_restarts):
        starts.append(rng.uniform(-1.0, 1.0, 2 * degree_len))
    for theta0 in starts:
        try:
            minimize(objective, theta0, jac=True, method="L-BFGS-B", options={"maxiter": 200})
        except _BudgetExhausted:
            break
    theta = state["best_theta"]
    params = GeneratorParams(theta[:degree_len], theta[degree_len:])
    return TrainResult(
        params=params,
        objective=state["best_value"],
        evaluations=state["evals"],
        budget_exhausted=state["exhausted"],
    )


# ----------------------------------------------------------------------
# Layer accounting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LayerLedger:
    """CNOT-layer counts of one circuit family at a given depth.

    ``None`` entries mark constructions whose exact layer count is not
    available (the permutation mixer); asking such a ledger for a total
    raises :class:`LayerCountUnavailable`.
    """

    kind: str
    qubit_count: int
    state_prep_layers: int | None
    cost_layers_per_round: int
    mixer_layers_per_round: int | None
    depth: int

    @property
    def total_layers(self) -> int:
        if self.state_prep_layers is None or self.mixer_layers_per_round is None:
            raise LayerCountUnavailable(
                f"{self.kind}: total CNOT layers are not available without a full"
                " circuit construction"
            )
        return self.state_prep_layers + self.depth * (
            self.cost_layers_per_round + self.mixer_layers_per_round
        )


def layer_ledger(kind: str, problem, depth: int) -> LayerLedger:
    """CNOT-layer estimate for a circuit family.

    Tour encodings (``problem`` a TspInstance or the integer k): cost
    layers per round are 8k (qubo), 2k^3 (hobo), 6k (xy), 4k (perm); the xy
    state preparation needs 4*ceil(log2 k) layers and its mixer 8 layers
    plus 4 for the wrap pair when k is odd.  The permutation mixer's
    preparation and mixing counts are unavailable.

    Max-Cut (``kind="maxcut"``, ``problem`` a MaxCutInstance): each
    cost round needs two CNOT layers per edge-color class of the graph
    (one ZZ rotation per edge, classes at most max degree + 1); the
    single-qubit mixer contributes none.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if kind == "maxcut":
        if not isinstance(problem, MaxCutInstance):
            raise TypeError("maxcut ledger needs a MaxCutInstance")
        classes = len(set(edge_coloring(problem).values())) if problem.edges else 0
        return LayerLedger(
            kind="maxcut",
            qubit_count=problem.num_nodes,
            state_prep_layers=0,
            cost_layers_per_round=2 * classes,
            mixer_layers_per_round=0,
            depth=depth,
        )
    k = problem.k if isinstance(problem, TspInstance) else int(problem)
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    log_k = math.ceil(math.log2(k))
    if kind == "qubo":
        return LayerLedger("qubo", k * k, 0, 8 * k, 0, depth)
    if kind == "hobo":
        return LayerLedger("hobo", k * log_k, 0, 2 * k ** 3, 0, depth)
    if kind == "xy":
        mixer = 8 + (4 if k % 2 == 1 else 0)
        return LayerLedger("xy", k * k, 4 * log_k, 6 * k, mixer, depth)
    if kind == "perm":
        return LayerLedger("perm", k * k, None, 4 * k, None, depth)
    raise ValueError(f"unknown encoding kind {kind!r}")


def tts_layers(dist: OutputDistribution, ledger: LayerLedger,
               target: float = 0.99) -> float:
    """Expected CNOT layers until the optimum is sampled at the target confidence.

    total_layers * ceil(log(1 - target) / log(1 - p_star)); a certain hit
    costs exactly one shot, a zero hit probability costs infinity.
    """
    return float(_time_to_target(ledger.total_layers, dist.p_star, target))


def _time_to_target(per_try, p: float, target: float):
    """``per_try`` times the independent tries until a hit of probability ``p``
    at the target confidence: one try if ``p >= 1``, infinity if ``p <= 0``."""
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return per_try
    return per_try * max(1, math.ceil(math.log(1.0 - target) / math.log1p(-p)))


# ----------------------------------------------------------------------
# Edge coloring (Misra & Gries style, at most max degree + 1 classes)
# ----------------------------------------------------------------------

def edge_coloring(inst: MaxCutInstance) -> dict[tuple[int, int], int]:
    """Proper edge coloring with at most (max degree + 1) colors.

    Implements the fan-and-path recoloring construction behind Vizing's
    bound: color an uncolored edge by building a maximal fan, inverting an
    alternating two-color path, and rotating a fan prefix.  Colors are
    integers starting at 0; incident edges never share one.
    """
    adjacency: dict[int, list[int]] = {u: [] for u in range(inst.num_nodes)}
    for u, v, _ in inst.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    max_degree = max((len(a) for a in adjacency.values()), default=0)
    palette = max_degree + 1
    color: dict[tuple[int, int], int] = {}
    used: list[dict[int, int]] = [dict() for _ in range(inst.num_nodes)]

    def key(x: int, y: int) -> tuple[int, int]:
        return (x, y) if x < y else (y, x)

    def set_color(x: int, y: int, c: int) -> None:
        color[key(x, y)] = c
        used[x][c] = y
        used[y][c] = x

    def unset_color(x: int, y: int) -> None:
        c = color.pop(key(x, y))
        del used[x][c]
        del used[y][c]

    def free_color(x: int) -> int:
        for c in range(palette):
            if c not in used[x]:
                return c
        raise AssertionError("no free color within max degree + 1 palette")

    def invert_path(start: int, c: int, d: int) -> None:
        # Walk the unique path of edges alternately colored d, c, ... from
        # start and swap the two colors along it.
        current = start
        want = d
        path = []
        while want in used[current]:
            nxt = used[current][want]
            path.append((current, nxt, want))
            current = nxt
            want = c if want == d else d
        for x, y, _ in path:
            unset_color(x, y)
        for x, y, old in path:
            set_color(x, y, c if old == d else d)

    for u, v, _ in inst.edges:
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            extended = False
            for w in sorted(adjacency[u]):
                if w in in_fan or key(u, w) not in color:
                    continue
                if color[key(u, w)] not in used[last]:
                    fan.append(w)
                    in_fan.add(w)
                    extended = True
                    break
            if not extended:
                break
        c = free_color(u)
        d = free_color(fan[-1])
        if d in used[u]:
            invert_path(u, c, d)
        # Find the shortest fan prefix whose end has d free (the inversion
        # may have broken longer prefixes).
        target_index = None
        for i, w in enumerate(fan):
            if i > 0 and key(u, fan[i]) in color and color[key(u, fan[i])] in used[fan[i - 1]]:
                break
            if d not in used[w]:
                target_index = i
                break
        assert target_index is not None, "fan rotation target must exist"
        shifted = [color[key(u, fan[j + 1])] for j in range(target_index)]
        for j in range(target_index):
            unset_color(u, fan[j + 1])
        for j in range(target_index):
            set_color(u, fan[j], shifted[j])
        set_color(u, fan[target_index], d)
    return color
