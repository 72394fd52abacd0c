"""Binary optimization models shared by every solver.

Cost functions are sparse multilinear polynomials over variables
x_i in {0, 1}: degree <= 2 covers QUBO objectives, arbitrary degree covers
higher-order (HOBO) objectives.  The equivalent spin form substitutes
s_i = 1 - 2 x_i with s_i in {-1, +1}.

Bitstring convention, fixed once here and used package-wide: a bitstring is
a str of '0'/'1' characters where position i holds variable i.  Variable 0
sits at the least significant bit of the canonical integer encoding, i.e.
basis index b = sum_i x_i * 2**i.  Simulators, file emitters and the
exhaustive oracle all follow this layout.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

# Default largest variable count that ``argmin_exhaustive`` enumerates.
ORACLE_CAP = 26


class DimensionError(ValueError):
    """Assignment or sample-set length does not match the model."""


class DegreeError(ValueError):
    """Operation requires a lower polynomial degree than the model has."""


class SizeCapError(ValueError):
    """Problem exceeds the configured exhaustive/simulation size cap."""


def _as_bits(x: str | Sequence[int] | np.ndarray, num_vars: int) -> np.ndarray:
    """Validate an assignment and return it as a uint8 array of 0/1."""
    if isinstance(x, str):
        if len(x) != num_vars:
            raise DimensionError(
                f"assignment has length {len(x)}, model has {num_vars} variables"
            )
        bits = np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
        if not np.all(bits <= 1):
            raise ValueError(f"bitstring must contain only '0'/'1': {x!r}")
        return bits
    bits = np.asarray(x, dtype=np.uint8)
    if bits.ndim != 1 or bits.size != num_vars:
        raise DimensionError(
            f"assignment has length {bits.size}, model has {num_vars} variables"
        )
    if not np.all(bits <= 1):
        raise ValueError("assignment entries must be 0 or 1")
    return bits


def index_to_bitstring(index: int, num_vars: int) -> str:
    """Bitstring of a canonical basis index (variable 0 = least significant bit)."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(num_vars))


def fill_by_doubling(block: np.ndarray, base, field: np.ndarray, pairs: np.ndarray,
                     combine=np.add) -> None:
    """Fill the 2^width entries of ``block`` from a quadratic form over its bits.

    block[0] = base; then, for each bit k, block[2^k : 2^(k+1)] is
    block[:2^k] combined with field[k] and with pairs[j, k] for each set bit
    j < k, that bracket itself built by doubling inside its destination
    half: O(2^width) ``combine`` operations and no scratch.  With ``np.add``
    and a polynomial's terms this is its cost table; with ``np.multiply``
    and the terms' phases exp(-i gamma c), its cost phase exp(-i gamma C).
    """
    block[0] = base
    for k in range(block.size.bit_length() - 1):
        half = block[1 << k:2 << k]
        half[0] = field[k]
        for j in range(k):
            combine(half[:1 << j], pairs[j, k], out=half[1 << j:2 << j])
        combine(half, block[:1 << k], out=half)


class BinaryPolynomial:
    """Sparse multilinear polynomial over binary variables.

    C(x) = sum over terms of coeff * prod_{i in term} x_i, with the empty
    term holding the constant.  Index tuples are sorted and deduplicated at
    construction (x_i^2 = x_i), zero coefficients are dropped.

    A polynomial is immutable, so the arrays derived from its terms are built
    once, at first use, and kept read-only in ``_derived`` for every caller.
    """

    __slots__ = ("num_vars", "terms", "_derived")

    def __init__(
        self, num_vars: int, terms: Mapping[tuple[int, ...] | Iterable[int], float] | None = None
    ) -> None:
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        self.num_vars = int(num_vars)
        normalized: dict[tuple[int, ...], float] = {}
        for key, coeff in (terms or {}).items():
            idx = tuple(sorted(set(int(i) for i in key)))
            for i in idx:
                if not 0 <= i < self.num_vars:
                    raise ValueError(f"variable index {i} out of range [0, {self.num_vars})")
            normalized[idx] = normalized.get(idx, 0.0) + float(coeff)
        self.terms: dict[tuple[int, ...], float] = {
            k: v for k, v in normalized.items() if v != 0.0
        }
        self._derived: dict = {}

    @property
    def degree(self) -> int:
        return max((len(t) for t in self.terms), default=0)

    @property
    def constant(self) -> float:
        return self.terms.get((), 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self) -> str:
        return f"BinaryPolynomial(num_vars={self.num_vars}, terms={len(self.terms)})"

    def evaluate(self, x: str | Sequence[int] | np.ndarray) -> float:
        """Cost of one assignment: sum of coeff * prod of selected bits."""
        bits = _as_bits(x, self.num_vars)
        total = 0.0
        for term, coeff in self.terms.items():
            if all(bits[i] for i in term):
                total += coeff
        return total

    def terms_by_degree(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Terms grouped by degree as ``{degree: (positions, variables, coeffs)}``.

        ``positions`` are the terms' places in ``terms`` order, ``variables``
        is a (count, degree) index array and ``coeffs`` holds the coefficients.
        Built once per polynomial; the arrays are read-only.
        """
        if "by_degree" in self._derived:
            return self._derived["by_degree"]
        count = len(self.terms)
        coeffs = np.fromiter(self.terms.values(), dtype=np.float64, count=count)
        degrees = np.fromiter(map(len, self.terms), dtype=np.intp, count=count)
        ends = np.cumsum(degrees)
        flat = np.fromiter(itertools.chain.from_iterable(self.terms), dtype=np.intp,
                           count=int(ends[-1]) if count else 0)
        groups = {}
        for degree in np.flatnonzero(np.bincount(degrees)).tolist():
            positions = np.flatnonzero(degrees == degree)
            variables = flat[(ends[positions] - degree)[:, None] + np.arange(degree)]
            groups[degree] = (positions, variables, coeffs[positions])
            for array in groups[degree]:
                array.flags.writeable = False
        self._derived["by_degree"] = groups
        return groups

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of a (num_samples, num_vars) 0/1 array.

        Each row's satisfied coefficients are summed in term order from 0.0,
        exactly as :meth:`evaluate` sums them, so the costs agree bit for bit.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.num_vars:
            raise DimensionError(
                f"batch shape {X.shape} does not match {self.num_vars} variables"
            )
        groups = self.terms_by_degree().values()
        width = len(self.terms) + 1
        costs = np.empty(X.shape[0])
        # Column 0 is the 0.0 that evaluate() starts from; rows are chunked
        # to bound the (rows, terms) contribution matrix.
        chunk = max(1, (1 << 20) // width)
        for start in range(0, X.shape[0], chunk):
            rows = X[start:start + chunk]
            parts = np.zeros((rows.shape[0], width))
            for positions, variables, coeffs in groups:
                satisfied = rows[:, variables].all(axis=2)
                parts[:, positions + 1] = np.where(satisfied, coeffs, 0.0)
            costs[start:start + chunk] = np.add.accumulate(parts, axis=1)[:, -1]
        return costs

    def quadratic_form(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense ``(linear, coupling)`` arrays of a polynomial of degree <= 2.

        ``linear[i]`` is the coefficient of x_i.  The symmetric ``coupling``
        has a zero diagonal and holds the coefficient of x_i x_j at both
        (i, j) and (j, i), so the local field of variable i is
        linear[i] + coupling[i] @ x.  Built once per polynomial; both arrays
        are read-only.
        """
        if "quadratic_form" in self._derived:
            return self._derived["quadratic_form"]
        if self.degree > 2:
            raise DegreeError(f"dense form requires degree <= 2, model has degree {self.degree}")
        n = self.num_vars
        linear, coupling = np.zeros(n), np.zeros((n, n))
        for degree, (_, variables, coeffs) in self.terms_by_degree().items():
            if degree == 1:
                linear[variables[:, 0]] = coeffs
            elif degree == 2:
                i, j = variables.T
                coupling[i, j] = coupling[j, i] = coeffs
        linear.flags.writeable = coupling.flags.writeable = False
        self._derived["quadratic_form"] = (linear, coupling)
        return linear, coupling

    def neighbors(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """For each variable i, the ``(j, coupling[i, j])`` pairs of its nonzero
        couplings in j order, read from :meth:`quadratic_form`.  Built once per
        polynomial."""
        if "neighbors" not in self._derived:
            coupling = self.quadratic_form()[1]
            rows, cols = np.nonzero(coupling)
            pairs = list(zip(cols.tolist(), coupling[rows, cols].tolist()))
            bounds = np.searchsorted(rows, np.arange(self.num_vars + 1)).tolist()
            self._derived["neighbors"] = tuple(tuple(pairs[lo:hi])
                                               for lo, hi in zip(bounds, bounds[1:]))
        return self._derived["neighbors"]

    def _fills_by_doubling(self) -> bool:
        """Whether every partial sum of every cost is an exact integer.

        True for degree <= 2 with integer coefficients, the constant included,
        whose absolute values sum below 2**53: then any order of the sums
        gives the term-order cost bit for bit.  Decided once per polynomial.
        """
        if "doubling" not in self._derived:
            coeffs = self.terms.values()
            self._derived["doubling"] = (
                self.degree <= 2 and all(c.is_integer() for c in coeffs)
                and sum(abs(int(c)) for c in coeffs) < 1 << 53)
        return self._derived["doubling"]

    def _double_fill(self, block: np.ndarray, pos: int) -> None:
        """Write the costs of the aligned block of states starting at ``pos``.

        The bits of ``pos`` above the block are fixed: their constant and
        their fields on the block's bits are added once, and
        ``fill_by_doubling`` adds the rest, so the fill takes O(2^width) adds
        and no scratch.
        """
        linear, coupling = self.quadratic_form()
        width = block.size.bit_length() - 1
        n = self.num_vars
        fixed = np.fromiter((pos >> i & 1 for i in range(n)), np.float64, n)
        fill_by_doubling(block, self.constant + fixed @ (linear + np.tril(coupling, -1) @ fixed),
                         linear[:width] + coupling[:width] @ fixed, coupling)

    def cost_vector(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Costs of all basis states in [start, stop), indexed canonically.

        Raises ValueError unless 0 <= start <= stop <= 2**num_vars.  The range
        is filled by aligned power-of-two blocks.  A polynomial of degree <= 2
        whose coefficients, the constant included, are integers with absolute
        values summing below 2**53 fills each block by doubling, in O(2^n)
        adds: every partial sum is then an exact integer, so the table is bit
        for bit the term-order one.  Any other polynomial adds each term whose
        bits above the block are set, in term order, to the strided view where
        its bits within the block are 1, in O(terms * 2^n) adds; either way any
        range gives the same sums.
        """
        size = 1 << self.num_vars
        if stop is None:
            stop = size
        if not 0 <= start <= stop <= size:
            raise ValueError(f"state range [{start}, {stop}) needs 0 <= start <= stop <= {size}")
        doubling = self._fills_by_doubling()
        costs = np.empty(stop - start) if doubling else np.full(stop - start, self.constant)
        pos = start
        while pos < stop:
            width = (stop - pos).bit_length() - 1
            while pos % (1 << width):
                width -= 1
            block = costs[pos - start:pos - start + (1 << width)]
            if doubling:
                self._double_fill(block, pos)
            else:
                bits = block.reshape((2,) * width).T
                for term, coeff in self.terms.items():  # axis i of ``bits`` is bit i
                    if term and all(pos >> i & 1 for i in term if i >= width):
                        view = bits[(*(1 if i in term else slice(None) for i in range(width)), ...)]
                        view += coeff
            pos += 1 << width
        return costs

    def argmin_exhaustive(self, cap: int = ORACLE_CAP) -> tuple[str, float]:
        """Globally minimal assignment by full enumeration.

        Ties are broken by lexicographically smallest bitstring (exact float
        cost ties only).  Raises SizeCapError above ``cap`` variables.  The
        costs come from ``cost_vector`` in 2^20-state chunks: O(2^n) adds for
        a degree <= 2 polynomial with integer coefficients whose absolute
        values sum below 2**53, which fills by doubling, and O(terms * 2^n)
        adds for any other.
        """
        n = self.num_vars
        if n > cap:
            raise SizeCapError(f"{n} variables exceeds exhaustive cap {cap}")
        if n == 0:
            return "", self.constant
        best_cost = np.inf
        best_key = None  # lexicographic comparison key (bit-reversed index)
        best_index = 0
        chunk = 1 << 20
        for start in range(0, 1 << n, chunk):
            stop = min(start + chunk, 1 << n)
            costs = self.cost_vector(start, stop)
            cmin = costs.min()
            if cmin > best_cost:
                continue
            tied = np.flatnonzero(costs == cmin).astype(np.uint64) + np.uint64(start)
            keys = _lexicographic_keys(tied, n)
            pick = int(np.argmin(keys))
            if cmin < best_cost or (best_key is None or keys[pick] < best_key):
                best_cost = cmin
                best_key = keys[pick]
                best_index = int(tied[pick])
        return index_to_bitstring(best_index, n), float(best_cost)

    def to_ising(self) -> "IsingModel":
        """Spin form under s_i = 1 - 2 x_i; exact including the offset."""
        if self.degree > 2:
            raise DegreeError(
                f"spin conversion requires degree <= 2, model has degree {self.degree}"
            )
        n = self.num_vars
        h = np.zeros(n)
        quadratic: dict[tuple[int, int], float] = {}
        offset = self.constant
        for term, coeff in self.terms.items():
            if len(term) == 1:
                # a * x = a/2 - (a/2) s
                offset += coeff / 2.0
                h[term[0]] -= coeff / 2.0
            elif len(term) == 2:
                # b * x_i x_j = b/4 (1 - s_i - s_j + s_i s_j)
                i, j = term
                offset += coeff / 4.0
                h[i] -= coeff / 4.0
                h[j] -= coeff / 4.0
                quadratic[(i, j)] = quadratic.get((i, j), 0.0) + coeff / 4.0
        quadratic = {k: v for k, v in quadratic.items() if v != 0.0}
        return IsingModel(num_spins=n, linear=h, quadratic=quadratic, offset=offset)


def _lexicographic_keys(indices: np.ndarray, n: int) -> np.ndarray:
    """Bit-reversed indices; ordering them orders bitstrings lexicographically."""
    keys = np.zeros_like(indices)
    for i in range(n):
        keys |= ((indices >> np.uint64(i)) & np.uint64(1)) << np.uint64(n - 1 - i)
    return keys


@dataclass
class IsingModel:
    """Spin model E(s) = offset + sum h_i s_i + sum_{i<j} J_ij s_i s_j."""

    num_spins: int
    linear: np.ndarray
    quadratic: dict[tuple[int, int], float]
    offset: float = 0.0

    def __post_init__(self) -> None:
        self.linear = np.asarray(self.linear, dtype=np.float64)
        if self.linear.shape != (self.num_spins,):
            raise DimensionError(
                f"linear field has shape {self.linear.shape}, expected ({self.num_spins},)"
            )
        for i, j in self.quadratic:
            if not (0 <= i < j < self.num_spins):
                raise ValueError(f"coupling key ({i},{j}) must satisfy 0 <= i < j < n")

    def energy(self, spins: Sequence[int] | np.ndarray) -> float:
        s = np.asarray(spins, dtype=np.float64)
        if s.shape != (self.num_spins,):
            raise DimensionError(f"spin vector has shape {s.shape}")
        e = self.offset + float(self.linear @ s)
        for (i, j), coupling in self.quadratic.items():
            e += coupling * s[i] * s[j]
        return e

    def energy_of_bits(self, x: str | Sequence[int] | np.ndarray) -> float:
        bits = _as_bits(x, self.num_spins)
        return self.energy(1.0 - 2.0 * bits.astype(np.float64))

    def to_polynomial(self) -> BinaryPolynomial:
        """Inverse substitution s_i = 1 - 2 x_i; exact."""
        terms: dict[tuple[int, ...], float] = {(): self.offset}
        for i, hi in enumerate(self.linear):
            if hi != 0.0:
                terms[()] = terms.get((), 0.0) + hi
                terms[(i,)] = terms.get((i,), 0.0) - 2.0 * hi
        for (i, j), coupling in self.quadratic.items():
            terms[()] = terms.get((), 0.0) + coupling
            terms[(i,)] = terms.get((i,), 0.0) - 2.0 * coupling
            terms[(j,)] = terms.get((j,), 0.0) - 2.0 * coupling
            terms[(i, j)] = terms.get((i, j), 0.0) + 4.0 * coupling
        return BinaryPolynomial(self.num_spins, terms)


@dataclass(frozen=True)
class Timing:
    """Wall-clock split of one solver call, all components in seconds."""

    preprocess: float = 0.0
    solve: float = 0.0
    postprocess: float = 0.0

    def __post_init__(self) -> None:
        for name in ("preprocess", "solve", "postprocess"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"timing component {name} must be >= 0")


@dataclass
class SampleSet:
    """Multiset of sampled bitstrings with per-string costs and timing.

    ``samples`` maps each distinct bitstring to its draw count; ``costs``
    carries the model cost of each distinct bitstring.  The empty set is
    the identity of ``merge``.
    """

    num_vars: int
    samples: dict[str, int] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    timing: Timing = field(default_factory=Timing)
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for x, count in self.samples.items():
            if len(x) != self.num_vars:
                raise DimensionError(f"sample {x!r} does not have {self.num_vars} bits")
            if count < 1:
                raise ValueError(f"sample count must be >= 1, got {count} for {x!r}")
            if x not in self.costs:
                raise ValueError(f"sample {x!r} has no recorded cost")

    @classmethod
    def empty(cls, num_vars: int) -> "SampleSet":
        return cls(num_vars=num_vars)

    @classmethod
    def from_draws(
        cls,
        num_vars: int,
        draws: Iterable[tuple[str, float]],
        timing: Timing = Timing(),
        info: dict | None = None,
    ) -> "SampleSet":
        samples: dict[str, int] = {}
        costs: dict[str, float] = {}
        for x, cost in draws:
            samples[x] = samples.get(x, 0) + 1
            costs[x] = float(cost)
        return cls(num_vars=num_vars, samples=samples, costs=costs,
                   timing=timing, info=dict(info or {}))

    @property
    def total_draws(self) -> int:
        return sum(self.samples.values())

    def items(self) -> Iterable[tuple[str, int, float]]:
        for x, count in self.samples.items():
            yield x, count, self.costs[x]

    def best(self) -> tuple[str, float]:
        if not self.samples:
            raise ValueError("empty sample set has no best sample")
        x = min(self.samples, key=lambda s: (self.costs[s], s))
        return x, self.costs[x]

    def expected_cost(self) -> float:
        m = self.total_draws
        if m == 0:
            raise ValueError("empty sample set has no expectation")
        return sum(count * self.costs[x] for x, count in self.samples.items()) / m


def merge(first: SampleSet, *others: SampleSet) -> SampleSet:
    """Pool sample sets of the same model in one pass.

    As in merging them two at a time from the left, counts add per bitstring
    in order of first appearance, each bitstring keeps the first cost seen (a
    later one more than 1e-9 away is an error) and the earliest set wins a
    clashing ``info`` key.  All three timing phases add up: no call's work is
    cached for another.
    """
    sets = (first, *others)
    samples, costs = dict(first.samples), dict(first.costs)
    for other in others:
        if other.num_vars != first.num_vars:
            raise DimensionError(f"cannot merge sample sets over {first.num_vars} and "
                                 f"{other.num_vars} variables")
        for x, count in other.samples.items():
            samples[x] = samples.get(x, 0) + count
            if abs(costs.setdefault(x, other.costs[x]) - other.costs[x]) > 1e-9:
                raise ValueError(f"cost mismatch for {x!r}: {costs[x]} vs {other.costs[x]}")
    info = {key: value for sample in reversed(sets) for key, value in sample.info.items()}
    timing = Timing(*(sum(getattr(s.timing, phase) for s in sets)
                      for phase in ("preprocess", "solve", "postprocess")))
    return SampleSet(num_vars=first.num_vars, samples=samples, costs=costs,
                     timing=timing, info=info)


class Stopwatch:
    """Monotonic wall-clock helper for timing solver phases."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed = now - self._t0
        self._t0 = now
        return elapsed
