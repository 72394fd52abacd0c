"""Reproducible problem instance generation and ingestion.

All generators are pure functions of (parameters, seed).  Randomness comes
from numpy's PCG64 generator seeded directly with the given integer, whose
stream is stable for a fixed numpy major version; repeated calls with the
same arguments return identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """Malformed instance file."""


def make_rng(seed: int | None) -> np.random.Generator:
    """Package-wide PRNG: PCG64 seeded directly with the given integer."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class MaxCutInstance:
    """Undirected weighted graph for the maximum-cut problem."""

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.num_nodes}")
        seen = set()
        for u, v, _ in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < v < self.num_nodes):
                raise ValueError(f"edge ({u},{v}) must satisfy 0 <= u < v < n")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.edges else 0


@dataclass
class TspInstance:
    """Travelling-salesperson instance on k + 1 fully connected locations."""

    distances: np.ndarray
    coordinates: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.distances = np.asarray(self.distances, dtype=np.float64)
        d = self.distances
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if d.shape[0] < 3:
            raise ValueError("need at least 3 locations")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(d < 0.0):
            raise ValueError("distances must be nonnegative")

    @property
    def num_locations(self) -> int:
        return self.distances.shape[0]

    @property
    def k(self) -> int:
        """Free locations once location 0 is fixed as the tour start."""
        return self.num_locations - 1

    def max_distance(self) -> float:
        return float(self.distances.max())


# ----------------------------------------------------------------------
# Max-Cut generators
# ----------------------------------------------------------------------

def gen_erdos_renyi(
    n: int,
    density: float = 0.5,
    seed: int | None = None,
    weights: str = "unit",
) -> MaxCutInstance:
    """Random graph: each unordered pair is an edge with probability ``density``.

    ``weights`` is "unit" (all 1.0) or "uniform" (iid uniform on [0, 1)).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if weights not in ("unit", "uniform"):
        raise ValueError(f"unknown weight law {weights!r}")
    rng = make_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < density
    chosen = [p for p, k in zip(pairs, keep) if k]
    if weights == "uniform":
        w = rng.random(len(chosen))
    else:
        w = np.ones(len(chosen))
    edges = tuple((u, v, float(wi)) for (u, v), wi in zip(chosen, w))
    meta = {"generator": "erdos_renyi", "n": n, "density": density,
            "weights": weights, "seed": seed}
    return MaxCutInstance(num_nodes=n, edges=edges, metadata=meta)


def gen_regular(n: int, degree: int = 3, seed: int | None = None) -> MaxCutInstance:
    """Random regular graph via the configuration model with rejection.

    Stubs are paired uniformly; pairings with loops or multi-edges are
    rejected and redrawn, which keeps the output simple and deterministic
    per seed.
    """
    if n * degree % 2 != 0:
        raise ValueError(f"n * degree must be even, got n={n}, degree={degree}")
    if n <= degree:
        raise ValueError(f"need n > degree, got n={n}, degree={degree}")
    rng = make_rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(100_000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(lo == hi):
            continue
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        order = np.argsort(keys, kind="stable")
        edges = tuple((int(lo[i]), int(hi[i]), 1.0) for i in order)
        meta = {"generator": "regular", "n": n, "degree": degree, "seed": seed}
        return MaxCutInstance(num_nodes=n, edges=edges, metadata=meta)
    raise RuntimeError("configuration model failed to produce a simple graph")


# ----------------------------------------------------------------------
# TSP generators
# ----------------------------------------------------------------------

def _euclidean(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def gen_tsp_circular(
    k_plus_1: int, sigma: float = 1.0, seed: int | None = None
) -> TspInstance:
    """Locations on the unit circle, each displaced by a random offset.

    Location i starts at angle 2*pi*i/(k+1); it is moved in a uniformly
    random direction by a distance drawn uniformly from
    [0, sigma * 2*pi/(k+1)].  sigma = 0 gives the exact regular polygon.
    """
    if k_plus_1 < 3:
        raise ValueError(f"need at least 3 locations, got {k_plus_1}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = make_rng(seed)
    base = 2.0 * np.pi * np.arange(k_plus_1) / k_plus_1
    coords = np.column_stack([np.cos(base), np.sin(base)])
    directions = rng.uniform(0.0, 2.0 * np.pi, k_plus_1)
    radii = rng.uniform(0.0, sigma * 2.0 * np.pi / k_plus_1, k_plus_1)
    coords = coords + radii[:, None] * np.column_stack(
        [np.cos(directions), np.sin(directions)]
    )
    meta = {"generator": "circular", "k_plus_1": k_plus_1, "sigma": sigma, "seed": seed}
    return TspInstance(distances=_euclidean(coords), coordinates=coords, metadata=meta)


def gen_tsp_planar(k_plus_1: int, seed: int | None = None) -> TspInstance:
    """Locations sampled iid uniformly on the unit square."""
    if k_plus_1 < 3:
        raise ValueError(f"need at least 3 locations, got {k_plus_1}")
    rng = make_rng(seed)
    coords = rng.random((k_plus_1, 2))
    meta = {"generator": "planar", "k_plus_1": k_plus_1, "seed": seed}
    return TspInstance(distances=_euclidean(coords), coordinates=coords, metadata=meta)


def nn_filter(inst: TspInstance, optimal_length: float) -> bool:
    """Keep an instance only if nearest-neighbour fails from every start.

    Returns True iff the greedy nearest-neighbour tour is strictly longer
    than ``optimal_length`` (beyond a 1e-9 slack) for every starting
    location.
    """
    from .solvers import nearest_neighbor_tsp

    for start in range(inst.num_locations):
        _, length = nearest_neighbor_tsp(inst, start=start)
        if length <= optimal_length + 1e-9:
            return False
    return True


# ----------------------------------------------------------------------
# File ingestion
# ----------------------------------------------------------------------

def read_edge_list(path: str | Path) -> MaxCutInstance:
    """Parse a weighted edge-list file.

    Format: a header line "n m", then m lines "u v w" with 1-based node
    indices and a float weight, whitespace separated.  Blank lines are
    ignored.
    """
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"{path}: header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"{path}: header promises {m} edges, file has {len(body)}")
    edges = []
    for lineno, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'u v w', got {ln!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: malformed edge line {ln!r}") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"{path}:{lineno}: node index out of range 1..{n}")
        if u == v:
            raise ParseError(f"{path}:{lineno}: self-loop on node {u}")
        a, b = sorted((u - 1, v - 1))
        edges.append((a, b, w))
    meta = {"generator": "edge_list", "path": str(path), "n": n, "m": m}
    try:
        return MaxCutInstance(num_nodes=n, edges=tuple(edges), metadata=meta)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_edge_list(inst: MaxCutInstance, path: str | Path) -> None:
    """Inverse of :func:`read_edge_list` (1-based indices)."""
    path = Path(path)
    lines = [f"{inst.num_nodes} {inst.num_edges}"]
    for u, v, w in inst.edges:
        lines.append(f"{u + 1} {v + 1} {w!r}")
    path.write_text("\n".join(lines) + "\n")
