"""Experiment orchestration: configs, protocols, persistence, reports.

Two scenario protocols are provided.  ``tts`` draws a fixed number of
reads per solver, estimates the optimal-sampling probability against the
exhaustive oracle (exactly for simulated circuits) and reports
time-to-solution.  ``bsf`` repeats solver calls until a wall-clock budget
expires, pools the best cost found across the roster and reports relative
errors and the fraction-of-overall-best.

Records serialize as JSON lines with infinities encoded as the token
"inf"; reports add per-group tables (median with a 12.5..87.5 percentile
interval) and two-column plot data files.
"""

from __future__ import annotations

import configparser
import glob
import hashlib
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .formulations import maxcut_qubo
from .instances import (
    MaxCutInstance,
    TspInstance,
    _euclidean,
    gen_erdos_renyi,
    gen_regular,
    gen_tsp_circular,
    gen_tsp_planar,
    read_edge_list,
    write_edge_list,
)
from .metrics import (MetricContext, approximation_ratio, bsf_relative, equal_frequency_bins,
                      fob, pareto_front, tts, tts_oh)
from .model import ORACLE_CAP, BinaryPolynomial, SampleSet, SizeCapError, Stopwatch, Timing, merge
from .qaoa import (
    CompiledProblem,
    GeneratorParams,
    expand_generator,
    layer_ledger,
    qaoa_qubo_simulate,
    tts_layers,
)
from .solvers import (
    SaConfig,
    TsConfig,
    goemans_williamson,
    local_search_maxcut,
    simulated_annealing,
    tabu_search,
    tsp_exhaustive,
)

SECONDS_PER_CNOT_LAYER = 1e-6


class ConfigError(ValueError):
    """Bad experiment configuration or input file (maps to CLI exit code 1)."""


_floats = partial(np.asarray, dtype=np.float64)

# Every parameter of each solver kind and its type.  The defaults live in
# the solvers, and for qaoa in ``_qaoa_metrics``.
SOLVER_PARAMS = {
    "sa": {"reads": int, "sweeps": int, "t0": float, "alpha": float, "kb": float},
    "ts": {"restarts": int, "iterations": int, "tenure": int},
    "ls": {"restarts": int},
    "gw": {"hyperplanes": int, "tol": float, "patience": int, "max_sweeps": int},
    "exhaustive": {"cap": int},
    "qaoa": {"p": int, "theta_beta": _floats, "theta_gamma": _floats,
             "seconds_per_layer": float},
}

# Every [experiment] key, the ExperimentConfig field it sets and its type.
# The defaults live in the dataclass.
EXPERIMENT_KEYS = {"scenario": ("scenario", str), "seed": ("seed", int),
                   "time_limit": ("time_limit", float), "oracle_cap": ("oracle_cap", int),
                   "groups": ("num_groups", int), "output": ("output_dir", Path),
                   "jobs": ("jobs", int)}

# Each generated instance kind, its generator and the [instances] keys that
# the generator reads, with their types.  The defaults live in the generators.
INSTANCE_KINDS = {"regular": (gen_regular, {"degree": int}),
                  "erdos_renyi": (gen_erdos_renyi, {"density": float, "weights": str}),
                  "tsp_circular": (gen_tsp_circular, {"sigma": float}),
                  "tsp_planar": (gen_tsp_planar, {})}

# Every [instances] key and its type: the dataset's (``count`` is 10 unless
# given), each generator's, and the ``glob`` of ``kind = files``.
INSTANCE_KEYS = {"kind": str, "sizes": list, "count": int,
                 **{key: cast for _, keys in INSTANCE_KINDS.values() for key, cast in keys.items()},
                 "glob": str}


# ----------------------------------------------------------------------
# Identities and seeds
# ----------------------------------------------------------------------

def _stable_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instance_hash(inst: MaxCutInstance | TspInstance) -> str:
    if isinstance(inst, MaxCutInstance):
        body = f"maxcut;{inst.num_nodes};" + ";".join(
            f"{u},{v},{w!r}" for u, v, w in inst.edges
        )
    else:
        body = f"tsp;{inst.num_locations};" + ";".join(
            repr(x) for x in inst.distances.ravel()
        )
    return _stable_hash(body)[:16]


def _instance_size(inst: MaxCutInstance | TspInstance) -> int:
    return inst.num_nodes if isinstance(inst, MaxCutInstance) else inst.num_locations


def instance_id(inst: MaxCutInstance | TspInstance) -> str:
    meta = inst.metadata
    label = meta.get("label")
    if label:
        return str(label)
    kind = meta.get("generator", "unknown")
    return f"{kind}-n{_instance_size(inst)}-{instance_hash(inst)[:8]}"


def config_hash(params: dict) -> str:
    return _stable_hash(json.dumps(params, sort_keys=True, default=str))[:16]


def derive_seed(master_seed: int, *keys) -> int:
    """Deterministic per-task seed from the master seed and context keys."""
    text = f"{master_seed}|" + "|".join(str(k) for k in keys)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass
class SolverSpec:
    """A roster entry.  ``params`` stay as given (they define the records'
    ``config_hash``); ``kwargs`` holds them cast by ``SOLVER_PARAMS``."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    kwargs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        types = SOLVER_PARAMS.get(self.kind)
        if types is None:
            raise ConfigError(f"unknown solver kind {self.kind!r}")
        for key in self.params:
            if key not in types:
                raise ConfigError(f"solver {self.name!r} of kind {self.kind} has no parameter "
                                  f"{key!r} (it takes {', '.join(types)})")
        self.kwargs = {key: _number(f"{key} of solver {self.name!r}", value, types[key])
                       for key, value in self.params.items()}


@dataclass(kw_only=True)
class ExperimentConfig:
    scenario: str = "tts"
    solvers: list[SolverSpec]
    instances: list
    seed: int = 0
    time_limit: float = 10.0
    oracle_cap: int = ORACLE_CAP
    num_groups: int | None = None
    output_dir: Path | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.scenario not in ("tts", "bsf"):
            raise ConfigError(f"scenario must be 'tts' or 'bsf', got {self.scenario!r}")
        if not self.solvers:
            raise ConfigError("solver roster is empty")
        if self.scenario == "bsf" and not 0.0 < self.time_limit < math.inf:
            raise ConfigError(f"bsf scenarios need 0 < time_limit < inf, got {self.time_limit!r}")
        circuits = [s.name for s in self.solvers if s.kind == "qaoa"]
        if self.scenario == "bsf" and circuits:
            raise ConfigError(f"solver {circuits[0]!r} of kind qaoa is not a sampling solver, "
                              "and bsf rosters repeat sampling solver calls")
        names = [s.name for s in self.solvers]
        if len(set(names)) != len(names):
            raise ConfigError("solver names must be unique")
        if self.num_groups is not None and self.num_groups < 1:
            raise ConfigError(f"groups must be >= 1, got {self.num_groups}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        cores = _usable_cores()
        if self.jobs > cores:  # more workers than cores stretch every solver's clock
            raise ConfigError(f"jobs = {self.jobs} exceeds the {cores} usable cores")


def _usable_cores() -> int:
    """The cores this process may run on: its affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_list(text: str) -> list:
    return [_parse_scalar(part.strip()) for part in text.split(",") if part.strip()]


def _parse_grid(kind: str, key: str, text: str) -> list:
    """The cells of a ``[grid:*]`` value: comma lists separated by ``|`` for a
    list-of-floats parameter (``;`` starts a comment), else comma-separated."""
    if SOLVER_PARAMS.get(kind, {}).get(key) is _floats:
        return [_parse_list(cell) for cell in text.split("|") if cell.strip()]
    return _parse_list(text)


def _number(key: str, value, cast=int):
    """``cast(value)`` for the config key ``key``; a malformed value is a config error,
    and so are a bool, where an integer is due a fractional or infinite float, and
    a non-finite float or list entry."""
    try:
        if isinstance(value, bool) or cast is int and isinstance(value, float) and value % 1:
            raise ValueError
        number = cast(value)
    except (TypeError, ValueError):
        kind = {int: "an integer", float: "a number"}.get(cast, "a list of numbers")
        raise ConfigError(f"{key} must be {kind}, got {value!r}") from None
    if cast is not int and not np.isfinite(number).all():
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _known_keys(section: str, keys: Iterable[str], known: Iterable[str]) -> None:
    """A key of the ``[section]`` section that nothing reads is a config error."""
    for key in keys:
        if key not in known:
            raise ConfigError(f"[{section}] section has no key {key!r} "
                              f"(it takes {', '.join(known)})")


def _cast(key: str, value, cast):
    """``value`` of the config key ``key`` as ``cast``; an empty path is None."""
    if cast is Path:
        return Path(value) if value else None
    return value if cast is str else _number(key, value, cast)


def load_config(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        loaded = parser.read(path)
        for section in parser.values():
            dict(section)  # a bad % interpolation raises here, not at first use
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {type(exc).__name__}: {exc}") from None
    if not loaded:
        raise ConfigError(f"config file {path} not found")
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"config file {path} has a [DEFAULT] section "
                          f"({', '.join(parser.defaults())}); write each key in its own section")
    return parser


def build_instances(section: dict, master_seed: int) -> list:
    """Materialize the instance dataset described by an [instances] section."""
    _known_keys("instances", section, INSTANCE_KEYS)
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("[instances] section needs a 'kind' key")
    if kind == "files":
        pattern = section.get("glob")
        if not pattern:
            raise ConfigError("instances kind 'files' needs a 'glob' key")
        # generate writes a graph as an edge list, a tour as JSON and a
        # manifest of their hashes; oracle may write its table next to them.
        # Folders the glob matches are not instances.
        paths = [p for p in map(Path, sorted(glob.glob(pattern, recursive=True)))
                 if p.is_file() and p.name not in ("manifest.json", "oracle.jsonl")]
        if not paths:
            raise ConfigError(f"no instance files match {pattern!r}")
        listed = {folder: _manifest_hashes(folder) for folder in {p.parent for p in paths}}
        out = []
        for p in paths:
            try:
                inst = (instance_from_dict(json.loads(p.read_text())) if p.suffix == ".json"
                        else read_edge_list(p))
            except (ValueError, TypeError, KeyError) as exc:  # ParseError and JSON's too
                raise ConfigError(f"malformed instance file {p}: "
                                  f"{type(exc).__name__}: {exc}") from None
            expected = listed[p.parent].get(p.name)
            if expected is not None and instance_hash(inst) != expected:
                raise ConfigError(f"instance file {p} has hash {instance_hash(inst)}, "
                                  f"but its manifest lists {expected}")
            inst.metadata["label"] = p.stem
            out.append(inst)
        return _unique_ids(out, paths)
    sizes = section.get("sizes")
    if sizes is None:
        raise ConfigError("[instances] section needs a 'sizes' key")
    sizes = _parse_list(sizes) if isinstance(sizes, str) else list(sizes)
    count = _number("count", section.get("count", 10))
    nodes = [_number("sizes", size) for size in sizes]
    out = []
    try:
        if kind not in INSTANCE_KINDS:
            raise ConfigError(f"unknown instance kind {kind!r}")
        generator, types = INSTANCE_KINDS[kind]
        settings = {key: _cast(key, section[key], cast)
                    for key, cast in types.items() if key in section}
        for size, n in zip(sizes, nodes):  # a size as written names its seeds and labels
            for index in range(count):
                inst = generator(n, seed=derive_seed(master_seed, "instance", kind, size, index),
                                 **settings)
                inst.metadata["label"] = f"{kind}-n{size}-{index:03d}"
                out.append(inst)
    except ValueError as exc:  # a malformed value or one out of the generator's range
        raise ConfigError(f"[instances] section: {exc}") from None
    if not out:
        raise ConfigError(f"[instances] section yields no instances "
                          f"(sizes = {sizes}, count = {count})")
    return _unique_ids(out, [f"sizes entry {i} = {size}" for i, size in enumerate(sizes, 1)
                             for _ in range(count)])


def _unique_ids(instances: list, sources: list) -> list:
    """``instances``, unless two share an id, from which seeds and groups
    derive; ``sources``, all distinct, name where each instance came from."""
    first = {}
    for inst, source in zip(instances, sources):
        iid = instance_id(inst)
        if first.setdefault(iid, source) != source:
            raise ConfigError(f"instance id {iid!r} names two instances"
                              f" ({first[iid]} and {source}); ids must be unique")
    return instances


def _manifest_hashes(folder: Path) -> dict[str, str]:
    """File name -> instance hash as the ``manifest.json`` in ``folder`` lists
    them (``generate`` writes it); empty where there is no manifest."""
    manifest = folder / "manifest.json"
    if not manifest.is_file():
        return {}
    try:
        return {row["file"]: row["hash"] for row in json.loads(manifest.read_text())}
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{manifest} is not an instance manifest: "
                          f"{type(exc).__name__}: {exc}") from None


def _config_instances(parser: configparser.ConfigParser,
                      overrides: dict | None = None) -> tuple[dict, list]:
    """The ExperimentConfig fields, from the CLI ``overrides`` that are not None,
    else the [experiment] keys, else the dataclass defaults, and the [instances]
    dataset at their seed; a key that nothing reads is a config error."""
    if "instances" not in parser:
        raise ConfigError("config needs an [instances] section")
    given = dict(parser["experiment"]) if "experiment" in parser else {}
    given.update({key: value for key, value in (overrides or {}).items() if value is not None})
    _known_keys("experiment", given, EXPERIMENT_KEYS)
    settings = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
    for key, (name, cast) in EXPERIMENT_KEYS.items():
        if key in given:
            settings[name] = _cast(key, given[key], cast)
    return settings, build_instances(dict(parser["instances"]), settings["seed"])


def parse_experiment(parser: configparser.ConfigParser,
                     overrides: dict | None = None) -> ExperimentConfig:
    if "experiment" not in parser:
        raise ConfigError("config needs an [experiment] section")
    solvers = []
    for name in [name for name in parser.sections() if name.startswith("solver:")]:
        body = dict(parser[name])
        kind = body.pop("kind", name.split(":", 1)[1])
        params = {k: _parse_list(v) if "," in v else _parse_scalar(v) for k, v in body.items()}
        solvers.append(SolverSpec(name=name.split(":", 1)[1], kind=kind, params=params))
    settings, instances = _config_instances(parser, overrides)
    return ExperimentConfig(solvers=solvers, instances=instances, **settings)


def parse_grids(parser: configparser.ConfigParser,
                solvers: Sequence[SolverSpec]) -> dict[str, dict[str, list]]:
    """Solver name -> parameter -> values of each [grid:<solver>] section, every
    value checked as a setting of its solver of ``solvers`` before any runs."""
    kinds = {spec.name: spec.kind for spec in solvers}
    grids = {}
    for section in [name for name in parser.sections() if name.startswith("grid:")]:
        solver = section.split(":", 1)[1]
        if solver not in kinds:
            raise ConfigError(f"[{section}] names no solver of the roster")
        grids[solver] = {key: _parse_grid(kinds[solver], key, value)
                         for key, value in parser[section].items()}
        if not grids[solver]:
            raise ConfigError(f"[{section}] lists no parameter")
        for key, values in grids[solver].items():
            if not values:  # an empty product: the grid would run no cell
                raise ConfigError(f"[{section}] key {key!r} lists no value")
            for value in values:
                SolverSpec(solver, kinds[solver], {key: value})
    if not grids:
        raise ConfigError("config defines no [grid:<solver>] section")
    return grids


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

@dataclass
class RunRecord:
    """One solver-on-instance execution with its configuration snapshot."""

    instance_id: str
    instance_hash: str
    solver: str
    solver_kind: str
    config_hash: str
    seed: int
    scenario: str
    size: int
    status: str = "ok"
    error: str | None = None
    group: int | None = None
    best_cost: float | None = None
    total_draws: int = 0
    calls: int = 0
    timing: dict = field(default_factory=dict)
    cpu_time: float = 0.0
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {f.name: _sanitize(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        data = dict(payload)
        data["metrics"] = {k: _restore(v) for k, v in data.get("metrics", {}).items()}
        data["timing"] = {k: _restore(v) for k, v in data.get("timing", {}).items()}
        if data.get("best_cost") is not None:
            data["best_cost"] = _restore(data["best_cost"])
        return cls(**data)


def _sanitize(value):
    """Make nested data JSON safe: non-finite floats become tokens."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def _restore(value):
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return value


def save_records(records: Sequence[RunRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()) + "\n")


def load_records(path: str | Path) -> list[RunRecord]:
    records = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
    return records


# ----------------------------------------------------------------------
# Solver invocation
# ----------------------------------------------------------------------

def run_classical_solver(spec: SolverSpec, inst: MaxCutInstance, poly: BinaryPolynomial,
                         seed: int) -> SampleSet:
    """One call of a sampling solver on ``poly``, the caller's ``maxcut_qubo(inst)``."""
    kw = spec.kwargs
    if spec.kind == "sa":
        return simulated_annealing(poly, SaConfig(**kw, seed=seed))
    if spec.kind == "ts":
        return tabu_search(poly, TsConfig(**kw, seed=seed))
    if spec.kind == "ls":
        return local_search_maxcut(inst, seed=seed, poly=poly, **kw)
    if spec.kind == "gw":
        return goemans_williamson(inst, seed=seed, poly=poly, **kw)
    if spec.kind == "exhaustive":
        watch = Stopwatch()
        x, cost = poly.argmin_exhaustive(**kw)
        t_solve = watch.lap()
        sample = SampleSet.from_draws(inst.num_nodes, [(x, cost)],
                                      info={"solver": "exhaustive"})
        sample.timing = Timing(0.0, t_solve, watch.lap())
        return sample
    raise ConfigError(f"solver kind {spec.kind!r} is not a sampling solver")


def _qaoa_metrics(inst: MaxCutInstance, circuit: CompiledProblem, ctx: MetricContext,
                  p: int = 8, theta_beta: np.ndarray | None = None,
                  theta_gamma: np.ndarray | None = None,
                  seconds_per_layer: float = SECONDS_PER_CNOT_LAYER) -> dict:
    """Exact p*, layer-denominated TTS and, on a nonzero optimum, the
    approximation ratio of the depth-``p`` circuit, run on ``circuit``, the
    instance compiled on its half basis.  Its schedule comes from the
    generator coefficients; a missing ``theta_*`` is the ramp's."""
    ramp = GeneratorParams.ramp()
    gp = GeneratorParams(ramp.theta_beta if theta_beta is None else theta_beta,
                         ramp.theta_gamma if theta_gamma is None else theta_gamma)
    beta, gamma = expand_generator(gp, p)
    dist = qaoa_qubo_simulate(circuit, beta, gamma, optimal_cost=ctx.optimal_cost)
    layers = tts_layers(dist, layer_ledger("maxcut", inst, p))
    metrics = {"p_star": dist.p_star, "tts": layers * seconds_per_layer,
               "tts_layers": layers, "qaoa_p": p}
    if ctx.optimal_cost != 0.0:  # ratios are undefined on a zero optimum
        metrics["ar"] = approximation_ratio(dist, ctx)
    return metrics


# ----------------------------------------------------------------------
# Scenario protocols
# ----------------------------------------------------------------------

def _fail(record: RunRecord, exc: Exception) -> None:
    record.status = "failed"
    record.error = f"{type(exc).__name__}: {exc}"


def _instance_records(inst: MaxCutInstance | TspInstance, scenario: str,
                      solvers: Sequence[SolverSpec], master_seed: int, oracle_cap: int,
                      time_limit: float = 0.0,
                      max_calls: int | None = None) -> list[RunRecord]:
    """Every record of one instance under the ``tts`` or ``bsf`` protocol.

    The objective (the negated cut) and its solver arrays are compiled once
    and, for ``tts``, the optimum c* is found once; every solver call shares
    them, and none of it counts in any record's ``cpu_time`` or ``timing``.
    When a ``tts`` roster holds a circuit and the instance is within
    ``oracle_cap``, the instance is compiled once on its half basis: the
    sampling solvers take its polynomial, c* is the least cost of its half
    table (a cut and its complement cost the same) and every circuit runs on
    it.  Otherwise c* comes from ``argmin_exhaustive``'s streamed chunks, and
    a failed compile fails only the circuit records.  ``tts`` makes one
    solver call at the record's seed; ``bsf`` repeats calls, each with its
    own derived seed, until ``time_limit`` or ``max_calls``, then pools the
    best costs of the roster.
    """
    iid, ihash = instance_id(inst), instance_hash(inst)
    records = [
        RunRecord(instance_id=iid, instance_hash=ihash, solver=spec.name,
                  solver_kind=spec.kind, config_hash=config_hash(spec.params),
                  seed=derive_seed(master_seed, iid, spec.name), scenario=scenario,
                  size=_instance_size(inst))
        for spec in solvers
    ]
    try:
        if not isinstance(inst, MaxCutInstance):
            raise TypeError(f"the tts and bsf protocols take Max-Cut instances, "
                            f"not {type(inst).__name__}")
        circuit = failure = None
        if (scenario == "tts" and any(spec.kind == "qaoa" for spec in solvers)
                and inst.num_nodes <= oracle_cap):
            try:
                circuit = CompiledProblem("qubo", inst)
            except Exception as exc:  # raised again by each circuit record
                failure = exc
        if circuit is not None:
            poly, c_star = circuit.problem, float(circuit.costs.min())
        else:
            poly = maxcut_qubo(inst)
            c_star = poly.argmin_exhaustive(cap=oracle_cap)[1] if scenario == "tts" else None
        poly.neighbors()  # with the dense form, the arrays that every heuristic call shares
    except SizeCapError as exc:
        for record in records:
            record.status, record.error = "skipped", str(exc)
        return records
    except Exception as exc:  # recorded, not raised: one bad instance must not kill a sweep
        for record in records:
            _fail(record, exc)
        return records
    ctx = MetricContext(optimal_cost=c_star)
    for spec, record in zip(solvers, records):
        cpu_start = time.process_time()
        try:
            if scenario == "tts" and spec.kind == "qaoa":
                if failure is not None:
                    raise failure
                record.metrics = _qaoa_metrics(inst, circuit, ctx, **spec.kwargs)
                record.best_cost = c_star if record.metrics["p_star"] > 0 else None
            else:
                if scenario == "tts":
                    sample, calls = run_classical_solver(spec, inst, poly, record.seed), 0
                    record.metrics = _sample_tts_metrics(sample, ctx)
                else:
                    sample, calls = _bsf_calls(record, spec, inst, poly, master_seed,
                                               time_limit, max_calls)
                record.best_cost = sample.best()[1]
                record.total_draws = sample.total_draws
                record.calls = calls
                record.timing = asdict(sample.timing)
        except Exception as exc:  # recorded, not raised: one bad run must not kill a sweep
            _fail(record, exc)
        record.cpu_time = time.process_time() - cpu_start
    if scenario == "bsf":
        _attach_pooled_metrics(records)
    return records


def _sample_tts_metrics(sample: SampleSet, ctx: MetricContext) -> dict:
    """Hit probability, TTS and, on a nonzero optimum, the quality ratios."""
    c_star = ctx.optimal_cost
    p_star = sum(count for _, count, cost in sample.items() if cost <= c_star + 1e-9)
    p_star /= sample.total_draws
    metrics = {"p_star": p_star, "tts": tts(sample, p_star), "tts_oh": tts_oh(sample, p_star)}
    if c_star != 0.0:  # ratios are undefined on a zero optimum
        bsf = bsf_relative(sample, ctx)
        metrics["ar"] = approximation_ratio(sample, ctx)
        metrics["c"] = bsf.c
        metrics["relative_error"] = bsf.relative_error
    return metrics


def _bsf_calls(record: RunRecord, spec: SolverSpec, inst: MaxCutInstance,
               poly: BinaryPolynomial, master_seed: int, time_limit: float,
               max_calls: int | None) -> tuple[SampleSet, int]:
    """The pooled sample of repeated calls until the budget, and the call count."""
    samples = []
    start = time.perf_counter()
    # an exhaustive call proves its answer optimal, so no second call is made
    while not samples or (
        time.perf_counter() - start < time_limit
        and (max_calls is None or len(samples) < max_calls)
        and spec.kind != "exhaustive"
    ):
        call_seed = derive_seed(master_seed, record.instance_id, spec.name, len(samples))
        samples.append(run_classical_solver(spec, inst, poly, call_seed))
    if spec.kind == "exhaustive":
        record.metrics["terminated_early"] = True
    return merge(*samples), len(samples)


def _run_protocol(cfg: ExperimentConfig, max_calls: int | None = None) -> list[RunRecord]:
    """Run the per-instance worker of ``cfg.scenario`` over ``cfg.instances``,
    serially or in a pool."""
    work = partial(_instance_records, scenario=cfg.scenario, solvers=cfg.solvers,
                   master_seed=cfg.seed, oracle_cap=cfg.oracle_cap,
                   time_limit=cfg.time_limit, max_calls=max_calls)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            grouped = list(pool.map(work, cfg.instances))
    else:
        grouped = [work(inst) for inst in cfg.instances]
    records = [record for group in grouped for record in group]
    _assign_groups(records, cfg.num_groups)
    return records


def run_tts_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Fixed-read protocol with oracle-based success probabilities."""
    if cfg.scenario != "tts":
        raise ConfigError(f"run_tts_experiment needs a tts config, got {cfg.scenario!r}")
    return _run_protocol(cfg)


def run_bsf_experiment(cfg: ExperimentConfig, max_calls: int | None = None) -> list[RunRecord]:
    """Repeat-until-time-limit protocol with pooled best-found comparison.

    The wall-clock budget is checked between calls, so an in-flight call
    always completes and at least one call runs per solver.  The budget
    covers the solver calls only: each record pools its calls' samples once,
    after the budget, and its ``timing`` sums all phases of every call.
    ``max_calls`` optionally fixes the call count, which makes the non-timing
    outputs deterministic for a fixed seed regardless of machine speed.
    """
    if cfg.scenario != "bsf":
        raise ConfigError(f"run_bsf_experiment needs a bsf config, got {cfg.scenario!r}")
    return _run_protocol(cfg, max_calls)


def _attach_pooled_metrics(records: list[RunRecord]) -> None:
    """Fill relative-cost metrics against the best cost pooled per instance."""
    pool = [r.best_cost for r in records if r.status == "ok" and r.best_cost is not None]
    if not pool:
        return
    reference = min(pool)
    for record in records:
        if record.status != "ok" or record.best_cost is None:
            continue
        if abs(record.best_cost - reference) <= 1e-9:
            c_hat = 1.0
        elif reference == 0.0:
            continue
        else:
            c_hat = record.best_cost / reference
        record.metrics["c_hat"] = c_hat
        record.metrics["relative_error"] = abs(1.0 - c_hat)


def _assign_groups(records: list[RunRecord], num_groups: int | None) -> None:
    sizes_by_instance: dict[str, int] = {}
    for record in records:
        sizes_by_instance[record.instance_id] = record.size
    ids = sorted(sizes_by_instance)
    sizes = [sizes_by_instance[i] for i in ids]
    if not sizes:
        return
    if num_groups is None:
        num_groups = min(5, len(set(sizes)))
    bins = equal_frequency_bins(sizes, num_groups)
    mapping = dict(zip(ids, bins))
    for record in records:
        record.group = mapping[record.instance_id]


# ----------------------------------------------------------------------
# Grid search
# ----------------------------------------------------------------------

@dataclass
class GridResult:
    solver: str
    objective: str
    best_params: dict | None
    table: list[tuple[dict, float]]


def grid_search(
    spec: SolverSpec,
    grid: dict[str, list],
    tuning_instances: Sequence,
    master_seed: int = 0,
    objective: str = "tts",
    oracle_cap: int = ORACLE_CAP,
    benchmark_ids: Iterable[str] | None = None,
) -> GridResult:
    """Exhaustive sweep of a parameter grid, scored by a mean TTS-style metric.

    Evaluates every cell of the Cartesian product on the tuning set and
    returns the cell with the smallest mean objective; ties keep the
    first-listed cell.  ``best_params`` is None when no cell produced an
    ``ok`` record on any tuning instance.  When ``benchmark_ids`` is given,
    any overlap with the tuning instances is a hard error (tuning and
    benchmarking must use separate datasets).
    """
    if not grid:
        raise ConfigError("parameter grid is empty")
    if objective not in ("tts", "tts_oh", "relative_error", "ar_gap"):
        raise ConfigError(f"unknown grid objective {objective!r}")
    tuning_ids = {instance_id(inst) for inst in tuning_instances}
    if benchmark_ids is not None:
        overlap = tuning_ids & set(benchmark_ids)
        if overlap:
            raise ConfigError(
                f"tuning and benchmark sets overlap on {sorted(overlap)[:5]}"
            )
    keys = list(grid)
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    # every cell keeps the solver's name, so it draws the solver's seeds
    roster = [SolverSpec(spec.name, spec.kind, {**spec.params, **cell}) for cell in cells]
    values: list[list[float]] = [[] for _ in cells]
    ran = False
    for inst in tuning_instances:
        records = _instance_records(inst, "tts", roster, master_seed, oracle_cap)
        for column, record in zip(values, records):
            ran = ran or record.status == "ok"
            if record.status != "ok":
                column.append(math.inf)
            elif objective == "ar_gap":
                column.append(1.0 - record.metrics.get("ar", 0.0))
            else:
                column.append(record.metrics.get(objective, math.inf))
    table = [(cell, float(np.mean(column)) if column else math.inf)
             for cell, column in zip(cells, values)]
    best_params, best_value = cells[0] if ran else None, math.inf
    for cell, mean_value in table:
        if mean_value < best_value:
            best_params, best_value = cell, mean_value
    return GridResult(solver=spec.name, objective=objective,
                      best_params=best_params, table=table)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

# config echoes recorded per run but meaningless to aggregate
NON_AGGREGATED_METRICS = {"qaoa_p", "terminated_early"}


def _quantiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(median, 12.5th, 87.5th percentile): the 75% interval around the median."""
    finite = [v for v in values if not math.isinf(v) and not math.isnan(v)]
    if not finite:
        return math.inf, math.inf, math.inf
    arr = np.array(finite)
    low, high = np.percentile(arr, [12.5, 87.5])
    return float(np.median(arr)), float(low), float(high)


def _index(records: Sequence[RunRecord]) -> tuple[dict, dict]:
    """One pass over ``records``: metric -> solver -> the ``ok`` records that
    carry that metric, in record order; and group -> the sizes of all its records."""
    cells: dict[str, dict[str, list[RunRecord]]] = {}
    group_sizes: dict[int, set[int]] = {}
    for r in records:
        if r.group is not None:
            group_sizes.setdefault(r.group, set()).add(r.size)
        if r.status == "ok":
            for metric in r.metrics:
                cells.setdefault(metric, {}).setdefault(r.solver, []).append(r)
    return cells, group_sizes


def _summary_rows(cells: dict, group_sizes: dict, metric: str) -> list[dict]:
    by_group: dict[int, dict[str, list[float]]] = {}
    for solver, cell in sorted(cells.get(metric, {}).items()):
        for r in cell:
            if r.group is not None:
                by_group.setdefault(r.group, {}).setdefault(solver, []).append(r.metrics[metric])
    rows = []
    for group, by_solver in sorted(by_group.items()):
        sizes = group_sizes[group]
        for solver, values in by_solver.items():
            median, low, high = _quantiles(values)
            rows.append({
                "group": group,
                "sizes": f"{min(sizes)}-{max(sizes)}",
                "solver": solver,
                "count": len(values),
                "finite": sum(1 for v in values if not math.isinf(v)),
                "median": median,
                "p12.5": low,
                "p87.5": high,
            })
    return rows


def summarize_groups(records: Sequence[RunRecord], metric: str) -> list[dict]:
    """Per (group, solver) table rows: count, median and 75% interval."""
    return _summary_rows(*_index(records), metric)


def _fob(cells: dict) -> dict[str, float]:
    return {solver: fob([r.metrics["c_hat"] for r in cell])
            for solver, cell in sorted(cells.get("c_hat", {}).items())}


def fob_by_solver(records: Sequence[RunRecord]) -> dict[str, float]:
    """Fraction of instances on which each solver matched the pooled best."""
    return _fob(_index(records)[0])


def _format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    headers = list(rows[0])
    widths = {
        h: max(len(h), *(len(_fmt(r[h])) for r in rows)) for h in headers
    }
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    for row in rows:
        lines.append("  ".join(_fmt(row[h]).ljust(widths[h]) for h in headers))
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def emit_report(records: Sequence[RunRecord], out_dir: str | Path) -> list[Path]:
    """Write records, group summaries and plot-ready data files.

    Returns the list of files written: ``records.jsonl``, ``fob.txt`` when
    records carry ``c_hat`` (the pooled ``bsf`` scenario), ``summary.txt``,
    per-metric/per-solver ``plot_*.dat`` (size, median, 12.5th and 87.5th
    percentiles) and, when two or more solvers have relative-error points,
    ``pareto.dat``: each solver's median runtime (``tts``, else the solve
    time) and median relative error, marking the non-dominated ones.
    """
    if not records:
        raise ValueError("no records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "records.jsonl"]
    save_records(records, written[0])

    def write(name: str, text: str) -> None:
        written.append(out / name)
        written[-1].write_text(text)

    cells, group_sizes = _index(records)
    metrics = sorted(cells.keys() - NON_AGGREGATED_METRICS)
    sections = []
    for metric in metrics:
        rows = _summary_rows(cells, group_sizes, metric)
        if rows:
            sections.append(f"== {metric} ==\n" + _format_table(rows))
    fob_map = _fob(cells)
    if fob_map:
        fob_table = _format_table([{"solver": s, "fob": v} for s, v in fob_map.items()])
        sections.append("== fob ==\n" + fob_table)
        write("fob.txt", fob_table)
    write("summary.txt", "\n".join(sections) if sections else "(no metrics)\n")

    for metric in metrics:
        for solver, cell in sorted(cells[metric].items()):
            by_size: dict[int, list[float]] = {}
            for r in cell:
                by_size.setdefault(r.size, []).append(r.metrics[metric])
            lines = ["# size median p12.5 p87.5"]
            for size, values in sorted(by_size.items()):
                median, low, high = _quantiles(values)
                lines.append(f"{size} {_fmt(median)} {_fmt(low)} {_fmt(high)}")
            write(f"plot_{metric}_{solver}.dat", "\n".join(lines) + "\n")

    points = {}
    for solver, cell in sorted(cells.get("relative_error", {}).items()):
        pairs = [(r.metrics.get("tts", r.timing.get("solve")), r.metrics["relative_error"])
                 for r in cell]
        pairs = [pair for pair in pairs if pair[0] is not None]
        if pairs:
            runtimes, errors = zip(*pairs)
            points[solver] = (_quantiles(runtimes)[0], _quantiles(errors)[0])
    if len(points) >= 2:
        front = set(pareto_front(list(points.values())))
        lines = ["# solver runtime relative_error on_front"]
        for solver, point in points.items():
            lines.append(f"{solver} {_fmt(point[0])} {_fmt(point[1])} {int(point in front)}")
        write("pareto.dat", "\n".join(lines) + "\n")
    return written


# ----------------------------------------------------------------------
# Instance dataset persistence
# ----------------------------------------------------------------------

def instance_to_dict(inst: MaxCutInstance | TspInstance) -> dict:
    if isinstance(inst, MaxCutInstance):
        return {
            "type": "maxcut",
            "num_nodes": inst.num_nodes,
            "edges": [[u, v, w] for u, v, w in inst.edges],
            "metadata": _sanitize(inst.metadata),
        }
    payload = {
        "type": "tsp",
        "metadata": _sanitize(inst.metadata),
    }
    if inst.coordinates is not None:
        payload["coordinates"] = inst.coordinates.tolist()
    else:
        payload["distances"] = inst.distances.tolist()
    return payload


def instance_from_dict(payload: dict):
    if payload["type"] == "maxcut":
        return MaxCutInstance(
            num_nodes=payload["num_nodes"],
            edges=tuple((int(u), int(v), float(w)) for u, v, w in payload["edges"]),
            metadata=dict(payload.get("metadata", {})),
        )
    if payload["type"] == "tsp":
        if "coordinates" in payload:
            coords = np.asarray(payload["coordinates"], dtype=np.float64)
            return TspInstance(distances=_euclidean(coords), coordinates=coords,
                               metadata=dict(payload.get("metadata", {})))
        return TspInstance(
            distances=np.asarray(payload["distances"], dtype=np.float64),
            metadata=dict(payload.get("metadata", {})),
        )
    raise ConfigError(f"unknown instance type {payload.get('type')!r}")


def write_instance_files(instances: Sequence, out_dir: str | Path) -> list[Path]:
    """Persist a dataset: edge lists for graphs, JSON for tour instances."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    manifest = []
    for inst in instances:
        iid = instance_id(inst)
        if isinstance(inst, MaxCutInstance):
            path = out / f"{iid}.txt"
            write_edge_list(inst, path)
        else:
            path = out / f"{iid}.json"
            path.write_text(json.dumps(instance_to_dict(inst)))
        manifest.append({"id": iid, "file": path.name,
                         "hash": instance_hash(inst)})
        written.append(path)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    written.append(manifest_path)
    return written


def oracle_table(instances: Sequence, cap: int = ORACLE_CAP) -> list[dict]:
    """Exhaustive optima for a dataset (skips instances over the caps)."""
    rows = []
    for inst in instances:
        iid = instance_id(inst)
        row = {"id": iid, "hash": instance_hash(inst)}
        try:
            if isinstance(inst, MaxCutInstance):
                x, cost = maxcut_qubo(inst).argmin_exhaustive(cap=cap)
                row.update({"optimal_bitstring": x, "optimal_cost": cost})
            else:
                result = tsp_exhaustive(inst)
                row.update(
                    {
                        "optimal_tour": list(result.tour),
                        "optimal_length": result.optimal_length,
                        "worst_length": result.worst_length,
                    }
                )
            row["status"] = "ok"
        except SizeCapError as exc:
            row["status"] = "skipped"
            row["error"] = str(exc)
        rows.append(row)
    return rows
