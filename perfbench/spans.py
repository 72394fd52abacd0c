"""Span tracing of optbench's public entry points, recorded from outside.

A :class:`Tracer` replaces each traced entry point, in every namespace that
binds it, with a wrapper that records one span per call: name, start, end
and the index of the enclosing span.  Spans stay in memory; the worker
writes them out after its timed region.  Nothing under ``src/`` is edited.

:func:`layer_metrics` turns one workload repetition's spans and counters
into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("instances", "formulations", "model", "solvers", "qaoa", "metrics", "harness")

SOLVER_SPANS = {"sa": "simulated_annealing", "ts": "tabu_search",
                "ls": "local_search_maxcut", "gw": "goemans_williamson"}
METRIC_FUNCS = ("tts", "tts_oh", "bsf_relative", "approximation_ratio", "fob")
TSP_KINDS = ("qubo", "hobo", "xy", "perm")

# Bytes moved per amplitude by one full pass over a complex128 state
# (one read, one write), and by reading one float64 cost per round.
PASS_BYTES = 32
COST_BYTES = 8


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _circuit_counts(basis: int, rounds: int, passes: float) -> dict:
    """Computed work of one exactly simulated circuit.

    ``passes`` is the number of full-state passes per round besides the
    cost phase: n for the transverse mixer, 2 * pairs for the xy mixer
    (each pair rotation touches 2/k of the state, k blocks per round),
    1 for the projector mixer.
    """
    return {
        "qaoa.amplitude_rounds": basis * rounds,
        "qaoa.computed_bytes": basis * rounds * (COST_BYTES + PASS_BYTES * (1 + passes)),
    }


def _timing_counts(kind: str, sample) -> dict:
    timing = sample.timing
    return {
        f"solvers.{kind}.preprocess_s": timing.preprocess,
        f"solvers.{kind}.solve_s": timing.solve,
        f"solvers.{kind}.postprocess_s": timing.postprocess,
    }


def _note_sa(args, kwargs, result) -> dict:
    cfg, starts = _arg(args, kwargs, 1, "cfg"), _arg(args, kwargs, 2, "starts")
    reads = len(starts) if starts is not None else (cfg.reads if cfg is not None else 100)
    sweeps = cfg.sweeps if cfg is not None else 20
    out = _timing_counts("sa", result)
    out["solvers.sa.proposals"] = reads * sweeps * result.num_vars
    return out


def _note_ts(args, kwargs, result) -> dict:
    cfg, starts = _arg(args, kwargs, 1, "cfg"), _arg(args, kwargs, 2, "starts")
    restarts = len(starts) if starts is not None else (cfg.restarts if cfg is not None else 100)
    out = _timing_counts("ts", result)
    out["solvers.ts.moves"] = restarts * result.info["iterations"]
    return out


def _note_qubo_circuit(args, kwargs, result) -> dict:
    return _circuit_counts(result.probabilities.size, len(_arg(args, kwargs, 1, "beta")),
                           result.num_qubits)


def _note_tsp_circuit(args, kwargs, result) -> dict:
    kind = _arg(args, kwargs, 1, "kind")
    rounds = len(_arg(args, kwargs, 2, "beta"))
    size = result.probabilities.size
    if kind == "qubo":  # counted by the nested qaoa_qubo_simulate span
        return {}
    if kind == "hobo":
        return _circuit_counts(size, rounds, result.num_qubits)
    if kind == "xy":
        pairs = importlib.import_module("optbench.qaoa").xy_pair_schedule(result.k)
        return _circuit_counts(size, rounds, 2 * len(pairs))
    return _circuit_counts(size, rounds, 1)


def _note_train(args, kwargs, result) -> dict:
    train_set = list(_arg(args, kwargs, 0, "train_set"))
    kind = _arg(args, kwargs, 1, "kind")
    p = _arg(args, kwargs, 2, "p")
    out = {"qaoa.train.evaluations": result.evaluations,
           "qaoa.train.circuits": result.evaluations * len(train_set)}
    if kind == "qubo":
        for poly in train_set:
            for key, value in _circuit_counts(1 << poly.num_vars, p, poly.num_vars).items():
                out[key] = out.get(key, 0) + value * result.evaluations
    return out


def _note_oracle(tracer):
    def note(args, kwargs, result) -> dict:
        poly = args[0]
        tracer.oracle_keys.add((poly.num_vars, tuple(sorted(poly.terms.items()))))
        return {}
    return note


def _note_records(args, kwargs, result) -> dict:
    return {"harness.records": len(result)}


def _tsp_name(args, kwargs) -> str:
    return f"qaoa.tsp_simulate.{_arg(args, kwargs, 1, 'kind')}"


class Tracer:
    """In-memory span recorder for wrapped entry points.

    ``spans`` holds ``[name, start, end, parent]`` lists (parent -1 for a
    root span); ``counts`` accumulates the counters the wrappers' notes
    return.  Recording happens only while ``active`` is true.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.oracle_keys: set = set()
        self.active = False
        self._stack: list[int] = []

    def reset_counts(self) -> None:
        """Start the counters afresh; spans are kept."""
        self.counts.clear()
        self.oracle_keys.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span opened by the benchmark itself; yields the span's index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if note is not None:
                for key, value in note(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return traced

    def patch(self, owner, attr: str, name, note=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, note))

    def install(self) -> None:
        """Wrap every traced entry point in each namespace that binds it."""
        mod = {m: importlib.import_module(f"optbench.{m}")
               for m in ("instances", "formulations", "model", "solvers", "qaoa",
                         "metrics", "harness")}
        poly = mod["model"].BinaryPolynomial
        for fn in ("gen_regular", "gen_erdos_renyi", "gen_tsp_planar"):
            self.patch(mod["instances"], fn, "instances.gen")
        for ns in ("formulations", "harness", "solvers"):
            self.patch(mod[ns], "maxcut_qubo", "formulations.maxcut_qubo")
        self.patch(mod["formulations"], "tsp_onehot_qubo", "formulations.tsp_onehot_qubo")
        self.patch(poly, "argmin_exhaustive", "model.argmin_exhaustive", _note_oracle(self))
        self.patch(poly, "cost_vector", "model.cost_vector")
        self.patch(poly, "evaluate", "model.evaluate")
        self.patch(mod["harness"], "merge", "model.merge")
        notes = {"sa": _note_sa, "ts": _note_ts,
                 "ls": lambda a, k, r: _timing_counts("ls", r),
                 "gw": lambda a, k, r: _timing_counts("gw", r)}
        for kind, fn in SOLVER_SPANS.items():
            for ns in ("harness", "solvers"):
                self.patch(mod[ns], fn, f"solvers.{kind}", notes[kind])
        for ns in ("qaoa", "harness", "solvers"):
            self.patch(mod[ns], "tsp_exhaustive", "solvers.tsp_exhaustive")
        for ns in ("qaoa", "harness"):
            self.patch(mod[ns], "qaoa_qubo_simulate", "qaoa.qubo_simulate", _note_qubo_circuit)
        self.patch(mod["qaoa"], "qaoa_tsp_simulate", _tsp_name, _note_tsp_circuit)
        self.patch(mod["qaoa"], "train_generator", "qaoa.train", _note_train)
        for fn in METRIC_FUNCS:
            for ns in ("metrics", "harness"):
                self.patch(mod[ns], fn, f"metrics.{fn}")
        self.patch(mod["harness"], "run_tts_experiment", "harness.run_tts_experiment",
                   _note_records)
        self.patch(mod["harness"], "run_bsf_experiment", "harness.run_bsf_experiment",
                   _note_records)
        for fn in ("save_records", "emit_report", "fob_by_solver"):
            self.patch(mod["harness"], fn, f"harness.{fn}")

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "harness"


def layer_metrics(tracer: Tracer, study_index: int) -> dict[str, float]:
    """Per-layer metrics of the spans under the study span ``study_index``.

    ``<name>.s`` sums the spans of that name that have no ancestor of the
    same name; ``<layer>.self_s`` sums span durations minus their direct
    children over the layer's spans.  The study span itself belongs to the
    harness layer, so ``harness.self_s`` is the study time that no other
    layer's span covers.  ``instances.gen.s`` sums the input-generation spans
    of the set-up, which precede every study span.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    in_study = [i == study_index or study_index in ancestors(i) for i in range(len(spans))]

    def outer_sum(names: set) -> float:
        return sum(dur[i] for i, span in enumerate(spans)
                   if span[0] in names and in_study[i]
                   and not any(spans[a][0] in names for a in ancestors(i)))

    def calls(name: str) -> int:
        return sum(1 for i, span in enumerate(spans) if span[0] == name and in_study[i])

    out: dict[str, float] = {}
    out["instances.gen.s"] = sum(d for (name, *_), d in zip(spans, dur)
                                 if name == "instances.gen")
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        if in_study[i]:
            self_time[_layer(span[0])] += dur[i] - child_time[i]
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = self_time[layer]

    timed = ["formulations.maxcut_qubo", "formulations.tsp_onehot_qubo",
             "model.argmin_exhaustive", "model.cost_vector", "model.evaluate", "model.merge",
             *(f"solvers.{kind}" for kind in SOLVER_SPANS), "solvers.tsp_exhaustive",
             "qaoa.qubo_simulate", *(f"metrics.{fn}" for fn in METRIC_FUNCS)]
    for name in timed:
        out[f"{name}.s"] = outer_sum({name})
        out[f"{name}.calls"] = calls(name)
    for kind in TSP_KINDS:
        out[f"qaoa.tsp_simulate.{kind}.s"] = outer_sum({f"qaoa.tsp_simulate.{kind}"})
    oracle_calls = out["model.argmin_exhaustive.calls"]
    out["model.oracle_useful_ratio"] = (len(tracer.oracle_keys) / oracle_calls
                                        if oracle_calls else 0.0)

    counts = tracer.counts
    for kind in SOLVER_SPANS:
        for phase in ("preprocess_s", "solve_s", "postprocess_s"):
            out[f"solvers.{kind}.{phase}"] = counts[f"solvers.{kind}.{phase}"]
    out["solvers.sa.proposals"] = int(counts["solvers.sa.proposals"])
    out["solvers.ts.moves"] = int(counts["solvers.ts.moves"])
    out["solvers.sa.ns_per_proposal"] = _ratio(1e9 * out["solvers.sa.s"],
                                               out["solvers.sa.proposals"])
    out["solvers.ts.ns_per_move"] = _ratio(1e9 * out["solvers.ts.s"], out["solvers.ts.moves"])
    verify_parents = {"solvers.sa", "solvers.ts", "solvers.ls"}
    verify = sum(dur[i] for i, span in enumerate(spans)
                 if span[0] == "model.evaluate" and in_study[i]
                 and any(spans[a][0] in verify_parents for a in ancestors(i)))
    solve = sum(out[f"solvers.{kind}.solve_s"] for kind in ("sa", "ts", "ls"))
    out["solvers.verify_share"] = _ratio(verify, solve)

    out["qaoa.amplitude_rounds"] = int(counts["qaoa.amplitude_rounds"])
    out["qaoa.computed_bytes"] = int(counts["qaoa.computed_bytes"])
    circuit_time = outer_sum({"qaoa.qubo_simulate", "qaoa.train",
                              *(f"qaoa.tsp_simulate.{kind}" for kind in TSP_KINDS)})
    out["qaoa.computed_gb_per_s"] = _ratio(out["qaoa.computed_bytes"] / 1e9, circuit_time)
    out["qaoa.train.s"] = outer_sum({"qaoa.train"})
    out["qaoa.train.evaluations"] = int(counts["qaoa.train.evaluations"])
    out["qaoa.train.circuits"] = int(counts["qaoa.train.circuits"])
    out["qaoa.train.us_per_circuit"] = _ratio(1e6 * out["qaoa.train.s"],
                                              out["qaoa.train.circuits"])

    out["harness.report.s"] = outer_sum({"harness.save_records", "harness.emit_report"})
    out["harness.records"] = int(counts["harness.records"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Count-type per-layer metrics; each must repeat exactly across passes.
COUNT_METRICS = (
    "formulations.maxcut_qubo.calls", "formulations.tsp_onehot_qubo.calls",
    "model.argmin_exhaustive.calls", "model.cost_vector.calls", "model.evaluate.calls",
    "model.merge.calls", *(f"solvers.{kind}.calls" for kind in SOLVER_SPANS),
    "solvers.tsp_exhaustive.calls", "qaoa.qubo_simulate.calls",
    *(f"metrics.{fn}.calls" for fn in METRIC_FUNCS),
    "solvers.sa.proposals", "solvers.ts.moves", "qaoa.amplitude_rounds",
    "qaoa.computed_bytes", "qaoa.train.evaluations", "qaoa.train.circuits",
    "harness.records",
)
