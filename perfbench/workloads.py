"""The four benchmark workloads: inputs, warm-up, fixed work, checks.

Each workload is a closed loop driven from one process with ``jobs = 1``.
A count fixes its work, never a clock.  Inputs come from the workload
seed alone; the program receives only the generated instances.  Program
entry points are looked up on their modules at call time, so the wrappers
that :mod:`spans` installs see every call.

``smoke`` selects tiny sizes for the benchmark's own smoke test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from optbench import formulations, harness, instances, qaoa, solvers


def derive(seed: int, *keys) -> int:
    """Input seed for one generated instance, from the workload seed."""
    text = "|".join(str(k) for k in (seed, *keys))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / count))) if count else 0


# Record metrics derived from timing; left out of the determinism digest.
TIMING_METRICS = {"tts", "tts_oh"}


def record_payload(records) -> list:
    return [
        [r.instance_id, r.solver, r.status, r.best_cost, r.total_draws, r.calls, r.group,
         {k: v for k, v in sorted(r.metrics.items()) if k not in TIMING_METRICS}]
        for r in records
    ]


@dataclass
class Outcome:
    """What one pass of a workload reports besides its timings.

    ``payload`` holds the non-timing outputs, which must repeat exactly
    across passes with one seed.
    """

    attempted: int
    failed: int
    checks: dict[str, bool]
    metrics: dict[str, float]
    payload: object
    notes: dict[str, str] = field(default_factory=dict)


def _cpu_metrics(records) -> tuple[dict, dict]:
    cpu_ms = [1e3 * r.cpu_time for r in records]
    q = tail_percentile(len(cpu_ms))
    metrics = {"run_cpu_ms.p50": float(np.median(cpu_ms)),
               "run_cpu_ms.tail": float(np.percentile(cpu_ms, q))}
    notes = {"run_cpu_ms.p50": f"median of {len(cpu_ms)} records",
             "run_cpu_ms.tail": f"p{q} of {len(cpu_ms)} records"}
    return metrics, notes


def _not_ok(records) -> int:
    return sum(1 for r in records if r.status != "ok")


class TtsDesk:
    """c06-shape time-to-solution study through the harness, then reports."""

    name = "tts_desk"
    KINDS = (("regular", None), ("er", 0.25), ("er", 0.5), ("er", 0.75))
    HEURISTICS = ("sa", "ts", "ls", "gw")

    def setup(self, seed: int, smoke: bool) -> dict:
        sizes = (8,) if smoke else (10, 12, 14)
        reads = 10 if smoke else 200
        graphs = []
        for size in sizes:
            for label, density in self.KINDS:
                s = derive(seed, self.name, label, density, size)
                if density is None:
                    inst = instances.gen_regular(size, 3, s)
                else:
                    inst = instances.gen_erdos_renyi(size, density, s)
                inst.metadata["label"] = f"{label}{density or ''}-n{size}"
                graphs.append(inst)
        roster = [
            harness.SolverSpec("sa", "sa", {"reads": reads, "sweeps": 20}),
            harness.SolverSpec("ts", "ts", {"restarts": reads}),
            harness.SolverSpec("ls", "ls", {"restarts": reads}),
            harness.SolverSpec("gw", "gw", {"hyperplanes": reads}),
            harness.SolverSpec("exhaustive", "exhaustive"),
            harness.SolverSpec("qaoa8", "qaoa", {"p": 8}),
        ]
        cfg = harness.ExperimentConfig(scenario="tts", solvers=roster, instances=graphs,
                                       seed=derive(seed, self.name, "master"),
                                       num_groups=len(sizes))
        warm = harness.ExperimentConfig(scenario="tts", solvers=roster,
                                        instances=[instances.gen_regular(6, 3, 0)])
        return {"cfg": cfg, "warm": warm}

    def warm_up(self, state: dict) -> None:
        harness.run_tts_experiment(state["warm"])

    def study(self, state: dict, tmp) -> list:
        records = harness.run_tts_experiment(state["cfg"])
        harness.save_records(records, tmp / "records.jsonl")
        harness.emit_report(records, tmp / "report")
        return records

    def outcome(self, state: dict, records: list, study_s: float) -> Outcome:
        optimum = {r.instance_id: r.best_cost for r in records
                   if r.solver == "exhaustive" and r.status == "ok"}
        heuristic = [r for r in records if r.solver in self.HEURISTICS]
        regular = {r.instance_id for r in records if r.instance_id.startswith("regular")}
        checks = {
            "all_records_ok": _not_ok(records) == 0,
            "exhaustive_p_star_is_1": all(r.metrics.get("p_star") == 1.0 for r in records
                                          if r.solver == "exhaustive"),
            "no_heuristic_below_oracle": all(
                r.instance_id in optimum and r.best_cost >= optimum[r.instance_id] - 1e-9
                for r in heuristic),
        }
        for solver in ("sa", "ts", "ls"):
            finite = sum(1 for r in records if r.solver == solver
                         and r.instance_id in regular
                         and not math.isinf(r.metrics.get("tts", math.inf)))
            checks[f"{solver}_finite_tts_on_90pct_regular"] = finite >= 0.9 * len(regular)
        metrics, notes = _cpu_metrics(records)
        metrics["p_star_mean"] = float(np.mean([r.metrics.get("p_star", 0.0) for r in heuristic]))
        return Outcome(len(records), _not_ok(records), checks, metrics,
                       record_payload(records), notes)


class BsfFixedCalls:
    """c07 best-solution-found study with a fixed call count per solver."""

    name = "bsf_fixed_calls"

    def setup(self, seed: int, smoke: bool) -> dict:
        sizes = (12,) if smoke else (30, 40, 50, 60)
        per_size = 2 if smoke else 5
        graphs = []
        for size in sizes:
            for i in range(per_size):
                inst = instances.gen_erdos_renyi(size, 0.2, derive(seed, self.name, size, i))
                inst.metadata["label"] = f"er0.2-n{size}-{i}"
                graphs.append(inst)
        roster = [
            harness.SolverSpec("sa", "sa", {"reads": 1, "sweeps": 50 if smoke else 500}),
            harness.SolverSpec("ts", "ts", {"restarts": 1}),
            harness.SolverSpec("ls", "ls", {"restarts": 1}),
        ]
        # A budget that never binds: max_calls alone fixes the work.
        cfg = harness.ExperimentConfig(scenario="bsf", solvers=roster, instances=graphs,
                                       seed=derive(seed, self.name, "master"),
                                       time_limit=1e9, num_groups=2)
        warm = harness.ExperimentConfig(scenario="bsf", solvers=roster, time_limit=1e9,
                                        instances=[instances.gen_erdos_renyi(12, 0.2, 0)])
        return {"cfg": cfg, "warm": warm, "calls": 2 if smoke else 3}

    def warm_up(self, state: dict) -> None:
        harness.run_bsf_experiment(state["warm"], max_calls=1)

    def study(self, state: dict, tmp) -> tuple:
        records = harness.run_bsf_experiment(state["cfg"], max_calls=state["calls"])
        return records, harness.fob_by_solver(records)

    def outcome(self, state: dict, out: tuple, study_s: float) -> Outcome:
        records, fob = out
        by_instance: dict[str, list] = {}
        for r in records:
            by_instance.setdefault(r.instance_id, []).append(r)
        checks = {
            "all_records_ok": _not_ok(records) == 0,
            "fixed_call_count": all(r.calls == state["calls"] for r in records),
            "every_instance_credits_a_winner": all(
                any(r.metrics.get("relative_error") == 0.0 for r in group)
                for group in by_instance.values()),
        }
        metrics, notes = _cpu_metrics(records)
        timed = sum(sum(r.timing.values()) for r in records)
        metrics["untimed_share"] = 1.0 - timed / study_s
        metrics["rel_err_mean"] = float(np.mean([r.metrics.get("relative_error", 1.0)
                                                 for r in records]))
        return Outcome(len(records), _not_ok(records), checks, metrics,
                       [record_payload(records), fob], notes)


class TrainC10:
    """c10 generator training: budget-bound L-BFGS over 2**10-amplitude circuits."""

    name = "train_c10"
    P = 4
    TRAIN_SEED = 7

    def setup(self, seed: int, smoke: bool) -> dict:
        n, count = (6, 3) if smoke else (10, 10)
        polys = [formulations.maxcut_qubo(instances.gen_regular(n, 3, derive(seed, self.name, i)))
                 for i in range(count)]
        return {"polys": polys, "budget": 20 if smoke else 300}

    def warm_up(self, state: dict) -> None:
        qaoa.train_generator(state["polys"][:1], "qubo", p=self.P, budget=3, seed=0)

    def study(self, state: dict, tmp):
        return qaoa.train_generator(state["polys"], "qubo", p=self.P,
                                    budget=state["budget"], seed=self.TRAIN_SEED)

    def _mean_gap(self, polys, params) -> float:
        beta, gamma = qaoa.expand_generator(params, self.P)
        gaps = []
        for poly in polys:
            dist = qaoa.qaoa_qubo_simulate(poly, beta, gamma)
            reference = float(dist.costs.min())
            gaps.append((dist.expected_cost() - reference) / abs(reference))
        return float(np.mean(gaps))

    def outcome(self, state: dict, result, study_s: float) -> Outcome:
        trained = self._mean_gap(state["polys"], result.params)
        ramp = self._mean_gap(state["polys"], qaoa.GeneratorParams.ramp())
        checks = {
            "trained_gap_at_most_ramp_gap": trained <= ramp + 1e-12,
            "objective_matches_recomputed_gap": abs(trained - result.objective) <= 1e-9,
        }
        payload = [result.objective, result.evaluations, result.budget_exhausted,
                   result.params.theta_beta.tolist(), result.params.theta_gamma.tolist()]
        return Outcome(result.evaluations, 0, checks, {"train_gap": result.objective}, payload)


class ExactSweep:
    """Oracle and exact circuits: n = 20 Max-Cut TTS plus all tour encodings."""

    name = "exact_sweep"
    P = 8
    QUBO_MAX_K = 4  # the k = 5 one-hot QUBO circuit is a size cap

    def setup(self, seed: int, smoke: bool) -> dict:
        n, graphs = (10, 1) if smoke else (20, 1)
        ks, per_k = ((3, 4), 1) if smoke else ((3, 4, 5), 3)
        cuts = []
        for i in range(graphs):
            inst = instances.gen_regular(n, 3, derive(seed, self.name, "maxcut", i))
            inst.metadata["label"] = f"regular-n{n}-{i}"
            cuts.append(inst)
        tours = [instances.gen_tsp_planar(k + 1, derive(seed, self.name, "tsp", k, i))
                 for k in ks for i in range(per_k)]
        roster = [harness.SolverSpec("exhaustive", "exhaustive"),
                  harness.SolverSpec("qaoa8", "qaoa", {"p": self.P})]
        cfg = harness.ExperimentConfig(scenario="tts", solvers=roster, instances=cuts,
                                       seed=derive(seed, self.name, "master"))
        beta, gamma = qaoa.expand_generator(qaoa.GeneratorParams.ramp(), self.P)
        warm = harness.ExperimentConfig(scenario="tts", solvers=roster,
                                        instances=[instances.gen_regular(8, 3, 0)])
        return {"cfg": cfg, "warm": warm, "tours": tours, "beta": beta, "gamma": gamma}

    def _encodings(self, k: int) -> tuple:
        return ("qubo", "hobo", "xy", "perm") if k <= self.QUBO_MAX_K else ("hobo", "xy", "perm")

    def warm_up(self, state: dict) -> None:
        harness.run_tts_experiment(state["warm"])
        warm_tour = instances.gen_tsp_planar(4, 0)
        for kind in self._encodings(warm_tour.k):
            qaoa.qaoa_tsp_simulate(warm_tour, kind, state["beta"], state["gamma"])

    def study(self, state: dict, tmp) -> tuple:
        records = harness.run_tts_experiment(state["cfg"])
        dists = [
            (index, kind, qaoa.qaoa_tsp_simulate(tour, kind, state["beta"], state["gamma"]))
            for index, tour in enumerate(state["tours"])
            for kind in self._encodings(tour.k)
        ]
        return records, dists

    def outcome(self, state: dict, out: tuple, study_s: float) -> Outcome:
        records, dists = out
        tours = state["tours"]
        checks = {
            "all_records_ok": _not_ok(records) == 0,
            "exhaustive_p_star_is_1": all(r.metrics.get("p_star") == 1.0 for r in records
                                          if r.solver == "exhaustive"),
            "record_p_star_in_unit_interval": all(0.0 <= r.metrics.get("p_star", -1.0) <= 1.0
                                                  for r in records),
            "probabilities_sum_to_1": all(abs(d.norm() - 1.0) <= 1e-9 for _, _, d in dists),
            "tsp_p_star_in_unit_interval": all(0.0 <= d.p_star <= 1.0 for _, _, d in dists),
            "tsp_optimum_within_nearest_neighbour": all(
                solvers.tsp_exhaustive(t).optimal_length
                <= solvers.nearest_neighbor_tsp(t)[1] + 1e-9 for t in tours),
        }
        payload = [record_payload(records), [[i, kind, d.p_star] for i, kind, d in dists]]
        return Outcome(len(records) + len(dists), _not_ok(records), checks, {}, payload)


WORKLOADS = {w.name: w for w in (TtsDesk(), BsfFixedCalls(), TrainC10(), ExactSweep())}
