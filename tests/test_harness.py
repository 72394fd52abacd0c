import json
import math
import time

import pytest

from optbench import SampleSet, Timing, gen_erdos_renyi, gen_regular, harness, maxcut_qubo, merge
from optbench.harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    SolverSpec,
    _tts_task,
    config_hash,
    derive_seed,
    emit_report,
    fob_by_solver,
    grid_search,
    instance_from_dict,
    instance_hash,
    instance_id,
    instance_to_dict,
    load_records,
    oracle_table,
    run_bsf_experiment,
    run_tts_experiment,
    save_records,
    summarize_groups,
    write_instance_files,
)


def small_instances(n=6, count=4, base_seed=0):
    return [gen_regular(n, 3, seed=base_seed + i) for i in range(count)]


# ----------------------------------------------------------------------
# Identities
# ----------------------------------------------------------------------

def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(1, "inst", "sa")
    assert a == derive_seed(1, "inst", "sa")
    assert a != derive_seed(1, "inst", "ts")
    assert a != derive_seed(2, "inst", "sa")


def test_instance_identity_stable():
    inst = gen_regular(8, 3, seed=3)
    again = gen_regular(8, 3, seed=3)
    assert instance_hash(inst) == instance_hash(again)
    assert instance_id(inst) == instance_id(again)


def test_config_hash_ignores_key_order():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# ----------------------------------------------------------------------
# TTS protocol
# ----------------------------------------------------------------------

def test_tts_exhaustive_solver_path():
    cfg = ExperimentConfig(
        scenario="tts",
        solvers=[SolverSpec("exhaustive", "exhaustive")],
        instances=small_instances(count=2),
        seed=1,
    )
    records = run_tts_experiment(cfg)
    assert len(records) == 2
    for record in records:
        assert record.status == "ok"
        assert record.metrics["p_star"] == 1.0
        assert record.metrics["tts"] == pytest.approx(record.timing["solve"])


def test_tts_includes_qaoa_layer_metrics():
    cfg = ExperimentConfig(
        scenario="tts",
        solvers=[SolverSpec("qaoa8", "qaoa", {"p": 8})],
        instances=small_instances(count=2),
        seed=2,
    )
    records = run_tts_experiment(cfg)
    for record in records:
        assert record.status == "ok"
        assert 0.0 < record.metrics["p_star"] <= 1.0
        assert record.metrics["tts_layers"] >= 1
        assert record.metrics["tts"] == pytest.approx(
            record.metrics["tts_layers"] * 1e-6
        )


def test_tts_zero_hit_heuristic_records_infinite_tts():
    # A single local-search restart can miss the optimum; hunt a seed where
    # it does, then check the record carries an infinite TTS through
    # serialization and back.
    for seed in range(60):
        inst = gen_regular(14, 3, seed=seed)
        poly = maxcut_qubo(inst)
        _, best = poly.argmin_exhaustive()
        spec = SolverSpec("ls1", "ls", {"restarts": 1})
        record = _tts_task((inst, spec, seed, 26))
        if record.metrics["p_star"] == 0.0:
            assert record.metrics["tts"] == math.inf
            payload = record.to_dict()
            assert payload["metrics"]["tts"] == "inf"
            back = RunRecord.from_dict(json.loads(json.dumps(payload)))
            assert back.metrics["tts"] == math.inf
            return
    pytest.fail("no missing restart found within 60 seeds")


def test_tts_skips_oversized_instances():
    inst = gen_regular(30, 3, seed=0)
    cfg = ExperimentConfig(
        scenario="tts",
        solvers=[SolverSpec("sa", "sa", {"reads": 2, "sweeps": 2})],
        instances=[inst],
        seed=0,
        oracle_cap=20,
    )
    records = run_tts_experiment(cfg)
    assert records[0].status == "skipped"
    assert "cap" in records[0].error


def test_tts_deterministic_modulo_timing():
    cfg = ExperimentConfig(
        scenario="tts",
        solvers=[
            SolverSpec("sa", "sa", {"reads": 20, "sweeps": 5}),
            SolverSpec("ts", "ts", {"restarts": 10}),
        ],
        instances=small_instances(count=3),
        seed=7,
    )
    first = run_tts_experiment(cfg)
    second = run_tts_experiment(cfg)
    for a, b in zip(first, second):
        assert a.best_cost == b.best_cost
        assert a.metrics["p_star"] == b.metrics["p_star"]
        assert a.metrics["ar"] == b.metrics["ar"]
        assert a.seed == b.seed


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count BinaryPolynomial.argmin_exhaustive calls."""
    from optbench.model import BinaryPolynomial

    calls = []
    original = BinaryPolynomial.argmin_exhaustive

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BinaryPolynomial, "argmin_exhaustive", counted)
    return calls


def test_tts_runs_oracle_once_per_instance(oracle_calls):
    cfg = ExperimentConfig(
        scenario="tts",
        solvers=[
            SolverSpec("sa", "sa", {"reads": 5, "sweeps": 2}),
            SolverSpec("ts", "ts", {"restarts": 2}),
            SolverSpec("ls", "ls", {"restarts": 2}),
        ],
        instances=small_instances(count=3),
        seed=4,
    )
    records = run_tts_experiment(cfg)
    assert len(records) == 9 and all(r.status == "ok" for r in records)
    assert len(oracle_calls) == 3


# ----------------------------------------------------------------------
# BSF protocol
# ----------------------------------------------------------------------

def test_bsf_at_least_one_call_when_budget_tiny():
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[SolverSpec("sa", "sa", {"reads": 5, "sweeps": 5})],
        instances=small_instances(count=1),
        seed=3,
        time_limit=1e-9,
    )
    records = run_bsf_experiment(cfg)
    assert records[0].calls == 1
    assert records[0].total_draws == 5


def test_bsf_single_solver_roster_gets_fob_one():
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[SolverSpec("sa", "sa", {"reads": 5, "sweeps": 5})],
        instances=small_instances(count=3),
        seed=4,
        time_limit=0.05,
    )
    records = run_bsf_experiment(cfg)
    assert fob_by_solver(records)["sa"] == 1.0


def test_bsf_dominant_solver_takes_all_credit():
    # The exhaustive solver always returns the optimum; a single random
    # bipartition essentially never does on these instances.  Verify the
    # dominance before asserting the FOB split.
    instances = [gen_erdos_renyi(16, 0.5, seed=40 + i) for i in range(4)]
    weak = SolverSpec("weak", "sa", {"reads": 1, "sweeps": 1, "t0": 1e9, "alpha": 0.5})
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[SolverSpec("oracle", "exhaustive"), weak],
        instances=instances,
        seed=5,
        time_limit=1e-9,
    )
    records = run_bsf_experiment(cfg, max_calls=1)
    by_solver = {}
    for record in records:
        by_solver.setdefault(record.solver, []).append(record)
    optima = {instance_id(i): maxcut_qubo(i).argmin_exhaustive()[1] for i in instances}
    strictly_worse = all(
        r.best_cost > optima[r.instance_id] + 1e-9 for r in by_solver["weak"]
    )
    if not strictly_worse:
        pytest.skip("random sample hit an optimum; dominance premise broken")
    fobs = fob_by_solver(records)
    assert fobs["oracle"] == 1.0
    assert fobs["weak"] == 0.0


def test_bsf_deterministic_with_fixed_call_budget():
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[
            SolverSpec("sa", "sa", {"reads": 4, "sweeps": 4}),
            SolverSpec("ls", "ls", {"restarts": 4}),
        ],
        instances=small_instances(n=8, count=3),
        seed=11,
        time_limit=60.0,
    )
    first = run_bsf_experiment(cfg, max_calls=2)
    second = run_bsf_experiment(cfg, max_calls=2)
    for a, b in zip(first, second):
        assert a.best_cost == b.best_cost
        assert a.total_draws == b.total_draws
        assert a.calls == b.calls == 2
        assert a.metrics == b.metrics


def test_bsf_budget_respected_between_calls():
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[SolverSpec("sa", "sa", {"reads": 40, "sweeps": 20})],
        instances=[gen_regular(30, 3, seed=1)],
        seed=6,
        time_limit=0.25,
    )
    start = time.perf_counter()
    records = run_bsf_experiment(cfg)
    elapsed = time.perf_counter() - start
    record = records[0]
    assert record.calls >= 1
    # the loop only checks between calls: overshoot is at most ~one call
    per_call = elapsed / record.calls
    assert elapsed < 0.25 + 3 * per_call + 0.2


def test_bsf_failed_solver_excluded_from_pool():
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[
            SolverSpec("sa", "sa", {"reads": 3, "sweeps": 3}),
            SolverSpec("gw", "gw", {"hyperplanes": 10, "max_sweeps": 1}),
        ],
        instances=small_instances(count=1),
        seed=8,
        time_limit=1e-9,
    )
    records = run_bsf_experiment(cfg)
    by_solver = {r.solver: r for r in records}
    assert by_solver["gw"].status == "failed"
    assert "c_hat" not in by_solver["gw"].metrics
    assert by_solver["sa"].metrics["c_hat"] == 1.0


def _empty_ls(monkeypatch):
    """Make every call of the solver named ``empty`` return an empty sample set."""
    solver = harness.run_classical_solver

    def call(spec, inst, poly, seed):
        if spec.name == "empty":
            return SampleSet.empty(inst.num_nodes)
        return solver(spec, inst, poly, seed)

    monkeypatch.setattr(harness, "run_classical_solver", call)


def test_bsf_empty_sample_set_is_a_failed_record(monkeypatch):
    _empty_ls(monkeypatch)
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[
            SolverSpec("empty", "ls"),
            SolverSpec("sa", "sa", {"reads": 3, "sweeps": 3}),
        ],
        instances=small_instances(count=1),
        seed=8,
        time_limit=1e-9,
    )
    empty, sa = run_bsf_experiment(cfg)
    assert empty.status == "failed" and "empty sample set" in empty.error
    assert empty.calls == 0 and empty.best_cost is None
    assert sa.status == "ok" and sa.metrics["c_hat"] == 1.0


def test_bsf_ls_without_restarts_fails_at_its_first_call(monkeypatch):
    calls = []
    solver = harness.run_classical_solver

    def counting_call(*args):
        calls.append(args)
        return solver(*args)

    monkeypatch.setattr(harness, "run_classical_solver", counting_call)
    cfg = ExperimentConfig(scenario="bsf", solvers=[SolverSpec("ls0", "ls", {"restarts": 0})],
                           instances=[gen_regular(8, 3, seed=0)], time_limit=0.2)
    (record,) = run_bsf_experiment(cfg)
    assert record.status == "failed" and "restarts must be >= 1, got 0" in record.error
    assert len(calls) == 1


def test_bsf_record_timing_sums_every_calls_phases(monkeypatch):
    phases = iter([Timing(0.5, 0.25, 0.125), Timing(0.25, 1.0, 0.0), Timing(2.0, 0.5, 0.375)])

    def fixed_call(spec, inst, poly, seed):
        return SampleSet.from_draws(inst.num_nodes, [("0" * inst.num_nodes, 0.0)],
                                    timing=next(phases))

    monkeypatch.setattr(harness, "run_classical_solver", fixed_call)
    cfg = ExperimentConfig(scenario="bsf", solvers=[SolverSpec("sa", "sa")],
                           instances=small_instances(count=1), time_limit=1e9)
    (record,) = run_bsf_experiment(cfg, max_calls=3)
    assert record.status == "ok" and record.calls == 3
    assert record.timing == {"preprocess": 2.75, "solve": 1.75, "postprocess": 0.5}


@pytest.mark.parametrize("spec", [
    SolverSpec("empty", "ls"),
    SolverSpec("ls", "ls", {"restarts": 1}),
    SolverSpec("sa", "sa", {"reads": 2, "sweeps": 2}),
], ids=["empty", "ls", "sa"])
@pytest.mark.parametrize("time_limit, max_calls", [(1e9, 3), (0.02, None)],
                         ids=["max_calls", "budget"])
def test_bsf_merges_once_per_record(monkeypatch, spec, time_limit, max_calls):
    merged = []

    def counting_merge(*sets):
        merged.append(len(sets))
        return merge(*sets)

    monkeypatch.setattr(harness, "merge", counting_merge)
    _empty_ls(monkeypatch)
    cfg = ExperimentConfig(scenario="bsf", solvers=[spec], instances=small_instances(count=2),
                           seed=3, time_limit=time_limit)
    records = run_bsf_experiment(cfg, max_calls=max_calls)
    assert len(merged) == len(records) == 2
    for record, pooled in zip(records, merged):
        if spec.name == "empty":  # an empty pool has no best cost
            assert record.status == "failed" and record.calls == 0
        else:
            assert record.status == "ok" and record.calls == pooled
    if max_calls is not None:
        assert merged == [max_calls] * 2


def test_bsf_roster_rejects_a_circuit_solver_by_name():
    roster = [SolverSpec("sa", "sa"), SolverSpec("qaoa8", "qaoa")]
    with pytest.raises(ConfigError, match="'qaoa8'"):
        ExperimentConfig(scenario="bsf", solvers=roster, instances=[])
    ExperimentConfig(scenario="tts", solvers=roster, instances=[])


# ----------------------------------------------------------------------
# Grid search
# ----------------------------------------------------------------------

def test_grid_single_cell_returned():
    spec = SolverSpec("sa", "sa", {"reads": 5})
    result = grid_search(spec, {"sweeps": [5]}, small_instances(count=2), master_seed=0)
    assert result.best_params == {"sweeps": 5}
    assert len(result.table) == 1


def test_grid_runs_oracle_once_per_tuning_instance(oracle_calls):
    spec = SolverSpec("sa", "sa", {"reads": 5})
    result = grid_search(spec, {"sweeps": [1, 2]}, small_instances(count=2), master_seed=0)
    assert len(result.table) == 2
    assert len(oracle_calls) == 2


def test_grid_empty_rejected():
    with pytest.raises(ConfigError):
        grid_search(SolverSpec("sa", "sa"), {}, small_instances(count=1))


def test_grid_disjointness_guard():
    tuning = small_instances(count=2)
    benchmark_ids = {instance_id(tuning[0])}
    with pytest.raises(ConfigError):
        grid_search(
            SolverSpec("sa", "sa"),
            {"sweeps": [2]},
            tuning,
            benchmark_ids=benchmark_ids,
        )


def test_grid_selects_argmin_of_table_and_calibrates_sweeps():
    spec = SolverSpec("sa", "sa", {"reads": 100})
    tuning = [gen_regular(12, 3, seed=70 + i) for i in range(10)]
    result = grid_search(spec, {"sweeps": [1, 20]}, tuning, master_seed=1)
    values = {tuple(cell.items()): value for cell, value in result.table}
    best_value = min(values.values())
    assert values[tuple(result.best_params.items())] == best_value
    # calibration on this fixed tuning set: annealing long enough to reach
    # the optimum beats one-sweep restarts on mean time to solution
    assert result.best_params == {"sweeps": 20}


# ----------------------------------------------------------------------
# Reporting and persistence
# ----------------------------------------------------------------------

def test_emit_report_round_trip(tmp_path):
    cfg = ExperimentConfig(
        scenario="tts",
        solvers=[SolverSpec("sa", "sa", {"reads": 10, "sweeps": 5})],
        instances=small_instances(count=3),
        seed=9,
    )
    records = run_tts_experiment(cfg)
    written = emit_report(records, tmp_path)
    names = {p.name for p in written}
    assert "records.jsonl" in names
    assert "summary.txt" in names
    loaded = load_records(tmp_path / "records.jsonl")
    assert len(loaded) == len(records)
    assert loaded[0].metrics.keys() == records[0].metrics.keys()
    summary = (tmp_path / "summary.txt").read_text()
    assert "median" in summary and "p12.5" in summary and "p87.5" in summary


def test_group_table_counts_cover_all_records():
    cfg = ExperimentConfig(
        scenario="tts",
        solvers=[SolverSpec("sa", "sa", {"reads": 5, "sweeps": 5})],
        instances=small_instances(n=6, count=2) + small_instances(n=8, count=2, base_seed=50),
        seed=10,
        num_groups=2,
    )
    records = run_tts_experiment(cfg)
    rows = summarize_groups(records, "tts")
    assert sum(r["count"] for r in rows) == len(records)
    assert {r["group"] for r in rows} == {0, 1}


def test_save_load_handles_infinity(tmp_path):
    record = RunRecord(
        instance_id="x", instance_hash="h", solver="s", solver_kind="sa",
        config_hash="c", seed=0, scenario="tts", size=5,
        metrics={"tts": math.inf},
    )
    path = tmp_path / "r.jsonl"
    save_records([record], path)
    text = path.read_text()
    assert '"inf"' in text
    assert load_records(path)[0].metrics["tts"] == math.inf


def test_instance_files_round_trip(tmp_path):
    from optbench import gen_tsp_circular

    instances = small_instances(count=2) + [gen_tsp_circular(5, 0.8, seed=1)]
    written = write_instance_files(instances, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest) == 3
    payload = instance_to_dict(instances[2])
    rebuilt = instance_from_dict(json.loads(json.dumps(payload)))
    assert rebuilt.num_locations == 5
    import numpy as np

    assert np.allclose(rebuilt.distances, instances[2].distances, atol=1e-12)


def test_oracle_table_handles_caps():
    rows = oracle_table(small_instances(count=1) + [gen_regular(30, 3, seed=2)], cap=20)
    assert rows[0]["status"] == "ok"
    assert "optimal_cost" in rows[0]
    assert rows[1]["status"] == "skipped"


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="nope", solvers=[SolverSpec("sa", "sa")], instances=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="tts", solvers=[], instances=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(
            scenario="bsf",
            solvers=[SolverSpec("sa", "sa")],
            instances=[],
            time_limit=0.0,
        )
    with pytest.raises(ConfigError):
        SolverSpec("x", "mystery")


@pytest.mark.parametrize("field", ["num_groups", "jobs"])
@pytest.mark.parametrize("value", [0, -1])
def test_groups_and_jobs_below_one_are_config_errors(field, value):
    name = {"num_groups": "groups"}.get(field, field)
    with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {value}"):
        ExperimentConfig(scenario="tts", solvers=[SolverSpec("sa", "sa")], instances=[],
                         **{field: value})
    ExperimentConfig(scenario="tts", solvers=[SolverSpec("sa", "sa")], instances=[],
                     **{field: 1})


def test_bsf_exhaustive_terminates_early():
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[SolverSpec("oracle", "exhaustive")],
        instances=small_instances(count=1),
        seed=12,
        time_limit=30.0,
    )
    records = run_bsf_experiment(cfg)
    assert records[0].calls == 1
    assert records[0].metrics["terminated_early"] is True


# ----------------------------------------------------------------------
# Solver settings
# ----------------------------------------------------------------------

def test_solver_spec_rejects_unknown_parameter_by_name():
    with pytest.raises(ConfigError, match="'sweep'"):
        SolverSpec("sa", "sa", {"sweep": 1})
    with pytest.raises(ConfigError, match="'reads'"):
        SolverSpec("q", "qaoa", {"reads": 5})
    with pytest.raises(ConfigError, match="greedy"):
        SolverSpec("g", "greedy", {"restarts": 5})


@pytest.mark.parametrize("kind, params", [
    ("sa", {"reads": "ten"}),
    ("sa", {"t0": [1, 2]}),
    ("gw", {"tol": "tight"}),
    ("qaoa", {"theta_beta": "1,x"}),
])
def test_solver_spec_rejects_malformed_value(kind, params):
    (key,) = params
    with pytest.raises(ConfigError, match=key):
        SolverSpec("s", kind, params)


def test_solver_spec_casts_once_and_hashes_raw_params():
    spec = SolverSpec("sa", "sa", {"reads": "7", "t0": 2, "kb": 1})
    assert spec.kwargs == {"reads": 7, "t0": 2.0, "kb": 1.0}
    assert type(spec.kwargs["t0"]) is float
    assert spec.params == {"reads": "7", "t0": 2, "kb": 1}
    inst = small_instances(count=1)[0]
    record = _tts_task((inst, spec, 3, 26))
    assert record.config_hash == config_hash({"reads": "7", "t0": 2, "kb": 1})
    assert record.status == "ok" and record.total_draws == 7


def test_grid_search_rejects_unknown_key_before_running(oracle_calls):
    with pytest.raises(ConfigError, match="'sweep'"):
        grid_search(SolverSpec("sa", "sa"), {"sweep": [1, 50]}, small_instances(count=1))
    assert oracle_calls == []


def _qaoa_record(params):
    spec = SolverSpec("q", "qaoa", {"p": 3, **params})
    return _tts_task((small_instances(count=1)[0], spec, 0, 26))


def test_qaoa_lone_theta_is_used_and_the_other_is_the_ramp():
    beta = [1.0, -1.0, 0.5, 0.0, 0.0]
    lone = _qaoa_record({"theta_beta": beta})
    both = _qaoa_record({"theta_beta": beta, "theta_gamma": [0, 1, 0, 0, 0]})
    ramp = _qaoa_record({})
    assert lone.metrics == both.metrics
    assert lone.metrics["p_star"] != ramp.metrics["p_star"]
    gamma_only = _qaoa_record({"theta_gamma": [0, 1, 0.5, 0, 0]})
    assert gamma_only.metrics["p_star"] != ramp.metrics["p_star"]


# ----------------------------------------------------------------------
# One compiled Max-Cut problem per instance when a circuit is in the roster
# ----------------------------------------------------------------------

@pytest.fixture
def exact_layer_calls(monkeypatch):
    """Count cut polynomials, cost tables and exhaustive enumerations built."""
    from optbench import formulations
    from optbench.model import BinaryPolynomial

    calls = dict.fromkeys(("maxcut_qubo", "cost_vector", "argmin_exhaustive"), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner in (formulations, harness):
        count(owner, "maxcut_qubo")
    count(BinaryPolynomial, "cost_vector")
    count(BinaryPolynomial, "argmin_exhaustive")
    return calls


SAMPLING_ROSTER = [SolverSpec("sa", "sa", {"reads": 5, "sweeps": 2}),
                   SolverSpec("exhaustive", "exhaustive")]


def test_a_circuit_roster_builds_one_table_per_instance_and_no_oracle(exact_layer_calls):
    roster = SAMPLING_ROSTER + [SolverSpec("qaoa2", "qaoa", {"p": 2})]
    cfg = ExperimentConfig(scenario="tts", solvers=roster, instances=small_instances(count=3),
                           seed=4)
    records = run_tts_experiment(cfg)
    assert len(records) == 9 and all(r.status == "ok" for r in records)
    # the circuit's half table, then the exhaustive solver's own enumeration
    assert exact_layer_calls == {"maxcut_qubo": 3, "cost_vector": 6, "argmin_exhaustive": 3}
    alone = run_tts_experiment(ExperimentConfig(scenario="tts", solvers=SAMPLING_ROSTER,
                                                instances=small_instances(count=3), seed=4))
    untimed = ("p_star", "ar", "c", "relative_error")
    for ours, theirs in zip([r for r in records if r.solver != "qaoa2"], alone):
        assert (ours.solver, ours.best_cost) == (theirs.solver, theirs.best_cost)
        assert [ours.metrics[key] for key in untimed] == [theirs.metrics[key] for key in untimed]


def test_a_roster_without_a_circuit_keeps_the_streamed_oracle(exact_layer_calls):
    cfg = ExperimentConfig(scenario="tts", solvers=SAMPLING_ROSTER,
                           instances=small_instances(count=3), seed=4)
    assert all(r.status == "ok" for r in run_tts_experiment(cfg))
    assert exact_layer_calls == {"maxcut_qubo": 3, "cost_vector": 6, "argmin_exhaustive": 6}


def test_a_failed_compile_fails_only_the_circuit_records(monkeypatch, oracle_calls):
    from optbench import qaoa

    monkeypatch.setitem(qaoa._ENCODINGS, "qubo", ("full", 3))  # 5 stored qubits are over it
    roster = [SolverSpec("sa", "sa", {"reads": 20, "sweeps": 5}),
              SolverSpec("qaoa2", "qaoa", {"p": 2})]
    cfg = ExperimentConfig(scenario="tts", solvers=roster, instances=small_instances(count=2),
                           seed=1)
    records = run_tts_experiment(cfg)
    assert len(oracle_calls) == 2  # the streamed oracle stands in for the table
    for record in records:
        if record.solver == "sa":
            assert record.status == "ok" and "p_star" in record.metrics
        else:
            assert record.status == "failed"
            assert record.error.startswith("SizeCapError") and "cap 3" in record.error


# ----------------------------------------------------------------------
# Instance files against their manifest
# ----------------------------------------------------------------------

def test_an_instance_file_must_match_its_manifest_hash(tmp_path):
    instances = small_instances(count=2)
    write_instance_files(instances, tmp_path)
    files = {"kind": "files", "glob": str(tmp_path / "*")}
    assert sorted(map(instance_hash, harness.build_instances(files, 0))) == sorted(
        map(instance_hash, instances))
    edited = tmp_path / f"{instance_id(instances[0])}.txt"
    header, first, *rest = edited.read_text().splitlines()
    u, v, _ = first.split()
    edited.write_text("\n".join([header, f"{u} {v} 2.0", *rest]) + "\n")
    with pytest.raises(ConfigError, match=edited.name):
        harness.build_instances(files, 0)
    # a file the manifest does not list is read as before
    unlisted = tmp_path / "more" / "extra.txt"
    unlisted.parent.mkdir()
    edited.rename(unlisted)
    (inst,) = harness.build_instances({"kind": "files", "glob": str(unlisted)}, 0)
    assert inst.metadata["label"] == "extra" and inst.edges[0][2] == 2.0


def test_a_malformed_manifest_is_a_config_error(tmp_path):
    write_instance_files(small_instances(count=1), tmp_path)
    (tmp_path / "manifest.json").write_text('[{"id": "a"}]')
    with pytest.raises(ConfigError, match="manifest"):
        harness.build_instances({"kind": "files", "glob": str(tmp_path / "*")}, 0)
