import configparser
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from optbench import (BinaryPolynomial, SampleSet, Timing, gen_erdos_renyi, gen_regular, harness,
                      maxcut_qubo, merge, qaoa)
from optbench.harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    SolverSpec,
    _instance_records,
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

from conftest import brute_force_cut


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
        record = _instance_records(inst, "tts", [spec], seed, 26)[0]
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


def test_tts_gw_without_hyperplanes_fails_with_its_check():
    # the record failed with "ZeroDivisionError: division by zero", from the
    # p* of the empty sample that no hyperplane drew
    cfg = ExperimentConfig(scenario="tts", solvers=[SolverSpec("gw0", "gw", {"hyperplanes": 0})],
                           instances=small_instances(count=1), seed=0)
    (record,) = run_tts_experiment(cfg)
    assert record.status == "failed"
    assert record.error == "ValueError: hyperplanes must be >= 1, got 0"


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


def test_grid_of_circuit_cells_builds_the_shared_half_table_index_once(monkeypatch):
    # every cell runs on the one half-basis compile of the graph, whose level
    # index over its 2**11 costs is built once and kept
    indexed_sizes = []
    level_index = qaoa._level_index
    monkeypatch.setattr(qaoa, "_level_index",
                        lambda costs: indexed_sizes.append(costs.size) or level_index(costs))
    result = grid_search(SolverSpec("qaoa", "qaoa"), {"p": [1, 2, 3]},
                         [gen_regular(12, 3, seed=4)], master_seed=0)
    assert len(result.table) == 3 and result.best_params is not None
    assert indexed_sizes.count(1 << 11) == 1


def test_a_circuit_record_mirrors_no_state_sized_array(monkeypatch):
    # the record reads p* and the expected cost, both from the half basis;
    # only p*'s few optimal entries go through the full-basis mirror
    mirrored = []
    mirror = qaoa._mirror
    monkeypatch.setattr(qaoa, "_mirror", lambda half: mirrored.append(half.size) or mirror(half))
    cfg = ExperimentConfig(scenario="tts", solvers=[SolverSpec("qaoa8", "qaoa", {"p": 8})],
                           instances=[gen_regular(12, 3, seed=2)], seed=1)
    (record,) = run_tts_experiment(cfg)
    assert record.status == "ok" and {"p_star", "ar"} <= set(record.metrics)
    assert mirrored and max(mirrored) < 1 << 6


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


def _report_records():
    """Two groups, an even-count cell, an infinite TTS, a failed record, a
    ``qaoa_p`` echo, bsf ``c_hat`` values and four solvers with relative errors."""
    def record(solver, index, size, group, metrics, **fields):
        return RunRecord(instance_id=f"g{index}", instance_hash=f"h{index}", solver=solver,
                         solver_kind=solver, config_hash="c", seed=index, scenario="tts",
                         size=size, group=group, metrics=metrics, **fields)

    return [
        record("sa", 0, 6, 0, {"tts": 0.5, "relative_error": 0.0, "c_hat": 1.0}),
        record("sa", 1, 6, 0, {"tts": 1.5, "relative_error": 0.25, "c_hat": 1.25}),
        record("sa", 2, 8, 0, {"tts": math.inf, "relative_error": 0.5, "c_hat": 1.5}),
        record("sa", 3, 10, 1, {"tts": 2.0, "relative_error": 0.0, "c_hat": 1.0}),
        record("ts", 0, 6, 0, {"tts": 0.25, "relative_error": 0.0, "c_hat": 1.0}),
        record("ts", 1, 6, 0, {"tts": 9.0}, status="failed", error="RuntimeError: boom"),
        record("ts", 2, 8, 0, {"tts": 3.0, "relative_error": 0.125, "c_hat": 1.125}),
        record("ts", 3, 10, 1, {"tts": 4.0, "relative_error": 0.0, "c_hat": 1.0}),
        # no tts: the pareto runtime is the solve time, and a record with neither is left out
        record("ls", 0, 6, 0, {"relative_error": 0.75, "c_hat": 1.75}, timing={"solve": 5.0}),
        record("ls", 3, 10, 1, {"relative_error": 0.0, "c_hat": 1.0}),
        record("qaoa8", 0, 6, 0, {"p_star": 0.5, "tts": 1e-5, "qaoa_p": 8}),
        record("qaoa8", 3, 10, 1, {"p_star": 0.0, "tts": math.inf, "qaoa_p": 8}),
    ]


def test_emit_report_contents(tmp_path):
    written = emit_report(_report_records(), tmp_path)
    assert [p.name for p in written] == [
        "records.jsonl", "fob.txt", "summary.txt",
        "plot_c_hat_ls.dat", "plot_c_hat_sa.dat", "plot_c_hat_ts.dat",
        "plot_p_star_qaoa8.dat",
        "plot_relative_error_ls.dat", "plot_relative_error_sa.dat",
        "plot_relative_error_ts.dat",
        "plot_tts_qaoa8.dat", "plot_tts_sa.dat", "plot_tts_ts.dat",
        "pareto.dat",
    ]
    assert all(p.parent == tmp_path for p in written)
    fob_lines = [
        "solver  fob     ",
        "ls      0.5     ",
        "sa      0.5     ",
        "ts      0.666667",
        "",
    ]
    expected = {
        "summary.txt": [
            "== c_hat ==",
            "group  sizes  solver  count  finite  median  p12.5    p87.5  ",
            "0      6-8    ls      1      1       1.75    1.75     1.75   ",
            "0      6-8    sa      3      3       1.25    1.0625   1.4375 ",
            "0      6-8    ts      2      2       1.0625  1.01562  1.10938",
            "1      10-10  ls      1      1       1       1        1      ",
            "1      10-10  sa      1      1       1       1        1      ",
            "1      10-10  ts      1      1       1       1        1      ",
            "",
            "== p_star ==",
            "group  sizes  solver  count  finite  median  p12.5  p87.5",
            "0      6-8    qaoa8   1      1       0.5     0.5    0.5  ",
            "1      10-10  qaoa8   1      1       0       0      0    ",
            "",
            "== relative_error ==",
            "group  sizes  solver  count  finite  median  p12.5     p87.5   ",
            "0      6-8    ls      1      1       0.75    0.75      0.75    ",
            "0      6-8    sa      3      3       0.25    0.0625    0.4375  ",
            "0      6-8    ts      2      2       0.0625  0.015625  0.109375",
            "1      10-10  ls      1      1       0       0         0       ",
            "1      10-10  sa      1      1       0       0         0       ",
            "1      10-10  ts      1      1       0       0         0       ",
            "",
            "== tts ==",
            "group  sizes  solver  count  finite  median  p12.5    p87.5  ",
            "0      6-8    qaoa8   1      1       1e-05   1e-05    1e-05  ",
            "0      6-8    sa      3      2       1       0.625    1.375  ",
            "0      6-8    ts      2      2       1.625   0.59375  2.65625",
            "1      10-10  qaoa8   1      0       inf     inf      inf    ",
            "1      10-10  sa      1      1       2       2        2      ",
            "1      10-10  ts      1      1       4       4        4      ",
            "",
            "== fob ==",
            *fob_lines,
        ],
        "plot_tts_sa.dat": [
            "# size median p12.5 p87.5",
            "6 1 0.625 1.375",
            "8 inf inf inf",
            "10 2 2 2",
            "",
        ],
        "fob.txt": fob_lines,
        "pareto.dat": [
            "# solver runtime relative_error on_front",
            "ls 5 0.75 0",
            "sa 1.5 0.125 1",
            "ts 3 0 1",
            "",
        ],
    }
    for name, lines in expected.items():
        assert (tmp_path / name).read_text() == "\n".join(lines), name


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


@pytest.mark.parametrize("time_limit", [math.nan, math.inf, -1.0])
def test_a_bsf_budget_must_be_positive_and_finite(time_limit):
    # a NaN budget passed "time_limit <= 0" and ended every loop after one call
    with pytest.raises(ConfigError, match="0 < time_limit < inf"):
        ExperimentConfig(scenario="bsf", solvers=[SolverSpec("sa", "sa")], instances=[],
                         time_limit=time_limit)


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "time_limit", "nan"), ("experiment", "time_limit", "inf"),
    ("instances", "density", "nan"), ("instances", "sigma", "inf"), ("instances", "sigma", "nan"),
])
def test_every_float_of_a_config_must_be_finite(section, key, value):
    parser = configparser.ConfigParser()
    kind = "tsp_circular" if key == "sigma" else "erdos_renyi"
    parser.read_dict({"experiment": {"scenario": "tts"},
                      "instances": {"kind": kind, "sizes": "5", "count": "1"},
                      "solver:sa": {"reads": "2"}})
    parser[section][key] = value
    with pytest.raises(ConfigError, match=f"{key} must be finite, got '{value}'"):
        harness.parse_experiment(parser)


@pytest.mark.parametrize("run, scenario", [(run_tts_experiment, "bsf"),
                                           (run_bsf_experiment, "tts")])
def test_a_protocol_rejects_a_config_of_the_other_scenario(run, scenario):
    # a tts config run as bsf skipped both bsf checks, its time_limit of -1 too
    roster = [SolverSpec("sa", "sa", {"reads": 2, "sweeps": 2})]
    cfg = ExperimentConfig(scenario=scenario, solvers=roster, instances=small_instances(count=1),
                           time_limit={"tts": -1.0, "bsf": 1.0}[scenario])
    with pytest.raises(ConfigError, match=f"got '{scenario}'"):
        run(cfg)


@pytest.mark.parametrize("key", ["degre", "size", "seed"])
def test_an_unknown_instances_key_is_a_config_error(key):
    section = {"kind": "regular", "sizes": "6", "count": "1", key: "4"}
    with pytest.raises(ConfigError, match=f"no key '{key}' \\(it takes kind, sizes, count, "
                                          "degree, density, weights, sigma, glob\\)"):
        harness.build_instances(section, 0)
    # a key that another instance kind reads is accepted
    (inst,) = harness.build_instances({"kind": "regular", "sizes": "6", "count": "1",
                                       "sigma": "2.0", "glob": "*"}, 0)
    assert inst.num_nodes == 6


@pytest.mark.parametrize("kind", list(harness.INSTANCE_KINDS))
def test_an_instance_kind_without_its_keys_takes_its_generators_defaults(kind):
    generator, _ = harness.INSTANCE_KINDS[kind]
    (inst,) = harness.build_instances({"kind": kind, "sizes": "6", "count": "1"}, 3)
    expected = generator(6, seed=derive_seed(3, "instance", kind, 6, 0))
    assert instance_hash(inst) == instance_hash(expected)
    assert inst.metadata == {**expected.metadata, "label": f"{kind}-n6-000"}


def test_each_experiment_key_sets_its_field_and_a_missing_one_the_default():
    parser = configparser.ConfigParser()
    parser.read_dict({"experiment": {}, "instances": {"kind": "regular", "sizes": "6",
                                                      "count": "1"}, "solver:sa": {}})
    cfg = harness.parse_experiment(parser)
    assert cfg == ExperimentConfig(solvers=cfg.solvers, instances=cfg.instances)
    given = {"scenario": "bsf", "seed": "7", "time_limit": "2.5", "oracle_cap": "20",
             "groups": "2", "output": "somewhere", "jobs": "1"}
    parser["experiment"].update(given)
    cfg = harness.parse_experiment(parser)
    assert {key: getattr(cfg, name) for key, (name, _) in harness.EXPERIMENT_KEYS.items()} == {
        "scenario": "bsf", "seed": 7, "time_limit": 2.5, "oracle_cap": 20, "groups": 2,
        "output": Path("somewhere"), "jobs": 1}


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
    # not finite: NaN passes every "> 0" check, and SA at t0 = nan accepted
    # every uphill move
    ("sa", {"t0": "nan"}),
    ("sa", {"t0": math.inf}),
    ("sa", {"kb": math.nan}),
    ("gw", {"tol": "-inf"}),
    ("qaoa", {"seconds_per_layer": math.nan}),
    ("qaoa", {"theta_beta": [1.0, math.nan]}),
    ("qaoa", {"theta_gamma": [0, math.inf]}),
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
    record = _instance_records(inst, "tts", [spec], 3, 26)[0]
    assert record.config_hash == config_hash({"reads": "7", "t0": 2, "kb": 1})
    assert record.status == "ok" and record.total_draws == 7


def test_grid_search_rejects_unknown_key_before_running(oracle_calls):
    with pytest.raises(ConfigError, match="'sweep'"):
        grid_search(SolverSpec("sa", "sa"), {"sweep": [1, 50]}, small_instances(count=1))
    assert oracle_calls == []


def _qaoa_record(params):
    spec = SolverSpec("q", "qaoa", {"p": 3, **params})
    return _instance_records(small_instances(count=1)[0], "tts", [spec], 0, 26)[0]


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


def test_a_gset_file_runs_a_tts_roster_through_kind_files(tmp_path):
    # Gset (rudy) format: a header "n m", then 1-based "u v w" lines with
    # signed integer weights; here a cube with +-1 weights
    path = tmp_path / "cube.gset"
    path.write_text("8 12\n1 2 1\n1 3 -1\n1 5 1\n2 4 1\n2 6 -1\n3 4 1\n3 7 1\n"
                    "4 8 -1\n5 6 1\n5 7 -1\n6 8 1\n7 8 1\n")
    (inst,) = harness.build_instances({"kind": "files", "glob": str(tmp_path / "*")}, 0)
    assert inst.num_nodes == 8 and inst.edges[:2] == ((0, 1, 1.0), (0, 2, -1.0))
    roster = [SolverSpec("sa", "sa", {"reads": 20, "sweeps": 5}),
              SolverSpec("ts", "ts", {"restarts": 2}), SolverSpec("ls", "ls", {"restarts": 5}),
              SolverSpec("gw", "gw", {"hyperplanes": 20}), SolverSpec("exhaustive", "exhaustive"),
              SolverSpec("qaoa2", "qaoa", {"p": 2})]
    records = run_tts_experiment(ExperimentConfig(scenario="tts", solvers=roster,
                                                  instances=[inst], seed=1))
    assert [r.status for r in records] == ["ok"] * len(roster)
    (exhaustive,) = [r for r in records if r.solver == "exhaustive"]
    assert exhaustive.best_cost == -brute_force_cut(inst)[1]


def test_a_malformed_manifest_is_a_config_error(tmp_path):
    write_instance_files(small_instances(count=1), tmp_path)
    (tmp_path / "manifest.json").write_text('[{"id": "a"}]')
    with pytest.raises(ConfigError, match="manifest"):
        harness.build_instances({"kind": "files", "glob": str(tmp_path / "*")}, 0)


def test_bsf_builds_each_instances_arrays_once_before_any_call(monkeypatch):
    # Each event names the polynomial it concerns: the builds of its term
    # groups and of its quadratic arrays, the neighbour lists last (a call
    # that finds them cached is no build), then every solver call on it.
    events = []
    neighbors = BinaryPolynomial.neighbors
    terms_by_degree = BinaryPolynomial.terms_by_degree
    run = harness.run_classical_solver

    def spy_neighbors(poly):
        built = "neighbors" not in poly._derived
        result = neighbors(poly)
        if built:
            events.append(("quadratic", id(poly)))
        return result

    def spy_groups(poly):
        if "by_degree" not in poly._derived:
            events.append(("by_degree", id(poly)))
        return terms_by_degree(poly)

    def spy_run(spec, inst, poly, seed):
        events.append(("call", id(poly)))
        return run(spec, inst, poly, seed)

    monkeypatch.setattr(BinaryPolynomial, "neighbors", spy_neighbors)
    monkeypatch.setattr(BinaryPolynomial, "terms_by_degree", spy_groups)
    monkeypatch.setattr(harness, "run_classical_solver", spy_run)
    cfg = ExperimentConfig(
        scenario="bsf",
        solvers=[SolverSpec("sa", "sa", {"reads": 1, "sweeps": 4}),
                 SolverSpec("ts", "ts", {"restarts": 1}),
                 SolverSpec("ls", "ls", {"restarts": 2}),
                 SolverSpec("gw", "gw", {"hyperplanes": 10})],
        instances=small_instances(n=8, count=2), seed=3, time_limit=60.0)
    records = run_bsf_experiment(cfg, max_calls=3)
    assert all(r.status == "ok" and r.calls == 3 for r in records)
    polys = list(dict.fromkeys(key for _, key in events))
    assert len(polys) == 2
    for key in polys:
        mine = [event for event, of in events if of == key]
        assert mine == ["by_degree", "quadratic"] + ["call"] * 12


# ----------------------------------------------------------------------
# Metamorphic check: seeds derive from solver names, not roster positions
# ----------------------------------------------------------------------

def test_reversing_a_tts_roster_leaves_every_non_timing_output_unchanged():
    roster = [SolverSpec("sa", "sa", {"reads": 20, "sweeps": 5}),
              SolverSpec("ts", "ts", {"restarts": 2}), SolverSpec("ls", "ls", {"restarts": 2}),
              SolverSpec("gw", "gw", {"hyperplanes": 5}), SolverSpec("exhaustive", "exhaustive"),
              SolverSpec("qaoa2", "qaoa", {"p": 2})]
    instances = [gen_erdos_renyi(9, 0.5, seed, weights="uniform") for seed in range(2)]

    def outputs(solvers):
        cfg = ExperimentConfig(scenario="tts", solvers=solvers, instances=instances, seed=7)
        return {(r.instance_id, r.solver): (
            r.status, r.best_cost, r.total_draws, r.calls,
            {key: value for key, value in r.metrics.items() if key not in ("tts", "tts_oh")})
            for r in run_tts_experiment(cfg)}

    forward = outputs(roster)
    assert len(forward) == 12 and all(out[0] == "ok" for out in forward.values())
    assert outputs(roster[::-1]) == forward
