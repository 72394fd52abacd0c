import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from optbench.cli import main
from optbench.harness import GRID_OBJECTIVES, load_config, load_records, parse_experiment


CONFIG = """
[experiment]
scenario = tts
seed = 5
output = {out}

[instances]
kind = regular
sizes = 6
count = 2
degree = 3

[solver:sa]
kind = sa
reads = 10
sweeps = 5

[solver:exhaustive]
kind = exhaustive
"""

BSF_CONFIG = """
[experiment]
scenario = bsf
seed = 5
time_limit = 0.05
output = {out}

[instances]
kind = regular
sizes = 8
count = 2
degree = 3

[solver:sa]
kind = sa
reads = 5
sweeps = 5

[solver:ls]
kind = ls
restarts = 5
"""

GRID_CONFIG = """
[experiment]
scenario = tts
seed = 2

[instances]
kind = regular
sizes = 6
count = 2
degree = 3

[solver:sa]
kind = sa
reads = 10

[grid:sa]
sweeps = 2, 5
"""


def write_config(tmp_path, template):
    out = tmp_path / "out"
    path = tmp_path / "bench.cfg"
    path.write_text(template.format(out=out))
    return path, out


def test_run_tts_and_report(tmp_path, capsys):
    cfg, out = write_config(tmp_path, CONFIG)
    assert main(["run", "--config", str(cfg)]) == 0
    records = load_records(out / "records.jsonl")
    assert len(records) == 4  # 2 instances x 2 solvers
    assert (out / "summary.txt").exists()
    report_dir = tmp_path / "report2"
    assert main(["report", "--records", str(out / "records.jsonl"),
                 "--out", str(report_dir)]) == 0
    assert (report_dir / "summary.txt").exists()


def test_run_bsf(tmp_path):
    cfg, out = write_config(tmp_path, BSF_CONFIG)
    assert main(["run", "--config", str(cfg)]) == 0
    records = load_records(out / "records.jsonl")
    assert all(r.scenario == "bsf" for r in records)
    assert (out / "fob.txt").exists()


def test_generate_and_oracle(tmp_path):
    cfg, _ = write_config(tmp_path, CONFIG)
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(data_dir)]) == 0
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert len(manifest) == 2
    oracle_dir = tmp_path / "oracle"
    assert main(["oracle", "--config", str(cfg), "--out", str(oracle_dir)]) == 0
    rows = [json.loads(line) for line in (oracle_dir / "oracle.jsonl").read_text().splitlines()]
    assert all(row["status"] == "ok" for row in rows)


def test_tune(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(GRID_CONFIG)
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 0
    best = json.loads((out / "best_params.json").read_text())
    assert best["sa"]["sweeps"] in (2, 5)
    assert (out / "grid_sa.txt").exists()


def test_missing_config_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_bad_arguments_exit_one():
    assert main(["run"]) == 1


def test_jobs_flag_parallel_run(tmp_path):
    cfg, out = write_config(tmp_path, CONFIG)
    assert main(["run", "--config", str(cfg), "--jobs", "2"]) == 0
    assert len(load_records(out / "records.jsonl")) == 4


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_jobs_above_the_usable_cores_is_config_error(tmp_path, monkeypatch, capsys, affinity):
    if affinity:
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    else:  # a platform without an affinity call counts the machine's cores
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 1)
    cfg, out = write_config(tmp_path, CONFIG)
    assert main(["run", "--config", str(cfg), "--jobs", "2"]) == 1
    assert "exceeds the 1 usable cores" in capsys.readouterr().err
    assert not out.exists()  # rejected before any solver ran


@pytest.mark.parametrize("line", ["groups = 0", "jobs = 0"])
def test_groups_or_jobs_below_one_exit_one_before_any_solver_runs(tmp_path, capsys, line):
    cfg, out = write_config(tmp_path, CONFIG.replace("seed = 5", f"seed = 5\n{line}"))
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"{line.split()[0]} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()  # rejected before any solver ran


@pytest.mark.parametrize("content, error", [
    (None, "FileNotFoundError"),
    ("", "holds no records"),
    ("{x\n", "JSONDecodeError"),
    ('{"solver": "sa"}\n', "TypeError"),
], ids=["missing", "empty", "malformed-json", "not-a-record"])
def test_report_on_bad_records_input_exits_one_and_writes_nothing(tmp_path, capsys, content,
                                                                  error):
    # these exited 2, as runtime failures
    records = tmp_path / "records.jsonl"
    if content is not None:
        records.write_text(content)
    out = tmp_path / "report"
    assert main(["report", "--records", str(records), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: records file {records}") and error in err
    assert not out.exists()


def test_runtime_failure_exits_two(tmp_path):
    # the records read; the output directory cannot be made where a file is
    cfg, out = write_config(tmp_path, CONFIG)
    assert main(["run", "--config", str(cfg)]) == 0
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    assert main(["report", "--records", str(out / "records.jsonl"), "--out", str(blocked)]) == 2


TSP_CONFIG = """
[experiment]
scenario = {scenario}
seed = 5
time_limit = 0.05
output = {out}

[instances]
kind = tsp_planar
sizes = 4
count = 2

[solver:sa]
kind = sa
reads = 5
sweeps = 5

[solver:exhaustive]
kind = exhaustive
"""

FAILING_CONFIG = """
[experiment]
scenario = tts
seed = 5
output = {out}

[instances]
kind = regular
sizes = 6
count = 2
degree = 3

[solver:sa]
kind = sa
reads = 0
"""

TRAINED_QAOA_CONFIG = """
[experiment]
scenario = tts
seed = 5
output = {out}

[instances]
kind = regular
sizes = 6
count = 1
degree = 3

[solver:qaoa]
kind = qaoa
p = 3
theta_beta = 1,-1,0,0,0
theta_gamma = 0,1,0,0,0
"""


@pytest.mark.parametrize("scenario", ["tts", "bsf"])
def test_tsp_instances_record_failures(tmp_path, capsys, scenario):
    cfg, out = write_config(tmp_path, TSP_CONFIG.replace("{scenario}", scenario))
    assert main(["run", "--config", str(cfg)]) == 1
    records = load_records(out / "records.jsonl")
    assert len(records) == 4  # 2 instances x 2 solvers
    assert all(r.status == "failed" and "Max-Cut" in r.error for r in records)
    assert all(r.size == 4 for r in records)  # locations
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "0/4 runs ok" in captured.out


def test_generated_files_run_back(tmp_path):
    # generate writes a graph as an edge list, a tour as JSON and a manifest,
    # oracle its table; kind = files reads each instance back by its suffix
    data = tmp_path / "data"
    graphs = tmp_path / "graphs.cfg"
    graphs.write_text(CONFIG.format(out=tmp_path / "unused"))
    assert main(["generate", "--config", str(graphs), "--out", str(data)]) == 0
    assert main(["oracle", "--config", str(graphs), "--out", str(data)]) == 0
    hashes = {row["hash"] for row in json.loads((data / "manifest.json").read_text())}
    files = tmp_path / "files.cfg"
    files.write_text(CONFIG.format(out=tmp_path / "out").replace(
        "kind = regular\nsizes = 6\ncount = 2\ndegree = 3", f"kind = files\nglob = {data}/*"))
    assert main(["run", "--config", str(files)]) == 0
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 4 and all(r.status == "ok" for r in records)
    assert {r.instance_hash for r in records} == hashes
    # tours next to the graphs: their records are the failed stop-gap, not a parse error
    tours = tmp_path / "tours.cfg"
    tours.write_text(TSP_CONFIG.replace("{scenario}", "tts").format(out=tmp_path / "unused"))
    assert main(["generate", "--config", str(tours), "--out", str(data)]) == 0
    assert main(["run", "--config", str(files)]) == 0
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 8
    assert all(r.status == "failed" and "Max-Cut" in r.error for r in records if r.size == 4)
    assert all(r.status == "ok" for r in records if r.size == 6)


def test_a_graph_json_file_runs_as_its_edge_list_twin(tmp_path):
    # a .json instance file may hold a graph; one 4-cycle written both ways
    edges = [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 0.5)]
    for folder, name, text in [
        ("json", "cycle.json", json.dumps({"type": "maxcut", "num_nodes": 4, "edges": [
            [u - 1, v - 1, w] for u, v, w in edges]})),
        ("txt", "cycle.txt", "4 4\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges)),
    ]:
        (tmp_path / folder).mkdir()
        (tmp_path / folder / name).write_text(text)
        cfg = tmp_path / f"{folder}.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path / f"out-{folder}").replace(
            "kind = regular\nsizes = 6\ncount = 2\ndegree = 3",
            f"kind = files\nglob = {tmp_path / folder}/*"))
        assert main(["run", "--config", str(cfg)]) == 0

    def outputs(folder):
        records = load_records(tmp_path / f"out-{folder}" / "records.jsonl")
        assert len(records) == 2 and all(r.status == "ok" for r in records)
        return [{**r.to_dict(), "timing": None, "cpu_time": None, "metrics": {
            key: value for key, value in r.metrics.items() if key not in ("tts", "tts_oh")}}
            for r in records]

    from_json = outputs("json")
    assert from_json == outputs("txt")
    assert {r["instance_id"] for r in from_json} == {"cycle"}
    assert {r["best_cost"] for r in from_json} == {-4.5}  # the cut {1, 3} | {2, 4}


def test_run_with_no_ok_record_exits_one(tmp_path):
    cfg, out = write_config(tmp_path, FAILING_CONFIG)
    assert main(["run", "--config", str(cfg)]) == 1
    assert {r.status for r in load_records(out / "records.jsonl")} == {"failed"}


def test_trained_qaoa_schedule_from_config(tmp_path):
    cfg, out = write_config(tmp_path, TRAINED_QAOA_CONFIG)
    assert main(["run", "--config", str(cfg)]) == 0
    (record,) = load_records(out / "records.jsonl")
    assert record.status == "ok"
    assert 0.0 < record.metrics["p_star"] <= 1.0


def test_readme_config_block_parses(tmp_path):
    # The README's CLI config puts "; ..." comments after values.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "bench.cfg"
    path.write_text(block)
    parser = load_config(path)
    cfg = parse_experiment(parser)
    assert cfg.scenario == "tts"
    assert cfg.time_limit == 10
    assert {inst.metadata["generator"] for inst in cfg.instances} == {"regular"}
    assert [inst.num_nodes for inst in cfg.instances] == [10] * 10 + [12] * 10 + [14] * 10
    assert [spec.name for spec in cfg.solvers] == ["sa", "qaoa8"]
    assert dict(parser["grid:sa"]) == {"sweeps": "1, 20"}


NO_INSTANCES_CONFIG = """
[experiment]
seed = 5
"""


@pytest.mark.parametrize("command", ["generate", "oracle"])
def test_config_without_instances_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "bench.cfg"
    path.write_text(NO_INSTANCES_CONFIG)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("kind = regular", "kind = erdos_renyi\ndensity = 1.5", "density must lie in (0, 1]"),
    ("sizes = 6", "sizes = 7", "n * degree must be even"),
    ("kind = regular\nsizes = 6", "kind = tsp_planar\nsizes = 2", "at least 3 locations"),
    ("count = 2", "count = 0", "yields no instances"),
    ("sizes = 6", "sizes =", "yields no instances"),
    # NaN passed the density range check; an infinite sigma overflowed and exited 2
    ("kind = regular", "kind = erdos_renyi\ndensity = nan", "density must be finite"),
    ("kind = regular", "kind = tsp_circular\nsigma = inf", "sigma must be finite"),
    ("kind = regular", "kind = tsp_circular\nsigma = nan", "sigma must be finite"),
    ("kind = regular\n", "", "needs a 'kind' key"),
    ("kind = regular", "kind = files", "of kind 'files' needs a 'glob' key"),
    ("sizes = 6\n", "", "needs a 'sizes' key"),
    ("kind = regular", "kind = ring", "unknown instance kind 'ring'"),
], ids=["density", "odd-degree-sum", "tsp-size", "count-zero", "no-sizes", "density-nan",
        "sigma-inf", "sigma-nan", "no-kind", "files-without-glob", "no-sizes-key",
        "unknown-kind"])
@pytest.mark.parametrize("command", ["generate", "oracle", "tune", "run"])
def test_bad_instance_parameters_exit_one_and_write_nothing(tmp_path, capsys, command,
                                                            old, new, message):
    template = (CONFIG + "\n[grid:sa]\nsweeps = 2, 5\n").replace(old, new)
    cfg, out = write_config(tmp_path, template)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [instances] section") and message in err
    assert not out.exists()  # rejected before any solver ran


@pytest.mark.parametrize("key, old, new", [
    ("seed", "seed = 5", "seed = abc"),
    ("sizes", "sizes = 6", "sizes = six"),
], ids=["experiment", "instances"])
def test_malformed_number_is_config_error(tmp_path, capsys, key, old, new):
    cfg, _ = write_config(tmp_path, CONFIG.replace(old, new))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


# ----------------------------------------------------------------------
# Solver settings: an unknown or malformed one is a config error
# ----------------------------------------------------------------------

def test_run_unknown_solver_parameter_is_config_error(tmp_path, capsys):
    cfg, out = write_config(tmp_path, CONFIG.replace("sweeps = 5", "sweep = 1"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'sweep'" in err
    assert not out.exists()  # nothing ran


@pytest.mark.parametrize("old, new, key", [
    ("reads = 10", "reads = ten", "reads"),
    ("reads = 10", "reads = 1, 2", "reads"),
    ("kind = sa", "kind = greedy", "greedy"),
], ids=["malformed", "list", "unknown-kind"])
def test_run_bad_solver_setting_is_config_error(tmp_path, capsys, old, new, key):
    cfg, out = write_config(tmp_path, CONFIG.replace(old, new))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_run_bsf_roster_with_a_circuit_solver_is_config_error(tmp_path, capsys):
    cfg, out = write_config(tmp_path, BSF_CONFIG + "\n[solver:qaoa8]\nkind = qaoa\np = 8\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'qaoa8'" in err
    assert not out.exists()  # nothing ran


NON_FINITE = {"t0-nan": ("[solver:sa]", "t0 = nan"), "kb-nan": ("[solver:sa]", "kb = nan"),
              "t0-inf": ("[solver:sa]", "t0 = inf"),
              "seconds-per-layer-nan": ("[solver:qaoa2]", "seconds_per_layer = nan"),
              "theta-nan": ("[solver:qaoa2]", "theta_beta = 1,-1,0,0,nan")}


@pytest.mark.parametrize("command, section, setting", [
    *(pytest.param(command, *case, id=f"{command}-{name}")
      for command in ("run", "tune") for name, case in NON_FINITE.items()),
    pytest.param("tune", "[grid:sa]", "t0 = 1, nan", id="tune-grid-cell-nan"),
])
def test_non_finite_solver_parameters_exit_one_and_write_nothing(tmp_path, capsys, command,
                                                                 section, setting):
    # these ran, wrote ok records and exited 0: NaN passes every "> 0" check
    template = CONFIG + "\n[solver:qaoa2]\nkind = qaoa\np = 2\n\n[grid:sa]\nsweeps = 2, 5\n"
    cfg, out = write_config(tmp_path, template.replace(f"{section}\n", f"{section}\n{setting}\n"))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and setting.split()[0] in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("setting, flags", [
    ("time_limit = nan", []),
    ("time_limit = 0.05", ["--time-limit", "nan"]),
    ("time_limit = 0.05", ["--time-limit", "inf"]),
], ids=["nan", "flag-nan", "flag-inf"])
def test_a_non_finite_bsf_budget_exits_one_and_writes_nothing(tmp_path, capsys, setting, flags):
    # a NaN budget ran one call per record and exited 0; an infinite one never ended
    cfg, out = write_config(tmp_path, BSF_CONFIG.replace("time_limit = 0.05", setting))
    assert main(["run", "--config", str(cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: time_limit must be finite")
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("scenario = tts", "scenaro = bsf", "[experiment] section has no key 'scenaro' (it takes "
     "scenario, seed, time_limit, oracle_cap, groups, output, jobs)"),
    ("seed = 5", "seed = 5\ntime_limt = 0.5", "[experiment] section has no key 'time_limt'"),
    ("degree = 3", "degre = 4", "[instances] section has no key 'degre' (it takes kind, sizes, "
     "count, degree, density, weights, sigma, glob)"),
], ids=["scenario", "time-limit", "degree"])
@pytest.mark.parametrize("command", ["generate", "oracle", "tune", "run"])
def test_a_misspelt_section_key_exits_one_and_writes_nothing(tmp_path, capsys, command,
                                                             old, new, message):
    # these were ignored: run exited 0 after a tts run on 3-regular graphs
    template = (CONFIG + "\n[grid:sa]\nsweeps = 2, 5\n").replace(old, new)
    cfg, out = write_config(tmp_path, template)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, message", [
    ("tune", "[experiment]\nscenario = tts\nseed = 5\noutput = {out}\n",
     "config needs an [experiment] section"),
    ("run", "[experiment]\nscenario = tts\nseed = 5\noutput = {out}\n",
     "config needs an [experiment] section"),
    ("tune", "[grid:sa]\nsweeps = 2, 5\n", "config defines no [grid:<solver>] section"),
], ids=["tune-no-experiment", "run-no-experiment", "tune-no-grid"])
def test_a_config_without_a_section_its_command_reads_exits_one_and_writes_nothing(
        tmp_path, capsys, command, section, message):
    template = (CONFIG + "\n[grid:sa]\nsweeps = 2, 5\n").replace(section, "")
    cfg, out = write_config(tmp_path, template)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_a_key_that_another_instance_kind_reads_is_accepted(tmp_path):
    cfg, out = write_config(tmp_path, CONFIG.replace("degree = 3", "degree = 3\nsigma = 2.0"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(load_records(out / "records.jsonl")) == 4


@pytest.mark.parametrize("setting, message", [
    ("time_limit = nan", "time_limit must be finite, got 'nan'"),
    ("jobs = two", "jobs must be an integer, got 'two'"),
    ("oracle_cap = 2.5", "oracle_cap must be an integer, got '2.5'"),
], ids=["time-limit-nan", "jobs", "oracle-cap"])
@pytest.mark.parametrize("command", ["generate", "oracle"])
def test_generate_and_oracle_reject_a_malformed_experiment_value(tmp_path, capsys, command,
                                                                setting, message):
    # generate cast only the seed and oracle also its cap, so the others passed
    cfg, out = write_config(tmp_path, CONFIG.replace("seed = 5", f"seed = 5\n{setting}"))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("old, new, error", [
    ("seed = 5", "seed = 5\nseed = 6", "DuplicateOptionError"),
    ("[experiment]\n", "", "MissingSectionHeaderError"),
    ("output = {out}", "output = {out}%", "InterpolationSyntaxError"),
], ids=["duplicate-key", "no-section-header", "bad-interpolation"])
@pytest.mark.parametrize("command", ["generate", "oracle", "tune", "run"])
def test_a_malformed_ini_file_exits_one_and_writes_nothing(tmp_path, capsys, command, old, new,
                                                          error):
    # these escaped load_config as configparser errors and exited 2
    template = (CONFIG + "\n[grid:sa]\nsweeps = 2, 5\n").replace(old, new, 1)
    cfg, out = write_config(tmp_path, template)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed config file {cfg}: {error}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "oracle", "tune", "run"])
def test_a_default_section_exits_one_and_writes_nothing(tmp_path, capsys, command):
    # configparser copied its keys into every section, so run exited 1 with
    # "solver 'sa' of kind sa has no parameter 'seed'", a key no solver section holds
    template = ("[DEFAULT]\nseed = 5\n" + CONFIG.replace("seed = 5\n", "")
                + "\n[grid:sa]\nsweeps = 2, 5\n")
    cfg, out = write_config(tmp_path, template)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: config file {cfg} has a [DEFAULT] section"
                                       " (seed); write each key in its own section\n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["files", "sizes"])
@pytest.mark.parametrize("command", ["generate", "oracle", "tune", "run"])
def test_two_instances_with_one_id_exit_one_and_write_nothing(tmp_path, capsys, command, case):
    # both instances ran under one id, with one seed per solver, in one group
    template = CONFIG + "\n[grid:sa]\nsweeps = 2, 5\n"
    if case == "files":
        data = tmp_path / "data"
        for folder, text in (("a", "3 2\n1 2 1.0\n2 3 1.0\n"),
                             ("b", "4 3\n1 2 1.0\n2 3 1.0\n3 4 1.0\n")):
            (data / folder).mkdir(parents=True)
            (data / folder / "g.txt").write_text(text)
        template = template.replace("kind = regular\nsizes = 6\ncount = 2\ndegree = 3",
                                    f"kind = files\nglob = {data}/**/*.txt")
        sources = f"{data / 'a' / 'g.txt'} and {data / 'b' / 'g.txt'}"
        iid = "g"
    else:
        template = template.replace("sizes = 6", "sizes = 6, 6")
        sources = "sizes entry 1 = 6 and sizes entry 2 = 6"
        iid = "regular-n6-000"
    cfg, out = write_config(tmp_path, template)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: instance id {iid!r} names two instances"
                                       f" ({sources}); ids must be unique\n")
    assert not out.exists()


NON_FINITE_FILES = {
    "edge-nan": ("g.txt", "3 2\n1 2 nan\n2 3 1.0\n",
                 "ParseError: {path}: edge (0,1) has non-finite weight nan"),
    "edge-inf": ("g.txt", "3 2\n1 2 1.0\n2 3 -inf\n",
                 "ParseError: {path}: edge (1,2) has non-finite weight -inf"),
    "tour-inf": ("t.json", json.dumps({"type": "tsp", "distances": [
        [0.0, 1.0, math.inf], [1.0, 0.0, 1.0], [math.inf, 1.0, 0.0]]}),
                 "ValueError: distance (0,2) = inf is not finite"),
    # a NaN distance was rejected as "must be symmetric"
    "tour-nan": ("t.json", json.dumps({"type": "tsp", "distances": [
        [0.0, 1.0, 2.0], [1.0, 0.0, math.nan], [2.0, math.nan, 0.0]]}),
                 "ValueError: distance (1,2) = nan is not finite"),
    "coordinates-inf": ("t.json", json.dumps({"type": "tsp", "coordinates": [
        [0.0, 0.0], [1.0, 0.0], [math.inf, 1.0]]}),
                 "ValueError: location 2 has non-finite coordinates [inf, 1.0]"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FILES))
@pytest.mark.parametrize("command", ["generate", "oracle", "tune", "run"])
def test_a_non_finite_weight_or_distance_exits_one_and_writes_nothing(tmp_path, capsys, command,
                                                                       case):
    # with a nan edge, oracle exited 2, run wrote records and generate copied the file;
    # with an infinite distance, oracle wrote "worst_length": Infinity
    name, text, message = NON_FINITE_FILES[case]
    path = tmp_path / "data" / name
    path.parent.mkdir()
    path.write_text(text)
    template = (CONFIG + "\n[grid:sa]\nsweeps = 2, 5\n").replace(
        "kind = regular\nsizes = 6\ncount = 2\ndegree = 3", f"kind = files\nglob = {path}")
    cfg, out = write_config(tmp_path, template)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    expected = f"config error: malformed instance file {path}: {message.format(path=path)}\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


TWO_GRID_CONFIG = GRID_CONFIG + """
[solver:ls]
kind = ls
restarts = 2

[grid:ls]
restarts = 1, 2
"""


def test_tune_unknown_grid_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    # the [grid:ls] section is valid, and listed first; neither grid runs
    path.write_text(TWO_GRID_CONFIG.replace("[grid:sa]\nsweeps = 2, 5\n", "")
                    + "\n[grid:sa]\nsweep = 1, 50\n")
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'sweep'" in err
    assert not (out / "best_params.json").exists()
    assert not (out / "grid_ls.txt").exists()


def test_tune_malformed_grid_value_is_config_error(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    path.write_text(GRID_CONFIG.replace("sweeps = 2, 5", "sweeps = 2, five"))
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sweeps" in err
    assert not (out / "best_params.json").exists()


@pytest.mark.parametrize("grid, message", [
    ("sweeps =", "[grid:sa] key 'sweeps' lists no value"),
    ("sweeps = 2, 5\nreads = ,", "[grid:sa] key 'reads' lists no value"),
    ("", "[grid:sa] lists no parameter"),
], ids=["empty-list", "commas-only", "no-key"])
def test_tune_a_grid_without_a_cell_exits_one_and_writes_nothing(tmp_path, capsys, grid,
                                                                 message):
    # an empty list ran no cell, then wrote grid_sa.txt and an empty best_params.json
    path = tmp_path / "bench.cfg"
    path.write_text(GRID_CONFIG.replace("sweeps = 2, 5", grid))
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_tune_an_unknown_objective_exits_one_and_writes_nothing(tmp_path, capsys):
    # the output folder was made before grid_search rejected the objective
    path = tmp_path / "bench.cfg"
    path.write_text(GRID_CONFIG)
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out), "--objective", "foo"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'foo'" in err
    assert all(repr(objective) in err for objective in GRID_OBJECTIVES)
    assert not out.exists()


def test_tune_grid_naming_no_solver_is_config_error(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    path.write_text(GRID_CONFIG.replace("[grid:sa]", "[grid:annealer]"))
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid:annealer" in err
    assert not (out / "best_params.json").exists()


def test_tune_grid_cells_run_their_settings(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(TWO_GRID_CONFIG)
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 0
    best = json.loads((out / "best_params.json").read_text())
    assert list(best) == ["sa", "ls"]
    assert best["ls"]["restarts"] in (1, 2)


def test_tune_writes_no_best_cell_for_a_solver_whose_cells_all_failed(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    # a one-term theta_beta against the ramp's five-term theta_gamma fails every record
    path.write_text(GRID_CONFIG + "\n[solver:qaoa]\np = 2\n\n[grid:qaoa]\ntheta_beta = 1 | 2\n")
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 1
    assert "qaoa" in capsys.readouterr().err
    best = json.loads((out / "best_params.json").read_text())
    assert list(best) == ["sa"]
    rows = [line.split("\t") for line in (out / "grid_qaoa.txt").read_text().splitlines()
            if not line.startswith("#")]
    assert [(json.loads(cell), value) for cell, value in rows] == [
        ({"theta_beta": [1]}, "inf"), ({"theta_beta": [2]}, "inf")]


def test_tune_grid_lists_vector_theta_cells(tmp_path):
    path = tmp_path / "bench.cfg"
    # list parameters take "|"-separated comma lists; scalar keys keep comma cells
    path.write_text(GRID_CONFIG + "\n[solver:qaoa]\np = 2\n\n[grid:qaoa]\np = 1, 2\n"
                    "theta_beta = 1,-1,0,0,0 | 0.5, -0.25, 0, 0, 0 ; two schedules\n")
    out = tmp_path / "tuned"
    assert main(["tune", "--config", str(path), "--out", str(out), "--objective", "ar_gap"]) == 0
    rows = [line.split("\t") for line in (out / "grid_qaoa.txt").read_text().splitlines()
            if not line.startswith("#")]
    cells = [json.loads(cell) for cell, _ in rows]
    assert cells == [{"p": p, "theta_beta": theta} for p in (1, 2)
                     for theta in ([1, -1, 0, 0, 0], [0.5, -0.25, 0, 0, 0])]
    values = [float(value) for _, value in rows]
    assert all(math.isfinite(value) for value in values)
    assert values[0] != values[1] and values[2] != values[3]  # each cell ran its schedule
    best = json.loads((out / "best_params.json").read_text())
    assert best["qaoa"] == cells[values.index(min(values))]


# ----------------------------------------------------------------------
# Documentation and startup
# ----------------------------------------------------------------------

def test_readme_parameter_table_matches_solver_params():
    from optbench.harness import SOLVER_PARAMS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Kind | Parameter |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    documented = [(kind.strip(" `"), name.strip(" `")) for kind, name in rows]
    assert documented == [(kind, name) for kind, types in SOLVER_PARAMS.items()
                          for name in types]


README_TYPES = {int: "int", float: "float", str: "string", Path: "path", list: "list of ints"}


def readme_table(header: str) -> list[list[str]]:
    """The cells of the README table under ``header``, one list per row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split(header, 1)[1].split("\n\n", 1)[0]
    return [[cell.strip(" `") for cell in line.split("|")[1:-1]]
            for line in table.splitlines()[2:]]


def test_readme_experiment_table_matches_experiment_keys():
    from optbench.harness import EXPERIMENT_KEYS, ExperimentConfig

    rows = readme_table("| Key | Type | Default |")
    assert [row[:2] for row in rows] == [[key, README_TYPES[cast]]
                                         for key, (_, cast) in EXPERIMENT_KEYS.items()]
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for key, _, default in rows:
        if defaults[EXPERIMENT_KEYS[key][0]] is not None:  # else the text says what it means
            assert default == str(defaults[EXPERIMENT_KEYS[key][0]])


def test_readme_instances_table_matches_instance_keys():
    from optbench.harness import INSTANCE_KEYS, INSTANCE_KINDS

    rows = readme_table("| Kind | Key | Type | Default |")
    assert [row[1:3] for row in rows] == [[key, README_TYPES[cast]]
                                          for key, cast in INSTANCE_KEYS.items()]
    by_key = {row[1]: row for row in rows}
    for kind, (generator, types) in INSTANCE_KINDS.items():
        for key in types:  # each generator's default, documented for its kind
            default = inspect.signature(generator).parameters[key].default
            assert by_key[key][0] == kind and by_key[key][3] == str(default)


def test_readme_parameter_table_types_and_defaults_match_the_solvers():
    from optbench.harness import SOLVER_PARAMS, _floats, _qaoa_metrics
    from optbench.model import ORACLE_CAP
    from optbench.solvers import SaConfig, TsConfig, goemans_williamson, local_search_maxcut

    def signature(function):
        return {name: p.default for name, p in inspect.signature(function).parameters.items()}

    defaults = {"sa": {f.name: f.default for f in dataclasses.fields(SaConfig)},
                "ts": {f.name: f.default for f in dataclasses.fields(TsConfig)},
                "ls": signature(local_search_maxcut), "gw": signature(goemans_williamson),
                "exhaustive": {"cap": ORACLE_CAP}, "qaoa": signature(_qaoa_metrics)}
    types = {**README_TYPES, _floats: "list of floats"}
    rows = readme_table("| Kind | Parameter | Type | Default |")
    assert [row[:3] for row in rows] == [[kind, name, types[cast]]
                                         for kind, params in SOLVER_PARAMS.items()
                                         for name, cast in params.items()]
    for kind, name, _, default in rows:
        if defaults[kind][name] is not None:  # else the text says what it means
            assert float(default) == defaults[kind][name], (kind, name)


def test_readme_lists_the_grid_objectives():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("`tune --objective NAME`", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`(\w+)`", paragraph) == list(GRID_OBJECTIVES)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # a fresh process, started in src/: other tests import scipy themselves
    code = "import sys, optbench.cli; print('scipy.optimize' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_an_edited_instance_file_is_a_config_error(tmp_path, capsys):
    data = tmp_path / "data"
    graphs = tmp_path / "graphs.cfg"
    graphs.write_text(CONFIG.format(out=tmp_path / "unused"))
    assert main(["generate", "--config", str(graphs), "--out", str(data)]) == 0
    edited = sorted(data.glob("*.txt"))[0]
    header, first, *rest = edited.read_text().splitlines()
    u, v, w = first.split()
    edited.write_text("\n".join([header, f"{u} {v} {float(w) + 1.0!r}", *rest]) + "\n")
    files = tmp_path / "files.cfg"
    files.write_text(CONFIG.format(out=tmp_path / "out").replace(
        "kind = regular\nsizes = 6\ncount = 2\ndegree = 3", f"kind = files\nglob = {data}/*"))
    capsys.readouterr()
    assert main(["run", "--config", str(files)]) == 1
    assert edited.name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, old, new, key", [
    ("generate", "sizes = 6", "sizes = 6.5", "sizes"),
    ("run", "sizes = 6", "sizes = 6.5", "sizes"),
    ("run", "reads = 10", "reads = 2.5", "reads"),
    ("run", "sweeps = 5", "sweeps = true", "sweeps"),
    ("run", "sweeps = 5", "sweeps = 5\nt0 = true", "t0"),
], ids=["generate-fractional-size", "fractional-size", "fractional-setting", "bool-setting",
        "bool-number"])
def test_fractional_integers_and_bool_numbers_are_config_errors(tmp_path, capsys, command,
                                                               old, new, key):
    cfg, out = write_config(tmp_path, CONFIG.replace(old, new))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("name, text", [
    ("graph.txt", "6\n0 1 1.0\n"),
    ("tour.json", '{"type": "tsp", '),
], ids=["edge-list", "json"])
@pytest.mark.parametrize("command", ["generate", "run"])
def test_a_malformed_instance_file_is_a_config_error(tmp_path, capsys, command, name, text):
    data = tmp_path / "data"
    data.mkdir()
    (data / name).write_text(text)
    cfg, out = write_config(tmp_path, CONFIG.replace(
        "kind = regular\nsizes = 6\ncount = 2\ndegree = 3", f"kind = files\nglob = {data}/*"))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "run"])
def test_folders_that_the_files_glob_matches_are_skipped(tmp_path, capsys, command):
    data = tmp_path / "data"
    graphs = tmp_path / "graphs.cfg"
    graphs.write_text(CONFIG.format(out=tmp_path / "unused"))
    assert main(["generate", "--config", str(graphs), "--out", str(data)]) == 0
    (data / "sub").mkdir()
    (data / "sub" / "graph.txt").write_text("6\n0 1 1.0\n")  # malformed, and never read
    files = CONFIG.replace("kind = regular\nsizes = 6\ncount = 2\ndegree = 3",
                           f"kind = files\nglob = {data}/*")
    cfg, out = write_config(tmp_path, files)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    if command == "generate":
        assert len(json.loads((out / "manifest.json").read_text())) == 2
    else:
        records = load_records(out / "records.jsonl")
        assert len(records) == 4 and all(r.status == "ok" for r in records)
    # a glob that matches only a folder matches no instance file
    cfg, out = write_config(tmp_path, files.replace(f"{data}/*", f"{data}/su*"))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "no instance files match" in capsys.readouterr().err
