import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from optbench.cli import main
from optbench.harness import load_config, load_records, parse_experiment


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


def test_runtime_failure_exits_two(tmp_path):
    missing = tmp_path / "missing.jsonl"
    assert main(["report", "--records", str(missing), "--out", str(tmp_path)]) == 2


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
