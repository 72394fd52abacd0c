"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py

Each workload's code path runs once untraced and once traced; the test
checks that every named metric is printed with its unit and that the last
line follows the result format.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E_METRICS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FINGERPRINT_KEYS = ("nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                    "git_commit", "src_sha256", "seed")


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    table = {}
    for line in lines[:-2]:
        parts = line.split()
        assert parts[0] == workload and "FAILED" not in parts, line
        table[parts[1]] = parts[3]
    for name, (unit, owners) in E2E_METRICS.items():
        if workload in owners:
            assert table.get(name) == unit, name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert table.get(metric["name"]) == metric["unit"], metric["name"]

    assert lines[-2].startswith("fingerprint ")
    fingerprint = json.loads(lines[-2].split(" ", 1)[1])
    assert all(key in fingerprint for key in FINGERPRINT_KEYS)
    assert fingerprint["seed"] == 3

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_untraced_result_holds_end_to_end_metrics():
    proc = _bench(ROOT, "--workload", "train_c10", "--seed", "3", "--seconds", "1",
                  "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "tts_desk", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
