"""Committed golden outputs: the non-timing results of fixed studies.

Each case runs one fixed study through the library and compares its
non-timing payload with ``tests/golden/<case>.json``.  Integers, strings,
booleans, statuses and seeds must match exactly; floats must match to 1e-12
relative, so that numpy or BLAS builds that differ in last bits still pass.
Each case also prints the exact digest of its payload, computed as the
benchmark computes it, and whether it equals the committed one.

The cases are the four benchmark workloads of ``perfbench/workloads.py``
(imported, never changed) at seeds 1 and 5, and the configs of the CI
workflow's CLI job run through the library: ``tts.cfg`` (generated
instances, oracle table and records) and ``bsf.cfg`` at a fixed call count,
since its wall-clock budget would make the call count depend on the host.
The ``tune`` run is left out: its default objective is a TTS, a timing.

A change that means to alter an output rewrites every golden file with

    PYTHONPATH=src python tests/test_golden.py

and declares the difference; a change that claims unchanged outputs leaves
the files as they are.
"""

from __future__ import annotations

import configparser
import hashlib
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from optbench import harness

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (1, 5)
RELATIVE = 1e-12


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_golden_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# The CLI job's tts.cfg, as the workflow writes it before its circuit solver
# is appended; bsf.cfg is the same file with scenario = bsf.
CLI_CONFIG = """
[experiment]
scenario = tts
seed = 3
time_limit = 0.2

[instances]
kind = regular
sizes = 6, 8
count = 2
degree = 3

[solver:sa]
reads = 20
sweeps = 10

[solver:sa100]
kind = sa
reads = 100
sweeps = 10

[solver:ls]
restarts = 5

; one restart steps tabu search one restart at a time
[solver:ts]
restarts = 1

[solver:gw]
hyperplanes = 20

[solver:exhaustive]

[grid:sa]
sweeps = 5, 10
"""
CIRCUIT_SOLVER = "\n[solver:qaoa8]\nkind = qaoa\n"
BSF_CALLS = 3


def _parser(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(text)
    return parser


def _cli_tts() -> dict:
    parser = _parser(CLI_CONFIG + CIRCUIT_SOLVER)
    cfg = harness.parse_experiment(parser)
    return {"instances": [harness.instance_hash(inst) for inst in cfg.instances],
            "oracle": harness.oracle_table(cfg.instances, cap=cfg.oracle_cap),
            "records": workloads.record_payload(harness.run_tts_experiment(cfg))}


def _cli_bsf() -> dict:
    parser = _parser(CLI_CONFIG.replace("scenario = tts", "scenario = bsf"))
    cfg = harness.parse_experiment(parser, {"time_limit": 1e9})  # a budget that never binds
    records = harness.run_bsf_experiment(cfg, max_calls=BSF_CALLS)
    return {"records": workloads.record_payload(records), "fob": harness.fob_by_solver(records)}


def _workload(name: str, seed: int):
    def run():
        workload = workloads.WORKLOADS[name]
        state = workload.setup(seed, False)
        with tempfile.TemporaryDirectory() as tmp:
            out = workload.study(state, Path(tmp))
        return workload.outcome(state, out, 1.0).payload
    return run


CASES = {f"{name}-seed{seed}": _workload(name, seed)
         for name in workloads.WORKLOADS for seed in SEEDS}
CASES.update({"cli-tts": _cli_tts, "cli-bsf": _cli_bsf})


def digest(payload) -> str:
    """The benchmark's exact fingerprint of a payload (floats by repr)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def normalized(payload):
    """The payload as JSON reads it back: tuples become lists, keys strings."""
    return json.loads(json.dumps(payload, default=str))


def differences(expected, actual, path: str = "$") -> list[str]:
    """Where ``actual`` departs from ``expected``: exactly for every value but
    a float, which may differ by 1e-12 of the larger magnitude."""
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, float):
        if expected == actual or (math.isnan(expected) and math.isnan(actual)):
            return []
        if abs(expected - actual) <= RELATIVE * max(abs(expected), abs(actual)):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [line for i, (e, a) in enumerate(zip(expected, actual))
                for line in differences(e, a, f"{path}[{i}]")]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [line for key in expected
                for line in differences(expected[key], actual[key], f"{path}.{key}")]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def _golden(case: str) -> dict:
    return json.loads((GOLDEN / f"{case}.json").read_text())


@pytest.mark.parametrize("case", CASES)
def test_outputs_equal_the_golden_file(case):
    payload = CASES[case]()
    golden = _golden(case)
    exact = digest(payload)
    print(f"{case}: {exact} ({'equal to' if exact == golden['digest'] else 'not'} the golden digest)")
    found = differences(golden["payload"], normalized(payload))
    assert not found, f"{len(found)} differences, first: " + "; ".join(found[:5])


def test_a_p_star_moved_by_1e_9_fails_the_comparison():
    golden = _golden("exact_sweep-seed1")["payload"]
    moved = normalized(golden)
    moved[1][0][2] += 1e-9  # the first tour circuit's p*
    assert differences(golden, moved) == [f"$[1][0][2]: {golden[1][0][2]!r} != {moved[1][0][2]!r}"]
    moved[1][0][2] = golden[1][0][2] * (1.0 + 1e-13)  # a last-bit difference passes
    assert differences(golden, moved) == []


def test_one_changed_sa_sample_fails_the_comparison(monkeypatch):
    anneal, changed = harness.simulated_annealing, []

    def one_read_at_the_zero_cut(poly, config):
        sample = anneal(poly, config)
        if not changed:  # the first call's first sample loses one draw to the empty cut
            first, zero = next(iter(sample.samples)), "0" * poly.num_vars
            assert first != zero
            sample.samples[first] -= 1
            if not sample.samples[first]:
                del sample.samples[first], sample.costs[first]
            sample.samples[zero] = sample.samples.get(zero, 0) + 1
            sample.costs[zero] = poly.evaluate(zero)
            changed.append(first)
        return sample

    monkeypatch.setattr(harness, "simulated_annealing", one_read_at_the_zero_cut)
    found = differences(_golden("cli-tts")["payload"], normalized(_cli_tts()))
    assert changed and found
    assert all(line.startswith("$.records[0]") for line in found), found


def write() -> None:
    """Rewrite every golden file from the current tree."""
    GOLDEN.mkdir(exist_ok=True)
    for case, run in CASES.items():
        payload = run()
        text = json.dumps({"digest": digest(payload), "payload": normalized(payload)},
                          indent=1, sort_keys=True)
        (GOLDEN / f"{case}.json").write_text(text + "\n")
        print(f"{case}: {digest(payload)}")


if __name__ == "__main__":
    write()
    sys.exit(0)
