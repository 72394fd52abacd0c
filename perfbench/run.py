"""optbench benchmark: whole studies timed end to end, spans per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tts_desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # the four workloads in turn

A run shares ``--seconds`` among fresh worker processes (``worker.py``):
three untraced, or two untraced and two traced with ``--trace 1``.  In each
process, interpreter start, import, input generation and one warm-up call
make up ``setup_s``, timed from the moment the process is spawned.  The
process then repeats the workload's fixed work, timing each pass
(``study_s``) and checking its outputs outside the timed region, until its
share of the time is used (at least one pass).  Timings are medians over
passes, ``setup_s`` and ``peak_rss_mb`` medians over processes.  The
non-timing outputs, and under tracing every count-type layer metric, must
repeat exactly across passes and processes.

Output: a table of every metric with its unit, a fingerprint line, and as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json untraced,
its ``per_layer`` metrics with ``--trace 1``).  The exit code is 0 only
when every check passed.  Per-run details and span dumps go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 170  # per workload, so that a run ends within 180 s

WORKLOADS = ("tts_desk", "bsf_fixed_calls", "train_c10", "exact_sweep")

# Every end-to-end metric, with its unit and the workloads that report it.
E2E_METRICS = {
    "setup_s": ("s", WORKLOADS),
    "study_s": ("s", WORKLOADS),
    "peak_rss_mb": ("MiB", WORKLOADS),
    "failed_share": ("ratio", WORKLOADS),
    "run_cpu_ms.p50": ("ms", ("tts_desk", "bsf_fixed_calls")),
    "run_cpu_ms.tail": ("ms", ("tts_desk", "bsf_fixed_calls")),
    "untimed_share": ("ratio", ("bsf_fixed_calls",)),
    "p_star_mean": ("ratio", ("tts_desk",)),
    "rel_err_mean": ("ratio", ("bsf_fixed_calls",)),
    "train_gap": ("ratio", ("train_c10",)),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "optbench").rglob("*.py")):
        sha.update(path.relative_to(ROOT).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def blas_threads(nproc: int) -> int:
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        return max(1, min(int(requested), nproc)) if requested else nproc
    except ValueError:
        return nproc


def run_process(workload: str, seed: int, traced: bool, budget: float, smoke: bool,
                env: dict, spans_path: Path, timeout: float) -> dict:
    """Run one fresh worker; its set-up is timed from the moment it is spawned."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--budget", f"{budget:.3f}",
           "--spans", str(spans_path), "--spawned-at", repr(time.time())]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}", "traced": traced}
    return {**json.loads(lines[-1]), "traced": traced}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 env: dict) -> dict:
    """Share ``seconds`` among fresh processes: three untraced, or with
    tracing two untraced and two traced, alternating."""
    plan = [False, True] * (1 if smoke else 2) if trace else [False] * (1 if smoke else 3)
    procs: list[dict] = []
    setup_estimate = 1.0
    start = time.perf_counter()
    for index, traced in enumerate(plan):
        remaining = seconds - (time.perf_counter() - start)
        budget = max(0.0, remaining / (len(plan) - index) - setup_estimate)
        spans_path = OUT / f"spans-{workload}-seed{seed}-proc{index}.json"
        timeout = max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - start))
        procs.append(run_process(workload, seed, traced, budget, smoke, env, spans_path,
                                 timeout))
        setup_estimate = procs[-1].get("setup_s", setup_estimate)
    return summarize(workload, procs)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(workload: str, procs: list[dict]) -> dict:
    good = [p for p in procs if "error" not in p]
    failures = [p["error"] for p in procs if "error" in p]
    plain_procs = [p for p in good if not p["traced"]]
    plain = [s for p in plain_procs for s in p["samples"]]
    traced = [s for p in good if p["traced"] for s in p["samples"]]
    samples = plain + traced
    failed_checks = sorted({name for s in samples for name, ok in s["checks"].items() if not ok})
    if len({s["digest"] for s in samples}) > 1:
        failed_checks.append("outputs_repeat_exactly")
    if len({json.dumps([s["layers"][m] for m in COUNT_METRICS]) for s in traced}) > 1:
        failed_checks.append("layer_counts_repeat_exactly")
    attempted = sum(s["attempted"] for s in samples) + len(failures)
    failed = sum(s["failed"] for s in samples) + len(failures) + len(failed_checks)

    e2e = {}
    if plain:
        e2e = {"setup_s": _median(p["setup_s"] for p in plain_procs),
               "study_s": _median(s["study_s"] for s in plain),
               "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain_procs)}
        for name in plain[0]["metrics"]:
            e2e[name] = _median(s["metrics"][name] for s in plain)
    e2e["failed_share"] = failed / attempted if attempted else 1.0
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = _median(s["layers"][name] for s in traced)
        if plain:
            layers["trace.overhead_s"] = _median(s["study_s"] for s in traced) - e2e["study_s"]
    return {
        "workload": workload,
        "correct": not failures and not failed_checks and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "failures": failures,
        "failed_checks": failed_checks,
        "e2e": e2e,
        "layers": layers,
        "notes": plain[0]["notes"] if plain else {},
        "counts": {"processes": len(plain_procs), "passes": len(plain),
                   "traced_passes": len(traced), "errors": len(failures)},
        "versions": good[0]["versions"] if good else {},
        "study_s_per_pass": [s["study_s"] for s in plain],
        "setup_s_per_process": [p["setup_s"] for p in plain_procs],
    }


def print_table(summary: dict, units: dict) -> None:
    workload = summary["workload"]
    counts = summary["counts"]
    notes = {**summary["notes"],
             "setup_s": f"median of {counts['processes']} processes",
             "peak_rss_mb": f"median of {counts['processes']} processes",
             "failed_share": "failed / attempted over all passes"}
    for name, (unit, owners) in E2E_METRICS.items():
        if workload in owners and name in summary["e2e"]:
            note = notes.get(name, "")
            if name not in ("setup_s", "peak_rss_mb", "failed_share"):
                note = ", ".join(filter(None, (note, f"median of {counts['passes']} passes")))
            print(f"{workload:16s} {name:34s} {summary['e2e'][name]:>16.6g} {unit:6s} {note}")
    for name, value in summary["layers"].items():
        print(f"{workload:16s} {name:34s} {value:>16.6g} {units.get(name, ''):6s} "
              f"median of {counts['traced_passes']} traced passes")
    for name in summary["failed_checks"]:
        print(f"{workload:16s} FAILED CHECK {name}")
    for error in summary["failures"]:
        print(f"{workload:16s} FAILED PROCESS {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one repetition each, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "optbench" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'optbench'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    OUT.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(w, args.seed, seconds, bool(args.trace), args.smoke, env)
                 for w in workloads]
    versions = next((s["versions"] for s in summaries if s["versions"]), {})
    fingerprint = {"nproc": nproc, **versions, "blas_threads": threads,
                   "git_commit": git_commit(), "src_sha256": source_digest(),
                   "seed": args.seed, "seconds": seconds, "trace": args.trace,
                   "smoke": args.smoke}
    for summary in summaries:
        print_table(summary, units)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    metrics = {}
    for summary in summaries:
        values = {**summary["e2e"], **summary["layers"]}
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        for m in wanted:
            if m["name"] in values:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"fingerprint": fingerprint, "summaries": summaries, "result": result},
                   indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
