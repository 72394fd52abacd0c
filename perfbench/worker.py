"""One fresh process of one workload: set-up once, then timed passes.

Started by ``run.py``.  It imports the program from the checkout's
``src/``, generates the inputs and makes one warm-up call; that set-up is
timed from ``--spawned-at``, the moment the launcher spawned it.  It then
runs the workload's fixed work (the timed region), checks the outputs
outside it, and prints one JSON object as its last line.  The fixed work repeats, each pass timed and checked on its own,
until ``--budget`` seconds are used (at least one pass).  With
``--trace 1`` it records spans around the program's entry points and
writes them to ``--spans`` after the last pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--spawned-at", type=float, default=time.time(),
                        help="epoch time at which the launcher spawned this process")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of repeated study after set-up (at least one pass)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import optbench

    if Path(optbench.__file__).resolve().parent != ROOT / "src" / "optbench":
        raise SystemExit(f"imported optbench from {optbench.__file__}, not from the checkout")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.active = True
    state = workload.setup(args.seed, args.smoke)
    if tracer:
        tracer.active = False
    workload.warm_up(state)
    setup_s = time.time() - args.spawned_at

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    samples: list[dict] = []
    ready = time.perf_counter()
    while True:
        sample = run_study(workload, state, tracer, scratch)
        samples.append(sample)
        elapsed = time.perf_counter() - ready
        typical = statistics.median(s["study_s"] for s in samples)
        if elapsed + typical > args.budget + typical / 2:
            break
    result = {
        "setup_s": setup_s,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer and args.spans is not None:
        args.spans.write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


def digest(payload) -> str:
    """Exact fingerprint of non-timing outputs (floats by repr)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_study(workload, state, tracer: Tracer | None, scratch: Path) -> dict:
    """Time one pass of the workload's fixed work, then check its outputs."""
    tmp = Path(tempfile.mkdtemp(prefix="report-", dir=scratch))
    study = tracer.span("study") if tracer else contextlib.nullcontext()
    try:
        if tracer:
            tracer.reset_counts()
            tracer.active = True
        with study as study_index:
            start = time.perf_counter()
            out = workload.study(state, tmp)
            study_s = time.perf_counter() - start
        if tracer:
            tracer.active = False
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    outcome = workload.outcome(state, out, study_s)
    sample = {
        "study_s": study_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "metrics": outcome.metrics,
        "notes": outcome.notes,
        "digest": digest(outcome.payload),
    }
    if tracer:
        sample["layers"] = layer_metrics(tracer, study_index)
    return sample


if __name__ == "__main__":
    sys.exit(main())
