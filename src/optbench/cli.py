"""Command-line entry points: generate, tune, run, report, oracle.

Exit codes: 0 success, 1 configuration or input error, a run with no successful
record or a tuned solver none of whose grid cells succeeded, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    GRID_OBJECTIVES,
    ConfigError,
    config_instances,
    emit_report,
    grid_search,
    load_config,
    load_records,
    oracle_table,
    parse_experiment,
    parse_grids,
    run_bsf_experiment,
    run_tts_experiment,
    write_instance_files,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")
    sub.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optbench")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write an instance dataset to files")
    _add_common(gen)

    oracle = commands.add_parser("oracle", help="write exhaustive optima to oracle.jsonl")
    _add_common(oracle)

    tune = commands.add_parser("tune", help="grid-search solver hyperparameters")
    _add_common(tune)
    tune.add_argument("--objective", default="tts", choices=GRID_OBJECTIVES, help="grid objective")

    run = commands.add_parser("run", help="execute the configured scenario")
    _add_common(run)
    run.add_argument("--time-limit", type=float, default=None,
                     help="seconds per solver call loop (bsf scenarios)")
    run.add_argument("--jobs", type=int, default=None, help="parallel workers")

    report = commands.add_parser("report", help="summaries and plot data from records")
    report.add_argument("--records", required=True, help="records.jsonl path")
    report.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_generate(args) -> int:
    _, instances = config_instances(load_config(args.config), {"seed": args.seed})
    out = Path(args.out or "instances")
    written = write_instance_files(instances, out)
    print(f"wrote {len(written) - 1} instances to {out}")
    return 0


def _cmd_oracle(args) -> int:
    settings, instances = config_instances(load_config(args.config), {"seed": args.seed})
    rows = oracle_table(instances, cap=settings["oracle_cap"])
    out = Path(args.out or ".") / "oracle.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    solved = sum(1 for r in rows if r["status"] == "ok")
    print(f"solved {solved}/{len(rows)} instances -> {out}")
    return 0


def _cmd_tune(args) -> int:
    parser = load_config(args.config)
    cfg = parse_experiment(parser, {"seed": args.seed})
    grids = parse_grids(parser, cfg.solvers)
    out = Path(args.out or "tuning")
    out.mkdir(parents=True, exist_ok=True)
    tuned = {}
    for spec in [spec for spec in cfg.solvers if spec.name in grids]:
        result = grid_search(spec, grids[spec.name], cfg.instances, master_seed=cfg.seed,
                             objective=args.objective, oracle_cap=cfg.oracle_cap)
        tuned[result.solver] = result.best_params
        lines = [f"# solver={result.solver} objective={result.objective}"]
        for cell, value in result.table:
            lines.append(f"{json.dumps(cell)}\t{value}")
        lines.append(f"# best={json.dumps(result.best_params)}")
        (out / f"grid_{result.solver}.txt").write_text("\n".join(lines) + "\n")
    best = {solver: cell for solver, cell in tuned.items() if cell is not None}
    (out / "best_params.json").write_text(json.dumps(best, indent=2))
    print(f"tuned {len(best)} solvers -> {out}")
    for solver in tuned:
        if solver not in best:
            print(f"error: no grid cell of {solver} succeeded on any tuning instance",
                  file=sys.stderr)
    return 0 if best == tuned else 1


def _cmd_run(args) -> int:
    parser = load_config(args.config)
    overrides = {"seed": args.seed, "time_limit": args.time_limit,
                 "output": args.out, "jobs": args.jobs}
    cfg = parse_experiment(parser, overrides)
    if cfg.scenario == "tts":
        records = run_tts_experiment(cfg)
    else:
        records = run_bsf_experiment(cfg)
    out = cfg.output_dir or Path("out")
    written = emit_report(records, out)
    ok = sum(1 for r in records if r.status == "ok")
    print(f"{ok}/{len(records)} runs ok; wrote {len(written)} files to {out}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    try:
        records = load_records(args.records)
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:  # JSON's too
        raise ConfigError(f"records file {args.records}: {type(exc).__name__}: {exc}") from None
    if not records:
        raise ConfigError(f"records file {args.records} holds no records")
    written = emit_report(records, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "generate": _cmd_generate,
        "oracle": _cmd_oracle,
        "tune": _cmd_tune,
        "run": _cmd_run,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
