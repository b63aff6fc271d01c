"""Command line interface.

Exit codes: 0 success, 1 validation failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .arrangement import LevelConfig
from .database import load_database, validate_database
from .errors import LevelforgeError
from .export import export_level_json, export_vmf, import_level_json
from .harness import (
    GROUPS,
    ExperimentConfig,
    generate_level,
    run_experiment,
)
from .navsim import (
    STATUSES,
    AgentParams,
    build_nav_grid,
    rerun_validation,
    simulate_objectives,
)

log = logging.getLogger("levelforge")


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _load_db(path: str):
    return load_database(_read_bytes(path))


def cmd_validate_db(args) -> int:
    db = _load_db(args.db)
    violations = validate_database(db)
    for v in violations:
        print(f"{v.entity}: {v.rule}: {v.message}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("OK")
    return 0


def _level_config(args) -> LevelConfig:
    return LevelConfig(
        width=args.width,
        length=args.length,
        height=args.height,
        floors=args.floors,
    )


def cmd_generate(args) -> int:
    db = _load_db(args.db)
    config = _level_config(args)
    level, record = generate_level(db=db, config=config, group=args.group, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "level.json").write_bytes(export_level_json(level))
    (out / "metrics.json").write_text(json.dumps(record.__dict__, indent=2) + "\n")
    if args.trace:
        trace: list = []
        grid = build_nav_grid(level)
        if record.status in ("valid", "abnormal"):
            rerun_validation(level, AgentParams(), grid, trace=trace)
        with open(out / "trace.jsonl", "w") as fh:
            for row in trace:
                fh.write(json.dumps(row) + "\n")
    print(f"{record.level_id}: status={record.status}")
    return 0


def cmd_experiment(args) -> int:
    db = _load_db(args.db)
    if args.groups == "all":
        groups = GROUPS
    else:
        groups = tuple(g.strip() for g in args.groups.split(","))
    exp = ExperimentConfig(
        groups=groups,
        levels_per_group=args.levels_per_group,
        base_seed=args.base_seed,
        level=_level_config(args),
        output_dir=Path(args.out),
    )
    records, stats = run_experiment(exp, db)
    counts = {s: sum(1 for r in records if r.status == s) for s in STATUSES}
    print(f"{len(records)} levels: {counts}")
    print(f"wrote {exp.output_dir}/records.csv, stats.md, stats.csv")
    return 0


def cmd_export_vmf(args) -> int:
    level = import_level_json(_read_bytes(args.level))
    Path(args.out).write_bytes(export_vmf(level, scale=args.scale))
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    level = import_level_json(_read_bytes(args.level))
    grid = build_nav_grid(level)
    agent = AgentParams()
    rerun = rerun_validation(level, agent, grid)
    sim = simulate_objectives(level, level.mechanics, agent, grid)
    print(
        json.dumps(
            {
                "rerun_time": rerun.rerun_time,
                "grid_exploration": rerun.grid_cells,
                "abnormal": rerun.abnormal,
                "simulation_time": sim.simulation_time,
                "sim_grid_exploration": sim.sim_grid_cells,
            },
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelforge",
        description="Database-driven multi-floor 3D level generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-db", help="check a database document")
    p.add_argument("db")
    p.set_defaults(fn=cmd_validate_db)

    def add_level_args(p):
        p.add_argument("--width", type=float, default=50.0)
        p.add_argument("--length", type=float, default=50.0)
        p.add_argument("--height", type=float, default=30.0)
        p.add_argument("--floors", type=int, default=3)

    p = sub.add_parser("generate", help="generate a single level")
    p.add_argument("--db", required=True)
    p.add_argument("--group", required=True, help="|".join(GROUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true", help="dump the rerun path trace")
    add_level_args(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("experiment", help="run the six-group batch experiment")
    p.add_argument("--db", required=True)
    p.add_argument("--groups", default="all")
    p.add_argument("--levels-per-group", type=int, default=30)
    p.add_argument("--base-seed", type=int, default=42)
    p.add_argument("--out", required=True)
    add_level_args(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("export-vmf", help="convert a stored level to VMF")
    p.add_argument("--level", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=64.0)
    p.set_defaults(fn=cmd_export_vmf)

    p = sub.add_parser("simulate", help="re-run the simulator on a stored level")
    p.add_argument("--level", required=True)
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except LevelforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
