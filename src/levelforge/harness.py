"""End-to-end pipeline driver and six-group batch experiment runner.

A level runs through: room arrangement, per-room facility annealing,
group-specific key placement, two-phase repair, rerun validation and the
objective simulation. Work fans out over worker processes at two levels:
`generate_level` anneals a level's rooms in parallel, and the experiment
runner generates its levels in parallel (its workers then lay their rooms
out one after another, so pools never nest). Each room and each level draws
from its own pre-derived seed, so results are byte-identical regardless of
worker count.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator

from .arrangement import LevelConfig, arrange_rooms
from .database import Database, load_database, save_database
from .errors import ConfigError, LevelforgeError, NoFreeSpace, SchemaError
from .export import level_hash
from .geometry import Dimensions, Pose
from .layout import optimize_room_layout
from .level import FacilityInstance, Level, MechanicPlacement
from .mechanics import (
    PACING_KEYS,
    MechanicInstance,
    assign_mechanics,
    db_group_mechanics,
    make_cstd_evaluator,
    mechanic_def,
    place_mechanic_in_room,
)
from .navsim import (
    STATUSES,
    AgentParams,
    MetricsRecord,
    agent_repair,
    build_nav_grid,
    geometric_repair,
    rerun_validation,
    simulate_objectives,
)
from .seeding import derive_rng, derive_seed
from .strategies import bfs_balanced_room, build_floor_graph, centrality_room, mc_dispersion_rooms

log = logging.getLogger("levelforge")

# Table column order used everywhere groups are reported.
GROUPS = (
    "A-Baseline",
    "DB-Baseline",
    "A-Exploration",
    "DB-Exploration",
    "A-Speedrun",
    "DB-Speedrun",
)

def canonical_group(name: str) -> str:
    for g in GROUPS:
        if g.lower() == name.lower():
            return g
    raise ConfigError(f"unknown group {name!r}; expected one of {', '.join(GROUPS)}")


@dataclass
class ExperimentConfig:
    groups: tuple[str, ...] = GROUPS
    levels_per_group: int = 30
    base_seed: int = 42
    level: LevelConfig = field(default_factory=LevelConfig)
    output_dir: Path | None = None


def level_seed(base_seed: int, group: str, index: int) -> int:
    return derive_seed(base_seed, group, index)


# -- single level pipeline -----------------------------------------------------

def _room_centre_pose(room, dims: Dimensions) -> Pose:
    """An unturned box of `dims` standing on the floor at the room's centre."""
    return Pose(room.dims.width / 2.0, room.dims.length / 2.0, dims.height / 2.0, 0.0, dims)


def _instantiate_room_facilities(db: Database, room) -> list[FacilityInstance]:
    template = db.room(room.template)
    out: list[FacilityInstance] = []
    for cf in template.characteristic_facilities:
        fdef = db.facility(cf.facility)
        fixed = fdef.positioning == "fixed"
        if fixed and len(cf.positions) < cf.count:
            raise SchemaError(
                f"room template {template.name!r}: fixed facility {fdef.name!r} has "
                f"{len(cf.positions)} position(s) for a count of {cf.count}"
            )
        for k in range(cf.count):
            if fixed:
                p = cf.positions[k]
                pose = Pose(p.x, p.y, fdef.dims.height / 2.0, p.yaw, fdef.dims)
            else:
                # placeholder; the annealer samples the real initial pose
                pose = _room_centre_pose(room, fdef.dims)
            out.append(
                FacilityInstance(
                    id=f"r{room.id}.{fdef.name}.{k}",
                    def_name=fdef.name,
                    room_id=room.id,
                    pose=pose,
                    fixed=fixed,
                    constraints=fdef.constraints,
                )
            )
    return out


def _strategy_of(group: str) -> tuple[str, str]:
    family, strategy = group.split("-", 1)
    return family, strategy.lower()


def _generic_instances(config: LevelConfig, db: Database) -> list[MechanicInstance]:
    """Instances for config-selected mechanics; definition topo rules bind
    to the first instance of the referenced definition."""
    out: list[MechanicInstance] = []
    for name, count in config.selected_mechanics:
        mdef = mechanic_def(db, name)
        rules = tuple(replace(rule, other=f"{rule.other}#0") for rule in mdef.topo_constraints)
        out.extend(
            MechanicInstance.of(mdef, f"{mdef.name}#{k}", topo=rules) for k in range(count)
        )
    return out


def _algorithmic_instances(
    level: Level, db: Database, strategy: str, seed: int
) -> tuple[list[MechanicInstance], dict[str, int]]:
    """A family: a graph algorithm picks each floor's key rooms and pins one
    key instance to each."""
    def_name, keys = PACING_KEYS[strategy]
    mdef = mechanic_def(db, def_name)
    instances: list[MechanicInstance] = []
    assignment: dict[str, int] = {}
    for floor in sorted({r.floor for r in level.rooms}):
        g = build_floor_graph(level, floor)
        if strategy == "baseline":
            chosen = [bfs_balanced_room(g)]
        elif strategy == "speedrun":
            chosen = [centrality_room(g)]
        else:
            chosen = mc_dispersion_rooms(g, keys, derive_rng(seed, "strategy", floor))
        for k, room_id in enumerate(chosen):
            inst = MechanicInstance.of(
                mdef, f"{def_name}@f{floor}#{k}", candidate_rooms=(room_id,)
            )
            instances.append(inst)
            assignment[inst.id] = room_id
    return instances, assignment


def _mechanic_instances(
    level: Level, db: Database, group: str | None, seed: int
) -> tuple[list[MechanicInstance], dict[str, int]]:
    """Build instances and their room assignment for the given group: the A
    family pins keys by graph algorithm; the custom and DB paths anneal the
    assignment under the instances' constraints."""
    if group is None:
        instances = _generic_instances(level.config, db)
    else:
        family, strategy = _strategy_of(group)
        if family == "A":
            return _algorithmic_instances(level, db, strategy, seed)
        instances = []
        for floor in sorted({r.floor for r in level.rooms}):
            instances.extend(
                db_group_mechanics(strategy, level, floor, db, level.config.weights)
            )
    if not instances:
        return [], {}
    config = level.config
    cstd = make_cstd_evaluator(level, config.weights, seed)
    assignment = assign_mechanics(
        level, instances, config.weights, config.sa, derive_rng(seed, "assign"), cstd
    )
    return instances, assignment.rooms


def _place_mechanics(
    level: Level,
    instances: list[MechanicInstance],
    assignment: dict[str, int],
    seed: int,
) -> None:
    weights = level.config.weights
    placed: list[MechanicPlacement] = []
    for inst in instances:
        room = level.room_by_id(assignment[inst.id])
        others = [
            (f.def_name, f.pose) for f in level.facilities_in_room(room.id)
        ] + [(p.def_name, p.pose) for p in placed if p.room_id == room.id]
        obstacles = level.stair_obstacles(room.id)
        rng = derive_rng(seed, "place", inst.id)
        try:
            placement = place_mechanic_in_room(
                inst, room, others, rng, weights, obstacles
            )
        except NoFreeSpace:
            # fully tiled room: drop the key at the room center and let the
            # repair phase clear a path to it
            placement = inst.placed(room.id, _room_centre_pose(room, inst.dims))
        placed.append(placement)
    level.mechanics = placed


def _layout_room(job: tuple) -> dict[str, Pose]:
    """Anneal one room's facilities from the room's own seed; their poses by id."""
    room, facilities, weights, sa, seed, obstacles = job
    layout = optimize_room_layout(
        room,
        facilities,
        weights,
        sa,
        derive_rng(seed, "layout", room.id),
        obstacles=obstacles,
    )
    return layout.placements


def _layout_rooms(jobs: list[tuple]) -> list[dict[str, Pose]]:
    """`_layout_room` over `jobs` in order: in a pool of up to
    `worker_count()` processes opened for this call, or in this process when
    one worker is available or this process is itself a worker."""
    workers = min(worker_count(), len(jobs))
    if workers <= 1 or multiprocessing.parent_process() is not None:
        return list(map(_layout_room, jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_layout_room, jobs, chunksize=1))


def generate_level(
    config: LevelConfig,
    db: Database,
    group: str | None,
    seed: int,
    level_id: str | None = None,
) -> tuple[Level, MetricsRecord]:
    """Run the full pipeline for one seed; never raises in-level repair
    failures, they land in the record's status. A level shape that
    `LevelConfig.check` refuses, a group that `canonical_group` does not
    know, or a selected template taller than a floor raises ConfigError; a
    room structure that cannot be started raises ArrangementFailed, and a
    level that `Level.check` refuses, or a placed template whose fixed
    facility has fewer positions than its count, raises SchemaError."""
    config.check()
    if group is not None:
        group = canonical_group(group)
    config = replace(config, seed=seed)
    group_label = group or "custom"
    level_id = level_id or f"{group_label}-{seed:x}"
    level = arrange_rooms(config, db, derive_rng(seed, "arrange"))

    facilities = [_instantiate_room_facilities(db, room) for room in level.rooms]
    jobs = [
        (room, fs, config.weights, config.sa, seed, level.stair_obstacles(room.id))
        for room, fs in zip(level.rooms, facilities)
        if fs
    ]
    for (_, fs, *_), placements in zip(jobs, _layout_rooms(jobs)):
        for inst in fs:
            inst.pose = placements[inst.id]
    for fs in facilities:
        level.facilities.extend(fs)

    instances, assignment = _mechanic_instances(level, db, group, seed)
    _place_mechanics(level, instances, assignment, seed)

    adaptable_count = sum(1 for f in level.facilities if not f.fixed)
    agent = AgentParams()
    grid = build_nav_grid(level)
    phase1_moves = geometric_repair(level, grid)
    report = agent_repair(level, agent, grid)
    level.check()
    repair = dict(
        level_id=level_id,
        group=group_label,
        seed=seed,
        repair_time=report.repair_time,
        facilities_removed=report.facilities_removed,
        adaptable_facilities=adaptable_count,
        phase1_moves=phase1_moves,
        phase2_moves=report.phase2_moves,
    )
    if report.status != "repaired":
        return level, MetricsRecord(
            status="unrepairable", level_hash=level_hash(level), **repair
        )

    rerun = rerun_validation(level, agent, grid)
    sim = simulate_objectives(level, level.mechanics, agent, grid)
    total_cells = math.prod(config.grid_shape())
    explored = (rerun.grid_cells + sim.sim_grid_cells) / 2.0
    return level, MetricsRecord(
        status="abnormal" if rerun.abnormal else "valid",
        rerun_time=rerun.rerun_time,
        simulation_time=sim.simulation_time,
        avg_completion_time=(rerun.rerun_time + sim.simulation_time) / 2.0,
        grid_exploration=rerun.grid_cells,
        sim_grid_exploration=sim.sim_grid_cells,
        avg_grid_exploration=explored,
        coverage=rerun.grid_cells / total_cells,
        sim_coverage=sim.sim_grid_cells / total_cells,
        avg_coverage=explored / total_cells,
        level_hash=level_hash(level),
        **repair,
    )


# -- batch runner ---------------------------------------------------------------

# records.csv columns: the record's fields, led by the row's place in the
# experiment.
_CSV_LEAD = ("group", "index", "seed", "level_id", "status")
_CSV_FIELDS = _CSV_LEAD + tuple(
    f.name for f in fields(MetricsRecord) if f.name not in _CSV_LEAD
)


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int


@dataclass
class AggregateStats:
    groups: tuple[str, ...]
    metrics: dict[str, dict[str, MetricStats]]  # group -> metric -> stats
    tallies: dict[str, dict[str, int]]  # group -> status -> count
    total_cells: int


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def compute_stats(
    records: list[MetricsRecord], groups: tuple[str, ...], total_cells: int
) -> AggregateStats:
    """Aggregate over valid levels only; tallies cover every record."""
    metrics: dict[str, dict[str, MetricStats]] = {}
    tallies: dict[str, dict[str, int]] = {}
    for group in groups:
        rows = [r for r in records if r.group == group]
        tallies[group] = {s: sum(1 for r in rows if r.status == s) for s in STATUSES}
        valid = [r for r in rows if r.status == "valid"]
        per_metric = {}
        for name, _ in _TABLE_ROWS:
            values = [float(getattr(r, name)) for r in valid]
            mean, std = _mean_std(values)
            half = 1.96 * std / math.sqrt(len(values)) if values else 0.0
            per_metric[name] = MetricStats(
                mean=mean, std=std, ci_low=mean - half, ci_high=mean + half, n=len(values)
            )
        metrics[group] = per_metric
    return AggregateStats(
        groups=groups, metrics=metrics, tallies=tallies, total_cells=total_cells
    )


_WORKER_STATE: dict = {}


def _init_worker(db_bytes: bytes, config: LevelConfig) -> None:
    _WORKER_STATE["db"] = load_database(db_bytes)
    _WORKER_STATE["config"] = config


def _run_task(task: tuple[str, int, int]) -> MetricsRecord:
    return _generate_record(_WORKER_STATE["config"], _WORKER_STATE["db"], *task)


def _generate_record(
    config: LevelConfig, db: Database, group: str, index: int, seed: int
) -> MetricsRecord:
    try:
        _, record = generate_level(
            config, db, group, seed, level_id=f"{group}-{index:04d}"
        )
        return record
    except LevelforgeError:
        # one level that cannot be built must not end the batch
        return MetricsRecord(
            level_id=f"{group}-{index:04d}", group=group, seed=seed, status="failed"
        )


def worker_count() -> int:
    """`LEVELFORGE_THREADS` when set, else the CPUs this process may run on."""
    env = os.environ.get("LEVELFORGE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"LEVELFORGE_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _generate_records(
    exp: ExperimentConfig, db: Database, tasks: list[tuple[str, int, int]]
) -> Iterator[MetricsRecord]:
    """Records of `tasks` in task order, from worker processes when more
    than one worker is available."""
    workers = min(worker_count(), len(tasks)) if tasks else 1
    if workers == 1:
        for task in tasks:
            yield _generate_record(exp.level, db, *task)
        return
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(save_database(db), exp.level),
    ) as pool:
        yield from pool.map(_run_task, tasks, chunksize=1)


def run_experiment(
    exp: ExperimentConfig, db: Database
) -> tuple[list[MetricsRecord], AggregateStats]:
    """Generate every (group, index) level and aggregate the metrics.

    Writes records.csv, stats.md and stats.csv when an output directory is
    configured. Ordering and content are independent of the worker count.
    A bad config or group raises ConfigError before any level starts; a
    level that raises another LevelforgeError is recorded as failed.
    """
    exp.level.check()
    exp = replace(exp, groups=tuple(map(canonical_group, exp.groups)))
    tasks = [
        (group, index, level_seed(exp.base_seed, group, index))
        for group in exp.groups
        for index in range(exp.levels_per_group)
    ]
    records = []
    for record in _generate_records(exp, db, tasks):
        log.info("level %s seed=%d status=%s", record.level_id, record.seed, record.status)
        records.append(record)
    total_cells = math.prod(exp.level.grid_shape())
    stats = compute_stats(records, exp.groups, total_cells)

    if exp.output_dir is not None:
        out = Path(exp.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "records.csv").write_text(records_csv(records, exp))
        markdown, stats_csv_text = emit_table(stats)
        (out / "stats.md").write_text(markdown)
        (out / "stats.csv").write_text(stats_csv_text)
    return records, stats


def records_csv(records: list[MetricsRecord], exp: ExperimentConfig) -> str:
    """Per-level rows in deterministic (group, index) order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for pos, record in enumerate(records):
        index = pos % exp.levels_per_group
        writer.writerow([index if f == "index" else getattr(record, f) for f in _CSV_FIELDS])
    return buf.getvalue()


# -- table emission ----------------------------------------------------------------

_TABLE_ROWS = (
    ("repair_time", "Repair Time (s)"),
    ("facilities_removed", "Facilities Removed"),
    ("rerun_time", "Rerun Time (s)"),
    ("simulation_time", "Simulation Time (s)"),
    ("avg_completion_time", "Avg. Completion Time (s)"),
    ("grid_exploration", "Grid Exploration"),
    ("sim_grid_exploration", "Sim. Grid Exploration"),
    ("avg_grid_exploration", "Avg. Grid Exploration"),
)

_COVERAGE_ROWS = {
    "grid_exploration": "(Coverage %)",
    "sim_grid_exploration": "(Sim. Coverage %)",
    "avg_grid_exploration": "(Avg. Coverage %)",
}


def emit_table(stats: AggregateStats) -> tuple[str, str]:
    """Markdown table plus a lossless CSV of the aggregate statistics."""
    lines = ["| Metric | " + " | ".join(stats.groups) + " |"]
    lines.append("|---" * (len(stats.groups) + 1) + "|")
    if stats.groups:
        for key, label in _TABLE_ROWS:
            cells = []
            for group in stats.groups:
                m = stats.metrics[group][key]
                cells.append(f"{m.mean:.2f} ± {m.std:.2f}")
            lines.append(f"| {label} | " + " | ".join(cells) + " |")
            if key in _COVERAGE_ROWS and stats.total_cells:
                pct = [
                    f"({stats.metrics[g][key].mean / stats.total_cells * 100:.1f}%)"
                    for g in stats.groups
                ]
                lines.append(f"| {_COVERAGE_ROWS[key]} | " + " | ".join(pct) + " |")
        tally_cells = [
            "/".join(str(stats.tallies[g][s]) for s in STATUSES) for g in stats.groups
        ]
        lines.append(
            f"| Status ({'/'.join(STATUSES)}) | " + " | ".join(tally_cells) + " |"
        )
    markdown = "\n".join(lines) + "\n"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "name", "mean", "std", "ci_low", "ci_high", "n"])
    writer.writerow(["_total_cells", "", "", "", "", "", stats.total_cells])
    for group in stats.groups:
        for key, _ in _TABLE_ROWS:
            m = stats.metrics[group][key]
            writer.writerow(
                [group, key, repr(m.mean), repr(m.std), repr(m.ci_low), repr(m.ci_high), m.n]
            )
        for status in STATUSES:
            writer.writerow(
                [group, f"count:{status}", "", "", "", "", stats.tallies[group][status]]
            )
    return markdown, buf.getvalue()
