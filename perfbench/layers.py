"""Which levelforge calls are traced, the per-layer metrics derived from the
spans, and kernel timings on fixed inputs."""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

from levelforge import export, harness, layout, navsim

# (module, attribute, span name): the attributes the pipeline looks up at
# call time. `harness` imported the stage functions by name, so generation
# is traced through harness's own references; the replay path calls the
# navsim and export module attributes directly.
PIPELINE_CALLS = (
    (harness, "generate_level", "harness.generate_level"),
    (harness, "arrange_rooms", "arrangement.arrange_rooms"),
    (harness, "optimize_room_layout", "layout.optimize_room_layout"),
    (harness, "make_cstd_evaluator", "mechanics.make_cstd_evaluator"),
    (harness, "assign_mechanics", "mechanics.assign_mechanics"),
    (harness, "db_group_mechanics", "mechanics.db_group_mechanics"),
    (harness, "place_mechanic_in_room", "mechanics.place_mechanic_in_room"),
    (harness, "build_floor_graph", "strategies.build_floor_graph"),
    (harness, "bfs_balanced_room", "strategies.bfs_balanced_room"),
    (harness, "centrality_room", "strategies.centrality_room"),
    (harness, "mc_dispersion_rooms", "strategies.mc_dispersion_rooms"),
    (harness, "build_nav_grid", "navsim.build_nav_grid"),
    (harness, "geometric_repair", "navsim.geometric_repair"),
    (harness, "agent_repair", "navsim.agent_repair"),
    (harness, "rerun_validation", "navsim.rerun_validation"),
    (harness, "simulate_objectives", "navsim.simulate_objectives"),
    (harness, "level_hash", "export.level_hash"),
    (navsim, "flood_fill_room", "navsim.flood_fill_room"),
    (navsim, "astar_path", "navsim.astar_path"),
    (navsim, "target_cell", "navsim.target_cell"),
    (navsim, "build_nav_grid", "navsim.build_nav_grid"),
    (navsim, "rerun_validation", "navsim.rerun_validation"),
    (navsim, "simulate_objectives", "navsim.simulate_objectives"),
    (export, "import_level_json", "export.import_level_json"),
    (export, "export_vmf", "export.export_vmf"),
    (export, "level_hash", "export.level_hash"),
)

# Calls the batch runner makes in the benchmark process. The generation calls
# run in the workers, where they are not traced.
BATCH_CALLS = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "save_database", "database.save_database"),
    (harness, "records_csv", "harness.records_csv"),
    (harness, "emit_table", "harness.emit_table"),
)

ANNEALER = "layout.optimize_room_layout"

PER_LAYER_UNITS = {
    "layout.ms_per_level": "ms",
    "layout.share": "ratio",
    "layout.rooms_per_level": "count",
    "layout.ms_per_room": "ms",
    "layout.accept_ratio": "ratio",
    "layout.last_improve_iter_p50": "count",
    "layout.objective_us": "us",
    "navsim.repair1_ms_per_level": "ms",
    "navsim.repair1_share": "ratio",
    "navsim.flood_fill_calls_per_level": "count",
    "navsim.flood_fill_ms_per_level": "ms",
    "navsim.repair1_move_ratio": "ratio",
    "navsim.repair2_ms_per_level": "ms",
    "navsim.grid_ms_per_level": "ms",
    "navsim.rerun_ms_per_level": "ms",
    "navsim.sim_ms_per_level": "ms",
    "navsim.astar_calls_per_level": "count",
    "navsim.astar_ms_per_level": "ms",
    "navsim.target_cell_ms_per_level": "ms",
    "navsim.flood_fill_room_us": "us",
    "navsim.astar_path_us": "us",
    "export.hash_ms_per_level": "ms",
    "export.import_ms_per_level": "ms",
    "export.vmf_ms_per_level": "ms",
    "export.json_bytes": "bytes",
    "export.vmf_bytes": "bytes",
    "arrangement.ms_per_level": "ms",
    "arrangement.rooms_per_level": "count",
    "mechanics.assign_ms_per_level": "ms",
    "mechanics.place_ms_per_level": "ms",
    "strategies.ms_per_level": "ms",
    "database.load_ms": "ms",
    "database.save_ms": "ms",
    "harness.write_ms": "ms",
    "harness.self_ms_per_level": "ms",
    "harness.pool_idle_share": "ratio",
    "harness.batch_levels_per_s": "1/s",
    "harness.scaling_efficiency": "ratio",
    "trace.overhead_share": "ratio",
    "src.lines": "count",
    "latency.samples": "count",
    "latency.level_s_p50": "s",
    "latency.level_s_p90": "s",
}


def install(tracer, calls) -> None:
    for module, attr, name in calls:
        tracer.wrap(module, attr, name, anneal=name == ANNEALER)


def span_metrics(tracer, levels: int, root: str) -> dict[str, float]:
    """Per-level layer metrics from the spans of `levels` traced levels.

    `root` is the span that covers one whole level; shares are of its time.
    A layer the workload does not run reads 0.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def ms_per_level(*names):
        return secs(*names) * 1000.0 / levels

    root_s = secs(root)
    layout_calls = calls(ANNEALER)
    iterations = sum(a[0] for a in tracer.anneals)
    return {
        "layout.ms_per_level": ms_per_level(ANNEALER),
        "layout.share": secs(ANNEALER) / root_s if root_s else 0.0,
        "layout.rooms_per_level": layout_calls / levels,
        "layout.ms_per_room": secs(ANNEALER) * 1000.0 / layout_calls if layout_calls else 0.0,
        "layout.accept_ratio": (
            sum(a[1] for a in tracer.anneals) / iterations if iterations else 0.0
        ),
        "layout.last_improve_iter_p50": (
            statistics.median(a[2] for a in tracer.anneals) if tracer.anneals else 0.0
        ),
        "navsim.repair1_ms_per_level": ms_per_level("navsim.geometric_repair"),
        "navsim.repair1_share": (
            secs("navsim.geometric_repair") / root_s if root_s else 0.0
        ),
        "navsim.flood_fill_calls_per_level": calls("navsim.flood_fill_room") / levels,
        "navsim.flood_fill_ms_per_level": ms_per_level("navsim.flood_fill_room"),
        "navsim.repair2_ms_per_level": ms_per_level("navsim.agent_repair"),
        "navsim.grid_ms_per_level": ms_per_level("navsim.build_nav_grid"),
        "navsim.rerun_ms_per_level": ms_per_level("navsim.rerun_validation"),
        "navsim.sim_ms_per_level": ms_per_level("navsim.simulate_objectives"),
        "navsim.astar_calls_per_level": calls("navsim.astar_path") / levels,
        "navsim.astar_ms_per_level": ms_per_level("navsim.astar_path"),
        "navsim.target_cell_ms_per_level": ms_per_level("navsim.target_cell"),
        "export.hash_ms_per_level": ms_per_level("export.level_hash"),
        "export.import_ms_per_level": ms_per_level("export.import_level_json"),
        "export.vmf_ms_per_level": ms_per_level("export.export_vmf"),
        "arrangement.ms_per_level": ms_per_level("arrangement.arrange_rooms"),
        "mechanics.assign_ms_per_level": ms_per_level(
            "mechanics.make_cstd_evaluator",
            "mechanics.assign_mechanics",
            "mechanics.db_group_mechanics",
        ),
        "mechanics.place_ms_per_level": ms_per_level("mechanics.place_mechanic_in_room"),
        "strategies.ms_per_level": ms_per_level(
            "strategies.build_floor_graph",
            "strategies.bfs_balanced_room",
            "strategies.centrality_room",
            "strategies.mc_dispersion_rooms",
        ),
        "harness.self_ms_per_level": (
            totals.get("harness.generate_level", (0, 0.0, 0.0))[2] * 1000.0 / levels
        ),
    }


def batch_metrics(tracer) -> dict[str, float]:
    """Costs the batch runner pays in the benchmark process, per run_experiment call."""
    totals = tracer.totals()
    experiments = totals.get("harness.run_experiment", (0, 0.0, 0.0))[0]
    saves, save_s, _ = totals.get("database.save_database", (0, 0.0, 0.0))
    write_s = sum(totals.get(n, (0, 0.0, 0.0))[1] for n in ("harness.records_csv", "harness.emit_table"))
    return {
        "database.save_ms": save_s * 1000.0 / saves if saves else 0.0,
        "harness.write_ms": write_s * 1000.0 / experiments if experiments else 0.0,
    }


def self_time_table(tracer, levels: int, root: str) -> list[str]:
    """Human-readable self times per span name, largest first."""
    totals = tracer.totals()
    root_s = totals.get(root, (0, 0.0, 0.0))[1] or 1.0
    rows = sorted(totals.items(), key=lambda kv: -kv[1][2])
    return [
        f"  {name:36s} calls/level {c / levels:9.1f}  incl {i * 1000 / levels:9.2f} ms"
        f"  self {s * 1000 / levels:9.2f} ms  self share {s / root_s:6.1%}"
        for name, (c, i, s) in rows
    ]


def _per_call_us(fn, batches: int = 7, batch_s: float = 0.04) -> float:
    """Median over batches of the mean per-call time, in microseconds."""
    fn()
    reps = 1
    while True:
        start = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - start >= batch_s or reps >= 1 << 16:
            break
        reps *= 2
    per_call = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((perf_counter() - start) / reps)
    return statistics.median(per_call) * 1e6


def kernel_metrics(level) -> dict[str, float]:
    """Time three hot kernels on inputs taken from one finished level: the
    room objective of its most furnished room, one flood fill of that room,
    and the A* path from the first to the last room in topological order."""
    grid = navsim.build_nav_grid(level)
    room = max(level.rooms, key=lambda r: (len(level.facilities_in_room(r.id)), -r.id))
    facilities = level.facilities_in_room(room.id)
    obstacles = level.stair_obstacles(room.id)
    weights = level.config.weights
    ordered = sorted(level.rooms, key=lambda r: r.tau)
    start = navsim.target_cell(grid, ordered[0])
    goal = navsim.target_cell(grid, ordered[-1])
    if navsim.astar_path(grid, start, goal) is None:
        raise RuntimeError("kernel input: no path from the first to the last room")
    return {
        "layout.objective_us": _per_call_us(
            lambda: layout.objective(room, facilities, weights, obstacles)
        ),
        "navsim.flood_fill_room_us": _per_call_us(
            lambda: navsim.flood_fill_room(level, grid, room)
        ),
        "navsim.astar_path_us": _per_call_us(lambda: navsim.astar_path(grid, start, goal)),
    }


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
