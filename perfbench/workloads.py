"""The benchmark's workloads, all closed-loop from one process.

paper_level  generate_level on sh_hospital at the paper's scale, six groups
             round-robin, one process; then the first six levels through
             run_experiment with two workers as the worker-count check.
replay       levels of the same seeds are generated and stored as JSON in
             set-up; each timed pass replays one stored level the way the
             `simulate` and `export-vmf` CLI commands do, and a level's
             cost is its fastest pass.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from itertools import count
from multiprocessing import get_context, resource_tracker
from pathlib import Path
from time import perf_counter

from levelforge import export, harness, navsim
from levelforge.arrangement import LevelConfig
from levelforge.database import load_database
from levelforge.errors import LevelforgeError
from levelforge.navsim import AgentParams, MetricsRecord

import layers
from tracer import Tracer

CONFIG = LevelConfig()  # 50 x 50 x 30 m, three floors: the paper's scale
AGENT = AgentParams()
GROUPS = harness.GROUPS
WORKERS = 2
DB_LOADS = 9
STARTUPS = 5
STORED_ROUNDS = 3  # replay stores six groups x three levels
TRACED_REPLAY_CYCLES = 3
SRC = Path(harness.__file__).resolve().parent.parent


@dataclass
class Result:
    levels_per_s: float
    level_s: list[float]
    setup_s: float
    attempted: int
    failed: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    env: dict = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


# A fresh interpreter importing the pipeline and loading the database: the
# set-up a `levelforge generate` or `simulate` invocation pays before work.
_STARTUP = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from importlib import resources
from levelforge import cli, database
data = resources.files("levelforge.data").joinpath("sh_hospital.json").read_bytes()
database.load_database(data)
print(time.perf_counter() - t0)
"""


def startup_s() -> float:
    """Median over STARTUPS fresh interpreters of import plus database load."""
    times = []
    for _ in range(STARTUPS):
        out = subprocess.run(
            [sys.executable, "-c", _STARTUP, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def load_db() -> tuple[object, bytes, float]:
    """The hospital database, loaded DB_LOADS times; median seconds."""
    data = resources.files("levelforge.data").joinpath("sh_hospital.json").read_bytes()
    times = []
    for _ in range(DB_LOADS):
        start = perf_counter()
        db = load_database(data)
        times.append(perf_counter() - start)
    return db, data, statistics.median(times)


def plan(base_seed: int):
    """(group, index, seed) in rounds of the six groups."""
    for index in count():
        for group in GROUPS:
            yield group, index, harness.level_seed(base_seed, group, index)


def generate(db, group: str, index: int, seed: int):
    """One level as the batch runner makes it; a raised LevelforgeError is
    recorded as a failed level."""
    level_id = f"{group}-{index:04d}"
    try:
        return harness.generate_level(CONFIG, db, group, seed, level_id=level_id)
    except LevelforgeError:
        return None, MetricsRecord(level_id=level_id, group=group, seed=seed, status="failed")


def rectangles(n: int) -> list[tuple[tuple[str, ...], int]]:
    """Cover the first n levels of `plan` with (groups, levels_per_group)
    experiments, as run_experiment lays them out."""
    rounds, extra = divmod(n, len(GROUPS))
    out = []
    if extra:
        out.append((GROUPS[:extra], rounds + 1))
    if rounds:
        out.append((GROUPS[extra:], rounds))
    return out


def records_texts(records: dict, base_seed: int, n: int) -> list[str]:
    texts = []
    for groups, per in rectangles(n):
        exp = harness.ExperimentConfig(
            groups=groups, levels_per_group=per, base_seed=base_seed, level=CONFIG
        )
        rows = [records[(g, i)] for g in groups for i in range(per)]
        texts.append(harness.records_csv(rows, exp))
    return texts


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t if isinstance(t, bytes) else t.encode())
    return h.hexdigest()


def batch_check(db, base_seed: int, n: int, expected: list[str], tmp: Path):
    """Run the same levels through run_experiment with two workers and
    compare its records.csv bytes with the single-process records."""
    wall = 0.0
    mismatches = []
    previous = os.environ.get("LEVELFORGE_THREADS")
    os.environ["LEVELFORGE_THREADS"] = str(WORKERS)
    try:
        for j, ((groups, per), text) in enumerate(zip(rectangles(n), expected)):
            out = tmp / f"experiment{j}"
            exp = harness.ExperimentConfig(
                groups=groups, levels_per_group=per, base_seed=base_seed,
                level=CONFIG, output_dir=out,
            )
            start = perf_counter()
            harness.run_experiment(exp, db)
            wall += perf_counter() - start
            if (out / "records.csv").read_text() != text:
                mismatches.append(f"{'+'.join(groups)} x {per}")
            for name in ("stats.md", "stats.csv"):
                if not (out / name).is_file():
                    mismatches.append(f"{name} missing")
    finally:
        if previous is None:
            os.environ.pop("LEVELFORGE_THREADS", None)
        else:
            os.environ["LEVELFORGE_THREADS"] = previous
    return wall, mismatches


def paper_level(base_seed: int, seconds: float, trace: bool, tmp: Path) -> Result:
    db, _, load_s = load_db()
    setup_s = startup_s()

    records, level_s, rooms, first_level = {}, [], [], None
    start = perf_counter()
    deadline = start + seconds
    for group, index, seed in plan(base_seed):
        t0 = perf_counter()
        level, record = generate(db, group, index, seed)
        level_s.append(perf_counter() - t0)
        records[(group, index)] = record
        if level is not None:
            rooms.append(len(level.rooms))
            if first_level is None:
                first_level = level
        if perf_counter() >= deadline:
            break
    wall = perf_counter() - start
    n = len(records)

    result = Result(
        levels_per_s=n / wall,
        level_s=level_s,
        setup_s=setup_s,
        attempted=n,
        failed=sum(r.status != "valid" for r in records.values()),
        env={"levels": n, "records_sha256": digest(records_texts(records, base_seed, n))},
    )
    result.per_layer["database.load_ms"] = load_s * 1000.0

    # The traced pass and the worker-count check take the first round of
    # levels, one of each group.
    checked = min(n, len(GROUPS))
    texts = records_texts(records, base_seed, checked)
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer, layers.PIPELINE_CALLS)
        traced, traced_s = {}, 0.0
        try:
            for (group, index, seed), _ in zip(plan(base_seed), range(checked)):
                tracer.level = f"{group}-{index:04d}"
                t0 = perf_counter()
                traced[(group, index)] = generate(db, group, index, seed)[1]
                traced_s += perf_counter() - t0
        finally:
            tracer.restore()
        result.checks.append(
            ("traced records equal untraced",
             digest(records_texts(traced, base_seed, checked)) == digest(texts),
             f"{checked} levels")
        )
        moves = sum(r.phase1_moves for r in traced.values())
        result.per_layer.update(layers.span_metrics(tracer, checked, "harness.generate_level"))
        flood_calls = result.per_layer["navsim.flood_fill_calls_per_level"] * checked
        result.per_layer["navsim.repair1_move_ratio"] = moves / flood_calls if flood_calls else 0.0
        result.per_layer["arrangement.rooms_per_level"] = statistics.mean(rooms) if rooms else 0.0
        result.per_layer["trace.overhead_share"] = 1.0 - sum(level_s[:checked]) / traced_s
        result.notes += layers.self_time_table(tracer, checked, "harness.generate_level")
        layers.install(tracer, layers.BATCH_CALLS)

    try:
        batch_wall, mismatches = batch_check(db, base_seed, checked, texts, tmp)
    finally:
        if tracer is not None:
            tracer.restore()
    result.checks.append(
        (f"records.csv identical with 1 and {WORKERS} workers", not mismatches,
         "; ".join(mismatches) or f"{checked} levels, {digest(texts)}")
    )
    batch_lps = checked / batch_wall
    result.notes.append(
        f"batch {WORKERS} workers: {checked} levels in {batch_wall:.2f} s, "
        f"{batch_lps:.4f} levels/s"
    )
    if trace:
        result.per_layer.update(layers.batch_metrics(tracer))
        result.per_layer["harness.batch_levels_per_s"] = batch_lps
        result.per_layer["harness.scaling_efficiency"] = batch_lps / (
            WORKERS * checked / sum(level_s[:checked])
        )
        result.per_layer["harness.pool_idle_share"] = 1.0 - sum(level_s[:checked]) / (
            WORKERS * batch_wall
        )
        if first_level is not None:
            result.per_layer.update(layers.kernel_metrics(first_level))
        result.tracer = tracer
    return result


# -- replay ---------------------------------------------------------------------

_WORKER_DB = {}


def _store_init(db_bytes: bytes) -> None:
    _WORKER_DB["db"] = load_database(db_bytes)


def _store_level(task):
    group, index, seed = task
    level, record = generate(_WORKER_DB["db"], group, index, seed)
    data = export.export_level_json(level) if level is not None else b""
    return f"{group}-{index:04d}", record, data


def store_levels(db_bytes: bytes, base_seed: int, n: int):
    """Generate and store the first n levels of `plan` with two workers."""
    tasks = [t for t, _ in zip(plan(base_seed), range(n))]
    with ProcessPoolExecutor(
        max_workers=WORKERS, mp_context=get_context("spawn"),
        initializer=_store_init, initargs=(db_bytes,),
    ) as pool:
        stored = list(pool.map(_store_level, tasks))
    # The spawn pool started multiprocessing's resource tracker process; stop
    # it and wait for it, so that no process outlives the run.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    return stored


def best_per_level(level_s: list[float], m: int) -> list[float]:
    """The fastest of the timed passes of each of the m levels that the
    passes in `level_s` cycle over. A pass is deterministic work, and other
    load on the machine only ever adds time, so the minimum is the steadiest
    estimate of what the pass costs."""
    return [min(level_s[j::m]) for j in range(m)]


def replay_level(data: bytes):
    """The `simulate` and `export-vmf` paths on one stored level."""
    level = export.import_level_json(data)
    grid = navsim.build_nav_grid(level)
    rerun = navsim.rerun_validation(level, AGENT, grid)
    sim = navsim.simulate_objectives(level, level.mechanics, AGENT, grid)
    vmf = export.export_vmf(level)
    return export.level_hash(level), rerun.rerun_time, sim.simulation_time, vmf


def _replay_cycle(stored, level_s, outputs, tracer=None) -> int:
    """Replay every stored level once; returns how many did not reproduce
    their stored hash, rerun time and simulation time."""
    failed = 0
    for level_id, record, data in stored:
        if tracer is not None:
            tracer.level = level_id
        t0 = perf_counter()
        try:
            out = replay_level(data)
        except LevelforgeError:
            out = None
        level_s.append(perf_counter() - t0)
        if out is None or out[:3] != (record.level_hash, record.rerun_time, record.simulation_time):
            failed += 1
        outputs.append(out)
    return failed


def replay_digest(outputs) -> str:
    return digest(
        b"" if out is None else f"{out[0]} {out[1]!r} {out[2]!r} ".encode() + out[3]
        for out in outputs
    )


def replay(base_seed: int, seconds: float, trace: bool, tmp: Path) -> Result:
    _, db_bytes, load_s = load_db()
    setup_s = startup_s()
    generation_start = perf_counter()
    generated = store_levels(db_bytes, base_seed, STORED_ROUNDS * len(GROUPS))
    generation_s = perf_counter() - generation_start
    stored = [g for g in generated if g[1].status == "valid"]
    setup_failed = len(generated) - len(stored)

    level_s, outputs, failed, cycles = [], [], setup_failed, 0
    start = perf_counter()
    while stored and (cycles == 0 or perf_counter() < start + seconds):
        failed += _replay_cycle(stored, level_s, outputs if cycles == 0 else [])
        cycles += 1
    passes = len(level_s)
    best = best_per_level(level_s, len(stored)) if stored else []

    result = Result(
        levels_per_s=len(best) / sum(best) if best else 0.0,
        level_s=level_s,
        setup_s=setup_s + generation_s,
        attempted=passes + setup_failed,
        failed=failed,
        env={
            "levels": len(generated),
            "replays": passes,
            "replay_sha256": replay_digest(outputs),
        },
    )
    result.checks.append(
        ("replays reproduce stored hash, rerun and simulation times",
         failed == setup_failed, f"{failed - setup_failed} of {passes} differ")
    )
    result.notes.append(
        f"set-up: start-up {setup_s:.3f} s, {len(generated)} levels stored "
        f"in {generation_s:.2f} s with {WORKERS} workers"
    )
    result.per_layer["database.load_ms"] = load_s * 1000.0
    if not stored:
        return result
    result.per_layer["export.json_bytes"] = statistics.mean(len(d) for _, _, d in stored)
    result.per_layer["export.vmf_bytes"] = statistics.mean(len(out[3]) for out in outputs if out)

    if trace:
        tracer = Tracer()
        layers.install(tracer, layers.PIPELINE_CALLS)
        tracer.wrap(sys.modules[__name__], "replay_level", "bench.replay_level")
        traced_s, traced_out = [], []
        try:
            for cycle in range(min(cycles, TRACED_REPLAY_CYCLES)):
                _replay_cycle(stored, traced_s, traced_out if cycle == 0 else [], tracer)
        finally:
            tracer.restore()
        traced_digest = replay_digest(traced_out)
        result.checks.append(
            ("traced replays equal untraced", traced_digest == result.env["replay_sha256"],
             traced_digest)
        )
        levels = len(traced_s)
        result.per_layer.update(layers.span_metrics(tracer, levels, "bench.replay_level"))
        result.per_layer["trace.overhead_share"] = 1.0 - (
            sum(best) / sum(best_per_level(traced_s, len(stored)))
        )
        result.per_layer.update(layers.kernel_metrics(export.import_level_json(stored[0][2])))
        result.notes += layers.self_time_table(tracer, levels, "bench.replay_level")
        result.tracer = tracer
    return result


WORKLOADS = {"paper_level": paper_level, "replay": replay}
