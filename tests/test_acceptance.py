"""Acceptance suite: one test per release criterion, each at its stated
tolerance. A one-line PASS/FAIL summary per criterion prints at the end of
the session (see conftest.pytest_terminal_summary).

The paper-scale experiment fixture (six groups, 30 levels each, 50x50x30,
three floors) backs criteria 4 through 9 and runs once per session.
"""

import math
import os
import time
from random import Random

import pytest

from levelforge.arrangement import LevelConfig
from levelforge.constraints import ConstraintSpec
from levelforge.export import export_level_json, export_vmf, import_level_json, level_hash
from levelforge.geometry import Dimensions, Pose
from levelforge.harness import (
    GROUPS,
    ExperimentConfig,
    generate_level,
    run_experiment,
)
from levelforge.layout import SAParams, optimize_room_layout
from levelforge.level import TopoRule
from levelforge.mechanics import MechanicInstance, assign_mechanics, fitness
from levelforge.seeding import derive_seed

from conftest import make_level, make_room, record_criterion
from oracles import eval_facility_penalty, make_layout_instance, oracle_layout_optimum
from test_export import expected_brush_count, small_config
from vmf_reader import read_vmf

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def paper_experiment(tmp_path_factory, hospital_db):
    out = tmp_path_factory.mktemp("experiment")
    previous = os.environ.get("LEVELFORGE_THREADS")
    os.environ["LEVELFORGE_THREADS"] = "2"
    exp = ExperimentConfig(
        groups=GROUPS,
        levels_per_group=30,
        base_seed=42,
        level=LevelConfig(),
        output_dir=out,
    )
    started = time.monotonic()
    try:
        records, stats = run_experiment(exp, hospital_db)
    finally:
        if previous is None:
            os.environ.pop("LEVELFORGE_THREADS", None)
        else:
            os.environ["LEVELFORGE_THREADS"] = previous
    elapsed = time.monotonic() - started
    return exp, records, stats, out, elapsed


def test_criterion_1_formula_correctness():
    """Every penalty kind matches its hand evaluation to 1e-9 relative."""
    started = time.monotonic()
    room = Dimensions(20.0, 20.0, 3.0)

    def pose(x, y, yaw=0.0, w=1.0, l=1.0):
        return Pose(x, y, 0.5, yaw, Dimensions(w, l, 1.0))

    checks = [
        (
            ConstraintSpec("Near", {"target": "T", "d_min": 5.0}, 10.0),
            pose(0, 0),
            [("T", pose(8, 0))],
            10.0 * 9.0,
        ),
        (
            ConstraintSpec("Far", {"target": "T", "d_max": 10.0}, 15.0),
            pose(0, 0),
            [("T", pose(10, 0))],
            0.0,
        ),
        (
            ConstraintSpec("Far", {"target": "T", "d_max": 10.0}, 15.0),
            pose(0, 0),
            [("T", pose(4, 0))],
            15.0 * 36.0,
        ),
        (
            ConstraintSpec("CanSee", {"target": "T"}, 2.0),
            pose(0, 5),
            [("T", pose(10, 5)), ("B", pose(5, 5, w=2.0, l=2.0))],
            2.0,
        ),
        (
            ConstraintSpec("Focus", {"target": "T", "phi_th": 0.2}, 10.0),
            pose(0, 0, yaw=math.pi / 2),
            [("T", pose(5, 0))],
            10.0 * (math.pi / 2 - 0.2) ** 2,
        ),
        (
            ConstraintSpec("Alignment", {"target": "T", "axis": "x"}, 15.0),
            pose(0, 0),
            [("T", pose(5, 5))],
            15.0 * (math.pi / 4) ** 2,
        ),
        (
            ConstraintSpec("Orientation", {"target": "T"}, 20.0),
            pose(0, 0, yaw=math.pi / 2),
            [("T", pose(5, 0))],
            20.0 * (math.pi / 2) ** 2,
        ),
        (
            ConstraintSpec("PlaceByWall", {"orientation": 0.0}, 20.0),
            pose(3, 3, yaw=math.pi / 2),
            [],
            20.0 * (2.5 + math.pi / 2) ** 2,
        ),
        (
            ConstraintSpec("PlaceInRange", {"p1": [0, 0, 0], "p2": [5, 5, 3]}, 20.0),
            pose(8, 9),
            [],
            20.0 * 25.0,
        ),
        (
            ConstraintSpec("AxisFunction", {"function": "centered_xy"}, 20.0),
            pose(10, 13),
            [],
            20.0 * 9.0,
        ),
    ]
    failures = []
    for spec, subject, others, expected in checks:
        got = eval_facility_penalty(spec, subject, room, others)
        if expected == 0.0:
            ok = got == 0.0
        else:
            ok = abs(got - expected) <= 1e-9 * abs(expected)
        if not ok:
            failures.append((spec.kind, got, expected))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 1.0
    record_criterion(
        1, ok, f"{len(checks)} penalty kinds hand-checked, {elapsed:.3f}s (< 1s)"
    )
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_layout_sa_matches_exhaustive_oracle():
    """SA with 5 restarts lands within 5% of the pose-grid optimum on at
    least 95 of 100 seeded small-room instances, in under two minutes."""
    started = time.monotonic()
    hits = 0
    worst = 0.0
    for idx in range(100):
        geom, adaptable, fixed, weights = make_layout_instance(idx)
        best = oracle_layout_optimum(geom, adaptable, fixed, weights)
        layout = optimize_room_layout(
            make_room(1, (0.0, 0.0), geom.width, geom.length, h=geom.height),
            adaptable + fixed,
            weights,
            SAParams(restarts=5),
            Random(derive_seed("layout-oracle-sa", idx)),
        )
        ratio = layout.breakdown.total / best if best > 0 else 1.0
        worst = max(worst, ratio)
        if layout.breakdown.total <= 1.05 * best + 1e-9:
            hits += 1
    elapsed = time.monotonic() - started
    ok = hits >= 95 and elapsed < 120.0
    record_criterion(
        2, ok, f"{hits}/100 within 1.05x oracle (worst ratio {worst:.4f}), {elapsed:.1f}s (< 120s)"
    )
    assert hits >= 95
    assert elapsed < 120.0


def _mechanics_case(idx: int):
    rng = Random(derive_seed("mech-oracle", idx))
    n_rooms = rng.randrange(2, 9)
    rooms = [make_room(i + 1, (6.0 * i, 0.0), 6, 6, tau=i + 1) for i in range(n_rooms)]
    level = make_level(rooms, width=6.0 * n_rooms + 2, length=6.0)
    n_mech = rng.randrange(1, 3)
    ids = [f"m{k}" for k in range(n_mech)]

    def random_rule(self_idx: int):
        kind = rng.choice(["precedes", "topo_near", "topo_far"])
        threshold = None if kind == "precedes" else rng.randrange(1, 5)
        if n_mech > 1 and rng.random() < 0.6:
            other = ids[1 - self_idx]
            return TopoRule(kind, other=other, threshold=threshold)
        anchor = float(rng.randrange(1, n_rooms + 1))
        return TopoRule(kind, anchor_tau=anchor, threshold=threshold)

    instances = []
    for k in range(n_mech):
        rules = tuple(random_rule(k) for _ in range(rng.randrange(0, 3)))
        instances.append(
            MechanicInstance(
                id=ids[k],
                def_name="Key",
                dims=Dimensions(0.3, 0.3, 0.3),
                topo=rules,
            )
        )

    costs = {
        (mid, room.id): float(rng.randrange(0, 6))
        for mid in ids
        for room in rooms
    }

    def cstd(inst, room_id):
        return costs[(inst.id, room_id)]

    return level, instances, cstd


def test_criterion_3_mechanics_sa_matches_bruteforce():
    """Assignment SA with 5 restarts equals the enumerated optimum on at
    least 95 of 100 instances with <= 8 rooms and <= 2 mechanics."""
    import itertools

    started = time.monotonic()
    hits = 0
    for idx in range(100):
        level, instances, cstd = _mechanics_case(idx)
        result = assign_mechanics(
            level,
            instances,
            sa=SAParams(restarts=5),
            rng=Random(derive_seed("mech-oracle-sa", idx)),
            cstd=cstd,
        )
        room_ids = [r.id for r in level.rooms]
        best = math.inf
        for combo in itertools.product(room_ids, repeat=len(instances)):
            assignment = {inst.id: rid for inst, rid in zip(instances, combo)}
            value = fitness(assignment, level, instances, cstd=cstd).total
            best = min(best, value)
        if abs(result.breakdown.total - best) <= 1e-9:
            hits += 1
    elapsed = time.monotonic() - started
    ok = hits >= 95 and elapsed < 30.0
    record_criterion(
        3, ok, f"{hits}/100 equal to brute-force optimum, {elapsed:.1f}s (< 30s)"
    )
    assert hits >= 95
    assert elapsed < 30.0


def test_criterion_4_pipeline_validity_rate(paper_experiment):
    """A 60-level paper-scale batch is at least 85% status=valid."""
    exp, records, stats, out, elapsed = paper_experiment
    batch = [r for r in records if r.group in ("A-Baseline", "DB-Baseline")]
    assert len(batch) == 60
    valid = sum(1 for r in batch if r.status == "valid")
    rate = valid / len(batch)
    share = elapsed * 60.0 / (len(GROUPS) * exp.levels_per_group)
    ok = rate >= 0.85 and share < 600.0
    record_criterion(
        4,
        ok,
        f"{valid}/60 valid ({rate:.1%} >= 85%), 60-level share of runtime {share:.0f}s (< 600s)",
    )
    assert rate >= 0.85
    assert share < 600.0


def test_criterion_5_repair_soundness(paper_experiment):
    """Every repaired level survived rerun validation (the pipeline raises
    otherwise), and removals stay under 15% of adaptable facilities."""
    exp, records, stats, out, _ = paper_experiment
    repaired = [r for r in records if r.status in ("valid", "abnormal")]
    assert repaired, "no repaired levels at all"
    # rerun_validation runs inside generate_level immediately after repair
    # and raises UnreachableRoom on any failure; a populated record implies
    # a clean rerun pass.
    assert all(r.rerun_time >= 0.0 for r in repaired)
    fractions = [
        r.facilities_removed / r.adaptable_facilities
        for r in repaired
        if r.adaptable_facilities
    ]
    mean_fraction = sum(fractions) / len(fractions)
    ok = mean_fraction <= 0.15
    record_criterion(
        5,
        ok,
        f"{len(repaired)} repaired levels all passed rerun; removals mean "
        f"{mean_fraction:.2%} of adaptable (<= 15%)",
    )
    assert ok


def test_criterion_6_pacing_ordering(paper_experiment):
    """Mean simulation time orders Speedrun < Baseline < Exploration within
    each family, with non-overlapping Speedrun/Exploration CIs."""
    exp, records, stats, out, _ = paper_experiment
    sim = {g: stats.metrics[g]["simulation_time"] for g in GROUPS}
    ordering = (
        sim["A-Speedrun"].mean < sim["A-Baseline"].mean < sim["A-Exploration"].mean
        and sim["DB-Speedrun"].mean < sim["DB-Baseline"].mean < sim["DB-Exploration"].mean
    )
    ci_gap = (
        sim["A-Speedrun"].ci_high < sim["A-Exploration"].ci_low
        and sim["DB-Speedrun"].ci_high < sim["DB-Exploration"].ci_low
    )
    detail = (
        f"A: {sim['A-Speedrun'].mean:.1f} < {sim['A-Baseline'].mean:.1f} < "
        f"{sim['A-Exploration'].mean:.1f}; DB: {sim['DB-Speedrun'].mean:.1f} < "
        f"{sim['DB-Baseline'].mean:.1f} < {sim['DB-Exploration'].mean:.1f}; CI gap ok={ci_gap}"
    )
    record_criterion(6, ordering and ci_gap, detail)
    assert ordering, detail
    assert ci_gap, detail


def test_criterion_7_db_groups_match_algorithmic(paper_experiment):
    """Per pacing strategy, the DB group's mean simulation time is within
    10% of the algorithmic group's."""
    exp, records, stats, out, _ = paper_experiment
    gaps = {}
    ok = True
    for strategy in ("Baseline", "Exploration", "Speedrun"):
        a = stats.metrics[f"A-{strategy}"]["simulation_time"].mean
        db = stats.metrics[f"DB-{strategy}"]["simulation_time"].mean
        gap = abs(db - a) / a
        gaps[strategy] = gap
        ok = ok and gap <= 0.10
    detail = ", ".join(f"{k}: {v:.1%}" for k, v in gaps.items()) + " (<= 10%)"
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_coverage_ordering_and_identities(paper_experiment):
    """Full-traversal coverage exceeds objective coverage in every group and
    both averaging identities hold exactly on every record."""
    exp, records, stats, out, _ = paper_experiment
    coverage_ok = all(
        stats.metrics[g]["grid_exploration"].mean
        > stats.metrics[g]["sim_grid_exploration"].mean
        for g in GROUPS
    )
    identity_ok = all(
        r.avg_completion_time == (r.rerun_time + r.simulation_time) / 2.0
        and r.avg_grid_exploration == (r.grid_exploration + r.sim_grid_exploration) / 2.0
        for r in records
    )
    means = {
        g: (
            stats.metrics[g]["grid_exploration"].mean,
            stats.metrics[g]["sim_grid_exploration"].mean,
        )
        for g in GROUPS
    }
    sample = means["A-Baseline"]
    detail = (
        f"grid > sim in all 6 groups (A-Baseline {sample[0]:.0f} > {sample[1]:.0f}); "
        f"identities exact on {len(records)} records"
    )
    record_criterion(8, coverage_ok and identity_ok, detail)
    assert coverage_ok, means
    assert identity_ok


def test_criterion_9_experiment_determinism(paper_experiment, hospital_db, tmp_path):
    """Re-running the criterion-6 experiment with a different worker count
    reproduces byte-identical records.csv."""
    exp, records, stats, out, _ = paper_experiment
    first = (out / "records.csv").read_bytes()
    previous = os.environ.get("LEVELFORGE_THREADS")
    os.environ["LEVELFORGE_THREADS"] = "3"
    try:
        rerun_exp = ExperimentConfig(
            groups=exp.groups,
            levels_per_group=exp.levels_per_group,
            base_seed=exp.base_seed,
            level=exp.level,
            output_dir=tmp_path,
        )
        run_experiment(rerun_exp, hospital_db)
    finally:
        if previous is None:
            os.environ.pop("LEVELFORGE_THREADS", None)
        else:
            os.environ["LEVELFORGE_THREADS"] = previous
    second = (tmp_path / "records.csv").read_bytes()
    ok = first == second
    record_criterion(
        9, ok, f"records.csv byte-identical across 2 vs 3 workers ({len(first)} bytes)"
    )
    assert ok


def test_criterion_10_export_integrity(minimal_db):
    """100 generated levels JSON-round-trip hash-equal and their VMF exports
    reparse with brush and entity counts matching the level structure."""
    json_ok = 0
    vmf_ok = 0
    for seed in range(100):
        level, _ = generate_level(small_config(), minimal_db, "DB-Baseline", seed)
        blob = export_level_json(level)
        if level_hash(import_level_json(blob)) == level_hash(level):
            json_ok += 1
        summary = read_vmf(export_vmf(level))
        expected_entities = (
            len(level.facilities) + len(level.mechanics) + len(level.stairs)
        )
        if (
            summary.brush_count == expected_brush_count(level)
            and summary.entity_count == expected_entities
        ):
            vmf_ok += 1
    ok = json_ok == 100 and vmf_ok == 100
    record_criterion(
        10, ok, f"json round-trip {json_ok}/100, vmf reparse {vmf_ok}/100"
    )
    assert json_ok == 100
    assert vmf_ok == 100
