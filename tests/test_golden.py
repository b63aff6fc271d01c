"""Golden-output pin: byte-level hashes of a fixed small experiment, of
one paper-scale level per group and of its rerun and simulation paths,
reach set and VMF bytes, of small levels' VMF bytes at five scales, of
both repair phases on seeded crowded levels and of how seeded mutated
database documents read; and a check that those documents generate soundly.

A change that alters any pinned hash changes generated levels; it must say
why and show the acceptance suite still passing before the pin moves.
"""

import copy
import hashlib
import json
import traceback
from importlib import resources
from random import Random

import pytest

from levelforge import SAMPLE_DATABASES, navsim
from levelforge.arrangement import LevelConfig
from levelforge.constraints import ALL_KINDS
from levelforge.database import load_database, save_database, validate_database
from levelforge.errors import LevelforgeError
from levelforge.export import export_level_json, export_vmf, import_level_json, level_hash
from levelforge.harness import GROUPS, ExperimentConfig, generate_level, level_seed, run_experiment
from levelforge.layout import SAParams
from levelforge.navsim import (
    AgentParams,
    agent_repair,
    build_nav_grid,
    geometric_repair,
    rerun_validation,
    simulate_objectives,
)

from conftest import crowded_level

pytestmark = pytest.mark.golden

RECORDS_SHA256 = "0d3166aaefa16fbe1e2e8d8b5e57bbf14d669ba3e73b1231cbda9b0a91121626"

PAPER_LEVEL_HASHES = {
    "A-Baseline": "183e5f807e85bc2599b1684edfe11d330c89f4352d5375bb474065d236a34fb4",
    "DB-Baseline": "6aceed5a8669f3557952993572332a3b60d708056ed1e9cf6382b939a90d34ad",
    "A-Exploration": "c16d93a11ff77b44a38728273a289bb80717fdd1f8a9912103229a5dbe20838f",
    "DB-Exploration": "fc067c2c8900161e91b031ed08c3357f4acc8cb986a3cf32d798a644f25f1eb0",
    "A-Speedrun": "8b37c527a5ae50a2f470f4275653e469bd4b110ab0a363ade8827c959b365968",
    "DB-Speedrun": "9b0a8b686b0f63102961e7df3542a46b5c74e565ce54f56eb9b1111f8ef5bdc7",
}

PAPER_REPLAY_SHA256 = "b136c013ad50a55430b049a49a3949cda1a7d9b33f5fe5f995c2cb31c899f1cb"

# VMF bytes of three small levels at scales whose coordinates print in
# fixed, integral and exponent forms
VMF_SCALES = (1.0, 32.0, 1e-3, 1e-6, 1e20)
VMF_SCALES_SHA256 = "55d25c642d135d4381192ef6a29a2811c3d0854462bd18c5ba6e376fd034e8b1"

REPAIR_CASES = 150
REPAIR_SHA256 = "1f35d9e84dd30f2bf907f6a0d668d27fede937cb093319a5b85bb9f78d15e4f7"

DATABASE_CASES = 1500
DATABASE_SHA256 = "6ef8c41e67df813619b13b5956bdb97c68647e708fb577993f8981cc3036134d"


def test_small_experiment_records_csv_is_pinned(minimal_db, tmp_path, monkeypatch):
    monkeypatch.setenv("LEVELFORGE_THREADS", "1")
    exp = ExperimentConfig(
        groups=GROUPS,
        levels_per_group=2,
        base_seed=42,
        level=LevelConfig(
            width=24, length=24, height=6, floors=2, sa=SAParams(iterations=120)
        ),
        output_dir=tmp_path,
    )
    run_experiment(exp, minimal_db)
    digest = hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()
    assert digest == RECORDS_SHA256


@pytest.fixture(scope="module")
def paper_levels(hospital_db):
    """The paper-scale level and record of each group, generated once."""
    return {
        group: generate_level(LevelConfig(), hospital_db, group, level_seed(42, group, 0))
        for group in GROUPS
    }


@pytest.mark.parametrize("group", GROUPS)
def test_paper_scale_level_hash_is_pinned(paper_levels, group):
    level, record = paper_levels[group]
    # the pin only guards the shared-wall and repair paths if they run
    assert any(e.kind == "open" for e in level.adjacency)
    assert level.doors and record.phase1_moves > 0
    assert record.level_hash == PAPER_LEVEL_HASHES[group]


def test_paper_scale_replay_is_pinned(paper_levels, monkeypatch):
    # the level hashes see paths only through times and cell counts; this
    # pins every rerun and simulation path, the start room's reach set and
    # the VMF bytes of the six paper-scale levels. No key of these levels
    # is pocketed, so the simulation never asks for a reach-filtered cell.
    search, nearest = navsim.astar_path, navsim.target_cell
    paths: list = []
    filtered: list = []

    def recorded_path(grid, start, goal):
        path = search(grid, start, goal)
        paths.append((start, goal, path))
        return path

    def recorded_target(grid, room, point=None, reachable=None):
        if reachable is not None:
            filtered.append(room.id)
        return nearest(grid, room, point, reachable)

    monkeypatch.setattr(navsim, "astar_path", recorded_path)
    monkeypatch.setattr(navsim, "target_cell", recorded_target)
    digest = hashlib.sha256()
    for group in GROUPS:
        level, _ = paper_levels[group]
        paths.clear()
        agent = AgentParams()
        grid = build_nav_grid(level)
        rerun_validation(level, agent, grid)
        simulate_objectives(level, level.mechanics, agent, grid)
        assert paths and not filtered
        first = min(level.rooms, key=lambda r: r.tau)
        reach = navsim.grid_reach(grid, nearest(grid, first))
        row = (group, paths, sorted(reach))
        digest.update(repr(row).encode() + b"\n" + export_vmf(level))
    assert digest.hexdigest() == PAPER_REPLAY_SHA256


def test_vmf_bytes_across_scales_are_pinned(minimal_db):
    config = LevelConfig(width=24, length=24, height=6, floors=2, sa=SAParams(iterations=120))
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        level, _ = generate_level(config, minimal_db, "DB-Baseline", seed)
        for scale in VMF_SCALES:
            digest.update(export_vmf(level, scale=scale))
    assert digest.hexdigest() == VMF_SCALES_SHA256


def test_repair_of_crowded_levels_is_pinned():
    # paper-scale levels almost never reach phase 2; these reach both phases,
    # the budget and removals
    digest = hashlib.sha256()
    for case in range(REPAIR_CASES):
        level = crowded_level(Random(case))
        grid = build_nav_grid(level)
        phase1_moves = geometric_repair(level, grid)
        report = agent_repair(level, AgentParams(), grid)
        poses = [(f.id, f.pose.x, f.pose.y, f.pose.yaw) for f in level.facilities]
        row = (
            phase1_moves,
            report.phase2_moves,
            report.facilities_removed,
            report.status,
            report.repair_time,
            poses,
        )
        digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == REPAIR_SHA256


def _slots(node, out):
    """Every (container, key) pair under `node`, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate_once(rng: Random, doc: dict, names: list[str]) -> None:
    """One structural mutation (deleted field or item, wrong type, extra key,
    duplicated item) or value mutation (zero or negative number or weight,
    another entity's name, a constraint kind of any tier, an added
    topological rule) at a random slot."""
    container, key = rng.choice(_slots(doc, []))
    value = container[key]
    op = rng.random()
    if op < 0.12:
        del container[key]
    elif op < 0.22:
        container[key] = rng.choice([None, "x", 7, -2.5, True, [], {}])
    elif op < 0.30:
        target = value if isinstance(value, dict) else doc
        target["extra"] = 1
    elif op < 0.38:
        target = value if isinstance(value, list) else container
        if isinstance(target, list) and target:
            target.append(copy.deepcopy(rng.choice(target)))
    elif isinstance(value, dict) and "type" in value:
        value["weight"] = rng.choice([-1.0, 0.0, 2.0])
    elif isinstance(container, dict) and isinstance(container.get("topo_constraints"), list):
        kind, key = rng.choice([("TopologicalNear", "d_max"), ("TopologicalFar", "d_min")])
        other = rng.choice([container.get("name"), rng.choice(names)])
        rule = {"type": kind, "parameters": {"other": other, key: rng.choice([-1, 0, 2])}}
        container["topo_constraints"].append(rule)
    elif isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return
    elif isinstance(value, int):
        container[key] = rng.choice([0, -1, 1, 3, 40])
    elif isinstance(value, float):
        container[key] = rng.choice([0.0, -value, value / 10.0, value * 10.0, 0.5])
    elif key == "type":
        container[key] = rng.choice(sorted(ALL_KINDS))
    elif key in ("positioning", "arch_type"):
        container[key] = rng.choice(["fixed", "adaptable", "enclosed", "open"])
    else:
        container[key] = rng.choice(names)


def mutated_database(rng: Random, base: dict) -> bytes:
    doc = copy.deepcopy(base)
    names = [e["name"] for section in ("facilities", "rooms", "mechanics") for e in base[section]]
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        _mutate_once(rng, doc, names)
    return json.dumps(doc).encode()


def _sample_documents() -> list[dict]:
    return [
        json.loads(resources.files("levelforge.data").joinpath(f"{name}.json").read_bytes())
        for name in SAMPLE_DATABASES
    ]


def test_reading_of_mutated_databases_is_pinned():
    # each document either loads, and its normalized bytes and violations
    # are hashed, or fails, and its error class and message are hashed
    bases = _sample_documents()
    digest = hashlib.sha256()
    for case in range(DATABASE_CASES):
        rng = Random(case)
        data = mutated_database(rng, bases[case % 2])
        try:
            db = load_database(data)
        except LevelforgeError as exc:
            row = (type(exc).__name__, str(exc))
        else:
            row = (save_database(db), validate_database(db))
        digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == DATABASE_SHA256


# The generation corpus runs the pinned records config (24x24x6 m, 2 floors)
# with SA cut from 120 iterations to 20, which halves its time; no case is cut.
CORPUS_GROUPS = ("A-Baseline", "DB-Speedrun")
CORPUS_CONFIG = LevelConfig(width=24, length=24, height=6, floors=2, sa=SAParams(iterations=20))


def test_every_mutated_database_that_loads_generates_soundly(monkeypatch):
    # each mutant that loads either makes generation raise a LevelforgeError
    # or gives a level whose document re-imports to the same hash; any other
    # exception is a fault
    monkeypatch.setenv("LEVELFORGE_THREADS", "1")
    bases = _sample_documents()
    faults, generated = [], 0
    for case in range(DATABASE_CASES):
        try:
            db = load_database(mutated_database(Random(case), bases[case % 2]))
        except LevelforgeError:
            continue
        for group in CORPUS_GROUPS:
            try:
                level, record = generate_level(CORPUS_CONFIG, db, group, case)
            except LevelforgeError:
                continue
            except Exception as exc:
                faults.append((case, group, repr(exc), traceback.extract_tb(exc.__traceback__)[-1]))
                continue
            if level_hash(import_level_json(export_level_json(level))) != record.level_hash:
                faults.append((case, group, "re-imported level hashes differently"))
            generated += 1
    assert faults == []
    # most pairs of a mutant and a group give a level (1,442 of the 3,000)
    assert generated > DATABASE_CASES // 2
