"""Golden-output pin: byte-level hashes of a fixed small experiment, of
one paper-scale level per group, of both repair phases on seeded crowded
levels and of how seeded mutated database documents read.

A change that alters any pinned hash changes generated levels; it must say
why and show the acceptance suite still passing before the pin moves.
"""

import copy
import hashlib
import json
from importlib import resources
from random import Random

import pytest

from levelforge import SAMPLE_DATABASES
from levelforge.arrangement import LevelConfig
from levelforge.constraints import ALL_KINDS
from levelforge.database import load_database, save_database, validate_database
from levelforge.errors import LevelforgeError
from levelforge.geometry import HALF_PI, Dimensions, Pose, clamp_into_room
from levelforge.harness import GROUPS, ExperimentConfig, generate_level, level_seed, run_experiment
from levelforge.layout import SAParams
from levelforge.level import AdjacencyEdge, Door, FacilityInstance
from levelforge.navsim import AgentParams, agent_repair, build_nav_grid, geometric_repair

from conftest import make_level, make_room

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

REPAIR_CASES = 150
REPAIR_SHA256 = "1f35d9e84dd30f2bf907f6a0d668d27fede937cb093319a5b85bb9f78d15e4f7"

DATABASE_CASES = 1500
DATABASE_SHA256 = "a33fc8fb94716f8018b3fe6bf79cac41108e0b660d8a99bb9f576870d4008962"


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


@pytest.mark.parametrize("group", GROUPS)
def test_paper_scale_level_hash_is_pinned(hospital_db, group):
    level, record = generate_level(LevelConfig(), hospital_db, group, level_seed(42, group, 0))
    # the pin only guards the shared-wall and repair paths if they run
    assert any(e.kind == "open" for e in level.adjacency)
    assert level.doors and record.phase1_moves > 0
    assert record.level_hash == PAPER_LEVEL_HASHES[group]


def crowded_level(rng: Random):
    """Four 10x10 rooms in a square (two enclosed, two open) joined by three
    doors and one open edge, holding 2-25 random facilities of 1-4 x 1-6 m
    at yaw 0 or 90 degrees, about 15% of them fixed."""
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10),
        make_room(2, (10.0, 0.0), 10, 10),
        make_room(3, (0.0, 10.0), 10, 10, arch="open"),
        make_room(4, (10.0, 10.0), 10, 10, arch="open"),
    ]
    doors = [
        Door(1, 2, 10.0, rng.uniform(1.0, 9.0)),
        Door(1, 3, rng.uniform(1.0, 9.0), 10.0),
        Door(2, 4, rng.uniform(11.0, 19.0), 10.0),
    ]
    adjacency = [AdjacencyEdge(d.room_a, d.room_b, "door") for d in doors]
    adjacency.append(AdjacencyEdge(3, 4, "open"))
    level = make_level(rooms, doors, adjacency, width=20, length=20, height=3.0)
    for k in range(rng.randint(2, 25)):
        room = rng.choice(rooms)
        dims = Dimensions(rng.uniform(1.0, 4.0), rng.uniform(1.0, 6.0), 1.0)
        pose = Pose(0.0, 0.0, 0.5, rng.choice((0.0, HALF_PI)), dims)
        pose = clamp_into_room(pose, rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0), room.dims)
        fixed = rng.random() < 0.15
        level.facilities.append(FacilityInstance(f"f{k}", "Crate", room.id, pose, fixed))
    return level


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


def test_reading_of_mutated_databases_is_pinned():
    # each document either loads, and its normalized bytes and violations
    # are hashed, or fails, and its error class and message are hashed
    bases = [
        json.loads(resources.files("levelforge.data").joinpath(f"{name}.json").read_bytes())
        for name in SAMPLE_DATABASES
    ]
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
