import json
import math
from dataclasses import fields

import pytest

from levelforge import cli
from levelforge.arrangement import LevelConfig, arrange_rooms
from levelforge.errors import ConfigError, ParseError, SchemaError
from levelforge.export import (
    DOOR_OPENING_HEIGHT,
    export_level_json,
    export_vmf,
    import_level_json,
    level_hash,
    wall_openings,
)
from levelforge.harness import generate_level
from levelforge.constraints import WeightConfig
from levelforge.layout import SAParams
from levelforge.geometry import DOOR_WIDTH, shared_segment
from levelforge.navsim import DOOR, build_nav_grid
from levelforge.seeding import derive_rng

from conftest import make_level, make_room
from vmf_reader import read_vmf


def small_config(seed=0):
    return LevelConfig(
        width=24, length=24, height=6, floors=2, seed=seed, sa=SAParams(iterations=120)
    )


def generated_level(minimal_db, seed=5, group="DB-Baseline"):
    level, _ = generate_level(small_config(), minimal_db, group, seed)
    return level


# -- JSON round trip -----------------------------------------------------------


def test_export_import_export_is_byte_identical(minimal_db):
    level = generated_level(minimal_db)
    blob = export_level_json(level)
    again = export_level_json(import_level_json(blob))
    assert blob == again


def _rooms_doc(rooms):
    """A 10x10x3, one-floor level document holding `rooms`, given as
    (id, floor, origin, width and length)."""
    return json.dumps(
        {
            "schema_version": 1,
            "config": LevelConfig(width=10, length=10, height=3, floors=1).to_dict(),
            "rooms": [
                {
                    "id": rid,
                    "template": "Cell",
                    "floor": floor,
                    "origin": list(origin),
                    "dims": [w, l, 3.0],
                    "tau": tau,
                    "arch_type": "enclosed",
                }
                for tau, (rid, floor, origin, (w, l)) in enumerate(rooms, start=1)
            ],
            "facilities": [],
            "mechanics": [],
            "doors": [],
            "stairs": [],
            "adjacency": [],
        }
    )


def test_hand_written_minimal_document_imports():
    level = import_level_json(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    assert len(level.rooms) == 1
    assert level.rooms[0].template == "Cell"


IMPOSSIBLE_ROOMS = {
    "floor_outside_level": [(1, 2, (0.0, 0.0), (10.0, 10.0))],
    "no_rooms": [],
    "room_leaves_bounds": [(1, 0, (5.0, 5.0), (10.0, 10.0))],
    "room_inside_room": [(1, 0, (0.0, 0.0), (10.0, 10.0)), (2, 0, (2.0, 2.0), (4.0, 4.0))],
    "duplicate_ids": [(1, 0, (0.0, 0.0), (5.0, 10.0)), (1, 0, (5.0, 0.0), (5.0, 10.0))],
}


@pytest.mark.parametrize("rooms", IMPOSSIBLE_ROOMS.values(), ids=IMPOSSIBLE_ROOMS.keys())
def test_rooms_that_cannot_exist_are_rejected(rooms):
    with pytest.raises(SchemaError):
        import_level_json(_rooms_doc(rooms))


def test_cli_rejects_rooms_that_cannot_exist(tmp_path, capsys):
    path = tmp_path / "level.json"
    for name, rooms in IMPOSSIBLE_ROOMS.items():
        path.write_text(_rooms_doc(rooms))
        assert cli.main(["simulate", "--level", str(path)]) == 1, name
        assert capsys.readouterr().err.startswith("error: "), name


def test_every_config_field_round_trips_through_the_level_document():
    config = LevelConfig(
        width=31.5,
        length=27.0,
        height=9.0,
        floors=2,
        selected_templates=(("Hall", 2), ("Cell", None)),
        selected_mechanics=(("FloorKey", 1),),
        initial_template="Hall",
        seed=12,
        weights=WeightConfig(w_near=3.5, topo_far_dmin=5),
        sa=SAParams(iterations=77, cooling_rate=0.5),
    )
    doc = json.loads(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    doc["config"] = config.to_dict()
    level = import_level_json(json.dumps(doc))
    assert level.config == config


@pytest.mark.parametrize("name", [f.name for f in fields(LevelConfig)])
def test_a_config_missing_a_field_is_a_schema_error(name):
    doc = json.loads(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    del doc["config"][name]
    with pytest.raises(SchemaError, match=repr(name)):
        import_level_json(json.dumps(doc))


@pytest.mark.parametrize(
    "part, name, value, message",
    [
        (None, "width", math.nan, "width, length and height must be finite and > 0"),
        (None, "floors", 1.5, "floors must be an integer >= 1, got 1.5"),
        ("sa", "iterations", -1, "sa.iterations must be an integer >= 0, got -1"),
        (None, "width", 1e9, "the nav grid must have at most 10000000 cells, got 1000000000"),
    ],
    ids=["width-nan", "floors-1.5", "sa.iterations--1", "width-1e9"],
)
def test_a_stored_config_that_fails_the_check_is_refused(
    tmp_path, capsys, part, name, value, message
):
    doc = json.loads(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    (doc["config"] if part is None else doc["config"][part])[name] = value
    with pytest.raises(ConfigError, match=f"^{message}"):
        import_level_json(json.dumps(doc))
    path = tmp_path / "level.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--level", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


_POSE = {"center": [5.0, 5.0, 0.5], "yaw": 0.0, "dims": [1.0, 1.0, 1.0]}

# One entry per kind of object that names its room; each names room 9 of a
# one-room level.
IN_UNKNOWN_ROOM = {
    "stairs": {"room": 9, "position": [5.0, 5.0], "dims": [2.0, 2.0, 3.0]},
    "facilities": {
        "id": "f", "def": "Crate", "room": 9, "pose": _POSE, "fixed": False, "constraints": [],
    },
    "mechanics": {
        "id": "k", "def": "FloorKey", "room": 9, "pose": _POSE, "constraints": [], "topo": [],
    },
}


@pytest.mark.parametrize("kind", IN_UNKNOWN_ROOM)
def test_reference_to_an_unknown_room_is_rejected(kind, tmp_path, capsys):
    doc = json.loads(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    doc[kind] = [IN_UNKNOWN_ROOM[kind]]
    with pytest.raises(SchemaError, match="room 9"):
        import_level_json(json.dumps(doc))
    path = tmp_path / "level.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--level", str(path)]) == 1
    assert cli.main(["export-vmf", "--level", str(path), "--out", str(tmp_path / "l.vmf")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


# A 4x4 pose centred 1.5 m from a wall of a 10x10 room: it pokes 0.5 m out.
_OVERHANGING = {"center": [1.5, 5.0, 0.5], "yaw": 0.0, "dims": [4.0, 4.0, 1.0]}


@pytest.mark.parametrize("kind", ["facilities", "mechanics"])
def test_placement_leaving_its_room_is_rejected(kind, tmp_path, capsys):
    doc = json.loads(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    doc[kind] = [{**IN_UNKNOWN_ROOM[kind], "room": 1, "pose": _OVERHANGING}]
    name = "facility 'f'" if kind == "facilities" else "mechanic 'k'"
    with pytest.raises(SchemaError, match=f"{name} does not fit inside room 1"):
        import_level_json(json.dumps(doc))
    path = tmp_path / "level.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--level", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_placement_flush_with_the_walls_imports():
    doc = json.loads(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    # exactly as wide as the room, off by a rounding error at each wall
    pose = {"center": [5.0 + 1e-12, 1.0, 0.5], "yaw": 0.0, "dims": [10.0, 2.0, 1.0]}
    doc["facilities"] = [{**IN_UNKNOWN_ROOM["facilities"], "room": 1, "pose": pose}]
    assert len(import_level_json(json.dumps(doc)).facilities) == 1


def _linked_rooms_doc(doors=(), adjacency=()):
    """Rooms 1 and 2 share the wall x=6 on floor 0; room 3 touches neither;
    room 4 lies on floor 1 where room 2 lies on floor 0."""
    rooms = [(1, 0, (0.0, 0.0)), (2, 0, (6.0, 0.0)), (3, 0, (0.0, 12.0)), (4, 1, (6.0, 0.0))]
    return json.dumps(
        {
            "schema_version": 1,
            "config": LevelConfig(width=12, length=18, height=6, floors=2).to_dict(),
            "rooms": [
                {
                    "id": rid,
                    "template": "Cell",
                    "floor": floor,
                    "origin": list(origin),
                    "dims": [6.0, 6.0, 3.0],
                    "tau": rid,
                    "arch_type": "open",
                }
                for rid, floor, origin in rooms
            ],
            "facilities": [],
            "mechanics": [],
            "doors": [{"room_a": a, "room_b": b, "position": [x, y]} for a, b, x, y in doors],
            "stairs": [],
            "adjacency": [{"room_a": a, "room_b": b, "kind": k} for a, b, k in adjacency],
        }
    )


def test_door_and_open_edge_on_a_shared_wall_import():
    level = import_level_json(
        _linked_rooms_doc(doors=[(1, 2, 6.0, 3.0)], adjacency=[(1, 2, "door"), (1, 2, "open")])
    )
    assert len(level.doors) == 1 and len(level.adjacency) == 2


@pytest.mark.parametrize(
    "doors, adjacency",
    [
        ([(1, 3, 3.0, 9.0)], [(1, 3, "door")]),  # door between rooms that share no wall
        ([], [(1, 3, "open")]),  # open edge between rooms that share no wall
        ([(2, 4, 6.0, 3.0)], [(2, 4, "door")]),  # rooms on different floors
        ([(1, 4, 6.0, 3.0)], []),  # touching in plan, but on different floors
        ([(1, 2, 5.0, 3.0)], [(1, 2, "door")]),  # door off the shared wall
        ([(1, 2, 6.0, 7.0)], [(1, 2, "door")]),  # door past the end of the shared wall
    ],
)
def test_link_between_rooms_without_a_shared_wall_is_rejected(doors, adjacency):
    with pytest.raises(SchemaError):
        import_level_json(_linked_rooms_doc(doors, adjacency))


def test_cli_rejects_stored_door_between_rooms_sharing_no_wall(minimal_db, tmp_path, capsys):
    level, _ = generate_level(LevelConfig(20, 20, 9, 1), minimal_db, "DB-Baseline", 7)
    assert shared_segment(level.room_by_id(1).footprint(), level.room_by_id(5).footprint()) is None
    doc = json.loads(export_level_json(level))
    doc["doors"][0]["room_a"], doc["doors"][0]["room_b"] = 1, 5
    path = tmp_path / "level.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--level", str(path)]) == 1
    assert cli.main(["export-vmf", "--level", str(path), "--out", str(tmp_path / "l.vmf")]) == 1
    assert "share no wall" in capsys.readouterr().err


def test_door_segment_nav_cells_and_vmf_openings_agree(hospital_db):
    config = LevelConfig()
    level = arrange_rooms(config, hospital_db, derive_rng(42, "arrange"))
    grid = build_nav_grid(level)
    links = [(d.room_a, d.room_b, d) for d in level.doors]
    links += [(e.room_a, e.room_b, None) for e in level.adjacency if e.kind == "open"]
    assert any(door is None for *_, door in links) and level.doors
    for room_a, room_b, door in links:
        axis, boundary, lo, hi = level.shared_wall(room_a, room_b)
        if door is not None:
            across, along = (door.x, door.y) if axis == "x" else (door.y, door.x)
            assert across == boundary and along == (lo + hi) / 2.0
        key = (min(room_a, room_b), max(room_a, room_b))
        for rid in (room_a, room_b):
            room = level.room_by_id(rid)
            cells = grid.doorways[rid][key]
            assert len(cells) == (1 if door is not None else round(hi - lo))
            x0, y0, x1, y1 = room.footprint()
            for f, x, y in cells:
                assert grid.base[f][x, y] == DOOR and f == room.floor
                assert x0 < x + 0.5 < x1 and y0 < y + 0.5 < y1
                cross, run = (x, y) if axis == "x" else (y, x)
                assert abs(cross + 0.5 - boundary) == 0.5 and lo < run + 0.5 < hi
            low_wall = (x0, y0)[0 if axis == "x" else 1]
            side = ("-" if boundary == low_wall else "+") + axis
            openings = [(o.lo, o.hi, o.full_height) for o in wall_openings(level, room)[side]]
            if door is None:
                assert (lo, hi, True) in openings
            else:
                half = DOOR_WIDTH / 2.0
                assert (along - half, along + half, False) in openings


def test_random_levels_round_trip_hash_equal(minimal_db):
    for seed in range(10):
        level = generated_level(minimal_db, seed=seed)
        blob = export_level_json(level)
        assert level_hash(import_level_json(blob)) == level_hash(level)


def test_tau_set_is_contiguous_in_document(minimal_db):
    level = generated_level(minimal_db)
    doc = json.loads(export_level_json(level))
    taus = sorted(r["tau"] for r in doc["rooms"])
    assert taus == list(range(1, len(taus) + 1))


# -- VMF ------------------------------------------------------------------------


def test_empty_level_produces_valid_vmf():
    level = make_level([], width=10, length=10)
    summary = read_vmf(export_vmf(level))
    assert summary.brush_count == 0
    assert summary.entity_count == 0


def test_single_room_floor_brush_extents():
    level = make_level([make_room(1, (0.0, 0.0), 10, 10, h=3.0)], width=10, length=10, height=3.0)
    summary = read_vmf(export_vmf(level, scale=64.0))
    floor = [b for b in summary.boxes if b.hi[2] == 0.0]
    assert floor, "expected a floor slab ending at z=0"
    slab = floor[0]
    assert (slab.lo[0], slab.lo[1]) == (0.0, 0.0)
    assert (slab.hi[0], slab.hi[1]) == (640.0, 640.0)


def _merged_segments(run_lo, run_hi, openings):
    merged = []
    for lo, hi in sorted(openings):
        lo, hi = max(lo, run_lo), min(hi, run_hi)
        if hi - lo <= 1e-9:
            continue
        if merged and lo <= merged[-1][1] + 1e-9:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    count, cursor = 0, run_lo
    for lo, hi in merged:
        if lo - cursor > 1e-9:
            count += 1
        cursor = max(cursor, hi)
    if run_hi - cursor > 1e-9:
        count += 1
    return count


def expected_brush_count(level):
    """Independent recount: 2 slabs per room plus wall segments and headers."""
    total = 0
    eps = 1e-9
    for room in level.rooms:
        x0, y0, x1, y1 = room.footprint()
        sides = {"-x": [], "+x": [], "-y": [], "+y": []}
        headers = 0
        for door in level.doors:
            if room.id not in (door.room_a, door.room_b):
                continue
            if abs(door.x - x0) < eps or abs(door.x - x1) < eps:
                side = "-x" if abs(door.x - x0) < eps else "+x"
                sides[side].append(
                    (door.y - DOOR_WIDTH / 2, door.y + DOOR_WIDTH / 2)
                )
            else:
                side = "-y" if abs(door.y - y0) < eps else "+y"
                sides[side].append(
                    (door.x - DOOR_WIDTH / 2, door.x + DOOR_WIDTH / 2)
                )
            if room.dims.height > DOOR_OPENING_HEIGHT + eps:
                headers += 1
        for edge in level.adjacency:
            if edge.kind != "open" or room.id not in (edge.room_a, edge.room_b):
                continue
            other = level.room_by_id(
                edge.room_b if edge.room_a == room.id else edge.room_a
            )
            ox0, oy0, ox1, oy1 = other.footprint()
            if abs(x0 - ox1) < eps or abs(x1 - ox0) < eps:
                side = "-x" if abs(x0 - ox1) < eps else "+x"
                sides[side].append((max(y0, oy0), min(y1, oy1)))
            else:
                side = "-y" if abs(y0 - oy1) < eps else "+y"
                sides[side].append((max(x0, ox0), min(x1, ox1)))
        total += 2 + headers
        for side, openings in sides.items():
            run = (y0, y1) if side in ("-x", "+x") else (x0, x1)
            total += _merged_segments(run[0], run[1], openings)
    return total


def test_vmf_counts_match_level_structure(minimal_db):
    for seed in (1, 2, 3):
        level = generated_level(minimal_db, seed=seed)
        summary = read_vmf(export_vmf(level))
        assert summary.brush_count == expected_brush_count(level)
        expected_entities = (
            len(level.facilities) + len(level.mechanics) + len(level.stairs)
        )
        assert summary.entity_count == expected_entities


def test_vmf_export_is_deterministic(minimal_db):
    level = generated_level(minimal_db, seed=9)
    assert export_vmf(level) == export_vmf(level)


def test_vmf_scale_linearity(minimal_db):
    level = generated_level(minimal_db, seed=4)
    base = read_vmf(export_vmf(level, scale=32.0))
    double = read_vmf(export_vmf(level, scale=64.0))
    assert double.brush_count == base.brush_count
    for a, b in zip(base.boxes, double.boxes):
        for i in range(3):
            assert b.lo[i] == pytest.approx(2 * a.lo[i])
            assert b.hi[i] == pytest.approx(2 * a.hi[i])
    for a, b in zip(base.entity_origins, double.entity_origins):
        for i in range(3):
            assert b[i] == pytest.approx(2 * a[i])


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_cli_refuses_a_vmf_scale_that_is_not_finite_and_positive(tmp_path, capsys, scale):
    path = tmp_path / "level.json"
    path.write_text(_rooms_doc([(1, 0, (0.0, 0.0), (10.0, 10.0))]))
    out = tmp_path / "level.vmf"
    args = ["export-vmf", "--level", str(path), "--out", str(out), f"--scale={scale}"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: scale must be finite and > 0, got {float(scale)!r}\n"
    assert not out.exists()
    with pytest.raises(ConfigError):
        export_vmf(import_level_json(path.read_bytes()), scale=float(scale))


def test_reader_rejects_inward_winding():
    bad = """versioninfo
{
\t"editorversion" "400"
}
world
{
\t"id" "1"
\t"classname" "worldspawn"
\tsolid
\t{
\t\t"id" "2"
""" + "".join(
        f"""\t\tside
\t\t{{
\t\t\t"id" "{i}"
\t\t\t"plane" "{plane}"
\t\t\t"material" "X"
\t\t}}
"""
        for i, plane in enumerate(
            [
                "(0 0 1) (0 1 1) (1 1 1)",  # +z face wound inward (normal -z... )
                "(0 1 0) (1 1 0) (1 0 0)",
                "(0 0 0) (0 0 1) (0 1 1)",
                "(1 0 0) (1 1 0) (1 1 1)",
                "(0 0 0) (1 0 0) (1 0 1)",
                "(0 1 0) (0 1 1) (1 1 1)",
            ]
        )
    ) + "\t}\n}\n"
    with pytest.raises(ParseError):
        read_vmf(bad)


def test_bytes_that_are_not_utf8_are_a_parse_error():
    with pytest.raises(ParseError):
        import_level_json(b"\xff")
