"""Level serialization: canonical JSON documents and Valve Map Format.

The JSON form is byte-normalized (fixed key order, shortest round-trip
floats) so that export -> import -> export reproduces identical bytes;
the sha256 of those bytes serves as the level hash everywhere determinism
is asserted.

The VMF emitter produces placeholder geometry: six axis-aligned brushes
per room with door openings split out of the walls, and one point entity
per facility, mechanic and stairwell. Each brush side is written from one
template string (`_SIDE`): a face fills in its plane and texture axes
once, and each box its side ids and corner coordinates.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from .arrangement import LevelConfig, _overlaps_any
from .database import _constraint_to_json, _parse_constraint, read_json, write_json
from .errors import ConfigError, SchemaError
from .geometry import DOOR_WIDTH, Dimensions, Pose, is_finite, is_integer, out_of_bounds_depth
from .level import (
    AdjacencyEdge,
    Door,
    FacilityInstance,
    Level,
    MechanicPlacement,
    RoomInstance,
    Stair,
    TopoRule,
)

LEVEL_SCHEMA_VERSION = 1

DEFAULT_VMF_SCALE = 64.0  # map units per meter
WALL_THICKNESS = 0.25
SLAB_THICKNESS = 0.25
DOOR_OPENING_HEIGHT = 2.0
ENTITY_CLASSNAME = "prop_dynamic"


def _pose_to_json(pose: Pose) -> dict:
    return {
        "center": [pose.x, pose.y, pose.z],
        "yaw": pose.yaw,
        "dims": [pose.dims.width, pose.dims.length, pose.dims.height],
    }


def _pose_from_json(data) -> Pose:
    cx, cy, cz = data["center"]
    w, l, h = data["dims"]
    return Pose(cx, cy, cz, data["yaw"], Dimensions(w, l, h))


def export_level_json(level: Level) -> bytes:
    doc = {
        "schema_version": LEVEL_SCHEMA_VERSION,
        "config": level.config.to_dict(),
        "rooms": [
            {
                "id": r.id,
                "template": r.template,
                "floor": r.floor,
                "origin": [r.origin[0], r.origin[1]],
                "dims": [r.dims.width, r.dims.length, r.dims.height],
                "tau": r.tau,
                "arch_type": r.arch_type,
            }
            for r in level.rooms
        ],
        "facilities": [
            {
                "id": f.id,
                "def": f.def_name,
                "room": f.room_id,
                "pose": _pose_to_json(f.pose),
                "fixed": f.fixed,
                "constraints": [_constraint_to_json(c) for c in f.constraints],
            }
            for f in level.facilities
        ],
        "mechanics": [
            {
                "id": m.id,
                "def": m.def_name,
                "room": m.room_id,
                "pose": _pose_to_json(m.pose),
                "constraints": [_constraint_to_json(c) for c in m.standard_constraints],
                "topo": [asdict(t) for t in m.topo],
            }
            for m in level.mechanics
        ],
        "doors": [
            {"room_a": d.room_a, "room_b": d.room_b, "position": [d.x, d.y]}
            for d in level.doors
        ],
        "stairs": [
            {
                "room": s.room_id,
                "position": [s.x, s.y],
                "dims": [s.dims.width, s.dims.length, s.dims.height],
            }
            for s in level.stairs
        ],
        "adjacency": [
            {"room_a": e.room_a, "room_b": e.room_b, "kind": e.kind}
            for e in level.adjacency
        ],
    }
    return write_json(doc)


def level_hash(level: Level) -> str:
    return hashlib.sha256(export_level_json(level)).hexdigest()


def _check_rooms(level: Level) -> None:
    """SchemaError unless the rooms can exist: at least one, unique ids,
    each on a floor of the level and inside its bounds, and no two on one
    floor overlapping with positive area."""
    config = level.config
    eps = 1e-9
    if not level.rooms:
        raise SchemaError("level has no rooms")
    for i, room in enumerate(level.rooms):
        earlier = level.rooms[:i]
        if any(r.id == room.id for r in earlier):
            raise SchemaError(f"duplicate room id {room.id}")
        if not is_integer(room.floor) or not 0 <= room.floor < config.floors:
            raise SchemaError(
                f"room {room.id} floor {room.floor!r} is not in [0, {config.floors})"
            )
        x0, y0, x1, y1 = room.footprint()
        if x0 < -eps or y0 < -eps or x1 > config.width + eps or y1 > config.length + eps:
            raise SchemaError(f"room {room.id} leaves the level bounds")
        if _overlaps_any(room.floor, x0, y0, x1, y1, earlier):
            raise SchemaError(f"room {room.id} overlaps another room on its floor")


def import_level_json(data: bytes | str) -> Level:
    """The level a level document holds. ParseError unless it is UTF-8 JSON,
    ConfigError when its config fails `LevelConfig.check`, and SchemaError
    for any other document whose level cannot exist."""
    doc = read_json(data)
    if not isinstance(doc, dict):
        raise SchemaError("level document must be an object")
    try:
        config = LevelConfig.from_dict(doc["config"])
        config.check()
        level = Level(config=config)
        for r in doc["rooms"]:
            level.rooms.append(
                RoomInstance(
                    id=r["id"],
                    template=r["template"],
                    floor=r["floor"],
                    origin=(r["origin"][0], r["origin"][1]),
                    dims=Dimensions(*r["dims"]),
                    tau=r["tau"],
                    arch_type=r["arch_type"],
                )
            )
        _check_rooms(level)
        for d in doc["doors"]:
            level.doors.append(
                Door(d["room_a"], d["room_b"], d["position"][0], d["position"][1])
            )
        for s in doc["stairs"]:
            level.stairs.append(
                Stair(s["room"], s["position"][0], s["position"][1], Dimensions(*s["dims"]))
            )
        for e in doc["adjacency"]:
            level.adjacency.append(AdjacencyEdge(e["room_a"], e["room_b"], e["kind"]))
        for door in level.doors:
            axis, boundary, lo, hi = level.shared_wall(door.room_a, door.room_b)
            across, along = (door.x, door.y) if axis == "x" else (door.y, door.x)
            if abs(across - boundary) > 1e-9 or not lo <= along <= hi:
                raise SchemaError(
                    f"door between rooms {door.room_a} and {door.room_b} "
                    "is not on their shared wall"
                )
        for e in level.adjacency:
            level.shared_wall(e.room_a, e.room_b)
        for f in doc["facilities"]:
            level.facilities.append(
                FacilityInstance(
                    id=f["id"],
                    def_name=f["def"],
                    room_id=f["room"],
                    pose=_pose_from_json(f["pose"]),
                    fixed=f["fixed"],
                    constraints=tuple(
                        _parse_constraint(c, "facilities.constraints")
                        for c in f["constraints"]
                    ),
                )
            )
        for m in doc["mechanics"]:
            level.mechanics.append(
                MechanicPlacement(
                    id=m["id"],
                    def_name=m["def"],
                    room_id=m["room"],
                    pose=_pose_from_json(m["pose"]),
                    standard_constraints=tuple(
                        _parse_constraint(c, "mechanics.constraints")
                        for c in m["constraints"]
                    ),
                    topo=tuple(
                        TopoRule(**{f.name: t[f.name] for f in fields(TopoRule)})
                        for t in m["topo"]
                    ),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"level document field error: {exc}") from exc
    rooms = {r.id: r for r in level.rooms}
    named = [("a stair", s.room_id) for s in level.stairs]
    named += [(repr(p.id), p.room_id) for p in (*level.facilities, *level.mechanics)]
    for what, room_id in named:
        if room_id not in rooms:
            raise SchemaError(f"{what} is in room {room_id}, which the level does not have")
    for kind, placed in (("facility", level.facilities), ("mechanic", level.mechanics)):
        for p in placed:
            dims = rooms[p.room_id].dims
            if out_of_bounds_depth(p.pose.footprint(), dims.width, dims.length) > 1e-9:
                raise SchemaError(f"{kind} {p.id!r} does not fit inside room {p.room_id}")
    return level


# -- Valve Map Format ----------------------------------------------------------


def _fmt(v: float) -> str:
    return str(float(v))


class _VmfWriter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0
        self.next_id = 1

    def take_id(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out

    def open(self, name: str) -> None:
        pad = "\t" * self.depth
        self.lines.append(f"{pad}{name}")
        self.lines.append(f"{pad}{{")
        self.depth += 1

    def close(self) -> None:
        self.depth -= 1
        self.lines.append("\t" * self.depth + "}")

    def kv(self, key: str, value) -> None:
        pad = "\t" * self.depth
        self.lines.append(f'{pad}"{key}" "{value}"')

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# One brush side. The face fills in its plane and texture axes once; each
# box then fills in the side id and its corner coordinates.
_SIDE = """\
side
{
\t"id" "%(id)s"
\t"plane" "%(plane)s"
\t"material" "DEV/DEV_MEASUREGENERIC01B"
\t"uaxis" "%(uaxis)s 0.25"
\t"vaxis" "%(vaxis)s 0.25"
\t"rotation" "0"
\t"lightmapscale" "16"
\t"smoothing_groups" "0"
}"""

# (plane point triple, uaxis, vaxis) per face, points named by box corner
# coordinate; they wind counterclockwise seen from outside so
# cross(B-A, C-A) is the outward normal.
_FACES = (
    (("x0 y0 z1", "x1 y0 z1", "x1 y1 z1"), "[1 0 0 0]", "[0 -1 0 0]"),  # +z
    (("x0 y1 z0", "x1 y1 z0", "x1 y0 z0"), "[1 0 0 0]", "[0 -1 0 0]"),  # -z
    (("x0 y0 z0", "x0 y0 z1", "x0 y1 z1"), "[0 1 0 0]", "[0 0 -1 0]"),  # -x
    (("x1 y0 z0", "x1 y1 z0", "x1 y1 z1"), "[0 1 0 0]", "[0 0 -1 0]"),  # +x
    (("x0 y0 z0", "x1 y0 z0", "x1 y0 z1"), "[1 0 0 0]", "[0 0 -1 0]"),  # -y
    (("x0 y1 z0", "x0 y1 z1", "x1 y1 z1"), "[1 0 0 0]", "[0 0 -1 0]"),  # +y
)
_CORNERS = ("x0", "y0", "z0", "x1", "y1", "z1")


@functools.cache
def _side_templates(depth: int) -> tuple[str, ...]:
    """`_SIDE` for each face, indented `depth` tabs, leaving the side id and
    the box corners to fill in."""
    out = []
    for points, uaxis, vaxis in _FACES:
        plane = " ".join("(" + " ".join(f"%({c})s" for c in p.split()) + ")" for p in points)
        side = _SIDE % {"id": "%(id)s", "plane": plane, "uaxis": uaxis, "vaxis": vaxis}
        out.append("\n".join("\t" * depth + line for line in side.split("\n")))
    return tuple(out)


def _emit_box(w: _VmfWriter, lo, hi, scale: float) -> None:
    fields: dict[str, object] = dict(zip(_CORNERS, (_fmt(v * scale) for v in (*lo, *hi))))
    w.open("solid")
    w.kv("id", w.take_id())
    for side in _side_templates(w.depth):
        fields["id"] = w.take_id()
        w.lines.append(side % fields)
    w.close()


@dataclass(frozen=True)
class _Opening:
    lo: float
    hi: float
    full_height: bool  # open-room edges cut the whole wall height


def wall_openings(level: Level, room: RoomInstance) -> dict[str, list[_Opening]]:
    """Openings per wall side ("-x", "+x", "-y", "+y") of one room: a door
    width at each door, and the whole shared wall of each open edge."""
    out: dict[str, list[_Opening]] = {"-x": [], "+x": [], "-y": [], "+y": []}
    links = [(d.room_a, d.room_b, d) for d in level.doors]
    links += [(e.room_a, e.room_b, None) for e in level.adjacency if e.kind == "open"]
    for room_a, room_b, door in links:
        if room.id not in (room_a, room_b):
            continue
        axis, boundary, lo, hi = level.shared_wall(room_a, room_b)
        low_wall = room.origin[0 if axis == "x" else 1]
        side = ("-" if abs(boundary - low_wall) < 1e-9 else "+") + axis
        if door is None:
            out[side].append(_Opening(lo, hi, full_height=True))
        else:
            run = door.y if axis == "x" else door.x
            half = DOOR_WIDTH / 2.0
            out[side].append(_Opening(run - half, run + half, full_height=False))
    for side in out:
        out[side].sort(key=lambda o: (o.lo, o.hi))
    return out


def wall_segments(
    run_lo: float, run_hi: float, openings: Sequence[_Opening]
) -> list[tuple[float, float]]:
    """Solid wall segments left after cutting openings."""
    merged: list[list[float]] = []
    for op in sorted(openings, key=lambda o: (o.lo, o.hi)):
        lo, hi = max(run_lo, op.lo), min(run_hi, op.hi)
        if hi - lo <= 1e-9:
            continue
        if merged and lo <= merged[-1][1] + 1e-9:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    segments = []
    cursor = run_lo
    for lo, hi in merged:
        if lo - cursor > 1e-9:
            segments.append((cursor, lo))
        cursor = max(cursor, hi)
    if run_hi - cursor > 1e-9:
        segments.append((cursor, run_hi))
    return segments


def _emit_room(w: _VmfWriter, level: Level, room: RoomInstance, scale: float) -> None:
    """Emit the room's floor and ceiling slabs, wall segments and door headers."""
    x0, y0, x1, y1 = room.footprint()
    fh = level.config.floor_height
    z0 = room.floor * fh
    z1 = z0 + room.dims.height

    _emit_box(w, (x0, y0, z0 - SLAB_THICKNESS), (x1, y1, z0), scale)
    _emit_box(w, (x0, y0, z1), (x1, y1, z1 + SLAB_THICKNESS), scale)

    openings = wall_openings(level, room)
    t = WALL_THICKNESS
    walls = {
        "-x": ((x0, x0 + t), (y0, y1), "y"),
        "+x": ((x1 - t, x1), (y0, y1), "y"),
        "-y": ((y0, y0 + t), (x0, x1), "x"),
        "+y": ((y1 - t, y1), (x0, x1), "x"),
    }
    door_h = min(DOOR_OPENING_HEIGHT, room.dims.height)
    for side in ("-x", "+x", "-y", "+y"):
        (thick_lo, thick_hi), (run_lo, run_hi), run_axis = walls[side]
        for lo, hi in wall_segments(run_lo, run_hi, openings[side]):
            if run_axis == "y":
                _emit_box(w, (thick_lo, lo, z0), (thick_hi, hi, z1), scale)
            else:
                _emit_box(w, (lo, thick_lo, z0), (hi, thick_hi, z1), scale)
        for op in openings[side]:
            if op.full_height or z0 + door_h >= z1 - 1e-9:
                continue
            lo, hi = max(run_lo, op.lo), min(run_hi, op.hi)
            if hi - lo <= 1e-9:
                continue
            if run_axis == "y":
                _emit_box(w, (thick_lo, lo, z0 + door_h), (thick_hi, hi, z1), scale)
            else:
                _emit_box(w, (lo, thick_lo, z0 + door_h), (hi, thick_hi, z1), scale)


def export_vmf(level: Level, scale: float = DEFAULT_VMF_SCALE) -> bytes:
    """Emit the level as VMF text with placeholder geometry; every facility,
    mechanic and stairwell is a `prop_dynamic` point entity. A `scale` (map
    units per meter) that is not finite and > 0 is a ConfigError."""
    if not (is_finite(scale) and scale > 0):
        raise ConfigError(f"scale must be finite and > 0, got {scale!r}")
    w = _VmfWriter()
    w.open("versioninfo")
    w.kv("editorversion", "400")
    w.kv("editorbuild", "8864")
    w.kv("mapversion", "1")
    w.kv("formatversion", "100")
    w.kv("prefab", "0")
    w.close()

    w.open("world")
    w.kv("id", w.take_id())
    w.kv("mapversion", "1")
    w.kv("classname", "worldspawn")
    for room in sorted(level.rooms, key=lambda r: r.id):
        _emit_room(w, level, room, scale)
    w.close()

    fh = level.config.floor_height

    def emit_entity(name: str, gx: float, gy: float, gz: float, yaw: float):
        w.open("entity")
        w.kv("id", w.take_id())
        w.kv("classname", ENTITY_CLASSNAME)
        w.kv("targetname", name)
        w.kv("origin", f"{_fmt(gx * scale)} {_fmt(gy * scale)} {_fmt(gz * scale)}")
        w.kv("angles", f"0 {_fmt(math.degrees(yaw))} 0")
        w.close()

    for fac in level.facilities:
        room = level.room_by_id(fac.room_id)
        gx, gy, gz = level.global_pose_center(fac.room_id, fac.pose)
        emit_entity(fac.id, gx, gy, room.floor * fh + gz, fac.pose.yaw)
    for mech in level.mechanics:
        room = level.room_by_id(mech.room_id)
        gx, gy, gz = level.global_pose_center(mech.room_id, mech.pose)
        emit_entity(mech.id, gx, gy, room.floor * fh + gz, mech.pose.yaw)
    for idx, stair in enumerate(level.stairs):
        room = level.room_by_id(stair.room_id)
        gz = room.floor * fh + stair.dims.height / 2.0
        emit_entity(f"stair#{idx}", stair.x, stair.y, gz, 0.0)
    return w.text().encode("utf-8")
