"""Level serialization: canonical JSON documents and Valve Map Format.

The JSON form is byte-normalized (fixed key order, shortest round-trip
floats) so that export -> import -> export reproduces identical bytes;
the sha256 of those bytes serves as the level hash everywhere determinism
is asserted.

The VMF emitter produces placeholder geometry: six axis-aligned brushes
per room with door openings split out of the walls, and one point entity
per facility, mechanic and stairwell. Each brush box is written from one
template (`_BOX`, six `_SIDE`s whose texture axes are filled in once):
one `%` fills in its seven ids and its corner coordinates. Each entity is
likewise one `_ENTITY` fill, and the wall openings of all rooms come from
one pass over the doors and open edges.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from operator import itemgetter
from typing import Callable, Sequence

from .arrangement import LevelConfig
from .database import (
    _array,
    _constraint_to_json,
    _finite,
    _integer,
    _numbers,
    _parse_constraint,
    _string,
    _take,
    read_json,
    write_json,
)
from .errors import ConfigError, SchemaError
from .geometry import DOOR_WIDTH, Dimensions, Pose, is_finite
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


# -- reading a level document ---------------------------------------------------
# One reader per entity, as in `database`: each field must be there and of its
# type, an error names its path (`rooms[3].dims[1]`), and other keys are
# ignored. `Level.check` then judges whether the level can exist.


def _read_room(r, where: str) -> RoomInstance:
    _take(r, where, ("id", "template", "floor", "origin", "dims", "tau", "arch_type"), None)
    return RoomInstance(
        _integer(r["id"], where, ".id"),
        _string(r["template"], where, ".template"),
        _integer(r["floor"], where, ".floor"),
        tuple(_numbers(r["origin"], 2, where, ".origin")),
        Dimensions(*_numbers(r["dims"], 3, where, ".dims")),
        _integer(r["tau"], where, ".tau"),
        _string(r["arch_type"], where, ".arch_type"),
    )


def _read_pose(pose, where: str) -> Pose:
    _take(pose, where, ("center", "yaw", "dims"), None)
    x, y, z = _numbers(pose["center"], 3, where, ".center")
    dims = Dimensions(*_numbers(pose["dims"], 3, where, ".dims"))
    return Pose(x, y, z, _finite(pose["yaw"], where, ".yaw"), dims)


def _read_facility(f, where: str) -> FacilityInstance:
    _take(f, where, ("id", "def", "room", "pose", "fixed", "constraints"), None)
    if not isinstance(f["fixed"], bool):
        raise SchemaError(f"{where}.fixed: expected a boolean")
    return FacilityInstance(
        _string(f["id"], where, ".id"),
        _string(f["def"], where, ".def"),
        _integer(f["room"], where, ".room"),
        _read_pose(f["pose"], f"{where}.pose"),
        f["fixed"],
        _array(f, "constraints", where, _parse_constraint),
    )


def _read_topo(t, where: str) -> TopoRule:
    _take(t, where, [f.name for f in fields(TopoRule)], None)
    other, anchor, threshold = t["other"], t["anchor_tau"], t["threshold"]
    return TopoRule(
        _string(t["kind"], where, ".kind"),
        other if other is None else _string(other, where, ".other"),
        anchor if anchor is None else _finite(anchor, where, ".anchor_tau"),
        threshold if threshold is None else _integer(threshold, where, ".threshold"),
        _finite(t["strength"], where, ".strength"),
    )


def _read_mechanic(m, where: str) -> MechanicPlacement:
    _take(m, where, ("id", "def", "room", "pose", "constraints", "topo"), None)
    return MechanicPlacement(
        _string(m["id"], where, ".id"),
        _string(m["def"], where, ".def"),
        _integer(m["room"], where, ".room"),
        _read_pose(m["pose"], f"{where}.pose"),
        _array(m, "constraints", where, _parse_constraint),
        _array(m, "topo", where, _read_topo),
    )


def _read_door(d, where: str) -> Door:
    _take(d, where, ("room_a", "room_b", "position"), None)
    room_a = _integer(d["room_a"], where, ".room_a")
    room_b = _integer(d["room_b"], where, ".room_b")
    return Door(room_a, room_b, *_numbers(d["position"], 2, where, ".position"))


def _read_edge(e, where: str) -> AdjacencyEdge:
    _take(e, where, ("room_a", "room_b", "kind"), None)
    room_a = _integer(e["room_a"], where, ".room_a")
    room_b = _integer(e["room_b"], where, ".room_b")
    return AdjacencyEdge(room_a, room_b, _string(e["kind"], where, ".kind"))


def _read_stair(s, where: str) -> Stair:
    _take(s, where, ("room", "position", "dims"), None)
    x, y = _numbers(s["position"], 2, where, ".position")
    dims = Dimensions(*_numbers(s["dims"], 3, where, ".dims"))
    return Stair(_integer(s["room"], where, ".room"), x, y, dims)


# Each entity list of a level document, with its reader.
_SECTIONS = {
    "rooms": _read_room,
    "doors": _read_door,
    "adjacency": _read_edge,
    "stairs": _read_stair,
    "facilities": _read_facility,
    "mechanics": _read_mechanic,
}


def import_level_json(data: bytes | str) -> Level:
    """The level a level document holds. ParseError unless it is UTF-8 JSON,
    ConfigError when its config fails `LevelConfig.check`, and SchemaError
    naming the path of a missing or mistyped field, or when `Level.check`
    finds that the level cannot exist."""
    doc = _take(read_json(data), "document", ("config", *_SECTIONS), None)
    config = LevelConfig.from_dict(doc["config"])
    config.check()
    level = Level(config, **{k: list(_array(doc, k, "", read)) for k, read in _SECTIONS.items()})
    level.check()
    return level


# -- Valve Map Format ----------------------------------------------------------


def _fmt(v: float) -> str:
    return str(float(v))


# The version block and the head of the world block, whose id is 1.
_HEAD = """\
versioninfo
{
\t"editorversion" "400"
\t"editorbuild" "8864"
\t"mapversion" "1"
\t"formatversion" "100"
\t"prefab" "0"
}
world
{
\t"id" "1"
\t"mapversion" "1"
\t"classname" "worldspawn"
"""

# One point entity: its id, name, origin coordinates and yaw in degrees.
_ENTITY = f"""\
entity
{{
\t"id" "%s"
\t"classname" "{ENTITY_CLASSNAME}"
\t"targetname" "%s"
\t"origin" "%s %s %s"
\t"angles" "0 %s 0"
}}
"""

# One brush side, given its texture axes; the side id and the nine plane
# coordinates are left to fill in.
_SIDE = """\
side
{
\t"id" "%%s"
\t"plane" "(%%s %%s %%s) (%%s %%s %%s) (%%s %%s %%s)"
\t"material" "DEV/DEV_MEASUREGENERIC01B"
\t"uaxis" "%s 0.25"
\t"vaxis" "%s 0.25"
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


def _box_template() -> tuple[str, Callable[[tuple], tuple]]:
    """The text of one brush box inside the world block, and the function
    that orders a box's fields for it: from its seven ids (the solid's, then
    one per face) and its six corner coordinates, the tuple that one `%`
    fills the text with."""
    def indent(text: str) -> str:
        return "\t" + text.replace("\n", "\n\t")

    lines, slots = ["solid", "{", '\t"id" "%s"'], [0]
    for face, (points, uaxis, vaxis) in enumerate(_FACES):
        lines.append(indent(_SIDE % (uaxis, vaxis)))
        slots.append(1 + face)
        slots += [7 + _CORNERS.index(c) for point in points for c in point.split()]
    lines.append("}")
    return indent("\n".join(lines)) + "\n", itemgetter(*slots)


_BOX, _BOX_FIELDS = _box_template()


class _VmfWriter:
    """VMF text in chunks; ids count up from the world's."""

    def __init__(self, scale: float) -> None:
        self.chunks = [_HEAD]
        self.next_id = 2
        self.scale = scale

    def box(self, lo, hi) -> None:
        i, s = self.next_id, self.scale
        self.next_id = i + 7
        corners = [str(float(v * s)) for v in (*lo, *hi)]  # _fmt, inlined
        self.chunks.append(_BOX % _BOX_FIELDS((*range(i, i + 7), *corners)))

    def entity(self, name: str, gx: float, gy: float, gz: float, yaw: float) -> None:
        s = self.scale
        origin = (_fmt(gx * s), _fmt(gy * s), _fmt(gz * s))
        self.chunks.append(_ENTITY % (self.next_id, name, *origin, _fmt(math.degrees(yaw))))
        self.next_id += 1


@dataclass(frozen=True)
class _Opening:
    lo: float
    hi: float
    full_height: bool  # open-room edges cut the whole wall height


def wall_openings(level: Level) -> dict[int, dict[str, list[_Opening]]]:
    """Openings per room id and wall side ("-x", "+x", "-y", "+y"): a door
    width at each door, and the whole shared wall of each open edge, in
    both rooms a link joins. One pass over the links; each side's openings
    are sorted by run."""
    out = {r.id: {"-x": [], "+x": [], "-y": [], "+y": []} for r in level.rooms}
    links = [(d.room_a, d.room_b, d) for d in level.doors]
    links += [(e.room_a, e.room_b, None) for e in level.adjacency if e.kind == "open"]
    for room_a, room_b, door in links:
        axis, boundary, lo, hi = level.shared_wall(room_a, room_b)
        if door is None:
            opening = _Opening(lo, hi, full_height=True)
        else:
            run = door.y if axis == "x" else door.x
            half = DOOR_WIDTH / 2.0
            opening = _Opening(run - half, run + half, full_height=False)
        k = 0 if axis == "x" else 1
        for room_id in (room_a, room_b):
            low_wall = level.room_by_id(room_id).origin[k]
            side = ("-" if abs(boundary - low_wall) < 1e-9 else "+") + axis
            out[room_id][side].append(opening)
    for sides in out.values():
        for found in sides.values():
            found.sort(key=lambda o: (o.lo, o.hi))
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


def _emit_room(
    w: _VmfWriter, level: Level, room: RoomInstance, openings: dict[str, list[_Opening]]
) -> None:
    """Emit the room's floor and ceiling slabs, wall segments and door headers."""
    x0, y0, x1, y1 = room.footprint()
    fh = level.config.floor_height
    z0 = room.floor * fh
    z1 = z0 + room.dims.height

    w.box((x0, y0, z0 - SLAB_THICKNESS), (x1, y1, z0))
    w.box((x0, y0, z1), (x1, y1, z1 + SLAB_THICKNESS))

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
                w.box((thick_lo, lo, z0), (thick_hi, hi, z1))
            else:
                w.box((lo, thick_lo, z0), (hi, thick_hi, z1))
        for op in openings[side]:
            if op.full_height or z0 + door_h >= z1 - 1e-9:
                continue
            lo, hi = max(run_lo, op.lo), min(run_hi, op.hi)
            if hi - lo <= 1e-9:
                continue
            if run_axis == "y":
                w.box((thick_lo, lo, z0 + door_h), (thick_hi, hi, z1))
            else:
                w.box((lo, thick_lo, z0 + door_h), (hi, thick_hi, z1))


def export_vmf(level: Level, scale: float = DEFAULT_VMF_SCALE) -> bytes:
    """Emit the level as VMF text with placeholder geometry; every facility,
    mechanic and stairwell is a `prop_dynamic` point entity. A `scale` (map
    units per meter) that is not finite and > 0 is a ConfigError."""
    if not (is_finite(scale) and scale > 0):
        raise ConfigError(f"scale must be finite and > 0, got {scale!r}")
    w = _VmfWriter(scale)
    openings = wall_openings(level)
    for room in sorted(level.rooms, key=lambda r: r.id):
        _emit_room(w, level, room, openings[room.id])
    w.chunks.append("}\n")  # closes the world block

    fh = level.config.floor_height
    for fac in level.facilities:
        room = level.room_by_id(fac.room_id)
        gx, gy, gz = level.global_pose_center(fac.room_id, fac.pose)
        w.entity(fac.id, gx, gy, room.floor * fh + gz, fac.pose.yaw)
    for mech in level.mechanics:
        room = level.room_by_id(mech.room_id)
        gx, gy, gz = level.global_pose_center(mech.room_id, mech.pose)
        w.entity(mech.id, gx, gy, room.floor * fh + gz, mech.pose.yaw)
    for idx, stair in enumerate(level.stairs):
        room = level.room_by_id(stair.room_id)
        gz = room.floor * fh + stair.dims.height / 2.0
        w.entity(f"stair#{idx}", stair.x, stair.y, gz, 0.0)
    return "".join(w.chunks).encode("utf-8")
