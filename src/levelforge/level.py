"""Placed-level data model shared by the generation, repair and export stages.

Facility and mechanic poses are room-local; room origins are level-global
plan coordinates. The topological order `tau` is assigned at creation time
and doubles as the room id. `Level.check` holds the rules of whether a level
can exist; import and generation both end with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .constraints import ARCH_TYPES, ConstraintSpec
from .errors import SchemaError
from .geometry import Dimensions, Pose, is_integer, out_of_bounds_depth, shared_segment

if TYPE_CHECKING:  # pragma: no cover
    from .arrangement import LevelConfig

LINK_KINDS = ("door", "open")


@dataclass
class RoomInstance:
    id: int
    template: str
    floor: int
    origin: tuple[float, float]
    dims: Dimensions
    tau: int
    arch_type: str

    def footprint(self) -> tuple[float, float, float, float]:
        ox, oy = self.origin
        return (ox, oy, ox + self.dims.width, oy + self.dims.length)

    def center(self) -> tuple[float, float]:
        ox, oy = self.origin
        return (ox + self.dims.width / 2.0, oy + self.dims.length / 2.0)


@dataclass(frozen=True)
class Door:
    room_a: int
    room_b: int
    x: float
    y: float


@dataclass(frozen=True)
class AdjacencyEdge:
    room_a: int
    room_b: int
    kind: str  # one of LINK_KINDS


@dataclass(frozen=True)
class Stair:
    """Vertical link anchored in a lower-floor room at plan position (x, y)."""

    room_id: int
    x: float
    y: float
    dims: Dimensions


@dataclass
class FacilityInstance:
    id: str
    def_name: str
    room_id: int
    pose: Pose  # room-local
    fixed: bool
    constraints: tuple[ConstraintSpec, ...] = ()


@dataclass(frozen=True)
class TopoRule:
    """Topological rule of a mechanic: against another mechanic (its
    definition name in the database, an instance id once bound in a level)
    or a virtual anchor pinned to a fixed tau value. `threshold` is the
    step budget (max for topo_near, min for topo_far); `strength` scales
    the rule relative to its category weight."""

    kind: str  # "precedes" | "topo_near" | "topo_far"
    other: str | None = None
    anchor_tau: float | None = None
    threshold: int | None = None
    strength: float = 1.0


@dataclass
class MechanicPlacement:
    id: str
    def_name: str
    room_id: int
    pose: Pose  # room-local
    standard_constraints: tuple[ConstraintSpec, ...] = ()
    topo: tuple[TopoRule, ...] = ()


@dataclass
class Level:
    """A placed level. Room arrangement fills the room structure (rooms,
    connections, stairs); layout and mechanics add facilities and keys.
    The level size lives only on `config`."""

    config: "LevelConfig"
    rooms: list[RoomInstance] = field(default_factory=list)
    doors: list[Door] = field(default_factory=list)
    adjacency: list[AdjacencyEdge] = field(default_factory=list)
    stairs: list[Stair] = field(default_factory=list)
    facilities: list[FacilityInstance] = field(default_factory=list)
    mechanics: list[MechanicPlacement] = field(default_factory=list)
    # id -> room, the first of an id; rebuilt on a miss, so rooms appended
    # to `rooms` are found
    _room_index: dict[int, RoomInstance] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def room_by_id(self, room_id: int) -> RoomInstance:
        room = self._room_index.get(room_id)
        if room is None:
            self._room_index = {r.id: r for r in reversed(self.rooms)}
            room = self._room_index[room_id]
        return room

    def rooms_on_floor(self, floor: int) -> list[RoomInstance]:
        return [r for r in self.rooms if r.floor == floor]

    def shared_wall(self, room_a: int, room_b: int) -> tuple[str, float, float, float]:
        """The `shared_segment` a door or open edge between two rooms opens;
        SchemaError when they are on different floors or share no wall."""
        a, b = self.room_by_id(room_a), self.room_by_id(room_b)
        seg = shared_segment(a.footprint(), b.footprint()) if a.floor == b.floor else None
        if seg is None:
            raise SchemaError(f"rooms {room_a} and {room_b} share no wall")
        return seg

    def check(self) -> None:
        """SchemaError unless the level can exist. It has rooms, with unique
        ids, each on a floor of the level, of a known arch type and a valid
        size no taller than a floor, inside the level bounds, and no two on a
        floor overlapping with positive area. Each link, stair and placement
        names rooms of the level; a link joins two rooms that share a wall
        (a door lies on it) and has a known kind, a stair has a valid size
        and stands inside its room, which is below the top floor, and each
        facility and mechanic has a valid size and a footprint inside its
        room."""
        config, eps = self.config, 1e-9
        if not self.rooms:
            raise SchemaError("level has no rooms")
        rooms: dict[int, RoomInstance] = {}
        on_floor: dict[int, list[RoomInstance]] = {}
        for i, room in enumerate(self.rooms):
            if room.id in rooms:
                raise SchemaError(f"duplicate room id {room.id}")
            if not is_integer(room.floor) or not 0 <= room.floor < config.floors:
                raise SchemaError(
                    f"room {room.id} floor {room.floor!r} is not in [0, {config.floors})"
                )
            if room.arch_type not in ARCH_TYPES:
                raise SchemaError(f"rooms[{i}].arch_type: expected one of {ARCH_TYPES}")
            if not room.dims.is_valid():
                raise SchemaError(f"rooms[{i}].dims: expected sizes > 0")
            if room.dims.height > config.floor_height + eps:
                raise SchemaError(
                    f"rooms[{i}].dims[2]: height {room.dims.height!r} is above the floor "
                    f"height {config.floor_height!r}"
                )
            x0, y0, x1, y1 = room.footprint()
            if x0 < -eps or y0 < -eps or x1 > config.width + eps or y1 > config.length + eps:
                raise SchemaError(f"room {room.id} leaves the level bounds")
            if overlaps_any(room.floor, x0, y0, x1, y1, on_floor.setdefault(room.floor, [])):
                raise SchemaError(f"room {room.id} overlaps another room on its floor")
            rooms[room.id] = room
            on_floor[room.floor].append(room)

        def unknown(what: str, room_id) -> SchemaError:
            return SchemaError(f"{what} room {room_id}, which the level does not have")

        for what, links in (("doors", self.doors), ("adjacency", self.adjacency)):
            for i, link in enumerate(links):
                for room_id in (link.room_a, link.room_b):
                    if room_id not in rooms:
                        raise unknown(f"{what}[{i}] joins", room_id)
        walls = {}  # (room_a, room_b) -> their shared wall; a door and its edge share one
        for door in self.doors:
            wall = walls[door.room_a, door.room_b] = self.shared_wall(door.room_a, door.room_b)
            axis, boundary, lo, hi = wall
            across, along = (door.x, door.y) if axis == "x" else (door.y, door.x)
            if abs(across - boundary) > eps or not lo <= along <= hi:
                raise SchemaError(
                    f"door between rooms {door.room_a} and {door.room_b} "
                    "is not on their shared wall"
                )
        for i, edge in enumerate(self.adjacency):
            if edge.kind not in LINK_KINDS:
                raise SchemaError(f"adjacency[{i}].kind: expected one of {LINK_KINDS}")
            if (edge.room_a, edge.room_b) not in walls:
                self.shared_wall(edge.room_a, edge.room_b)
        for i, stair in enumerate(self.stairs):
            if stair.room_id not in rooms:
                raise unknown(f"stairs[{i}].room:", stair.room_id)
            if not stair.dims.is_valid():
                raise SchemaError(f"stairs[{i}].dims: expected sizes > 0")
            room = rooms[stair.room_id]
            if room.floor >= config.floors - 1:
                raise SchemaError(
                    f"stairs[{i}].room: room {room.id} is on the top floor, with no floor above"
                )
            x0, y0, x1, y1 = room.footprint()
            if not (x0 - eps <= stair.x <= x1 + eps and y0 - eps <= stair.y <= y1 + eps):
                raise SchemaError(f"stairs[{i}].position: outside room {room.id}")
        for section, kind, placed in (
            ("facilities", "facility", self.facilities),
            ("mechanics", "mechanic", self.mechanics),
        ):
            for i, p in enumerate(placed):
                if p.room_id not in rooms:
                    raise unknown(f"{section}[{i}].room:", p.room_id)
                if not p.pose.dims.is_valid():
                    raise SchemaError(f"{section}[{i}].pose.dims: expected sizes > 0")
                dims = rooms[p.room_id].dims
                if out_of_bounds_depth(p.pose.footprint(), dims.width, dims.length) > eps:
                    raise SchemaError(f"{kind} {p.id!r} does not fit inside room {p.room_id}")

    def facilities_in_room(self, room_id: int) -> list[FacilityInstance]:
        return [f for f in self.facilities if f.room_id == room_id]

    def global_pose_center(self, room_id: int, pose: Pose) -> tuple[float, float, float]:
        room = self.room_by_id(room_id)
        ox, oy = room.origin
        return (ox + pose.x, oy + pose.y, pose.z)

    def stair_obstacles(self, room_id: int) -> list[Pose]:
        """Fixed stairwell footprints intruding into a room (either floor)."""
        room = self.room_by_id(room_id)
        ox, oy = room.origin
        out = []
        for s in self.stairs:
            lower = self.room_by_id(s.room_id)
            if room.floor not in (lower.floor, lower.floor + 1):
                continue
            x0, y0, x1, y1 = room.footprint()
            if x0 - 1 <= s.x <= x1 + 1 and y0 - 1 <= s.y <= y1 + 1:
                out.append(
                    Pose(s.x - ox, s.y - oy, s.dims.height / 2.0, 0.0, s.dims)
                )
        return out


def overlaps_any(
    floor: int, x0: float, y0: float, x1: float, y1: float, placed: Iterable[RoomInstance]
) -> bool:
    """Whether the footprint (x0, y0, x1, y1) overlaps a room of `placed` on
    `floor` with positive area."""
    eps = 1e-9
    for r in placed:
        if r.floor != floor:
            continue
        rx0, ry0, rx1, ry1 = r.footprint()
        if x0 < rx1 - eps and x1 > rx0 + eps and y0 < ry1 - eps and y1 > ry0 + eps:
            return True
    return False
