"""Placed-level data model shared by the generation, repair and export stages.

Facility and mechanic poses are room-local; room origins are level-global
plan coordinates. The topological order `tau` is assigned at creation time
and doubles as the room id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .constraints import ConstraintSpec
from .errors import SchemaError
from .geometry import Dimensions, Pose, shared_segment

if TYPE_CHECKING:  # pragma: no cover
    from .arrangement import LevelConfig


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
    kind: str  # "door" | "open"


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
