"""Multi-floor room arrangement.

Rooms grow by greedy depth-first expansion: each popped room tries to
attach the lowest-penalty fitting template in all four cardinal
directions. Every created room gets the next topological order value.
When a floor's stack drains, a stairwell is dropped into that floor's
highest-order room and the next floor is seeded directly above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

from .constraints import WeightConfig, eval_room_penalty
from .database import Database, RoomTemplate
from .errors import ArrangementFailed, DisconnectedFloor
from .geometry import Dimensions, bfs, shared_segment
from .layout import SAParams
from .level import AdjacencyEdge, Door, Level, RoomInstance, Stair

DIRECTIONS = ("left", "right", "front", "back")

# Fallback stairwell size when the database ships no "Stair" facility.
DEFAULT_STAIR_DIMS = Dimensions(2.0, 2.0, 3.0)


@dataclass
class LevelConfig:
    """Designer-facing generation parameters; the seed pins every choice."""

    width: float = 50.0
    length: float = 50.0
    height: float = 30.0
    floors: int = 3
    selected_templates: tuple[tuple[str, int | None], ...] = ()  # empty: all templates
    selected_mechanics: tuple[tuple[str, int], ...] = ()
    initial_template: str | None = None  # default: first selected template
    seed: int = 0
    weights: WeightConfig = field(default_factory=WeightConfig)
    sa: SAParams = field(default_factory=SAParams)

    @property
    def floor_height(self) -> float:
        return self.height / self.floors

    def grid_shape(self) -> tuple[int, int, int]:
        """Nav-grid cells along x and y (one per unit of level size), and floors."""
        return math.ceil(self.width - 1e-9), math.ceil(self.length - 1e-9), self.floors

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "length": self.length,
            "height": self.height,
            "floors": self.floors,
            "selected_templates": [list(t) for t in self.selected_templates],
            "selected_mechanics": [list(t) for t in self.selected_mechanics],
            "initial_template": self.initial_template,
            "seed": self.seed,
            "weights": self.weights.to_dict(),
            "sa": self.sa.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "LevelConfig":
        return cls(
            width=data["width"],
            length=data["length"],
            height=data["height"],
            floors=data["floors"],
            selected_templates=tuple(
                (name, cap) for name, cap in data.get("selected_templates", [])
            ),
            selected_mechanics=tuple(
                (name, count) for name, count in data.get("selected_mechanics", [])
            ),
            initial_template=data.get("initial_template"),
            seed=data["seed"],
            weights=WeightConfig.from_dict(data["weights"]),
            sa=SAParams.from_dict(data["sa"]),
        )


@dataclass
class ArrangeState:
    """Working state threaded through candidate generation: the level being
    grown and the template budget left."""

    level: Level
    templates: list[RoomTemplate]
    usage: dict[str, int]
    caps: dict[str, int]

    def available_templates(self) -> list[RoomTemplate]:
        return [t for t in self.templates if self.usage[t.name] < self.caps[t.name]]


def _overlaps_any(
    floor: int, x0: float, y0: float, x1: float, y1: float, placed: Sequence[RoomInstance]
) -> bool:
    eps = 1e-9
    for r in placed:
        if r.floor != floor:
            continue
        rx0, ry0, rx1, ry1 = r.footprint()
        if x0 < rx1 - eps and x1 > rx0 + eps and y0 < ry1 - eps and y1 > ry0 + eps:
            return True
    return False


def _candidate_origins(
    current: RoomInstance, direction: str, dims: Dimensions, width: float, length: float
) -> list[tuple[float, float]]:
    """Flush positions against `current`'s wall: aligned to either end of
    the shared wall and centered on it, clamped into the level bounds."""
    cx, cy = current.origin
    cw, cl = current.dims.width, current.dims.length
    tw, tl = dims.width, dims.length
    out: list[tuple[float, float]] = []
    if direction in ("left", "right"):
        ox = cx - tw if direction == "left" else cx + cw
        if ox < -1e-9 or ox + tw > width + 1e-9 or tl > length + 1e-9:
            return out
        for oy in (cy, cy + cl - tl, round(cy + (cl - tl) / 2.0)):
            oy = min(max(oy, 0.0), length - tl)
            if (ox, oy) not in out:
                out.append((ox, oy))
        return out
    oy = cy - tl if direction == "back" else cy + cl
    if oy < -1e-9 or oy + tl > length + 1e-9 or tw > width + 1e-9:
        return out
    for ox in (cx, cx + cw - tw, round(cx + (cw - tw) / 2.0)):
        ox = min(max(ox, 0.0), width - tw)
        if (ox, oy) not in out:
            out.append((ox, oy))
    return out


def _room_penalty(candidate: RoomInstance, template: RoomTemplate, state: ArrangeState) -> float:
    total = 0.0
    config = state.level.config
    dims = (config.width, config.length, 0.0)
    for spec in template.room_constraints:
        total += eval_room_penalty(spec, candidate, state.level.rooms, dims, config.weights)
    return total


def gen_candidate_room(
    current: RoomInstance,
    direction: str,
    state: ArrangeState,
    rng: Random,
) -> RoomInstance | None:
    """Lowest-penalty template placement flush against `current`'s wall.

    A candidate must stay inside the level bounds, not overlap placed rooms,
    share at least a door-width wall segment with `current`, and respect
    its template's instance cap. Ties break on template name, then the rng
    picks among equally-scored alignments of the same template.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    config = state.level.config
    scored: list[tuple[float, str, RoomInstance]] = []
    for template in state.available_templates():
        for ox, oy in _candidate_origins(
            current, direction, template.dims, config.width, config.length
        ):
            x1, y1 = ox + template.dims.width, oy + template.dims.length
            if _overlaps_any(current.floor, ox, oy, x1, y1, state.level.rooms):
                continue
            candidate = RoomInstance(
                id=0,
                template=template.name,
                floor=current.floor,
                origin=(ox, oy),
                dims=template.dims,
                tau=0,
                arch_type=template.arch_type,
            )
            if shared_segment(current.footprint(), candidate.footprint()) is None:
                continue
            penalty = _room_penalty(candidate, template, state)
            scored.append((penalty, template.name, candidate))
    if not scored:
        return None
    best_key = min((p, name) for p, name, _ in scored)
    tied = [c for p, name, c in scored if (p, name) == best_key]
    if len(tied) == 1:
        return tied[0]
    return tied[rng.randrange(len(tied))]


def _resolve_templates(
    config: LevelConfig, db: Database
) -> tuple[list[RoomTemplate], dict[str, int]]:
    if config.selected_templates:
        templates = []
        caps = {}
        for name, cap in config.selected_templates:
            t = db.room(name)
            if t is None:
                raise ArrangementFailed(f"selected template {name!r} not in database")
            templates.append(t)
            caps[t.name] = cap if cap is not None else t.max_instances
        return templates, caps
    templates = list(db.rooms)
    return templates, {t.name: t.max_instances for t in templates}


def _stair_dims(db: Database) -> Dimensions:
    stair = db.facility("Stair")
    return stair.dims if stair is not None else DEFAULT_STAIR_DIMS


def arrange_rooms(config: LevelConfig, db: Database, rng: Random) -> Level:
    """Grow the full multi-floor room structure, stairs and doors; the
    returned level has no facilities yet."""
    templates, caps = _resolve_templates(config, db)
    if not templates:
        raise ArrangementFailed("no room templates selected")
    initial_name = config.initial_template or templates[0].name
    initial = next((t for t in templates if t.name == initial_name), None)
    if initial is None:
        raise ArrangementFailed(f"initial template {initial_name!r} not selected")
    if initial.dims.width > config.width or initial.dims.length > config.length:
        raise ArrangementFailed(
            f"initial template {initial_name!r} does not fit the level bounds"
        )

    level = Level(config=config)
    state = ArrangeState(
        level=level,
        templates=templates,
        usage={t.name: 0 for t in templates},
        caps=caps,
    )
    stair_dims = _stair_dims(db)

    tau = 1

    def commit(template_name: str, room: RoomInstance) -> RoomInstance:
        nonlocal tau
        room.id = tau
        room.tau = tau
        tau += 1
        state.usage[template_name] += 1
        level.rooms.append(room)
        return room

    seed_room = commit(
        initial.name,
        RoomInstance(
            id=0,
            template=initial.name,
            floor=0,
            origin=(0.0, 0.0),
            dims=initial.dims,
            tau=0,
            arch_type=initial.arch_type,
        ),
    )

    stack = [seed_room]
    for floor in range(config.floors):
        while stack:
            current = stack.pop()
            for direction in DIRECTIONS:
                candidate = gen_candidate_room(current, direction, state, rng)
                if candidate is not None:
                    commit(candidate.template, candidate)
                    stack.append(candidate)

        floor_rooms = level.rooms_on_floor(floor)
        if not floor_rooms:
            break
        if floor >= config.floors - 1:
            break
        last = max(floor_rooms, key=lambda r: r.tau)
        sx, sy = last.center()
        seed = _seed_next_floor(sx, sy, floor + 1, state)
        if seed is None:
            break  # instance caps exhausted; upper floors stay empty
        level.stairs.append(Stair(room_id=last.id, x=sx, y=sy, dims=stair_dims))
        stack = [commit(seed.template, seed)]

    if not level.rooms_on_floor(0):
        raise ArrangementFailed("no rooms placed on floor 0")

    return place_doors(level)


def _seed_next_floor(
    sx: float, sy: float, floor: int, state: ArrangeState
) -> RoomInstance | None:
    """Lowest-penalty template whose footprint can contain the stair point."""
    config = state.level.config
    best: tuple[float, str, RoomInstance] | None = None
    for template in state.available_templates():
        tw, tl = template.dims.width, template.dims.length
        ox = min(max(round(sx - tw / 2.0), 0.0), config.width - tw)
        oy = min(max(round(sy - tl / 2.0), 0.0), config.length - tl)
        if not (ox <= sx <= ox + tw and oy <= sy <= oy + tl):
            continue
        candidate = RoomInstance(
            id=0,
            template=template.name,
            floor=floor,
            origin=(ox, oy),
            dims=template.dims,
            tau=0,
            arch_type=template.arch_type,
        )
        penalty = _room_penalty(candidate, template, state)
        key = (penalty, template.name)
        if best is None or key < (best[0], best[1]):
            best = (penalty, template.name, candidate)
    return best[2] if best else None


def place_doors(level: Level) -> Level:
    """Connect wall-sharing rooms: open pairs get a free edge, any other
    pair gets one door at the midpoint of the shared wall segment."""
    level.doors = []
    level.adjacency = []
    for floor in range(level.config.floors):
        rooms = level.rooms_on_floor(floor)
        for i in range(len(rooms)):
            for j in range(i + 1, len(rooms)):
                a, b = rooms[i], rooms[j]
                seg = shared_segment(a.footprint(), b.footprint())
                if seg is None:
                    continue
                if a.arch_type == "open" and b.arch_type == "open":
                    level.adjacency.append(AdjacencyEdge(a.id, b.id, "open"))
                    continue
                axis, boundary, lo, hi = seg
                mid = (lo + hi) / 2.0
                if axis == "x":
                    door = Door(a.id, b.id, boundary, mid)
                else:
                    door = Door(a.id, b.id, mid, boundary)
                level.doors.append(door)
                level.adjacency.append(AdjacencyEdge(a.id, b.id, "door"))
        _check_floor_connected(rooms, level.adjacency, floor)
    return level


def _check_floor_connected(
    rooms: Sequence[RoomInstance], edges: Sequence[AdjacencyEdge], floor: int
) -> None:
    if len(rooms) <= 1:
        return
    ids = {r.id for r in rooms}
    neighbors: dict[int, set[int]] = {rid: set() for rid in ids}
    for e in edges:
        if e.room_a in ids and e.room_b in ids:
            neighbors[e.room_a].add(e.room_b)
            neighbors[e.room_b].add(e.room_a)
    seen = set(bfs(min(ids), neighbors.__getitem__))
    if seen != ids:
        raise DisconnectedFloor(
            f"floor {floor}: rooms {sorted(ids - seen)} cannot be connected"
        )
