"""Multi-floor room arrangement.

Rooms grow by greedy depth-first expansion: each popped room tries to
attach the lowest-penalty fitting template in all four cardinal
directions. Every created room gets the next topological order value.
When a floor's stack drains, a stairwell is dropped into that floor's
highest-order room and the next floor is seeded directly above it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from random import Random

from .constraints import WeightConfig, eval_room_penalty
from .database import Database, RoomTemplate, _take
from .errors import ArrangementFailed, ConfigError, DisconnectedFloor
from .geometry import Dimensions, bfs, is_finite, is_integer, shared_segment, summed
from .layout import SAParams
from .level import AdjacencyEdge, Door, Level, RoomInstance, Stair, overlaps_any
from .strategies import build_floor_graph

DIRECTIONS = ("left", "right", "front", "back")

# Fallback stairwell size when the database ships no "Stair" facility.
DEFAULT_STAIR_DIMS = Dimensions(2.0, 2.0, 3.0)


# The most nav-grid cells (width x length x floors); paper scale is 7,500.
MAX_GRID_CELLS = 10**7


def _pairs(value, none_ok: bool) -> bool:
    """(name, integer >= 0) pairs; with `none_ok`, a count may also be None."""
    return isinstance(value, (tuple, list)) and all(
        isinstance(p, (tuple, list)) and len(p) == 2 and isinstance(p[0], str)
        and (p[1] is None and none_ok or is_integer(p[1]) and p[1] >= 0)
        for p in value
    )


# The selection's, annealing schedule's and weights' rules: field, what it
# must be, and the test.
_RULES = (
    ("selected_templates", "(name, integer >= 0 or None) pairs", lambda v: _pairs(v, True)),
    ("selected_mechanics", "(name, integer >= 0) pairs", lambda v: _pairs(v, False)),
    ("initial_template", "a name or None", lambda v: v is None or isinstance(v, str)),
    ("seed", "an integer", is_integer),
    ("sa.iterations", "an integer >= 0", lambda v: is_integer(v) and v >= 0),
    ("sa.restarts", "an integer >= 1", lambda v: is_integer(v) and v >= 1),
    ("sa.cooling_rate", "finite and in (0, 1]", lambda v: is_finite(v) and 0 < v <= 1),
    ("sa.initial_temperature", "finite and >= 0", lambda v: is_finite(v) and v >= 0),
    ("sa.translate_prob", "in [0, 1]", lambda v: is_finite(v) and 0 <= v <= 1),
    ("sa.step_frac", "finite and >= 0", lambda v: is_finite(v) and v >= 0),
    *((f"weights.{f.name}", "finite", is_finite) for f in fields(WeightConfig)),
)


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

    def check(self) -> None:
        """Raise ConfigError unless the level has a shape to build: an
        integer floor count >= 1, a finite width, length and height > 0 and
        a nav grid of at most `MAX_GRID_CELLS`; and unless every field
        passes its `_RULES` (the annealer's early rejection assumes finite
        weights)."""
        if not is_integer(self.floors) or self.floors < 1:
            raise ConfigError(f"floors must be an integer >= 1, got {self.floors!r}")
        if not Dimensions(self.width, self.length, self.height).is_valid():
            raise ConfigError(
                "width, length and height must be finite and > 0, got "
                f"{self.width!r}, {self.length!r}, {self.height!r}"
            )
        shape = self.grid_shape()
        if math.prod(shape) > MAX_GRID_CELLS:
            cells = " x ".join(map(str, shape))
            raise ConfigError(f"the nav grid must have at most {MAX_GRID_CELLS} cells, got {cells}")
        for name, rule, holds in _RULES:
            value = attrgetter(name)(self)
            if not holds(value):
                raise ConfigError(f"{name} must be {rule}, got {value!r}")

    def grid_shape(self) -> tuple[int, int, int]:
        """Nav-grid cells along x and y (one per unit of level size), and floors."""
        return math.ceil(self.width - 1e-9), math.ceil(self.length - 1e-9), self.floors

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "LevelConfig":
        """The config that `to_dict` wrote, from the `config` of a level
        document: every field, of `weights` and `sa` too, must be there, and
        other keys are ignored. `check` judges the values."""

        def read(kind, data, where: str) -> dict:
            data = _take(data, where, [f.name for f in fields(kind)], None)
            return {f.name: data[f.name] for f in fields(kind)}

        values = read(cls, data, "config")
        for name in ("selected_templates", "selected_mechanics"):
            if _pairs(values[name], True):
                values[name] = tuple(map(tuple, values[name]))
        values["weights"] = WeightConfig(**read(WeightConfig, values["weights"], "config.weights"))
        values["sa"] = SAParams(**read(SAParams, values["sa"], "config.sa"))
        return cls(**values)


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


def _new_room(template: RoomTemplate, floor: int, origin: tuple[float, float]) -> RoomInstance:
    """A room of `template` that is not yet in the level; `commit` sets its
    id and tau."""
    return RoomInstance(
        id=0,
        template=template.name,
        floor=floor,
        origin=origin,
        dims=template.dims,
        tau=0,
        arch_type=template.arch_type,
    )


def _room_penalty(candidate: RoomInstance, template: RoomTemplate, state: ArrangeState) -> float:
    config = state.level.config
    dims = (config.width, config.length, 0.0)
    return summed(
        eval_room_penalty(spec, candidate, state.level.rooms, dims, config.weights)
        for spec in template.room_constraints
    )


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
            if overlaps_any(current.floor, ox, oy, x1, y1, state.level.rooms):
                continue
            candidate = _new_room(template, current.floor, (ox, oy))
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
    tallest = max((t.dims.height for t in templates if caps[t.name]), default=0.0)
    if tallest > config.floor_height + 1e-9:
        raise ConfigError(
            f"the floor height {config.floor_height!r} (height / floors) is below the "
            f"tallest selected template's {tallest!r}"
        )
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

    def commit(room: RoomInstance) -> RoomInstance:
        nonlocal tau
        room.id = tau
        room.tau = tau
        tau += 1
        state.usage[room.template] += 1
        level.rooms.append(room)
        return room

    stack = [commit(_new_room(initial, 0, (0.0, 0.0)))]
    for floor in range(config.floors):
        while stack:
            current = stack.pop()
            for direction in DIRECTIONS:
                candidate = gen_candidate_room(current, direction, state, rng)
                if candidate is not None:
                    commit(candidate)
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
        stack = [commit(seed)]

    if not level.rooms_on_floor(0):
        raise ArrangementFailed("no rooms placed on floor 0")

    return place_doors(level)


def _seed_next_floor(
    sx: float, sy: float, floor: int, state: ArrangeState
) -> RoomInstance | None:
    """Lowest-penalty template that fits the level bounds and whose
    footprint can contain the stair point."""
    config = state.level.config
    best: tuple[float, str, RoomInstance] | None = None
    for template in state.available_templates():
        tw, tl = template.dims.width, template.dims.length
        if tw > config.width + 1e-9 or tl > config.length + 1e-9:
            continue
        ox = min(max(round(sx - tw / 2.0), 0.0), config.width - tw)
        oy = min(max(round(sy - tl / 2.0), 0.0), config.length - tl)
        if not (ox <= sx <= ox + tw and oy <= sy <= oy + tl):
            continue
        candidate = _new_room(template, floor, (ox, oy))
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
        _check_floor_connected(level, floor)
    return level


def _check_floor_connected(level: Level, floor: int) -> None:
    if len(level.rooms_on_floor(floor)) <= 1:
        return
    graph = build_floor_graph(level, floor)
    unreached = set(graph.nodes) - set(bfs(min(graph.nodes), graph.neighbors.__getitem__))
    if unreached:
        raise DisconnectedFloor(f"floor {floor}: rooms {sorted(unreached)} cannot be connected")
