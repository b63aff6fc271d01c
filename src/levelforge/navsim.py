"""Navigation grid, two-phase navigability repair and agent simulation.

The level discretizes into unit cells per floor. Phase one fixes doorway
blockages room by room with flood fill and minimal repositioning of
adaptable facilities. Phase two walks the rooms in topological order with
an A* agent, repositioning and then removing blockers until every
consecutive pair connects or the simulated-time budget runs out. The same
agent then drives rerun validation and the objective (key-collection)
simulation that produce the pacing metrics.

All times are simulated seconds derived from path geometry and the agent
constants; wall-clock never enters the metrics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Sequence

import numpy as np

from .errors import UnreachableKey, UnreachableRoom
from .geometry import Pose, bfs, clamp_into_room, penetration_depth
from .level import FacilityInstance, Level, MechanicPlacement, RoomInstance

FREE = 0
WALL = 1
FACILITY = 2
DOOR = 3
STAIR = 4

_WALKABLE = (FREE, DOOR, STAIR)

Cell = tuple[int, int, int]  # (floor, x, y)
DoorwayKey = tuple[int, int]  # (lower room id, higher room id)


@dataclass(frozen=True)
class AgentParams:
    speed: float = 10.0          # units per second
    angular_speed: float = 100.0  # degrees per second
    room_timeout: float = 10.0   # seconds before a segment counts as stuck
    total_budget: float = 1000.0  # cumulative budget for repair and rerun


@dataclass
class RepairReport:
    phase1_moves: int = 0
    phase2_moves: int = 0
    facilities_removed: int = 0
    repair_time: float = 0.0
    status: str = "repaired"


@dataclass(frozen=True)
class RerunResult:
    rerun_time: float
    grid_cells: int
    abnormal: bool


@dataclass(frozen=True)
class SimResult:
    simulation_time: float
    sim_grid_cells: int


# Outcome of one level, in the order tallies are reported.
STATUSES = ("valid", "unrepairable", "abnormal", "failed")


@dataclass
class MetricsRecord:
    """Per-level row of an experiment; its fields are the record schema."""

    level_id: str
    group: str
    seed: int
    status: str  # one of STATUSES
    repair_time: float = 0.0
    facilities_removed: int = 0
    adaptable_facilities: int = 0
    phase1_moves: int = 0
    phase2_moves: int = 0
    rerun_time: float = 0.0
    simulation_time: float = 0.0
    avg_completion_time: float = 0.0
    grid_exploration: int = 0
    sim_grid_exploration: int = 0
    avg_grid_exploration: float = 0.0
    coverage: float = 0.0
    sim_coverage: float = 0.0
    avg_coverage: float = 0.0
    level_hash: str = ""


@dataclass
class NavGrid:
    width: int
    length: int
    floors: int
    floor_height: float
    base: list[np.ndarray]
    state: list[np.ndarray]
    room_of: list[np.ndarray]
    occupants: dict[Cell, list[str]] = field(default_factory=dict)
    stair_cells: list[set[tuple[int, int]]] = field(default_factory=list)
    # room id -> doorway source cells on that room's side, keyed by room pair
    doorways: dict[int, dict[DoorwayKey, list[Cell]]] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        return self.width * self.length * self.floors

    def walkable(self, cell: Cell) -> bool:
        f, x, y = cell
        return self.state[f][x, y] in _WALKABLE


def _cell_span(lo: float, hi: float, limit: int) -> range:
    """Cells whose centers fall in [lo, hi), clipped to [0, limit)."""
    start = max(0, math.ceil(lo - 0.5))
    stop = min(limit, math.ceil(hi - 0.5))
    return range(start, max(start, stop))


def _pose_cells(grid: NavGrid, room: RoomInstance, pose: Pose) -> list[Cell]:
    """Cells a room-local pose's footprint covers."""
    ox, oy = room.origin
    x0, y0, x1, y1 = pose.footprint()
    return [
        (room.floor, ix, iy)
        for ix in _cell_span(ox + x0, ox + x1, grid.width)
        for iy in _cell_span(oy + y0, oy + y1, grid.length)
    ]


def _facility_cells(grid: NavGrid, level: Level, fac: FacilityInstance) -> list[Cell]:
    return _pose_cells(grid, level.room_by_id(fac.room_id), fac.pose)


def _mark_facility(grid: NavGrid, level: Level, fac: FacilityInstance) -> None:
    for cell in _facility_cells(grid, level, fac):
        f, x, y = cell
        if grid.base[f][x, y] in (FREE, DOOR):
            grid.occupants.setdefault(cell, []).append(fac.id)
            grid.state[f][x, y] = FACILITY


def _clear_facility(grid: NavGrid, level: Level, fac: FacilityInstance) -> None:
    """Unmark a facility's cells; must run before its pose changes."""
    for cell in _facility_cells(grid, level, fac):
        occ = grid.occupants.get(cell)
        if occ and fac.id in occ:
            occ.remove(fac.id)
            if not occ:
                del grid.occupants[cell]
                f, x, y = cell
                grid.state[f][x, y] = grid.base[f][x, y]


def _move_facility(grid: NavGrid, level: Level, fac: FacilityInstance, pose: Pose) -> None:
    _clear_facility(grid, level, fac)
    fac.pose = pose
    _mark_facility(grid, level, fac)


def _adaptable_occupants(
    level: Level, grid: NavGrid, cells: Iterable[Cell]
) -> list[FacilityInstance]:
    """Adaptable facilities occupying any of `cells`, smallest footprint first."""
    ids = {i for c in cells for i in grid.occupants.get(c, ())}
    found = [fac for fac in level.facilities if fac.id in ids and not fac.fixed]
    found.sort(key=lambda fac: (fac.pose.dims.footprint_area(), fac.id))
    return found


def _door_cells(level: Level, door) -> tuple[Cell, Cell]:
    """The two cells (one per room side) a door opens up."""
    f = level.room_by_id(door.room_a).floor
    axis, _, lo, hi = level.shared_wall(door.room_a, door.room_b)
    span = _cell_span(lo, hi, 10**9)
    if axis == "x":
        bx = int(round(door.x))
        j = min(max(int(math.floor(door.y)), span.start), span.stop - 1)
        return (f, bx - 1, j), (f, bx, j)
    by = int(round(door.y))
    i = min(max(int(math.floor(door.x)), span.start), span.stop - 1)
    return (f, i, by - 1), (f, i, by)


def _open_edge_cells(level: Level, edge) -> list[tuple[Cell, Cell]]:
    """Cell pairs along the full shared segment of an open-open adjacency."""
    f = level.room_by_id(edge.room_a).floor
    axis, boundary, lo, hi = level.shared_wall(edge.room_a, edge.room_b)
    b = int(round(boundary))
    run = range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9))
    if axis == "x":
        return [((f, b - 1, j), (f, b, j)) for j in run]
    return [((f, i, b - 1), (f, i, b)) for i in run]


def _add_doorway(grid: NavGrid, link, pairs: list[tuple[Cell, Cell]]) -> None:
    """Punch a door or open edge through the wall and record, for each of
    its two rooms, the cell of every pair on that room's side."""
    key = (min(link.room_a, link.room_b), max(link.room_a, link.room_b))
    for ca, cb in pairs:
        grid.base[ca[0]][ca[1], ca[2]] = DOOR
        grid.base[cb[0]][cb[1], cb[2]] = DOOR
    for rid in (link.room_a, link.room_b):
        grid.doorways.setdefault(rid, {})[key] = [
            ca if grid.room_of[ca[0]][ca[1], ca[2]] == rid else cb for ca, cb in pairs
        ]


def build_nav_grid(level: Level) -> NavGrid:
    """Rasterize the level: walls on room perimeters, doors and open edges
    punched through, facility footprints blocked, stairwells linking floors."""
    width, length, floors = level.config.grid_shape()
    grid = NavGrid(
        width=width,
        length=length,
        floors=floors,
        floor_height=level.config.floor_height,
        base=[np.full((width, length), WALL, dtype=np.uint8) for _ in range(floors)],
        state=[],
        room_of=[np.full((width, length), -1, dtype=np.int32) for _ in range(floors)],
        stair_cells=[set() for _ in range(max(0, floors - 1))],
    )

    for room in level.rooms:
        x0, y0, x1, y1 = room.footprint()
        xs = _cell_span(x0, x1, width)
        ys = _cell_span(y0, y1, length)
        base = grid.base[room.floor]
        grid.room_of[room.floor][xs.start : xs.stop, ys.start : ys.stop] = room.id
        # perimeter ring stays wall; interior is walkable
        if xs.stop - xs.start > 2 and ys.stop - ys.start > 2:
            base[xs.start + 1 : xs.stop - 1, ys.start + 1 : ys.stop - 1] = FREE

    for door in level.doors:
        _add_doorway(grid, door, [_door_cells(level, door)])
    for edge in level.adjacency:
        if edge.kind == "open":
            _add_doorway(grid, edge, _open_edge_cells(level, edge))

    for stair in level.stairs:
        lower = level.room_by_id(stair.room_id)
        hx, hy = stair.dims.width / 2.0, stair.dims.length / 2.0
        xs = _cell_span(stair.x - hx, stair.x + hx, width)
        ys = _cell_span(stair.y - hy, stair.y + hy, length)
        for ix in xs:
            for iy in ys:
                grid.base[lower.floor][ix, iy] = STAIR
                if lower.floor + 1 < floors:
                    grid.base[lower.floor + 1][ix, iy] = STAIR
                    grid.stair_cells[lower.floor].add((ix, iy))

    grid.state = [b.copy() for b in grid.base]
    for fac in level.facilities:
        _mark_facility(grid, level, fac)
    return grid


# -- flood fill and phase-1 repair --------------------------------------------

@dataclass
class FloodResult:
    sources: dict[DoorwayKey, tuple[Cell, ...]]
    regions: dict[DoorwayKey, frozenset[Cell]]
    blocked: list[DoorwayKey]


def flood_fill_room(level: Level, grid: NavGrid, room: RoomInstance) -> FloodResult:
    """4-connected flood from each doorway, limited to the room's cells.

    A doorway counts as blocked when its own cells are all covered or when
    its region fails to reach some other doorway of the room.
    """
    doorways = grid.doorways.get(room.id, {})
    rid = room.id
    room_arr = grid.room_of[room.floor]
    state = grid.state[room.floor]

    def room_walkable(x: int, y: int) -> bool:
        return (
            0 <= x < grid.width
            and 0 <= y < grid.length
            and room_arr[x, y] == rid
            and state[x, y] in _WALKABLE
        )

    regions: dict[DoorwayKey, frozenset[Cell]] = {}
    component: dict[tuple[int, int], int] = {}
    comp_cells: list[set[tuple[int, int]]] = []

    def component_of(x: int, y: int) -> int:
        if (x, y) in component:
            return component[(x, y)]
        idx = len(comp_cells)
        seen = {(x, y)}
        queue = deque([(x, y)])
        while queue:
            cx, cy = queue.popleft()
            component[(cx, cy)] = idx
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = cx + dx, cy + dy
                if (nx, ny) not in seen and room_walkable(nx, ny):
                    seen.add((nx, ny))
                    queue.append((nx, ny))
        comp_cells.append(seen)
        return idx

    sources = {k: tuple(v) for k, v in doorways.items()}
    walk_sources: dict[DoorwayKey, list[Cell]] = {}
    for key, cells in doorways.items():
        walk = [c for c in cells if room_walkable(c[1], c[2])]
        walk_sources[key] = walk
        merged: set[tuple[int, int]] = set()
        for c in walk:
            merged |= comp_cells[component_of(c[1], c[2])]
        regions[key] = frozenset((room.floor, x, y) for x, y in merged)

    blocked = []
    for key in sorted(doorways):
        if not walk_sources[key]:
            blocked.append(key)
            continue
        region = regions[key]
        for other in doorways:
            if other == key:
                continue
            if not any(c in region for c in sources[other]):
                blocked.append(key)
                break
    return FloodResult(sources=sources, regions=regions, blocked=blocked)


def _spiral_offsets(radius: int) -> list[tuple[int, int]]:
    offs = [
        (dx, dy)
        for dx in range(-radius, radius + 1)
        for dy in range(-radius, radius + 1)
        if (dx, dy) != (0, 0)
    ]
    offs.sort(key=lambda o: (o[0] * o[0] + o[1] * o[1], o[0], o[1]))
    return offs


def _pose_clear(
    pose: Pose,
    fac_id: str,
    level: Level,
    room: RoomInstance,
) -> bool:
    fp = pose.footprint()
    for other in level.facilities:
        if other.room_id != room.id or other.id == fac_id:
            continue
        if penetration_depth(fp, other.pose.footprint()) > 0:
            return False
    for mech in level.mechanics:
        if mech.room_id == room.id and penetration_depth(fp, mech.pose.footprint()) > 0:
            return False
    for obstacle in level.stair_obstacles(room.id):
        if penetration_depth(fp, obstacle.footprint()) > 0:
            return False
    return True


def _relocation_poses(fac: FacilityInstance, room: RoomInstance) -> Iterable[Pose]:
    """Nearby candidate poses in spiral order, nearest first, same yaw;
    none when the facility does not fit the room at that yaw."""
    radius = int(math.ceil(max(room.dims.width, room.dims.length)))
    for dx, dy in _spiral_offsets(radius):
        pose = clamp_into_room(fac.pose, fac.pose.x + dx, fac.pose.y + dy, room.dims)
        if pose is None:
            return
        if pose.x != fac.pose.x or pose.y != fac.pose.y:
            yield pose


def geometric_repair(level: Level, grid: NavGrid) -> tuple[Level, RepairReport]:
    """Phase one: resolve doorway blockages by minimally repositioning
    adaptable facilities; residual blockages are left to the agent phase."""
    moves = 0
    for room in sorted(level.rooms, key=lambda r: r.id):
        stuck: set[DoorwayKey] = set()
        while True:
            result = flood_fill_room(level, grid, room)
            pending = [k for k in result.blocked if k not in stuck]
            if not pending:
                break
            key = pending[0]
            if _unblock_doorway(level, grid, room, key, result):
                moves += 1
            else:
                stuck.add(key)
    return level, RepairReport(phase1_moves=moves)


def _blocking_facilities(
    level: Level, grid: NavGrid, room: RoomInstance, key: DoorwayKey, result: FloodResult
) -> list[FacilityInstance]:
    """Adaptable facilities on the doorway cells or hugging its region."""
    cells: set[Cell] = set()
    for c in result.sources[key]:
        if grid.state[c[0]][c[1], c[2]] == FACILITY:
            cells.add(c)
    for f, x, y in result.regions[key]:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if (
                0 <= nx < grid.width
                and 0 <= ny < grid.length
                and grid.room_of[f][nx, ny] == room.id
                and grid.state[f][nx, ny] == FACILITY
            ):
                cells.add((f, nx, ny))
    return _adaptable_occupants(level, grid, cells)


def _unblock_doorway(
    level: Level, grid: NavGrid, room: RoomInstance, key: DoorwayKey, result: FloodResult
) -> bool:
    before = set(result.blocked)
    for fac in _blocking_facilities(level, grid, room, key, result):
        original = fac.pose
        occupied = set(_facility_cells(grid, level, fac))
        # the subset of doorway-relevant cells this facility must vacate
        critical = {
            c
            for c in occupied
            if c in result.sources[key]
            or any(
                (c[0], c[1] + dx, c[2] + dy) in result.regions[key]
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            )
        }
        attempts = 0
        for pose in _relocation_poses(fac, room):
            if not critical.isdisjoint(_pose_cells(grid, room, pose)):
                continue  # still covering the blockage
            if not _pose_clear(pose, fac.id, level, room):
                continue
            attempts += 1
            if attempts > 64:
                break
            _move_facility(grid, level, fac, pose)
            after = set(flood_fill_room(level, grid, room).blocked)
            if key not in after and after <= before:
                return True
            _move_facility(grid, level, fac, original)
    return False


# -- pathfinding ---------------------------------------------------------------

def _neighbors(grid: NavGrid, cell: Cell):
    f, x, y = cell
    state = grid.state[f]
    if x + 1 < grid.width and state[x + 1, y] in _WALKABLE:
        yield (f, x + 1, y)
    if x - 1 >= 0 and state[x - 1, y] in _WALKABLE:
        yield (f, x - 1, y)
    if y + 1 < grid.length and state[x, y + 1] in _WALKABLE:
        yield (f, x, y + 1)
    if y - 1 >= 0 and state[x, y - 1] in _WALKABLE:
        yield (f, x, y - 1)
    if f < grid.floors - 1 and (x, y) in grid.stair_cells[f]:
        yield (f + 1, x, y)
    if f > 0 and (x, y) in grid.stair_cells[f - 1]:
        yield (f - 1, x, y)


def astar_path(grid: NavGrid, start: Cell, goal: Cell) -> list[Cell] | None:
    """Optimal 4-connected path by cell count, Manhattan heuristic."""
    if start == goal:
        return [start]

    def h(c: Cell) -> int:
        return abs(c[1] - goal[1]) + abs(c[2] - goal[2]) + abs(c[0] - goal[0])

    counter = 0
    open_heap: list[tuple[int, int, Cell]] = [(h(start), counter, start)]
    g_score = {start: 0}
    came: dict[Cell, Cell] = {}
    closed: set[Cell] = set()
    while open_heap:
        _, _, cell = heappop(open_heap)
        if cell == goal:
            path = [cell]
            while cell in came:
                cell = came[cell]
                path.append(cell)
            path.reverse()
            return path
        if cell in closed:
            continue
        closed.add(cell)
        g_next = g_score[cell] + 1
        for nxt in _neighbors(grid, cell):
            if g_next < g_score.get(nxt, 1 << 30):
                g_score[nxt] = g_next
                came[nxt] = cell
                counter += 1
                heappush(open_heap, (g_next + h(nxt), counter, nxt))
    return None


def iter_step_times(path: Sequence[Cell], agent: AgentParams, floor_height: float = 1.0):
    """Cumulative simulated time after each path step."""
    t = 0.0
    prev_dir: tuple[int, int] | None = None
    for a, b in zip(path, path[1:]):
        if a[0] != b[0]:
            t += floor_height / agent.speed
        else:
            direction = (b[1] - a[1], b[2] - a[2])
            if prev_dir is not None and direction != prev_dir:
                dot = direction[0] * prev_dir[0] + direction[1] * prev_dir[1]
                angle = 180.0 if dot < 0 else 90.0
                t += angle / agent.angular_speed
            prev_dir = direction
            t += 1.0 / agent.speed
        yield t


def traversal_time(
    path: Sequence[Cell], agent: AgentParams, floor_height: float = 1.0
) -> float:
    """Simulated seconds to walk a path: distance over speed plus turn time."""
    t = 0.0
    for t in iter_step_times(path, agent, floor_height):
        pass
    return t


def target_cell(
    grid: NavGrid,
    room: RoomInstance,
    point: tuple[float, float] | None = None,
    reachable: set[Cell] | dict | None = None,
) -> Cell | None:
    """Walkable cell of a room nearest to a plan point (default its center).

    Ties go to the lowest (x, y). With `reachable` given, cells outside
    that set are skipped; used to collect keys from the nearest open spot
    when furniture pockets part of a room.
    """
    px, py = point if point is not None else room.center()
    state = grid.state[room.floor]
    mask = (grid.room_of[room.floor] == room.id) & np.isin(state, _WALKABLE)
    xs, ys = np.nonzero(mask)
    d = (xs + 0.5 - px) ** 2 + (ys + 0.5 - py) ** 2
    for i in np.lexsort((ys, xs, d)):  # by d, then x, then y
        cell = (room.floor, int(xs[i]), int(ys[i]))
        if reachable is None or cell in reachable:
            return cell
    return None


# -- phase-2 agent repair --------------------------------------------------------

def agent_repair(
    level: Level, agent: AgentParams, grid: NavGrid
) -> tuple[Level, RepairReport]:
    """Phase two: walk rooms in topological order, repositioning then
    removing adaptable blockers until the whole order connects.

    Sweeps repeat until one passes with no repair action, so a late move
    can never silently break an earlier segment. Simulated time (walking
    plus a timeout per failed attempt) accumulates; exceeding the budget
    marks the level unrepairable.
    """
    report = RepairReport()
    rooms = sorted(level.rooms, key=lambda r: r.tau)
    repositioned: set[str] = set()
    time = 0.0

    def fail(msg_time: float) -> tuple[Level, RepairReport]:
        report.repair_time = msg_time
        report.status = "unrepairable"
        return level, report

    while True:
        actions = 0
        pos = target_cell(grid, rooms[0])
        while pos is None:
            time += agent.room_timeout
            if time > agent.total_budget:
                return fail(time)
            if _repair_action(level, grid, None, rooms[0], repositioned, report):
                actions += 1
            pos = target_cell(grid, rooms[0])

        for room in rooms[1:]:
            while True:
                tgt = target_cell(grid, room)
                path = astar_path(grid, pos, tgt) if tgt is not None else None
                if path is not None:
                    time += traversal_time(path, agent, grid.floor_height)
                    if time > agent.total_budget:
                        return fail(time)
                    pos = tgt
                    break
                time += agent.room_timeout
                if time > agent.total_budget:
                    return fail(time)
                if _repair_action(level, grid, pos, room, repositioned, report):
                    actions += 1
        if actions == 0:
            break

    report.repair_time = time
    report.status = "repaired"
    return level, report


def _repair_action(
    level: Level,
    grid: NavGrid,
    pos: Cell | None,
    target_room: RoomInstance,
    repositioned: set[str],
    report: RepairReport,
) -> bool:
    """Reposition (first time) or remove (second time) the adaptable
    facility blocking the frontier nearest the failed path's end."""

    if pos is None:
        # start room fully covered: attack any adaptable facility inside it
        frontier: list[tuple[int, Cell]] = [
            (0, c)
            for c in sorted(grid.occupants)
            if grid.room_of[c[0]][c[1], c[2]] == target_room.id
        ]
    else:
        reach = bfs(pos, lambda c: _neighbors(grid, c))
        tx, ty = target_room.center()
        tf = target_room.floor
        end = min(
            reach,
            key=lambda c: (
                abs(c[0] - tf) * (grid.width + grid.length)
                + abs(c[1] + 0.5 - tx)
                + abs(c[2] + 0.5 - ty),
                reach[c],
                c,
            ),
        )
        seen: set[Cell] = set()
        frontier = []
        for f, x, y in reach:
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                cell = (f, nx, ny)
                if (
                    0 <= nx < grid.width
                    and 0 <= ny < grid.length
                    and cell not in seen
                    and grid.state[f][nx, ny] == FACILITY
                ):
                    seen.add(cell)
                    d = (
                        abs(f - end[0]) * (grid.width + grid.length)
                        + abs(nx - end[1])
                        + abs(ny - end[2])
                    )
                    frontier.append((d, cell))
        frontier.sort(key=lambda item: (item[0], item[1]))

    for _, cell in frontier:
        movable = _adaptable_occupants(level, grid, (cell,))
        if not movable:
            continue
        fac = movable[0]
        room = level.room_by_id(fac.room_id)
        if fac.id not in repositioned:
            for pose in _relocation_poses(fac, room):
                if not _pose_clear(pose, fac.id, level, room):
                    continue
                if any(
                    grid.base[f][x, y] in (DOOR, STAIR)
                    for f, x, y in _pose_cells(grid, room, pose)
                ):
                    continue
                _move_facility(grid, level, fac, pose)
                repositioned.add(fac.id)
                report.phase2_moves += 1
                return True
        _clear_facility(grid, level, fac)
        level.facilities.remove(fac)
        report.facilities_removed += 1
        return True
    return False


# -- rerun validation and objective simulation ------------------------------------

def _dilate(grid: NavGrid, cell: Cell, out: set[Cell]) -> None:
    """Add the 3x3 block around `cell`: the agent's collision radius is one
    cell, so a step explores the cells it sweeps, not only the one it visits."""
    f, x, y = cell
    for dx in (-1, 0, 1):
        nx = x + dx
        if not 0 <= nx < grid.width:
            continue
        for dy in (-1, 0, 1):
            ny = y + dy
            if 0 <= ny < grid.length:
                out.add((f, nx, ny))


def _walk_targets(
    grid: NavGrid,
    agent: AgentParams,
    start: Cell,
    targets: Sequence[tuple[str, Cell | None]],
    error_cls,
    trace: list | None = None,
) -> tuple[float, int]:
    pos = start
    cells: set[Cell] = set()
    _dilate(grid, pos, cells)
    total = 0.0
    for label, tgt in targets:
        if tgt is None:
            raise error_cls(f"no walkable cell for {label}")
        path = astar_path(grid, pos, tgt)
        if path is None:
            raise error_cls(f"no path to {label}")
        seg = traversal_time(path, agent, grid.floor_height)
        if trace is not None:
            for cell, t in zip(path[1:], iter_step_times(path, agent, grid.floor_height)):
                trace.append(
                    {"floor": cell[0], "x": cell[1], "y": cell[2], "t": total + t}
                )
        total += seg
        for cell in path:
            _dilate(grid, cell, cells)
        pos = tgt
    return total, len(cells)


def rerun_validation(
    level: Level, agent: AgentParams, grid: NavGrid, trace: list | None = None
) -> RerunResult:
    """Retraverse every room in topological order; any failure is a repair
    contract violation, not a level property."""
    rooms = sorted(level.rooms, key=lambda r: r.tau)
    start = target_cell(grid, rooms[0])
    if start is None:
        raise UnreachableRoom(f"no walkable cell in room {rooms[0].id}")
    targets = [(f"room {r.id}", target_cell(grid, r)) for r in rooms[1:]]
    time, cells = _walk_targets(grid, agent, start, targets, UnreachableRoom, trace)
    return RerunResult(
        rerun_time=time, grid_cells=cells, abnormal=time > agent.total_budget
    )


def simulate_objectives(
    level: Level,
    keys: Sequence[MechanicPlacement],
    agent: AgentParams,
    grid: NavGrid,
    trace: list | None = None,
) -> SimResult:
    """Collect keys in ascending room order, then head to the level end."""
    rooms = sorted(level.rooms, key=lambda r: r.tau)
    start = target_cell(grid, rooms[0])
    if start is None:
        raise UnreachableKey(f"no walkable cell in room {rooms[0].id}")

    # keys are collected from the nearest open spot the agent can reach;
    # furniture may pocket interior cells of an otherwise connected room
    reach = bfs(start, lambda c: _neighbors(grid, c))
    ordered = sorted(keys, key=lambda k: (level.room_by_id(k.room_id).tau, k.id))
    targets: list[tuple[str, Cell | None]] = []
    for key in ordered:
        room = level.room_by_id(key.room_id)
        gx, gy, _ = level.global_pose_center(key.room_id, key.pose)
        targets.append((f"key {key.id}", target_cell(grid, room, (gx, gy), reach)))
    end_room = rooms[-1]
    targets.append((f"room {end_room.id}", target_cell(grid, end_room)))

    time, cells = _walk_targets(grid, agent, start, targets, UnreachableKey, trace)
    return SimResult(simulation_time=time, sim_grid_cells=cells)
