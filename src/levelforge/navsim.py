"""Navigation grid, two-phase navigability repair and agent simulation.

The level discretizes into unit cells per floor. Phase one fixes doorway
blockages room by room with flood fill (`geometry.bfs` over the room's
walkable cells) and minimal repositioning of adaptable facilities. It lifts
each blocker and floods once before trying its poses, and skips it when
even its absence leaves the doorway blocked; the skip is exact because
any pose only covers cells of the lifted grid, and covering cells never
unblocks a doorway. Phase two walks the rooms in topological order with
an A* agent, repositioning and then removing blockers until every
consecutive pair connects or the simulated-time budget runs out. Both
phases take their blockers from one in-bounds neighbour scan (`_around`)
and their new poses from one relocation search (`_relocations`). The
same agent then drives rerun validation and the objective
(key-collection) simulation that produce the pacing metrics, through one
walking loop (`_walk_targets`). A* keeps its open cells on two
first-in first-out lists, one per value of f, which expand cells in the
order a heap keyed by (f, push order) would, and its g-scores and parents
in two arrays by flat index that the grid allocates on its first search;
each search resets the g-scores of the cells it pushed. The simulation
collects a key from the nearest open cell of its room that the start
reaches; it searches for the nearest open cell first and computes the
start's reach only when that search fails.

Each grid fact has one store: a cell's kind without facilities is
`base`, its facilities are `occupants`, and whether it is walkable now is
`walk`, a flat byte array, one byte per cell, padded with an unwalkable
border, that searches, flood fill and `target_cell` read. The grid builds
`walk` and its stair links by flat index once, when it is made; after
that only `_mark_facility` and `_clear_facility` write `walk`. A room's
cells are its footprint's cell span (`_room_span`), which no other room's
on the floor overlaps. The A* scratch (`g_scratch`, `came_scratch`) is
search state, not a cell fact, and holds nothing between searches: every
g-score is back at `_UNSEEN`, and a search reads a parent only where it
set one.

All times are simulated seconds derived from path geometry and the agent
constants; wall-clock never enters the metrics.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import UnreachableKey, UnreachableRoom
from .geometry import Pose, bfs, clamp_into_room, penetration_depth
from .level import FacilityInstance, Level, MechanicPlacement, RoomInstance

FREE = 0
WALL = 1
DOOR = 3
STAIR = 4

_WALKABLE = (FREE, DOOR, STAIR)
_UNSEEN = 1 << 30  # g of a cell no search has reached

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
    """The level's cells, per floor. `walk` is one byte per cell in one flat
    array, padded with a one-cell unwalkable border so that the four planar
    neighbours of an in-bounds cell are its index plus or minus `row` and 1.
    `stairs` maps a stair cell to the cells it links, up before down. Both
    are built from `base` and `stair_cells` when the grid is made; facilities
    enter through `_mark_facility`."""

    width: int
    length: int
    floors: int
    floor_height: float
    base: list[np.ndarray]
    occupants: dict[Cell, list[str]] = field(default_factory=dict, init=False)
    stair_cells: list[set[tuple[int, int]]] = field(default_factory=list)
    # room id -> doorway source cells on that room's side, keyed by room pair
    doorways: dict[int, dict[DoorwayKey, list[Cell]]] = field(default_factory=dict)
    walk: bytearray = field(init=False, repr=False)
    row: int = field(init=False)  # index step of x: length + 2
    plane: int = field(init=False)  # index step of floor: (width + 2) * (length + 2)
    stairs: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    # `astar_path`'s search state by flat index, made on the grid's first
    # search: g-scores, `_UNSEEN` between searches, and parents
    g_scratch: list[int] | None = field(default=None, init=False, repr=False, compare=False)
    came_scratch: array | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.row = self.length + 2
        self.plane = (self.width + 2) * self.row
        padded = np.zeros((self.floors, self.width + 2, self.row), dtype=np.uint8)
        for f, kinds in enumerate(self.base):
            padded[f, 1:-1, 1:-1] = np.isin(kinds, _WALKABLE)
        self.walk = bytearray(padded.tobytes())
        self.stairs = {}
        # floors ascend: a cell's down link (as an upper end) is in before its
        # up link (as a lower end) is put in front of it
        for f, cells in enumerate(self.stair_cells[: self.floors - 1]):
            for x, y in cells:
                n = self.index((f, x, y))
                self.stairs[n] = (n + self.plane,) + self.stairs.get(n, ())
                self.stairs[n + self.plane] = (n,)

    def index(self, cell: Cell) -> int:
        f, x, y = cell
        return f * self.plane + (x + 1) * self.row + y + 1

    def cell(self, n: int) -> Cell:
        f, r = divmod(n, self.plane)
        x, y = divmod(r, self.row)
        return (f, x - 1, y - 1)


def _cell_span(lo: float, hi: float, limit: int) -> range:
    """Cells whose centers fall in [lo, hi), clipped to [0, limit)."""
    start = max(0, math.ceil(lo - 0.5))
    stop = min(limit, math.ceil(hi - 0.5))
    return range(start, max(start, stop))


def _room_span(room: RoomInstance, width: int, length: int) -> tuple[range, range]:
    """The room's cells on its floor: the cell spans of its footprint."""
    x0, y0, x1, y1 = room.footprint()
    return _cell_span(x0, x1, width), _cell_span(y0, y1, length)


def _walkable_cells(grid: NavGrid, room: RoomInstance) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the room's walkable cells, read from `walk`."""
    xs, ys = _room_span(room, grid.width, grid.length)
    walk = np.frombuffer(grid.walk, dtype=np.uint8).reshape(grid.floors, -1, grid.row)
    ix, iy = np.nonzero(walk[room.floor, xs.start + 1 : xs.stop + 1, ys.start + 1 : ys.stop + 1])
    return ix + xs.start, iy + ys.start


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
            grid.walk[grid.index(cell)] = 0


def _clear_facility(grid: NavGrid, level: Level, fac: FacilityInstance) -> None:
    """Unmark a facility's cells; must run before its pose changes."""
    for cell in _facility_cells(grid, level, fac):
        occ = grid.occupants.get(cell)
        if occ and fac.id in occ:
            occ.remove(fac.id)
            if not occ:
                del grid.occupants[cell]
                f, x, y = cell
                grid.walk[grid.index(cell)] = grid.base[f][x, y] in _WALKABLE


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


def _add_doorway(base: list, doorways: dict, spans: dict, link, pairs: list) -> None:
    """Punch a door or open edge through the wall and record, for each of
    its two rooms, the cell of every pair inside that room's `spans`."""
    key = (min(link.room_a, link.room_b), max(link.room_a, link.room_b))
    for ca, cb in pairs:
        base[ca[0]][ca[1], ca[2]] = DOOR
        base[cb[0]][cb[1], cb[2]] = DOOR
    for rid in (link.room_a, link.room_b):
        xs, ys = spans[rid]
        doorways.setdefault(rid, {})[key] = [
            ca if ca[1] in xs and ca[2] in ys else cb for ca, cb in pairs
        ]


def build_nav_grid(level: Level) -> NavGrid:
    """Rasterize the level: walls on room perimeters, doors and open edges
    punched through, facility footprints blocked, stairwells linking floors."""
    width, length, floors = level.config.grid_shape()
    base = [np.full((width, length), WALL, dtype=np.uint8) for _ in range(floors)]
    stair_cells: list[set[tuple[int, int]]] = [set() for _ in range(max(0, floors - 1))]
    doorways: dict[int, dict[DoorwayKey, list[Cell]]] = {}

    spans = {room.id: _room_span(room, width, length) for room in level.rooms}
    for room in level.rooms:
        xs, ys = spans[room.id]
        # perimeter ring stays wall; interior is walkable
        if len(xs) > 2 and len(ys) > 2:
            base[room.floor][xs.start + 1 : xs.stop - 1, ys.start + 1 : ys.stop - 1] = FREE

    for door in level.doors:
        _add_doorway(base, doorways, spans, door, [_door_cells(level, door)])
    for edge in level.adjacency:
        if edge.kind == "open":
            _add_doorway(base, doorways, spans, edge, _open_edge_cells(level, edge))

    for stair in level.stairs:
        lower = level.room_by_id(stair.room_id)
        hx, hy = stair.dims.width / 2.0, stair.dims.length / 2.0
        xs = _cell_span(stair.x - hx, stair.x + hx, width)
        ys = _cell_span(stair.y - hy, stair.y + hy, length)
        for ix in xs:
            for iy in ys:
                base[lower.floor][ix, iy] = STAIR
                if lower.floor + 1 < floors:
                    base[lower.floor + 1][ix, iy] = STAIR
                    stair_cells[lower.floor].add((ix, iy))

    grid = NavGrid(
        width, length, floors, level.config.floor_height, base,
        stair_cells=stair_cells, doorways=doorways,
    )
    for fac in level.facilities:
        _mark_facility(grid, level, fac)
    return grid


# -- flood fill and phase-1 repair --------------------------------------------

@dataclass
class FloodResult:
    regions: dict[DoorwayKey, frozenset[Cell]]
    blocked: list[DoorwayKey]


def _around(grid: NavGrid, cells: Iterable[Cell]) -> Iterator[Cell]:
    """In-bounds 4-neighbours of each cell on its own floor, repeats included."""
    for f, x, y in cells:
        if x + 1 < grid.width:
            yield (f, x + 1, y)
        if x > 0:
            yield (f, x - 1, y)
        if y + 1 < grid.length:
            yield (f, x, y + 1)
        if y > 0:
            yield (f, x, y - 1)


def flood_fill_room(level: Level, grid: NavGrid, room: RoomInstance) -> FloodResult:
    """4-connected flood from each doorway, limited to the room's cells.

    A doorway counts as blocked when its own cells are all covered or when
    its region fails to reach some other doorway of the room.
    """
    doorways = grid.doorways.get(room.id, {})
    row = grid.row
    xs, ys = _walkable_cells(grid, room)
    flat = room.floor * grid.plane + (xs + 1) * row + ys + 1
    open_cells = dict(zip(flat.tolist(), zip(repeat(room.floor), xs.tolist(), ys.tolist())))

    def steps(n: int) -> list[int]:
        return [m for m in (n + row, n - row, n + 1, n - 1) if m in open_cells]

    component: dict[int, frozenset[Cell]] = {}
    regions: dict[DoorwayKey, frozenset[Cell]] = {}
    for key, cells in doorways.items():
        starts = [n for n in map(grid.index, cells) if n in open_cells]
        for n in starts:
            if n not in component:
                reach = bfs(n, steps)
                component.update(dict.fromkeys(reach, frozenset(map(open_cells.get, reach))))
        regions[key] = frozenset().union(*(component[n] for n in starts))

    blocked = [
        key
        for key in sorted(doorways)
        if not regions[key]
        or any(o != key and regions[key].isdisjoint(doorways[o]) for o in doorways)
    ]
    return FloodResult(regions=regions, blocked=blocked)


def _relocations(
    level: Level,
    grid: NavGrid,
    fac: FacilityInstance,
    room: RoomInstance,
    cells_ok: Callable[[list[Cell]], bool],
) -> Iterator[Pose]:
    """Poses of `fac` around its own in spiral order, nearest first, same
    yaw, whose cells pass `cells_ok` and whose footprint overlaps no other
    facility, mechanic or stair obstacle of the room; none when the
    facility does not fit the room at that yaw."""
    home = fac.pose
    taken = [
        o.pose.footprint() for o in level.facilities if o.room_id == room.id and o.id != fac.id
    ]
    taken += [m.pose.footprint() for m in level.mechanics if m.room_id == room.id]
    taken += [o.footprint() for o in level.stair_obstacles(room.id)]
    radius = int(math.ceil(max(room.dims.width, room.dims.length)))
    span = range(-radius, radius + 1)
    offsets = sorted(
        ((dx, dy) for dx in span for dy in span if dx or dy),
        key=lambda o: (o[0] * o[0] + o[1] * o[1], o),
    )
    for dx, dy in offsets:
        pose = clamp_into_room(home, home.x + dx, home.y + dy, room.dims)
        if pose is None:
            return
        if (pose.x, pose.y) == (home.x, home.y) or not cells_ok(_pose_cells(grid, room, pose)):
            continue
        fp = pose.footprint()
        if not any(penetration_depth(fp, other) > 0 for other in taken):
            yield pose


def geometric_repair(level: Level, grid: NavGrid) -> int:
    """Phase one: resolve doorway blockages by minimally repositioning
    adaptable facilities; residual blockages are left to the agent phase.
    Returns the number of moves."""
    moves = 0
    for room in sorted(level.rooms, key=lambda r: r.id):
        stuck: set[DoorwayKey] = set()
        while True:
            result = flood_fill_room(level, grid, room)
            pending = [k for k in result.blocked if k not in stuck]
            if not pending:
                break
            if _unblock_doorway(level, grid, room, pending[0], result):
                moves += 1
            else:
                stuck.add(pending[0])
    return moves


def _unblock_doorway(
    level: Level, grid: NavGrid, room: RoomInstance, key: DoorwayKey, result: FloodResult
) -> bool:
    """Move one adaptable facility on the doorway's cells or hugging its
    region off those cells, to the first of at most 64 clear poses that
    frees the doorway without blocking another. A facility whose lifting
    alone leaves the doorway blocked, or blocks another, is skipped
    untried: every pose only adds cells to the lifted grid, and regions
    only shrink as cells are added, so no pose of it could pass."""
    sources = set(grid.doorways[room.id][key])
    hugging = set(_around(grid, result.regions[key]))
    xs, ys = _room_span(room, grid.width, grid.length)
    blockers = sources.union(c for c in hugging if c[1] in xs and c[2] in ys)
    doorway = sources | hugging
    before = set(result.blocked)
    for fac in _adaptable_occupants(level, grid, blockers):
        _clear_facility(grid, level, fac)
        lifted = set(flood_fill_room(level, grid, room).blocked)
        _mark_facility(grid, level, fac)
        if key in lifted or not lifted <= before:
            continue
        home = fac.pose
        # the cells on the doorway or beside its region that it must vacate
        critical = doorway.intersection(_facility_cells(grid, level, fac))
        for pose in islice(_relocations(level, grid, fac, room, critical.isdisjoint), 64):
            _move_facility(grid, level, fac, pose)
            after = set(flood_fill_room(level, grid, room).blocked)
            if key not in after and after <= before:
                return True
            _move_facility(grid, level, fac, home)
    return False


# -- pathfinding ---------------------------------------------------------------

def astar_path(grid: NavGrid, start: Cell, goal: Cell) -> list[Cell] | None:
    """Optimal 4-connected path by cell count, Manhattan heuristic.

    Neighbours go in the order +x, -x, +y, -y, up, down; a stair link is
    followed without a walkability check on the linked cell. Cells are
    expanded in the order of a heap keyed by (f = g + h, push order), kept
    on two first-in first-out lists instead: every step costs 1 and moves
    h by exactly 1 (a stair link changes the floor by one), so a pushed
    cell's f is the expanded cell's f, when it steps toward the goal, or
    that f + 2. Toward-steps join the list being expanded, away-steps the
    next one, and each list holds one f in push order. A cell expanded a
    second time (from a stale, higher-g push) has its settled g, so it
    improves no neighbour and pushes nothing.

    g-scores and parents live in the grid's search scratch, two arrays by
    padded flat index made on its first search: 12 bytes per padded cell,
    about 97 KB at paper scale (3 x 52 x 52) and about 120 MB at
    `arrangement.MAX_GRID_CELLS` (10**7 cells). Every g a search sets
    belongs to a cell it pushed, and every pushed cell sits in one of its
    lists, so the search puts those back to `_UNSEEN` when it ends, also
    when it raises. Parents are not reset: a search reads a parent only at
    a cell whose g it set."""
    if start == goal:
        return [start]
    walk, row, plane, stairs = grid.walk, grid.row, grid.plane, grid.stairs
    if grid.g_scratch is None:
        grid.g_scratch = [_UNSEEN] * len(walk)
        grid.came_scratch = array("i", bytes(4 * len(walk)))
    g_score, came = grid.g_scratch, grid.came_scratch
    # the goal's padded x and y and floor, as bounds on `n % plane`, `n % row`
    # and `n`: x < gx exactly when n % plane < gx * row, as 0 <= y < row
    gf, gx, gy = goal[0], goal[1] + 1, goal[2] + 1
    x_below, x_above = gx * row, (gx + 1) * row
    f_below, f_above = gf * plane, (gf + 1) * plane
    source, target = grid.index(start), grid.index(goal)
    g_score[source] = 0
    spent: list[list[int]] = []
    level, later = [source], []
    try:
        while level:
            now, then = level.append, later.append
            for n in level:  # also visits the cells appended while it runs
                if n == target:
                    path = [n]
                    while n != source:
                        n = came[n]
                        path.append(n)
                    path.reverse()
                    # `NavGrid.cell` inlined: `plane` is a multiple of `row`
                    return [(n // plane, n % plane // row - 1, n % row - 1) for n in path]
                g_next = g_score[n] + 1
                r, y = n % plane, n % row
                # the four planar steps written out: a loop over them costs a
                # third more time per search
                m = n + row
                if walk[m] and g_next < g_score[m]:
                    g_score[m] = g_next
                    came[m] = n
                    (now if r < x_below else then)(m)
                m = n - row
                if walk[m] and g_next < g_score[m]:
                    g_score[m] = g_next
                    came[m] = n
                    (now if r >= x_above else then)(m)
                m = n + 1
                if walk[m] and g_next < g_score[m]:
                    g_score[m] = g_next
                    came[m] = n
                    (now if y < gy else then)(m)
                m = n - 1
                if walk[m] and g_next < g_score[m]:
                    g_score[m] = g_next
                    came[m] = n
                    (now if y > gy else then)(m)
                if n in stairs:
                    for m in stairs[n]:
                        if g_next < g_score[m]:
                            g_score[m] = g_next
                            came[m] = n
                            (now if (n < f_below if m > n else n >= f_above) else then)(m)
            spent.append(level)
            level, later = later, []
        return None
    finally:
        for pushed in (*spent, level, later):
            for n in pushed:
                g_score[n] = _UNSEEN


def grid_reach(grid: NavGrid, start: Cell) -> dict[Cell, int]:
    """Hop count from `start` to every cell the agent can reach, in visiting
    order: `geometry.bfs` over the neighbours `astar_path` uses."""
    walk, row, plane, stairs = grid.walk, grid.row, grid.plane, grid.stairs

    def steps(n: int) -> list[int]:
        return [m for m in (n + row, n - row, n + 1, n - 1) if walk[m]] + list(stairs.get(n, ()))

    hops = bfs(grid.index(start), steps)
    # `NavGrid.cell` inlined: `plane` is a multiple of `row`
    return {(n // plane, n % plane // row - 1, n % row - 1): d for n, d in hops.items()}


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
    xs, ys = _walkable_cells(grid, room)
    if reachable is not None:
        keep = [(room.floor, x, y) in reachable for x, y in zip(xs.tolist(), ys.tolist())]
        xs, ys = xs[keep], ys[keep]
    if not len(xs):
        return None
    # cells come in (x, y) order, so the first nearest is the lowest (x, y) tie
    i = int(np.argmin((xs + 0.5 - px) ** 2 + (ys + 0.5 - py) ** 2))
    return (room.floor, int(xs[i]), int(ys[i]))


# -- phase-2 agent repair --------------------------------------------------------

def agent_repair(level: Level, agent: AgentParams, grid: NavGrid) -> RepairReport:
    """Phase two: walk rooms in topological order, repositioning then
    removing adaptable blockers until the whole order connects.

    Sweeps repeat until one passes with no repair action, so a late move
    can never silently break an earlier segment. The start room is reached
    by a zero-length path. Simulated time (walking plus a timeout per
    failed attempt) accumulates; exceeding the budget marks the level
    unrepairable.
    """
    report = RepairReport()
    rooms = sorted(level.rooms, key=lambda r: r.tau)
    repositioned: set[str] = set()
    while True:
        actions = 0
        pos: Cell | None = None
        for room in rooms:
            while True:
                tgt = target_cell(grid, room)
                if tgt is None:
                    path = None
                elif pos is None:
                    path = [tgt]
                else:
                    path = astar_path(grid, pos, tgt)
                report.repair_time += (
                    agent.room_timeout
                    if path is None
                    else traversal_time(path, agent, grid.floor_height)
                )
                if report.repair_time > agent.total_budget:
                    report.status = "unrepairable"
                    return report
                if path is not None:
                    pos = tgt
                    break
                if _repair_action(level, grid, pos, room, repositioned, report):
                    actions += 1
        if actions == 0:
            return report


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
        xs, ys = _room_span(target_room, grid.width, grid.length)
        frontier = [
            c for c in sorted(grid.occupants)
            if c[0] == target_room.floor and c[1] in xs and c[2] in ys
        ]
    else:
        reach = grid_reach(grid, pos)
        tx, ty = target_room.center()
        tf = target_room.floor
        span = grid.width + grid.length
        end = min(
            reach,
            key=lambda c: (
                abs(c[0] - tf) * span + abs(c[1] + 0.5 - tx) + abs(c[2] + 0.5 - ty),
                reach[c],
                c,
            ),
        )
        frontier = sorted(
            {c for c in _around(grid, reach) if c in grid.occupants},
            key=lambda c: (
                abs(c[0] - end[0]) * span + abs(c[1] - end[1]) + abs(c[2] - end[2]),
                c,
            ),
        )

    def off_doors_and_stairs(cells: list[Cell]) -> bool:
        return not any(grid.base[f][x, y] in (DOOR, STAIR) for f, x, y in cells)

    for cell in frontier:
        movable = _adaptable_occupants(level, grid, (cell,))
        if not movable:
            continue
        fac = movable[0]
        if fac.id not in repositioned:
            room = level.room_by_id(fac.room_id)
            pose = next(_relocations(level, grid, fac, room, off_doors_and_stairs), None)
            if pose is not None:
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

def _swept_cells(grid: NavGrid, cells: Sequence[Cell]) -> int:
    """How many grid cells the 3x3 blocks around `cells` cover: the agent's
    collision radius is one cell, so a step explores the cells it sweeps,
    not only the one it visits. Each cell's padded flat index is widened
    by ±1 and ±`row` into a mask over the padded grid, and what lands on
    the padding ring is not counted."""
    row, plane = grid.row, grid.plane
    n = np.fromiter((f * plane + x * row + y for f, x, y in cells), np.int64, len(cells))
    block = np.add.outer((-row, 0, row), (-1, 0, 1)) + row + 1
    swept = np.zeros((grid.floors, grid.width + 2, row), dtype=bool)
    swept.reshape(-1)[np.add.outer(n, block)] = True
    return int(np.count_nonzero(swept[:, 1:-1, 1:-1]))


def _walk_targets(
    grid: NavGrid,
    agent: AgentParams,
    start: Cell,
    targets: Iterable[tuple[str, Iterable[Cell | None]]],
    error_cls,
    trace: list | None = None,
) -> tuple[float, int]:
    """Walk from `start` to each target in turn; returns the simulated time
    and the swept cell count. A target is a label and its candidate cells:
    the agent walks to the first candidate it finds a path to, and the
    walk fails at a missing cell or when no candidate is reached."""
    pos = start
    visited = [start]
    total = 0.0
    for label, candidates in targets:
        for tgt in candidates:
            if tgt is None:
                raise error_cls(f"no walkable cell for {label}")
            path = astar_path(grid, pos, tgt)
            if path is not None:
                break
        else:
            raise error_cls(f"no path to {label}")
        seg = traversal_time(path, agent, grid.floor_height)
        if trace is not None:
            for cell, t in zip(path[1:], iter_step_times(path, agent, grid.floor_height)):
                trace.append(
                    {"floor": cell[0], "x": cell[1], "y": cell[2], "t": total + t}
                )
        total += seg
        visited += path
        pos = tgt
    return total, _swept_cells(grid, visited)


def rerun_validation(
    level: Level, agent: AgentParams, grid: NavGrid, trace: list | None = None
) -> RerunResult:
    """Retraverse every room in topological order; any failure is a repair
    contract violation, not a level property."""
    rooms = sorted(level.rooms, key=lambda r: r.tau)
    start = target_cell(grid, rooms[0])
    if start is None:
        raise UnreachableRoom(f"no walkable cell in room {rooms[0].id}")
    targets = [(f"room {r.id}", [target_cell(grid, r)]) for r in rooms[1:]]
    time, cells = _walk_targets(grid, agent, start, targets, UnreachableRoom, trace)
    return RerunResult(
        rerun_time=time, grid_cells=cells, abnormal=time > agent.total_budget
    )


def simulate_objectives(
    level: Level,
    keys: Sequence[MechanicPlacement],
    agent: AgentParams,
    grid: NavGrid,
) -> SimResult:
    """Collect keys in ascending room order, then head to the level end.

    A key is collected from the nearest open cell of its room that the
    agent can reach from the start; furniture may pocket interior cells of
    an otherwise connected room. The agent first tries the nearest open
    cell: the agent's position was reached from the start, so a path from
    it puts that cell in the start's reach, and the first candidate is the
    first reachable one. Only when that search fails is the start's reach
    computed, once, and the cell picked again from it."""
    rooms = sorted(level.rooms, key=lambda r: r.tau)
    start = target_cell(grid, rooms[0])
    if start is None:
        raise UnreachableKey(f"no walkable cell in room {rooms[0].id}")
    reach: dict[Cell, int] = {}

    def key_cells(room: RoomInstance, point: tuple[float, float]) -> Iterator[Cell | None]:
        yield target_cell(grid, room, point)
        if not reach:
            reach.update(grid_reach(grid, start))
        yield target_cell(grid, room, point, reach)

    ordered = sorted(keys, key=lambda k: (level.room_by_id(k.room_id).tau, k.id))
    targets: list[tuple[str, Iterable[Cell | None]]] = []
    for key in ordered:
        gx, gy, _ = level.global_pose_center(key.room_id, key.pose)
        targets.append((f"key {key.id}", key_cells(level.room_by_id(key.room_id), (gx, gy))))
    end_room = rooms[-1]
    targets.append((f"room {end_room.id}", [target_cell(grid, end_room)]))

    time, cells = _walk_targets(grid, agent, start, targets, UnreachableKey)
    return SimResult(simulation_time=time, sim_grid_cells=cells)
