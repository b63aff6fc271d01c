"""Independent brute-force oracles shared by the unit and acceptance tests.

The layout oracle enumerates poses on a half-unit grid over four yaw steps
and recomputes the room objective from the raw formulas (bounds, pairwise
overlap, constraint rows, inverse-distance cluster sum, worst-case grid
sparsity) without touching the annealer's evaluator.

The grid-search oracles are the cell-tuple A* and reach BFS that the
flat search over `NavGrid.walk` in `navsim` replaced, kept as they were
except that they never read `walk`: a cell is open when no facility
occupies it and its `base` kind is walkable, and neighbours are read one
cell at a time, in the order +x, -x, +y, -y, up, down. The room oracles
(doorway flood fill and nearest walkable cell) scan cell by cell too; a
cell belongs to a room when its centre lies inside the room's footprint.
`cell_kinds` rebuilds the per-floor kind arrays with FACILITY on each
occupied cell, for tests that check the grid cell by cell.

The reference annealer is room layout as a full evaluation: every
candidate is scored by `_RoomEval.fill` from scratch and judged by the
plain Metropolis test, which the staged annealer must reproduce draw for
draw.

The reference penalty and perturbation are the facility-tier formulas and
the one-facility move as they were written before the layout evaluator
compiled its constraint terms and clamped on cached half extents: each
penalty re-reads its spec and scans (name, pose) pairs, and each move try
builds its poses through `clamp_into_room`. The compiled terms and
`perturb` must reproduce them bit for bit.

The per-call penalty compiles one spec's term for a single evaluation and
returns that term's own value: a `-0.0` stays `-0.0`, which the sum in
`compile_facility_penalty` (started at the int 0) would turn into `0.0`.

Two test-only helpers live here too: the facility-tier penalty sum of one
placed facility, and the parser that reads `emit_table`'s CSV back.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from heapq import heappop, heappush
from random import Random
from typing import Sequence

import numpy as np

from levelforge.constraints import (
    AXIS_FUNCTIONS,
    DEFAULT_WEIGHTS,
    DISTANCE_EPS,
    ConstraintSpec,
    WeightConfig,
    _Footprints,
    compile_facility_term,
    facility_weight,
)
from levelforge.errors import NoAdaptableFacilities, UnknownKind
from levelforge.geometry import (
    HALF_PI,
    Dimensions,
    Pose,
    angle_diff,
    bfs,
    center_distance,
    clamp_into_room,
    point_outside_box_distance,
    random_pose,
    segment_intersects_box,
)
from levelforge.harness import AggregateStats, MetricStats
from levelforge.layout import (
    ObjectiveBreakdown,
    SAParams,
    _RoomEval,
    interior_grid_points,
)
from levelforge.level import FacilityInstance, RoomInstance
from levelforge.navsim import DOOR, FACILITY, FREE, STAIR, Cell, DoorwayKey, NavGrid
from levelforge.seeding import derive_seed

GRID_STEP = 0.5
YAWS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


def enumerate_poses(dims: Dimensions, geom: Dimensions, yaw_sensitive: bool) -> list[Pose]:
    """All grid poses; yaw-equivalent duplicates collapse when no constraint
    reads the yaw (identical footprint and penalties, so the optimum is
    unchanged)."""
    poses = []
    if yaw_sensitive:
        yaws = YAWS
    elif dims.width == dims.length:
        yaws = YAWS[:1]
    else:
        yaws = YAWS[:2]
    for yaw in yaws:
        probe = Pose(0, 0, dims.height / 2.0, yaw, dims)
        hx, hy = probe.half_extents()
        if 2 * hx > geom.width or 2 * hy > geom.length:
            continue
        nx = int(round((geom.width - 2 * hx) / GRID_STEP))
        ny = int(round((geom.length - 2 * hy) / GRID_STEP))
        for ix in range(nx + 1):
            for iy in range(ny + 1):
                poses.append(
                    Pose(hx + ix * GRID_STEP, hy + iy * GRID_STEP, dims.height / 2.0, yaw, dims)
                )
    return poses


def _penetration(fp_a: np.ndarray, fp_b: np.ndarray) -> np.ndarray:
    ox = np.minimum(fp_a[..., 2], fp_b[..., 2]) - np.maximum(fp_a[..., 0], fp_b[..., 0])
    oy = np.minimum(fp_a[..., 3], fp_b[..., 3]) - np.maximum(fp_a[..., 1], fp_b[..., 1])
    depth = np.minimum(ox, oy)
    depth[(ox <= 0) | (oy <= 0)] = 0.0
    return depth


def _footprints(poses: list[Pose]) -> np.ndarray:
    return np.array([p.footprint() for p in poses])


def _centers(poses: list[Pose]) -> np.ndarray:
    return np.array([(p.x, p.y, p.z) for p in poses])


def _solo_costs(
    poses: list[Pose],
    inst: FacilityInstance,
    geom: Dimensions,
    fixed: list[FacilityInstance],
    weights: WeightConfig,
) -> np.ndarray:
    """Bounds, fixed-overlap, fixed-cluster and own-constraint costs per pose
    (the parts that do not involve the other adaptable facility)."""
    others = [(f.def_name, f.pose) for f in fixed]
    out = np.zeros(len(poses))
    fixed_fp = _footprints([f.pose for f in fixed]) if fixed else None
    fixed_c = _centers([f.pose for f in fixed]) if fixed else None
    for i, pose in enumerate(poses):
        cost = 0.0
        for spec in inst.constraints:
            cost += eval_facility_penalty(spec, pose, geom, others, weights)
        x0, y0, x1, y1 = pose.footprint()
        oob = max(0.0, -x0, -y0, x1 - geom.width, y1 - geom.length)
        cost += weights.w_bounds * oob * oob
        out[i] = cost
    out *= weights.penalty_scale
    if fixed:
        fps = _footprints(poses)
        pen = _penetration(fps[:, None, :], fixed_fp[None, :, :])
        # facility-vs-fixed collisions are felt by both parties
        out += weights.penalty_scale * 2 * weights.w_overlap * (pen**2).sum(axis=1)
        c = _centers(poses)
        d = np.sqrt(((c[:, None, :] - fixed_c[None, :, :]) ** 2).sum(-1))
        out += weights.cluster_scale * (1.0 / (d + DISTANCE_EPS)).sum(axis=1)
    return out


def oracle_layout_optimum(
    geom: Dimensions,
    adaptable: list[FacilityInstance],
    fixed: list[FacilityInstance],
    weights: WeightConfig,
) -> float:
    """Exhaustive minimum of the room objective on the pose grid."""
    grid = interior_grid_points(geom)
    fixed_centers = _centers([f.pose for f in fixed]) if fixed else None
    const = 0.0
    if fixed and len(fixed) > 1:
        for i in range(len(fixed)):
            for j in range(i + 1, len(fixed)):
                d = float(np.linalg.norm(fixed_centers[i] - fixed_centers[j]))
                const += weights.cluster_scale / (d + DISTANCE_EPS)

    def yaw_sensitive(inst: FacilityInstance) -> bool:
        return any(
            spec.kind in ("PlaceByWall", "Orientation", "Focus", "Alignment")
            for spec in inst.constraints
        )

    if len(adaptable) == 1:
        inst = adaptable[0]
        poses = enumerate_poses(inst.pose.dims, geom, yaw_sensitive(inst))
        totals = _solo_costs(poses, inst, geom, fixed, weights) + const
        if grid.size:
            c = _centers(poses)[:, :2]
            d2 = ((grid[None, :, :] - c[:, None, :]) ** 2).sum(-1)
            if fixed:
                d2f = ((grid[None, :, :] - fixed_centers[:, :2][:, None, :]) ** 2).sum(-1)
                d2 = np.minimum(d2, d2f.min(axis=0)[None, :])
            totals = totals + weights.sparsity_scale * np.sqrt(d2.max(axis=1))
        return float(totals.min())

    a, b = adaptable
    poses_a = enumerate_poses(a.pose.dims, geom, yaw_sensitive(a))
    poses_b = enumerate_poses(b.pose.dims, geom, yaw_sensitive(b))
    solo_a = _solo_costs(poses_a, a, geom, fixed, weights)
    solo_b = _solo_costs(poses_b, b, geom, fixed, weights)

    fa, fb = _footprints(poses_a), _footprints(poses_b)
    ca, cb = _centers(poses_a), _centers(poses_b)
    pen = _penetration(fa[:, None, :], fb[None, :, :])
    pair = weights.penalty_scale * 2 * weights.w_overlap * pen**2
    d = np.sqrt(((ca[:, None, :] - cb[None, :, :]) ** 2).sum(-1))
    pair += weights.cluster_scale / (d + DISTANCE_EPS)

    # cross constraints between the two adaptable facilities
    for inst, other_name in ((a, b.def_name), (b, a.def_name)):
        for spec in inst.constraints:
            if spec.params.get("target") != other_name:
                continue
            if spec.kind == "Near":
                d_min = float(spec.params.get("d_min", weights.near_d_min))
                w = spec.weight if spec.weight is not None else weights.w_near
                pair += (
                    weights.penalty_scale
                    * w
                    * np.where(d > d_min, (d_min - d) ** 2, 0.0)
                )
            elif spec.kind == "Far":
                d_max = float(spec.params.get("d_max", weights.far_d_max))
                w = spec.weight if spec.weight is not None else weights.w_far
                pair += (
                    weights.penalty_scale
                    * w
                    * np.where(d < d_max, (d - d_max) ** 2, 0.0)
                )

    if grid.size:
        d2a = ((grid[None, :, :] - ca[:, :2][:, None, :]) ** 2).sum(-1)
        d2b = ((grid[None, :, :] - cb[:, :2][:, None, :]) ** 2).sum(-1)
        if fixed:
            d2f = ((grid[None, :, :] - fixed_centers[:, :2][:, None, :]) ** 2).sum(-1)
            base = d2f.min(axis=0)[None, :]
            d2a = np.minimum(d2a, base)
        best = np.inf
        for i in range(len(poses_a)):
            joint = np.minimum(d2a[i][None, :], d2b)
            sparsity = np.sqrt(joint.max(axis=1))
            totals = solo_a[i] + solo_b + pair[i] + weights.sparsity_scale * sparsity
            m = float(totals.min())
            if m < best:
                best = m
        return best + const
    totals = solo_a[:, None] + solo_b[None, :] + pair
    return float(totals.min()) + const


def make_layout_instance(index: int):
    """Seeded small-room instance mix for the annealer-vs-oracle check."""
    rng = Random(derive_seed("layout-oracle", index))
    side = rng.choice([5.0, 6.0, 7.0, 8.0])
    geom = Dimensions(side, side, 3.0)
    weights = WeightConfig()

    def inst(name, idx, dims, constraints=()):
        return FacilityInstance(
            id=f"{name}{idx}",
            def_name=name,
            room_id=1,
            pose=Pose(side / 2, side / 2, dims.height / 2.0, 0.0, dims),
            fixed=False,
            constraints=tuple(constraints),
        )

    kind = index % 5
    if kind == 0:
        adaptable = [inst("solo", 0, Dimensions(1.0, 1.0, 1.0))]
    elif kind == 1:
        bx = rng.uniform(1.0, side - 2.5)
        by = rng.uniform(1.0, side - 2.5)
        spec = ConstraintSpec(
            "PlaceInRange",
            {"p1": [bx, by, 0.0], "p2": [bx + 1.5, by + 1.5, 3.0]},
        )
        adaptable = [inst("ranged", 0, Dimensions(1.0, 1.0, 1.0), [spec])]
    elif kind == 2:
        spec = ConstraintSpec("PlaceByWall", {"orientation": rng.choice(YAWS)})
        adaptable = [inst("waller", 0, Dimensions(1.0, 2.0, 1.0), [spec])]
    elif kind == 3:
        far = ConstraintSpec("Far", {"target": "mate", "d_max": float(side)})
        adaptable = [
            inst("mate", 0, Dimensions(1.0, 1.0, 1.0), [far]),
            inst("mate", 1, Dimensions(1.0, 1.0, 1.0), [far]),
        ]
    else:
        near = ConstraintSpec("Near", {"target": "buddy", "d_min": 2.0})
        adaptable = [
            inst("buddy", 0, Dimensions(1.0, 1.0, 1.0), [near]),
            inst("buddy", 1, Dimensions(1.0, 2.0, 1.0), []),
        ]
    return geom, adaptable, [], weights


def reference_room_layout(
    room: RoomInstance,
    facilities: Sequence[FacilityInstance],
    weights: WeightConfig,
    sa: SAParams,
    rng: Random,
    obstacles: Sequence[Pose] = (),
    trace: list | None = None,
) -> tuple[list[Pose], ObjectiveBreakdown]:
    """`optimize_room_layout` with every candidate scored from scratch: the
    best poses seen and their breakdown, drawing from `rng` in the same
    order (initial poses, then per move the perturbation and, for an uphill
    move at a temperature > 0, one uniform variate)."""
    dims = room.dims
    ev = _RoomEval(dims, facilities, weights, obstacles)
    movable = [i for i, f in enumerate(facilities) if not f.fixed]
    sigma = sa.step_frac * math.hypot(dims.width, dims.length)
    best_poses, best = None, None
    for _ in range(max(1, sa.restarts)):
        poses = [f.pose if f.fixed else random_pose(f.pose.dims, dims, rng) for f in facilities]
        cur = ev.fill(poses).breakdown
        if best is None or cur.total < best.total:
            best_poses, best = poses, cur
        if not movable:
            continue
        temperature = sa.initial_temperature
        for it in range(sa.iterations):
            k, pose = reference_perturb(dims, movable, poses, rng, sigma, sa.translate_prob)
            cand_poses = list(poses)
            cand_poses[k] = pose
            cand = ev.fill(cand_poses).breakdown
            delta = cand.total - cur.total
            if delta <= 0 or (
                temperature > 0 and rng.random() < math.exp(-delta / temperature)
            ):
                poses, cur = cand_poses, cand
            if cur.total < best.total:
                best_poses, best = poses, cur
            if trace is not None:
                trace.append((it, temperature, cur.total, best.total))
            temperature *= sa.cooling_rate
    return best_poses, best


def _reference_nearest(
    subject: Pose, name: str, others: Sequence[tuple[str, Pose]]
) -> tuple[Pose | None, float]:
    target, best = None, math.inf
    for n, pose in others:
        if n == name:
            d = center_distance(subject, pose)
            if target is None or d < best:
                target, best = pose, d
    return target, best


def reference_facility_penalty(
    spec: ConstraintSpec,
    subject: Pose,
    room: Dimensions,
    others: Sequence[tuple[str, Pose]] = (),
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> float:
    """One facility-tier penalty from the raw formulas; `others` holds the
    room's other facilities as (definition name, pose) pairs."""
    kind = spec.kind
    w = facility_weight(spec, weights)

    if kind == "AxisFunction":
        fn = AXIS_FUNCTIONS.get(spec.params.get("function"))
        if fn is None:
            raise UnknownKind(f"unknown axis function {spec.params.get('function')!r}")
        dev = fn(subject.x, subject.y, subject.z, room.width, room.length, subject.dims.height)
        return w * dev * dev

    if kind == "PlaceInRange":
        lo = tuple(float(v) for v in spec.params["p1"])
        hi = tuple(float(v) for v in spec.params["p2"])
        d = point_outside_box_distance((subject.x, subject.y, subject.z), lo, hi)
        return w * d * d

    if kind == "PlaceByWall":
        x0, y0, x1, y1 = subject.footprint()
        wall_dist = max(0.0, min(x0, y0, room.width - x1, room.length - y1))
        ang = 0.0
        if "orientation" in spec.params:
            ang = angle_diff(subject.yaw, float(spec.params["orientation"]))
        e = wall_dist + ang
        return w * e * e

    if kind in ("Near", "Far"):
        target, d12 = _reference_nearest(subject, spec.params["target"], others)
        if target is None:
            return 0.0
        if kind == "Near":
            d_min = float(spec.params.get("d_min", weights.near_d_min))
            if d12 > d_min:
                return w * (d_min - d12) ** 2
            return 0.0
        d_max = float(spec.params.get("d_max", weights.far_d_max))
        if d12 < d_max:
            return w * (d12 - d_max) ** 2
        return 0.0

    if kind == "CanSee":
        target, _ = _reference_nearest(subject, spec.params["target"], others)
        if target is None:
            return 0.0
        p0 = (subject.x, subject.y, subject.z)
        p1 = (target.x, target.y, target.z)
        for _, pose in others:
            if pose is target:
                continue
            if segment_intersects_box(p0, p1, pose.box3d()):
                return w
        return 0.0

    if kind == "Focus":
        if "point" in spec.params:
            px, py = (float(v) for v in spec.params["point"])
        else:
            target, _ = _reference_nearest(subject, spec.params["target"], others)
            if target is None:
                return 0.0
            px, py = target.x, target.y
        dx, dy = px - subject.x, py - subject.y
        if dx == 0.0 and dy == 0.0:
            return 0.0
        phi = angle_diff(math.atan2(dy, dx), subject.yaw)
        phi_th = float(spec.params.get("phi_th", math.radians(weights.focus_phi_th_deg)))
        if phi > phi_th:
            return w * (phi - phi_th) ** 2
        return 0.0

    if kind == "Alignment":
        target, _ = _reference_nearest(subject, spec.params["target"], others)
        if target is None:
            return 0.0
        dx, dy = target.x - subject.x, target.y - subject.y
        if dx == 0.0 and dy == 0.0:
            return 0.0
        if spec.params.get("axis", "x") == "x":
            theta = math.atan2(abs(dy), abs(dx))
        else:
            theta = math.atan2(abs(dx), abs(dy))
        return w * theta * theta

    # Orientation
    target, _ = _reference_nearest(subject, spec.params["target"], others)
    if target is None:
        return 0.0
    theta = angle_diff(subject.yaw, target.yaw)
    return w * theta * theta


def reference_perturb(
    room: Dimensions,
    movable: Sequence[int],
    poses: Sequence[Pose],
    rng: Random,
    sigma: float,
    translate_prob: float = SAParams.translate_prob,
) -> tuple[int, Pose]:
    """One facility's move: a gaussian step of `sigma` per axis clamped into
    the room with probability `translate_prob`, else a quarter turn (a
    translation when the turn cannot fit), up to 8 tries until it moves."""
    if not movable:
        raise NoAdaptableFacilities("room has no adaptable facilities")
    idx = movable[rng.randrange(len(movable))]
    cur = poses[idx]
    for _ in range(8):
        cand = None
        if rng.random() >= translate_prob:
            turned = cur.rotated(cur.yaw + HALF_PI)
            cand = clamp_into_room(turned, turned.x, turned.y, room)
        if cand is None:
            cand = clamp_into_room(
                cur, cur.x + rng.gauss(0.0, sigma), cur.y + rng.gauss(0.0, sigma), room
            )
        if cand.x != cur.x or cand.y != cur.y or cand.yaw != cur.yaw:
            return idx, cand
    return idx, cand


def eval_facility_penalty(
    spec: ConstraintSpec,
    subject: Pose,
    room: Dimensions,
    others: Sequence[tuple[str, Pose]] = (),
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> float:
    """Penalty of one facility-tier constraint for a candidate pose: the
    compiled term, compiled for this one call.

    `others` holds the already-placed facilities of the room as
    (definition name, pose) pairs; the subject itself must not be in it.
    Constraints whose named target has no placed instance score 0.
    """
    # the subject is facility 0; a term never targets its own facility
    names = [None] + [name for name, _ in others]
    poses = [subject] + [pose for _, pose in others]
    return compile_facility_term(spec, 0, names, room, weights)(poses, _Footprints(poses))


def total_constraint_penalty(
    facility,
    room: Dimensions,
    others: Sequence[tuple[str, Pose]] = (),
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> float:
    """Sum of all facility-tier penalties for one placed facility.

    `facility` needs `.pose` and `.constraints` attributes.
    """
    total = 0.0
    for spec in facility.constraints:
        total += eval_facility_penalty(spec, facility.pose, room, others, weights)
    return total


def parse_stats_csv(text: str) -> AggregateStats:
    """Rebuild AggregateStats from its CSV form (round-trip identical)."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert header[0] == "group"
    total_cells = 0
    groups: list[str] = []
    metrics: dict[str, dict[str, MetricStats]] = {}
    tallies: dict[str, dict[str, int]] = {}
    for row in body:
        group, name = row[0], row[1]
        if group == "_total_cells":
            total_cells = int(row[6])
            continue
        if group not in metrics:
            metrics[group] = {}
            tallies[group] = {}
            groups.append(group)
        if name.startswith("count:"):
            tallies[group][name.split(":", 1)[1]] = int(row[6])
        else:
            metrics[group][name] = MetricStats(
                mean=float(row[2]),
                std=float(row[3]),
                ci_low=float(row[4]),
                ci_high=float(row[5]),
                n=int(row[6]),
            )
    return AggregateStats(
        groups=tuple(groups), metrics=metrics, tallies=tallies, total_cells=total_cells
    )


# -- grid search -------------------------------------------------------------------

_WALKABLE = (FREE, DOOR, STAIR)


def cell_kinds(grid: NavGrid) -> list[np.ndarray]:
    """Each floor's cell kinds: `base` with FACILITY on every occupied cell."""
    kinds = [b.copy() for b in grid.base]
    for f, x, y in grid.occupants:
        kinds[f][x, y] = FACILITY
    return kinds


def _open(grid: NavGrid, cell: Cell) -> bool:
    """No facility on the cell, and its kind is walkable."""
    f, x, y = cell
    return cell not in grid.occupants and grid.base[f][x, y] in _WALKABLE


def _neighbors(grid: NavGrid, cell: Cell):
    f, x, y = cell
    if x + 1 < grid.width and _open(grid, (f, x + 1, y)):
        yield (f, x + 1, y)
    if x - 1 >= 0 and _open(grid, (f, x - 1, y)):
        yield (f, x - 1, y)
    if y + 1 < grid.length and _open(grid, (f, x, y + 1)):
        yield (f, x, y + 1)
    if y - 1 >= 0 and _open(grid, (f, x, y - 1)):
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


def grid_reach(grid: NavGrid, start: Cell) -> dict[Cell, int]:
    return bfs(start, lambda c: _neighbors(grid, c))


# -- room cells ----------------------------------------------------------------------


def _room_open(grid: NavGrid, room: RoomInstance, cell: Cell) -> bool:
    """In bounds, centre inside the room's footprint, and walkable."""
    f, x, y = cell
    x0, y0, x1, y1 = room.footprint()
    return (
        f == room.floor
        and 0 <= x < grid.width
        and 0 <= y < grid.length
        and x0 <= x + 0.5 < x1
        and y0 <= y + 0.5 < y1
        and _open(grid, cell)
    )


def flood_fill_room(
    grid: NavGrid, room: RoomInstance
) -> tuple[dict[DoorwayKey, set[Cell]], list[DoorwayKey]]:
    """Per doorway of the room, the open room cells 4-connected to its open
    cells; and, sorted, the doorways whose region is empty or misses every
    cell of another doorway."""
    doorways = grid.doorways.get(room.id, {})
    regions = {}
    for key, cells in doorways.items():
        seen = {c for c in cells if _room_open(grid, room, c)}
        queue = deque(seen)
        while queue:
            f, x, y = queue.popleft()
            for cell in ((f, x + 1, y), (f, x - 1, y), (f, x, y + 1), (f, x, y - 1)):
                if cell not in seen and _room_open(grid, room, cell):
                    seen.add(cell)
                    queue.append(cell)
        regions[key] = seen
    blocked = [
        key
        for key in sorted(doorways)
        if not regions[key]
        or any(o != key and not regions[key] & set(doorways[o]) for o in doorways)
    ]
    return regions, blocked


def target_cell(grid: NavGrid, room: RoomInstance, point, reachable) -> Cell | None:
    """Scan every cell of the floor for the minimum of (distance², x, y)."""
    px, py = point if point is not None else room.center()
    best = None
    for x in range(grid.width):
        for y in range(grid.length):
            cell = (room.floor, x, y)
            if not _room_open(grid, room, cell):
                continue
            if reachable is not None and cell not in reachable:
                continue
            key = ((x + 0.5 - px) ** 2 + (y + 0.5 - py) ** 2, x, y)
            if best is None or key < best:
                best = key
    return None if best is None else (room.floor, best[1], best[2])
