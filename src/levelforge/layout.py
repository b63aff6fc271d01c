"""Single-room facility layout by simulated annealing, and the Metropolis
kernel (`anneal`) that mechanic assignment shares.

The room objective combines three weighted terms: the summed placement
penalties (overlap, bounds and constraint violations), a pairwise
inverse-distance cluster term that discourages crowding, and a worst-case
sparsity term measured over a unit grid of interior test points.

The evaluator is incremental. An annealer state (`_Layout`) carries the
poses and every term of their objective: the placement terms in one flat
list, in the order they are summed (per facility: bounds, constraints,
stair obstacles, the overlaps of its pairs with later facilities), the
cluster terms of the pairs, and per facility its squared-distance column
over the grid points. A move of facility k recomputes only k's column, its
own terms, the n-1 pairs that hold k, and the constraint terms that read
k's pose (k's, those targeting k's definition, and every CanSee). Sparsity
is the largest of min(k's column, the minimum of the other columns),
memoised per k until another facility's move is accepted; a turn in place
changes no column. Floating-point sums depend on their order, so every
total is re-summed left to right over the flat lists: it is bit-identical
to `objective()` of the same poses, whatever moves led there.

A move is evaluated in stages, each cheaper than the next, and each offers
`anneal` a lower bound on the candidate's total before the next one runs:

1. k's column and the exact sparsity (the one numpy step);
2. k's own and pair terms, and the total re-summed with the constraint
   terms of k's readers left out;
3. the readers' constraint terms, the exact total and the new state.

Every term is >= 0 while every weight is, and float `+` and `x` by a
non-negative scale are monotone, so a partial sum in the fixed order never
exceeds the full one. When a bound already exceeds the current total the
move is uphill whatever the remaining terms are, and `anneal` draws its
uniform variate u there -- the one draw the full test would make, in the
same place after the move's own draws. Since `exp` is monotone too,
u >= exp(-(bound - current) / T) implies u >= exp(-(total - current) / T),
so the move is rejected exactly when the full evaluation would reject it;
otherwise the full evaluation reuses u. States, draws and trace rows are
those of a full evaluation. A room with a negative weight has no bound and
evaluates every move in full.

What a move builds: `perturb` clamps on the half extents of the current
and the turned yaw, each computed once, and builds one `Pose`, the
candidate. The room's constraint terms were compiled once
(`constraints.compile_facility_term`): each has its weight, params and
target indices bound and reads the poses and the state's footprints. Stage
1 builds k's column; stage 2 copies the poses, footprints and term lists
and writes k's terms into them; only stage 3 builds a `_Layout`, which
carries its objective's parts as floats. An `ObjectiveBreakdown` is built
only when read, once per room for the best state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from random import Random
from typing import Callable, Sequence, TypeVar

import numpy as np

from .constraints import (
    DISTANCE_EPS,
    DEFAULT_WEIGHTS,
    WeightConfig,
    compile_facility_term,
    facility_weight,
)
from .errors import InfeasibleRoom, NoAdaptableFacilities
from .geometry import (
    HALF_PI,
    Dimensions,
    Pose,
    clamp_center,
    fits,
    half_extents,
    out_of_bounds_depth,
    penetration_depth,
    random_pose,
    wrap_angle,
)
from .level import FacilityInstance, RoomInstance


@dataclass(frozen=True)
class SAParams:
    """Annealing schedule plus the documented perturbation extensions."""

    initial_temperature: float = 1000.0
    cooling_rate: float = 0.95
    iterations: int = 1000
    translate_prob: float = 0.8   # remainder of moves rotate by a 90-degree step
    step_frac: float = 0.1        # gaussian step sigma as a fraction of the room diagonal
    restarts: int = 1


State = TypeVar("State")
Energy = TypeVar("Energy")


def anneal(
    init: Callable[[Random], State],
    propose: Callable[[State, Random, Callable[[float], bool]], State | None] | None,
    energy: Callable[[State], Energy],
    sa: SAParams,
    rng: Random,
    trace: list | None = None,
) -> tuple[State, Energy]:
    """Metropolis search under geometric cooling; returns the best state
    seen and its energy.

    Each of `sa.restarts` runs starts from `init(rng)` and tries
    `sa.iterations` moves. `propose(state, rng, rejects)` returns a new
    state and leaves its argument untouched; a `propose` of None means
    nothing can move, so only the initial states are scored.
    `energy(state)` returns an object whose `.total` is minimised (it may
    be the state itself); the best changes only on a strictly lower total.
    With `trace`, each iteration appends (iteration, temperature, current
    total, best total).

    `rejects(bound)` lets a proposal stop early: given a lower bound on the
    candidate's total, it is True when the candidate would surely be
    rejected, and `propose` then returns None in place of the state. It
    draws the move's uniform variate only where the exact test would (the
    candidate is uphill and the temperature is > 0), at most once per move,
    and the exact test reuses it; so the draws, states and trace rows are
    those of a full evaluation. A proposal that cannot bound its candidate
    never calls it.
    """
    best_state: State | None = None
    best: Energy | None = None
    u: float | None = None  # this move's uniform variate, once drawn

    def rejects(bound: float) -> bool:
        # reads the current energy and temperature of the loop below
        nonlocal u
        if not bound > cur.total:
            return False
        if not temperature > 0:
            return True
        if u is None:
            u = rng.random()
        return u >= math.exp(-(bound - cur.total) / temperature)

    for _ in range(max(1, sa.restarts)):
        state = init(rng)
        cur = energy(state)
        if best is None or cur.total < best.total:
            best_state, best = state, cur
        if propose is None:
            continue
        temperature = sa.initial_temperature
        for it in range(sa.iterations):
            u = None
            cand_state = propose(state, rng, rejects)
            if cand_state is not None:
                cand = energy(cand_state)
                delta = cand.total - cur.total
                if delta <= 0 or (
                    temperature > 0
                    and (rng.random() if u is None else u) < math.exp(-delta / temperature)
                ):
                    state, cur = cand_state, cand
            if cur.total < best.total:
                best_state, best = state, cur
            if trace is not None:
                trace.append((it, temperature, cur.total, best.total))
            temperature *= sa.cooling_rate
    return best_state, best


@dataclass(frozen=True)
class ObjectiveBreakdown:
    placement: float
    cluster: float
    sparsity: float
    total: float


@dataclass
class RoomLayout:
    placements: dict[str, Pose]
    breakdown: ObjectiveBreakdown


def interior_grid_points(room: Dimensions) -> np.ndarray:
    """Unit-spaced test points strictly inside the room, on the floor plane."""
    xs = np.arange(1.0, math.ceil(room.width - 1e-9), 1.0)
    ys = np.arange(1.0, math.ceil(room.length - 1e-9), 1.0)
    xs = xs[xs < room.width]
    ys = ys[ys < room.length]
    if xs.size == 0 or ys.size == 0:
        return np.empty((0, 2))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _summed(terms: list[float]) -> float:
    """Left-to-right float sum: the one order every total is summed in."""
    total = 0.0
    for t in terms:
        total += t
    return total


@dataclass(slots=True)
class _Layout:
    """Annealer state: the poses plus every cached term of their objective,
    and the objective's parts as floats."""

    poses: list[Pose]
    fps: list[tuple]  # per facility: its footprint
    terms: list[float]  # every placement term, in summing order (`_RoomEval.__init__`)
    cluster: list[float]  # per pair i < j, in summing order
    cols: list[np.ndarray | None]  # per facility: squared distance to each grid point
    # k -> min of the columns other than k's (None if none); it reads only
    # those columns, so it may be filled in on an otherwise unchanged state
    rest: dict[int, np.ndarray | None]
    placement: float
    clustered: float
    sparsity: float
    total: float

    @property
    def breakdown(self) -> ObjectiveBreakdown:
        return ObjectiveBreakdown(self.placement, self.clustered, self.sparsity, self.total)


class _RoomEval:
    """Objective evaluator for one room's facility set, incremental in the
    facility a move changes."""

    def __init__(
        self,
        room: Dimensions,
        facilities: Sequence[FacilityInstance],
        weights: WeightConfig,
        obstacles: Sequence[Pose] = (),
    ):
        self.room = room
        self.weights = weights
        self.names = [f.def_name for f in facilities]
        self.constraints = [f.constraints for f in facilities]
        # per facility: its constraint terms, compiled against this room
        self.cons_terms = [
            [compile_facility_term(spec, i, self.names, room, weights) for spec in specs]
            for i, specs in enumerate(self.constraints)
        ]
        self.obstacle_footprints = [o.footprint() for o in obstacles]
        grid = interior_grid_points(room)
        self._gx = np.ascontiguousarray(grid[:, 0]) if grid.size else None
        self._gy = np.ascontiguousarray(grid[:, 1]) if grid.size else None
        self._low = np.empty_like(self._gx) if grid.size else None  # stage 1's scratch
        # Every term is >= 0 only while every weight is, and only then is a
        # partial sum a lower bound on the total (NaN fails the test too).
        self.bounded = all(
            v >= 0
            for v in (
                weights.penalty_scale,
                weights.cluster_scale,
                weights.sparsity_scale,
                weights.w_overlap,
                weights.w_bounds,
                *(facility_weight(s, weights) for specs in self.constraints for s in specs),
            )
        )
        # Slots of `_Layout.terms`, in summing order -- per facility i: bounds,
        # constraints, obstacles, then the overlaps of the pairs (i, j > i).
        # _pairs_of[k]: per j != k, in order, j and the pair's (overlap,
        # cluster) slots.
        n, slot, pair = len(facilities), 0, 0
        self._bounds_at, self._cons_at, self._obstacles_at = [], [], []
        self._pairs_of = [[] for _ in range(n)]
        for i, specs in enumerate(self.constraints):
            self._bounds_at.append(slot)
            self._cons_at.append(slice(slot + 1, slot + 1 + len(specs)))
            slot += 1 + len(specs)
            self._obstacles_at.append(slot)
            slot += len(obstacles)
            for j in range(i + 1, n):
                self._pairs_of[i].append((j, slot, pair))
                self._pairs_of[j].append((i, slot, pair))
                slot, pair = slot + 1, pair + 1
        self._n_terms, self._n_pairs = slot, pair
        self._no_cons = [[0.0] * len(specs) for specs in self.constraints]

    @cached_property
    def readers(self) -> list[list[int]]:
        """readers[k]: the facilities whose constraint terms read k's pose --
        k's own, those that target k's definition, and every line of sight
        (CanSee is blocked by any other facility)."""
        return [
            [
                i
                for i, specs in enumerate(self.constraints)
                if specs
                and (
                    i == k
                    or any(s.kind == "CanSee" or s.params.get("target") == name for s in specs)
                )
            ]
            for k, name in enumerate(self.names)
        ]

    def _set_own(self, k: int, pose: Pose, terms: list[float]) -> tuple:
        """Write k's bounds and stair-obstacle terms; returns its footprint."""
        w = self.weights
        fp = pose.footprint()
        oob = out_of_bounds_depth(fp, self.room.width, self.room.length)
        terms[self._bounds_at[k]] = w.w_bounds * oob * oob if oob > 0.0 else 0.0
        at = self._obstacles_at[k]
        for o, ob in enumerate(self.obstacle_footprints):
            d = penetration_depth(fp, ob)
            terms[at + o] = w.w_overlap * d * d if d > 0.0 else 0.0
        return fp

    def _cons(self, i: int, poses: Sequence[Pose], fps: Sequence[tuple]) -> list[float]:
        return [term(poses, fps) for term in self.cons_terms[i]]

    def _set_pairs(self, k: int, pairs, poses, fps, terms, cluster) -> None:
        """Write the overlap and cluster terms of each pair (k, j) in `pairs`."""
        w_overlap = self.weights.w_overlap
        for j, ov_at, cl_at in pairs:
            i, j = (j, k) if j < k else (k, j)
            fa, fb = fps[i], fps[j]
            ov = 0.0
            ox = (fa[2] if fa[2] < fb[2] else fb[2]) - (fa[0] if fa[0] > fb[0] else fb[0])
            if ox > 0.0:
                oy = (fa[3] if fa[3] < fb[3] else fb[3]) - (fa[1] if fa[1] > fb[1] else fb[1])
                if oy > 0.0:
                    depth = ox if ox < oy else oy
                    # a collision is felt by both facilities, hence twice
                    ov = 2.0 * w_overlap * depth * depth
            pa, pb = poses[i], poses[j]
            dx, dy, dz = pa.x - pb.x, pa.y - pb.y, pa.z - pb.z
            terms[ov_at] = ov
            cluster[cl_at] = 1.0 / (math.sqrt(dx * dx + dy * dy + dz * dz) + DISTANCE_EPS)

    def _col(self, pose: Pose) -> np.ndarray | None:
        if self._gx is None:
            return None
        d2 = self._gx - pose.x
        d2 *= d2
        dy = self._gy - pose.y
        dy *= dy
        d2 += dy
        return d2

    def _total(self, placement: float, clustered: float, sparsity: float) -> float:
        w = self.weights
        return (
            w.penalty_scale * placement
            + w.cluster_scale * clustered
            + w.sparsity_scale * sparsity
        )

    def fill(self, poses: Sequence[Pose]) -> _Layout:
        """Every term of `poses`, computed from scratch."""
        poses = list(poses)
        n = len(poses)
        terms, cluster = [0.0] * self._n_terms, [0.0] * self._n_pairs
        fps = [self._set_own(k, p, terms) for k, p in enumerate(poses)]
        for k in range(n):
            # the pairs (k, j > k) come last in k's list
            self._set_pairs(k, self._pairs_of[k][k:], poses, fps, terms, cluster)
        for i in range(n):
            terms[self._cons_at[i]] = self._cons(i, poses, fps)
        cols = [self._col(p) for p in poses]
        sparsity = 0.0
        if n and self._gx is not None:
            sparsity = math.sqrt(np.maximum.reduce(reduce(np.minimum, cols)))
        return self._state(poses, fps, terms, cluster, cols, {}, _summed(cluster), sparsity)

    def step(
        self, s: _Layout, k: int, pose: Pose, rejects: Callable[[float], bool]
    ) -> _Layout | None:
        """`s` with facility k at `pose`, recomputing only the terms that read
        k's pose; `s` keeps its terms.

        On a bounded room each stage offers `rejects` a lower bound on the
        total before the next, costlier stage runs, and a True answer ends
        the move with None: first the exact sparsity; then the total without
        the constraint terms of `readers[k]`; only then are those computed.
        """
        bounded = self.bounded
        old = s.poses[k]
        cols, sparsity = s.cols, s.sparsity  # a turn in place keeps every column
        if self._gx is not None and (pose.x != old.x or pose.y != old.y):
            col = self._col(pose)
            if k not in s.rest:
                others = cols[:k] + cols[k + 1 :]
                s.rest[k] = reduce(np.minimum, others) if others else None
            rest = s.rest[k]
            low = col if rest is None else np.minimum(rest, col, out=self._low)
            # the ufunc's reduce: ndarray.max adds a Python-level call per move
            sparsity = math.sqrt(np.maximum.reduce(low))
            if bounded and rejects(self.weights.sparsity_scale * sparsity):
                return None
            cols = cols.copy()
            cols[k] = col
        poses, fps = s.poses.copy(), s.fps.copy()
        terms, cluster = s.terms.copy(), s.cluster.copy()
        poses[k] = pose
        fps[k] = self._set_own(k, pose, terms)
        self._set_pairs(k, self._pairs_of[k], poses, fps, terms, cluster)
        clustered = _summed(cluster)
        readers = self.readers[k]
        if bounded:
            for i in readers:
                terms[self._cons_at[i]] = self._no_cons[i]
            if rejects(self._total(_summed(terms), clustered, sparsity)):
                return None
        for i in readers:
            terms[self._cons_at[i]] = self._cons(i, poses, fps)
        # no column but k's changed, so k's memo carries over
        memo = {k: s.rest[k]} if k in s.rest else {}
        return self._state(poses, fps, terms, cluster, cols, memo, clustered, sparsity)

    def _state(self, poses, fps, terms, cluster, cols, rest, clustered, sparsity) -> _Layout:
        placement = _summed(terms)
        total = self._total(placement, clustered, sparsity)
        return _Layout(
            poses, fps, terms, cluster, cols, rest, placement, clustered, sparsity, total
        )


def _itself(state: _Layout) -> _Layout:
    return state


def objective(
    room: RoomInstance,
    facilities: Sequence[FacilityInstance],
    weights: WeightConfig = DEFAULT_WEIGHTS,
    obstacles: Sequence[Pose] = (),
) -> ObjectiveBreakdown:
    """Evaluate the room objective for the facilities' current poses."""
    ev = _RoomEval(room.dims, facilities, weights, obstacles)
    return ev.fill([f.pose for f in facilities]).breakdown


def perturb(
    room: Dimensions,
    movable: Sequence[int],
    poses: Sequence[Pose],
    rng: Random,
    sigma: float,
    translate_prob: float = SAParams.translate_prob,
) -> tuple[int, Pose]:
    """Move exactly one facility, drawn from the indices `movable`; returns
    its index and new pose.

    With probability `translate_prob` the facility takes a gaussian step of
    `sigma` per axis (clamped into the room); otherwise it rotates to the
    next 90-degree yaw, or translates when the turn cannot fit. Up to 8
    tries are drawn until one moves it. The tries clamp on the half extents
    of the current and the turned yaw, each computed once, and only the
    returned pose is built.
    """
    if not movable:
        raise NoAdaptableFacilities("room has no adaptable facilities")
    idx = movable[rng.randrange(len(movable))]
    cur = poses[idx]
    x, y, yaw = cur.x, cur.y, cur.yaw
    hx, hy = half_extents(cur.dims, yaw)
    turn = None  # (turned yaw, where the turned box lands or None), once computed
    for _ in range(8):
        at = None
        if rng.random() >= translate_prob:
            if turn is None:
                turned = wrap_angle(yaw + HALF_PI)
                turn = turned, clamp_center(x, y, *half_extents(cur.dims, turned), room)
            new_yaw, at = turn
        if at is None:
            new_yaw = yaw
            at = clamp_center(x + rng.gauss(0.0, sigma), y + rng.gauss(0.0, sigma), hx, hy, room)
        if at[0] != x or at[1] != y or new_yaw != yaw:
            break
    return idx, Pose(at[0], at[1], cur.z, new_yaw, cur.dims)


def optimize_room_layout(
    room: RoomInstance,
    facilities: Sequence[FacilityInstance],
    weights: WeightConfig = DEFAULT_WEIGHTS,
    sa: SAParams = SAParams(),
    rng: Random | None = None,
    obstacles: Sequence[Pose] = (),
    trace: list | None = None,
) -> RoomLayout:
    """Anneal the adaptable facilities of one room, returning the best layout.

    Fixed facilities keep their authored poses. With `sa.restarts` > 1 the
    annealing restarts from fresh random initializations and the best seen
    layout across all runs wins.
    """
    rng = rng or Random(0)
    dims = room.dims
    for f in facilities:
        if not fits(f.pose.dims, dims):
            raise InfeasibleRoom(
                f"facility {f.id!r} ({f.pose.dims}) cannot fit in room {room.id}"
            )

    ev = _RoomEval(dims, facilities, weights, obstacles)
    movable = [i for i, f in enumerate(facilities) if not f.fixed]
    sigma = sa.step_frac * math.hypot(dims.width, dims.length)

    def init(rng: Random) -> _Layout:
        # `fits` above guarantees random_pose finds a yaw that fits
        return ev.fill(
            [f.pose if f.fixed else random_pose(f.pose.dims, dims, rng) for f in facilities]
        )

    def propose(state: _Layout, rng: Random, rejects: Callable[[float], bool]) -> _Layout | None:
        k, pose = perturb(dims, movable, state.poses, rng, sigma, sa.translate_prob)
        return ev.step(state, k, pose, rejects)

    # a state carries its own total, so it is its own energy
    best, _ = anneal(init, propose if movable else None, _itself, sa, rng, trace)
    placements = {f.id: p for f, p in zip(facilities, best.poses)}
    return RoomLayout(placements, best.breakdown)
