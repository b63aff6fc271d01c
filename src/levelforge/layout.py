"""Single-room facility layout by simulated annealing, and the Metropolis
kernel (`anneal`) that mechanic assignment shares.

The room objective combines three weighted terms: the summed placement
penalties (overlap, bounds and constraint violations), a pairwise
inverse-distance cluster term that discourages crowding, and a worst-case
sparsity term measured over a unit grid of interior test points.

The evaluator is incremental. An annealer state (`_Layout`) carries the
poses and every term of their objective: per facility its footprint,
out-of-bounds, stair-obstacle and constraint terms and its squared-distance
column over the grid points; per pair the overlap and cluster terms. A move
of facility k recomputes only k's own terms and column, the n-1 pairs that
hold k, and the constraint terms that read k's pose (k's, those targeting
k's definition, and every CanSee). Sparsity is the largest of min(k's
column, the minimum of the other columns), memoised per k until another
facility's move is accepted; a turn in place changes no column. Floating-
point sums depend on their order, so the cached terms are re-summed in the
order of a full evaluation (per facility: bounds, constraints, obstacles,
its pairs with later facilities): a total is bit-identical to `objective()`
of the same poses, whatever moves led there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import attrgetter
from random import Random
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .constraints import (
    DISTANCE_EPS,
    DEFAULT_WEIGHTS,
    WeightConfig,
    eval_facility_penalty,
)
from .errors import InfeasibleRoom, NoAdaptableFacilities
from .geometry import (
    HALF_PI,
    Dimensions,
    Pose,
    clamp_into_room,
    fits,
    out_of_bounds_depth,
    penetration_depth,
    random_pose,
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

    def to_dict(self) -> dict:
        return {
            "initial_temperature": self.initial_temperature,
            "cooling_rate": self.cooling_rate,
            "iterations": self.iterations,
            "translate_prob": self.translate_prob,
            "step_frac": self.step_frac,
            "restarts": self.restarts,
        }

    @classmethod
    def from_dict(cls, data) -> "SAParams":
        return cls(**dict(data))


State = TypeVar("State")
Energy = TypeVar("Energy")


def anneal(
    init: Callable[[Random], State],
    propose: Callable[[State, Random], State] | None,
    energy: Callable[[State], Energy],
    sa: SAParams,
    rng: Random,
    trace: list | None = None,
) -> tuple[State, Energy]:
    """Metropolis search under geometric cooling; returns the best state
    seen and its energy.

    Each of `sa.restarts` runs starts from `init(rng)` and tries
    `sa.iterations` moves. `propose(state, rng)` returns a new state and
    leaves its argument untouched; None means nothing can move, so only the
    initial states are scored. `energy(state)` returns a breakdown whose
    `.total` is minimised; the best changes only on a strictly lower total.
    With `trace`, each iteration appends (iteration, temperature, current
    total, best total).
    """
    best_state: State | None = None
    best: Energy | None = None
    for _ in range(max(1, sa.restarts)):
        state = init(rng)
        cur = energy(state)
        if best is None or cur.total < best.total:
            best_state, best = state, cur
        if propose is None:
            continue
        temperature = sa.initial_temperature
        for it in range(sa.iterations):
            cand_state = propose(state, rng)
            cand = energy(cand_state)
            delta = cand.total - cur.total
            if delta <= 0 or (
                temperature > 0
                and rng.random() < math.exp(-delta / temperature)
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


@dataclass
class _Layout:
    """Annealer state: the poses plus every cached term of their objective."""

    poses: list[Pose]
    own: list[tuple]  # per facility: footprint, bounds term, stair-obstacle terms
    cons: list[list[float]]  # per facility: its constraint terms
    overlap: list[float]  # per pair i < j, at i * n + j
    cluster: list[float]
    cols: list[np.ndarray | None]  # per facility: squared distance to each grid point
    # k -> min of the columns other than k's (None if none); it reads only
    # those columns, so it may be filled in on an otherwise unchanged state
    rest: dict[int, np.ndarray | None]
    breakdown: ObjectiveBreakdown


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
        self.obstacle_footprints = [o.footprint() for o in obstacles]
        grid = interior_grid_points(room)
        self._gx = np.ascontiguousarray(grid[:, 0]) if grid.size else None
        self._gy = np.ascontiguousarray(grid[:, 1]) if grid.size else None

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

    def _own(self, pose: Pose) -> tuple:
        w = self.weights
        fp = pose.footprint()
        oob = out_of_bounds_depth(fp, self.room.width, self.room.length)
        depths = [penetration_depth(fp, ob) for ob in self.obstacle_footprints]
        return (
            fp,
            w.w_bounds * oob * oob if oob > 0.0 else 0.0,
            [w.w_overlap * d * d if d > 0.0 else 0.0 for d in depths],
        )

    def _cons(self, i: int, poses: Sequence[Pose]) -> list[float]:
        others = [(self.names[j], poses[j]) for j in range(len(poses)) if j != i]
        return [
            eval_facility_penalty(spec, poses[i], self.room, others, self.weights)
            for spec in self.constraints[i]
        ]

    def _set_pairs(self, k: int, js: Iterable[int], poses, own, overlap, cluster) -> None:
        """Write the overlap and cluster terms of each pair (k, j), j in `js`."""
        n = len(poses)
        w_overlap = self.weights.w_overlap
        for j in js:
            if j == k:
                continue
            i, j = (j, k) if j < k else (k, j)
            fa, fb = own[i][0], own[j][0]
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
            overlap[i * n + j] = ov
            cluster[i * n + j] = 1.0 / (math.sqrt(dx * dx + dy * dy + dz * dz) + DISTANCE_EPS)

    def _col(self, pose: Pose) -> np.ndarray | None:
        if self._gx is None:
            return None
        dx = self._gx - pose.x
        dy = self._gy - pose.y
        d2 = dx * dx
        d2 += dy * dy
        return d2

    def fill(self, poses: Sequence[Pose]) -> _Layout:
        """Every term of `poses`, computed from scratch."""
        poses = list(poses)
        n = len(poses)
        own = [self._own(p) for p in poses]
        overlap, cluster = [0.0] * (n * n), [0.0] * (n * n)
        for k in range(n):
            self._set_pairs(k, range(k + 1, n), poses, own, overlap, cluster)
        cols = [self._col(p) for p in poses]
        sparsity = 0.0
        if n and self._gx is not None:
            sparsity = math.sqrt(float(reduce(np.minimum, cols).max()))
        cons = [self._cons(i, poses) for i in range(n)]
        return self._summed(poses, own, cons, overlap, cluster, cols, {}, sparsity)

    def moved(self, s: _Layout, k: int, pose: Pose) -> _Layout:
        """`s` with facility k at `pose`, recomputing only the terms that
        read k's pose; `s` keeps its terms."""
        n = len(s.poses)
        poses, own, cons = s.poses.copy(), s.own.copy(), s.cons.copy()
        poses[k], own[k] = pose, self._own(pose)
        for i in self.readers[k]:
            cons[i] = self._cons(i, poses)
        overlap, cluster = s.overlap.copy(), s.cluster.copy()
        self._set_pairs(k, range(n), poses, own, overlap, cluster)
        cols = s.cols.copy()
        old = s.poses[k]
        sparsity = s.breakdown.sparsity  # a turn in place keeps every column
        if self._gx is not None and (pose.x != old.x or pose.y != old.y):
            cols[k] = col = self._col(pose)
            if k not in s.rest:
                others = cols[:k] + cols[k + 1 :]
                s.rest[k] = reduce(np.minimum, others) if others else None
            rest = s.rest[k]
            sparsity = math.sqrt(float((col if rest is None else np.minimum(rest, col)).max()))
        # no column but k's changed, so k's memo carries over
        memo = {k: s.rest[k]} if k in s.rest else {}
        return self._summed(poses, own, cons, overlap, cluster, cols, memo, sparsity)

    def _summed(self, poses, own, cons, overlap, cluster, cols, rest, sparsity) -> _Layout:
        # Re-sum in one fixed order -- per facility i: bounds, constraints,
        # obstacles, then the pairs (i, j > i) -- so a total is bit-identical
        # however the layout was reached.
        n = len(poses)
        placement = 0.0
        clustered = 0.0
        for i in range(n):
            _, bounds, obstacles = own[i]
            placement += bounds
            for t in cons[i]:
                placement += t
            for t in obstacles:
                placement += t
            for ij in range(i * n + i + 1, i * n + n):
                placement += overlap[ij]
                clustered += cluster[ij]
        w = self.weights
        total = (
            w.penalty_scale * placement
            + w.cluster_scale * clustered
            + w.sparsity_scale * sparsity
        )
        breakdown = ObjectiveBreakdown(placement, clustered, sparsity, total)
        return _Layout(poses, own, cons, overlap, cluster, cols, rest, breakdown)


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
    next 90-degree yaw.
    """
    if not movable:
        raise NoAdaptableFacilities("room has no adaptable facilities")
    idx = movable[rng.randrange(len(movable))]
    cur = poses[idx]
    for _ in range(8):
        cand = None
        if rng.random() >= translate_prob:
            turned = cur.rotated(cur.yaw + HALF_PI)
            # None when the turn cannot fit; translate instead
            cand = clamp_into_room(turned, turned.x, turned.y, room)
        if cand is None:
            cand = clamp_into_room(
                cur, cur.x + rng.gauss(0.0, sigma), cur.y + rng.gauss(0.0, sigma), room
            )
        if cand.x != cur.x or cand.y != cur.y or cand.yaw != cur.yaw:
            return idx, cand
    return idx, cand


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

    def propose(state: _Layout, rng: Random) -> _Layout:
        return ev.moved(state, *perturb(dims, movable, state.poses, rng, sigma, sa.translate_prob))

    best_state, best = anneal(
        init, propose if movable else None, attrgetter("breakdown"), sa, rng, trace
    )
    placements = {f.id: p for f, p in zip(facilities, best_state.poses)}
    return RoomLayout(placements, best)
