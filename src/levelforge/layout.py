"""Single-room facility layout by simulated annealing, and the Metropolis
kernel (`anneal`) that mechanic assignment shares.

The room objective combines three weighted terms: the summed placement
penalties (overlap, bounds and constraint violations), a pairwise
inverse-distance cluster term that discourages crowding, and a worst-case
sparsity term measured over a unit grid of interior test points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence, TypeVar

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


class _RoomEval:
    """Reusable objective evaluator for one room's facility set."""

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
        self.grid = interior_grid_points(room)
        self._gx = np.ascontiguousarray(self.grid[:, 0]) if self.grid.size else None
        self._gy = np.ascontiguousarray(self.grid[:, 1]) if self.grid.size else None
        self._cbuf = np.empty((len(facilities), 2))

    def breakdown(self, poses: Sequence[Pose]) -> ObjectiveBreakdown:
        w = self.weights
        n = len(poses)
        w_overlap, w_bounds = w.w_overlap, w.w_bounds
        room_w, room_l = self.room.width, self.room.length
        footprints = [p.footprint() for p in poses]

        placement = 0.0
        cluster = 0.0
        for i in range(n):
            pi = poses[i]
            fa = footprints[i]
            oob = out_of_bounds_depth(fa, room_w, room_l)
            if oob > 0.0:
                placement += w_bounds * oob * oob
            if self.constraints[i]:
                others = [
                    (self.names[j], poses[j]) for j in range(n) if j != i
                ]
                for spec in self.constraints[i]:
                    placement += eval_facility_penalty(
                        spec, pi, self.room, others, w
                    )
            for ob in self.obstacle_footprints:
                depth = penetration_depth(fa, ob)
                if depth > 0.0:
                    placement += w_overlap * depth * depth
            for j in range(i + 1, n):
                fb = footprints[j]
                # a collision is felt by both facilities, hence twice
                ox = (fa[2] if fa[2] < fb[2] else fb[2]) - (
                    fa[0] if fa[0] > fb[0] else fb[0]
                )
                if ox > 0.0:
                    oy = (fa[3] if fa[3] < fb[3] else fb[3]) - (
                        fa[1] if fa[1] > fb[1] else fb[1]
                    )
                    if oy > 0.0:
                        depth = ox if ox < oy else oy
                        placement += 2.0 * w_overlap * depth * depth
                pj = poses[j]
                dx, dy, dz = pi.x - pj.x, pi.y - pj.y, pi.z - pj.z
                cluster += 1.0 / (math.sqrt(dx * dx + dy * dy + dz * dz) + DISTANCE_EPS)

        if n and self._gx is not None:
            c = self._cbuf[:n]
            for i, p in enumerate(poses):
                c[i, 0] = p.x
                c[i, 1] = p.y
            dx = self._gx[:, None] - c[None, :, 0]
            dy = self._gy[:, None] - c[None, :, 1]
            d2 = dx * dx
            d2 += dy * dy
            sparsity = math.sqrt(float(d2.min(axis=1).max()))
        else:
            sparsity = 0.0

        total = (
            w.penalty_scale * placement
            + w.cluster_scale * cluster
            + w.sparsity_scale * sparsity
        )
        return ObjectiveBreakdown(placement, cluster, sparsity, total)


def objective(
    room: RoomInstance,
    facilities: Sequence[FacilityInstance],
    weights: WeightConfig = DEFAULT_WEIGHTS,
    obstacles: Sequence[Pose] = (),
) -> ObjectiveBreakdown:
    """Evaluate the room objective for the facilities' current poses."""
    ev = _RoomEval(room.dims, facilities, weights, obstacles)
    return ev.breakdown([f.pose for f in facilities])


def perturb(
    room: Dimensions,
    facilities: Sequence[FacilityInstance],
    poses: Sequence[Pose],
    rng: Random,
    sa: SAParams = SAParams(),
) -> list[Pose]:
    """Return a copy of `poses` with exactly one adaptable facility moved.

    With probability `translate_prob` the facility takes a gaussian step
    (clamped into the room); otherwise it rotates to the next 90-degree yaw.
    """
    movable = [i for i, f in enumerate(facilities) if not f.fixed]
    if not movable:
        raise NoAdaptableFacilities("room has no adaptable facilities")
    idx = movable[rng.randrange(len(movable))]
    sigma = sa.step_frac * math.hypot(room.width, room.length)

    out = list(poses)
    cur = poses[idx]
    for _ in range(8):
        cand = None
        if rng.random() >= sa.translate_prob:
            turned = cur.rotated(cur.yaw + HALF_PI)
            # None when the turn cannot fit; translate instead
            cand = clamp_into_room(turned, turned.x, turned.y, room)
        if cand is None:
            cand = clamp_into_room(
                cur, cur.x + rng.gauss(0.0, sigma), cur.y + rng.gauss(0.0, sigma), room
            )
        if cand.x != cur.x or cand.y != cur.y or cand.yaw != cur.yaw:
            out[idx] = cand
            return out
    out[idx] = cand
    return out


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

    def init(rng: Random) -> list[Pose]:
        # `fits` above guarantees random_pose finds a yaw that fits
        return [
            f.pose if f.fixed else random_pose(f.pose.dims, dims, rng)
            for f in facilities
        ]

    def propose(poses: list[Pose], rng: Random) -> list[Pose]:
        return perturb(dims, facilities, poses, rng, sa)

    movable = any(not f.fixed for f in facilities)
    best_poses, best = anneal(
        init, propose if movable else None, ev.breakdown, sa, rng, trace
    )
    placements = {f.id: p for f, p in zip(facilities, best_poses)}
    return RoomLayout(placements, best)
