"""Axis-aligned box geometry, the shared-wall segment of two rooms, the
box-in-room rule (fit, clamp and pose sampling in a room's local frame),
breadth-first hop counts and the number predicates, shared by every
subsystem.

All footprints are axis-aligned rectangles on the floor plane; yaw only
matters in 90-degree steps (it swaps width/length) and in the angular
penalty terms.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Callable, Hashable, Iterable

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Shared door width; a wall contact shorter than this cannot host a door.
DOOR_WIDTH = 1.0


# The value rules every input boundary shares: a bool is not a number.


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_finite(v) -> bool:
    """A number that is neither infinite nor NaN; every int is finite (and
    may be too large for `math.isfinite`)."""
    return is_number(v) and (isinstance(v, int) or math.isfinite(v))


_FLOAT_MAX = sys.float_info.max


def is_float(v) -> bool:
    """A number that a float holds finitely: `is_finite`, and no int beyond
    the float range."""
    return (type(v) is float or is_number(v)) and -_FLOAT_MAX <= v <= _FLOAT_MAX


@dataclass(frozen=True)
class Dimensions:
    """Bounding-box size in meters. A room's dims are also its local frame,
    [0,width] x [0,length] x [0,height], in which facilities are posed."""

    width: float
    length: float
    height: float

    def is_valid(self) -> bool:
        """Every size `is_finite` and > 0. Floats, the common case, take a
        path with no calls: `Level.check` asks this of every placement."""
        w, l, h = self.width, self.length, self.height
        if type(w) is type(l) is type(h) is float:
            return 0.0 < w <= _FLOAT_MAX and 0.0 < l <= _FLOAT_MAX and 0.0 < h <= _FLOAT_MAX
        return all(is_finite(v) and v > 0 for v in (w, l, h))

    def footprint_area(self) -> float:
        return self.width * self.length


@dataclass
class Pose:
    """Center position plus yaw of a placed box, in its room-local frame."""

    x: float
    y: float
    z: float
    yaw: float
    dims: Dimensions

    def half_extents(self) -> tuple[float, float]:
        return half_extents(self.dims, self.yaw)

    def footprint(self) -> tuple[float, float, float, float]:
        hx, hy = half_extents(self.dims, self.yaw)
        return (self.x - hx, self.y - hy, self.x + hx, self.y + hy)

    def box3d(
        self, fp: tuple[float, float, float, float] | None = None
    ) -> tuple[float, float, float, float, float, float]:
        """The box in 3D; `fp` is its footprint, when already known."""
        x0, y0, x1, y1 = fp or self.footprint()
        hz = self.dims.height / 2.0
        return (x0, y0, self.z - hz, x1, y1, self.z + hz)

    def moved(self, x: float, y: float) -> "Pose":
        return Pose(x, y, self.z, self.yaw, self.dims)

    def rotated(self, yaw: float) -> "Pose":
        return Pose(self.x, self.y, self.z, wrap_angle(yaw), self.dims)


def half_extents(dims: Dimensions, yaw: float) -> tuple[float, float]:
    """Half the footprint's size along x and y of a box at `yaw`."""
    # yaw snaps to the nearest 90-degree step for footprint purposes; an
    # odd number of quarter turns swaps width and length
    if round(yaw / HALF_PI) % 2:
        return dims.length / 2.0, dims.width / 2.0
    return dims.width / 2.0, dims.length / 2.0


def wrap_angle(a: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0 else a


def angle_diff(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return TWO_PI - d if d > math.pi else d


def center_distance(a: Pose, b: Pose) -> float:
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def penetration_depth(
    fa: tuple[float, float, float, float], fb: tuple[float, float, float, float]
) -> float:
    """Minimal axis-aligned translation separating two footprints.

    Zero when the boxes are disjoint or merely touching.
    """
    ox = min(fa[2], fb[2]) - max(fa[0], fb[0])
    if ox <= 0:
        return 0.0
    oy = min(fa[3], fb[3]) - max(fa[1], fb[1])
    if oy <= 0:
        return 0.0
    return min(ox, oy)


def out_of_bounds_depth(
    fp: tuple[float, float, float, float], width: float, length: float
) -> float:
    """How far a footprint pokes outside the [0,W]x[0,L] room, worst axis."""
    over = max(
        0.0 - fp[0],
        0.0 - fp[1],
        fp[2] - width,
        fp[3] - length,
    )
    return max(0.0, over)


def point_outside_box_distance(
    p: tuple[float, float, float],
    lo: tuple[float, float, float],
    hi: tuple[float, float, float],
) -> float:
    """Euclidean distance from a point to an axis-aligned 3D box (0 inside)."""
    d2 = 0.0
    for c, a, b in zip(p, lo, hi):
        if c < a:
            d2 += (a - c) ** 2
        elif c > b:
            d2 += (c - b) ** 2
    return math.sqrt(d2)


def segment_intersects_box(
    p0: tuple[float, float, float],
    p1: tuple[float, float, float],
    box: tuple[float, float, float, float, float, float],
) -> bool:
    """Slab test: does the open segment p0-p1 pass through the 3D box?

    Tangent grazing contact does not count as an intersection.
    """
    tmin, tmax = 0.0, 1.0
    for axis in range(3):
        o, d = p0[axis], p1[axis] - p0[axis]
        lo, hi = box[axis], box[axis + 3]
        if abs(d) < 1e-12:
            if o <= lo or o >= hi:
                return False
            continue
        t0 = (lo - o) / d
        t1 = (hi - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        tmin = max(tmin, t0)
        tmax = min(tmax, t1)
        if tmin >= tmax - 1e-12:
            return False
    return True


def shared_segment(
    fa: tuple[float, float, float, float], fb: tuple[float, float, float, float]
) -> tuple[str, float, float, float] | None:
    """(axis, boundary, lo, hi) of the wall two touching footprints share.

    The wall lies at `boundary` on `axis` ("x" or "y"); [lo, hi] is its run
    along the other axis. None unless the contact is at least a door wide.
    """
    eps = 1e-9
    for axis, k in (("x", 0), ("y", 1)):
        a0, a1, b0, b1 = fa[k], fa[k + 2], fb[k], fb[k + 2]
        if abs(a1 - b0) < eps or abs(b1 - a0) < eps:
            boundary = a1 if abs(a1 - b0) < eps else a0
            o = 1 - k
            lo, hi = max(fa[o], fb[o]), min(fa[o + 2], fb[o + 2])
            if hi - lo >= DOOR_WIDTH - eps:
                return (axis, boundary, lo, hi)
    return None


def bfs(start: Hashable, neighbors: Callable[[Hashable], Iterable[Hashable]]) -> dict:
    """Hop count from `start` to every node reachable via `neighbors`,
    in visiting order."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        hops = dist[node] + 1
        for nxt in neighbors(node):
            if nxt not in dist:
                dist[nxt] = hops
                queue.append(nxt)
    return dist


def fits(dims: Dimensions, room: Dimensions) -> bool:
    """The box fits inside the room at some 90-degree yaw, height included."""
    return (
        min(dims.width, dims.length) <= min(room.width, room.length)
        and max(dims.width, dims.length) <= max(room.width, room.length)
        and dims.height <= room.height
    )


def clamp_center(
    x: float, y: float, hx: float, hy: float, room: Dimensions
) -> tuple[float, float] | None:
    """The point nearest (x, y) at which a footprint of half extents (hx, hy)
    lies in the [0,W]x[0,L] room; None when it is wider or longer than the
    room."""
    width, length = room.width, room.length
    if 2 * hx > width or 2 * hy > length:
        return None
    # min(max(x, hx), width - hx) per axis, without the builtins' call cost
    x = hx if hx > x else x
    y = hy if hy > y else y
    return (width - hx if width - hx < x else x), (length - hy if length - hy < y else y)


def clamp_into_room(pose: Pose, x: float, y: float, room: Dimensions) -> Pose | None:
    """`pose` centred at the point nearest (x, y) where its footprint lies in
    the room (`clamp_center`); None when, at its yaw, it does not fit."""
    at = clamp_center(x, y, *pose.half_extents(), room)
    return None if at is None else pose.moved(*at)


def random_pose(dims: Dimensions, room: Dimensions, rng: Random) -> Pose | None:
    """Uniform pose of a box inside the room.

    The yaw is a random 90-degree step, turned a quarter when the box does
    not fit that way; None when it fits neither way.
    """
    yaw = rng.randrange(4) * HALF_PI
    pose = Pose(0.0, 0.0, dims.height / 2.0, yaw, dims)
    # clamping the origin gives the lowest allowed centre, (hx, hy)
    pose = clamp_into_room(pose, 0.0, 0.0, room) or clamp_into_room(
        pose.rotated(yaw + HALF_PI), 0.0, 0.0, room
    )
    if pose is None:
        return None
    pose.x += rng.random() * (room.width - 2 * pose.x)
    pose.y += rng.random() * (room.length - 2 * pose.y)
    return pose
