"""Soft constraint penalties for facility, room and mechanic placement.

Every evaluator returns a non-negative float that is zero exactly when the
constraint is satisfied. There is no hard-rejection path: large weights
stand in for hard constraints.

Each constraint kind is declared once, with its parameters, in its tier's
table: facility kinds in `_FACILITY_TIER`, room kinds in `_ROOM_TIER`,
structural kinds in `STRUCTURAL_KINDS` and topological types in
`TOPO_TYPES`. `PARAMETERS` and the kind sets derive from these tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import UnknownKind
from .geometry import (
    Dimensions,
    Pose,
    angle_diff,
    center_distance,
    is_float,
    is_integer,
    point_outside_box_distance,
    segment_intersects_box,
    shared_segment,
)

# Shared epsilon for every inverse-distance term.
DISTANCE_EPS = 0.1

# A parameter's value rule: what the value must be, and the test. A number
# may be NaN or infinite (the validator reports those), not an int beyond
# the float range.
NAME = ("a name", lambda v: isinstance(v, str))
NUMBER = ("a number", lambda v: type(v) is float or is_float(v))
INTEGER = ("an integer", is_integer)


def _numbers(n: int) -> tuple:
    return f"an array of {n} numbers", lambda v: (
        type(v) is list and len(v) == n and all(map(NUMBER[1], v))
    )


def _one_of(values: tuple) -> tuple:
    return f"one of {values}", lambda v: isinstance(v, str) and v in values


# A kind's parameters are (the required ones, the optional ones), each a map
# of name -> value rule. Focus takes exactly one of its optional `target` and
# `point`.
_TARGET = ({"target": NAME}, {})

# Structural room kinds -> their parameters: folded into the template at
# load time, never scored. SetType picks one of the arch types.
ARCH_TYPES = ("enclosed", "open")
STRUCTURAL_KINDS = {
    "MaxInstances": ({"count": INTEGER}, {}),
    "SetType": ({"type": _one_of(ARCH_TYPES)}, {}),
}

# Mechanic-to-mechanic topological types: database type -> (rule kind of
# `level.TopoRule`, the parameter that holds its step threshold, if any,
# its parameters).
_STRENGTH = {"strength": NUMBER}
TOPO_TYPES = {
    "Precedes": ("precedes", None, ({"other": NAME}, _STRENGTH)),
    "TopologicalNear": ("topo_near", "d_max", ({"other": NAME, "d_max": INTEGER}, _STRENGTH)),
    "TopologicalFar": ("topo_far", "d_min", ({"other": NAME, "d_min": INTEGER}, _STRENGTH)),
}


@dataclass(frozen=True)
class ConstraintSpec:
    """One constraint row: kind, kind-specific parameters, optional weight.

    A missing weight falls back to the kind default in WeightConfig.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    weight: float | None = None


@dataclass(frozen=True)
class WeightConfig:
    """All objective weights; defaults are the tuned experiment values."""

    penalty_scale: float = 1.0     # multiplies the summed placement penalties
    cluster_scale: float = 100.0   # multiplies the pairwise inverse-distance sum
    sparsity_scale: float = 500.0  # multiplies the worst-case empty-space term

    w_axis: float = 20.0
    w_wall: float = 20.0
    w_range: float = 20.0          # PlaceInRange; reuses the axis-class default
    w_near: float = 10.0
    near_d_min: float = 5.0
    w_far: float = 15.0
    far_d_max: float = 10.0
    w_can_see: float = 2.0
    w_focus: float = 10.0
    focus_phi_th_deg: float = 15.0
    w_align: float = 15.0
    w_orient: float = 20.0
    w_overlap: float = 30.0
    w_bounds: float = 30.0

    w_pos_room: float = 20.0
    w_adj: float = 10.0
    w_sep: float = 15.0

    w_precedes: float = 50.0
    w_mech_std: float = 1.0
    w_topo_near: float = 10.0
    topo_near_dmax: int = 4
    w_topo_far: float = 15.0
    topo_far_dmin: int = 3


DEFAULT_WEIGHTS = WeightConfig()


def _weight(spec: ConstraintSpec, default: str, weights: WeightConfig) -> float:
    """The spec's own weight, or the WeightConfig field named `default`."""
    if spec.weight is not None:
        return float(spec.weight)
    return float(getattr(weights, default))


# -- custom axis deviation registry -----------------------------------------
#
# Closed registry of named deviation functions; each maps a center point in
# some frame (room or level) to a scalar deviation.

def _axis_centered_xy(cx, cy, cz, frame_w, frame_l, subject_h) -> float:
    return math.hypot(cx - frame_w / 2.0, cy - frame_l / 2.0)


def _axis_on_floor(cx, cy, cz, frame_w, frame_l, subject_h) -> float:
    return abs(cz - subject_h / 2.0)


def _axis_near_level_entrance(cx, cy, cz, frame_w, frame_l, subject_h) -> float:
    # The level origin corner is where floor 0's first room is seeded.
    return math.hypot(cx, cy)


AXIS_FUNCTIONS = {
    "centered_xy": _axis_centered_xy,
    "on_floor": _axis_on_floor,
    "near_level_entrance": _axis_near_level_entrance,
}
_AXIS_PARAMETERS = ({"function": _one_of(tuple(AXIS_FUNCTIONS))}, {})  # both tiers' AxisFunction


# -- facility tier -----------------------------------------------------------
#
# One compiler per kind binds a spec to facility i of a room: its weight,
# params and, for a kind with a `target`, the indices of its targets (the
# other facilities of the target definition, in room order). The compiled
# term reads the room's poses and footprints, poses[i] being its subject;
# `compile_facility_term` scores 0 when no target is placed.

Term = Callable[[Sequence[Pose], Sequence[tuple]], float]


def _zero(poses: Sequence[Pose], fps: Sequence[tuple]) -> float:
    return 0.0


def _nearest(subject: Pose, poses: Sequence[Pose], targets: Sequence[int]) -> tuple[Pose, float]:
    """The nearest of the target poses (the first on a tie) and its centre
    distance; `targets` is not empty."""
    target, best = None, math.inf
    for j in targets:
        pose = poses[j]
        d = center_distance(subject, pose)
        if target is None or d < best:
            target, best = pose, d
    return target, best


def _axis_function_term(spec, w, i, names, targets, room, weights) -> Term:
    fn = AXIS_FUNCTIONS[spec.params["function"]]
    width, length = room.width, room.length

    def term(poses, fps):
        s = poses[i]
        dev = fn(s.x, s.y, s.z, width, length, s.dims.height)
        return w * dev * dev

    return term


def _place_in_range_term(spec, w, i, names, targets, room, weights) -> Term:
    lo, hi = spec.params["p1"], spec.params["p2"]

    def term(poses, fps):
        s = poses[i]
        d = point_outside_box_distance((s.x, s.y, s.z), lo, hi)
        return w * d * d

    return term


def _place_by_wall_term(spec, w, i, names, targets, room, weights) -> Term:
    width, length = room.width, room.length
    facing = spec.params.get("orientation")

    def term(poses, fps):
        x0, y0, x1, y1 = fps[i]
        wall_dist = max(0.0, min(x0, y0, width - x1, length - y1))
        ang = 0.0 if facing is None else angle_diff(poses[i].yaw, facing)
        e = wall_dist + ang
        return w * e * e

    return term


def _near_term(spec, w, i, names, targets, room, weights) -> Term:
    d_min = spec.params.get("d_min", weights.near_d_min)

    def term(poses, fps):
        _, d12 = _nearest(poses[i], poses, targets)
        if d12 > d_min:
            return w * (d_min - d12) ** 2
        return 0.0

    return term


def _far_term(spec, w, i, names, targets, room, weights) -> Term:
    d_max = spec.params.get("d_max", weights.far_d_max)

    def term(poses, fps):
        _, d12 = _nearest(poses[i], poses, targets)
        if d12 < d_max:
            return w * (d12 - d_max) ** 2
        return 0.0

    return term


def _can_see_term(spec, w, i, names, targets, room, weights) -> Term:
    blockers = [j for j in range(len(names)) if j != i]

    def term(poses, fps):
        s = poses[i]
        target, _ = _nearest(s, poses, targets)
        p0 = (s.x, s.y, s.z)
        p1 = (target.x, target.y, target.z)
        for j in blockers:
            pose = poses[j]
            if pose is not target and segment_intersects_box(p0, p1, pose.box3d(fps[j])):
                return w
        return 0.0

    return term


def _focus_term(spec, w, i, names, targets, room, weights) -> Term:
    point = spec.params.get("point")
    phi_th = spec.params.get("phi_th", math.radians(weights.focus_phi_th_deg))

    def term(poses, fps):
        s = poses[i]
        if point is not None:
            px, py = point
        else:
            target, _ = _nearest(s, poses, targets)
            px, py = target.x, target.y
        dx, dy = px - s.x, py - s.y
        if dx == 0.0 and dy == 0.0:
            return 0.0
        phi = angle_diff(math.atan2(dy, dx), s.yaw)
        if phi > phi_th:
            return w * (phi - phi_th) ** 2
        return 0.0

    return term


def _alignment_term(spec, w, i, names, targets, room, weights) -> Term:
    along_x = spec.params.get("axis", "x") == "x"

    def term(poses, fps):
        s = poses[i]
        target, _ = _nearest(s, poses, targets)
        dx, dy = target.x - s.x, target.y - s.y
        if dx == 0.0 and dy == 0.0:
            return 0.0
        if along_x:
            theta = math.atan2(abs(dy), abs(dx))
        else:
            theta = math.atan2(abs(dx), abs(dy))
        return w * theta * theta

    return term


def _orientation_term(spec, w, i, names, targets, room, weights) -> Term:

    def term(poses, fps):
        s = poses[i]
        target, _ = _nearest(s, poses, targets)
        theta = angle_diff(s.yaw, target.yaw)
        return w * theta * theta

    return term


# facility kind -> (its default-weight field of WeightConfig, its term
# compiler, its parameters)
_XY, _XYZ = _numbers(2), _numbers(3)
_FACILITY_TIER = {
    "AxisFunction": ("w_axis", _axis_function_term, _AXIS_PARAMETERS),
    "PlaceInRange": ("w_range", _place_in_range_term, ({"p1": _XYZ, "p2": _XYZ}, {})),
    "PlaceByWall": ("w_wall", _place_by_wall_term, ({}, {"orientation": NUMBER})),
    "Near": ("w_near", _near_term, ({"target": NAME}, {"d_min": NUMBER})),
    "Far": ("w_far", _far_term, ({"target": NAME}, {"d_max": NUMBER})),
    "CanSee": ("w_can_see", _can_see_term, _TARGET),
    "Focus": ("w_focus", _focus_term, ({}, {"target": NAME, "point": _XY, "phi_th": NUMBER})),
    "Alignment": ("w_align", _alignment_term, ({"target": NAME}, {"axis": _one_of(("x", "y"))})),
    "Orientation": ("w_orient", _orientation_term, _TARGET),
}
FACILITY_KINDS = frozenset(_FACILITY_TIER)


def facility_weight(spec: ConstraintSpec, weights: WeightConfig = DEFAULT_WEIGHTS) -> float:
    """The weight of a facility-tier constraint: its own, or its kind's default."""
    if spec.kind not in FACILITY_KINDS:
        raise UnknownKind(f"{spec.kind!r} is not a facility-tier constraint")
    return _weight(spec, _FACILITY_TIER[spec.kind][0], weights)


def compile_facility_term(
    spec: ConstraintSpec,
    i: int,
    names: Sequence[str],
    room: Dimensions,
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> Term:
    """The penalty of `spec` on facility i of a room whose facilities have
    the definition names `names`, as a function of their poses and
    footprints."""
    w = facility_weight(spec, weights)
    targets = None
    if "target" in spec.params:
        name = spec.params["target"]
        targets = [j for j, n in enumerate(names) if n == name and j != i]
        if not targets:
            return _zero
    return _FACILITY_TIER[spec.kind][1](spec, w, i, names, targets, room, weights)


class _Footprints:
    """The footprints of `poses`, each computed when read."""

    def __init__(self, poses: Sequence[Pose]):
        self.poses = poses

    def __getitem__(self, j: int) -> tuple:
        return self.poses[j].footprint()


def compile_facility_penalty(
    specs: Sequence[ConstraintSpec],
    room: Dimensions,
    others: Sequence[tuple[str, Pose]] = (),
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> Callable[[Pose], float]:
    """The summed penalty of `specs` as a function of the subject's pose.

    `others` holds the already-placed facilities of the room as
    (definition name, pose) pairs; the subject itself must not be in it.
    Constraints whose named target has no placed instance score 0. Each
    spec is compiled once, and the terms are summed in spec order.
    """
    # the subject is facility 0; a term never targets its own facility
    names = [None] + [name for name, _ in others]
    terms = [compile_facility_term(spec, 0, names, room, weights) for spec in specs]
    rest = [pose for _, pose in others]

    def penalty(subject: Pose) -> float:
        poses = [subject, *rest]
        fps = _Footprints(poses)
        return sum(term(poses, fps) for term in terms)

    return penalty


# -- room tier ---------------------------------------------------------------

# room kind -> (its default-weight field of WeightConfig, its parameters)
_ROOM_TIER = {
    "AxisFunction": ("w_pos_room", _AXIS_PARAMETERS),
    "AdjacentTo": ("w_adj", _TARGET),
    "SeparateFrom": ("w_sep", _TARGET),
}
ROOM_KINDS = frozenset(_ROOM_TIER)

# kind -> its parameters: the last item of a tier table's entry
PARAMETERS = {k: v[-1] for t in (_ROOM_TIER, _FACILITY_TIER, TOPO_TYPES) for k, v in t.items()}
PARAMETERS.update(STRUCTURAL_KINDS)
ALL_KINDS = frozenset(PARAMETERS)


def _room_plane_distance(a, b) -> float:
    (ax, ay), (bx, by) = a.center(), b.center()
    return math.hypot(ax - bx, ay - by)


def eval_room_penalty(
    spec: ConstraintSpec,
    subject,
    placed: Iterable,
    level_dims: tuple[float, float, float] = (0.0, 0.0, 0.0),
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> float:
    """Penalty of one room-tier constraint for a candidate room placement.

    Room-to-room terms only consider same-floor target instances; a target
    template with no placed instance on the floor contributes 0.
    """
    kind = spec.kind
    if kind not in ROOM_KINDS:  # structural kinds included: they are never scored
        raise UnknownKind(f"{kind!r} is not a room-tier constraint")
    w = _weight(spec, _ROOM_TIER[kind][0], weights)

    if kind == "AxisFunction":
        cx, cy = subject.center()
        fn = AXIS_FUNCTIONS[spec.params["function"]]
        dev = fn(cx, cy, 0.0, level_dims[0], level_dims[1], 0.0)
        return w * dev * dev

    target_name = spec.params["target"]
    targets = [
        r
        for r in placed
        if r.template == target_name and r is not subject and r.floor == subject.floor
    ]
    if not targets:
        return 0.0

    if kind == "AdjacentTo":
        fs = subject.footprint()
        if any(shared_segment(fs, t.footprint()) is not None for t in targets):
            return 0.0
        return w * min(_room_plane_distance(subject, t) for t in targets)

    # SeparateFrom
    d = min(_room_plane_distance(subject, t) for t in targets)
    return w / (d + DISTANCE_EPS)
