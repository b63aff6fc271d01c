"""Progression mechanic integration.

Mechanics are assigned to rooms by simulated annealing over a fitness that
scores topological-order rules (precedence, near, far) plus the best
achievable standard-constraint cost per room, then each mechanic is placed
inside its room greedily without disturbing the existing facility layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Mapping, Sequence

from .constraints import (
    DEFAULT_WEIGHTS,
    ConstraintSpec,
    WeightConfig,
    compile_facility_penalty,
)
from .database import Database, MechanicDef
from .errors import NoFreeSpace, NoRooms, UnboundMechanic, UnresolvedReferenceError
from .geometry import HALF_PI, Dimensions, Pose, clamp_into_room, penetration_depth, random_pose
from .layout import SAParams, anneal
from .level import Level, MechanicPlacement, RoomInstance, TopoRule
from .seeding import derive_rng

# Pose sampling budgets: assignment cost probing and final greedy placement.
CSTD_SAMPLES = 32
PLACEMENT_POSITIONS = 16
PLACEMENT_YAWS = 4

# Multiplier that turns a default topological-far rule into a "strong" one.
STRONG_TOPO_FAR = 3.0

# Pacing strategy -> (key definition, keys per floor), for both the
# algorithmic (A-) and database-driven (DB-) group families.
PACING_KEYS = {
    "baseline": ("FloorKey", 1),
    "exploration": ("KeyFragment", 3),
    "speedrun": ("FloorKey", 1),
}


@dataclass
class MechanicInstance:
    """One mechanic to be assigned: definition data plus resolved topo rules.

    `candidate_rooms` restricts assignment (None means any room); a single
    candidate pins the mechanic to that room.
    """

    id: str
    def_name: str
    dims: Dimensions
    standard_constraints: tuple[ConstraintSpec, ...] = ()
    topo: tuple[TopoRule, ...] = ()
    candidate_rooms: tuple[int, ...] | None = None

    @classmethod
    def of(
        cls,
        mdef: MechanicDef,
        inst_id: str,
        topo: tuple[TopoRule, ...] = (),
        candidate_rooms: tuple[int, ...] | None = None,
    ) -> "MechanicInstance":
        return cls(
            id=inst_id,
            def_name=mdef.name,
            dims=mdef.dims,
            standard_constraints=mdef.standard_constraints,
            topo=topo,
            candidate_rooms=candidate_rooms,
        )

    def placed(self, room_id: int, pose: Pose) -> MechanicPlacement:
        return MechanicPlacement(
            id=self.id,
            def_name=self.def_name,
            room_id=room_id,
            pose=pose,
            standard_constraints=self.standard_constraints,
            topo=self.topo,
        )


@dataclass(frozen=True)
class FitnessBreakdown:
    precedence: float
    standard: float
    topo_near: float
    topo_far: float
    total: float


@dataclass
class MechanicAssignment:
    rooms: dict[str, int]  # mechanic instance id -> room id
    breakdown: FitnessBreakdown


CStdEvaluator = Callable[[MechanicInstance, int], float]


def zero_cstd(_inst: MechanicInstance, _room_id: int) -> float:
    return 0.0


def make_cstd_evaluator(
    level: Level,
    weights: WeightConfig = DEFAULT_WEIGHTS,
    seed: int = 0,
) -> CStdEvaluator:
    """Minimal standard-constraint cost of a mechanic in a room, estimated
    as the best of CSTD_SAMPLES sampled poses and cached per (mechanic, room)."""
    cache: dict[tuple[str, int], float] = {}

    def evaluate(inst: MechanicInstance, room_id: int) -> float:
        key = (inst.id, room_id)
        if key in cache:
            return cache[key]
        dims = level.room_by_id(room_id).dims
        others = [(f.def_name, f.pose) for f in level.facilities_in_room(room_id)]
        penalty = compile_facility_penalty(inst.standard_constraints, dims, others, weights)
        rng = derive_rng(seed, "cstd", inst.id, room_id)
        best = math.inf
        for _ in range(CSTD_SAMPLES):
            pose = random_pose(inst.dims, dims, rng)
            if pose is None:
                break
            cost = penalty(pose)
            if cost < best:
                best = cost
        if not math.isfinite(best):
            best = 1e9  # mechanic cannot fit in this room at all
        cache[key] = best
        return best

    return evaluate


def fitness(
    assignment: Mapping[str, int],
    level: Level,
    instances: Sequence[MechanicInstance],
    weights: WeightConfig = DEFAULT_WEIGHTS,
    cstd: CStdEvaluator = zero_cstd,
) -> FitnessBreakdown:
    """Evaluate the four-term assignment fitness.

    Each term is the raw (strength-scaled) sum for its rule category; the
    total applies the category weights on top.
    """
    tau = {r.id: r.tau for r in level.rooms}
    precedence = 0.0
    topo_near = 0.0
    topo_far = 0.0
    standard = 0.0
    for inst in instances:
        if inst.id not in assignment:
            raise UnboundMechanic(f"mechanic {inst.id!r} missing from assignment")

    for inst in instances:
        t_i = tau[assignment[inst.id]]
        standard += cstd(inst, assignment[inst.id])
        for rule in inst.topo:
            if rule.anchor_tau is not None:
                t_j = rule.anchor_tau
            else:
                if rule.other not in assignment:
                    raise UnboundMechanic(
                        f"mechanic {inst.id!r} references unbound {rule.other!r}"
                    )
                t_j = tau[assignment[rule.other]]
            if rule.kind == "precedes":
                e = max(0.0, t_i - t_j)
                precedence += rule.strength * e * e
            elif rule.kind == "topo_near":
                limit = rule.threshold if rule.threshold is not None else weights.topo_near_dmax
                e = max(0.0, abs(t_i - t_j) - limit)
                topo_near += rule.strength * e * e
            elif rule.kind == "topo_far":
                limit = rule.threshold if rule.threshold is not None else weights.topo_far_dmin
                e = max(0.0, limit - abs(t_i - t_j))
                topo_far += rule.strength * e * e

    total = (
        weights.w_precedes * precedence
        + weights.w_mech_std * standard
        + weights.w_topo_near * topo_near
        + weights.w_topo_far * topo_far
    )
    return FitnessBreakdown(precedence, standard, topo_near, topo_far, total)


def assign_mechanics(
    level: Level,
    mechanics: Sequence[MechanicInstance],
    weights: WeightConfig = DEFAULT_WEIGHTS,
    sa: SAParams = SAParams(),
    rng: Random | None = None,
    cstd: CStdEvaluator = zero_cstd,
) -> MechanicAssignment:
    """Anneal the mechanic-to-room assignment; returns the best seen.

    A perturbation reassigns one uniformly chosen mechanic to a uniformly
    chosen candidate room, accepted by the Metropolis rule under the same
    cooling schedule the facility layout uses.
    """
    if not level.rooms:
        raise NoRooms("level has no rooms")
    rng = rng or Random(0)
    all_rooms = tuple(r.id for r in level.rooms)
    candidates: dict[str, tuple[int, ...]] = {}
    for inst in mechanics:
        cands = inst.candidate_rooms if inst.candidate_rooms is not None else all_rooms
        if not cands:
            raise NoRooms(f"mechanic {inst.id!r} has no candidate rooms")
        candidates[inst.id] = cands

    if not mechanics:
        return MechanicAssignment({}, FitnessBreakdown(0, 0, 0, 0, 0))

    free = [inst for inst in mechanics if len(candidates[inst.id]) > 1]

    def init(rng: Random) -> dict[str, int]:
        return {
            inst.id: candidates[inst.id][rng.randrange(len(candidates[inst.id]))]
            for inst in mechanics
        }

    def propose(assign: dict[str, int], rng: Random, rejects) -> dict[str, int]:
        inst = free[rng.randrange(len(free))]
        cands = candidates[inst.id]
        return {**assign, inst.id: cands[rng.randrange(len(cands))]}

    def energy(assign: dict[str, int]) -> FitnessBreakdown:
        return fitness(assign, level, mechanics, weights, cstd)

    best_assign, best = anneal(init, propose if free else None, energy, sa, rng)
    return MechanicAssignment(best_assign, best)


def place_mechanic_in_room(
    mechanic: MechanicInstance,
    room: RoomInstance,
    others: Sequence[tuple[str, Pose]],
    rng: Random,
    weights: WeightConfig = DEFAULT_WEIGHTS,
    obstacles: Sequence[Pose] = (),
) -> MechanicPlacement:
    """Greedy intra-room placement over sampled poses.

    Scores sampled positions at the four yaw steps by standard-constraint
    penalty plus overlap penalty; existing facilities are never moved.
    Raises NoFreeSpace when every candidate overlaps something.
    """
    dims = room.dims
    occupied = [p.footprint() for _, p in others] + [o.footprint() for o in obstacles]
    penalty = compile_facility_penalty(mechanic.standard_constraints, dims, others, weights)

    best: tuple[float, Pose] | None = None
    any_clear = False
    for _ in range(PLACEMENT_POSITIONS):
        px = rng.random() * dims.width
        py = rng.random() * dims.length
        for k in range(PLACEMENT_YAWS):
            pose = Pose(0.0, 0.0, mechanic.dims.height / 2.0, k * HALF_PI, mechanic.dims)
            pose = clamp_into_room(pose, px, py, dims)
            if pose is None:
                continue
            fp = pose.footprint()
            overlap = 0.0
            clear = True
            for ofp in occupied:
                depth = penetration_depth(fp, ofp)
                if depth > 0.0:
                    clear = False
                    overlap += weights.w_overlap * depth * depth
            score = overlap + penalty(pose)
            any_clear = any_clear or clear
            if best is None or score < best[0]:
                best = (score, pose)

    if best is None or not any_clear:
        raise NoFreeSpace(
            f"no overlap-free pose for mechanic {mechanic.id!r} in room {room.id}"
        )
    return mechanic.placed(room.id, best[1])


# -- experiment-group parameterizations ---------------------------------------

def _floor_exit_room(level: Level, floor: int) -> RoomInstance:
    """The stair room of a floor, or its highest-order room on the top floor."""
    rooms = level.rooms_on_floor(floor)
    for stair in level.stairs:
        lower = level.room_by_id(stair.room_id)
        if lower.floor == floor:
            return lower
    return max(rooms, key=lambda r: r.tau)


def mechanic_def(db: Database, name: str) -> MechanicDef:
    d = db.mechanic(name)
    if d is None:
        raise UnresolvedReferenceError(f"mechanic {name!r} not in database")
    return d


def db_group_mechanics(
    group: str,
    level: Level,
    floor: int,
    db: Database,
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> list[MechanicInstance]:
    """Mechanic instances for one floor of a database-parameterized group.

    baseline: one FloorKey pulled topologically near the floor's tau
    midpoint. exploration: KeyFragments preceding the floor exit and
    strongly spread apart in tau. speedrun: one FloorKey pulled near the
    floor's start room.
    """
    rooms = level.rooms_on_floor(floor)
    if not rooms:
        return []
    def_name, keys = PACING_KEYS[group]
    mdef = mechanic_def(db, def_name)
    taus = [r.tau for r in rooms]
    floor_ids = tuple(r.id for r in sorted(rooms, key=lambda r: r.tau))
    t_min, t_max = min(taus), max(taus)

    if group != "exploration":
        anchor = (t_min + t_max) / 2.0 if group == "baseline" else float(t_min)
        near = TopoRule("topo_near", anchor_tau=anchor, threshold=weights.topo_near_dmax)
        return [
            MechanicInstance.of(
                mdef, f"{def_name}@f{floor}", topo=(near,), candidate_rooms=floor_ids
            )
        ]

    exit_tau = float(_floor_exit_room(level, floor).tau)
    ids = [f"{def_name}@f{floor}#{k}" for k in range(keys)]
    out = []
    for k in range(keys):
        rules = [TopoRule("precedes", anchor_tau=exit_tau)]
        for j in range(k + 1, keys):
            rules.append(
                TopoRule(
                    "topo_far",
                    other=ids[j],
                    threshold=weights.topo_far_dmin,
                    strength=STRONG_TOPO_FAR,
                )
            )
        out.append(
            MechanicInstance.of(mdef, ids[k], topo=tuple(rules), candidate_rooms=floor_ids)
        )
    return out
