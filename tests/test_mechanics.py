import itertools
import json
import math
from importlib import resources
from random import Random

import pytest

from levelforge.arrangement import LevelConfig
from levelforge.constraints import ConstraintSpec, WeightConfig
from levelforge.database import load_database
from levelforge.errors import NoFreeSpace, NoRooms, UnboundMechanic
from levelforge.geometry import (
    HALF_PI,
    Dimensions,
    Pose,
    clamp_into_room,
    penetration_depth,
    random_pose,
)
from levelforge.harness import generate_level
from levelforge.layout import SAParams
from levelforge.level import Stair, TopoRule
from levelforge.mechanics import (
    CSTD_SAMPLES,
    PLACEMENT_POSITIONS,
    PLACEMENT_YAWS,
    MechanicInstance,
    assign_mechanics,
    db_group_mechanics,
    fitness,
    make_cstd_evaluator,
    place_mechanic_in_room,
    zero_cstd,
)

from levelforge.seeding import derive_rng

from conftest import make_facility, make_level, make_room
from oracles import eval_facility_penalty

W = WeightConfig()


def mech(mid, topo=(), candidates=None, dims=None, constraints=()):
    return MechanicInstance(
        id=mid,
        def_name=mid.split("#")[0],
        dims=dims or Dimensions(0.3, 0.3, 0.3),
        standard_constraints=tuple(constraints),
        topo=tuple(topo),
        candidate_rooms=candidates,
    )


def path_level(n_rooms, width=60.0):
    rooms = [make_room(i + 1, (6.0 * i, 0.0), 6, 6, tau=i + 1) for i in range(n_rooms)]
    return make_level(rooms, width=width, length=6.0)


# -- fitness -------------------------------------------------------------------


def test_precedes_satisfied_contributes_zero():
    level = path_level(6)
    a = mech("a", topo=[TopoRule("precedes", other="b")])
    b = mech("b")
    breakdown = fitness({"a": 3, "b": 5}, level, [a, b])
    assert breakdown.precedence == 0.0
    assert breakdown.total == 0.0


def test_precedes_violation_squares_the_gap():
    level = path_level(6)
    a = mech("a", topo=[TopoRule("precedes", other="b")])
    b = mech("b")
    breakdown = fitness({"a": 5, "b": 3}, level, [a, b])
    assert breakdown.precedence == 4.0
    assert breakdown.total == pytest.approx(50.0 * (5 - 3) ** 2)  # 200


def test_topo_far_inside_threshold():
    level = path_level(6)
    a = mech("a", topo=[TopoRule("topo_far", other="b", threshold=3)])
    b = mech("b")
    breakdown = fitness({"a": 4, "b": 5}, level, [a, b])
    assert breakdown.topo_far == pytest.approx((3 - 1) ** 2)
    assert breakdown.total == pytest.approx(15.0 * 4.0)  # 60


def test_topo_near_against_anchor():
    level = path_level(12)
    a = mech("a", topo=[TopoRule("topo_near", anchor_tau=8.0, threshold=4)])
    assert fitness({"a": 8}, level, [a]).total == 0.0
    breakdown = fitness({"a": 1}, level, [a])
    assert breakdown.topo_near == pytest.approx((7 - 4) ** 2)


def test_fitness_total_identity_resums_terms():
    level = path_level(8)
    rng = Random(13)
    insts = [
        mech("a", topo=[TopoRule("precedes", other="b"), TopoRule("topo_far", other="b", threshold=3, strength=3.0)]),
        mech("b", topo=[TopoRule("topo_near", anchor_tau=4.5, threshold=2)]),
    ]

    def cstd(inst, room_id):
        return (hash((inst.id, room_id)) % 7) * 0.5

    for _ in range(40):
        assign = {"a": rng.randrange(1, 9), "b": rng.randrange(1, 9)}
        br = fitness(assign, level, insts, W, cstd)
        assert br.total == pytest.approx(
            W.w_precedes * br.precedence
            + W.w_mech_std * br.standard
            + W.w_topo_near * br.topo_near
            + W.w_topo_far * br.topo_far,
            rel=1e-12,
        )


def test_unbound_mechanic_raises():
    level = path_level(3)
    with pytest.raises(UnboundMechanic):
        fitness({}, level, [mech("a")])
    with pytest.raises(UnboundMechanic):
        fitness({"a": 1}, level, [mech("a", topo=[TopoRule("precedes", other="ghost")])])


# -- assignment ------------------------------------------------------------------


def test_single_mechanic_single_room_is_forced():
    level = path_level(1)
    inst = mech("key")

    def cstd(i, r):
        return 2.5

    result = assign_mechanics(level, [inst], W, SAParams(iterations=50), Random(0), cstd)
    assert result.rooms == {"key": 1}
    assert result.breakdown.total == pytest.approx(W.w_mech_std * 2.5)


def test_assignment_on_empty_level_raises():
    level = make_level([])
    with pytest.raises(NoRooms):
        assign_mechanics(level, [mech("key")], W, SAParams(), Random(0))


def _brute_force_minimum(level, insts, cstd=zero_cstd):
    room_ids = [r.id for r in level.rooms]
    best = math.inf
    for combo in itertools.product(room_ids, repeat=len(insts)):
        assign = {inst.id: room for inst, room in zip(insts, combo)}
        best = min(best, fitness(assign, level, insts, W, cstd).total)
    return best


def test_precedes_key_lands_before_pinned_door():
    level = path_level(6)
    key = mech("key", topo=[TopoRule("precedes", other="door")])
    door = mech("door", candidates=(6,))
    result = assign_mechanics(
        level, [key, door], W, SAParams(restarts=3), Random(7)
    )
    taus = {r.id: r.tau for r in level.rooms}
    assert taus[result.rooms["key"]] < taus[result.rooms["door"]]
    # matches enumerating key placements with the door fixed
    best = math.inf
    for room in range(1, 7):
        assign = {"key": room, "door": 6}
        best = min(best, fitness(assign, level, [key, door], W).total)
    assert result.breakdown.total == pytest.approx(best)


def test_mutual_topo_far_reaches_brute_force_optimum():
    level = path_level(8)
    a = mech("a", topo=[TopoRule("topo_far", other="b", threshold=3)])
    b = mech("b")
    result = assign_mechanics(level, [a, b], W, SAParams(restarts=3), Random(3))
    best = _brute_force_minimum(level, [a, b])
    assert result.breakdown.total == pytest.approx(best)
    taus = {r.id: r.tau for r in level.rooms}
    assert abs(taus[result.rooms["a"]] - taus[result.rooms["b"]]) >= 3


def test_cstd_evaluator_scores_best_sampled_pose():
    room = make_room(1, (0.0, 0.0), 10, 10)
    level = make_level([room], width=10, length=10)
    level.facilities.append(make_facility("locker", 1, 5.0, 5.0, def_name="Locker"))
    near = ConstraintSpec("Near", {"target": "Locker", "d_min": 4.0})
    inst = mech("key", constraints=(near,))
    cstd = make_cstd_evaluator(level, W, seed=11)
    value = cstd(inst, 1)
    # in a 10x10 room with the locker centered, a pose within 4 units exists
    # in any 32-pose sample, so the best standard cost is zero
    assert value == 0.0
    assert cstd(inst, 1) == value  # cached and stable


# -- greedy in-room placement ------------------------------------------------------


def test_placement_in_empty_room_has_no_overlap():
    room = make_room(1, (0.0, 0.0), 8, 8)
    placement = place_mechanic_in_room(mech("key"), room, [], Random(2), W)
    p = placement.pose
    hx, hy = p.half_extents()
    assert hx <= p.x <= 8 - hx and hy <= p.y <= 8 - hy


def test_placement_prefers_near_target_when_reachable():
    room = make_room(1, (0.0, 0.0), 14, 14)
    locker_pose = Pose(7.0, 7.0, 1.0, 0.0, Dimensions(0.8, 0.5, 1.9))
    near = ConstraintSpec("Near", {"target": "Locker", "d_min": 5.0})
    inst = mech("key", constraints=(near,))
    placement = place_mechanic_in_room(
        inst, room, [("Locker", locker_pose)], Random(6), W
    )
    d = math.dist(
        (placement.pose.x, placement.pose.y, placement.pose.z),
        (locker_pose.x, locker_pose.y, locker_pose.z),
    )
    assert d <= 5.0


def test_placement_never_moves_existing_facilities():
    room = make_room(1, (0.0, 0.0), 8, 8)
    others = [("Crate", Pose(2.0, 2.0, 0.5, 0.0, Dimensions(1, 1, 1)))]
    snapshot = [(n, p.x, p.y, p.yaw) for n, p in others]
    place_mechanic_in_room(mech("key"), room, others, Random(1), W)
    assert [(n, p.x, p.y, p.yaw) for n, p in others] == snapshot


def test_fully_tiled_room_raises_no_free_space():
    room = make_room(1, (0.0, 0.0), 6, 6)
    others = [
        ("Block", Pose(1.0 + 2 * i, 1.0 + 2 * j, 1.0, 0.0, Dimensions(2, 2, 2)))
        for i in range(3)
        for j in range(3)
    ]
    with pytest.raises(NoFreeSpace):
        place_mechanic_in_room(mech("key"), room, others, Random(0), W)


# -- compiled standard constraints against the per-call penalty --------------------

# every facility-tier kind, aimed at the hospital's facilities
_STANDARD_CONSTRAINTS = [
    {"type": "Near", "parameters": {"target": "Locker", "d_min": 2.0}},
    {"type": "Far", "parameters": {"target": "Hospital Bed", "d_max": 6.0}},
    {"type": "PlaceByWall", "parameters": {}},
    {"type": "AxisFunction", "parameters": {"function": "centered_xy"}},
    {"type": "PlaceInRange", "parameters": {"p1": [0, 0, 0], "p2": [3, 3, 1]}},
    {"type": "CanSee", "parameters": {"target": "Reception Desk"}},
    {"type": "Focus", "parameters": {"target": "Hospital Bed", "phi_th": 0.2}, "weight": 3.0},
    {"type": "Alignment", "parameters": {"target": "Desk", "axis": "y"}},
    {"type": "Orientation", "parameters": {"target": "Medical Shelf"}},
]


def _per_call_cost(specs, pose, dims, others):
    return sum(eval_facility_penalty(spec, pose, dims, others, W) for spec in specs)


def _per_call_cstd(level, inst, room_id, seed):
    """`make_cstd_evaluator`'s estimate with every spec evaluated per pose."""
    dims = level.room_by_id(room_id).dims
    others = [(f.def_name, f.pose) for f in level.facilities_in_room(room_id)]
    rng = derive_rng(seed, "cstd", inst.id, room_id)
    best = math.inf
    for _ in range(CSTD_SAMPLES):
        pose = random_pose(inst.dims, dims, rng)
        if pose is None:
            break
        best = min(best, _per_call_cost(inst.standard_constraints, pose, dims, others))
    return best if math.isfinite(best) else 1e9


def _per_call_placement(inst, room, others, rng, obstacles):
    """`place_mechanic_in_room`'s chosen pose with every spec evaluated per pose."""
    dims = room.dims
    occupied = [p.footprint() for _, p in others] + [o.footprint() for o in obstacles]
    best = None
    for _ in range(PLACEMENT_POSITIONS):
        px = rng.random() * dims.width
        py = rng.random() * dims.length
        for k in range(PLACEMENT_YAWS):
            pose = Pose(0.0, 0.0, inst.dims.height / 2.0, k * HALF_PI, inst.dims)
            pose = clamp_into_room(pose, px, py, dims)
            if pose is None:
                continue
            fp = pose.footprint()
            overlap = sum(
                W.w_overlap * d * d for d in (penetration_depth(fp, o) for o in occupied) if d > 0.0
            )
            score = overlap + _per_call_cost(inst.standard_constraints, pose, dims, others)
            if best is None or score < best[0]:
                best = (score, pose)
    return best[1]


def test_compiled_standard_constraints_equal_the_per_call_penalty():
    doc = json.loads(
        resources.files("levelforge.data").joinpath("sh_hospital.json").read_text()
    )
    for mdef in doc["mechanics"]:
        mdef["standard_constraints"] = mdef["standard_constraints"] + _STANDARD_CONSTRAINTS
    db = load_database(json.dumps(doc).encode())
    level, _ = generate_level(LevelConfig(sa=SAParams(iterations=200)), db, "A-Baseline", 3)
    insts = [MechanicInstance.of(mdef, f"{mdef.name}#0") for mdef in db.mechanics]
    assert all(len(i.standard_constraints) >= len(_STANDARD_CONSTRAINTS) for i in insts)
    cstd = make_cstd_evaluator(level, W, seed=5)
    for room in level.rooms:
        others = [(f.def_name, f.pose) for f in level.facilities_in_room(room.id)]
        obstacles = level.stair_obstacles(room.id)
        for inst in insts:
            assert repr(cstd(inst, room.id)) == repr(_per_call_cstd(level, inst, room.id, 5))
            try:
                placed = place_mechanic_in_room(inst, room, others, Random(room.id), W, obstacles)
            except NoFreeSpace:
                continue
            expected = _per_call_placement(inst, room, others, Random(room.id), obstacles)
            assert repr(placed.pose) == repr(expected)


# -- experiment-group parameterizations ---------------------------------------------


def _floor_level(taus, floor=0):
    rooms = [
        make_room(t, (6.0 * i, 0.0), 6, 6, floor=floor, tau=t)
        for i, t in enumerate(taus)
    ]
    return make_level(rooms, width=80.0, length=6.0)


def test_baseline_group_targets_tau_midpoint(hospital_db):
    level = _floor_level(list(range(4, 13)))
    insts = db_group_mechanics("baseline", level, 0, hospital_db, W)
    assert len(insts) == 1
    rule = insts[0].topo[0]
    assert rule.kind == "topo_near"
    assert rule.anchor_tau == 8.0
    assert rule.threshold == W.topo_near_dmax
    assert insts[0].def_name == "FloorKey"


def test_speedrun_group_targets_floor_start(hospital_db):
    level = _floor_level([4, 5, 6, 7])
    insts = db_group_mechanics("speedrun", level, 0, hospital_db, W)
    assert insts[0].topo[0].anchor_tau == 4.0


def test_exploration_group_builds_three_spread_fragments(hospital_db):
    level = _floor_level([1, 2, 3, 4, 5, 6])
    insts = db_group_mechanics("exploration", level, 0, hospital_db, W)
    assert len(insts) == 3
    assert all(i.def_name == "KeyFragment" for i in insts)
    far_rules = [r for i in insts for r in i.topo if r.kind == "topo_far"]
    assert len(far_rules) == 3  # pairwise among three fragments
    assert all(r.strength == 3.0 for r in far_rules)
    precedes = [r for i in insts for r in i.topo if r.kind == "precedes"]
    assert len(precedes) == 3
    assert all(r.anchor_tau == 6.0 for r in precedes)  # exit = max tau (no stair)


def test_exploration_exit_anchor_uses_stair_room(hospital_db):
    level = _floor_level([1, 2, 3, 4, 5, 6])
    level.config.floors = 2
    level.stairs.append(Stair(room_id=4, x=21.0, y=3.0, dims=Dimensions(2, 2, 3)))
    insts = db_group_mechanics("exploration", level, 0, hospital_db, W)
    precedes = [r for i in insts for r in i.topo if r.kind == "precedes"]
    assert all(r.anchor_tau == 4.0 for r in precedes)


def test_db_group_candidates_stay_on_their_floor(hospital_db):
    rooms = [make_room(i, (6.0 * i, 0.0), 6, 6, floor=0, tau=i) for i in range(1, 4)]
    rooms += [make_room(i, (6.0 * (i - 4), 10.0), 6, 6, floor=1, tau=i) for i in range(4, 7)]
    level = make_level(rooms, width=80.0, length=20.0, floors=2)
    insts = db_group_mechanics("baseline", level, 1, hospital_db, W)
    assert set(insts[0].candidate_rooms) == {4, 5, 6}
