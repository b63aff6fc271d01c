import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge.constraints import (
    AXIS_FUNCTIONS,
    FACILITY_KINDS,
    ConstraintSpec,
    compile_facility_term,
    eval_room_penalty,
)
from levelforge.errors import UnknownKind
from levelforge.geometry import HALF_PI, Dimensions, Pose, penetration_depth

from conftest import make_facility, make_room
from oracles import (
    eval_facility_penalty,
    reference_facility_penalty,
    total_constraint_penalty,
)

ROOM = Dimensions(20.0, 20.0, 3.0)
REL = 1e-9


def pose(x, y, z=0.5, yaw=0.0, w=1.0, l=1.0, h=1.0):
    return Pose(x, y, z, yaw, Dimensions(w, l, h))


def assert_close(value, expected):
    assert value == pytest.approx(expected, rel=REL)


# -- facility tier: hand-evaluated table values --------------------------------

def test_near_penalty_fires_beyond_threshold():
    spec = ConstraintSpec("Near", {"target": "T", "d_min": 5.0}, weight=10.0)
    value = eval_facility_penalty(spec, pose(0, 0), ROOM, [("T", pose(8, 0))])
    assert_close(value, 10.0 * (5.0 - 8.0) ** 2)  # 90


def test_near_is_zero_at_or_under_threshold():
    spec = ConstraintSpec("Near", {"target": "T", "d_min": 5.0}, weight=10.0)
    assert eval_facility_penalty(spec, pose(0, 0), ROOM, [("T", pose(5, 0))]) == 0.0
    assert eval_facility_penalty(spec, pose(0, 0), ROOM, [("T", pose(3, 0))]) == 0.0


def test_far_boundary_case_is_zero():
    spec = ConstraintSpec("Far", {"target": "T", "d_max": 10.0}, weight=15.0)
    assert eval_facility_penalty(spec, pose(0, 0), ROOM, [("T", pose(10, 0))]) == 0.0


def test_far_penalty_inside_threshold():
    spec = ConstraintSpec("Far", {"target": "T", "d_max": 10.0}, weight=15.0)
    value = eval_facility_penalty(spec, pose(0, 0), ROOM, [("T", pose(4, 0))])
    assert_close(value, 15.0 * (4.0 - 10.0) ** 2)


def test_unresolved_target_scores_zero():
    spec = ConstraintSpec("Near", {"target": "Ghost", "d_min": 5.0}, weight=10.0)
    assert eval_facility_penalty(spec, pose(0, 0), ROOM, []) == 0.0


def _segment_hits_box_bruteforce(p0, p1, box, samples=20000):
    # independent oracle: dense sampling along the open segment
    for i in range(1, samples):
        t = i / samples
        x = p0[0] + (p1[0] - p0[0]) * t
        y = p0[1] + (p1[1] - p0[1]) * t
        z = p0[2] + (p1[2] - p0[2]) * t
        if (
            box[0] < x < box[3]
            and box[1] < y < box[4]
            and box[2] < z < box[5]
        ):
            return True
    return False


def test_can_see_binary_values_and_bruteforce_agreement():
    spec = ConstraintSpec("CanSee", {"target": "T"}, weight=2.0)
    subject = pose(0, 5)
    target = pose(10, 5)
    occluder = ("Box", pose(5, 5, w=2.0, l=2.0, h=2.0, z=1.0))
    blocked = eval_facility_penalty(spec, subject, ROOM, [("T", target), occluder])
    assert blocked == 2.0
    clear = eval_facility_penalty(
        spec, subject, ROOM, [("T", target), ("Box", pose(5, 12, w=2.0, l=2.0))]
    )
    assert clear == 0.0
    # oracle agreement on both configurations
    p0 = (subject.x, subject.y, subject.z)
    p1 = (target.x, target.y, target.z)
    assert _segment_hits_box_bruteforce(p0, p1, occluder[1].box3d())
    assert not _segment_hits_box_bruteforce(p0, p1, pose(5, 12, w=2.0, l=2.0).box3d())


def test_place_by_wall_combines_distance_and_orientation():
    spec = ConstraintSpec("PlaceByWall", {"orientation": 0.0}, weight=20.0)
    subject = pose(3.0, 3.0, yaw=math.pi / 2)
    # nearest wall gap: footprint edge at 2.5 -> 2.5; angle pi/2
    expected = 20.0 * (2.5 + math.pi / 2) ** 2
    assert_close(eval_facility_penalty(spec, subject, ROOM, []), expected)
    hugging = pose(0.5, 10.0)  # footprint touches the x=0 wall, aligned
    assert eval_facility_penalty(spec, hugging, ROOM, []) == 0.0


def test_place_in_range_distance_outside_box():
    spec = ConstraintSpec(
        "PlaceInRange", {"p1": [0, 0, 0], "p2": [5, 5, 3]}, weight=20.0
    )
    inside = pose(2, 2)
    assert eval_facility_penalty(spec, inside, ROOM, []) == 0.0
    outside = pose(8, 9)  # (3, 4) beyond the corner -> distance 5
    assert_close(eval_facility_penalty(spec, outside, ROOM, []), 20.0 * 25.0)


def test_focus_penalizes_angle_beyond_threshold():
    spec = ConstraintSpec("Focus", {"target": "T", "phi_th": 0.2}, weight=10.0)
    subject = pose(0, 0, yaw=math.pi / 2)  # target sits along +x
    value = eval_facility_penalty(spec, subject, ROOM, [("T", pose(5, 0))])
    assert_close(value, 10.0 * (math.pi / 2 - 0.2) ** 2)
    aligned = pose(0, 0, yaw=0.1)
    assert eval_facility_penalty(spec, aligned, ROOM, [("T", pose(5, 0))]) == 0.0


def test_alignment_angle_against_axis():
    spec = ConstraintSpec("Alignment", {"target": "T", "axis": "x"}, weight=15.0)
    assert eval_facility_penalty(spec, pose(0, 0), ROOM, [("T", pose(7, 0))]) == 0.0
    off = eval_facility_penalty(spec, pose(0, 0), ROOM, [("T", pose(5, 5))])
    assert_close(off, 15.0 * (math.pi / 4) ** 2)


def test_orientation_matches_yaw():
    spec = ConstraintSpec("Orientation", {"target": "T"}, weight=20.0)
    value = eval_facility_penalty(
        spec, pose(0, 0, yaw=math.pi / 2), ROOM, [("T", pose(5, 0, yaw=0.0))]
    )
    assert_close(value, 20.0 * (math.pi / 2) ** 2)


def test_axis_function_centered_xy():
    spec = ConstraintSpec("AxisFunction", {"function": "centered_xy"}, weight=20.0)
    assert eval_facility_penalty(spec, pose(10, 10), ROOM, []) == 0.0
    value = eval_facility_penalty(spec, pose(10, 13), ROOM, [])
    assert_close(value, 20.0 * 9.0)


def test_room_tier_kind_rejected_by_facility_eval():
    with pytest.raises(UnknownKind):
        eval_facility_penalty(ConstraintSpec("AdjacentTo", {"target": "X"}), pose(0, 0), ROOM, [])


# -- overlap -------------------------------------------------------------------

def overlap_depth(a, b):
    return penetration_depth(a.footprint(), b.footprint())


def test_overlap_of_identical_unit_boxes():
    a, b = pose(5, 5), pose(5, 5)
    assert_close(overlap_depth(a, b), 1.0)


def test_overlap_zero_when_sharing_a_face_or_disjoint():
    assert overlap_depth(pose(5, 5), pose(6, 5)) == 0.0
    assert overlap_depth(pose(5, 5), pose(9, 5)) == 0.0


@given(
    ax=st.floats(0, 20),
    ay=st.floats(0, 20),
    bx=st.floats(0, 20),
    by=st.floats(0, 20),
    w=st.floats(0.1, 3),
    l=st.floats(0.1, 3),
)
@settings(max_examples=60, deadline=None)
def test_overlap_is_symmetric_and_non_negative(ax, ay, bx, by, w, l):
    a = pose(ax, ay, w=w, l=l)
    b = pose(bx, by, w=l, l=w)
    left = overlap_depth(a, b)
    right = overlap_depth(b, a)
    assert left == right
    assert left >= 0.0


# -- room tier -------------------------------------------------------------------

def test_adjacent_rooms_sharing_wall_score_zero():
    a = make_room(1, (0.0, 0.0), 10, 10, template="Ward")
    b = make_room(2, (10.0, 0.0), 10, 10, template="Storage")
    spec = ConstraintSpec("AdjacentTo", {"target": "Storage"}, weight=10.0)
    assert eval_room_penalty(spec, a, [a, b], (50, 50, 30)) == 0.0


def test_adjacency_miss_scores_center_gap():
    a = make_room(1, (0.0, 0.0), 10, 10, template="Ward")
    b = make_room(2, (12.0, 0.0), 4, 10, template="Storage")  # centers 5 and 14 -> gap 9? no: 14-5=9
    spec = ConstraintSpec("AdjacentTo", {"target": "Storage"}, weight=10.0)
    # center distance: a center (5,5), b center (14,5) -> 9; weight 10 -> 90
    assert_close(eval_room_penalty(spec, a, [a, b], (50, 50, 30)), 90.0)


def test_adjacency_center_gap_seven_scores_seventy():
    a = make_room(1, (0.0, 0.0), 6, 6, template="Ward")
    b = make_room(2, (7.0, 0.0), 6, 6, template="Storage")  # centers 3 and 10 -> gap 7
    spec = ConstraintSpec("AdjacentTo", {"target": "Storage"}, weight=10.0)
    assert_close(eval_room_penalty(spec, a, [a, b], (50, 50, 30)), 70.0)


def test_separation_at_zero_distance_hits_epsilon_cap():
    a = make_room(1, (0.0, 0.0), 10, 10, template="Ward")
    b = make_room(2, (0.0, 0.0), 10, 10, template="Morgue")
    spec = ConstraintSpec("SeparateFrom", {"target": "Morgue"}, weight=15.0)
    assert_close(eval_room_penalty(spec, a, [a, b], (50, 50, 30)), 15.0 / 0.1)


def test_structural_kinds_rejected_by_room_eval():
    a = make_room(1, (0.0, 0.0), 10, 10)
    with pytest.raises(UnknownKind):
        eval_room_penalty(ConstraintSpec("MaxInstances", {"count": 1}), a, [a], (50, 50, 30))
    with pytest.raises(UnknownKind):
        eval_room_penalty(ConstraintSpec("Near", {"target": "X"}), a, [a], (50, 50, 30))


# -- totals and generic invariants --------------------------------------------

def test_total_penalty_is_additive():
    specs = (
        ConstraintSpec("Near", {"target": "T", "d_min": 5.0}, weight=10.0),
        ConstraintSpec("Near", {"target": "T", "d_min": 5.0}, weight=10.0),
    )
    fac = make_facility("f", 1, 0.0, 0.0, constraints=specs)
    others = [("T", pose(8, 0))]
    total = total_constraint_penalty(fac, ROOM, others)
    assert_close(total, 180.0)


def test_total_penalty_empty_constraints_is_zero():
    fac = make_facility("f", 1, 3.0, 3.0)
    assert total_constraint_penalty(fac, ROOM, []) == 0.0


def test_total_matches_per_constraint_oracle_on_random_configs():
    import random

    rng = random.Random(7)
    kinds = ["Near", "Far", "CanSee", "Alignment", "Orientation", "PlaceByWall"]
    for _ in range(50):
        specs = tuple(
            ConstraintSpec(
                rng.choice(kinds),
                {"target": "T", "axis": "x"},
                weight=rng.uniform(0.5, 20.0),
            )
            for _ in range(rng.randrange(1, 4))
        )
        fac = make_facility(
            "f", 1, rng.uniform(1, 19), rng.uniform(1, 19), yaw=rng.randrange(4) * math.pi / 2,
            constraints=specs,
        )
        others = [
            ("T", pose(rng.uniform(1, 19), rng.uniform(1, 19))),
            ("B", pose(rng.uniform(1, 19), rng.uniform(1, 19), w=2.0, l=2.0, h=2.0, z=1.0)),
        ]
        expected = sum(
            eval_facility_penalty(s, fac.pose, ROOM, others) for s in specs
        )
        assert total_constraint_penalty(fac, ROOM, others) == pytest.approx(expected, rel=1e-12)


_KIND_CASES = [
    (ConstraintSpec("Near", {"target": "T", "d_min": 5.0}, weight=2.0), [("T", pose(9, 0))]),
    (ConstraintSpec("Far", {"target": "T", "d_max": 10.0}, weight=2.0), [("T", pose(3, 0))]),
    (ConstraintSpec("PlaceByWall", {}, weight=2.0), []),
    (ConstraintSpec("AxisFunction", {"function": "centered_xy"}, weight=2.0), []),
    (
        ConstraintSpec("PlaceInRange", {"p1": [0, 0, 0], "p2": [2, 2, 2]}, weight=2.0),
        [],
    ),
    (ConstraintSpec("Focus", {"target": "T", "phi_th": 0.1}, weight=2.0), [("T", pose(0, 9))]),
    (ConstraintSpec("Alignment", {"target": "T", "axis": "x"}, weight=2.0), [("T", pose(4, 9))]),
    (ConstraintSpec("Orientation", {"target": "T"}, weight=2.0), [("T", pose(4, 9, yaw=1.0))]),
    (
        ConstraintSpec("CanSee", {"target": "T"}, weight=2.0),
        [("T", pose(9, 9)), ("B", pose(5, 5, w=3.0, l=3.0, h=3.0, z=1.5))],
    ),
]


@pytest.mark.parametrize("spec,others", _KIND_CASES)
def test_every_kind_scales_linearly_in_weight(spec, others):
    subject = pose(4.0, 4.0, yaw=0.3)
    base = eval_facility_penalty(spec, subject, ROOM, others)
    doubled_spec = ConstraintSpec(spec.kind, spec.params, weight=spec.weight * 2)
    doubled = eval_facility_penalty(doubled_spec, subject, ROOM, others)
    assert doubled == pytest.approx(2 * base, rel=1e-12)
    assert base > 0.0  # cases chosen to be violating, so linearity is non-trivial


@pytest.mark.parametrize("spec,others", _KIND_CASES)
def test_every_kind_is_finite_and_non_negative_on_a_pose_sweep(spec, others):
    for x in (0.5, 5.0, 12.5, 19.5):
        for y in (0.5, 7.5, 19.5):
            for yaw in (0.0, math.pi / 2):
                v = eval_facility_penalty(spec, pose(x, y, yaw=yaw), ROOM, others)
                assert v >= 0.0 and math.isfinite(v)


# -- facility tier: compiled terms against the reference formulas ---------------

# a coarse grid makes equal distances (ties for the nearest target), shared
# centres (Focus and Alignment at zero offset) and boxes on a line of sight
_COORDS = st.sampled_from([0.0, 1.0, 2.5, 4.0])
_YAWS = st.one_of(st.sampled_from([0.0, HALF_PI, math.pi, 3 * HALF_PI]), st.floats(-7.0, 7.0))
_NAMES = ["A", "B", "C"]


@st.composite
def _spec(draw):
    kind = draw(st.sampled_from(sorted(FACILITY_KINDS)))
    target = draw(st.sampled_from(_NAMES))
    opt = st.floats(0.0, 8.0)
    if kind == "AxisFunction":
        params = {"function": draw(st.sampled_from(sorted(AXIS_FUNCTIONS)))}
    elif kind == "PlaceInRange":
        params = {"p1": [draw(_COORDS) for _ in range(3)], "p2": [draw(_COORDS) for _ in range(3)]}
    elif kind == "PlaceByWall":
        params = draw(st.sampled_from([{}, {"orientation": draw(_YAWS)}]))
    elif kind == "Near":
        params = draw(st.sampled_from([{"target": target}, {"target": target, "d_min": draw(opt)}]))
    elif kind == "Far":
        params = draw(st.sampled_from([{"target": target}, {"target": target, "d_max": draw(opt)}]))
    elif kind == "Focus":
        params = draw(
            st.sampled_from(
                [
                    {"target": target},
                    {"target": target, "phi_th": draw(st.floats(0.0, 3.0))},
                    {"point": [draw(_COORDS), draw(_COORDS)]},
                ]
            )
        )
    elif kind == "Alignment":
        params = draw(st.sampled_from([{"target": target}, {"target": target, "axis": "y"}]))
    else:  # CanSee, Orientation
        params = {"target": target}
    weight = draw(st.sampled_from([None, 0.0, 3.5, -4.0]))
    return ConstraintSpec(kind, params, weight)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_compiled_terms_equal_the_reference_formulas(data):
    draw = data.draw
    room = Dimensions(draw(st.sampled_from([4, 6.0, 9.5])), draw(st.sampled_from([5, 8.0])), 3.0)
    n = draw(st.integers(1, 6))
    names = [draw(st.sampled_from(_NAMES)) for _ in range(n)]
    poses = []
    for i in range(n):
        x, y = draw(_COORDS), draw(_COORDS)
        if i and draw(st.booleans()):
            # on the previous centre: a tie, or a target at zero offset
            x, y = poses[-1].x, poses[-1].y
        dims = Dimensions(
            draw(st.sampled_from([0.5, 1.0, 3.0])), draw(st.sampled_from([1.0, 2.0])), 1.0
        )
        poses.append(Pose(x, y, draw(st.sampled_from([0.5, 1.0])), draw(_YAWS), dims))
    fps = [p.footprint() for p in poses]
    for i in range(n):
        others = [(names[j], poses[j]) for j in range(n) if j != i]
        for spec in draw(st.lists(_spec(), min_size=1, max_size=4)):
            expected = reference_facility_penalty(spec, poses[i], room, others)
            compiled = compile_facility_term(spec, i, names, room)(poses, fps)
            # repr tells floats apart bit for bit, -0.0 from 0.0 too
            assert repr(compiled) == repr(expected)
            assert repr(eval_facility_penalty(spec, poses[i], room, others)) == repr(expected)
