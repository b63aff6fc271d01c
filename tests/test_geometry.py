import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from levelforge import constraints, harness, strategies
from levelforge.constraints import ConstraintSpec, compile_facility_penalty
from levelforge.geometry import (
    DOOR_WIDTH,
    HALF_PI,
    Dimensions,
    Pose,
    clamp_into_room,
    fits,
    is_finite,
    is_integer,
    is_number,
    mean_std,
    random_pose,
    shared_segment,
    summed,
)
from levelforge.navsim import MetricsRecord
from levelforge.strategies import FloorGraph

from conftest import make_room


@pytest.mark.parametrize(
    "value, number, integer, finite",
    [
        (3, True, True, True),
        (-2.5, True, False, True),
        (10**400, True, True, True),  # too large for math.isfinite, yet finite
        (math.nan, True, False, False),
        (-math.inf, True, False, False),
        (True, False, False, False),  # a bool is not a number
        ("3", False, False, False),
        (None, False, False, False),
        ([1.0], False, False, False),
    ],
)
def test_value_predicates(value, number, integer, finite):
    assert (is_number(value), is_integer(value), is_finite(value)) == (number, integer, finite)


@pytest.mark.parametrize(
    "width, valid",
    [(2.0, True), (2, True), (0.0, False), (-1.0, False), (math.inf, False), (True, False)],
)
def test_dimensions_are_valid_when_each_is_a_finite_number_above_zero(width, valid):
    assert Dimensions(width, 1.0, 1.0).is_valid() is valid


@pytest.mark.parametrize(
    "fa, fb, expected",
    [
        # x-touch: b sits right of a; the wall runs along y over the overlap
        ((0, 0, 6, 6), (6, 2, 12, 10), ("x", 6, 2, 6)),
        ((6, 2, 12, 10), (0, 0, 6, 6), ("x", 6, 2, 6)),
        # y-touch: b sits above a; the wall runs along x
        ((0, 0, 6, 6), (1, 6, 4, 9), ("y", 6, 1, 4)),
        # contact exactly one door wide still hosts a door
        ((0, 0, 6, 6), (6, 6 - DOOR_WIDTH, 8, 9), ("x", 6, 6 - DOOR_WIDTH, 6)),
        # corner contact only
        ((0, 0, 6, 6), (6, 6, 9, 9), None),
        # contact shorter than a door
        ((0, 0, 6, 6), (6, 6 - DOOR_WIDTH / 2, 8, 9), None),
        # overlapping footprints share no wall
        ((0, 0, 6, 6), (3, 3, 9, 9), None),
        # apart
        ((0, 0, 6, 6), (7, 0, 12, 6), None),
    ],
)
def test_shared_segment_table(fa, fb, expected):
    assert shared_segment(fa, fb) == expected


def test_random_pose_turns_to_fit_and_gives_up_when_neither_way_fits():
    room = Dimensions(2.0, 8.0, 1.0)
    for seed in range(20):
        pose = random_pose(Dimensions(6.0, 1.0, 1.0), room, Random(seed))
        x0, y0, x1, y1 = pose.footprint()
        assert 0.0 <= x0 and x1 <= room.width and 0.0 <= y0 and y1 <= room.length
    assert random_pose(Dimensions(3.0, 9.0, 1.0), room, Random(0)) is None


sizes = st.floats(min_value=0.05, max_value=20.0)
coords = st.floats(min_value=-40.0, max_value=40.0)


@given(w=sizes, l=sizes, room_w=sizes, room_l=sizes, quarter=st.integers(0, 3), x=coords, y=coords)
def test_clamp_puts_the_footprint_inside_the_room_whenever_it_fits(
    w, l, room_w, room_l, quarter, x, y
):
    room = Dimensions(room_w, room_l, 3.0)
    pose = Pose(0.0, 0.0, 0.5, quarter * HALF_PI, Dimensions(w, l, 1.0))
    across, along = (w, l) if quarter % 2 == 0 else (l, w)
    clamped = clamp_into_room(pose, x, y, room)
    assert (clamped is None) == (across > room_w or along > room_l)
    if clamped is not None:
        x0, y0, x1, y1 = clamped.footprint()
        eps = 1e-9
        assert -eps <= x0 and x1 <= room_w + eps and -eps <= y0 and y1 <= room_l + eps
        assert clamped.yaw == pose.yaw


@given(w=sizes, l=sizes, room_w=sizes, room_l=sizes, seed=st.integers(0, 2**32))
def test_fits_exactly_when_random_pose_finds_a_pose(w, l, room_w, room_l, seed):
    dims, room = Dimensions(w, l, 1.0), Dimensions(room_w, room_l, 1.0)
    assert fits(dims, room) == (random_pose(dims, room, Random(seed)) is not None)


# -- float totals ----------------------------------------------------------------


def test_summed_adds_left_to_right_from_zero():
    assert summed([0.1] * 10) == 0.9999999999999999  # math.fsum gives 1.0
    assert summed([]) == 0.0 and type(summed([])) is float
    assert summed(iter([1e16, 1.0, 1.0])) == 1e16  # each 1.0 is rounded away
    assert math.copysign(1.0, summed([-0.0])) == 1.0  # 0.0 + -0.0, as builtin sum


def test_mean_std_divides_by_n_minus_one_for_a_sample_and_by_n_for_a_population():
    assert mean_std([], sample=True) == mean_std([], sample=False) == (0.0, 0.0)
    assert mean_std([2.5], sample=True) == mean_std([2.5], sample=False) == (2.5, 0.0)
    assert mean_std([1.0, 3.0], sample=True) == (2.0, math.sqrt(2.0))
    assert mean_std([1.0, 3.0], sample=False) == (2.0, 1.0)


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _compensated_sum(values):
    """Builtin `sum` over floats as Python 3.12 and later run it (Neumaier)."""
    total, c = 0.0, 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c


def test_float_totals_do_not_depend_on_the_builtin_sum(monkeypatch):
    # the compensated sum stands in for a newer Python's builtin; every float
    # total must keep its left-to-right value
    assert _compensated_sum([0.1] * 10) != _left_to_right([0.1] * 10)
    for module in (harness, strategies, constraints):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)

    records = [
        MetricsRecord(f"L{i}", "A-Baseline", i, "valid", repair_time=0.1) for i in range(10)
    ]
    stats = harness.compute_stats(records, ("A-Baseline",), total_cells=100)
    mean = _left_to_right([0.1] * 10) / 10
    std = math.sqrt(_left_to_right([(0.1 - mean) ** 2] * 10) / 9)
    repair = stats.metrics["A-Baseline"]["repair_time"]
    assert (repair.mean, repair.std) == (mean, std)

    # ten neighbours 1.1 m from room 0's centre
    rooms = {i: make_room(i, (1.1 if i else 0.0, 0.0), 4, 4) for i in range(11)}
    graph = FloorGraph(0, tuple(rooms), {0: tuple(range(1, 11))}, rooms, 0, 10)
    d = math.hypot(2.0 - (1.1 + 2.0), 0.0)
    mean = _left_to_right([d] * 10) / 10
    spread = math.sqrt(_left_to_right([(d - mean) ** 2] * 10) / 10)
    assert spread > 0.0
    assert strategies._neighbor_distance_spread(graph, 0) == spread

    # ten Near rows, each 1 m beyond its d_min at weight 0.1: ten terms of 0.1
    near = ConstraintSpec("Near", {"target": "T", "d_min": 2.0}, weight=0.1)
    target = Pose(4.0, 1.0, 0.5, 0.0, Dimensions(1.0, 1.0, 1.0))
    penalty = compile_facility_penalty([near] * 10, Dimensions(6.0, 6.0, 3.0), [("T", target)])
    assert penalty(target.moved(1.0, 1.0)) == _left_to_right([0.1] * 10)
