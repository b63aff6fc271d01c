import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    random_pose,
    shared_segment,
)


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
