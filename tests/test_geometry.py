from random import Random

import pytest

from levelforge.geometry import DOOR_WIDTH, Dimensions, random_pose, shared_segment


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
    class Room:
        width, length = 2.0, 8.0

    for seed in range(20):
        pose = random_pose(Dimensions(6.0, 1.0, 1.0), Room, Random(seed))
        x0, y0, x1, y1 = pose.footprint()
        assert 0.0 <= x0 and x1 <= Room.width and 0.0 <= y0 and y1 <= Room.length
    assert random_pose(Dimensions(3.0, 9.0, 1.0), Room, Random(0)) is None
