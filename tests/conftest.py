import os
from random import Random

import pytest
from hypothesis import settings

import levelforge

# `HYPOTHESIS_PROFILE=ci` draws the same examples on every run, so a failing
# bit-exactness property reproduces from the run's log. It is loaded here,
# before the test modules build their own settings on top of it.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# acceptance criteria outcomes, printed as one line each at session end
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:2d} {status} {detail}")
from levelforge.arrangement import LevelConfig
from levelforge.geometry import HALF_PI, Dimensions, Pose, clamp_into_room
from levelforge.layout import SAParams
from levelforge.level import (
    AdjacencyEdge,
    Door,
    FacilityInstance,
    Level,
    RoomInstance,
)


@pytest.fixture(scope="session")
def hospital_db():
    return levelforge.load_sample_database("sh_hospital")


@pytest.fixture(scope="session")
def minimal_db():
    return levelforge.load_sample_database("test_minimal")


def make_room(room_id, origin, w, l, floor=0, tau=None, arch="enclosed", template="Cell", h=3.0):
    return RoomInstance(
        id=room_id,
        template=template,
        floor=floor,
        origin=origin,
        dims=Dimensions(w, l, h),
        tau=tau if tau is not None else room_id,
        arch_type=arch,
    )


def make_level(rooms, doors=(), adjacency=(), stairs=(), width=50.0, length=50.0,
               height=30.0, floors=1, config=None):
    cfg = config or LevelConfig(width=width, length=length, height=height, floors=floors)
    return Level(
        config=cfg,
        rooms=list(rooms),
        doors=list(doors),
        adjacency=list(adjacency),
        stairs=list(stairs),
    )


def make_facility(fac_id, room_id, x, y, w=1.0, l=1.0, h=1.0, yaw=0.0, fixed=False,
                  def_name="Crate", constraints=()):
    return FacilityInstance(
        id=fac_id,
        def_name=def_name,
        room_id=room_id,
        pose=Pose(x, y, h / 2.0, yaw, Dimensions(w, l, h)),
        fixed=fixed,
        constraints=tuple(constraints),
    )


@pytest.fixture
def two_room_level():
    """Two enclosed 10x10 rooms side by side, door at the shared midpoint."""
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10, tau=1),
        make_room(2, (10.0, 0.0), 10, 10, tau=2),
    ]
    doors = [Door(1, 2, 10.0, 5.0)]
    adjacency = [AdjacencyEdge(1, 2, "door")]
    return make_level(rooms, doors, adjacency, width=20.0, length=10.0, height=3.0)


def fast_sa(iterations=150, restarts=1):
    return SAParams(iterations=iterations, restarts=restarts)


def crowded_level(rng: Random):
    """Four 10x10 rooms in a square (two enclosed, two open) joined by three
    doors and one open edge, holding 2-25 random facilities of 1-4 x 1-6 m
    at yaw 0 or 90 degrees, about 15% of them fixed."""
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10),
        make_room(2, (10.0, 0.0), 10, 10),
        make_room(3, (0.0, 10.0), 10, 10, arch="open"),
        make_room(4, (10.0, 10.0), 10, 10, arch="open"),
    ]
    doors = [
        Door(1, 2, 10.0, rng.uniform(1.0, 9.0)),
        Door(1, 3, rng.uniform(1.0, 9.0), 10.0),
        Door(2, 4, rng.uniform(11.0, 19.0), 10.0),
    ]
    adjacency = [AdjacencyEdge(d.room_a, d.room_b, "door") for d in doors]
    adjacency.append(AdjacencyEdge(3, 4, "open"))
    level = make_level(rooms, doors, adjacency, width=20, length=20, height=3.0)
    for k in range(rng.randint(2, 25)):
        room = rng.choice(rooms)
        dims = Dimensions(rng.uniform(1.0, 4.0), rng.uniform(1.0, 6.0), 1.0)
        pose = Pose(0.0, 0.0, 0.5, rng.choice((0.0, HALF_PI)), dims)
        pose = clamp_into_room(pose, rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0), room.dims)
        fixed = rng.random() < 0.15
        level.facilities.append(FacilityInstance(f"f{k}", "Crate", room.id, pose, fixed))
    return level
