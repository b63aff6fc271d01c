import json

import pytest

from levelforge.arrangement import (
    ArrangeState,
    LevelConfig,
    arrange_rooms,
    gen_candidate_room,
    place_doors,
)
from levelforge.database import load_database
from levelforge.errors import ArrangementFailed
from levelforge.seeding import derive_rng

from conftest import make_level, make_room


def single_template_db(w=10, l=10):
    return load_database(
        json.dumps(
            {
                "facilities": [],
                "rooms": [
                    {
                        "name": "Box",
                        "dimensions": {"width": w, "length": l, "height": 3},
                        "max_instances": 99,
                    }
                ],
                "mechanics": [],
            }
        )
    )


def test_single_room_fills_whole_level():
    db = single_template_db()
    config = LevelConfig(width=10, length=10, height=3, floors=1)
    level = arrange_rooms(config, db, derive_rng(0))
    assert len(level.rooms) == 1
    assert level.rooms[0].tau == 1
    assert level.stairs == []
    assert level.doors == []


def test_two_floor_level_places_stair_in_max_tau_room(minimal_db):
    config = LevelConfig(width=24, length=24, height=6, floors=2)
    level = arrange_rooms(config, minimal_db, derive_rng(3))
    floor0 = level.rooms_on_floor(0)
    floor1 = level.rooms_on_floor(1)
    assert len(floor0) >= 2 and len(floor1) >= 1
    assert len(level.stairs) == 1
    stair = level.stairs[0]
    last = max(floor0, key=lambda r: r.tau)
    assert stair.room_id == last.id
    assert stair.x, stair.y == last.center()
    # the next floor's seed room contains the stair point
    seed = min(floor1, key=lambda r: r.tau)
    x0, y0, x1, y1 = seed.footprint()
    assert x0 <= stair.x <= x1 and y0 <= stair.y <= y1


def test_same_seed_reproduces_identical_skeleton(hospital_db):
    config = LevelConfig(floors=3)
    a = arrange_rooms(config, hospital_db, derive_rng(11))
    b = arrange_rooms(config, hospital_db, derive_rng(11))
    assert a == b


def test_tau_values_are_contiguous_from_one(hospital_db):
    level = arrange_rooms(LevelConfig(), hospital_db, derive_rng(5))
    taus = sorted(r.tau for r in level.rooms)
    assert taus == list(range(1, len(level.rooms) + 1))


def test_stairs_exist_on_every_floor_but_last(hospital_db):
    level = arrange_rooms(LevelConfig(floors=3), hospital_db, derive_rng(5))
    floors_with_rooms = sorted({r.floor for r in level.rooms})
    stair_floors = sorted(
        level.room_by_id(s.room_id).floor for s in level.stairs
    )
    assert stair_floors == floors_with_rooms[:-1]
    for stair in level.stairs:
        floor = level.room_by_id(stair.room_id).floor
        last = max(level.rooms_on_floor(floor), key=lambda r: r.tau)
        assert stair.room_id == last.id


def test_rooms_never_overlap_and_stay_in_bounds(hospital_db):
    for seed in range(6):
        level = arrange_rooms(LevelConfig(), hospital_db, derive_rng(seed))
        rooms = level.rooms
        for r in rooms:
            x0, y0, x1, y1 = r.footprint()
            assert x0 >= 0 and y0 >= 0 and x1 <= 50 and y1 <= 50
        for i in range(len(rooms)):
            for j in range(i + 1, len(rooms)):
                a, b = rooms[i], rooms[j]
                if a.floor != b.floor:
                    continue
                ax0, ay0, ax1, ay1 = a.footprint()
                bx0, by0, bx1, by1 = b.footprint()
                overlap_x = min(ax1, bx1) - max(ax0, bx0)
                overlap_y = min(ay1, by1) - max(ay0, by0)
                assert not (overlap_x > 1e-9 and overlap_y > 1e-9), (a.id, b.id)


def test_template_instance_caps_respected(hospital_db):
    level = arrange_rooms(LevelConfig(), hospital_db, derive_rng(9))
    counts: dict[str, int] = {}
    for r in level.rooms:
        counts[r.template] = counts.get(r.template, 0) + 1
    for template in hospital_db.rooms:
        assert counts.get(template.name, 0) <= template.max_instances


def test_arrangement_fails_without_fitting_initial_room():
    db = single_template_db(w=30, l=30)
    with pytest.raises(ArrangementFailed):
        arrange_rooms(LevelConfig(width=10, length=10, floors=1), db, derive_rng(0))


# -- gen_candidate_room ----------------------------------------------------------


def _state(db, placed, width=50.0, length=50.0):
    return ArrangeState(
        level=make_level(placed, width=width, length=length),
        templates=list(db.rooms),
        usage={t.name: sum(1 for r in placed if r.template == t.name) for t in db.rooms},
        caps={t.name: t.max_instances for t in db.rooms},
    )


def test_no_candidate_against_level_boundary():
    db = single_template_db()
    current = make_room(1, (40.0, 0.0), 10, 10, template="Box")
    state = _state(db, [current])
    assert gen_candidate_room(current, "right", state, derive_rng(0)) is None


def test_no_candidate_when_caps_exhausted():
    db = load_database(
        json.dumps(
            {
                "facilities": [],
                "rooms": [
                    {
                        "name": "Box",
                        "dimensions": {"width": 10, "length": 10, "height": 3},
                        "max_instances": 1,
                    }
                ],
                "mechanics": [],
            }
        )
    )
    current = make_room(1, (0.0, 0.0), 10, 10, template="Box")
    state = _state(db, [current])
    assert gen_candidate_room(current, "right", state, derive_rng(0)) is None


def test_candidate_selection_prefers_satisfied_adjacency():
    db = load_database(
        json.dumps(
            {
                "facilities": [],
                "rooms": [
                    {
                        "name": "Annex",
                        "dimensions": {"width": 10, "length": 10, "height": 3},
                        "max_instances": 5,
                        "constraints": [
                            {"type": "AdjacentTo", "parameters": {"target": "Hub"}}
                        ],
                    },
                    {
                        "name": "Distant",
                        "dimensions": {"width": 10, "length": 10, "height": 3},
                        "max_instances": 5,
                        "constraints": [
                            {"type": "AdjacentTo", "parameters": {"target": "Mythical"}}
                        ],
                    },
                    {
                        "name": "Hub",
                        "dimensions": {"width": 10, "length": 10, "height": 3},
                        "max_instances": 5,
                    },
                    {
                        "name": "Mythical",
                        "dimensions": {"width": 10, "length": 10, "height": 3},
                        "max_instances": 5,
                    },
                ],
                "mechanics": [],
            }
        )
    )
    current = make_room(1, (0.0, 0.0), 10, 10, template="Hub")
    far_target = make_room(2, (40.0, 40.0), 10, 10, template="Mythical")
    state = _state(db, [current, far_target])
    # Annex adjacent to Hub scores 0; Distant's target is far away -> positive
    chosen = gen_candidate_room(current, "right", state, derive_rng(0))
    assert chosen.template == "Annex"


# -- place_doors -------------------------------------------------------------------


def test_door_lands_at_shared_wall_midpoint(two_room_level):
    level = place_doors(two_room_level)
    assert len(level.doors) == 1
    door = level.doors[0]
    assert (door.x, door.y) == (10.0, 5.0)
    assert [e.kind for e in level.adjacency] == ["door"]


def test_open_rooms_get_free_edge_not_door():
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10, arch="open"),
        make_room(2, (10.0, 0.0), 10, 10, arch="open"),
    ]
    level = place_doors(make_level(rooms, width=20, length=10))
    assert level.doors == []
    assert [e.kind for e in level.adjacency] == ["open"]


def test_single_room_floor_has_no_doors():
    level = place_doors(make_level([make_room(1, (0.0, 0.0), 10, 10)], width=10, length=10))
    assert level.doors == [] and level.adjacency == []
