import heapq
import math
from itertools import chain, islice
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from levelforge import navsim
from levelforge.errors import UnreachableRoom
from levelforge.geometry import Dimensions, Pose
from levelforge.level import AdjacencyEdge, Door, Stair
from levelforge.navsim import (
    DOOR,
    FACILITY,
    FREE,
    STAIR,
    WALL,
    AgentParams,
    NavGrid,
    agent_repair,
    astar_path,
    build_nav_grid,
    flood_fill_room,
    geometric_repair,
    rerun_validation,
    simulate_objectives,
    target_cell,
    traversal_time,
)

from conftest import crowded_level, make_facility, make_level, make_room

AGENT = AgentParams()


def single_room_level(w=10, l=10):
    return make_level([make_room(1, (0.0, 0.0), w, l)], width=w, length=l, height=3.0)


# -- grid construction ------------------------------------------------------------


def test_empty_room_has_interior_free_ring_wall():
    grid = build_nav_grid(single_room_level())
    state = oracles.cell_kinds(grid)[0]
    assert int((state == FREE).sum()) == 64  # 8x8 interior
    assert state[0, 0] == WALL and state[9, 9] == WALL
    assert state[5, 5] == FREE


def test_centered_two_by_two_facility_blocks_exactly_four_cells():
    level = single_room_level()
    level.facilities.append(make_facility("f", 1, 5.0, 5.0, w=2.0, l=2.0))
    grid = build_nav_grid(level)
    blocked = np.argwhere(oracles.cell_kinds(grid)[0] == FACILITY)
    assert sorted(map(tuple, blocked.tolist())) == [(4, 4), (4, 5), (5, 4), (5, 5)]


def test_door_cells_are_traversable(two_room_level):
    grid = build_nav_grid(two_room_level)
    state = oracles.cell_kinds(grid)[0]
    assert state[9, 5] == DOOR
    assert state[10, 5] == DOOR
    path = astar_path(grid, (0, 5, 5), (0, 15, 5))
    assert path is not None


def test_open_edge_opens_full_shared_segment():
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10, arch="open"),
        make_room(2, (10.0, 0.0), 10, 10, arch="open"),
    ]
    level = make_level(rooms, adjacency=[AdjacencyEdge(1, 2, "open")], width=20, length=10)
    state = oracles.cell_kinds(build_nav_grid(level))[0]
    assert int((state[9, :] == DOOR).sum()) == 10
    assert int((state[10, :] == DOOR).sum()) == 10


def test_stair_cells_link_floors():
    r1 = make_room(1, (0.0, 0.0), 10, 10, floor=0, tau=1)
    r2 = make_room(2, (0.0, 0.0), 10, 10, floor=1, tau=2)
    stair = Stair(room_id=1, x=5.0, y=5.0, dims=Dimensions(2, 2, 3))
    level = make_level([r1, r2], stairs=[stair], width=10, length=10, height=6, floors=2)
    grid = build_nav_grid(level)
    state = oracles.cell_kinds(grid)
    assert state[0][4, 4] == STAIR and state[1][4, 4] == STAIR
    path = astar_path(grid, (0, 2, 2), (1, 7, 7))
    assert path is not None
    assert any(a[0] != b[0] for a, b in zip(path, path[1:]))


# -- flood fill -----------------------------------------------------------------


def two_door_room():
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10),
        make_room(2, (10.0, 0.0), 10, 10),
        make_room(3, (0.0, 10.0), 10, 10),
    ]
    doors = [Door(1, 2, 10.0, 5.0), Door(1, 3, 5.0, 10.0)]
    adjacency = [AdjacencyEdge(1, 2, "door"), AdjacencyEdge(1, 3, "door")]
    return make_level(rooms, doors, adjacency, width=20, length=20)


def test_doorway_table_records_each_rooms_side():
    grid = build_nav_grid(two_door_room())
    assert grid.doorways == {
        1: {(1, 2): [(0, 9, 5)], (1, 3): [(0, 5, 9)]},
        2: {(1, 2): [(0, 10, 5)]},
        3: {(1, 3): [(0, 5, 10)]},
    }


def test_empty_room_with_two_doors_has_no_blockage():
    level = two_door_room()
    grid = build_nav_grid(level)
    result = flood_fill_room(level, grid, level.room_by_id(1))
    assert result.blocked == []
    assert len(grid.doorways[1]) == 2


def test_bisecting_wall_blocks_both_doorways():
    level = two_door_room()
    # wall-to-wall slab between the two doorways of room 1
    level.facilities.append(
        make_facility("slab", 1, 5.0, 7.75, w=10.0, l=1.5, fixed=True)
    )
    grid = build_nav_grid(level)
    result = flood_fill_room(level, grid, level.room_by_id(1))
    assert sorted(result.blocked) == [(1, 2), (1, 3)]


def test_flood_region_matches_bfs_oracle():
    rng = Random(4)
    for _ in range(20):
        level = two_door_room()
        for k in range(rng.randrange(0, 7)):
            level.facilities.append(
                make_facility(
                    f"f{k}", 1, rng.uniform(1, 9), rng.uniform(1, 9),
                    w=rng.choice([1.0, 2.0]), l=rng.choice([1.0, 2.0]),
                )
            )
        grid = build_nav_grid(level)
        room = level.room_by_id(1)
        result = flood_fill_room(level, grid, room)
        assert (result.regions, result.blocked) == oracles.flood_fill_room(grid, room)
    for level, grid in _crowded_stages():
        for room in level.rooms:
            result = flood_fill_room(level, grid, room)
            assert (result.regions, result.blocked) == oracles.flood_fill_room(grid, room)


def _crowded_stages():
    """Each of the 150 crowded levels as built and after each repair phase,
    so that the `walk` edits of `_mark_facility` and `_clear_facility` made
    after a search of the grid are covered."""
    for case in range(150):
        level = crowded_level(Random(case))
        grid = build_nav_grid(level)
        yield level, grid
        geometric_repair(level, grid)
        yield level, grid
        agent_repair(level, AGENT, grid)
        yield level, grid


# -- phase 1 repair -----------------------------------------------------------------


def test_facility_on_door_cell_gets_repositioned(two_room_level):
    level = two_room_level
    level.facilities.append(make_facility("blocker", 1, 9.5, 5.5))  # covers cell (9,5)
    grid = build_nav_grid(level)
    before = flood_fill_room(level, grid, level.room_by_id(1))
    assert before.blocked == [(1, 2)]
    assert geometric_repair(level, grid) == 1
    after = flood_fill_room(level, grid, level.room_by_id(1))
    assert after.blocked == []


def test_fixed_blockage_survives_phase_one(two_room_level):
    level = two_room_level
    level.facilities.append(make_facility("sealed", 1, 9.5, 5.5, fixed=True))
    grid = build_nav_grid(level)
    assert geometric_repair(level, grid) == 0
    assert flood_fill_room(level, grid, level.room_by_id(1)).blocked == [(1, 2)]


def test_phase_one_never_increases_blockage_count():
    rng = Random(8)
    for _ in range(200):
        level = two_door_room()
        for k in range(rng.randrange(0, 8)):
            level.facilities.append(
                make_facility(
                    f"f{k}", 1, rng.uniform(0.8, 9.2), rng.uniform(0.8, 9.2),
                    w=rng.choice([1.0, 2.0, 3.0]), l=rng.choice([1.0, 2.0]),
                    fixed=rng.random() < 0.2,
                )
            )
        grid = build_nav_grid(level)
        room = level.room_by_id(1)
        before = len(flood_fill_room(level, grid, room).blocked)
        geometric_repair(level, grid)
        after = len(flood_fill_room(level, grid, room).blocked)
        assert after <= before


def four_doorway_room():
    """Room 1 (10x10) in the middle of a 30x30 level, one open edge and
    three doors to its four neighbours."""
    rooms = [
        make_room(1, (10.0, 10.0), 10, 10, arch="open"),
        make_room(2, (20.0, 10.0), 10, 10, arch="open"),
        make_room(3, (0.0, 10.0), 10, 10),
        make_room(4, (10.0, 20.0), 10, 10),
        make_room(5, (10.0, 0.0), 10, 10),
    ]
    doors = [Door(1, 3, 10.0, 15.0), Door(1, 4, 15.0, 20.0), Door(1, 5, 15.0, 10.0)]
    adjacency = [AdjacencyEdge(1, 2, "open")] + [
        AdjacencyEdge(1, other, "door") for other in (3, 4, 5)
    ]
    return make_level(rooms, doors, adjacency, width=30, length=30)


_boxes = st.lists(
    st.tuples(
        st.integers(1, 4), st.integers(1, 4),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(boxes=_boxes, pick=st.integers(0, 7))
def test_blockage_is_monotone_in_one_facilitys_cells(boxes, pick):
    # the phase-1 prune relies on this: lifting a facility never blocks a
    # doorway, and putting it anywhere else never frees one that stayed blocked
    level = four_doorway_room()
    for k, (w, l, u, v) in enumerate(boxes):
        level.facilities.append(
            make_facility(f"f{k}", 1, w / 2 + u * (10 - w), l / 2 + v * (10 - l), w=w, l=l)
        )
    grid = build_nav_grid(level)
    room = level.room_by_id(1)
    fac = level.facilities[pick % len(boxes)]
    full = set(flood_fill_room(level, grid, room).blocked)
    navsim._clear_facility(grid, level, fac)
    lifted = set(flood_fill_room(level, grid, room).blocked)
    navsim._mark_facility(grid, level, fac)
    assert lifted <= full
    home = fac.pose
    for pose in islice(navsim._relocations(level, grid, fac, room, lambda cells: True), 12):
        navsim._move_facility(grid, level, fac, pose)
        assert lifted <= set(flood_fill_room(level, grid, room).blocked)
        navsim._move_facility(grid, level, fac, home)


def test_hopeless_blocker_is_skipped_without_trying_poses(two_room_level, monkeypatch):
    # the bystander shares the door cell with a fixed seal: lifting it
    # leaves the doorway sealed, so none of its poses is worth a flood
    level = two_room_level
    level.facilities.append(make_facility("bystander", 1, 9.0, 5.0, w=2.0, l=2.0))
    level.facilities.append(make_facility("seal", 1, 9.5, 5.5, fixed=True))
    grid = build_nav_grid(level)
    assert flood_fill_room(level, grid, level.room_by_id(1)).blocked == [(1, 2)]
    state = oracles.cell_kinds(grid)
    walk = bytes(grid.walk)
    occupants = {cell: set(ids) for cell, ids in grid.occupants.items()}
    tried = []
    relocations = navsim._relocations

    def counting(level, grid, fac, room, cells_ok):
        tried.append(fac.id)
        return relocations(level, grid, fac, room, cells_ok)

    monkeypatch.setattr(navsim, "_relocations", counting)
    assert geometric_repair(level, grid) == 0
    assert "bystander" not in tried
    assert all(np.array_equal(a, b) for a, b in zip(oracles.cell_kinds(grid), state))
    assert grid.walk == walk
    assert {cell: set(ids) for cell, ids in grid.occupants.items()} == occupants


# -- phase 2 repair ------------------------------------------------------------------


def test_clean_level_repairs_with_zero_actions(two_room_level):
    grid = build_nav_grid(two_room_level)
    report = agent_repair(two_room_level, AGENT, grid)
    assert report.status == "repaired"
    assert report.phase2_moves == 0 and report.facilities_removed == 0
    assert report.repair_time > 0.0


def test_fixed_seal_with_adaptable_bystander_reposition_then_remove(two_room_level):
    level = two_room_level
    level.facilities.append(make_facility("seal", 1, 9.5, 5.5, fixed=True))
    level.facilities.append(make_facility("bystander", 1, 8.5, 4.5))
    grid = build_nav_grid(level)
    report = agent_repair(level, AGENT, grid)
    assert report.status == "unrepairable"
    # the adaptable facility was repositioned first, removed only afterwards
    assert report.phase2_moves == 1
    assert report.facilities_removed == 1
    assert all(f.id != "bystander" for f in level.facilities)
    assert any(f.id == "seal" for f in level.facilities)  # fixed never removed


def test_all_fixed_seals_lead_to_unrepairable(two_room_level):
    level = two_room_level
    level.facilities.append(make_facility("seal_a", 1, 9.5, 5.5, fixed=True))
    level.facilities.append(make_facility("seal_b", 2, 0.5, 5.5, fixed=True))
    grid = build_nav_grid(level)
    report = agent_repair(level, AGENT, grid)
    assert report.status == "unrepairable"
    assert report.facilities_removed == 0
    assert report.repair_time > AGENT.total_budget


def test_covered_start_room_is_opened_from_inside(two_room_level):
    # one adaptable facility covers every walkable cell of room 1, door included
    level = two_room_level
    level.facilities.append(make_facility("cover", 1, 5.5, 5.0, w=9.0, l=10.0))
    grid = build_nav_grid(level)
    assert target_cell(grid, level.room_by_id(1)) is None
    report = agent_repair(level, AGENT, grid)
    assert report.status == "repaired"
    assert report.phase2_moves == 1 and report.facilities_removed == 0
    start = target_cell(grid, level.room_by_id(1))
    walk = traversal_time(
        astar_path(grid, start, target_cell(grid, level.room_by_id(2))), AGENT
    )
    # the clean sweep after the move walks the same path again
    assert walk == pytest.approx(1.5)
    assert report.repair_time == pytest.approx(AGENT.room_timeout + 2 * walk)


def test_grid_stays_consistent_after_repairs(two_room_level):
    level = two_room_level
    level.facilities.append(make_facility("blocker", 1, 9.5, 5.5))  # on the door cell
    rng = Random(2)
    for k in range(6):
        level.facilities.append(
            make_facility(f"f{k}", 1, rng.uniform(1, 9), rng.uniform(1, 9), w=2.0, l=1.0)
        )
    grid = build_nav_grid(level)
    assert geometric_repair(level, grid) > 0
    agent_repair(level, AGENT, grid)
    # each crowded grid is compared before the next repair phase edits it
    for level, grid in chain([(level, grid)], _crowded_stages()):
        fresh = build_nav_grid(level)
        for a, b in zip(oracles.cell_kinds(grid), oracles.cell_kinds(fresh)):
            assert np.array_equal(a, b)
        assert grid.walk == fresh.walk


# -- pathfinding ----------------------------------------------------------------------


def test_astar_identity_path():
    grid = build_nav_grid(single_room_level())
    assert astar_path(grid, (0, 5, 5), (0, 5, 5)) == [(0, 5, 5)]


def test_astar_unobstructed_path_length_is_manhattan():
    grid = build_nav_grid(single_room_level())
    path = astar_path(grid, (0, 1, 1), (0, 8, 8))
    assert path is not None
    assert len(path) == abs(8 - 1) + abs(8 - 1) + 1


def _random_grid(rng) -> NavGrid:
    w = rng.randrange(6, 14)
    l = rng.randrange(6, 14)
    base = np.full((w, l), FREE, dtype=np.uint8)
    for _ in range(rng.randrange(0, w * l // 3)):
        base[rng.randrange(w), rng.randrange(l)] = WALL
    return NavGrid(
        width=w,
        length=l,
        floors=1,
        floor_height=1.0,
        base=[base],
        stair_cells=[],
    )


def _dijkstra_steps(grid, start, goal):
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == goal:
            return d
        if d > dist.get(cell, math.inf):
            continue
        f, x, y = cell
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < grid.width and 0 <= ny < grid.length:
                if grid.base[f][nx, ny] == FREE:
                    nd = d + 1
                    nxt = (f, nx, ny)
                    if nd < dist.get(nxt, math.inf):
                        dist[nxt] = nd
                        heapq.heappush(heap, (nd, nxt))
    return None


def test_astar_cost_equals_dijkstra_on_random_grids():
    rng = Random(10)
    checked = 0
    while checked < 100:
        grid = _random_grid(rng)
        free = np.argwhere(grid.base[0] == FREE)
        if len(free) < 2:
            continue
        a = tuple(free[rng.randrange(len(free))])
        b = tuple(free[rng.randrange(len(free))])
        start, goal = (0, int(a[0]), int(a[1])), (0, int(b[0]), int(b[1]))
        path = astar_path(grid, start, goal)
        steps = _dijkstra_steps(grid, start, goal)
        if steps is None:
            assert path is None
        else:
            assert path is not None and len(path) - 1 == steps
        checked += 1


@st.composite
def _search_cases(draw):
    """A hand-built grid of 1-3 floors with free, wall, facility, door and
    stair cells and random stair links, and a start and goal cell."""
    floors, w, l = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kinds = st.sampled_from((FREE, FREE, FREE, WALL, FACILITY, DOOR, STAIR))
    values = draw(st.lists(kinds, min_size=floors * w * l, max_size=floors * w * l))
    kinds = np.array(values, dtype=np.uint8).reshape(floors, w, l)
    spots = st.tuples(st.integers(0, w - 1), st.integers(0, l - 1))
    cells = st.tuples(st.integers(0, floors - 1), st.integers(0, w - 1), st.integers(0, l - 1))
    grid = NavGrid(
        width=w,
        length=l,
        floors=floors,
        floor_height=1.0,
        base=list(kinds),
        stair_cells=[draw(st.sets(spots, max_size=6)) for _ in range(floors - 1)],
    )
    return grid, draw(cells), draw(cells)


@settings(max_examples=400, deadline=None)
@given(case=_search_cases())
def test_flat_search_equals_cell_tuple_oracle(case):
    grid, start, goal = case
    assert astar_path(grid, start, goal) == oracles.astar_path(grid, start, goal)
    reach = navsim.grid_reach(grid, start)
    assert list(reach.items()) == list(oracles.grid_reach(grid, start).items())


def test_facility_edits_after_a_search_are_seen_by_the_next(two_room_level):
    # a 2 x 8 crate walls off the west of room 1; after each edit the grid
    # searched before must answer as a freshly built one does
    level = two_room_level
    crate = make_facility("crate", 1, 5.0, 5.0, w=2.0, l=8.0)
    level.facilities.append(crate)
    grid = build_nav_grid(level)
    start, goal = (0, 2, 5), (0, 15, 5)

    def search():
        fresh = build_nav_grid(level)
        path = astar_path(grid, start, goal)
        assert path == astar_path(fresh, start, goal)
        assert path == oracles.astar_path(grid, start, goal)
        assert navsim.grid_reach(grid, start) == navsim.grid_reach(fresh, start)
        return path

    assert search() is None
    navsim._move_facility(grid, level, crate, crate.pose.moved(5.0, 6.0))
    detour = search()
    assert detour is not None and len(detour) > 14
    navsim._clear_facility(grid, level, crate)
    level.facilities.remove(crate)
    assert len(search()) == 14


# -- traversal time ---------------------------------------------------------------------


def test_empty_path_takes_zero_time():
    assert traversal_time([(0, 1, 1)], AGENT) == 0.0


def test_straight_run_time():
    path = [(0, x, 0) for x in range(21)]
    assert traversal_time(path, AGENT) == pytest.approx(2.0)


def test_single_turn_adds_angular_time():
    path = [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 2, 1)]
    expected = 3 * 0.1 + 90.0 / 100.0
    assert traversal_time(path, AGENT) == pytest.approx(expected)


def test_vertical_steps_use_floor_height():
    path = [(0, 1, 1), (1, 1, 1)]
    assert traversal_time(path, AGENT, floor_height=10.0) == pytest.approx(1.0)


# -- rerun validation ----------------------------------------------------------------------


def test_single_room_rerun_metrics():
    level = single_room_level()
    result = rerun_validation(level, AGENT, build_nav_grid(level))
    assert result.rerun_time == 0.0
    assert result.grid_cells == 9  # dilated start cell
    assert not result.abnormal


def test_rerun_counts_revisited_cells_once(two_room_level):
    grid = build_nav_grid(two_room_level)
    result = rerun_validation(two_room_level, AGENT, grid)
    start = target_cell(grid, two_room_level.room_by_id(1))
    tgt = target_cell(grid, two_room_level.room_by_id(2))
    path = astar_path(grid, start, tgt)
    expected = set()
    for f, x, y in path:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if 0 <= x + dx < grid.width and 0 <= y + dy < grid.length:
                    expected.add((f, x + dx, y + dy))
    assert result.grid_cells == len(expected)
    assert result.rerun_time == pytest.approx(traversal_time(path, AGENT, grid.floor_height))


def test_rerun_raises_on_unreachable_room(two_room_level):
    two_room_level.facilities.append(
        make_facility("seal", 1, 9.5, 5.5, fixed=True)
    )
    with pytest.raises(UnreachableRoom):
        rerun_validation(two_room_level, AGENT, build_nav_grid(two_room_level))


# -- objective simulation -----------------------------------------------------------------


def _key(level, kid, room_id, x, y):
    from levelforge.level import MechanicPlacement

    return MechanicPlacement(
        id=kid,
        def_name="FloorKey",
        room_id=room_id,
        pose=Pose(x, y, 0.15, 0.0, Dimensions(0.3, 0.3, 0.3)),
    )


def test_zero_keys_simulation_is_direct_path(two_room_level):
    grid = build_nav_grid(two_room_level)
    sim = simulate_objectives(two_room_level, [], AGENT, grid)
    start = target_cell(grid, two_room_level.room_by_id(1))
    end = target_cell(grid, two_room_level.room_by_id(2))
    path = astar_path(grid, start, end)
    assert sim.simulation_time == pytest.approx(
        traversal_time(path, AGENT, grid.floor_height)
    )


def test_key_on_direct_path_adds_no_detour(two_room_level):
    grid = build_nav_grid(two_room_level)
    baseline = simulate_objectives(two_room_level, [], AGENT, grid)
    end = target_cell(grid, two_room_level.room_by_id(2))
    key = _key(two_room_level, "k", 2, end[1] - 10.0 + 0.5, end[2] + 0.5)
    sim = simulate_objectives(two_room_level, [key], AGENT, grid)
    assert sim.simulation_time == pytest.approx(baseline.simulation_time)


def test_dead_end_key_detour_matches_path_length_oracle():
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10, tau=1),
        make_room(2, (10.0, 0.0), 10, 10, tau=2),
        make_room(3, (10.0, 10.0), 10, 10, tau=3),
    ]
    doors = [Door(1, 2, 10.0, 5.0), Door(2, 3, 15.0, 10.0)]
    adjacency = [AdjacencyEdge(1, 2, "door"), AdjacencyEdge(2, 3, "door")]
    level = make_level(rooms, doors, adjacency, width=20, length=20)
    grid = build_nav_grid(level)

    no_key = simulate_objectives(level, [], AGENT, grid)
    key = _key(level, "k", 1, 1.5, 8.5)  # dead-end corner of the start room
    with_key = simulate_objectives(level, [key], AGENT, grid)

    start = target_cell(grid, level.room_by_id(1))
    key_cell = target_cell(grid, level.room_by_id(1), (1.5, 8.5))
    end = target_cell(grid, level.room_by_id(3))
    leg1 = astar_path(grid, start, key_cell)
    leg2 = astar_path(grid, key_cell, end)
    direct = astar_path(grid, start, end)
    expected_extra = (
        traversal_time(leg1, AGENT, grid.floor_height)
        + traversal_time(leg2, AGENT, grid.floor_height)
        - traversal_time(direct, AGENT, grid.floor_height)
    )
    assert with_key.simulation_time - no_key.simulation_time == pytest.approx(
        expected_extra
    )
    assert expected_extra > 0.0


def test_target_cell_matches_a_brute_force_scan_with_ties():
    rooms = [make_room(1, (0.0, 0.0), 10, 10), make_room(2, (10.0, 0.0), 10, 10)]
    level = make_level(rooms, width=20, length=10, height=3.0)
    grid = build_nav_grid(level)
    grid.occupants[(0, 4, 4)] = ["crate"]  # one of the four cells tied nearest the centre
    grid.walk[grid.index((0, 4, 4))] = 0
    grid.base[0][1, 1] = DOOR  # still walkable, as `walk` has it
    grid.base[0][8, 1] = STAIR
    room = level.room_by_id(1)
    cells = [(0, x, y) for x in range(20) for y in range(10)]
    rng = Random(5)
    reachables = [None, set(), {(0, 5, 5)}, dict.fromkeys(rng.sample(cells, 60))]
    reachables += [set(rng.sample(cells, 20)) for _ in range(5)]
    # integer and half-integer points put several cells at equal distance
    points = [None, (5.0, 5.0), (0.0, 0.0), (1.5, 1.5), (9.0, 0.5), (15.0, 5.0), (2.3, 7.9)]
    found = 0
    for point in points:
        for reachable in reachables:
            want = oracles.target_cell(grid, room, point, reachable)
            assert target_cell(grid, room, point, reachable) == want
            found += want is not None
    assert target_cell(grid, room) == (0, 4, 5)
    assert found > len(points)
    for level, grid in _crowded_stages():
        start = oracles.target_cell(grid, level.room_by_id(1), None, None)
        reach = None if start is None else oracles.grid_reach(grid, start)
        for room in level.rooms:
            x0, y0, x1, y1 = room.footprint()
            for point in (None, (rng.uniform(x0, x1), rng.uniform(y0, y1))):
                for reachable in (None, reach):
                    want = oracles.target_cell(grid, room, point, reachable)
                    assert target_cell(grid, room, point, reachable) == want


def test_pocketed_key_collected_from_nearest_reachable_cell():
    # fixed furniture walls off the corner holding the key; the agent
    # grabs it from the nearest open cell instead of failing
    level = single_room_level()
    ring = [(1.5, 3.5), (2.5, 3.5), (3.5, 3.5), (3.5, 1.5), (3.5, 2.5)]
    for i, (x, y) in enumerate(ring):
        level.facilities.append(make_facility(f"ring{i}", 1, x, y, fixed=True))
    key = _key(level, "pocketed", 1, 1.5, 1.5)
    sim = simulate_objectives(level, [key], AGENT, build_nav_grid(level))
    assert sim.simulation_time > 0.0


def test_keys_visited_in_room_tau_order():
    rooms = [
        make_room(1, (0.0, 0.0), 10, 10, tau=1),
        make_room(2, (10.0, 0.0), 10, 10, tau=2),
        make_room(3, (20.0, 0.0), 10, 10, tau=3),
    ]
    doors = [Door(1, 2, 10.0, 5.0), Door(2, 3, 20.0, 5.0)]
    adjacency = [AdjacencyEdge(1, 2, "door"), AdjacencyEdge(2, 3, "door")]
    level = make_level(rooms, doors, adjacency, width=30, length=10)
    keys = [_key(level, "late", 3, 5.0, 5.0), _key(level, "early", 1, 5.0, 5.0)]
    sim = simulate_objectives(level, keys, AGENT, build_nav_grid(level))
    assert sim.simulation_time > 0.0
