import math
from dataclasses import replace
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from levelforge.constraints import (
    DISTANCE_EPS,
    ConstraintSpec,
    WeightConfig,
)
from levelforge.errors import InfeasibleRoom, NoAdaptableFacilities
from levelforge import layout as layout_module
from levelforge.geometry import (
    HALF_PI,
    Dimensions,
    Pose,
    clamp_into_room,
    fits,
    penetration_depth,
    random_pose,
)
from levelforge.layout import (
    SAParams,
    _RoomEval,
    anneal,
    interior_grid_points,
    objective,
    optimize_room_layout,
    perturb,
)

from conftest import make_facility, make_room
from oracles import (
    eval_facility_penalty,
    make_layout_instance,
    oracle_layout_optimum,
    reference_perturb,
    reference_room_layout,
    total_constraint_penalty,
)

ROOM = make_room(1, (0.0, 0.0), 10, 10)
GEOM = ROOM.dims
W = WeightConfig()


def test_objective_of_empty_room_is_all_zero():
    b = objective(ROOM, [])
    assert (b.placement, b.cluster, b.sparsity, b.total) == (0, 0, 0, 0)


def test_cluster_term_matches_inverse_distance_formula():
    a = make_facility("a", 1, 4.0, 5.0)
    b = make_facility("b", 1, 5.0, 5.0)
    breakdown = objective(ROOM, [a, b])
    assert breakdown.cluster == pytest.approx(1.0 / 1.1, rel=1e-9)


def test_total_combines_terms_with_scales():
    a = make_facility("a", 1, 4.0, 5.0)
    b = make_facility("b", 1, 5.0, 5.0)
    breakdown = objective(ROOM, [a, b])
    assert breakdown.total == pytest.approx(
        W.penalty_scale * breakdown.placement
        + W.cluster_scale * breakdown.cluster
        + W.sparsity_scale * breakdown.sparsity,
        rel=1e-12,
    )


def test_disjoint_unconstrained_facilities_have_zero_placement():
    a = make_facility("a", 1, 2.0, 2.0)
    b = make_facility("b", 1, 7.0, 7.0)
    assert objective(ROOM, [a, b]).placement == 0.0


def test_objective_matches_independent_resummation():
    # oracle: recompute every term from the raw formulas
    rng = Random(3)
    for _ in range(25):
        n = rng.randrange(1, 5)
        facs = [
            make_facility(
                f"f{i}",
                1,
                rng.uniform(0.5, 9.5),
                rng.uniform(0.5, 9.5),
                w=rng.choice([1.0, 2.0]),
                l=rng.choice([1.0, 2.0]),
                yaw=rng.randrange(4) * math.pi / 2,
                constraints=(
                    (ConstraintSpec("Near", {"target": "f0", "d_min": 3.0}),)
                    if i > 0 and rng.random() < 0.5
                    else ()
                ),
            )
            for i in range(n)
        ]
        breakdown = objective(ROOM, facs)

        placement = 0.0
        cluster = 0.0
        for i, f in enumerate(facs):
            others = [(g.def_name, g.pose) for j, g in enumerate(facs) if j != i]
            placement += total_constraint_penalty(f, GEOM, others)
            fp = f.pose.footprint()
            oob = max(0.0, -fp[0], -fp[1], fp[2] - 10.0, fp[3] - 10.0)
            placement += W.w_bounds * oob * oob
            for j, g in enumerate(facs):
                if j == i:
                    continue
                depth = penetration_depth(fp, g.pose.footprint())
                placement += W.w_overlap * depth * depth
            for j in range(i + 1, n):
                g = facs[j]
                d = math.dist(
                    (f.pose.x, f.pose.y, f.pose.z), (g.pose.x, g.pose.y, g.pose.z)
                )
                cluster += 1.0 / (d + DISTANCE_EPS)
        sparsity = 0.0
        for gx, gy in interior_grid_points(GEOM):
            nearest = min(
                math.hypot(gx - f.pose.x, gy - f.pose.y) for f in facs
            )
            sparsity = max(sparsity, nearest)
        assert breakdown.placement == pytest.approx(placement, rel=1e-9)
        assert breakdown.cluster == pytest.approx(cluster, rel=1e-9)
        assert breakdown.sparsity == pytest.approx(sparsity, rel=1e-9)


def test_objective_invariant_under_relabeling():
    facs = [
        make_facility("a", 1, 2.0, 2.0),
        make_facility("b", 1, 7.0, 3.0, w=2.0),
        make_facility("c", 1, 5.0, 8.0),
    ]
    forward = objective(ROOM, facs)
    backward = objective(ROOM, list(reversed(facs)))
    assert forward.total == pytest.approx(backward.total, rel=1e-12)


def test_interior_grid_points_are_strictly_inside():
    pts = interior_grid_points(Dimensions(4.0, 3.0, 3.0))
    assert sorted(map(tuple, pts.tolist())) == [
        (1.0, 1.0),
        (1.0, 2.0),
        (2.0, 1.0),
        (2.0, 2.0),
        (3.0, 1.0),
        (3.0, 2.0),
    ]


# -- perturb ------------------------------------------------------------------


SIGMA = SAParams().step_frac * math.hypot(GEOM.width, GEOM.length)


def test_perturb_changes_exactly_one_adaptable_facility():
    facs = [
        make_facility("a", 1, 2.0, 2.0),
        make_facility("b", 1, 7.0, 7.0),
        make_facility("frozen", 1, 5.0, 5.0, fixed=True),
    ]
    movable = [i for i, f in enumerate(facs) if not f.fixed]
    poses = [f.pose for f in facs]
    rng = Random(0)
    for _ in range(50):
        k, pose = perturb(GEOM, movable, poses, rng, SIGMA)
        new = list(poses)
        new[k] = pose
        changed = [
            i
            for i, (old, cur) in enumerate(zip(poses, new))
            if (old.x, old.y, old.yaw) != (cur.x, cur.y, cur.yaw)
        ]
        assert changed == [k]
        assert not facs[changed[0]].fixed
        poses = new


def test_perturb_requires_an_adaptable_facility():
    facs = [make_facility("frozen", 1, 5.0, 5.0, fixed=True)]
    with pytest.raises(NoAdaptableFacilities):
        perturb(GEOM, [], [facs[0].pose], Random(0), SIGMA)


def test_perturbed_centers_always_stay_in_bounds():
    facs = [make_facility("a", 1, 5.0, 5.0, w=2.0, l=1.0)]
    poses = [facs[0].pose]
    rng = Random(1)
    for _ in range(1000):
        k, poses[0] = perturb(GEOM, [0], poses, rng, SIGMA)
        assert k == 0
        p = poses[0]
        hx, hy = p.half_extents()
        assert hx <= p.x <= 10.0 - hx
        assert hy <= p.y <= 10.0 - hy


def test_perturb_translate_rotate_mixture():
    facs = [make_facility("a", 1, 5.0, 5.0)]
    pose = facs[0].pose
    rng = Random(2)
    rotations = 0
    trials = 10000
    for _ in range(trials):
        _, new = perturb(GEOM, [0], [pose], rng, SIGMA)
        if new.yaw != pose.yaw:
            rotations += 1
        pose = new
    assert rotations / trials == pytest.approx(0.2, abs=0.03)


_SIDES = st.sampled_from([0.5, 1.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_perturb_equals_the_reference_move(data):
    draw = data.draw
    width, length = draw(st.sampled_from([3.0, 7.5, 10])), draw(st.sampled_from([1.0, 3.0, 6]))
    room = Dimensions(width, length, 3.0)
    poses = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # as large as the room: no step moves it, and a turn fits only in a
            # square room, so all 8 tries may fail
            dims = Dimensions(width, length, 1.0)
        else:
            # a 3 m box in a 1 m wide room cannot turn
            dims = Dimensions(draw(_SIDES), draw(_SIDES), 1.0)
        yaw = draw(st.one_of(st.sampled_from([0.0, HALF_PI, 3 * HALF_PI]), st.floats(-7.0, 7.0)))
        probe = Pose(0.0, 0.0, 0.5, yaw, dims)
        pose = clamp_into_room(probe, draw(st.floats(-1.0, 11.0)), draw(st.floats(-1.0, 7.0)), room)
        assume(pose is not None)
        poses.append(pose)
    movable = draw(st.lists(st.integers(0, len(poses) - 1), min_size=1, max_size=3))
    sigma = draw(st.sampled_from([0.0, 0.3, 2.0]))
    translate_prob = draw(st.sampled_from([0.0, 0.2, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**32))
    rng, reference_rng = Random(seed), Random(seed)
    for _ in range(draw(st.integers(1, 10))):
        got = perturb(room, movable, poses, rng, sigma, translate_prob)
        expected = reference_perturb(room, movable, poses, reference_rng, sigma, translate_prob)
        # repr tells floats apart bit for bit
        assert repr(got) == repr(expected)
        assert rng.getstate() == reference_rng.getstate()
        k, poses[k] = got


# -- incremental evaluation ----------------------------------------------------


def _posed(facilities, poses):
    return [replace(f, pose=p) for f, p in zip(facilities, poses)]


_TARGETED_KINDS = ["Near", "Far", "Focus", "CanSee", "Alignment", "Orientation"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_incremental_breakdown_equals_a_full_evaluation(data):
    draw = data.draw
    rng = Random(draw(st.integers(0, 2**32)))
    width, length = draw(st.sampled_from([5, 8, 12])), draw(st.sampled_from([6, 10]))
    room = make_room(1, (0.0, 0.0), width, length)
    dims = room.dims
    stair = Dimensions(2.0, 2.0, 3.0)
    obstacles = [
        Pose(rng.uniform(0, width), rng.uniform(0, length), 1.5, 0.0, stair)
        for _ in range(draw(st.integers(0, 2)))
    ]
    n = draw(st.integers(1, 4))
    names = [draw(st.sampled_from(["A", "B", "C"])) for _ in range(n)]
    facilities = []
    for i, name in enumerate(names):
        specs = [
            ConstraintSpec(kind, {"target": draw(st.sampled_from(names))})
            for kind in draw(st.lists(st.sampled_from(_TARGETED_KINDS), max_size=3))
        ]
        w, l = rng.choice([1.0, 2.0]), rng.choice([1.0, 3.0])
        pose = random_pose(Dimensions(w, l, 1.0), dims, rng)
        facilities.append(
            make_facility(
                f"f{i}", 1, pose.x, pose.y, w=w, l=l, yaw=pose.yaw, def_name=name, constraints=specs
            )
        )
    # the fixed facility may poke out of the room and through the stairs
    facilities.append(
        make_facility(
            "anchor", 1, rng.uniform(0, width), rng.uniform(0, length), w=3.0, fixed=True, def_name="A"
        )
    )
    ev = _RoomEval(dims, facilities, W, obstacles)
    state = ev.fill([f.pose for f in facilities])
    movable = list(range(n))
    for accept in draw(st.lists(st.booleans(), min_size=1, max_size=25)):
        bounds: list = []

        def offered(bound):
            bounds.append(bound)
            return False

        cand = ev.step(state, *perturb(dims, movable, state.poses, rng, SIGMA), offered)
        exact = objective(room, _posed(facilities, cand.poses), W, obstacles)
        assert cand.breakdown == exact
        assert bounds and all(b <= exact.total for b in bounds)
        if accept:
            state = cand
    assert state.breakdown == objective(room, _posed(facilities, state.poses), W, obstacles)


def test_every_trace_row_is_the_objective_of_the_accepted_poses(monkeypatch):
    facs = [
        make_facility("a", 1, 5.0, 5.0, def_name="Desk"),
        make_facility("b", 1, 5.0, 5.0, w=2.0, def_name="Chair",
                      constraints=(ConstraintSpec("Near", {"target": "Desk"}),
                                   ConstraintSpec("CanSee", {"target": "Desk"}))),
        make_facility("c", 1, 5.0, 5.0, l=2.0),
        make_facility("d", 1, 1.0, 1.0, fixed=True),
    ]
    obstacles = [Pose(8.0, 8.0, 1.5, 0.0, Dimensions(2.0, 2.0, 3.0))]
    accepted = []

    def spy(init, propose, energy, sa, rng, trace=None):
        # propose is handed the state accepted at the previous iteration
        def watched(state, rng, rejects):
            accepted.append(state.poses)
            return propose(state, rng, rejects)

        return anneal(init, watched, energy, sa, rng, trace)

    monkeypatch.setattr(layout_module, "anneal", spy)
    trace: list = []
    result = optimize_room_layout(
        ROOM, facs, W, SAParams(iterations=300), Random(8), obstacles, trace=trace
    )
    assert len(trace) == 300 and len(accepted) == 300
    for row, poses in zip(trace, accepted[1:]):
        assert row[2] == objective(ROOM, _posed(facs, poses), W, obstacles).total
    best = [result.placements[f.id] for f in facs]
    assert result.breakdown == objective(ROOM, _posed(facs, best), W, obstacles)


_STAGED_KINDS = ["CanSee", "Near", "Far", "Focus", "Alignment", "Orientation"]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_staged_annealer_equals_a_full_evaluation(data):
    draw = data.draw
    rng = Random(draw(st.integers(0, 2**32)))
    # a side <= 1 m leaves no interior grid point
    width = draw(st.sampled_from([1.0, 4.0, 9.0, 14.0]))
    length = draw(st.sampled_from([1.0, 3.0, 7.0, 12.0]))
    room = make_room(1, (0.0, 0.0), width, length)
    dims = room.dims
    stair = Dimensions(2.0, 2.0, 3.0)
    obstacles = [
        Pose(rng.uniform(0, width), rng.uniform(0, length), 1.5, 0.0, stair)
        for _ in range(draw(st.integers(0, 2)))
    ]
    n = draw(st.integers(1, 5))
    names = [draw(st.sampled_from(["A", "B", "C"])) for _ in range(n)]
    facilities = []
    for i, name in enumerate(names):
        specs = [
            ConstraintSpec(kind, {"target": draw(st.sampled_from(names))})
            for kind in draw(st.lists(st.sampled_from(_STAGED_KINDS), max_size=3))
        ]
        if i == 0 and draw(st.booleans()):
            # a box as large as the room cannot move: a no-op move
            w, l = width, length
        else:
            sizes = ((2.0, 1.0), (1.0, 0.5), (0.5, 0.5))
            w, l = next(d for d in sizes if fits(Dimensions(*d, 1.0), dims))
        facilities.append(
            make_facility(f"f{i}", 1, w / 2, l / 2, w=w, l=l, def_name=name, constraints=specs)
        )
    if draw(st.booleans()):
        # the fixed facility may poke out of the room and through the stairs
        facilities[-1] = make_facility(
            "anchor", 1, rng.uniform(-1, width + 1), rng.uniform(-1, length + 1),
            w=min(2.0, width), l=min(1.0, length), fixed=True, def_name=names[-1],
            constraints=facilities[-1].constraints,
        )
    if draw(st.booleans()):
        # a negative weight drops the bound: every candidate is scored in full
        f = facilities[0]
        spec = ConstraintSpec("Near", {"target": names[-1]}, weight=-4.0)
        facilities[0] = replace(f, constraints=f.constraints + (spec,))
    sa = SAParams(
        initial_temperature=draw(st.sampled_from([1000.0, 5.0, 0.0, math.nan])),
        cooling_rate=draw(st.sampled_from([0.95, 0.5, 0.0])),
        iterations=draw(st.integers(0, 60)),
        restarts=draw(st.integers(1, 2)),
    )
    seed = draw(st.integers(0, 2**32))
    staged_rng, reference_rng = Random(seed), Random(seed)
    staged_trace: list = []
    reference_trace: list = []
    staged = optimize_room_layout(room, facilities, W, sa, staged_rng, obstacles, staged_trace)
    poses, breakdown = reference_room_layout(
        room, facilities, W, sa, reference_rng, obstacles, reference_trace
    )
    # repr tells floats apart bit for bit, and lets a NaN temperature equal itself
    assert repr(staged_trace) == repr(reference_trace)
    assert [staged.placements[f.id] for f in facilities] == poses
    assert staged.breakdown == breakdown
    assert staged_rng.getstate() == reference_rng.getstate()


# -- annealing ------------------------------------------------------------------


class _Energy:
    def __init__(self, total):
        self.total = total


def test_anneal_with_an_exact_bound_ends_and_draws_as_without_one():
    def start(rng):
        return rng.uniform(-5.0, 5.0)

    def energy(x):
        return _Energy(abs(x) + math.sin(3.0 * x))

    def proposer(bounded, rejected):
        def propose(x, rng, rejects):
            cand = x + rng.gauss(0.0, 1.0)
            if bounded and rejects(energy(cand).total):
                rejected.append(cand)
                return None
            return cand

        return propose

    for sa in (
        SAParams(initial_temperature=2.0, iterations=400, restarts=2),
        SAParams(initial_temperature=0.0, iterations=50),
        SAParams(initial_temperature=math.nan, iterations=50),
        SAParams(cooling_rate=0.0, iterations=50),
    ):
        runs = []
        for bounded in (False, True):
            rng, trace, rejected = Random(11), [], []
            state, e = anneal(start, proposer(bounded, rejected), energy, sa, rng, trace)
            runs.append((state, e.total, repr(trace), rng.getstate()))
        assert runs[0] == runs[1]
        assert rejected


def test_sa_converges_to_zero_penalty_in_range_box():
    # box centered in the room so the sparsity pull and the constraint agree
    spec = ConstraintSpec(
        "PlaceInRange", {"p1": [4.5, 4.5, 0.0], "p2": [5.5, 5.5, 3.0]}, weight=100.0
    )
    fac = make_facility("a", 1, 1.0, 1.0, constraints=(spec,))
    room = make_room(1, (0.0, 0.0), 10, 10)
    layout = optimize_room_layout(
        room, [fac], sa=SAParams(restarts=3), rng=Random(5)
    )
    final = layout.placements["a"]
    assert eval_facility_penalty(spec, final, GEOM, []) == 0.0
    # oracle: a zero-penalty pose exists on the half-unit grid
    found = False
    for ix in range(21):
        pose = Pose(ix * 0.5, 5.0, 0.5, 0.0, Dimensions(1, 1, 1))
        if eval_facility_penalty(spec, pose, GEOM, []) == 0.0:
            found = True
    assert found


def test_sa_zero_iterations_returns_initial_layout():
    fac = make_facility("a", 1, 5.0, 5.0)
    room = make_room(1, (0.0, 0.0), 10, 10)
    rng_a, rng_b = Random(9), Random(9)
    layout = optimize_room_layout(room, [fac], sa=SAParams(iterations=0), rng=rng_a)
    # reproduce the sampled initial pose with an identical rng
    from levelforge.geometry import random_pose

    expected = random_pose(fac.pose.dims, GEOM, rng_b)
    got = layout.placements["a"]
    assert (got.x, got.y, got.yaw) == (expected.x, expected.y, expected.yaw)


def test_sa_fixed_facilities_never_move():
    fixed = make_facility("anchor", 1, 3.0, 3.0, fixed=True, w=2.0, l=2.0)
    movable = make_facility("crate", 1, 7.0, 7.0)
    room = make_room(1, (0.0, 0.0), 10, 10)
    layout = optimize_room_layout(room, [fixed, movable], rng=Random(1))
    assert layout.placements["anchor"] is fixed.pose


def test_sa_rejects_oversized_facility():
    giant = make_facility("giant", 1, 5.0, 5.0, w=12.0, l=1.0)
    room = make_room(1, (0.0, 0.0), 10, 10)
    with pytest.raises(InfeasibleRoom):
        optimize_room_layout(room, [giant], rng=Random(0))


def test_sa_best_seen_objective_is_monotone():
    facs = [make_facility(f"f{i}", 1, 5.0, 5.0) for i in range(3)]
    room = make_room(1, (0.0, 0.0), 10, 10)
    trace: list = []
    optimize_room_layout(room, facs, sa=SAParams(iterations=400), rng=Random(4), trace=trace)
    best_values = [row[3] for row in trace]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best_values, best_values[1:]))
    # recorded best matches the running minimum of the current series
    currents = [row[2] for row in trace]
    running = []
    acc = math.inf
    for c in currents:
        acc = min(acc, c)
        running.append(acc)
    initial_blind_spot = best_values[0] <= currents[0] + 1e-12
    assert initial_blind_spot
    for b, r in zip(best_values, running):
        assert b <= r + 1e-12


def test_trace_rows_follow_the_cooling_schedule():
    facs = [make_facility("a", 1, 5.0, 5.0)]
    room = make_room(1, (0.0, 0.0), 10, 10)
    sa = SAParams(iterations=20)
    trace: list = []
    optimize_room_layout(room, facs, sa=sa, rng=Random(3), trace=trace)
    assert [row[0] for row in trace] == list(range(20))
    temperature = sa.initial_temperature
    for row in trace:
        assert row[1] == temperature
        temperature *= sa.cooling_rate


def test_anneal_without_moves_keeps_first_of_equal_initial_states():
    starts = iter([(3, "a"), (1, "b"), (1, "c"), (2, "d")])
    state, energy = anneal(
        lambda rng: next(starts), None, lambda s: _Energy(s[0]), SAParams(restarts=4), Random(0)
    )
    assert state == (1, "b") and energy.total == 1


def test_sa_two_facility_far_instance_hits_oracle_band():
    geom, adaptable, fixed, weights = make_layout_instance(3)
    room = make_room(1, (0.0, 0.0), geom.width, geom.length)
    best = oracle_layout_optimum(geom, adaptable, fixed, weights)
    layout = optimize_room_layout(
        room, adaptable + fixed, weights, SAParams(restarts=5), Random(42)
    )
    assert layout.breakdown.total <= 1.05 * best + 1e-9
    # the optimum pushes the pair apart: centers land near opposite corners
    poses = [layout.placements[f.id] for f in adaptable]
    d = math.hypot(poses[0].x - poses[1].x, poses[0].y - poses[1].y)
    assert d >= 0.6 * math.hypot(geom.width, geom.length) / math.sqrt(2)
