"""Algorithmic key-placement strategies used as benchmarks.

Each strategy picks key rooms on one floor's connection graph: a
reciprocal-distance balance score, Monte Carlo dispersion against a
gaussian key-density field, and closeness centrality over breadth-first
hop counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .geometry import bfs
from .level import Level, RoomInstance

# Monte Carlo dispersion: sampled points per claimed room, and the width of
# each claimed key's gaussian in the key-density field.
MC_SAMPLES = 200
MC_SIGMA = 3.0


@dataclass
class FloorGraph:
    floor: int
    nodes: tuple[int, ...]  # room ids in tau order
    neighbors: dict[int, tuple[int, ...]]
    rooms: dict[int, RoomInstance]
    start: int  # lowest-tau room
    end: int  # highest-tau room (the stair room on stair floors)

    def tau(self, room_id: int) -> int:
        return self.rooms[room_id].tau


def build_floor_graph(level: Level, floor: int) -> FloorGraph:
    rooms = sorted(level.rooms_on_floor(floor), key=lambda r: r.tau)
    ids = {r.id for r in rooms}
    neighbors: dict[int, set[int]] = {r.id: set() for r in rooms}
    for e in level.adjacency:
        if e.room_a in ids and e.room_b in ids:
            neighbors[e.room_a].add(e.room_b)
            neighbors[e.room_b].add(e.room_a)
    return FloorGraph(
        floor=floor,
        nodes=tuple(r.id for r in rooms),
        neighbors={k: tuple(sorted(v)) for k, v in neighbors.items()},
        rooms={r.id: r for r in rooms},
        start=rooms[0].id,
        end=rooms[-1].id,
    )


def bfs_balanced_room(g: FloorGraph) -> int:
    """The deepest room among those balanced between the start and end.

    Candidate rooms minimize the distance imbalance |d_start - d_end|;
    within that set the reciprocal score 1/d_start + 1/d_end ranks
    candidates and the minimum (the room farthest from both endpoints)
    wins, ties breaking on the lowest topological order. Ranking by the raw score alone rewards rooms
    adjacent to either endpoint, which measurably inverts the intended
    pacing: baseline keys would beat the speedrun strategy. Endpoint rooms
    themselves are excluded.
    """
    if g.start == g.end:
        return g.start
    d_start = bfs(g.start, g.neighbors.__getitem__)
    d_end = bfs(g.end, g.neighbors.__getitem__)
    candidates: list[tuple[float, float, int, int]] = []
    for node in g.nodes:
        ds = d_start.get(node)
        de = d_end.get(node)
        if not ds or not de:  # unreachable or an endpoint itself
            continue
        imbalance = abs(ds - de)
        score = 1.0 / ds + 1.0 / de
        candidates.append((imbalance, score, g.tau(node), node))
    if not candidates:
        return g.start
    best_imbalance = min(c[0] for c in candidates)
    balanced = [c for c in candidates if c[0] == best_imbalance]
    balanced.sort(key=lambda c: (c[1], c[2], c[3]))
    return balanced[0][3]


def _neighbor_distance_spread(g: FloorGraph, room_id: int) -> float:
    """Population stddev of center distances to graph neighbors (0 if alone)."""
    cx, cy = g.rooms[room_id].center()
    dists = []
    for other in g.neighbors[room_id]:
        ox, oy = g.rooms[other].center()
        dists.append(math.hypot(cx - ox, cy - oy))
    if len(dists) < 2:
        return 0.0
    mean = sum(dists) / len(dists)
    return math.sqrt(sum((d - mean) ** 2 for d in dists) / len(dists))


def mc_dispersion_rooms(g: FloorGraph, n: int, rng: Random) -> list[int]:
    """Pick `n` distinct key rooms by sampling low key-density points.

    Each round samples candidate points uniformly over the remaining rooms'
    interiors, scores them by the neighbor-distance spread of their room
    times one minus the normalized gaussian key density, and claims the
    best point's room; the room center joins the density field.
    """
    if n >= len(g.nodes):
        return list(g.nodes)
    keys: list[tuple[float, float]] = []
    available = list(g.nodes)
    weights = [g.rooms[r].dims.footprint_area() for r in available]
    selected: list[int] = []
    inv_two_sigma2 = 1.0 / (2.0 * MC_SIGMA * MC_SIGMA)

    for _ in range(n):
        spread = {r: _neighbor_distance_spread(g, r) for r in available}
        best: tuple[float, int] | None = None
        for _ in range(MC_SAMPLES):
            room_id = rng.choices(available, weights=weights, k=1)[0]
            room = g.rooms[room_id]
            ox, oy = room.origin
            px = ox + rng.random() * room.dims.width
            py = oy + rng.random() * room.dims.length
            density = sum(
                math.exp(-((px - kx) ** 2 + (py - ky) ** 2) * inv_two_sigma2)
                for kx, ky in keys
            )
            norm = density / len(keys) if keys else 0.0
            score = spread[room_id] * (1.0 - norm)
            if best is None or score > best[0]:
                best = (score, room_id)
        chosen = best[1]
        selected.append(chosen)
        keys.append(g.rooms[chosen].center())
        idx = available.index(chosen)
        available.pop(idx)
        weights.pop(idx)

    return selected


def closeness_centrality(g: FloorGraph) -> dict[int, float]:
    """(n - 1) / summed hop distance per room; 0 when some room is unreachable."""
    n = len(g.nodes)
    if n == 1:
        return {g.nodes[0]: 1.0}
    out = {}
    for node in g.nodes:
        hops = bfs(node, g.neighbors.__getitem__)
        total = sum(hops.values())
        out[node] = (n - 1) / total if len(hops) == n else 0.0
    return out


def centrality_room(g: FloorGraph) -> int:
    """Room with the highest closeness centrality; ties break on the lowest
    topological order."""
    if len(g.nodes) == 1:
        return g.nodes[0]
    closeness = closeness_centrality(g)
    return min(g.nodes, key=lambda node: (-closeness[node], g.tau(node), node))
