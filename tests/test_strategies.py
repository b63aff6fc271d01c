import heapq
import itertools
import math
from random import Random

import pytest

from levelforge.geometry import bfs
from levelforge.level import AdjacencyEdge
from levelforge.strategies import (
    bfs_balanced_room,
    build_floor_graph,
    centrality_room,
    closeness_centrality,
    mc_dispersion_rooms,
)

from conftest import make_level, make_room


def graph_from_edges(n, edges, spacing=8.0):
    rooms = [make_room(i + 1, (spacing * i, 0.0), 6, 6, tau=i + 1) for i in range(n)]
    adjacency = [AdjacencyEdge(a, b, "door") for a, b in edges]
    level = make_level(rooms, adjacency=adjacency, width=spacing * n + 10, length=10)
    return build_floor_graph(level, 0)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


# -- balanced (reciprocal-distance) strategy -------------------------------------


def test_three_node_path_picks_middle():
    g = path_graph(3)
    assert bfs_balanced_room(g) == 2  # only candidate: 1/1 + 1/1 = 2.0


def test_five_node_path_picks_balanced_middle():
    # imbalance |ds - de|: B=D=2, C=0 -> only C is balanced.
    # (Ranking by the raw reciprocal score would hand the key to an
    # endpoint-adjacent room and invert the measured pacing ordering.)
    g = path_graph(5)
    assert bfs_balanced_room(g) == 3


def test_balanced_set_ranked_by_lowest_score():
    # two balanced candidates at different depths: a 7-path has C (2,2... )
    # no: rooms 3 and 5 of an 8-ring are both equidistant; build explicitly
    g = graph_from_edges(
        7,
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 6), (2, 7)],
    )
    # start=1, end=7: balanced rooms (|ds-de|=0) at several depths; the
    # deepest one (lowest reciprocal score) must win
    ds, de = bfs(g.start, g.neighbors.__getitem__), bfs(g.end, g.neighbors.__getitem__)
    chosen = bfs_balanced_room(g)
    assert ds[chosen] == de[chosen]
    balanced = [n for n in g.nodes if n not in (g.start, g.end) and ds[n] == de[n]]
    assert all(
        0.5 / ds[chosen] + 0.5 / de[chosen] <= 0.5 / ds[n] + 0.5 / de[n] + 1e-12
        for n in balanced
    )


def test_degenerate_single_room_floor():
    g = path_graph(1)
    assert bfs_balanced_room(g) == 1


def test_two_room_floor_falls_back_to_start():
    g = path_graph(2)
    assert bfs_balanced_room(g) == 1


# -- monte carlo dispersion --------------------------------------------------------


def test_dispersion_single_candidate_room():
    g = path_graph(1)
    assert mc_dispersion_rooms(g, n=3, rng=Random(0)) == [1]


def test_density_field_suppresses_existing_key_sites():
    # a key parked at a room's center drives that point's score factor to zero
    sigma = 3.0
    key = (4.0, 3.0)
    rho = math.exp(-((0.0) ** 2) / (2 * sigma * sigma))  # at the key itself
    assert rho == 1.0
    assert (1.0 - rho / 1) == 0.0


def test_dispersion_returns_distinct_rooms():
    g = graph_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)])
    for seed in range(100):
        rooms = mc_dispersion_rooms(g, n=3, rng=Random(seed))
        assert len(rooms) == len(set(rooms)) == 3


def test_dispersion_is_deterministic_given_seed():
    g = graph_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    a = mc_dispersion_rooms(g, n=3, rng=Random(11))
    b = mc_dispersion_rooms(g, n=3, rng=Random(11))
    assert a == b


# -- centrality strategy -------------------------------------------------------------


def test_three_node_path_closeness():
    g = path_graph(3)
    closeness = closeness_centrality(g)
    assert closeness[2] == pytest.approx(1.0)
    assert closeness[1] == pytest.approx(2.0 / 3.0)
    assert centrality_room(g) == 2


def test_single_room_closeness_convention():
    g = path_graph(1)
    assert closeness_centrality(g) == {1: 1.0}
    assert centrality_room(g) == 1


def test_complete_graph_tie_breaks_to_lowest_tau():
    edges = [(a, b) for a, b in itertools.combinations(range(1, 5), 2)]
    g = graph_from_edges(4, edges)
    assert centrality_room(g) == 1


# -- graph-distance oracles ------------------------------------------------------------


def _dijkstra(g, source):
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        for nxt in g.neighbors[node]:
            nd = d + 1
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def _random_graph(rng, n):
    edges = set()
    nodes = list(range(1, n + 1))
    for a, b in zip(nodes, nodes[1:]):
        if rng.random() < 0.8:
            edges.add((a, b))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        a, b = rng.sample(nodes, 2)
        edges.add((min(a, b), max(a, b)))
    return graph_from_edges(n, sorted(edges))


def test_bfs_equals_dijkstra_on_random_graphs():
    rng = Random(5)
    for _ in range(50):
        g = _random_graph(rng, rng.randrange(2, 10))
        for source in g.nodes:
            hops = bfs(source, g.neighbors.__getitem__)
            dij = _dijkstra(g, source)
            assert hops == dij


def test_bfs_all_pairs_symmetry_and_triangle_inequality():
    rng = Random(9)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(2, 9))
        hops = {a: bfs(a, g.neighbors.__getitem__) for a in g.nodes}
        dist = {a: {b: hops[a].get(b, math.inf) for b in g.nodes} for a in g.nodes}
        for a in g.nodes:
            for b in g.nodes:
                assert dist[a][b] == dist[b][a]
                for c in g.nodes:
                    if math.isfinite(dist[a][c]) and math.isfinite(dist[c][b]):
                        assert dist[a][b] <= dist[a][c] + dist[c][b] + 1e-9


def test_strategies_are_deterministic_given_graph_and_seed():
    g = graph_from_edges(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 6)])
    assert bfs_balanced_room(g) == bfs_balanced_room(g)
    assert centrality_room(g) == centrality_room(g)
    assert mc_dispersion_rooms(g, n=2, rng=Random(1)) == mc_dispersion_rooms(
        g, n=2, rng=Random(1)
    )
