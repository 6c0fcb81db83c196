import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfim import (
    InputError,
    ball,
    boundary,
    build_graph,
    complete_graph,
    connected_ordering,
    cycle_graph,
    edge_ball,
    graph_distance,
    growth_profile,
    path_graph,
    random_regular_graph,
    torus_grid,
    tree3,
)
from rfim.graphs import (
    connected_components,
    distances_from,
    eccentricity,
    graph_from_edgelist_text,
    graph_from_json_dict,
    graph_to_edgelist_text,
    graph_to_json_dict,
    is_connected,
)

from strategies import models


def test_build_graph_single_vertex():
    g = build_graph(1, [])
    assert g.num_vertices == 1
    assert g.max_degree() == 0


def test_build_graph_p3_degrees():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_build_graph_k4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert g.max_degree() == 3
    assert g.num_edges == 6


def test_build_graph_dedupes():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_build_graph_rejects_bad_input():
    with pytest.raises(InputError):
        build_graph(2, [(0, 2)])
    with pytest.raises(InputError):
        build_graph(2, [(1, 1)])


def test_ball_radius_zero():
    g = complete_graph(4)
    assert ball(g, 2, 0) == {2}


def test_ball_on_path():
    g = path_graph(3)
    assert ball(g, 1, 1) == {0, 1, 2}
    assert ball(g, 0, 1) == {0, 1}


def test_ball_out_of_range():
    with pytest.raises(InputError):
        ball(path_graph(3), 5, 1)


def test_boundary_examples():
    g = path_graph(3)
    assert boundary(g, {1}) == {0, 2}
    assert boundary(g, {0, 1, 2}) == frozenset()
    assert boundary(complete_graph(4), {0}) == {1, 2, 3}


def test_edge_ball_examples():
    g = path_graph(3)
    assert edge_ball(g, (0, 1), 0) == {0, 1}
    assert edge_ball(g, (0, 1), 1) == {0, 1, 2}
    k4 = complete_graph(4)
    assert edge_ball(k4, (0, 1), 1) == {0, 1, 2, 3}
    with pytest.raises(InputError):
        edge_ball(g, (0, 2), 1)


def test_growth_profile_single_vertex():
    assert growth_profile(build_graph(1, []), 0.5, 1.0).satisfied


def test_growth_profile_path100():
    # |B_r| = 2r+1 <= e^{5 sqrt r} for every r, checked directly
    profile = growth_profile(path_graph(100), 0.5, 5.0)
    assert profile.satisfied
    for r, size in profile.per_radius_max_ball:
        assert size <= math.exp(5.0 * math.sqrt(r))
        assert size == min(2 * r + 1, 100)


def test_growth_profile_tree_fails_small_budget():
    g = tree3(6)
    profile = growth_profile(g, 0.5, 1.0)
    assert not profile.satisfied
    # independent recomputation of the satisfied flag
    violated = any(size > math.exp(1.0 * r**0.5) for r, size in profile.per_radius_max_ball)
    assert violated


def test_growth_profile_rejects_bad_alpha():
    with pytest.raises(InputError):
        growth_profile(path_graph(3), 1.5, 1.0)


def test_connected_ordering_path_from_zero():
    assert connected_ordering(path_graph(3), seed=0, start=0) == (0, 1, 2)


def _prefixes_connected(g, order):
    # union-find over each prefix
    for i in range(1, len(order) + 1):
        prefix = set(order[:i])
        parent = {v: v for v in prefix}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in g.edges:
            if u in prefix and v in prefix:
                parent[find(u)] = find(v)
        roots = {find(v) for v in prefix}
        if len(roots) != 1:
            return False
    return True


def test_connected_ordering_prefixes_connected():
    for seed in range(5):
        g = complete_graph(4)
        order = connected_ordering(g, seed)
        assert sorted(order) == [0, 1, 2, 3]
        assert _prefixes_connected(g, order)
    g = torus_grid(3, 4)
    order = connected_ordering(g, seed=3)
    assert _prefixes_connected(g, order)


def test_connected_ordering_disconnected_names_vertex():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError, match=r"vertex \d"):
        connected_ordering(g, seed=1, start=0)


def test_connected_ordering_deterministic():
    g = random_regular_graph(12, 3, seed=5)
    assert connected_ordering(g, seed=9) == connected_ordering(g, seed=9)


def test_generators_shapes():
    assert cycle_graph(5).num_edges == 5
    assert torus_grid(3, 3).max_degree() == 4
    g = random_regular_graph(10, 3, seed=2)
    assert all(g.degree(v) == 3 for v in range(10))
    t = tree3(2)
    assert t.num_vertices == 1 + 3 + 6
    assert t.max_degree() == 3


def test_distance_and_eccentricity():
    g = path_graph(5)
    assert graph_distance(g, 0, 4) == 4
    assert eccentricity(g, 2) == 2
    assert is_connected(g)
    comps = connected_components(build_graph(4, [(0, 1)]))
    assert sorted(map(tuple, comps)) == [(0, 1), (2,), (3,)]


def test_io_roundtrips():
    g = complete_graph(4)
    assert graph_from_edgelist_text(graph_to_edgelist_text(g)).edges == g.edges
    assert graph_from_json_dict(graph_to_json_dict(g)).edges == g.edges
    with pytest.raises(InputError):
        graph_from_edgelist_text("3 5\n0 1\n")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    max_edges = n * (n - 1) // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=max_edges)) if pairs else []
    return build_graph(n, chosen)


@settings(max_examples=60)
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_ball_monotone_in_radius(g, r):
    v = 0
    assert ball(g, v, r) <= ball(g, v, r + 1)


@settings(max_examples=40)
@given(models().map(lambda m: m.graph), st.integers(min_value=0, max_value=6), st.data())
def test_ball_is_the_distance_filter(g, r, data):
    v = data.draw(st.integers(0, g.num_vertices - 1))
    dist = distances_from(g, v)
    assert ball(g, v, r) == {int(x) for x in np.nonzero((dist >= 0) & (dist <= r))[0]}


@settings(max_examples=60)
@given(small_graphs(), st.integers(min_value=0, max_value=7))
def test_boundary_disjoint_from_set(g, size):
    a = set(range(min(size, g.num_vertices)))
    assert boundary(g, a).isdisjoint(a)


@settings(max_examples=40)
@given(small_graphs())
def test_ball_at_diameter_covers_component(g):
    dists = [graph_distance(g, 0, v) for v in connected_components(g)[0]]
    comp = set(connected_components(g)[0])
    assert ball(g, 0, max(dists)) == comp


@pytest.mark.parametrize("g", [torus_grid(6, 7), random_regular_graph(30, 5, 3)])
def test_has_edge_agrees_with_edges(g):
    edges = set(g.edges)
    for u in range(g.num_vertices):
        for v in range(g.num_vertices):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    assert all(g.edges[i] == e for e, i in g.edge_index().items())
