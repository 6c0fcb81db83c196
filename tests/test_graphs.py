import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    bfs,
    connected_components,
    distances_from,
    graph_from_edgelist_text,
    graph_from_json_dict,
    graph_to_edgelist_text,
    graph_to_json_dict,
    is_connected,
)
from induced_reference import edge_scan_induced
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


def test_fractional_or_negative_depth_is_rejected():
    # a depth the layer count never equals would let the walk run to the end
    g = path_graph(10)
    for walk in (lambda: ball(g, 0, 1.5), lambda: bfs(g, [0], depth=1.5),
                 lambda: edge_ball(g, (0, 1), 0.5), lambda: ball(g, 0, -1)):
        with pytest.raises(InputError):
            walk()
    assert ball(g, 0, np.int64(2)) == {0, 1, 2}
    assert bfs(g, [4], depth=np.int64(1)) == [4, 3, 5]


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
    for e in [(0, 2), (0.9, 1.2), (0, 1.0), (-1, 0)]:
        with pytest.raises(InputError):
            edge_ball(path_graph(5), e, 1)
    assert edge_ball(path_graph(5), (np.int64(1), np.int64(0)), 1) == {0, 1, 2}


def test_growth_profile_single_vertex():
    assert growth_profile(build_graph(1, []), 0.5, 1.0).satisfied


def test_growth_profile_path100():
    # |B_r| = 2r+1 <= e^{5 sqrt r} for every r, checked directly
    profile = growth_profile(path_graph(100), 0.5, 5.0)
    assert profile.satisfied
    for r, size in profile.per_radius_max_ball:
        assert size <= math.exp(5.0 * math.sqrt(r))
        assert size == min(2 * r + 1, 100)


def test_growth_profile_takes_a_budget_past_exp_overflow():
    # exp(1000 r^0.5) overflows a float at every r >= 1
    assert growth_profile(path_graph(5), 0.5, 1000.0).satisfied


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


@pytest.mark.parametrize("c_alpha", [math.nan, math.inf, 0.0, -1.0])
def test_growth_profile_rejects_a_budget_that_is_not_finite_and_positive(c_alpha):
    with pytest.raises(InputError):
        growth_profile(tree3(6), 0.5, c_alpha)


@pytest.mark.parametrize("g", [torus_grid(20, 20), path_graph(400)])
def test_growth_profile_keeps_no_per_vertex_table(g):
    # an n x n distance table alone is 1.2 MiB on these graphs
    tracemalloc.start()
    try:
        growth_profile(g, 0.5, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_connected_ordering_path_from_zero():
    # started at an end, a path's order is forced; a sub-path orders the same way
    assert connected_ordering(path_graph(3), seed=0) == (0, 1, 2)
    assert connected_ordering(path_graph(5), seed=0, vertices=[4, 2, 3]) == (2, 3, 4)


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
        connected_ordering(g, seed=1)
    # only edges inside the vertex set count
    with pytest.raises(InputError, match=r"vertex \d"):
        connected_ordering(path_graph(3), seed=1, vertices=[0, 2])
    with pytest.raises(InputError):
        connected_ordering(path_graph(3), seed=1, vertices=[3])


@settings(max_examples=60)
@given(models(), st.integers(0, 2**32 - 1))
def test_connected_ordering_of_a_component_matches_its_induced_model(m, seed):
    # The staged sampler orders each component inside the parent graph; the
    # relabelled induced model of the component is the reference route.
    for comp in connected_components(m.graph):
        local = connected_ordering(edge_scan_induced(m, comp).graph, seed)
        assert connected_ordering(m.graph, seed, comp) == tuple(comp[i] for i in local)


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
    assert distances_from(g, 2).max() == 2
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


def all_pairs_reference(g):
    """Floyd-Warshall over ``g.edges``, no BFS: d[u, v] is the graph distance, -1 if none."""
    n = g.num_vertices
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in g.edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return np.where(np.isinf(d), -1, d).astype(np.int64)


any_graphs = st.one_of(small_graphs(), models().map(lambda m: m.graph))


@settings(max_examples=60)
@given(any_graphs, st.integers(min_value=0, max_value=6), st.data())
def test_ball_is_the_distance_filter(g, r, data):
    v = data.draw(st.integers(0, g.num_vertices - 1))
    row = all_pairs_reference(g)[v]
    assert distances_from(g, v).tolist() == row.tolist()
    assert ball(g, v, r) == {int(x) for x in np.nonzero((row >= 0) & (row <= r))[0]}


@settings(max_examples=60)
@given(any_graphs, st.sampled_from([0.5, 1.0, 3.0]))
# paths on 0-2 and 8-11 around K5 on 3-7: for r = 2, 3 the largest ball is K5,
# past its vertices' eccentricity, walked after a shorter and before a longer path
@example(build_graph(12, [(0, 1), (1, 2), (8, 9), (9, 10), (10, 11)]
                     + [(u, w) for u in range(3, 8) for w in range(u + 1, 8)]), 1.0)
def test_growth_profile_matches_the_all_pairs_reference(g, c_alpha):
    d = all_pairs_reference(g)
    radii = range(1, int(d.max(initial=0)) + 1)
    rows = tuple((r, int(((d >= 0) & (d <= r)).sum(axis=1).max())) for r in radii)
    profile = growth_profile(g, 0.5, c_alpha)
    assert profile.per_radius_max_ball == rows
    assert profile.satisfied == all(size <= math.exp(c_alpha * r**0.5) for r, size in rows)


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


def test_has_edge_is_false_off_the_vertex_range():
    # adjacency[-1] is the last vertex's row, which holds 0 on a cycle
    g = cycle_graph(5)
    assert g.has_edge(4, 0) and g.has_edge(0, 4)
    for u, v in ((-1, 0), (0, -1), (5, 4), (4, 5), (-1, 3)):
        assert not g.has_edge(u, v)
