import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rfim import (
    CapacityError,
    FieldDistribution,
    InputError,
    IsingModel,
    assumption_params,
    build_graph,
    cluster_of_edge,
    cluster_tail_bound,
    complete_graph,
    cycle_graph,
    disagreement_experiment,
    gap_certificate,
    grid_graph,
    mlsi_certificate,
    norm_interpolation_check,
    otter_dwass_pmf,
    path_graph,
    percolate,
    refined_gap_tail,
    row_sum_tail_bound,
    row_sum_tail_report,
    sample_field,
    simulate_total_progeny,
    theta_star,
    to_zero_one,
)
from rfim import percolation
from rfim.percolation import (
    PercolationRealization,
    _p0_from_alpha_star,
    percolation_from_uniforms,
    revelation_order,
)
from rfim.rng import PERCOLATION, substream

from conftest import random_field_model
from strategies import models


def test_percolate_vanishing_p0_mostly_empty():
    g = path_graph(5)
    dist = FieldDistribution.gaussian(1.0)
    empty = 0
    seeds = 10_000
    for s in range(seeds):
        field = sample_field(dist, 5, seed=s)
        real = percolate(g, field, k=0.0, p0=1e-9, seed=s)
        empty += not real.open_set
    assert empty / seeds >= 0.99


def test_percolate_k_above_field_opens_all():
    g = complete_graph(4)
    field = sample_field(FieldDistribution.uniform_symmetric(1.0), 4, seed=2)
    real = percolate(g, field, k=2.0, p0=0.1, seed=3)
    assert real.open_set == set(range(4))
    assert (real.provenance == 1).all()


def test_percolate_uniform_open_fraction():
    n = 100_000
    g = build_graph(n, [])
    field = sample_field(FieldDistribution.two_point(5.0), n, seed=4)
    real = percolate(g, field, k=1.0, p0=0.2, seed=5)
    frac = len(real.open_set) / n
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(frac - 0.1) <= 3 * sigma


def test_cluster_forced_endpoints_only():
    g = path_graph(5)
    real = percolation_from_uniforms(g, np.full(5, 9.0), k=1.0, p0=0.2,
                                     uniforms=np.full(5, 0.5))
    assert real.open_set == frozenset()
    assert cluster_of_edge(real, (1, 2)) == {1, 2}


def test_cluster_all_open_covers_graph():
    g = cycle_graph(6)
    real = percolation_from_uniforms(g, np.zeros(6), k=1.0, p0=0.2,
                                     uniforms=np.full(6, 0.5))
    assert cluster_of_edge(real, (0, 1)) == set(range(6))


def test_cluster_blocked_by_closed_middle():
    g = path_graph(5)
    h = np.array([0.0, 0.0, 9.0, 0.0, 0.0])
    real = percolation_from_uniforms(g, h, k=1.0, p0=0.2, uniforms=np.full(5, 0.5))
    assert cluster_of_edge(real, (0, 1)) == {0, 1}


def open_component(g, open_set, e):
    """The edge's component in the subgraph induced by the open set and both
    endpoints, labelled by scipy: the reference for cluster_of_edge."""
    keep = set(open_set) | {e[0], e[1]}
    ends = np.array([(a, b) for a, b in g.edges if a in keep and b in keep], dtype=np.int64)
    ends = ends.reshape(-1, 2)
    adj = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                     shape=(g.num_vertices, g.num_vertices))
    _, label = connected_components(adj, directed=False)
    return {w for w in keep if label[w] == label[e[0]]}


def queue_revelation_order(g, e, mode, cluster=None):
    """Revelation orders by explicit queues: the reference for revelation_order."""
    def from_edge(allowed=None):
        u, v = int(e[0]), int(e[1])
        seen, inset, queue = [u, v], {u, v}, deque((u, v))
        while queue:
            w = queue.popleft()
            for x in sorted(g.adjacency[w]):
                if x not in inset and (allowed is None or x in allowed):
                    inset.add(x)
                    seen.append(x)
                    queue.append(x)
        return seen

    if mode == "bfs":
        order = from_edge()
    else:
        order = from_edge(allowed=cluster)
        revealed = set(order)
        order.extend(sorted(v for v in range(g.num_vertices)
                            if v not in revealed and any(w in cluster for w in g.adjacency[v])))
        seen, queue = set(order), deque(order)
        while queue:
            w = queue.popleft()
            for x in sorted(g.adjacency[w]):
                if x not in seen:
                    seen.add(x)
                    order.append(x)
                    queue.append(x)
    placed = set(order)
    return tuple(order + [v for v in range(g.num_vertices) if v not in placed])


@settings(max_examples=80)
@given(models().map(lambda m: m.graph).filter(lambda g: g.num_edges > 0), st.data())
def test_traversals_match_queue_references(g, data):
    vertices = st.integers(0, g.num_vertices - 1)
    e = data.draw(st.sampled_from(g.edges))
    open_set = frozenset(data.draw(st.sets(vertices)))
    real = PercolationRealization(g, open_set, np.zeros(g.num_vertices, dtype=np.int8))
    cluster = cluster_of_edge(real, e)
    assert cluster == open_component(g, open_set, e)
    assert revelation_order(g, e, mode="bfs") == queue_revelation_order(g, e, "bfs")
    # any vertex set may be passed as the cluster, not only a percolation cluster
    for given_cluster in (cluster, frozenset(data.draw(st.sets(vertices)))):
        assert (revelation_order(g, e, mode="cluster", cluster=given_cluster)
                == queue_revelation_order(g, e, "cluster", given_cluster))


def test_otter_dwass_values():
    assert otter_dwass_pmf(3, 0.1, 2) == pytest.approx(0.9**4, abs=1e-12)
    xs = np.arange(2, 501)
    total = otter_dwass_pmf(3, 0.1, xs).sum()
    assert abs(total - 1.0) <= 1e-6
    assert otter_dwass_pmf(3, 1e-12, 2) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InputError):
        otter_dwass_pmf(3, 0.1, 0)


def test_cluster_tail_dominates_exact_tail():
    xs = np.arange(2, 2001)
    pmf = otter_dwass_pmf(3, 0.1, xs)
    for m in range(2, 51):
        exact_tail = pmf[xs >= m].sum()
        assert cluster_tail_bound(3, 0.1, m).tail_bound >= exact_tail


def test_cluster_tail_bound_decreasing():
    vals = [cluster_tail_bound(3, 0.1, m).tail_bound for m in range(2, 30)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_forward_simulation_matches_pmf():
    forests = 200_000
    totals = simulate_total_progeny(3, 0.1, forests, seed=6)
    xs = np.arange(2, 30)
    pmf = otter_dwass_pmf(3, 0.1, xs)
    counts = np.bincount(totals, minlength=30)
    for x, p in zip(xs, pmf):
        expected = forests * p
        if expected < 50:
            continue
        sigma = math.sqrt(forests * p * (1 - p))
        assert abs(counts[x] - expected) <= 3.5 * sigma


def test_disagreement_contained_at_theta_star():
    beta = 0.3
    m01 = to_zero_one(random_field_model(complete_graph(3), beta, seed=7))
    field = sample_field(FieldDistribution.two_point(5.0), 3, seed=8)
    for run in range(100):
        res = disagreement_experiment(m01, (0, 1), theta_star(beta), {}, field.values,
                                      k=4.5, p0=0.05, seed=run)
        assert res.disagreement_set <= {0, 1}
        assert res.contained


def test_disagreement_containment_bfs_on_trees():
    beta, p0, k = 0.5, 0.05, 4.5
    assert assumption_params(p0, k, beta, 3).valid
    dist = FieldDistribution.two_point(5.0)
    g = path_graph(5)
    for run in range(300):
        field = sample_field(dist, 5, seed=5000 + run)
        m01 = to_zero_one(IsingModel.uniform(g, beta, field.values))
        res = disagreement_experiment(m01, (1, 2), 0.4 * theta_star(beta), {},
                                      field.values, k=k, p0=p0, seed=run, order="bfs")
        assert res.contained


def test_disagreement_containment_cluster_order_on_cycle():
    # the cluster-first order screens exactly even on cyclic graphs
    beta, p0, k = 0.5, 0.4, 4.5
    dist = FieldDistribution.two_point(5.0)
    g = cycle_graph(6)
    for run in range(300):
        field = sample_field(dist, 6, seed=9000 + run)
        m01 = to_zero_one(IsingModel.uniform(g, beta, field.values))
        res = disagreement_experiment(m01, (0, 1), 0.5 * theta_star(beta), {},
                                      field.values, k=k, p0=p0, seed=run, order="cluster")
        assert res.contained


def test_revelation_orders_are_permutations():
    g = cycle_graph(6)
    bfs = revelation_order(g, (0, 1), mode="bfs")
    assert sorted(bfs) == list(range(6))
    assert bfs[:2] == (0, 1)
    cl = revelation_order(g, (0, 1), mode="cluster", cluster=frozenset({0, 1, 5}))
    assert sorted(cl) == list(range(6))
    assert set(cl[:3]) == {0, 1, 5}


def test_row_sum_tail_report_below_bound():
    report = row_sum_tail_report(
        complete_graph(3), beta=0.5, theta_grid=[0.0, 0.4], k=4.5, p0=0.05,
        field_dist=FieldDistribution.two_point(5.0), trials=60, seed=11,
        m_grid=[0.5, 1.0, 2.0, 4.0])
    assert report.mode == "exact"
    for row in report.rows:
        assert (row.row_exceed_freq <= max(row.bound, 1.0)).all()
        assert (row.col_exceed_freq <= max(row.bound, 1.0)).all()
    bounds = [r.bound for r in report.rows]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    assert row_sum_tail_bound(3, 0.05, 0.5) > 1.0


def test_row_sum_tail_report_samples_pinnings_above_the_sweep_cap():
    report = row_sum_tail_report(
        grid_graph(3, 4), beta=0.5, theta_grid=[0.0, 0.4], k=4.5, p0=0.05,
        field_dist=FieldDistribution.two_point(5.0), trials=2, seed=11,
        m_grid=[0.5, 1.0], sampled_pinnings=20)
    assert report.mode == "sampled"
    assert report.interpolation_all_ok
    assert all(row.row_exceed_freq.shape == (17,) for row in report.rows)


def test_row_sum_tail_report_caps_before_drawing(monkeypatch):
    kwargs = dict(beta=0.3, theta_grid=[0.0], k=4.5, p0=0.05,
                  field_dist=FieldDistribution.two_point(5.0), trials=1, seed=1, m_grid=[0.5])
    # 3^40 codes overflow int64, so the cap must come before the pinning draw
    with pytest.raises(CapacityError):
        row_sum_tail_report(cycle_graph(40), **kwargs)

    def draw_anyway(*args, **kw):
        raise AssertionError("drew a field before checking the cap")

    monkeypatch.setattr(percolation, "sample_field", draw_anyway)
    with pytest.raises(CapacityError):
        row_sum_tail_report(cycle_graph(15), **kwargs)


def test_row_sum_tail_report_needs_a_trial():
    with pytest.raises(InputError):
        row_sum_tail_report(cycle_graph(4), beta=0.3, theta_grid=[0.0], k=4.5, p0=0.05,
                            field_dist=FieldDistribution.two_point(5.0), trials=0, seed=1,
                            m_grid=[0.5])


def test_norm_interpolation_examples():
    res = norm_interpolation_check(np.eye(3))
    assert res.opnorm == pytest.approx(1.0)
    assert res.bound == pytest.approx(1.0)
    assert res.ok
    res2 = norm_interpolation_check(np.ones((2, 2)))
    assert res2.opnorm == pytest.approx(2.0)
    assert res2.bound == pytest.approx(2.0)
    assert res2.ok
    with pytest.raises(InputError):
        norm_interpolation_check(np.ones((2, 3)))


def test_norm_interpolation_random_sign_matrices():
    rng = substream(3, PERCOLATION)
    for _ in range(1000):
        a = rng.integers(0, 2, size=(4, 4)) * 2 - 1
        assert norm_interpolation_check(a).ok


def test_gap_certificate_values():
    assert gap_certificate(1, 0.5, 3, 0.8).gap_lower == pytest.approx(1.0)
    cert = gap_certificate(10, 0.5, 3, 0.8304)
    expected = 0.1 * math.exp(-24.0 * math.log(10) / 0.8304)
    assert cert.gap_lower == pytest.approx(expected, rel=1e-9)
    assert cert.log_gap_lower == pytest.approx(math.log(expected), rel=1e-9)
    assert cert.tmix_upper(0.01, 5.0) > 0


def test_gap_certificate_monotone():
    base = gap_certificate(20, 0.5, 3, 1.0).log_gap_lower
    assert gap_certificate(20, 0.8, 3, 1.0).log_gap_lower < base
    assert gap_certificate(20, 0.5, 4, 1.0).log_gap_lower < base
    assert gap_certificate(20, 0.5, 3, 2.0).log_gap_lower > base


def test_mlsi_certificate_values():
    cert = mlsi_certificate(10, 1e-12, 3, 0.8304, 0.0)
    assert cert.rho_lower == pytest.approx(1.0 / 30.0, rel=1e-6)
    cert2 = mlsi_certificate(10, 0.5, 3, 0.8304, 1.0)
    assert np.isfinite(cert2.log_rho_lower)
    assert cert2.log_rho_lower < 0
    assert cert2.rho_lower <= 1.0
    k_expected = (1.0 + math.exp(2 * (1.5 + 1.0))) ** 2
    assert cert2.k_constant == pytest.approx(k_expected, rel=1e-12)


def test_mlsi_certificate_tmix_upper():
    cert = mlsi_certificate(10, 0.01, 3, 0.8304, 1.0)
    want = (math.log(0.01 * 3 * 10 + 2.0) + math.log(100.0)) / cert.rho_lower
    assert cert.tmix_upper(0.01, 2.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(InputError):
        cert.tmix_upper(1.0, 2.0)
    # rho^-1 overflows at beta = 0.5; the bound is then infinite, with no warning
    assert mlsi_certificate(10, 0.5, 3, 0.8304, 1.0).tmix_upper(0.01, 2.0) == math.inf


def test_refined_gap_tail():
    r = refined_gap_tail(100, 0.5, 3, 100.0, l_value=50.0)
    assert r.epsilon == pytest.approx(2.4)
    assert refined_gap_tail(100, 0.5, 3, 200.0, 50.0).epsilon < r.epsilon
    # adding d to L multiplies the failure probability by e^{-2d}
    f1 = refined_gap_tail(100, 0.5, 3, 100.0, 50.0).failure_probability
    f2 = refined_gap_tail(100, 0.5, 3, 100.0, 50.0 + math.log(2) / 2).failure_probability
    assert f2 == pytest.approx(f1 / 2.0, rel=1e-9)
    assert np.isfinite(r.kappa0)
    assert not refined_gap_tail(100, 0.5, 3, 100.0, 1e6).below_threshold
    assert refined_gap_tail(100, 0.5, 3, 100.0, 0.001).below_threshold


def test_p0_inversion_roundtrip():
    for p0 in (0.01, 0.05, 0.2):
        alpha = assumption_params(p0, 4.0, 0.5, 3).alpha_star
        assert _p0_from_alpha_star(alpha, 3) == pytest.approx(p0, rel=1e-9)
