import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rfim import (
    CapacityError,
    FieldDistribution,
    InputError,
    IsingModel,
    build_graph,
    build_separation_plan,
    complete_graph,
    cycle_graph,
    estimate_wsm,
    gibbs_table,
    induced_model,
    marginals,
    mean_and_covariance,
    path_graph,
    sample_field,
    sl_boost,
    trace_moment_probe,
    weak_poincare_probe,
    wsm_delta,
)
from rfim import oracle
from rfim.graphs import ball, boundary, eccentricity, random_regular_graph, torus_grid
from rfim.slwsm import (
    averaged_boosted_table,
    magnetization_function,
    single_site_function,
)

from conftest import random_field_model, uniform_model
from strategies import models
from test_model import _edge_scan_induced


def test_sl_boost_identity_at_zero():
    m = random_field_model(path_graph(3), 0.5, seed=1)
    real = sl_boost(m, 0.0, seed=2)
    assert np.allclose(real.boosted_model.field, m.field)
    assert np.allclose(real.y, 0.0)


def test_sl_boost_consistency():
    m = random_field_model(path_graph(3), 0.5, seed=1)
    real = sl_boost(m, 2.0, seed=3)
    assert np.allclose(real.y, 2.0 * real.sigma_star.values() + real.noise)
    assert np.allclose(real.boosted_model.field, m.field + real.y)
    assert np.allclose(real.boosted_model.couplings, m.couplings)


def test_sl_boost_large_t_overwhelms_field():
    m = random_field_model(path_graph(4), 0.5, seed=4)
    table = gibbs_table(m)
    t = 50.0
    hits = 0
    draws = 10_000
    for i in range(draws):
        real = sl_boost(m, t, seed=5, index=i, table=table)
        if (np.abs(real.boosted_model.field) > 1.0).all():
            hits += 1
    assert hits / draws >= 0.999


def test_sl_boost_martingale():
    m = random_field_model(path_graph(3), 0.5, seed=5)
    mean, stderr, table = averaged_boosted_table(m, 2.0, 10_000, seed=6)
    z = np.abs(mean - table.probs) / (stderr + 1e-15)
    assert z.max() <= 4.0


def test_boosted_average_with_an_underflowed_probability():
    # exp(-800) underflows, so the base table holds exact zeros
    m = uniform_model(path_graph(3), 0.5, [400.0, 0.0, 0.0])
    mean, stderr, table = averaged_boosted_table(m, 1.0, 50, seed=3)
    assert (table.probs == 0.0).any()
    assert np.isfinite(mean).all() and np.isfinite(stderr).all()
    assert mean.sum() == pytest.approx(1.0)


def test_boosted_average_needs_two_realizations():
    m = random_field_model(path_graph(3), 0.5, seed=5)
    with pytest.raises(InputError):
        averaged_boosted_table(m, 2.0, 1, seed=6)


def test_wsm_delta_zero_at_independence():
    m = uniform_model(path_graph(5), 0.0, np.zeros(5))
    for ell in range(3):
        assert wsm_delta(m, 2, ell) == 0.0


def test_wsm_delta_empty_ring_convention():
    m = uniform_model(path_graph(3), 1.0, np.zeros(3))
    assert wsm_delta(m, 1, 1) == 0.0  # the radius-1 ball already covers P3


def test_wsm_delta_matches_oracle_conditionals():
    # ring {0,2} around the center of P3: TV between the two pinned marginals
    m = uniform_model(path_graph(3), 1.0, np.zeros(3))
    d = wsm_delta(m, 1, 0)
    plus = marginals(gibbs_table(m.with_pinning({0: 1, 2: 1})))[0]
    minus = marginals(gibbs_table(m.with_pinning({0: -1, 2: -1})))[0]
    assert d == pytest.approx(abs(plus - minus), abs=1e-12)
    assert d > 0.9  # beta = 1 with two aligned neighbors is nearly deterministic


def test_wsm_delta_chain_closed_form():
    # zero-field chain: delta(u, r) = 2 m / (1 + m^2) with m = tanh(beta)^(r+1)
    beta = 0.8
    m = uniform_model(path_graph(9), beta, np.zeros(9))
    for r in (0, 1, 2):
        expected = 2 * math.tanh(beta) ** (r + 1) / (1 + math.tanh(beta) ** (2 * (r + 1)))
        assert wsm_delta(m, 4, r) == pytest.approx(expected, abs=1e-12)


def _two_table_delta(model, u, ell):
    """wsm_delta as two pinned tables of the model induced on ball and ring."""
    b = ball(model.graph, u, ell)
    ring = boundary(model.graph, b)
    if not ring:
        return 0.0
    region = sorted(b | ring)
    pos = region.index(u)
    sub = _edge_scan_induced(model, region)
    local_ring = [region.index(v) for v in ring]
    deltas = []
    for sign in (1, -1):
        pinned = sub.with_pinning({v: sign for v in local_ring})
        j = pinned.free_vertices.index(pos)
        deltas.append(marginals(gibbs_table(pinned))[j])
    return float(abs(deltas[0] - deltas[1]))


@settings(max_examples=60)
@given(models(min_pairs=2, convention="pm"), st.data())
def test_wsm_delta_matches_two_pinned_tables(m, data):
    u = data.draw(st.sampled_from(m.free_vertices))
    for ell in range(eccentricity(m.graph, u) + 1):  # the last ball leaves an empty ring
        ring = boundary(m.graph, ball(m.graph, u, ell))
        if any(v in m.pinning for v in ring):
            with pytest.raises(InputError):
                wsm_delta(m, u, ell)
        else:
            assert abs(wsm_delta(m, u, ell) - _two_table_delta(m, u, ell)) <= 1e-12
    for v in m.pinning:
        with pytest.raises(InputError):
            wsm_delta(m, v, 1)


def _induced_wsm_delta(model, u, ell):
    """wsm_delta by enumerating the model induced on the ball: the reference for
    enumerating the ball straight from the parent's neighbour rows."""
    inside = ball(model.graph, u, ell)
    ring = boundary(model.graph, inside)
    if not ring:
        return 0.0
    sub = induced_model(model, inside)
    energy = oracle._free_energies(sub)
    region = sorted(inside)
    nbr, cpl = model.neighbour_table
    spins = np.array([-1.0, 1.0])
    linear = np.zeros(1)
    for i in sub.free_vertices:
        v = region[i]
        into_ring = sum(c for w, c in zip(nbr[v].tolist(), cpl[v].tolist()) if w in ring)
        linear = oracle._extend(linear, spins, np.full(len(linear), into_ring))
    probs, _ = oracle._normalise(np.stack([energy + linear, energy - linear]))
    j = sub.free_vertices.index(region.index(u))
    plus, minus = probs.reshape(2, -1, 2, 1 << j)[:, :, 1].sum(axis=(1, 2))
    return float(abs(plus - minus))


def _ring_cases(m):
    """(u, radius, ring, ball vertices next to the ring) of m's graph, pins ignored,
    for the radii below u's eccentricity with two or more ball vertices next to the ring."""
    nbr = m.neighbour_table[0]
    cases = []
    for u in range(m.n):
        for ell in range(eccentricity(m.graph, u)):
            inside = ball(m.graph, u, ell)
            ring = boundary(m.graph, inside)
            touching = [v for v in sorted(inside) if ring & set(nbr[v].tolist())]
            if len(touching) >= 2:
                cases.append((u, ell, ring, touching))
    return cases


@settings(max_examples=60)
@given(models(min_pairs=2, convention="pm"), st.data())
def test_wsm_delta_equals_the_induced_model_route(m, data):
    # Cases come from the graph alone; then u, the ring and two ball vertices
    # next to the ring are freed, and every other pin is kept.
    cases = _ring_cases(m)
    assume(cases)
    u, ell, ring, touching = data.draw(st.sampled_from(cases))
    freed = {u} | ring | set(data.draw(st.permutations(touching))[:2])
    m = replace(m, pinning={v: s for v, s in m.pinning.items() if v not in freed})
    assert wsm_delta(m, u, ell) == _induced_wsm_delta(m, u, ell)


def test_wsm_caps_before_enumerating():
    g = torus_grid(12, 12)
    m = IsingModel.uniform(g, 0.3, np.zeros(g.num_vertices))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            wsm_delta(m, 0, 3)  # a 25-vertex ball, one over the cap
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any array over the ball's configurations
    with pytest.raises(CapacityError):
        wsm_delta(m, 0, 4)  # 41 vertices
    with pytest.raises(CapacityError):
        estimate_wsm(g, 0.3, FieldDistribution.two_point(1.0), radii=[4], field_trials=1,
                     seed=1, vertices=[0])


def test_estimate_wsm_strong_field_decays():
    report = estimate_wsm(
        cycle_graph(12), beta=0.5, field_dist=FieldDistribution.two_point(5.0),
        radii=[1, 4], field_trials=100, seed=7, vertices=[0, 6])
    assert report.mean_delta.shape == (2, 2)
    assert (report.mean_delta[:, 1] < report.mean_delta[:, 0]).all()
    assert report.fitted_c > 0
    assert report.satisfied(report.fitted_c).shape == (2, 2)


def test_estimate_wsm_beta_zero_all_zero():
    report = estimate_wsm(
        path_graph(8), beta=0.0, field_dist=FieldDistribution.uniform_symmetric(1.0),
        radii=[1, 2], field_trials=5, seed=8, vertices=[3, 4])
    assert np.all(report.mean_delta == 0.0)
    assert report.satisfied(1.0).all()


def test_estimate_wsm_needs_a_field_trial():
    with pytest.raises(InputError):
        estimate_wsm(path_graph(4), beta=0.5, field_dist=FieldDistribution.gaussian(0.5),
                     radii=[1], field_trials=0, seed=1)


def test_estimate_wsm_needs_a_radius_and_a_vertex():
    for radii, vertices in (([], [0, 1]), ([1], []), ([], [])):
        with pytest.raises(InputError):
            estimate_wsm(path_graph(4), beta=0.5, field_dist=FieldDistribution.gaussian(0.5),
                         radii=radii, field_trials=2, seed=1, vertices=vertices)


def test_separation_plan_hand_trace():
    g = path_graph(12)
    plan = build_separation_plan(g, (0, 8))
    assert plan.r == (0.0, 2.0)
    assert plan.j == (None, 0)
    assert plan.q_buckets == {1: frozenset({1})}
    assert plan.k_star == 1
    assert plan.a_set == frozenset({1})
    assert plan.ell[1] == pytest.approx(2.0)
    assert plan.ell_floor[1] == 2


def test_separation_plan_duplicates_excluded():
    g = path_graph(6)
    plan = build_separation_plan(g, (2, 2, 2))
    assert plan.a_set == frozenset()
    assert plan.r == (0.0, 0.0, 0.0)


def test_separation_plan_single_point():
    plan = build_separation_plan(path_graph(4), (1,))
    assert plan.a_set == frozenset()


def test_separation_plan_random_tuples_always_separate():
    g = cycle_graph(20)
    rng = np.random.default_rng(9)
    nonempty = 0
    for _ in range(300):
        pts = rng.integers(0, 20, size=5)
        plan = build_separation_plan(g, pts)  # internal assertions check separation
        if plan.a_set:
            nonempty += 1
            for i in plan.a_set:
                assert plan.ell[i] >= plan.r[i] / 2.0
    assert nonempty > 0


def test_trace_probe_zero_time_is_exact():
    m = random_field_model(path_graph(4), 0.5, seed=10)
    rep = trace_moment_probe(m, 2, [0.0], realizations=50, seed=11)
    _, cov = mean_and_covariance(gibbs_table(m))
    expected = float((np.linalg.eigvalsh(cov) ** 2).sum())
    assert rep.rows[0]["mean_trace"] == pytest.approx(expected, rel=1e-12)
    assert rep.rows[0]["std_trace"] == 0.0


def test_trace_probe_p1_binary_variance_bound():
    m = uniform_model(build_graph(4, []), 0.0, np.zeros(4))
    rep = trace_moment_probe(m, 1, [0.0, 1.0, 3.0], realizations=200, seed=12)
    assert rep.rows[0]["mean_trace"] == pytest.approx(4.0, rel=1e-12)
    for row in rep.rows[1:]:
        assert row["mean_trace"] <= 4.0 + 1e-9


def test_trace_probe_boost_shrinks_correlations():
    field = sample_field(FieldDistribution.two_point(3.0), 5, seed=13)
    m = IsingModel.uniform(path_graph(5), 0.5, field.values)
    rep = trace_moment_probe(m, 2, [0.0, 1.0, 5.0], realizations=400, seed=14)
    t0 = rep.rows[0]["mean_trace"]
    t5 = rep.rows[-1]["mean_trace"]
    spread = 3.0 * rep.rows[-1]["std_trace"] / math.sqrt(rep.rows[-1]["realizations"])
    assert t5 <= t0 + spread
    assert rep.c0_fit > 0
    assert rep.small_c0 > 0


def test_boosted_probes_need_a_realization():
    m = random_field_model(path_graph(3), 0.5, seed=7)
    with pytest.raises(InputError):
        trace_moment_probe(m, 2, [0.0, 1.0], realizations=0, seed=4)
    with pytest.raises(InputError):
        weak_poincare_probe(m, 1.0, 0.5, [("m", np.ones(8))], realizations=0, seed=4, c0=1.0)


def test_boosted_probes_hold_one_block_of_tables():
    # A 14-vertex model: one (realizations, 2^14) float table is 25 MiB at 200
    # realizations and 62.5 MiB at 500.
    g = random_regular_graph(14, 3, seed=5)
    m = IsingModel.uniform(g, 0.3, sample_field(FieldDistribution.gaussian(0.6), 14, 6).values)
    phi = magnetization_function(gibbs_table(m))
    for probe in (lambda: trace_moment_probe(m, 2, [0.5], realizations=200, seed=1),
                  lambda: weak_poincare_probe(m, 0.5, 0.5, [("m", phi)], realizations=500,
                                              seed=2, c0=1.0)):
        tracemalloc.start()
        try:
            probe()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20


def test_weak_poincare_constant_function():
    m = random_field_model(path_graph(4), 0.5, seed=15)
    table = gibbs_table(m)
    phi = np.ones(len(table.probs))
    rep = weak_poincare_probe(m, 2.0, 0.5, [("const", phi)], realizations=200, seed=16)
    assert rep.rows[0].lhs_variance == pytest.approx(0.0, abs=1e-14)
    assert rep.rows[0].ok


def test_weak_poincare_t_zero_equality():
    m = random_field_model(path_graph(4), 0.5, seed=17)
    table = gibbs_table(m)
    phi = single_site_function(table, 1)
    rep = weak_poincare_probe(m, 0.0, 0.5, [("site", phi)], realizations=100, seed=18)
    assert rep.p_exponent == 1.0
    assert rep.rows[0].rhs_bound == pytest.approx(rep.rows[0].lhs_variance, rel=1e-12)
    assert rep.rows[0].ok


def test_weak_poincare_magnetization_frequency():
    # satisfaction frequency over quenched fields at least 1 - delta
    g = path_graph(4)
    delta = 0.5
    t_value = 2.0
    dist = FieldDistribution.uniform_symmetric(1.0)
    first = random_field_model(g, 0.5, seed=100)
    c0 = weak_poincare_probe(first, t_value, delta,
                             [("m", magnetization_function(gibbs_table(first)))],
                             realizations=300, seed=19).c0
    ok = 0
    trials = 400
    for i in range(trials):
        field = sample_field(dist, 4, seed=3000 + i)
        m = IsingModel.uniform(g, 0.5, field.values)
        phi = magnetization_function(gibbs_table(m))
        rep = weak_poincare_probe(m, t_value, delta, [("m", phi)],
                                  realizations=300, seed=20 + i, c0=c0)
        ok += rep.rows[0].ok
    assert ok / trials >= 1.0 - delta


def test_boosting_caps_before_enumerating(monkeypatch):
    def enumerate_anyway(model):
        raise AssertionError("enumerated before checking the size")

    monkeypatch.setattr(oracle, "_free_energies", enumerate_anyway)
    n = oracle.BOOST_CAP + 1
    m = uniform_model(path_graph(n), 0.3, np.zeros(n))
    for boost in (lambda: averaged_boosted_table(m, 1.0, 10, seed=1),
                  lambda: trace_moment_probe(m, 2, [0.0, 1.0], realizations=10, seed=1),
                  lambda: weak_poincare_probe(m, 1.0, 0.5, [], realizations=10, seed=1)):
        with pytest.raises(CapacityError):
            boost()
