import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

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
    marginals,
    mean_and_covariance,
    path_graph,
    sample_field,
    sl_boost,
    trace_moment_probe,
    weak_poincare_probe,
    wsm_delta,
)
from rfim import oracle, slwsm
from rfim.graphs import ball, boundary, distances_from, random_regular_graph, torus_grid
from rfim.rng import SL, substream
from rfim.slwsm import _ball_deltas, _boosted_prob_blocks

from conftest import random_field_model, uniform_model
from induced_reference import edge_scan_induced
from strategies import models


def boosted_mean_and_stderr(m, t, realizations, seed):
    """Mean and per-config standard error of ``realizations`` boosted tables, and the
    base table."""
    blocks, _, table = _boosted_prob_blocks(m, t, realizations, substream(seed, SL))
    probs = np.concatenate(list(blocks))
    return probs.mean(axis=0), probs.std(axis=0, ddof=1) / math.sqrt(realizations), table


def magnetization(table):
    """The sum of the free spins of each configuration of ``table``."""
    return table.rows()[:, list(table.free)].sum(axis=1, dtype=np.float64)


def test_sl_boost_identity_at_zero():
    m = random_field_model(path_graph(3), 0.5, seed=1)
    real = sl_boost(m, 0.0, seed=2)
    assert np.allclose(real.boosted_model.field, m.field)
    assert np.allclose(real.y, 0.0)


def test_sl_boost_rejects_a_negative_burn_in():
    m = random_field_model(path_graph(3), 0.5, seed=1)
    with pytest.raises(InputError, match="steps"):
        sl_boost(m, 0.5, seed=2, sampler="glauber", burn_steps=-5)


def test_sl_boost_consistency():
    m = random_field_model(path_graph(3), 0.5, seed=1)
    real = sl_boost(m, 2.0, seed=3)
    assert np.allclose(real.y, 2.0 * real.sigma_star.values() + real.noise)
    assert np.allclose(real.boosted_model.field, m.field + real.y)
    assert np.allclose(real.boosted_model.couplings, m.couplings)


def test_sl_boost_large_t_overwhelms_field():
    m = random_field_model(path_graph(4), 0.5, seed=4)
    t = 50.0
    hits = 0
    draws = 10_000
    for i in range(draws):
        real = sl_boost(m, t, seed=5, index=i)
        if (np.abs(real.boosted_model.field) > 1.0).all():
            hits += 1
    assert hits / draws >= 0.999


def test_sl_boost_martingale():
    m = random_field_model(path_graph(3), 0.5, seed=5)
    mean, stderr, table = boosted_mean_and_stderr(m, 2.0, 10_000, seed=6)
    z = np.abs(mean - table.probs) / (stderr + 1e-15)
    assert z.max() <= 4.0


def test_boosted_average_with_an_underflowed_probability():
    # exp(-800) underflows, so the base table holds exact zeros
    m = uniform_model(path_graph(3), 0.5, [400.0, 0.0, 0.0])
    mean, stderr, table = boosted_mean_and_stderr(m, 1.0, 50, seed=3)
    assert (table.probs == 0.0).any()
    assert np.isfinite(mean).all() and np.isfinite(stderr).all()
    assert mean.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("pinning", [{}, {1: -1, 4: 1}])
def test_boosted_tables_are_the_tables_of_the_boosted_fields(monkeypatch, pinning):
    # Row r is, float for float, the Gibbs table of the model with field h + y_r,
    # y_r redrawn from the same stream (sigma* first, then the noise) and 0 on
    # the pins.  A small TABLE_BLOCK splits the rows into blocks of 1 or 4.
    monkeypatch.setattr(oracle, "TABLE_BLOCK", 4 * 64 * 6)
    m = random_field_model(random_regular_graph(8, 3, 4), 0.5, seed=5).with_pinning(pinning)
    t, count = 0.7, 30
    blocks, _, table = _boosted_prob_blocks(m, t, count, substream(6, SL))
    rng = substream(6, SL)
    free = list(table.free)
    star = table.rows(rng.choice(len(table.probs), p=table.probs, size=count))[:, free]
    y = np.zeros((count, m.n))
    y[:, free] = t * star + math.sqrt(t) * rng.normal(size=(count, len(free)))
    rows = [row for block in blocks for row in block]
    assert len(rows) == count
    for row, y_r in zip(rows, y):
        assert np.array_equal(row, gibbs_table(replace(m, field=m.field + y_r)).probs)


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
    sub = edge_scan_induced(model, region)
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
    for ell in range(distances_from(m.graph, u).max() + 1):  # the last ball leaves an empty ring
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
    sub = edge_scan_induced(model, inside)
    region = sorted(inside)
    nbr, cpl = model.neighbour_table
    pull = np.zeros(sub.n)  # each free ball vertex's couplings into the ring, in slot order
    for i in sub.free_vertices:
        v = region[i]
        pull[i] = sum(c for w, c in zip(nbr[v].tolist(), cpl[v].tolist()) if w in ring)
    energy = oracle._free_energies(sub, fields=np.stack([sub.field + pull, sub.field - pull]))
    probs, _ = oracle._normalise(energy)
    j = sub.free_vertices.index(region.index(u))
    plus, minus = probs.reshape(2, -1, 2, 1 << j)[:, :, 1].sum(axis=(1, 2))
    return float(abs(plus - minus))


def _ring_cases(m):
    """(u, radius, ring, ball vertices next to the ring) of m's graph, pins ignored,
    for the radii below u's eccentricity with two or more ball vertices next to the ring."""
    nbr = m.neighbour_table[0]
    cases = []
    for u in range(m.n):
        for ell in range(distances_from(m.graph, u).max()):
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


@pytest.mark.parametrize("radii, vertices, trials", [((1.5,), [0], 2), ((1,), [1.7], 2),
                                                     ((1,), [0], 2.5)])
def test_estimate_wsm_rejects_a_non_integer(radii, vertices, trials):
    # int() measured radius 1 for 1.5 and vertex 1 for 1.7; 2.5 trials raised a TypeError
    with pytest.raises(InputError):
        estimate_wsm(torus_grid(6, 6), beta=0.5, field_dist=FieldDistribution.gaussian(0.5),
                     radii=radii, field_trials=trials, seed=1, vertices=vertices)


# No explain phase: a failing enumeration takes minutes to explain.
@settings(max_examples=60, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(models(min_pairs=2, convention="pm"), st.data())
def test_ball_delta_rows_equal_the_induced_model_route(m, data):
    # Row r of one pass over the ball is wsm_delta of the model with field r.
    cases = _ring_cases(m)
    assume(cases)
    u, ell, ring, touching = data.draw(st.sampled_from(cases))
    freed = {u} | ring | set(data.draw(st.permutations(touching))[:2])
    m = replace(m, pinning={v: s for v, s in m.pinning.items() if v not in freed})
    rows = data.draw(st.integers(1, 3))
    fields = np.array(data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=m.n,
                                                  max_size=m.n), min_size=rows, max_size=rows)))
    deltas = _ball_deltas(m, u, ell, fields)
    assert deltas.shape == (rows,)
    for delta, field in zip(deltas, fields):
        assert delta == _induced_wsm_delta(replace(m, field=field), u, ell)


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_ball_deltas_do_not_move_with_the_table_blocks(monkeypatch, rows):
    # Three field rows make six signed tables over a ball of 5 free vertices:
    # blocks of 3 hold the + rows and then the - rows, blocks of 2 and 4 split
    # a sign, and blocks of 1 hold each table alone.
    m = random_field_model(torus_grid(6, 6), 0.6, seed=8)
    fields = np.array([sample_field(FieldDistribution.gaussian(0.8), m.n, 9, t).values
                       for t in range(3)])
    whole = _ball_deltas(m, 0, 1, fields)  # one block
    sizes = []
    enumerate_rows = oracle._free_energies
    monkeypatch.setattr(oracle, "_free_energies",
                        lambda *a: sizes.append(len(a[2])) or enumerate_rows(*a))
    monkeypatch.setattr(oracle, "TABLE_BLOCK", rows * 2**5 * 5)
    assert np.array_equal(_ball_deltas(m, 0, 1, fields), whole)
    assert sizes == [rows] * (6 // rows) + [6 % rows] * (6 % rows > 0)


@settings(max_examples=30, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(models(min_pairs=1, convention="pm"), st.data())
def test_estimate_wsm_equals_a_loop_of_wsm_delta(m, data):
    g = m.graph
    beta = data.draw(st.floats(-1.0, 1.0))
    trials = data.draw(st.integers(1, 3))
    radii = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    vertices = data.draw(st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=4))
    dist = FieldDistribution.gaussian(0.8)
    report = estimate_wsm(g, beta, dist, radii, trials, seed=5, vertices=vertices)
    deltas = np.zeros((trials, len(vertices), len(radii)))
    for t in range(trials):
        model = IsingModel.uniform(g, beta, sample_field(dist, g.num_vertices, 5, SL, t).values)
        for i, v in enumerate(vertices):
            for j, r in enumerate(radii):
                deltas[t, i, j] = wsm_delta(model, v, r)
    assert np.array_equal(report.mean_delta, deltas.mean(axis=0))
    if trials > 1:
        assert np.array_equal(report.stderr, deltas.std(axis=0, ddof=1) / math.sqrt(trials))
    else:
        assert np.isnan(report.stderr).all()


def test_estimate_wsm_stderr_is_the_sample_standard_error():
    g, dist = torus_grid(4, 4), FieldDistribution.gaussian(0.8)
    deltas = [[wsm_delta(IsingModel.uniform(g, 0.4, sample_field(dist, 16, 9, SL, t).values),
                         v, 1) for v in (0, 5)] for t in range(3)]
    report = estimate_wsm(g, 0.4, dist, (1,), 3, seed=9, vertices=(0, 5))
    assert np.array_equal(report.stderr[:, 0], np.std(deltas, axis=0, ddof=1) / math.sqrt(3))
    one = estimate_wsm(g, 0.4, dist, (1,), 1, seed=9, vertices=(0, 5))  # warnings are errors
    assert one.stderr.shape == (2, 1) and np.isnan(one.stderr).all()


def test_estimate_wsm_memory_does_not_grow_with_trials():
    # The end of a path: an 18-vertex ball, 2^18 configurations, one free ring
    # vertex.  Held at once, 50 trials' energies would be 100 MiB per array.
    g = path_graph(19)
    peaks = []
    for trials in (1, 50):
        tracemalloc.start()
        try:
            estimate_wsm(g, 0.3, FieldDistribution.gaussian(0.5), [17], trials, seed=3,
                         vertices=[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


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


def test_separation_plan_rejects_fractional_or_disconnected_points():
    with pytest.raises(InputError):
        build_separation_plan(path_graph(10), [0, 9.7])
    with pytest.raises(InputError):
        build_separation_plan(build_graph(4, [(0, 1), (2, 3)]), (0, 1, 3))
    assert build_separation_plan(path_graph(12), np.array([0, 8])).r == (0.0, 2.0)


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


def test_trace_probe_needs_a_time(monkeypatch):
    def enumerate_anyway(*args, **kw):
        raise AssertionError("enumerated before checking the time grid")

    monkeypatch.setattr(slwsm, "gibbs_table", enumerate_anyway)
    with pytest.raises(InputError):
        trace_moment_probe(random_field_model(path_graph(3), 0.5, seed=7), 2, [], 10, seed=4)


def test_boosted_probes_hold_one_block_of_tables():
    # A 14-vertex model: one (realizations, 2^14) float table is 25 MiB at 200
    # realizations and 62.5 MiB at 500.
    g = random_regular_graph(14, 3, seed=5)
    m = IsingModel.uniform(g, 0.3, sample_field(FieldDistribution.gaussian(0.6), 14, 6).values)
    phi = magnetization(gibbs_table(m))
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
    phi = table.rows()[:, 1].astype(np.float64)
    rep = weak_poincare_probe(m, 0.0, 0.5, [("site", phi)], realizations=100, seed=18)
    assert rep.p_exponent == 1.0
    assert rep.rows[0].rhs_bound == rep.rows[0].lhs_variance
    assert rep.rows[0].ok


@pytest.mark.parametrize("c0, phi, message", [
    (0.0, np.ones(8), "c0 must be positive"), (-1.0, np.ones(8), "c0 must be positive"),
    (math.nan, np.ones(8), "c0 must be positive"), (1.0, np.ones(5), "'phi' needs 8 values")])
def test_weak_poincare_checks_its_inputs_before_enumerating(monkeypatch, c0, phi, message):
    def enumerate_anyway(model):
        raise AssertionError("enumerated before checking the inputs")

    monkeypatch.setattr(slwsm, "gibbs_table", enumerate_anyway)
    m = random_field_model(path_graph(3), 0.5, seed=7)
    for t_value in (0.0, 1.0):
        with pytest.raises(InputError, match=message):
            weak_poincare_probe(m, t_value, 0.5, [("m", np.ones(8)), ("phi", phi)],
                                realizations=10, seed=4, c0=c0)


def test_weak_poincare_magnetization_frequency():
    # satisfaction frequency over quenched fields at least 1 - delta
    g = path_graph(4)
    delta = 0.5
    t_value = 2.0
    dist = FieldDistribution.uniform_symmetric(1.0)
    first = random_field_model(g, 0.5, seed=100)
    c0 = weak_poincare_probe(first, t_value, delta,
                             [("m", magnetization(gibbs_table(first)))],
                             realizations=300, seed=19).c0
    ok = 0
    trials = 400
    for i in range(trials):
        field = sample_field(dist, 4, seed=3000 + i)
        m = IsingModel.uniform(g, 0.5, field.values)
        phi = magnetization(gibbs_table(m))
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
    for boost in (lambda: _boosted_prob_blocks(m, 1.0, 10, substream(1, SL)),
                  lambda: trace_moment_probe(m, 2, [0.0, 1.0], realizations=10, seed=1),
                  lambda: weak_poincare_probe(m, 1.0, 0.5, [], realizations=10, seed=1)):
        with pytest.raises(CapacityError):
            boost()
