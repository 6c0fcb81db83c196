import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from rfim import (
    CapacityError,
    FieldDistribution,
    InputError,
    IsingModel,
    ValidationFailure,
    at_variance_constant,
    build_graph,
    complete_graph,
    entropy_conservation_R,
    entropy_conservation_for_model,
    exact_revealed_posterior,
    gibbs_table,
    grid_graph,
    marginal_lower_bound,
    marginals,
    path_graph,
    posterior_model,
    sample_field,
    sample_noising_trace,
    sl_boost,
    sup_cor2_over_pinnings,
    theta_star,
    to_zero_one,
    variance_conservation_R,
    verify_posterior_by_simulation,
    vertex_tilt_table,
)
from rfim import localization, oracle
from rfim.localization import _group_rows, align_posterior_to_base, default_theta_grid
from rfim.rng import TRACE, substream

from conftest import random_field_model, uniform_model
from strategies import models


def _k3_01(seed=17, beta=0.3):
    return to_zero_one(random_field_model(complete_graph(3), beta, seed=seed))


def test_trace_revealed_endpoints():
    m01 = _k3_01()
    for i in range(50):
        tr = sample_noising_trace(m01, seed=5, trace_index=i)
        assert tr.revealed(0.0) == frozenset()
        assert tr.revealed(1.0) == tr.satisfied_events()
        grid = np.linspace(0, 1, 7)
        sets = [tr.revealed(t) for t in grid]
        assert all(a <= b for a, b in zip(sets, sets[1:]))


def test_glauber_trace_rejects_a_negative_burn_in():
    with pytest.raises(InputError, match="steps"):
        sample_noising_trace(_k3_01(), seed=5, sampler="glauber", burn_steps=-5)


def test_trace_nonempty_probability_matches_event_mass():
    # independent spins with strongly negative 01-fields: revealed(1) nonempty
    # exactly when both endpoints are 1, an event of known mass
    g = path_graph(2)
    m01 = IsingModel(graph=g, couplings=np.zeros(1), field=np.array([-1.2, -0.8]),
                     convention="01")
    table = gibbs_table(m01)
    from rfim.oracle import _edge_event_columns

    p_event = float(table.probs @ _edge_event_columns(table)[:, 0])
    traces = 100_000
    rng = substream(77, TRACE)
    idx = rng.choice(len(table.probs), p=table.probs, size=traces)
    both_one = idx == 3  # bit pattern 11
    freq = float(both_one.mean())
    sigma = math.sqrt(p_event * (1 - p_event) / traces)
    assert abs(freq - p_event) <= 3 * sigma


def test_posterior_identity_map():
    m01 = _k3_01()
    post = posterior_model(m01, 0.0, [])
    assert np.allclose(post.couplings, m01.couplings)
    assert post.pinning == {}


def test_posterior_pins_revealed_edge():
    m01 = _k3_01()
    post = posterior_model(m01, 0.3, [0])
    u, v = m01.graph.edges[0]
    assert post.pinning == {u: 1, v: 1}
    assert np.allclose(post.couplings, m01.couplings + math.log(0.7))


def test_posterior_equals_tilted_reweighting():
    # direct enumeration of mu(sigma) (1-t)^{#(1,1) edges} with no conditioning
    m01 = _k3_01(beta=0.3)
    t = 0.5
    table = gibbs_table(m01)
    from rfim.oracle import _edge_event_columns

    m_counts = _edge_event_columns(table).sum(axis=1)
    direct = table.probs * (1 - t) ** m_counts
    direct /= direct.sum()
    post = gibbs_table(posterior_model(m01, t, []))
    assert np.abs(post.probs - direct).max() <= 1e-12


def test_posterior_rejects_t_one():
    with pytest.raises(InputError):
        posterior_model(_k3_01(), 1.0, [])


@pytest.mark.parametrize("posterior", [posterior_model, exact_revealed_posterior])
@pytest.mark.parametrize("edge", [7, -1, 1.5])
def test_posteriors_reject_edges_outside_the_graph(posterior, edge):
    # K3 has edges 0-2: 7 used to raise IndexError, -1 pinned the last edge
    # and 1.5 truncated to edge 1.
    with pytest.raises(InputError, match="out of range"):
        posterior(_k3_01(), 0.5, [edge])


def test_exact_bayes_posterior_matches_posterior_model():
    m01 = _k3_01(seed=23)
    base = gibbs_table(m01)
    ts = theta_star(0.3)
    num_edges = m01.graph.num_edges
    for t in (0.25 * ts, 0.5 * ts, 0.75 * ts):
        for r in range(num_edges + 1):
            for s in combinations(range(num_edges), r):
                bayes = exact_revealed_posterior(m01, t, s)
                aligned = align_posterior_to_base(gibbs_table(posterior_model(m01, t, s)), base)
                assert np.abs(bayes - aligned).max() <= 1e-12


def test_exact_bayes_posterior_at_t_zero():
    # t = 0 reveals nothing: the likelihood is 1 on every configuration for
    # an empty S, and 0 for any other S
    m01 = _k3_01(seed=23)
    base = gibbs_table(m01)
    assert np.array_equal(exact_revealed_posterior(m01, 0.0, []), base.probs / base.probs.sum())
    with pytest.raises(InputError, match="probability zero"):
        exact_revealed_posterior(m01, 0.0, [1])


def test_verify_posterior_at_product_point():
    beta = 0.3
    m01 = _k3_01(beta=beta)
    # just below theta*: buckets stay populated, posterior nearly a product
    report = verify_posterior_by_simulation(m01, 0.9 * theta_star(beta), 60_000, seed=3)
    assert report.buckets
    assert report.max_tv <= 0.03


def test_verify_posterior_two_buckets_on_edge():
    m01 = to_zero_one(uniform_model(path_graph(2), 0.4, [0.2, -0.1]))
    report = verify_posterior_by_simulation(m01, 0.7, 50_000, seed=9, min_hits=500)
    assert {s for s, _, _ in report.buckets} == {frozenset(), frozenset({0})}
    assert report.max_tv <= 0.02


def test_posterior_buckets_past_64_edges():
    # K12 has 66 edges; strong positive fields make X all-ones nearly surely, so
    # at t = 0.99 about half the traces reveal every edge.  Buckets must match a
    # grouping of the same draws by revealed set, edges 63-65 included.
    m01 = to_zero_one(uniform_model(complete_graph(12), 0.05, np.full(12, 3.0)))
    traces, t, seed = 2000, 0.99, 4
    report = verify_posterior_by_simulation(m01, t, traces, seed, min_hits=20)
    table = gibbs_table(m01)
    from rfim.oracle import _edge_event_columns

    rng = substream(seed, TRACE)
    idx = rng.choice(len(table.probs), p=table.probs, size=traces)
    z = _edge_event_columns(table).astype(bool)
    revealed = z[idx] & (rng.random((traces, z.shape[1])) <= t)
    counts = Counter(frozenset(np.flatnonzero(r).tolist()) for r in revealed)
    want = {s: hits for s, hits in counts.items() if hits >= 20}
    assert {s: hits for s, hits, _ in report.buckets} == want
    largest = max(report.buckets, key=lambda b: b[1])
    assert largest[0] == frozenset(range(66))


def _unique_rows_grouping(revealed):
    """Trace grouping by ``np.unique`` over packed rows: the reference for ``_group_rows``.

    Returns the packed keys, the traces group by group, the group starts and the hits.
    """
    keys, group, hits = np.unique(np.packbits(revealed[:, ::-1], axis=1), axis=0,
                                  return_inverse=True, return_counts=True)
    by_group = np.argsort(group.ravel(), kind="stable")
    return keys, by_group, np.cumsum(hits) - hits, hits


@settings(max_examples=150)
@example(width=0, traces=5, distinct=3, seed=1)
@example(width=63, traces=40, distinct=6, seed=2)
@example(width=64, traces=40, distinct=6, seed=3)
@example(width=65, traces=40, distinct=6, seed=4)
@example(width=64, traces=30, distinct=1, seed=5)  # all rows equal
@example(width=65, traces=1, distinct=1, seed=6)  # a single row
@given(width=st.integers(0, 130), traces=st.integers(1, 60), distinct=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_trace_grouping_matches_unique_rows(width, traces, distinct, seed):
    rng = np.random.default_rng(seed)
    pool = rng.random((distinct, width)) < rng.random()
    revealed = pool[rng.integers(distinct, size=traces)]
    order, starts, hits = _group_rows(revealed)
    keys, by_group, want_starts, want_hits = _unique_rows_grouping(revealed)
    assert np.array_equal(np.packbits(revealed[order[starts]][:, ::-1], axis=1), keys)
    assert np.array_equal(order, by_group)
    assert np.array_equal(starts, want_starts)
    assert np.array_equal(hits, want_hits)


def test_verify_posterior_fails_closed(monkeypatch):
    def draw_anyway(*args):
        raise AssertionError("drew before checking the inputs")

    m01 = to_zero_one(uniform_model(path_graph(2), 0.4, [0.2, -0.1]))
    monkeypatch.setattr(localization, "substream", draw_anyway)
    for t, traces in ((0.5, 0), (0.5, -1), (1.0, 100), (1.5, 100), (-0.1, 100)):
        with pytest.raises(InputError):
            verify_posterior_by_simulation(m01, t, traces, seed=1, min_hits=10**6)


def test_theta_star_posterior_is_product():
    beta = 0.25
    m01 = to_zero_one(random_field_model(complete_graph(4), beta, seed=31))
    post = gibbs_table(posterior_model(m01, theta_star(beta), [2]))
    marg = marginals(post)
    ones = post.rows()[:, list(post.free)] == 1
    product = np.where(ones, marg, 1 - marg).prod(axis=1)
    assert np.abs(post.probs - product).max() <= 1e-12


def test_conservation_certificates_reject_nan():
    # c < 0 and eta_op < 1 are false for NaN, so both used to return NaN
    with pytest.raises(InputError, match="rate C"):
        variance_conservation_R(math.nan, 0.5)
    for eta_op, k_low in ((math.nan, 2.0), (2.0, math.nan)):
        with pytest.raises(InputError, match="eta_op"):
            entropy_conservation_R(eta_op, k_low, 0.5)


def test_variance_conservation_examples():
    assert variance_conservation_R(0.0, 0.7).r_value == 1.0
    beta = 0.5
    cert = variance_conservation_R(2.0, theta_star(beta))
    assert cert.r_value == pytest.approx(math.exp(4 * beta * 2.0), rel=1e-12)
    assert cert.r_value == pytest.approx(54.598, abs=1e-2)
    n, delta, alpha = 10, 3, 0.8304
    c = 4 * delta * math.log(n) / alpha
    cert2 = variance_conservation_R(c, theta_star(beta))
    assert cert2.log_r == pytest.approx(16 * beta * delta * math.log(n) / alpha, rel=1e-12)


@settings(max_examples=25)
@example(m=uniform_model(path_graph(2), 0.0, [0.0, 0.0]), beta=1.0)  # AT 4.19, R 51.4
@example(m=uniform_model(build_graph(3, []), 0.0, [0.5, -1.0, 0.0]), beta=0.3)  # AT = R = 1
@given(m=models(max_n=7, convention="pm"), beta=st.floats(0.0, 1.0))
def test_poincare_bound_on_exact_models(m, beta):
    # The paper's Poincare chain: variance conservation up to theta*, where the
    # posterior is a product measure, then Efron-Stein and the concavity of
    # E Var_i, bound the AT constant by R(theta*) = (1 - theta*)^-C, with C the
    # Cor2 operator norm over every pinning and theta in [0, theta*].
    model = uniform_model(m.graph, beta, m.field)  # no pins, one ferromagnetic beta
    try:
        at = at_variance_constant(model)
    except ValidationFailure:
        reject()  # an unresolved gap bounds nothing
    ts = theta_star(beta)
    c = sup_cor2_over_pinnings(to_zero_one(model), np.linspace(0.0, ts, 6)).max_opnorm
    assert at <= variance_conservation_R(c, ts).r_value * (1 + 1e-9)


def test_variance_conservation_monotone():
    rs = [variance_conservation_R(2.0, th).r_value for th in (0.0, 0.3, 0.6, 0.9)]
    assert all(b >= a for a, b in zip(rs, rs[1:]))
    rs_c = [variance_conservation_R(c, 0.5).r_value for c in (0.0, 1.0, 3.0)]
    assert all(b >= a for a, b in zip(rs_c, rs_c[1:]))
    assert all(r >= 1.0 for r in rs + rs_c)


def test_entropy_conservation_eta_one_collapse():
    theta = 0.4
    cert = entropy_conservation_R(1.0, 5.0, theta)
    assert cert.l_value == 1.0
    assert cert.es_value == pytest.approx(1.0 / theta)
    assert cert.r_value == pytest.approx(1.0 + (1.0 / theta) / (1.0 - theta))


def test_entropy_conservation_hand_value():
    cert = entropy_conservation_R(2.0, 4.0, 0.5)
    assert cert.l_value == 6.0
    assert cert.es_value == pytest.approx(6.0 / (1.0 - 2.0**-6), abs=1e-4)
    assert cert.r_value == pytest.approx(66.0159, abs=1e-3)


def test_entropy_conservation_theorem_instantiation():
    report = entropy_conservation_for_model(n=10, beta=0.5, delta=3, m_bound=1.0,
                                            alpha_star=0.8304)
    assert np.isfinite(report.certificate.log_r)
    assert report.log_rho_chain == pytest.approx(-report.certificate.log_r - math.log(10))
    assert report.rho_chain >= 0.0


def test_entropy_conservation_monotone_in_eta():
    logs = [entropy_conservation_R(eta, 2.0, 0.5).log_r for eta in (1.0, 1.5, 2.0, 3.0)]
    assert all(b >= a for a, b in zip(logs, logs[1:]))
    logs_t = [entropy_conservation_R(2.0, 2.0, th).log_r for th in (0.2, 0.5, 0.8)]
    assert all(b >= a for a, b in zip(logs_t, logs_t[1:]))


def test_marginal_lower_bound_values():
    assert marginal_lower_bound(3, 0.0, 0.0) == pytest.approx(0.25)
    val = marginal_lower_bound(3, 1.0, 0.5)
    assert val == pytest.approx(1.0 / (1.0 + math.exp(5.0)) ** 2, rel=1e-12)
    assert val == pytest.approx(4.4795e-5, abs=1e-8)


def test_marginal_lower_bound_monotone():
    grid = [0.0, 0.5, 1.0, 2.0]
    for fix in grid:
        vals_beta = [marginal_lower_bound(3, fix, b) for b in grid]
        assert all(b <= a for a, b in zip(vals_beta, vals_beta[1:]))
        vals_m = [marginal_lower_bound(3, m, fix) for m in grid]
        assert all(b <= a for a, b in zip(vals_m, vals_m[1:]))
    vals_delta = [marginal_lower_bound(d, 1.0, 0.5) for d in (3, 4, 5)]
    assert all(b <= a for a, b in zip(vals_delta, vals_delta[1:]))


def test_marginal_bound_holds_on_enumerated_models():
    # the bound really is below every tilted-pinned edge-event probability
    beta, m_bound, delta = 0.4, 1.0, 2
    bound = marginal_lower_bound(delta, m_bound, beta)
    field = sample_field(FieldDistribution.uniform_symmetric(m_bound), 3, seed=3)
    m01 = to_zero_one(IsingModel.uniform(path_graph(3), beta, field.values))
    from rfim.oracle import _edge_event_columns

    for t in (0.0, 0.3 * theta_star(beta), theta_star(beta)):
        for pin in ({}, {0: 1}, {2: 1}):
            tilted = posterior_model(m01, t, []).with_pinning(pin)
            table = gibbs_table(tilted)
            p = table.probs @ _edge_event_columns(table)
            assert (p >= bound - 1e-12).all()


def test_vertex_tilt_identity():
    m01 = _k3_01()
    base = gibbs_table(m01)
    tilted = vertex_tilt_table(m01, 1.0)
    assert np.abs(tilted.probs - base.probs).max() <= 1e-12


def test_vertex_tilt_concentrates():
    m01 = _k3_01()
    tilted = vertex_tilt_table(m01, 1e-9)
    # minimal-count configuration on the support is all-zero here
    assert tilted.probs[0] == pytest.approx(1.0, abs=1e-6)


def test_vertex_tilt_single_fair_spin():
    m01 = IsingModel(graph=build_graph(1, []), couplings=np.zeros(0), field=np.zeros(1),
                     convention="01")
    tilted = vertex_tilt_table(m01, 1.0 / 3.0)
    assert np.allclose(tilted.probs, [0.75, 0.25])


def test_default_theta_grid():
    grid = default_theta_grid(0.8)
    assert grid == (0.0, 0.2, 0.4, 0.6000000000000001, 0.8)


def test_posterior_check_caps_before_enumerating(monkeypatch):
    def enumerate_anyway(model):
        raise AssertionError("enumerated before checking the size")

    monkeypatch.setattr(oracle, "_free_energies", enumerate_anyway)
    n = oracle.BINNING_CAP + 1
    m01 = to_zero_one(uniform_model(path_graph(n), 0.3, np.zeros(n)))
    with pytest.raises(CapacityError):
        verify_posterior_by_simulation(m01, 0.5, traces=10, seed=1)


def test_boost_and_noising_trace_run_their_own_glauber_chains():
    # both start from all 'zero' in the same law; on one chain address they gave
    # the same configuration at every seed
    field = sample_field(FieldDistribution.gaussian(0.5), 12, 1).values
    pm_model = IsingModel.uniform(grid_graph(3, 4), 0.3, field)
    model01 = to_zero_one(pm_model)
    equal = 0
    for seed in range(20):
        star = sl_boost(pm_model, 0.5, seed, sampler="glauber", burn_steps=2000).sigma_star
        x = sample_noising_trace(model01, seed, sampler="glauber", burn_steps=2000).x_sample
        equal += np.array_equal((star.values() + 1) // 2, x.values())
    assert equal <= 2
