import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfim import (
    InputError,
    IsingModel,
    SpinConfiguration,
    build_graph,
    complete_graph,
    gibbs_table,
    grid_graph,
    glauber_gap,
    grand_coupled_update,
    marginals,
    monotone_coupled_batch,
    monotone_coupled_run,
    path_graph,
    random_regular_graph,
    run_chain,
    run_chains_batch,
    to_zero_one,
)
from rfim import dynamics
from rfim.dynamics import _keys, empirical_tv_curve, mixing_time_bound
from rfim.model import SPIN_VALUES
from rfim.rng import CHAIN, COUPLING, substream

from conftest import random_field_model, uniform_model
from dense_reference import transition_matrix
from scalar_reference import block_draws
from strategies import models


def one_probability(m, values, v):
    """Heat-bath P(spin v = 'one' | the rest): v's ``heat_bath_table`` entry, which
    every kernel's probability equals (``test_heat_bath``)."""
    return float(m.heat_bath_table.probs[_keys(m, values)[v]])


class FixedDoubles:
    """A generator stub whose ``random(shape)`` returns the given doubles, in order."""

    def __init__(self, doubles):
        self.doubles = list(doubles)

    def random(self, shape):
        size = math.prod(shape)
        out, self.doubles = self.doubles[:size], self.doubles[size:]
        return np.array(out, dtype=np.float64).reshape(shape)


SPLIT_COUNTS = [1, 3, 12, 2500, 65536]


@given(st.floats(0.0, 1.0), st.sampled_from(SPLIT_COUNTS))
def test_draws_split_each_double_into_an_index_and_a_uniform(x, count):
    (j, u), = dynamics._draws(FixedDoubles([x]), count, 1, 1)
    j, u = int(j[0, 0]), float(u[0, 0])
    assert 0 <= j < count and 0.0 <= u <= 1.0
    scaled = x * count
    if x < 1.0:  # then count * x < count: the clip never fires
        assert scaled < count and j == math.floor(scaled)
        assert Fraction(u) == Fraction(scaled) - j  # x - j is exact
        assert j + u == scaled
    else:  # the clipped top edge, which Generator.random never reaches
        assert (j, u) == (count - 1, 1.0)


@pytest.mark.parametrize("count", SPLIT_COUNTS)
def test_draws_split_the_edge_doubles(count):
    top = 1.0 - 2.0**-53  # the largest double below 1
    (j, u), = dynamics._draws(FixedDoubles([top, 0.0, 1.0]), count, 3, 1)
    assert j.dtype == np.int64 and j.tolist() == [[count - 1, 0, count - 1]]
    # count * top rounds to the largest double below count, never up to count
    below = float(np.nextafter(float(count), 0.0))
    assert u.tolist() == [[below - (count - 1), 0.0, 1.0]]


def test_update_probability_symmetric():
    m = uniform_model(build_graph(1, []), 0.0, [0.0])
    assert one_probability(m, np.zeros(1), 0) == pytest.approx(0.5)


def test_update_probability_log3():
    m = uniform_model(build_graph(1, []), 0.0, [math.log(3.0)])
    p = one_probability(m, np.zeros(1), 0)
    assert p == pytest.approx(3.0 / (3.0 + 1.0 / 3.0), abs=1e-12)
    assert p == pytest.approx(0.9)


def test_update_matches_conditional_table():
    # a pinned neighbor contributes exactly like a fixed spin
    m = random_field_model(path_graph(3), 0.7, seed=3).with_pinning({0: 1})
    for s2 in (-1, 1):
        values = np.array([1.0, 0.0, float(s2)])
        p = one_probability(m, values, 1)
        t = gibbs_table(m.with_pinning({2: s2}))
        assert p == pytest.approx(marginals(t)[0], abs=1e-12)


def test_run_chain_zero_steps():
    m = random_field_model(path_graph(4), 0.5, seed=1)
    init = SpinConfiguration([1, -1, 1, -1], "pm")
    state, _ = run_chain(m, init, 0, seed=2)
    assert state.config == init


def test_run_chain_rejects_a_negative_record_interval():
    m = random_field_model(path_graph(4), 0.5, seed=1)
    with pytest.raises(InputError):
        run_chain(m, SpinConfiguration([1, -1, 1, -1], "pm"), 10, seed=2, record_every=-1)


def test_run_chain_rejects_negative_steps():
    m = random_field_model(path_graph(4), 0.5, seed=1)
    with pytest.raises(InputError, match="steps"):
        run_chain(m, SpinConfiguration([1, -1, 1, -1], "pm"), -1, seed=0)


def test_run_chain_deterministic():
    m = random_field_model(path_graph(4), 0.5, seed=1)
    init = SpinConfiguration([1, 1, 1, 1], "pm")
    a, _ = run_chain(m, init, 500, seed=7)
    b, _ = run_chain(m, init, 500, seed=7)
    assert a.config == b.config
    c, _ = run_chain(m, init, 500, seed=8)
    assert a.config != c.config or True  # different seed may coincide; just must not raise


def test_run_chain_respects_pinning():
    m = random_field_model(path_graph(4), 0.8, seed=2).with_pinning({2: -1})
    init = SpinConfiguration([1, 1, -1, 1], "pm")
    state, _ = run_chain(m, init, 300, seed=3)
    assert state.config.values()[2] == -1
    with pytest.raises(InputError):  # nothing left to update
        run_chain(m.with_pinning({0: 1, 1: 1, 3: 1}), init, 1, seed=3)


def test_single_vertex_exact_stationarity():
    # one update resamples from the stationary two-point law exactly
    h = 0.4
    m = uniform_model(build_graph(1, []), 0.0, [h])
    replicas = 100_000
    init = np.full((replicas, 1), -1.0)
    final, _ = run_chains_batch(m, init, 1, seed=11)
    p_plus = float((final[:, 0] == 1).mean())
    exact = math.exp(h) / (2 * math.cosh(h))
    sigma = math.sqrt(exact * (1 - exact) / replicas)
    assert abs(p_plus - exact) <= 3 * sigma


def test_detailed_balance_from_stationary_starts():
    m = random_field_model(path_graph(3), 0.6, seed=9)
    table = gibbs_table(m)
    p_mat, probs = transition_matrix(m)
    replicas = 200_000
    rng = substream(123, CHAIN, 9)
    starts_idx = rng.choice(len(probs), p=probs, size=replicas)
    vals = np.array([[table.assignment(i)[v] for v in range(3)] for i in range(len(probs))])
    init = vals[starts_idx].astype(float)
    final, _ = run_chains_batch(m, init, 1, seed=77)
    weights = 2 ** np.arange(3)
    end_idx = ((final == 1).astype(np.int64) @ weights)
    for x in range(len(probs)):
        for y in range(x + 1, len(probs)):
            if p_mat[x, y] == 0:
                continue
            n_xy = int(((starts_idx == x) & (end_idx == y)).sum())
            n_yx = int(((starts_idx == y) & (end_idx == x)).sum())
            sigma = math.sqrt(n_xy + n_yx) + 1e-9
            assert abs(n_xy - n_yx) <= 3.5 * sigma


def test_monotone_identity_coupling(p3_symmetric):
    init = SpinConfiguration([1, -1, 1], "pm")
    trace = monotone_coupled_run(p3_symmetric, init, init, 400, seed=4)
    assert trace.disagreement_set == frozenset()
    assert trace.coalescence_step == 0


def test_monotone_order_preserved_batch():
    m = uniform_model(path_graph(3), 0.5, [0.0, 0.0, 0.0])
    report = monotone_coupled_batch(m, steps=2000, runs=300, seed=5)
    assert report["order_violations"] == 0


def test_monotone_rejects_antiferromagnet():
    m = IsingModel(graph=path_graph(2), couplings=np.array([-0.5]), field=np.zeros(2))
    lo = SpinConfiguration([-1, -1], "pm")
    hi = SpinConfiguration([1, 1], "pm")
    with pytest.raises(InputError):
        monotone_coupled_run(m, lo, hi, 10, seed=1)


def test_monotone_run_checks_its_starts():
    # A start that breaks a pin would never coalesce: pinned sites are never updated.
    m = uniform_model(path_graph(4), 0.5, np.zeros(4))
    lo = SpinConfiguration([-1] * 4, "pm")
    hi = SpinConfiguration([1] * 4, "pm")
    for model, low, high in ((m.with_pinning({1: 1}), lo, hi),
                             (m.with_pinning({1: -1}), lo, hi),
                             (m, SpinConfiguration([0] * 4, "01"), hi),
                             (m, SpinConfiguration([-1] * 3, "pm"), hi)):
        with pytest.raises(InputError):
            monotone_coupled_run(model, low, high, 200, seed=3)


def test_monotone_run_rejects_negative_steps():
    m = uniform_model(path_graph(3), 0.5, np.zeros(3))
    lo, hi = (SpinConfiguration([s] * 3, "pm") for s in (-1, 1))
    with pytest.raises(InputError, match="steps"):
        monotone_coupled_run(m, lo, hi, -3, seed=0)


def test_monotone_beta_zero_coalesces_on_first_update():
    m = random_field_model(path_graph(4), 0.0, seed=6)
    lo = SpinConfiguration([-1] * 4, "pm")
    hi = SpinConfiguration([1] * 4, "pm")
    trace = monotone_coupled_run(m, lo, hi, 25, seed=8)
    index, _ = block_draws(substream(8, COUPLING), 4, 1, 25)
    touched = set(index.ravel().tolist())
    # without interactions the chains agree at a vertex from its first update on
    assert trace.disagreement_set == frozenset(range(4)) - touched


def test_grand_coupling_identical_models(k3_fielded):
    m01_pair = [k3_fielded, k3_fielded]
    configs, disagree, _ = grand_coupled_update(m01_pair, seed=10)
    assert disagree == frozenset()
    assert configs[0] == configs[1]


def test_grand_coupling_beta_zero_disagreement_localized():
    m = random_field_model(path_graph(4), 0.0, seed=12)
    cond = m.with_pinning({1: 1, 2: 1})
    for run in range(50):
        _, disagree, _ = grand_coupled_update([m, cond], seed=900 + run)
        assert disagree <= {1, 2}


def test_grand_coupling_marginals_match_oracle():
    base = random_field_model(complete_graph(3), 0.3, seed=13)
    cond = base.with_pinning({0: 1, 1: 1})
    t_base, t_cond = gibbs_table(base), gibbs_table(cond)
    runs = 10_000
    counts = np.zeros((2, 3))
    for r in range(runs):
        configs, _, _ = grand_coupled_update([base, cond], seed=40_000 + r)
        for c in range(2):
            counts[c] += configs[c].values() == 1
    emp = counts / runs
    exact_base = t_base.probs @ (t_base.rows() == 1)
    exact_cond = t_cond.probs @ (t_cond.rows() == 1)
    for emp_row, exact_row in ((emp[0], exact_base), (emp[1], exact_cond)):
        sigma = np.sqrt(exact_row * (1 - exact_row) / runs) + 1e-12
        assert (np.abs(emp_row - exact_row) <= 3.5 * sigma).all()


def masked_grand_coupling(chains, order, uniforms):
    """The grand coupling by masking the enumerated rows of each chain's table to
    those consistent so far: the reference route.  Returns spin lists and the log."""
    one, zero = SPIN_VALUES[chains[0].convention]
    tables = [gibbs_table(m) for m in chains]
    rows = [tab.rows() for tab in tables]
    masks = [np.ones(len(r), dtype=bool) for r in rows]
    values = [dict(m.pinning) for m in chains]
    log = []
    for v in order:
        u = float(uniforms[v])
        for ci, tab in enumerate(tables):
            if v not in values[ci]:
                is_one = rows[ci][:, v] == one
                p_one = (float(tab.probs[masks[ci] & is_one].sum())
                         / float(tab.probs[masks[ci]].sum()))
                values[ci][v] = one if u <= p_one else zero
                masks[ci] &= is_one if values[ci][v] == one else ~is_one
        log.append((v, u, tuple(vals[v] for vals in values)))
    return [[vals[v] for v in range(len(uniforms))] for vals in values], tuple(log)


@settings(max_examples=60)
@given(models(max_n=9), st.data())
def test_grand_coupling_matches_the_masked_rows(m, data):
    one, zero = SPIN_VALUES[m.convention]
    extra = data.draw(st.dictionaries(st.integers(0, m.n - 1), st.sampled_from([one, zero])))
    chains = [m, m.with_pinning({v: s for v, s in extra.items() if v not in m.pinning}),
              replace(m, field=-m.field)]
    order = data.draw(st.permutations(range(m.n)))
    uniforms = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m.n, max_size=m.n))
    configs, disagree, log = grand_coupled_update(chains, order=order, uniforms=uniforms)
    want, want_log = masked_grand_coupling(chains, order, uniforms)
    assert [c.values().tolist() for c in configs] == want
    assert log == want_log
    assert disagree == {v for v in range(m.n) if len({row[v] for row in want}) > 1}


def test_grand_coupling_holds_one_table_per_chain():
    # 16 free vertices: the masked route's (2^16, 16) int8 rows alone take 1 MiB per
    # chain, with a boolean mask over them, and it peaks at 2.9 MiB here
    g = random_regular_graph(16, 3, seed=5)
    m = to_zero_one(random_field_model(g, 0.3, seed=3))
    pair = [m, m.with_pinning({3: 1})]
    tracemalloc.start()
    try:
        grand_coupled_update(pair, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_grand_coupling_needs_common_space():
    a = random_field_model(path_graph(3), 0.2, seed=1)
    b = random_field_model(path_graph(4), 0.2, seed=1)
    with pytest.raises(InputError):
        grand_coupled_update([a, b], seed=0)


def test_grand_coupling_checks_its_order(monkeypatch):
    m = random_field_model(path_graph(3), 0.2, seed=1)

    def no_table(model):
        raise AssertionError("a table was built before the order was checked")

    monkeypatch.setattr(dynamics, "gibbs_table", no_table)
    for order in ([0, 1], [0, 1, 5], [0, 1, 1, 2]):
        with pytest.raises(InputError, match="permutation"):
            grand_coupled_update([m], seed=0, order=order)


def test_grand_coupling_rejects_a_non_spin_state():
    # a chain is conditioned by pinning, which admits only spins of the convention
    m = random_field_model(path_graph(3), 0.2, seed=1)
    with pytest.raises(InputError):
        m.with_pinning({1: 0})


def test_tv_curve_step_zero_point_mass(p3_symmetric):
    table = gibbs_table(p3_symmetric)
    init = SpinConfiguration([1, 1, 1], "pm")
    rows = empirical_tv_curve(p3_symmetric, init, [0], replicas=1000, seed=3)
    p_init = table.probs[table.indices([1, 1, 1])[0]]
    assert rows[0]["tv"] == pytest.approx(1.0 - p_init, abs=1e-12)


def test_tv_curve_checks_its_start():
    m01 = to_zero_one(random_field_model(path_graph(3), 0.4, seed=4))
    for model, init in ((m01, SpinConfiguration([1, -1, 1], "pm")),
                        (m01.with_pinning({0: 0}), SpinConfiguration([1, 1, 1], "01"))):
        with pytest.raises(InputError):
            empirical_tv_curve(model, init, [0, 10], replicas=100, seed=1)


def test_tv_curve_needs_a_step(p3_symmetric):
    with pytest.raises(InputError):
        empirical_tv_curve(p3_symmetric, SpinConfiguration([1, 1, 1], "pm"), [], replicas=10,
                           seed=1)


def test_tv_curve_single_vertex_one_step():
    m = uniform_model(build_graph(1, []), 0.0, [0.3])
    rows = empirical_tv_curve(m, SpinConfiguration([-1], "pm"), [1], replicas=100_000, seed=6)
    assert rows[0]["tv"] <= 3 * rows[0]["noise_floor"]


def test_tv_curve_fact_mixing_prediction(p3_symmetric):
    # steps from the gap-based bound with the once-calibrated constant C = 1
    gap = glauber_gap(p3_symmetric).gap
    table = gibbs_table(p3_symmetric)
    eta = float(table.probs.min())
    steps = int(np.ceil(mixing_time_bound(gap, eta, 0.02)))
    init = SpinConfiguration([1, 1, 1], "pm")
    rows = empirical_tv_curve(p3_symmetric, init, [steps], replicas=100_000, seed=5)
    assert rows[0]["tv"] < 0.02


def test_batch_runner_deterministic():
    m = random_field_model(path_graph(5), 0.4, seed=20)
    init = np.tile(np.ones(5), (64, 1))
    a, _ = run_chains_batch(m, init, 200, seed=21)
    b, _ = run_chains_batch(m, init, 200, seed=21)
    assert np.array_equal(a, b)


def test_batch_rejects_a_negative_step_count():
    m = random_field_model(path_graph(3), 0.4, seed=3)
    with pytest.raises(InputError):
        run_chains_batch(m, np.ones((2, 3)), -3, seed=1)
    final, snapshots = run_chains_batch(m, np.ones((0, 3)), 4, seed=1)  # an empty batch runs
    assert final.shape == (0, 3) and snapshots == {}


def test_batch_rejects_a_snapshot_past_its_steps():
    m = random_field_model(path_graph(3), 0.4, seed=3)
    with pytest.raises(InputError):
        run_chains_batch(m, np.ones((2, 3)), 5, seed=1, snapshot_steps=(7,))
    with pytest.raises(InputError):
        run_chains_batch(m, np.ones((2, 3)), 5, seed=1, snapshot_steps=(-1,))


def test_coupled_batch_rejects_negative_sizes():
    m = random_field_model(path_graph(3), 0.4, seed=3)
    with pytest.raises(InputError):
        monotone_coupled_batch(m, -2, 3, 1)
    with pytest.raises(InputError):
        monotone_coupled_batch(m, 2, -3, 1)


def test_tv_curve_rejects_a_negative_step(p3_symmetric):
    with pytest.raises(InputError):
        empirical_tv_curve(p3_symmetric, SpinConfiguration([1, 1, 1], "pm"), [-1, 3],
                           replicas=10, seed=1)


def test_batch_checks_its_start_and_never_repairs_it():
    m01 = to_zero_one(random_field_model(grid_graph(2, 3), 0.4, seed=3))
    with pytest.raises(InputError):  # a -1 on a 01 model
        run_chains_batch(m01, np.array([[0.0, -1.0, 0.0, 1.0, 1.0, 0.0]]), 2, seed=1)
    with pytest.raises(InputError):  # a start that breaks the pin at vertex 1
        run_chains_batch(m01.with_pinning({1: 1}), np.zeros((4, 6)), 2, seed=1)
    with pytest.raises(InputError):  # zeros are not pm spins
        run_chains_batch(random_field_model(path_graph(3), 0.4, seed=3), np.zeros((2, 3)), 2,
                         seed=1)
    with pytest.raises(InputError):  # an empty sample has no empirical law
        empirical_tv_curve(m01, SpinConfiguration([0] * 6, "01"), [0, 2], replicas=0, seed=1)
