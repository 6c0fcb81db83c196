"""Properties of the padded-table heat-bath kernel on random bounded-degree models."""

import ast
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.special import expit

from rfim import (
    CapacityError,
    IsingModel,
    build_graph,
    grid_graph,
    monotone_coupled_batch,
    monotone_coupled_run,
    run_chain,
    run_chains_batch,
)
from rfim import dynamics, model as model_module
from rfim.dynamics import _keys
from rfim.model import (
    HEAT_BATH_TABLE_CAP,
    SPIN_VALUES,
    SpinConfiguration,
    _heat_bath_probability,
    array_energy,
)
from rfim.oracle import _encode
from rfim.rng import COUPLING, substream

import scalar_reference
from scalar_reference import (
    block_draws,
    chain_states,
    coupled_states,
    replica_states,
    row_order_sum,
)
from strategies import models


def random_states(m, replicas, seed):
    one, zero = SPIN_VALUES[m.convention]
    rng = np.random.default_rng(seed)
    values = np.where(rng.random((replicas, m.n)) < 0.5, one, zero).astype(np.float64)
    for v, s in m.pinning.items():
        values[:, v] = s
    return values


@settings(max_examples=60)
@given(models())
def test_neighbour_table_matches_edges(m):
    nbr, cpl = m.neighbour_table
    assert nbr.shape == cpl.shape == (m.n, m.graph.max_degree())
    coupling = dict(zip(m.graph.edges, m.couplings))
    for v, adj in enumerate(m.graph.adjacency):
        d = len(adj)
        assert tuple(nbr[v, :d]) == adj
        assert list(cpl[v, :d]) == [coupling[min(v, w), max(v, w)] for w in adj]
        assert (nbr[v, d:] == v).all() and (cpl[v, d:] == 0).all()


def edge_scan_field(m, values, v):
    """Local field at v by scanning every edge: the reference the table replaces."""
    s = m.field[v]
    for (a, b), c in zip(m.graph.edges, m.couplings):
        if v in (a, b):
            s += c * values[b if a == v else a]
    return s


def table_entries(m, values, v):
    """The ``heat_bath_table`` entry of vertex v[r] under the spins of row r of ``values``."""
    return np.array([m.heat_bath_table.probs[_keys(m, row)[w]] for row, w in zip(values, v)])


def kernel_step(m, values, v, u):
    """The new spins of one float-kernel step of every row r at v[r] with uniform u[r];
    the free list passed is every vertex, so the drawn index is the vertex."""
    [(_, new)] = dynamics._float_steps(m, values.copy(), np.arange(m.n), [(v[None], u[None])])
    return new


def kernel_probability_is(m, values, v, p):
    """Per row r, whether the float kernel's P(one) at v[r] is exactly p[r]: by the
    quantile rule it sets 'one' at u = p[r] and 'zero' at the next float up."""
    one, zero = SPIN_VALUES[m.convention]
    at = kernel_step(m, values, v, p)
    above = kernel_step(m, values, v, np.nextafter(p, 2.0))
    return (at == one) & (above == zero)


# No explain phase: on a failing kernel it takes minutes to report what
# shrinking has already found in seconds.
@settings(max_examples=60, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(models(min_pairs=2), st.integers(0, 2**31 - 1))
def test_kernel_probabilities_equal_table_entries(m, seed):
    replicas = 64
    values = random_states(m, replicas, seed)
    rng = np.random.default_rng(seed)
    free = np.array(m.free_vertices)
    v = free[rng.integers(len(free), size=replicas)]
    assert kernel_probability_is(m, values, v, table_entries(m, values, v)).all()
    # the staged sampler's rows hold 0 at vertices not yet staged, which no table
    # key encodes: there the reference is the row-order sum with x = 0
    values[rng.random(values.shape) < 0.3] = 0.0
    want = [_heat_bath_probability(m.convention, row_order_sum(m, w, row, row[w]))
            for row, w in zip(values.tolist(), v.tolist())]
    assert kernel_probability_is(m, values, v, np.array(want)).all()


@settings(max_examples=60)
@given(models(), st.integers(0, 2**31 - 1))
def test_kernel_matches_conditional_probability(m, seed):
    replicas = 16
    values = random_states(m, replicas, seed)
    free = np.array(m.free_vertices)
    choice, uniform = block_draws(substream(seed, COUPLING, 5), len(free), replicas, 1)
    v, u = free[choice[0]], uniform[0]
    p_one = table_entries(m, values, v)
    for r in range(replicas):
        want = _heat_bath_probability(m.convention, edge_scan_field(m, values[r], v[r]))
        assert abs(p_one[r] - want) <= 1e-12

    # one step of the public batch runner reads the same draws and updates only v[r]
    final, _ = run_chains_batch(m, values, 1, seed, stream_path=(5,))
    one, zero = SPIN_VALUES[m.convention]
    for r in range(replicas):
        want = values[r].copy()
        want[v[r]] = one if u[r] <= p_one[r] else zero
        assert np.array_equal(final[r], want)


@settings(max_examples=40)
@given(models(), st.integers(0, 2**31 - 1))
def test_pinned_sites_never_change(m, seed):
    values = random_states(m, 8, seed)
    steps = 4 * m.n
    _, snaps = run_chains_batch(m, values, steps, seed, snapshot_steps=range(steps + 1))
    pinned = sorted(m.pinning)
    want = [m.pinning[v] for v in pinned]
    for snap in snaps.values():
        assert (snap[:, pinned] == want).all()
    state, _ = run_chain(m, SpinConfiguration(values[0].astype(np.int8), m.convention),
                         steps, seed)
    assert [state.config.values()[v] for v in pinned] == want


@settings(max_examples=40)
@given(models(ferromagnetic=True), st.integers(0, 2**31 - 1))
def test_coupled_batch_keeps_order_at_every_step(m, seed):
    runs, steps = 8, 6 * m.n
    report = monotone_coupled_batch(m, steps, runs, seed)
    # The coupled batch and run_chains_batch on the stream path () read the same
    # substream in the same order, so these replay its two chains step by step.
    one, zero = SPIN_VALUES[m.convention]
    grid = range(steps + 1)
    _, lows = run_chains_batch(m, np.tile(m.full_values(zero), (runs, 1)), steps, seed,
                               snapshot_steps=grid, stream_path=())
    _, highs = run_chains_batch(m, np.tile(m.full_values(one), (runs, 1)), steps, seed,
                                snapshot_steps=grid, stream_path=())
    met = np.full(runs, -1)
    for k in grid[1:]:
        assert (lows[k] <= highs[k]).all()
        equal = (lows[k] == highs[k]).all(axis=1)
        met[(met < 0) & equal] = k
    assert np.array_equal(report["coalesced_at"], met)
    assert report["final_disagreements"] == int((lows[steps] != highs[steps]).any(axis=1).sum())


@settings(max_examples=60, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(models(min_pairs=2), st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(0, 30),
       st.data())
def test_coded_run_equals_the_float_kernel(m, seed, replicas, steps, data):
    values = random_states(m, replicas, seed)
    snapshot_steps = data.draw(st.lists(st.integers(0, steps), max_size=4))
    free = dynamics._free_vertices(m)
    # every table entry is the float kernel's P(one), bit for bit, at each start row
    table = dynamics._code_table(m, free, values[0])
    codes = _encode(values, free, SPIN_VALUES[m.convention][0])
    for j, v in enumerate(free):
        assert kernel_probability_is(m, values, np.full(replicas, v), table[codes, j]).all()
    runs = []
    for fits in (True, False):  # the batch on codes, then on the float kernel
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_codes_fit", lambda f, work: fits)
            runs.append(run_chains_batch(m, values, steps, seed, snapshot_steps))
    (coded, got), (floats, want) = runs
    assert np.array_equal(floats, coded)
    assert want.keys() == got.keys()
    assert all(np.array_equal(want[k], got[k]) for k in want)


# DRAW_BLOCK from 1 up puts block edges anywhere in a run, also between snapshots
@pytest.mark.parametrize("convention", ["pm", "01"])
@settings(max_examples=40, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data(), seed=st.integers(0, 2**31 - 1), replicas=st.integers(1, 6),
       steps=st.integers(0, 25), block=st.integers(1, 12))
def test_batch_equals_the_per_replica_reference_across_block_edges(convention, data, seed,
                                                                  replicas, steps, block):
    m = data.draw(models(min_pairs=1, convention=convention))
    values = random_states(m, replicas, seed)
    snapshot_steps = data.draw(st.lists(st.integers(0, steps), max_size=4))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "DRAW_BLOCK", block)
        want = replica_states(m, values, steps, seed)
        for fits in (True, False):  # the batch on codes, then on the float kernel
            patch.setattr(dynamics, "_codes_fit", lambda f, work: fits)
            final, snapshots = run_chains_batch(m, values, steps, seed, snapshot_steps)
            assert np.array_equal(final, want[steps])
            assert snapshots.keys() == set(snapshot_steps)
            assert all(np.array_equal(snapshots[k], want[k]) for k in snapshots)


@pytest.mark.parametrize("convention", ["pm", "01"])
@settings(max_examples=40, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data(), seed=st.integers(0, 2**31 - 1), runs=st.integers(1, 6),
       block=st.integers(1, 12))
def test_coupled_batch_equals_the_per_replica_reference_across_block_edges(convention, data,
                                                                          seed, runs, block):
    m = data.draw(models(ferromagnetic=True, convention=convention))
    steps = 4 * m.n
    one, zero = SPIN_VALUES[convention]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "DRAW_BLOCK", block)
        report = monotone_coupled_batch(m, steps, runs, seed)
        lows, highs = (replica_states(m, np.tile(m.full_values(s), (runs, 1)), steps, seed, ())
                       for s in (zero, one))
    met = np.full(runs, -1)
    for k in range(1, steps + 1):
        assert (lows[k] <= highs[k]).all()
        met[(met < 0) & (lows[k] == highs[k]).all(axis=1)] = k
    assert np.array_equal(report["coalesced_at"], met)
    assert report["final_disagreements"] == int((lows[steps] != highs[steps]).any(axis=1).sum())


def test_long_chain_holds_one_block_of_draws():
    # all draws held at once, as two Python lists, peaked at 91.5 MiB here
    m = IsingModel.uniform(grid_graph(3, 4), 0.3, np.linspace(-0.5, 0.5, 12))
    init = SpinConfiguration(m.full_values(1).astype(np.int8), m.convention)
    m.heat_bath_table
    tracemalloc.start()
    try:
        run_chain(m, init, 2_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_code_table_build_stays_local():
    # a 14-vertex path among 50,000 vertices: a (2^14, n) array would take 6.5 GB
    n, path = 50_000, np.arange(20_000, 20_014)
    m = IsingModel.uniform(build_graph(n, list(zip(path[:-1], path[1:]))), 0.4,
                           np.linspace(-1.0, 1.0, n))
    m.neighbour_table
    outside = np.zeros(n)
    tracemalloc.start()
    try:
        table = dynamics._code_table(m, path, outside)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1 << 14, 14)
    assert peak < 16 << 20


@settings(max_examples=60)
@given(models(min_pairs=2))
def test_table_entries_are_row_order_sums(m):
    table = m.heat_bath_table
    one, zero = SPIN_VALUES[m.convention]
    degree = [len(adj) for adj in m.graph.adjacency]
    assert len(table.probs) == sum(1 << d for d in degree)
    starts = sorted((table.offset[v], v) for v in range(m.n))
    for (a, v), (b, _) in zip(starts, starts[1:] + [(len(table.probs), None)]):
        assert b - a == 1 << degree[v] and a % (1 << degree[v]) == 0
    for v, adj in enumerate(m.graph.adjacency):
        for pattern in range(1 << len(adj)):
            spins = {w: one if pattern >> j & 1 else zero for j, w in enumerate(adj)}
            # the padding slots read v's own spin; either value gives the same entry
            for own in (one, zero):
                want = _heat_bath_probability(m.convention, row_order_sum(m, v, spins, own))
                assert table.probs[table.offset[v] + pattern] == want


@settings(max_examples=40)
@given(models(min_pairs=2), st.integers(0, 2**31 - 1), st.integers(1, 40))
def test_run_chain_replays_summed_fields_step_by_step(m, seed, record_every):
    start = random_states(m, 1, seed)[0].astype(np.int8)
    init = SpinConfiguration(start, m.convention)
    steps = 3 * m.n
    for k in range(steps + 1):
        state, _ = run_chain(m, init, k, seed, chain_index=2)
        assert state.config.values().tolist() == chain_states(m, start, k, seed, 2)[-1]
    states = chain_states(m, start, steps, seed, 2)
    _, trajectory = run_chain(m, init, steps, seed, record_every=record_every, chain_index=2)
    want = [(k, float(sum(states[k])), array_energy(m, np.array(states[k], dtype=np.float64)))
            for k in range(0, steps + 1, record_every)]
    assert trajectory == want


class TableUniforms:
    """A chain's substream whose doubles are replaced by entries of the model's
    heat-bath table.  ``_draws`` reads a double p as index floor(count * p) and
    uniform count * p minus it, which is p itself when one vertex is free: on
    such models every uniform is a table entry and some land exactly on their
    step's probability."""

    def __init__(self, model, *key):
        self.rng = substream(*key)
        self.probs = model.heat_bath_table.probs

    def random(self, size=None):
        return self.probs[self.rng.integers(len(self.probs), size=size)]


@settings(max_examples=60)
@given(models(), st.integers(0, 2**31 - 1), st.integers(0, 3), st.integers(1, 40), st.booleans())
def test_glauber_draw_replays_summed_fields_step_by_step(m, seed, index, steps, ties):
    zeros = m.full_values(SPIN_VALUES[m.convention][1]).astype(np.int8)
    with pytest.MonkeyPatch.context() as patch:
        if ties:  # a uniform equal to its probability sets 'one'
            stream = partial(TableUniforms, m)
            patch.setattr(dynamics, "substream", stream)
            patch.setattr(scalar_reference, "substream", stream)
        drawn = dynamics._draw(m, None, "glauber", seed, (index,), steps)
        want = chain_states(m, zeros, steps, seed, index)[-1]
    assert drawn.dtype == np.int8
    assert drawn.tolist() == want


@settings(max_examples=40)
@given(models(ferromagnetic=True, min_pairs=2), st.integers(0, 2**31 - 1))
def test_coupled_run_replays_summed_fields_step_by_step(m, seed):
    low, other = random_states(m, 2, seed).astype(np.int8)
    high = np.maximum(low, other)
    for k in range(3 * m.n + 1):  # a run of k steps draws one block of k rows
        pairs = coupled_states(m, low, high, k, seed)
        lo, hi = pairs[-1]
        trace = monotone_coupled_run(m, SpinConfiguration(low, m.convention),
                                     SpinConfiguration(high, m.convention), k, seed)
        assert [s.config.values().tolist() for s in trace.states] == [lo, hi]
        assert trace.disagreement_set == {v for v in range(m.n) if lo[v] != hi[v]}
        assert trace.coalescence_step == next(
            (i for i, (a, b) in enumerate(pairs) if a == b), None)


def test_scalar_steps_evaluate_no_logistic(monkeypatch):
    m = IsingModel.uniform(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 0.4,
                           np.array([0.3, -0.2, 0.1, 0.0]))
    m.heat_bath_table  # built, through the logistic, before it is taken away

    def logistic(*args):
        raise AssertionError("a scalar step evaluated the logistic")

    monkeypatch.setattr(dynamics, "_heat_bath_probability", logistic)
    monkeypatch.setattr(np, "tanh", logistic)  # the rule's ufunc, however it is reached
    lo, hi = (SpinConfiguration(m.full_values(s), m.convention) for s in (-1, 1))
    run_chain(m, hi, 500, seed=1)
    monotone_coupled_run(m, lo, hi, 500, seed=1)
    dynamics._draw(m, None, "glauber", 1, (0,), 500)


def star_model(leaves):
    g = build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return IsingModel.uniform(g, 0.3, np.linspace(-1.0, 1.0, leaves + 1))


def test_table_over_the_cap_raises_before_allocating():
    # The centre alone needs 2^20 entries, plus two per leaf: just over the cap.
    m = star_model(HEAT_BATH_TABLE_CAP.bit_length() - 1)
    init = SpinConfiguration(m.full_values(1), m.convention)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            run_chain(m, init, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(CapacityError):  # and no overflow far above it
        star_model(70).heat_bath_table


def test_table_just_under_the_cap_runs():
    m = star_model(HEAT_BATH_TABLE_CAP.bit_length() - 2)
    assert len(m.heat_bath_table.probs) <= HEAT_BATH_TABLE_CAP
    start = np.where(np.arange(m.n) % 2 == 0, 1, -1).astype(np.int8)
    state, _ = run_chain(m, SpinConfiguration(start, m.convention), 200, seed=4)
    assert state.config.values().tolist() == chain_states(m, start, 200, 4)[-1]


# |s| > 355 overflows exp(2s) in pm and |s| > 709 exp(s) in 01
OVERFLOWING = [-1e6, -710.0, -356.0, 356.0, 710.0, 1e6]


@settings(max_examples=200)
@given(st.sampled_from(sorted(SPIN_VALUES)),
       st.lists(st.floats(-1e6, 1e6) | st.floats(-40.0, 40.0), max_size=40))
def test_rule_is_a_bounded_monotone_logistic(convention, fields):
    s = np.sort(np.array(fields + OVERFLOWING))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = _heat_bath_probability(convention, s.copy())
    assert ((p >= 0.0) & (p <= 1.0)).all()
    assert (np.diff(p) >= 0.0).all()
    want = expit(2.0 * s if convention == "pm" else s)
    assert np.abs(p - want).max() <= 4.5e-16


# names that evaluate a logistic: numpy's tanh, which the rule calls, scipy's expit
# and ``_one_probability``
LOGISTICS = {"tanh", "expit", "_one_probability"}


def logistic_uses(tree):
    """The innermost enclosing function (None at module level) of each reference
    to a name in ``LOGISTICS``: a call, an attribute, an import or an alias."""
    uses = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                names = {child.id}
            elif isinstance(child, ast.Attribute):
                names = {child.attr}
            else:
                names = {child.name, child.asname} if isinstance(child, ast.alias) else set()
            if names & LOGISTICS:
                uses.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else where)

    visit(tree, None)
    return uses


def test_one_function_takes_the_heat_bath_logistic():
    # assumption_params takes the logistic of a constant, its rho, not of a local field
    allowed = {("model.py", "_heat_bath_probability"), ("model.py", "assumption_params")}
    found = set()
    for path in sorted(Path(model_module.__file__).parent.glob("*.py")):
        found |= {(path.name, where) for where in logistic_uses(ast.parse(path.read_text()))}
    assert ("model.py", "_heat_bath_probability") in found
    assert found <= allowed
