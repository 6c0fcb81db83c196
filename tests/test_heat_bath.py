"""Properties of the padded-table heat-bath kernel on random bounded-degree models."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rfim import monotone_coupled_batch, run_chain, run_chains_batch
from rfim.dynamics import _local_fields, _one_probability
from rfim.model import SPIN_VALUES, SpinConfiguration
from rfim.rng import COUPLING, substream

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


@settings(max_examples=60)
@given(models(), st.integers(0, 2**31 - 1))
def test_kernel_matches_conditional_probability(m, seed):
    replicas = 16
    values = random_states(m, replicas, seed)
    free = np.array(m.free_vertices)
    rng = substream(seed, COUPLING, 5)
    v = free[rng.integers(len(free), size=replicas)]
    u = rng.random(replicas)
    fields = _local_fields(m, values, np.arange(replicas) * m.n, v)
    p_one = _one_probability(m.convention, fields)
    for r in range(replicas):
        want = _one_probability(m.convention, edge_scan_field(m, values[r], v[r]))
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
    _, lows = run_chains_batch(m, np.full((runs, m.n), float(zero)), steps, seed,
                               snapshot_steps=grid, stream_path=())
    _, highs = run_chains_batch(m, np.full((runs, m.n), float(one)), steps, seed,
                                snapshot_steps=grid, stream_path=())
    met = np.full(runs, -1)
    for k in grid[1:]:
        assert (lows[k] <= highs[k]).all()
        equal = (lows[k] == highs[k]).all(axis=1)
        met[(met < 0) & equal] = k
    assert np.array_equal(report["coalesced_at"], met)
    assert report["final_disagreements"] == int((lows[steps] != highs[steps]).any(axis=1).sum())
