"""Glauber chains by summing local fields one replica at a time, kept out of the library.

``rfim.dynamics`` looks a scalar chain's heat-bath probabilities up in the
model's ``heat_bath_table`` and advances replicas with vectorized kernels.
The replays here compute every step the plain way instead, one replica at a
time: sum the local field over the vertex's whole neighbour row, padding
slots included, then take the logistic.  They draw the documented block
layout of the random streams themselves (``block_draws``), reading
``dynamics.DRAW_BLOCK`` when called, so tests can require the routes to
agree exactly, step by step, also when runs cross block edges.
"""

from __future__ import annotations

import numpy as np

from rfim import dynamics
from rfim.model import SPIN_VALUES, IsingModel, _heat_bath_probability
from rfim.rng import CHAIN, COUPLING, substream


def block_draws(rng, count: int, replicas: int, steps: int):
    """The (steps, replicas) indices into ``count`` vertices and uniforms of a run:
    blocks of b = max(1, DRAW_BLOCK // replicas) rows, the last one shorter, each
    one block of doubles U, read element by element as the index
    min(floor(count * U), count - 1) and the uniform count * U minus that index."""
    rows = max(1, dynamics.DRAW_BLOCK // max(replicas, 1))
    blocks = [np.zeros((0, replicas))]
    for done in range(0, steps, rows):
        blocks.append(rng.random((min(rows, steps - done), replicas)))
    index, uniform = [], []
    for x in np.concatenate(blocks).ravel().tolist():
        x *= count
        j = min(int(x), count - 1)
        index.append(j)
        uniform.append(x - j)
    shape = (steps, replicas)
    return (np.array(index, dtype=np.int64).reshape(shape),
            np.array(uniform, dtype=np.float64).reshape(shape))


def summed_update(model: IsingModel):
    """The heat-bath update of one chain held as a list: update(values, v, u)."""
    nbr, cpl = model.neighbour_table
    rows = [list(zip(w, c)) for w, c in zip(nbr.tolist(), cpl.tolist())]
    field = model.field.tolist()
    conv = model.convention
    one, zero = SPIN_VALUES[conv]

    def update(values: list, v: int, u: float) -> None:
        s = field[v]
        for w, c in rows[v]:
            s += c * values[w]
        values[v] = one if u <= _heat_bath_probability(conv, s) else zero

    return update


def chain_states(model: IsingModel, start, steps: int, seed: int, chain_index: int = 0):
    """The state after each of the ``steps`` updates of ``run_chain``'s chain, as lists;
    entry 0 is the start."""
    values = [int(x) for x in start]
    free = list(model.free_vertices)
    update = summed_update(model)
    choices, uniforms = block_draws(substream(seed, CHAIN, chain_index), len(free), 1, steps)
    states = [list(values)]
    for k in range(steps):
        update(values, free[choices[k, 0]], uniforms[k, 0])
        states.append(list(values))
    return states


def replica_states(model: IsingModel, starts, steps: int, seed: int, stream_path=(0,)):
    """The (replicas, n) state after each of the ``steps`` updates of ``run_chains_batch``
    from the rows ``starts``, one replica at a time; entry 0 is the start."""
    rows = [list(row) for row in np.asarray(starts, dtype=np.float64).tolist()]
    free = list(model.free_vertices)
    update = summed_update(model)
    rng = substream(seed, COUPLING, *stream_path)
    choices, uniforms = block_draws(rng, len(free), len(rows), steps)
    states = [np.array(rows).reshape(len(rows), model.n)]
    for k in range(steps):
        for r, row in enumerate(rows):
            update(row, free[choices[k, r]], uniforms[k, r])
        states.append(np.array(rows).reshape(len(rows), model.n))
    return states


def coupled_states(model: IsingModel, low, high, steps: int, seed: int):
    """The (low, high) pair after each update of ``monotone_coupled_run``, as lists;
    entry 0 is the start."""
    lo, hi = [int(x) for x in low], [int(x) for x in high]
    free = list(model.free_vertices)
    update = summed_update(model)
    choices, uniforms = block_draws(substream(seed, COUPLING), len(free), 1, steps)
    pairs = [(list(lo), list(hi))]
    for k in range(steps):
        v, u = free[choices[k, 0]], uniforms[k, 0]
        update(lo, v, u)
        update(hi, v, u)
        pairs.append((list(lo), list(hi)))
    return pairs


def row_order_sum(model: IsingModel, v: int, neighbour_spins, own_spin) -> float:
    """h_v plus c * x over v's whole neighbour row, left to right; a padding slot
    names v itself, so it reads ``own_spin``."""
    nbr, cpl = model.neighbour_table
    s = float(model.field[v])
    for w, c in zip(nbr[v].tolist(), cpl[v].tolist()):
        s += c * (own_spin if w == v else neighbour_spins[w])
    return s
