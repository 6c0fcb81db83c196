"""Scalar Glauber chains by summing local fields, kept out of the library.

``rfim.dynamics`` looks a scalar chain's heat-bath probabilities up in the
model's ``heat_bath_table``.  The replays here compute every step the plain
way instead: sum the local field over the vertex's whole neighbour row,
padding slots included, then take the logistic.  They read the same random
streams in the same order as ``run_chain`` and ``monotone_coupled_run``, so
tests can require the two routes to agree exactly, step by step.
"""

from __future__ import annotations

from rfim.model import SPIN_VALUES, IsingModel, _heat_bath_probability
from rfim.rng import CHAIN, COUPLING, substream


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
    rng = substream(seed, CHAIN, chain_index)
    choices = rng.integers(len(free), size=steps).tolist()
    uniforms = rng.random(size=steps).tolist()
    states = [list(values)]
    for k in range(steps):
        update(values, free[choices[k]], uniforms[k])
        states.append(list(values))
    return states


def coupled_states(model: IsingModel, low, high, steps: int, seed: int):
    """The (low, high) pair after each update of ``monotone_coupled_run``, as lists;
    entry 0 is the start."""
    lo, hi = [int(x) for x in low], [int(x) for x in high]
    free = list(model.free_vertices)
    update = summed_update(model)
    rng = substream(seed, COUPLING)
    pairs = [(list(lo), list(hi))]
    for _ in range(steps):
        v = free[int(rng.integers(len(free)))]
        u = float(rng.random())
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
