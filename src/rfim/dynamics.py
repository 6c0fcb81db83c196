"""Single-site Glauber dynamics, monotone and grand couplings, mixing diagnostics.

The update rule is heat-bath: pick a free vertex uniformly, then resample its
spin from the conditional law given the rest.  All couplings share one
quantile rule - the new spin is the 'one' value iff the shared uniform falls
at or below its conditional probability - which preserves pointwise order
between chains on ferromagnetic models and lets many conditioned chains ride
the same uniforms.  Replicas use disjoint RNG substreams; a coupled trace
advances all of its chains in lockstep.

Every kernel reads its random choices from ``_draws``.  A run of ``steps``
updates of R replicas (R = 1 for a scalar chain and for the coupled pair)
is drawn in blocks of b = max(1, DRAW_BLOCK // R) steps, the last block
shorter: per block, one (b, R) array of doubles U, each split into both of
its update's choices, the index floor(count * U) into the free list of count
vertices and the uniform count * U minus that index.  So a kernel makes one
RNG call per block, and row k of a block is step k's.  The layout depends
only on (steps, R), never on snapshots or segments, so a run is a fixed
function of its substream address.  ``_draws`` gives what the split costs.
DRAW_BLOCK = 2^13 replica-steps keeps a block's (b, max degree, R) gathers
near 0.25 MB at degree 4, and each block's arrays are freed before the next
is drawn: on the 50x50 torus batches the bench's peak RSS read 77.1-77.25 MB
at 2^14, the parent's level, and 75.5-75.6 MB at 2^13.  The staged sampler
at R = 64 draws each stage's k* updates in one block either way.

Local fields come from the model's padded neighbour table: (n, max degree)
neighbour indices and couplings, padding slots having coupling 0, so an
update costs O(max degree) whatever n is.

Scalar chains (``run_chain``, the Glauber branch of ``_draw`` and
``monotone_coupled_run``) look their probabilities up.  The law at v depends
only on v's neighbour spins, so ``IsingModel.heat_bath_table`` holds P(one)
for every vertex and every pattern of its real neighbours, built once per
model with numpy.  A chain keeps its spin list and one key per vertex; a step
reads ``probs[key[v]]`` and only a flip touches the keys, XOR-ing v's slot bit
into each neighbour's key through ``flips[v]``.  No step sums a field or
calls the logistic, and none calls a function: the step is written out in
the loop of ``_scalar_run``, which serves ``run_chain`` and ``_draw``, and
in the loop of ``monotone_coupled_run``, which applies it to both chains.
Against a call per update, 100 chains of 2000 updates on a 3x4 grid went
from 105 to 80 ms and one chain of 50,000 updates on a 50x50 torus from 26
to 18 ms (CPU time, 2-core Xeon).  ``probs`` is a memoryview of the table: a
list of it was faster on the grid (66 ms) but slower on the torus (22 ms),
where it holds 40,000 Python floats.  The table caps at
``HEAT_BATH_TABLE_CAP`` entries and raises CapacityError above it.

``_float_steps`` is the float replica kernel, under replica batches, the
monotone batch coupling (both chains stacked in one state) and sampler
stages.  Once a block's vertices are known it gathers what depends on them
alone: the flat write targets, the neighbour indices and couplings
slot-major, (b, D, R), and the fields.  A step is then one spin gather, one
product, the D in-place adds of ``model._heat_bath_probability``, the
compare and the put.  It sums v's whole row; padding slots add c = 0 times a
spin, +-0.0, so its P(one) equals the table's entry bit for bit.  The staged
sampler holds vertices not yet staged at 0, neutral in both conventions but
not a spin in pm, which no table key encodes; that zero-padded matrix is why
the sampler calls ``_float_steps`` directly, which checks nothing.  Every
public chain checks its start with ``IsingModel.check_values`` and never
repairs it.  Pinned vertices hold their value and are never chosen.

When the f updated vertices are few, a batch runs on codes instead: each
replica's spins on them are one int64 in the layout of Gibbs table indices,
bit j the spin of the j-th updated vertex in ascending order, written and
read by ``oracle._encode`` and ``oracle._decode``.  ``_code_table`` gives
P(one) for every code and updated vertex, each vertex outside the set
holding one value in every row (a pin, or an unstaged 0).  A step is a
gather, a compare and a bit set.  It is bit-identical to the float kernel:
the table sums the same products of the same floats through the same rule
in the same slot order, and ``_coded_steps`` reads the same draws.  Both
kernels yield after every step, so ``run_chains_batch`` holds the one
snapshot loop: it builds the table once and advances the codes, or the
float kernel, from one snapshot step to the next.  The size rule
``_codes_fit`` codes while f * 2^f <= min(R * steps, HEAT_BATH_TABLE_CAP),
so f <= 16.  It was set on the staged sampler, float kernel against codes
at factors 1/4 to 8 of R * steps (median ms per call, 2-core Xeon):
3x4 pm, R = 20,000, k* = 8, 89 -> 34 at every factor from 1/2 up;
4x4 01, R = 20,000, k* = 10, 160-165 -> 78-80 at 1 and 2, 93-98 at 4 and
124-132 at 8, where 2^16 x 16 tables cost more than they save; 12x12 pm,
R = 64, k* = 12, codes to stage 6, equal within noise at every factor;
a 2-path, R = 10^5, k* = 1024, 3.0 -> 1.6 s.

The grand coupling halves each chain's Gibbs table in revelation order.  A
chain keeps the probabilities of the configurations consistent so far, in
index order, so its unrevealed free vertices are the index bits; revealing
v keeps the half with v's drawn spin, P(one) being the one half's sum over
the whole.  That is O(2^f) floats per chain, summed in the order in which
masking the enumerated rows would sum them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import InputError
from .model import (
    HEAT_BATH_TABLE_CAP,
    SPIN_VALUES,
    IsingModel,
    SpinConfiguration,
    _config_values,
    _heat_bath_probability,
    array_energy,
)
from .oracle import _decode, _encode, empirical_tv, gibbs_table
from .rng import CHAIN, COUPLING, substream


@dataclass
class ChainState:
    """A chain's configuration and step counter."""

    config: SpinConfiguration
    step: int


@dataclass(frozen=True)
class CouplingTrace:
    """Outcome of a coupled run: final states, where they differ, and when they met."""

    states: tuple[ChainState, ...]
    disagreement_set: frozenset[int]
    coalescence_step: int | None = None


def _free_vertices(model: IsingModel) -> np.ndarray:
    free = np.array(model.free_vertices, dtype=np.int64)
    if len(free) == 0:
        raise InputError("model has no free vertices")
    return free


def _keys(model: IsingModel, values) -> list[int]:
    """The ``heat_bath_table`` key of every vertex under the spins ``values``."""
    table = model.heat_bath_table
    is_one = np.asarray(values) == SPIN_VALUES[model.convention][0]
    return (table.offset + (is_one[model.neighbour_table[0]] * table.weight).sum(axis=1)).tolist()


DRAW_BLOCK = 1 << 13  # replica-steps drawn at once; the module docstring gives the layout


def _draws(rng: np.random.Generator, count: int, replicas: int, steps: int):
    """The (indices into ``count`` vertices, uniforms) of ``steps`` updates of
    ``replicas`` replicas, in blocks of shape (b, replicas), b = max(1, DRAW_BLOCK
    // replicas), each one block of doubles U split into both: x = count * U, the
    index j = min(floor(x), count - 1) and the uniform u = x - j.

    One RNG call per block, not two, at a cost to exactness: U is a multiple of
    2^-53, so j is uniform to within count * 2^-52 relative and u has
    resolution count * 2^-53 (7e-12 at count = 65,536).  u = x - j is exact
    (Sterbenz).  For an integer count below 2^53, count * U rounds to at most
    the largest double below count for every double U < 1, so u < 1 and the
    clip never moves j; it keeps j in range should U be 1.0, which would give
    j = count - 1 and u = 1.0, an update that sets 'zero' unless P(one) = 1.
    """
    rows = max(1, DRAW_BLOCK // max(replicas, 1))
    for done in range(0, steps, rows):
        x = rng.random((min(rows, steps - done), replicas))
        x *= count
        j = x.astype(np.int64)
        np.minimum(j, count - 1, out=j)
        x -= j
        yield j, x


def _float_steps(model: IsingModel, values: np.ndarray, free: np.ndarray, blocks):
    """Advance the C-ordered (R, n) float ``values`` by the updates of ``blocks``,
    ``_draws`` blocks of indices into ``free``, yielding after each update its
    flat write targets r * n + v[r] and the new spins; O(R * degree) per update."""
    one, zero = SPIN_VALUES[model.convention]
    nbr, cpl = model.neighbour_table
    base = np.arange(len(values)) * values.shape[1]
    for j, u in blocks:
        at = free.take(j)
        # slot-major (b, D, R), so that each term is a contiguous row
        gather, coupling = (np.ascontiguousarray(a.take(at, axis=0).transpose(0, 2, 1))
                            for a in (nbr, cpl))
        gather += base
        field = model.field.take(at)  # row k is step k's, summed into in place
        at += base  # the vertices become the flat write targets
        for k in range(len(u)):
            terms = values.take(gather[k])
            terms *= coupling[k]
            p_one = _heat_bath_probability(model.convention, field[k], terms)
            # one where u <= p_one, else zero; arithmetic, as np.where is slow on random masks
            new = (u[k] <= p_one) * float(one - zero) + zero
            values.put(at[k], new)
            yield at[k], new
        del gather, coupling, field, at  # before the next block is drawn


def _codes_fit(f: int, work: int) -> bool:
    """Whether a batch updating f vertices for ``work`` replica updates runs on codes:
    f * 2^f <= min(work, HEAT_BATH_TABLE_CAP), so f <= 16 and a code fits an int64.
    The module docstring gives the measurements that set the factor 1 on ``work``."""
    return f * (1 << f) <= min(work, HEAT_BATH_TABLE_CAP)


def _code_table(model: IsingModel, coded: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """P(one) of vertex ``coded[j]`` when bit b of the code c holds the spin of
    ``coded[b]``, as entry (c, j) of a (2^f, f) array, f = len(coded).

    ``coded`` ascends, so the codes are ``oracle._encode``'s; a neighbour
    outside it reads its value in the spin vector ``outside``.  The terms are
    ``_float_steps``'s, one per slot of the padded row, products of the
    same floats added in the same order, so every entry equals the replica
    kernel's P(one) bit for bit.  Neighbours are gathered through their bit
    positions, so the build holds O(2^f * f) floats whatever n is.
    """
    one, zero = SPIN_VALUES[model.convention]
    coded = np.asarray(coded, dtype=np.int64)
    nbr, cpl = (a.take(coded, axis=0) for a in model.neighbour_table)
    bit = np.searchsorted(coded, nbr).clip(max=len(coded) - 1)
    inside = coded[bit] == nbr
    spins = np.where(np.arange(1 << len(coded))[:, None] >> np.arange(len(coded)) & 1,
                     float(one), float(zero))

    def terms():  # one (2^f, len(updated)) term alive at a time
        for j in range(nbr.shape[1]):
            x = spins.take(bit[:, j], axis=1)
            out = ~inside[:, j]
            x[:, out] = outside.take(nbr[out, j])
            x *= cpl[:, j]
            yield x

    field = np.repeat(model.field.take(coded)[None, :], 1 << len(coded), axis=0)
    return _heat_bath_probability(model.convention, field, terms())


def _coded_steps(table: np.ndarray, codes: np.ndarray, blocks):
    """Advance ``codes`` in place by the updates of ``blocks``, ``_draws`` blocks of
    columns j of ``table``, as ``_float_steps`` reads its indices into the free
    list; an update sets bit j.  Yields after each update."""
    f = table.shape[1]
    probs = table.ravel()
    for j, u in blocks:
        bit = 1 << j
        for k in range(len(u)):
            new = u[k] <= probs.take(codes * f + j[k])
            codes &= ~bit[k]
            codes |= new * bit[k]
            yield


def _scalar_draws(rng: np.random.Generator, free: np.ndarray, steps: int):
    """The (vertex, uniform) of each of ``steps`` updates of one replica, as Python
    scalars: the ``_draws`` blocks of ``rng`` over the vertices ``free``, flattened
    for the written-out loops of ``_scalar_run`` and ``monotone_coupled_run``."""
    return chain.from_iterable(zip(free.take(j).ravel().tolist(), u.ravel().tolist())
                               for j, u in _draws(rng, len(free), 1, steps))


def _scalar_run(model: IsingModel, values: list, steps: int, rng: np.random.Generator,
                record_every: int | None = None) -> list | None:
    """Advance the spin list ``values`` in place by ``steps`` updates drawn from
    ``rng`` by ``_draws`` with one replica.  Returns (step, magnetization,
    energy) rows at step 0 and every ``record_every`` steps when that is set,
    else None.  Raises InputError, before drawing, when either count is negative."""
    if steps < 0 or (record_every or 0) < 0:
        raise InputError("steps and record_every must be nonnegative")
    draws = _scalar_draws(rng, _free_vertices(model), steps)
    probs, flips = memoryview(model.heat_bath_table.probs), model.heat_bath_table.flips
    one, zero = SPIN_VALUES[model.convention]
    keys = _keys(model, values)

    def observables(step):
        vals = np.array(values, dtype=np.float64)
        return (step, float(vals.sum()), array_energy(model, vals))

    trajectory = [observables(0)] if record_every else None
    stride = record_every or max(steps, 1)
    for stop in range(stride, steps + stride, stride):
        for v, u in islice(draws, stride):
            s = one if u <= probs[keys[v]] else zero
            if s != values[v]:
                values[v] = s
                for w, bit in flips[v]:
                    keys[w] ^= bit
        if record_every and stop <= steps:
            trajectory.append(observables(stop))
    return trajectory


def run_chain(model: IsingModel, init: SpinConfiguration, steps: int, seed: int,
              record_every: int | None = None, chain_index: int = 0):
    """Run one chain for ``steps`` updates; deterministic given the seed.

    Chain ``chain_index`` of ``seed`` reads substream (seed, CHAIN,
    chain_index) in ``_draws`` blocks, and one loop applies the updates with
    the heat-bath step written out: it reads the probability of its vertex
    from the model's ``heat_bath_table`` at the vertex's key, and a flip XORs
    the vertex's slot bit into its neighbours' keys, so no local field is
    summed, no logistic is evaluated and no function is called per update.
    The table holds the probabilities that summing the field over the
    neighbour row would give, bit for bit.  Returns the final ChainState,
    plus a time series of (step, magnetization, energy) rows when
    ``record_every`` is set.  Raises InputError when ``steps`` or
    ``record_every`` is negative, and CapacityError when the model's table
    would exceed ``HEAT_BATH_TABLE_CAP`` entries.
    """
    values = _config_values(model, init).tolist()
    trajectory = _scalar_run(model, values, steps, substream(seed, CHAIN, chain_index),
                             record_every)
    return ChainState(SpinConfiguration(values, model.convention), steps), trajectory


def _draw(model: IsingModel, rng: np.random.Generator, sampler: str, seed: int, path: tuple,
          burn_steps: int | None) -> np.ndarray:
    """One configuration of ``model`` as a spin vector.

    "oracle" draws it exactly from the model's enumerated Gibbs table with
    ``rng``.  "glauber" runs the chain at substream (seed, CHAIN, *path) for
    ``burn_steps`` updates from the all-'zero' start and leaves ``rng``
    untouched; each caller passes its own ``path``.
    """
    if sampler == "oracle":
        table = gibbs_table(model)
        return table.rows(rng.choice(len(table.probs), p=table.probs))[0]
    if sampler == "glauber":
        if not burn_steps:
            raise InputError("glauber sampler needs burn_steps")
        values = model.full_values(SPIN_VALUES[model.convention][1]).astype(np.int8).tolist()
        _scalar_run(model, values, burn_steps, substream(seed, CHAIN, *path))
        return np.array(values, dtype=np.int8)
    raise InputError(f"unknown sampler {sampler!r}")


def run_chains_batch(model: IsingModel, init_values: np.ndarray, steps: int, seed: int,
                     snapshot_steps=(), stream_path=(0,)) -> tuple[np.ndarray, dict]:
    """Advance many replicas in lockstep (vectorized across replicas).

    ``init_values`` has shape (replicas, n); every row must pass
    ``model.check_values``, so starts are checked, never repaired.  Substream
    (seed, COUPLING, *stream_path) feeds the whole batch in ``_draws`` blocks;
    replica r reads column r of each block's rows, so the run is deterministic
    given (seed, stream_path) and the snapshots do not change it.  Snapshots
    are copies of the state matrix taken after the requested step counts, each
    between 0 and ``steps``.  A batch whose free set is small for its work
    runs on codes (``_codes_fit``) with the same draws and the same output.
    """
    if steps < 0:
        raise InputError("steps must be nonnegative")
    if any(not 0 <= int(s) <= steps for s in snapshot_steps):
        raise InputError(f"snapshot steps must lie between 0 and steps = {steps}")
    values = np.array(model.check_values(init_values), dtype=np.float64, order="C")
    if values.ndim != 2:
        raise InputError("init_values must have shape (replicas, n)")
    free = _free_vertices(model)
    blocks = _draws(substream(seed, COUPLING, *stream_path), len(free), len(values), steps)
    one, zero = SPIN_VALUES[model.convention]
    on_codes = _codes_fit(len(free), len(values) * steps)
    if on_codes:  # every vertex outside ``free`` is pinned, so row 0 holds its value
        codes = _encode(values, free, one)
        updates = _coded_steps(_code_table(model, free, values[0]), codes, blocks)
    else:
        updates = _float_steps(model, values, free, blocks)
    want = set(int(s) for s in snapshot_steps)
    snapshots = {}
    done = 0
    for k in sorted(want | {steps}):
        deque(islice(updates, k - done), maxlen=0)
        if on_codes:
            _decode(codes, free, values, one, zero)
        done = k
        if k in want:
            snapshots[k] = values.copy()
    return values, snapshots


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------

def monotone_coupled_run(model: IsingModel, low: SpinConfiguration, high: SpinConfiguration,
                         steps: int, seed: int) -> CouplingTrace:
    """Two chains sharing vertex choices and uniforms under the quantile rule.

    Requires a ferromagnetic model, low <= high pointwise and ``steps`` >= 0;
    the pointwise order is asserted after every step (a violation raises, it
    is never tolerated statistically).  The updates are drawn from substream
    (seed, COUPLING) by ``_draws`` with one replica, and one loop applies each
    to both chains with the step written out, as ``run_chain``'s loop does:
    both read the one ``heat_bath_table`` of the model, each through its own
    key list.
    """
    if steps < 0:
        raise InputError("steps must be nonnegative")
    if not model.ferromagnetic:
        raise InputError("monotone coupling requires a ferromagnetic model")
    lo, hi = (_config_values(model, x).tolist() for x in (low, high))
    if any(a > b for a, b in zip(lo, hi)):
        raise InputError("initial states must satisfy low <= high pointwise")
    draws = _scalar_draws(substream(seed, COUPLING), _free_vertices(model), steps)
    probs, flips = memoryview(model.heat_bath_table.probs), model.heat_bath_table.flips
    one, zero = SPIN_VALUES[model.convention]
    chains = (lo, _keys(model, lo)), (hi, _keys(model, hi))
    apart = sum(a != b for a, b in zip(lo, hi))  # sites where the chains disagree
    coalescence = 0 if apart == 0 else None
    for k, (v, u) in enumerate(draws):
        was_apart = lo[v] != hi[v]
        for values, keys in chains:
            s = one if u <= probs[keys[v]] else zero
            if s != values[v]:
                values[v] = s
                for w, bit in flips[v]:
                    keys[w] ^= bit
        if lo[v] > hi[v]:
            raise AssertionError(f"monotone coupling violated order at vertex {v}, step {k + 1}")
        apart += (lo[v] != hi[v]) - was_apart
        if coalescence is None and apart == 0:
            coalescence = k + 1
    states = tuple(ChainState(SpinConfiguration(x, model.convention), steps) for x in (lo, hi))
    disagree = frozenset(i for i, (a, b) in enumerate(zip(lo, hi)) if a != b)
    return CouplingTrace(states=states, disagreement_set=disagree, coalescence_step=coalescence)


def monotone_coupled_batch(model: IsingModel, steps: int, runs: int, seed: int) -> dict:
    """Vectorized all-minus vs all-plus coupling over many independent runs.

    Returns order-violation and coalescence counts; any violation raises.
    Both chains of every run are rows of one (2 runs, n) state, the low ones
    first, advanced by ``_float_steps``; run r's two rows read column r of
    the ``_draws`` blocks of substream (seed, COUPLING), as ``runs``
    replicas of ``run_chains_batch`` on the stream path () would.  Each
    run's count of disagreeing sites is updated as its step changes it, so a
    step costs O(runs * degree).
    """
    if steps < 0 or runs < 0:
        raise InputError("steps and runs must be nonnegative")
    if not model.ferromagnetic:
        raise InputError("monotone coupling requires a ferromagnetic model")
    one, zero = SPIN_VALUES[model.convention]
    values = np.repeat([model.full_values(zero), model.full_values(one)], runs, axis=0)
    differs = values[:runs] != values[runs:]
    apart = differs.sum(axis=1)
    coalesced_at = np.full(runs, -1, dtype=np.int64)
    free = _free_vertices(model)
    blocks = ((np.tile(j, 2), np.tile(u, 2))
              for j, u in _draws(substream(seed, COUPLING), len(free), runs, steps))
    for k, (at, new) in enumerate(_float_steps(model, values, free, blocks), start=1):
        if (new[:runs] > new[runs:]).any():
            raise AssertionError(f"monotone coupling violated order at step {k}")
        now = new[:runs] != new[runs:]
        apart += now
        apart -= differs.take(at[:runs])  # the low rows' targets index ``differs`` too
        differs.put(at[:runs], now)
        coalesced_at[(coalesced_at < 0) & (apart == 0)] = k
    return {"runs": runs, "steps": steps, "order_violations": 0,
            "coalesced": int((coalesced_at >= 0).sum()), "coalesced_at": coalesced_at,
            "final_disagreements": int((apart > 0).sum())}


def grand_coupled_update(models, seed: int | None = None, order=None,
                         uniforms: np.ndarray | None = None):
    """Reveal every vertex once across many conditioned chains, sharing uniforms.

    Each model may differ in couplings, fields and pinnings but all share the
    vertex index space and convention; a chain is conditioned by its model's
    pinning alone (condition on a partial state with ``m.with_pinning(state)``).
    The vertices are revealed in ``order``, a permutation of them (default:
    ascending).  At each position one uniform drives every chain's
    conditional quantile; ``uniforms`` may be supplied, indexed by vertex,
    to share randomness with an external process.  Conditional laws are
    computed exactly from Gibbs tables, so oracle capacity applies.

    Returns (configurations, disagreement set, per-vertex revelation log).
    """
    if not models:
        raise InputError("need at least one model")
    n = models[0].n
    conv = models[0].convention
    for m in models:
        if m.n != n or m.convention != conv:
            raise InputError("models must share vertex index space and convention")
    order = list(range(n)) if order is None else [int(v) for v in order]
    if sorted(order) != list(range(n)):
        raise InputError(f"order must be a permutation of range({n})")
    tables = [gibbs_table(m) for m in models]
    if uniforms is None:
        if seed is None:
            raise InputError("need a seed when uniforms are not supplied")
        uniforms = substream(seed, COUPLING).random(n)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape != (n,):
        raise InputError("uniforms must hold one value per vertex")
    one, zero = SPIN_VALUES[conv]

    # per chain: the consistent configurations' probabilities and their index bits
    blocks = [tab.probs for tab in tables]
    hidden = [list(tab.free) for tab in tables]
    values = [dict(m.pinning) for m in models]

    log = []
    for v in order:
        u = float(uniforms[v])
        outcome = []
        for ci, block in enumerate(blocks):
            if v not in values[ci]:
                j = hidden[ci].index(v)
                halves = block.reshape(-1, 2, 1 << j)  # [:, 1]: v at 'one'
                ones = halves[:, 1].ravel()
                s = one if u <= float(ones.sum()) / float(block.sum()) else zero
                values[ci][v] = s
                blocks[ci] = ones if s == one else halves[:, 0].ravel()
                del hidden[ci][j]
            outcome.append(values[ci][v])
        log.append((v, u, tuple(outcome)))

    full = np.array([[vals[v] for v in range(n)] for vals in values], dtype=np.int8)
    disagree = frozenset(np.flatnonzero((full != full[0]).any(axis=0)).tolist())
    return [SpinConfiguration(row, conv) for row in full], disagree, tuple(log)


# ---------------------------------------------------------------------------
# Empirical mixing diagnostics
# ---------------------------------------------------------------------------

def empirical_tv_curve(model: IsingModel, init: SpinConfiguration, step_grid,
                       replicas: int, seed: int) -> list[dict]:
    """Empirical TV to the exact table at each grid step, with a noise floor.

    The noise floor is the expected TV of a perfect multinomial sample of the
    same size, 0.5 * sum sqrt(2 p (1-p) / (pi R)).  Raises InputError on an
    empty grid and, from ``run_chains_batch``, on a negative step, before
    enumerating the table.
    """
    grid = sorted(set(int(s) for s in step_grid))
    if not grid:
        raise InputError("the step grid is empty")
    init_vals = np.tile(_config_values(model, init).astype(np.float64), (replicas, 1))
    _, snapshots = run_chains_batch(model, init_vals, max(grid), seed, snapshot_steps=grid)
    table = gibbs_table(model)
    tvs = [empirical_tv(table, snapshots[step]) for step in grid]  # raises on no replicas
    noise = 0.5 * float(np.sqrt(2 * table.probs * (1 - table.probs) / (np.pi * replicas)).sum())
    return [{"step": step, "tv": tv, "noise_floor": noise} for step, tv in zip(grid, tvs)]


def mixing_time_bound(gap: float, eta: float, eps: float) -> float:
    """The standard gap-based mixing bound gap^-1 (log(1/eta) + log(1/eps))."""
    if not (0 < gap <= 1) or not (0 < eta <= 1) or not (0 < eps < 1):
        raise InputError("need gap, eta in (0,1] and eps in (0,1)")
    return (np.log(1 / eta) + np.log(1 / eps)) / gap
