"""Single-site Glauber dynamics, monotone and grand couplings, mixing diagnostics.

The update rule is heat-bath: pick a free vertex uniformly, then resample its
spin from the conditional law given the rest.  All couplings share one
quantile rule - the new spin is the 'one' value iff the shared uniform falls
at or below its conditional probability - which preserves pointwise order
between chains on ferromagnetic models and lets many conditioned chains ride
the same uniforms.  Replicas use disjoint RNG substreams; a coupled trace
advances all of its chains in lockstep.

Local fields come from the model's padded neighbour table: (n, max degree)
neighbour indices and couplings, padding slots having coupling 0, so an
update costs O(max degree) whatever n is.  Padding slots add 0 to a local
field, and so does any vertex holding 0: the staged sampler's vertices not
yet staged hold 0, neutral in both conventions.  That zero-padded matrix is
not a spin matrix in pm, so the sampler calls ``_heat_bath_run`` directly,
which checks nothing; every public chain checks its start with
``IsingModel.check_values`` and never repairs it.  Pinned vertices hold their
value and are never chosen.  ``_heat_bath_update`` is the one vectorised
kernel, under replica batches, the monotone batch coupling and sampler
stages.  Scalar chains keep a Python loop over the same table rows
(``_scalar_update``): with one replica, numpy's per-call overhead makes a
vectorised step over 10x slower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InputError
from .model import PM, SPIN_VALUES, IsingModel, SpinConfiguration, _config_values, array_energy
from .oracle import GibbsTable, empirical_tv, gibbs_table
from .rng import CHAIN, COUPLING, substream


@dataclass
class ChainState:
    """A chain's configuration and step counter."""

    config: SpinConfiguration
    step: int


@dataclass(frozen=True)
class CouplingTrace:
    """Outcome of a coupled run: final states, where they differ, and logs."""

    states: tuple[ChainState, ...]
    disagreement_set: frozenset[int]
    coalescence_step: int | None = None
    shared_uniform_log: tuple | None = None


def _one_probability(convention: str, local_field):
    """Heat-bath P(spin = 'one' | local field s): logistic(2s) in pm, logistic(s) in 01."""
    return expit(2.0 * local_field if convention == PM else local_field)


def _free_vertices(model: IsingModel) -> np.ndarray:
    free = np.array(model.free_vertices, dtype=np.int64)
    if len(free) == 0:
        raise InputError("model has no free vertices")
    return free


def _scalar_update(model: IsingModel):
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
        values[v] = one if u <= _one_probability(conv, s) else zero

    return update


def _local_fields(model: IsingModel, values: np.ndarray, base: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
    """Local field at vertex v[r] of every replica r, gathered through the flat
    offsets ``base`` = r * n of the C-ordered (R, n) ``values``; O(R * degree)."""
    nbr, cpl = model.neighbour_table
    return np.einsum("rd,rd->r", values.take(base[:, None] + nbr.take(v, axis=0)),
                     cpl.take(v, axis=0)) + model.field.take(v)


def _heat_bath_update(model: IsingModel, values: np.ndarray, base: np.ndarray,
                      v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Resample vertex v[r] of every replica r from its uniform u[r]; returns the new spins."""
    one, zero = SPIN_VALUES[model.convention]
    p_one = _one_probability(model.convention, _local_fields(model, values, base, v))
    # one where u <= p_one, else zero; arithmetic, as np.where is slow on random masks
    new = (u <= p_one) * float(one - zero) + zero
    values.put(base + v, new)
    return new


def _heat_bath_run(model: IsingModel, values: np.ndarray, free: np.ndarray, steps: int,
                   rng: np.random.Generator, snapshot_steps=()) -> dict:
    """Advance every row of ``values`` by ``steps`` updates at vertices drawn from ``free``.

    Each step draws all replicas' vertex indices, then their uniforms.
    Returns copies of the state after the ``snapshot_steps``.
    """
    replicas = len(values)
    base = np.arange(replicas) * values.shape[1]
    want = set(int(s) for s in snapshot_steps)
    snapshots = {0: values.copy()} if 0 in want else {}
    for k in range(1, steps + 1):
        v = free[rng.integers(len(free), size=replicas)]
        _heat_bath_update(model, values, base, v, rng.random(replicas))
        if k in want:
            snapshots[k] = values.copy()
    return snapshots


def run_chain(model: IsingModel, init: SpinConfiguration, steps: int, seed: int,
              record_every: int | None = None, chain_index: int = 0):
    """Run one chain for ``steps`` updates; deterministic given the seed.

    Returns the final ChainState, plus a time series of (step, magnetization,
    energy) rows when ``record_every`` is set.
    """
    values = _config_values(model, init).tolist()
    free = _free_vertices(model).tolist()
    update = _scalar_update(model)
    rng = substream(seed, CHAIN, chain_index)
    choices = rng.integers(len(free), size=steps).tolist()
    uniforms = rng.random(size=steps).tolist()
    trajectory = []

    def observables(step):
        vals = np.array(values, dtype=np.float64)
        return (step, float(vals.sum()), array_energy(model, vals))

    if record_every:
        trajectory.append(observables(0))
    for k in range(steps):
        update(values, free[choices[k]], uniforms[k])
        if record_every and (k + 1) % record_every == 0:
            trajectory.append(observables(k + 1))
    final = ChainState(SpinConfiguration(values, model.convention), steps)
    return (final, trajectory) if record_every else (final, None)


def _draw(model: IsingModel, rng: np.random.Generator, sampler: str, seed: int, index: int,
          burn_steps: int | None, table: GibbsTable | None) -> np.ndarray:
    """One configuration of ``model`` as a spin vector.

    "oracle" draws it exactly from ``table`` (enumerated when None) with
    ``rng``.  "glauber" runs chain ``index`` of ``seed`` for ``burn_steps``
    updates from the all-'zero' start and leaves ``rng`` untouched.
    """
    if sampler == "oracle":
        if table is None:
            table = gibbs_table(model)
        return table.rows(rng.choice(len(table.probs), p=table.probs))[0]
    if sampler == "glauber":
        if not burn_steps:
            raise InputError("glauber sampler needs burn_steps")
        zero = SPIN_VALUES[model.convention][1]
        start = SpinConfiguration(model.full_values(zero), model.convention)
        state, _ = run_chain(model, start, burn_steps, seed, chain_index=index)
        return state.config.values()
    raise InputError(f"unknown sampler {sampler!r}")


def run_chains_batch(model: IsingModel, init_values: np.ndarray, steps: int, seed: int,
                     snapshot_steps=(), stream_path=(0,)) -> tuple[np.ndarray, dict]:
    """Advance many replicas in lockstep (vectorized across replicas).

    ``init_values`` has shape (replicas, n); every row must pass
    ``model.check_values``, so starts are checked, never repaired.  One
    substream feeds the whole batch; replica r reads column r of each per-step
    draw, so the run is deterministic given (seed, stream_path).  Snapshots are
    copies of the state matrix taken after the requested step counts.
    """
    values = np.array(model.check_values(init_values), dtype=np.float64, order="C")
    if values.ndim != 2:
        raise InputError("init_values must have shape (replicas, n)")
    free = _free_vertices(model)
    snapshots = _heat_bath_run(model, values, free, steps,
                               substream(seed, COUPLING, *stream_path), snapshot_steps)
    return values, snapshots


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------

def monotone_coupled_run(model: IsingModel, low: SpinConfiguration, high: SpinConfiguration,
                         steps: int, seed: int, log_uniforms: bool = False) -> CouplingTrace:
    """Two chains sharing vertex choices and uniforms under the quantile rule.

    Requires a ferromagnetic model and low <= high pointwise; the pointwise
    order is asserted after every step (a violation raises, it is never
    tolerated statistically).
    """
    if not model.ferromagnetic:
        raise InputError("monotone coupling requires a ferromagnetic model")
    lo = _config_values(model, low).tolist()
    hi = _config_values(model, high).tolist()
    if any(a > b for a, b in zip(lo, hi)):
        raise InputError("initial states must satisfy low <= high pointwise")
    free = _free_vertices(model).tolist()
    update = _scalar_update(model)
    rng = substream(seed, COUPLING)
    log = [] if log_uniforms else None
    apart = sum(a != b for a, b in zip(lo, hi))  # sites where the chains disagree
    coalescence = 0 if apart == 0 else None
    for k in range(steps):
        v = free[int(rng.integers(len(free)))]
        u = float(rng.random())
        was_apart = lo[v] != hi[v]
        update(lo, v, u)
        update(hi, v, u)
        if lo[v] > hi[v]:
            raise AssertionError(f"monotone coupling violated order at vertex {v}, step {k + 1}")
        apart += (lo[v] != hi[v]) - was_apart
        if log is not None:
            log.append((k + 1, v, u))
        if coalescence is None and apart == 0:
            coalescence = k + 1
    disagree = frozenset(i for i, (a, b) in enumerate(zip(lo, hi)) if a != b)
    return CouplingTrace(
        states=tuple(ChainState(SpinConfiguration(x, model.convention), steps) for x in (lo, hi)),
        disagreement_set=disagree,
        coalescence_step=coalescence,
        shared_uniform_log=tuple(log) if log is not None else None,
    )


def monotone_coupled_batch(model: IsingModel, steps: int, runs: int, seed: int) -> dict:
    """Vectorized all-minus vs all-plus coupling over many independent runs.

    Returns order-violation and coalescence counts; any violation raises.
    Each run's count of disagreeing sites is updated as its step changes it,
    so a step costs O(runs * degree).
    """
    if not model.ferromagnetic:
        raise InputError("monotone coupling requires a ferromagnetic model")
    n = model.n
    one, zero = SPIN_VALUES[model.convention]
    lo, hi = (np.tile(model.full_values(s), (runs, 1)) for s in (zero, one))
    free = _free_vertices(model)
    rng = substream(seed, COUPLING)
    base = np.arange(runs) * n
    apart = (lo != hi).sum(axis=1)
    coalesced_at = np.full(runs, -1, dtype=np.int64)
    for k in range(1, steps + 1):
        v = free[rng.integers(len(free), size=runs)]
        u = rng.random(runs)
        was_apart = lo.take(base + v) != hi.take(base + v)
        new_lo = _heat_bath_update(model, lo, base, v, u)
        new_hi = _heat_bath_update(model, hi, base, v, u)
        if (new_lo > new_hi).any():
            raise AssertionError(f"monotone coupling violated order at step {k}")
        apart += (new_lo != new_hi).astype(np.int64) - was_apart
        coalesced_at[(coalesced_at < 0) & (apart == 0)] = k
    return {
        "runs": runs,
        "steps": steps,
        "order_violations": 0,
        "coalesced": int((coalesced_at >= 0).sum()),
        "coalesced_at": coalesced_at,
        "final_disagreements": int((apart > 0).sum()),
    }


def grand_coupled_update(models, seed: int | None = None, order=None,
                         uniforms: np.ndarray | None = None):
    """Reveal every vertex once across many conditioned chains, sharing uniforms.

    Each model may differ in couplings, fields and pinnings but all share the
    vertex index space and convention; a chain is conditioned by its model's
    pinning alone (condition on a partial state with ``m.with_pinning(state)``).
    The vertices are revealed in ``order`` (default: ascending index).  At
    each position one uniform drives every chain's conditional quantile;
    ``uniforms`` may be supplied, indexed by vertex, to share randomness with
    an external process.  Conditional laws are computed exactly from Gibbs
    tables, so oracle capacity applies.

    Returns (configurations, disagreement set, per-vertex revelation log).
    """
    if not models:
        raise InputError("need at least one model")
    n = models[0].n
    conv = models[0].convention
    for m in models:
        if m.n != n or m.convention != conv:
            raise InputError("models must share vertex index space and convention")
    tables = [gibbs_table(m) for m in models]
    if uniforms is None:
        if seed is None:
            raise InputError("need a seed when uniforms are not supplied")
        uniforms = substream(seed, COUPLING).random(n)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape != (n,):
        raise InputError("uniforms must hold one value per vertex")
    one, zero = SPIN_VALUES[conv]

    # per-chain spin rows of every table config, and the rows consistent so far
    rows = [tab.rows() for tab in tables]
    masks = [np.ones(len(r), dtype=bool) for r in rows]
    values = [dict(m.pinning) for m in models]

    log = []
    for v in range(n) if order is None else order:
        v = int(v)
        u = float(uniforms[v])
        outcome = []
        for ci, tab in enumerate(tables):
            if v not in values[ci]:
                w_mask = masks[ci]
                is_one = rows[ci][:, v] == one
                p_one = float(tab.probs[w_mask & is_one].sum()) / float(tab.probs[w_mask].sum())
                s = one if u <= p_one else zero
                values[ci][v] = s
                masks[ci] = w_mask & (is_one if s == one else ~is_one)
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
    same size, 0.5 * sum sqrt(2 p (1-p) / (pi R)).
    """
    grid = sorted(set(int(s) for s in step_grid))
    if not grid:
        raise InputError("the step grid is empty")
    init_vals = np.tile(_config_values(model, init).astype(np.float64), (replicas, 1))
    table = gibbs_table(model)
    _, snapshots = run_chains_batch(model, init_vals, max(grid), seed, snapshot_steps=grid)
    tvs = [empirical_tv(table, snapshots[step]) for step in grid]  # raises on no replicas
    noise = 0.5 * float(np.sqrt(2 * table.probs * (1 - table.probs) / (np.pi * replicas)).sum())
    return [{"step": step, "tv": tv, "noise_floor": noise} for step, tv in zip(grid, tvs)]


def mixing_time_bound(gap: float, eta: float, eps: float) -> float:
    """The standard gap-based mixing bound gap^-1 (log(1/eta) + log(1/eps))."""
    if not (0 < gap <= 1) or not (0 < eta <= 1) or not (0 < eps < 1):
        raise InputError("need gap, eta in (0,1] and eps in (0,1)")
    return (np.log(1 / eta) + np.log(1 / eps)) / gap
