"""Field boosting via the Bayesian localization representation, WSM diagnostics,
trace-moment probes and combinatorial separation plans.

Boosting at time t draws sigma* from the model and a per-vertex Gaussian of
variance t, then adds y = t sigma* + noise to the external field; this is the
localized measure exactly in law, with no SDE discretization.  WSM influence
delta(u, l) is the TV distance at u between all-plus and all-minus boundary
conditions on the radius-l ball.  Fitted constants are labeled fitted and are
never certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _draw
from .errors import CapacityError, InputError
from .graphs import Graph, ball, boundary, distances_from
from .model import PM, FieldDistribution, IsingModel, SpinConfiguration, sample_field
from .oracle import (
    BOOST_CAP,
    GibbsTable,
    _centred_moments,
    _field_tables,
    gibbs_table,
    mean_and_covariance,
)
from .rng import PROBE, SL, substream


@dataclass(frozen=True)
class SlRealization:
    """One boosted field draw: y = t sigma* + noise, noise ~ Normal(0, t) per vertex."""

    t: float
    sigma_star: SpinConfiguration
    noise: np.ndarray
    y: np.ndarray
    boosted_model: IsingModel


def sl_boost(model: IsingModel, t: float, seed: int, sampler: str = "oracle",
             burn_steps: int | None = None, index: int = 0) -> SlRealization:
    """Draw one localization realization and the boosted model (field h + y)."""
    if model.convention != PM:
        raise InputError("field boosting works in the +-1 convention")
    if t < 0:
        raise InputError("t must be nonnegative")
    rng = substream(seed, SL, index)
    star = _draw(model, rng, sampler, seed, (SL, index), burn_steps)
    noise = math.sqrt(t) * rng.normal(size=model.n)
    y = t * star.astype(np.float64) + noise
    boosted = replace(model, field=model.field + y)
    return SlRealization(t=float(t), sigma_star=SpinConfiguration(star, PM),
                         noise=noise, y=y, boosted_model=boosted)


def _boosted_prob_blocks(model: IsingModel, t: float, count: int, rng: np.random.Generator,
                         table: GibbsTable | None = None):
    """Boosted Gibbs tables for ``count`` realizations, a block of rows at a time.

    Every realization's sigma* and noise are drawn first from ``rng``, as one batch, so
    the streams do not depend on the blocking.  Realization r's table is
    that of the model with field h + y_r, y_r added on the free columns: the
    field rows go to ``_field_tables``, so row r equals
    ``gibbs_table(replace(model, field=h + y_r)).probs`` float for float, and
    a caller that reduces each row, also through ``_centred_moments`` on the
    f spins, holds one block and never a (count, configs) array.  ``table``
    is the base model's, built by ``gibbs_table`` when not given.
    Returns (iterator over (rows, configs) probability blocks in realization
    order, free-vertex spins (f, configs), base table).
    """
    _check_boost_size(model)
    if table is None:
        table = gibbs_table(model)
    free = list(table.free)
    vals = table.rows()[:, free].astype(np.float64, order="C")
    idx = rng.choice(len(table.probs), p=table.probs, size=count)
    star = vals[idx]  # (count, f) free-vertex spins of sigma*
    noise = math.sqrt(t) * rng.normal(size=(count, len(free)))
    fields = np.repeat(model.field[None, :], count, axis=0)
    fields[:, free] += t * star + noise
    return _field_tables(model, fields), vals.T, table


def _check_boost_size(model: IsingModel) -> None:
    """Raise CapacityError above ``BOOST_CAP`` free vertices; callers check before enumerating."""
    if len(model.free_vertices) > BOOST_CAP:
        raise CapacityError("batch boosting needs a small model")


# ---------------------------------------------------------------------------
# Weak spatial mixing
# ---------------------------------------------------------------------------

def wsm_delta(model: IsingModel, u: int, ell: int) -> float:
    """TV influence at u of all-plus vs all-minus boundary at radius ell.

    The ball B is the closed radius-ell ball around u and the ring R its
    outer boundary; an empty ring returns 0 by convention.  Pinning R to the
    sign s adds s b_v to the field of each free vertex v of B, where b_v is
    the sum of v's couplings into R, and a constant that normalising
    cancels.  So B is enumerated by ``_field_tables`` over the region B of
    the parent model (no induced model is built) with the two field rows
    h + b and h - b, and the two tables are normalised to read u's marginal
    under each sign.  A one-row call of ``_ball_deltas``.  Raises InputError
    when u is pinned, and when a ring vertex is pinned, since its pin
    conflicts with one of the signs; raises CapacityError, before
    enumerating, when B has more than ``GIBBS_CAP`` free vertices.
    """
    return float(_ball_deltas(model, u, ell, model.field[None, :])[0])


def _ball_deltas(model: IsingModel, u: int, ell: int, fields: np.ndarray) -> np.ndarray:
    """``wsm_delta(replace(model, field=fields[r]), u, ell)`` for each row r of ``fields``.

    The ball, the ring, the pin checks and the ring's pull b are built once,
    b_v summed over v's neighbour slots in order; then one ``_field_tables``
    pass over the 2T signed rows, F + b and then F - b, reads u's marginal off
    each table, and rows r and T + r pair up afterwards, so the tables held
    at once do not grow with the number T of rows.
    """
    if model.convention != PM:
        raise InputError("wsm_delta works in the +-1 convention")
    region = sorted(ball(model.graph, u, ell))
    if u in model.pinning:
        raise InputError(f"vertex {u} is pinned, so it has no influence to measure")
    ring = boundary(model.graph, region)
    if not ring:
        return np.zeros(len(fields))
    if ring & model.pinning.keys():
        raise InputError(f"ring vertex {min(ring & model.pinning.keys())} is pinned against a sign")
    free = [v for v in region if v not in model.pinning]  # ascending, as tables index them
    nbr, cpl = model.neighbour_table
    pull = np.zeros(model.n)  # b: each free ball vertex's couplings into the ring
    for v in free:
        pull[v] = sum(c for w, c in zip(nbr[v].tolist(), cpl[v].tolist()) if w in ring)
    j = free.index(u)
    signed = np.concatenate([fields + pull, fields - pull])  # all-plus ring, then all-minus
    ones = np.concatenate([probs.reshape(len(probs), -1, 2, 1 << j)[:, :, 1].sum(axis=(1, 2))
                           for probs in _field_tables(model, signed, region)])  # P(u is +1)
    return np.abs(ones[:len(fields)] - ones[len(fields):])


@dataclass(frozen=True)
class WsmReport:
    """Monte Carlo WSM profile: mean influence per (vertex, radius) plus a fit."""

    vertices: tuple[int, ...]
    radii: tuple[int, ...]
    mean_delta: np.ndarray    # (vertices, radii)
    stderr: np.ndarray
    fitted_c: float

    def satisfied(self, c: float) -> np.ndarray:
        """Grid of mean_delta[v, r] <= c * exp(-r / c)."""
        budget = c * np.exp(-np.asarray(self.radii, dtype=float) / c)
        return self.mean_delta <= budget[None, :]


def estimate_wsm(graph: Graph, beta: float, field_dist: FieldDistribution, radii,
                 field_trials: int, seed: int, vertices=None) -> WsmReport:
    """Average wsm_delta over quenched fields and fit the decay constant.

    Every trial's field is drawn first, trial t at the address (seed, FIELD, SL, t);
    then each (vertex, radius) ball is enumerated once for all the trials by
    ``_ball_deltas``, in blocks of trials that keep memory independent of
    their number, and each trial's delta equals ``wsm_delta`` on the model
    with that trial's field, float for float.  The fit minimizes squared
    residuals of log mean-delta against log C - r / C over the measured radii
    (zeros are skipped).  ``stderr`` is the sample standard deviation (ddof
    1) of each delta over the T trials over sqrt(T); at T = 1 it is NaN, set
    so without computing it, so no RuntimeWarning fires.  Raises InputError
    when a trial count, radius or vertex is not an integer, and with no field
    trial, no radius or no vertex, which leave nothing to fit.
    """
    from scipy.optimize import minimize_scalar

    vertices = tuple(range(graph.num_vertices) if vertices is None else vertices)
    radii = tuple(radii)
    if not all(isinstance(x, (int, np.integer)) for x in (field_trials, *radii, *vertices)):
        raise InputError("field trials, radii and vertices must be integers")
    if field_trials < 1 or not radii or not vertices:
        raise InputError("estimating WSM needs a field trial, a radius and a vertex")
    vertices, radii = tuple(map(int, vertices)), tuple(map(int, radii))
    fields = np.array([sample_field(field_dist, graph.num_vertices, seed, SL, t).values
                       for t in range(field_trials)])
    model = IsingModel.uniform(graph, beta, fields[0], convention=PM)  # each ball reads `fields`
    deltas = np.zeros((field_trials, len(vertices), len(radii)))
    for i, v in enumerate(vertices):
        for j, r in enumerate(radii):
            deltas[:, i, j] = _ball_deltas(model, v, r, fields)
    mean = deltas.mean(axis=0)
    stderr = (deltas.std(axis=0, ddof=1) / math.sqrt(field_trials) if field_trials > 1
              else np.full(mean.shape, np.nan))

    pts = [(r, m) for j, r in enumerate(radii) for m in mean[:, j] if m > 0]

    def loss(log_c):
        c = math.exp(log_c)
        return sum((math.log(m) - (math.log(c) - r / c)) ** 2 for r, m in pts)

    fitted = (float(math.exp(minimize_scalar(loss, bounds=(-6.0, 6.0), method="bounded").x))
              if pts else 0.0)
    return WsmReport(vertices=vertices, radii=radii, mean_delta=mean, stderr=stderr,
                     fitted_c=fitted)


# ---------------------------------------------------------------------------
# Separation plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationPlan:
    """Quarter-distance separation structure for a tuple of probe points.

    Indices are 0-based positions into ``points``.  ``ell`` holds the raw
    quarter-distances; ``ell_floor`` the integer ball radii.  For every
    i in a_set: d(u_i, u_{i-1}) >= ell_i, pairwise d >= 2(ell_i + ell_j), and
    ell_i >= r_i / 2 - all asserted at construction.
    """

    points: tuple[int, ...]
    r: tuple[float, ...]
    j: tuple[int | None, ...]
    q_buckets: dict[int, frozenset[int]]
    k_star: int | None
    a_set: frozenset[int]
    ell: dict[int, float]
    ell_floor: dict[int, int]


def build_separation_plan(g: Graph, points) -> SeparationPlan:
    """Bucket points by dyadic quarter-distance scale and pick the heaviest bucket.

    r_i is a quarter of the distance from point i to its nearest earlier
    point; buckets Q_k collect r in [2^k, 2^(k+1)) for k >= 0 (r < 1,
    including duplicates at r = 0, joins no bucket); k* maximizes |Q_k| 2^k
    with ties to the smallest k; selected indices get
    ell_i = (1/4) min distance to the previous point and the other selected
    points.
    """
    pts = tuple(points)
    if not all(isinstance(x, (int, np.integer)) for x in pts):
        raise InputError("separation plan points must be integers")
    pts = tuple(int(x) for x in pts)
    p = len(pts)
    if p == 0:
        raise InputError("need at least one point")
    d = np.array([distances_from(g, a)[list(pts)] for a in pts])
    if (d < 0).any():
        raise InputError("separation plans need points in one component")
    r: list[float] = [0.0]
    j_idx: list[int | None] = [None]
    for i in range(1, p):
        prev = d[i, :i]
        jj = int(prev.argmin())
        j_idx.append(jj)
        r.append(0.25 * float(prev[jj]))
    buckets: dict[int, set[int]] = {}
    for i in range(1, p):
        if r[i] >= 1.0:
            k = int(math.floor(math.log2(r[i])))
            buckets.setdefault(k, set()).add(i)
    if buckets:
        k_star = max(sorted(buckets), key=lambda k: len(buckets[k]) * 2**k)
        # max with sorted keys returns the first maximizer, i.e. the smallest k
        a = frozenset(buckets[k_star])
    else:
        k_star = None
        a = frozenset()
    ell: dict[int, float] = {}
    ell_floor: dict[int, int] = {}
    for i in a:
        pool = ({i - 1} | set(a)) - {i}
        ell[i] = 0.25 * float(min(d[i, jj] for jj in pool))
        ell_floor[i] = int(math.floor(ell[i]))
    _assert_separation(d, a, r, ell)
    return SeparationPlan(
        points=pts, r=tuple(r), j=tuple(j_idx),
        q_buckets={k: frozenset(v) for k, v in buckets.items()},
        k_star=k_star, a_set=a, ell=ell, ell_floor=ell_floor)


def _assert_separation(d, a, r, ell):
    for i in a:
        if d[i, i - 1] < ell[i]:
            raise AssertionError(f"separation violated: d(u_{i}, u_{i-1}) < ell_{i}")
        if ell[i] < 0.5 * r[i]:
            raise AssertionError(f"ell_{i} fell below r_{i}/2")
        for jj in a:
            if jj != i and d[i, jj] < 2 * (ell[i] + ell[jj]):
                raise AssertionError(f"separation violated between selected {i} and {jj}")


# ---------------------------------------------------------------------------
# Trace moments and the variance-transfer probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceMomentReport:
    """Monte Carlo trace moments of the boosted covariance, with a fitted scale."""

    p: int
    rows: tuple[dict, ...]
    sup_mean: float
    c0_fit: float

    @property
    def small_c0(self) -> float:
        """1 / (e * C0), the fitted exponential-decay rate (fitted, not certified)."""
        return 1.0 / (math.e * self.c0_fit) if self.c0_fit > 0 else math.inf


def trace_moment_probe(model: IsingModel, p: int, t_grid, realizations: int,
                       seed: int) -> TraceMomentReport:
    """Estimate E[Tr(Cov^p)] of the boosted measure across the time grid.

    Covariances are enumerated exactly per realization; only the field draw
    is Monte Carlo.  The fitted scale satisfies sup_t E[Tr] <= (C0 p)^p n at
    equality for the worst measured t.  Raises InputError on an empty time
    grid, before any draw.
    """
    if p < 1:
        raise InputError("moment order must be >= 1")
    t_grid = tuple(t_grid)
    if not t_grid:
        raise InputError("the time grid is empty")
    if any(t != 0 for t in t_grid):
        _check_boost_size(model)
        if realizations < 1:
            raise InputError("a boosted time needs at least one realization")
    table = gibbs_table(model)
    f = table.num_free
    rows = []
    sup_mean = 0.0
    for ti, t in enumerate(t_grid):
        if t == 0:
            _, cov = mean_and_covariance(table)
            traces = np.array([float((np.linalg.eigvalsh(cov) ** p).sum())])
        else:
            blocks, vals, _ = _boosted_prob_blocks(
                model, t, realizations, substream(seed, SL, PROBE, ti), table=table)
            traces = np.concatenate([
                (np.linalg.eigvalsh(_centred_moments(probs, vals)[1]) ** p).sum(axis=1)
                for probs in blocks])
        mean = float(traces.mean())
        rows.append({"t": float(t), "mean_trace": mean,
                     "std_trace": float(traces.std(ddof=1)) if len(traces) > 1 else 0.0,
                     "realizations": len(traces)})
        sup_mean = max(sup_mean, mean)
    c0 = (sup_mean / max(f, 1)) ** (1.0 / p) / p if sup_mean > 0 else 0.0
    return TraceMomentReport(p=int(p), rows=tuple(rows), sup_mean=sup_mean, c0_fit=c0)


@dataclass(frozen=True)
class WeakPoincareRow:
    name: str
    lhs_variance: float
    rhs_bound: float
    ok: bool


@dataclass(frozen=True)
class WeakPoincareReport:
    t_value: float
    delta: float
    c0: float
    p_exponent: float
    rows: tuple[WeakPoincareRow, ...]


def weak_poincare_probe(model: IsingModel, t_value: float, delta: float, test_functions,
                        realizations: int, seed: int,
                        c0: float | None = None) -> WeakPoincareReport:
    """Check the variance-transfer inequality with a fitted decay constant.

    For each test function phi (a vector over the model's table configs),
    compares Var_base(phi) against
    (e^{-c0} n / delta)^{1/q} E[Var_boosted(phi)]^{1/p} osc(phi)^{2/q} with
    p = exp(2 T / c0) and 1/q = (p - 1) / p, so at T = 0 the bound is Var_base(phi)
    itself.  c0 is fitted from the p = 2 trace-moment probe when not given, so
    the verdicts are consistency diagnostics, not certificates.  A given c0
    must be positive, and each phi needs one value per table configuration;
    both are checked before anything is drawn or enumerated.
    """
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    if t_value < 0:
        raise InputError("T must be nonnegative")
    if t_value > 0:
        _check_boost_size(model)
        if realizations < 1:
            raise InputError("a boosted time needs at least one realization")
    if c0 is not None and not c0 > 0:
        raise InputError(f"c0 must be positive, got {c0!r}")
    size = 1 << len(model.free_vertices)  # the table's configurations
    phis = [(name, np.asarray(phi, dtype=np.float64)[None, :]) for name, phi in test_functions]
    for name, phi in phis:
        if phi.shape != (1, size):
            raise InputError(f"test function {name!r} needs {size} values, one per configuration")
    table = gibbs_table(model)
    if c0 is None:
        fit = trace_moment_probe(model, 2, (0.0, t_value / 2, t_value),
                                 max(realizations // 2, 100), seed)
        c0 = fit.small_c0
    n = model.n
    p_exp = math.exp(2.0 * t_value / c0)
    inv_q = (p_exp - 1.0) / p_exp  # 1 / q, exactly 0 at T = 0
    if t_value > 0:  # each function's variance per realization, one block of tables at a time
        blocks, _, _ = _boosted_prob_blocks(model, t_value, realizations, substream(seed, SL),
                                            table=table)
        per_block = [[_centred_moments(probs, phi)[1][:, 0, 0] for _, phi in phis]
                     for probs in blocks]
        boosted_vars = [float(np.concatenate(v).mean()) for v in zip(*per_block)]
    rows = []
    for i, (name, phi) in enumerate(phis):
        lhs = float(_centred_moments(table.probs, phi)[1][0, 0])
        osc = float(phi.max() - phi.min())
        e_var = boosted_vars[i] if t_value > 0 else lhs
        rhs = (math.exp(-c0) * n / delta) ** inv_q * e_var ** (1.0 / p_exp) * osc ** (2.0 * inv_q)
        rows.append(WeakPoincareRow(name=name, lhs_variance=lhs, rhs_bound=rhs,
                                    ok=lhs <= rhs * (1 + 1e-12)))
    return WeakPoincareReport(t_value=float(t_value), delta=float(delta), c0=float(c0),
                              p_exponent=float(p_exp), rows=tuple(rows))
