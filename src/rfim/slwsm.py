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
from scipy import optimize

from .dynamics import _draw
from .errors import CapacityError, InputError
from .graphs import Graph, ball, boundary, distances_from
from .model import PM, FieldDistribution, IsingModel, SpinConfiguration, induced_model, sample_field
from .oracle import (
    BOOST_CAP,
    GibbsTable,
    _centred_moments,
    _extend,
    _free_energies,
    _normalise,
    gibbs_table,
    mean_and_covariance,
)
from .rng import SL, substream


@dataclass(frozen=True)
class SlRealization:
    """One boosted field draw: y = t sigma* + noise, noise ~ Normal(0, t) per vertex."""

    t: float
    sigma_star: SpinConfiguration
    noise: np.ndarray
    y: np.ndarray
    boosted_model: IsingModel


def sl_boost(model: IsingModel, t: float, seed: int, sampler: str = "oracle",
             burn_steps: int | None = None, index: int = 0,
             table: GibbsTable | None = None) -> SlRealization:
    """Draw one localization realization and the boosted model (field h + y)."""
    if model.convention != PM:
        raise InputError("field boosting works in the +-1 convention")
    if t < 0:
        raise InputError("t must be nonnegative")
    rng = substream(seed, SL, index)
    star = _draw(model, rng, sampler, seed, index, burn_steps, table)
    noise = math.sqrt(t) * rng.normal(size=model.n)
    y = t * star.astype(np.float64) + noise
    boosted = replace(model, field=model.field + y)
    return SlRealization(t=float(t), sigma_star=SpinConfiguration(star, PM),
                         noise=noise, y=y, boosted_model=boosted)


def _boosted_prob_matrix(model: IsingModel, t: float, count: int, seed: int,
                         table: GibbsTable | None = None):
    """All boosted Gibbs tables for ``count`` realizations at once.

    Returns (probs (count, configs), free-vertex spins (f, configs), base table).
    """
    _check_boost_size(model)
    if table is None:
        table = gibbs_table(model)
    f = table.num_free
    vals = table.rows()[:, list(table.free)].astype(np.float64, order="C")
    rng = substream(seed, SL)
    idx = rng.choice(len(table.probs), p=table.probs, size=count)
    star = vals[idx]  # (count, f) free-vertex spins of sigma*
    noise = math.sqrt(t) * rng.normal(size=(count, f))
    y = t * star + noise
    base_energy = np.log(table.probs)
    probs, _ = _normalise(base_energy[None, :] + y @ vals.T)
    return probs, vals.T, table


def _check_boost_size(model: IsingModel) -> None:
    """Raise CapacityError above ``BOOST_CAP`` free vertices; callers check before enumerating."""
    if len(model.free_vertices) > BOOST_CAP:
        raise CapacityError("batch boosting needs a small model")


def averaged_boosted_table(model: IsingModel, t: float, realizations: int, seed: int):
    """Mean and per-config standard error of boosted tables over realizations.

    By the martingale property of the localization, the mean reproduces the
    base table up to Monte Carlo error.  Needs two realizations for a standard error.
    """
    if realizations < 2:
        raise InputError("averaging boosted tables needs at least 2 realizations")
    probs, _, table = _boosted_prob_matrix(model, t, realizations, seed)
    mean = probs.mean(axis=0)
    stderr = probs.std(axis=0, ddof=1) / math.sqrt(realizations)
    return mean, stderr, table


# ---------------------------------------------------------------------------
# Weak spatial mixing
# ---------------------------------------------------------------------------

def wsm_delta(model: IsingModel, u: int, ell: int) -> float:
    """TV influence at u of all-plus vs all-minus boundary at radius ell.

    The ball B is the closed radius-ell ball around u and the ring R its
    outer boundary; an empty ring returns 0 by convention.  Pinning R to the
    sign s adds s * sum_v b_v x_v to the energy of a configuration x of B,
    where b_v is the sum of v's couplings into R, plus a constant that
    normalising cancels.  So the model induced on B is enumerated once,
    without the ring, the linear term b.x is built by the same doubling
    step, and the two energies E + b.x and E - b.x are normalised to read
    u's marginal under each sign.  Raises InputError when u is pinned, and
    when a ring vertex is pinned, since its pin conflicts with one of the
    signs.
    """
    if model.convention != PM:
        raise InputError("wsm_delta works in the +-1 convention")
    inside = ball(model.graph, u, ell)
    if u in model.pinning:
        raise InputError(f"vertex {u} is pinned, so it has no influence to measure")
    ring = boundary(model.graph, inside)
    if not ring:
        return 0.0
    for v in sorted(ring):
        if v in model.pinning:
            raise InputError(f"ring vertex {v} is pinned against one of the boundary signs")
    sub = induced_model(model, inside)
    energy = _free_energies(sub)
    region = sorted(inside)
    nbr, cpl = model.neighbour_table
    spins = np.array([-1.0, 1.0])  # [zero, one] in pm
    linear = np.zeros(1)
    for i in sub.free_vertices:  # ascending, as _free_energies doubles
        v = region[i]
        into_ring = sum(c for w, c in zip(nbr[v].tolist(), cpl[v].tolist()) if w in ring)
        linear = _extend(linear, spins, np.full(len(linear), into_ring))
    probs, _ = _normalise(np.stack([energy + linear, energy - linear]))
    j = sub.free_vertices.index(region.index(u))
    plus, minus = probs.reshape(2, -1, 2, 1 << j)[:, :, 1].sum(axis=(1, 2))
    return float(abs(plus - minus))


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

    The fit minimizes squared residuals of log mean-delta against
    log C - r / C over the measured radii (zeros are skipped).
    """
    if field_trials < 1:
        raise InputError("estimating WSM needs at least one field trial")
    if vertices is None:
        vertices = tuple(range(graph.num_vertices))
    vertices = tuple(int(v) for v in vertices)
    radii = tuple(int(r) for r in radii)
    deltas = np.zeros((field_trials, len(vertices), len(radii)))
    for trial in range(field_trials):
        field = sample_field(field_dist, graph.num_vertices, seed * 99991 + trial)
        model = IsingModel.uniform(graph, beta, field.values, convention=PM)
        for i, v in enumerate(vertices):
            for j, r in enumerate(radii):
                deltas[trial, i, j] = wsm_delta(model, v, r)
    mean = deltas.mean(axis=0)
    stderr = np.sqrt(((deltas - mean) ** 2).mean(axis=0) / field_trials)

    pts = [(r, m) for j, r in enumerate(radii) for m in mean[:, j] if m > 0]

    def loss(log_c):
        c = math.exp(log_c)
        return sum((math.log(m) - (math.log(c) - r / c)) ** 2 for r, m in pts)

    if pts:
        res = optimize.minimize_scalar(loss, bounds=(-6.0, 6.0), method="bounded")
        fitted = float(math.exp(res.x))
    else:
        fitted = 0.0
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
    pts = tuple(int(p) for p in points)
    p = len(pts)
    if p == 0:
        raise InputError("need at least one point")
    dists = {}
    for v in set(pts):
        dists[v] = distances_from(g, v)
    d = np.zeros((p, p), dtype=np.int64)
    for i in range(p):
        for jj in range(p):
            dist = dists[pts[i]][pts[jj]]
            if dist < 0:
                raise InputError("separation plans need points in one component")
            d[i, jj] = dist
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
    equality for the worst measured t.
    """
    if p < 1:
        raise InputError("moment order must be >= 1")
    t_grid = tuple(t_grid)
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
            probs, vals, _ = _boosted_prob_matrix(model, t, realizations, seed * 31 + ti,
                                                  table=table)
            _, covs = _centred_moments(probs, vals)
            eigs = np.linalg.eigvalsh(covs)
            traces = (eigs**p).sum(axis=1)
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
    p = exp(2 T / c0).  c0 is fitted from the p = 2 trace-moment probe when
    not given, so the verdicts are consistency diagnostics, not certificates.
    """
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    if t_value < 0:
        raise InputError("T must be nonnegative")
    if t_value > 0:
        _check_boost_size(model)
        if realizations < 1:
            raise InputError("a boosted time needs at least one realization")
    table = gibbs_table(model)
    if c0 is None:
        fit = trace_moment_probe(model, 2, (0.0, t_value / 2, t_value),
                                 max(realizations // 2, 100), seed + 1)
        c0 = fit.small_c0
    n = model.n
    if t_value == 0:
        p_exp = 1.0
    else:
        p_exp = math.exp(2.0 * t_value / c0)
    rows = []
    if t_value > 0:
        probs, _, _ = _boosted_prob_matrix(model, t_value, realizations, seed, table=table)
    for name, phi in test_functions:
        phi = np.asarray(phi, dtype=np.float64)[None, :]
        lhs = float(_centred_moments(table.probs, phi)[1][0, 0])
        osc = float(phi.max() - phi.min())
        if t_value == 0:
            e_var = lhs
        else:
            e_var = float(_centred_moments(probs, phi)[1].mean())
        if p_exp == 1.0:
            rhs = e_var
        else:
            q_exp = p_exp / (p_exp - 1.0)
            rhs = ((math.exp(-c0) * n / delta) ** (1.0 / q_exp)
                   * e_var ** (1.0 / p_exp) * osc ** (2.0 / q_exp))
        rows.append(WeakPoincareRow(name=name, lhs_variance=lhs, rhs_bound=rhs,
                                    ok=lhs <= rhs * (1 + 1e-12)))
    return WeakPoincareReport(t_value=float(t_value), delta=float(delta), c0=float(c0),
                              p_exponent=float(p_exp), rows=tuple(rows))


def magnetization_function(table: GibbsTable) -> np.ndarray:
    """Sum of free-vertex spins per config, as a test function vector."""
    return table.rows()[:, list(table.free)].sum(axis=1, dtype=np.float64)


def single_site_function(table: GibbsTable, v: int) -> np.ndarray:
    """Spin at one free vertex per config, as a test function vector."""
    if v not in table.free:
        raise InputError(f"vertex {v} is not free")
    return table.rows()[:, v].astype(np.float64)
