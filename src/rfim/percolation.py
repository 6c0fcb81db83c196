"""Site percolation driven by the quenched field, cluster tails, certificates.

A site opens when its field magnitude is at most K or its uniform lands in
the edge bands min(U, 1-U) <= p0/4; the same uniforms can drive a grand
coupling, so the coupled disagreement region is contained in the forced-open
cluster of the distinguished edge.  Cluster sizes are dominated by the total
progeny of a two-root branching process with Bin(max_degree - 1, p0)
offspring, whose law is exact via the Otter-Dwass formula; Chernoff on that
law yields the closed-form tail, row/column-sum and operator-norm bounds, and
finally the headline spectral-gap and MLSI certificates.  Certificates are
pure functions of their inputs and carry log-space values because the floats
routinely underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, stats

from .errors import CapacityError, InputError
from .graphs import Graph, bfs
from .model import (
    PM,
    FieldDistribution,
    IsingModel,
    QuenchedField,
    alpha_star_value,
    edge_tilt,
    exp_gamma_star,
    gamma_star_value,
    sample_field,
    to_zero_one,
    xi_star_value,
)
from .dynamics import grand_coupled_update
from .localization import bounded_field_k_constant
from .oracle import PINNING_SWEEP_CAP, SAMPLED_SWEEP_CAP, sup_cor2_over_pinnings
from .rng import PERCOLATION, substream

CLOSED, FIELD_OPEN, UNIFORM_OPEN = 0, 1, 2
PROGENY_CAP = 10000  # largest simulated forest, in vertices


@dataclass(frozen=True)
class PercolationRealization:
    """Per-site openness with provenance (field-open beats uniform-open)."""

    graph: Graph
    open_set: frozenset[int]
    provenance: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        p = np.asarray(self.provenance, dtype=np.int8)
        p.flags.writeable = False
        object.__setattr__(self, "provenance", p)


def percolation_from_uniforms(g: Graph, field_values: np.ndarray, k: float, p0: float,
                              uniforms: np.ndarray, seed: int | None = None) -> PercolationRealization:
    """Openness from explicit per-vertex uniforms (shareable with a coupling)."""
    if not 0.0 < p0 < 1.0:
        raise InputError("p0 must lie in (0, 1)")
    h = np.asarray(field_values, dtype=np.float64)
    u = np.asarray(uniforms, dtype=np.float64)
    if h.shape != (g.num_vertices,) or u.shape != (g.num_vertices,):
        raise InputError("field and uniforms must have one entry per vertex")
    field_open = np.abs(h) <= k
    uniform_open = np.minimum(u, 1.0 - u) <= p0 / 4.0
    prov = np.where(field_open, FIELD_OPEN, np.where(uniform_open, UNIFORM_OPEN, CLOSED))
    open_set = frozenset(int(v) for v in np.nonzero(field_open | uniform_open)[0])
    return PercolationRealization(graph=g, open_set=open_set, provenance=prov, seed=seed)


def percolate(g: Graph, field: QuenchedField, k: float, p0: float, seed: int) -> PercolationRealization:
    """Draw the per-site uniforms from the documented substream and percolate."""
    uniforms = substream(seed, PERCOLATION).random(g.num_vertices)
    return percolation_from_uniforms(g, field.values, k, p0, uniforms, seed=seed)


def cluster_of_edge(realization: PercolationRealization, e) -> frozenset[int]:
    """Open cluster of the edge's endpoints with both endpoints forced open (BFS)."""
    g = realization.graph
    u, v = int(e[0]), int(e[1])
    if not g.has_edge(u, v):
        raise InputError(f"({u}, {v}) is not an edge")
    return frozenset(bfs(g, (u, v), allowed=realization.open_set))


# ---------------------------------------------------------------------------
# Branching-process tail oracle
# ---------------------------------------------------------------------------

def otter_dwass_pmf(delta: int, p0: float, x) -> np.ndarray | float:
    """P(total progeny = x) for the two-root forest: (2/x) P(Bin((delta-1)x, p0) = x-2)."""
    if delta < 3:
        raise InputError("max degree must be >= 3")
    if not 0.0 < p0 < 1.0:
        raise InputError("p0 must lie in (0, 1)")
    xs = np.asarray(x, dtype=np.int64)
    if (xs < 1).any():
        raise InputError("total progeny starts at 1")
    pmf = (2.0 / xs) * stats.binom.pmf(xs - 2, (delta - 1) * xs, p0)
    return float(pmf) if np.isscalar(x) or xs.ndim == 0 else pmf


@dataclass(frozen=True)
class ClusterTailBound:
    """Closed-form tail and exponential-moment bounds of the cluster size."""

    m: float
    tail_bound: float
    exp_moment_bound: float
    xi_star: float
    alpha_star: float


def cluster_tail_bound(delta: int, p0: float, m: float) -> ClusterTailBound:
    """Chernoff tail bound (2/(1-e^-xi)) gamma^2 e^{-xi m} with gamma = (1-p0)/(p0(delta-2)).

    Also returns the exponential-moment bound at alpha* = xi*/2.  Valid in the
    subcritical regime p0 (delta - 1) < 1.
    """
    if delta < 3:
        raise InputError("max degree must be >= 3")
    if not 0.0 < p0 < 1.0 or p0 * (delta - 1) >= 1.0:
        raise InputError("need p0 in (0,1) with p0 (delta-1) < 1")
    xi = xi_star_value(p0, delta)
    alpha = alpha_star_value(p0, delta)
    gamma_sq = exp_gamma_star(p0, delta) ** 2
    tail = 2.0 / (1.0 - math.exp(-xi)) * gamma_sq * math.exp(-xi * m)
    moment = _moment_constant(alpha) * gamma_sq
    return ClusterTailBound(m=float(m), tail_bound=tail, exp_moment_bound=moment,
                            xi_star=xi, alpha_star=alpha)


def _moment_constant(alpha: float) -> float:
    """2 / ((1 - e^-alpha) (1 - e^-2 alpha)), the exponential-moment factor at alpha."""
    return 2.0 / ((1.0 - math.exp(-alpha)) * (1.0 - math.exp(-2.0 * alpha)))


def row_sum_tail_bound(delta: int, p0: float, m: float) -> float:
    """Failure bound (2/((1-e^-a)(1-e^-2a))) e^{2 gamma*} e^{-a m} with a = alpha*:
    the cluster's exponential-moment bound times e^{-a m}."""
    tail = cluster_tail_bound(delta, p0, m)
    return tail.exp_moment_bound * math.exp(-tail.alpha_star * m)


def simulate_total_progeny(delta: int, p0: float, forests: int, seed: int) -> np.ndarray:
    """Forward simulation of the two-root forest's total progeny (vectorized);
    raises CapacityError once a forest exceeds PROGENY_CAP vertices."""
    rng = substream(seed, PERCOLATION, 1)
    total = np.full(forests, 2, dtype=np.int64)
    active = np.full(forests, 2, dtype=np.int64)
    while (active > 0).any():
        kids = np.zeros(forests, dtype=np.int64)
        mask = active > 0
        kids[mask] = rng.binomial((delta - 1) * active[mask], p0)
        total += kids
        active = kids
        if (total > PROGENY_CAP).any():
            raise CapacityError("a simulated forest exceeded the size cap")
    return total


# ---------------------------------------------------------------------------
# Disagreement containment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisagreementResult:
    disagreement_set: frozenset[int]
    cluster: frozenset[int]
    contained: bool
    order: tuple[int, ...]


def revelation_order(g: Graph, e, mode: str = "bfs",
                     cluster: frozenset[int] | None = None) -> tuple[int, ...]:
    """Vertex revelation order for the containment experiment.

    "bfs" is plain breadth-first from the edge.  "cluster" reveals the
    forced-open cluster first, then its closed boundary, then the rest; the
    revealed closed boundary then screens the outside exactly, so containment
    holds pathwise even on cyclic graphs.
    """
    if mode == "bfs":
        order = bfs(g, e)
    elif mode == "cluster":
        if cluster is None:
            raise InputError("cluster mode needs the percolation cluster")
        first = bfs(g, e, allowed=cluster)
        revealed = set(first)
        ring = [v for v in range(g.num_vertices)
                if v not in revealed and any(w in cluster for w in g.adjacency[v])]
        order = bfs(g, first + ring)
    else:
        raise InputError(f"unknown revelation order {mode!r}")
    placed = set(order)  # unreachable leftovers, if any, go last in ascending order
    return tuple(order + [v for v in range(g.num_vertices) if v not in placed])


def disagreement_experiment(model01: IsingModel, e, theta: float, extra_pinning: dict,
                            field_values: np.ndarray, k: float, p0: float, seed: int,
                            order: str = "bfs") -> DisagreementResult:
    """Couple nu = tilt(model, theta | pinning) against nu(. | both endpoints 1).

    One uniform per vertex drives the percolation openness and every chain's
    quantile update, exactly the grand-coupling construction; reports whether
    the coupled disagreement set is contained in the forced-open cluster.
    ``field_values`` is the quenched field in the +-1 coordinate (openness
    tests |h| <= K there, not on the shifted 01-field).
    """
    g = model01.graph
    u, v = int(e[0]), int(e[1])
    if not g.has_edge(u, v):
        raise InputError(f"({u}, {v}) is not an edge")
    nu = edge_tilt(model01, theta).with_pinning(extra_pinning)
    nu_cond = nu.with_pinning({u: 1, v: 1})
    uniforms = substream(seed, PERCOLATION, 2).random(g.num_vertices)
    realization = percolation_from_uniforms(g, field_values, k, p0, uniforms)
    cluster = cluster_of_edge(realization, e)
    order_seq = revelation_order(g, e, mode=order, cluster=cluster)
    _, disagree, _ = grand_coupled_update([nu, nu_cond], order=order_seq, uniforms=uniforms)
    return DisagreementResult(
        disagreement_set=disagree,
        cluster=cluster,
        contained=disagree <= cluster,
        order=order_seq,
    )


# ---------------------------------------------------------------------------
# Empirical sup-row/column-sum tails against the theory bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailReportRow:
    m: float
    bound: float
    row_exceed_freq: np.ndarray  # per edge
    col_exceed_freq: np.ndarray  # per edge


@dataclass(frozen=True)
class TailReport:
    rows: tuple[TailReportRow, ...]
    trials: int
    mode: str
    delta: int
    interpolation_all_ok: bool = True


def row_sum_tail_report(g: Graph, beta: float, theta_grid, field_dist: FieldDistribution,
                        k: float, p0: float, trials: int, seed: int, m_grid,
                        sampled_pinnings: int = 1000) -> TailReport:
    """Frequency over quenched fields that per-edge sup row/column sums exceed
    the thresholds delta*m (rows) and 2*delta*m (columns), next to the bound.

    The sup over pinnings and the theta grid is exact (full ternary
    enumeration) up to the sweep cap, else sampled; the mode is recorded.
    Above ``SAMPLED_SWEEP_CAP`` vertices it raises CapacityError before
    drawing any field or pinning.
    Graphs of maximal degree below 3 are covered a fortiori by the
    degree-3 constants, so delta is floored at 3.
    """
    if trials < 1:
        raise InputError("a tail report needs at least one field trial")
    delta = max(3, g.max_degree())
    n = g.num_vertices
    mode = "exact" if n <= PINNING_SWEEP_CAP else "sampled"
    if n > SAMPLED_SWEEP_CAP:
        raise CapacityError(f"{n} vertices exceeds the sampled sweep cap {SAMPLED_SWEEP_CAP}")
    num_edges = g.num_edges
    row_sups = np.zeros((trials, num_edges))
    col_sups = np.zeros((trials, num_edges))
    interpolation_ok = True
    for tr in range(trials):
        field = sample_field(field_dist, n, seed * 100003 + tr)
        base = IsingModel.uniform(g, beta, field.values, convention=PM)
        model01 = to_zero_one(base)
        codes = None
        if mode == "sampled":
            rng = substream(seed, PERCOLATION, 3, tr)
            codes = rng.integers(0, 3**n, size=sampled_pinnings)
        sweep = sup_cor2_over_pinnings(model01, theta_grid, pinning_codes=codes)
        row_sups[tr] = sweep.per_edge_row_max
        col_sups[tr] = sweep.per_edge_col_max
        interpolation_ok &= sweep.interpolation_ok
    rows = []
    for m in m_grid:
        bound = row_sum_tail_bound(delta, p0, m)
        rows.append(TailReportRow(
            m=float(m),
            bound=bound,
            row_exceed_freq=(row_sups >= delta * m).mean(axis=0),
            col_exceed_freq=(col_sups >= 2 * delta * m).mean(axis=0),
        ))
    return TailReport(rows=tuple(rows), trials=trials, mode=mode, delta=delta,
                      interpolation_all_ok=interpolation_ok)


@dataclass(frozen=True)
class NormCheck:
    opnorm: float
    rowsum_max: float
    colsum_max: float
    bound: float
    ok: bool


def norm_interpolation_check(matrix) -> NormCheck:
    """Operator norm against sqrt(max row sum * max column sum)."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("need a square matrix")
    opnorm = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
    rowmax = float(np.abs(a).sum(axis=1).max(initial=0.0))
    colmax = float(np.abs(a).sum(axis=0).max(initial=0.0))
    bound = math.sqrt(rowmax * colmax)
    return NormCheck(opnorm=opnorm, rowsum_max=rowmax, colsum_max=colmax, bound=bound,
                     ok=opnorm <= bound * (1.0 + 1e-9) + 1e-12)


# ---------------------------------------------------------------------------
# Headline certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapCertificate:
    """Spectral-gap lower bound n^-1 exp(-16 beta delta ln n / alpha*)."""

    n: int
    beta: float
    delta: int
    alpha_star: float
    gap_lower: float
    log_gap_lower: float
    failure_probability_note: str

    def tmix_upper(self, eps: float, field_l1: float) -> float:
        """Mixing-time form n^(1 + 16 beta delta / alpha*) (beta delta n + |h|_1 + log(1/eps)).

        The absorbed constant is reported as 1.
        """
        if not 0.0 < eps < 1.0:
            raise InputError("eps must lie in (0, 1)")
        expo = 1.0 + 16.0 * self.beta * self.delta / self.alpha_star
        return self.n**expo * (self.beta * self.delta * self.n + field_l1 + math.log(1.0 / eps))


def gap_certificate(n: int, beta: float, delta: int, alpha_star: float) -> GapCertificate:
    if n < 1 or beta <= 0 or delta <= 0 or alpha_star <= 0:
        raise InputError("all certificate inputs must be positive")
    log_gap = -math.log(n) - 16.0 * beta * delta * math.log(n) / alpha_star
    note = ("holds with quenched probability 1 - c/n, "
            "c = 4 n delta * (2/((1-e^-a)(1-e^-2a))) e^{2 gamma*} / n with a = alpha*")
    return GapCertificate(
        n=int(n), beta=float(beta), delta=int(delta), alpha_star=float(alpha_star),
        gap_lower=float(np.exp(log_gap)), log_gap_lower=log_gap,
        failure_probability_note=note)


@dataclass(frozen=True)
class MlsiCertificate:
    """MLSI lower bound (1/(3n)) exp(-4 beta ((C+1) 4 delta ln n / alpha* + 1))."""

    n: int
    beta: float
    delta: int
    alpha_star: float
    m_bound: float
    k_constant: float
    rho_lower: float
    log_rho_lower: float

    def tmix_upper(self, eps: float, field_l1: float) -> float:
        """rho^-1 (log(beta delta n + |h|_1) + log(1/eps)); may overflow to inf."""
        if not 0.0 < eps < 1.0:
            raise InputError("eps must lie in (0, 1)")
        with np.errstate(over="ignore"):
            inv_rho = float(np.exp(-self.log_rho_lower))
        return inv_rho * (math.log(self.beta * self.delta * self.n + field_l1)
                          + math.log(1.0 / eps))


def mlsi_certificate(n: int, beta: float, delta: int, alpha_star: float,
                     m_bound: float) -> MlsiCertificate:
    if n < 1 or beta <= 0 or delta <= 0 or alpha_star <= 0 or m_bound < 0:
        raise InputError("bad certificate inputs")
    k_const = bounded_field_k_constant(delta, m_bound, beta)
    log_rho = -math.log(3.0 * n) - 4.0 * beta * (
        (k_const + 1.0) * 4.0 * delta * math.log(max(n, 1)) / alpha_star + 1.0)
    with np.errstate(over="ignore", under="ignore"):
        rho = float(np.exp(log_rho))
    return MlsiCertificate(
        n=int(n), beta=float(beta), delta=int(delta), alpha_star=float(alpha_star),
        m_bound=float(m_bound), k_constant=k_const, rho_lower=rho, log_rho_lower=log_rho)


def _p0_from_alpha_star(alpha_star: float, delta: int) -> float:
    """Invert the strictly monotone alpha*(p0) closed form on (0, 1/(delta-1))."""
    lo, hi = 1e-300, 1.0 / (delta - 1) - 1e-12

    def f(p):
        return alpha_star_value(p, delta) - alpha_star

    if f(lo) < 0 or f(hi) > 0:
        raise InputError("alpha_star is outside the attainable range for this degree")
    return float(optimize.brentq(f, lo, hi, xtol=1e-15))


@dataclass(frozen=True)
class RefinedGapTail:
    """Inverse-gap bound n e^{eps L} with failure e^{-2L} for L >= kappa0 ln n."""

    n: int
    beta: float
    delta: int
    alpha_star: float
    l_value: float
    epsilon: float
    log_gap_inv_bound: float
    failure_probability: float
    kappa0: float
    l_threshold: float
    below_threshold: bool
    p0_recovered: float


def refined_gap_tail(n: int, beta: float, delta: int, alpha_star: float,
                     l_value: float) -> RefinedGapTail:
    """Trade failure probability for gap quality at tail depth L.

    epsilon = 16 beta delta / sqrt(alpha*).  The admissible threshold solves
    n delta c(alpha*) e^{2 gamma*} e^{-sqrt(alpha*) L} <= e^{-2L} at
    L = kappa0 ln n, which needs sqrt(alpha*) > 2; gamma* is recovered by
    numerically inverting alpha*(p0).  Below-threshold inputs are flagged but
    still evaluated.
    """
    if n < 2 or beta <= 0 or delta < 3 or alpha_star <= 0:
        raise InputError("bad inputs")
    eps = 16.0 * beta * delta / math.sqrt(alpha_star)
    log_bound = math.log(n) + eps * l_value
    failure = math.exp(-2.0 * l_value)
    p0 = _p0_from_alpha_star(alpha_star, delta)
    gamma = gamma_star_value(p0, delta)
    const = _moment_constant(alpha_star)
    root = math.sqrt(alpha_star)
    if root > 2.0:
        kappa0 = (math.log(n * delta * const) + 2.0 * gamma) / ((root - 2.0) * math.log(n))
        threshold = kappa0 * math.log(n)
    else:
        kappa0 = math.inf
        threshold = math.inf
    return RefinedGapTail(
        n=int(n), beta=float(beta), delta=int(delta), alpha_star=float(alpha_star),
        l_value=float(l_value), epsilon=eps, log_gap_inv_bound=log_bound,
        failure_probability=failure, kappa0=kappa0, l_threshold=threshold,
        below_threshold=bool(l_value < threshold), p0_recovered=p0)
