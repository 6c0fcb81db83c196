"""Edge-event noising/denoising, revelation posteriors, conservation constants.

A noising trace draws X from a 01-convention model, attaches one uniform per
edge, and reveals at time t exactly the edges whose endpoints are both 1 in X
and whose uniform is at most t.  Conditioning on the revealed set at time t
yields an Ising model again: endpoints of revealed edges pinned to 1 and edge
couplings tilted by ln(1-t).  At theta* = 1 - exp(-4 beta) the free-edge
couplings vanish and every posterior is a product measure.  Before time 1
only event-set information is exposed, never vertex values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, InputError
from .graphs import _edge_index
from .model import ZERO_ONE, IsingModel, SpinConfiguration, edge_tilt, theta_star
from .oracle import BINNING_CAP, GibbsTable, _edge_event_columns, gibbs_table
from .rng import TRACE, substream
from .dynamics import _draw


@dataclass(frozen=True)
class DenoisingTrace:
    """One realization of the edge-event noising process."""

    base_model: IsingModel
    x_sample: SpinConfiguration
    edge_uniforms: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.edge_uniforms, dtype=np.float64)
        u.flags.writeable = False
        object.__setattr__(self, "edge_uniforms", u)

    def satisfied_events(self) -> frozenset[int]:
        """Edges whose endpoints are both 1 in the sample."""
        vals = self.x_sample.values()
        return frozenset(
            e for e, (u, v) in enumerate(self.base_model.graph.edges)
            if vals[u] == 1 and vals[v] == 1
        )

    def revealed(self, t: float) -> frozenset[int]:
        """Edge events revealed by time t; nondecreasing in t."""
        if not 0.0 <= t <= 1.0:
            raise InputError("t must lie in [0, 1]")
        sat = self.satisfied_events()
        return frozenset(e for e in sat if self.edge_uniforms[e] <= t)


def sample_noising_trace(model01: IsingModel, seed: int, sampler: str = "oracle",
                         burn_steps: int | None = None, trace_index: int = 0) -> DenoisingTrace:
    """Draw X and the per-edge uniforms for one trace.

    ``sampler`` is "oracle" (exact draw from the enumerated table) or
    "glauber" (a long burn-in chain of ``burn_steps`` updates from all-zero).
    """
    if model01.convention != ZERO_ONE:
        raise InputError("noising traces need a 01-convention model")
    rng = substream(seed, TRACE, trace_index)
    x = _draw(model01, rng, sampler, seed, (TRACE, trace_index), burn_steps)
    uniforms = rng.random(model01.graph.num_edges)
    return DenoisingTrace(base_model=model01, x_sample=SpinConfiguration(x, ZERO_ONE),
                          edge_uniforms=uniforms)


def posterior_model(model01: IsingModel, t: float, revealed) -> IsingModel:
    """The conditional law at time t given the revealed edge set, as a model.

    Endpoints of revealed edges are pinned to 1 and every edge coupling gains
    ln(1-t); after normalization this equals reweighting the base measure by
    (1-t)^{#(1,1)-edges} restricted to configurations satisfying the revealed
    events.
    """
    if model01.convention != ZERO_ONE:
        raise InputError("posterior_model needs a 01-convention model")
    if not 0.0 <= t < 1.0:
        raise InputError("t must lie in [0, 1)")
    g = model01.graph
    pin = {w: 1 for e in revealed for w in g.edges[_edge_index(g, e)]}
    return edge_tilt(model01, t).with_pinning(pin)


def exact_revealed_posterior(model01: IsingModel, t: float, revealed) -> np.ndarray:
    """Bayes enumeration of Law(X | revealed(t) = S) over the base free configs.

    P(revealed = S | X = x) factorizes as t^{|S|} (1-t)^{|Z(x) \\ S|} on
    {S subset of Z(x)}, which is exactly computable; no Monte Carlo enters.
    Returns probabilities aligned with the base model's table indexing.  At
    t = 0 an empty S gives the likelihood 1 everywhere, and a nonempty S the
    likelihood 0, which raises InputError.
    """
    if not 0.0 <= t < 1.0:
        raise InputError("t must lie in [0, 1)")
    s_mask = np.zeros(model01.graph.num_edges, dtype=bool)
    for e in revealed:
        s_mask[_edge_index(model01.graph, e)] = True
    table = gibbs_table(model01)
    z = _edge_event_columns(table)  # (configs, E)
    contains_s = (z[:, s_mask] == 1.0).all(axis=1)
    extra = z[:, ~s_mask].sum(axis=1)  # satisfied but unrevealed events
    like = contains_s * t ** s_mask.sum() * (1.0 - t) ** extra
    weights = table.probs * like
    total = weights.sum()
    if total <= 0:
        raise InputError("revealed set has probability zero")
    return weights / total


def align_posterior_to_base(post: GibbsTable, base: GibbsTable) -> np.ndarray:
    """Embed a posterior table into the base table's indexing (zeros off-support)."""
    out = np.zeros(len(base.probs))
    out[base.indices(post.rows())] = post.probs
    return out


@dataclass(frozen=True)
class PosteriorSimulationReport:
    """Monte Carlo check of the revelation posterior, bucketed by revealed set."""

    t: float
    traces: int
    buckets: tuple[tuple[frozenset, int, float], ...]  # (revealed set, hits, tv)
    max_tv: float
    min_hits: int


def _group_rows(revealed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of a boolean (traces, edges) matrix by value, in one stable sort.

    Returns (order, starts, hits): ``order[starts[g]:starts[g] + hits[g]]``
    are the rows of group g in row order, and the groups come in the order
    of their rows read as binary numbers with column 0 the lowest bit.  A
    reversed, packed row is that number followed by a few zero bits, the
    same few for every row; zero bytes in front pad it to whole 64-bit
    words, which read big-endian, most significant first, sort as the
    numbers do.  A row of no columns is one zero word.
    """
    traces = len(revealed)
    packed = np.packbits(np.ascontiguousarray(revealed[:, ::-1]), axis=1)  # a copy packs faster
    width = 8 * max(1, -(-packed.shape[1] // 8))
    padded = np.zeros((traces, width), dtype=np.uint8)
    padded[:, width - packed.shape[1]:] = packed
    words = padded.view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])  # stable, word 0 the primary key
    ranked = words[order]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    hits = np.diff(starts, append=traces)
    return order, starts, hits


def verify_posterior_by_simulation(model01: IsingModel, t: float, traces: int, seed: int,
                                   min_hits: int = 500) -> PosteriorSimulationReport:
    """Bucket many noising traces by revealed(t) and compare laws to the posterior.

    The empirical conditional law of X in each bucket with at least
    ``min_hits`` hits is compared in TV to the enumerated posterior table.
    Buckets come in the order of their revealed sets read as binary numbers
    with edge 0 the lowest bit (``_group_rows``).  This is the statistical
    smoke test; the exact Bayes enumeration above is the primary
    verification path.  Raises InputError, before drawing, with no trace or
    with t outside [0, 1), where no posterior model exists.
    """
    if model01.convention != ZERO_ONE:
        raise InputError("needs a 01-convention model")
    if traces < 1:
        raise InputError("the posterior check needs at least one trace")
    if not 0.0 <= t < 1.0:
        raise InputError("t must lie in [0, 1)")
    if len(model01.free_vertices) > BINNING_CAP:
        raise CapacityError("too many free vertices for trace bucketing")
    table = gibbs_table(model01)
    rng = substream(seed, TRACE)
    idx = rng.choice(len(table.probs), p=table.probs, size=traces)
    z = _edge_event_columns(table).astype(bool)
    u = rng.random((traces, z.shape[1]))
    revealed = z[idx] & (u <= t)
    order, starts, hits = _group_rows(revealed)
    buckets = []
    max_tv = 0.0
    for g in np.flatnonzero(hits >= min_hits):
        members = order[starts[g]:starts[g] + hits[g]]
        s = frozenset(np.flatnonzero(revealed[members[0]]).tolist())
        emp = np.bincount(idx[members], minlength=len(table.probs)) / len(members)
        post = gibbs_table(posterior_model(model01, t, s))
        target = align_posterior_to_base(post, table)
        tv = 0.5 * float(np.abs(emp - target).sum())
        buckets.append((s, int(len(members)), tv))
        max_tv = max(max_tv, tv)
    return PosteriorSimulationReport(
        t=float(t), traces=traces, buckets=tuple(buckets), max_tv=max_tv, min_hits=min_hits)


def default_theta_grid(theta_limit: float) -> tuple[float, ...]:
    """The default revelation-time grid {0, 0.25, 0.5, 0.75, 1.0} * theta_limit."""
    return tuple(frac * theta_limit for frac in (0.0, 0.25, 0.5, 0.75, 1.0))


def vertex_tilt_table(model01: IsingModel, theta: float) -> GibbsTable:
    """Enumerated law of the vertex tilt: probabilities reweighted by theta^{#ones}.

    Equivalent to shifting every field entry by ln(theta), so theta = 1 is
    the identity; theta must be positive (probe small values instead of 0).
    """
    if model01.convention != ZERO_ONE:
        raise InputError("vertex tilt needs a 01-convention model")
    if theta <= 0.0 or theta > 1.0:
        raise InputError("theta must lie in (0, 1]")
    shifted = replace(model01, field=model01.field + math.log(theta))
    return gibbs_table(shifted)


# ---------------------------------------------------------------------------
# Conservation constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservationCertificate:
    """A conservation constant R >= 1 with the inputs that produced it."""

    kind: str
    theta: float
    r_value: float
    log_r: float
    formula_id: str
    rate_c: float | None = None
    eta_op: float | None = None
    k_low: float | None = None
    l_value: float | None = None
    es_value: float | None = None


def variance_conservation_R(c: float, theta: float) -> ConservationCertificate:
    """R = (1-theta)^(-C), the closed form of exp of the integral of C/(1-t).

    At theta* = 1 - exp(-4 beta) this is exp(4 beta C).
    """
    if not c >= 0:  # NaN fails too
        raise InputError("rate C must be nonnegative")
    if not 0.0 <= theta < 1.0:
        raise InputError("theta must lie in [0, 1)")
    log_r = -c * math.log1p(-theta)
    return ConservationCertificate(
        kind="variance", theta=float(theta), r_value=float(np.exp(log_r)), log_r=log_r,
        formula_id="variance-conservation", rate_c=float(c))


def entropy_conservation_R(eta_op: float, k_low: float, theta: float) -> ConservationCertificate:
    """Entropy conservation via L = (K_low+1)(eta_op-1)+1.

    ES = L / (1 - (1-theta)^L) and R = 1 + ES / (L (1-theta)^L); computed in
    log space since R overflows quickly.
    """
    if not (eta_op >= 1.0 and k_low >= 1.0):  # NaN fails too
        raise InputError("need eta_op >= 1 and K_low >= 1")
    if not 0.0 < theta < 1.0:
        raise InputError("theta must lie in (0, 1)")
    l_value = (k_low + 1.0) * (eta_op - 1.0) + 1.0
    log_decay = l_value * math.log1p(-theta)  # log (1-theta)^L
    # log ES = log L - log(1 - exp(log_decay))
    log_es = math.log(l_value) - math.log1p(-math.exp(log_decay))
    log_ratio = log_es - math.log(l_value) - log_decay
    log_r = np.logaddexp(0.0, log_ratio)
    with np.errstate(over="ignore"):
        r_value = float(np.exp(log_r))
        es_value = float(np.exp(log_es))
    return ConservationCertificate(
        kind="entropy", theta=float(theta), r_value=r_value, log_r=float(log_r),
        formula_id="entropy-conservation", eta_op=float(eta_op), k_low=float(k_low),
        l_value=l_value, es_value=es_value)


def marginal_lower_bound(delta: int, m_bound: float, beta: float) -> float:
    """Uniform lower bound on tilted-pinned edge-event probabilities.

    Equals 1 / (1 + exp(2 (beta delta + M)))^2: the worst-case conditional
    probability of a single vertex being 1, squared.
    """
    if m_bound < 0 or beta < 0:
        raise InputError("need M >= 0 and beta >= 0")
    return 1.0 / bounded_field_k_constant(delta, m_bound, beta)


def bounded_field_k_constant(delta: int, m_bound: float, beta: float) -> float:
    """The marginal constant (1 + exp(2 (beta delta + M)))^2 itself."""
    return float(np.exp(2.0 * np.logaddexp(0.0, 2.0 * (beta * delta + m_bound))))


@dataclass(frozen=True)
class EntropyBoundReport:
    """Bounded-field entropy-conservation chain with its downstream MLSI form."""

    certificate: ConservationCertificate
    n: int
    rho_chain: float
    log_rho_chain: float


def entropy_conservation_for_model(n: int, beta: float, delta: int, m_bound: float,
                                   alpha_star: float) -> EntropyBoundReport:
    """Instantiate the chain with eta_op = 4 delta ln n / alpha*, K_low from the
    bounded-field marginal constant, theta = theta*, and report rho = 1/(R n)."""
    if n < 2:
        raise InputError("need n >= 2")
    eta_op = max(1.0, 4.0 * delta * math.log(n) / alpha_star)
    k_low = bounded_field_k_constant(delta, m_bound, beta)
    cert = entropy_conservation_R(eta_op, k_low, theta_star(beta))
    log_rho = -cert.log_r - math.log(n)
    with np.errstate(over="ignore"):
        rho = float(np.exp(log_rho))
    return EntropyBoundReport(certificate=cert, n=n, rho_chain=rho, log_rho_chain=float(log_rho))
