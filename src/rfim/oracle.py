"""Brute-force ground truth for small models.

Gibbs tables are full probability vectors over the free-vertex configurations
of a model, indexed so that bit j of a config index carries the spin of the
j-th free vertex in ascending vertex order (bit 0 is the least significant).
``GibbsTable.rows`` and ``GibbsTable.indices`` are the one place outside this
module that reads or writes this format: every other layer maps between
config indices and full spin vectors through them.  ``_free_energies``
enumerates a model once, doubling at each free vertex, and ``_table`` alone
turns energies into probabilities and log Z.  The spectral routines share one
single-flip enumeration, ``_single_flips``, and each builds its own weights.
Everything here is deterministic and exact up to float arithmetic; sizes are
guarded by hard caps.  Tables are immutable once built and safe to share.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.special import logsumexp

from .errors import CapacityError, InputError, ValidationFailure
from .model import SPIN_VALUES, ZERO_ONE, IsingModel
from .rng import PROBE, substream

GIBBS_CAP = 24
SPECTRAL_CAP = 12
MLSI_CAP = 10
PINNING_SWEEP_CAP = 10

_MAGIC = b"RFIMTBL1"


@dataclass(frozen=True)
class GibbsTable:
    """Exact enumerated Gibbs distribution over a model's free vertices."""

    model: IsingModel
    probs: np.ndarray
    log_partition: float
    free: tuple[int, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def num_free(self) -> int:
        return len(self.free)

    def rows(self, indices=None) -> np.ndarray:
        """Full spin vectors, shape (k, n) int8, of config ``indices`` (default: all).

        Pinned vertices carry their pinned value; built one free vertex at a time.
        """
        idx = np.arange(len(self.probs)) if indices is None else np.asarray(indices).reshape(-1)
        spins = np.array(SPIN_VALUES[self.model.convention][::-1], dtype=np.int8)  # [zero, one]
        out = np.empty((len(idx), self.model.n), dtype=np.int8)
        for v, s in self.model.pinning.items():
            out[:, v] = s
        for j, v in enumerate(self.free):
            out[:, v] = spins.take((idx >> j) & 1)
        return out

    def indices(self, values) -> np.ndarray:
        """Config index of each full spin vector (a row of ``values``).

        Raises InputError when a row conflicts with the pinning.
        """
        vals = np.asarray(values)
        vals = vals.reshape(-1, vals.shape[-1])
        for v, s in self.model.pinning.items():
            if (vals[:, v] != s).any():
                raise InputError(f"value at vertex {v} conflicts with pinning")
        idx = np.zeros(len(vals), dtype=np.int64)
        for j, v in enumerate(self.free):
            idx |= (vals[:, v] == 1).astype(np.int64) << j  # +1 in pm, 1 in 01
        return idx

    def assignment(self, index: int) -> dict[int, int]:
        """Full vertex -> spin map for configuration ``index`` (pinning included)."""
        return dict(enumerate(self.rows(index)[0].tolist()))

    def as_full_dict(self) -> dict[tuple[int, ...], float]:
        """Map full spin tuples (over all vertices) to probabilities."""
        return {tuple(r): float(p) for r, p in zip(self.rows().tolist(), self.probs)}


def _free_energies(model: IsingModel) -> np.ndarray:
    """Hamiltonian of every free-vertex configuration, pinned spins folded in.

    Doubles over the free vertices in ascending order: the j-th free vertex v
    splits the 2^j energies so far into "v at zero" and "v at one" halves, each
    plus v's spin times its local field, read from the neighbour table: h_v,
    c * s per pinned neighbour and c * x_w per earlier free neighbour w, where
    x_w is bit pos(w) of the prefix.  Terms involving only pinned spins are
    never read, so analytically equal conditional measures stay bit-identical.
    """
    free = model.free_vertices
    if len(free) > GIBBS_CAP:
        raise CapacityError(f"{len(free)} free vertices exceeds the enumeration cap {GIBBS_CAP}")
    spins = np.array(SPIN_VALUES[model.convention][::-1], dtype=np.float64)  # [zero, one]
    pos = {v: j for j, v in enumerate(free)}
    nbr, cpl = model.neighbour_table
    energy = np.zeros(1)
    for j, v in enumerate(free):
        base = float(model.field[v])
        earlier = []
        for w, c in zip(nbr[v].tolist(), cpl[v].tolist()):
            if w in model.pinning:
                base += c * model.pinning[w]
            elif pos[w] < j:  # padding slots name v itself
                earlier.append((pos[w], c))
        local = np.full(1 << j, base)
        for k, c in earlier:
            runs = local.reshape(-1, 2, 1 << k)  # runs of 2^k prefixes with bit k at 0, 1
            runs += c * spins[:, None]
        doubled = np.multiply.outer(spins, local)  # v at zero, then v at one
        doubled += energy
        energy = doubled.reshape(-1)
    return energy


def _table(model: IsingModel, energy: np.ndarray) -> GibbsTable:
    """The one normalisation site: probabilities proportional to exp(energy), via log-sum-exp."""
    log_z = float(logsumexp(energy))
    probs = energy - log_z
    np.exp(probs, out=probs)
    return GibbsTable(model=model, probs=probs, log_partition=log_z, free=model.free_vertices)


def gibbs_table(model: IsingModel) -> GibbsTable:
    """Normalized probabilities proportional to exp(H), via log-sum-exp."""
    return _table(model, _free_energies(model))


def conditional_table(model: IsingModel, extra_pinning: dict) -> GibbsTable:
    """Table of the conditional measure given additional pinned spins."""
    return gibbs_table(model.with_pinning(extra_pinning))


def marginals(table: GibbsTable) -> np.ndarray:
    """P(spin of free vertex j is the 'one' value), per free vertex."""
    probs = table.probs
    return np.array([probs.reshape(-1, 2, 1 << j)[:, 1].sum() for j in range(table.num_free)])


def mean_and_covariance(table: GibbsTable) -> tuple[np.ndarray, np.ndarray]:
    """Exact first and second central moments over the free vertices."""
    f = table.num_free
    cols = table.rows()[:, list(table.free)].T.astype(np.float64, order="C")
    mean = np.array([float(table.probs @ c) for c in cols])
    cov = np.empty((f, f))
    for i in range(f):
        wi = table.probs * cols[i]
        for j in range(i, f):
            second = float(wi @ cols[j])
            cov[i, j] = cov[j, i] = second - mean[i] * mean[j]
    return mean, cov


def tv_distance(t1: GibbsTable, t2: GibbsTable) -> float:
    """Total variation 0.5 * sum |p - q| between tables on the same index space."""
    if t1.free != t2.free or t1.model.convention != t2.model.convention:
        raise InputError("tables index different spaces")
    return 0.5 * float(np.abs(t1.probs - t2.probs).sum())


def empirical_tv(table: GibbsTable, values: np.ndarray) -> float:
    """TV between the empirical law of the rows of ``values`` (samples, n) and the table."""
    if table.num_free > 20:
        raise CapacityError("empirical TV needs a model small enough to bin exactly")
    emp = np.bincount(table.indices(values), minlength=len(table.probs)) / len(values)
    return 0.5 * float(np.abs(emp - table.probs).sum())


def _edge_event_columns(table: GibbsTable) -> np.ndarray:
    """Indicator of {sigma_u = sigma_v = 1} per edge, over free configs; shape (configs, E)."""
    model = table.model
    if model.convention != ZERO_ONE:
        raise InputError("edge events need the 01 convention")
    ends = model.graph.endpoints
    rows = table.rows()
    return (rows[:, ends[:, 0]] * rows[:, ends[:, 1]]).astype(np.float64, order="C")


def cor2_matrix(table: GibbsTable) -> np.ndarray:
    """Second-order correlation matrix over edge events.

    Entry (uv, wz) is mu(wz | uv) - mu(wz) where uv is the event that both
    endpoints of the edge take value 1; rows of zero-probability events are
    identically zero.
    """
    z = _edge_event_columns(table)
    p = table.probs @ z
    joint = z.T @ (table.probs[:, None] * z)
    num_edges = z.shape[1]
    cor = np.zeros((num_edges, num_edges))
    pos_rows = p > 0.0
    if pos_rows.any():
        cor[pos_rows] = joint[pos_rows] / p[pos_rows, None] - p[None, :]
    return cor


# ---------------------------------------------------------------------------
# Glauber spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Spectral quantities of the single-site heat-bath chain for one model."""

    gap: float
    at_variance_constant: float | None = None
    mlsi_lower_estimate: float | None = None
    notes: str = ""


def _single_flips(model: IsingModel, cap: int):
    """The single-flip structure every spectral routine builds on.

    Returns (energies, probabilities, log Z, partners) where row j of the
    ``(f, configs)`` array ``partners`` is ``idx ^ (1 << j)``: each config
    with free bit j flipped.  Raises CapacityError above ``cap`` free
    vertices and InputError when there are none.
    """
    f = len(model.free_vertices)
    if f > cap:
        raise CapacityError(f"{f} free vertices exceeds the cap {cap}")
    if f == 0:
        raise InputError("model has no free vertices")
    energy = _free_energies(model)
    table = _table(model, energy)
    idx = np.arange(1 << f)
    partners = idx[None, :] ^ (1 << np.arange(f))[:, None]
    return energy, table.probs, table.log_partition, partners


def _transition(energy: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """Heat-bath transition matrix over the single flips ``partners``."""
    f, size = partners.shape
    p_mat = np.zeros((size, size))
    idx = np.arange(size)
    for partner in partners:
        # move prob = mu(partner)/(mu(here)+mu(partner)), stable logistic form
        with np.errstate(over="ignore"):
            move = 1.0 / (1.0 + np.exp(energy - energy[partner]))
        p_mat[idx, partner] += move / f
    p_mat[idx, idx] = 1.0 - p_mat.sum(axis=1)
    return p_mat


def transition_matrix(model: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """Dense heat-bath transition matrix and stationary probabilities.

    A step picks one of the f free vertices uniformly and resamples it from
    its conditional law given the rest; rows sum to one.
    """
    energy, probs, _, partners = _single_flips(model, SPECTRAL_CAP)
    return _transition(energy, partners), probs


def _dirichlet_matrix(model: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """PSD matrix A with phi^T A phi equal to the Glauber Dirichlet form.

    The form is (1/(2f)) * sum over ordered single-flip pairs of
    mu(x)mu(y)/(mu(x)+mu(y)) (phi(x)-phi(y))^2, built directly from the
    weights rather than from the transition matrix.
    """
    energy, probs, log_z, partners = _single_flips(model, SPECTRAL_CAP)
    f, size = partners.shape
    a = np.zeros((size, size))
    idx = np.arange(size)
    for partner in partners:
        log_w = energy + energy[partner] - np.logaddexp(energy, energy[partner]) - log_z
        w = np.exp(log_w) / f
        a[idx, partner] -= w
        a[idx, idx] += w
    return a, probs


def glauber_gap(model: IsingModel, cross_validate: bool = True) -> SpectralReport:
    """Spectral gap computed two independent ways and cross-checked.

    (a) 1 minus the second-largest eigenvalue of the transition matrix
    (symmetrized by the reversibility similarity transform), and (b) the
    second-smallest eigenvalue of the generalized problem A v = lambda D v,
    i.e. the Rayleigh quotient of the Dirichlet form against the variance.
    Raises ValidationFailure if they disagree beyond 1e-9; pass
    ``cross_validate=False`` to skip route (b) in bulk certificate scans.
    """
    p_mat, probs = transition_matrix(model)
    sqrt_p = np.sqrt(probs)
    sym = p_mat * (sqrt_p[:, None] / sqrt_p[None, :])
    sym = 0.5 * (sym + sym.T)
    eigs = np.linalg.eigvalsh(sym)
    gap_eigen = float(1.0 - eigs[-2]) if len(eigs) > 1 else 1.0

    if not cross_validate:
        return SpectralReport(gap=gap_eigen, notes=f"eigenvalue={gap_eigen:.15g}")

    a, probs2 = _dirichlet_matrix(model)
    gen = linalg.eigh(a, np.diag(probs2), eigvals_only=True)
    gap_rayleigh = float(gen[1]) if len(gen) > 1 else 1.0

    if abs(gap_eigen - gap_rayleigh) > 1e-9:
        raise ValidationFailure(
            f"gap routes disagree: eigenvalue {gap_eigen!r} vs Rayleigh {gap_rayleigh!r}"
        )
    return SpectralReport(
        gap=gap_eigen,
        notes=f"eigenvalue={gap_eigen:.15g} rayleigh={gap_rayleigh:.15g}",
    )


def at_variance_constant(model: IsingModel) -> float:
    """sup over phi of Var(phi) / sum_i E[Var(phi | X_{-i})].

    Solved as a generalized symmetric eigenproblem: each conditional-variance
    term is the quadratic form of D(I - E_i) with E_i the single-coordinate
    conditional-expectation projection, assembled independently of the
    transition-matrix code path.
    """
    energy, probs, _, partners = _single_flips(model, SPECTRAL_CAP)
    size = partners.shape[1]
    idx = np.arange(size)
    q = np.zeros((size, size))
    for partner in partners:
        with np.errstate(over="ignore"):
            keep = 1.0 / (1.0 + np.exp(energy[partner] - energy))
        # D * E_j is symmetric: off-diagonal mu_x mu_y / (mu_x + mu_y)
        q[idx, idx] += probs * (1.0 - keep)
        q[idx, partner] -= probs * (1.0 - keep)
    sqrt_p = np.sqrt(probs)
    t = q / sqrt_p[:, None] / sqrt_p[None, :]
    basis = linalg.null_space(sqrt_p[None, :])
    m = basis.T @ t @ basis
    m = 0.5 * (m + m.T)
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest <= 0:
        raise ValidationFailure("conditional-variance form is numerically singular")
    return 1.0 / smallest


def _entropy(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Ent_mu[f] = E[f log f] - E[f] log E[f] columnwise, with 0 log 0 = 0."""
    vals = np.where(values > 0, values, 1.0)
    ef = probs @ values
    ef_safe = np.where(ef > 0, ef, 1.0)
    return probs @ (values * np.log(vals)) - ef * np.log(ef_safe)


def mlsi_lower_estimate(model: IsingModel, restarts: int, seed: int,
                        iterations: int = 80, step: float = 0.3) -> float:
    """Heuristic upper-bound estimate of the MLSI constant 1 - sup Ent[Pf]/Ent[f].

    Multi-restart projected gradient ascent on the entropy ratio over
    positive test functions; the returned value is the best (largest) ratio's
    complement and only ever overestimates the true constant.  A probe, not a
    certificate.
    """
    energy, probs, _, partners = _single_flips(model, MLSI_CAP)
    p_mat = _transition(energy, partners)
    rng = substream(seed, PROBE)
    g = rng.normal(0.0, 1.0, size=(len(probs), restarts))
    fvals = np.exp(g)
    fvals /= probs @ fvals  # normalize E_mu f = 1
    best = 0.0
    eta = step
    for it in range(iterations):
        pf = p_mat @ fvals
        ent_f = _entropy(fvals, probs)
        ent_pf = _entropy(pf, probs)
        ok = ent_f > 1e-13
        ratio = np.where(ok, ent_pf / np.where(ok, ent_f, 1.0), 0.0)
        best = max(best, float(ratio.max(initial=0.0)))
        # gradient of Ent[Pf]/Ent[f] in f, then multiplicative (log-space) step
        mean_f = probs @ fvals
        grad_ent_f = probs[:, None] * (np.log(np.where(fvals > 0, fvals, 1.0)) - np.log(mean_f)[None, :])
        pf_safe = np.where(pf > 0, pf, 1.0)
        grad_ent_pf = p_mat.T @ (probs[:, None] * (np.log(pf_safe) - np.log(mean_f)[None, :]))
        denom = np.where(ok, ent_f, 1.0)
        grad = (grad_ent_pf - ratio[None, :] * grad_ent_f) / denom[None, :]
        grad *= fvals  # d/d(log f)
        norm = np.linalg.norm(grad, axis=0, keepdims=True)
        norm = np.where(norm > 0, norm, 1.0)
        fvals = fvals * np.exp(eta * grad / norm)
        fvals /= probs @ fvals
        if (it + 1) % 20 == 0:
            eta *= 0.5
    pf = p_mat @ fvals
    ent_f = _entropy(fvals, probs)
    ent_pf = _entropy(pf, probs)
    ok = ent_f > 1e-13
    ratio = np.where(ok, ent_pf / np.where(ok, ent_f, 1.0), 0.0)
    best = max(best, float(ratio.max(initial=0.0)))
    return 1.0 - best


# ---------------------------------------------------------------------------
# Exhaustive pinning / tilt sweep of the edge-event correlation matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cor2SweepReport:
    """Worst-case row/column/operator norms of Cor2 over pinnings and tilts."""

    max_row_sum: float
    max_col_sum: float
    max_opnorm: float
    per_edge_row_max: np.ndarray
    per_edge_col_max: np.ndarray
    argmax_row: tuple[float, dict]
    argmax_col: tuple[float, dict]
    argmax_opnorm: tuple[float, dict]
    interpolation_ok: bool
    matrices_checked: int
    mode: str


def _pinning_from_code(code: int, n: int) -> dict[int, int]:
    """Ternary decode: digit 0 = free, 1 = pinned to 0, 2 = pinned to 1."""
    pin = {}
    for v in range(n):
        digit = (code // 3**v) % 3
        if digit == 1:
            pin[v] = 0
        elif digit == 2:
            pin[v] = 1
    return pin


def sup_cor2_over_pinnings(model01: IsingModel, theta_grid, pinning_codes=None,
                           chunk: int = 2048) -> Cor2SweepReport:
    """Maximize Cor2 row sums, column sums and operator norm over all pinnings.

    Pinnings are enumerated as ternary codes over the vertices (free /
    pinned-0 / pinned-1) in lexicographic order, exhaustively by default;
    pass explicit ``pinning_codes`` for a sampled sweep.  Ties in the argmax
    go to the earliest (theta, code) cell visited.  Also verifies the
    operator-norm interpolation bound for every enumerated matrix.
    """
    if model01.convention != ZERO_ONE:
        raise InputError("the sweep expects a 01-convention model")
    if model01.pinning:
        raise InputError("the sweep expects a fully free model")
    n = model01.n
    mode = "exact"
    if pinning_codes is None:
        if n > PINNING_SWEEP_CAP:
            raise CapacityError(f"{n} vertices exceeds the 3^n sweep cap {PINNING_SWEEP_CAP}")
        pinning_codes = np.arange(3**n, dtype=np.int64)
    else:
        pinning_codes = np.asarray(pinning_codes, dtype=np.int64)
        mode = "sampled"
    energy = _free_energies(model01)
    size = 1 << n
    table = _table(model01, energy)
    z = _edge_event_columns(table)  # (configs, E)
    m_counts = z.sum(axis=1)
    num_edges = z.shape[1]
    spins = table.rows()  # (configs, n) 0/1 spins for pinning-consistency masks

    best = {
        "row": (-np.inf, None),
        "col": (-np.inf, None),
        "op": (-np.inf, None),
    }
    per_edge_row = np.zeros(num_edges)
    per_edge_col = np.zeros(num_edges)
    interpolation_ok = True
    checked = 0

    for theta in theta_grid:
        if not 0.0 <= theta < 1.0:
            raise InputError("theta grid values must lie in [0, 1)")
        log_w = energy + m_counts * np.log1p(-theta)
        w_all = np.exp(log_w - log_w.max())
        for start in range(0, len(pinning_codes), chunk):
            codes = pinning_codes[start:start + chunk]
            digits = (codes[:, None] // 3 ** np.arange(n)[None, :]) % 3  # (B, n)
            mask = np.ones((len(codes), size), dtype=bool)
            for v in range(n):  # digit 0 leaves v free, digit d >= 1 pins it to d - 1
                d = digits[:, v, None]
                mask &= (d == 0) | (d - 1 == spins[None, :, v])
            w = mask * w_all[None, :]
            totals = w.sum(axis=1, keepdims=True)
            w = w / totals
            p = w @ z  # (B, E)
            joint = np.einsum("bc,ce,cf->bef", w, z, z)
            pos = p > 0
            safe_p = np.where(pos, p, 1.0)
            cor = joint / safe_p[:, :, None] - p[:, None, :]
            cor[~pos] = 0.0
            abs_cor = np.abs(cor)
            row_sums = abs_cor.sum(axis=2)  # (B, E)
            col_sums = abs_cor.sum(axis=1)  # (B, E)
            opnorms = np.linalg.svd(cor, compute_uv=False)[:, 0] if num_edges else np.zeros(len(codes))
            per_edge_row = np.maximum(per_edge_row, row_sums.max(axis=0))
            per_edge_col = np.maximum(per_edge_col, col_sums.max(axis=0))
            row_bound = row_sums.max(axis=1)
            col_bound = col_sums.max(axis=1)
            if not (opnorms <= np.sqrt(row_bound * col_bound) * (1 + 1e-9) + 1e-12).all():
                interpolation_ok = False
            checked += len(codes)

            for key, stat in (("row", row_bound), ("col", col_bound), ("op", opnorms)):
                i = int(stat.argmax())
                if stat[i] > best[key][0]:
                    best[key] = (float(stat[i]),
                                 {"theta": float(theta),
                                  "pinning": _pinning_from_code(int(codes[i]), n)})

    return Cor2SweepReport(
        max_row_sum=best["row"][0],
        max_col_sum=best["col"][0],
        max_opnorm=best["op"][0],
        per_edge_row_max=per_edge_row,
        per_edge_col_max=per_edge_col,
        argmax_row=best["row"],
        argmax_col=best["col"],
        argmax_opnorm=best["op"],
        interpolation_ok=interpolation_ok,
        matrices_checked=checked,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Table export
# ---------------------------------------------------------------------------

def table_to_json_dict(table: GibbsTable) -> dict:
    return {
        "free_vertices": list(table.free),
        "convention": table.model.convention,
        "log_partition": table.log_partition,
        "probs": table.probs.tolist(),
    }


def table_to_binary(table: GibbsTable) -> bytes:
    """Little-endian binary: magic, free count, free vertex order, probs, log Z."""
    parts = [_MAGIC, struct.pack("<Q", table.num_free)]
    parts.append(np.asarray(table.free, dtype="<u8").tobytes())
    parts.append(table.probs.astype("<f8").tobytes())
    parts.append(struct.pack("<d", table.log_partition))
    return b"".join(parts)


def table_from_binary(data: bytes) -> dict:
    """Decode the binary table format back into arrays (header + probs)."""
    if data[:8] != _MAGIC:
        raise InputError("bad table magic")
    (f,) = struct.unpack_from("<Q", data, 8)
    off = 16
    free = np.frombuffer(data, dtype="<u8", count=f, offset=off)
    off += 8 * f
    probs = np.frombuffer(data, dtype="<f8", count=1 << f, offset=off)
    off += 8 * (1 << f)
    (log_z,) = struct.unpack_from("<d", data, off)
    return {"free_vertices": free.astype(int).tolist(), "probs": probs.copy(),
            "log_partition": log_z}
