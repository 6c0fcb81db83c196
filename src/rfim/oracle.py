"""Brute-force ground truth for small models.

Gibbs tables are full probability vectors over the free-vertex configurations
of a model, indexed so that bit j of a config index carries the spin of the
j-th free vertex in ascending vertex order (bit 0 is the least significant).
``GibbsTable.rows`` and ``GibbsTable.indices`` are the one place outside this
module that reads or writes this format: every other layer maps between
config indices and full spin vectors through them.  ``_free_energies``
enumerates a model, or the model induced on a region of it, once, doubling
at each free vertex, and ``_normalise`` alone turns energies into
probabilities and log Z, for one table (``_table``) or for a batch of them
along an axis.  The spectral routines share one
single-flip enumeration, ``_single_flips``, and each builds its own weights.
The single-flip operators are CSR matrices with f+1 nonzeros per row.
``glauber_gap`` reads the gap two independent ways, both by ARPACK (``eigsh``)
from the fixed start ``_start_vector``: from the symmetrized transition
matrix, and from the Dirichlet form against the variance; up to 128
configurations both run dense solvers on the same matrices instead.  Its
report also carries the approximate-tensorization constant, which for
heat-bath Glauber is exactly 1/(f * gap), so no routine here builds a dense
2^f x 2^f matrix above that size.  Everything here is deterministic and
exact up to float arithmetic; sizes are guarded by hard caps.  Tables are
immutable once built and safe to share.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from .errors import CapacityError, InputError, ValidationFailure
from .model import SPIN_VALUES, ZERO_ONE, IsingModel
from .rng import PROBE, substream

GIBBS_CAP = 24
SPECTRAL_CAP = 16
# Empirical laws are binned over all 2^f configurations; the boosted tables
# hold (realizations, 2^f) probabilities.
BINNING_CAP = 20
BOOST_CAP = 16
MLSI_CAP = 10
PINNING_SWEEP_CAP = 10
# The sampled sweep holds the (2^n, 1+E+E^2) columns: a 116 MiB peak at n=14
# on 3-regular graphs, about 4.5x more per two vertices.
SAMPLED_SWEEP_CAP = 14

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

        Raises InputError unless every row passes ``model.check_values``.
        """
        vals = self.model.check_values(values).reshape(-1, self.model.n)
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


def _free_energies(model: IsingModel, region=None) -> np.ndarray:
    """Hamiltonian of every free-vertex configuration, pinned spins folded in.

    Doubles over the free vertices in ascending order: the j-th free vertex v
    splits the 2^j energies so far into "v at zero" and "v at one" halves, each
    plus v's spin times its local field, read from the neighbour table: h_v,
    c * s per pinned neighbour and c * x_w per earlier free neighbour w, where
    x_w is bit pos(w) of the prefix.  Terms involving only pinned spins are
    never read, so analytically equal conditional measures stay bit-identical.

    With a sorted ``region``, enumerates the model induced on it instead: its
    free vertices are the region's unpinned ones, and neighbours outside the
    region are skipped.  The rows are the parent's, whose neighbours ascend as
    the induced model's would, so the float operations are those of
    ``_free_energies(induced_model(model, region))`` without building it.
    The size is checked against ``GIBBS_CAP`` before anything is allocated.
    """
    if region is None:
        free, pinned = model.free_vertices, model.pinning
    else:
        free = [v for v in region if v not in model.pinning]
        pinned = {v: model.pinning[v] for v in region if v in model.pinning}
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
            if w in pinned:
                base += c * pinned[w]
            elif pos.get(w, j) < j:  # padding slots name v itself; w outside the region is skipped
                earlier.append((pos[w], c))
        local = np.full(1 << j, base)
        for k, c in earlier:
            runs = local.reshape(-1, 2, 1 << k)  # runs of 2^k prefixes with bit k at 0, 1
            runs += c * spins[:, None]
        energy = _extend(energy, spins, local)
    return energy


def _extend(energy: np.ndarray, spins: np.ndarray, local: np.ndarray) -> np.ndarray:
    """``energy`` over 2^j prefixes, doubled by one more vertex as bit j.

    ``spins`` holds the [zero, one] spin values and ``local`` the vertex's
    local field per prefix; the "zero" half comes first, then the "one"
    half, each the prefix's energy plus the spin times its local field.
    """
    doubled = np.multiply.outer(spins, local)
    doubled += energy
    return doubled.reshape(-1)


def _normalise(energy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities proportional to exp(energy) along the last axis, and log Z per slice.

    log Z = top + log sum exp(energy - top), top the largest energy.  The
    terms at the top, each exactly 1, are taken out of the sum and come back
    as log(count) + log1p(rest / count), so a remainder far below 1 keeps its
    digits.  This is also how scipy.special evaluates log-sum-exp, and the
    result matches it bit for bit at a fraction of its fixed cost.  The
    probabilities are exp(energy - log Z): dividing exp(energy - top) by the
    sum rounds differently and moves tiny spectral gaps.
    """
    top = energy.max(axis=-1, keepdims=True)
    terms = energy - top
    at_top = terms == 0.0
    np.exp(terms, out=terms)
    terms[at_top] = 0.0
    count = np.count_nonzero(at_top, axis=-1, keepdims=True)
    log_z = np.log1p(terms.sum(axis=-1, keepdims=True) / count) + np.log(count) + top
    probs = np.subtract(energy, log_z, out=terms)
    np.exp(probs, out=probs)
    return probs, np.squeeze(log_z, axis=-1)


def _table(model: IsingModel, energy: np.ndarray) -> GibbsTable:
    """The Gibbs table of ``model`` from its ``_free_energies``, normalised by ``_normalise``."""
    probs, log_z = _normalise(energy)
    return GibbsTable(model=model, probs=probs, log_partition=float(log_z),
                      free=model.free_vertices)


def gibbs_table(model: IsingModel) -> GibbsTable:
    """Exact probabilities proportional to exp(H) over the free configurations, and log Z."""
    return _table(model, _free_energies(model))


def marginals(table: GibbsTable) -> np.ndarray:
    """P(spin of free vertex j is the 'one' value), per free vertex."""
    probs = table.probs
    return np.array([probs.reshape(-1, 2, 1 << j)[:, 1].sum() for j in range(table.num_free)])


MOMENT_BLOCK = 1 << 22  # products held at once by _centred_moments


def _centred_moments(probs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted means and centred second moments E[(x - m)(x - m)^T] of ``values``.

    ``values`` holds k functions of the configuration, shape (k, configs).
    ``probs`` weighs the configurations, shape (configs,) or (rows, configs)
    for a batch; the results have shapes (k,) and (k, k), or (rows, k) and
    (rows, k, k).  The mean is sum p x / sum p, both sums taken in the same
    order, so a constant x has its value as mean and a moment of exactly 0;
    the deviations are taken before they are multiplied, which keeps every
    variance nonnegative where the second moment less the squared mean
    leaves rounding of either sign.  Weight rows go in blocks of about
    ``MOMENT_BLOCK`` deviations, and functions in blocks of about as many
    products, so beyond one float copy of ``values`` (which holds the
    deviations in place when there is one row of weights) a large table
    needs little more memory and a batch needs no (rows, k, configs) array.
    """
    weights = np.atleast_2d(probs)
    x = np.array(values, dtype=np.float64)
    k, size = x.shape
    mean = np.empty((len(weights), k))
    moment = np.empty((len(weights), k, k))
    block = max(1, MOMENT_BLOCK // max(k * size, 1))  # weight rows per block
    step = max(1, MOMENT_BLOCK // max(size, 1))  # functions per block of products
    xs = x[None]  # (1, k, configs)
    for start in range(0, len(weights), block):
        w = weights[start:start + block, None, :]  # (b, 1, configs)
        total = w.sum(axis=-1)
        m = mean[start:start + block]
        for lo in range(0, k, step):
            m[:, lo:lo + step] = (w * x[lo:lo + step]).sum(axis=-1)
        m /= total
        dev = np.subtract(xs, m[:, :, None], out=xs if len(weights) == 1 else None)
        for lo in range(0, k, step):
            moment[start:start + block, lo:lo + step] = (
                (dev[:, lo:lo + step] * w) @ dev.swapaxes(1, 2) / total[:, :, None])
    return (mean[0], moment[0]) if np.ndim(probs) == 1 else (mean, moment)


def mean_and_covariance(table: GibbsTable) -> tuple[np.ndarray, np.ndarray]:
    """Exact first and second central moments over the free vertices."""
    return _centred_moments(table.probs, table.rows()[:, list(table.free)].T)


def tv_distance(t1: GibbsTable, t2: GibbsTable) -> float:
    """Total variation 0.5 * sum |p - q| between tables on the same index space."""
    if t1.free != t2.free or t1.model.convention != t2.model.convention:
        raise InputError("tables index different spaces")
    return 0.5 * float(np.abs(t1.probs - t2.probs).sum())


def empirical_tv(table: GibbsTable, values: np.ndarray) -> float:
    """TV between the empirical law of the rows of ``values`` (samples, n) and the table."""
    if table.num_free > BINNING_CAP:
        raise CapacityError("empirical TV needs a model small enough to bin exactly")
    idx = table.indices(values)
    if len(idx) == 0:
        raise InputError("empirical TV needs at least one sample")
    emp = np.bincount(idx, minlength=len(table.probs)) / len(idx)
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


def _single_flip_csr(partners: np.ndarray, off: np.ndarray, diag: np.ndarray) -> sparse.csr_array:
    """CSR matrix with ``off[j, x]`` at (x, partners[j, x]) and ``diag[x]`` at (x, x)."""
    size = partners.shape[1]
    idx = np.arange(size)
    rows = np.broadcast_to(idx, (len(partners) + 1, size)).ravel()
    cols = np.vstack([partners, idx]).ravel()
    return sparse.csr_array((np.vstack([off, diag]).ravel(), (rows, cols)), shape=(size, size))


def _transition(energy: np.ndarray, partners: np.ndarray) -> sparse.csr_array:
    """Heat-bath transition matrix over the single flips ``partners``, as CSR."""
    f = len(partners)
    # move prob = mu(partner)/(mu(here)+mu(partner)), stable logistic form
    with np.errstate(over="ignore"):
        move = 1.0 / (1.0 + np.exp(energy - energy[partners]))
    move /= f
    return _single_flip_csr(partners, move, 1.0 - move.sum(axis=0))


def _dirichlet_matrix(energy: np.ndarray, log_z: float, partners: np.ndarray) -> sparse.csr_array:
    """PSD matrix A, as CSR, with phi^T A phi equal to the Glauber Dirichlet form.

    The form is (1/(2f)) * sum over ordered single-flip pairs of
    mu(x)mu(y)/(mu(x)+mu(y)) (phi(x)-phi(y))^2, built directly from the
    weights rather than from the transition matrix.
    """
    log_w = energy + energy[partners] - np.logaddexp(energy, energy[partners]) - log_z
    w = np.exp(log_w) / len(partners)
    return _single_flip_csr(partners, -w, w.sum(axis=0))


def _start_vector(size: int) -> np.ndarray:
    """Fixed Gaussian start for the iterative eigensolvers, so their bits repeat.

    ARPACK's own start is random; a Gaussian has, almost surely, a component
    along every eigenvector, which a structured vector such as all-ones can
    lack by symmetry.
    """
    return substream(0, PROBE, size).standard_normal(size)


def glauber_gap(model: IsingModel, cross_validate: bool = True) -> SpectralReport:
    """Spectral gap computed two independent ways and cross-checked.

    (a) 1 minus the second-largest eigenvalue of the CSR transition matrix P,
    symmetrized by the reversibility similarity transform to S, by ARPACK
    (``eigsh``, k=2, largest algebraic), read off as the Rayleigh quotient of
    I - S at that eigenvalue's Ritz vector.  (b) The smallest value of the
    Dirichlet form against the variance over non-constant functions, i.e. the
    lowest eigenvalue of D^-1/2 A D^-1/2 (A from ``_dirichlet_matrix``,
    D = diag(mu)) orthogonal to sqrt(mu), by ARPACK (k=1, smallest algebraic)
    with sqrt(mu) lifted to eigenvalue 2, read off as the quotient at the
    Ritz vector.  The routes share no matrix.  (Single-vector LOBPCG stalls
    on the clustered spectra of strong fields, f eigenvalues within 2e-4 of
    the gap at fields of +-5, and then misses the cross-check.)  Both solvers
    start from the fixed ``_start_vector`` with 3f Lanczos vectors, so
    repeated calls return the same bits and such clusters do not stall the
    restarts.  Up to 128 configurations, where dense is faster, both routes
    run dense ``eigvalsh`` on the same two matrices.  Raises
    ValidationFailure if the routes disagree beyond 1e-9 (or either is NaN);
    pass ``cross_validate=False`` to skip route (b) in bulk certificate scans.

    The report also carries the approximate-tensorization constant
    sup_phi Var(phi) / sum_i E[Var(phi | X_{-i})].  Each heat-bath resampling
    E_i is a mu-orthogonal projection, so the Dirichlet form is
    (1/f) sum_i E[Var_i phi] and the constant is exactly 1/(f * gap); it is
    None when the computed gap is not positive, or when the cross-checked
    routes differ by more than 1e-6 relative: a gap near the absolute floor
    passes the check while its inverse is off by orders of magnitude.
    """
    energy, probs, log_z, partners = _single_flips(model, SPECTRAL_CAP)
    f, size = partners.shape
    root = np.sqrt(probs)
    sym = sparse.diags_array(root) @ _transition(energy, partners) @ sparse.diags_array(1.0 / root)
    sym = 0.5 * (sym + sym.T)
    iterative = size > 128
    if iterative:
        vals, vecs = splinalg.eigsh(sym, k=2, which="LA", ncv=3 * f, v0=_start_vector(size))
        ritz = vecs[:, vals.argmin()]  # unit norm; the quotient avoids cancelling in 1 - lambda_2
        gap = float(ritz @ (ritz - sym @ ritz))
    else:
        gap = float(1.0 - np.linalg.eigvalsh(sym.toarray())[-2])
    at = 1.0 / (f * gap) if gap > 0 else None
    notes = f"eigenvalue={gap:.15g}"
    if not cross_validate:
        return SpectralReport(gap=gap, at_variance_constant=at, notes=notes)

    # In psi = sqrt(mu) phi the variance of a centred phi is |psi|^2.
    inv_root = sparse.diags_array(1.0 / root)
    form = inv_root @ _dirichlet_matrix(energy, log_z, partners) @ inv_root
    if iterative:
        def lifted(x):  # the spectrum lies in [0, 1], so the gap becomes the lowest eigenvalue
            x = x.ravel()
            return form @ x + 2.0 * root * (root @ x)

        op = splinalg.LinearOperator(form.shape, matvec=lifted, dtype=np.float64)
        _, vecs = splinalg.eigsh(op, k=1, which="SA", ncv=3 * f, v0=_start_vector(size))
        psi = vecs[:, 0]
        gap_rayleigh = float(psi @ (form @ psi))
    else:
        gap_rayleigh = float(np.linalg.eigvalsh(form.toarray())[1])

    if not abs(gap - gap_rayleigh) <= 1e-9:
        raise ValidationFailure(
            f"gap routes disagree: eigenvalue {gap!r} vs Rayleigh {gap_rayleigh!r}"
        )
    notes = f"{notes} rayleigh={gap_rayleigh:.15g}"
    if at is not None and abs(gap - gap_rayleigh) > 1e-6 * gap:
        at = None
        notes += " at_variance_constant=None: the routes differ by more than 1e-6 relative"
    return SpectralReport(gap=gap, at_variance_constant=at, notes=notes)


def at_variance_constant(model: IsingModel) -> float:
    """sup over phi of Var(phi) / sum_i E[Var(phi | X_{-i})], read from ``glauber_gap``.

    Raises ValidationFailure when the report carries none: the gap is
    numerically not positive or not resolved to 1e-6 relative.
    """
    report = glauber_gap(model)
    if report.at_variance_constant is None:
        raise ValidationFailure(f"the gap does not resolve the AT constant: {report.notes}")
    return report.at_variance_constant


def _entropy(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Ent_mu[f] = E[f log f] - E[f] log E[f] columnwise, with 0 log 0 = 0."""
    vals = np.where(values > 0, values, 1.0)
    ef = probs @ values
    ef_safe = np.where(ef > 0, ef, 1.0)
    return probs @ (values * np.log(vals)) - ef * np.log(ef_safe)


def mlsi_lower_estimate(model: IsingModel, restarts: int, seed: int,
                        iterations: int = 80) -> float:
    """Heuristic upper-bound estimate of the MLSI constant 1 - sup Ent[Pf]/Ent[f].

    Multi-restart projected gradient ascent on the entropy ratio over
    positive test functions, from a log-space step of 0.3 halved every 20
    iterations; the returned value is the best (largest) ratio's
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
    eta = 0.3
    for it in range(iterations + 1):  # the last pass only scores the final iterate
        pf = p_mat @ fvals
        ent_f = _entropy(fvals, probs)
        ent_pf = _entropy(pf, probs)
        ok = ent_f > 1e-13
        ratio = np.where(ok, ent_pf / np.where(ok, ent_f, 1.0), 0.0)
        best = max(best, float(ratio.max(initial=0.0)))
        if it == iterations:
            break
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


def _ternary_sums(columns: np.ndarray, lead: int):
    """Sums of the rows of ``columns`` over the configurations consistent with each code.

    ``columns`` has shape (2,) * lead + (2^m, c): axis j < lead is the spin
    of the (j+1)-th highest vertex and each row of the trailing block is a
    configuration of the m lowest ones, bit v for vertex v.  Each vertex axis
    goes through the 3 x 2 matrix [[1, 1], [1, 0], [0, 1]] (free, pinned-0,
    pinned-1), highest vertex first: Yates's algorithm for the ternary zeta
    transform, O(3^m c) per block.  The leading axes are split by recursion
    into 3^lead blocks of 3^m codes, yielded in code order: read in C order,
    the digits come out as ``_pinning_from_code`` reads them, so row r of a
    block is the code whose m low base-3 digits spell r.
    """
    if lead:
        for part in (columns[0] + columns[1], columns[0], columns[1]):
            yield from _ternary_sums(part, lead - 1)
        return
    sums = columns[None]
    while sums.shape[1] > 1:  # (codes so far, configurations of the rest, c)
        pre, size, c = sums.shape
        halves = sums.reshape(pre, 2, size // 2, c)
        out = np.empty((pre, 3, size // 2, c))
        np.add(halves[:, 0], halves[:, 1], out=out[:, 0])
        out[:, 1:] = halves
        sums = out.reshape(3 * pre, size // 2, c)
    yield sums[:, 0]


def _sliced_sums(columns: np.ndarray, weights: np.ndarray, n: int, codes: np.ndarray, chunk: int):
    """The same sums, of ``weights`` times the rows of ``columns``, for explicit ``codes``.

    Each code fixes its pinned axes of the (2,)^n views, axis 0 the highest
    vertex, and sums the 2^free rows left; ``chunk`` codes go to a block.
    """
    cube = columns.reshape((2,) * n + (-1,))
    w = weights.reshape((2,) * n)
    for start in range(0, len(codes), chunk):
        digits = (codes[start:start + chunk, None] // 3 ** np.arange(n - 1, -1, -1)) % 3  # (B, n)
        picks = [tuple(d - 1 if d else slice(None) for d in row) for row in digits.tolist()]
        yield np.array([w[p].reshape(-1) @ cube[p].reshape(-1, columns.shape[1]) for p in picks])


def _cor_from_sums(sums: np.ndarray, num_edges: int) -> np.ndarray:
    """(B, E, E) Cor2 matrices from per-code sums [S0, S1, S2] of the weighted [1, z, z (x) z].

    Entry (i, j) is mu(j | i) - mu(j) = S2_ij / S1_i - S1_j / S0; rows with
    S1_i = 0 are zero.
    """
    s0 = sums[:, :1]
    s1 = sums[:, 1:1 + num_edges]
    s2 = sums[:, 1 + num_edges:].reshape(len(sums), num_edges, num_edges)
    pos = s1 > 0
    cor = s2 / np.where(pos, s1, 1.0)[:, :, None] - (s1 / s0)[:, None, :]
    cor[~pos] = 0.0
    return cor


def _opnorms(cor: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in the batch."""
    if not cor.shape[1]:
        return np.zeros(len(cor))
    return np.linalg.svd(cor, compute_uv=False)[:, 0]


def _live_opnorms(cor: np.ndarray, live: np.ndarray) -> np.ndarray:
    """``_opnorms`` from each matrix's ``live`` rows and columns alone.

    Deleting a row and a column that are both zero leaves the nonzero
    singular values unchanged, so the codes are grouped by their number k of
    live edges and each group runs one batched SVD on k x k blocks.
    """
    counts = live.sum(axis=1)
    out = np.zeros(len(cor))
    for k in np.unique(counts[counts > 0]).tolist():
        sel = np.flatnonzero(counts == k)
        idx = np.nonzero(live[sel])[1].reshape(len(sel), k)
        block = cor[sel[:, None, None], idx[:, :, None], idx[:, None, :]]
        out[sel] = np.abs(block[:, 0, 0]) if k == 1 else _opnorms(block)
    return out


def sup_cor2_over_pinnings(model01: IsingModel, theta_grid, pinning_codes=None,
                           chunk: int = 2048) -> Cor2SweepReport:
    """Maximize Cor2 row sums, column sums and operator norm over all pinnings.

    Pinnings are ternary codes over the vertices (``_pinning_from_code``),
    all 3^n of them by default; pass explicit ``pinning_codes`` for a sampled
    sweep.  At each theta of the grid the configurations weigh
    exp(H) (1-theta)^{#(1,1)-edges}, and a code's Cor2 matrix is read off the
    sums S0, S1, S2 of the weighted columns [1, z, z (x) z] (z the edge
    events) over the configurations consistent with it (``_cor_from_sums``).

    Exhaustive mode takes the sums of all codes by the ternary zeta transform
    ``_ternary_sums``, O(3^n (1 + E + E^2)) per theta, in blocks of at most
    ``chunk`` codes, and runs the SVD on live rows and columns only: an edge
    with an endpoint pinned to 0, or both pinned to 1, has a zero row and
    column.  Explicit codes slice off their pinned axes (``_sliced_sums``),
    O(sum of 2^free (1 + E + E^2)) per theta, with a full SVD; run on
    ``np.arange(3**n)`` it is the independent check on the transform.  The
    exhaustive sweep is capped at ``PINNING_SWEEP_CAP`` vertices and the
    sampled one, which holds all 2^n columns, at ``SAMPLED_SWEEP_CAP``.

    Each statistic is kept per (theta, code) cell.  The report holds its
    maximum, and as argmax the earliest cell (theta in grid order, then code
    order) within 1e-12 relative of it, so that exact ties, which pinnings
    cut off from an edge make common, do not move with rounding.  Also
    verifies the operator-norm interpolation bound on every matrix.  Inputs
    are checked before any enumeration.
    """
    if model01.convention != ZERO_ONE:
        raise InputError("the sweep expects a 01-convention model")
    if model01.pinning:
        raise InputError("the sweep expects a fully free model")
    thetas = [float(t) for t in theta_grid]
    if not thetas or not all(0.0 <= t < 1.0 for t in thetas):
        raise InputError("the theta grid must be non-empty, with values in [0, 1)")
    if chunk < 1:
        raise InputError("chunk must be at least 1")
    n = model01.n
    exhaustive = pinning_codes is None
    if exhaustive:
        if n > PINNING_SWEEP_CAP:
            raise CapacityError(f"{n} vertices exceeds the 3^n sweep cap {PINNING_SWEEP_CAP}")
        num_codes = 3**n
        digits = 0  # trailing digits per block: at most chunk codes
        while digits < n and 3 ** (digits + 1) <= chunk:
            digits += 1
    else:
        if n > SAMPLED_SWEEP_CAP:
            raise CapacityError(f"{n} vertices exceeds the sampled sweep cap {SAMPLED_SWEEP_CAP}")
        codes = np.asarray(pinning_codes, dtype=np.int64)
        if codes.ndim != 1 or not len(codes) or codes.min() < 0 or codes.max() >= 3**n:
            raise InputError("pinning codes must be a non-empty list of integers in [0, 3^n)")
        num_codes = len(codes)
    energy = _free_energies(model01)
    table = _table(model01, energy)
    z = _edge_event_columns(table)  # (configs, E)
    size, num_edges = z.shape
    m_counts = z.sum(axis=1)
    columns = np.hstack([np.ones((size, 1)), z, (z[:, :, None] * z[:, None, :]).reshape(size, -1)])

    stats = np.empty((3, len(thetas), num_codes))  # max row sum, max col sum, opnorm per cell
    per_edge_row = np.zeros(num_edges)
    per_edge_col = np.zeros(num_edges)
    interpolation_ok = True
    for t, theta in enumerate(thetas):
        log_w = energy + m_counts * np.log1p(-theta)
        w = np.exp(log_w - log_w.max())
        if exhaustive:
            lead = n - digits
            weighted = (columns * w[:, None]).reshape((2,) * lead + (1 << digits, -1))
            blocks = _ternary_sums(weighted, lead)
        else:
            blocks = _sliced_sums(columns, w, n, codes, chunk)
        start = 0
        for sums in blocks:
            cor = _cor_from_sums(sums, num_edges)
            abs_cor = np.abs(cor)
            row_sums = abs_cor.sum(axis=2)  # (B, E)
            col_sums = abs_cor.sum(axis=1)  # (B, E)
            if exhaustive:
                opnorms = _live_opnorms(cor, (row_sums > 0) | (col_sums > 0))
            else:
                opnorms = _opnorms(cor)
            per_edge_row = np.maximum(per_edge_row, row_sums.max(axis=0, initial=0.0))
            per_edge_col = np.maximum(per_edge_col, col_sums.max(axis=0, initial=0.0))
            row_bound = row_sums.max(axis=1, initial=0.0)
            col_bound = col_sums.max(axis=1, initial=0.0)
            if not (opnorms <= np.sqrt(row_bound * col_bound) * (1 + 1e-9) + 1e-12).all():
                interpolation_ok = False
            stats[:, t, start:start + len(cor)] = row_bound, col_bound, opnorms
            start += len(cor)

    def best(stat):
        top = float(stat.max())
        t, i = divmod(int(np.argmax(stat >= top * (1 - 1e-12))), num_codes)
        code = i if exhaustive else int(codes[i])
        return top, {"theta": thetas[t], "pinning": _pinning_from_code(code, n)}

    argmax_row, argmax_col, argmax_op = (best(stat) for stat in stats)
    return Cor2SweepReport(
        max_row_sum=argmax_row[0],
        max_col_sum=argmax_col[0],
        max_opnorm=argmax_op[0],
        per_edge_row_max=per_edge_row,
        per_edge_col_max=per_edge_col,
        argmax_row=argmax_row,
        argmax_col=argmax_col,
        argmax_opnorm=argmax_op,
        interpolation_ok=interpolation_ok,
        matrices_checked=len(thetas) * num_codes,
        mode="exact" if exhaustive else "sampled",
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
