"""Brute-force ground truth for small models.

Gibbs tables are full probability vectors over the free-vertex configurations
of a model, indexed so that bit j of a config index carries the spin of the
j-th free vertex in ascending vertex order (bit 0 is the least significant).
That is the one layout of every spin code in the package, and ``_encode`` and
``_decode`` are the one map between spin rows and codes: ``GibbsTable.rows``
and ``GibbsTable.indices`` call them, and so do the coded replica batches of
``dynamics`` and the coded stages of ``sampler``, whose codes index the
ascending list of the vertices they update.  Two layers split probabilities
by a vertex's index bit themselves: ``dynamics.grand_coupled_update`` and
``slwsm.wsm_delta``.  ``_free_energies`` enumerates a model, or the model
induced on a region of it, once, doubling at each free vertex; given rows of
fields, the same pass gives each row the energies of the model with that
field, float for float.  Field rows are the one way the enumeration layer
varies a model, and ``_field_tables`` is the one pass over them: it
normalises their tables a block of rows at a time, each block held under
``TABLE_BLOCK``.  ``slwsm`` reads it for every WSM field trial of a ball,
pinning the ball's ring to each sign as the rows h + b and h - b (b the
ball's couplings into the ring), and for each boosted table, the row h + y
of its realization.  ``_normalise`` alone turns energies into probabilities
and log Z, for one table (``_table``) or for a batch of them along an axis.
The spectral routines share one single-flip enumeration, ``_single_flips``, and
each builds its own weights.  The single-flip operators are CSR matrices with
f+1 nonzeros per row, each built in one ``_single_flip_csr`` call with no
sparse products; the heat-bath move probability is written once, in
``_moves``.  ``scipy.sparse`` loads on the first ``_single_flip_csr`` call
and ``scipy.sparse.linalg`` on the first gap over more than 128
configurations, so tables, marginals and the Cor2 sweep load no scipy.
``glauber_gap`` reads the gap two independent ways from one ARPACK
(``eigsh``) run: from the fixed start ``_start_vector``, on the symmetrized
transition matrix with its known top eigenpair (1, sqrt(mu)) deflated, it
reads both that matrix and the variance-normalised Dirichlet form at the one
Ritz vector; up to 128 configurations both run dense solvers on the same
matrices instead.  A gap whose routes do not agree, or an unchecked one too
small to keep three digits, is refused, never returned.  Its report also
carries the approximate-tensorization constant, which for heat-bath Glauber
is exactly 1/(f * gap), so no routine here builds a dense 2^f x 2^f matrix
above that size.  Everything here is deterministic and exact up to float
arithmetic; sizes are guarded by hard caps.  Tables are immutable once built
and safe to share.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, InputError, ValidationFailure
from .model import SPIN_VALUES, ZERO_ONE, IsingModel
from .rng import PROBE, substream

if TYPE_CHECKING:
    from scipy import sparse

GIBBS_CAP = 24
SPECTRAL_CAP = 16
# Empirical laws are binned over all 2^f configurations; the boosted tables
# hold (realizations, 2^f) probabilities.
BINNING_CAP = 20
BOOST_CAP = 16
MLSI_CAP = 10
PINNING_SWEEP_CAP = 10
# The sampled sweep holds the (2^n, E) edge events: a 22 MiB peak at n=14 on
# 3-regular graphs with 1000 codes, most of it per-block Cor2 statistics.
SAMPLED_SWEEP_CAP = 14
SWEEP_BLOCK = 2048  # pinning codes whose Cor2 sums one block of the sweep holds
TABLE_BLOCK = 1 << 20  # rows x configs x free vertices held by one block of field tables

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
        out = np.empty((len(idx), self.model.n), dtype=np.int8)
        for v, s in self.model.pinning.items():
            out[:, v] = s
        _decode(idx, self.free, out, *SPIN_VALUES[self.model.convention])
        return out

    def indices(self, values) -> np.ndarray:
        """Config index of each full spin vector (a row of ``values``).

        Raises InputError unless every row passes ``model.check_values``.
        """
        vals = self.model.check_values(values).reshape(-1, self.model.n)
        return _encode(vals, self.free, SPIN_VALUES[self.model.convention][0])

    def assignment(self, index: int) -> dict[int, int]:
        """Full vertex -> spin map for configuration ``index`` (pinning included)."""
        return dict(enumerate(self.rows(index)[0].tolist()))


def _encode(values: np.ndarray, vertices, one) -> np.ndarray:
    """Per row of ``values``, the int64 code whose bit j is set iff ``vertices[j]``
    holds ``one``."""
    codes = np.zeros(len(values), dtype=np.int64)
    for j, v in enumerate(vertices):
        codes |= (values[:, v] == one).astype(np.int64) << j
    return codes


def _decode(codes: np.ndarray, vertices, values: np.ndarray, one, zero) -> None:
    """Write the spins of ``codes`` into the ``vertices`` columns of ``values``, bit j
    into column ``vertices[j]``, a column at a time."""
    for j, v in enumerate(vertices):
        values[:, v] = (codes >> j & 1) * (one - zero) + zero


def _free_energies(model: IsingModel, region=None, fields=None) -> np.ndarray:
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
    enumerating that model, relabeled in ascending order, without building it.

    With ``fields`` of shape (rows, n), returns (rows, 2^f) energies, row r
    equal float for float to those of ``replace(model, field=fields[r])``: one
    doubling pass serves every row, each step running the same operations in
    the same order on a leading row axis.  The free vertices' neighbour rows
    are read once, and the size is checked against ``GIBBS_CAP`` before
    anything is allocated.
    """
    region = range(model.n) if region is None else region  # a model is induced on all its vertices
    free = [v for v in region if v not in model.pinning]
    pinned = {v: model.pinning[v] for v in region if v in model.pinning}
    if len(free) > GIBBS_CAP:
        raise CapacityError(f"{len(free)} free vertices exceeds the enumeration cap {GIBBS_CAP}")
    spins = np.array(SPIN_VALUES[model.convention][::-1], dtype=np.float64)  # [zero, one]
    field = model.field[None, :] if fields is None else np.asarray(fields, dtype=np.float64)
    pos = {v: j for j, v in enumerate(free)}
    nbr, cpl = (table[free].tolist() for table in model.neighbour_table)
    energy = np.zeros((len(field), 1))
    for j, (v, row, cpls) in enumerate(zip(free, nbr, cpl)):
        local = field[:, v, None].repeat(1 << j, axis=1)
        earlier = []
        for w, c in zip(row, cpls):
            if w in pinned:
                local += c * pinned[w]
            elif pos.get(w, j) < j:  # padding slots name v itself; w outside the region is skipped
                earlier.append((pos[w], c))
        for k, c in earlier:
            runs = local.reshape(len(field), -1, 2, 1 << k)  # runs of 2^k prefixes, bit k at 0, 1
            runs += c * spins[:, None]
        doubled = spins[:, None] * local[:, None, :]  # the "zero" half, then the "one" half
        doubled += energy[:, None, :]
        energy = doubled.reshape(len(field), -1)
    return energy if fields is not None else energy[0]


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


def _field_tables(model: IsingModel, fields: np.ndarray, region=None):
    """The normalised tables of ``model``, or of the model induced on ``region``,
    under each row of ``fields``, as (rows, configs) probability blocks in row order.

    A block holds about ``TABLE_BLOCK / (configs * f)`` rows for f free
    vertices, and at least one, so the tables held at once do not grow with
    the number of rows.  Each row is normalised on its own, so row r equals
    the probabilities of ``_free_energies(model, region, fields[r:r + 1])``
    float for float, whatever the blocking.  Lazy: nothing is enumerated, and
    no cap is checked, before the first block is asked for.
    """
    f = sum(v not in model.pinning for v in (range(model.n) if region is None else region))
    rows = max(1, TABLE_BLOCK // ((1 << f) * max(f, 1)))
    for lo in range(0, len(fields), rows):
        yield _normalise(_free_energies(model, region, fields[lo:lo + rows]))[0]


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
    identically zero.  The sweep reads its matrices off the same sums.
    """
    z = _edge_event_columns(table)
    return _cor_from_sums(_event_sums(table.probs, z)[None], z.shape[1])[0]


# ---------------------------------------------------------------------------
# Glauber spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Spectral quantities of the single-site heat-bath chain for one model."""

    gap: float
    at_variance_constant: float
    notes: str = ""


def _single_flips(model: IsingModel, cap: int):
    """The single-flip structure every spectral routine builds on.

    Returns (energies, probabilities, log Z, partners) where row j of the
    ``(f, configs)`` array ``partners`` is ``idx ^ (1 << j)``: each config
    with free bit j flipped.  Raises CapacityError above ``cap`` free
    vertices and InputError when there are none.  Raises ValidationFailure,
    naming how many, when some configuration's probability underflows to 0,
    before any solver divides by it.
    """
    f = len(model.free_vertices)
    if f > cap:
        raise CapacityError(f"{f} free vertices exceeds the cap {cap}")
    if f == 0:
        raise InputError("model has no free vertices")
    energy = _free_energies(model)
    table = _table(model, energy)
    if underflowed := int(np.count_nonzero(table.probs == 0)):
        raise ValidationFailure(f"{underflowed} of {1 << f} configurations have probability 0")
    idx = np.arange(1 << f)
    partners = idx[None, :] ^ (1 << np.arange(f))[:, None]
    return energy, table.probs, table.log_partition, partners


def _single_flip_csr(partners: np.ndarray, off: np.ndarray, diag: np.ndarray) -> sparse.csr_array:
    """CSR matrix with ``off[j, x]`` at (x, partners[j, x]) and ``diag[x]`` at (x, x)."""
    from scipy import sparse

    size = partners.shape[1]
    idx = np.arange(size)
    rows = np.broadcast_to(idx, (len(partners) + 1, size)).ravel()
    cols = np.vstack([partners, idx]).ravel()
    return sparse.csr_array((np.vstack([off, diag]).ravel(), (rows, cols)), shape=(size, size))


def _moves(energy: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """Heat-bath move probabilities, shape (f, configs), over the single flips ``partners``.

    Entry (j, x) is the chance that a step picks free vertex j and moves x to
    y = partners[j, x]: mu(y)/(mu(x)+mu(y)) / f, in stable logistic form.
    """
    with np.errstate(over="ignore"):
        move = 1.0 / (1.0 + np.exp(energy - energy[partners]))
    move /= len(partners)
    return move


def _transition(energy: np.ndarray, partners: np.ndarray) -> sparse.csr_array:
    """Heat-bath transition matrix over the single flips ``partners``, as CSR."""
    move = _moves(energy, partners)
    return _single_flip_csr(partners, move, 1.0 - move.sum(axis=0))


def _symmetrized_transition(energy: np.ndarray, root: np.ndarray,
                            partners: np.ndarray) -> sparse.csr_array:
    """S = D^1/2 P D^-1/2, as CSR, with D = diag(mu), ``root`` = sqrt(mu) and P the transition.

    Off-diagonals are move * sqrt(mu(x)) / sqrt(mu(y)); reversibility makes
    them symmetric, and each is averaged with its partner's entry so that
    they are so exactly.  The diagonal is P's.
    """
    move = _moves(energy, partners)
    off = move * root / root[partners]
    off += np.take_along_axis(off, partners, axis=1)
    off *= 0.5
    return _single_flip_csr(partners, off, 1.0 - move.sum(axis=0))


def _dirichlet_matrix(energy: np.ndarray, log_z: float, partners: np.ndarray) -> sparse.csr_array:
    """D^-1/2 A D^-1/2, as CSR, with phi^T A phi the Glauber Dirichlet form and D = diag(mu).

    The form is (1/(2f)) * sum over ordered single-flip pairs of
    w = mu(x)mu(y)/(mu(x)+mu(y)) (phi(x)-phi(y))^2, so A has -w off the
    diagonal and the row sums of w on it; both are taken from the weights,
    not from the transition matrix, and divided by sqrt(mu(x) mu(y)) as they
    are built.  In psi = sqrt(mu) phi the variance of a centred phi is
    |psi|^2, so the gap is the lowest eigenvalue orthogonal to sqrt(mu).
    """
    log_w = energy + energy[partners] - np.logaddexp(energy, energy[partners]) - log_z
    w = np.exp(log_w) / len(partners)
    probs = np.exp(energy - log_z)
    root = np.sqrt(probs)
    return _single_flip_csr(partners, -w / (root * root[partners]), w.sum(axis=0) / probs)


def _start_vector(size: int) -> np.ndarray:
    """Fixed Gaussian start for the iterative eigensolver, so its bits repeat.

    ARPACK's own start is random; a Gaussian has, almost surely, a component
    along every eigenvector, which a structured vector such as all-ones can
    lack by symmetry.
    """
    return substream(0, PROBE, size).standard_normal(size)


def _ritz_vector(matvec, size: int, ncv: int) -> np.ndarray:
    """ARPACK's (``eigsh``, k=1) unit Ritz vector for the largest eigenvalue of the
    symmetric ``matvec``, from ``_start_vector``; an ARPACK error becomes a
    ValidationFailure that names it."""
    from scipy.sparse import linalg as splinalg

    op = splinalg.LinearOperator((size, size), matvec=matvec, dtype=np.float64)
    try:
        return splinalg.eigsh(op, k=1, which="LA", ncv=ncv, v0=_start_vector(size))[1][:, 0]
    except splinalg.ArpackError as exc:
        raise ValidationFailure(f"ARPACK did not resolve the gap: {exc}") from None


# 1 - lambda_2 is read next to 1, where doubles lie eps = 2.2e-16 apart, so a
# gap below 1e3 eps keeps fewer than three digits and is refused.
GAP_FLOOR = 1e3 * np.finfo(np.float64).eps


def glauber_gap(model: IsingModel, cross_validate: bool = True) -> SpectralReport:
    """Spectral gap computed two independent ways and cross-checked.

    (a) 1 minus the second-largest eigenvalue of the transition matrix P,
    symmetrized by the reversibility similarity transform to S
    (``_symmetrized_transition``).  The top eigenpair of S is known, 1 at
    sqrt(mu), so ARPACK (``eigsh``, k=1, largest algebraic) runs on the
    deflated x -> S x - sqrt(mu) (sqrt(mu) . x), whose largest eigenvalue is
    lambda_2; the gap is the Rayleigh quotient of I - S at its Ritz vector.
    (b) The Dirichlet form against the variance, i.e. the quotient of
    D^-1/2 A D^-1/2 (``_dirichlet_matrix``, D = diag(mu)), read at the same
    Ritz vector.  Both matrices are built directly in CSR from the energies,
    neither from the other.  One Lanczos run serves both: in exact
    arithmetic D^-1/2 A D^-1/2 = I - S, and a shift leaves the Krylov space
    unchanged, so an ARPACK solve for route (b)'s lowest eigenvalue from the
    same start would repeat route (a)'s recurrence and return its vector
    (on 60 models at n = 10 and 12 the two vectors agreed to 2.6e-15 and the
    two values to 7.3e-15 relative).  ARPACK starts from the fixed
    ``_start_vector`` with 3f Lanczos vectors, so repeated calls return the
    same bits and clustered spectra do not stall the restarts.  (Single-vector
    LOBPCG stalls on the clustered spectra of strong fields, f eigenvalues
    within 2e-4 of the gap at fields of +-5.)  Route (a) takes 112 matvecs
    on average (106-121) on 20 of the pipeline's n=10 models with +-5 fields,
    and 181 on each of two n=12 models at beta 1.5 with +-5 fields; route (b)
    takes one.  Up to 128 configurations, where dense is faster, both routes
    run dense ``eigvalsh``, each on its own matrix.

    The cross-check therefore checks how each matrix is assembled: a second
    matrix scaled by 1.01 fails it.  It does not check that ARPACK found
    lambda_2 rather than lambda_3, as both routes read one vector; the
    dense-reference tests check that.

    A gap is returned resolved or not at all.  The cross-checked gap must be
    positive and the routes must agree within min(1e-9, 1e-6 gap), so that
    its inverse holds six digits; otherwise ValidationFailure names both
    values (a NaN fails too).  On K7 with no field the routes agree to 7.7e-7
    relative at J = 1 (gap 3.1e-10) and differ by 1.4e-4 at J = 1.2 (gap
    2.6e-12).  ``cross_validate=False`` skips route (b), for bulk certificate
    scans, and then refuses a gap below ``GAP_FLOOR`` = 1e3 eps, about
    2.2e-13: route (a) reads 1 - lambda_2 with an absolute error of a few
    eps, so below the floor it keeps fewer than three digits (at J = 2 it
    reads 1.3e-15 where route (b) reads 4.3e-18).  An ARPACK error is a
    ValidationFailure too.

    The report also carries the approximate-tensorization constant
    sup_phi Var(phi) / sum_i E[Var(phi | X_{-i})].  Each heat-bath resampling
    E_i is a mu-orthogonal projection, so the Dirichlet form is
    (1/f) sum_i E[Var_i phi] and the constant is exactly 1/(f * gap).
    """
    energy, probs, log_z, partners = _single_flips(model, SPECTRAL_CAP)
    f, size = partners.shape
    root = np.sqrt(probs)
    sym = _symmetrized_transition(energy, root, partners)
    iterative = size > 128
    if iterative:
        def deflated(x):  # sqrt(mu), eigenvalue 1, goes to 0, so lambda_2 is the largest
            x = x.ravel()
            return sym @ x - root * (root @ x)

        ritz = _ritz_vector(deflated, size, 3 * f)
        gap = float(ritz @ (ritz - sym @ ritz))  # the quotient avoids cancelling in 1 - lambda_2
    else:
        gap = float(1.0 - np.linalg.eigvalsh(sym.toarray())[-2])
    notes = f"eigenvalue={gap:.15g}"
    if not cross_validate:
        if not gap >= GAP_FLOOR:
            raise ValidationFailure(f"unchecked gap {gap!r} is below the floor {GAP_FLOOR!r}")
        return SpectralReport(gap=gap, at_variance_constant=1.0 / (f * gap), notes=notes)

    form = _dirichlet_matrix(energy, log_z, partners)
    if iterative:
        gap_rayleigh = float(ritz @ (form @ ritz))
    else:
        gap_rayleigh = float(np.linalg.eigvalsh(form.toarray())[1])

    if not (gap > 0 and abs(gap - gap_rayleigh) <= min(1e-9, 1e-6 * gap)):
        raise ValidationFailure(
            f"gap routes do not resolve it: eigenvalue {gap!r} vs Rayleigh {gap_rayleigh!r}"
        )
    notes = f"{notes} rayleigh={gap_rayleigh:.15g}"
    return SpectralReport(gap=gap, at_variance_constant=1.0 / (f * gap), notes=notes)


def at_variance_constant(model: IsingModel) -> float:
    """sup over phi of Var(phi) / sum_i E[Var(phi | X_{-i})], read from ``glauber_gap``:
    1/(f * gap), or ValidationFailure when the gap does not resolve."""
    return glauber_gap(model).at_variance_constant


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


def _event_sums(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """[S0, S1, S2] = [sum w, sum w z, z^T (w z)], flattened, over the rows of the events ``z``."""
    return np.concatenate([w.sum(keepdims=True), w @ z, (z.T @ (w[:, None] * z)).ravel()])


def _sliced_sums(weights: np.ndarray, z: np.ndarray, n: int, codes: np.ndarray):
    """The same sums, by ``_event_sums``, for explicit ``codes``.

    Each code fixes its pinned axes of the (2,)^n views of the weights and of
    the (2^n, E) edge events ``z``, axis 0 the highest vertex, and sums the
    2^free rows left; ``SWEEP_BLOCK`` codes go to a block.
    """
    w = weights.reshape((2,) * n)
    cube = z.reshape((2,) * n + (-1,))
    for start in range(0, len(codes), SWEEP_BLOCK):
        digits = (codes[start:start + SWEEP_BLOCK, None] // 3 ** np.arange(n - 1, -1, -1)) % 3
        picks = [tuple(d - 1 if d else slice(None) for d in row) for row in digits.tolist()]
        yield np.array([_event_sums(w[p].reshape(-1), cube[p].reshape(w[p].size, -1))
                        for p in picks])


def _cor_from_sums(sums: np.ndarray, num_edges: int) -> np.ndarray:
    """(B, E, E) Cor2 matrices from per-code sums [S0, S1, S2] (``_event_sums``).

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


def _live_opnorms(cor: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix, from its ``live`` rows and columns alone.

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
        out[sel] = (np.abs(block[:, 0, 0]) if k == 1
                    else np.linalg.svd(block, compute_uv=False)[:, 0])
    return out


def _theta_grid(theta_grid) -> list[float]:
    """The thetas of a Cor2 sweep as floats; InputError unless non-empty and in [0, 1)."""
    thetas = [float(t) for t in theta_grid]
    if not thetas or not all(0.0 <= t < 1.0 for t in thetas):
        raise InputError("the theta grid must be non-empty, with values in [0, 1)")
    return thetas


def sup_cor2_over_pinnings(model01: IsingModel, theta_grid,
                           pinning_codes=None) -> Cor2SweepReport:
    """Maximize Cor2 row sums, column sums and operator norm over all pinnings.

    Pinnings are ternary codes over the vertices (``_pinning_from_code``),
    all 3^n of them by default; pass explicit ``pinning_codes`` for a sampled
    sweep.  At each theta of the grid the configurations weigh
    w = exp(H) (1-theta)^{#(1,1)-edges}, and a code's Cor2 matrix is read
    off the sums S0, S1, S2 of w [1, z, z (x) z] (z the edge events) over the
    configurations consistent with it (``_cor_from_sums``), as
    ``cor2_matrix`` reads its own.  A code whose every weight underflows has
    S0 = 0 and no matrix: ValidationFailure names theta.

    Exhaustive mode builds the weighted columns w [1, z, z (x) z] for each
    theta and takes the sums of all codes by the ternary zeta transform
    ``_ternary_sums``, O(3^n (1 + E + E^2)) per theta, in blocks of at most
    ``SWEEP_BLOCK`` codes.  Explicit codes slice their pinned axes off w and off
    the (2^n, E) events z and sum each slice by ``_event_sums``
    (``_sliced_sums``), O(sum of 2^free E^2) per theta; run on
    ``np.arange(3**n)`` it is the independent check on the transform.  Both
    run the SVD on live rows and columns only: an edge with an endpoint
    pinned to 0, or both pinned to 1, has a zero row and column.  The
    exhaustive sweep is capped at ``PINNING_SWEEP_CAP`` vertices and the
    sampled one at ``SAMPLED_SWEEP_CAP``.

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
    thetas = _theta_grid(theta_grid)
    n = model01.n
    exhaustive = pinning_codes is None
    if exhaustive:
        if n > PINNING_SWEEP_CAP:
            raise CapacityError(f"{n} vertices exceeds the 3^n sweep cap {PINNING_SWEEP_CAP}")
        num_codes = 3**n
        digits = 0  # trailing digits per block: at most SWEEP_BLOCK codes
        while digits < n and 3 ** (digits + 1) <= SWEEP_BLOCK:
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

    stats = np.empty((3, len(thetas), num_codes))  # max row sum, max col sum, opnorm per cell
    per_edge_row = np.zeros(num_edges)
    per_edge_col = np.zeros(num_edges)
    interpolation_ok = True
    for t, theta in enumerate(thetas):
        log_w = energy + m_counts * np.log1p(-theta)
        w = np.exp(log_w - log_w.max())
        if exhaustive:
            lead = n - digits
            wz = w[:, None] * z
            wzz = (wz[:, :, None] * z[:, None, :]).reshape(size, -1)
            weighted = np.hstack([w[:, None], wz, wzz]).reshape((2,) * lead + (1 << digits, -1))
            blocks = _ternary_sums(weighted, lead)
        else:
            blocks = _sliced_sums(w, z, n, codes)
        start = 0
        for sums in blocks:
            if not (sums[:, 0] > 0).all():
                raise ValidationFailure(f"at theta={theta!r} a pinning's weights all underflow")
            cor = _cor_from_sums(sums, num_edges)
            abs_cor = np.abs(cor)
            row_sums = abs_cor.sum(axis=2)  # (B, E)
            col_sums = abs_cor.sum(axis=1)  # (B, E)
            opnorms = _live_opnorms(cor, (row_sums > 0) | (col_sums > 0))
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
