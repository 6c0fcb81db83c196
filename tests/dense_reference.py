"""Dense spectral references for small models, kept out of the library.

``rfim.oracle`` computes the Glauber gap on sparse operators and reads the
approximate-tensorization (AT) constant off it as 1/(f * gap).  The routines
here build the full 2^f x 2^f matrices instead, so tests can check the sparse
routes, the gap and the AT constant, against an independent dense
computation.  Their memory grows as 4^f and their time as 8^f, hence
``DENSE_CAP``.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from rfim.errors import ValidationFailure
from rfim.model import IsingModel
from rfim.oracle import _single_flips, _transition

DENSE_CAP = 12


def transition_matrix(model: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """Dense heat-bath transition matrix and stationary probabilities.

    A step picks one of the f free vertices uniformly and resamples it from
    its conditional law given the rest; rows sum to one.
    """
    energy, probs, _, partners = _single_flips(model, DENSE_CAP)
    return _transition(energy, partners).toarray(), probs


def symmetrized_eigenvalues(model: IsingModel) -> np.ndarray:
    """Ascending eigenvalues of the dense transition matrix, symmetrized by sqrt(mu).

    Reversibility makes D^1/2 P D^-1/2 symmetric, with D = diag(mu); it is
    averaged with its transpose so that it is so exactly.
    """
    p_mat, probs = transition_matrix(model)
    root = np.sqrt(probs)
    sym = p_mat * (root[:, None] / root[None, :])
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


def dense_gap(model: IsingModel) -> float:
    """1 - lambda_2 of the symmetrized dense transition matrix."""
    return float(1.0 - symmetrized_eigenvalues(model)[-2])


def at_variance_constant(model: IsingModel) -> float:
    """sup over phi of Var(phi) / sum_i E[Var(phi | X_{-i})], by a dense eigenproblem.

    Each conditional-variance term is the quadratic form of D(I - E_i) with
    E_i the single-coordinate conditional-expectation projection, assembled
    without the transition matrix or the gap; the supremum is the reciprocal
    of the lowest eigenvalue on the null space of sqrt(mu).
    """
    energy, probs, _, partners = _single_flips(model, DENSE_CAP)
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
