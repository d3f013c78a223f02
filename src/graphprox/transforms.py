"""Transforms between kernels, proximities, and distance matrices.

Distance matrices are plain symmetric zero-diagonal arrays; whether one
is squared-Euclidean (from kernel_to_sq_dist / pair_to_dist) or an
ordinary distance candidate (from log_distance) follows from which
transform produced it.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import gram_factor, is_symmetric

__all__ = [
    "kernel_to_sq_dist",
    "pair_to_dist",
    "dist_to_sigma_prox",
    "log_distance",
    "symmetrize_geometric",
    "embed",
]


def _require_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if not is_symmetric(a):
        raise ValueError(f"{what} requires a symmetric matrix")
    return a


def _require_positive(m: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.min() <= 0:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise ValueError(
            f"{what} requires strictly positive entries; "
            f"entry ({i + 1},{j + 1}) = {a[i, j]:.6g}"
        )
    return a


def kernel_to_sq_dist(k: np.ndarray) -> np.ndarray:
    """Candidate squared-distance matrix of a symmetric kernel:
    d_ij = (k_ii + k_jj)/2 - k_ij. Squared-Euclidean realizability is a
    separate check (it holds exactly when the kernel is PSD)."""
    a = _require_symmetric(k, "kernel_to_sq_dist")
    dg = np.diag(a)
    d = 0.5 * (dg[:, None] + dg[None, :]) - a
    np.fill_diagonal(d, 0.0)
    return d


def pair_to_dist(k: np.ndarray) -> np.ndarray:
    """d_ij = (k_ii + k_jj - k_ij - k_ji)/2, defined for asymmetric
    matrices too; coincides with kernel_to_sq_dist on symmetric input."""
    a = np.asarray(k, dtype=float)
    dg = np.diag(a)
    # averaging a with its transpose first keeps the output exactly
    # symmetric (subtracting a then a.T rounds asymmetrically)
    d = 0.5 * (dg[:, None] + dg[None, :]) - 0.5 * (a + a.T)
    np.fill_diagonal(d, 0.0)
    return d


def dist_to_sigma_prox(d: np.ndarray, sigma: float) -> np.ndarray:
    """Inverse transform -H d H + sigma J (H = I - J the centering
    matrix): every row of the result sums to sigma, and composing with
    kernel_to_sq_dist in either order is the identity."""
    a = _require_symmetric(d, "dist_to_sigma_prox")
    if np.abs(np.diag(a)).max() > 1e-9:
        raise ValueError("dist_to_sigma_prox requires a zero diagonal")
    n = a.shape[0]
    j = np.full((n, n), 1.0 / n)
    h = np.eye(n) - j
    k = -h @ a @ h + sigma * j
    return 0.5 * (k + k.T)


def log_distance(s: np.ndarray) -> np.ndarray:
    """d_ij = ln sqrt(s_ii s_jj / (s_ij s_ji)) for a strictly positive
    similarity matrix; for transitional measures this is a cutpoint
    additive distance."""
    a = _require_positive(s, "log_distance")
    dg = np.diag(a)
    d = 0.5 * np.log(np.outer(dg, dg) / (a * a.T))
    np.fill_diagonal(d, 0.0)
    return d


def symmetrize_geometric(k: np.ndarray) -> np.ndarray:
    """Entrywise geometric mean of k and its transpose; leaves
    log_distance output unchanged."""
    a = _require_positive(k, "symmetrize_geometric")
    return np.sqrt(a * a.T)


def embed(k: np.ndarray) -> np.ndarray:
    """Vertex coordinates realizing the kernel's squared distances.

    Row i holds the coordinates of vertex i; pairwise squared Euclidean
    distances of the rows reproduce kernel_to_sq_dist(k). The result is
    exactly symmetric, bit for bit: gram_factor returns (B + B^T)/2, and
    the transpose and rescale below act entry by entry. Raises
    NotPositiveSemidefiniteError when no such embedding exists.
    """
    b = gram_factor(k)
    # Columns of the PSD square root form a Gram representation of k
    # itself; the half in the distance transform calls for a 1/sqrt(2)
    # rescale to land on kernel_to_sq_dist's values.
    return b.T / math.sqrt(2.0)
