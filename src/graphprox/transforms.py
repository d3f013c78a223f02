"""Transforms between kernels, proximities, and distance matrices.

Distance matrices are plain symmetric zero-diagonal arrays; whether one
is squared-Euclidean (from kernel_to_sq_dist / pair_to_dist) or an
ordinary distance candidate (from log_distance) follows from which
transform produced it.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    _require_nonempty,
    _require_symmetric,
    _rounding_floor,
    _symmetrized,
    gram_factor,
)

_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

__all__ = [
    "kernel_to_sq_dist",
    "pair_to_dist",
    "dist_to_sigma_prox",
    "log_distance",
    "symmetrize_geometric",
    "embed",
]


def _require_positive(m: np.ndarray, what: str) -> np.ndarray:
    """m as a float array, a matrix or a stack of them, whose entries must
    all be positive; the error names the first smallest one."""
    a = np.asarray(m, dtype=float)
    _require_nonempty(a, what)
    if a.min() <= 0:
        idx = int(np.argmin(a))
        *_, i, j = np.unravel_index(idx, a.shape)
        raise ValueError(
            f"{what} requires strictly positive entries; "
            f"entry ({i + 1},{j + 1}) = {a.flat[idx]:.6g}"
        )
    return a


def kernel_to_sq_dist(k: np.ndarray) -> np.ndarray:
    """Candidate squared-distance matrix of a symmetric kernel:
    d_ij = (k_ii + k_jj)/2 - k_ij. Squared-Euclidean realizability is a
    separate check (it holds exactly when the kernel is PSD). d is
    pair_to_dist's, exactly symmetric also where the kernel is symmetric
    only to its rounding floor. Of a stack (B, n, n), that of each matrix."""
    return _pair_dist(_require_symmetric(k, "kernel_to_sq_dist"))


def pair_to_dist(k: np.ndarray) -> np.ndarray:
    """d_ij = (k_ii + k_jj - k_ij - k_ji)/2, defined for asymmetric
    matrices too; coincides with kernel_to_sq_dist on symmetric input.
    Of a stack (B, n, n), that of each matrix."""
    return _pair_dist(np.asarray(k, dtype=float))


def _pair_dist(a: np.ndarray) -> np.ndarray:
    """pair_to_dist of the float array a. Averaging a with its transpose
    first keeps d exactly symmetric; subtracting a, then a^T, would not."""
    dg = a.diagonal(0, -2, -1)
    d = 0.5 * (dg[..., :, None] + dg[..., None, :]) - _symmetrized(a)
    _zero_diagonal(d)
    return d


def _zero_diagonal(d: np.ndarray) -> None:
    """Set the diagonal of the C-ordered matrix d, or of each matrix of a
    C-ordered stack d, to 0 in place, through a reshaped view."""
    n = d.shape[-1]
    d.reshape(d.shape[:-2] + (n * n,))[..., ::n + 1] = 0.0


def _centered_gram(d: np.ndarray, caller: str) -> np.ndarray:
    """-H d H (H = I - J, J = 11^T / n), exactly symmetrized, of a symmetric
    d whose diagonal is zero to its rounding floor 8 n eps max|d|, the
    floor is_symmetric reads, or of each matrix of a stack d (B, n, n);
    caller names the function in its errors."""
    a = _require_symmetric(d, caller)
    n = a.shape[-1]
    self_dist = np.abs(a.diagonal(0, -2, -1)).max(axis=-1)
    if (self_dist > _rounding_floor(n, np.abs(a).max(axis=(-2, -1)))).any():
        raise ValueError(f"{caller} requires a zero diagonal")
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    return _symmetrized(-h @ a @ h)


def dist_to_sigma_prox(d: np.ndarray, sigma: float) -> np.ndarray:
    """Inverse transform -H d H + sigma J (H = I - J the centering
    matrix): every row of the result sums to sigma, and composing with
    kernel_to_sq_dist in either order is the identity. d must be
    symmetric with a zero diagonal, both to its rounding floor
    8 n eps max|d|. Of a stack (B, n, n), that of each matrix."""
    b = _centered_gram(d, "dist_to_sigma_prox")
    return b + sigma * (1.0 / b.shape[-1])


def _normal(x: np.ndarray) -> np.ndarray:
    """Entries of a nonnegative array that are normal floats; NaN is not."""
    return (x >= _TINY) & (x <= _HUGE)


def log_distance(s: np.ndarray) -> np.ndarray:
    """d_ij = ln sqrt(s_ii s_jj / (s_ij s_ji)) for a strictly positive
    similarity matrix; for transitional measures this is a cutpoint
    additive distance.

    Where s_ii s_jj, s_ij s_ji or their ratio leaves the normal float
    range, that entry is 0.5 ((ln s_ii + ln s_jj) - (ln s_ij + ln s_ji)),
    which takes the logs before the products; every other entry keeps the
    products' rounding. Of a stack (B, n, n), that of each matrix."""
    a = _require_positive(s, "log_distance")
    dg = a.diagonal(0, -2, -1)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        num = dg[..., :, None] * dg[..., None, :]
        den = a * a.swapaxes(-1, -2)
        ratio = num / den
    *m, i, j = np.nonzero(~(_normal(num) & _normal(den) & _normal(ratio)))
    ratio[(*m, i, j)] = 1.0  # keeps the log below finite; replaced after it
    d = 0.5 * np.log(ratio)
    if i.size:
        ln_dg, ln_ij, ln_ji = np.log(dg), np.log(a[(*m, i, j)]), np.log(a[(*m, j, i)])
        d[(*m, i, j)] = 0.5 * ((ln_dg[(*m, i)] + ln_dg[(*m, j)]) - (ln_ij + ln_ji))
    _zero_diagonal(d)
    return d


def symmetrize_geometric(k: np.ndarray) -> np.ndarray:
    """Entrywise geometric mean of k and its transpose; leaves
    log_distance output unchanged. The roots come before the product,
    which then cannot underflow to zero where both entries are positive
    floats; the result is exactly symmetric, as float products commute."""
    a = _require_positive(k, "symmetrize_geometric")
    root = np.sqrt(a)
    return root * root.T


def embed(k: np.ndarray) -> np.ndarray:
    """Vertex coordinates realizing the kernel's squared distances.

    Row i holds the coordinates of vertex i; pairwise squared Euclidean
    distances of the rows reproduce kernel_to_sq_dist(k). The result is
    exactly symmetric, bit for bit: gram_factor returns (B + B^T)/2, and
    the transpose and rescale below act entry by entry. Raises
    NotPositiveSemidefiniteError where check_psd at the default tolerance
    1e-9 fails k, whatever tolerance an audit used (see gram_factor).
    """
    _require_nonempty(np.asarray(k), "embed")
    b = gram_factor(k)
    # Columns of the PSD square root form a Gram representation of k
    # itself; the half in the distance transform calls for a 1/sqrt(2)
    # rescale to land on kernel_to_sq_dist's values.
    return b.T / math.sqrt(2.0)
