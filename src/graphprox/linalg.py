"""Dense matrix primitives: Gauss-Jordan inverse, symmetric
eigendecomposition, matrix exponential, spectral radius, and PSD square
root.

Everything works on plain float64 numpy arrays sized for the small dense
matrices this package deals in (a few hundred rows at most). The
symmetric eigendecomposition, and the spectral radius and PSD square
root built on it, come from LAPACK through numpy.linalg. The
Gauss-Jordan inverse and the scaling-and-squaring exponential stay in
this module: on the M-matrix resolvents and nonnegative exponentials the
property checks read entry by entry, they are accurate entrywise,
whereas assembling V f(Lambda) V^T from eigenvectors leaves absolute
errors of about machine epsilon times the largest eigenvalue, enough to
flip the sign or the last digits of small entries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "SingularMatrixError",
    "NotPositiveSemidefiniteError",
    "NonConvergenceError",
    "EigenDecomposition",
    "is_symmetric",
    "invert",
    "sym_eigen",
    "spectral_radius",
    "matrix_exp",
    "gram_factor",
]

SYMMETRY_TOL = 1e-10
_SINGULAR_PIVOT = 1e-12
_EXP_TAYLOR_TOL = 1e-18
PSD_CLAMP_TOL = 1e-9


class SingularMatrixError(ValueError):
    def __init__(self, pivot_index: int, pivot: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(
            f"matrix is singular: pivot {pivot:.3e} at elimination column {pivot_index}"
        )


class NotPositiveSemidefiniteError(ValueError):
    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix is not positive semidefinite: smallest eigenvalue {min_eigenvalue:.6e}"
        )


class NonConvergenceError(RuntimeError):
    """An iterative routine hit its iteration cap, or LAPACK reported
    that its eigensolver failed to converge."""


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(m: np.ndarray) -> np.ndarray:
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def is_symmetric(m: np.ndarray, tol: float = SYMMETRY_TOL) -> bool:
    a = np.asarray(m, dtype=float)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and np.abs(a - a.T).max() <= tol


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot drops to
    1e-12 or below. A symmetric input yields an exactly symmetric result.
    """
    a = _as_square(m)
    n = a.shape[0]
    sym = is_symmetric(a)
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        p = col + int(np.abs(aug[col:, col]).argmax())
        piv = aug[p, col]
        if abs(piv) <= _SINGULAR_PIVOT:
            raise SingularMatrixError(col, abs(piv))
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        aug[col] /= piv
        factors = aug[:, col].copy()
        factors[col] = 0.0
        # the products np.outer(factors, aug[col]) forms; updating only the
        # active columns aug[:, col:] is slower (non-contiguous rows)
        aug -= factors[:, None] * aug[col]
    inv = aug[:, n:]
    if sym:
        inv = 0.5 * (inv + inv.T)
    return inv


def sym_eigen(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK's
    symmetric eigensolver (numpy.linalg.eigh) on the exactly symmetrized
    input."""
    a = _as_square(m)
    if not is_symmetric(a):
        raise ValueError("sym_eigen requires a symmetric matrix")
    try:
        return EigenDecomposition(*np.linalg.eigh(0.5 * (a + a.T)))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix; asymmetric
    input raises ValueError, as in sym_eigen."""
    return float(np.abs(sym_eigen(m).eigenvalues).max())


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: scale by 2^s so the
    infinity norm is at most 0.5, sum the Taylor series to term max-norm
    below 1e-18, then square s times."""
    a = _as_square(m)
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max())
    s = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    b = a / (2.0**s)
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, 60):
        term = term @ b / k
        total += term
        if np.abs(term).max() < _EXP_TAYLOR_TOL:
            break
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            total = total @ total
    if not np.isfinite(total).all():
        raise OverflowError("matrix exponential overflowed float64")
    if is_symmetric(a):
        total = 0.5 * (total + total.T)
    return total


def gram_factor(k: np.ndarray, tol: float = PSD_CLAMP_TOL) -> np.ndarray:
    """Unique PSD square root B of a symmetric PSD matrix (B @ B = k).

    Eigenvalues in [-tol, 0) are treated as roundoff and clamped to zero;
    anything below -tol raises NotPositiveSemidefiniteError.
    """
    vals, vecs = sym_eigen(k)
    if vals[0] < -tol:
        raise NotPositiveSemidefiniteError(float(vals[0]))
    root = np.sqrt(np.clip(vals, 0.0, None))
    b = (vecs * root) @ vecs.T
    return 0.5 * (b + b.T)
