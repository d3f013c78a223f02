"""Dense matrix primitives: inverse, symmetric eigendecomposition and
eigenvalues, matrix exponential, spectral radius, and PSD square root.

Everything works on plain float64 numpy arrays sized for the small dense
matrices this package deals in (a few hundred rows at most). The
inverse, the symmetric eigensolvers, and the spectral radius and PSD
square root built on them come from LAPACK through numpy.linalg. On the
M-matrix resolvents the property checks read entry by entry, the LU
inverse is accurate entrywise: on regL:1 of a unit 40-path its largest
relative entry error against a 60-digit reference is 6.9e-16 (5.9e-16
once symmetrized), where the former in-package Gauss-Jordan loop gave
8.2e-16. The scaling-and-squaring exponential stays in this module.
Neither is assembled from an eigendecomposition: V f(Lambda) V^T leaves
absolute errors of about machine epsilon times the largest eigenvalue,
enough to flip the sign or the last digits of small entries.
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
    "sym_eigenvalues",
    "spectral_radius",
    "matrix_exp",
    "gram_factor",
]

SYMMETRY_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_EXP_TAYLOR_TOL = 1e-18
PSD_CLAMP_TOL = 1e-9


class SingularMatrixError(ValueError):
    """LAPACK found the matrix singular (condition inf), or n eps times
    its 1-norm condition number reaches 1."""

    def __init__(self, condition: float):
        self.condition = condition
        super().__init__(f"matrix is singular: 1-norm condition number {condition:.3e}")


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


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max(initial=0.0))


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse by LAPACK's LU solve (numpy.linalg.solve against I).

    Each entry of the result lies within n eps cond max|A^-1| of the
    exact inverse of m, cond being the 1-norm condition number
    ||A|| ||A^-1||; on the resolvents within 1e-10 of their domain
    ends, the largest error measured is 1/30 of that bound. The property
    checks' rounding floors assume about n eps max|A^-1|, so where cond
    is large a verdict whose slack lies within the larger bound is
    decided by rounding, for this inverse as for any other: there, even
    the exact inverse rounded to float64 moves such verdicts. Raises
    SingularMatrixError when LAPACK meets an exactly zero pivot or
    n eps cond reaches 1, where the bound leaves no entry a correct
    digit; the test does not change when A is scaled. A symmetric input
    yields an exactly symmetric result.
    """
    a = _as_square(m)
    n = a.shape[0]
    try:
        inv = np.linalg.solve(a, np.eye(n))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(math.inf) from None
    with np.errstate(over="ignore"):
        condition = _norm1(a) * _norm1(inv)
    if not n * _EPS * condition < 1.0:  # also true for NaN
        raise SingularMatrixError(condition)
    if is_symmetric(a):
        inv = 0.5 * (inv + inv.T)
    return inv


def _lapack_symmetric(solver, m: np.ndarray, caller: str):
    """solver (numpy.linalg.eigh or eigvalsh) on the exactly symmetrized
    m, which must be symmetric; a LAPACK failure raises
    NonConvergenceError."""
    a = _as_square(m)
    if not is_symmetric(a):
        raise ValueError(f"{caller} requires a symmetric matrix")
    try:
        return solver(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def sym_eigen(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK's
    symmetric eigensolver (numpy.linalg.eigh) on the exactly symmetrized
    input."""
    return EigenDecomposition(*_lapack_symmetric(np.linalg.eigh, m, "sym_eigen"))


def sym_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a symmetric matrix by LAPACK's
    symmetric eigensolver without eigenvectors (numpy.linalg.eigvalsh)
    on the exactly symmetrized input."""
    return _lapack_symmetric(np.linalg.eigvalsh, m, "sym_eigenvalues")


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix; asymmetric
    input raises ValueError, as in sym_eigenvalues."""
    return float(np.abs(sym_eigenvalues(m)).max())


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
