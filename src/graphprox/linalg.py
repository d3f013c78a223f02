"""Dense matrix primitives: inverse, symmetric eigensolvers, matrix
exponential, double-factorial series, spectral radius, PSD square root.

Everything works on plain float64 numpy arrays sized for the small dense
matrices this package deals in (a few hundred rows at most). The
inverse, the symmetric eigensolvers, and the spectral radius and PSD
square root built on them come from LAPACK through numpy.linalg. On the
M-matrix resolvents the property checks read entry by entry, the LU
inverse is accurate entrywise: on regL:1 of a unit 40-path its largest
relative entry error against a 60-digit reference is 6.9e-16 (5.9e-16
once symmetrized), where the former in-package Gauss-Jordan loop gave
8.2e-16. Both series stay here, and one relative bound, 2^-60,
truncates them. The exponential squares a degree-18 Taylor polynomial
of B / 2^k, B = A + sI >= 0, with k set so that every term up to the
largest graph distance keeps its coefficient to 2^-60 (matrix_exp); the
double-factorial series stops once its last two terms are at most
2^-60 of the partial sum, entry by entry (_double_factorial_series).
Nothing cancels, so every entry is accurate relative to itself: on
heat:1 of a unit 40-path the largest relative entry error against a
60-digit reference is 6.5e-15, at entries down to 7e-48. No kernel is
assembled from an eigendecomposition: V f(Lambda) V^T leaves absolute
errors of about eps times the largest eigenvalue, enough to flip the
sign or the last digits of small entries.

The rules the layers above share live here too: DEFAULT_TOL, the
rounding floor 8 n eps max|operands|, the symmetry test and the guard
against asymmetric input that read it, the PSD bound max(tol, floor)
that check_psd and gram_factor decide by, and the one symmetric average
(_symmetrized) that forms every exactly symmetric result. It adds the
halves m/2 + m^T/2, which cannot overflow, and equals (m + m^T) / 2
rounded once, bit for bit, except where an entry below 2^-1021 in
magnitude has an odd last bit, whose halving rounds. Tolerances
judge properties only; whether a matrix is symmetric, or a distance's
diagonal zero, is decided against the floor, so the answer does not
change when the matrix is scaled by a power of 2.
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

DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
# c of the rounding floor c n eps |operands| (see _rounding_floor)
_FLOOR_ULPS = 8

# -log2 of the relative share of an entry that either series leaves out
_SERIES_BOUND_BITS = 60
# matrix_exp: the Taylor degree, log2 of (degree + 1)!, and the 1/i! in
# rows of four, row j holding the coefficients of I, X, X^2, X^3 in the
# chunk multiplied by X^(4j)
_EXP_DEGREE = 18
_EXP_LOG2_FACT = math.log2(math.factorial(_EXP_DEGREE + 1))
_EXP_CHUNKS = np.array(
    [1.0 / math.factorial(i) if i <= _EXP_DEGREE else 0.0
     for i in range(4 * (_EXP_DEGREE // 4 + 1))]
).reshape(-1, 4)
_DFACT_MAX_TERMS = 10_000


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


def _require_nonempty(a: np.ndarray, caller: str) -> None:
    """Reject an array without entries, whose extremes do not exist."""
    if a.size == 0:
        raise ValueError(f"{caller} requires a nonempty matrix, got shape {a.shape}")


def is_symmetric(m: np.ndarray) -> bool:
    """Whether m is square and max|m - m^T| is at most its rounding floor
    8 n eps max|m|, as _symmetry_gaps decides: a gap that rounding alone
    can leave, as on a regular graph, where P = W / deg is asymmetric in
    its last bits. A non-finite entry makes m asymmetric."""
    a = np.asarray(m, dtype=float)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and _symmetry_gaps(a[None])[0] is not None


@np.errstate(invalid="ignore")  # inf - inf is NaN, quietly; cheaper than a with block
def _symmetry_gaps(a: np.ndarray) -> list[float | None]:
    """max|m - m^T| of each matrix m of the stack a that is symmetric, and
    None for every other one: m is symmetric where the gap is 0.0, which
    marks an exactly symmetric matrix, or at most its rounding floor
    (_rounding_floor(n, max|m|)) where that floor is finite. An entry that
    is not finite leaves a gap of inf or NaN, which is neither, so its
    matrix is not symmetric."""
    gaps = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0).tolist()
    if not any(gaps):  # max|m| only for a nonzero gap: exact symmetry costs one pass
        return gaps
    n = a.shape[1]
    return [
        gap if gap == 0.0 or gap <= _rounding_floor(n, size) < math.inf else None
        for gap, size in zip(gaps, _max_abs_each(a))
    ]


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """m/2 + m^T/2 of the matrix a, or of each matrix m of the stack a:
    exactly symmetric, as float sums commute, and finite where m is, as
    no sum of halves overflows. Halving is exact but where an entry below
    2^-1021 in magnitude has an odd last bit, so elsewhere this is
    (m + m^T) / 2 rounded once, bit for bit."""
    half = 0.5 * a
    return half + half.swapaxes(-1, -2)


def _require_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    """m as a float array, which must be a nonempty symmetric matrix or a
    stack (B, n, n) of them, each tested by _symmetry_gaps; one matrix is
    tested as a stack of one, and an empty stack is rejected as empty."""
    a = np.asarray(m, dtype=float)
    square = a.ndim in (2, 3) and a.shape[-2] == a.shape[-1]
    stack = a.reshape((math.prod(a.shape[:-2]), *a.shape[-2:])) if square else None
    _require_nonempty(a if stack is None or not len(stack) else stack[0], what)
    if stack is None or None in _symmetry_gaps(stack):
        raise ValueError(f"{what} requires a symmetric matrix")
    return a


def _max_abs_each(a: np.ndarray) -> list[float]:
    """max|m| of each matrix, or row, m of the stack a (0.0 if m is empty)."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)), initial=0.0).tolist()


def _rounding_floor(n: int, scale: float) -> float:
    """c n eps scale with c = 8: how far apart two values of a check's
    inequality on an n-vertex matrix may lie by rounding alone, when the
    inequality's operands are at most scale in magnitude. Witness scans
    treat values within it of the extreme as tied with it, the eigenvalue
    checks and gram_factor decide against max(tol, floor), and is_symmetric
    and the zero-diagonal guard of transforms._centered_gram hold a
    matrix's asymmetry and diagonal against it."""
    return _FLOOR_ULPS * n * _EPS * scale


def _eigen_bound(n: int, scale: float, tol: float) -> float:
    """max(tol, floor): what a PSD decision on an n-vertex matrix, whose
    rounding floor reads operands of size scale, holds its smallest
    eigenvalue against."""
    return max(tol, _rounding_floor(n, scale))


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
    _require_nonempty(a, "invert")
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
        inv = _symmetrized(inv)
    return inv


def _lapack_symmetric(solver, m: np.ndarray, caller: str):
    """solver (numpy.linalg.eigh or eigvalsh) on the exactly symmetrized
    m, which must be symmetric; a LAPACK failure raises
    NonConvergenceError."""
    a = _require_symmetric(_as_square(m), caller)
    return _lapack(solver, _symmetrized(a))


def _lapack(solver, a: np.ndarray):
    """solver (numpy.linalg.eigh or eigvalsh) on a; a LAPACK failure
    raises NonConvergenceError."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def _min_eigenvalues(a: np.ndarray) -> list[float]:
    """The smallest eigenvalue of each matrix of the stack a, which must
    be exactly symmetric: what sym_eigenvalues gives, without testing or
    forming that symmetry once more. A matrix is symmetrized once, by
    whoever finds it symmetric only to its rounding floor (check_psd);
    the stacks formed symmetric, such as sym_psd's (K + K^T) / 2 and the
    centered Gram matrices of sq_euclidean, come here as they are."""
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return _lapack(np.linalg.eigvalsh, a)[:, 0].tolist()


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
    _require_nonempty(np.asarray(m), "spectral_radius")
    return float(np.abs(sym_eigenvalues(m)).max())


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by a shifted, scaled and squared Taylor
    polynomial.

    With s = -min diag(A) and B = A + sI, e^A = e^-s e^B. The matrix
    X = B / 2^k goes into the degree-18 Taylor polynomial T(X), evaluated
    by Paterson-Stockmeyer: the coefficient combinations of I, X, X^2 and
    X^3 come from one product with that stack, and four Horner steps by
    X^4 join them, seven matrix products in all. T(X) is multiplied by
    e^(-s/2^k), so that e^-s cannot underflow before the squarings, and
    then squared k times.

    k is the smallest integer with d^19 / (2^(18k) 19!) <= 2^-60, where
    d = max(||B||_inf, n - 1). In T(X)^(2^k) the term B^j/j! keeps its
    exact coefficient except for a share of at most
    j^19 / (2^(18k) 19!): the computed coefficient is 1/j! times the
    chance that j balls thrown into 2^k bins leave at most 18 in each,
    and the union bound over the bins gives the share. So every term up
    to j = d, which covers the largest graph distance n - 1 and the
    norm ||B||, keeps its coefficient to 2^-60.

    For the matrices of comm, heat, nheat and heatppr the off-diagonal
    entries are >= 0, so B >= 0 and every intermediate value is
    nonnegative: nothing cancels, and each entry of the result is
    accurate relative to itself, however small it is, as long as it
    lies in the float64 range. A product of nonnegative matrices errs by
    at most about n eps relative to each entry, and a squaring doubles
    the relative error it is handed, so the entries err by about
    2^k n eps relatively; 2^k grows like d.

    Raises ValueError where 2^k n eps reaches 1, as invert refuses where
    n eps cond does: there the bound leaves no entry a correct digit. It
    is decided from k, before 2^k is formed. Raises OverflowError when
    the result leaves the float64 range. A symmetric input yields an
    exactly symmetric result.
    """
    b = _as_square(m)  # a copy of its own
    _require_nonempty(b, "matrix_exp")
    n = b.shape[0]
    shift = -float(b.diagonal().min())
    b.flat[:: n + 1] += shift  # B = A + sI; as symmetric as A
    d = max(float(np.abs(b).sum(axis=1).max()), n - 1.0)
    k = 0
    if d > 0:
        excess = (_EXP_DEGREE + 1) * math.log2(d) - _EXP_LOG2_FACT + _SERIES_BOUND_BITS
        k = max(0, math.ceil(excess / _EXP_DEGREE))
    bound_bits = k + math.log2(n * _EPS)  # log2 of 2^k n eps
    if bound_bits >= 0:
        raise ValueError(
            f"matrix_exp: relative error bound 2^k n eps = 2^{bound_bits:.2f} >= 1 "
            f"after k = {k} squarings leaves no entry a correct digit"
        )
    powers = np.empty((4, n, n))  # I, X, X^2, X^3
    powers[0] = np.eye(n)
    x = np.divide(b, 2.0**k, out=powers[1])
    x2 = np.matmul(x, x, out=powers[2])
    np.matmul(x2, x, out=powers[3])
    chunks = (_EXP_CHUNKS @ powers.reshape(4, n * n)).reshape(-1, n, n)
    x4 = x2 @ x2
    total = chunks[-1]
    # indexed: numpy ends an iteration over an array by raising an IndexError
    for i in range(len(chunks) - 2, -1, -1):
        total = chunks[i] + total @ x4
    with np.errstate(over="ignore", invalid="ignore"):
        total *= np.exp(-shift / 2.0**k)
        for _ in range(k):
            total = total @ total
    if not np.isfinite(total).all():
        raise OverflowError("matrix exponential overflowed float64")
    if is_symmetric(b):
        total = _symmetrized(total)
    return total


def _double_factorial_series(tw: np.ndarray) -> np.ndarray:
    """sum_j (tW)^j / j!! (0!! = 1!! = 1, j!! = j (j-2)!!) for t > 0 and
    W >= 0, exactly symmetrized; term j is term j-2 times T / j, T = (tW)^2.

    The sum runs through term n - 1, so that every entry holds its first
    nonzero term, and stops at the first later k where terms k-1 and k
    are both at most 2^-60 of the partial sum S, entry by entry. It is
    never early: term k+2p = term k T^p / ((k+2)...(k+2p)) is at most
    2^-60 S T^p / ((k+2)...(k+2p)), and S T^p sums the terms i+2p, i <= k,
    times (i+2)...(i+2p), no more than that denominator; so is term
    k-1+2p, with 2^-60 / (1 - 2^-60). Each term is counted at most k+1
    times, so the tail is at most (k+1) 2^-60 / (1 - 2^-60) of each entry.
    Nothing cancels; term j errs by about j (n+2) eps relatively, so each
    normal entry lies within about a relative (n+3) k eps of the exact
    sum. Raises OverflowError once the sum leaves the float64 range.
    """
    n = tw.shape[0]
    tw2 = tw @ tw
    prev2, prev1 = np.eye(n), tw  # terms k - 2 and k - 1
    total = prev2 + prev1
    # entered once; the finiteness test turns what it hides into OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, _DFACT_MAX_TERMS):
            cur = prev2 @ tw2 / k
            total += cur
            if not total.max() < math.inf:  # also true for NaN
                raise OverflowError(f"double-factorial series overflowed float64 at term {k}")
            if k >= n - 1:
                cut = total * 2.0**-_SERIES_BOUND_BITS
                if (prev1 <= cut).all() and (cur <= cut).all():
                    break
            prev2, prev1 = prev1, cur
        else:
            raise NonConvergenceError(
                f"double-factorial series did not converge within {_DFACT_MAX_TERMS} terms"
            )
    return _symmetrized(total)


def gram_factor(k: np.ndarray) -> np.ndarray:
    """Unique PSD square root B of a symmetric PSD matrix (B @ B = k).

    It decides as check_psd does at DEFAULT_TOL, from the same number:
    where the smallest eigenvalue sym_eigenvalues gives lies below
    -max(DEFAULT_TOL, 8 n eps max|k|), it raises
    NotPositiveSemidefiniteError carrying that eigenvalue. Otherwise the
    root is formed from sym_eigen, whose eigenvalues below zero are
    treated as roundoff and clamped to zero.
    """
    a = np.asarray(k, dtype=float)
    _require_nonempty(a, "gram_factor")
    min_eig = float(sym_eigenvalues(a)[0])
    if min_eig < -_eigen_bound(a.shape[0], _max_abs_each(a[None])[0], DEFAULT_TOL):
        raise NotPositiveSemidefiniteError(min_eig)
    vals, vecs = sym_eigen(a)
    root = np.sqrt(np.clip(vals, 0.0, None))
    b = (vecs * root) @ vecs.T
    return _symmetrized(b)
