"""The ten similarity measures, each mapping graph matrices plus one
parameter to a KernelResult.

Measure names used throughout the library, reports, and the CLI:

    katz      resolvent of the adjacency matrix, (I - a W)^-1
    comm      communicability, exp(t W)
    dfact     double-factorial series, sum_k t^k / k!! W^k
    heat      Laplacian heat kernel, exp(-t L)
    nheat     normalized-Laplacian heat kernel
    regL      regularized Laplacian (forest) kernel, (I + t L)^-1
    absorp    absorption kernel, (t Diag(a) + L)^-1
    ppr       personalized PageRank, (I - a P)^-1  (asymmetric)
    modifppr  modified personalized PageRank, (D - a W)^-1
    heatppr   PageRank heat, exp(-t (I - P))  (asymmetric)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphMatrices
from .linalg import NonConvergenceError, invert, matrix_exp, spectral_radius

__all__ = [
    "ParameterDomainError",
    "KernelResult",
    "MEASURES",
    "SYMMETRIC_MEASURES",
    "PARAM_NAMES",
    "param_domain",
    "compute_kernel",
    "katz",
    "communicability",
    "double_factorial",
    "heat",
    "normalized_heat",
    "regularized_laplacian",
    "absorption",
    "ppr",
    "modified_ppr",
    "pagerank_heat",
]

_BOUNDARY_MARGIN = 1e-12
_DFACT_TERM_TOL = 1e-16
_DFACT_MAX_TERMS = 10_000

MEASURES: tuple[str, ...] = (
    "katz",
    "comm",
    "dfact",
    "heat",
    "nheat",
    "regL",
    "absorp",
    "ppr",
    "modifppr",
    "heatppr",
)

# ppr and heatppr are the only measures whose matrix is not symmetric.
SYMMETRIC_MEASURES: frozenset[str] = frozenset(MEASURES) - {"ppr", "heatppr"}

PARAM_NAMES: dict[str, str] = {
    "katz": "alpha",
    "comm": "t",
    "dfact": "t",
    "heat": "t",
    "nheat": "t",
    "regL": "t",
    "absorp": "t",
    "ppr": "alpha",
    "modifppr": "alpha",
    "heatppr": "t",
}


class ParameterDomainError(ValueError):
    """Kernel parameter outside its open domain."""


@dataclass(frozen=True)
class KernelResult:
    """A computed similarity matrix tagged with its measure and parameter."""

    measure: str
    param: float
    matrix: np.ndarray
    param_domain: tuple[float, float]
    symmetric: bool

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "param", float(self.param))


def param_domain(measure: str, gm: GraphMatrices) -> tuple[float, float]:
    """Open interval of valid parameters for a measure on this graph."""
    if measure == "katz":
        return (0.0, 1.0 / spectral_radius(gm.weights))
    if measure in ("ppr", "modifppr"):
        return (0.0, 1.0)
    if measure in MEASURES:
        return (0.0, math.inf)
    raise ValueError(f"unknown measure {measure!r}")


def _check_param(measure: str, param: float, domain: tuple[float, float]) -> None:
    lo, hi = domain
    # The domain is open; resolvents blow up at its ends, so values within
    # 1e-12 of a boundary are rejected too. NaN fails every comparison,
    # hence the explicit finiteness test.
    if (
        not math.isfinite(param)
        or param <= lo + _BOUNDARY_MARGIN
        or (math.isfinite(hi) and param >= hi - _BOUNDARY_MARGIN)
    ):
        hi_text = f"{hi:.6g}" if math.isfinite(hi) else "inf"
        extra = " = 1/rho(W)" if measure == "katz" else ""
        raise ParameterDomainError(
            f"{measure}: {PARAM_NAMES[measure]} = {param} outside open domain "
            f"({lo:.6g}, {hi_text}{extra})"
        )


def katz(gm: GraphMatrices, alpha: float) -> KernelResult:
    """Walk-counting resolvent (I - alpha W)^-1, alpha below 1/rho(W)."""
    dom = param_domain("katz", gm)
    _check_param("katz", alpha, dom)
    k = invert(np.eye(gm.n) - alpha * gm.weights)
    return KernelResult("katz", alpha, k, dom, symmetric=True)


def communicability(gm: GraphMatrices, t: float) -> KernelResult:
    """exp(t W); positive semidefinite for every t > 0."""
    dom = param_domain("comm", gm)
    _check_param("comm", t, dom)
    return KernelResult("comm", t, matrix_exp(t * gm.weights), dom, symmetric=True)


def double_factorial(gm: GraphMatrices, t: float) -> KernelResult:
    """Series sum_k t^k / k!! W^k with 0!! = 1!! = 1, k!! = k (k-2)!!.

    The series converges for every t since k!! outgrows any geometric
    factor; summation stops once the additive term drops below 1e-16 in
    max-norm and the last three term norms are decreasing (so growth from
    t^k cannot masquerade as convergence). Raises OverflowError as soon
    as a term or the running sum leaves float64 range. The sum is
    symmetrized, since rounding in the matrix products leaves W's
    symmetry only approximately intact on large entries.
    """
    dom = param_domain("dfact", gm)
    _check_param("dfact", t, dom)
    tw = t * gm.weights
    tw2 = tw @ tw
    prev2 = np.eye(gm.n)  # k = 0
    prev1 = tw.copy()  # k = 1
    total = prev2 + prev1
    norms = [1.0, float(np.abs(prev1).max())]
    for k in range(2, _DFACT_MAX_TERMS):
        with np.errstate(over="ignore", invalid="ignore"):
            cur = prev2 @ tw2 / k  # t^k/k!! W^k from the k-2 term
            total += cur
        norms.append(float(np.abs(cur).max()))
        if not (math.isfinite(norms[-1]) and np.isfinite(total).all()):
            raise OverflowError(f"double-factorial series overflowed float64 at term {k}")
        if norms[-1] < _DFACT_TERM_TOL and norms[-3] > norms[-2] > norms[-1]:
            return KernelResult("dfact", t, 0.5 * (total + total.T), dom, symmetric=True)
        prev2, prev1 = prev1, cur
    raise NonConvergenceError(
        f"double-factorial series did not converge within {_DFACT_MAX_TERMS} terms"
    )


def heat(gm: GraphMatrices, t: float) -> KernelResult:
    """Laplacian heat kernel exp(-t L); rows sum to 1 since L 1 = 0."""
    dom = param_domain("heat", gm)
    _check_param("heat", t, dom)
    return KernelResult("heat", t, matrix_exp(-t * gm.laplacian), dom, symmetric=True)


def normalized_heat(gm: GraphMatrices, t: float) -> KernelResult:
    """Heat kernel of the normalized Laplacian; row sums are not constant."""
    dom = param_domain("nheat", gm)
    _check_param("nheat", t, dom)
    return KernelResult("nheat", t, matrix_exp(-t * gm.norm_laplacian), dom, symmetric=True)


def regularized_laplacian(gm: GraphMatrices, t: float) -> KernelResult:
    """Forest kernel (I + t L)^-1: PSD, row stochastic, entrywise positive."""
    dom = param_domain("regL", gm)
    _check_param("regL", t, dom)
    k = invert(np.eye(gm.n) + t * gm.laplacian)
    return KernelResult("regL", t, k, dom, symmetric=True)


def absorption(gm: GraphMatrices, rates: np.ndarray, t: float) -> KernelResult:
    """(t Diag(rates) + L)^-1 for strictly positive absorption rates."""
    dom = param_domain("absorp", gm)
    _check_param("absorp", t, dom)
    a = np.asarray(rates, dtype=float)
    if a.shape != (gm.n,):
        raise ValueError(f"expected {gm.n} absorption rates, got shape {a.shape}")
    if not np.isfinite(a).all() or a.min() <= 0:
        raise ValueError("absorption rates must be positive")
    k = invert(t * np.diag(a) + gm.laplacian)
    return KernelResult("absorp", t, k, dom, symmetric=True)


def ppr(gm: GraphMatrices, alpha: float) -> KernelResult:
    """Personalized PageRank (I - alpha P)^-1; asymmetric, rows sum to
    1/(1 - alpha)."""
    dom = param_domain("ppr", gm)
    _check_param("ppr", alpha, dom)
    k = invert(np.eye(gm.n) - alpha * gm.markov)
    return KernelResult("ppr", alpha, k, dom, symmetric=False)


def modified_ppr(gm: GraphMatrices, alpha: float) -> KernelResult:
    """(D - alpha W)^-1, the symmetric PSD variant of personalized
    PageRank; equals ppr's matrix times D^-1."""
    dom = param_domain("modifppr", gm)
    _check_param("modifppr", alpha, dom)
    k = invert(gm.degree - alpha * gm.weights)
    return KernelResult("modifppr", alpha, k, dom, symmetric=True)


def pagerank_heat(gm: GraphMatrices, t: float) -> KernelResult:
    """exp(-t (I - P)); asymmetric, rows sum to 1."""
    dom = param_domain("heatppr", gm)
    _check_param("heatppr", t, dom)
    k = matrix_exp(-t * (np.eye(gm.n) - gm.markov))
    return KernelResult("heatppr", t, k, dom, symmetric=False)


def compute_kernel(
    gm: GraphMatrices,
    measure: str,
    param: float,
    rates: np.ndarray | None = None,
) -> KernelResult:
    """Dispatch by measure name. Absorption rates default to all ones,
    which reduces absorp to a rescaled regularized Laplacian."""
    if measure == "katz":
        return katz(gm, param)
    if measure == "comm":
        return communicability(gm, param)
    if measure == "dfact":
        return double_factorial(gm, param)
    if measure == "heat":
        return heat(gm, param)
    if measure == "nheat":
        return normalized_heat(gm, param)
    if measure == "regL":
        return regularized_laplacian(gm, param)
    if measure == "absorp":
        return absorption(gm, np.ones(gm.n) if rates is None else rates, param)
    if measure == "ppr":
        return ppr(gm, param)
    if measure == "modifppr":
        return modified_ppr(gm, param)
    if measure == "heatppr":
        return pagerank_heat(gm, param)
    raise ValueError(f"unknown measure {measure!r} (known: {', '.join(MEASURES)})")
