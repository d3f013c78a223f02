"""The ten similarity measures, each mapping a weighted graph plus one
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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .graphs import WeightedGraph, _read_only
from .linalg import NonConvergenceError, invert, is_symmetric, matrix_exp
from .properties import PropertyReport, check_proximity
from .transforms import log_distance, pair_to_dist, symmetrize_geometric

__all__ = [
    "ParameterDomainError",
    "KernelResult",
    "MEASURES",
    "SYMMETRIC_MEASURES",
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


@dataclass(frozen=True)
class _Measure:
    """What the paper fixes for a measure besides its formula: the name
    of its parameter, whether its matrix is symmetric on every graph, and
    the upper end of its open parameter domain, whose lower end is always
    0. An upper end of None stands for 1/rho(W), which depends on the
    graph. compute maps (graph, parameter, absorption rates or None) to
    the kernel; it calls the public function by its module-level name at
    call time, so a caller may wrap that name."""

    param: str
    symmetric: bool
    upper: float | None
    compute: Callable[[WeightedGraph, float, np.ndarray | None], KernelResult]


_SPECS: dict[str, _Measure] = {
    "katz": _Measure("alpha", True, None, lambda g, p, r: katz(g, p)),
    "comm": _Measure("t", True, math.inf, lambda g, p, r: communicability(g, p)),
    "dfact": _Measure("t", True, math.inf, lambda g, p, r: double_factorial(g, p)),
    "heat": _Measure("t", True, math.inf, lambda g, p, r: heat(g, p)),
    "nheat": _Measure("t", True, math.inf, lambda g, p, r: normalized_heat(g, p)),
    "regL": _Measure("t", True, math.inf, lambda g, p, r: regularized_laplacian(g, p)),
    # rates default to all ones, which reduce absorp to a rescaled regL
    "absorp": _Measure(
        "t", True, math.inf,
        lambda g, p, r: absorption(g, np.ones(g.n) if r is None else r, p),
    ),
    "ppr": _Measure("alpha", False, 1.0, lambda g, p, r: ppr(g, p)),
    "modifppr": _Measure("alpha", True, 1.0, lambda g, p, r: modified_ppr(g, p)),
    "heatppr": _Measure("t", False, math.inf, lambda g, p, r: pagerank_heat(g, p)),
}

MEASURES: tuple[str, ...] = tuple(_SPECS)
SYMMETRIC_MEASURES: frozenset[str] = frozenset(m for m, s in _SPECS.items() if s.symmetric)


class ParameterDomainError(ValueError):
    """Kernel parameter outside its open domain."""


@dataclass(frozen=True, eq=False)
class KernelResult:
    """A computed similarity matrix tagged with its measure and parameter;
    kernel results compare by identity.

    symmetric tells whether this matrix is symmetric, to linalg's
    tolerance; it is decided once, from the matrix, and is not a
    constructor argument. It may differ from the measure's flag in
    SYMMETRIC_MEASURES: on a regular graph P = W / deg is symmetric, and
    so are the matrices of the asymmetric measures ppr and heatppr.

    What the audit checks derive from the matrix, its pair distance,
    logarithmic distance and logarithmic similarity, and its proximity
    report at each tolerance, is computed on first use and then kept, so
    that every check run on one kernel result derives each of them once.
    Each derivation looks up its transform or check by module-level name
    at call time, so a caller may wrap those names.
    """

    measure: str
    param: float
    matrix: np.ndarray
    param_domain: tuple[float, float]
    symmetric: bool = field(init=False)

    def __post_init__(self):
        m = _read_only(np.array(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "param", float(self.param))
        object.__setattr__(self, "symmetric", bool(is_symmetric(m)))

    @cached_property
    def dist(self) -> np.ndarray:
        """pair_to_dist of the matrix, the induced distance."""
        return _read_only(pair_to_dist(self.matrix))

    @cached_property
    def log_dist(self) -> np.ndarray:
        """log_distance of the matrix."""
        return _read_only(log_distance(self.matrix))

    @cached_property
    def log_similarity(self) -> np.ndarray:
        """ln of the matrix, geometrically symmetrized first if asymmetric."""
        k = self.matrix
        return _read_only(np.log(k if self.symmetric else symmetrize_geometric(k)))

    @cached_property
    def _proximity(self) -> dict[float, PropertyReport]:
        return {}

    def proximity(self, tol: float) -> PropertyReport:
        """check_proximity of the matrix at tol."""
        if tol not in self._proximity:
            self._proximity[tol] = check_proximity(self.matrix, tol)
        return self._proximity[tol]


def param_domain(measure: str, g: WeightedGraph) -> tuple[float, float]:
    """Open interval of valid parameters for a measure on this graph."""
    if measure not in _SPECS:
        raise ValueError(f"unknown measure {measure!r}")
    upper = _SPECS[measure].upper
    return (0.0, 1.0 / g.rho if upper is None else upper)


def _kernel(measure: str, g: WeightedGraph, param: float, formula) -> KernelResult:
    """Check param against the measure's domain, then evaluate formula()
    and tag the matrix with the measure, parameter and domain."""
    spec = _SPECS[measure]
    lo, hi = dom = param_domain(measure, g)
    # The domain is open; resolvents blow up at its ends, so values within
    # 1e-12 of a boundary are rejected too. NaN fails every comparison,
    # hence the explicit finiteness test.
    if (
        not math.isfinite(param)
        or param <= lo + _BOUNDARY_MARGIN
        or (math.isfinite(hi) and param >= hi - _BOUNDARY_MARGIN)
    ):
        hi_text = f"{hi:.6g}" if math.isfinite(hi) else "inf"
        extra = " = 1/rho(W)" if spec.upper is None else ""
        raise ParameterDomainError(
            f"{measure}: {spec.param} = {param} outside open domain "
            f"({lo:.6g}, {hi_text}{extra}) or within {_BOUNDARY_MARGIN:g} of a finite end"
        )
    return KernelResult(measure, param, formula(), dom)


def katz(g: WeightedGraph, alpha: float) -> KernelResult:
    """Walk-counting resolvent (I - alpha W)^-1, alpha below 1/rho(W)."""
    return _kernel("katz", g, alpha, lambda: invert(np.eye(g.n) - alpha * g.weights))


def communicability(g: WeightedGraph, t: float) -> KernelResult:
    """exp(t W); positive semidefinite for every t > 0."""
    return _kernel("comm", g, t, lambda: matrix_exp(t * g.weights))


def double_factorial(g: WeightedGraph, t: float) -> KernelResult:
    """Series sum_k t^k / k!! W^k with 0!! = 1!! = 1, k!! = k (k-2)!!.

    The series converges for every t since k!! outgrows any geometric
    factor; summation stops once the additive term drops below 1e-16 in
    max-norm and the last three term norms are decreasing (so growth from
    t^k cannot masquerade as convergence). Raises OverflowError as soon
    as a term or the running sum leaves float64 range. The sum is
    symmetrized, since rounding in the matrix products leaves W's
    symmetry only approximately intact on large entries.
    """
    return _kernel("dfact", g, t, lambda: _double_factorial_series(t * g.weights))


def _double_factorial_series(tw: np.ndarray) -> np.ndarray:
    tw2 = tw @ tw
    prev2 = np.eye(tw.shape[0])  # k = 0
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
            return 0.5 * (total + total.T)
        prev2, prev1 = prev1, cur
    raise NonConvergenceError(
        f"double-factorial series did not converge within {_DFACT_MAX_TERMS} terms"
    )


def heat(g: WeightedGraph, t: float) -> KernelResult:
    """Laplacian heat kernel exp(-t L); rows sum to 1 since L 1 = 0."""
    return _kernel("heat", g, t, lambda: matrix_exp(-t * g.laplacian))


def normalized_heat(g: WeightedGraph, t: float) -> KernelResult:
    """Heat kernel of the normalized Laplacian; row sums are not constant."""
    return _kernel("nheat", g, t, lambda: matrix_exp(-t * g.norm_laplacian))


def regularized_laplacian(g: WeightedGraph, t: float) -> KernelResult:
    """Forest kernel (I + t L)^-1: PSD, row stochastic, entrywise positive."""
    return _kernel("regL", g, t, lambda: invert(np.eye(g.n) + t * g.laplacian))


def absorption(g: WeightedGraph, rates: np.ndarray, t: float) -> KernelResult:
    """(t Diag(rates) + L)^-1 for strictly positive absorption rates."""

    def formula():
        a = np.asarray(rates, dtype=float)
        if a.shape != (g.n,):
            raise ValueError(f"expected {g.n} absorption rates, got shape {a.shape}")
        if not np.isfinite(a).all() or a.min() <= 0:
            raise ValueError("absorption rates must be positive")
        return invert(t * np.diag(a) + g.laplacian)

    return _kernel("absorp", g, t, formula)


def ppr(g: WeightedGraph, alpha: float) -> KernelResult:
    """Personalized PageRank (I - alpha P)^-1; asymmetric, rows sum to
    1/(1 - alpha)."""
    return _kernel("ppr", g, alpha, lambda: invert(np.eye(g.n) - alpha * g.markov))


def modified_ppr(g: WeightedGraph, alpha: float) -> KernelResult:
    """(D - alpha W)^-1, the symmetric PSD variant of personalized
    PageRank; equals ppr's matrix times D^-1."""
    return _kernel("modifppr", g, alpha, lambda: invert(g.degree - alpha * g.weights))


def pagerank_heat(g: WeightedGraph, t: float) -> KernelResult:
    """exp(-t (I - P)); asymmetric, rows sum to 1."""
    return _kernel("heatppr", g, t, lambda: matrix_exp(-t * (np.eye(g.n) - g.markov)))


def compute_kernel(
    g: WeightedGraph,
    measure: str,
    param: float,
    rates: np.ndarray | None = None,
) -> KernelResult:
    """Dispatch by measure name. Absorption rates default to all ones;
    the other measures ignore rates."""
    spec = _SPECS.get(measure)
    if spec is None:
        raise ValueError(f"unknown measure {measure!r} (known: {', '.join(MEASURES)})")
    return spec.compute(g, param, rates)
