"""Batch property audits, parameter-threshold search, and embedding
export; everything the CLI front end drives.

An audit check names a full pipeline: which matrix is derived from the
kernel (the kernel itself, the induced squared-distance matrix, or the
logarithmic distance) and which property check runs on it.

run_audit, find_threshold and export_embedding raise FloatingPointError
where a float64 operation overflows, divides by zero or is invalid.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._version import __version__
from .graphs import WeightedGraph
from .kernels import SYMMETRIC_MEASURES, KernelResult, compute_kernel
from .properties import (
    DEFAULT_TOL,
    PropertyReport,
    _asymmetry_report,
    _sigma_proximity,
    check_cutpoint_additive,
    check_distance_order,
    check_egocentrism,
    check_metric,
    check_proximity,
    check_psd,
    check_sq_euclidean,
    check_sqrt_distance,
    check_transitional,
)
from .transforms import embed, kernel_to_sq_dist

__all__ = [
    "CHECKS",
    "ThresholdBracketError",
    "MeasureAudit",
    "AuditReport",
    "ThresholdResult",
    "default_checks",
    "run_check",
    "run_audit",
    "find_threshold",
    "export_embedding",
]

SCHEMA_VERSION = 2

_ORDER_RE = re.compile(r"^order:(\d)(\d)<(\d)(\d)$")
_TRIANGLE_RE = re.compile(r"^triangle:(\d+),(\d+),(\d+)$")
# Threshold properties whose report slack is a smallest eigenvalue.
_EIGEN_CHECKS = frozenset({"psd", "sym_psd", "sq_euclidean"})
_EPS = float(np.finfo(float).eps)
# PropertyReport's fields in declaration order: the keys of a check's JSON
_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(PropertyReport))


class ThresholdBracketError(ValueError):
    """The property has the same status at both bracket endpoints."""


def _raise_on_float_error(fn):
    """Run fn with float64 overflow, division by zero and invalid
    operations raising FloatingPointError, so that a log of 0 or an inf
    ends the call instead of warning and yielding a verdict drawn from
    inf or nan."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn(*args, **kwargs)

    return guarded


@dataclass(frozen=True)
class MeasureAudit:
    """One measure at one parameter with its property reports.

    symmetric is the measure's flag (measure in SYMMETRIC_MEASURES), not
    whether this graph's matrix happens to be symmetric."""

    measure: str
    param: float
    param_domain: tuple[float, float]
    symmetric: bool
    checks: tuple[PropertyReport, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


@dataclass(frozen=True)
class AuditReport:
    graph: str
    n: int
    tolerance: float
    tool_version: str
    results: tuple[MeasureAudit, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.all_hold for r in self.results)

    def to_dict(self) -> dict:
        def enc(value):
            if isinstance(value, float) and math.isinf(value):
                return None
            if isinstance(value, tuple):
                return [enc(v) for v in value]
            return value

        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "graphprox",
            "tool_version": self.tool_version,
            "graph": self.graph,
            "n": self.n,
            "tolerance": self.tolerance,
            "results": [
                {
                    "measure": r.measure,
                    "param": r.param,
                    "param_domain": [enc(r.param_domain[0]), enc(r.param_domain[1])],
                    "symmetric": r.symmetric,
                    "checks": [
                        {k: enc(getattr(c, k)) for k in _REPORT_FIELDS} for c in r.checks
                    ],
                }
                for r in self.results
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuditReport":
        """Read a to_dict document of schema version 1 or 2. Version 1
        also carried a report-level "sigma" that no check read; it is
        dropped."""
        results = []
        for r in data["results"]:
            # PropertyReport turns a witness list back into a tuple
            checks = tuple(
                PropertyReport(**{k: c[k] for k in _REPORT_FIELDS}) for c in r["checks"]
            )
            lo, hi = r["param_domain"]
            results.append(
                MeasureAudit(
                    measure=r["measure"],
                    param=r["param"],
                    param_domain=(lo, math.inf if hi is None else hi),
                    symmetric=r["symmetric"],
                    checks=checks,
                )
            )
        return cls(
            graph=data["graph"],
            n=data["n"],
            tolerance=data["tolerance"],
            tool_version=data["tool_version"],
            results=tuple(results),
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Bracket around a property transition, narrowed by find_threshold
    with ITP steps where the property has a signed margin and bisection
    steps elsewhere. evaluations counts the property evaluations, the two
    endpoints included. The transition is assumed monotone inside the
    bracket; the flag records that this is an assumption, not a proof."""

    measure: str
    property: str
    bracket_low: float
    bracket_high: float
    direction: str  # "holds_below" or "holds_above"
    evaluations: int
    resolution: float
    monotonic_assumed: bool = True

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _renamed(prop: str, report: PropertyReport) -> PropertyReport:
    return dataclasses.replace(report, property=prop)


# Requestable audit checks, each a function of (kernel result, graph,
# tolerance). The log_* family evaluates the logarithmic similarity
# ln(s) and its induced distance; sym_psd tests the symmetrized kernel
# (K + K^T)/2, the PSD question that remains once an asymmetric measure
# has failed plain psd by definition; sigma adds the row-sum condition
# to the proximity report. proximity and sigma read kr.symmetric, which
# the matrix decides, not the measure: on a regular graph ppr's is. The
# distances, the logarithmic similarity and the proximity scan are the
# kernel result's, derived once however many checks read them. The lambdas
# look up the property checks by their module-level names at call time,
# so a caller may wrap those names.
_CHECKS: dict[str, Callable[[KernelResult, WeightedGraph, float], PropertyReport]] = {
    "psd": lambda kr, g, tol: check_psd(kr.matrix, tol),
    "sym_psd": lambda kr, g, tol: _renamed(
        "sym_psd", check_psd(0.5 * (kr.matrix + kr.matrix.T), tol)
    ),
    "proximity": lambda kr, g, tol: (
        kr.proximity(tol) if kr.symmetric
        else _asymmetry_report("proximity", kr.matrix, tol)
    ),
    "sigma": lambda kr, g, tol: (
        _sigma_proximity(kr.matrix, kr.proximity(tol), tol) if kr.symmetric
        else _asymmetry_report("sigma_proximity", kr.matrix, tol)
    ),
    "egocentrism": lambda kr, g, tol: check_egocentrism(kr.matrix, tol),
    "metric": lambda kr, g, tol: check_metric(kr.dist, tol),
    "sq_euclidean": lambda kr, g, tol: check_sq_euclidean(kr.dist, tol),
    "sqrt_distance": lambda kr, g, tol: check_sqrt_distance(kr.dist, tol),
    "distance_order": lambda kr, g, tol: check_distance_order(kr.dist),
    "transitional": lambda kr, g, tol: check_transitional(kr.matrix, g, tol),
    "cutpoint_additive": lambda kr, g, tol: check_cutpoint_additive(kr.log_dist, g, tol),
    "log_metric": lambda kr, g, tol: _renamed("log_metric", check_metric(kr.log_dist, tol)),
    "log_proximity": lambda kr, g, tol: _renamed(
        "log_proximity", check_proximity(kr.log_similarity, tol)
    ),
    "log_psd": lambda kr, g, tol: _renamed("log_psd", check_psd(kr.log_similarity, tol)),
    "log_order": lambda kr, g, tol: _renamed(
        "log_order", check_distance_order(kr.log_dist)
    ),
}

CHECKS: tuple[str, ...] = tuple(_CHECKS)


def run_check(
    check: str, kres: KernelResult, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Run one named audit check against a computed kernel. Checks run on
    one KernelResult share what they derive from its matrix."""
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r} (known: {', '.join(CHECKS)})")
    _check_tol(tol)
    return _CHECKS[check](kres, g, tol)


def default_checks(symmetric: bool, n: int) -> list[str]:
    """Expansion of '--check all' for one kernel: sym_psd joins psd
    where the kernel's matrix is asymmetric (run_audit passes
    KernelResult.symmetric), distance_order where n is 4."""
    checks = ["psd"]
    if not symmetric:
        checks.append("sym_psd")
    checks += [
        "proximity",
        "sigma",
        "egocentrism",
        "metric",
        "sq_euclidean",
        "sqrt_distance",
        "transitional",
        "cutpoint_additive",
    ]
    if n == 4:
        checks.append("distance_order")
    return checks


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


@_raise_on_float_error
def run_audit(
    g: WeightedGraph,
    measures: list[tuple[str, float]],
    checks: list[str] | None = None,
    tol: float = DEFAULT_TOL,
    rates: np.ndarray | None = None,
) -> AuditReport:
    """Compute each (measure, param) on g and run the requested checks.

    checks=None or ["all"] expands per measure via default_checks.
    """
    _check_tol(tol)
    results = []
    for measure, param in measures:
        kres = compute_kernel(g, measure, param, rates=rates)
        if checks is None or checks == ["all"]:
            wanted = default_checks(kres.symmetric, g.n)
        else:
            wanted = list(checks)
        reports = tuple(run_check(c, kres, g, tol) for c in wanted)
        results.append(
            MeasureAudit(
                measure=measure,
                param=param,
                param_domain=kres.param_domain,
                symmetric=measure in SYMMETRIC_MEASURES,
                checks=reports,
            )
        )
    return AuditReport(
        graph=g.name,
        n=g.n,
        tolerance=tol,
        tool_version=__version__,
        results=tuple(results),
    )


def _vertex_indices(prop: str, m: re.Match, n: int) -> list[int]:
    """0-based indices of the 1-based vertices matched in prop."""
    vertices = [int(c) - 1 for c in m.groups()]
    if not all(0 <= v < n for v in vertices):
        raise ValueError(f"{prop}: vertex index out of range for n={n}")
    return vertices


def _threshold_predicate(prop: str, n: int):
    """Map a threshold property name to a function of (kres, g, tol) that
    returns (holds, margin).

    Beyond the audit checks, two parameterized forms are accepted:
    order:IJ<KL   d(I,J) < d(K,L) on the induced squared distances
    triangle:I,J,K  d(I,J) + d(J,K) >= d(I,K), the single triangle with
                    middle vertex J (1-based indices, at most n).

    The margin is a continuous signed value, positive where the property
    holds: d(K,L) - d(I,J) for order, d(I,J) + d(J,K) - d(I,K) for
    triangle, and the smallest eigenvalue plus tol for sym_psd,
    sq_euclidean and, where the kernel's matrix is symmetric, psd; psd of
    an asymmetric matrix reports the asymmetry instead. Every other
    property has none (None). find_threshold only interpolates margins
    to pick its next parameter; the verdict is always holds.
    """
    m = _ORDER_RE.match(prop)
    if m:
        i, j, k, l = _vertex_indices(prop, m, n)

        def order_holds(kres, g, tol):
            d = kres.dist
            return bool(d[i, j] < d[k, l]), float(d[k, l] - d[i, j])

        return order_holds
    m = _TRIANGLE_RE.match(prop)
    if m:
        i, j, k = _vertex_indices(prop, m, n)

        def triangle_holds(kres, g, tol):
            d = kres.dist
            return bool(d[i, j] + d[j, k] >= d[i, k]), float(d[i, j] + d[j, k] - d[i, k])

        return triangle_holds
    if prop in CHECKS:
        eigen = prop in _EIGEN_CHECKS

        def check_holds(kres, g, tol):
            report = run_check(prop, kres, g, tol)
            if eigen and (kres.symmetric or prop != "psd"):
                return report.holds, report.slack + tol
            return report.holds, None

        return check_holds
    raise ValueError(
        f"unknown threshold property {prop!r}; expected one of {', '.join(CHECKS)}, "
        "order:IJ<KL, or triangle:I,J,K"
    )


def _itp_point(
    lo: float, hi: float, m_lo: float | None, m_hi: float | None, k1: float, budget: float
) -> float:
    """The next parameter to evaluate inside (lo, hi) by ITP (interpolate,
    truncate, project; Oliveira & Takahashi, ACM TOMS 47(1), 2020).

    The regula falsi point of the margins m_lo and m_hi is moved towards
    the midpoint by k1 (hi - lo)^2 (the truncation, k2 = 2), then
    projected onto the points that leave an interval no wider than budget
    whichever end is replaced.
    Without a usable interpolant (a margin of None, equal margins, or a
    point outside (lo, hi), as when a margin disagrees in sign with its
    verdict) or once the budget allows nothing else, it is the midpoint.
    """
    mid = 0.5 * (lo + hi)
    r = budget - 0.5 * (hi - lo)
    if m_lo is None or m_hi is None or m_lo == m_hi or not r > 0:
        return mid
    x_f = lo + (hi - lo) * (m_lo / (m_lo - m_hi))
    if not lo < x_f < hi:  # also false for a NaN from infinite margins
        return mid
    sigma = math.copysign(1.0, mid - x_f)
    delta = k1 * (hi - lo) * (hi - lo)
    x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
    x = x_t if abs(x_t - mid) <= r else mid - sigma * r
    return x if lo < x < hi else mid


@_raise_on_float_error
def find_threshold(
    g: WeightedGraph,
    measure: str,
    prop: str,
    lo: float,
    hi: float,
    resolution: float = 1e-4,
    tol: float = DEFAULT_TOL,
    rates: np.ndarray | None = None,
) -> ThresholdResult:
    """Narrow the kernel parameter interval where a property flips down to
    the requested bracket width, or to adjacent floats when the width is
    below their spacing.

    Each step evaluates the property at one parameter and replaces the
    end whose verdict it shares. Where the property has a signed margin
    (see _threshold_predicate) the parameter is chosen by ITP, which
    converges superlinearly on a smooth margin; elsewhere it is the
    midpoint. Either way it takes no more steps than bisection,
    ceil(log2((hi - lo) / resolution)) after the two endpoints: ITP's
    projection keeps the interval after each step within resolution times
    2 to the number of steps bisection would still have to take. The
    constants are the paper's k1 = 0.2 / (hi - lo), k2 = 2 and n0 = 0.
    """
    if not (resolution > 0):
        raise ValueError("resolution must be positive")
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    _check_tol(tol)
    predicate = _threshold_predicate(prop, g.n)

    evaluations = 0

    def holds_at(param: float) -> tuple[bool, float | None]:
        nonlocal evaluations
        evaluations += 1
        kres = compute_kernel(g, measure, param, rates=rates)
        return predicate(kres, g, tol)

    holds_lo, m_lo = holds_at(lo)
    holds_hi, m_hi = holds_at(hi)
    if holds_lo == holds_hi:
        raise ThresholdBracketError(
            f"{measure}/{prop}: property {'holds' if holds_lo else 'fails'} at both "
            f"endpoints {lo} and {hi}; nothing to locate"
        )
    k1 = 0.2 / (hi - lo)
    # The width bisection's schedule allows after the next step: the
    # smallest resolution * 2^m that is at least half the bracket, halved
    # per step. A sliver is held back so that the rounding of every step
    # cannot carry the last bracket past resolution; where that sliver is
    # the whole budget, every step is a midpoint.
    budget, steps = resolution, 1
    while 2.0 * budget < hi - lo:
        budget, steps = 2.0 * budget, steps + 1
    budget *= 1.0 - 8.0 * steps * _EPS * max(abs(lo), abs(hi)) / resolution
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        param = _itp_point(lo, hi, m_lo, m_hi, k1, budget)
        holds, margin = holds_at(param)
        if holds == holds_lo:
            lo, m_lo = param, margin
        else:
            hi, m_hi = param, margin
        budget *= 0.5
    return ThresholdResult(
        measure=measure,
        property=prop,
        bracket_low=lo,
        bracket_high=hi,
        direction="holds_below" if holds_lo else "holds_above",
        evaluations=evaluations,
        resolution=resolution,
    )


@_raise_on_float_error
def export_embedding(
    g: WeightedGraph,
    measure: str,
    param: float,
    path: str,
    rates: np.ndarray | None = None,
) -> np.ndarray:
    """Embed the kernel's vertices in R^n and write them as CSV, one
    point per row under a header x1..xn. Returns the coordinate array.

    Raises NotPositiveSemidefiniteError for indefinite kernels and
    ValueError for asymmetric ones (no embedding exists either way).
    """
    kres = compute_kernel(g, measure, param, rates=rates)
    if not kres.symmetric:
        raise ValueError(
            f"{measure} is not symmetric, hence not positive semidefinite: "
            "no Euclidean embedding exists"
        )
    coords = embed(kres.matrix)
    expected = kernel_to_sq_dist(kres.matrix)
    # |c_i - c_j|^2 in Gram form, sq_i + sq_j - 2 c_i.c_j; its rounding
    # error, about n eps max|K|, is far below the bound
    gram = coords @ coords.T
    sq = np.diag(gram)
    actual = (sq[:, None] + sq[None, :]) - 2.0 * gram
    err = float(np.abs(actual - expected).max())
    # relative to the largest squared distance or kernel entry once that
    # exceeds 1: both sides are differences of kernel entries, so their
    # rounding error grows with the entries even where distances are small
    bound = 1e-7 * max(1.0, float(np.abs(expected).max()), float(np.abs(kres.matrix).max()))
    if not err <= bound:  # also true for a NaN error
        raise RuntimeError(
            f"embedding reconstruction off by {err:.3e}, beyond {bound:.3g}"
        )
    # embed's coordinates are exactly symmetric, so each value is formatted
    # once, on or above the diagonal, and row i takes its first i fields
    # from the rows above. embed may be wrapped, hence the check: equal
    # bits on both sides, signed zeros included, give the same text.
    bits = np.asarray(coords, dtype=float).view(np.uint64)
    if not np.array_equal(bits, bits.T):
        raise RuntimeError("embedding coordinates are not exactly symmetric")
    cells: list[list[str]] = []
    for i, row in enumerate(coords.tolist()):
        cells.append([above[i] for above in cells] + list(map(repr, row[i:])))
    # the bytes csv.writer writes: no field needs quoting, lines end in \r\n
    lines = [",".join(f"x{i + 1}" for i in range(coords.shape[1]))]
    lines += [",".join(row) for row in cells]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    return coords
