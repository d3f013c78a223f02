"""Batch property audits, parameter-threshold bisection, and embedding
export; everything the CLI front end drives.

An audit check names a full pipeline: which matrix is derived from the
kernel (the kernel itself, the induced squared-distance matrix, or the
logarithmic distance) and which property check runs on it.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .graphs import WeightedGraph, build_matrices
from .kernels import KernelResult, compute_kernel
from .properties import (
    DEFAULT_TOL,
    PropertyReport,
    check_cutpoint_additive,
    check_distance_order,
    check_egocentrism,
    check_metric,
    check_proximity,
    check_psd,
    check_sigma_proximity,
    check_sq_euclidean,
    check_sqrt_distance,
    check_transitional,
)
from .transforms import embed, kernel_to_sq_dist, log_distance, pair_to_dist, symmetrize_geometric

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

SCHEMA_VERSION = 1

# Requestable audit checks. The log_* family evaluates the logarithmic
# similarity ln(s) and its induced distance; sym_psd tests the
# symmetrized kernel (K + K^T)/2, the PSD question that remains once an
# asymmetric measure has failed plain psd by definition.
CHECKS: tuple[str, ...] = (
    "psd",
    "sym_psd",
    "proximity",
    "sigma",
    "egocentrism",
    "metric",
    "sq_euclidean",
    "sqrt_distance",
    "distance_order",
    "transitional",
    "cutpoint_additive",
    "log_metric",
    "log_proximity",
    "log_psd",
    "log_order",
)

_ORDER_RE = re.compile(r"^order:(\d)(\d)<(\d)(\d)$")
_TRIANGLE_RE = re.compile(r"^triangle:(\d+),(\d+),(\d+)$")


class ThresholdBracketError(ValueError):
    """The property has the same status at both bracket endpoints."""


@dataclass(frozen=True)
class MeasureAudit:
    """One measure at one parameter with its property reports."""

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
    sigma: float
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
            "sigma": self.sigma,
            "results": [
                {
                    "measure": r.measure,
                    "param": r.param,
                    "param_domain": [enc(r.param_domain[0]), enc(r.param_domain[1])],
                    "symmetric": r.symmetric,
                    "checks": [
                        {k: enc(v) for k, v in dataclasses.asdict(c).items()}
                        for c in r.checks
                    ],
                }
                for r in self.results
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuditReport":
        results = []
        for r in data["results"]:
            checks = tuple(
                PropertyReport(
                    property=c["property"],
                    holds=c["holds"],
                    tolerance=c["tolerance"],
                    witness=None if c["witness"] is None else tuple(c["witness"]),
                    slack=c["slack"],
                    sigma=c["sigma"],
                    indeterminate=c["indeterminate"],
                    note=c["note"],
                )
                for c in r["checks"]
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
            sigma=data["sigma"],
            tool_version=data["tool_version"],
            results=tuple(results),
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection bracket around a property transition. The transition is
    assumed monotone inside the bracket; the flag records that this is an
    assumption, not a proof."""

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


def _asymmetry_report(prop: str, matrix: np.ndarray, tol: float) -> PropertyReport:
    return PropertyReport(
        prop, holds=False, tolerance=tol,
        slack=float(np.abs(matrix - matrix.T).max()),
        note="matrix is not symmetric",
    )


def run_check(
    check: str, kres: KernelResult, g: WeightedGraph, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Run one named audit check against a computed kernel."""
    k = kres.matrix
    if check == "psd":
        return check_psd(k, tol)
    if check == "sym_psd":
        rep = check_psd(0.5 * (k + k.T), tol)
        return dataclasses.replace(rep, property="sym_psd")
    if check == "proximity":
        if not kres.symmetric:
            return _asymmetry_report("proximity", k, tol)
        return check_proximity(k, tol)
    if check == "sigma":
        if not kres.symmetric:
            return _asymmetry_report("sigma_proximity", k, tol)
        return check_sigma_proximity(k, tol)
    if check == "egocentrism":
        return check_egocentrism(k, tol)
    if check == "metric":
        return check_metric(pair_to_dist(k), tol)
    if check == "sq_euclidean":
        return check_sq_euclidean(pair_to_dist(k), tol)
    if check == "sqrt_distance":
        return check_sqrt_distance(pair_to_dist(k), tol)
    if check == "distance_order":
        return check_distance_order(pair_to_dist(k))
    if check == "transitional":
        return check_transitional(k, g, tol)
    if check == "cutpoint_additive":
        return check_cutpoint_additive(log_distance(k), g, tol)
    if check == "log_metric":
        return dataclasses.replace(
            check_metric(log_distance(k), tol), property="log_metric"
        )
    if check == "log_proximity":
        s = k if kres.symmetric else symmetrize_geometric(k)
        return dataclasses.replace(
            check_proximity(np.log(s), tol), property="log_proximity"
        )
    if check == "log_psd":
        s = k if kres.symmetric else symmetrize_geometric(k)
        return dataclasses.replace(check_psd(np.log(s), tol), property="log_psd")
    if check == "log_order":
        return dataclasses.replace(
            check_distance_order(log_distance(k)), property="log_order"
        )
    raise ValueError(f"unknown check {check!r} (known: {', '.join(CHECKS)})")


def default_checks(measure_symmetric: bool, n: int) -> list[str]:
    """Expansion of '--check all' for one measure."""
    checks = ["psd"]
    if not measure_symmetric:
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


def run_audit(
    g: WeightedGraph,
    measures: list[tuple[str, float]],
    checks: list[str] | None = None,
    tol: float = DEFAULT_TOL,
    sigma: float = 1.0,
    rates: np.ndarray | None = None,
) -> AuditReport:
    """Compute each (measure, param) on g and run the requested checks.

    checks=None or ["all"] expands per measure via default_checks.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    gm = build_matrices(g)
    results = []
    for measure, param in measures:
        kres = compute_kernel(gm, measure, param, rates=rates)
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
                symmetric=kres.symmetric,
                checks=reports,
            )
        )
    return AuditReport(
        graph=g.name,
        n=g.n,
        tolerance=tol,
        sigma=sigma,
        tool_version=__version__,
        results=tuple(results),
    )


def _threshold_predicate(prop: str):
    """Map a threshold property name to a function of (kres, g, tol).

    Beyond the audit checks, two parameterized forms are accepted:
    order:IJ<KL   d(I,J) < d(K,L) on the induced squared distances
    triangle:I,J,K  d(I,J) + d(J,K) >= d(I,K), the single triangle with
                    middle vertex J (1-based indices).
    """
    m = _ORDER_RE.match(prop)
    if m:
        i, j, k, l = (int(c) - 1 for c in m.groups())

        def order_holds(kres, g, tol):
            if max(i, j, k, l) >= g.n:
                raise ValueError(f"{prop}: vertex index out of range for n={g.n}")
            d = pair_to_dist(kres.matrix)
            return bool(d[i, j] < d[k, l])

        return order_holds
    m = _TRIANGLE_RE.match(prop)
    if m:
        i, j, k = (int(c) - 1 for c in m.groups())

        def triangle_holds(kres, g, tol):
            if max(i, j, k) >= g.n:
                raise ValueError(f"{prop}: vertex index out of range for n={g.n}")
            d = pair_to_dist(kres.matrix)
            return bool(d[i, j] + d[j, k] >= d[i, k])

        return triangle_holds
    if prop in CHECKS:
        return lambda kres, g, tol: run_check(prop, kres, g, tol).holds
    raise ValueError(
        f"unknown threshold property {prop!r}; expected one of {', '.join(CHECKS)}, "
        "order:IJ<KL, or triangle:I,J,K"
    )


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
    """Bisect the kernel parameter for the interval where a property
    flips, down to the requested bracket width."""
    if not (resolution > 0):
        raise ValueError("resolution must be positive")
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    gm = build_matrices(g)
    predicate = _threshold_predicate(prop)

    evaluations = 0

    def holds_at(param: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        kres = compute_kernel(gm, measure, param, rates=rates)
        return predicate(kres, g, tol)

    holds_lo = holds_at(lo)
    holds_hi = holds_at(hi)
    if holds_lo == holds_hi:
        raise ThresholdBracketError(
            f"{measure}/{prop}: property {'holds' if holds_lo else 'fails'} at both "
            f"endpoints {lo} and {hi}; nothing to bisect"
        )
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if holds_at(mid) == holds_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        measure=measure,
        property=prop,
        bracket_low=lo,
        bracket_high=hi,
        direction="holds_below" if holds_lo else "holds_above",
        evaluations=evaluations,
        resolution=resolution,
    )


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
    gm = build_matrices(g)
    kres = compute_kernel(gm, measure, param, rates=rates)
    if not kres.symmetric:
        raise ValueError(
            f"{measure} is not symmetric, hence not positive semidefinite: "
            "no Euclidean embedding exists"
        )
    coords = embed(kres.matrix)
    expected = kernel_to_sq_dist(kres.matrix)
    diff = coords[:, None, :] - coords[None, :, :]
    actual = (diff * diff).sum(axis=2)
    err = float(np.abs(actual - expected).max())
    if err > 1e-7:
        raise RuntimeError(
            f"embedding reconstruction off by {err:.3e}, beyond 1e-07"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(coords.shape[1])])
        for row in coords:
            writer.writerow([repr(float(v)) for v in row])
    return coords
