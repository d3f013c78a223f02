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
import json
import math
import operator
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

import numpy as np

from ._version import __version__
from .graphs import WeightedGraph
from .kernels import SYMMETRIC_MEASURES, KernelResult, _shared, _stack, compute_kernel
from .linalg import DEFAULT_TOL, _EPS, _max_abs_each, _symmetrized
from .properties import (
    PropertyReport,
    _asymmetry_report,
    _check_tol,
    _metric,
    _psd_reports,
    _sigma_proximity,
    _transitional,
    check_cutpoint_additive,
    check_distance_order,
    check_egocentrism,
    check_metric,
    check_proximity,
    check_psd,
    check_sq_euclidean,
    check_sqrt_distance,
)
from .transforms import embed, kernel_to_sq_dist

__all__ = [
    "CHECKS",
    "ThresholdBracketError",
    "MeasureAudit",
    "AuditReport",
    "ThresholdResult",
    "report_json",
    "default_checks",
    "run_check",
    "run_audit",
    "find_threshold",
    "export_embedding",
]

SCHEMA_VERSION = 2

_ORDER_RE = re.compile(r"^order:(\d)(\d)<(\d)(\d)$")
_TRIANGLE_RE = re.compile(r"^triangle:(\d+),(\d+),(\d+)$")
# PropertyReport's compared fields in declaration order: the keys of a
# check's JSON
_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(PropertyReport) if f.compare)


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
        """The document report_json writes, parsed: an infinite value is
        None, a tuple a list and a NaN a new float; a value report_json
        rejects raises TypeError here too."""
        return json.loads(report_json(self))

    @classmethod
    def from_dict(cls, data: dict) -> "AuditReport":
        """Read a parsed report_json document, as to_dict returns it, of
        schema version 1 or 2. Version 1 also carried a report-level
        "sigma" that no check read; it is dropped. Any other version
        raises ValueError."""
        version = data.get("schema_version")
        if version not in (1, 2):
            raise ValueError(f"AuditReport schema_version {version!r} is not 1 or 2")
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


def _json_template(keys, pad: str, named: bool = False) -> str:
    """An object as json.dumps(indent=2, sort_keys=True) writes it at
    indent pad, its keys sorted, with a %s for each value, or a %(key)s
    where named."""
    inner = pad + "  "
    slot = "%({})s" if named else "%s"
    items = ",\n".join(f'{inner}"{k}": ' + slot.format(k) for k in sorted(keys))
    return "{\n" + items + "\n" + pad + "}"


# Each schema level of report_json: a template and what fills it. A check
# and a threshold result list every dataclass field, so a new one reaches
# the JSON as it is.
_CHECK_KEYS = sorted(_REPORT_FIELDS)
_CHECK_FIELDS = operator.attrgetter(*_CHECK_KEYS)
_CHECK_JSON = _json_template(_CHECK_KEYS, " " * 8)
_THRESHOLD_KEYS = sorted(f.name for f in dataclasses.fields(ThresholdResult))
_THRESHOLD_FIELDS = operator.attrgetter(*_THRESHOLD_KEYS)
_THRESHOLD_JSON = _json_template(_THRESHOLD_KEYS, "")
_RESULT_JSON = _json_template(
    ("measure", "param", "param_domain", "symmetric", "checks"), " " * 4, named=True
)
_REPORT_JSON = _json_template(
    ("schema_version", "tool", "tool_version", "graph", "n", "tolerance", "results"),
    "",
    named=True,
)


def _json_value(value, pad: str, null_inf: bool) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it at
    indent pad, except that where null_inf an infinite float, value or one
    in the tuples it nests, is null; in a list it stays Infinity."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)  # repr() of a numpy float names its type
        if value != value:
            return "NaN"
        return "null" if null_inf else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        # null reaches into a tuple and what it holds, never into a list
        inner, keep = pad + "  ", null_inf and isinstance(value, tuple)
        return _json_array([_json_value(v, inner, keep) for v in value], pad)
    # a dict, or a type json.dumps rejects with TypeError
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _json_array(texts: list[str], pad: str) -> str:
    if not texts:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"


def report_json(report: AuditReport | ThresholdResult) -> str:
    """The JSON text --json writes, less the file's final newline: what
    json.dumps(doc, indent=2, sort_keys=True) gives for the report's
    document doc, formed from the dataclass fields without building doc.

    A ThresholdResult's document keys its fields. An AuditReport's keys
    schema_version, tool, tool_version, graph, n, tolerance and results:
    per MeasureAudit its measure, param, param_domain, symmetric and
    checks, each check keyed by PropertyReport's compared fields. An
    infinite domain end or check value, also inside a tuple, is null;
    other infinities are +-Infinity. A value json.dumps rejects raises
    TypeError."""
    if isinstance(report, ThresholdResult):
        return _THRESHOLD_JSON % tuple(
            [_json_value(v, "  ", False) for v in _THRESHOLD_FIELDS(report)]
        )
    p6, p8, p10 = " " * 6, " " * 8, " " * 10
    results = []
    for r in report.results:
        checks = [
            _CHECK_JSON % tuple([_json_value(v, p10, True) for v in _CHECK_FIELDS(c)])
            for c in r.checks
        ]
        domain = [_json_value(r.param_domain[i], p8, True) for i in (0, 1)]
        results.append(_RESULT_JSON % {
            "measure": _json_value(r.measure, p6, False),
            "param": _json_value(r.param, p6, False),
            "param_domain": _json_array(domain, p6),
            "symmetric": _json_value(r.symmetric, p6, False),
            "checks": _json_array(checks, p6),
        })
    return _REPORT_JSON % {
        "schema_version": _json_value(SCHEMA_VERSION, "  ", False),
        "tool": '"graphprox"',
        "tool_version": _json_value(report.tool_version, "  ", False),
        "graph": _json_value(report.graph, "  ", False),
        "n": _json_value(report.n, "  ", False),
        "tolerance": _json_value(report.tolerance, "  ", False),
        "results": _json_array(results, "  "),
    }


def _renamed(prop: str, reports: tuple[PropertyReport, ...]) -> tuple[PropertyReport, ...]:
    return tuple([dataclasses.replace(r, property=prop) for r in reports])


def _if_symmetric(kres, prop: str, tol: float, check) -> tuple[PropertyReport, ...]:
    """check of the kernel results among kres whose matrix is symmetric,
    in one call, and prop's asymmetry report of every other one."""
    picked = [kr for kr in kres if kr.symmetric]
    reports = iter(check(picked) if picked else ())
    return tuple([
        next(reports) if kr.symmetric else _asymmetry_report(prop, kr.matrix, tol)
        for kr in kres
    ])


def _proximity_reports(kres, tol: float) -> tuple[PropertyReport, ...]:
    """The proximity check of each of kres, kept in its memo for
    proximity, sigma and metric: check_proximity of a symmetric matrix,
    in one call, and the asymmetry report of any other."""
    return _shared(kres, ("proximity", tol), lambda todo: _if_symmetric(
        todo, "proximity", tol, lambda sym: check_proximity(_stack(sym), tol)
    ))


def _metric_reports(kres, tol: float) -> tuple[PropertyReport, ...]:
    """check_metric of each kernel result's pair distance, in one call
    to properties._metric, given each kernel result's proximity report,
    formed first."""
    t1 = _proximity_reports(kres, tol)
    return tuple(_metric(_stack(kres, "dist"), tol, t1))


def _transitional_reports(kres, tol: float) -> tuple[PropertyReport, ...]:
    """check_transitional of each kernel result, in one call. A kernel
    result whose pass certifies cutpoint_additive keeps in its memo the
    report properties._transitional returns for it."""
    reports, cutpoints = _transitional(_stack(kres), kres[0].graph, tol)
    for kr, cutpoint in zip(kres, cutpoints):
        if cutpoint is not None:
            kr._memo[("cutpoint_additive", tol)] = cutpoint
    return tuple(reports)


# Requestable audit checks: each maps (kernel results on one graph,
# tolerance) to one report per kernel result, running its property check
# once over the stack of their matrices. sym_psd tests (K + K^T)/2, the PSD
# question left once an asymmetric measure has failed psd; sigma adds the
# row-sum condition to the proximity report; the log_* checks read ln S
# and its distance. proximity, sigma and metric ask kr.symmetric, which
# the matrix decides, not the measure. What one check hands another stays
# in each kernel result's memo (kernels._shared): the proximity report,
# which metric reads (properties._metric), and the cutpoint_additive
# report that a transitional pass certifies (properties._transitional);
# cutpoint_additive derives the logarithmic distance only where the memo
# lacks it. Entries reach the public checks by module-level name
# (tests/test_late_binding.py); sym_psd, metric and transitional run
# private cores.
_CHECKS: dict[str, Callable[[tuple[KernelResult, ...], float], tuple[PropertyReport, ...]]] = {
    "psd": lambda ks, tol: check_psd(_stack(ks), tol),
    "sym_psd": lambda ks, tol: tuple(_psd_reports("sym_psd", _symmetrized(_stack(ks)), tol)),
    "proximity": _proximity_reports,
    "sigma": lambda ks, tol: _if_symmetric(
        ks, "sigma_proximity", tol,
        lambda sym: _sigma_proximity(_stack(sym), _proximity_reports(sym, tol), tol),
    ),
    "egocentrism": lambda ks, tol: check_egocentrism(_stack(ks), tol),
    "metric": _metric_reports,
    "sq_euclidean": lambda ks, tol: check_sq_euclidean(
        _stack(ks, "dist"), tol, _max_abs_each(_stack(ks))
    ),
    "sqrt_distance": lambda ks, tol: check_sqrt_distance(_stack(ks, "dist"), tol),
    "distance_order": lambda ks, tol: check_distance_order(_stack(ks, "dist")),
    "transitional": _transitional_reports,
    "cutpoint_additive": lambda ks, tol: _shared(
        ks, ("cutpoint_additive", tol),
        lambda todo: check_cutpoint_additive(_stack(todo, "log_dist"), ks[0].graph, tol),
    ),
    "log_metric": lambda ks, tol: _renamed(
        "log_metric", check_metric(_stack(ks, "log_dist"), tol)
    ),
    "log_proximity": lambda ks, tol: _renamed(
        "log_proximity", check_proximity(_stack(ks, "log_similarity"), tol)
    ),
    "log_psd": lambda ks, tol: _renamed(
        "log_psd", check_psd(_stack(ks, "log_similarity"), tol)
    ),
    "log_order": lambda ks, tol: _renamed(
        "log_order", check_distance_order(_stack(ks, "log_dist"))
    ),
}

CHECKS: tuple[str, ...] = tuple(_CHECKS)


def run_check(
    check: str,
    kres: KernelResult | Sequence[KernelResult],
    tol: float = DEFAULT_TOL,
) -> PropertyReport | tuple[PropertyReport, ...]:
    """Run one named audit check against a computed kernel and the graph
    it carries. Checks run on one KernelResult share what they derive
    from its matrix.

    Given a sequence of kernel results on one graph, it runs the check
    once over the stack of their matrices and returns a tuple of reports,
    each the one that kernel result gets on its own."""
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r} (known: {', '.join(CHECKS)})")
    _check_tol(tol)
    if isinstance(kres, KernelResult):
        return _CHECKS[check]((kres,), tol)[0]
    kres = tuple(kres)
    if not kres:
        return ()
    if len(kres) > 1 and any(kr.graph is not kres[0].graph for kr in kres):
        raise ValueError(f"run_check {check!r}: kernel results of different graphs")
    return _CHECKS[check](kres, tol)


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


@_raise_on_float_error
def run_audit(
    g: WeightedGraph,
    measures: list[tuple[str, float]],
    checks: list[str] | None = None,
    tol: float = DEFAULT_TOL,
    rates: np.ndarray | None = None,
) -> AuditReport:
    """Compute each (measure, param) on g and run the requested checks.

    checks=None or ["all"] expands per measure via default_checks. The
    kernels are computed in order, then each check runs once over the
    stack of the matrices of every measure that requests it; the reports
    equal those of one audit per measure. Where that raises, the audit is
    redone measure by measure, so the error is the one the first failing
    measure raises on its own.
    """
    _check_tol(tol)
    try:
        results = _audit(g, measures, checks, tol, rates)
    except Exception:
        if len(measures) < 2:
            raise
        results = [r for m in measures for r in _audit(g, [m], checks, tol, rates)]
    return AuditReport(
        graph=g.name,
        n=g.n,
        tolerance=tol,
        tool_version=__version__,
        results=tuple(results),
    )


def _audit(g, measures, checks, tol, rates) -> list[MeasureAudit]:
    """run_audit's results: the kernels in order, then each check once
    over the kernel results that request it, in the order first
    requested."""
    kernels, wanted = [], []
    requests: dict[str, list[int]] = {}  # check -> the kernels requesting it
    for i, (measure, param) in enumerate(measures):
        kres = compute_kernel(g, measure, param, rates=rates)
        kernels.append(kres)
        wanted.append(
            default_checks(kres.symmetric, g.n) if checks is None or checks == ["all"]
            else list(checks)
        )
        for check in wanted[-1]:
            rows = requests.setdefault(check, [])
            if not rows or rows[-1] != i:  # a check named twice runs once
                rows.append(i)
    reports: list[dict[str, PropertyReport]] = [{} for _ in kernels]
    for check, rows in requests.items():
        for i, report in zip(rows, run_check(check, [kernels[i] for i in rows], tol)):
            reports[i][check] = report
    return [
        MeasureAudit(
            measure=measure,
            param=param,
            param_domain=kres.param_domain,
            symmetric=measure in SYMMETRIC_MEASURES,
            checks=tuple([reports[i][c] for c in wanted[i]]),
        )
        for i, ((measure, param), kres) in enumerate(zip(measures, kernels))
    ]


def _vertex_indices(prop: str, m: re.Match, n: int) -> list[int]:
    """0-based indices of the 1-based vertices matched in prop."""
    vertices = [int(c) - 1 for c in m.groups()]
    if not all(0 <= v < n for v in vertices):
        raise ValueError(f"{prop}: vertex index out of range for n={n}")
    return vertices


def _threshold_predicate(prop: str, n: int):
    """Map a threshold property name to a function of (kres, tol) that
    returns (holds, margin).

    Beyond the audit checks, two parameterized forms are accepted:
    order:IJ<KL   d(I,J) < d(K,L) on the induced squared distances
    triangle:I,J,K  d(I,J) + d(J,K) >= d(I,K), the single triangle with
                    middle vertex J (1-based indices, at most n).

    The margin is a continuous signed value, positive where the property
    holds: d(K,L) - d(I,J) for order, d(I,J) + d(J,K) - d(I,K) for
    triangle, and for an audit check its report's margin, which the
    eigenvalue checks set and every other check leaves None.
    find_threshold only interpolates margins to pick its next parameter;
    the verdict is always holds.
    """
    m = _ORDER_RE.match(prop)
    if m:
        i, j, k, l = _vertex_indices(prop, m, n)

        def order_holds(kres, tol):
            d = kres.dist
            return bool(d[i, j] < d[k, l]), float(d[k, l] - d[i, j])

        return order_holds
    m = _TRIANGLE_RE.match(prop)
    if m:
        i, j, k = _vertex_indices(prop, m, n)

        def triangle_holds(kres, tol):
            d = kres.dist
            return bool(d[i, j] + d[j, k] >= d[i, k]), float(d[i, j] + d[j, k] - d[i, k])

        return triangle_holds
    if prop in CHECKS:
        def check_holds(kres, tol):
            report = run_check(prop, kres, tol)
            return report.holds, report.margin

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
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    _check_tol(tol)
    predicate = _threshold_predicate(prop, g.n)

    evaluations = 0

    def holds_at(param: float) -> tuple[bool, float | None]:
        nonlocal evaluations
        evaluations += 1
        return predicate(compute_kernel(g, measure, param, rates=rates), tol)

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

    Raises ValueError for an asymmetric kernel and
    NotPositiveSemidefiniteError for one that fails run_check("psd") at
    the default tolerance 1e-9, whose bound gram_factor shares, whatever
    tolerance an audit of the kernel used: no embedding exists either way.
    Raises RuntimeError, and writes nothing, where the rows do not
    reproduce the kernel's squared distances or are not exactly symmetric.
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
