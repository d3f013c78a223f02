"""Command-line front end.

    graphprox audit     paper:path4 --measure comm:1.0 --check proximity
    graphprox threshold paper:path4 --measure heat --property proximity --range 0.1 1.0
    graphprox embed     paper:path4 --measure heat:1.0 --out coords.csv

Exit codes: 0 all requested checks passed, 1 some check failed (report
still emitted), 2 usage or computation error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .audit import CHECKS, AuditReport, export_embedding, find_threshold, report_json, run_audit
from .graphs import BUILTIN_GRAPHS, WeightedGraph, builtin_graph, load_graph
from .kernels import MEASURES
from .linalg import DEFAULT_TOL, NonConvergenceError

_USAGE_ERRORS = (
    NonConvergenceError,
    OverflowError,
    FloatingPointError,
    ValueError,
    KeyError,
    IndexError,
    OSError,
)


# Any minus-led float literal, "-1e-300" and "-inf" included, is a value.
# Older argparse releases (3.11 among them) take only the "-1" and "-.5"
# forms as negative numbers and read the rest as unknown options.
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _resolve_graph(positional: str | None, flag: str | None) -> WeightedGraph:
    if (positional is None) == (flag is None):
        raise ValueError("give the graph exactly once, positionally or via --graph")
    spec = positional if positional is not None else flag
    if spec in BUILTIN_GRAPHS:
        return builtin_graph(spec)
    # utf-8-sig drops the byte-order mark some editors write first
    return load_graph(Path(spec).read_text(encoding="utf-8-sig"), name=spec)


def _parse_measures(values: list[str]) -> list[tuple[str, float]]:
    out = []
    for chunk in values:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, param = item.partition(":")
            if not sep:
                raise ValueError(f"measure {item!r} must be name:param")
            if name not in MEASURES:
                raise ValueError(f"unknown measure {name!r} (known: {', '.join(MEASURES)})")
            out.append((name, float(param)))
    if not out:
        raise ValueError("at least one --measure is required")
    return out


def _parse_checks(value: str) -> list[str] | None:
    names = [c.strip() for c in value.split(",") if c.strip()]
    if names == ["all"]:
        return None
    if "all" in names:
        raise ValueError("--check all takes no other check names")
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} (known: all, {', '.join(CHECKS)})")
    if not names:
        raise ValueError("empty --check list")
    return names


def _parse_rates(value: str | None) -> np.ndarray | None:
    if value is None:
        return None
    return np.array([float(v) for v in value.split(",")])


def _graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph_pos", nargs="?", metavar="GRAPH",
                     help="edge-list file or a built-in name (paper:path4, paper:path5)")
    sub.add_argument("--graph", help="alternative to the positional graph argument")


def _format_report(report: AuditReport) -> str:
    lines = [f"graph {report.graph}  n={report.n}  tol={report.tolerance:g}"]
    header = f"{'measure':<10}{'param':>9}  {'check':<18}{'result':<7}detail"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in report.results:
        for chk in entry.checks:
            detail = []
            if chk.witness is not None:
                detail.append("witness=(" + ",".join(str(v) for v in chk.witness) + ")")
            if chk.sigma is not None:
                detail.append(f"sigma={chk.sigma:.10g}")
            if chk.slack is not None:
                detail.append(f"slack={chk.slack:.4g}")
            if chk.indeterminate:
                detail.append("indeterminate-at-tolerance")
            if chk.note:
                detail.append(chk.note)
            lines.append(
                f"{entry.measure:<10}{entry.param:>9g}  {chk.property:<18}"
                f"{'pass' if chk.holds else 'FAIL':<7}{'; '.join(detail)}"
            )
    total = sum(len(e.checks) for e in report.results)
    failed = sum(1 for e in report.results for c in e.checks if not c.holds)
    lines.append(f"{total} check(s): {total - failed} passed, {failed} failed")
    return "\n".join(lines)


def _write_json(path: str, text: str) -> None:
    Path(path).write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _cmd_audit(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph_pos, args.graph)
    measures = _parse_measures(args.measure)
    checks = _parse_checks(args.check)
    report = run_audit(
        g,
        measures,
        checks=checks,
        tol=args.tol,
        rates=_parse_rates(args.rates),
    )
    print(_format_report(report))
    if args.json:
        _write_json(args.json, report_json(report))
    return 0 if report.all_hold else 1


def _cmd_threshold(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph_pos, args.graph)
    lo, hi = args.range
    result = find_threshold(
        g,
        args.measure,
        args.property,
        lo,
        hi,
        resolution=args.resolution,
        tol=args.tol,
        rates=_parse_rates(args.rates),
    )
    print(
        f"{result.measure}/{result.property} on {g.name}: {result.direction}, "
        f"bracket [{result.bracket_low:.10g}, {result.bracket_high:.10g}] "
        f"({result.evaluations} evaluations, resolution {result.resolution:g}, "
        "transition assumed monotone in bracket)"
    )
    if args.json:
        _write_json(args.json, report_json(result))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph_pos, args.graph)
    measures = _parse_measures([args.measure])
    if len(measures) != 1:
        raise ValueError("embed takes exactly one --measure name:param")
    name, param = measures[0]
    coords = export_embedding(g, name, param, args.out, rates=_parse_rates(args.rates))
    print(f"wrote {args.out} ({coords.shape[0]} points in R^{coords.shape[1]})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process. Parsing leaves the parser as it was, and
    # argparse sizes help to the terminal when it formats it, not here.
    parser = _ArgumentParser(
        prog="graphprox",
        description="Audit graph similarity measures for kernel, proximity, "
        "metric, and embeddability properties.",
    )
    parser.add_argument("--version", action="version", version=f"graphprox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run property checks for measures at fixed parameters")
    _graph_args(p_audit)
    p_audit.add_argument("--measure", action="append", required=True, metavar="NAME:PARAM[,...]",
                         help=f"measure and parameter; names: {', '.join(MEASURES)}")
    p_audit.add_argument("--check", default="all",
                         help=f"comma list or 'all'; checks: {', '.join(CHECKS)}")
    p_audit.add_argument("--tol", type=float, default=DEFAULT_TOL,
                         help=f"inequality tolerance (default {DEFAULT_TOL:g})")
    p_audit.add_argument("--rates", help="absorption rates a1,a2,... (default all ones)")
    p_audit.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p_audit.set_defaults(func=_cmd_audit)

    p_thr = sub.add_parser("threshold", help="locate the parameter where a property flips")
    _graph_args(p_thr)
    p_thr.add_argument("--measure", required=True, choices=MEASURES)
    p_thr.add_argument("--property", required=True,
                       help="audit check name, order:IJ<KL, or triangle:I,J,K")
    p_thr.add_argument("--range", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    p_thr.add_argument("--resolution", type=float, default=1e-4)
    p_thr.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_thr.add_argument("--rates", help="absorption rates a1,a2,...")
    p_thr.add_argument("--json", metavar="PATH", help="also write the bracket as JSON")
    p_thr.set_defaults(func=_cmd_threshold)

    p_embed = sub.add_parser("embed", help="export kernel embedding coordinates as CSV")
    _graph_args(p_embed)
    p_embed.add_argument("--measure", required=True, metavar="NAME:PARAM")
    p_embed.add_argument("--out", required=True, metavar="PATH")
    p_embed.add_argument("--rates", help="absorption rates a1,a2,...")
    p_embed.set_defaults(func=_cmd_embed)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
