"""Print one sha256 over the reports of a fixed corpus of audits and checks.

Usage, from a source checkout:

    python tests/dump_reports.py [--out FILE] [--diff PARENT_OUT]

A change meant to leave every output as it is prints the same hash as its
parent commit; --out also writes the dumped lines, so that two trees that
disagree can be compared line by line. --diff reads the lines another
tree wrote with --out and prints, per check and per field (holds,
witness, slack, indeterminate, note, ...), how many reports differ, and
each difference in a field other than a slack, margin or sigma. pytest
does not collect this file.

The corpus:
- ten-measure audits at tol 1e-9, 0 and 1e-6, '--check all' at two
  parameters per measure and each check on its own at the first, on the
  23 graphs of the verdict pin (oracles.pin_corpus, which the tests'
  corpus fixture returns too) and on random graphs, trees among them,
  with n = 3 to 40: report_json of each, or the error it raises;
- threshold searches on the paper paths, as report_json;
- every public check on stacks of kernel matrices, their distances and
  log distances, as given, scaled by 2^-600 or 2^600, and with only one
  matrix of the stack scaled; each report with its margin, and each
  matrix of a stack also checked on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from graphprox import WeightedGraph, builtin_graph, compute_kernel, find_threshold  # noqa: E402
from graphprox import report_json, run_audit  # noqa: E402
from graphprox import properties  # noqa: E402
from graphprox.audit import CHECKS  # noqa: E402
from graphprox.kernels import MEASURES, param_domain  # noqa: E402
from graphprox.transforms import log_distance, pair_to_dist  # noqa: E402

from oracles import pin_corpus, random_connected_graph  # noqa: E402

TOLS = (1e-9, 0.0, 1e-6)
# t of the measures with an infinite domain; the others take these
# fractions of their domain's upper end
PARAMS = ({"t": 1.0, "frac": 0.5}, {"t": 0.3, "frac": 0.9})


def random_tree(rng: np.random.Generator, n: int, name: str) -> WeightedGraph:
    w = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w[u, v] = w[v, u] = rng.uniform(0.1, 3.0)
    return WeightedGraph(w, name=name)


def size_corpus() -> list[WeightedGraph]:
    rng = np.random.default_rng(27)
    graphs = []
    for n in [*range(3, 13), 16, 20, 25, 32, 33, 40]:
        graphs.append(random_connected_graph(rng, n, name=f"dense{n}"))
        graphs.append(random_tree(rng, n, name=f"tree{n}"))
    return graphs


def measures_on(g: WeightedGraph, params: dict) -> list[tuple[str, float]]:
    out = []
    for measure in MEASURES:
        upper = param_domain(measure, g)[1]
        out.append((measure, params["t"] if upper == np.inf else params["frac"] * upper))
    return out


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def audits(g: WeightedGraph, lines: list[str]) -> None:
    for params, each_check in zip(PARAMS, (True, False)):
        measures = measures_on(g, params)
        for tol in TOLS:
            for checks in (None, *([c] for c in CHECKS if each_check)):
                head = f"audit {g.name} {measures} {checks} tol={tol!r}"
                try:
                    lines.append(head + "\n" + report_json(run_audit(g, measures, checks, tol)))
                except Exception as exc:  # the error is output too
                    lines.append(head + " " + error_text(exc))


def thresholds(lines: list[str]) -> None:
    path4, path5 = builtin_graph("paper:path4"), builtin_graph("paper:path5")
    for g, measure, prop, lo, hi in [
        (path4, "heat", "proximity", 0.1, 1.0),
        (path4, "katz", "order:13<14", 0.3, 0.385),
        (path4, "dfact", "psd", 0.3, 0.5),
        (path4, "heatppr", "sym_psd", 2.0, 5.0),
        (path4, "comm", "metric", 0.5, 1.0),
        (path5, "ppr", "triangle:1,3,5", 0.05, 0.95),
    ]:
        head = f"threshold {g.name} {measure} {prop} {lo} {hi}"
        try:
            lines.append(head + "\n" + report_json(find_threshold(g, measure, prop, lo, hi)))
        except Exception as exc:
            lines.append(head + " " + error_text(exc))


def report_text(report) -> str:
    return f"{report!r} margin={report.margin!r}"


def run_public(name: str, fn, stack: np.ndarray, *args) -> list[str]:
    """fn on the stack and on each of its matrices alone."""
    out = []
    for label, arg in [("stack", stack), *((f"[{i}]", stack[i]) for i in range(len(stack)))]:
        try:
            got = fn(arg, *args)
            texts = [report_text(r) for r in (got if isinstance(got, tuple) else (got,))]
            out.append(f"  {name} {label} " + " | ".join(texts))
        except Exception as exc:
            out.append(f"  {name} {label} {error_text(exc)}")
    return out


def public_checks(lines: list[str]) -> None:
    rng = np.random.default_rng(600)
    graphs = [builtin_graph("paper:path4"), builtin_graph("paper:path5"),
              random_connected_graph(rng, 6, "random6"), random_tree(rng, 9, "tree9"),
              random_connected_graph(rng, 34, "random34")]
    scalings = {
        "as-is": lambda k: k,
        "all-2^-600": lambda k: np.ldexp(k, -600),
        "all-2^600": lambda k: np.ldexp(k, 600),
        "first-2^600": lambda k: np.concatenate([np.ldexp(k[:1], 600), k[1:]]),
        "last-2^-600": lambda k: np.concatenate([k[:-1], np.ldexp(k[-1:], -600)]),
    }
    for g in graphs:
        kernels = np.stack([compute_kernel(g, m, p).matrix for m, p in measures_on(g, PARAMS[0])])
        for label, scale in scalings.items():
            k = scale(kernels)
            lines.append(f"checks {g.name} {label}")
            for tol in TOLS:
                for fn in (properties.check_psd, properties.check_proximity,
                           properties.check_sigma_proximity, properties.check_egocentrism):
                    lines += run_public(fn.__name__, fn, k, tol)
                lines += run_public("check_transitional", properties.check_transitional, k, g, tol)
                for dname, derive in [("dist", pair_to_dist), ("log_dist", log_distance)]:
                    try:
                        d = derive(k)
                    except Exception as exc:
                        lines.append(f"  {dname} {error_text(exc)}")
                        continue
                    for fn in (properties.check_metric, properties.check_sqrt_distance,
                               properties.check_sq_euclidean):
                        lines += run_public(f"{fn.__name__}({dname})", fn, d, tol)
                    scales = np.abs(k).max(axis=(1, 2)).tolist()
                    lines.append(f"  check_sq_euclidean({dname}, scales) " + " | ".join(
                        report_text(r) for r in properties.check_sq_euclidean(d, tol, scales)
                    ))
                    lines += run_public(f"check_cutpoint_additive({dname})",
                                        properties.check_cutpoint_additive, d, g, tol)
                    if g.n == 4:
                        lines += run_public(f"check_distance_order({dname})",
                                            properties.check_distance_order, d)


# a public line's reports, each "PropertyReport(...) margin=M", split on
# what ends one
_REPORT_END = re.compile(r"\) margin=(\S+)(?: \| |$)")
_PUBLIC_NAME = re.compile(r"  (check_\w+(?:\([^)]*\))?)")
# what a field is compared by when it differs only in its value
_VALUE_FIELDS = ("slack", "margin", "sigma")


def entries(text: str) -> list[tuple[str, list[tuple[str, dict]]]]:
    """Each entry of a dump, in order, as (label, reports): an audit or a
    threshold search with the reports of its JSON or its error, or one
    public-check line with its reports or its error. A report is (check,
    fields); an error is the report ("error", {"error": text})."""
    lines = text.split("\n")
    out, i = [], 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith(("audit ", "threshold ")):
            if i < len(lines) and lines[i] == "{":
                end = lines.index("}", i)
                doc = json.loads("\n".join(lines[i:end + 1]))
                i = end + 1
                if line.startswith("threshold "):
                    reports = [("threshold", doc)]
                else:
                    reports = [
                        (c["property"], dict(c, measure=r["measure"], param=r["param"]))
                        for r in doc["results"] for c in r["checks"]
                    ]
                out.append((line, reports))
            else:  # the header ends in the error
                out.append((line.split(" tol=")[0], [("error", {"error": line})]))
        elif line.startswith("  "):
            name = _PUBLIC_NAME.match(line)
            head, _, rest = line.partition(" PropertyReport(")
            if name is None or not rest:
                out.append((line[:40], [("error", {"error": line})]))
                continue
            pieces = _REPORT_END.split("PropertyReport(" + rest)
            reports = []
            for body, margin in zip(pieces[0::2], pieces[1::2]):
                fields = eval(body + ")", {  # the dump's own repr of PropertyReport
                    "__builtins__": {}, "PropertyReport": dict, "inf": math.inf, "nan": math.nan,
                })
                fields["margin"] = None if margin == "None" else float(margin)
                reports.append((name.group(1), fields))
            out.append((head, reports))
    return out


def diff(parent: str, text: str) -> int:
    """Print how the reports of the dump text differ from those of the
    dump parent, entry by entry; 1 where their entries do not pair up."""
    old, new = entries(parent), entries(text)
    if len(old) != len(new):
        print(f"entries differ in number: {len(old)} in the parent, {len(new)} here")
        return 1
    counts, reports, changed, details = Counter(), 0, 0, []
    for (label, was), (_, now) in zip(old, new):
        if len(was) != len(now) or [c for c, _ in was] != [c for c, _ in now]:
            counts["(entry)", "reports"] += 1
            details.append(f"{label}: {was} -> {now}")
            continue
        for (check, a), (_, b) in zip(was, now):
            reports += 1
            moved = [f for f in {**a, **b} if repr(a.get(f)) != repr(b.get(f))]
            changed += bool(moved)
            for f in moved:
                counts[check, f] += 1
                if f not in _VALUE_FIELDS:
                    details.append(f"{label} | {check} {f}: {a.get(f)!r} -> {b.get(f)!r}"
                                   f" (slack {a.get('slack')!r} -> {b.get('slack')!r})")
    print(f"{changed} of {reports} reports differ, in {len(new)} entries")
    for (check, f), count in sorted(counts.items()):
        print(f"  {check:40s} {f:14s} {count}")
    for line in details:
        print(line)
    return 0


def main(argv: list[str]) -> int:
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not set(opts) <= {"--out", "--diff"}:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(opts["--out"]) if "--out" in opts else None
    lines: list[str] = []
    with np.errstate(all="ignore"):
        for g in pin_corpus() + size_corpus():
            audits(g, lines)
        thresholds(lines)
        public_checks(lines)
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write_text(text, encoding="utf-8")
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  {text.count(chr(10))} lines")
    if "--diff" in opts:
        return diff(Path(opts["--diff"]).read_text(encoding="utf-8"), text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
