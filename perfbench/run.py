"""Closed-loop benchmark of the graphprox CLI.

    python3 perfbench/run.py --workload audit-structure --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One client drives the CLI
in-process through graphprox.cli.main(argv), exactly as the console
script does after import, each command starting after the previous one
returned. Inputs are generated from --seed by perfbench/workloads.py.

--trace 0 reports the end-to-end metrics from untraced rounds: one
warm-up round is discarded, then rounds run round-robin, alternating
direction, until --seconds have been spent. A fixed reference probe is
timed right before every command; a command's time divided by its probe
time cancels most of the host's speed drift.

--trace 1 interleaves untraced rounds with rounds in which every public
graphprox function is wrapped (perfbench/spans.py), and reports the
per-layer metrics named in BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

MIN_ROUNDS = 3
IMPORT_SAMPLES = 9
SLACK_RTOL = 1e-8

_SUMMARY = re.compile(r"^(\d+) check\(s\): (\d+) passed, (\d+) failed$", re.M)
_BRACKET = re.compile(r"bracket \[([^,\]]+), ([^\]]+)\]")


# ------------------------------------------------------------------ probe

_PROBE_A = np.random.default_rng(0).standard_normal((24, 24)) / 24.0
_PROBE_B = np.random.default_rng(1).standard_normal((24, 24)) / 24.0


def probe() -> float:
    """Seconds taken by a fixed reference load that never touches
    graphprox: a pure-Python loop of plane rotations over the rows of a
    small matrix, then a small matmul loop (about 5 ms on a 2-vCPU Xeon).
    The rotation loop mixes interpreter work with tiny numpy calls, as
    the package's own loops do; on this kind of host it tracks their
    speed better than an arithmetic-only loop."""
    t0 = time.perf_counter()
    a = _PROBE_A.copy()
    acc = 0.0
    for _ in range(3):
        for p in range(23):
            for q in range(p + 1, 24):
                acc += a[p, q] * a[p, q]
                row_p, row_q = a[p].copy(), a[q].copy()
                a[p] = 0.8 * row_p - 0.6 * row_q
                a[q] = 0.6 * row_p + 0.8 * row_q
    for _ in range(200):
        a = _PROBE_A + a @ _PROBE_B
    dt = time.perf_counter() - t0
    if not (math.isfinite(acc) and np.isfinite(a).all()):
        raise RuntimeError("reference probe produced nonsense")
    return dt


# --------------------------------------------------------------- executing

@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes | None]


@dataclass
class Stats:
    """Samples of one command: seconds and seconds per probe second."""

    secs: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)


def execute(cli, cmd: workloads.Command) -> tuple[float, Outcome]:
    for path in cmd.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejecting argv
            code = exc.code if isinstance(exc.code, int) else 2
        dt = time.perf_counter() - t0
    files = {str(p): (p.read_bytes() if p.exists() else None) for p in cmd.outputs}
    return dt, Outcome(code, out.getvalue(), err.getvalue(), files)


def validate(cmd: workloads.Command, res: Outcome, audit_report) -> list[str]:
    """Everything wrong with a command's first outcome."""
    problems = []
    expect = cmd.expect_exit
    if expect is None:
        m = _SUMMARY.search(res.stdout)
        if m is None:
            return [f"exit {res.code}, no audit summary in output"]
        expect = 0 if int(m.group(3)) == 0 else 1
    if res.code != expect:
        problems.append(f"exit {res.code}, expected {expect}")
    if res.code == 2:
        lines = res.stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            problems.append(f"exit 2 without a one-line error: {res.stderr!r}")
    elif res.stderr:
        problems.append(f"unexpected stderr: {res.stderr[:200]!r}")
    for path, data in res.files.items():
        if data is None:
            problems.append(f"{path} not written")
        elif path.endswith(".json"):
            problems += _validate_json(cmd, json.loads(data), audit_report)
    if cmd.bracket is not None:
        m = _BRACKET.search(res.stdout)
        value, half = cmd.bracket
        if m is None:
            problems.append("no bracket in output")
        elif not value - half <= float(m.group(1)) <= float(m.group(2)) <= value + half:
            problems.append(f"bracket [{m.group(1)}, {m.group(2)}] misses {value}+-{half}")
    return problems


def _validate_json(cmd, data: dict, audit_report) -> list[str]:
    if "results" not in data:
        return []
    problems = []
    back = audit_report.from_dict(data).to_dict()
    if json.dumps(back, sort_keys=True) != json.dumps(data, sort_keys=True):
        problems.append("audit JSON does not round-trip through AuditReport.from_dict")
    for entry in data["results"]:
        k = cmd.kernels.get((entry["measure"], float(entry["param"])))
        by_prop = {c["property"]: c for c in entry["checks"]}
        if cmd.structure:
            for prop in ("transitional", "cutpoint_additive"):
                if not by_prop.get(prop, {}).get("holds"):
                    problems.append(f"{entry['measure']}: {prop} did not pass")
        if k is None:
            continue
        expected = {"sym_psd": workloads.sym_min_eig(k), "sq_euclidean": _centered_min_eig(k)}
        if np.abs(k - k.T).max() <= 1e-10:
            expected["psd"] = float(np.linalg.eigvalsh(k)[0])
        for prop, want in expected.items():
            got = by_prop.get(prop, {}).get("slack")
            if got is not None and abs(got - want) > SLACK_RTOL * max(1.0, np.abs(k).max()):
                problems.append(f"{entry['measure']} {prop} slack {got!r}, eigvalsh gives {want!r}")
    return problems


def _centered_min_eig(k: np.ndarray) -> float:
    n = k.shape[0]
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    return workloads.sym_min_eig(-h @ workloads.pair_dist(k) @ h)


class Session:
    """Runs the workload's commands round after round and checks every
    outcome against the first one."""

    def __init__(self, cli, audit_report, commands):
        self.cli = cli
        self.commands = commands
        self.reference: dict[str, Outcome] = {}
        self.problems: dict[str, list[str]] = {}  # what is wrong with the first outcome
        self.drifted: set[str] = set()  # commands whose outcome changed after round 1
        self.audit_report = audit_report
        self.attempted = 0
        self.failed = 0
        self.probe_secs: list[float] = []

    def verdict(self, name: str) -> str:
        problems = self.problems[name] + (
            ["outcome differs from round 1"] if name in self.drifted else [])
        return "; ".join(problems) or "ok"

    def round(self, reverse: bool, stats: dict[str, Stats] | None) -> None:
        for cmd in (reversed(self.commands) if reverse else self.commands):
            ref_s = probe()
            dt, res = execute(self.cli, cmd)
            self.attempted += 1
            if cmd.name not in self.reference:
                self.reference[cmd.name] = res
                self.problems[cmd.name] = validate(cmd, res, self.audit_report)
            differs = res != self.reference[cmd.name]
            if differs:
                self.drifted.add(cmd.name)
            if differs or self.problems[cmd.name]:
                self.failed += 1
            if stats is not None:
                self.probe_secs.append(ref_s)
                stats[cmd.name].secs.append(dt)
                stats[cmd.name].ratios.append(dt / ref_s)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def cmd_ref_p50(stats: dict[str, Stats]) -> float:
    return geomean(statistics.median(s.ratios) for s in stats.values())


def cmd_ms_min(stats: dict[str, Stats]) -> float:
    return geomean(min(s.secs) * 1e3 for s in stats.values())


_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import graphprox.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time a fresh interpreter takes to import graphprox.cli."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE, str(SRC)], cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        blas_text = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        **{k: os.environ[k] for k in BLAS_ENV},
    }


# ----------------------------------------------------------------- metrics

def layer_metric(name: str, rounds: list[dict], extra: dict[str, float]) -> float:
    """Median over traced rounds of one per-layer metric; a span that no
    longer exists reads as 0."""
    if name in extra:
        return extra[name]
    span, kind = name.rsplit(".", 1)
    values = []
    for agg in rounds:
        entry = agg.get(span, {})
        if kind == "ms" and span == "audit.bisect_step":
            ft = agg.get("audit.find_threshold", {})
            evals = ft.get("evals", 0)
            values.append(ft.get("ms", 0.0) / evals if evals else 0.0)
        else:
            values.append(entry.get(kind, 0))
    return statistics.median(values)


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = host_info()
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    commands = workloads.build(args.workload, args.seed, work)

    sys.path.insert(0, str(SRC))
    from graphprox import cli
    from graphprox.audit import AuditReport

    session = Session(cli, AuditReport, commands)
    session.round(False, None)  # warm-up, discarded
    import_seconds()  # compiles bytecode and warms the file cache

    # The set-up samples are spread over the run, between rounds, so their
    # median stands for the whole run rather than one moment of the host.
    imports: list[float] = []

    plain = {c.name: Stats() for c in commands}
    traced_stats = {c.name: Stats() for c in commands}
    traced_rounds: list[dict] = []
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        whole = tracer is None or rounds % 2 == 0
        if rounds >= MIN_ROUNDS and whole and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        if tracer is None:
            reverse, traced = rounds % 2 == 1, False
        else:  # pairs of one untraced and one traced round
            reverse, traced = (rounds // 2) % 2 == 1, rounds % 2 == 1
        if traced:
            tracer.install()
            try:
                session.round(reverse, traced_stats)
            finally:
                tracer.uninstall()
            traced_rounds.append(tracer.fold())
        else:
            session.round(reverse, plain)
        rounds += 1
        if len(imports) < IMPORT_SAMPLES * (time.perf_counter() - start) / args.seconds:
            imports.append(import_seconds())
    while len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())

    print(f"# host {json.dumps(info)}")
    print(f"# workload {args.workload} seed {args.seed}: {rounds} rounds in "
          f"{time.perf_counter() - start:.1f} s")
    for name, st in plain.items():
        print(f"#   {name:<22} n={len(st.secs):<3} median {statistics.median(st.secs) * 1e3:10.2f} ms"
              f"  min {min(st.secs) * 1e3:10.2f} ms  ref-ratio {statistics.median(st.ratios):9.2f}"
              f"  {session.verdict(name)}")

    # Every metric is printed by name and unit; the JSON line carries the
    # end-to-end ones untraced and the per-layer ones traced.
    e2e = {
        "cmd_ref.p50": cmd_ref_p50(plain),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# setup_s is the median of {len(imports)} imports; {len(session.probe_secs)} probes")
    printed = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    if args.trace:
        extra = {
            "host.ref_ms": statistics.median(session.probe_secs) * 1e3,
            "trace.overhead": cmd_ref_p50(traced_stats) / e2e["cmd_ref.p50"],
            "ops_failed": session.failed / session.attempted,
            "cmd_ms.min": cmd_ms_min(plain),
        }
        metrics = {
            m["name"]: {"value": layer_metric(m["name"], traced_rounds, extra), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        printed.update(metrics)
    else:
        metrics = printed
    for name, m in printed.items():
        print(f"# {name:<48} {m['value']:.6g} {m['unit']}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphprox" / "cli.py").is_file():
        print(f"error: no graphprox sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
