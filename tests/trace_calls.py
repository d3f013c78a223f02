"""Print how often each traced span is called in one round of each benchmark workload.

Usage, from a source checkout:

    python tests/trace_calls.py [--out FILE]

For each workload of perfbench/workloads.py, seed 1, in a temporary
directory, it runs the workload's commands once untraced, as the
benchmark does before it measures, and then once with every public
graphprox function wrapped by perfbench/spans.py's Tracer. It prints one
line "workload span calls" per span the tracer knows, spans never called
included, so a change meant to move no work between layers prints its
parent's lines, and two trees are compared with diff. --out also writes
the lines to FILE. It only reads perfbench/. pytest does not collect
this file.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (first: it pins BLAS to one thread before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402

from graphprox import cli  # noqa: E402

SEED = 1


def traced_calls(workload: str, work: Path) -> dict[str, int]:
    """Calls per span in one traced round of the workload, after one
    untraced round."""
    commands = workloads.build(workload, SEED, work)
    for cmd in commands:
        run.execute(cli, cmd)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for cmd in commands:
            run.execute(cli, cmd)
    finally:
        tracer.uninstall()
    return {name: int(agg["calls"]) for name, agg in tracer.fold().items()}


def main(argv: list[str]) -> int:
    if argv and (len(argv) != 2 or argv[0] != "--out"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            calls = traced_calls(workload, Path(tmp) / workload)
            lines += [f"{workload} {name} {calls[name]}" for name in sorted(calls)]
    text = "\n".join(lines) + "\n"
    if argv:
        Path(argv[1]).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
