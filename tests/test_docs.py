"""README's examples run as printed, and the facts it states hold: the
Library example gives the result each commented line states, every
graphprox line of the CLI block gives a verdict, and each number README
quotes is the one the program prints."""

import math
import re
import shlex
from pathlib import Path

import pytest

from graphprox import BUILTIN_GRAPHS, builtin_graph, cli, find_threshold

README = Path(__file__).resolve().parent.parent / "README.md"
_NUMBER = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")


def readme() -> str:
    return README.read_text(encoding="utf-8")


def prose() -> str:
    """README with every run of whitespace one space, as a reflow leaves it."""
    return " ".join(readme().split())


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", readme(), re.M | re.S)


def cli_lines() -> list[str]:
    blocks = re.findall(r"^```\n(.*?)^```", readme(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("graphprox ")]


def test_readme_library_example_gives_its_commented_results():
    (code,) = python_blocks()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, hash_, comment = line.partition("#")
        if not (hash_ and expr.strip()):
            continue
        value = eval(expr, namespace)
        if comment.strip().startswith("True"):
            assert value is True, line
        else:
            got = list(value) if isinstance(value, tuple) else [value]
            want = [float(x) for x in _NUMBER.findall(comment)]
            assert got == pytest.approx(want, abs=1e-5), line
        checked += 1
    assert checked == 4


def test_readme_cli_block_gives_a_verdict_on_every_line(tmp_path, monkeypatch, capsys):
    # each line exits 0 or 1, never 2; a graph file the block names is
    # supplied as paper:path4's edge list
    monkeypatch.chdir(tmp_path)
    lines = cli_lines()
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv[1] not in BUILTIN_GRAPHS:
            Path(argv[1]).write_text(BUILTIN_GRAPHS["paper:path4"], encoding="utf-8")
        assert cli.main(argv) in (0, 1), line
        assert capsys.readouterr().err == "", line


def test_readme_embed_refuses_a_kernel_that_psd_passes_at_a_larger_tol(tmp_path, capsys):
    kernel = ["paper:path4", "--measure", "dfact:0.49796"]
    assert cli.main(["audit", *kernel, "--check", "psd", "--tol", "1e-4"]) == 0
    assert "pass   slack=-3.102e-06;" in capsys.readouterr().out
    assert cli.main(["embed", *kernel, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: matrix is not positive semidefinite: smallest eigenvalue -3.102255e-06\n"
    )
    assert "--check psd --tol 1e-4` passes with slack -3.102e-06" in prose()


def test_readme_threshold_example_takes_fewer_evaluations_than_bisection():
    res = find_threshold(builtin_graph("paper:path5"), "ppr", "triangle:1,3,4", 0.5, 0.999)
    bisection = 2 + math.ceil(math.log2((0.999 - 0.5) / 1e-4))
    assert (res.evaluations, bisection) == (8, 15)
    assert "takes 8 where bisection takes 15" in prose()
