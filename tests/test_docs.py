"""README's Library example runs as printed, and each of its commented
lines gives the result its comment states."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_NUMBER = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


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
