"""Fuzz of the command-line contract.

Random connected graphs (n <= 8) are written as edge-list files and fed
to every subcommand with every measure, at parameters inside the open
domain, on its edges and beyond it. Whatever the input, the CLI must
exit 0, 1 or 2 without a traceback, and exit 2 must come with exactly
one "error:" line.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphprox import CHECKS, MEASURES, build_matrices, param_domain
from graphprox.cli import main

from oracles import random_connected_graph

_BEYOND = [0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf, 1e308]


def inside(domain):
    lo, hi = domain
    top = hi if math.isfinite(hi) else 5.0
    return st.floats(0.0, 1.0).map(lambda u: lo + u * (top - lo))


@st.composite
def params(draw, domain):
    """A parameter inside the domain, on one of its edges, or beyond it."""
    lo, hi = domain
    kind = draw(st.sampled_from(["inside", "inside", "edge", "beyond"]))
    if kind == "inside":
        return draw(inside(domain))
    if kind == "edge":
        return draw(st.sampled_from([lo, hi, hi * (1 - 1e-13), hi * (1 + 1e-13), lo + 1e-13]))
    return draw(st.sampled_from(_BEYOND + [2 * hi, -hi]))


@st.composite
def invocations(draw, tmp_path):
    n = draw(st.integers(2, 8))
    g = random_connected_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, "g")
    path = tmp_path / "g.edges"
    path.write_text("".join(
        f"{i + 1} {j + 1} {float(g.weights[i, j])!r}\n"
        for i in range(n) for j in range(i + 1, n) if g.weights[i, j] > 0
    ))
    measure = draw(st.sampled_from(MEASURES))
    domain = param_domain(measure, build_matrices(g))
    param = draw(params(domain))
    command = draw(st.sampled_from(["audit", "threshold", "embed"]))
    if command == "embed":
        return ["embed", str(path), "--measure", f"{measure}:{param!r}",
                "--out", str(tmp_path / "coords.csv")]
    tol = draw(st.sampled_from(["1e-9", "1e-9", "1e-9", "1e-6", "0", "-1", "nan"]))
    if command == "threshold":
        prop = draw(st.sampled_from(CHECKS))
        ends = st.one_of(inside(domain), params(domain))
        lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
        return ["threshold", str(path), "--measure", measure, "--property", prop,
                "--range", repr(lo), repr(hi),
                "--resolution", "1e-3", "--tol", tol]
    checks = draw(st.one_of(
        st.just("all"),
        st.lists(st.sampled_from(CHECKS), min_size=1, max_size=5).map(",".join),
    ))
    return ["audit", str(path), "--measure", f"{measure}:{param!r}", "--check", checks,
            "--tol", tol]


# the example count comes from the hypothesis profile (tests/conftest.py)
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_0_1_or_2_with_one_error_line(tmp_path, capsys, data):
    argv = data.draw(invocations(tmp_path))
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    else:
        assert err == "", (argv, err)
