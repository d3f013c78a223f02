"""Each piece of per-command work is done once.

A kernel result derives its pair distance, logarithmic distance and
logarithmic similarity once, and scans its matrix for the proximity
triangle once, for `proximity` and `sigma` together, whether an audit
or repeated run_check calls read them; an audit's reports still equal
those of one run_check per check on a fresh kernel result. A threshold
evaluation builds one kernel result. A graph computes its spectral
radius once, however many commands read it. A process builds its parser once,
and the help text still wraps to the terminal.
"""

import textwrap
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphprox import (
    KernelResult,
    WeightedGraph,
    builtin_graph,
    check_sigma_proximity,
    cli,
    compute_kernel,
    find_threshold,
    graphs,
    kernels,
    param_domain,
    run_audit,
    run_check,
)
from graphprox.audit import default_checks
from graphprox.cli import build_parser, main
from graphprox.kernels import MEASURES, SYMMETRIC_MEASURES

from oracles import random_connected_graph

LOG_CHECKS = ["log_metric", "log_proximity", "log_psd", "log_order"]


def audit_checks(measure, n):
    checks = default_checks(measure in SYMMETRIC_MEASURES, n) + LOG_CHECKS
    return checks if n == 4 else checks[:-1]


def fresh_reports(g, measure, param, checks, tol):
    """One run_check per check, each on a kernel result of its own, so
    that no check reads what another derived, under the floating-point
    guard run_audit sets; the first error ends the list."""
    base = compute_kernel(g, measure, param)
    reports = []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for check in checks:
            try:
                kres = KernelResult(base.measure, base.param, base.matrix, base.param_domain)
                reports.append(run_check(check, kres, g, tol))
            except (ValueError, FloatingPointError) as exc:
                return reports, exc
    return reports, None


def unit_path(n):
    w = np.zeros((n, n))
    idx = np.arange(n - 1)
    w[idx, idx + 1] = w[idx + 1, idx] = 1.0
    return WeightedGraph(w, name=f"path{n}")


@given(
    n=st.integers(3, 9),
    seed=st.integers(0, 2**32 - 1),
    long_path=st.booleans(),
    measure=st.sampled_from(MEASURES),
    frac=st.floats(0.02, 0.98),
    tol=st.sampled_from([0.0, 1e-9, 1e-6]),
)
@example(n=7, seed=0, long_path=True, measure="heat", frac=0.025, tol=1e-9)  # raises
def test_audit_reports_equal_one_fresh_check_each(n, seed, long_path, measure, frac, tol):
    # a long unit path drives small entries to zero, where the first check
    # that needs positive entries raises
    if long_path:
        g = unit_path(3 * n)
    else:
        g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    n = g.n
    lo, hi = param_domain(measure, g)
    param = lo + frac * (hi - lo) if np.isfinite(hi) else 4.0 * frac
    checks = audit_checks(measure, n)
    want, error = fresh_reports(g, measure, param, checks, tol)
    if error is not None:
        with pytest.raises(type(error)) as got:
            run_audit(g, [(measure, param)], checks=checks, tol=tol)
        assert str(got.value) == str(error)
        return
    got = run_audit(g, [(measure, param)], checks=checks, tol=tol).results[0].checks
    assert list(got) == want
    if measure in SYMMETRIC_MEASURES:
        # the sigma check still reports what the public check reports
        kres = compute_kernel(g, measure, param)
        assert got[checks.index("sigma")] == check_sigma_proximity(kres.matrix, tol)


def count_calls(monkeypatch, module, names) -> Counter:
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_symmetric_kernel_derives_and_scans_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, kernels, ("check_proximity", "pair_to_dist", "log_distance"))
    code = main(["audit", "paper:path5", "--measure", "regL:1.0", "--check", "all"])
    capsys.readouterr()
    assert code in (0, 1)
    assert calls == {"check_proximity": 1, "pair_to_dist": 1, "log_distance": 1}


def test_run_check_calls_share_the_kernel_results_distance(monkeypatch, path4):
    calls = count_calls(monkeypatch, kernels, ("pair_to_dist",))
    kres = compute_kernel(path4, "regL", 1.0)
    for check in ("metric", "sqrt_distance"):
        run_check(check, kres, path4)
    assert calls == {"pair_to_dist": 1}


def test_threshold_evaluation_builds_one_kernel_result(monkeypatch, path4):
    built = []
    real = kernels.KernelResult.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(kernels.KernelResult, "__post_init__", counted)
    result = find_threshold(path4, "ppr", "sym_psd", 0.9, 0.999)
    assert len(built) == result.evaluations


def test_audit_and_threshold_on_one_graph_compute_rho_once(monkeypatch):
    g = builtin_graph("paper:path4")  # fresh, so rho is not cached yet
    calls = count_calls(monkeypatch, graphs, ("spectral_radius",))
    run_audit(g, [("katz", 0.1)])
    find_threshold(g, "katz", "order:13<14", 0.1, 0.39, resolution=1e-4)
    assert calls == {"spectral_radius": 1}


def test_two_main_calls_build_one_parser(monkeypatch, capsys):
    built = []
    real_init = cli._ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counted_init)
    build_parser.cache_clear()
    counts = []
    try:
        for _ in range(2):
            assert main(["audit", "paper:path4", "--measure", "regL:1.0", "--check", "psd"]) == 0
            counts.append(len(built))
    finally:
        build_parser.cache_clear()  # drop the parser built while patched
    capsys.readouterr()
    assert counts[0] > 0 and counts[1] == counts[0]


@pytest.mark.parametrize("columns", [40, 80, 200])
def test_help_wraps_to_columns(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit):
        main(["--help"])
    description = build_parser().description
    # argparse fills the description to the width less 2
    assert capsys.readouterr().out.split("\n\n")[1] == textwrap.fill(description, columns - 2)
