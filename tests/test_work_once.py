"""Each piece of per-command work is done once.

A kernel result keeps in its memo its pair distance, logarithmic
distance and logarithmic similarity, and the audit keeps there the T1
walk of its matrix, which `proximity`, `sigma` and `metric` share, so
each is formed once whether an audit or repeated run_check calls read
them, on the kernel result alone or in stacks; an audit's reports still
equal those of one run_check per check on a fresh kernel result. Where
the transitional check certifies cutpoint_additive, the audit keeps its
report and derives no logarithmic distance for it. A threshold
evaluation builds one kernel result. Every triple walk forms each block
once, and forms one again only to locate the witness of a failing
matrix; a passing walk forms none again. A graph computes its spectral
radius once, however many commands read it. The eigenvalue checks and
the spectral radius compute no eigenvectors; an embedding computes them
once. A process builds its parser once, and the help text still wraps
to the terminal.
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
    audit,
    builtin_graph,
    check_sigma_proximity,
    check_transitional,
    cli,
    compute_kernel,
    export_embedding,
    find_threshold,
    graphs,
    kernels,
    param_domain,
    properties,
    run_audit,
    run_check,
    transforms,
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
                kres = KernelResult(
                    base.graph, base.measure, base.param, base.matrix, base.param_domain
                )
                reports.append(run_check(check, kres, tol))
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
    calls = count_calls(monkeypatch, kernels, ("pair_to_dist", "log_distance"))
    scans = count_calls(monkeypatch, audit, ("check_proximity",))
    blocks = count_calls(monkeypatch, properties, ("_t1_excess", "_triangle_excess"))
    # regL is transitional, and its check certifies cutpoint_additive
    # without a logarithmic distance; heat is not, so that check derives
    # one. proximity, sigma and metric read one T1 walk; heat fails
    # proximity, so its metric walks the distance, one block for n = 5.
    # sqrt_distance walks its own triangle block either way
    for measure, log_distances, metric_walks in (("regL:1.0", 0, 0), ("heat:1.0", 1, 1)):
        calls.clear()
        scans.clear()
        blocks.clear()
        code = main(["audit", "paper:path5", "--measure", measure, "--check", "all"])
        capsys.readouterr()
        assert code in (0, 1)
        # a Counter reads a missing name as 0
        assert calls == Counter(pair_to_dist=1, log_distance=log_distances)
        assert scans == Counter(check_proximity=1)
        assert blocks == {"_t1_excess": 1, "_triangle_excess": 1 + metric_walks}


def test_passing_walks_form_each_block_once(monkeypatch):
    # n = 40 in four blocks of first indices: every check passes, so no
    # walk forms a block again to locate a witness
    n = 40
    monkeypatch.setattr(properties, "_BLOCK_ENTRIES", 10 * n * n)
    g = random_connected_graph(np.random.default_rng(1), n, name="g")
    kres = compute_kernel(g, "regL", 1.0)
    calls = count_calls(
        monkeypatch, properties,
        ("_t1_excess", "_fill_repeats", "_relative_excess"),
    )
    for check in ("proximity", "sigma", "metric"):
        assert run_check(check, kres).holds
    assert calls == {"_t1_excess": 4, "_fill_repeats": 4}
    for check in (properties.check_metric, properties.check_sqrt_distance):
        calls.clear()
        assert check(kres.dist).holds
        assert calls == {"_fill_repeats": 4}
    calls.clear()
    assert check_transitional(kres.matrix, g).holds
    assert calls["_relative_excess"] == 4


@pytest.mark.parametrize("per_block, blocks", [(1, 7), (3, 3)])
def test_transitional_forms_each_block_once(monkeypatch, per_block, blocks):
    # a passing scan locates no witness, so it forms no block again; a
    # failing one forms again the first block that reaches the band, here
    # one before the last
    n = 7
    g = random_connected_graph(np.random.default_rng(1), n, name="g")
    monkeypatch.setattr(properties, "_BLOCK_ENTRIES", per_block * n * n)
    calls = count_calls(monkeypatch, properties, ("_relative_excess",))
    for measure, fails in (("regL", False), ("comm", True), ("heat", True)):
        s = compute_kernel(g, measure, 1.0).matrix
        calls.clear()
        assert check_transitional(s, g).holds is not fails
        assert calls == {"_relative_excess": blocks + fails}


def test_run_check_calls_share_the_kernel_results_distance(monkeypatch, path4):
    # one kernel result alone and in stacks, in either order, reads one memo
    calls = count_calls(monkeypatch, kernels, ("pair_to_dist", "log_distance"))
    blocks = count_calls(monkeypatch, properties, ("_t1_excess",))
    a, b = compute_kernel(path4, "regL", 1.0), compute_kernel(path4, "heat", 1.0)
    run_check("metric", a)
    run_check("sqrt_distance", [a, b])
    run_check("sq_euclidean", [b, a])
    b.dist
    assert calls == {"pair_to_dist": 2}
    # metric walked a's T1 block; proximity walks b's, and sigma neither
    assert blocks == {"_t1_excess": 1}
    run_check("proximity", [a, b])
    run_check("sigma", a)
    assert blocks == {"_t1_excess": 2}
    # regL's transitional pass certifies cutpoint_additive
    run_check("transitional", [a, b])
    run_check("cutpoint_additive", a)
    assert calls == {"pair_to_dist": 2}
    assert not a.dist.flags.writeable
    assert a.dist.tobytes() == transforms.pair_to_dist(a.matrix).tobytes()


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


def test_only_the_embedding_computes_eigenvectors(monkeypatch, capsys, tmp_path):
    calls = count_calls(monkeypatch, np.linalg, ("eigh",))
    code = main([
        "audit", "paper:path4", "--measure", "katz:0.1,ppr:0.9,absorp:0.7", "--check", "all",
    ])
    run_audit(builtin_graph("paper:path5"), [("heatppr", 1.0)], checks=LOG_CHECKS[:-1])
    capsys.readouterr()
    assert code in (0, 1)
    assert calls == {}
    export_embedding(builtin_graph("paper:path4"), "heat", 1.0, str(tmp_path / "x.csv"))
    assert calls == {"eigh": 1}


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
