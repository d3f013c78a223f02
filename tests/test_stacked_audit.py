"""One audit of several measures reports what one audit per measure does.

run_audit computes the kernels in order, then runs each check once over
the stack of the matrices of the measures that request it. Every report
must equal the one a one-measure audit gives, its slack to the bit and
its margin too, and where the one-measure audits raise, the audit raises
the error of the first of them: its type and its message.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprox import (
    AuditReport,
    WeightedGraph,
    check_sq_euclidean,
    param_domain,
    properties,
    report_json,
    run_audit,
    run_check,
)
from graphprox.audit import CHECKS
from graphprox.kernels import MEASURES, compute_kernel

from oracles import random_connected_graph

PIN = json.loads((Path(__file__).parent / "verdict_pin.json").read_text(encoding="utf-8"))


def unit_path(n: int) -> WeightedGraph:
    w = np.eye(n, k=1) + np.eye(n, k=-1)
    return WeightedGraph(w, name=f"path{n}")


def every_check(n: int) -> list[str]:
    """Each audit check that applies at order n: all but the two order
    checks, which need n = 4."""
    return [c for c in CHECKS if n == 4 or c not in ("distance_order", "log_order")]


def one_at_a_time(g, measures, checks, tol):
    """The results of one audit per measure, or the first one's error."""
    results = []
    for measure in measures:
        try:
            results += run_audit(g, [measure], checks=checks, tol=tol).results
        except Exception as exc:  # whatever it is, the audit must raise it too
            return results, exc
    return results, None


def as_report(g, tol, results) -> AuditReport:
    return AuditReport(graph=g.name, n=g.n, tolerance=tol, tool_version="x", results=tuple(results))


def assert_same_as_one_at_a_time(g, measures, checks, tol):
    want, error = one_at_a_time(g, measures, checks, tol)
    if error is not None:
        with pytest.raises(Exception) as got:
            run_audit(g, measures, checks=checks, tol=tol)
        assert type(got.value) is type(error)
        assert str(got.value) == str(error)
        return error
    got = run_audit(g, measures, checks=checks, tol=tol).results
    assert got == tuple(want)
    # the JSON text holds each slack's repr, so it tells -0.0 from 0.0
    assert report_json(as_report(g, tol, got)) == report_json(as_report(g, tol, want))
    margins = [[c.margin for c in r.checks] for r in got]
    assert margins == [[c.margin for c in r.checks] for r in want]
    return None


@st.composite
def measure_lists(draw, g):
    """2 to 6 measures, repeats allowed, each at a parameter drawn across
    its domain; now and then one below it, which raises."""
    measures = []
    for measure in draw(st.lists(st.sampled_from(MEASURES), min_size=2, max_size=6)):
        lo, hi = param_domain(measure, g)
        frac = draw(st.floats(-0.02, 0.98))
        measures.append((measure, lo + frac * (hi - lo) if np.isfinite(hi) else 4.0 * frac))
    return measures


@settings(deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    long_path=st.booleans(),
    every=st.booleans(),
    tol=st.sampled_from([0.0, 1e-9, 1e-6]),
)
def test_stacked_audit_equals_one_audit_per_measure(data, seed, n, long_path, every, tol):
    if long_path:
        g = unit_path(3 * n)
    else:
        g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    measures = data.draw(measure_lists(g), label="measures")
    # '--check all' expands per measure; the explicit list adds the log_* checks
    checks = every_check(g.n) if every else None
    assert_same_as_one_at_a_time(g, measures, checks, tol)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
def test_order_checks_on_path4(path4, tol):
    measures = [("heat", 1.0), ("ppr", 0.9), ("heat", 1.0), ("katz", 0.3), ("dfact", 1.0)]
    for checks in (None, every_check(4)):
        assert assert_same_as_one_at_a_time(path4, measures, checks, tol) is None


# one and three first vertices per block: each matrix is cut into
# blocks of its own, as it is for n > 32; seven and fourteen: one and two
# whole matrices per block, so a stack spans several blocks
@pytest.mark.parametrize("per_block", [1, 3, 7, 14])
def test_matrices_cut_into_blocks(monkeypatch, per_block):
    n = 7
    monkeypatch.setattr(properties, "_BLOCK_ENTRIES", per_block * n * n)
    g = random_connected_graph(np.random.default_rng(per_block), n, name="g")
    measures = [(m, 0.5 * param_domain(m, g)[1] if m == "katz" else 0.5) for m in MEASURES]
    for checks in (None, every_check(n)):
        assert assert_same_as_one_at_a_time(g, measures, checks, 1e-9) is None


def test_earlier_error_wins_over_a_later_measures_domain():
    # heat:0.001 on a unit 80-path has corner entries that underflow to
    # 0, so its log similarity fails; katz:-1 is outside its domain and
    # fails as its kernel is computed, before any check of the first
    g = unit_path(80)
    measures = [("regL", 1.0), ("heat", 0.001), ("katz", -1.0)]
    error = assert_same_as_one_at_a_time(g, measures, ["psd", "log_psd"], 1e-9)
    assert type(error) is ValueError
    assert str(error).startswith("log_similarity requires strictly positive entries")


def test_pin_corpus_with_all_ten_measures_in_one_audit(corpus):
    # every check, sym_psd and the log_* ones included, on every matrix
    measures = [(m, PIN["params"][m]) for m in MEASURES]
    for g in corpus:
        assert assert_same_as_one_at_a_time(g, measures, every_check(g.n), 1e-9) is None


def test_run_check_of_a_sequence_is_one_report_each(path4):
    kres = [compute_kernel(path4, m, p) for m, p in [("regL", 1.0), ("ppr", 0.9), ("comm", 1.0)]]
    for check in CHECKS:
        got = run_check(check, kres)
        assert isinstance(got, tuple)
        assert got == tuple(run_check(check, kr) for kr in kres)
    assert run_check("psd", []) == ()
    with pytest.raises(ValueError, match="different graphs"):
        run_check("psd", [kres[0], compute_kernel(unit_path(4), "regL", 1.0)])


# what each public check reads of a kernel result
CHECK_INPUTS = {
    "check_psd": "matrix", "check_proximity": "matrix", "check_sigma_proximity": "matrix",
    "check_egocentrism": "matrix", "check_transitional": "matrix", "check_metric": "dist",
    "check_sq_euclidean": "dist", "check_sqrt_distance": "dist", "check_distance_order": "dist",
    "check_cutpoint_additive": "log_dist",
}


def test_stack_of_matrices_is_one_report_each(path4):
    # symmetric kernels, which every check accepts; comm fails some checks
    kres = [compute_kernel(path4, m, p) for m, p in [("regL", 1.0), ("comm", 1.0), ("heat", 0.5)]]
    assert sorted(CHECK_INPUTS) == sorted(n for n in properties.__all__ if n.startswith("check_"))
    for name, attr in CHECK_INPUTS.items():
        check = getattr(properties, name)
        args = (path4,) if name in ("check_transitional", "check_cutpoint_additive") else ()
        mats = [getattr(kr, attr) for kr in kres]
        got = check(np.stack(mats), *args)
        assert got == tuple(check(m, *args) for m in mats)
        assert check(mats, *args) == got  # a sequence stacks the same
        assert check(np.empty((0, 4, 4)), *args) == ()
    with pytest.raises(ValueError, match="expects a square matrix or a stack of them"):
        properties.check_psd(np.ones((2, 3)))


def test_stack_sq_euclidean_takes_one_scale_per_matrix(path4):
    d = np.stack([compute_kernel(path4, "regL", 1.0).dist] * 2)
    scales = [0.0, 1e6]
    got = check_sq_euclidean(d, 1e-12, scales)
    assert got == tuple(check_sq_euclidean(m, 1e-12, s) for m, s in zip(d, scales))
    assert [r.margin for r in got] != [got[0].margin] * 2
