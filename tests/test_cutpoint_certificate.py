"""A passing transitional check certifies cutpoint_additive without a
change to any report.

For a positive similarity s, the logarithmic distance d = log_distance(s)
has d_ij + d_jk - d_ik = -(ln(1 + rel_ijk) + ln(1 + rel_kji)) / 2, with
rel transitional's relative excess. So where transitional passes at tol
and no distinct triple has |rel| in [tol/2 - w, 2 tol + w], the audit's
cutpoint_additive check reports a pass that is not indeterminate without
forming d. Whether it certifies or takes the log path, its report must be
the one check_cutpoint_additive gives on log_distance(s).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphprox import (
    WeightedGraph,
    builtin_graph,
    check_cutpoint_additive,
    check_transitional,
    compute_kernel,
    kernels,
    log_distance,
    param_domain,
    properties,
    run_audit,
)
from graphprox.kernels import MEASURES
from graphprox.linalg import _rounding_floor
from graphprox.properties import _transitional

from oracles import random_connected_graph

CHECKS = ["transitional", "cutpoint_additive"]


def reference(g: WeightedGraph, kernels: list[np.ndarray], tol: float):
    """(transitional, cutpoint_additive) of each kernel by the public
    checks, under the floating-point guard run_audit sets; None where one
    of them raises."""
    reports = []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for k in kernels:
            try:
                reports.append(
                    (check_transitional(k, g, tol), check_cutpoint_additive(log_distance(k), g, tol))
                )
            except (ValueError, FloatingPointError):
                return None
    return reports


def assert_audit_matches(g: WeightedGraph, measures: list[tuple[str, float]], tol: float):
    """The audit's transitional and cutpoint_additive reports of the
    measures on g, run over their stack, equal the public checks'."""
    want = reference(g, [compute_kernel(g, m, p).matrix for m, p in measures], tol)
    if want is None:
        with pytest.raises((ValueError, FloatingPointError)):
            run_audit(g, measures, checks=CHECKS, tol=tol)
        return
    got = run_audit(g, measures, checks=CHECKS, tol=tol).results
    assert [r.checks for r in got] == [tuple(pair) for pair in want]


@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
    measure=st.sampled_from(MEASURES),
    frac=st.floats(0.05, 0.95),
    tol=st.sampled_from([1e-9, 1e-6, 1e-14, 0.0]),
    per_block=st.sampled_from([None, 1, 4]),
)
def test_certified_reports_equal_the_log_path(n, seed, measure, frac, tol, per_block):
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    lo, hi = param_domain(measure, g)
    param = lo + frac * (hi - lo) if np.isfinite(hi) else 4.0 * frac
    with pytest.MonkeyPatch.context() as mp:
        if per_block is not None:  # each matrix spans several blocks, as for n > 32
            mp.setattr(properties, "_BLOCK_ENTRIES", per_block * n * n)
        # heat fails transitional: the stack mixes certified and log-path rows
        assert_audit_matches(g, [(measure, param), ("heat", 1.0)], tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.0])
def test_corpus_audits_certify_and_decline_and_agree(corpus, tol):
    certified = []
    for g in corpus:
        measures = [(m, 0.5 * param_domain(m, g)[1] if m in ("katz", "ppr", "modifppr") else 0.5)
                    for m in MEASURES]
        assert_audit_matches(g, measures, tol)
        stack = np.stack([compute_kernel(g, m, p).matrix for m, p in measures])
        if stack.min() > 0:
            certified += _transitional(stack, g, tol)[1]
    # both paths are taken
    assert any(certified) and not all(certified)


def test_tol_zero_declines_where_a_cut_triple_has_no_excess(path4):
    # regL:0.5 on the path is transitional at tol 0: every cut triple's
    # excess is exactly 0, which lies in the band [-w, w]
    s = compute_kernel(path4, "regL", 0.5).matrix
    reports, cutpoints = _transitional(s[None], path4, 0.0)
    assert reports[0].holds and cutpoints == [None]
    assert_audit_matches(path4, [("regL", 0.5)], 0.0)
    certified = check_cutpoint_additive(log_distance(s), path4, 1e-9)
    assert _transitional(s[None], path4, 1e-9)[1] == [certified]


def test_an_off_cut_excess_inside_the_widened_band_declines():
    # on the complete graph no vertex separates two others, so every
    # distinct triple must have an excess below -tol; the one nearest 0
    # lies beyond 2 tol but within 2 tol + w
    n = 4
    g = WeightedGraph(np.ones((n, n)) - np.eye(n), name="complete4")
    s = compute_kernel(g, "regL", 0.5).matrix
    rel = [-(s[i, j] * s[j, k] - s[i, k] * s[j, j]) / (s[i, k] * s[j, j])
           for i in range(n) for j in range(n) for k in range(n) if len({i, j, k}) == 3]
    nearest = min(rel)
    tol = 0.5 * nearest * (1.0 - 1e-3)
    w = tol * tol + _rounding_floor(n, 2.0 + 2.0 * np.abs(np.log(s)).max())
    assert 2.0 * tol < nearest <= 2.0 * tol + w
    reports, cutpoints = _transitional(s[None], g, tol)
    assert reports[0].holds and not reports[0].indeterminate
    assert cutpoints == [None]
    assert_audit_matches(g, [("regL", 0.5)], tol)
    # at a tol a little smaller, nothing lies in the band
    certified = check_cutpoint_additive(log_distance(s), g, 0.25 * nearest)
    assert _transitional(s[None], g, 0.25 * nearest)[1] == [certified]
    assert_audit_matches(g, [("regL", 0.5)], 0.25 * nearest)


def test_cutpoint_before_transitional_takes_the_log_path(monkeypatch):
    g = builtin_graph("paper:path5")
    calls = []

    def counted(s, _real=kernels.log_distance):
        calls.append(1)
        return _real(s)

    monkeypatch.setattr(kernels, "log_distance", counted)
    first = run_audit(g, [("regL", 1.0)], checks=CHECKS[::-1]).results[0].checks
    assert calls == [1]
    calls.clear()
    second = run_audit(g, [("regL", 1.0)], checks=CHECKS).results[0].checks
    assert calls == []
    assert first == second[::-1]
