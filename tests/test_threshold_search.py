"""The threshold root finder: ITP steps on a property's signed margin.

find_threshold interpolates wherever a property has a margin, yet its
bracket must stay as sound as bisection's: the verdicts at its two ends
differ, its width is at most the resolution (or its ends are adjacent
floats), and it takes no more evaluations than bisection would.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphprox import (
    audit,
    compute_kernel,
    find_threshold,
    pair_to_dist,
    param_domain,
    run_check,
)

from oracles import random_connected_graph

_MEASURES = {
    "order": ["katz", "heat", "nheat", "ppr", "heatppr"],
    "triangle": ["katz", "heat", "ppr", "heatppr"],
    "sym_psd": ["ppr", "heatppr"],
}
_GRID = np.linspace(0.05, 0.95, 10)


def bisection_evaluations(lo, hi, resolution):
    return 2 + max(0, math.ceil(math.log2((hi - lo) / resolution)))


def verdict(g, measure, prop, param):
    kres = compute_kernel(g, measure, param)
    return audit._threshold_predicate(prop, g.n)(kres, 1e-9)[0]


def assert_sound(res, g, lo, hi, resolution):
    assert res.evaluations <= bisection_evaluations(lo, hi, resolution)
    assert lo <= res.bracket_low < res.bracket_high <= hi
    low = verdict(g, res.measure, res.property, res.bracket_low)
    high = verdict(g, res.measure, res.property, res.bracket_high)
    assert low != high
    assert res.direction == ("holds_below" if low else "holds_above")
    assert (
        res.bracket_high - res.bracket_low <= resolution
        or res.bracket_high == np.nextafter(res.bracket_low, np.inf)
    )


def grid_verdicts(g, measure, kind):
    """{property: verdict at each grid parameter} for every property of
    the kind on g, read off the pair distances directly."""
    lo, hi = param_domain(measure, g)
    top = hi if math.isfinite(hi) else 4.0
    params = [float(lo + u * (top - lo)) for u in _GRID]
    kernels = [compute_kernel(g, measure, p) for p in params]
    if kind == "sym_psd":
        return params, {"sym_psd": [run_check("sym_psd", k).holds for k in kernels]}
    d = np.stack([pair_to_dist(k.matrix) for k in kernels])
    table = {}
    if kind == "order":
        pairs = itertools.combinations(range(g.n), 2)
        for (i, j), (k, m) in itertools.permutations(pairs, 2):
            table[f"order:{i + 1}{j + 1}<{k + 1}{m + 1}"] = list(d[:, i, j] < d[:, k, m])
    else:
        for i, j, k in itertools.permutations(range(g.n), 3):
            if i < k:
                table[f"triangle:{i + 1},{j + 1},{k + 1}"] = list(
                    d[:, i, j] + d[:, j, k] >= d[:, i, k]
                )
    return params, table


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 7),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(_MEASURES)),
    resolution=st.sampled_from([1e-2, 1e-4, 1e-7, 1e-10, 1e-20]),
    data=st.data(),
)
def test_bracket_is_sound_and_no_costlier_than_bisection(n, seed, kind, resolution, data):
    g = random_connected_graph(np.random.default_rng(seed), n, "g")
    measure = data.draw(st.sampled_from(_MEASURES[kind]))
    params, table = grid_verdicts(g, measure, kind)
    flips = [
        (prop, params[a], params[b])
        for prop, verdicts in table.items()
        for a in range(len(params))
        for b in range(a + 1, len(params))
        if verdicts[a] != verdicts[b]
    ]
    assume(flips)
    prop, lo, hi = data.draw(st.sampled_from(flips))
    res = find_threshold(g, measure, prop, lo, hi, resolution=resolution)
    assert_sound(res, g, lo, hi, resolution)


@pytest.mark.parametrize("lie", ["negated", "inverted_constants", "random"])
def test_margin_disagreeing_with_verdict_still_brackets(monkeypatch, path5, lie):
    """Margins only propose the next parameter, so even margins whose sign
    contradicts the verdict give a sound bracket within the bound."""
    honest = find_threshold(path5, "ppr", "triangle:1,3,4", 0.5, 0.999, resolution=1e-4)
    real = audit._threshold_predicate
    rng = np.random.default_rng(0)

    def lying(prop, n):
        predicate = real(prop, n)

        def lie_about_margin(kres, tol):
            holds, margin = predicate(kres, tol)
            if lie == "negated":
                return holds, -margin
            if lie == "inverted_constants":
                return holds, -1.0 if holds else 2.0
            return holds, float(rng.normal())

        return lie_about_margin

    monkeypatch.setattr(audit, "_threshold_predicate", lying)
    res = find_threshold(path5, "ppr", "triangle:1,3,4", 0.5, 0.999, resolution=1e-4)
    monkeypatch.undo()
    assert_sound(res, path5, 0.5, 0.999, 1e-4)
    # the transition is unique, so both brackets hold it
    assert res.bracket_low <= honest.bracket_high and honest.bracket_low <= res.bracket_high


def test_margin_steps_save_evaluations(path5):
    res = find_threshold(path5, "ppr", "triangle:1,3,4", 0.5, 0.999, resolution=1e-4)
    assert res.evaluations < bisection_evaluations(0.5, 0.999, 1e-4)


@pytest.mark.parametrize("prop", ["order:12<34", "order:13<24", "triangle:1,2,4",
                                  "triangle:2,1,3", "psd", "sym_psd", "sq_euclidean",
                                  "log_psd"])
@pytest.mark.parametrize("measure,params", [
    ("katz", [0.1, 0.3, 0.38]),
    ("dfact", [0.5, 1.0, 2.0]),
    ("ppr", [0.5, 0.95, 0.99]),
    ("heatppr", [0.5, 2.0, 5.0]),
    # entries near e^(12 rho) put the eigenvalue checks' rounding floor
    # above tol, and the smallest eigenvalues of comm:8 and comm:12 lie
    # between the two
    ("comm", [5.0, 8.0, 12.0]),
])
def test_margin_sign_agrees_with_verdict(path4, prop, measure, params):
    predicate = audit._threshold_predicate(prop, path4.n)
    for p in params:
        kres = compute_kernel(path4, measure, p)
        holds, margin = predicate(kres, 1e-9)
        if prop == "psd" and not kres.symmetric:
            assert margin is None  # the report's slack is the asymmetry
        else:  # zero sits on the boundary, on either side of it
            assert (margin >= 0 if holds else margin <= 0), (p, margin)


@pytest.mark.parametrize("measure,param", [("ppr", 0.9), ("heatppr", 1.0)])
def test_psd_margin_of_symmetric_asymmetric_measure(triangle, measure, param):
    # on the regular triangle the matrix is symmetric, so psd has a margin
    kres = compute_kernel(triangle, measure, param)
    report = run_check("psd", kres, 1e-9)
    assert report.note == "smallest eigenvalue"
    holds, margin = audit._threshold_predicate("psd", triangle.n)(kres, 1e-9)
    assert (holds, margin) == (report.holds, report.slack + 1e-9)


@pytest.mark.parametrize("prop", ["proximity", "metric", "transitional"])
def test_properties_without_margin_bisect(path4, prop):
    kres = compute_kernel(path4, "regL", 1.0)
    assert audit._threshold_predicate(prop, path4.n)(kres, 1e-9)[1] is None


@pytest.mark.parametrize("graph,measure,lo,hi", [
    ("path5", "absorp", 0.1474, 0.1945),
    ("path4", "modifppr", 0.8369, 0.999),
])
def test_log_psd_margin_steps_save_evaluations(request, graph, measure, lo, hi):
    g = request.getfixturevalue(graph)
    res = find_threshold(g, measure, "log_psd", lo, hi, resolution=1e-6)
    assert_sound(res, g, lo, hi, 1e-6)
    assert res.evaluations < bisection_evaluations(lo, hi, 1e-6)
