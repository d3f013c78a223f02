"""The vectorized triple checks against the scalar reference loops.

Every check must return exactly the PropertyReport of its reference loop
in tests/oracles.py: verdict, witness, note, indeterminate flag and slack,
bit for bit. Kernels are checked against their own graph and against a
mismatched one of the same order, which reaches the cut-vertex branches
that a kernel's own graph never does. Orders up to 32 fit one block of
first vertices, so the multi-block scans are also run under a smaller
block budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprox import (
    WeightedGraph,
    check_cutpoint_additive,
    check_egocentrism,
    check_metric,
    check_proximity,
    check_sqrt_distance,
    check_transitional,
    compute_kernel,
    log_distance,
    pair_to_dist,
    param_domain,
    separation_labels,
    symmetrize_geometric,
)
from graphprox import properties
from graphprox.kernels import MEASURES

from oracles import (
    cut_by_bfs,
    random_connected_graph,
    reference_cutpoint_additive,
    reference_egocentrism,
    reference_metric,
    reference_proximity,
    reference_sqrt_distance,
    reference_transitional,
)


def path_graph(n: int) -> WeightedGraph:
    w = np.zeros((n, n))
    for v in range(n - 1):
        w[v, v + 1] = w[v + 1, v] = 1.0 + 0.5 * v
    return WeightedGraph(w, name=f"path{n}")


def complete_graph(n: int) -> WeightedGraph:
    return WeightedGraph(np.ones((n, n)) - np.eye(n), name=f"complete{n}")


def kernel(g: WeightedGraph, measure: str, u: float) -> np.ndarray:
    """The measure on g at fraction u of a bounded domain, or at t = 1.5 u
    on an unbounded one."""
    lo, hi = param_domain(measure, g)
    param = lo + u * (hi - lo) if np.isfinite(hi) else 1.5 * u
    return compute_kernel(g, measure, param).matrix


def assert_all_checks_match(k: np.ndarray, g: WeightedGraph, h: WeightedGraph) -> list:
    """Run every vectorized triple check and its reference on kernel k of
    graph g, the cut-vertex checks also against graph h; return the
    reports."""
    sym = k if np.array_equal(k, k.T) else symmetrize_geometric(k)
    d, ld = pair_to_dist(k), log_distance(k)
    pairs = [
        (check_proximity(sym), reference_proximity(sym)),
        (check_proximity(np.log(sym)), reference_proximity(np.log(sym))),
        (check_egocentrism(k), reference_egocentrism(k)),
        (check_metric(d), reference_metric(d)),
        (check_metric(ld), reference_metric(ld)),
        (check_sqrt_distance(d), reference_sqrt_distance(d)),
    ]
    for graph in (g, h):
        pairs += [
            (check_transitional(k, graph), reference_transitional(k, graph)),
            (check_cutpoint_additive(ld, graph), reference_cutpoint_additive(ld, graph)),
        ]
    for got, want in pairs:
        assert got == want
    return [got for got, _ in pairs]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    measure=st.sampled_from(MEASURES),
    u=st.floats(0.05, 0.95),
)
def test_random_graphs_match_reference_loops(seed, n, measure, u):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, name="g")
    h = random_connected_graph(rng, n, name="h")
    assert_all_checks_match(kernel(g, measure, u), g, h)


@pytest.mark.parametrize("n", [4, 7])
def test_mismatched_pairs_reach_every_branch(n):
    path, complete = path_graph(n), complete_graph(n)
    on_path = kernel(path, "regL", 0.5)
    on_complete = kernel(complete, "regL", 0.5)
    reports = assert_all_checks_match(on_path, path, complete)
    reports += assert_all_checks_match(on_complete, complete, path)
    # a duplicated vertex: zero distance and a zero strictness margin
    twin = np.r_[np.arange(n), 0]
    doubled = WeightedGraph(np.ones((n + 1, n + 1)) - np.eye(n + 1))
    reports += assert_all_checks_match(on_path[np.ix_(twin, twin)], doubled, doubled)
    notes = {r.note for r in reports}
    for note in (
        "product equality although j does not separate i from k",
        "j separates i from k but products differ",
        "additive although j does not separate i from k",
        "j separates i from k but d(i,j)+d(j,k) != d(i,k)",
        "strictness margin k(x,x)+k(y,y)-2k(x,y) at witness (x,y,y)",
        "distinct vertices at zero distance",
    ):
        assert note in notes


def set_block_size(monkeypatch, n: int, per_block: int) -> None:
    """Make the triple scans take per_block first vertices per block."""
    monkeypatch.setattr(properties, "_BLOCK_ENTRIES", per_block * n * n)


# at n = 7, three per block splits unevenly into blocks of 3, 3 and 1
@pytest.mark.parametrize("per_block", [1, 3])
@pytest.mark.parametrize("n", [4, 7])
def test_multi_block_scans_match_reference_loops(monkeypatch, n, per_block):
    set_block_size(monkeypatch, n, per_block)
    test_mismatched_pairs_reach_every_branch(n)
    rng = np.random.default_rng(n)
    for measure in MEASURES:
        g = random_connected_graph(rng, n, name="g")
        h = random_connected_graph(rng, n, name="h")
        for u in (0.2, 0.9):
            assert_all_checks_match(kernel(g, measure, u), g, h)


@pytest.mark.parametrize("per_block", [1, 3])
def test_transitional_excess_in_a_later_block_beats_an_earlier_mismatch(
    monkeypatch, per_block
):
    n = 7
    set_block_size(monkeypatch, n, per_block)
    path = path_graph(n)
    s = kernel(complete_graph(n), "regL", 0.5).copy()
    mismatch = check_transitional(s, path)
    assert mismatch.note == "j separates i from k but products differ"
    assert mismatch.witness[0] == 1
    # shrinking s(n,1) alone keeps every excess with first vertex below n
    # negative; below s(n,j)s(j,1)/s(j,j) it makes (n, j, 1) an excess
    s[n - 1, 0] = 0.5 * min(s[n - 1, j] * s[j, 0] / s[j, j] for j in range(1, n - 1))
    got = check_transitional(s, path)
    assert got == reference_transitional(s, path)
    assert got.note == "relative excess of s(i,j)s(j,k) over s(i,k)s(j,j)"
    assert got.witness[0] == n


@pytest.mark.parametrize("n", [1, 2])
def test_small_matrices_match_reference(n):
    a = np.eye(n) + 1.0
    d = pair_to_dist(a)
    assert check_proximity(a) == reference_proximity(a)
    assert check_egocentrism(a) == reference_egocentrism(a)
    assert check_metric(d) == reference_metric(d)
    assert check_sqrt_distance(d) == reference_sqrt_distance(d)


def assert_labels_match_cuts(g: WeightedGraph) -> None:
    comp = separation_labels(g)
    assert comp.shape == (g.n, g.n)
    assert (np.diag(comp) == -1).all()
    for j in range(g.n):
        for i in range(g.n):
            for k in range(g.n):
                if len({i, j, k}) == 3:
                    assert (comp[j, i] != comp[j, k]) == cut_by_bfs(g, j, i, k)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
def test_separation_labels_match_is_cut_between(seed, n):
    assert_labels_match_cuts(random_connected_graph(np.random.default_rng(seed), n, "g"))


def test_separation_labels_on_corpus_and_paths(corpus):
    for g in corpus:
        assert_labels_match_cuts(g)
    comp = separation_labels(path_graph(5))
    # removing interior vertex 2 (0-based) leaves {0, 1} and {3, 4}
    assert comp[2].tolist() == [0, 0, -1, 1, 1]
    assert comp[0].tolist() == [-1, 0, 0, 0, 0]


def test_matrix_and_graph_order_must_agree():
    k = kernel(path_graph(5), "regL", 0.5)
    with pytest.raises(ValueError, match="graph of order 4"):
        check_transitional(k, path_graph(4))
    with pytest.raises(ValueError, match="graph of order 4"):
        check_cutpoint_additive(log_distance(k), path_graph(4))
