"""Metamorphic test: relabelling the vertices changes no verdict.

Every audited property is a statement over all vertices, pairs or
triples, so a permuted graph must get the same verdicts and, up to
rounding, the same slacks. Witnesses are not compared, because a scan
may settle on another of several exactly tied triples. Nor are the
slacks of reports that stop at the first counterexample in scan order
(the cut-vertex mismatches and coinciding vertices): which
counterexample comes first depends on the labels. Slacks agree to a
relative 1e-9, or to 1e-12 of the largest kernel entry for slacks far
below that scale: an eigenvalue or a difference of huge entries carries
rounding relative to the entries it came from. Graphs have at
least five vertices, so the vertex-specific distance_order and
log_order checks, which run on 4-vertex graphs only, are not involved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprox import WeightedGraph, build_matrices, compute_kernel, param_domain, run_audit
from graphprox.audit import default_checks
from graphprox.kernels import MEASURES, SYMMETRIC_MEASURES

from oracles import random_connected_graph

# Reports whose slack is the value at the first counterexample found,
# not an extreme over all vertices.
FIRST_FOUND = {
    "product equality although j does not separate i from k",
    "j separates i from k but products differ",
    "additive although j does not separate i from k",
    "j separates i from k but d(i,j)+d(j,k) != d(i,k)",
    "distinct vertices at zero distance",
}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 9),
    measure=st.sampled_from(MEASURES),
    u=st.floats(0.05, 0.95),
)
def test_relabelling_keeps_verdicts_and_slacks(seed, n, measure, u):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, name="g")
    perm = rng.permutation(n)
    h = WeightedGraph(n, g.weights[np.ix_(perm, perm)], name="h")
    gm = build_matrices(g)
    lo, hi = param_domain(measure, gm)
    param = lo + u * (hi - lo) if np.isfinite(hi) else 1.5 * u
    scale = max(1.0, float(np.abs(compute_kernel(gm, measure, param).matrix).max()))
    checks = default_checks(measure in SYMMETRIC_MEASURES, n)
    checks += ["log_metric", "log_proximity", "log_psd"]
    before = run_audit(g, [(measure, param)], checks=checks).results[0].checks
    after = run_audit(h, [(measure, param)], checks=checks).results[0].checks
    for x, y in zip(before, after, strict=True):
        assert x.property == y.property
        assert x.holds == y.holds, x.property
        if x.note in FIRST_FOUND:
            assert y.note in FIRST_FOUND, x.property
        elif x.slack is None:
            assert y.slack is None, x.property
        else:
            assert y.slack == pytest.approx(x.slack, rel=1e-9, abs=1e-12 * scale), x.property
