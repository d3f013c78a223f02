"""Metamorphic tests: relabelling the vertices, or scaling every weight
by 4, changes no verdict.

Every audited property is a statement over all vertices, pairs or
triples, so a permuted graph must get the same verdicts and, up to
rounding, the same slacks. Witnesses are not compared, because a scan
may settle on another of several exactly tied triples. Nor are the
slacks of reports that stop at the first counterexample in scan order
(the cut-vertex mismatches and coinciding vertices): which
counterexample comes first depends on the labels. Slacks agree to a
relative 1e-9, or to 1e-12 of the largest kernel entry for slacks far
below that scale: an eigenvalue or a difference of huge entries carries
rounding relative to the entries it came from. Relabelled graphs have
at least five vertices, so the vertex-specific distance_order and
log_order checks, which run on 4-vertex graphs only, are not involved.

Scaling by 4 is exact in binary floating point, so the scaled graph at a
matched parameter gives the same reports, bit for bit; see
test_scaling_weights_by_4_keeps_reports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprox import WeightedGraph, compute_kernel, param_domain, run_audit
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
    h = WeightedGraph(g.weights[np.ix_(perm, perm)], name="h")
    lo, hi = param_domain(measure, g)
    param = lo + u * (hi - lo) if np.isfinite(hi) else 1.5 * u
    scale = max(1.0, float(np.abs(compute_kernel(g, measure, param).matrix).max()))
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


# Parameter on the unscaled graph per unit of parameter on the graph with
# weights 4W. katz, comm, dfact, heat and regL see the parameter times W or
# L, so 4x the parameter gives the same kernel; nheat, ppr and heatppr see
# only D^-1/2 L D^-1/2 or D^-1 W, which scaling leaves as they are.
SAME_KERNEL = {"katz": 4.0, "comm": 4.0, "dfact": 4.0, "heat": 4.0, "regL": 4.0,
               "nheat": 1.0, "ppr": 1.0, "heatppr": 1.0}
# (t/4 I + L)^-1 and (D - a W)^-1 are 4 times (t I + 4L)^-1 and
# (4D - a 4W)^-1: the kernel shrinks by 4. Checks on ratios and log
# distances cannot see that; log_psd and log_proximity read ln(s/4) =
# ln s - ln 4 and so can.
SHRUNK_KERNEL = {"absorp": 0.25, "modifppr": 1.0}
SHRUNK_CHECKS = ["transitional", "cutpoint_additive", "log_metric"]


@pytest.mark.parametrize("measure", [*SAME_KERNEL, *SHRUNK_KERNEL])
@pytest.mark.parametrize("seed, n", [(1, 4), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8)])
def test_scaling_weights_by_4_keeps_reports(seed, n, measure):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, name="g")
    scaled = WeightedGraph(4.0 * g.weights, name="g")
    lo, hi = param_domain(measure, g)
    u = float(rng.uniform(0.05, 0.95))
    param = lo + u * (hi - lo) if np.isfinite(hi) else 1.5 * u
    if measure in SAME_KERNEL:
        factor, checks = SAME_KERNEL[measure], ["all"]
    else:
        factor = SHRUNK_KERNEL[measure]
        checks = SHRUNK_CHECKS + (["log_order"] if n == 4 else [])
    before = run_audit(g, [(measure, param)], checks=checks).results[0].checks
    after = run_audit(scaled, [(measure, param / factor)], checks=checks).results[0].checks
    assert before == after
