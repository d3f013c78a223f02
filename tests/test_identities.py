"""The paper's identities between properties, as test oracles.

Proximity and metric (family T1). For a symmetric S and its induced
distance d = (s_ii + s_jj)/2 - s_ij, metric's triangle excess
d(x,z) - d(x,y) - d(y,z) at (x, y, z) equals proximity's
s(y,x) + s(y,z) - s(x,z) - s(y,y) at (y, x, z), and d(x,y) is half of
proximity's strictness margin s(x,x) + s(y,y) - 2 s(x,y). So
check_proximity(S) and check_metric(d) give one verdict wherever neither
is flagged indeterminate, and where both fail on a triangle, metric's
witness is proximity's (x, y, z) read as (y, x, z). Both pairs the audit
forms are tested: the kernel with its pair distance, and the logarithmic
similarity with the logarithmic distance, on the corpus at the two
parameter sets of tests/dump_reports.py.

The audit's metric reads this identity: where a symmetric kernel's
proximity report holds, its slack, the largest T1 excess, stands for the
distance's largest triangle excess, so run_check("metric", kr) must
report what check_metric(kr.dist) reports, within one rounding floor of
the distance in its slack.
"""

import numpy as np
import pytest

from graphprox import compute_kernel, properties, run_check
from graphprox.linalg import _symmetrized
from graphprox.properties import _floors, check_metric, check_proximity
from graphprox.transforms import pair_to_dist

from dump_reports import PARAMS, measures_on
from oracles import random_connected_graph


@pytest.fixture(scope="module")
def identity_pairs(corpus):
    """(S, d) of each measure at each parameter set on each graph: the
    kernel, symmetrized where asymmetric, with its pair distance, and the
    logarithmic similarity with the logarithmic distance."""
    pairs = {"kernel": [], "log": []}
    for g in corpus:
        for params in PARAMS:
            for measure, param in measures_on(g, params):
                kres = compute_kernel(g, measure, param)
                k = kres.matrix if kres.symmetric else _symmetrized(kres.matrix)
                pairs["kernel"].append((k, pair_to_dist(k)))
                pairs["log"].append((kres.log_similarity, kres.log_dist))
    return pairs


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.0])
@pytest.mark.parametrize("source", ["kernel", "log"])
def test_proximity_and_metric_agree(identity_pairs, source, tol):
    # On the logarithmic pair at tol 0, rounding decides some verdicts and
    # some witnesses with no flag; there both reports must at least sit
    # within their rounding floors of the boundary.
    rounding_decides = source == "log" and tol == 0.0
    joint = 0
    for s, d in identity_pairs[source]:
        prox, metric = check_proximity(s, tol), check_metric(d, tol)
        both_triangles = (
            not prox.holds and prox.note.startswith("k(x,y)")
            and not metric.holds and metric.note.startswith("triangle")
        )
        joint += both_triangles
        if both_triangles:
            x, y, z = prox.witness
            agree = metric.witness == (y, x, z)
        else:
            agree = prox.holds == metric.holds or prox.indeterminate or metric.indeterminate
        if rounding_decides and not (agree and prox.holds == metric.holds):
            assert abs(prox.slack) <= _floors(s[None])[0], (prox, metric)
            assert abs(metric.slack) <= _floors(d[None])[0], (prox, metric)
        else:
            assert agree, (prox, metric)
    assert joint > 0


@pytest.mark.parametrize("tol", [1e-9, 0.0, 1e-6])
def test_audit_metric_reads_the_t1_walk(corpus, tol):
    failures = 0
    for g in corpus:
        for params in PARAMS:
            for measure, param in measures_on(g, params):
                kres = compute_kernel(g, measure, param)  # a fresh memo: metric forms T1
                got, want = run_check("metric", kres, tol), check_metric(kres.dist, tol)
                if not (got.indeterminate or want.indeterminate):
                    assert (got.holds, got.witness, got.note) == (
                        want.holds, want.witness, want.note
                    ), (g.name, measure, got, want)
                if want.slack is not None:
                    assert abs(got.slack - want.slack) <= _floors(kres.dist[None])[0]
                failures += got.witness is not None and len(got.witness) == 3
    assert failures > 0


@pytest.mark.parametrize("per_block", [1, 3])
def test_audit_metric_witness_across_blocks(monkeypatch, per_block):
    # heat fails metric at (4, 2, 7): its first index lies in neither the
    # first nor the last block, which the witness search forms again; it
    # fails proximity too, so the audit walks the distance for it
    n = 7
    g = random_connected_graph(np.random.default_rng(1), n, name="g")
    want = check_metric(compute_kernel(g, "heat", 1.0).dist)
    monkeypatch.setattr(properties, "_BLOCK_ENTRIES", per_block * n * n)
    kres = compute_kernel(g, "heat", 1.0)
    got = run_check("metric", kres)
    assert not got.holds and got.witness == (4, 2, 7)
    assert got.witness == want.witness == check_metric(kres.dist).witness
