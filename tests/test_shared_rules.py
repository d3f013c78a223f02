"""Rules that several layers share, each with one owner in
graphprox.linalg.

- The PSD bound: export_embedding refuses a kernel exactly when
  run_check("psd") fails it, as both hold the smallest eigenvalue
  against max(tol, 8 n eps max|K|).
- The witness rule: the metric axioms' negative-entry, asymmetric and
  self-distance witnesses are the first candidate in C order within the
  rounding floor of the extreme, so rounding cannot split a mirror pair.
- The symmetric-input guard: every rejection of an asymmetric matrix
  keeps its text.
- The empty-input guard: a public function given a 0x0 matrix answers,
  or raises one ValueError that names the function and the shape.
- The default tolerance.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphprox
from graphprox import (
    SYMMETRIC_MEASURES,
    NotPositiveSemidefiniteError,
    ParameterDomainError,
    WeightedGraph,
    check_metric,
    check_proximity,
    check_sq_euclidean,
    check_sqrt_distance,
    compute_kernel,
    dist_to_sigma_prox,
    export_embedding,
    kernel_to_sq_dist,
    param_domain,
    run_check,
    sym_eigen,
)
from graphprox import cli, linalg, properties
from graphprox.linalg import sym_eigenvalues

from oracles import random_connected_graph, reference_metric, reference_sqrt_distance


def complete(n: int) -> WeightedGraph:
    return WeightedGraph(np.ones((n, n)) - np.eye(n), name=f"K{n}")


def unit_path(n: int) -> WeightedGraph:
    w = np.zeros((n, n))
    for v in range(n - 1):
        w[v, v + 1] = w[v + 1, v] = 1.0
    return WeightedGraph(w, name=f"path{n}")


def edge_list(tmp_path, g: WeightedGraph):
    path = tmp_path / f"{g.name}.txt"
    i, j = np.nonzero(np.triu(g.weights))
    path.write_text(
        "".join(f"{a + 1} {b + 1} {float(g.weights[a, b])!r}\n" for a, b in zip(i, j)), encoding="utf-8"
    )
    return str(path)


def embeds(g: WeightedGraph, measure: str, param: float, out: str) -> bool:
    try:
        export_embedding(g, measure, param, out)
    except NotPositiveSemidefiniteError:
        return False
    return True


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    measure=st.sampled_from(sorted(SYMMETRIC_MEASURES)),
    u=st.one_of(st.floats(0.05, 1.0), st.sampled_from([0.99, 0.999, 1.0])),
)
def test_embeds_exactly_when_psd_passes(tmp_path_factory, seed, n, measure, u):
    # t up to 5 on an unbounded domain (comm, dfact, heat, ...), up to
    # 0.999 of a bounded one (katz near 1/rho)
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    lo, hi = param_domain(measure, g)
    param = lo + min(u, 0.999) * (hi - lo) if np.isfinite(hi) else 5.0 * u
    try:
        kres = compute_kernel(g, measure, param)
    except (ParameterDomainError, OverflowError):
        assume(False)
    out = str(tmp_path_factory.mktemp("embed") / "x.csv")
    assert embeds(g, measure, param, out) == run_check("psd", kres).holds


@pytest.mark.parametrize("n,t", [(8, 5.0), (10, 5.0), (12, 3.0), (12, 5.0)])
def test_unit_complete_graphs_pass_psd_and_embed(tmp_path, capsys, n, t):
    # comm is PSD at every t; on K_n at large t rounding can put its
    # smallest eigenvalue below -tol, though within the rounding floor
    g = complete(n)
    assert run_check("psd", compute_kernel(g, "comm", t)).holds
    coords = export_embedding(g, "comm", t, str(tmp_path / "lib.csv"))
    assert coords.shape == (n, n)
    edges, out = edge_list(tmp_path, g), tmp_path / "cli.csv"
    assert cli.main(["audit", edges, "--measure", f"comm:{t}", "--check", "psd"]) == 0
    assert cli.main(["embed", edges, "--measure", f"comm:{t}", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize("n", [20, 40, 80])
def test_mirror_pair_gives_the_first_witness(tmp_path, n):
    # heatppr:5 on a unit path has its most negative distances at the two
    # end edges, d(1,2) and d(n-1,n), mirror images that rounding splits
    edges, out = edge_list(tmp_path, unit_path(n)), tmp_path / "r.json"
    argv = ["audit", edges, "--measure", "heatppr:5", "--check", "metric,sqrt_distance"]
    assert cli.main(argv + ["--json", str(out)]) == 1
    report = graphprox.AuditReport.from_dict(json.loads(out.read_text(encoding="utf-8")))
    for chk in report.results[0].checks:
        assert chk.witness == (1, 2), chk.property
        assert chk.note.startswith("negative entry")
    d = compute_kernel(unit_path(n), "heatppr", 5.0).dist
    reversed_d = d[::-1, ::-1]
    assert check_metric(reversed_d).witness == check_metric(d).witness == (1, 2)
    assert check_sqrt_distance(reversed_d).witness == check_sqrt_distance(d).witness == (1, 2)


# a violation of 2^-10 and one larger by 2^-52, both exact: a tie within
# the rounding floor 8 n eps max|d| = 1.1e-14 of a 6-vertex d
NEAR = 2.0**-10
FAR = NEAR + 2.0**-52


def tied_at_both_ends(axiom: str, n: int = 6) -> np.ndarray:
    """A distance matrix that violates axiom by NEAR at (1,2), or (1,1),
    and by FAR at (n-1,n), or (n,n)."""
    d = np.ones((n, n)) - np.eye(n)
    if axiom == "negative entry":
        d[0, 1] = d[1, 0] = -NEAR
        d[n - 2, n - 1] = d[n - 1, n - 2] = -FAR
    elif axiom == "asymmetric":
        d[0, 1] = 1.0 + NEAR
        d[n - 2, n - 1] = 1.0 + FAR
    else:
        d[0, 0], d[n - 1, n - 1] = NEAR, FAR
    return d


@pytest.mark.parametrize("axiom", ["negative entry", "asymmetric", "nonzero self-distance"])
def test_axiom_witness_is_the_first_within_the_floor(axiom):
    d = tied_at_both_ends(axiom)
    got = check_metric(d)
    assert got == reference_metric(d)
    assert got.note == axiom
    assert got.witness == ((1, 1) if axiom == "nonzero self-distance" else (1, 2))
    assert abs(got.slack) == FAR  # the slack stays the extreme
    if axiom == "negative entry":
        got = check_sqrt_distance(d)
        assert got == reference_sqrt_distance(d)
        assert got.witness == (1, 2)


ASYMMETRIC = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "reject,what",
    [
        (kernel_to_sq_dist, "kernel_to_sq_dist"),
        (lambda m: dist_to_sigma_prox(m, 1.0), "dist_to_sigma_prox"),
        (check_proximity, "check_proximity"),
        (check_sq_euclidean, "check_sq_euclidean"),
        (sym_eigen, "sym_eigen"),
        (sym_eigenvalues, "sym_eigenvalues"),
    ],
)
def test_asymmetric_input_rejected_with_exact_text(reject, what):
    with pytest.raises(ValueError) as err:
        reject(ASYMMETRIC)
    assert str(err.value) == f"{what} requires a symmetric matrix"


EMPTY = np.zeros((0, 0))
# Every public function of one matrix that reduces over its entries
EMPTY_REJECTED = [
    "invert", "matrix_exp", "sym_eigen", "gram_factor", "spectral_radius",
    "kernel_to_sq_dist", "dist_to_sigma_prox", "log_distance", "symmetrize_geometric", "embed",
    "check_psd", "check_proximity", "check_sigma_proximity", "check_egocentrism",
    "check_metric", "check_sq_euclidean", "check_sqrt_distance",
]


@pytest.mark.parametrize("name", EMPTY_REJECTED + ["is_symmetric", "pair_to_dist"])
def test_empty_matrix_answered_or_rejected_by_name(name):
    fn = getattr(graphprox, name)
    args = (EMPTY, 1.0) if name == "dist_to_sigma_prox" else (EMPTY,)
    if name == "is_symmetric":
        assert fn(*args) is True
    elif name == "pair_to_dist":
        assert fn(*args).shape == (0, 0)
    else:
        with pytest.raises(ValueError) as err:
            fn(*args)
        assert str(err.value) == f"{name} requires a nonempty matrix, got shape (0, 0)"
        assert "zero-size array" not in str(err.value)


def test_default_tolerance_has_one_owner():
    assert properties.DEFAULT_TOL is linalg.DEFAULT_TOL
    assert graphprox.DEFAULT_TOL == 1e-9
    parser = cli.build_parser()
    audit = parser.parse_args(["audit", "paper:path4", "--measure", "heat:1"])
    threshold = parser.parse_args(
        ["threshold", "paper:path4", "--measure", "heat", "--property", "psd", "--range", "0.1", "1"]
    )
    assert audit.tol is threshold.tol is linalg.DEFAULT_TOL
