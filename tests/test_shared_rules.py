"""Rules that several layers share, each with one owner in
graphprox.linalg.

- The PSD bound: export_embedding refuses a kernel exactly when
  run_check("psd") fails it, as both hold the smallest eigenvalue
  against max(tol, 8 n eps max|K|).
- The witness rule: the metric axioms' negative-entry, asymmetric and
  self-distance witnesses are the first candidate in C order within the
  rounding floor of the extreme, so rounding cannot split a mirror pair;
  each matrix of a stack is decided within its own floor.
- The symmetric-input guard: every rejection of an asymmetric matrix
  keeps its text.
- The empty-input guard: a public function given a 0x0 matrix answers,
  or raises one ValueError that names the function and the shape.
- The default tolerance.
- The symmetric average: m/2 + m^T/2, finite and exactly symmetric, and
  (m + m^T)/2 rounded once wherever no entry lies below 2^-1021.
- The structure rule: whether a matrix is symmetric, and whether a
  distance's diagonal is zero, is decided against the rounding floor
  8 n eps max|a|, never against a tolerance, so neither answer changes
  when the matrix is scaled by a power of 2. A matrix with an entry that
  is not finite is not symmetric, and check_psd rejects it by name.
"""

import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import graphprox
from graphprox import (
    KernelResult,
    MEASURES,
    SYMMETRIC_MEASURES,
    NotPositiveSemidefiniteError,
    ParameterDomainError,
    WeightedGraph,
    check_metric,
    check_proximity,
    check_psd,
    check_sq_euclidean,
    check_sqrt_distance,
    compute_kernel,
    default_checks,
    dist_to_sigma_prox,
    export_embedding,
    gram_factor,
    is_symmetric,
    kernel_to_sq_dist,
    param_domain,
    run_check,
    sym_eigen,
)
from graphprox import cli, linalg, properties, transforms
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


def test_a_mixed_stack_is_decided_matrix_by_matrix():
    # matrices decided at each step of the metric axioms: a negative
    # entry, asymmetry, a self-distance, distinct vertices at zero
    # distance, two triangles, and none. Each is scaled by its own power
    # of 2, far enough apart that a witness found within another matrix's
    # floor would differ. In either order, each report is the one the
    # reference gives that matrix alone, its witness included
    n = 6
    unit = np.ones((n, n)) - np.eye(n)
    zero, tied, triangle = unit.copy(), unit.copy(), unit.copy()
    zero[2, 4] = zero[4, 2] = 0.0
    # triangle excesses NEAR at (1,2,3) and, larger by two ulps of 2.0,
    # at (4,1,6): a tie within this matrix's floor, not another's
    tied[0, 2] = tied[2, 0] = 2.0 + NEAR
    tied[3, 5] = tied[5, 3] = 2.0 + NEAR + 2.0**-50
    triangle[0, 5] = triangle[5, 0] = 5.0  # its root, too, exceeds 1 + 1
    axioms = ["negative entry", "asymmetric", "nonzero self-distance"]
    mats = [tied_at_both_ends(axiom) for axiom in axioms] + [zero, tied, triangle, unit]
    stack = np.stack([m * 2.0 ** (8 * i) for i, m in enumerate(mats)])
    for check, reference in ((check_metric, reference_metric),
                             (check_sqrt_distance, reference_sqrt_distance)):
        for d in (stack, stack[::-1]):
            assert check(d) == tuple(reference(m) for m in d)
    metric = check_metric(stack)
    assert [r.note for r in metric[:4]] == axioms + ["distinct vertices at zero distance"]
    assert metric[4].witness == (1, 2, 3)
    assert [r.holds for r in metric] == [False] * 6 + [True]
    assert [r.holds for r in check_sqrt_distance(stack)] == [False] * 3 + [True, True, False, True]


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


def test_embed_refusal_quotes_the_psd_slack():
    # comm:5 on the unit K8, shifted by -10 I: indefinite, and eigh and
    # eigvalsh round its smallest eigenvalue differently; the refusal
    # quotes the eigvalsh value --check psd reports
    k = compute_kernel(complete(8), "comm", 5.0).matrix - 10.0 * np.eye(8)
    report = check_psd(k)
    assert not report.holds
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        gram_factor(k)
    assert err.value.min_eigenvalue == report.slack


def test_structure_takes_no_tolerance():
    assert not hasattr(linalg, "SYMMETRY_TOL")
    assert list(inspect.signature(is_symmetric).parameters) == ["m"]
    assert list(inspect.signature(gram_factor).parameters) == ["k"]
    assert list(inspect.signature(transforms._centered_gram).parameters) == ["d", "caller"]


POSITIVE_DEFINITE = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


def with_entry(a: np.ndarray, i: int, j: int, value: float) -> np.ndarray:
    b = a.copy()
    b[i, j] = value
    return b


@pytest.mark.parametrize("m, symmetric", [
    (with_entry(POSITIVE_DEFINITE, 0, 1, np.nextafter(1.0, 2.0)), True),  # one ulp
    (with_entry(POSITIVE_DEFINITE, 0, 1, 1.1), False),  # 10 %
], ids=["one-ulp", "ten-percent"])
def test_symmetry_does_not_change_under_scaling(m, symmetric):
    # the eigenvalues of the positive definite matrix clear tol at every
    # scale, so the psd report's slack is all that scales
    base = check_psd(m)
    assert base.note.startswith("smallest eigenvalue" if symmetric else "matrix is not")
    for k in range(-40, 41):
        scaled = m * 2.0**k
        assert is_symmetric(scaled) is symmetric, k
        report = check_psd(scaled)
        assert dataclasses.replace(report, slack=report.slack / 2.0**k) == base, k


NEAR_ONES = np.eye(4) + 0.1


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [[(0, 1)], [(0, 1), (1, 0)], [(2, 2)]],
                         ids=["one", "pair", "diagonal"])
def test_a_non_finite_entry_makes_a_matrix_asymmetric(path4, value, where):
    # the floor 8 n eps max|m| is then infinite too, so no gap may be read
    # against it; inf - inf would warn, and a RuntimeWarning fails the test
    m = NEAR_ONES
    for i, j in where:
        m = with_entry(m, i, j, value)
    assert is_symmetric(m) is False
    assert not KernelResult(path4, "x", 1.0, m, (0, 1)).symmetric


def test_a_kernel_with_one_infinite_entry_gets_an_asymmetry_report(path4):
    # once read as symmetric: proximity stopped on "requires finite
    # entries" where an asymmetry report was meant
    kres = KernelResult(path4, "x", 1.0, with_entry(NEAR_ONES, 0, 1, np.inf), (0, 1))
    report = run_check("proximity", kres)
    assert not report.holds and report.note == "matrix is not symmetric"
    assert report.slack == np.inf
    # sym_psd averages it into a symmetric matrix the eigensolver refuses
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        run_check("sym_psd", kres)


def test_check_psd_rejects_non_finite_entries_by_name():
    # a symmetric pair of infs once failed as "not symmetric" with slack NaN
    with pytest.raises(ValueError) as err:
        check_psd(with_entry(with_entry(NEAR_ONES, 0, 1, np.inf), 1, 0, np.inf))
    assert str(err.value) == "check_psd requires finite entries; entry (1,2) = inf"


SQUARED_PATH3 = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])


@pytest.mark.parametrize("diagonal, accepted", [
    (4.0 * np.finfo(float).eps, True),  # below the floor 8 n eps max|d| = 96 eps
    (4e-3, False),
], ids=["rounding", "nonzero"])
def test_zero_diagonal_guard_does_not_change_under_scaling(diagonal, accepted):
    d = with_entry(SQUARED_PATH3, 1, 1, diagonal)
    for k in range(-40, 41):
        scaled = d * 2.0**k
        for call in (check_sq_euclidean, lambda x: dist_to_sigma_prox(x, 1.0)):
            if accepted:
                call(scaled)
            else:
                with pytest.raises(ValueError, match="requires a zero diagonal"):
                    call(scaled)


def unit_degree_k4() -> WeightedGraph:
    """K4 with weights 0.1, 0.2 and 0.7 on its three perfect matchings:
    every weighted degree is 1, and P = W / deg is asymmetric in its
    last bit."""
    w = np.zeros((4, 4))
    for (i, j), x in {(0, 1): 0.1, (2, 3): 0.1, (0, 2): 0.2, (1, 3): 0.2,
                      (0, 3): 0.7, (1, 2): 0.7}.items():
        w[i, j] = w[j, i] = x
    return WeightedGraph(w, name="k4")


@pytest.mark.parametrize("measure, param", [("ppr", 0.5), ("heatppr", 1.0)])
def test_rounding_asymmetry_of_a_regular_graph_is_symmetry(measure, param):
    # an exact rule would fail psd, proximity and sigma here on an
    # asymmetry of 1e-16, and add a sym_psd row to --check all
    g = unit_degree_k4()
    assert (g.markov != g.markov.T).any()
    kres = compute_kernel(g, measure, param)
    assert kres.symmetric
    assert "sym_psd" not in default_checks(kres.symmetric, g.n)
    for check in ("psd", "proximity", "sigma"):
        assert run_check(check, kres).holds, check


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    measure=st.sampled_from(MEASURES),
    u=st.floats(0.01, 0.99),
    below_end=st.sampled_from([None, 1e-9, 1e-6]),
)
def test_a_kernel_flagged_symmetric_is_exactly_symmetric(seed, n, measure, u, below_end):
    # a bounded domain's parameter lies inside it or below_end below its
    # upper end, where invert is least accurate; t runs up to 5
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    lo, hi = param_domain(measure, g)
    if not np.isfinite(hi):
        param = 5.0 * u
    elif below_end is None:
        param = lo + u * (hi - lo)
    else:
        param = hi - below_end
    try:
        kres = compute_kernel(g, measure, param)
    except (ValueError, OverflowError):  # outside the domain, singular or overflowed
        assume(False)
    if kres.symmetric:
        assert (kres.matrix == kres.matrix.T).all()


def test_a_hand_built_kernel_symmetric_to_its_floor_is_averaged(path4):
    # one ulp off in one entry: symmetric to the floor, not exactly, so
    # the log checks read an asymmetric matrix unless it is averaged
    base = compute_kernel(path4, "regL", 1.0)
    m = 1 + 1e-3 * base.matrix
    m[0, 1] = np.nextafter(m[0, 1], 2.0)
    kres = KernelResult(path4, "regL", 1.0, m, base.param_domain)
    assert kres.symmetric
    assert np.array_equal(kres.matrix, kres.matrix.T)
    assert np.array_equal(kres.matrix, 0.5 * (m + m.T))
    assert run_check("log_proximity", kres).holds
    psd = run_check("log_psd", kres)
    assert psd.holds and psd.note == "smallest eigenvalue"
    # an exactly symmetric matrix is kept as given, an asymmetric one too
    exact = KernelResult(path4, "regL", 1.0, base.matrix, base.param_domain)
    assert np.array_equal(exact.matrix, base.matrix)
    skew = base.matrix.copy()
    skew[0, 1] *= 1.5
    asym = KernelResult(path4, "regL", 1.0, skew, base.param_domain)
    assert not asym.symmetric and np.array_equal(asym.matrix, skew)


HUGE = float(np.finfo(float).max)
NEAR_MAX = np.full((1, 4, 4), 1.5e308)
NEAR_MAX[0, 0, 1] = np.nextafter(1.5e308, 0.0)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# stacks of B <= 3 matrices of order n <= 8, scaled by 2^k, k in [-1100, 1023]
scaled_stacks = st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(-1100, 1023)).flatmap(
    lambda bnk: hnp.arrays(
        float, (bnk[0], bnk[1], bnk[1]), elements=st.floats(-1.5, 1.5, allow_subnormal=False)
    ).map(lambda a: np.ldexp(a, bnk[2]))
)


@settings(deadline=None)
@given(a=scaled_stacks)
@example(a=NEAR_MAX)
def test_the_average_adds_the_halves(a):
    # halving is exact but below 2^-1021, where an odd last bit rounds, so
    # m/2 + m^T/2 is (m + m^T)/2 rounded once where every entry is 0 or
    # in [2^-1021, max/2], and finite and exactly symmetric everywhere
    got = linalg._symmetrized(a)
    assert np.isfinite(got).all() and bits(got) == bits(got.swapaxes(-1, -2))
    size = np.abs(a)
    if ((size == 0) | ((size >= 2.0**-1021) & (size <= HUGE / 2))).all():
        assert bits(got) == bits(0.5 * (a + a.swapaxes(-1, -2)))


def test_averaging_near_the_largest_float_stays_finite(path4):
    # m + m^T overflows; the average of the halves does not
    m = np.full((4, 4), 1.5e308)
    m[0, 1] = np.nextafter(m[0, 1], 0.0)
    kres = KernelResult(path4, "regL", 1.0, m, (0.0, np.inf))
    assert kres.symmetric and np.isfinite(kres.matrix).all()
    assert np.array_equal(kres.matrix, kres.matrix.T)
    assert kres.matrix[0, 1] == 1.5e308  # the tie rounds to even
    # the one average serves every symmetrization: check_psd decides m
    # rather than refusing non-finite entries, and comm:709.9 on the unit
    # K2, with entries near 1.0e308, is finite (an overflow warning would
    # fail the test)
    assert check_psd(m).note == "smallest eigenvalue"
    k2 = WeightedGraph(np.ones((2, 2)) - np.eye(2), name="K2")
    k = compute_kernel(k2, "comm", 709.9).matrix
    assert np.isfinite(k).all() and np.array_equal(k, k.T)
    # the rule's one exception: an odd last bit below 2^-1021, here a
    # symmetric pair of the smallest subnormal, whose halves round to 0
    tiny = np.array([[0.0, 5e-324], [5e-324, 0.0]])
    assert (0.5 * (tiny + tiny.T) == tiny).all() and (linalg._symmetrized(tiny) == 0.0).all()
