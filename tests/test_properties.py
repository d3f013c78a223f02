import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprox import (
    properties,
    check_cutpoint_additive,
    check_distance_order,
    check_egocentrism,
    check_metric,
    check_proximity,
    check_psd,
    check_sigma_proximity,
    check_sq_euclidean,
    check_sqrt_distance,
    check_transitional,
    communicability,
    compute_kernel,
    double_factorial,
    heat,
    katz,
    kernel_to_sq_dist,
    log_distance,
    modified_ppr,
    normalized_heat,
    pair_to_dist,
    ppr,
    regularized_laplacian,
    WeightedGraph,
)
from graphprox.cli import main

from oracles import reference_relative_excess


class TestCheckPsd:
    def test_communicability_holds_for_all_t(self, path4):
        for t in (0.1, 1.0, 4.5):
            assert check_psd(communicability(path4, t).matrix).holds

    def test_double_factorial_fails(self, path4):
        rep = check_psd(double_factorial(path4, 1.0).matrix)
        assert not rep.holds
        assert rep.slack < -1e-9  # the witnessing eigenvalue

    def test_symmetrized_ppr_fails_at_high_alpha(self, path4):
        k = ppr(path4, 0.99).matrix
        assert not check_psd(0.5 * (k + k.T)).holds

    def test_asymmetric_input_refused_not_symmetrized(self, path4):
        rep = check_psd(ppr(path4, 0.5).matrix)
        assert not rep.holds
        assert "not symmetric" in rep.note

    def test_indeterminate_flag_near_boundary(self):
        rep = check_psd(np.diag([1.0, -5e-10]), tol=1e-9)
        assert rep.holds and rep.indeterminate

    def test_clean_zero_eigenvalue_not_flagged(self):
        # a structurally singular but PSD matrix is a robust pass
        rep = check_psd(np.ones((3, 3)), tol=1e-9)
        assert rep.holds and not rep.indeterminate


class TestEigenvalueChecksRoundingFloor:
    """psd, sym_psd, sq_euclidean and log_psd decide against max(tol,
    floor), the floor being 8 n eps times the size of the operands of the
    matrix whose eigenvalues they read. Where the floor exceeds tol, a
    negative smallest eigenvalue within twice the floor is indeterminate."""

    @pytest.mark.parametrize("k", range(-40, 41, 8))
    def test_verdicts_survive_exact_rescaling(self, path4, k):
        kern = modified_ppr(path4, 0.9).matrix * 2.0**k
        rep = check_psd(kern)
        assert rep.holds and not rep.indeterminate, (k, rep)
        # -HDH has the eigenvalue 0 exactly (the centering's null vector
        # of ones), so rounding alone decides the sign of its computed
        # smallest eigenvalue; where the floor exceeds tol a negative one
        # is flagged
        d = kernel_to_sq_dist(kern)
        rep = check_sq_euclidean(d)
        floor = 8 * 4 * np.finfo(float).eps * np.abs(d).max()
        assert rep.holds, (k, rep)
        assert rep.indeterminate == (floor > 1e-9 and rep.slack < 0), (k, rep)
        # the floor does not hide a real negative eigenvalue at any scale
        # where it exceeds tol; shrunk far enough, tol does
        indefinite = np.diag([1.0, -1e-3, 2.0]) * 2.0**k
        assert check_psd(indefinite).holds == (1e-3 * 2.0**k <= 1e-9), k

    def test_bound_is_the_larger_of_tol_and_floor(self):
        n, big = 4, 2.0**40
        floor = 8 * n * np.finfo(float).eps * big
        for frac, holds, indeterminate in [
            (-0.4, True, False), (0.0, True, False), (0.001, True, True), (0.4, True, True),
            (0.99, True, True), (1.01, False, True), (2.0, False, True), (2.5, False, False),
        ]:
            rep = check_psd(np.diag([big, 1.0, 1.0, -frac * floor]), tol=1e-9)
            assert (rep.holds, rep.indeterminate) == (holds, indeterminate), frac
            assert rep.tolerance == 1e-9 and rep.slack == -frac * floor
        # where tol is the larger, it alone decides
        assert not check_psd(np.diag([1.0, 1.0, 1.0, -2e-9]), tol=1e-9).holds

    def test_sq_euclidean_of_a_tiny_weight_path(self):
        w = np.diag(np.full(3, 1e-13), 1)
        kern = modified_ppr(WeightedGraph(w + w.T), 0.5).matrix
        rep = check_sq_euclidean(kernel_to_sq_dist(kern))
        # rounding, within the floor: a pass whose sign is unresolved
        assert rep.holds and rep.indeterminate and rep.slack < -1e-9

    def test_sq_euclidean_floor_reads_the_kernel_scale(self):
        # D = 0 but for rounding residue left by kernel entries near 1e21:
        # against D's own entries the residue fails, against the kernel's
        # it is within the floor and flagged
        d = np.zeros((3, 3))
        d[0, 2] = d[2, 0] = -524288.0
        assert not check_sq_euclidean(d).holds
        rep = check_sq_euclidean(d, scale=3.9e21)
        assert rep.holds and rep.indeterminate
        assert rep.slack == check_sq_euclidean(d).slack

    @pytest.mark.parametrize("stack,scale", [
        (3, [1.0]),  # fewer scales than matrices
        (None, [1.0, 2.0]),  # more
        (None, np.inf),  # a floor every eigenvalue passes
        (None, np.nan),
        (None, -1.0),
        (None, np.array(-1.0)),
        (2, [1.0, np.nan]),
    ])
    def test_sq_euclidean_rejects_a_bad_scale(self, path4, stack, scale):
        d = pair_to_dist(regularized_laplacian(path4, 1.0).matrix)
        with pytest.raises(ValueError, match=r"^scale must be finite and nonnegative, one or "):
            check_sq_euclidean(d if stack is None else np.stack([d] * stack), 1e-9, scale)

    def test_sq_euclidean_takes_one_scale_per_matrix(self, path4):
        ds = np.stack([pair_to_dist(compute_kernel(path4, m, 0.5).matrix) for m in ("regL", "comm")])
        got = check_sq_euclidean(ds, 1e-9, [3.9e21, 0.0])
        assert got == (check_sq_euclidean(ds[0], 1e-9, 3.9e21), check_sq_euclidean(ds[1], 1e-9))
        assert check_sq_euclidean(ds[0], 1e-9, [3.9e21]) == got[0]
        # a single value may come as an array of no dimensions
        assert check_sq_euclidean(ds[0], 1e-9, np.array(3.9e21)) == got[0]
        assert check_sq_euclidean(ds, 1e-9, np.array(0.0)) == check_sq_euclidean(ds, 1e-9)


class TestCheckProximity:
    def test_communicability_violation_witness(self, path4):
        rep = check_proximity(communicability(path4, 1.0).matrix)
        assert not rep.holds
        x, y, z = rep.witness
        assert x == 2 and {y, z} == {1, 3}
        assert rep.slack > 1e-9

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_regularized_laplacian_holds(self, path4, t):
        assert check_proximity(regularized_laplacian(path4, t).matrix).holds

    def test_identity_holds(self):
        assert check_proximity(np.eye(4)).holds

    def test_constant_matrix_fails_strictness(self):
        rep = check_proximity(np.ones((3, 3)))
        assert not rep.holds
        assert rep.witness[1] == rep.witness[2]  # a z = y witness

    def test_rejects_asymmetric(self, path4):
        with pytest.raises(ValueError, match="symmetric"):
            check_proximity(ppr(path4, 0.5).matrix)


class TestCheckSigmaProximity:
    def test_regularized_laplacian_is_one_proximity(self, path4):
        rep = check_sigma_proximity(regularized_laplacian(path4, 1.0).matrix)
        assert rep.holds
        assert rep.sigma == pytest.approx(1.0, abs=1e-9)

    def test_normalized_heat_proximity_without_normalization(self, path4):
        k = normalized_heat(path4, 0.5).matrix
        assert check_proximity(k).holds
        rep = check_sigma_proximity(k)
        assert not rep.holds
        assert "row-sum" in rep.note

    def test_katz_is_non_normalized_proximity(self, path4):
        k = katz(path4, 0.3).matrix
        assert check_proximity(k).holds
        assert not check_sigma_proximity(k).holds


class TestCheckEgocentrism:
    def test_identity_holds(self):
        assert check_egocentrism(np.eye(3)).holds

    def test_katz_with_row_dominance_holds(self, path4):
        # alpha * max degree = 0.9 <= 1, the diagonal-dominance regime
        assert check_egocentrism(katz(path4, 0.3).matrix).holds

    def test_constant_matrix_fails(self):
        rep = check_egocentrism(np.ones((3, 3)))
        assert not rep.holds and rep.witness is not None


class TestCheckMetric:
    def test_ppr_past_onset_fails_triangle(self, path5):
        d = pair_to_dist(ppr(path5, 0.96).matrix)
        rep = check_metric(d)
        assert not rep.holds
        assert "triangle" in rep.note
        # the (1,3,4) triangle is among the violated ones
        assert d[0, 2] + d[2, 3] < d[0, 3]

    def test_regularized_laplacian_distance_is_metric(self, path4):
        d = kernel_to_sq_dist(regularized_laplacian(path4, 1.0).matrix)
        assert check_metric(d).holds

    def test_zero_matrix_fails_indiscernibles(self):
        rep = check_metric(np.zeros((3, 3)))
        assert not rep.holds
        assert "zero distance" in rep.note

    def test_negative_entry_fails(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        rep = check_metric(d)
        assert not rep.holds and rep.note == "negative entry"

    def test_asymmetric_fails(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert not check_metric(d).holds


class TestCheckSqEuclidean:
    def test_distance_from_psd_kernel_holds(self, path4):
        d = kernel_to_sq_dist(heat(path4, 1.0).matrix)
        assert check_sq_euclidean(d).holds

    def test_distance_from_double_factorial_fails(self, path4):
        d = kernel_to_sq_dist(double_factorial(path4, 1.0).matrix)
        assert not check_sq_euclidean(d).holds

    def test_zero_distances_hold(self):
        assert check_sq_euclidean(np.zeros((4, 4))).holds


# exponents that scale row and column 3 of a 5 x 5 matrix by 2^400
_E = 400 * (np.arange(5) == 2)
VERTEX3_BY_2_400 = _E[:, None] + _E


class TestCheckTransitional:
    def test_katz_equality_exactly_on_cut_triples(self, path4):
        k = katz(path4, 0.3).matrix
        rep = check_transitional(k, path4)
        assert rep.holds
        # the defining equality at a separated triple
        assert k[0, 1] * k[1, 2] == pytest.approx(k[0, 2] * k[1, 1], rel=1e-12)

    def test_ppr_holds_on_path5(self, path5):
        assert check_transitional(ppr(path5, 0.9).matrix, path5).holds

    def test_triangle_graph_strict_everywhere(self, triangle):
        k = regularized_laplacian(triangle, 1.0).matrix
        rep = check_transitional(k, triangle)
        assert rep.holds
        for i, j, m in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
            assert k[i, j] * k[j, m] < k[i, m] * k[j, j]

    def test_communicability_is_not_transitional(self, path4):
        rep = check_transitional(communicability(path4, 1.0).matrix, path4)
        assert not rep.holds

    def test_rejects_nonpositive_entries(self, path4):
        with pytest.raises(ValueError, match="positive"):
            check_transitional(np.eye(4), path4)

    @staticmethod
    def relative_excess(a, n):
        return np.concatenate([properties._relative_excess(a, xs) for xs in properties._blocks(n)])

    # one block of first vertices, and one block per first vertex
    @pytest.mark.parametrize("one_per_block", [False, True])
    @pytest.mark.parametrize("scale", [
        lambda k: np.ldexp(k, -600),
        lambda k: np.ldexp(k, 600),
        # row and column 3 by 2^400: only the products holding s_33 and
        # another entry of that row or column leave the normal range
        lambda k: np.ldexp(k, VERTEX3_BY_2_400),
    ], ids=["all-2^-600", "all-2^600", "vertex3-2^400"])
    @pytest.mark.parametrize("measure,param", [("regL", 1.0), ("ppr", 0.5), ("modifppr", 0.5)])
    def test_products_out_of_float_range_keep_the_report(
        self, monkeypatch, path5, measure, param, scale, one_per_block
    ):
        # scaling rows and columns alike by powers of two is exact and
        # leaves every relative excess as it is; the excesses whose
        # products leave the normal range come from the logs instead
        if one_per_block:
            monkeypatch.setattr(properties, "_BLOCK_ENTRIES", path5.n ** 2)
        k = compute_kernel(path5, measure, param).matrix
        scaled = scale(k)
        assert np.isfinite(scaled).all() and (scaled > 0).all()
        np.testing.assert_allclose(
            self.relative_excess(scaled, path5.n), self.relative_excess(k, path5.n),
            rtol=0, atol=1e-12,
        )
        before = check_transitional(k, path5)
        after = check_transitional(scaled, path5)
        assert after.holds and before.holds
        assert (after.witness, after.indeterminate) == (before.witness, before.indeterminate)
        assert after.slack == pytest.approx(before.slack, abs=1e-12)

    def test_excess_of_normal_products_is_the_linear_form(self, path5):
        # beside products out of range, every other entry is bit for bit
        # (s_ij s_jk - s_ik s_jj) / (s_ik s_jj)
        k = compute_kernel(path5, "regL", 1.0).matrix
        a = np.ldexp(k, VERTEX3_BY_2_400)
        with np.errstate(over="ignore"):
            num = a[:, :, None] * a
            den = a[:, None, :] * np.diag(a)[:, None]
        linear = (num < np.inf) & (den < np.inf)
        assert 0 < linear.sum() < linear.size
        with np.errstate(invalid="ignore"):
            expected = (num - den) / den
        got = properties._relative_excess(a, slice(0, 5))
        assert np.array_equal(got[linear], expected[linear])


    @staticmethod
    def boundary_factors(end, step):
        """(factor in the block's rows, factor outside them, their exact
        product): fl(min a[xs] min a) one step below, at and one step above
        2^-1022, or fl(max a[xs] max a) likewise at the largest float, one
        step above it being 2^1024, an overflow. Every factor is a float,
        and so is every product below 2^1024."""
        if end == "tiny":
            return np.ldexp(2.0**52 + step, -537), np.ldexp(1.0, -537), np.ldexp(2.0**52 + step, -1074)
        with np.errstate(over="ignore"):
            return np.ldexp(1.0, 485), np.ldexp(2.0**53 - 1 + step, 486), np.ldexp(2.0**53 - 1 + step, 971)

    @settings(deadline=None)
    @given(
        data=st.data(),
        n=st.integers(3, 6),
        end=st.sampled_from(["tiny", "huge"]),
        step=st.sampled_from([-1, 0, 1]),
    )
    def test_range_gate_equals_always_masked_reference(self, data, n, end, step):
        inside, outside, product = self.boundary_factors(end, step)
        b = data.draw(st.integers(1, n - 1), label="block rows")
        s = data.draw(st.integers(0, n - b), label="first row")
        x = data.draw(st.integers(s, s + b - 1), label="x")
        j = data.draw(st.sampled_from([r for r in range(n) if not s <= r < s + b]), label="j")
        k = data.draw(st.integers(0, n - 1), label="k")
        fill = data.draw(st.lists(st.floats(1.0, 2.0), min_size=n * n, max_size=n * n))
        # every other entry lies between the two factors, so inside is
        # the extreme of the block's rows and outside that of the matrix
        a = np.array(fill).reshape(n, n) * (inside if end == "tiny" else 0.5 * inside)
        a[x, j], a[j, k] = inside, outside
        with np.errstate(over="ignore"):
            assert inside * outside == product  # s_xj s_jk, formed in block xs
        for xs in (slice(s, s + b), slice(0, n)):
            got = properties._relative_excess(a, xs)
            assert got.tobytes() == reference_relative_excess(a, xs).tobytes()

    @pytest.mark.parametrize("scaled", [0, 1, 2])
    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_stack_with_one_matrix_out_of_range(self, path5, scaled, exponent):
        # only the scaled matrix's products leave the normal range; the
        # stack is masked as a whole, and each matrix keeps the bytes it
        # gets alone
        n = path5.n
        a = np.stack([compute_kernel(path5, m, p).matrix
                      for m, p in [("regL", 1.0), ("ppr", 0.5), ("heat", 1.0)]])
        a[scaled] = np.ldexp(a[scaled], exponent)
        for xs in [*properties._blocks(n), slice(1, 3), slice(0, n)]:
            got = properties._relative_excess(a, xs)
            assert got.shape == (3, xs.stop - xs.start, n, n)
            for i in range(3):
                alone = properties._relative_excess(a[i], xs)
                assert got[i].tobytes() == alone.tobytes(), (i, xs)
                assert alone.tobytes() == reference_relative_excess(a[i], xs).tobytes(), (i, xs)


def test_fill_repeats_marks_exactly_the_repeated_triples():
    # blocks of one matrix, (b, n, n), and with a leading matrix axis,
    # (k, b, n, n), of float and of boolean values
    rng = np.random.default_rng(0)
    for n in [*range(1, 41), 80]:
        x, y, z = np.indices((n, n, n))
        repeated = (x == y) | (x == z) | (y == z)
        for xs in properties._blocks(n):
            for lead in [(), (2,), (3,)]:
                block = rng.random((*lead, xs.stop - xs.start, n, n))
                got = properties._fill_repeats(block.copy(), xs, -np.inf)
                assert np.array_equal(got, np.where(repeated[xs], -np.inf, block)), (n, xs, lead)
                flags = block < 0.5
                got = properties._fill_repeats(flags.copy(), xs, False)
                assert np.array_equal(got, flags & ~repeated[xs]), (n, xs, lead)


def test_fortran_order_matrices_get_the_same_reports(path5):
    # their blocks are not in C order, so the repeat fills cannot write
    # through reshaped views of them
    k = regularized_laplacian(path5, 1.0).matrix
    d = log_distance(k)
    for check, m in [(check_proximity, k), (check_metric, d), (check_sqrt_distance, d)]:
        assert check(np.asfortranarray(m)) == check(m)
    assert check_transitional(np.asfortranarray(k), path5) == check_transitional(k, path5)
    assert check_cutpoint_additive(np.asfortranarray(d), path5) == check_cutpoint_additive(d, path5)


def excess_without_repeats(s: np.ndarray) -> float:
    """The largest relative excess over the triples with i != j and
    j != k, by a loop."""
    n = len(s)
    return max(
        (s[i, j] * s[j, k] - s[i, k] * s[j, j]) / (s[i, k] * s[j, j])
        for i in range(n) for j in range(n) for k in range(n) if i != j and j != k
    )


class TestTransitionalRepeatedTriples:
    """The triples i = j and j = k, whose relative excess is 0 by
    construction, neither set a slack nor name a witness."""

    def test_failure_below_the_floor_names_a_distinct_triple(self, capsys, path5):
        argv = ["audit", "paper:path5", "--measure", "regL:1.0", "--check", "transitional"]
        assert main(argv + ["--tol", "0"]) == 1
        line = capsys.readouterr().out.splitlines()[3]
        assert "FAIL" in line and "slack=1.903e-16" in line and "witness=(1,1,1)" not in line
        rep = check_transitional(regularized_laplacian(path5, 1.0).matrix, path5, 0.0)
        i, j, k = rep.witness
        assert i != j and j != k

    def test_passing_slack_is_the_largest_excess_over_the_other_triples(
        self, tmp_path, capsys, triangle
    ):
        edges = tmp_path / "k3.txt"
        edges.write_text("1 2 1\n2 3 1\n1 3 1\n", encoding="utf-8")
        argv = ["audit", str(edges), "--measure", "regL:1.0,katz:0.3,ppr:0.9",
                "--check", "transitional", "--tol", "0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[3:6]
        assert all("slack=-" in line for line in lines), lines
        for measure, param in [("regL", 1.0), ("katz", 0.3), ("ppr", 0.9)]:
            s = compute_kernel(triangle, measure, param).matrix
            rep = check_transitional(s, triangle, 0.0)
            assert rep.holds
            assert rep.slack == excess_without_repeats(s) < -0.18

    def test_unit_k2_passes_with_no_slack(self):
        g = WeightedGraph(np.ones((2, 2)) - np.eye(2), name="K2")
        rep = check_transitional(regularized_laplacian(g, 1.0).matrix, g, 0.0)
        assert rep.holds and rep.slack is None


class TestCheckCutpointAdditive:
    def test_log_regularized_laplacian_on_path(self, path4):
        d = log_distance(regularized_laplacian(path4, 1.0).matrix)
        assert check_cutpoint_additive(d, path4).holds

    def test_log_ppr_on_path5(self, path5):
        d = log_distance(ppr(path5, 0.5).matrix)
        rep = check_cutpoint_additive(d, path5)
        assert rep.holds and not rep.indeterminate

    def test_exact_additivity_is_a_robust_metric_pass(self, path4):
        # cutpoint additive distances meet the triangle bound with exact
        # equality; that must not raise the indeterminate flag
        d = log_distance(regularized_laplacian(path4, 1.0).matrix)
        rep = check_metric(d)
        assert rep.holds and not rep.indeterminate

    def test_triangle_graph_no_additive_triples(self, triangle):
        d = log_distance(modified_ppr(triangle, 0.5).matrix)
        rep = check_cutpoint_additive(d, triangle)
        assert rep.holds
        for i, j, m in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            assert abs(d[i, j] + d[j, m] - d[i, m]) > 1e-9

    def test_perturbed_distance_fails(self, path4):
        d = log_distance(regularized_laplacian(path4, 1.0).matrix).copy()
        d[0, 2] += 1e-3
        d[2, 0] += 1e-3
        rep = check_cutpoint_additive(d, path4)
        assert not rep.holds and rep.witness is not None


class TestCheckDistanceOrder:
    def test_communicability_t3_reverses_order(self, path4):
        d = kernel_to_sq_dist(communicability(path4, 3.0).matrix)
        rep = check_distance_order(d)
        assert not rep.holds
        assert rep.note == "d(1,3) >= d(1,4)"

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_heat_keeps_natural_order(self, path4, t):
        d = kernel_to_sq_dist(heat(path4, t).matrix)
        assert check_distance_order(d).holds

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            check_distance_order(np.zeros((3, 3)))


class TestCheckSqrtDistance:
    def test_double_factorial_fails_on_negative_entry(self, path4):
        d = kernel_to_sq_dist(double_factorial(path4, 1.0).matrix)
        rep = check_sqrt_distance(d)
        assert not rep.holds
        assert "negative entry" in rep.note

    def test_regularized_laplacian_holds(self, path4):
        d = kernel_to_sq_dist(regularized_laplacian(path4, 1.0).matrix)
        assert check_sqrt_distance(d).holds

    def test_zero_matrix_holds(self):
        assert check_sqrt_distance(np.zeros((3, 3))).holds


class TestConsistencyAcrossChecks:
    def test_schoenberg_both_directions_on_examples(self, path4):
        for measure, param in [("comm", 1.0), ("dfact", 1.0), ("regL", 1.0), ("katz", 0.3)]:
            k = compute_kernel(path4, measure, param).matrix
            psd = check_psd(k, tol=1e-8).holds
            euc = check_sq_euclidean(kernel_to_sq_dist(k), tol=1e-8).holds
            assert psd == euc, measure

    def test_log_similarity_of_forest_kernel_not_a_kernel(self, path4):
        # proximity yes, PSD no
        log_k = np.log(regularized_laplacian(path4, 1.0).matrix)
        assert check_proximity(log_k).holds
        assert not check_psd(log_k).holds


class TestNonFiniteInputRejected:
    """NaN would be skipped by every scan, since no comparison with it
    holds; such input is refused instead of given a verdict."""

    @staticmethod
    def with_entry(a, i, j, value):
        a = np.array(a, dtype=float)
        a[i, j] = a[j, i] = value
        return a

    def test_proximity(self):
        with pytest.raises(ValueError, match="finite"):
            check_proximity(self.with_entry(np.eye(3) + 1.0, 0, 2, np.nan))

    def test_egocentrism(self):
        k = np.eye(3) + 1.0
        k[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_egocentrism(k)

    def test_metric(self):
        d = self.with_entry(np.ones((3, 3)) - np.eye(3), 0, 2, np.nan)
        with pytest.raises(ValueError, match=r"finite entries; entry \(1,3\) = nan"):
            check_metric(d)

    def test_sqrt_distance(self):
        d = self.with_entry(np.ones((3, 3)) - np.eye(3), 1, 2, np.inf)
        with pytest.raises(ValueError, match="finite"):
            check_sqrt_distance(d)

    def test_transitional(self, path4):
        k = self.with_entry(regularized_laplacian(path4, 1.0).matrix, 0, 3, np.nan)
        with pytest.raises(ValueError, match="finite"):
            check_transitional(k, path4)

    def test_cutpoint_additive(self, path4):
        d = log_distance(regularized_laplacian(path4, 1.0).matrix)
        with pytest.raises(ValueError, match="finite"):
            check_cutpoint_additive(self.with_entry(d, 1, 3, np.inf), path4)


# every public check that takes a tolerance, with arguments before it
TOL_CHECKS = sorted(
    name for name in properties.__all__
    if name.startswith("check_")
    and "tol" in inspect.signature(getattr(properties, name)).parameters
)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", TOL_CHECKS)
def test_every_check_rejects_a_bad_tolerance(path4, name, tol):
    # unchecked, tol = nan passed check_proximity and check_transitional on
    # heat:1, and tol = -1 passed check_egocentrism on comm:1
    k = heat(path4, 1.0).matrix
    d = pair_to_dist(k)
    args = {
        "check_metric": (d,),
        "check_sq_euclidean": (d,),
        "check_sqrt_distance": (d,),
        "check_transitional": (k, path4),
        "check_cutpoint_additive": (log_distance(k), path4),
    }.get(name, (k,))
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        getattr(properties, name)(*args, tol)


def test_tolerance_checks_cover_every_check_but_distance_order():
    assert len(TOL_CHECKS) == 9 and "check_distance_order" not in TOL_CHECKS
