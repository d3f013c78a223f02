import numpy as np
import pytest

from graphprox import (
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
)


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
