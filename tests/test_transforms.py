import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphprox import (
    NotPositiveSemidefiniteError,
    communicability,
    compute_kernel,
    dist_to_sigma_prox,
    double_factorial,
    embed,
    kernel_to_sq_dist,
    log_distance,
    pagerank_heat,
    param_domain,
    pair_to_dist,
    ppr,
    regularized_laplacian,
    symmetrize_geometric,
)

from graphprox.kernels import SYMMETRIC_MEASURES

from oracles import pairwise_sq_dists, random_connected_graph


class TestKernelToSqDist:
    def test_identity_kernel(self):
        d = kernel_to_sq_dist(np.eye(3))
        npt.assert_array_equal(d, np.ones((3, 3)) - np.eye(3))

    def test_constant_kernel_collapses(self):
        d = kernel_to_sq_dist(3.5 * np.ones((4, 4)))
        npt.assert_allclose(d, 0, atol=1e-14)

    def test_diagonal_exactly_zero(self, path4):
        d = kernel_to_sq_dist(communicability(path4, 1.0).matrix)
        npt.assert_array_equal(np.diag(d), np.zeros(4))

    def test_double_factorial_produces_negative_entry(self, path4):
        d = kernel_to_sq_dist(double_factorial(path4, 1.0).matrix)
        assert d.min() < 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            kernel_to_sq_dist(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPairToDist:
    def test_coincides_with_kernel_transform_on_symmetric(self, path4):
        k = regularized_laplacian(path4, 1.0).matrix
        npt.assert_allclose(pair_to_dist(k), kernel_to_sq_dist(k), atol=1e-12)

    def test_symmetric_zero_diagonal_output(self, path5):
        d = pair_to_dist(ppr(path5, 0.7).matrix)
        npt.assert_array_equal(d, d.T)
        npt.assert_array_equal(np.diag(d), np.zeros(5))

    def test_ppr_triangle_violation_on_path5(self, path5):
        # d(1,3) + d(3,4) < d(1,4) once alpha is large enough
        d = pair_to_dist(ppr(path5, 0.96).matrix)
        assert d[0, 2] + d[2, 3] < d[0, 3]

    def test_pagerank_heat_triangle_violation_on_path5(self, path5):
        # d(1,2) + d(2,3) < d(1,3) for t beyond the onset
        d = pair_to_dist(pagerank_heat(path5, 1.5).matrix)
        assert d[0, 1] + d[1, 2] < d[0, 2]


class TestDistToSigmaProx:
    def test_zero_distances_give_constant_kernel(self):
        k = dist_to_sigma_prox(np.zeros((2, 2)), sigma=1.0)
        npt.assert_allclose(k, 0.5 * np.ones((2, 2)), atol=1e-14)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
    def test_row_sums_equal_sigma(self, sigma):
        rng = np.random.default_rng(2)
        d = rng.uniform(0, 3, size=(6, 6))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        k = dist_to_sigma_prox(d, sigma)
        npt.assert_allclose(k.sum(axis=1), sigma, atol=1e-9)

    def test_round_trip_from_psd_kernels(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            b = rng.normal(size=(5, 5))
            d = kernel_to_sq_dist(b @ b.T)
            npt.assert_allclose(
                kernel_to_sq_dist(dist_to_sigma_prox(d, 1.7)), d, atol=1e-9
            )

    def test_round_trip_from_sigma_proximity(self):
        rng = np.random.default_rng(19)
        d0 = rng.uniform(0, 2, size=(6, 6))
        d0 = 0.5 * (d0 + d0.T)
        np.fill_diagonal(d0, 0.0)
        kappa = dist_to_sigma_prox(d0, 3.0)  # symmetric with row sums 3
        npt.assert_allclose(
            dist_to_sigma_prox(kernel_to_sq_dist(kappa), 3.0), kappa, atol=1e-9
        )

    def test_regularized_laplacian_is_fixed_point(self, path4):
        # a 1-proximity comes back unchanged
        k = regularized_laplacian(path4, 1.0).matrix
        npt.assert_allclose(dist_to_sigma_prox(kernel_to_sq_dist(k), 1.0), k, atol=1e-9)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            dist_to_sigma_prox(np.eye(3), 1.0)


class TestLogDistance:
    def test_constant_similarity_gives_zero(self):
        npt.assert_array_equal(log_distance(np.ones((3, 3))), np.zeros((3, 3)))

    def test_cutpoint_additivity_on_path(self, path4):
        d = log_distance(regularized_laplacian(path4, 1.0).matrix)
        assert d[0, 1] + d[1, 2] == pytest.approx(d[0, 2], abs=1e-9)
        assert d[0, 1] + d[1, 2] + d[2, 3] == pytest.approx(d[0, 3], abs=1e-9)

    def test_geometric_symmetrization_preserves_log_distance(self, path5):
        k = ppr(path5, 0.5).matrix
        npt.assert_allclose(
            log_distance(k), log_distance(symmetrize_geometric(k)), atol=1e-12
        )

    def test_scaling_invariance(self, path4):
        k = regularized_laplacian(path4, 2.0).matrix
        npt.assert_allclose(log_distance(17.0 * k), log_distance(k), atol=1e-12)

    def test_products_out_of_range_take_logs_first(self):
        # s_11 s_22 overflows and s_23 s_32 underflows; s_13 and s_31 are
        # in range, so d_13 keeps the linear form bit for bit
        s = np.array([[1e200, 1.0, 2.0], [1.0, 1e200, 1e-170], [3.0, 1e-170, 5.0]])
        ln = np.log(s)
        by_logs = 0.5 * ((np.diag(ln)[:, None] + np.diag(ln)[None, :]) - (ln + ln.T))
        np.fill_diagonal(by_logs, 0.0)
        d = log_distance(s)
        assert np.isfinite(d).all()
        npt.assert_allclose(d, by_logs, rtol=1e-14)
        assert d[0, 2] == d[2, 0] == 0.5 * np.log(1e200 * 5.0 / (2.0 * 3.0))

    def test_rejects_nonpositive_entries_with_location(self):
        s = np.ones((3, 3))
        s[1, 2] = s[2, 1] = 0.0
        with pytest.raises(ValueError, match=r"\(2,3\)|\(3,2\)"):
            log_distance(s)


class TestSymmetrizeGeometric:
    def test_symmetric_input_unchanged(self, path4):
        k = regularized_laplacian(path4, 1.0).matrix
        npt.assert_allclose(symmetrize_geometric(k), k, atol=1e-14)

    def test_hand_value(self):
        npt.assert_allclose(
            symmetrize_geometric(np.array([[1.0, 4.0], [1.0, 1.0]])),
            np.array([[1.0, 2.0], [2.0, 1.0]]),
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            symmetrize_geometric(np.array([[1.0, -1.0], [1.0, 1.0]]))


class TestEmbed:
    def test_identity_two_points(self):
        x = embed(np.eye(2))
        d = pairwise_sq_dists(x)
        npt.assert_allclose(d, [[0, 1], [1, 0]], atol=1e-12)

    def test_reproduces_squared_distances(self, path4):
        for measure, param in [("heat", 1.0), ("regL", 1.0), ("comm", 1.0)]:
            k = compute_kernel(path4, measure, param).matrix
            x = embed(k)
            npt.assert_allclose(pairwise_sq_dists(x), kernel_to_sq_dist(k), atol=1e-7)

    def test_random_psd_kernels(self):
        rng = np.random.default_rng(23)
        for n in (3, 6):
            b = rng.normal(size=(n, n))
            k = b @ b.T
            npt.assert_allclose(
                pairwise_sq_dists(embed(k)), kernel_to_sq_dist(k), atol=1e-7
            )

    def test_indefinite_kernel_rejected(self, path4):
        with pytest.raises(NotPositiveSemidefiniteError):
            embed(double_factorial(path4, 1.0).matrix)


@pytest.mark.parametrize("measure", sorted(SYMMETRIC_MEASURES))
@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), u=st.floats(0.05, 0.95))
def test_embed_is_exactly_symmetric(seed, n, measure, u):
    # export_embedding formats each coordinate once and mirrors it, which
    # is right only because of this: equal bits on both sides
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    lo, hi = param_domain(measure, g)
    param = lo + u * (hi - lo) if np.isfinite(hi) else 1.5 * u
    try:
        c = embed(compute_kernel(g, measure, param).matrix)
    except NotPositiveSemidefiniteError:
        assume(False)
    assert np.array_equal(c, c.T)
    assert np.array_equal(c.view(np.uint64), c.T.view(np.uint64))
