import math

import numpy as np
import numpy.testing as npt
import pytest

from graphprox import (
    MEASURES,
    KernelResult,
    SYMMETRIC_MEASURES,
    ParameterDomainError,
    WeightedGraph,
    absorption,
    check_psd,
    compute_kernel,
    double_factorial,
    heat,
    katz,
    modified_ppr,
    normalized_heat,
    pagerank_heat,
    param_domain,
    ppr,
    regularized_laplacian,
    spectral_radius,
    sym_eigen,
)

from oracles import double_factorial_direct, resolvent_oracle

RESOLVENTS = ("katz", "regL", "absorp", "ppr", "modifppr")

# Measures whose series starts at the identity; modifppr tends to D^-1
# instead and absorp has no finite small-parameter limit (L is singular).
LIMIT_TO_IDENTITY = ("katz", "comm", "dfact", "heat", "nheat", "regL", "ppr", "heatppr")


class TestParameterDomains:
    def test_katz_domain_is_inverse_spectral_radius(self, path4):
        lo, hi = param_domain("katz", path4)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 / spectral_radius(path4.weights))

    def test_spectral_radius_computed_once_per_graph(self, monkeypatch):
        from graphprox import builtin_graph, graphs

        calls = []
        real = graphs.spectral_radius
        monkeypatch.setattr(graphs, "spectral_radius", lambda m: calls.append(1) or real(m))
        # a fresh graph: the shared fixture may have computed rho already
        g = builtin_graph("paper:path4")
        for alpha in (0.1, 0.2, 0.3):
            katz(g, alpha)
        assert param_domain("katz", g)[1] == 1.0 / g.rho
        assert len(calls) == 1
        assert g.rho == spectral_radius(g.weights)

    @pytest.mark.parametrize("measure", ["ppr", "modifppr"])
    def test_unit_interval_measures(self, path4, measure):
        assert param_domain(measure, path4) == (0.0, 1.0)

    def test_katz_rejects_alpha_at_radius(self, path4):
        with pytest.raises(ParameterDomainError, match="rho"):
            katz(path4, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0, 1.5, 1.0 - 1e-13])
    def test_ppr_rejects_outside_unit_interval(self, path4, bad):
        with pytest.raises(ParameterDomainError):
            ppr(path4, bad)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_zero_parameter_rejected_everywhere(self, path4, measure):
        with pytest.raises(ParameterDomainError):
            compute_kernel(path4, measure, 0.0)

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameter_rejected_everywhere(self, path4, measure, bad):
        with pytest.raises(ParameterDomainError, match="outside open domain"):
            compute_kernel(path4, measure, bad)

    def test_boundary_margin(self, path4):
        with pytest.raises(ParameterDomainError):
            heat(path4, 1e-13)

    def test_unknown_measure(self, path4):
        with pytest.raises(ValueError, match="unknown measure"):
            compute_kernel(path4, "ppx", 0.5)


class TestSmallParameterLimit:
    @pytest.mark.parametrize("measure", LIMIT_TO_IDENTITY)
    def test_limit_is_identity(self, path4, measure):
        k = compute_kernel(path4, measure, 1e-6).matrix
        assert np.abs(k - np.eye(4)).max() <= 1e-4

    def test_modifppr_limit_is_inverse_degree(self, path4):
        k = modified_ppr(path4, 1e-6).matrix
        d_inv = np.diag(1.0 / np.diag(path4.degree))
        assert np.abs(k - d_inv).max() <= 1e-4


class TestResolventOracles:
    @pytest.mark.parametrize("measure", RESOLVENTS)
    def test_matches_neumann_series(self, path4, measure):
        param = 0.5 * param_domain(measure, path4)[1]
        if not np.isfinite(param):
            param = 0.8
        k = compute_kernel(path4, measure, param).matrix
        npt.assert_allclose(k, resolvent_oracle(measure, path4, param), atol=1e-10)

    def test_katz_spec_value(self, path4):
        npt.assert_allclose(
            katz(path4, 0.2).matrix,
            resolvent_oracle("katz", path4, 0.2),
            atol=1e-10,
        )


class TestKatz:
    def test_symmetric_and_positive(self, path4):
        k = katz(path4, 0.3).matrix
        npt.assert_array_equal(k, k.T)
        assert k.min() > 0


class TestCommunicability:
    def test_psd_for_all_t(self, path4):
        for t in (0.1, 1.0, 3.0, 4.5):
            vals, _ = sym_eigen(compute_kernel(path4, "comm", t).matrix)
            assert vals[0] > 0


class TestDoubleFactorial:
    def test_matches_direct_oracle(self, path4, triangle):
        for g, t in ((path4, 0.7), (path4, 1.0), (triangle, 1.3)):
            npt.assert_allclose(
                double_factorial(g, t).matrix,
                double_factorial_direct(g.weights, t),
                atol=1e-12,
            )

    def test_two_negative_eigenvalues_on_path4(self, path4):
        vals, _ = sym_eigen(double_factorial(path4, 1.0).matrix)
        assert (vals < -1e-9).sum() == 2

    def test_large_parameter_still_converges(self, path4):
        k = double_factorial(path4, 5.0).matrix
        assert np.isfinite(k).all()

    def test_exactly_symmetric_on_large_entries(self):
        # On the unit complete graph K12, t = 0.5 gives entries near 7e5,
        # where unsymmetrized matrix products drift apart by 1e-10.
        n = 12
        g = WeightedGraph(np.ones((n, n)) - np.eye(n), name="K12")
        k = double_factorial(g, 0.5).matrix
        assert k.max() > 1e5
        npt.assert_array_equal(k, k.T)
        assert check_psd(k).note == "smallest eigenvalue"

    def test_overflow_stops_at_first_non_finite_term(self, path4):
        with pytest.raises(OverflowError, match="term"):
            double_factorial(path4, 50.0)


class TestHeatFamily:
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_heat_row_sums_one(self, path4, t):
        npt.assert_allclose(heat(path4, t).matrix.sum(axis=1), 1.0, atol=1e-10)

    def test_heat_psd(self, path4):
        vals, _ = sym_eigen(heat(path4, 2.0).matrix)
        assert vals[0] > 0

    def test_normalized_heat_rows_not_constant(self, path4):
        rows = normalized_heat(path4, 0.5).matrix.sum(axis=1)
        assert rows.max() - rows.min() > 1e-3

    def test_regularized_laplacian_stochastic_positive_psd(self, corpus):
        for g in corpus:
            k = regularized_laplacian(g, 1.0).matrix
            npt.assert_allclose(k.sum(axis=1), 1.0, atol=1e-10)
            assert k.min() > 0
            assert sym_eigen(k).eigenvalues[0] > 0


class TestAbsorption:
    def test_two_by_two_hand_inverse(self):
        from graphprox import load_graph

        g = load_graph("1 2 1")
        k = absorption(g, np.ones(2), 1.0).matrix
        npt.assert_allclose(k, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-12)

    def test_unit_rates_reproduce_regularized_laplacian(self, path4):
        # absorp(1/t) with unit rates equals t * regL(t)
        t = 0.7
        k_abs = absorption(path4, np.ones(4), 1.0 / t).matrix
        k_reg = regularized_laplacian(path4, t).matrix
        npt.assert_allclose(k_abs, t * k_reg, atol=1e-12)

    def test_rates_default_to_ones(self, path4):
        npt.assert_array_equal(
            compute_kernel(path4, "absorp", 0.7).matrix,
            absorption(path4, np.ones(4), 0.7).matrix,
        )

    def test_bad_rates_rejected(self, path4):
        with pytest.raises(ValueError, match="positive"):
            absorption(path4, np.array([1.0, 1.0, 0.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="rates"):
            absorption(path4, np.ones(3), 0.5)


class TestPPRFamily:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_row_sums(self, path4, alpha):
        k = ppr(path4, alpha).matrix
        npt.assert_allclose(k.sum(axis=1), 1.0 / (1.0 - alpha), atol=1e-10)

    def test_asymmetric(self, path4):
        k = ppr(path4, 0.5).matrix
        assert np.abs(k - k.T).max() > 1e-3

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_degree_identity(self, corpus, alpha):
        # K_ij / d_j == K_ji / d_i
        for g in corpus:
            k = ppr(g, alpha).matrix
            d = np.diag(g.degree)
            scaled = k / d[None, :]
            assert np.abs(scaled - scaled.T).max() <= 1e-10

    def test_all_eigenvalues_positive(self, path5):
        vals = np.linalg.eigvals(ppr(path5, 0.9).matrix)
        assert np.abs(vals.imag).max() < 1e-10
        assert vals.real.min() > 0

    def test_modifppr_two_by_two_hand_inverse(self):
        from graphprox import load_graph

        g = load_graph("1 2 1")
        k = modified_ppr(g, 0.5).matrix
        npt.assert_allclose(k, (4.0 / 3.0) * np.array([[1, 0.5], [0.5, 1]]), atol=1e-12)

    def test_modifppr_is_ppr_times_inverse_degree(self, corpus):
        for g in corpus:
            d_inv = np.diag(1.0 / np.diag(g.degree))
            npt.assert_allclose(
                modified_ppr(g, 0.5).matrix,
                ppr(g, 0.5).matrix @ d_inv,
                atol=1e-12,
            )

    def test_modifppr_inverse_relation(self, path4):
        # K (D - alpha W) = I
        alpha = 0.7
        k = modified_ppr(path4, alpha).matrix
        residual = k @ (path4.degree - alpha * path4.weights) - np.eye(4)
        assert np.abs(residual).max() <= 1e-8

    @pytest.mark.parametrize("t", [0.5, 1.5, 5.0])
    def test_pagerank_heat_row_sums_one(self, path5, t):
        k = pagerank_heat(path5, t).matrix
        npt.assert_allclose(k.sum(axis=1), 1.0, atol=1e-10)


class TestKernelResultMetadata:
    def test_symmetry_flags(self, path4):
        for measure in MEASURES:
            res = compute_kernel(path4, measure, 0.3)
            assert res.symmetric == (measure in SYMMETRIC_MEASURES)
            assert res.measure == measure
            lo, hi = res.param_domain
            assert lo < res.param < hi

    @pytest.mark.parametrize("measure", ["ppr", "heatppr"])
    def test_matrix_not_measure_decides_symmetry(
        self, measure, triangle, cycle4, path4, path5
    ):
        # P = W / deg is symmetric exactly where the graph is regular
        assert measure not in SYMMETRIC_MEASURES
        assert compute_kernel(triangle, measure, 0.5).symmetric is True
        assert compute_kernel(cycle4, measure, 0.5).symmetric is True
        assert compute_kernel(path4, measure, 0.5).symmetric is False
        assert compute_kernel(path5, measure, 0.5).symmetric is False

    @pytest.mark.parametrize("measure", sorted(SYMMETRIC_MEASURES))
    def test_symmetric_measures_give_symmetric_matrices(self, measure, corpus, cycle4):
        for g in corpus + [cycle4]:
            # katz's domain ends at 1/rho(W), below 0.3 on heavier graphs
            param = min(0.3, param_domain(measure, g)[1] / 2)
            assert compute_kernel(g, measure, param).symmetric is True

    def test_symmetry_is_no_constructor_argument(self):
        args = ("ppr", 0.5, np.array([[1.0, 2.0], [3.0, 4.0]]), (0.0, 1.0))
        with pytest.raises(TypeError, match="symmetric"):
            KernelResult(*args, symmetric=True)
        with pytest.raises(TypeError):
            KernelResult(*args, True)
        assert KernelResult(*args).symmetric is False

    def test_results_compare_by_identity(self, path4):
        a, b = compute_kernel(path4, "regL", 1.0), compute_kernel(path4, "regL", 1.0)
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_matrix_is_immutable(self, path4):
        res = compute_kernel(path4, "regL", 1.0)
        with pytest.raises(ValueError):
            res.matrix[0, 0] = 99.0
