import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphprox import (
    NonConvergenceError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    gram_factor,
    invert,
    is_symmetric,
    matrix_exp,
    spectral_radius,
    sym_eigen,
)

from oracles import neumann_series, reference_invert, taylor_exp

RHO_PATH4 = (1 + math.sqrt(17)) / 2  # spectral radius of the path4 weights


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


class TestInvert:
    def test_identity(self):
        npt.assert_allclose(invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        npt.assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_resolvent_matches_neumann_oracle(self, path4_gm):
        # 0.2 < 1/rho(W), so the geometric series converges
        m = np.eye(4) - 0.2 * path4_gm.weights
        npt.assert_allclose(invert(m), neumann_series(0.2 * path4_gm.weights), atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
            r = invert(a)
            assert np.abs(a @ r - np.eye(6)).max() <= 1e-8

    def test_double_inverse_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
            npt.assert_allclose(invert(invert(a)), a, atol=1e-7)

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 7)) + 7 * np.eye(7)
        npt.assert_allclose(invert(a), np.linalg.inv(a), atol=1e-10)

    def test_symmetric_input_gives_exactly_symmetric_output(self, path4_gm):
        r = invert(np.eye(4) + 1.0 * path4_gm.laplacian)
        npt.assert_array_equal(r, r.T)

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as err:
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert err.value.pivot_index == 1

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError):
            invert(np.zeros((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            invert(np.ones((2, 3)))


def drawn_matrix(n, seed, kind, scale):
    """An n x n matrix of the given kind with entries of order 10^scale:
    general (row swaps needed), symmetric, an M-matrix resolvent like the
    kernels invert, or singular (a row repeated up to a tiny multiple)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if kind == "symmetric":
        a = a + a.T
    elif kind == "m_matrix":
        w = np.abs(a + a.T)
        np.fill_diagonal(w, 0.0)
        a = np.diag(w.sum(axis=1) + rng.uniform(0.01, 1.0, n)) - w
    elif kind == "singular" and n > 1:
        a[rng.integers(1, n)] = a[0] * rng.choice([1.0, -2.0, 1e-13])
    return a * 10.0**scale


class TestInvertMatchesFormerLoop:
    @given(
        n=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["general", "symmetric", "m_matrix", "singular"]),
        scale=st.integers(-3, 3),
    )
    def test_same_bytes_or_same_error(self, n, seed, kind, scale):
        m = drawn_matrix(n, seed, kind, scale)
        try:
            want = reference_invert(m)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as got:
                invert(m)
            assert str(got.value) == str(exc)
            assert (got.value.pivot_index, got.value.pivot) == (exc.pivot_index, exc.pivot)
            return
        got = invert(m)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSymEigen:
    def test_diagonal_sorted_ascending(self):
        vals, vecs = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        npt.assert_allclose(vals, [1, 2, 3])
        npt.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_exchange_matrix(self):
        vals, _ = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_allclose(vals, [-1, 1], atol=1e-14)

    def test_path4_spectrum_from_characteristic_polynomial(self, path4_gm):
        # Quartic lam^4 - 9 lam^2 + 16 factors through lam^2 - lam - 4 = 0
        expected = [
            -(1 + math.sqrt(17)) / 2,
            -(math.sqrt(17) - 1) / 2,
            (math.sqrt(17) - 1) / 2,
            (1 + math.sqrt(17)) / 2,
        ]
        vals, _ = sym_eigen(path4_gm.weights)
        npt.assert_allclose(vals, expected, atol=1e-10)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(23)
        for n in (2, 5, 9):
            a = random_symmetric(rng, n, scale=3.0)
            vals, vecs = sym_eigen(a)
            scale = max(1.0, np.abs(a).max())
            assert np.abs((vecs * vals) @ vecs.T - a).max() <= 1e-8 * scale
            npt.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-8)
            assert (np.diff(vals) >= 0).all()

    def test_matches_numpy(self):
        rng = np.random.default_rng(29)
        a = random_symmetric(rng, 8)
        npt.assert_allclose(sym_eigen(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-10)

    def test_zero_matrix(self):
        vals, vecs = sym_eigen(np.zeros((3, 3)))
        npt.assert_array_equal(vals, np.zeros(3))
        npt.assert_allclose(vecs @ vecs.T, np.eye(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_lapack_failure_is_non_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NonConvergenceError, match="eigensolver failed"):
            sym_eigen(np.eye(3))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_path4_weights(self, path4_gm):
        assert spectral_radius(path4_gm.weights) == pytest.approx(RHO_PATH4, abs=1e-9)

    def test_rejects_asymmetric(self, path4_gm):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_radius(path4_gm.markov)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0


class TestMatrixExp:
    def test_zero_matrix(self):
        npt.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        npt.assert_allclose(
            matrix_exp(np.diag([1.0, -2.0])), np.diag([math.e, math.exp(-2)]), rtol=1e-14
        )

    def test_path4_matches_taylor_oracle(self, path4_gm):
        npt.assert_allclose(
            matrix_exp(path4_gm.weights), taylor_exp(path4_gm.weights), atol=1e-10
        )

    def test_large_norm_against_taylor(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(5, 5))
            a *= 10.0 / np.abs(a).sum(axis=1).max()  # infinity norm 10
            npt.assert_allclose(matrix_exp(a), taylor_exp(a), atol=1e-10)

    def test_eigenvalue_mapping(self, path4_gm):
        vals_in, _ = sym_eigen(-0.5 * path4_gm.laplacian)
        vals_out, _ = sym_eigen(matrix_exp(-0.5 * path4_gm.laplacian))
        npt.assert_allclose(vals_out, np.sort(np.exp(vals_in)), atol=1e-8)

    def test_symmetric_input_gives_exactly_symmetric_output(self, path4_gm):
        e = matrix_exp(1.5 * path4_gm.weights)
        npt.assert_array_equal(e, e.T)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            matrix_exp(2000.0 * np.ones((3, 3)))


class TestGramFactor:
    def test_identity(self):
        npt.assert_allclose(gram_factor(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        npt.assert_allclose(gram_factor(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(41)
        for n in (2, 4, 6):
            b = rng.normal(size=(n, n))
            k = b @ b.T
            root = gram_factor(k)
            assert np.abs(root @ root - k).max() <= 1e-7
            assert is_symmetric(root)

    def test_eigenvalues_are_square_roots(self):
        rng = np.random.default_rng(43)
        b = rng.normal(size=(5, 5))
        k = b @ b.T
        vals_k, _ = sym_eigen(k)
        vals_b, _ = sym_eigen(gram_factor(k))
        npt.assert_allclose(vals_b, np.sqrt(np.clip(vals_k, 0, None)), atol=1e-8)

    def test_small_negative_eigenvalue_clamped(self):
        k = np.diag([1.0, -1e-10])
        root = gram_factor(k)
        npt.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-9)

    def test_indefinite_raises_with_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError) as err:
            gram_factor(np.diag([1.0, -0.5]))
        assert err.value.min_eigenvalue == pytest.approx(-0.5)
