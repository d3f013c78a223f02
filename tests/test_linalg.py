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
    param_domain,
    spectral_radius,
    sym_eigen,
)
from graphprox.linalg import sym_eigenvalues

from oracles import (
    EPS,
    exact_invert,
    neumann_series,
    random_connected_graph,
    reference_invert,
    taylor_exp,
)

RHO_PATH4 = (1 + math.sqrt(17)) / 2  # spectral radius of the path4 weights


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


class TestInvert:
    def test_identity(self):
        npt.assert_allclose(invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        npt.assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_resolvent_matches_neumann_oracle(self, path4):
        # 0.2 < 1/rho(W), so the geometric series converges
        m = np.eye(4) - 0.2 * path4.weights
        npt.assert_allclose(invert(m), neumann_series(0.2 * path4.weights), atol=1e-12)

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

    def test_symmetric_input_gives_exactly_symmetric_output(self, path4):
        r = invert(np.eye(4) + 1.0 * path4.laplacian)
        npt.assert_array_equal(r, r.T)

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            invert(np.zeros((3, 3)))

    def test_exactly_singular_has_infinite_condition(self):
        with pytest.raises(SingularMatrixError, match="condition number inf"):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_condition_test_scales_with_order(self):
        # 1-norm condition 4 / delta: n eps cond is 4/3 at delta = 6 eps,
        # rejected, and 1/2 at delta = 16 eps
        with pytest.raises(SingularMatrixError, match="condition number"):
            invert(np.array([[1.0, 1.0], [1.0, 1.0 + 6 * EPS]]))
        invert(np.array([[1.0, 1.0], [1.0, 1.0 + 16 * EPS]]))

    def test_condition_number_at_one_over_eps_is_singular(self):
        # det = eps: no zero pivot, but ||A|| ||A^-1|| is about 4 / eps
        with pytest.raises(SingularMatrixError, match="condition number") as err:
            invert(np.array([[1.0, 1.0], [1.0, 1.0 + EPS]]))
        assert 1.0 / EPS <= err.value.condition < math.inf

    @pytest.mark.parametrize("scale", [1e-200, 1e-12, 1.0, 1e12, 1e200])
    def test_scaled_well_conditioned_matrix_inverts(self, scale):
        # the singularity test is relative: a tiny pivot alone is no reason
        a = scale * (np.eye(3) + 0.25 * np.ones((3, 3)))
        npt.assert_allclose(invert(a) * scale, np.linalg.inv(a / scale), rtol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            invert(np.ones((2, 3)))


def resolvent_matrix(g, measure: str, frac: float) -> np.ndarray:
    """The matrix the kernel of measure inverts on g, at fraction frac of
    the measure's open domain (of (0, 4) where it is unbounded)."""
    lo, hi = param_domain(measure, g)
    return resolvent_at(g, measure, lo + frac * (hi - lo) if np.isfinite(hi) else 4.0 * frac)


def resolvent_at(g, measure: str, p: float) -> np.ndarray:
    """The matrix the kernel of measure inverts on g at parameter p."""
    eye = np.eye(g.n)
    return {
        "katz": lambda: eye - p * g.weights,
        "regL": lambda: eye + p * g.laplacian,
        "absorp": lambda: p * eye + g.laplacian,
        "ppr": lambda: eye - p * g.markov,
        "modifppr": lambda: g.degree - p * g.weights,
    }[measure]()


RESOLVENTS = ["katz", "regL", "absorp", "ppr", "modifppr"]


@given(
    n=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    measure=st.sampled_from(RESOLVENTS),
    frac=st.floats(0.02, 0.98),
)
def test_invert_matches_elimination_oracle(n, seed, measure, frac):
    # both are backward stable; on these M-matrix resolvents each entry of
    # either inverse lies within n eps cond of the other, relatively
    g = random_connected_graph(np.random.default_rng(seed), n, name="g")
    m = resolvent_matrix(g, measure, frac)
    want = reference_invert(m)
    got = invert(m)
    cond = np.abs(m).sum(axis=0).max() * np.abs(want).sum(axis=0).max()
    assert (np.abs(got - want) <= n * EPS * cond * np.abs(want)).all()
    if is_symmetric(m):
        npt.assert_array_equal(got, got.T)


def near_edge_resolvents():
    """Each resolvent at 1.1e-12 (just past the domain's margin) and
    1e-10 of each finite end of its domain, and regL at large t, on
    small random graphs."""
    rng = np.random.default_rng(2024)
    for i in range(6):
        g = random_connected_graph(rng, int(rng.integers(3, 8)), name=f"g{i}")
        for measure in RESOLVENTS:
            lo, hi = param_domain(measure, g)
            params = [lo + 1.1e-12, lo + 1e-10]
            params += [hi - 1.1e-12, hi - 1e-10] if np.isfinite(hi) else [1e10, 1e14, 1e16]
            for p in params:
                yield g, measure, p


def test_invert_near_domain_edges_keeps_its_error_bound():
    # each entry of invert's result lies within n eps cond max|K| of the
    # exact inverse, or invert refuses; the elimination keeps the same
    # bound, which is the matrix's and not the LU solve's
    rejected = []
    for g, measure, p in near_edge_resolvents():
        m = resolvent_at(g, measure, p)
        exact = exact_invert(m)
        if is_symmetric(m):  # to linalg's tolerance: invert symmetrizes
            exact = 0.5 * (exact + exact.T)
        try:
            got = invert(m)
        except SingularMatrixError:
            rejected.append((measure, p))
            continue
        n, scale = g.n, np.abs(exact).max()
        cond = np.abs(m).sum(axis=0).max() * np.abs(exact).sum(axis=0).max()
        assert n * EPS * cond < 1.0, (measure, p)
        err = np.abs(got - exact).max()
        assert err <= n * EPS * cond * scale, (measure, p, err / scale, cond)
        assert np.abs(reference_invert(m) - exact).max() <= n * EPS * cond * scale
    # only regL at t = 1e14 or 1e16, where n eps cond nears or passes 1
    assert {m for m, _ in rejected} <= {"regL"}
    assert all(p >= 1e14 for _, p in rejected)


class TestSymEigen:
    def test_diagonal_sorted_ascending(self):
        vals, vecs = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        npt.assert_allclose(vals, [1, 2, 3])
        npt.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_exchange_matrix(self):
        vals, _ = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_allclose(vals, [-1, 1], atol=1e-14)

    def test_path4_spectrum_from_characteristic_polynomial(self, path4):
        # Quartic lam^4 - 9 lam^2 + 16 factors through lam^2 - lam - 4 = 0
        expected = [
            -(1 + math.sqrt(17)) / 2,
            -(math.sqrt(17) - 1) / 2,
            (math.sqrt(17) - 1) / 2,
            (1 + math.sqrt(17)) / 2,
        ]
        vals, _ = sym_eigen(path4.weights)
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


class TestSymEigenvalues:
    def test_equal_eigh_eigenvalues(self):
        rng = np.random.default_rng(31)
        for n in (1, 4, 9):
            a = random_symmetric(rng, n, scale=2.0)
            npt.assert_allclose(sym_eigenvalues(a), sym_eigen(a).eigenvalues, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="sym_eigenvalues requires a symmetric"):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_lapack_failure_is_non_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NonConvergenceError, match="eigensolver failed"):
            sym_eigenvalues(np.eye(3))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_path4_weights(self, path4):
        assert spectral_radius(path4.weights) == pytest.approx(RHO_PATH4, abs=1e-9)

    def test_rejects_asymmetric(self, path4):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_radius(path4.markov)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0


class TestMatrixExp:
    def test_zero_matrix(self):
        npt.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        npt.assert_allclose(
            matrix_exp(np.diag([1.0, -2.0])), np.diag([math.e, math.exp(-2)]), rtol=1e-14
        )

    def test_path4_matches_taylor_oracle(self, path4):
        npt.assert_allclose(
            matrix_exp(path4.weights), taylor_exp(path4.weights), atol=1e-10
        )

    def test_large_norm_against_taylor(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(5, 5))
            a *= 10.0 / np.abs(a).sum(axis=1).max()  # infinity norm 10
            npt.assert_allclose(matrix_exp(a), taylor_exp(a), atol=1e-10)

    def test_eigenvalue_mapping(self, path4):
        vals_in, _ = sym_eigen(-0.5 * path4.laplacian)
        vals_out, _ = sym_eigen(matrix_exp(-0.5 * path4.laplacian))
        npt.assert_allclose(vals_out, np.sort(np.exp(vals_in)), atol=1e-8)

    def test_symmetric_input_gives_exactly_symmetric_output(self, path4):
        e = matrix_exp(1.5 * path4.weights)
        npt.assert_array_equal(e, e.T)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            matrix_exp(2000.0 * np.ones((3, 3)))

    def test_heat_keeps_its_relative_bound_below_the_cut(self, path4):
        # B = t (3I - L) has ||B||_inf = 3t = 3e12, so k = 44 squarings and
        # 2^k n eps = 1.6e-2; heat tends to J / 4 on the connected path4
        got = matrix_exp(-1e12 * path4.laplacian)
        assert np.abs(got - 0.25).max() / 0.25 <= 2.0**44 * 4 * EPS

    @pytest.mark.parametrize("scale", [1e14, 1e21, 1e300])
    def test_refuses_where_the_bound_leaves_no_correct_digit(self, path4, scale):
        with pytest.raises(ValueError, match=r"^matrix_exp: relative error bound 2\^k n eps"):
            matrix_exp(-scale * path4.laplacian)


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

    def test_bound_grows_with_the_largest_entry(self):
        # the rounding floor 8 n eps max|k| = 3.55e-3 exceeds tol here: an
        # eigenvalue of -1e-3 is within it and clamped, -1e-2 is beyond it
        big = 1e12
        root = gram_factor(np.diag([big, -1e-3]))
        npt.assert_allclose(root, np.diag([math.sqrt(big), 0.0]), atol=1e-9)
        with pytest.raises(NotPositiveSemidefiniteError):
            gram_factor(np.diag([big, -1e-2]))
