"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion. Threshold criteria
bisect at resolution 1e-4 and require the reference onset value to lie
inside the bracket expanded by the stated slop (onsets are quoted to 3-5
decimals, so the slop absorbs their rounding).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from graphprox import (
    check_cutpoint_additive,
    check_metric,
    check_proximity,
    check_psd,
    check_sq_euclidean,
    check_sqrt_distance,
    check_transitional,
    compute_kernel,
    export_embedding,
    find_threshold,
    kernel_to_sq_dist,
    log_distance,
    param_domain,
    run_audit,
    sym_eigen,
)

from oracles import every_path_visits, exact_invert, pairwise_sq_dists, resolvent_oracle

TRANSITIONAL_MEASURES = ("katz", "regL", "absorp", "ppr", "modifppr")
RESOLVENTS = ("katz", "regL", "absorp", "ppr", "modifppr")


def _record(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name} {detail}"


def _grid_params(measure: str, g) -> list[float]:
    """Default parameter grid: domain fractions 0.1..0.9 for alpha-type
    measures, a fixed small/large spread for t-type measures."""
    lo, hi = param_domain(measure, g)
    if math.isfinite(hi):
        return [frac / 10.0 * hi for frac in range(1, 10)]
    return [0.1, 0.5, 1.0, 2.0, 5.0]


def _bracket_contains(result, value: float, slop: float) -> bool:
    return result.bracket_low - slop <= value <= result.bracket_high + slop


# ---------------------------------------------------------------- criterion 1


class TestThresholdReproduction:
    def test_katz_d13_d14_onset(self, path4):
        res = find_threshold(path4, "katz", "order:13<14", 0.1, 0.39, resolution=1e-4)
        _record(
            "katz on path4: d(1,3)>d(1,4) onset 0.375 (+-0.0005)",
            _bracket_contains(res, 0.375, 0.0005),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )

    def test_katz_d12_d14_onset(self, path4):
        res = find_threshold(path4, "katz", "order:12<14", 0.376, 0.3903, resolution=1e-4)
        _record(
            "katz on path4: d(1,2)>d(1,4) onset 0.38795 (+-0.0005)",
            _bracket_contains(res, 0.38795, 0.0005),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )

    def test_heat_proximity_onset(self, path4):
        res = find_threshold(path4, "heat", "proximity", 0.1, 1.0, resolution=1e-4)
        _record(
            "heat on path4: proximity violation onset 0.431 (+-0.005)",
            _bracket_contains(res, 0.431, 0.005),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )

    def test_normalized_heat_proximity_onset(self, path4):
        res = find_threshold(path4, "nheat", "proximity", 0.5, 3.0, resolution=1e-4)
        _record(
            "nheat on path4: proximity violation onset 1.497 (+-0.005)",
            _bracket_contains(res, 1.497, 0.005),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )

    def test_ppr_metric_triangle_onset(self, path5):
        res = find_threshold(path5, "ppr", "triangle:1,3,4", 0.5, 0.999, resolution=1e-4)
        _record(
            "ppr on path5: d(1,3)+d(3,4)<d(1,4) onset 0.9515 (+-0.0005)",
            _bracket_contains(res, 0.9515, 0.0005),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )

    def test_symmetrized_ppr_psd_onset_path4(self, path4):
        res = find_threshold(path4, "ppr", "sym_psd", 0.9, 0.999, resolution=1e-4)
        _record(
            "symmetrized ppr on path4: negative eigenvalue onset 0.984 (+-0.005)",
            _bracket_contains(res, 0.984, 0.005),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )

    def test_symmetrized_ppr_psd_onset_path5(self, path5):
        res = find_threshold(path5, "ppr", "sym_psd", 0.9, 0.999, resolution=1e-4)
        _record(
            "symmetrized ppr on path5: negative eigenvalue onset 0.98 (+-0.005)",
            _bracket_contains(res, 0.98, 0.005),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )

    def test_pagerank_heat_triangle_onset(self, path5):
        res = find_threshold(path5, "heatppr", "triangle:1,2,3", 0.5, 3.0, resolution=1e-4)
        _record(
            "heatppr on path5: d(1,2)+d(2,3)<d(1,3) onset 1.45 (+-0.01)",
            _bracket_contains(res, 1.45, 0.01),
            f"bracket [{res.bracket_low:.5f}, {res.bracket_high:.5f}]",
        )


def exact_resolvent(g, measure: str, param) -> np.ndarray:
    """The kernel of katz, (I - a W)^-1, or of ppr, (I - a P)^-1 with
    P = W / deg, at the rational value of param, as Fractions."""
    w = [[Fraction(v) for v in row] for row in g.weights]
    if measure == "ppr":
        w = [[v / sum(row) for v in row] for row in w]
    a = Fraction(param)
    m = np.array([[int(i == j) - a * v for j, v in enumerate(row)] for i, row in enumerate(w)],
                 dtype=object)
    return exact_invert(m, exact=True)


def exact_dist(k: np.ndarray, i: int, j: int) -> Fraction:
    return (k[i, i] + k[j, j] - k[i, j] - k[j, i]) / 2


class TestExactThresholdCertificates:
    """The exact predicate, in rationals, differs at the two float ends
    of the bracket find_threshold returns, and agrees with its direction."""

    def test_katz_d13_d14_onset_is_three_eighths(self, path4):
        def margin(alpha):  # order:13<14 holds where it is positive
            k = exact_resolvent(path4, "katz", alpha)
            return exact_dist(k, 0, 3) - exact_dist(k, 0, 2)

        assert margin(Fraction(3, 8)) == 0
        res = find_threshold(path4, "katz", "order:13<14", 0.1, 0.39, resolution=1e-4)
        assert (margin(res.bracket_low) > 0) == (res.direction == "holds_below")
        assert (margin(res.bracket_high) > 0) != (margin(res.bracket_low) > 0)

    def test_ppr_triangle_134_bracket(self, path5):
        def margin(alpha):  # triangle:1,3,4 holds where it is nonnegative
            k = exact_resolvent(path5, "ppr", alpha)
            return exact_dist(k, 0, 2) + exact_dist(k, 2, 3) - exact_dist(k, 0, 3)

        res = find_threshold(path5, "ppr", "triangle:1,3,4", 0.5, 0.999, resolution=1e-4)
        assert (margin(res.bracket_low) >= 0) == (res.direction == "holds_below")
        assert (margin(res.bracket_high) >= 0) != (margin(res.bracket_low) >= 0)


# ---------------------------------------------------------------- criterion 2


class TestPointChecks:
    def test_communicability_proximity_witness(self, path4):
        rep = check_proximity(compute_kernel(path4, "comm", 1.0).matrix)
        ok = (not rep.holds) and rep.witness[0] == 2 and set(rep.witness[1:]) == {1, 3}
        _record("comm(1) on path4 fails proximity with witness x=2 on {1,2,3}", ok,
                f"witness={rep.witness}")

    def test_communicability_distance_order_flips(self, path4):
        d3 = kernel_to_sq_dist(compute_kernel(path4, "comm", 3.0).matrix)
        d45 = kernel_to_sq_dist(compute_kernel(path4, "comm", 4.5).matrix)
        _record("comm(3) on path4 has d(1,3)>d(1,4)", d3[0, 2] > d3[0, 3],
                f"d13={d3[0, 2]:.4g} d14={d3[0, 3]:.4g}")
        _record("comm(4.5) on path4 has d(1,2)>d(1,4)", d45[0, 1] > d45[0, 3],
                f"d12={d45[0, 1]:.4g} d14={d45[0, 3]:.4g}")

    def test_double_factorial_spectrum_and_distances(self, path4):
        k = compute_kernel(path4, "dfact", 1.0).matrix
        vals, _ = sym_eigen(k)
        neg = int((vals < -1e-9).sum())
        _record("dfact(1) on path4 has exactly two eigenvalues below -1e-9",
                neg == 2, f"eigenvalues={np.round(vals, 6)}")
        d = kernel_to_sq_dist(k)
        _record("dfact(1) on path4: squared-distance transform has a negative entry",
                d.min() < 0, f"min entry={d.min():.4g}")

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
    def test_regularized_laplacian_full_pass(self, path4, t):
        checks = ["psd", "proximity", "sigma", "metric", "sq_euclidean",
                  "transitional", "distance_order"]
        report = run_audit(path4, [("regL", t)], checks=checks)
        entry = report.results[0]
        sigma_rep = next(c for c in entry.checks if c.property == "sigma_proximity")
        ok = entry.all_hold and abs(sigma_rep.sigma - 1.0) <= 1e-9
        _record(f"regL({t}) on path4 passes psd/proximity/sigma(1)/metric/"
                "sq_euclidean/transitional/distance_order", ok)


# ---------------------------------------------------------------- criterion 3


class TestPropertySuites:
    def test_neumann_oracle_equality(self, corpus):
        rng = np.random.default_rng(101)
        worst = 0.0
        for g in corpus:
            for measure in RESOLVENTS:
                lo, hi = param_domain(measure, g)
                param = 0.5 * hi if math.isfinite(hi) else 0.8
                rates = rng.uniform(0.5, 2.0, size=g.n) if measure == "absorp" else None
                k = compute_kernel(g, measure, param, rates=rates).matrix
                oracle = resolvent_oracle(measure, g, param, rates=rates)
                worst = max(worst, float(np.abs(k - oracle).max()))
        _record("resolvent kernels equal their series oracles within 1e-10 on the corpus",
                worst <= 1e-10, f"worst deviation {worst:.2e}")

    def test_distance_proximity_round_trips(self, corpus):
        from graphprox import dist_to_sigma_prox

        rng = np.random.default_rng(103)
        worst = 0.0
        for g in corpus:
            d = kernel_to_sq_dist(compute_kernel(g, "regL", 1.0).matrix)
            for sigma in (0.0, 1.0, 2.5):
                back = kernel_to_sq_dist(dist_to_sigma_prox(d, sigma))
                worst = max(worst, float(np.abs(back - d).max()))
            b = rng.normal(size=(g.n, g.n))
            d_random = kernel_to_sq_dist(b @ b.T)
            kappa = dist_to_sigma_prox(d_random, 1.5)
            back_kappa = dist_to_sigma_prox(kernel_to_sq_dist(kappa), 1.5)
            worst = max(worst, float(np.abs(back_kappa - kappa).max()))
        _record("distance <-> sigma-proximity transforms invert each other within 1e-9",
                worst <= 1e-9, f"worst deviation {worst:.2e}")

    def test_schoenberg_equivalence(self, corpus):
        cases = 0
        negatives = 0
        for g in corpus:
            builtin = g.name.startswith("paper:")
            matrices = []
            for measure in ("katz", "regL", "modifppr", "absorp"):
                lo, hi = param_domain(measure, g)
                for frac in (0.3, 0.9):
                    param = frac * hi if math.isfinite(hi) else frac
                    matrices.append(compute_kernel(g, measure, param).matrix)
            # exponential-family scales stay small enough on random graphs
            # that PSD tolerances remain meaningful
            for t in (0.2, 0.5) + ((1.0,) if builtin else ()):
                matrices.append(compute_kernel(g, "comm", t).matrix)
                matrices.append(compute_kernel(g, "dfact", t).matrix)
                matrices.append(compute_kernel(g, "heat", t).matrix)
                matrices.append(compute_kernel(g, "nheat", t).matrix)
            if builtin:
                matrices.append(compute_kernel(g, "dfact", 1.0).matrix)
            for k in matrices:
                psd = check_psd(k, tol=1e-8).holds
                euclidean = check_sq_euclidean(kernel_to_sq_dist(k), tol=1e-8).holds
                assert psd == euclidean, (g.name, psd, euclidean)
                cases += 1
                negatives += not psd
        _record("PSD of each symmetric measure is equivalent to squared-Euclidean "
                "embeddability of its distance transform (tol 1e-8)",
                cases > 0 and negatives > 0,
                f"{cases} cases, {negatives} non-PSD among them")

    def test_psd_implies_embeddable_and_converse_fails_for_symmetrized_ppr(
        self, corpus, path4
    ):
        # The forward direction is unconditional: a PSD matrix's distance
        # transform always embeds. The converse can fail once a matrix is
        # symmetrized from an asymmetric measure: centering annihilates
        # the direction carrying the negativity, so the distances stay
        # embeddable while the matrix itself is indefinite.
        for g in corpus:
            for measure in ("ppr", "heatppr"):
                for frac in (0.5, 0.99):
                    param = frac if measure == "ppr" else 3.0 * frac
                    k = compute_kernel(g, measure, param).matrix
                    k_sym = 0.5 * (k + k.T)
                    if check_psd(k_sym, tol=1e-8).holds:
                        assert check_sq_euclidean(
                            kernel_to_sq_dist(k_sym), tol=1e-8
                        ).holds, (g.name, measure, param)
        k = compute_kernel(path4, "ppr", 0.99).matrix
        k_sym = 0.5 * (k + k.T)
        not_psd = not check_psd(k_sym, tol=1e-8).holds
        still_embeddable = check_sq_euclidean(kernel_to_sq_dist(k_sym), tol=1e-8).holds
        _record("symmetrized ppr(0.99) on path4 is indefinite yet its distance "
                "transform still embeds (PSD test is strictly stronger)",
                not_psd and still_embeddable)

    def test_proximity_implies_metric_and_sqrt_metric(self, corpus):
        proximities = 0
        for g in corpus:
            for measure in ("katz", "comm", "dfact", "heat", "nheat", "regL",
                            "absorp", "modifppr"):
                lo, hi = param_domain(measure, g)
                params = [0.3 * hi, 0.7 * hi] if math.isfinite(hi) else [0.3, 0.7]
                for param in params:
                    k = compute_kernel(g, measure, param).matrix
                    if not check_proximity(k, tol=1e-9).holds:
                        continue
                    proximities += 1
                    d = kernel_to_sq_dist(k)
                    assert check_metric(d, tol=1e-9).holds, (g.name, measure, param)
                    assert check_metric(np.sqrt(d.clip(min=0)), tol=1e-9).holds, (
                        g.name, measure, param)
                    assert check_sqrt_distance(d, tol=1e-9).holds, (g.name, measure, param)
        _record("every proximity's induced distance and its square root are metrics "
                "(tol 1e-9)", proximities >= 3 * len(corpus),
                f"{proximities} proximity cases checked")

    def test_transitional_measures_with_cut_oracle(self, corpus):
        rng = np.random.default_rng(107)
        checked = 0
        for g in corpus:
            for measure in TRANSITIONAL_MEASURES:
                lo, hi = param_domain(measure, g)
                param = 0.5 * hi if math.isfinite(hi) else 1.0
                rates = rng.uniform(0.5, 2.0, size=g.n) if measure == "absorp" else None
                k = compute_kernel(g, measure, param, rates=rates).matrix
                rep = check_transitional(k, g, tol=1e-9)
                assert rep.holds, (g.name, measure, rep)
                # independent re-check of the equality cases against brute
                # force path enumeration
                for i in range(g.n):
                    for j in range(g.n):
                        for m in range(g.n):
                            if len({i, j, m}) != 3:
                                continue
                            prod_eq = abs(k[i, j] * k[j, m] - k[i, m] * k[j, j]) <= (
                                1e-9 * k[i, m] * k[j, j]
                            )
                            assert prod_eq == every_path_visits(g.weights, j, i, m), (
                                g.name, measure, (i, j, m))
                checked += 1
        _record("katz/regL/absorp/ppr/modifppr are transitional with equality exactly "
                "at cut vertices (path-enumeration oracle)", checked == 5 * len(corpus),
                f"{checked} measure-graph pairs")

    def test_ppr_degree_identity(self, corpus):
        worst = 0.0
        for g in corpus:
            d = np.diag(g.degree)
            for alpha in (0.1, 0.5, 0.9):
                k = compute_kernel(g, "ppr", alpha).matrix
                scaled = k / d[None, :]
                worst = max(worst, float(np.abs(scaled - scaled.T).max()))
        _record("ppr degree identity K_ij/d_j = K_ji/d_i within 1e-10",
                worst <= 1e-10, f"worst deviation {worst:.2e}")

    def test_log_distances_cutpoint_additive_and_metric(self, corpus):
        rng = np.random.default_rng(109)
        for g in corpus:
            for measure in TRANSITIONAL_MEASURES:
                lo, hi = param_domain(measure, g)
                param = 0.5 * hi if math.isfinite(hi) else 1.0
                rates = rng.uniform(0.5, 2.0, size=g.n) if measure == "absorp" else None
                k = compute_kernel(g, measure, param, rates=rates).matrix
                d = log_distance(k)
                assert check_cutpoint_additive(d, g, tol=1e-9).holds, (g.name, measure)
                assert check_metric(d, tol=1e-9).holds, (g.name, measure)
        _record("logarithmic distances of the transitional measures are cutpoint "
                "additive metrics", True)

    def test_log_forest_kernel_is_not_psd(self, path4):
        log_k = np.log(compute_kernel(path4, "regL", 1.0).matrix)
        rep = check_psd(log_k)
        _record("elementwise log of regL(1) on path4 fails the PSD check",
                not rep.holds, f"min eigenvalue {rep.slack:.4g}")

    def test_log_distance_order_on_path4(self, path4):
        ok = True
        for measure in TRANSITIONAL_MEASURES:
            for param in _grid_params(measure, path4):
                k = compute_kernel(path4, measure, param).matrix
                d = log_distance(k)
                ok = ok and d[0, 1] < d[0, 2] < d[0, 3]
        _record("logarithmic distances keep d(1,2)<d(1,3)<d(1,4) on path4 across the "
                "default parameter grid", ok)


# ---------------------------------------------------------------- criterion 4


class TestEmbeddingReconstruction:
    PSD_CASES = [
        ("katz", 0.2, None),
        ("comm", 1.0, None),
        ("dfact", 0.1, None),
        ("heat", 1.0, None),
        ("nheat", 1.0, None),
        ("regL", 1.0, None),
        ("absorp", 0.7, (1.0, 2.0, 3.0, 4.0)),
        ("modifppr", 0.5, None),
    ]

    @pytest.mark.parametrize("measure,param,rates", PSD_CASES)
    def test_export_reproduces_squared_distances(self, tmp_path, path4,
                                                 measure, param, rates):
        rates_arr = None if rates is None else np.array(rates)
        out = tmp_path / f"{measure}.csv"
        coords = export_embedding(path4, measure, param, str(out), rates=rates_arr)
        expected = kernel_to_sq_dist(
            compute_kernel(path4, measure, param, rates=rates_arr).matrix
        )
        err = float(np.abs(pairwise_sq_dists(coords) - expected).max())
        _record(f"embedding of {measure}({param}) on path4 reproduces its squared "
                "distances within 1e-7", err <= 1e-7, f"max error {err:.2e}")
        parsed = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.abs(parsed - coords).max() == 0.0
