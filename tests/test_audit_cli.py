import json

import numpy as np
import pytest

from graphprox import (
    AuditReport,
    ThresholdBracketError,
    compute_kernel,
    default_checks,
    export_embedding,
    find_threshold,
    kernel_to_sq_dist,
    param_domain,
    run_audit,
    run_check,
)
from graphprox.cli import main

from oracles import pairwise_sq_dists, random_connected_graph, reference_embedding_csv


class TestRunAudit:
    def test_regularized_laplacian_passes_everything(self, path4):
        report = run_audit(path4, [("regL", 1.0)], checks=["all"])
        assert report.all_hold
        names = [c.property for c in report.results[0].checks]
        for expected in ("psd", "proximity", "sigma_proximity", "metric",
                         "sq_euclidean", "transitional", "distance_order"):
            assert expected in names
        sigma_rep = next(c for c in report.results[0].checks if c.property == "sigma_proximity")
        assert sigma_rep.sigma == pytest.approx(1.0, abs=1e-9)

    def test_communicability_proximity_failure(self, path4):
        report = run_audit(path4, [("comm", 1.0)], checks=["proximity"])
        (rep,) = report.results[0].checks
        assert not rep.holds
        assert rep.witness[0] == 2 and set(rep.witness[1:]) == {1, 3}

    def test_double_factorial_fails_psd_and_proximity(self, path4):
        report = run_audit(path4, [("dfact", 1.0)], checks=["psd", "proximity"])
        assert [c.holds for c in report.results[0].checks] == [False, False]

    def test_ppr_asymmetry_handling(self, path4):
        report = run_audit(
            path4, [("ppr", 0.99)], checks=["psd", "sym_psd", "proximity", "sigma"]
        )
        by_name = {c.property: c for c in report.results[0].checks}
        assert not by_name["psd"].holds and "not symmetric" in by_name["psd"].note
        assert not by_name["sym_psd"].holds  # negative eigenvalue past onset
        assert not by_name["proximity"].holds
        assert not by_name["sigma_proximity"].holds

    @pytest.mark.parametrize("measure,param", [("ppr", 0.9), ("heatppr", 1.0)])
    def test_symmetric_matrix_of_asymmetric_measure(self, tmp_path, triangle, measure, param):
        # on a regular graph P = W / deg is symmetric, and so is the kernel
        report = run_audit(triangle, [(measure, param)], checks=["proximity", "sigma"])
        prox, sigma = report.results[0].checks
        assert prox.holds and prox.witness is None and prox.note is None
        assert sigma.holds and sigma.witness is None and sigma.note is None
        out = tmp_path / "coords.csv"
        coords = export_embedding(triangle, measure, param, str(out))
        assert coords.shape == (3, 3)
        assert out.read_text().startswith("x1,x2,x3\n")

    @pytest.mark.parametrize("measure,param", [("ppr", 0.9), ("heatppr", 1.0)])
    @pytest.mark.parametrize("graph", ["triangle", "cycle4"])
    def test_check_all_of_symmetric_matrix_omits_sym_psd(self, request, graph, measure, param):
        # the kernel's matrix, not the measure, decides the expansion
        g = request.getfixturevalue(graph)
        report = run_audit(g, [(measure, param)], checks=None)
        (result,) = report.results
        checks = default_checks(True, g.n)
        assert "sym_psd" not in checks
        kres = compute_kernel(g, measure, param)
        assert list(result.checks) == [run_check(c, kres, g) for c in checks]
        # the JSON flag stays the measure's
        assert result.symmetric is False
        assert report.to_dict()["results"][0]["symmetric"] is False

    def test_default_checks_add_sym_psd_for_asymmetric(self, path5):
        report = run_audit(path5, [("heatppr", 0.5)], checks=["all"])
        names = [c.property for c in report.results[0].checks]
        assert "sym_psd" in names
        assert "distance_order" not in names  # n = 5

    def test_multiple_measures(self, path4):
        report = run_audit(path4, [("regL", 1.0), ("comm", 1.0)], checks=["proximity"])
        assert [r.measure for r in report.results] == ["regL", "comm"]
        assert report.results[0].checks[0].holds
        assert not report.results[1].checks[0].holds
        assert not report.all_hold

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, path4, tol):
        with pytest.raises(ValueError, match="tolerance"):
            run_audit(path4, [("regL", 1.0)], checks=["psd"], tol=tol)

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")])
    @pytest.mark.parametrize("check", ["proximity", "transitional", "egocentrism"])
    def test_run_check_rejects_bad_tolerance(self, path4, check, tol):
        # unchecked, tol = nan passed proximity and transitional on heat:1,
        # and tol = -1 passed egocentrism with a negative slack
        kres = compute_kernel(path4, "heat", 1.0)
        with pytest.raises(ValueError, match="tolerance"):
            run_check(check, kres, path4, tol)

    def test_reproducible(self, path5):
        a = run_audit(path5, [("ppr", 0.9)], checks=["all"])
        b = run_audit(path5, [("ppr", 0.9)], checks=["all"])
        assert a == b

    def test_json_round_trip_lossless(self, path4):
        report = run_audit(
            path4,
            [("regL", 1.0), ("ppr", 0.95), ("katz", 0.2)],
            checks=["all"],
            tol=1e-9,
        )
        wire = json.dumps(report.to_dict(), sort_keys=True)
        again = AuditReport.from_dict(json.loads(wire))
        assert again == report
        assert json.dumps(again.to_dict(), sort_keys=True) == wire

    def test_schema_version_1_document_loads(self, path4):
        report = run_audit(path4, [("regL", 1.0), ("ppr", 0.95)], checks=["all"])
        old = {**report.to_dict(), "schema_version": 1, "sigma": 1.0}
        assert AuditReport.from_dict(old) == report


@pytest.mark.parametrize("call", [
    # dfact:5 overflows the products of the transitional check; unguarded,
    # it warned and passed with slack -inf, and the threshold bisected a
    # flip drawn from inf
    lambda g, tmp: run_audit(g, [("dfact", 5.0)], checks=["transitional"]),
    lambda g, tmp: find_threshold(g, "dfact", "transitional", 0.5, 5.0),
    lambda g, tmp: export_embedding(g, "heat", 1e308, str(tmp / "x.csv")),
], ids=["run_audit", "find_threshold", "export_embedding"])
def test_library_calls_raise_on_float_errors(call, tmp_path):
    g = random_connected_graph(np.random.default_rng(3), 8, "r8")
    before = np.geterr()
    with pytest.raises(FloatingPointError):
        call(g, tmp_path)
    assert np.geterr() == before
    assert not (tmp_path / "x.csv").exists()


class TestFindThreshold:
    def test_heat_proximity_bracket(self, path4):
        res = find_threshold(path4, "heat", "proximity", 0.1, 1.0, resolution=1e-4)
        assert res.direction == "holds_below"
        assert res.bracket_high - res.bracket_low <= 1e-4
        assert res.bracket_low <= 0.4305 <= res.bracket_high + 1e-4
        assert res.monotonic_assumed

    def test_bracket_statuses_differ(self, path4):
        from graphprox import compute_kernel, run_check

        res = find_threshold(path4, "heat", "proximity", 0.1, 1.0, resolution=1e-4)
        low = run_check("proximity", compute_kernel(path4, "heat", res.bracket_low), path4)
        high = run_check("proximity", compute_kernel(path4, "heat", res.bracket_high), path4)
        assert low.holds and not high.holds

    def test_order_property_syntax(self, path4):
        res = find_threshold(path4, "katz", "order:13<14", 0.1, 0.39, resolution=1e-4)
        assert res.bracket_low <= 0.375 <= res.bracket_high + 1e-4

    def test_triangle_property_syntax(self, path5):
        res = find_threshold(path5, "ppr", "triangle:1,3,4", 0.5, 0.999, resolution=1e-4)
        assert res.direction == "holds_below"

    def test_same_status_raises(self, path4):
        with pytest.raises(ThresholdBracketError, match="both endpoints .*; nothing to locate$"):
            find_threshold(path4, "regL", "proximity", 0.1, 10.0)

    def test_unknown_property_rejected(self, path4):
        with pytest.raises(ValueError, match="unknown threshold property"):
            find_threshold(path4, "heat", "order_13_14", 0.1, 1.0)

    def test_bad_range_rejected(self, path4):
        with pytest.raises(ValueError, match="lo < hi"):
            find_threshold(path4, "heat", "proximity", 1.0, 0.1)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, path4, tol):
        with pytest.raises(ValueError, match="tolerance"):
            find_threshold(path4, "heat", "proximity", 0.1, 1.0, tol=tol)

    def test_evaluation_count_reported(self, path4):
        res = find_threshold(path4, "heat", "proximity", 0.1, 1.0, resolution=1e-2)
        assert res.evaluations == 2 + 7  # endpoints plus ceil(log2(0.9/0.01))

    def test_resolution_below_float_spacing_stops_at_adjacent_floats(
        self, path4, monkeypatch
    ):
        from graphprox import audit, compute_kernel, run_check

        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            assert calls <= 200, "bisection does not terminate"
            return compute_kernel(*args, **kwargs)

        monkeypatch.setattr(audit, "compute_kernel", counted)
        res = find_threshold(path4, "heat", "proximity", 0.1, 1.0, resolution=1e-20)
        assert res.evaluations <= 2 + 64
        assert res.bracket_high == np.nextafter(res.bracket_low, np.inf)
        low = run_check("proximity", compute_kernel(path4, "heat", res.bracket_low), path4)
        high = run_check("proximity", compute_kernel(path4, "heat", res.bracket_high), path4)
        assert low.holds and not high.holds

    def test_reproducible(self, path4):
        a = find_threshold(path4, "nheat", "proximity", 0.5, 3.0)
        b = find_threshold(path4, "nheat", "proximity", 0.5, 3.0)
        assert a == b


class TestExportEmbedding:
    def test_heat_embedding_csv(self, tmp_path, path4):
        from graphprox import compute_kernel, kernel_to_sq_dist

        out = tmp_path / "coords.csv"
        coords = export_embedding(path4, "heat", 1.0, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,x4"
        assert len(lines) == 5
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, coords)
        expected = kernel_to_sq_dist(compute_kernel(path4, "heat", 1.0).matrix)
        assert np.abs(pairwise_sq_dists(parsed) - expected).max() <= 1e-7

    def test_two_point_embedding(self, tmp_path):
        from graphprox import load_graph

        g = load_graph("1 2 1")
        coords = export_embedding(g, "regL", 1.0, str(tmp_path / "two.csv"))
        assert coords.shape == (2, 2)

    def test_large_kernel_checked_relative_to_its_distances(self, tmp_path):
        # squared distances near 6e7 carry rounding error near 2e-7
        g = random_connected_graph(np.random.default_rng(0), 6, name="g")
        coords = export_embedding(g, "comm", 3.75, str(tmp_path / "x.csv"))
        expected = kernel_to_sq_dist(compute_kernel(g, "comm", 3.75).matrix)
        err = np.abs(pairwise_sq_dists(coords) - expected).max()
        assert err <= 1e-7 * np.abs(expected).max()

    def test_large_entries_checked_relative_to_themselves(self, tmp_path):
        # absorp:5e-10 has entries near 7e8 but squared distances near 0.4,
        # each computed with a rounding error near 1.4e-7
        g = random_connected_graph(np.random.default_rng(0), 3, name="g")
        coords = export_embedding(g, "absorp", 5e-10, str(tmp_path / "x.csv"))
        k = compute_kernel(g, "absorp", 5e-10).matrix
        err = np.abs(pairwise_sq_dists(coords) - kernel_to_sq_dist(k)).max()
        assert err <= 1e-7 * np.abs(k).max()

    @pytest.mark.parametrize("measure,param", [
        ("heat", 1.0), ("regL", 0.5), ("comm", 0.7), ("katz", 0.05), ("modifppr", 0.6),
    ])
    def test_csv_bytes_match_former_writer(self, tmp_path, corpus, measure, param):
        out, ref = tmp_path / "coords.csv", tmp_path / "reference.csv"
        rng = np.random.default_rng(20261018)
        larger = [random_connected_graph(rng, n, name=f"random-n{n}") for n in (20, 60)]
        for g in corpus + larger:
            # katz's domain ends at 1/rho(W), which falls as n grows
            hi = param_domain(measure, g)[1]
            coords = export_embedding(g, measure, param if param < hi else hi / 2, str(out))
            reference_embedding_csv(coords, str(ref))
            assert out.read_bytes() == ref.read_bytes(), g.name

    def test_perturbed_coordinates_rejected(self, tmp_path, path4, monkeypatch):
        from graphprox import audit

        real_embed = audit.embed

        def off_by_a_little(k):
            coords = real_embed(k)
            coords[2, 0] += 1e-3
            return coords

        monkeypatch.setattr(audit, "embed", off_by_a_little)
        with pytest.raises(RuntimeError, match="reconstruction"):
            export_embedding(path4, "heat", 1.0, str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_nan_coordinates_rejected(self, tmp_path, path4, monkeypatch):
        # a NaN reconstruction error compares false with any bound
        from graphprox import audit

        monkeypatch.setattr(audit, "embed", lambda k: np.full(k.shape, np.nan))
        with pytest.raises(RuntimeError, match="reconstruction"):
            export_embedding(path4, "heat", 1.0, str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_asymmetric_coordinates_rejected(self, tmp_path, path4, monkeypatch):
        # one ulp passes the reconstruction check, but the writer formats
        # each value once and mirrors it, so it must see exact symmetry
        from graphprox import audit

        real_embed = audit.embed

        def off_by_one_ulp(k):
            coords = real_embed(k)
            coords[2, 0] = np.nextafter(coords[2, 0], np.inf)
            return coords

        monkeypatch.setattr(audit, "embed", off_by_one_ulp)
        with pytest.raises(RuntimeError, match="not exactly symmetric"):
            export_embedding(path4, "heat", 1.0, str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_signed_zeros_off_the_diagonal_rejected(self, tmp_path, path4, monkeypatch):
        # 0.0 == -0.0, yet their text differs
        from graphprox import audit

        def with_signed_zeros(k):
            coords = np.eye(4)
            coords[0, 3], coords[3, 0] = 0.0, -0.0
            return coords

        monkeypatch.setattr(audit, "embed", with_signed_zeros)
        monkeypatch.setattr(audit, "kernel_to_sq_dist", lambda k: 2.0 - 2.0 * np.eye(4))
        with pytest.raises(RuntimeError, match="not exactly symmetric"):
            export_embedding(path4, "heat", 1.0, str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_indefinite_kernel_rejected(self, tmp_path, path4):
        from graphprox import NotPositiveSemidefiniteError

        with pytest.raises(NotPositiveSemidefiniteError):
            export_embedding(path4, "dfact", 1.0, str(tmp_path / "x.csv"))

    def test_asymmetric_measure_rejected(self, tmp_path, path4):
        with pytest.raises(ValueError, match="not symmetric"):
            export_embedding(path4, "ppr", 0.5, str(tmp_path / "x.csv"))


class TestCli:
    def test_audit_failing_check_exits_one(self, capsys):
        code = main(["audit", "paper:path4", "--measure", "comm:1.0", "--check", "proximity"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "witness=(2,1,3)" in out

    def test_audit_all_green_exits_zero(self, capsys):
        code = main(["audit", "paper:path4", "--measure", "regL:1.0", "--check", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "sigma=1" in out

    @pytest.mark.parametrize("measure", ["ppr:0.9", "heatppr:1.0"])
    def test_audit_of_symmetric_matrix_exit_code(self, tmp_path, capsys, measure):
        # without sym_psd, which held where psd holds, the exit code stays 0
        edges = tmp_path / "triangle.txt"
        edges.write_text("1 2 1\n1 3 1\n2 3 1\n", encoding="utf-8")
        code = main(["audit", str(edges), "--measure", measure, "--check", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sym_psd" not in out and "9 check(s): 9 passed, 0 failed" in out

    def test_audit_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main([
            "audit", "paper:path4",
            "--measure", "dfact:1.0,regL:1.0",
            "--check", "psd,proximity",
            "--json", str(out_file),
        ])
        assert code == 1
        data = json.loads(out_file.read_text())
        assert data["schema_version"] == 2
        assert "sigma" not in data
        assert [r["measure"] for r in data["results"]] == ["dfact", "regL"]
        assert AuditReport.from_dict(data).results[1].all_hold

    def test_graph_flag_variant(self, capsys):
        code = main(["audit", "--graph", "paper:path4", "--measure", "regL:1.0",
                     "--check", "psd"])
        assert code == 0

    def test_graph_given_twice_is_usage_error(self, capsys):
        code = main(["audit", "paper:path4", "--graph", "paper:path5",
                     "--measure", "regL:1.0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_graph_from_file(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("1 2 2\n2 3 1\n3 4 2\n")
        code = main(["audit", str(path), "--measure", "regL:1.0", "--check", "psd"])
        assert code == 0

    def test_param_outside_domain_is_usage_error(self, capsys):
        code = main(["audit", "paper:path4", "--measure", "katz:0.5"])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_param_within_boundary_margin_names_the_margin(self, tmp_path, capsys):
        code = main(["embed", "paper:path4", "--measure", "absorp:1e-13",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: absorp: t = 1e-13 outside open domain (0, inf) "
            "or within 1e-12 of a finite end\n"
        )

    def test_unknown_measure_is_usage_error(self, capsys):
        code = main(["audit", "paper:path4", "--measure", "bogus:1.0"])
        assert code == 2

    def test_unknown_check_is_usage_error(self, capsys):
        code = main(["audit", "paper:path4", "--measure", "regL:1.0",
                     "--check", "positivity"])
        assert code == 2

    def test_missing_graph_file_is_usage_error(self, capsys):
        code = main(["audit", "no/such/file.edges", "--measure", "regL:1.0"])
        assert code == 2

    def test_absorption_rates_flag(self, capsys):
        code = main(["audit", "paper:path4", "--measure", "absorp:0.7",
                     "--rates", "1,2,3,4", "--check", "proximity"])
        assert code == 0

    def test_threshold_subcommand(self, tmp_path, capsys):
        out_file = tmp_path / "bracket.json"
        code = main([
            "threshold", "paper:path4",
            "--measure", "heat", "--property", "proximity",
            "--range", "0.1", "1.0", "--json", str(out_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds_below" in out
        data = json.loads(out_file.read_text())
        assert data["bracket_low"] <= 0.431 <= data["bracket_high"] + 5e-3

    def test_threshold_same_status_is_usage_error(self, capsys):
        code = main([
            "threshold", "paper:path4",
            "--measure", "regL", "--property", "proximity",
            "--range", "0.1", "10.0",
        ])
        assert code == 2

    def test_threshold_vertex_out_of_range_is_usage_error(self, capsys):
        code = main([
            "threshold", "paper:path4",
            "--measure", "ppr", "--property", "triangle:1,3,5",
            "--range", "0.5", "0.99",
        ])
        assert code == 2
        assert "out of range" in capsys.readouterr().err
        # vertex 0 would index the last vertex from the end
        for prop in ("order:02<13", "triangle:0,1,2"):
            code = main([
                "threshold", "paper:path4",
                "--measure", "heat", "--property", prop,
                "--range", "0.05", "5",
            ])
            err = capsys.readouterr().err
            assert code == 2
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("error:") and "out of range" in err

    def test_embed_subcommand(self, tmp_path, capsys):
        out_file = tmp_path / "coords.csv"
        code = main(["embed", "paper:path4", "--measure", "heat:1.0",
                     "--out", str(out_file)])
        assert code == 0
        assert out_file.read_text().startswith("x1,x2,x3,x4")

    def test_embed_indefinite_is_error(self, tmp_path, capsys):
        code = main(["embed", "paper:path4", "--measure", "dfact:1.0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["audit", "paper:path4", "--measure", "comm:1000", "--check", "psd"],
        ["embed", "paper:path4", "--measure", "comm:400", "--out", "x.csv"],
        ["threshold", "paper:path4", "--measure", "comm", "--property", "psd",
         "--range", "0.1", "2000"],
        ["audit", "paper:path4", "--measure", "dfact:50", "--check", "psd"],
        ["audit", "paper:path4", "--measure", "heat:1e308", "--check", "psd"],
    ])
    def test_overflow_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "overflow" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n,measure,check", [
        (80, "regL:0.001", "cutpoint_additive"),
        (80, "regL:0.001", "log_metric"),
        (40, "absorp:10000", "cutpoint_additive"),
        (40, "absorp:10000", "all"),
    ])
    def test_log_distance_of_normal_entries_gets_a_verdict(
        self, tmp_path, capsys, n, measure, check
    ):
        # every kernel entry is a normal float, but s_ii s_jj or s_ij s_ji
        # under- or overflows on these long unit paths
        edges = tmp_path / "path.txt"
        edges.write_text("".join(f"{i} {i + 1} 1\n" for i in range(1, n)), encoding="utf-8")
        code = main(["audit", str(edges), "--measure", measure, "--check", check])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["audit", "paper:path4", "--measure", "heat:nan", "--check", "psd"],
        ["audit", "paper:path4", "--measure", "heat:inf", "--check", "psd"],
        ["audit", "paper:path4", "--measure", "regL:1.0", "--check", "psd", "--tol", "-1"],
        ["audit", "paper:path4", "--measure", "regL:1.0", "--check", "psd", "--tol", "nan"],
        ["threshold", "paper:path4", "--measure", "heat", "--property", "proximity",
         "--range", "0.1", "1.0", "--tol", "-1"],
        # minus-led numbers with an exponent, or infinite, are values too
        ["threshold", "paper:path4", "--measure", "heat", "--property", "proximity",
         "--range", "0.1", "1.0", "--tol", "-1e-9"],
        ["threshold", "paper:path4", "--measure", "heat", "--property", "proximity",
         "--range", "-1e-300", "1"],
        ["threshold", "paper:path4", "--measure", "heat", "--property", "proximity",
         "--range", "-inf", "1"],
        ["audit", "paper:path4", "--measure", "regL:1.0", "--check", "psd", "--tol", "-1E-9"],
        ["audit", "paper:path4", "--measure", "regL:1.0", "--check", "all,psd"],
    ])
    def test_meaningless_input_is_usage_error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")
        assert "domain" in err or "tolerance" in err or "--check all" in err
        assert "unknown" not in err
