import json

import numpy as np
import pytest

from graphprox import (
    AuditReport,
    ThresholdBracketError,
    export_embedding,
    find_threshold,
    run_audit,
)
from graphprox.cli import main

from oracles import pairwise_sq_dists


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
            sigma=1.0,
        )
        wire = json.dumps(report.to_dict(), sort_keys=True)
        again = AuditReport.from_dict(json.loads(wire))
        assert again == report
        assert json.dumps(again.to_dict(), sort_keys=True) == wire


class TestFindThreshold:
    def test_heat_proximity_bracket(self, path4):
        res = find_threshold(path4, "heat", "proximity", 0.1, 1.0, resolution=1e-4)
        assert res.direction == "holds_below"
        assert res.bracket_high - res.bracket_low <= 1e-4
        assert res.bracket_low <= 0.4305 <= res.bracket_high + 1e-4
        assert res.monotonic_assumed

    def test_bracket_statuses_differ(self, path4):
        from graphprox import build_matrices, compute_kernel, run_check

        res = find_threshold(path4, "heat", "proximity", 0.1, 1.0, resolution=1e-4)
        gm = build_matrices(path4)
        low = run_check("proximity", compute_kernel(gm, "heat", res.bracket_low), path4)
        high = run_check("proximity", compute_kernel(gm, "heat", res.bracket_high), path4)
        assert low.holds and not high.holds

    def test_order_property_syntax(self, path4):
        res = find_threshold(path4, "katz", "order:13<14", 0.1, 0.39, resolution=1e-4)
        assert res.bracket_low <= 0.375 <= res.bracket_high + 1e-4

    def test_triangle_property_syntax(self, path5):
        res = find_threshold(path5, "ppr", "triangle:1,3,4", 0.5, 0.999, resolution=1e-4)
        assert res.direction == "holds_below"

    def test_same_status_raises(self, path4):
        with pytest.raises(ThresholdBracketError, match="both"):
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

    def test_reproducible(self, path4):
        a = find_threshold(path4, "nheat", "proximity", 0.5, 3.0)
        b = find_threshold(path4, "nheat", "proximity", 0.5, 3.0)
        assert a == b


class TestExportEmbedding:
    def test_heat_embedding_csv(self, tmp_path, path4, path4_gm):
        from graphprox import compute_kernel, kernel_to_sq_dist

        out = tmp_path / "coords.csv"
        coords = export_embedding(path4, "heat", 1.0, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,x4"
        assert len(lines) == 5
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, coords)
        expected = kernel_to_sq_dist(compute_kernel(path4_gm, "heat", 1.0).matrix)
        assert np.abs(pairwise_sq_dists(parsed) - expected).max() <= 1e-7

    def test_two_point_embedding(self, tmp_path):
        from graphprox import load_graph

        g = load_graph("1 2 1")
        coords = export_embedding(g, "regL", 1.0, str(tmp_path / "two.csv"))
        assert coords.shape == (2, 2)

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
        assert data["schema_version"] == 1
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

    @pytest.mark.parametrize("argv", [
        ["audit", "paper:path4", "--measure", "heat:nan", "--check", "psd"],
        ["audit", "paper:path4", "--measure", "heat:inf", "--check", "psd"],
        ["audit", "paper:path4", "--measure", "regL:1.0", "--check", "psd", "--tol", "-1"],
        ["audit", "paper:path4", "--measure", "regL:1.0", "--check", "psd", "--tol", "nan"],
        ["threshold", "paper:path4", "--measure", "heat", "--property", "proximity",
         "--range", "0.1", "1.0", "--tol", "-1"],
    ])
    def test_meaningless_input_is_usage_error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "domain" in err or "tolerance" in err
