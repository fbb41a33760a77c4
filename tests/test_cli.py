import json

import numpy as np
import pytest

from magpolaron import ConvergenceError
from magpolaron.cli import (CSV_HEADER, EXIT_CONVERGENCE, EXIT_INVARIANT,
                            EXIT_OK, EXIT_VALIDATION, main, parse_b,
                            read_sweep_csv)


class TestParsing:
    def test_e_shorthand(self):
        assert parse_b("e10") == pytest.approx(np.exp(10.0), rel=1e-15)
        assert parse_b("1e8") == 1e8
        assert parse_b("403.4") == 403.4

    def test_bad_flag_exits_validation(self, capsys):
        assert main(["minimize", "--B", "nonsense"]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err


class TestOned:
    def test_unit_case(self, capsys):
        assert main(["oned", "--a", "1", "--b", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-0.0833333" in out

    def test_strong_case(self, capsys):
        assert main(["oned", "--a", "2", "--b", "3"]) == EXIT_OK
        assert "-6" in capsys.readouterr().out

    def test_degenerate_case(self, capsys):
        assert main(["oned", "--a", "1", "--b", "0"]) == EXIT_OK
        assert "degenerate" in capsys.readouterr().out


class TestMinimizeAndTrial:
    def test_minimize_reports_binding(self, capsys):
        assert main(["minimize", "--B", "e8", "--alpha", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "E_total - B  = -" in out

    def test_minimize_deficit_from_components_at_e30(self, capsys):
        # the ulp of B = e^30 is ~2e-3, so E_total - B would lose the deficit
        # to rounding; it must come from the kinetic and Coulomb components
        from magpolaron import PhysParams, pekar_minimize
        sol, bd = pekar_minimize(PhysParams(parse_b("e30"), 1.0))
        assert sol.energy == bd.longitudinal_kinetic + bd.coulomb
        assert main(["minimize", "--B", "e30"]) == EXIT_OK
        expected = format(sol.energy, ".17g")
        assert f"E_total - B  = {expected}\n" in capsys.readouterr().out

    def test_minimize_zero_coupling(self, capsys):
        assert main(["minimize", "--B", "e8", "--alpha", "0"]) == EXIT_OK
        assert "degenerate" in capsys.readouterr().out

    def test_trial_prints_exact_kinetic(self, capsys):
        assert main(["trial", "--B", "e12", "--alpha", "1"]) == EXIT_OK
        assert "(lnB)^2/48 = 3" in capsys.readouterr().out


SWEEP_COLUMNS = ["B", "alpha", "E_total", "E_kin3", "E_coulomb", "trial_E",
                 "cert_bound", "iters", "residual"]


class TestSweepCsv:
    def test_header_literal(self):
        assert CSV_HEADER == SWEEP_COLUMNS

    def test_schema_and_binding(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--alpha", "1", "--B", "e10,e12,e14",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 4
        records = read_sweep_csv(str(out))
        for r in records:
            assert r.E_total < r.B

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--alpha", "1", "--B", "e10,e11", "--out", str(a)])
        main(["sweep", "--alpha", "1", "--B", "e10,e11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_worker_env_override_preserves_output(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--alpha", "1", "--B", "e10,e11", "--out", str(a)])
        monkeypatch.setenv("MAGPOLARON_WORKERS", "2")
        main(["sweep", "--alpha", "1", "--B", "e10,e11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_float_fields_roundtrip_exactly(self, tmp_path):
        from magpolaron import sweep as run_sweep
        out = tmp_path / "s.csv"
        main(["sweep", "--alpha", "1", "--B", "e10", "--out", str(out)])
        direct = run_sweep([10.0], 1.0)
        loaded = read_sweep_csv(str(out))
        assert loaded[0] == direct[0]  # 17 significant digits: exact restore

    def test_reader_parses_each_column(self, tmp_path):
        out = tmp_path / "s.csv"
        row = ["3", "1", "2.5", "0.25", "-0.75", "2.75", "", "17", "1e-9"]
        out.write_text(",".join(SWEEP_COLUMNS) + "\n" + ",".join(row) + "\n")
        (r,) = read_sweep_csv(str(out))
        assert r.cert_bound is None
        assert r.iters == 17 and isinstance(r.iters, int)
        assert (r.B, r.E_coulomb, r.residual) == (3.0, -0.75, 1e-9)

    @pytest.mark.parametrize("column,text", [
        ("E_total", ""), ("iters", ""), ("iters", "1.5"), ("residual", "x")])
    def test_reader_rejects_blank_or_malformed(self, tmp_path, column, text):
        out = tmp_path / "s.csv"
        row = dict(zip(SWEEP_COLUMNS,
                       ["3", "1", "2.5", "0.25", "-0.75", "2.75", "", "17", "1"]))
        row[column] = text
        out.write_text(",".join(SWEEP_COLUMNS) + "\n"
                       + ",".join(row.values()) + "\n")
        with pytest.raises(ValueError):
            read_sweep_csv(str(out))

    def test_fit_truncated_row_exits_validation(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        out.write_text(",".join(SWEEP_COLUMNS) + "\n3,1,2.5\n")
        assert main(["fit", "--in", str(out)]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_fit_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        main(["sweep", "--alpha", "1", "--B", "e10,e12,e14,e16,e18",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["fit", "--in", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "c2 =" in text and "residual rms" in text

    def test_fit_too_few_points(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        main(["sweep", "--alpha", "1", "--B", "e10,e12", "--out", str(out)])
        assert main(["fit", "--in", str(out)]) == EXIT_VALIDATION


class TestCertifyCommand:
    def test_json_payload(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["certify", "--B", "1e8", "--alpha", "1",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["valid"] is True
        assert payload["p0_bound"] < 1e8
        for key in ("kappa", "kappa1", "kappa2", "R", "localization_error",
                    "block_error", "mode_count_error", "projection_constant",
                    "firstcut_constant", "assumptions"):
            assert key in payload

    def test_json_key_set(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["certify", "--B", "e12", "--out", str(out)]) == EXIT_OK
        assert set(json.loads(out.read_text())) == {
            "B", "alpha", "K", "K3", "Kperp", "gamma", "L", "M",
            "kappa", "kappa1", "kappa2", "R", "localization_error",
            "block_error", "mode_count_error", "projection_constant",
            "firstcut_constant", "I_value", "p0_bound",
            "conditional_full_bound", "validity", "valid", "assumptions"}

    @pytest.mark.parametrize("extra", [[], ["--K3", "60"]],
                             ids=["K", "K_and_K3"])
    def test_explicit_K(self, tmp_path, extra):
        out = tmp_path / "c.json"
        main(["certify", "--B", "e12", "--K", "1e9", *extra, "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["K"] == 1e9
        assert payload["kappa"] == 1.0 - 8.0 / (np.pi * 1e9)

    def test_conditional_flag(self, tmp_path):
        out = tmp_path / "c.json"
        main(["certify", "--B", "1e8", "--alpha", "1", "--C_M", "1.5",
              "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["conditional_full_bound"] < payload["p0_bound"]

    def test_cutoff_overrides(self, tmp_path):
        out = tmp_path / "c.json"
        main(["certify", "--B", "1e8", "--alpha", "1", "--Kperp", "5000",
              "--K3", "60", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["Kperp"] == 5000.0
        assert payload["K3"] == 60.0


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 2\nb = 3\n# comment\n")
        assert main(["--config", str(cfg), "oned"]) == EXIT_OK
        assert "a=2.0 b=3.0" in capsys.readouterr().out

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 2\nb = 3\n")
        assert main(["--config", str(cfg), "oned", "--b", "1"]) == EXIT_OK
        assert "a=2.0 b=1.0" in capsys.readouterr().out

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals\n")
        assert main(["--config", str(cfg), "verify"]) == EXIT_VALIDATION


class TestExitCodes:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 8
        assert "[FAIL]" not in out

    def test_convergence_maps_to_exit_two(self, monkeypatch, capsys):
        import magpolaron.cli as cli

        def boom(*args, **kwargs):
            raise ConvergenceError("stalled", iterations=7, residual=1.0)

        monkeypatch.setattr(cli.pekar, "pekar_minimize", boom)
        assert main(["minimize", "--B", "e10"]) == EXIT_CONVERGENCE
        assert "convergence failure" in capsys.readouterr().err

    def test_decompose_ok(self, capsys):
        assert main(["decompose", "--B", "e6"]) == EXIT_OK
        assert "within bound: yes" in capsys.readouterr().out

    def test_oned_disagreement_maps_to_exit_three(self, monkeypatch, capsys):
        import magpolaron.cli as cli
        from magpolaron import OneDSolution, Field1D, standard_grid
        import numpy as np

        g = standard_grid()
        fake_min = Field1D(g, np.exp(-g.points() ** 2 / 2.0))

        def wrong(problem, grid, tol, **kwargs):
            return OneDSolution(-1.0, fake_min, 3, 0.0)

        monkeypatch.setattr(cli, "solve_numeric", wrong)
        assert main(["oned", "--a", "1", "--b", "1"]) == EXIT_INVARIANT


class TestCertifiedSweep:
    def test_cert_bound_column_populated(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--alpha", "1", "--B", "e12", "--certify",
                     "--out", str(out)]) == EXIT_OK
        records = read_sweep_csv(str(out))
        assert records[0].cert_bound is not None
        assert records[0].cert_bound < records[0].E_total
