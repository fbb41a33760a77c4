import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magpolaron
from magpolaron import ConvergenceError
from magpolaron.cli import (CSV_HEADER, EXIT_CONVERGENCE, EXIT_INVARIANT,
                            EXIT_OK, EXIT_VALIDATION, build_parser, main,
                            parse_b, read_sweep_csv)


class TestParsing:
    def test_e_shorthand(self):
        assert parse_b("e10") == pytest.approx(np.exp(10.0), rel=1e-15)
        assert parse_b("1e8") == 1e8
        assert parse_b("403.4") == 403.4

    def test_bad_flag_exits_validation(self, capsys):
        assert main(["minimize", "--B", "nonsense"]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["minimize", "--B", "e710"], ["sweep", "--B", "e10,e710"],
        ["minimize", "--B", "1e400"], ["certify", "--B", "inf"]])
    def test_overflowing_or_nonfinite_b_refused(self, argv, capsys):
        # e^710 overflows a double: a typed refusal naming the token, with
        # no numpy warning and no later, misleading grid error
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert argv[2].split(",")[-1] in err[0]

    @pytest.mark.parametrize("argv", [
        ["minimize", "--B", "e10", "--alpha", "x"],
        ["sweep", "--B", "e10", "--workers", "two"],
        ["minimize"], ["bogus"], []])
    def test_malformed_command_line_exits_validation(self, argv, capsys):
        # exit 2 is the convergence-failure code, not argparse's
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--help"])
        assert exc.value.code == 0
        assert "--alpha" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    def test_certify_refuses_bad_alpha(self, alpha, capsys):
        assert main(["certify", "--B", "e10", "--alpha", alpha]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "alpha" in err[0] and "cutoff" not in err[0]


def test_cli_import_skips_integrate_and_optimize():
    # a fresh interpreter: the CLI's cold start must not pay for QUADPACK
    # or the optimizers that scipy.integrate pulls in
    src = str(Path(magpolaron.__file__).resolve().parents[1])
    code = ("import sys, magpolaron.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_minimize_at_e709():
    # a fresh interpreter through `python -m magpolaron`: a numpy warning on
    # stderr, invisible to in-process tests, fails here
    src = str(Path(magpolaron.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "magpolaron", "minimize", "--B", "e709",
         "--alpha", "1"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    (line,) = [x for x in proc.stdout.splitlines() if "E_total - B" in x]
    assert np.isfinite(float(line.split("=")[1]))


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

    @pytest.mark.parametrize("b", ["1e-6", "1e-3", "0.1", "0.5", "0.99"])
    def test_weak_coupling_solved(self, b, capsys):
        # every coupling is solved as the unit-width problem; none is
        # refused for the width of its minimizer
        assert main(["oned", "--b", b]) == EXIT_OK
        assert "agreement within tol=1e-08: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("a, b", [("100", "1"), ("1e-5", "1e10"),
                                      ("1e-150", "1e150")])
    def test_agreement_relative_at_every_mass(self, a, b, capsys):
        # the gate is relative to |exact|, and every mass runs the one
        # unit-mass problem
        assert main(["oned", "--a", a, "--b", b]) == EXIT_OK
        assert "agreement within tol=1e-08: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--b", "nan"], ["--b", "inf"], ["--a", "inf"], ["--b", "1e160"],
        ["--a", "1e120"]])
    def test_nonfinite_or_overflowing_input_refused(self, flags, capsys):
        # b^2 a^3 must be a finite double: one typed error line, no
        # traceback and no numpy warning
        assert main(["oned", *flags]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")


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

    @pytest.mark.parametrize("b_token", ["e0.5", "1.000000000001"])
    def test_trial_below_e(self, b_token, capsys):
        # the trial state exists at every B > 1; only the decomposition's
        # main coefficient needs B > e
        assert main(["trial", "--B", b_token]) == EXIT_OK
        assert "E_trial" in capsys.readouterr().out

    def test_sweep_below_e(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--B", "e0.5,e1,e10", "--out", str(out)]) \
            == EXIT_OK
        records = read_sweep_csv(str(out))
        assert len(records) == 3
        for r in records:
            assert r.E_total <= r.trial_E
        capsys.readouterr()
        assert main(["decompose", "--B", "e0.5"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "main coefficient" in err[0]


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

    def test_wrong_typed_value_names_its_flag(self, tmp_path, capsys):
        # a config value is typed like its flag, and refused like it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = x\n")
        assert main(["--config", str(cfg), "minimize", "--B", "e10"]) \
            == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "--alpha" in err[0]
        assert captured.out == ""

    def test_switch_key_ignored(self, tmp_path, capsys):
        # only value-taking options read the config; --certify is a switch
        cfg = tmp_path / "run.cfg"
        cfg.write_text("certify = yes\n")
        out = tmp_path / "s.csv"
        assert main(["--config", str(cfg), "sweep", "--B", "e10",
                     "--out", str(out)]) == EXIT_OK
        assert read_sweep_csv(str(out))[0].cert_bound is None

    @pytest.mark.parametrize("flag, config, env, expected", [
        (["--workers", "4"], "workers = 3\n", "2", 4),
        ([], "workers = 3\n", "2", 3),
        ([], "# no keys\n", "2", 2),
        ([], "# no keys\n", None, 1)],
        ids=["flag", "config", "env", "default"])
    def test_workers_precedence(self, tmp_path, monkeypatch, capsys, flag,
                                config, env, expected):
        import magpolaron.cli as cli
        seen = []

        def record(lnBs, alpha, **kwargs):
            seen.append(kwargs["workers"])
            return []

        monkeypatch.setattr(cli.pekar, "sweep", record)
        if env is None:
            monkeypatch.delenv("MAGPOLARON_WORKERS", raising=False)
        else:
            monkeypatch.setenv("MAGPOLARON_WORKERS", env)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "sweep", "--B", "e10",
                     "--out", str(tmp_path / "s.csv"), *flag]) == EXIT_OK
        assert seen == [expected]


def test_readme_command_block_parses():
    # every documented command line parses, so a renamed flag cannot leave
    # the README stale; nothing is run
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line\n")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("magpolaron ")]
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
    assert {argv[1] for argv in lines} == {
        "oned", "minimize", "trial", "sweep", "fit", "decompose", "certify",
        "verify"}


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

    def test_dual_path_disagreement_maps_to_exit_one(self, monkeypatch,
                                                     capsys):
        # an unresolved density: the Coulomb paths part by 1.9e-6 of D
        import magpolaron.cli as cli
        from magpolaron import (Field1D, Grid1D, PekarProductState,
                                PhysParams, mass)

        g = Grid1D(64, 10.0)
        f = Field1D(g, 1.0 / np.cosh(g.points() / 0.3))
        f = Field1D(g, f.values / np.sqrt(mass(f)))

        def coarse(B, alpha=1.0):
            return PekarProductState(PhysParams(B, alpha), f)

        monkeypatch.setattr(cli.pekar, "trial_state", coarse)
        assert main(["trial", "--B", "1e4"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "Coulomb paths disagree" in err[0]
        assert captured.out == ""

    def test_decompose_ok(self, capsys):
        assert main(["decompose", "--B", "e6"]) == EXIT_OK
        assert "within bound: yes" in capsys.readouterr().out

    def test_decompose_ledger_independent_of_alpha(self, capsys):
        # the trial state is the alpha-free sech profile on its own grid
        assert main(["decompose", "--B", "e15", "--alpha", "1"]) == EXIT_OK
        unit = capsys.readouterr().out
        assert main(["decompose", "--B", "e15", "--alpha", "5"]) == EXIT_OK
        assert capsys.readouterr().out == unit

    def test_verify_compares_deficits(self, monkeypatch, capsys):
        # at B = e^6 an error of 1e-7 of the deficit E - B is ~2.5e-10 of
        # the total; the classical-amplitude check must still fail
        import magpolaron.cli as cli
        exact = cli.pekar.coherent_infimum

        def off(state):
            bd = cli.pekar.pekar_energy(state)
            return exact(state) + 1e-7 * abs(bd.longitudinal_kinetic
                                            + bd.coulomb)

        monkeypatch.setattr(cli.pekar, "coherent_infimum", off)
        assert main(["verify"]) == EXIT_INVARIANT
        assert "[FAIL] classical-amplitude energy route" in \
            capsys.readouterr().out

    def test_oned_disagreement_maps_to_exit_three(self, monkeypatch, capsys):
        import magpolaron.cli as cli
        from magpolaron import OneDSolution, Field1D, Grid1D
        import numpy as np

        g = Grid1D(4096, 40.0)
        fake_min = Field1D(g, np.exp(-g.points() ** 2 / 2.0))

        def wrong(problem, tol):
            return OneDSolution(-1.0, fake_min, 3, 0.0)

        monkeypatch.setattr(cli, "solve_numeric", wrong)
        assert main(["oned", "--a", "1", "--b", "1"]) == EXIT_INVARIANT

    def test_oned_gate_relative_below_tol(self, monkeypatch, capsys):
        # |exact| = 8.3e-12 is below tol = 1e-8, where an absolute gate
        # would pass any energy; half the exact value must not agree
        import magpolaron.cli as cli
        from magpolaron import OneDSolution, Field1D, Grid1D, closed_form_energy
        import numpy as np

        g = Grid1D(1024, 1.6e7)  # 40/mu at mu = b/4
        fake_min = Field1D(g, np.exp(-(g.points() / 1e5) ** 2))

        def half(problem, tol):
            return OneDSolution(0.5 * closed_form_energy(problem), fake_min,
                                3, 0.0)

        monkeypatch.setattr(cli, "solve_numeric", half)
        assert main(["oned", "--a", "1", "--b", "1e-5"]) == EXIT_INVARIANT


class TestCertifiedSweep:
    def test_cert_bound_column_populated(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--alpha", "1", "--B", "e12", "--certify",
                     "--out", str(out)]) == EXIT_OK
        records = read_sweep_csv(str(out))
        assert records[0].cert_bound is not None
        assert records[0].cert_bound < records[0].E_total
