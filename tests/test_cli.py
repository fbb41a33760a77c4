import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magpolaron
from magpolaron import ConvergenceError, ParameterError, cli
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
        ["minimize", "--B", "1e400"], ["certify", "--B", "inf"],
        ["minimize", "--B", "eabc"]])
    def test_overflowing_or_nonfinite_b_refused(self, argv, capsys):
        # e^710 overflows a double: a typed refusal naming the token, with
        # no numpy warning and no later, misleading grid error; an e token
        # that is no number is refused the same way
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


def test_cli_import_leaves_the_process_machinery_out():
    # a fresh interpreter: sweep imports multiprocessing on its first
    # fan-out; no executor is imported (numpy.testing, under scipy.special,
    # imports the bare concurrent.futures package itself)
    src = str(Path(magpolaron.__file__).resolve().parents[1])
    code = ("import sys, magpolaron.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent.futures.process',"
            " 'concurrent.futures.thread'))))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_sweep_on_two_workers(tmp_path):
    # stdout is a pipe, so block-buffered: a forked child must not write a
    # copy of it, and the bytes must be those of one worker
    src = str(Path(magpolaron.__file__).resolve().parents[1])
    runs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "magpolaron", "sweep", "--B", "e10,e12,e14",
             "--workers", workers, "--out", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        runs.append((proc.stdout.replace(str(path), "OUT"), path.read_bytes()))
    assert runs[1] == runs[0]
    assert runs[0][0].count("\n") == 4


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
                                      ("1e-150", "1e150"), ("1e100", "1e-160"),
                                      ("1e60", "1e-158"), ("1e200", "1e-250"),
                                      ("1e-100", "1e160")])
    def test_agreement_relative_at_every_mass(self, a, b, capsys):
        # the gate is relative to |exact|, and every mass runs the one
        # unit-mass problem; the exact value holds where b^2 or a^3 alone
        # leaves the normal doubles but -b^2 a^3/12 does not
        assert main(["oned", "--a", a, "--b", b]) == EXIT_OK
        assert "agreement within tol=1e-08: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--b", "nan"], ["--b", "inf"], ["--a", "inf"], ["--b", "1e160"],
        ["--a", "1e120"], ["--b", "1e-155"], ["--b", "1e-300"],
        ["--a", "1e-300", "--b", "1"]])
    def test_nonfinite_or_overflowing_input_refused(self, flags, capsys):
        # at b > 0, b^2 a^3 must be a finite normal double (a subnormal or
        # -0 energy was printed as agreeing): one typed error line, no
        # traceback and no numpy warning
        assert main(["oned", *flags]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", [["oned", "--b", "3"],
                                     ["minimize", "--B", "e10"],
                                     ["oned", "--b", "0"],
                                     ["minimize", "--B", "e10", "--alpha", "0"]])
@pytest.mark.parametrize("tol", ["inf", "1e300", "1", "0", "-1e-8", "nan"])
def test_meaningless_tol_refused(command, tol, capsys):
    # the flow stops once its residual is below sqrt(tol) (1 + |E|): a tol
    # of 1 or more accepted the first step and printed it as the minimum;
    # at zero coupling, where no flow runs, the parser refuses it
    assert main([*command, "--tol", tol]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: ") and "tol" in err[0]


class TestMinimizeAndTrial:
    def test_minimize_reports_binding(self, capsys):
        assert main(["minimize", "--B", "e8", "--alpha", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "E_total - B  = -" in out

    def test_minimize_deficit_from_components_at_e30(self, capsys):
        # the ulp of B = e^30 is ~2e-3, so E_total - B would lose the deficit
        # to rounding; it must come from the kinetic and Coulomb components
        from magpolaron import PhysParams, pekar_minimize
        _, bd = pekar_minimize(PhysParams(parse_b("e30"), 1.0))
        assert bd.deficit == bd.longitudinal_kinetic + bd.coulomb
        assert main(["minimize", "--B", "e30"]) == EXIT_OK
        expected = format(bd.deficit, ".17g")
        assert f"E_total - B  = {expected}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["minimize", "--B", "e10", "--alpha", "1e150"],
        ["minimize", "--B", "e10", "--alpha", "1e100"],
        ["minimize", "--B", "e10", "--alpha", "1e160"],
        ["trial", "--B", "e10", "--alpha", "1e308"],
        ["minimize", "--B", "e10", "--alpha", "1e8"],
        ["minimize", "--B", "e709", "--alpha", "1e155"],
        ["minimize", "--B", "e709", "--alpha", "1e-300"],
        ["minimize", "--B", "e10", "--alpha", "1e-200"],
        ["minimize", "--B", "e10", "--alpha", "1e-160"],
        ["sweep", "--B", "e10,e12", "--alpha", "1e-300"],
        ["trial", "--B", "e10", "--alpha", "1e-320"]])
    def test_overflowing_coupling_refused(self, argv, capfd, tmp_path,
                                          monkeypatch):
        # an energy that leaves the doubles is a typed refusal, not a
        # numpy warning, a stalled flow or a printed -inf; at ln B = 709 the
        # deficit, alpha^2 times that at (B/alpha^2, 1), is -1.4e307 at
        # alpha = 1e154 and leaves the doubles by 1e155.  A deficit below
        # the normal doubles at alpha > 0 (0 at 1e-200, ~1e-316 at 1e-160)
        # is refused too, not printed as a value or written as a 0,-0 row,
        # and so is the trial's Coulomb energy (~4e-320 at 1e-320), which
        # the kinetic term hides from the deficit
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_VALIDATION
        captured = capfd.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "inf" not in captured.out
        assert not (tmp_path / "sweep.csv").exists()

    def test_coupling_beyond_the_log_regime(self, capfd):
        # at ln B = 10 the polaron's scale b/4 reaches 20 sqrt(B) between
        # alpha = 3e6 and 1e7; beyond it the refusal names what to change
        assert main(["minimize", "--B", "e10", "--alpha", "3e6"]) == EXIT_OK
        assert capfd.readouterr().err == ""
        code = main(["minimize", "--B", "e10", "--alpha", "1e7"])
        err = capfd.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lower alpha or raise B" in err and "half_width" not in err

    def test_minimize_runs_from_weak_to_strong_coupling(self, capfd):
        # one scale rule for every (B, alpha): no grid sized from alpha ln B
        # refuses the weak or the strong end
        for lnB in ("0.5", "2", "5", "10", "30", "100", "709"):
            for alpha in ("0.1", "1", "5", "50", "300"):
                argv = ["minimize", "--B", f"e{lnB}", "--alpha", alpha]
                assert main(argv) == EXIT_OK, argv
                captured = capfd.readouterr()
                assert captured.err == "", argv
                assert "E_total - B  = -" in captured.out, argv

    def test_weak_coupling_kinetic_term(self, capsys):
        # f k^2 f underflowed on the grid of alpha = 1e-120: kinetic(3)
        # printed -0 and the deficit was twice the rescaling identity's
        from magpolaron import PhysParams, pekar_minimize
        assert main(["minimize", "--B", "e10", "--alpha", "1e-120"]) == EXIT_OK
        out = capsys.readouterr().out
        kin = float(out.split("kinetic(3)   = ")[1].split()[0])
        deficit = float(out.split("E_total - B  = ")[1].split()[0])
        _, low = pekar_minimize(PhysParams(parse_b("e10") / 1e-240, 1.0))
        assert kin > 0
        assert deficit == pytest.approx(1e-240 * low.deficit, rel=1e-13,
                                        abs=0.0)

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

    def test_stdout_trial_deficit_from_components(self, tmp_path, capsys):
        # trial_E - B loses the trial deficit to B's ulp: it printed -256 at
        # e40 and +0 at e700, where the components give -270.01 and -9.05e4
        from magpolaron.pekar import trial_energy
        out = tmp_path / "s.csv"
        assert main(["sweep", "--B", "e40,e700", "--alpha", "5",
                     "--out", str(out)]) == EXIT_OK
        printed = [line.split("trial-B=")[1] for line in
                   capsys.readouterr().out.splitlines() if "trial-B=" in line]
        assert printed == [
            format(trial_energy(parse_b(tok), 5.0).deficit, "+.8g")
            for tok in ("e40", "e700")]

    def test_one_trial_energy_per_point(self, tmp_path, capsys,
                                        monkeypatch):
        # the stdout trial deficit is the one _sweep_point computed; stdout
        # and the CSV bytes are the same on one worker and on two
        from magpolaron import cli, pekar
        calls, trial = [], pekar.trial_energy
        monkeypatch.setattr(pekar, "trial_energy",
                            lambda *a: calls.append(a) or trial(*a))
        out = {}
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.csv"
            assert main(["sweep", "--B", "e10,e12,e14", "--out", str(path),
                         "--workers", workers]) == EXIT_OK
            out[workers] = (path.read_bytes(), capsys.readouterr().out.replace(
                str(path), "OUT"))
        # one per point: three on one worker, then this process's share of
        # two workers, e10 and e14 (the child's e12 is not seen here)
        assert calls == [(np.exp(x), 1.0) for x in (10.0, 12.0, 14.0, 10.0,
                                                    14.0)]
        assert out["1"] == out["2"]
        printed = [line.split("trial-B=")[1] for line in
                   out["1"][1].splitlines() if "trial-B=" in line]
        assert printed == [format(trial(np.exp(x), 1.0).deficit, "+.8g")
                           for x in (10.0, 12.0, 14.0)]
        assert cli.SweepRecord.trial_deficit is None  # not a CSV column
        assert "trial_deficit" not in CSV_HEADER

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
        from magpolaron.cli import sweep as run_sweep
        out = tmp_path / "s.csv"
        main(["sweep", "--alpha", "1", "--B", "e10", "--out", str(out)])
        direct = run_sweep([np.exp(10.0)], 1.0)
        loaded = read_sweep_csv(str(out))
        assert loaded[0] == direct[0]  # 17 significant digits: exact restore

    def test_sweep_solves_at_the_given_B(self, tmp_path):
        # the B stored and solved at is the token's, not exp(log B)
        from magpolaron import PhysParams, pekar_minimize
        out = tmp_path / "s.csv"
        assert main(["sweep", "--B", "3e12,1e8", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["100000000",
                                                       "3000000000000"]
        for r in read_sweep_csv(str(out)):
            _, bd = pekar_minimize(PhysParams(r.B, 1.0))
            assert (r.E_kin3, r.E_coulomb) == (bd.longitudinal_kinetic,
                                               bd.coulomb)

    @pytest.mark.parametrize("token", ["0", "-5", ","])
    def test_sweep_refuses_B_at_most_one(self, token, tmp_path, capsys):
        # np.log printed RuntimeWarnings before the refusal; a list of no B
        # values is refused before any point runs
        out = tmp_path / "s.csv"
        assert main(["sweep", "--B", token, "--out", str(out)]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("column, text", [
        ("E_coulomb", "nan"), ("B", "inf"), ("B", "0.5"), ("E_coulomb", None)])
    def test_fit_unfittable_row_exits_validation(self, tmp_path, capfd,
                                                 column, text):
        # refused before any logarithm: one error line, and no LAPACK or
        # numpy message on the stderr descriptor; text None drops the column
        rows = [{"B": repr(float(np.exp(x))), "alpha": "1", "E_total": "0",
                 "E_kin3": "1", "E_coulomb": "-2", "trial_E": "0",
                 "cert_bound": "", "iters": "10", "residual": "0"}
                for x in (10.0, 12.0, 14.0, 16.0)]
        rows[1][column] = text
        out = tmp_path / "s.csv"
        header = [c for c in SWEEP_COLUMNS if text is not None or c != column]
        lines = [header] + [[r[c] for c in header] for r in rows]
        out.write_text("".join(",".join(line) + "\n" for line in lines))
        assert main(["fit", "--in", str(out)]) == EXIT_VALIDATION
        captured = capfd.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")

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


class TestSweepFanOut:
    """sweep on w workers: this process and w - 1 forked children, each on
    every w-th point.  A forked child runs the cli._sweep_point a test has
    monkeypatched; every test ends with no child left."""

    # shares [e10 e12 e14] [e11 e13] on two workers, [e10 e13] [e11 e14]
    # [e12] on three
    FIVE = "e10,e11,e12,e13,e14"

    @pytest.fixture(autouse=True)
    def no_child_left(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three on any box
        yield
        assert multiprocessing.active_children() == []

    @staticmethod
    def run_sweep(capsys, tmp_path, B, workers):
        """exit code, CSV bytes (None if none), stdout, stderr."""
        path = tmp_path / f"w{workers}.csv"
        code = main(["sweep", "--B", B, "--out", str(path),
                     "--workers", str(workers)])
        captured = capsys.readouterr()
        return (code, path.read_bytes() if path.exists() else None,
                captured.out.replace(str(path), "OUT"), captured.err)

    @staticmethod
    def fail_at(monkeypatch, failures):
        """cli._sweep_point raising failures[x] at B = e^x, else a record."""
        def point(job):
            exc = failures.get(round(np.log(job[0])))
            if exc is not None:
                raise exc
            record = cli.SweepRecord(job[0], job[1], 0.0, 0.0, 0.0, 0.0, None,
                                     0, 0.0)
            record.trial_deficit = 0.0
            return record

        monkeypatch.setattr(cli, "_sweep_point", point)

    @pytest.mark.parametrize("B", [
        ",".join(f"e{x}" for x in range(10, 31, 2)), "e10,e12,e14,e16,e18"],
        ids=["ladder", "five"])
    def test_bytes_match_one_worker(self, capsys, tmp_path, B):
        # the 11-point ladder, and 5 points in shares of 2, 2 and 1
        runs = [self.run_sweep(capsys, tmp_path, B, w) for w in (1, 2, 3)]
        assert runs[0][0] == EXIT_OK and runs[0][3] == ""
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing", [(10, 11), (11, 13), (13, 14)])
    def test_first_failing_point_in_input_order(self, monkeypatch, capsys,
                                                tmp_path, failing, workers):
        # each share stops at its own first failure and the lowest point
        # wins: this process's e10; a child's e11 over this process's e13
        # (three workers); a child's e13 over this process's e14 (two)
        self.fail_at(monkeypatch, {x: ParameterError(f"bad point e{x}")
                                   for x in failing})
        assert self.run_sweep(capsys, tmp_path, self.FIVE, workers) == (
            EXIT_VALIDATION, None, "", f"error: bad point e{failing[0]}\n")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_convergence_failure_keeps_its_counts(self, monkeypatch, capsys,
                                                  tmp_path, workers):
        # e11 runs in a child on two and three workers: the error crosses
        # the pipe with its iterations and residual
        self.fail_at(monkeypatch, {11: ConvergenceError(
            "flow stalled at e11", iterations=7, residual=0.25)})
        assert self.run_sweep(capsys, tmp_path, self.FIVE, workers) == (
            EXIT_CONVERGENCE, None, "", "convergence failure: flow stalled at "
            "e11 (iterations=7, residual=0.25)\n")

    def test_dead_child_is_one_error_line(self, monkeypatch, capsys,
                                          tmp_path):
        # a child that exits without sending: its exit code, exit 1, no
        # traceback
        self.fail_at(monkeypatch, {})
        point, parent = cli._sweep_point, os.getpid()
        monkeypatch.setattr(cli, "_sweep_point", lambda job: (
            os._exit(9) if os.getpid() != parent else point(job)))
        assert self.run_sweep(capsys, tmp_path, "e10,e12,e14", 2) == (
            EXIT_VALIDATION, None, "", "error: sweep worker exited with code "
            "9 before sending its points\n")


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

    def test_narrow_cutoff_converges(self, tmp_path):
        # at B = e^8, alpha = 4 the scale b/4 ~ 1448 put K3 ~ 23.3 inside
        # the flow's first dual cell, and the flow ran out its budget
        # (exit 2); the scale is now at most K3
        out = tmp_path / "c.json"
        assert main(["certify", "--B", "e8", "--alpha", "4",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["valid"] is True
        assert payload["I_value"] == pytest.approx(-534.7217989487608,
                                                   rel=1e-10, abs=0.0)

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

    @pytest.mark.parametrize("flags", [
        ["--L", "1e-300"], ["--L", "1e200"], ["--L", "-1"],
        ["--M", "1" + "0" * 400], ["--M", "-3"], ["--C_M", "nan"],
        ["--K", "e700", "--K3", "1e200"], ["--K3", "-60"],
        ["--K", "e700", "--Kperp", "1e200"], ["--Kperp", "-5"],
        ["--K3", "1e30"], ["--gamma", "1.5"], ["--C_M", "inf"],
        ["--C_M", "1e307"]])
    def test_unformable_override_refused(self, flags, capfd):
        # pi^2/L^2, M as a double and the squares of the chain must exist,
        # and C_M and its penalty must be finite doubles >= 0: one error
        # line, no traceback and no numpy warning
        assert main(["certify", "--B", "e10", *flags]) == EXIT_VALIDATION
        captured = capfd.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("lnB", ["708.7", "709.5", "709.78"])
    def test_top_of_the_B_range(self, lnB, capfd):
        # pi B overflowed in kappa2 (a numpy warning from ln B ~ 708.64) and
        # 2B in kappa1 (exit 1 from ln B ~ 709.09)
        assert main(["certify", "--B", f"e{lnB}"]) == EXIT_OK
        captured = capfd.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith("valid=True ")

    def test_underflowing_cutoff_ratio(self, capfd):
        # K3^2/(2B) underflows: kappa1 is -2.5e153, an invalid certificate,
        # not an error about the special function
        assert main(["certify", "--B", "e300", "--K3", "1e-150"]) == \
            EXIT_INVARIANT
        captured = capfd.readouterr()
        assert captured.err == ("error: invalid certificate: required "
                                "validity flags fail: kappa1_positive\n")
        payload = json.loads(captured.out[:captured.out.rindex("valid=")])
        assert payload["validity"]["kappa1_positive"] is False
        assert payload["kappa1"] < -1e153

    def test_invalid_certificate_says_why(self, capfd):
        # exit 3 names the failed required flags, and only those: the
        # advisory kappa_gap_small fails here too
        assert main(["certify", "--B", "e20", "--alpha", "60"]) == \
            EXIT_INVARIANT
        captured = capfd.readouterr()
        payload = json.loads(captured.out[:captured.out.rindex("valid=")])
        assert not payload["validity"]["kappa_gap_small"]
        assert captured.err.splitlines() == [
            "error: invalid certificate: required validity flags fail: "
            "kappa1_positive"]

    def test_invalid_certificate_with_nonfinite_bound(self, capfd,
                                                      monkeypatch):
        # every required flag holds but p0_bound is not finite
        import dataclasses
        from magpolaron import certificate
        certify = certificate.certify_projected
        monkeypatch.setattr(certificate, "certify_projected",
                            lambda *a: dataclasses.replace(
                                certify(*a), p0_bound=float("nan"),
                                valid=False))
        assert main(["certify", "--B", "e20"]) == EXIT_INVARIANT
        assert capfd.readouterr().err.splitlines() == [
            "error: invalid certificate: p0_bound = nan is not finite"]

    def test_default_cutoff_domain(self, capfd):
        # gamma >= 1 at B = 1e3, alpha = 0: one line naming the default
        # cutoffs' domain, not the --gamma flag nobody set
        assert main(["certify", "--B", "1e3", "--alpha", "0"]) == \
            EXIT_VALIDATION
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: default cutoffs require ln B > ")

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

        monkeypatch.setattr(cli, "sweep", record)
        if env is None:
            monkeypatch.delenv("MAGPOLARON_WORKERS", raising=False)
        else:
            monkeypatch.setenv("MAGPOLARON_WORKERS", env)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "sweep", "--B", "e10",
                     "--out", str(tmp_path / "s.csv"), *flag]) == EXIT_OK
        assert seen == [expected]

    @pytest.mark.parametrize("flag, config, env", [
        (["--workers", "0"], "# no keys\n", None),
        (["--workers", "-3"], "# no keys\n", None),
        ([], "workers = 0\n", None),
        ([], "# no keys\n", "0")],
        ids=["flag-zero", "flag-negative", "config", "env"])
    def test_workers_below_one_refused(self, tmp_path, monkeypatch, capsys,
                                       flag, config, env):
        # refused wherever the count comes from, as a malformed flag is,
        # and not run serially
        import magpolaron.cli as cli
        monkeypatch.setattr(cli, "sweep", None)  # never reached
        if env is None:
            monkeypatch.delenv("MAGPOLARON_WORKERS", raising=False)
        else:
            monkeypatch.setenv("MAGPOLARON_WORKERS", env)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "sweep", "--B", "e10",
                     "--out", str(tmp_path / "s.csv"), *flag]) \
            == EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "--workers" in err[0]
        assert not (tmp_path / "s.csv").exists()


class TestParserReuse:
    """One parser per process for calls that bring no defaults; a call with
    config entries or MAGPOLARON_WORKERS parses with a parser of its own."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import magpolaron.cli as cli
        calls = []
        real = cli.build_parser

        def counted():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.delenv("MAGPOLARON_WORKERS", raising=False)
        return calls

    @pytest.fixture
    def seen_workers(self, monkeypatch):
        import magpolaron.cli as cli
        seen = []

        def record(Bs, alpha, **kwargs):
            seen.append(kwargs["workers"])
            return []

        monkeypatch.setattr(cli, "sweep", record)
        return seen

    def _sweep(self, tmp_path, *extra):
        return main([*extra, "sweep", "--B", "e10",
                     "--out", str(tmp_path / "s.csv")])

    def test_plain_calls_build_once(self, builds, capsys):
        for _ in range(2):
            assert main(["minimize", "--B", "e10", "--alpha", "0"]) == EXIT_OK
        assert len(builds) == 1

    def test_config_defaults_do_not_leak(self, builds, seen_workers,
                                         tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 3\n")
        assert self._sweep(tmp_path, "--config", str(cfg)) == EXIT_OK
        assert self._sweep(tmp_path) == EXIT_OK
        assert seen_workers == [3, 1]
        assert len(builds) == 2  # the shared parser, then the config call's

    def test_environment_read_at_each_call(self, builds, seen_workers,
                                           monkeypatch, tmp_path, capsys):
        assert self._sweep(tmp_path) == EXIT_OK
        monkeypatch.setenv("MAGPOLARON_WORKERS", "2")
        assert self._sweep(tmp_path) == EXIT_OK
        monkeypatch.delenv("MAGPOLARON_WORKERS")
        assert self._sweep(tmp_path) == EXIT_OK
        assert seen_workers == [1, 2, 1]

    def test_replaced_command_is_called(self, builds, monkeypatch, capsys):
        # the shared parser calls the module's current command functions
        import magpolaron.cli as cli
        assert main(["minimize", "--B", "e10", "--alpha", "0"]) == EXIT_OK
        monkeypatch.setattr(cli, "cmd_minimize", lambda args: 7)
        assert main(["minimize", "--B", "e10", "--alpha", "0"]) == 7
        assert len(builds) == 1


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
        # an unresolved density: the Coulomb paths part by 1.9e-6 of D;
        # decompose reaches them through the sampled trial state
        import magpolaron.cli as cli
        from magpolaron import (Field1D, Grid1D, PekarProductState,
                                PhysParams, mass)

        g = Grid1D(64, 10.0)
        f = Field1D(g, 1.0 / np.cosh(g.points() / 0.3))
        f = Field1D(g, f.values / np.sqrt(mass(f)))

        def coarse(B, alpha=1.0):
            return PekarProductState(PhysParams(B, alpha), f)

        monkeypatch.setattr(cli.pekar, "trial_state", coarse)
        assert main(["decompose", "--B", "1e4"]) == EXIT_VALIDATION
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

        g = Grid1D(1024, 160.0)  # 40/mu at mu = a b/4, solve_numeric's grid
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

        g = Grid1D(1024, 40.0 / (1e-5 / 4.0))  # 40/mu at mu = b/4
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
