"""The experiment scripts, run through their main() on small inputs."""
import csv
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import magpolaron
from magpolaron import (ConvergenceError, certificate_to_dict,
                        certify_projected)
from magpolaron.cli import (CSV_HEADER, EXIT_CONVERGENCE, EXIT_INVARIANT,
                            EXIT_OK, EXIT_VALIDATION)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return runpy.run_path(str(SCRIPTS / name))["main"]()


def test_run_sweep(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    assert run_script("run_sweep.py", monkeypatch, "--lnB-min", "10",
                      "--lnB-max", "16", "--step", "2",
                      "--out", str(out)) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 5
    assert "fit: c2 =" in capsys.readouterr().out


def test_run_sweep_prints_the_trial_deficit(tmp_path, monkeypatch, capsys):
    # from its components: trial_E - B printed -256.000000 at e40, alpha 5
    assert run_script("run_sweep.py", monkeypatch, "--alpha", "5",
                      "--lnB-min", "40", "--lnB-max", "40", "--step", "1",
                      "--out", str(tmp_path / "sweep.csv")) == EXIT_OK
    (row,) = [line.split() for line in capsys.readouterr().out.splitlines()
              if line.startswith(" 40.0")]
    deficit = magpolaron.trial_energy(np.exp(40.0), 5.0).deficit
    assert row[2] == f"{deficit:.6f}" == "-270.011894"


def test_run_certificates(tmp_path, monkeypatch):
    assert run_script("run_certificates.py", monkeypatch, "--lnB", "12",
                      "--json-dir", str(tmp_path)) == EXIT_OK
    payload = json.loads((tmp_path / "certificate_lnB12.json").read_text())
    expected = certificate_to_dict(certify_projected(np.exp(12.0), 1.0))
    assert payload == json.loads(json.dumps(expected))


def one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--step", "0"],  # np.arange raised ZeroDivisionError
    ["--step", "-1"],  # wrote a header-only CSV and exited 0
    ["--lnB-min", "20", "--lnB-max", "10"],  # the same empty ladder
    ["--workers", "0"],  # ran, where the CLI refuses it
    ["--lnB-min", "800", "--lnB-max", "800"]])  # exp overflowed with a warning
def test_run_sweep_refuses_bad_input(flags, tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    assert run_script("run_sweep.py", monkeypatch, *flags,
                      "--out", str(out)) == EXIT_VALIDATION
    assert one_error_line(capsys)
    assert not out.exists()


def test_run_certificates_refuses_bad_input(monkeypatch, capsys):
    # default cutoffs need B >= 1e3: a ParameterError, not a traceback
    assert run_script("run_certificates.py", monkeypatch,
                      "--lnB", "2") == EXIT_VALIDATION
    assert one_error_line(capsys)


@pytest.mark.parametrize("lnB", [
    "800", "12,1e3",  # exp overflowed with a warning
    ","])  # printed a header and exited 0
def test_run_certificates_refuses_a_bad_ladder(lnB, monkeypatch, capsys):
    # refused as the CLI refuses the token ex, before any row is printed
    assert run_script("run_certificates.py", monkeypatch,
                      "--lnB", lnB) == EXIT_VALIDATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""


def test_run_certificates_maps_convergence_to_exit_two(monkeypatch, capsys):
    # exited 1, where certify exits 2
    def stalled(*args, **kwargs):
        raise ConvergenceError("stalled", iterations=7, residual=1.0)

    monkeypatch.setattr(magpolaron, "certify_projected", stalled)
    assert run_script("run_certificates.py", monkeypatch,
                      "--lnB", "8") == EXIT_CONVERGENCE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("convergence failure: ")


def test_run_certificates_reports_a_broken_envelope(monkeypatch, capsys):
    # the envelope check is no assert: it holds under python -O too
    monkeypatch.setattr(magpolaron, "analytic_infimum_floor",
                        lambda *args: 0.0)
    assert run_script("run_certificates.py", monkeypatch,
                      "--lnB", "12") == EXIT_INVARIANT
    assert one_error_line(capsys)


def test_run_certificates_tabulates_an_invalid_certificate(monkeypatch,
                                                           capsys):
    # alpha = 8 at ln B = 12 gives kappa1 < 0 and I = NaN: the row is
    # printed with valid False, not taken for a broken envelope
    assert run_script("run_certificates.py", monkeypatch, "--lnB", "12",
                      "--alpha", "8") == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[1] == "False" and row[3] == "nan"
