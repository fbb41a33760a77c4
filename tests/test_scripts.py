"""The experiment scripts, run through their main() on small inputs."""
import csv
import json
import runpy
import sys
from pathlib import Path

import numpy as np

from magpolaron import certificate_to_dict, certify_projected
from magpolaron.cli import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name))["main"]()


def test_run_sweep(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    run_script("run_sweep.py", monkeypatch, "--lnB-min", "10", "--lnB-max",
               "16", "--step", "2", "--out", str(out))
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 5
    assert "fit: c2 =" in capsys.readouterr().out


def test_run_certificates(tmp_path, monkeypatch):
    run_script("run_certificates.py", monkeypatch, "--lnB", "12",
               "--json-dir", str(tmp_path))
    payload = json.loads((tmp_path / "certificate_lnB12.json").read_text())
    expected = certificate_to_dict(certify_projected(np.exp(12.0), 1.0))
    assert payload == json.loads(json.dumps(expected))
