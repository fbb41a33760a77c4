"""Tests of the benchmark itself: metric names, seeded inputs, failure
counting and the tracer.  Run from the repository root with

    python3 -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402
from inputs import JITTER, LADDERS, make_inputs  # noqa: E402
from magpolaron import certificate, decomposition, pekar  # noqa: E402
import magpolaron  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


def test_name_tables_match_benchmark_json():
    assert bench.END_TO_END == _units("end_to_end")
    assert bench.PER_LAYER == _units("per_layer")
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(LADDERS) == names
    assert list(workloads.WORKLOADS) == names


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run_bench(ROOT, "--workload", "certify-ladder", "--seed", "3",
                      "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    assert result["correct"] is True
    assert result["attempted"] >= 69 and result["failed"] == 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "crosscheck", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name, first, step, per_point, count", [
    ("sweep-ladder", 10, 2, 1, 11), ("certify-ladder", 8, 1, 3, 69),
    ("crosscheck", 6, 2, 1, 13)])
def test_same_seed_gives_same_inputs(name, first, step, per_point, count):
    inputs = make_inputs(name, 11)
    assert inputs == make_inputs(name, 11)
    assert inputs != make_inputs(name, 12)
    assert len(inputs) == count
    for j, (B, _) in enumerate(inputs):
        assert abs(math.log(B) - (first + step * (j // per_point))) <= JITTER


def _workload(name, tmp_path):
    return workloads.open_workload(name, 5, tmp_path)


def test_wrong_certificate_value_is_a_failed_operation(tmp_path):
    load = _workload("certify-ladder", tmp_path)
    good = load.run_op(0)
    bad = load.run_op(0)
    bad[0].p0_bound += 1.0
    tally = bench.Tally(load)
    tally.add("serial", [good, bad])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "recompute_bound() != p0_bound" in tally.problems[0]["problems"]


@pytest.mark.parametrize("miss, failed, known", [
    (0.0, 0, 0), (1e-6, 0, 1), (0.2, 1, 1)])
def test_wrong_coherent_value_is_a_failed_operation(miss, failed, known,
                                                    tmp_path):
    """A coherent deficit off by more than 1e-8 is a known defect of the
    program; off by more than the 0.1 gate, the operation fails."""
    load = _workload("crosscheck", tmp_path)
    B = load.inputs[0][0]
    result = {"closure_defect": 0.0, "r1_within_bound": True, "deficit": -0.5,
              "coherent_total": B - 0.5 * (1 + miss), "scaling_ok": True,
              "scaling_rel": 0.0}
    tally = bench.Tally(load)
    tally.add("serial", [result])
    assert (tally.attempted, tally.failed) == (1, failed)
    assert tally.with_known_defect == known


def test_wrong_sweep_row_is_a_failed_operation(tmp_path):
    load = _workload("sweep-ladder", tmp_path)
    row = "10,1,8,1,-3,9,,15,1e-07"
    load.reference = [row] * len(load.inputs)
    load.reference_problems = [[]] * len(load.inputs)
    good = load._expected([row])
    bad = load._expected([row.replace(",15,", ",16,")])
    tally = bench.Tally(load)
    tally.add("serial", [good, bad])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert workloads.check_sweep_row("10,1,9.5,1,-3,9,,15,1e-07", None)


def test_raising_operation_is_a_failed_operation(tmp_path, monkeypatch):
    def broken(B, alpha):
        raise magpolaron.ParameterError("deliberate")

    monkeypatch.setattr(certificate, "certify_projected", broken)
    load = _workload("certify-ladder", tmp_path)
    _, latencies, results = bench.serial_pass(load)
    tally = bench.Tally(load)
    tally.add("serial", results)
    assert tally.failed == tally.attempted == len(latencies) == 69


def test_tracer_reaches_names_imported_from_other_modules():
    originals = (pekar.coulomb_D_product, decomposition.density_fourier_at,
                 magpolaron.decompose)
    with Tracer():
        for wrapped, original in zip(
                (pekar.coulomb_D_product, decomposition.density_fourier_at,
                 magpolaron.decompose), originals):
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    assert (pekar.coulomb_D_product, decomposition.density_fourier_at,
            magpolaron.decompose) == originals


def test_traced_counts_repeat_and_self_times_add_up():
    state = pekar.trial_state(math.exp(6.0))
    tracer = Tracer()
    summaries = []
    for _ in range(2):
        tracer.reset()
        with tracer:
            decomposition.decompose(state.f, math.exp(6.0))
            pekar.pekar_energy(state)
        summaries.append(tracer.summary())
    first, second = summaries
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["calls"]["decomposition.coulomb_D_product"] == 2
    assert first["distinct"]["decomposition.coulomb_D_product"] == 1
    n = state.f.grid.n
    nodes = first["counts"]["grids.density_fourier_at.nodes"]
    assert first["counts"]["grids.density_fourier_at.ops_computed"] == nodes * n
    assert sum(first["self_s"].values()) == pytest.approx(
        first["top_level_s"], abs=1e-6)
    assert 0 <= first["maxima"]["decomposition.dual_path_rel_max"] < 1e-9


def test_quadratures_and_warnings_are_counted_against_open_spans():
    state = pekar.trial_state(math.exp(14.0))
    tracer = Tracer()
    with workloads.WarningCounter() as warn:
        warn.on_warning = tracer.on_warning
        with tracer:
            pekar.coherent_infimum(state)
    counts = tracer.summary()["counts"]
    assert counts["pekar.coherent_infimum.quad_calls"] > 0
    assert counts.get("pekar.coherent_infimum.warnings", 0) == warn.count
