"""Measurement of one workload: passes, fresh-interpreter probes, metrics.

``run`` alternates one-worker and two-worker passes over the workload's
ladder until the requested seconds have passed, or, when tracing, untraced
and traced one-worker passes.  End-to-end times come only from untraced
passes; the traced passes give the per-layer numbers and, against the
untraced ones, the tracing overhead.
"""
from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from tracer import LAYERS, Tracer
from workloads import (POOL_WORKERS, WarningCounter, call, open_workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
IMPORT_PROBES = 3
COVERAGE_TOLERANCE = 0.05

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "point_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "pool_run_s": "s",
}

PER_LAYER = {
    "grids.density_fourier_at.calls": "count",
    "grids.density_fourier_at.nodes": "count",
    "grids.density_fourier_at.ops_computed": "count",
    "grids.density_fourier_at.self_s": "s",
    "decomposition.d_product_real.self_s": "s",
    "decomposition.d_product_real.total_s": "s",
    "decomposition.longitudinal_double_integral.self_s": "s",
    "decomposition.d_product_fourier.self_s": "s",
    "decomposition.d_product_fourier.total_s": "s",
    "decomposition.fourier_side_energy.self_s": "s",
    "decomposition.decompose.self_s": "s",
    "decomposition.decompose.total_s": "s",
    "landau.effective_potential.self_s": "s",
    "decomposition.coulomb_D_product.calls": "count",
    "decomposition.coulomb_D_product.distinct_frac": "ratio",
    "landau.effective_potential_fourier.calls": "count",
    "landau.effective_potential_fourier.self_s": "s",
    "pekar.interaction_weights.self_s": "s",
    "pekar.pekar_minimize.self_s": "s",
    "pekar.pekar_minimize.iters": "count",
    "pekar.trial_energy.self_s": "s",
    "pekar.trial_energy.total_s": "s",
    "oned.solve_weighted.calls": "count",
    "oned.solve_weighted.self_s": "s",
    "oned.solve_weighted.iters": "count",
    "pekar.coherent_infimum.self_s": "s",
    "pekar.coherent_infimum.total_s": "s",
    "pekar.coherent_infimum.quad_calls": "count",
    "pekar.coherent_infimum.warnings": "count",
    "certificate.certify_projected.self_s": "s",
    "certificate.certify_projected.total_s": "s",
    "certificate.total_coupling_weight.self_s": "s",
    "certificate.total_coupling_weight.quad_calls": "count",
    "cli.main.self_s": "s",
    "grids.self_s": "s",
    "oned.self_s": "s",
    "landau.self_s": "s",
    "decomposition.self_s": "s",
    "pekar.self_s": "s",
    "certificate.self_s": "s",
    "cli.self_s": "s",
    "setup.import.magpolaron_s": "s",
    "setup.import.scipy_special_s": "s",
    "setup.import.scipy_integrate_s": "s",
    "decomposition.dual_path_rel_max": "ratio",
    "pekar.coherent_infimum.deficit_rel_max": "ratio",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


# ----------------------------------------------------------------------------
# machine facts and fresh-interpreter probes


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": Path(lib).name, "threads": fn()}
    return {"library": None, "threads": None}


def machine_facts() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    nproc = len(os.sched_getaffinity(0))
    per_process = threads["threads"] or 1
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": threads["library"],
        "blas_threads": threads["threads"],
        "pool_threads": POOL_WORKERS * per_process,
        "pool_threads_within_nproc": POOL_WORKERS * per_process <= nproc,
    }


def _probe_code(lines) -> str:
    head = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]"
    return "; ".join([head, *lines])


def setup_times(workload: str, seed: int) -> list:
    """Wall time from starting a fresh interpreter until it has imported the
    program and generated the workload's inputs, i.e. until the first
    operation could start.  The first probe only fills the bytecode cache."""
    code = _probe_code([
        "import magpolaron, magpolaron.cli, inputs",
        f"inputs.make_inputs({workload!r}, {seed})",
        "print('ready', flush=True)"])
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return times[1:]


def _importtime(code: str, module: str) -> float:
    """Cumulative seconds ``python -X importtime`` charges to ``module``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    raise RuntimeError(f"python -X importtime did not report {module}")


def import_times() -> dict:
    """Median cumulative import times, each from a fresh interpreter:
    magpolaron and scipy.special as the program imports them, and
    scipy.integrate imported alone (the program reaches it through scipy's
    lazy attribute access, which importtime does not report), including the
    scipy.special it pulls in."""
    program = _probe_code(["import magpolaron, magpolaron.cli"])
    times = {"magpolaron": [], "scipy.special": [], "scipy.integrate": []}
    for _ in range(IMPORT_PROBES):
        times["magpolaron"].append(_importtime(program, "magpolaron"))
        times["scipy.special"].append(_importtime(program, "scipy.special"))
        times["scipy.integrate"].append(
            _importtime("import scipy.integrate", "scipy.integrate"))
    return {name: statistics.median(values) for name, values in times.items()}


# ----------------------------------------------------------------------------
# passes


def serial_pass(workload):
    """One-worker pass: every point in this process, each timed."""
    results, latencies = [], []
    start = time.perf_counter()
    for i in range(len(workload.inputs)):
        t0 = time.perf_counter()
        results.append(call(workload.run_op, i))
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, latencies, results


def pool_pass(workload):
    start = time.perf_counter()
    results = workload.pool_pass()
    return time.perf_counter() - start, results


class Tally:
    """Operations attempted and failed, with the first few problems; and the
    operations that show a known defect, with the first few of those."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.with_known_defect = 0
        self.known_defects = []

    def add(self, kind: str, results: list):
        for i, result in enumerate(results):
            self.attempted += 1
            problems = self.workload.check(i, result)
            if problems:
                self.failed += 1
                self._note(self.problems, kind, i, problems)
            defects = self.workload.known_defects(i, result)
            if defects:
                self.with_known_defect += 1
                self._note(self.known_defects, kind, i, defects)

    def _note(self, notes: list, kind: str, i: int, problems: list):
        if len(notes) < 40:
            B, alpha = self.workload.inputs[i]
            notes.append({"pass": kind, "B": B, "alpha": alpha,
                          "problems": problems})


def measure(workload, seconds: float, tally: Tally) -> tuple:
    serial, pool, latencies = [], [], []
    start = time.perf_counter()
    while True:
        wall, lat, results = serial_pass(workload)
        serial.append(wall)
        latencies.extend(lat)
        tally.add("serial", results)
        wall, pooled = pool_pass(workload)
        pool.append(wall)
        tally.add("pool", pooled)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "run_s": statistics.median(serial),
        "point_ms_p50": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pool_run_s": statistics.median(pool),
    }
    detail = {"serial_s": serial, "pool_s": pool,
              "point_samples": len(latencies), "last_results": results}
    return metrics, detail


def measure_traced(workload, seconds: float, tally: Tally, warn) -> tuple:
    tracer = Tracer()
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        wall, _, results = serial_pass(workload)
        untraced.append(wall)
        tally.add("untraced", results)
        tracer.reset()
        warn.on_warning = tracer.on_warning
        with tracer:
            wall, _, results = serial_pass(workload)
        warn.on_warning = None
        traced.append(wall)
        summaries.append(tracer.summary())
        tally.add("traced", results)
        if time.perf_counter() - start >= seconds:
            break
    detail = {"untraced_s": untraced, "traced_s": traced,
              "top_level_s": [s["top_level_s"] for s in summaries],
              "last_results": results}
    return summaries, detail


def layer_metrics(summaries, detail, imports, workload) -> tuple:
    """Per-layer metrics from the traced passes: times are medians over the
    passes, counts come from one pass and must repeat in every other."""
    first = summaries[0]

    def median_of(fn):
        return statistics.median(fn(s) for s in summaries)

    values = {}
    for name in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "self_s" and head in LAYERS:
            values[name] = median_of(lambda s: sum(
                v for k, v in s["self_s"].items() if k.startswith(head + ".")))
        elif tail in ("self_s", "total_s"):
            values[name] = median_of(lambda s: s[tail].get(head, 0.0))
        elif tail == "calls":
            values[name] = first["calls"].get(head, 0)
        elif tail in ("iters", "quad_calls", "warnings", "nodes",
                      "ops_computed"):
            values[name] = first["counts"].get(name, 0)
    coulomb = "decomposition.coulomb_D_product"
    calls = first["calls"].get(coulomb, 0)
    values[coulomb + ".distinct_frac"] = (
        first["distinct"].get(coulomb, 0) / calls if calls else 0.0)
    values["decomposition.dual_path_rel_max"] = max(
        s["maxima"].get("decomposition.dual_path_rel_max", 0.0)
        for s in summaries)
    values["pekar.coherent_infimum.deficit_rel_max"] = max(
        (point["coherent_deficit_rel"] for point in workload.accuracy(
            detail["last_results"]) if "coherent_deficit_rel" in point),
        default=0.0)
    values["setup.import.magpolaron_s"] = imports["magpolaron"]
    values["setup.import.scipy_special_s"] = imports["scipy.special"]
    values["setup.import.scipy_integrate_s"] = imports["scipy.integrate"]
    untraced = statistics.median(detail["untraced_s"])
    traced = statistics.median(detail["traced_s"])
    values["trace.untraced_run_s"] = untraced
    values["trace.traced_run_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.coverage"] = statistics.median(detail["top_level_s"]) / untraced

    functions = sorted({name.rpartition(".")[0] for name in PER_LAYER
                        if name.split(".")[0] in LAYERS and name.count(".") == 2})
    checks = {
        "counts_repeat": all(
            (s["calls"], s["counts"], s["distinct"])
            == (first["calls"], first["counts"], first["distinct"])
            for s in summaries),
        "coverage_within_tolerance":
            abs(values["trace.coverage"] - 1.0) <= COVERAGE_TOLERANCE,
        "top_level_over_traced_wall": [
            s["top_level_s"] / wall
            for s, wall in zip(summaries, detail["traced_s"])],
        "observer_errors": sorted({e for s in summaries
                                   for e in s["observer_errors"]}),
        "absent": {fn: "not called on this workload" for fn in functions
                   if fn not in first["calls"]},
    }
    return values, checks


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload; returns the JSON report and the result object."""
    report = {"workload": workload_name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "machine": machine_facts()}
    if trace:
        imports = import_times()
    else:
        setups = setup_times(workload_name, seed)
        report["setup_s"] = setups

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    workload = open_workload(workload_name, seed, workdir)
    tally = Tally(workload)
    try:
        with WarningCounter() as warn:
            workload.prepare()
            if trace:
                summaries, detail = measure_traced(
                    workload, seconds, tally, warn)
            else:
                metrics, detail = measure(workload, seconds, tally)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    report["inputs"] = workload.inputs
    report["lnB"] = [math.log(B) for B, _ in workload.inputs]
    report["warnings"] = warn.count
    report["accuracy"] = workload.accuracy(detail["last_results"])
    correct = tally.failed == 0
    if trace:
        values, checks = layer_metrics(summaries, detail, imports, workload)
        report["trace_checks"] = checks
        correct = correct and checks["counts_repeat"]
        units = PER_LAYER
    else:
        values = dict(metrics, setup_s=statistics.median(setups))
        units = END_TO_END
    del detail["last_results"]
    report["passes"] = detail
    report["failures"] = tally.problems
    report["known_defects"] = {"operations": tally.with_known_defect,
                               "first": tally.known_defects}
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return report, result
