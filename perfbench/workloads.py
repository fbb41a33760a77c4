"""Operations and output checks of the benchmark's workloads.

All calls go through magpolaron's public API, looked up on the module at call
time so that the tracer's wrappers see them.

An operation fails when it raises or when a check on its output fails; the
checks return a list of problems, empty when the output is correct.
"""
from __future__ import annotations

import contextlib
import io
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from magpolaron import certificate, cli, decomposition, pekar

from inputs import make_inputs
from tracer import Tracer

POOL_WORKERS = 2
#: relative agreement the coherent route's binding deficit should reach; the
#: seed code misses it from ln B ~ 12 up (the known large-B defect), so a miss
#: is reported as a known defect and not counted as a failed operation
COHERENT_DEFICIT_RTOL = 1e-8
#: the gate on the coherent route: the seed code is off by at most 4.5e-2 of
#: the deficit on the whole ladder, and a route that drifts further fails
COHERENT_DEFICIT_GATE = 0.1
#: the sweep's dual-path Coulomb error bound, relative to |E_coulomb|
COULOMB_ERROR_RTOL = 1e-9
#: absolute ledger closure tolerance, as in the program's own invariant battery
CLOSURE_ATOL = 1e-12
SCALING_ALPHA = 2.0


class OpError:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


class WarningCounter:
    """Counts warnings instead of printing them; ``on_warning`` sees each."""

    def __init__(self):
        self.count = 0
        self.on_warning = None
        self._saved = None

    def __enter__(self):
        self._saved = warnings.catch_warnings()
        self._saved.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._show
        return self

    def __exit__(self, *exc):
        self._saved.__exit__(*exc)
        return False

    def _show(self, *args, **kwargs):
        self.count += 1
        if self.on_warning is not None:
            self.on_warning()


# ----------------------------------------------------------------------------
# operations; module level so pool workers can unpickle them


def certify_point(B: float, alpha: float):
    cert = certificate.certify_projected(B, alpha)
    return cert, certificate.certificate_to_dict(cert)


def crosscheck_point(B: float, alpha: float) -> dict:
    state = pekar.trial_state(B, alpha)
    ledger = decomposition.decompose(state.f, B)
    energy = pekar.pekar_energy(state)
    coherent = pekar.coherent_infimum(state)
    scaling_ok, scaling_rel = pekar.scaling_identity_check(
        B, SCALING_ALPHA, state.f)
    return {
        "closure_defect": ledger.closure_defect(),
        "r1_within_bound": ledger.r1_within_bound(),
        "deficit": energy.longitudinal_kinetic + energy.coulomb,
        "coherent_total": coherent,
        "scaling_ok": scaling_ok,
        "scaling_rel": scaling_rel,
    }


def call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the failure is counted, the run goes on
        return OpError(exc)


# ----------------------------------------------------------------------------
# checks


def check_certificate(B: float, alpha: float, result) -> list:
    cert, payload = result
    problems = []
    if not cert.valid:
        problems.append("certificate not valid")
    if cert.recompute_bound() != cert.p0_bound:
        problems.append("recompute_bound() != p0_bound")
    floor = certificate.analytic_infimum_floor(
        cert.ledger.kappa1, cert.cutoffs.gamma, cert.cutoffs.Kperp, alpha)
    if not floor <= cert.I_value <= 0.0:
        problems.append(f"I_value {cert.I_value!r} outside [{floor!r}, 0]")
    if payload.get("p0_bound") != cert.p0_bound:
        problems.append("certificate_to_dict p0_bound differs")
    return problems


def coherent_deficit_rel(B: float, result: dict) -> float:
    """Relative disagreement of the coherent route's deficit with the
    component-derived one.  The coherent route returns a total, so its
    deficit is total - B and carries B's rounding (ulp(B)/|deficit|)."""
    return abs((result["coherent_total"] - B) - result["deficit"]) / abs(
        result["deficit"])


def check_crosscheck(B: float, alpha: float, result: dict) -> list:
    problems = []
    if not abs(result["closure_defect"]) < CLOSURE_ATOL:
        problems.append(f"ledger closure defect {result['closure_defect']!r}")
    if not result["r1_within_bound"]:
        problems.append("|r1| exceeds its bound")
    if not result["scaling_ok"]:
        problems.append(f"scaling identity rel {result['scaling_rel']!r}")
    rel = coherent_deficit_rel(B, result)
    if not rel <= COHERENT_DEFICIT_GATE:
        problems.append(f"coherent deficit rel {rel:.3e} > "
                        f"{COHERENT_DEFICIT_GATE:g}")
    return problems


def crosscheck_known_defects(B: float, result: dict) -> list:
    rel = coherent_deficit_rel(B, result)
    if rel > COHERENT_DEFICIT_RTOL:
        return [f"coherent deficit rel {rel:.3e} > {COHERENT_DEFICIT_RTOL:g}"]
    return []


def check_sweep_row(row: str, breakdown) -> list:
    """Checks on one CSV row and on the breakdown its minimizer reported."""
    fields = dict(zip(cli.CSV_HEADER, row.split(",")))
    problems = []
    if not float(fields["E_total"]) <= float(fields["trial_E"]):
        problems.append("minimum above its trial energy")
    if breakdown is None:
        problems.append("no minimizer breakdown observed")
    elif not breakdown.coulomb_error <= COULOMB_ERROR_RTOL * abs(breakdown.coulomb):
        problems.append(f"coulomb_error {breakdown.coulomb_error:.3e} "
                        f"> {COULOMB_ERROR_RTOL:g}*|E_coulomb|")
    return problems


def sweep_deficit(row: str) -> float:
    """Binding deficit E - B from the row's components, never E_total - B."""
    fields = dict(zip(cli.CSV_HEADER, row.split(",")))
    return float(fields["E_kin3"]) + float(fields["E_coulomb"])


# ----------------------------------------------------------------------------
# workloads


class Workload:
    """One ladder: a serial operation per point, checks, and a 2-worker pass.

    ``prepare`` runs untimed before measuring; ``accuracy`` gives each point's
    B with the accuracy fields its last results carried; ``known_defects``
    names the program's known defects a result shows, which are reported
    but do not fail the operation.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.inputs = make_inputs(name, seed)
        self.workdir = workdir

    def prepare(self):
        pass

    def close(self):
        pass

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        raise NotImplementedError

    def pool_pass(self) -> list:
        raise NotImplementedError

    def accuracy(self, results: list) -> list:
        return []

    def known_defects(self, i: int, result) -> list:
        return []


class SweepLadder(Workload):
    """The ``sweep`` subcommand through ``magpolaron.cli.main``: one call per
    point with one worker, and the whole ladder in one call with two."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tokens = [repr(B) for B, _ in self.inputs]
        self.reference = [None] * len(self.inputs)
        self.reference_problems = [["no reference row"]] * len(self.inputs)
        self.header = ",".join(cli.CSV_HEADER)

    def _sweep(self, tokens, workers: int, out: Path) -> str:
        argv = ["sweep", "--alpha", "1", "--B", ",".join(tokens),
                "--workers", str(workers), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"magpolaron sweep exited with {code}")
        return out.read_text(encoding="utf-8")

    def run_op(self, i):
        return self._sweep([self.tokens[i]], 1, self.workdir / f"point{i}.csv")

    def prepare(self):
        """One untimed serial pass that records every point's CSV row and the
        Coulomb error its minimizer reported; the timed passes must reproduce
        the rows byte for byte."""
        breakdowns = []

        def keep(tracer, index, fn, args, kwargs, result):
            breakdowns.append(result[1])

        tracer = Tracer(observers={"pekar.pekar_minimize": keep})
        for i in range(len(self.inputs)):
            del breakdowns[:]
            with tracer:
                result = call(self.run_op, i)
            tracer.reset()
            if isinstance(result, OpError):
                self.reference_problems[i] = [result.text]
                continue
            lines = result.splitlines()
            self.reference[i] = lines[1]
            self.reference_problems[i] = check_sweep_row(
                lines[1], breakdowns[0] if len(breakdowns) == 1 else None)

    def _expected(self, rows) -> str:
        return "".join(f"{line}\n" for line in [self.header, *rows])

    def check(self, i, result):
        if isinstance(result, OpError):
            return [result.text]
        problems = list(self.reference_problems[i])
        if result != self._expected([self.reference[i]]):
            problems.append("CSV differs from the reference row")
        return problems

    def pool_pass(self):
        """The whole ladder with ``--workers 2``.  Its CSV must be byte-
        identical to the header plus the one-worker rows; each point then
        gets the one-row CSV its serial operation would have written."""
        text = call(self._sweep, self.tokens, POOL_WORKERS,
                    self.workdir / "pool.csv")
        if isinstance(text, OpError):
            return [text] * len(self.inputs)
        if text != self._expected(self.reference):
            return [OpError(RuntimeError(
                "--workers 2 CSV is not byte-identical to the one-worker CSV"))
            ] * len(self.inputs)
        return [self._expected([row]) for row in self.reference]

    def accuracy(self, results):
        return [{"B": B, "deficit": sweep_deficit(row)}
                for (B, _), row in zip(self.inputs, self.reference)
                if row is not None]


class PoolLadder(Workload):
    """A ladder of independent public-API calls; the 2-worker pass fans them
    out over two worker processes."""

    op = None

    def __init__(self, *args):
        super().__init__(*args)
        self.pool = None

    def prepare(self):
        call(self.run_op, 0)
        # Forked like the program's own sweep pool: the workers start with
        # the program imported and the parent's warning capture in place,
        # and no helper process is left behind.  The parent runs no threads
        # here (one BLAS thread, no pool yet), so forking is safe.
        self.pool = ProcessPoolExecutor(max_workers=POOL_WORKERS,
                                        mp_context=get_context("fork"))
        self.pool.submit(int).result()  # forks every worker

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def run_op(self, i):
        return self.op(*self.inputs[i])

    def pool_pass(self):
        futures = [self.pool.submit(self.op, B, alpha)
                   for B, alpha in self.inputs]
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:  # counted as a failed operation
                results.append(OpError(exc))
        return results


class CertifyLadder(PoolLadder):
    op = staticmethod(certify_point)

    def check(self, i, result):
        if isinstance(result, OpError):
            return [result.text]
        return check_certificate(*self.inputs[i], result)


class Crosscheck(PoolLadder):
    op = staticmethod(crosscheck_point)

    def check(self, i, result):
        if isinstance(result, OpError):
            return [result.text]
        return check_crosscheck(*self.inputs[i], result)

    def known_defects(self, i, result):
        if isinstance(result, OpError):
            return []
        return crosscheck_known_defects(self.inputs[i][0], result)

    def accuracy(self, results):
        out = []
        for (B, _), result in zip(self.inputs, results):
            if isinstance(result, OpError):
                continue
            out.append({
                "B": B, "deficit": result["deficit"],
                "coherent_deficit": result["coherent_total"] - B,
                "coherent_deficit_rel": coherent_deficit_rel(B, result),
                "rounding_floor_rel": math.ulp(B) / abs(result["deficit"])})
        return out


WORKLOADS = {"sweep-ladder": SweepLadder, "certify-ladder": CertifyLadder,
             "crosscheck": Crosscheck}


def open_workload(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](name, seed, workdir)
