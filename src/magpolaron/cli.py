"""Command-line front end: configuration, orchestration, CSV/JSON emission.

Subcommands: oned, minimize, trial, sweep, fit, decompose, certify, verify.
Exit codes: 0 success, 1 validation error, 2 convergence failure,
3 invariant failure, mapped from exceptions by run alone.  B values, read
by parse_b alone, accept the shorthand "eN" meaning e^N.
Optional plain-text "key = value" config files set the subcommand's flag
defaults; explicit flags win.  sweep runs here, one SweepRecord (CSV row) a
point; with w workers (--workers or MAGPOLARON_WORKERS) this process and
w - 1 forked children (POSIX fork) each run every w-th point.  Its trial_E is
pekar.trial_energy, from the sech density's closed-form transform.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import certificate as cert_mod
from . import decomposition as dec
from . import pekar
from .errors import ConvergenceError, MagpolaronError, ParameterError
from .grids import (Field1D, Grid1D, density_correlation_at, kinetic,
                    mass as field_mass, quartic)
from .oned import (OneDProblem, closed_form_energy, closed_form_minimizer,
                   distance_to_profile, gn_ratio, SHARP_GN_Q4, solve_numeric)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_INVARIANT = 3
_LN_DBL_MAX = float(np.log(np.finfo(float).max))  # e^N overflows beyond it


@dataclasses.dataclass
class SweepRecord:
    """One sweep point; its fields, in order, are the CSV header."""

    B: float
    alpha: float
    E_total: float
    E_kin3: float
    E_coulomb: float
    trial_E: float
    cert_bound: Optional[float]
    iters: int
    residual: float

    #: trial deficit from its components (trial_E - B loses it to B's ulp);
    #: set by _sweep_point, not a field, so no CSV column
    trial_deficit = None

    @property
    def deficit(self) -> float:
        """E_total - B from the stored components, as EnergyBreakdown's."""
        return self.E_kin3 + self.E_coulomb


CSV_HEADER = [f.name for f in dataclasses.fields(SweepRecord)]
#: how each sweep CSV column is read back; every other column is a float
_CSV_PARSE = {"iters": int, "cert_bound": lambda s: float(s) if s else None}


def parse_b(text: str) -> float:
    """Parse a field-strength token; 'e12' means e^12, otherwise float.
    A value that overflows or is not finite raises ParameterError."""
    text = text.strip()
    try:
        exponent = float(text[1:]) if text.startswith("e") else None
    except ValueError:
        exponent = None
    if exponent is not None and exponent > _LN_DBL_MAX:
        raise ParameterError(
            f"B = {text} overflows: ln B must not exceed {_LN_DBL_MAX:.2f}")
    value = float(np.exp(exponent)) if exponent is not None else float(text)
    if not np.isfinite(value):
        raise ParameterError(f"B = {text} is not finite")
    return value


def worker_count(text: str) -> int:
    """A sweep worker count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def tolerance(text: str) -> float:
    """A flow tolerance, relative: in (0, 1), refused also at zero coupling,
    where no flow runs to refuse it."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value:g}")
    return value


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def load_config(path: str) -> dict:
    """Plain-text 'key = value' configuration; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"malformed config line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def write_sweep_csv(records, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([_fmt(getattr(r, name)) for name in CSV_HEADER]
                         for r in records)


def certificate_json(cert) -> str:
    """certificate_to_dict as JSON text: indent 2, sorted keys, a newline."""
    return json.dumps(cert_mod.certificate_to_dict(cert), indent=2,
                      sort_keys=True) + "\n"


def read_sweep_csv(path: str):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = set(CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ParameterError(f"sweep CSV missing columns: {sorted(missing)}")
        return [SweepRecord(**{
            name: _CSV_PARSE.get(name, float)(row[name]) for name in CSV_HEADER})
            for row in reader]


def _sweep_point(args):
    B, alpha, certify = args
    sol, breakdown = pekar.pekar_minimize(pekar.PhysParams(B, alpha))
    trial = pekar.trial_energy(B, alpha)
    cert_bound = (cert_mod.certify_projected(B, alpha).p0_bound if certify
                  else None)
    record = SweepRecord(
        B=B, alpha=alpha, E_total=breakdown.total,
        E_kin3=breakdown.longitudinal_kinetic, E_coulomb=breakdown.coulomb,
        trial_E=trial.total, cert_bound=cert_bound,
        iters=sol.iterations, residual=sol.gradient_residual)
    record.trial_deficit = trial.deficit
    return record


def _share(jobs, outbox=None):
    """The records of jobs, in order, up to the first that raises, and that
    exception (None if none does); sent down outbox if one is given."""
    records, failure = [], None
    try:
        for job in jobs:
            records.append(_sweep_point(job))
    except Exception as exc:
        failure = exc
    if outbox is None:
        return records, failure
    outbox.send((records, failure))


def _fan_out(jobs, workers):
    """The _share of jobs[i::workers] for each i: i = 0 here, the others in
    forked children (the program already imported), each sending its own
    down a pipe.  Every child is joined, stopped first if still running."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for i in range(1, workers):
            inbox, outbox = context.Pipe(duplex=False)
            child = context.Process(target=_share,
                                    args=(jobs[i::workers], outbox))
            child.start()  # flushes stdout first: nothing is written twice
            outbox.close()  # the child's copy alone: its exit reads as EOF
            children.append((child, inbox))
        shares = [_share(jobs[::workers])]
        for child, inbox in children:
            try:
                shares.append(inbox.recv())
            except EOFError:
                child.join()
                raise ChildProcessError(f"sweep worker exited with code "
                                        f"{child.exitcode} before sending "
                                        "its points") from None
        return shares
    finally:
        for child, inbox in children:
            inbox.close()
            child.terminate()  # one that has sent has nothing left to do
            child.join()


def sweep(B_values: Sequence[float], alpha: float, certify: bool = False,
          workers: int = 1) -> list:
    """Minimize at each B of B_values, the field itself, not its log, to tol
    1e-11; records sorted by B regardless of input or completion order.
    Points are independent: with w = workers > 1, every w-th point from the
    i-th runs in forked child i, or here for i = 0.  A failure raises the
    first failing point's exception, in input order, as one worker does."""
    jobs = [(float(B), alpha, certify) for B in B_values]
    workers = min(workers, len(jobs), os.cpu_count() or 1)  # all fork at once
    shares = _fan_out(jobs, workers) if workers > 1 else [_share(jobs)]
    failed = [(i + len(records) * workers, exc)
              for i, (records, exc) in enumerate(shares) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    records = [r for share, _ in shares for r in share]
    records.sort(key=lambda r: r.B)
    return records


# ----------------------------------------------------------------------------
# subcommands


def cmd_oned(args) -> int:
    a, b, tol = args.a, args.b, args.tol
    problem = OneDProblem(a, b)
    exact = closed_form_energy(problem)
    sol = solve_numeric(problem, tol)
    if sol.degenerate:
        print(f"a={a} b={b}: closed-form energy 0 (degenerate: infimum not attained)")
        return EXIT_OK
    dist = distance_to_profile(sol.minimizer, problem)
    print(f"a={a} b={b}")
    print(f"closed-form energy : {_fmt(exact)}")
    print(f"numeric energy     : {_fmt(sol.energy)}  "
          f"(iters={sol.iterations}, residual={sol.gradient_residual:.3e})")
    print(f"L2 distance to centered profile: {dist:.3e}")
    agree = abs(sol.energy - exact) <= tol * abs(exact)
    print(f"agreement within tol={tol:g}: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_INVARIANT


def cmd_minimize(args) -> int:
    B, alpha = parse_b(args.B), args.alpha
    sol, breakdown = pekar.pekar_minimize(pekar.PhysParams(B, alpha),
                                          tol=args.tol)
    print(f"B={_fmt(B)} alpha={alpha}")
    if sol.degenerate:
        print("zero coupling: minimizer degenerate, E_total = B")
        print(f"E_total = {_fmt(B)}")
        return EXIT_OK
    print(f"E_total    = {_fmt(breakdown.total)}")
    print(f"  transverse   = {_fmt(breakdown.transverse)}")
    print(f"  kinetic(3)   = {_fmt(breakdown.longitudinal_kinetic)}")
    print(f"  coulomb      = {_fmt(breakdown.coulomb)} "
          f"(+/- {breakdown.coulomb_error:.2e})")
    print(f"  E_total - B  = {_fmt(breakdown.deficit)}")
    print(f"iters={sol.iterations} residual={sol.gradient_residual:.3e}")
    return EXIT_OK


def cmd_trial(args) -> int:
    B, alpha = parse_b(args.B), args.alpha
    breakdown = pekar.trial_energy(B, alpha)
    lnB = np.log(B)
    print(f"B={_fmt(B)} alpha={alpha} (sech trial profile, coupling lnB/2)")
    print(f"E_trial    = {_fmt(breakdown.total)}")
    print(f"  transverse   = {_fmt(breakdown.transverse)}")
    print(f"  kinetic(3)   = {_fmt(breakdown.longitudinal_kinetic)} "
          f"(= (lnB)^2/48 = {_fmt(lnB * lnB / 48)})")
    print(f"  coulomb      = {_fmt(breakdown.coulomb)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    Bs = [parse_b(tok) for tok in args.B.split(",") if tok.strip()]
    if not Bs:
        raise ParameterError("sweep needs at least one B value")
    records = sweep(Bs, args.alpha, certify=args.certify,
                    workers=args.workers)
    write_sweep_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    for r in records:
        print(f"  B={r.B:.6g}  E_total-B={r.deficit:+.8g}  "
              f"trial-B={r.trial_deficit:+.8g}")
    return EXIT_OK


def cmd_fit(args) -> int:
    records = read_sweep_csv(args.infile)
    fit = pekar.fit_asymptotics(records)
    print(f"fit over {len(records)} points:")
    print(f"c2 = {_fmt(fit.c2)}   (leading coefficient; compare alpha^2/48)")
    print(f"c3 = {_fmt(fit.c3)}   (mixed log coefficient; compare alpha^2/12)")
    print(f"c4 = {_fmt(fit.c4)}   (linear-in-lnB remainder)")
    print(f"residual rms = {fit.residual_rms:.3e}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    B = parse_b(args.B)
    state = pekar.trial_state(B, args.alpha)
    ledger = dec.decompose(state.f, B)
    print(f"B={_fmt(B)} (sech trial profile, coupling lnB/2)")
    print(f"D_total          = {_fmt(ledger.d_total)} "
          f"(+/- {ledger.quadrature_error_estimate:.2e})")
    print(f"main coefficient = {_fmt(ledger.main_coefficient)}")
    print(f"main term        = {_fmt(ledger.main_term)}")
    print(f"r1 (closure)     = {_fmt(ledger.r1)}   bound {_fmt(ledger.r1_bound)}")
    print(f"r2 (kernel)      = {_fmt(ledger.r2)}")
    ok = ledger.r1_within_bound()
    print(f"|r1| within bound: {'yes' if ok else 'NO'}")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_certify(args) -> int:
    B, alpha = parse_b(args.B), args.alpha
    overrides = {key: getattr(args, key)
                 for key in ("K3", "Kperp", "gamma", "L", "M")
                 if getattr(args, key) is not None}
    cutoffs = dataclasses.replace(cert_mod.default_cutoffs(
        B, alpha, parse_b(args.K) if args.K is not None else None),
        **overrides)
    cert = cert_mod.certify_projected(B, alpha, cutoffs)
    if args.C_M is not None:
        cert.conditional_full_bound = cert_mod.conditional_full_bound(
            cert, args.C_M)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(certificate_json(cert))
        print(f"wrote certificate to {args.out}")
    else:
        print(certificate_json(cert), end="")
    print(f"valid={cert.valid} p0_bound={_fmt(cert.p0_bound)}")
    if cert.valid:
        return EXIT_OK
    failed = [k for k in cert_mod.REQUIRED_FLAGS if not cert.validity[k]]
    print("error: invalid certificate: " + (
        f"required validity flags fail: {', '.join(failed)}" if failed else
        f"p0_bound = {cert.p0_bound} is not finite"), file=sys.stderr)
    return EXIT_INVARIANT


def _verify_suites():
    """Deterministic invariant battery; yields (name, passed, detail)."""
    grid = Grid1D(4096, 40.0)
    t = grid.points()

    # closed-form functionals
    f11 = closed_form_minimizer(OneDProblem(1, 1))
    ok = (abs(field_mass(f11) - 1) < 1e-10
          and abs(kinetic(f11) - 1.0 / 12.0) < 1e-8
          and abs(quartic(f11) - 1.0 / 6.0) < 1e-8)
    yield "grid functionals on the sech profile", ok, ""

    # Parseval on the Coulomb path's own transform: C(0) = h sum rho^2
    rng = np.random.default_rng(202406)
    bump = np.zeros(grid.n)
    for _ in range(4):
        c, s, amp = rng.uniform(-4, 4), rng.uniform(0.7, 2.0), rng.uniform(0.2, 1.0)
        bump += amp * np.exp(-((t - c) / s) ** 2)
    lhs = density_correlation_at(Field1D(grid, np.sqrt(bump)), 0.0)[0]
    rhs = grid.spacing * np.sum(bump ** 2)
    ok = abs(lhs - rhs) <= 1e-10 * abs(rhs)
    yield "Parseval identity on a random density", ok, f"rel={(lhs-rhs)/rhs:.2e}"

    # interpolation-ratio floor on random fields
    worst = np.inf
    for _ in range(50):
        vals = np.zeros(grid.n)
        for _ in range(rng.integers(1, 4)):
            c, s, amp = rng.uniform(-4, 4), rng.uniform(0.7, 2.2), rng.uniform(-1, 1)
            vals += amp * np.exp(-((t - c) / s) ** 2)
        worst = min(worst, gn_ratio(Field1D(grid, vals)))
    ok = worst >= SHARP_GN_Q4 - 1e-9
    yield "sharp interpolation ratio floor", ok, f"min ratio={worst:.9f}"

    # coupling rescaling identity
    f12 = closed_form_minimizer(OneDProblem(1, 2))
    passed, rel = pekar.scaling_identity_check(np.exp(8.0), 2.0, f12)
    yield "coupling rescaling identity", passed, f"rel={rel:.2e}"

    # dual-path Coulomb agreement
    d_r = dec.d_product_real(f11, 4.0)
    d_f = dec.d_product_fourier(f11, 4.0)
    rel = abs(d_r - d_f) / abs(d_f)
    yield ("dual-path Coulomb agreement", rel < dec.DUAL_PATH_RTOL,
           f"rel={rel:.2e}")

    # ledger closure
    state = pekar.trial_state(np.exp(6.0))
    ledger = dec.decompose(state.f, state.params.B)
    ok = (abs(ledger.closure_defect()) < 1e-12 and ledger.r1_within_bound())
    yield "decomposition ledger closure", ok, ""

    # each Coulomb path against the exact D: both can agree and be wrong
    d_exact = -pekar.trial_energy(state.params.B, 1.0).coulomb
    rel = [abs(path(state.f, state.params.B) - d_exact) / d_exact
           for path in (dec.d_product_real, dec.d_product_fourier)]
    yield ("Coulomb paths against the closed-form transform",
           max(rel) < 1e-13, f"real={rel[0]:.2e} fourier={rel[1]:.2e}")

    # classical-field amplitude route, on the deficit E - B
    e1 = pekar.pekar_energy(state).deficit
    e2 = pekar.coherent_infimum(state) - state.params.B
    rel = abs(e1 - e2) / abs(e1)
    yield "classical-amplitude energy route", rel < 1e-8, f"rel={rel:.2e}"

    # certificate sanity
    cert = cert_mod.certify_projected(np.exp(12.0), 1.0)
    floor = cert_mod.analytic_infimum_floor(
        cert.ledger.kappa1, cert.cutoffs.gamma, cert.cutoffs.Kperp, 1.0)
    ok = (cert.valid and cert.ledger.kappa1 <= cert.ledger.kappa
          and cert.ledger.kappa2 <= cert.ledger.kappa
          and cert.I_value >= floor
          and abs(cert.recompute_bound() - cert.p0_bound) == 0.0)
    yield "certificate chain at B=e^12", ok, f"p0={cert.p0_bound:.6g}"


def cmd_verify(_args) -> int:
    failures = 0
    for name, ok, detail in _verify_suites():
        tag = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"[{tag}] {name}{suffix}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} invariant suite(s) failed")
        return EXIT_INVARIANT
    print("all invariant suites passed")
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser


class Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with ParameterError (exit 1, one
    error: line) in place of argparse's usage block and exit code 2; the
    scripts parse with it too."""

    def error(self, message):
        raise ParameterError(message)


def _late(fn):
    """fn, looked up in this module at each call: the parser built once
    calls what the module holds now (a monkeypatch, a profiler's wrapper)."""
    def call(*args):
        return globals()[fn.__name__](*args)
    call.__name__ = fn.__name__  # argparse names a converter by it
    return call


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="magpolaron",
        description="Ground-state energy laboratory for the magnetopolaron")
    parser.add_argument("--config", help="plain-text key = value file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oned", help="1D quartic problem: closed form vs numeric")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--tol", type=_late(tolerance), default=1e-8)
    p.set_defaults(func=_late(cmd_oned))

    p = sub.add_parser("minimize", help="minimize the product-ansatz energy")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--tol", type=_late(tolerance), default=1e-11)
    p.set_defaults(func=_late(cmd_minimize))

    p = sub.add_parser("trial", help="energy of the sech trial state")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=_late(cmd_trial))

    p = sub.add_parser("sweep", help="minimize across a list of B values")
    p.add_argument("--B", required=True, help="comma-separated (e.g. e10,e12)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--workers", type=_late(worker_count), default="1")
    p.set_defaults(func=_late(cmd_sweep))

    p = sub.add_parser("fit", help="fit sweep energies to the log expansion")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_late(cmd_fit))

    p = sub.add_parser("decompose", help="Coulomb decomposition ledger")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="validated only: the ledger is the same for every alpha")
    p.set_defaults(func=_late(cmd_decompose))

    p = sub.add_parser("certify", help="projected lower-bound certificate")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--K")
    p.add_argument("--K3", type=float)
    p.add_argument("--Kperp", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--C_M", type=float, help="conditional full-operator constant")
    p.add_argument("--out")
    p.set_defaults(func=_late(cmd_certify))

    p = sub.add_parser("verify", help="run the invariant battery")
    p.set_defaults(func=_late(cmd_verify))
    return parser


def run(command) -> int:
    """Call command() and return its exit code, mapping a failure to one
    stderr line and its code: ConvergenceError 2, bad input 1.  The CLI and
    the experiment scripts all return through it."""
    try:
        return command()
    except ConvergenceError as exc:
        print(f"convergence failure: {exc} "
              f"(iterations={exc.iterations}, residual={exc.residual})",
              file=sys.stderr)
        return EXIT_CONVERGENCE
    except (MagpolaronError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


_PARSER = None  # built on first use, never given defaults


def _dispatch(argv) -> int:
    """Parse argv and run its subcommand.  A call with config entries or
    MAGPOLARON_WORKERS set parses with a parser built for it alone, on which
    an entry naming a value-taking flag of the subcommand, else the
    variable for --workers, is that flag's default; others share _PARSER."""
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    given = load_config(args.config) if args.config else {}
    if "MAGPOLARON_WORKERS" in os.environ:
        given = {"workers": os.environ["MAGPOLARON_WORKERS"], **given}
    if given:
        parser = build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if a.dest == "command"]
        sub = commands[args.command]
        sub.set_defaults(**{a.dest: given[a.dest] for a in sub._actions
                            if a.nargs != 0 and a.dest in given})
        args = parser.parse_args(argv)
    return args.func(args)


def main(argv=None) -> int:
    return run(lambda: _dispatch(argv))


if __name__ == "__main__":
    sys.exit(main())
