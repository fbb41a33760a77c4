"""Command-line front end: configuration, orchestration, CSV/JSON emission.

Subcommands: oned, minimize, trial, sweep, fit, decompose, certify, verify.
Exit codes: 0 success, 1 validation error, 2 convergence failure,
3 invariant failure.  B values accept the shorthand "eN" meaning e^N.
Optional plain-text "key = value" config files set the subcommand's flag
defaults; explicit flags win.  The sweep worker count can also come from
MAGPOLARON_WORKERS.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import certificate as cert_mod
from . import decomposition as dec
from . import pekar
from .errors import ConvergenceError, MagpolaronError, ParameterError
from .grids import Field1D, Grid1D, mass as field_mass
from .oned import (OneDProblem, closed_form_energy, closed_form_minimizer,
                   distance_to_profile, gn_ratio, SHARP_GN_Q4, solve_numeric)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_INVARIANT = 3
_LN_DBL_MAX = float(np.log(np.finfo(float).max))  # e^N overflows beyond it

CSV_HEADER = [f.name for f in dataclasses.fields(pekar.SweepRecord)]
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
        writer.writerows([_fmt(v) for v in dataclasses.astuple(r)]
                         for r in records)


def read_sweep_csv(path: str):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = set(CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ParameterError(f"sweep CSV missing columns: {sorted(missing)}")
        return [pekar.SweepRecord(**{
            name: _CSV_PARSE.get(name, float)(row[name]) for name in CSV_HEADER})
            for row in reader]


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
    print(f"  E_total - B  = {_fmt(sol.energy)}")
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
    lnBs = sorted(float(np.log(parse_b(tok)))
                  for tok in args.B.split(",") if tok.strip())
    if not lnBs:
        raise ParameterError("sweep needs at least one B value")
    records = pekar.sweep(lnBs, args.alpha, certify=args.certify,
                          workers=args.workers)
    write_sweep_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    for r in records:
        print(f"  B={r.B:.6g}  E_total-B={r.E_kin3 + r.E_coulomb:+.8g}  "
              f"trial-B={r.trial_E - r.B:+.8g}")
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
    pekar.PhysParams(B, alpha)  # refuses a bad alpha before the cutoffs do
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
    payload = cert_mod.certificate_to_dict(cert)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote certificate to {args.out}")
    else:
        print(text)
    print(f"valid={cert.valid} p0_bound={_fmt(cert.p0_bound)}")
    return EXIT_OK if cert.valid else EXIT_INVARIANT


def _verify_suites():
    """Deterministic invariant battery; yields (name, passed, detail)."""
    from .grids import density_power, kinetic, quartic

    grid = Grid1D(4096, 40.0)
    t = grid.points()

    # closed-form functionals
    f11 = closed_form_minimizer(OneDProblem(1, 1), grid)
    ok = (abs(field_mass(f11) - 1) < 1e-10
          and abs(kinetic(f11) - 1.0 / 12.0) < 1e-8
          and abs(quartic(f11) - 1.0 / 6.0) < 1e-8)
    yield "grid functionals on the sech profile", ok, ""

    # Parseval on the production transform: sum measure = h sum rho^2
    rng = np.random.default_rng(202406)
    bump = np.zeros(grid.n)
    for _ in range(4):
        c, s, amp = rng.uniform(-4, 4), rng.uniform(0.7, 2.0), rng.uniform(0.2, 1.0)
        bump += amp * np.exp(-((t - c) / s) ** 2)
    _, measure = density_power(Field1D(grid, np.sqrt(bump)))
    lhs = np.sum(measure)
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
        if np.max(np.abs(vals)) < 1e-3:
            continue
        worst = min(worst, gn_ratio(Field1D(grid, vals)))
    ok = worst >= SHARP_GN_Q4 - 1e-9
    yield "sharp interpolation ratio floor", ok, f"min ratio={worst:.9f}"

    # coupling rescaling identity
    f12 = closed_form_minimizer(OneDProblem(1, 2), Grid1D(4096, 20.0))
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

    # classical-field amplitude route, on the deficit E - B
    bd = pekar.pekar_energy(state)
    e1 = bd.longitudinal_kinetic + bd.coulomb
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


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with ParameterError (exit 1, one
    error: line) in place of argparse's usage block and exit code 2."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="magpolaron",
        description="Ground-state energy laboratory for the magnetopolaron")
    parser.add_argument("--config", help="plain-text key = value file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oned", help="1D quartic problem: closed form vs numeric")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_oned)

    p = sub.add_parser("minimize", help="minimize the product-ansatz energy")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("trial", help="energy of the sech trial state")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("sweep", help="minimize across a list of B values")
    p.add_argument("--B", required=True, help="comma-separated (e.g. e10,e12)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--workers", type=int,
                   default=os.environ.get("MAGPOLARON_WORKERS", "1"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit sweep energies to the log expansion")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("decompose", help="Coulomb decomposition ledger")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="validated only: the ledger is the same for every alpha")
    p.set_defaults(func=cmd_decompose)

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
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        config = load_config(args.config) if args.config else {}
    except (OSError, MagpolaronError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if config:  # an entry naming a value-taking flag is its default
            (commands,) = [a.choices for a in parser._actions
                           if a.dest == "command"]
            sub = commands[args.command]
            sub.set_defaults(**{a.dest: config[a.dest] for a in sub._actions
                                if a.nargs != 0 and a.dest in config})
            args = parser.parse_args(argv)
        return args.func(args)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc} "
              f"(iterations={exc.iterations}, residual={exc.residual})",
              file=sys.stderr)
        return EXIT_CONVERGENCE
    except (MagpolaronError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
