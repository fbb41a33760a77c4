#!/usr/bin/env python3
"""Sweep the product-ansatz minimum over a ladder of field strengths and fit
the logarithmic expansion of the binding deficit.

Example:
    python scripts/run_sweep.py --alpha 1.0 --lnB-min 10 --lnB-max 30 \
        --step 2 --out sweep.csv

Each ladder point x is read as the CLI token ex (ln B above 709.78 is
refused).  As in the magpolaron CLI, bad input exits 1 and a convergence
failure 2, each with one line on stderr.
"""
import argparse
import sys

import numpy as np

from magpolaron import ParameterError, fit_asymptotics
from magpolaron.cli import (EXIT_OK, Parser, parse_b, run, sweep,
                            worker_count, write_sweep_csv)


def positive(text: str) -> float:
    """A ladder step: a float above 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value:g}")
    return value


def sweep_and_fit(args) -> int:
    Bs = [parse_b(f"e{x}")
          for x in np.arange(args.lnB_min, args.lnB_max + 1e-9, args.step)]
    if not Bs:
        raise ParameterError(f"no ln B in [{args.lnB_min:g}, "
                             f"{args.lnB_max:g}]: nothing to sweep")
    records = sweep(Bs, args.alpha, certify=args.certify,
                    workers=args.workers)
    write_sweep_csv(records, args.out)

    print(f"{'lnB':>5} {'E_total - B':>14} {'trial - B':>12} "
          f"{'(B-E)/lnB^2':>12}")
    for r in records:
        lnB = np.log(r.B)
        print(f"{lnB:5.1f} {r.deficit:14.6f} {r.trial_deficit:12.6f} "
              f"{-r.deficit / lnB ** 2:12.8f}")

    if len(records) >= 4:
        fit = fit_asymptotics(records)
        print(f"\nfit: c2 = {fit.c2:.8f}  (alpha^2/48 = {args.alpha ** 2 / 48:.8f})")
        print(f"     c3 = {fit.c3:.8f}  (alpha^2/12 = {args.alpha ** 2 / 12:.8f})")
        print(f"     c4 = {fit.c4:.8f}")
        print(f"     residual rms = {fit.residual_rms:.3e}")
    else:
        print("\n(fewer than 4 points: skipping the coefficient fit)")
    print(f"wrote {args.out}")
    return EXIT_OK


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--lnB-min", type=float, default=10.0)
    ap.add_argument("--lnB-max", type=float, default=30.0)
    ap.add_argument("--step", type=positive, default=2.0)
    ap.add_argument("--workers", type=worker_count, default=1)
    ap.add_argument("--certify", action="store_true",
                    help="also attach the projected lower-bound certificate")
    ap.add_argument("--out", default="sweep.csv")
    return run(lambda: sweep_and_fit(ap.parse_args()))


if __name__ == "__main__":
    sys.exit(main())
