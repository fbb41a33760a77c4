#!/usr/bin/env python3
"""Tabulate projected lower-bound certificates across field strengths and
compare each against the product-ansatz minimum (the two-model sandwich).

Example:
    python scripts/run_certificates.py --alpha 1.0 --lnB 12,16,20,24 \
        --json-dir certs/

Each ln B x is read as the CLI token ex; ln B above 709.78 and an empty --lnB
are refused.  As in the magpolaron CLI, bad input exits 1 and a convergence
failure 2, each with one line on stderr.  A variational energy below its
analytic envelope is an invariant failure: one error: line and exit code 3.
"""
import os
import sys

from magpolaron import (ParameterError, PhysParams, analytic_infimum_floor,
                        certify_projected, pekar_minimize)
from magpolaron.cli import (EXIT_INVARIANT, EXIT_OK, Parser, certificate_json,
                            parse_b, run)


def tabulate(args) -> int:
    lnBs = [float(tok) for tok in args.lnB.split(",") if tok.strip()]
    if not lnBs:
        raise ParameterError("--lnB names no ln B: nothing to certify")
    Bs = [parse_b(f"e{x}") for x in lnBs]  # all refused before any output
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)

    print(f"{'lnB':>5} {'valid':>6} {'kappa1':>8} {'I':>10} {'B - p0':>12} "
          f"{'(B-p0)/lnB^2':>13} {'E_min - B':>12} {'sandwich':>9}")
    for lnB, B in zip(lnBs, Bs):
        cert = certify_projected(B, args.alpha)
        _, breakdown = pekar_minimize(PhysParams(B, args.alpha))
        gap = B - cert.p0_bound
        sandwich = cert.p0_bound <= breakdown.total
        floor = analytic_infimum_floor(cert.ledger.kappa1, cert.cutoffs.gamma,
                                       cert.cutoffs.Kperp, args.alpha)
        # a NaN I (kappa1 <= 0) is no break: the certificate flags it invalid
        if cert.I_value < floor:
            print(f"error: at ln B = {lnB:g} the variational energy "
                  f"I = {cert.I_value:g} lies below its analytic envelope "
                  f"{floor:g}", file=sys.stderr)
            return EXIT_INVARIANT
        print(f"{lnB:5.1f} {str(cert.valid):>6} {cert.ledger.kappa1:8.4f} "
              f"{cert.I_value:10.3f} {gap:12.3f} {gap / lnB ** 2:13.5f} "
              f"{breakdown.deficit:12.5f} {str(sandwich):>9}")
        if args.json_dir:
            path = os.path.join(args.json_dir, f"certificate_lnB{lnB:g}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(certificate_json(cert))
    if args.json_dir:
        print(f"certificates written to {args.json_dir}/")
    return EXIT_OK


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--lnB", default="12,16,20,24")
    ap.add_argument("--json-dir", default=None)
    return run(lambda: tabulate(ap.parse_args()))


if __name__ == "__main__":
    sys.exit(main())
