#!/usr/bin/env python3
"""Tabulate projected lower-bound certificates across field strengths and
compare each against the product-ansatz minimum (the two-model sandwich).

Example:
    python scripts/run_certificates.py --alpha 1.0 --lnB 12,16,20,24 \
        --json-dir certs/

Bad input is refused as the magpolaron CLI refuses it: one error: line on
stderr and exit code 1.  A variational energy below its analytic envelope is
an invariant failure: one error: line and exit code 3.
"""
import json
import os
import sys

import numpy as np

from magpolaron import (MagpolaronError, PhysParams, analytic_infimum_floor,
                        certificate_to_dict, certify_projected, pekar_minimize)
from magpolaron.cli import EXIT_INVARIANT, EXIT_OK, EXIT_VALIDATION, Parser


def run(args) -> int:
    lnBs = [float(tok) for tok in args.lnB.split(",") if tok.strip()]
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)

    print(f"{'lnB':>5} {'valid':>6} {'kappa1':>8} {'I':>10} {'B - p0':>12} "
          f"{'(B-p0)/lnB^2':>13} {'E_min - B':>12} {'sandwich':>9}")
    for lnB in lnBs:
        B = np.exp(lnB)
        cert = certify_projected(B, args.alpha)
        _, breakdown = pekar_minimize(PhysParams(B, args.alpha), tol=1e-10)
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
                json.dump(certificate_to_dict(cert), fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
    if args.json_dir:
        print(f"certificates written to {args.json_dir}/")
    return EXIT_OK


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--lnB", default="12,16,20,24")
    ap.add_argument("--json-dir", default=None)
    try:
        return run(ap.parse_args())
    except (MagpolaronError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
