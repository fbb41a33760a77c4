#!/usr/bin/env python3
"""magpolaron benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload sweep-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Prints a JSON report line, then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
README.md beside this file explains the workloads and every metric.
"""
from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: the two-worker pass
# then runs two threads on the machine's cores, never more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from inputs import LADDERS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(LADDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "magpolaron" / "__init__.py").is_file():
        print(f"perfbench: no magpolaron sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    report, result = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    known = report["known_defects"]["operations"]
    if known:
        print(f"perfbench: {known} of {result['attempted']} operations show "
              "a known defect of the program (report key known_defects)",
              file=sys.stderr)
    print(json.dumps({"report": report}, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
