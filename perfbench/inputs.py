"""Seeded inputs of the benchmark's workloads.

Every workload is a ladder in ln B.  The seed jitters each ladder point by up
to +-0.25; the program only ever receives the resulting (B, alpha) values.
This module imports nothing but the standard library, so the set-up probe
times the program's imports and not the benchmark's.
"""
from __future__ import annotations

import math
import random

JITTER = 0.25


def ladder(first: int, last: int, step: int, seed: int) -> list:
    """ln B points first, first+step, ..., last, each jittered by the seed."""
    rng = random.Random(seed)
    return [x + rng.uniform(-JITTER, JITTER)
            for x in range(first, last + 1, step)]


#: workload -> (first ln B, last ln B, step, alphas at every point)
LADDERS = {
    "sweep-ladder": (10, 30, 2, (1.0,)),
    "certify-ladder": (8, 30, 1, (0.5, 1.0, 2.0)),
    "crosscheck": (6, 30, 2, (1.0,)),
}


def make_inputs(workload: str, seed: int) -> list:
    """(B, alpha) pairs of one pass, in ladder order."""
    first, last, step, alphas = LADDERS[workload]
    return [(math.exp(x), alpha) for x in ladder(first, last, step, seed)
            for alpha in alphas]
