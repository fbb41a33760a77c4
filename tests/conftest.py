import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from magpolaron import Field1D, Grid1D

settings.register_profile(
    "suite", max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid():
    return Grid1D(4096, 40.0)


@pytest.fixture(scope="session")
def grid_fine():
    return Grid1D(8192, 40.0)


def sech_field(g, a, b):
    t = g.points()
    arg = np.clip(a * b * t / 2.0, -700, 700)
    return Field1D(g, (a * np.sqrt(b) / 2.0) / np.cosh(arg))


@pytest.fixture(scope="session")
def f11(grid):
    return sech_field(grid, 1.0, 1.0)


def bump_field(g, rng, n_bumps=None):
    """Random smooth decayed field: a few Gaussian bumps well inside the box."""
    t = g.points()
    vals = np.zeros(g.n)
    count = n_bumps or rng.integers(1, 4)
    for _ in range(count):
        center = rng.uniform(-4.0, 4.0)
        width = rng.uniform(0.7, 2.2)
        amp = rng.uniform(-1.5, 1.5)
        vals += amp * np.exp(-((t - center) / width) ** 2)
    if np.max(np.abs(vals)) < 1e-3:
        vals += np.exp(-(t / 1.5) ** 2)
    return Field1D(g, vals)
