"""Scaled special functions and panel quadrature used across the package.

Everything here is plain numpy/scipy with explicit overflow handling; the
test suite validates each closed form against adaptive quadrature.
"""
from __future__ import annotations

import numpy as np
import scipy.special as _sc

EULER_GAMMA = np.euler_gamma

# switch point between scipy's exp1 and the continued fraction; exp(x) is
# safe well past this and the fraction is at machine accuracy by x ~ 20
_CF_SWITCH = 500.0


def exp_scaled_e1(x):
    """e^x * E1(x) for x > 0, stable for arbitrarily large x.

    Small/moderate x uses scipy's exp1 directly; large x uses the standard
    continued fraction 1/(x+1- 1/(x+3- 4/(x+5- 9/(...)))).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x <= 0):
        raise ValueError("exp_scaled_e1 requires x > 0")
    out = np.empty_like(x)
    lo = x < _CF_SWITCH
    if np.any(lo):
        out[lo] = np.exp(x[lo]) * _sc.exp1(x[lo])
    hi = ~lo
    if np.any(hi):
        xh = x[hi]
        v = np.zeros_like(xh)
        for j in range(80, 0, -1):
            v = j * j / (xh + 2 * j + 1 - v)
        out[hi] = 1.0 / (xh + 1 - v)
    return out[0] if scalar else out


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x)."""
    return _sc.erfcx(x)


def gauss_legendre_panels(edges, order=16):
    """Nodes and weights of composite Gauss-Legendre quadrature.

    edges: increasing panel boundaries; returns flat (nodes, weights).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    xs, ws = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


def geometric_edges(a, b):
    """Panel edges [0, a, 2a, 4a, ...] ending at b (a > 0, b > a)."""
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    edges = [0.0, a]
    while edges[-1] < b:
        edges.append(min(edges[-1] * 2.0, b))
    return np.asarray(edges)
