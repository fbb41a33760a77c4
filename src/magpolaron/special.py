"""Scaled special functions and panel quadrature used across the package.

Everything here is plain numpy/scipy with explicit overflow handling; the
test suite validates each closed form against adaptive quadrature.  This is
the package's one scipy import.  log_end_rule is the one rule every caller
integrates the log singularity of U(k;B) at k = 0 with.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.special as _sc

from .grids import read_only_table

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
    if not x.size or 0 < x.min() and x.max() < _CF_SWITCH:  # without masks
        return np.exp(x) * _sc.exp1(x)
    if (x <= 0).any():
        raise ValueError("exp_scaled_e1 requires x > 0")
    lo = x < _CF_SWITCH
    scalar = x.ndim == 0
    x, lo = np.atleast_1d(x), np.atleast_1d(lo)
    out = np.empty_like(x)
    out[lo] = np.exp(x[lo]) * _sc.exp1(x[lo])
    xh = x[~lo]
    v = np.zeros_like(xh)
    for j in range(80, 0, -1):
        v = j * j / (xh + 2 * j + 1 - v)
    out[~lo] = 1.0 / (xh + 1 - v)
    return out[0] if scalar else out


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x)."""
    return _sc.erfcx(x)


def gauss_legendre_panels(edges, order=16):
    """Flat nodes and weights of composite Gauss-Legendre quadrature on the
    panels between increasing edges."""
    edges = np.asarray(edges, dtype=float)
    nodes, weights = gauss_legendre_rows(edges[:-1], edges[1:], order)
    return nodes.ravel(), weights.ravel()


def gauss_legendre_rows(lo, hi, order):
    """Nodes and weights, each of shape (len(lo), order), of one
    Gauss-Legendre rule on every interval [lo_i, hi_i]."""
    xs, ws = _legendre_rule(order)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * xs, half[:, None] * ws


@read_only_table
def _legendre_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only."""
    return np.polynomial.legendre.leggauss(order)


def log_end_rule(k1):
    """Nodes and weights for int_0^k1 g(k) dk, g log-singular at 0: with
    k = k1 e^{-s} the integrand g(k) k becomes smooth and decays like
    s e^{-s}, integrated by 24-point Gauss-Legendre panels on s in
    [0, 4, 12, 28, 46]; the piece below k1 e^{-46} is ~1e-20 k1 |g|."""
    unit, w = _log_end_unit()
    nodes = k1 * unit
    return nodes, w * nodes


@read_only_table
def _log_end_unit():
    """log_end_rule's e^{-s} and s-weights, built once, read-only."""
    s, w = gauss_legendre_panels([0.0, 4.0, 12.0, 28.0, 46.0], order=24)
    return np.exp(-s), w


@read_only_table
def log_end_octaves(octaves, order):
    """Nodes and weights for int_0^{2^octaves} g(k) dk, g log-singular at 0:
    log_end_rule(1), then order-point Gauss-Legendre on each octave
    [1, 2], [2, 4], ..., [2^(octaves-1), 2^octaves]; built once, read-only."""
    k_log, w_log = log_end_rule(1.0)
    k_oct, w_oct = gauss_legendre_panels(2.0 ** np.arange(octaves + 1), order)
    return np.concatenate([k_log, k_oct]), np.concatenate([w_log, w_oct])


def geometric_edges(a, b):
    """Panel edges [0, a, 2a, 4a, ...] ending at b; for 0 < a < b."""
    # a 2^j < b exactly for j < eb - ea + (mb > ma), with x = mx 2^ex
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    edges = np.empty(eb - ea + (mb > ma) + 2)
    edges[0], edges[-1] = 0.0, b
    edges[1:-1] = np.ldexp(a, np.arange(edges.size - 2))
    return edges
