"""Effective longitudinal interaction of the lowest Landau level.

The 3D Coulomb kernel averaged over two ground transverse Gaussians, in real
space V(z;B) and on the Fourier side U(k;B), both in closed form.  The
projector kernel, the twisted kernel it leaves on plane waves and the
average over other transverse densities are lemma objects the test suite
checks against 2D oracles; no production path needs them.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .special import (EULER_GAMMA, erfcx, exp_scaled_e1,
                      gauss_legendre_panels)


# ----------------------------------------------------------------------------
# effective longitudinal interaction


def effective_potential(z, B: float):
    """Transverse average of the Coulomb kernel over two ground Gaussians:
    V(z;B) = (sqrt(pi B)/2) erfcx(sqrt(B)|z|/2)."""
    if not B > 0:
        raise ParameterError("B must be positive")
    z = np.asarray(z, dtype=float)
    sqrt_b = np.sqrt(B)  # not sqrt(pi B): pi B overflows from ln B ~ 708.6
    return 0.5 * np.sqrt(np.pi) * sqrt_b * erfcx(0.5 * sqrt_b * np.abs(z))


def effective_potential_fourier(k3, B: float):
    """Fourier-side weight U(k;B) = pi e^{k^2/B} E1(k^2/B).

    Diverges logarithmically at k = 0 (inf there); arguments x = k^2/B
    below 1e-12 switch to the expansion e^x E1(x) = L + x (1 + L) + O(x^2 L),
    L = -gamma - ln x, with ln x formed from ln|k| and ln B since k^2/B
    underflows at large B.
    """
    if not B > 0:
        raise ParameterError("B must be positive")
    k = np.abs(np.asarray(k3, dtype=float))
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    x = k * k / B
    out = np.empty_like(x)
    tiny = x < 1e-12
    if np.any(tiny):
        with np.errstate(divide="ignore"):
            lead = -EULER_GAMMA - 2.0 * np.log(k[tiny]) + np.log(B)
        xt = x[tiny]
        # x (1 + L) is 0 at x = 0, where L is inf
        nxt = np.multiply(xt, 1.0 + lead, out=np.zeros_like(xt), where=xt > 0)
        out[tiny] = np.pi * (lead + nxt)
    big = ~tiny
    if np.any(big):
        out[big] = np.pi * exp_scaled_e1(x[big])
    return float(out[0]) if scalar else out


def effective_potential_fourier_cell_average(k_center: float, dk: float,
                                             B: float) -> float:
    """Average of U(.;B) over the dual-grid cell [k-dk/2, k+dk/2].

    Finite even for the cell containing k = 0: the logarithmic part
    pi (ln B - gamma - 2 ln k) integrates in closed form and the smooth
    remainder is handled by fixed Gauss-Legendre panels.
    """
    kc = abs(k_center)
    lo, hi = max(kc - dk / 2.0, 0.0), kc + dk / 2.0

    def log_part_antideriv(k):
        if k <= 0.0:
            return 0.0
        return k * (np.log(B) - EULER_GAMMA) - 2.0 * (k * np.log(k) - k)

    main = np.pi * (log_part_antideriv(hi) - log_part_antideriv(lo))
    nodes, w = gauss_legendre_panels([max(lo, hi * 1e-12), hi], order=24)
    delta = effective_potential_fourier(nodes, B) - np.pi * (
        np.log(B) - EULER_GAMMA - 2.0 * np.log(nodes))
    return float((main + np.sum(w * delta)) / (hi - lo))
