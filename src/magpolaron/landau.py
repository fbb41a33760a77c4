"""Effective longitudinal interaction of the lowest Landau level.

The 3D Coulomb kernel averaged over two ground transverse Gaussians, in real
space V(z;B) and on the Fourier side U(k;B), both in closed form; the sphere
flow's cell averages of U beside k = 0 are pekar.interaction_weights.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .special import EULER_GAMMA, erfcx, exp_scaled_e1


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
    underflows at large B; a k^2/B that overflows gives U's limit 0.
    """
    if not B > 0:
        raise ParameterError("B must be positive")
    k = np.abs(np.asarray(k3, dtype=float))
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    with np.errstate(over="ignore"):  # x = inf gives U = 0, its limit
        x = (k / np.sqrt(B)) ** 2  # k * k overflows where x need not
    tiny = x < 1e-12
    out = np.pi * exp_scaled_e1(np.where(tiny, 1.0, x))  # tiny: below
    if tiny.any():
        kt, xt = k[tiny], x[tiny]
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = -EULER_GAMMA - 2.0 * np.log(kt) + np.log(B)
            small = np.pi * (lead + xt * (1.0 + lead))
        small[kt == 0.0] = np.inf  # x (1 + L) is 0 at k = 0, L is inf
        out[tiny] = small
    return float(out[0]) if scalar else out
