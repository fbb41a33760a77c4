"""Transverse physics of the lowest Landau level.

The projector kernel, the phase-twisted kernel that the projector produces on
plane waves, and the effective longitudinal interaction obtained by averaging
the 3D Coulomb kernel over transverse Landau densities.  Everything here is
closed form or 1D radial quadrature; 2D grids appear only in the test-suite
oracles.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.special as _sc

from .errors import InvalidFieldError, ParameterError
from .special import (EULER_GAMMA, erfcx, exp_scaled_e1,
                      gauss_legendre_panels, geometric_edges)


@dataclass(frozen=True)
class RadialTransverseDensity:
    """Radial transverse density samples on a quadrature grid; unit mass."""

    B: float
    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # radial quadrature weights (dr)

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if r.shape != v.shape or r.shape != w.shape:
            raise InvalidFieldError("radii, values, weights must share a shape")
        if np.any(v < -1e-12):
            raise InvalidFieldError("transverse density must be nonnegative")
        m = 2 * np.pi * np.sum(w * r * np.clip(v, 0.0, None))
        if abs(m - 1.0) > 1e-6:
            raise InvalidFieldError(f"transverse density mass {m} != 1")
        for name, arr in (("radii", r), ("values", v), ("weights", w)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_profile(cls, B: float, profile) -> "RadialTransverseDensity":
        """Samples on 8 Gauss-Legendre panels of order 50 out to 12/sqrt(B)."""
        nodes, w = gauss_legendre_panels(np.linspace(0.0, 12.0 / np.sqrt(B), 9),
                                         order=50)
        vals = np.asarray(profile(nodes), dtype=float)
        m = 2 * np.pi * np.sum(w * nodes * vals)
        return cls(B, nodes, vals / m, w)


def lll_projector_kernel(x_perp, y_perp, B: float) -> np.ndarray:
    """Kernel (B/2pi) e^{-B|x-y|^2/4} e^{iB(x1 y2 - x2 y1)/2} of the
    lowest-level projector; arrays broadcast over a trailing 2-axis."""
    if not B > 0:
        raise ParameterError("B must be positive")
    x = np.asarray(x_perp, dtype=float)
    y = np.asarray(y_perp, dtype=float)
    d2 = np.sum((x - y) ** 2, axis=-1)
    cross = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    return (B / (2 * np.pi)) * np.exp(-B * d2 / 4.0) * np.exp(1j * B * cross / 2.0)


def projected_phase_factor(k_perp, B: float) -> float:
    """Factor e^{-|k|^2/2B} produced when the projector sandwiches e^{ik.x};
    also the Gaussian expectation (g_B, e^{ik.x} g_B)."""
    if not B > 0:
        raise ParameterError("B must be positive")
    k = np.asarray(k_perp, dtype=float)
    return float(np.exp(-np.sum(k * k) / (2.0 * B)))


def twisted_kernel(x_perp, y_perp, k_perp, B: float) -> np.ndarray:
    """Kernel of the operator left over after the projector absorbs e^{ik.x}:
    P0(x,y) e^{k ^ (x-y)/2} e^{ik.(x+y)/2} with k ^ u = k1 u2 - k2 u1."""
    x = np.asarray(x_perp, dtype=float)
    y = np.asarray(y_perp, dtype=float)
    k = np.asarray(k_perp, dtype=float)
    wedge = k[0] * (x[..., 1] - y[..., 1]) - k[1] * (x[..., 0] - y[..., 0])
    plane = k[0] * (x[..., 0] + y[..., 0]) + k[1] * (x[..., 1] + y[..., 1])
    return lll_projector_kernel(x, y, B) * np.exp(wedge / 2.0) * np.exp(1j * plane / 2.0)


def twisted_norm_bound(k_perp, B: float) -> float:
    """Operator-norm bound 2 e^{|k|^2/4B} for the twisted kernel."""
    k = np.asarray(k_perp, dtype=float)
    return float(2.0 * np.exp(np.sum(k * k) / (4.0 * B)))


# ----------------------------------------------------------------------------
# effective longitudinal interaction


def effective_potential(z, B: float):
    """Transverse average of the Coulomb kernel over two ground Gaussians:
    V(z;B) = (sqrt(pi B)/2) erfcx(sqrt(B)|z|/2)."""
    if not B > 0:
        raise ParameterError("B must be positive")
    z = np.asarray(z, dtype=float)
    return 0.5 * np.sqrt(np.pi * B) * erfcx(0.5 * np.sqrt(B) * np.abs(z))


def effective_potential_fourier(k3, B: float):
    """Fourier-side weight U(k;B) = pi e^{k^2/B} E1(k^2/B).

    Diverges logarithmically at k = 0; tiny arguments switch to the by-hand
    expansion pi (ln B - gamma - 2 ln|k|).
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
        safe = np.maximum(x[tiny], 1e-300)
        out[tiny] = np.pi * (-EULER_GAMMA - np.log(safe))
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


def effective_potential_general(rho: RadialTransverseDensity, z) -> np.ndarray:
    """Transverse average of the Coulomb kernel over an arbitrary radial
    density, evaluated at longitudinal offsets z.

    Uses the rotation-symmetric transform rho_hat(k) = 2 pi int rho(r) J0(kr) r dr
    and V(z) = int_0^inf rho_hat(k)^2 e^{-k|z|} dk, both by radial quadrature.
    """
    B = rho.B
    k_max = 10.0 * np.sqrt(B)
    # geometric panels resolve every decay scale of e^{-k|z|} down to
    # k_max * 1e-8 as well as the transform's own sqrt(B) scale
    edges = geometric_edges(k_max * 1e-8, k_max)
    k_nodes, k_w = gauss_legendre_panels(edges, order=16)
    bess = _sc.j0(np.outer(k_nodes, rho.radii))
    rho_hat = 2 * np.pi * bess @ (rho.weights * rho.radii * rho.values)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.exp(-np.outer(np.abs(z), k_nodes)) @ (k_w * rho_hat ** 2)
    return out if out.size > 1 else float(out[0])

