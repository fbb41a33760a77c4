"""Coulomb self-energy of product states and its local decomposition.

For a product state with the ground transverse Gaussian and a longitudinal
factor f, the Coulomb double integral D reduces to one dimension.  Two
evaluation paths are provided and cross-checked on every call:

  - real path:    correlation C(z) against the closed-form potential on
                  geometric Gauss-Legendre panels (valid for every B)
  - Fourier path: |rho_hat(k)|^2 against the Fourier-side weight, with the
                  logarithmic end handled by an exponential substitution

A gap above DUAL_PATH_RTOL |D| between them raises ResolutionError.  The
sampled-kernel FFT path is a test oracle.

The decomposition splits D into a local main term with coefficient
ln(B)/2 - ln(ln(B)), a kernel remainder computed by radial quadrature, and a
closure remainder bounded by an explicit norm expression.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, ResolutionError
from .grids import (Field1D, density_correlation_at, density_fourier_at,
                    kinetic, mass, quartic)
from .landau import effective_potential, effective_potential_fourier
from .special import gauss_legendre_panels, geometric_edges

DUAL_PATH_RTOL = 1e-9  # largest relative gap the two Coulomb paths may show


# ----------------------------------------------------------------------------
# correlation helpers


def _panel_nodes_for_kernel(f: Field1D, inner_scale: float):
    """Geometric panels on [0, T] resolving both the kernel scale and C."""
    g = f.grid
    c0 = quartic(f)
    m = mass(f)
    width = m * m / c0 if c0 > 0 else g.half_width
    edges = geometric_edges(min(inner_scale, width) / 4.0, g.half_width)
    return gauss_legendre_panels(edges, order=16)


def longitudinal_double_integral(f: Field1D, kernel_at: Callable,
                                 inner_scale: float) -> float:
    """(1/2) iint f^2(x) f^2(y) kernel(x-y) dx dy for an even decaying kernel."""
    z, w = _panel_nodes_for_kernel(f, inner_scale)
    C = density_correlation_at(f, z)
    return float(np.sum(w * C * kernel_at(z)))


def fourier_side_energy(f: Field1D, weight_at: Callable) -> float:
    """(1/(2 pi^2)) int_0^inf |rho_hat(k)|^2 weight(k) dk by panel quadrature.

    The [0, k1] end uses k = k1 e^{-s} so integrable log singularities of the
    weight are resolved exactly; the rest uses geometric panels to Nyquist.
    """
    g = f.grid
    rho = f.values ** 2
    k1 = np.pi / g.half_width
    k_max = np.pi / g.spacing

    s_nodes, s_w = gauss_legendre_panels([0.0, 4.0, 12.0, 28.0, 46.0], order=24)
    k_log = k1 * np.exp(-s_nodes)
    w_log = s_w * k_log
    k_geo, w_geo = gauss_legendre_panels(geometric_edges(k1, k_max)[1:], order=16)

    nodes = np.concatenate([k_log, k_geo])
    weights = np.concatenate([w_log, w_geo])
    power = np.abs(density_fourier_at(rho, g, nodes)) ** 2
    return float(np.sum(weights * power * weight_at(nodes)) / (2 * np.pi ** 2))


# ----------------------------------------------------------------------------
# the two Coulomb paths


def d_product_real(f: Field1D, B: float) -> float:
    """Real-space path: correlation against the closed-form potential."""
    return longitudinal_double_integral(
        f, lambda z: effective_potential(z, B), 1.0 / np.sqrt(B))


def d_product_fourier(f: Field1D, B: float) -> float:
    """Fourier-side path against the scaled-exponential-integral weight."""
    return fourier_side_energy(f, lambda k: effective_potential_fourier(k, B))


def coulomb_D_product(f: Field1D, B: float):
    """Dual-path Coulomb energy of the product state.

    Returns (value, error_estimate); the estimate is the observed discrepancy
    between the real-space and Fourier-side evaluations plus a roundoff floor.
    A discrepancy above DUAL_PATH_RTOL |value| raises ResolutionError.
    """
    if not B > 0:
        raise ParameterError("B must be positive")
    d_real = d_product_real(f, B)
    d_four = d_product_fourier(f, B)
    value = 0.5 * (d_real + d_four)
    gap = abs(d_real - d_four)
    if not gap <= DUAL_PATH_RTOL * abs(value):
        raise ResolutionError(
            f"Coulomb paths disagree at B = {B:.6g}: |real - fourier| = "
            f"{gap:.3g} exceeds {DUAL_PATH_RTOL:g} |D|; the grid does not "
            "resolve the density")
    return value, gap + 1e-13 * abs(value)


# ----------------------------------------------------------------------------
# decomposition terms


def main_coefficient(B: float) -> float:
    """Local-term coefficient ln(B)/2 - ln(ln(B)); needs B > e."""
    if B <= np.e:
        raise ParameterError("main coefficient defined for B > e")
    return float(np.log(B) / 2.0 - np.log(np.log(B)))


def log_kernel(r, B: float):
    """ln(1 + sqrt(1 + (ln B)^2 r^2)) - ln(sqrt(B) r) for r > 0, B > 1."""
    if B <= 1:
        raise ParameterError("log kernel defined for B > 1")
    r = np.asarray(r, dtype=float)
    out = np.full_like(r, np.inf)
    pos = r > 0
    lr = np.log(B) * r[pos]
    out[pos] = np.log1p(np.sqrt(1.0 + lr * lr)) - np.log(np.sqrt(B) * r[pos])
    return out if out.ndim else float(out)


def smooth_remainder_bound(f: Field1D, B: float) -> float:
    """Norm bound (ln B/2) m^2 + 4 (ln B)^{-1/2} m^{5/4} kin^{3/4} on the
    closure remainder, with m = int f^2 and kin = int |f'|^2."""
    if B <= 1:
        raise ParameterError("remainder bound defined for B > 1")
    m = mass(f)
    kin = kinetic(f)
    lnB = np.log(B)
    return float(lnB / 2.0 * m * m + 4.0 / np.sqrt(lnB) * m ** 1.25 * kin ** 0.75)


def kernel_remainder_coefficient(B: float) -> float:
    """Gaussian average of the log kernel over the transverse difference
    density: (1/2) int_0^inf e^{-u^2/4} K(u/sqrt(B)) u du."""
    nodes, w = gauss_legendre_panels(geometric_edges(1e-8, 20.0), order=16)
    vals = log_kernel(nodes / np.sqrt(B), B)
    # the [0, 1e-8] piece is bounded by eps^2 (|ln eps| + 1) ~ 1e-15, dropped
    return float(0.5 * np.sum(w * np.exp(-nodes ** 2 / 4.0) * nodes * vals))


def kernel_remainder(f: Field1D, B: float) -> float:
    """Kernel remainder term for the product state: quartic(f) times the
    Gaussian-averaged log kernel."""
    return quartic(f) * kernel_remainder_coefficient(B)


@dataclass
class DecompositionLedger:
    d_total: float
    main_coefficient: float
    main_term: float
    r1: float
    r1_bound: float
    r2: float
    quadrature_error_estimate: float

    def closure_defect(self) -> float:
        return self.d_total - (self.main_term + self.r1 + self.r2)

    def r1_within_bound(self) -> bool:
        return abs(self.r1) <= self.r1_bound + self.quadrature_error_estimate


def decompose(f: Field1D, B: float) -> DecompositionLedger:
    """Split D into main + r1 + r2 on a product state.

    r1 is defined by closure (D minus the other two), matching how the
    remainder is introduced; the ledger records the bound it must satisfy.
    """
    d_total, err = coulomb_D_product(f, B)
    cb = main_coefficient(B)
    main_term = cb * quartic(f)
    r2 = kernel_remainder(f, B)
    r1 = d_total - main_term - r2
    return DecompositionLedger(
        d_total=d_total, main_coefficient=cb, main_term=main_term, r1=r1,
        r1_bound=smooth_remainder_bound(f, B), r2=r2,
        quadrature_error_estimate=err)
