"""Uniform periodic 1D grids, field functionals, and Fourier transforms.

Conventions:
  - grid points t_j = -T + j*h, j = 0..n-1, h = 2T/n (right endpoint excluded)
  - continuum transform rho_hat(k) = int e^{-ikt} rho(t) dt, approximated by
    h * sum_j e^{-ik t_j} rho_j; density_fourier_at evaluates it at any k
  - on the dual grid k_m = 2*pi*fftfreq(n, h), spacing pi/T, only its power
    is formed (density_power), so the phase e^{ikT} of t_0 = -T cancels and
    is dropped, as in the sphere flow in oned; Parseval reads
    sum measure = h * sum_j rho_j^2
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainTooSmallError, InvalidFieldError

BOUNDARY_DECAY = 1e-8


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-T, T) with n samples (n a power of two)."""

    n: int
    half_width: float

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 64, got {self.n}")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        """Dual-grid wavenumbers in FFT order; spacing pi/half_width."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)


def standard_grid(n: int = 4096, half_width: float = 40.0) -> Grid1D:
    return Grid1D(n, half_width)


@dataclass(frozen=True)
class Field1D:
    """Real longitudinal wavefunction samples f(t_j) on a Grid1D."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise InvalidFieldError(
                f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise InvalidFieldError("field samples must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def boundary_decayed(self) -> bool:
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return True
        edge = max(abs(self.values[0]), abs(self.values[-1]))
        return edge < BOUNDARY_DECAY * peak


def mass(f: Field1D) -> float:
    """int f^2 dt by the periodic rectangle rule (spectral on decayed fields)."""
    return float(f.grid.spacing * np.sum(f.values ** 2))


def kinetic(f: Field1D) -> float:
    """int |f'|^2 dt via the Fourier multiplier k^2."""
    if not f.boundary_decayed():
        raise DomainTooSmallError(
            "field has not decayed at the grid boundary; enlarge half_width")
    g = f.grid
    F = np.fft.fft(f.values)
    k = g.wavenumbers()
    return float(g.spacing / g.n * np.sum(k * k * np.abs(F) ** 2))


def quartic(f: Field1D) -> float:
    """int f^4 dt."""
    return float(f.grid.spacing * np.sum(f.values ** 4))


def density_fourier_at(rho_vals: np.ndarray, grid: Grid1D, k: np.ndarray) -> np.ndarray:
    """rho_hat(k) = h * sum_j e^{-ik t_j} rho_j at arbitrary wavenumbers.

    Evaluates the trigonometric interpolant's transform; O(len(k) * n).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return grid.spacing * _dense_sum(lambda x: np.exp(-1j * x), k,
                                     grid.points(), rho_vals)


def density_power(f: Field1D):
    """One-sided power of rho = f^2 on the dual grid: (k >= 0, measure) with
    measure = |rho_hat|^2 dk / 2pi = |rho_hat|^2 / 2T and the negative
    wavenumbers folded in, so C(z) = int rho(x) rho(x+z) dx
    = sum measure * cos(k z)."""
    g = f.grid
    rho_hat = g.spacing * np.fft.rfft(f.values ** 2)
    measure = (rho_hat.real ** 2 + rho_hat.imag ** 2) / (2.0 * g.half_width)
    measure[1:-1] *= 2.0  # fold in the negative wavenumbers
    return 2.0 * np.pi * np.fft.rfftfreq(g.n, g.spacing), measure


def density_correlation_at(f: Field1D, z: np.ndarray) -> np.ndarray:
    """C(z) = int rho(x) rho(x+z) dx at arbitrary offsets; O(len(z) * n)."""
    k_pos, measure = density_power(f)
    return _dense_sum(np.cos, np.asarray(z, dtype=float), k_pos, measure)


def _dense_sum(kernel, rows, cols, coeffs) -> np.ndarray:
    """sum_j kernel(rows_i * cols_j) coeffs_j for every row, in row chunks
    that keep each dense kernel block near 4e6 entries."""
    chunk = max(1, int(4e6 // len(cols)))
    return np.concatenate([np.zeros(0)] + [
        kernel(np.outer(rows[i:i + chunk], cols)) @ coeffs
        for i in range(0, len(rows), chunk)])


def shift_field(f: Field1D, delta: float) -> Field1D:
    """Spectral translation f(t) -> f(t + delta) on the periodic grid."""
    k = f.grid.wavenumbers()
    shifted = np.real(np.fft.ifft(np.fft.fft(f.values) * np.exp(1j * k * delta)))
    return Field1D(f.grid, shifted)


def centroid(f: Field1D) -> float:
    """Density centroid int t f^2 / int f^2 (zero field maps to zero)."""
    m = mass(f)
    if m == 0.0:
        return 0.0
    return float(f.grid.spacing * np.sum(f.grid.points() * f.values ** 2) / m)
