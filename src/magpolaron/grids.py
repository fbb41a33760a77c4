"""Uniform periodic 1D grids, field functionals, and Fourier transforms.

Conventions:
  - grid points t_j = -T + j*h, j = 0..n-1, h = 2T/n (right endpoint excluded)
  - continuum transform rho_hat(k) = int e^{-ikt} rho(t) dt, approximated by
    h * sum_j e^{-ik t_j} rho_j; density_fourier_at evaluates it on the band
    |k| <= pi/h
  - off the dual grid, density_fourier_at and density_correlation_at (on
    |z| <= T) both go through one oversampled-FFT trigonometric sum with
    Gaussian gridding (_trig_sum), O(n log n + 32 len(k)), accurate to a few
    1e-16 of rho_hat(0) and of C(0)
  - the dual grid is one-sided, k_m = m pi/T, m = 0..n/2 (rfft order), and
    every on-grid transform is an rfft/irfft pair on it; density_power forms
    only the power, so the phase e^{ikT} of t_0 = -T drops out; Parseval reads
    sum measure = h * sum_j rho_j^2
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainTooSmallError, InvalidFieldError

BOUNDARY_DECAY = 1e-8
# samples of every solver grid: the sweep's, the trial state's and oned's
# unit-width grid each scale their half-width to the minimizer's width, so
# one n resolves every (B, alpha); doubling it moves no output beyond 1e-14
SPECTRAL_N = 1024
_OVERSAMPLE = 2  # fine-grid factor of the trigonometric sum
_TAPS = 16  # Gaussian taps on each side of an off-grid point


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
        """One-sided dual grid m pi/half_width, m = 0..n/2 (rfft order)."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.spacing)


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
    """int |f'|^2 dt = -int f f'' dt, f'' by the Fourier multiplier -k^2."""
    if not f.boundary_decayed():
        raise DomainTooSmallError(
            "field has not decayed at the grid boundary; enlarge half_width")
    g = f.grid
    lap = np.fft.irfft(-g.wavenumbers() ** 2 * np.fft.rfft(f.values), g.n)
    return float(-g.spacing * np.sum(f.values * lap))


def quartic(f: Field1D) -> float:
    """int f^4 dt."""
    return float(f.grid.spacing * np.sum(f.values ** 4))


def density_fourier_at(rho_vals: np.ndarray, grid: Grid1D, k: np.ndarray) -> np.ndarray:
    """rho_hat(k) = h * sum_j e^{-ik t_j} rho_j on the band |k| <= pi/h.

    Evaluates the trigonometric interpolant's transform. Since
    t_j = (j - n/2) h it is h times the centred trigonometric sum at x = -k h.
    O(n log n + 32 len(k)); for a density rho >= 0 the error stays within a
    few 1e-16 of rho_hat(0) = h sum_j rho_j.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return grid.spacing * _trig_sum(rho_vals, -k, grid.spacing)


def density_power(f: Field1D):
    """One-sided power of rho = f^2 on the dual grid: (k >= 0, measure) with
    measure = |rho_hat|^2 dk / 2pi = |rho_hat|^2 / 2T and the negative
    wavenumbers folded in, so C(z) = int rho(x) rho(x+z) dx
    = sum measure * cos(k z)."""
    g = f.grid
    rho_hat = g.spacing * np.fft.rfft(f.values ** 2)
    measure = (rho_hat.real ** 2 + rho_hat.imag ** 2) / (2.0 * g.half_width)
    measure[1:-1] *= 2.0  # fold in the negative wavenumbers
    return g.wavenumbers(), measure


def density_correlation_at(f: Field1D, z: np.ndarray) -> np.ndarray:
    """C(z) = int rho(x) rho(x+z) dx on |z| <= T.

    The cosine series over density_power with k_m = m pi / T is the real part
    of the trigonometric sum at x = pi z / T; the Nyquist term sits in the
    m = -n/2 slot, since Re e^{-inx/2} = cos(nx/2). O(n log n + 32 len(z));
    the error stays within a few 1e-16 of C(0).
    """
    _, measure = density_power(f)
    n = f.grid.n
    coeffs = np.zeros(n)
    coeffs[0] = measure[-1]
    coeffs[n // 2:] = measure[:-1]
    z = np.asarray(z, dtype=float)
    return _trig_sum(coeffs, z, np.pi / f.grid.half_width).real


def _trig_sum(c: np.ndarray, y: np.ndarray, scale: float) -> np.ndarray:
    """sum_{m=-n/2}^{n/2-1} c[m + n/2] e^{imx} at x = y * scale, by Gaussian
    gridding: a type-2 NUFFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993;
    Greengard & Lee, SIAM Rev. 46, 2004).

    The coefficients are deconvolved by e^{m^2 tau} and summed on the
    _OVERSAMPLE-times finer periodic grid by one FFT; each x then gathers
    2 _TAPS fine-grid values through the Gaussian e^{-(x - x_l)^2 / 4 tau}.
    Accurate for |x| <= pi, the band every caller stays in.
    """
    n = len(c)
    size = _OVERSAMPLE * n
    tau = np.pi * _TAPS / (n * n * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
    m = np.arange(-(n // 2), n // 2)
    spread = np.zeros(size, dtype=complex)
    spread[m] = c * np.exp(tau * m * m)  # mode m at index m mod size
    fine = np.fft.ifft(spread)

    # position in fine-grid cells
    u = np.asarray(y, dtype=float) * scale * (size / (2.0 * np.pi))
    left = np.floor(u)
    taps = np.arange(1 - _TAPS, _TAPS + 1)
    dist = (u - left)[:, None] - taps
    # (2 pi / size)^2 / (4 tau) = pi (R - 1/2) / (R _TAPS), R = _OVERSAMPLE
    gauss = np.exp(-np.pi * (_OVERSAMPLE - 0.5) / (_OVERSAMPLE * _TAPS)
                   * dist * dist)
    gathered = fine[(left.astype(np.int64)[:, None] + taps) % size]
    return np.sqrt(np.pi / tau) * np.sum(gauss * gathered, axis=1)


def shift_field(f: Field1D, delta: float) -> Field1D:
    """Spectral translation f(t) -> f(t + delta) on the periodic grid."""
    g = f.grid
    phase = np.exp(1j * g.wavenumbers() * delta)
    return Field1D(g, np.fft.irfft(np.fft.rfft(f.values) * phase, g.n))


def centroid(f: Field1D) -> float:
    """Density centroid int t f^2 / int f^2 (zero field maps to zero)."""
    m = mass(f)
    if m == 0.0:
        return 0.0
    return float(f.grid.spacing * np.sum(f.grid.points() * f.values ** 2) / m)
