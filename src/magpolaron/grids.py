"""Uniform periodic 1D grids, field functionals, and Fourier transforms.

Conventions:
  - grid points t_j = -T + j*h, j = 0..n-1, h = 2T/n (right endpoint excluded)
  - continuum transform rho_hat(k) = int e^{-ikt} rho(t) dt, approximated by
    h * sum_j e^{-ik t_j} rho_j; density_fourier_at evaluates it on the band
    |k| <= pi/h
  - off the dual grid, density_fourier_at (complex fine grid) and
    density_correlation_at (real, on |z| <= T) are one Gaussian-gridding
    NUFFT, O(n log n + 32 len(k)), accurate to a few 1e-16 of rho_hat(0)
    and of C(0); a node off the band raises ParameterError.  Its taps (each
    node's row of fine-grid cells and its Gaussian weights, _taps) are
    gathered by _row_dots
  - density_fourier_at takes its nodes as a rule k = u pi/T, the same u on
    every grid of n samples, whose taps are fixed: x = -k h = -2 pi u/n
    holds neither T nor h, so FourierTaps(n, u) builds them once, and a
    transform pays only the inverse FFT and the row dots; correlation
    nodes z are formed per call
  - the dual grid is one-sided, k_m = m pi/T, m = 0..n/2 (rfft order), and
    every on-grid transform is an rfft/irfft pair on it; kinetic and
    density_correlation_at form only the power, so the phase e^{ikT} of
    t_0 = -T drops out; Parseval reads C(0) = h * sum_j rho_j^2
  - one_sided_fold carries the negative wavenumbers of a real field: with
    X = rfft(x), Y = rfft(y), h sum_j x_j y_j = (h/n) sum_m fold_m Re(X_m
    conj Y_m), the inner product the sphere flow runs on (see oned)
  - nothing here translates a field: every sphere flow keeps its field
    centred (see oned)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

from .errors import DomainTooSmallError, InvalidFieldError, ParameterError

BOUNDARY_DECAY = 1e-8
_OVERSAMPLE = 2  # fine-grid factor of the trigonometric sum
_TAPS = 16  # Gaussian taps on each side of an off-grid point
_TAP_OFFSETS = np.arange(1.0 - _TAPS, _TAPS + 1)  # fine cells from floor(u)


def read_only_table(build):
    """build, cached per argument tuple, its arrays made read-only: a rule
    table built on first use and shared, which a write would change for
    every later caller."""
    return lru_cache(maxsize=None)(wraps(build)(
        lambda *args: _read_only(build(*args))))


def _read_only(result):
    """result, an array or a tuple of arrays, each made read-only in place."""
    for a in result if isinstance(result, tuple) else (result,):
        a.setflags(write=False)
    return result


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
        if not np.isfinite(vals).all():
            raise InvalidFieldError("field samples must be finite")
        object.__setattr__(self, "values", _read_only(vals.copy()))

    def boundary_decayed(self) -> bool:
        peak = float(np.abs(self.values).max())
        if peak == 0.0:
            return True
        edge = max(abs(self.values[0]), abs(self.values[-1]))
        return edge < BOUNDARY_DECAY * peak


def mass(f: Field1D) -> float:
    """int f^2 dt by the periodic rectangle rule (spectral on decayed fields)."""
    return float(f.grid.spacing * (f.values ** 2).sum())


def kinetic(f: Field1D) -> float:
    """int |f'|^2 dt by Parseval from one transform F = rfft(f):
    (h/n) sum_m fold_m k_m^2 |F_m|^2, k = m pi/T, formed with m^2 and
    (pi/T)^2 applied last, since |F|^2 k^2 leaves the doubles on a wide or
    narrow grid (T ~ 1e103 or 1e-103 at unit mass)."""
    if not f.boundary_decayed():
        raise DomainTooSmallError(
            "field has not decayed at the grid boundary; enlarge half_width")
    g = f.grid
    spectrum = np.fft.rfft(f.values).view(float)  # (Re F_m, Im F_m) pairs
    return float(g.spacing / g.n * ((spectrum * spectrum) @ _mode_squares(g.n))
                 * (np.pi / g.half_width) ** 2)


@read_only_table
def _mode_squares(n: int) -> np.ndarray:
    """fold_m m^2, m = 0..n/2, each twice, for the (Re, Im) pairs of an
    n-sample rfft; built once per n, read-only."""
    m2 = np.arange(n // 2 + 1) ** 2.0
    m2[1:-1] *= 2.0  # one_sided_fold's fold, exactly, with no public call
    return np.repeat(m2, 2)


def quartic(f: Field1D) -> float:
    """int f^4 dt."""
    rho = f.values * f.values
    return float(f.grid.spacing * (rho * rho).sum())


def density_fourier_at(rho_vals: np.ndarray, grid: Grid1D,
                       taps: FourierTaps) -> np.ndarray:
    """rho_hat(k) = h * sum_j e^{-ik t_j} rho_j at the nodes k = u pi/T of
    taps = FourierTaps(grid.n, u), |u| <= n/2: the band |k| <= pi/h.

    Evaluates the trigonometric interpolant's transform. Since
    t_j = (j - n/2) h it is h times the centred trigonometric sum at x = -k h,
    whose mode m = j - n/2 sits at index m mod 2n of the complex fine grid.
    O(n log n + 32 len(u)); for a density rho >= 0 the error stays within a
    few 1e-16 of rho_hat(0) = h sum_j rho_j.
    """
    if taps.n != grid.n:
        raise ParameterError(f"taps built for n = {taps.n}, not {grid.n}")
    return grid.spacing * _row_dots(_fine_density(rho_vals, grid.n),
                                    (taps.rows, taps.gauss))


@dataclass(frozen=True, eq=False)
class FourierTaps:
    """The taps of density_fourier_at at k = u pi/T, the same for every grid
    of n samples: x = -k h = -2 pi u/n holds neither T nor h.  Built once
    for a fixed rule, read-only; |u| <= n/2 is the band."""
    n: int
    u: np.ndarray
    rows: np.ndarray = field(init=False, repr=False)
    gauss: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.array(self.u, dtype=float, ndmin=1)  # its own copy
        if not (np.abs(u) <= self.n // 2).all():
            raise ParameterError("FourierTaps takes |u| <= n/2")
        rows, gauss = _taps(u * (-2.0 * np.pi / self.n),
                            _OVERSAMPLE * self.n)
        gauss = gauss.astype(complex)  # as the fine grid: no cast in the dots
        for name, a in zip(("u", "rows", "gauss"),
                           _read_only((u, rows, gauss))):
            object.__setattr__(self, name, a)


def _fine_density(rho_vals: np.ndarray, n: int) -> np.ndarray:
    """The complex fine grid of density_fourier_at: the modes of rho,
    deconvolved, at index m mod 2n, by one inverse FFT."""
    half = n // 2
    deconv = _deconvolution(n)
    spread = np.zeros(_OVERSAMPLE * n, dtype=complex)
    spread[:half] = rho_vals[half:] * deconv[:half]
    spread[-half:] = rho_vals[:half] * deconv[half:0:-1]
    return np.fft.ifft(spread)


def one_sided_fold(n: int) -> np.ndarray:
    """Weights of the one-sided spectrum m = 0..n/2 of a real n-sample
    field: 1 at m = 0 and at the Nyquist m = n/2, which have no partner, and
    2 between, for the negative wavenumbers folded in."""
    fold = np.full(n // 2 + 1, 2.0)
    fold[0] = fold[-1] = 1.0
    return fold


def density_correlation_at(f: Field1D, z: np.ndarray) -> np.ndarray:
    """C(z) = int rho(x) rho(x+z) dx on |z| <= T.

    The cosine series of the power |rho_hat_m|^2 / 2T, rho_hat = h rfft(rho),
    k_m = m pi / T, at x = pi z / T on the real fine grid: one irfft, which
    counts each m > 0 twice, with -m, so the power goes in unfolded and the
    Nyquist m = n/2 halved; C(0) = h sum_j rho_j^2 (Parseval).
    O(n log n + 32 len(z)); the error stays within a few 1e-16 of C(0). A z
    off |z| <= T raises ParameterError.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g = f.grid
    if not (np.abs(z) <= g.half_width).all():
        raise ParameterError("density_correlation_at takes |z| <= T")
    rho_hat = g.spacing * np.fft.rfft(f.values ** 2)
    spread = (rho_hat.real ** 2 + rho_hat.imag ** 2) / (2.0 * g.half_width)
    spread *= _deconvolution(g.n)
    spread[-1] *= 0.5
    size = _OVERSAMPLE * g.n
    return _row_dots(np.fft.irfft(spread, size),
                     _taps(z * (np.pi / g.half_width), size))


@read_only_table
def _deconvolution(n: int) -> np.ndarray:
    """sqrt(pi/tau) e^{tau m^2}, m = 0..n/2, for n modes; built once per n,
    read-only."""
    tau = np.pi * _TAPS / (n * n * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
    m = np.arange(n // 2 + 1)
    return np.sqrt(np.pi / tau) * np.exp(tau * m * m)


def _taps(x: np.ndarray, size: int):
    """Gaussian gridding, a type-2 NUFFT (Dutt & Rokhlin, SIAM J. Sci.
    Comput. 14, 1993; Greengard & Lee, SIAM Rev. 46, 2004): the fine grid
    is one FFT of the modes |m| <= n/2 deconvolved by _deconvolution on the
    _OVERSAMPLE-times finer grid of size cells, and each |x| <= pi gathers
    2 _TAPS of its values through the Gaussian e^{-(x - x_l)^2 / 4 tau}.
    Returns the taps: each x's row of _row_dots' window and its weights.
    """
    u = x * (size / (2.0 * np.pi))  # position in fine-grid cells
    left = np.floor(u)
    dist = (u - left)[:, None] - _TAP_OFFSETS
    # (2 pi / size)^2 / (4 tau) = pi (R - 1/2) / (R _TAPS), R = _OVERSAMPLE
    gauss = -np.pi * (_OVERSAMPLE - 0.5) / (_OVERSAMPLE * _TAPS) * dist
    gauss *= dist
    return left.astype(np.intp) + (size // 2 + 1), np.exp(gauss, out=gauss)


def _row_dots(fine: np.ndarray, taps) -> np.ndarray:
    """The gather of _taps: a strided window over fine, padded periodically
    to the cells -size/2 - _TAPS .. size/2 + _TAPS, whose row r is the 2
    _TAPS cells from r - size/2 - _TAPS on; each row of taps dots its
    weights with its window row.  The rows serve floor(u) from -size/2 - 1,
    an x rounded one ulp past -pi, to size/2; the window cannot wrap, so
    the callers keep x in the band.
    """
    rows, gauss = taps
    half = len(fine) // 2
    padded = np.concatenate((fine[half - _TAPS:], fine[:half + _TAPS + 1]))
    window = np.ndarray((2 * half + 2, 2 * _TAPS), padded.dtype, padded, 0,
                        2 * padded.strides)  # row r: padded[r:r + 2 _TAPS]
    return (gauss[:, None, :] @ window[rows][:, :, None])[:, 0, 0]
