"""The effective one-dimensional polaron problem.

Closed-form ground state of  int |f'|^2 - b int f^4  at fixed mass, the
interpolation ratio whose floor 3^(1/8) it attains, and one numerical
minimizer, solve_weighted, for its Fourier-weighted generalization

    akin * int |f'|^2  -  lam * int w(k) |rho_hat(k)|^2 dk ,

where rho = f^2.  The caller states the physical problem, w as a function
of the grid, lam and the scale mu at which the minimizer has unit width;
this module alone picks where a 1D field is sampled, _GRID scaled to its
width, and maps lam to unit width.  The numerical scheme is a projected
gradient flow on the mass sphere: preconditioned residual directions with
an energy-monotone backtracking line search; even starts and weights of |k|
alone keep the field centred without translation resets.  The flow runs
in spectral coordinates (Antoine, Levitt & Tang, J. Comput. Phys. 343
(2017) 92-109): the field is carried as its one-sided spectrum, where the
mass constraint, the kinetic term and the preconditioner are diagonal, and
only the density f^2 and the flow potential W f go through real space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, InvalidFieldError, ParameterError
from .grids import Field1D, Grid1D, kinetic, mass, one_sided_fold, quartic

SHARP_GN_Q4 = 3.0 ** 0.125
_MAX_ITER = 5000  # sphere-flow iteration budget
# every 1D field is sampled on this unit-width grid scaled to its width,
# _scaled_grid(mu); twice the samples move no output by more than 1e-14
_GRID = Grid1D(1024, 40.0)


@dataclass(frozen=True)
class OneDProblem:
    """Minimize int |f'|^2 - coupling_b * int f^4 subject to int f^2 = mass_a."""

    mass_a: float
    coupling_b: float

    def __post_init__(self):
        if not self.mass_a > 0:
            raise ParameterError("mass_a must be positive")
        if self.coupling_b < 0:
            raise ParameterError("coupling_b must be nonnegative")
        try:  # also refuses an infinite or NaN value
            energy = closed_form_energy(self)
        except OverflowError:
            energy = math.inf
        if not math.isfinite(energy):
            raise ParameterError("-b^2 a^3/12 is not a finite double at "
                                 f"a={self.mass_a}, b={self.coupling_b}")


@dataclass
class OneDSolution:
    energy: float
    minimizer: Optional[Field1D]
    iterations: int
    gradient_residual: float

    @property
    def degenerate(self) -> bool:
        """Zero coupling: the infimum is not attained."""
        return self.minimizer is None


def _unit_scale(p: OneDProblem) -> float:
    return p.mass_a * p.coupling_b / 4.0  # mu: the minimizer has width 1/mu


def closed_form_minimizer(p: OneDProblem) -> Field1D:
    """(a sqrt(b)/2) / cosh(a b t / 2) on solve_numeric(p)'s grid."""
    if p.coupling_b == 0:
        raise ParameterError("no attained minimizer at zero coupling")
    g = _scaled_grid(_unit_scale(p))
    t = g.points()
    arg = p.mass_a * p.coupling_b * t / 2.0
    vals = (p.mass_a * np.sqrt(p.coupling_b) / 2.0) / np.cosh(arg)
    return Field1D(g, vals)


def closed_form_energy(p: OneDProblem) -> float:
    """Ground-state value -b^2 a^3 / 12, multiplied out from b^2 so that no
    factor a^3 underflows on its own (a = 1e-150, b = 1e150)."""
    a = p.mass_a
    return -(p.coupling_b ** 2) * a * a * a / 12.0


def gn_ratio(f: Field1D) -> float:
    """||f'||^(1/4) ||f||^(3/4) / ||f||_4; bounded below by 3^(1/8)."""
    m = mass(f)
    if m == 0.0:
        raise InvalidFieldError("gn_ratio undefined for the zero field")
    k = kinetic(f)
    q = quartic(f)
    return k ** 0.125 * m ** 0.375 / q ** 0.25


# ----------------------------------------------------------------------------
# core sphere minimizer


def _minimize_on_sphere(akin: float, weights: np.ndarray, lam: float,
                        tol: float, f0: Optional[np.ndarray]):
    """Minimize akin*int f'^2 - lam*dk*sum_k w(|k|) |rho_hat(k)|^2 over all
    dual-grid k of _GRID on the unit sphere int f^2 = 1.

    weights = w on the one-sided dual grid _GRID.wavenumbers() (cutoff edge
    fractions already applied); f0, like the Gaussian default, is even on the
    periodic grid, which keeps the flow centred.  It stops once a step moves
    the energy by less than tol relative with the residuals before and after
    it below sqrt(tol) (1 + |E|), at the budget, or when the line search runs
    out, and returns (values, energy, iterations, residual) of the last
    accepted field, the residual its own; ConvergenceError unless it passes.

    The flow runs in spectral coordinates: the field is its one-sided
    spectrum F = rfft(f), with the samples f = irfft(F) alongside.  Every
    inner product h sum x y is the Parseval sum (h/n) sum fold Re(X conj Y),
    a real dot product on the float views, so the mass, the kinetic term and
    the preconditioner 1/(akin k^2 + shift) are diagonal.  The energy is
    akin sum g k^2 |F|^2 - 2 pi lam sum g w |P|^2 with g = h fold/n and
    P = rfft(f^2); a line-search trial costs one irfft and one rfft, and the
    gradient of each field the flow holds, rfft(W f) - akin k^2 F with the
    flow potential W = 4 pi lam irfft(w P), two more.
    """
    n, h = _GRID.n, _GRID.spacing
    t = _GRID.points()
    k2 = _GRID.wavenumbers() ** 2
    g = np.repeat(h / n * one_sided_fold(n), 2)  # on the float view
    g_kin = akin * np.repeat(k2, 2) * g
    g_att = 2.0 * np.pi * lam * np.repeat(weights, 2) * g

    def dot(X, Y):
        """h sum x y of two real fields from their one-sided spectra."""
        return np.dot(g * X.view(float), Y.view(float))

    def energy(F, P):
        Fv, Pv = F.view(float), P.view(float)
        return np.dot(g_kin * Fv, Fv) - np.dot(g_att * Pv, Pv)

    def gradient(f, F, P):
        """Tangent residual R of akin f'' + W f, ||R||, shift max(|W|, 1)."""
        W = 4.0 * np.pi * lam * np.fft.irfft(weights * P, n)
        G = np.fft.rfft(W * f) - akin * k2 * F  # akin f'' + W f
        R = G - dot(F, G) * F
        return R, np.sqrt(dot(R, R)), max(np.max(np.abs(W)), 1.0)

    f = np.exp(-t * t / 2.0) if f0 is None else np.array(f0, dtype=float)
    nrm = h * np.sum(f * f)
    if nrm <= 0:
        raise InvalidFieldError("initial field must be nonzero")
    f *= np.sqrt(1.0 / nrm)
    F, P = np.fft.rfft(f), np.fft.rfft(f * f)
    E = energy(F, P)
    R, residual, shift = gradient(f, F, P)
    theta = 1.0
    for it in range(1, _MAX_ITER + 1):
        D = R / (akin * k2 + shift)
        D -= dot(F, D) * F
        slope = dot(R, D)
        theta = min(theta * 1.5, 50.0)
        for _ in range(60):
            Fn = F + theta * D
            Fn *= np.sqrt(1.0 / dot(Fn, Fn))
            fn = np.fft.irfft(Fn, n)
            Pn = np.fft.rfft(fn * fn)
            En = energy(Fn, Pn)
            if En <= E - 1e-4 * theta * slope + 1e-14 * (1 + abs(E)):
                break
            theta *= 0.5
        else:
            # line search exhausted: gradient is at the numerical floor
            break
        rel_change = abs(En - E) / max(abs(En), 1e-300)
        f, F, P, E = fn, Fn, Pn, En
        before = residual
        R, residual, shift = gradient(f, F, P)
        if rel_change < tol and max(before, residual) < np.sqrt(tol) * (
                1 + abs(E)):
            break
    if not residual < np.sqrt(tol) * (1 + abs(E)):
        raise ConvergenceError(
            f"sphere minimizer stalled: residual {residual:.3e} after {it} "
            "iterations", iterations=it, residual=residual)
    return f, E, it, residual


def solve_weighted(mu: float, akin: float, weight: Callable, lam: float,
                   tol: float, start: Optional[Callable] = None,
                   a: float = 1.0) -> OneDSolution:
    """Minimize akin int f'^2 - lam dk sum_k w(k) |rho_hat(k)|^2 at mass a
    over the dual grid of _scaled_grid(mu), on which the minimizer has unit
    width.  weight(grid), called once on that grid, returns w on its
    one-sided dual grid grid.wavenumbers(), cutoffs applied, finite and
    nonnegative.  Solved as f(t) = sqrt(a mu) q(mu t): unit mass on the
    unit-width _GRID at coupling a lam/mu from start(t) (even) or the
    Gaussian, mapped back with energy a mu^2 E_q and residual
    sqrt(a) mu^2 ||r_q|| (ConvergenceError keeps ||r_q||, tol's measure).
    A flow leaving the doubles is a ParameterError."""
    if not 0 < tol < 1:  # relative: at tol >= 1 the first step would pass
        raise ParameterError(f"tol must lie in (0, 1), got {tol:g}")
    grid = _scaled_grid(mu)
    weights = np.asarray(weight(grid), dtype=float)
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ParameterError("weights must be finite and nonnegative")
    f0 = None if start is None else start(_GRID.points())
    try:  # the map back to mass a and scale mu can leave the doubles too
        with np.errstate(over="raise", invalid="raise"):
            vals, E_int, iters, res = _minimize_on_sphere(
                akin, weights, a * lam / mu, tol, f0)
            return OneDSolution(
                a * mu * mu * E_int, Field1D(grid, np.sqrt(a * mu) * vals),
                iters, np.sqrt(a) * mu * mu * res)
    except FloatingPointError:
        raise ParameterError(f"the sphere flow at coupling lam = {lam:g} "
                             "leaves the doubles") from None


def _scaled_grid(mu: float) -> Grid1D:
    """The grid (n, T/mu) of _GRID = (n, T) at scale mu, if 2T/mu is finite."""
    if not mu > 2.0 * _GRID.half_width / np.finfo(float).max:
        raise ParameterError(f"scale {mu:g} too small for a double grid")
    return Grid1D(_GRID.n, _GRID.half_width / mu)


def solve_numeric(p: OneDProblem, tol: float) -> OneDSolution:
    """Ground state of the quartic problem by projected gradient flow.

    b int f^4 = (b/2pi) int |rho_hat|^2 dk: solve_weighted with the flat
    weight and lam = b/(2 pi) at mu = a*b/4, where every (a, b) becomes the
    one unit-mass, unit-width q minimizing int q'^2 - 4 int q^4; the
    minimizer comes on _scaled_grid(mu), closed_form_minimizer(p)'s grid.
    """
    a, b = p.mass_a, p.coupling_b
    if b == 0.0:
        return OneDSolution(0.0, None, 0, 0.0)
    return solve_weighted(_unit_scale(p), 1.0,
                          lambda g: np.ones(g.n // 2 + 1), b / (2 * np.pi),
                          tol, a=a)


def distance_to_profile(sol_field: Field1D, p: OneDProblem) -> float:
    """L2 distance of |f| to the closed-form profile, on its grid and f's;
    every flow starts even with weights of |k| alone, so f is centred."""
    profile = closed_form_minimizer(p)
    if sol_field.grid != profile.grid:
        raise InvalidFieldError(f"field off the profile's grid {profile.grid}")
    diff = np.abs(sol_field.values) - profile.values
    return float(np.sqrt(sol_field.grid.spacing * np.sum(diff ** 2)))
