"""The effective one-dimensional polaron problem.

Closed-form ground state of  int |f'|^2 - b int f^4  at fixed mass, the
interpolation ratio whose floor 3^(1/8) it attains, and a numerical minimizer
for the same functional and for its Fourier-weighted generalization

    kappa1 * int |f'|^2  -  lam * int_{|k|<=K3} w(k) |rho_hat(k)|^2 dk ,

where rho = f^2.  The numerical scheme is a projected gradient flow on the
mass sphere: preconditioned residual directions with an energy-monotone
backtracking line search; even starts and weights of |k| alone keep the
field centred without translation resets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConvergenceError, DomainTooSmallError, InvalidFieldError,
                     ParameterError)
from .grids import (SPECTRAL_N, Field1D, Grid1D, centroid, kinetic, mass,
                    quartic, shift_field)

SHARP_GN_Q4 = 3.0 ** 0.125
_MAX_ITER = 5000  # sphere-flow iteration budget
_GRID = Grid1D(SPECTRAL_N, 40.0)  # the one grid of the unit-width rescaled flow


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


@dataclass(frozen=True)
class WeightedProblem:
    """Unit-mass minimization with a Fourier-weighted attraction.

    weight is a callable w(k) >= 0, evaluated on the dual grid; the attraction
    integral runs over |k| <= cutoff_k3 only.
    """

    kappa1: float
    prefactor_lambda: float
    weight: Callable[[np.ndarray], np.ndarray]
    cutoff_k3: float

    def __post_init__(self):
        if not self.kappa1 > 0:
            raise ParameterError("kappa1 must be positive")
        if self.prefactor_lambda < 0:
            raise ParameterError("prefactor_lambda must be nonnegative")
        if not self.cutoff_k3 > 0:
            raise ParameterError("cutoff_k3 must be positive")


def closed_form_minimizer(p: OneDProblem, g: Grid1D) -> Field1D:
    """Sampled profile (a sqrt(b)/2) / cosh(a b t / 2); requires T*a*b >= 40."""
    if p.coupling_b == 0:
        raise ParameterError("no attained minimizer at zero coupling")
    if g.half_width * p.mass_a * p.coupling_b < 40.0:
        raise DomainTooSmallError(
            "grid too narrow for the sech profile: need half_width*a*b >= 40")
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


def _minimize_on_sphere(grid: Grid1D, akin: float, weights: np.ndarray,
                        lam: float, tol: float, f0: Optional[np.ndarray]):
    """Minimize akin*int f'^2 - lam*dk*sum_k w(|k|) |rho_hat(k)|^2 over all
    dual-grid k on the unit sphere int f^2 = 1.

    weights = w on the one-sided dual grid grid.wavenumbers() (cutoff edge
    fractions already applied); f0, like the Gaussian default, is even on the
    periodic grid, which keeps the flow centred.  Returns (values, energy,
    iterations, residual) of the last accepted field once the flow stops, by
    convergence, budget or an exhausted line search; ConvergenceError unless
    the residual passes.
    """
    n, h = grid.n, grid.spacing
    t = grid.points()
    k2 = grid.wavenumbers() ** 2

    f = np.exp(-t * t / 2.0) if f0 is None else np.array(f0, dtype=float)
    nrm = h * np.sum(f * f)
    if nrm <= 0:
        raise InvalidFieldError("initial field must be nonzero")
    f *= np.sqrt(1.0 / nrm)

    def state(fv):
        """(energy, akin f'', W) of a field on the sphere, with W f the flow
        term of the attraction; by Parseval the energy is
        -h sum f (akin f'' + W f / 2)."""
        lap = akin * np.fft.irfft(-k2 * np.fft.rfft(fv), n)
        W = 4.0 * np.pi * lam * np.fft.irfft(weights * np.fft.rfft(fv * fv), n)
        return -h * np.sum(fv * (lap + 0.5 * W * fv)), lap, W

    E, lap, W = state(f)
    theta = 1.0
    for it in range(1, _MAX_ITER + 1):
        Lf = lap + W * f
        mu = h * np.sum(f * Lf)
        r = Lf - mu * f
        residual = np.sqrt(h * np.sum(r * r))
        shift = max(np.max(np.abs(W)), 1.0)
        d = np.fft.irfft(np.fft.rfft(r) / (akin * k2 + shift), n)
        d -= (h * np.sum(f * d)) * f
        slope = h * np.sum(r * d)
        theta = min(theta * 1.5, 50.0)
        for _ in range(60):
            fn = f + theta * d
            fn *= np.sqrt(1.0 / (h * np.sum(fn * fn)))
            En, lap_n, W_n = state(fn)
            if En <= E - 1e-4 * theta * slope + 1e-14 * (1 + abs(E)):
                break
            theta *= 0.5
        else:
            # line search exhausted: gradient is at the numerical floor
            break
        rel_change = abs(En - E) / max(abs(En), 1e-300)
        f, E, lap, W = fn, En, lap_n, W_n
        if rel_change < tol and residual < np.sqrt(tol) * (1 + abs(E)):
            break
    if not residual < np.sqrt(tol) * (1 + abs(E)):
        raise ConvergenceError(
            f"sphere minimizer stalled: residual {residual:.3e} after {it} "
            "iterations", iterations=it, residual=residual)
    return f, E, it, residual


def _solve_rescaled(g: Grid1D, mu: float, akin: float, weights: np.ndarray,
                    lam: float, tol: float, f0: Optional[np.ndarray] = None,
                    a: float = 1.0) -> OneDSolution:
    """Unit-mass sphere flow on the rescaled problem, mapped back to mass a:
    minimizer f(t) = sqrt(a mu) q(mu t) on the grid (n, half_width/mu),
    energy a mu^2 E_q, residual sqrt(a) mu^2 ||r_q||, the L2 norm of f's own
    residual.  A ConvergenceError keeps ||r_q||, which the flow's tolerance
    is compared with."""
    vals, E_int, iters, res = _minimize_on_sphere(
        g, akin, weights, lam, tol, f0)
    minimizer = Field1D(Grid1D(g.n, g.half_width / mu), np.sqrt(a * mu) * vals)
    return OneDSolution(a * mu * mu * E_int, minimizer, iters,
                        np.sqrt(a) * mu * mu * res)


def _unit_scale(b_eff: float) -> float:
    """mu = b_eff/4, mapping effective coupling b_eff to the unit-width
    problem on _GRID, unless the returned grid's span 2T/mu overflows."""
    mu = b_eff / 4.0
    if not mu > 2.0 * _GRID.half_width / np.finfo(float).max:
        raise ParameterError(f"coupling {b_eff:g} too weak for a double grid")
    return mu


def solve_numeric(p: OneDProblem, tol: float) -> OneDSolution:
    """Ground state of the quartic problem by projected gradient flow.

    Every (a, b) is one problem: f(t) = sqrt(a mu) q(mu t), mu = a*b/4,
    maps it to the unit-mass, unit-width q minimizing int q'^2 - 4 int q^4,
    solved on _GRID = Grid1D(SPECTRAL_N, 40); the minimizer is returned on
    (SPECTRAL_N, 40/mu), with energy a mu^2 E_q.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    a, b = p.mass_a, p.coupling_b
    if b == 0.0:
        return OneDSolution(0.0, None, 0, 0.0)
    mu = _unit_scale(a * b)
    return _solve_rescaled(_GRID, mu, 1.0, np.ones(_GRID.n // 2 + 1),
                           4.0 / (2 * np.pi), tol, a=a)


def solve_weighted(wp: WeightedProblem) -> OneDSolution:
    """Ground state of the Fourier-weighted problem at unit mass, to tol 1e-10.

    Same unit-width rescaling, with mu = b_tilde/4 from the constant-weight
    surrogate b_tilde = 2*pi*lam*sup(w)/kappa1.  A bounded weight keeps the
    functional bounded below (the quartic surrogate value), so the only hard
    failure is a stalled iteration.
    """
    k_probe = np.linspace(0.0, wp.cutoff_k3, 4097)
    w_probe = np.asarray(wp.weight(k_probe), dtype=float)
    if np.any(w_probe < -1e-12) or not np.all(np.isfinite(w_probe)):
        raise ParameterError("weight must be finite and nonnegative on [0, K3]")
    w_sup = float(np.max(w_probe))
    if wp.prefactor_lambda * w_sup == 0.0:
        return OneDSolution(0.0, None, 0, 0.0)

    mu = _unit_scale(2 * np.pi * wp.prefactor_lambda * w_sup / wp.kappa1)
    k = _GRID.wavenumbers()
    dk = np.pi / _GRID.half_width
    cutoff = wp.cutoff_k3 / mu
    weights = np.asarray(wp.weight(k * mu), dtype=float)
    frac = np.clip((cutoff - (k - dk / 2)) / dk, 0.0, 1.0)
    return _solve_rescaled(_GRID, mu, wp.kappa1, weights * frac,
                           wp.prefactor_lambda / mu, 1e-10)


def distance_to_profile(sol_field: Field1D, p: OneDProblem) -> float:
    """L2 distance of |f| to the centered closed-form profile, after
    recentering at the density centroid (the minimizer is unique only up to
    translation and sign)."""
    f = shift_field(sol_field, centroid(sol_field))
    ref = closed_form_minimizer(p, f.grid)
    d2 = f.grid.spacing * np.sum((np.abs(f.values) - ref.values) ** 2)
    return float(np.sqrt(d2))
