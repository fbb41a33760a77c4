"""The effective one-dimensional polaron problem.

Closed-form ground state of  int |f'|^2 - b int f^4  at fixed mass, the sharp
interpolation constant behind it, and a numerical minimizer for the same
functional and for its Fourier-weighted generalization

    kappa1 * int |f'|^2  -  lam * int_{|k|<=K3} w(k) |rho_hat(k)|^2 dk ,

where rho = f^2.  The numerical scheme is a projected gradient flow on the
mass sphere: preconditioned residual directions with an energy-monotone
backtracking line search, translation fixed by periodic recentering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.special as _sc

from .errors import (ConvergenceError, DomainTooSmallError, InvalidFieldError,
                     ParameterError, ResolutionError)
from .grids import (Field1D, Grid1D, centroid, kinetic, mass, quartic,
                    shift_field)

SHARP_GN_Q4 = 3.0 ** 0.125
_RECENTER_EVERY = 50  # sphere-flow iterations between translation resets
_MAX_ITER = 5000  # sphere-flow iteration budget unless solve_numeric sets one


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


@dataclass
class OneDSolution:
    energy: float
    minimizer: Optional[Field1D]
    iterations: int
    gradient_residual: float
    degenerate: bool = False


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
    """Ground-state value -b^2 a^3 / 12."""
    return -(p.coupling_b ** 2) * (p.mass_a ** 3) / 12.0


def gn_ratio(f: Field1D) -> float:
    """||f'||^(1/4) ||f||^(3/4) / ||f||_4; bounded below by 3^(1/8)."""
    m = mass(f)
    if m == 0.0:
        raise InvalidFieldError("gn_ratio undefined for the zero field")
    k = kinetic(f)
    q = quartic(f)
    return k ** 0.125 * m ** 0.375 / q ** 0.25


def gn_gap(f: Field1D, b: float) -> float:
    """kinetic - b*quartic + (b^2/12)*mass^3; nonnegative up to grid error."""
    return kinetic(f) - b * quartic(f) + (b * b / 12.0) * mass(f) ** 3


def sharp_gn_constant(q: float) -> float:
    """Sharp constant C_q in ||g'||^theta ||g||^(1-theta) >= C_q ||g||_q.

    theta = 1/2 - 1/q, q > 2.  Evaluated on the extremal profile
    cosh(t)^(-2/(q-2)) whose integrals reduce to Gamma-function ratios;
    C_4 = 3^(1/8).
    """
    if q <= 2:
        raise ParameterError("sharp constant defined for q > 2")
    p = 2.0 / (q - 2.0)
    s1 = np.sqrt(np.pi) * _sc.gamma(p) / _sc.gamma(p + 0.5)
    s2 = s1 * p / (p + 0.5)
    kin = p * p * (s1 - s2)
    theta = 0.5 - 1.0 / q
    return float(kin ** (theta / 2) * s1 ** ((1 - theta) / 2) / s2 ** (1.0 / q))


# ----------------------------------------------------------------------------
# core sphere minimizer


def _minimize_on_sphere(grid: Grid1D, akin: float, weights: np.ndarray,
                        lam: float, mass_target: float, tol: float,
                        f0: Optional[np.ndarray], max_iter: int):
    """Minimize akin*int f'^2 - lam*dk*sum_m weights_m |rho_hat_m|^2 on the
    sphere int f^2 = mass_target.

    weights live on the FFT-order dual grid (cutoff edge fractions already
    applied).  Returns (values, energy, iterations, residual).
    """
    n, h, dk = grid.n, grid.spacing, np.pi / grid.half_width
    t = grid.points()
    k = grid.wavenumbers()

    f = np.exp(-t * t / 2.0) if f0 is None else np.array(f0, dtype=float)
    nrm = h * np.sum(f * f)
    if nrm <= 0:
        raise InvalidFieldError("initial field must be nonzero")
    f *= np.sqrt(mass_target / nrm)

    def state(fv):
        """(energy, fft(fv), rho_hat) of a field on the sphere."""
        F = np.fft.fft(fv)
        kin = akin * (h / n) * np.sum(k * k * np.abs(F) ** 2)
        rho_hat = h * np.fft.fft(fv * fv)  # e^{ikT} cancels in |.|^2 and W
        pot = lam * dk * np.sum(weights * (rho_hat.real ** 2 + rho_hat.imag ** 2))
        return kin - pot, F, rho_hat

    def flow_weight(rho_hat):
        # W = -(1/2) delta(potential term)/delta f / f ; flow term is W*f
        return 4.0 * np.pi * lam * (dk / (2 * np.pi)) * n * np.real(
            np.fft.ifft(weights * rho_hat))

    def recenter(fv):
        fld = Field1D(grid, fv)
        fv = shift_field(fld, centroid(fld)).values
        return fv * np.sqrt(mass_target / (h * np.sum(fv * fv)))

    E, F, rho_hat = state(f)
    W = flow_weight(rho_hat)
    theta = 1.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        lap = np.real(np.fft.ifft(-k * k * F))
        Lf = akin * lap + W * f
        mu = h * np.sum(f * Lf) / mass_target
        r = Lf - mu * f
        residual = np.sqrt(h * np.sum(r * r))
        shift = max(np.max(np.abs(W)), 1.0)
        d = np.real(np.fft.ifft(np.fft.fft(r) / (akin * k * k + shift)))
        d -= (h * np.sum(f * d) / mass_target) * f
        slope = h * np.sum(r * d)
        theta = min(theta * 1.5, 50.0)
        for _ in range(60):
            fn = f + theta * d
            fn *= np.sqrt(mass_target / (h * np.sum(fn * fn)))
            En, Fn, rho_hat = state(fn)
            if En <= E - 1e-4 * theta * slope + 1e-14 * (1 + abs(E)):
                break
            theta *= 0.5
        else:
            # line search exhausted: gradient is at the numerical floor
            break
        rel_change = abs(En - E) / max(abs(En), 1e-300)
        f, E, F = fn, En, Fn
        if it % _RECENTER_EVERY == 0:
            f = recenter(f)
            E, F, rho_hat = state(f)
        if rel_change < tol and residual < np.sqrt(tol) * (1 + abs(E)):
            f = recenter(f)
            return f, state(f)[0], it, residual
        W = flow_weight(rho_hat)
    if residual < np.sqrt(tol) * (1 + abs(E)):
        return f, E, max_iter, residual
    raise ConvergenceError(
        f"sphere minimizer stalled: residual {residual:.3e} after {it} iterations",
        iterations=it, residual=residual)


def _solve_rescaled(g: Grid1D, mu: float, akin: float, weights: np.ndarray,
                    lam: float, mass_target: float, tol: float,
                    f0: Optional[np.ndarray] = None,
                    max_iter: int = _MAX_ITER) -> OneDSolution:
    """Sphere flow on the rescaled problem, mapped back: minimizer
    f(t) = sqrt(mu) q(mu t) on the grid (n, half_width/mu), energy mu^2 E_q."""
    vals, E_int, iters, res = _minimize_on_sphere(
        g, akin, weights, lam, mass_target, tol, f0, max_iter)
    out_grid = Grid1D(g.n, g.half_width / mu) if mu != 1.0 else g
    minimizer = Field1D(out_grid, np.sqrt(mu) * vals)
    return OneDSolution(mu * mu * E_int, minimizer, iters, res)


def solve_numeric(p: OneDProblem, g: Grid1D, tol: float,
                  init: Optional[np.ndarray] = None,
                  max_iter: int = _MAX_ITER) -> OneDSolution:
    """Ground state of the quartic problem by projected gradient flow.

    Internally rescaled so the minimizer width is O(1): f(t) = sqrt(mu) q(mu t)
    with mu = max(1, a*b/4); the returned minimizer lives on the grid
    (n, half_width/mu).
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    a, b = p.mass_a, p.coupling_b
    if b == 0.0:
        return OneDSolution(0.0, None, 0, 0.0, degenerate=True)
    mu = max(1.0, a * b / 4.0)
    b_int = b / mu
    if g.half_width * a * b_int < 8.0:
        raise DomainTooSmallError(
            "minimizer width exceeds the grid: need half_width*a*b >= 8")
    return _solve_rescaled(g, mu, 1.0, np.ones(g.n), b_int / (2 * np.pi), a,
                           tol, init, max_iter)


def solve_weighted(wp: WeightedProblem, g: Grid1D, tol: float) -> OneDSolution:
    """Ground state of the Fourier-weighted problem at unit mass.

    Same internal rescaling, driven by the constant-weight surrogate
    b_tilde = 2*pi*lam*sup(w)/kappa1.  A bounded weight keeps the functional
    bounded below (the quartic surrogate value), so the only hard failure
    modes are an unresolvable grid or a stalled iteration.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    k_probe = np.linspace(0.0, wp.cutoff_k3, 4097)
    w_probe = np.asarray(wp.weight(k_probe), dtype=float)
    if np.any(w_probe < -1e-12) or not np.all(np.isfinite(w_probe)):
        raise ParameterError("weight must be finite and nonnegative on [0, K3]")
    w_sup = float(np.max(w_probe))
    if wp.prefactor_lambda * w_sup == 0.0:
        return OneDSolution(0.0, None, 0, 0.0, degenerate=True)

    b_tilde = 2 * np.pi * wp.prefactor_lambda * w_sup / wp.kappa1
    mu = max(1.0, b_tilde / 4.0)
    if g.spacing * max(1.0, b_tilde / mu) > 0.2:
        raise ResolutionError(
            "grid spacing cannot resolve the weighted minimizer; refine n")
    if g.half_width < 12.0:
        raise DomainTooSmallError("weighted solve needs half_width >= 12")
    if g.half_width * b_tilde / mu < 8.0:
        raise DomainTooSmallError(
            "weighted minimizer is wider than the grid; enlarge half_width")

    k = g.wavenumbers()
    dk = np.pi / g.half_width
    cutoff = wp.cutoff_k3 / mu
    weights = np.asarray(wp.weight(np.abs(k) * mu), dtype=float)
    frac = np.clip((cutoff - (np.abs(k) - dk / 2)) / dk, 0.0, 1.0)
    return _solve_rescaled(g, mu, wp.kappa1, weights * frac,
                           wp.prefactor_lambda / mu, 1.0, tol)


def distance_to_profile(sol_field: Field1D, p: OneDProblem) -> float:
    """L2 distance of |f| to the centered closed-form profile, after
    recentering at the density centroid (the minimizer is unique only up to
    translation and sign)."""
    f = shift_field(sol_field, centroid(sol_field))
    ref = closed_form_minimizer(p, f.grid)
    d2 = f.grid.spacing * np.sum((np.abs(f.values) - ref.values) ** 2)
    return float(np.sqrt(d2))
