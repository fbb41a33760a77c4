"""Product-ansatz energies for the classical polaron in a strong field.

The transverse factor is pinned to the ground Landau Gaussian, so the full
energy is B plus an effective one-dimensional problem for the longitudinal
factor.  This module evaluates that energy, minimizes it, checks the exact
coupling-rescaling identity, reproduces the energy through the classical-field
amplitude formulation, and fits the large-B coefficients from sweeps.

Minimization over the restricted ansatz yields an upper bound on the true
ground-state energy; all trend checks are phrased accordingly.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .decomposition import coulomb_D_product, fourier_side_energy
from .errors import FitError, ParameterError
from .grids import SPECTRAL_N, Field1D, Grid1D, kinetic, mass
from .landau import effective_potential_fourier_cell_average, \
    effective_potential_fourier
from .oned import (OneDProblem, OneDSolution, _solve_rescaled,
                   closed_form_minimizer)
from .special import gauss_legendre_panels

NORMALIZATION_TOL = 1e-6
_N_AVERAGE = 8  # dual-grid cells beside k = 0 given exact averages
# fixed rules of the coherent route's transverse integral, in s = u/B
_RULE_ORDER = 16  # Gauss-Legendre points per panel
_PANEL_BASE = 4.0  # ratio of successive panels on [0, 1], geometric toward 0
_S_FLOOR = 1e-30  # first panel [0, floor]: |integrand| <= 1 bounds it by floor
_S_TAIL = 48.0  # int_48^inf e^{-s}/(s + y) ds < e^{-47} int_1^inf


@dataclass(frozen=True)
class PhysParams:
    """Field strength B and coupling strength alpha."""

    B: float
    alpha: float

    def __post_init__(self):
        if not 1 < self.B < np.inf:
            raise ParameterError("B must be finite and exceed 1")
        if not 0 <= self.alpha < np.inf:
            raise ParameterError("alpha must be finite and nonnegative")


@dataclass(frozen=True)
class PekarProductState:
    """Product state: ground transverse Gaussian times a longitudinal factor."""

    params: PhysParams
    f: Field1D

    def __post_init__(self):
        if abs(mass(self.f) - 1.0) > NORMALIZATION_TOL:
            raise ParameterError("longitudinal factor must have unit mass")


@dataclass
class EnergyBreakdown:
    transverse: float
    longitudinal_kinetic: float
    coulomb: float
    coulomb_error: float = 0.0

    @property
    def total(self) -> float:
        return self.transverse + self.longitudinal_kinetic + self.coulomb


@dataclass
class AsymptoticFit:
    c2: float
    c3: float
    c4: float
    residual_rms: float
    fit_window: list


@dataclass
class SweepRecord:
    B: float
    alpha: float
    E_total: float
    E_kin3: float
    E_coulomb: float
    trial_E: float
    cert_bound: Optional[float]
    iters: int
    residual: float


def sweep_grid(B: float, alpha: float) -> Grid1D:
    """SPECTRAL_N samples on a half-width scaled to the expected minimizer
    width ~ 8/(alpha ln B), so the samples per width are the same at every
    (B, alpha) with alpha ln B >= 4."""
    half_width = 60.0 / max(1.0, alpha * np.log(B) / 4.0)
    return Grid1D(SPECTRAL_N, half_width)


def pekar_energy(state: PekarProductState) -> EnergyBreakdown:
    """Energy of the product state: B + int |f'|^2 - alpha * D."""
    B, alpha = state.params.B, state.params.alpha
    kin = kinetic(state.f)
    if alpha == 0.0:
        return EnergyBreakdown(B, kin, 0.0, 0.0)
    d_val, d_err = coulomb_D_product(state.f, B)
    return EnergyBreakdown(B, kin, -alpha * d_val, alpha * d_err)


def trial_state(B: float, alpha: float = 1.0) -> PekarProductState:
    """Closed-form unit-mass minimizer at coupling b = ln(B)/2, the sech
    profile, on its own grid Grid1D(SPECTRAL_N, 120/b), the same grid in
    units of 1/b at every B; alpha does not change it."""
    params = PhysParams(B, alpha)  # refuses B <= 1 before ln B sizes the grid
    b = np.log(B) / 2.0
    f = closed_form_minimizer(OneDProblem(1.0, b), Grid1D(SPECTRAL_N, 120.0 / b))
    return PekarProductState(params, f)


def trial_energy(B: float, alpha: float) -> EnergyBreakdown:
    """Breakdown for the trial state; the longitudinal kinetic term is the
    exact (ln B)^2/48 rather than its quadrature."""
    lnB = np.log(B)
    return replace(pekar_energy(trial_state(B, alpha)),
                   longitudinal_kinetic=lnB * lnB / 48.0)


def interaction_weights(grid: Grid1D, B: float) -> np.ndarray:
    """Fourier-side interaction weight on the one-sided dual grid; the cells
    nearest k = 0 hold exact cell averages of the log-singular weight."""
    k = grid.wavenumbers()
    dk = np.pi / grid.half_width
    w = effective_potential_fourier(k, B)
    for m in range(_N_AVERAGE + 1):
        w[m] = effective_potential_fourier_cell_average(k[m], dk, B)
    return w


def pekar_minimize(params: PhysParams, tol: float = 1e-11):
    """Minimize the product-ansatz energy over unit-mass longitudinal factors
    on sweep_grid(B, alpha).

    Returns (OneDSolution, EnergyBreakdown).  The flow runs on the dual-grid
    discretization of the interaction; the reported breakdown re-evaluates the
    minimizer through the dual-path Coulomb integrals, and the solution's
    energy is the binding deficit E - B taken from those components.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    B, alpha = params.B, params.alpha
    grid = sweep_grid(B, alpha)
    if alpha == 0.0:
        return OneDSolution(0.0, None, 0, 0.0), EnergyBreakdown(B, 0.0, 0.0, 0.0)
    weights = interaction_weights(grid, B)
    b0 = max(1.0, alpha * np.log(B) / 2.0)
    f0 = 1.0 / np.cosh(b0 * grid.points() / 2.0)
    sol = _solve_rescaled(grid, 1.0, 1.0, weights, alpha / (4 * np.pi ** 2),
                          tol, f0)
    breakdown = pekar_energy(PekarProductState(params, sol.minimizer))
    # the deficit E - B from its components: B's ulp would swamp total - B
    sol.energy = breakdown.longitudinal_kinetic + breakdown.coulomb
    return sol, breakdown


def scaling_identity_check(B: float, alpha: float, f: Field1D):
    """Exact coupling rescaling: the deficit E - B at (B, alpha) of the
    rescaled state equals alpha^2 times the deficit at (B/alpha^2, 1) of the
    original; both come from their components, so B cannot hide an error.

    f must be a unit-mass longitudinal factor for the (B/alpha^2, 1) problem;
    its rescaled partner sqrt(alpha) f(alpha t) lives on the shrunken grid.
    Returns (passed, relative_difference); passed means at most 1e-8.
    """
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    B_reduced = B / alpha ** 2
    if B_reduced <= 1:
        raise ParameterError("B/alpha^2 must exceed 1")
    low = pekar_energy(PekarProductState(PhysParams(B_reduced, 1.0), f))
    rhs = alpha ** 2 * (low.longitudinal_kinetic + low.coulomb)
    scaled_grid = Grid1D(f.grid.n, f.grid.half_width / alpha)
    f_scaled = Field1D(scaled_grid, np.sqrt(alpha) * f.values)
    high = pekar_energy(PekarProductState(PhysParams(B, alpha), f_scaled))
    lhs = high.longitudinal_kinetic + high.coulomb
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return rel <= 1e-8, rel


@lru_cache(maxsize=None)
def _transverse_rule():
    """Shared nodes s and weighted numerators of the transverse integral:
    expm1(-s) on geometric panels of [0, 1], e^{-s} on panels of [1, 48]."""
    n_geo = int(np.ceil(np.log(1.0 / _S_FLOOR) / np.log(_PANEL_BASE)))
    near = np.r_[0.0, _PANEL_BASE ** -np.arange(n_geo, -1, -1.0)]
    far = np.r_[1.0, 2.0, np.arange(4.0, _S_TAIL + 1.0, 4.0)]
    s1, w1 = gauss_legendre_panels(near, _RULE_ORDER)
    s2, w2 = gauss_legendre_panels(far, _RULE_ORDER)
    s = np.concatenate([s1, s2])
    numer = np.concatenate([w1 * np.expm1(-s1), w2 * np.exp(-s2)])
    s.setflags(write=False)
    numer.setflags(write=False)
    return s, numer


def _transverse_weight_quadrature(k3: np.ndarray, B: float) -> np.ndarray:
    """Transverse momentum integral int_0^inf e^{-u/B}/(u + k3^2) du (times pi)
    by fixed composite Gauss-Legendre rules; the independent route to the
    Fourier-side weight.

    Integrated in s = u/B, y = k3^2/B, at unit scale for every B: the sum
    int_0^1 expm1(-s)/(s + y) ds + int_1^48 e^{-s}/(s + y) ds is one
    (k x s) matrix product over a node set shared by every k, and the log
    part ln(1 + 1/y) of int_0^1 ds/(s + y) is split off in closed form.
    Geometric panels toward s = 0 resolve the pole at s = -y for every y
    down to the floor.  For smaller y the first panel [0, floor] is not
    resolved, but |integrand| <= 1 keeps its error near the floor, against
    a weight above 68.
    """
    s, numer = _transverse_rule()
    y = np.asarray(k3, dtype=float) ** 2 / B
    return np.pi * ((1.0 / (y[:, None] + s)) @ numer + np.log1p(1.0 / y))


def coherent_infimum(state: PekarProductState) -> float:
    """Energy through the classical-field amplitude formulation.

    The optimal amplitude is eliminated in closed form, leaving the momentum
    integral of |rho_hat|^2 over the Coulomb propagator; the transverse part
    is integrated by fixed Gauss-Legendre rules rather than the closed form,
    so this is an independent evaluation path that must agree with
    pekar_energy.
    """
    B, alpha = state.params.B, state.params.alpha
    kin = kinetic(state.f)
    attraction = fourier_side_energy(
        state.f, lambda k: _transverse_weight_quadrature(k, B))
    return B + kin - alpha * attraction


# ----------------------------------------------------------------------------
# sweeps and asymptotic fits


def _sweep_point(args):
    lnB, alpha, certify = args
    B = float(np.exp(lnB))
    sol, breakdown = pekar_minimize(PhysParams(B, alpha))
    trial = trial_energy(B, alpha)
    cert_bound = None
    if certify:
        from .certificate import certify_projected
        cert_bound = certify_projected(B, alpha).p0_bound
    return SweepRecord(
        B=B, alpha=alpha, E_total=breakdown.total,
        E_kin3=breakdown.longitudinal_kinetic, E_coulomb=breakdown.coulomb,
        trial_E=trial.total, cert_bound=cert_bound,
        iters=sol.iterations, residual=sol.gradient_residual)


def sweep(lnB_values: Sequence[float], alpha: float, certify: bool = False,
          workers: int = 1) -> list:
    """Minimize at each B = exp(lnB) to tol 1e-11; records sorted by B
    regardless of completion order.  Points are independent; workers > 1
    fans them out."""
    jobs = [(float(x), alpha, certify) for x in lnB_values]
    workers = min(workers, len(jobs), os.cpu_count() or 1)  # all fork at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_point, jobs))
    else:
        records = [_sweep_point(j) for j in jobs]
    records.sort(key=lambda r: r.B)
    return records


def fit_asymptotics(records: Sequence[SweepRecord]) -> AsymptoticFit:
    """Least squares for E(B) = B - c2 X^2 + c3 X Y + c4 X with X = ln B,
    Y = ln ln B, fitted to the sweep energies.

    The binding deficit B - E is taken from the stored energy components
    (E_total = B + E_kin3 + E_coulomb), not by subtracting from B: at
    B ~ e^30 the direct difference would lose the deficit to roundoff.
    """
    if len(records) < 4:
        raise FitError("need at least 4 sweep points for a 3-parameter fit")
    B = np.array([r.B for r in records], dtype=float)
    if len(np.unique(B)) < 4:
        raise FitError("need at least 4 distinct B values")
    X = np.log(B)
    Y = np.log(X)
    y = -np.array([r.E_kin3 + r.E_coulomb for r in records])
    design = np.column_stack([X * X, -X * Y, -X])
    if np.linalg.matrix_rank(design) < 3:
        raise FitError("collinear regressors; widen the B window")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return AsymptoticFit(
        c2=float(coef[0]), c3=float(coef[1]), c4=float(coef[2]),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        fit_window=[float(b) for b in B])
