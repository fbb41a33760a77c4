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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from .decomposition import coulomb_D_product, fourier_side_energy
from .errors import FitError, ParameterError
from .grids import Field1D, Grid1D, kinetic, mass
from .landau import effective_potential_fourier_cell_average, \
    effective_potential_fourier
from .oned import OneDSolution, _solve_rescaled

NORMALIZATION_TOL = 1e-6
_N_AVERAGE = 8  # dual-grid cells on each side of k = 0 given exact averages
_SWEEP_N = 8192  # samples of every sweep grid


@dataclass(frozen=True)
class PhysParams:
    """Field strength B and coupling strength alpha."""

    B: float
    alpha: float

    def __post_init__(self):
        if not self.B > 1:
            raise ParameterError("B must exceed 1")
        if self.alpha < 0:
            raise ParameterError("alpha must be nonnegative")


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
    """Fixed-n grid scaled to the expected minimizer width ~ 8/(alpha ln B)."""
    half_width = 60.0 / max(1.0, alpha * np.log(B) / 4.0)
    return Grid1D(_SWEEP_N, half_width)


def pekar_energy(state: PekarProductState) -> EnergyBreakdown:
    """Energy of the product state: B + int |f'|^2 - alpha * D."""
    B, alpha = state.params.B, state.params.alpha
    kin = kinetic(state.f)
    if alpha == 0.0:
        return EnergyBreakdown(B, kin, 0.0, 0.0)
    d_val, d_err = coulomb_D_product(state.f, B)
    return EnergyBreakdown(B, kin, -alpha * d_val, alpha * d_err)


def trial_state(B: float, alpha: float = 1.0,
                grid: Optional[Grid1D] = None) -> PekarProductState:
    """Sech profile with coupling ln(B)/2, unit mass, on the sweep grid."""
    if B <= np.e:
        raise ParameterError("trial state defined for B > e")
    if grid is None:
        grid = sweep_grid(B, max(alpha, 1.0))
    b = np.log(B) / 2.0
    t = grid.points()
    vals = (np.sqrt(b) / 2.0) / np.cosh(b * t / 2.0)
    return PekarProductState(PhysParams(B, alpha), Field1D(grid, vals))


def trial_energy(B: float, alpha: float,
                 grid: Optional[Grid1D] = None) -> EnergyBreakdown:
    """Breakdown for the trial state; the longitudinal kinetic term is the
    exact (ln B)^2/48 rather than its quadrature."""
    state = trial_state(B, alpha, grid)
    lnB = np.log(B)
    kin_exact = lnB * lnB / 48.0
    if alpha == 0.0:
        return EnergyBreakdown(B, kin_exact, 0.0, 0.0)
    d_val, d_err = coulomb_D_product(state.f, B)
    return EnergyBreakdown(B, kin_exact, -alpha * d_val, alpha * d_err)


def interaction_weights(grid: Grid1D, B: float) -> np.ndarray:
    """Fourier-side interaction weight on the dual grid, with the cells
    nearest k = 0 replaced by exact cell averages of the log-singular weight."""
    k = grid.wavenumbers()
    dk = np.pi / grid.half_width
    w = effective_potential_fourier(k, B)
    # FFT order: k = 0 and the _N_AVERAGE cells on either side of it
    for m in np.r_[:_N_AVERAGE + 1, -_N_AVERAGE:0]:
        w[m] = effective_potential_fourier_cell_average(k[m], dk, B)
    return w


def pekar_minimize(params: PhysParams, grid: Optional[Grid1D] = None,
                   tol: float = 1e-11):
    """Minimize the product-ansatz energy over unit-mass longitudinal factors.

    Returns (OneDSolution, EnergyBreakdown).  The flow runs on the dual-grid
    discretization of the interaction; the reported breakdown re-evaluates the
    minimizer through the dual-path Coulomb integrals, and the solution's
    energy is the binding deficit E - B taken from those components.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    B, alpha = params.B, params.alpha
    if grid is None:
        grid = sweep_grid(B, alpha)
    if alpha == 0.0:
        sol = OneDSolution(0.0, None, 0, 0.0, degenerate=True)
        return sol, EnergyBreakdown(B, 0.0, 0.0, 0.0)
    weights = interaction_weights(grid, B)
    b0 = max(1.0, alpha * np.log(B) / 2.0)
    f0 = 1.0 / np.cosh(b0 * grid.points() / 2.0)
    sol = _solve_rescaled(grid, 1.0, 1.0, weights, alpha / (4 * np.pi ** 2),
                          1.0, tol, f0)
    breakdown = pekar_energy(PekarProductState(params, sol.minimizer))
    # the deficit E - B from its components: B's ulp would swamp total - B
    sol.energy = breakdown.longitudinal_kinetic + breakdown.coulomb
    return sol, breakdown


def scaling_identity_check(B: float, alpha: float, f: Field1D):
    """Exact coupling rescaling: the energy at (B, alpha) of the rescaled
    state equals alpha^2 times the energy at (B/alpha^2, 1) of the original.

    f must be a unit-mass longitudinal factor for the (B/alpha^2, 1) problem;
    its rescaled partner sqrt(alpha) f(alpha t) lives on the shrunken grid.
    Returns (passed, relative_difference); passed means at most 1e-8.
    """
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    B_reduced = B / alpha ** 2
    if B_reduced <= 1:
        raise ParameterError("B/alpha^2 must exceed 1")
    rhs = alpha ** 2 * pekar_energy(
        PekarProductState(PhysParams(B_reduced, 1.0), f)).total
    scaled_grid = Grid1D(f.grid.n, f.grid.half_width / alpha)
    f_scaled = Field1D(scaled_grid, np.sqrt(alpha) * f.values)
    lhs = pekar_energy(PekarProductState(PhysParams(B, alpha), f_scaled)).total
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return rel <= 1e-8, rel


def _transverse_weight_quadrature(k3: np.ndarray, B: float) -> np.ndarray:
    """Transverse momentum integral int_0^inf e^{-u/B}/(u + k3^2) du (times pi)
    by adaptive quadrature; the independent route to the Fourier-side weight.

    Integrated in s = u/B, y = k3^2/B, at unit scale for every B and to a
    relative tolerance; the log part ln(1 + 1/y) near s = 0 is split off in
    closed form so the remaining integrands are smooth for arbitrarily small k3.
    """
    out = np.empty(len(k3))
    for i, kk in enumerate(k3):
        y = kk * kk / B
        j1, _ = integrate.quad(
            lambda s: np.expm1(-s) / (s + y), 0.0, 1.0, limit=200, epsabs=0.0)
        j2, _ = integrate.quad(
            lambda s: np.exp(-s) / (s + y), 1.0, np.inf, limit=200, epsabs=0.0)
        out[i] = np.pi * (j1 + np.log1p(1.0 / y) + j2)
    return out


def coherent_infimum(state: PekarProductState) -> float:
    """Energy through the classical-field amplitude formulation.

    The optimal amplitude is eliminated in closed form, leaving the momentum
    integral of |rho_hat|^2 over the Coulomb propagator; the transverse part
    is integrated by adaptive quadrature rather than the closed form, so this
    is an independent evaluation path that must agree with pekar_energy.
    """
    B, alpha = state.params.B, state.params.alpha
    kin = kinetic(state.f)
    if alpha == 0.0:
        return B + kin
    attraction = fourier_side_energy(
        state.f, lambda k: _transverse_weight_quadrature(np.atleast_1d(k), B))
    return B + kin - alpha * attraction


# ----------------------------------------------------------------------------
# sweeps and asymptotic fits


def _sweep_point(args):
    lnB, alpha, tol, certify = args
    B = float(np.exp(lnB))
    params = PhysParams(B, alpha)
    grid = sweep_grid(B, alpha)
    sol, breakdown = pekar_minimize(params, grid, tol)
    trial = trial_energy(B, alpha, grid)
    cert_bound = None
    if certify:
        from .certificate import certify_projected
        cert_bound = certify_projected(B, alpha).p0_bound
    e_kin3 = breakdown.longitudinal_kinetic
    e_coul = breakdown.coulomb
    return SweepRecord(
        B=B, alpha=alpha, E_total=B + e_kin3 + e_coul, E_kin3=e_kin3,
        E_coulomb=e_coul, trial_E=trial.total, cert_bound=cert_bound,
        iters=sol.iterations, residual=sol.gradient_residual)


def sweep(lnB_values: Sequence[float], alpha: float, tol: float = 1e-11,
          certify: bool = False, workers: int = 1) -> list:
    """Minimize at each B = exp(lnB); records sorted by B regardless of
    completion order.  Points are independent; workers > 1 fans them out."""
    jobs = [(float(x), alpha, tol, certify) for x in lnB_values]
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
