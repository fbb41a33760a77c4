"""Product-ansatz energies for the classical polaron in a strong field.

The transverse factor is pinned to the ground Landau Gaussian, so the full
energy is B plus an effective one-dimensional problem for the longitudinal
factor.  This module evaluates that energy, minimizes it, checks the exact
coupling-rescaling identity, reproduces the energy through the classical-field
amplitude formulation, and fits the large-B coefficients to cli's sweep rows.

Minimization over the restricted ansatz yields an upper bound on the true
ground-state energy; all trend checks are phrased accordingly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import coulomb_D_product, fourier_side_energy
from .errors import FitError, ParameterError
from .grids import Field1D, Grid1D, kinetic, mass, read_only_table
from .landau import effective_potential_fourier
from .oned import (OneDProblem, OneDSolution, closed_form_minimizer,
                   solve_weighted)
from .special import (gauss_legendre_panels, gauss_legendre_rows,
                      log_end_octaves, log_end_rule)

NORMALIZATION_TOL = 1e-6
_N_AVERAGE = 8  # dual-grid cells beside k = 0 given cell averages
# fixed rules of the coherent route's transverse integral, in s = u/B
_RULE_ORDER = 16  # Gauss-Legendre points per panel on [0, 1]
_PANEL_BASE = 4.0  # ratio of successive panels on [0, 1], geometric toward 0
_S_FLOOR = 1e-12  # first panel [0, 4^-20]: see _transverse_weight_quadrature
_FAR_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0)  # octaves of [1, 48]
_FAR_ORDER = 12  # Gauss-Legendre points per octave
_Y_MIN = 1.0 / np.finfo(float).max  # below it 1/y overflows
_ROWS = 64  # k-rows per block of the Cauchy matrix: 212 KB at 408 nodes
_TRIAL_RTOL = 1e-15  # trial_energy's D against 30-digit mpmath


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

    @property
    def deficit(self) -> float:
        """The binding deficit E - B from its components: B's ulp would
        swamp total - B."""
        return self.longitudinal_kinetic + self.coulomb


@dataclass
class AsymptoticFit:
    c2: float
    c3: float
    c4: float
    residual_rms: float


def pekar_energy(state: PekarProductState) -> EnergyBreakdown:
    """Energy of the product state: B + int |f'|^2 - alpha * D."""
    B, alpha = state.params.B, state.params.alpha
    try:  # an overflow is refused below, not printed as a numpy warning
        with np.errstate(over="raise", invalid="raise"):
            kin = kinetic(state.f)
            if alpha == 0.0:
                return EnergyBreakdown(B, kin, 0.0, 0.0)
            d_val, d_err = coulomb_D_product(state.f, B)
            out = EnergyBreakdown(B, kin, -alpha * d_val, alpha * d_err)
    except FloatingPointError:
        out = EnergyBreakdown(B, np.inf, 0.0)
    return _finite(out, B, alpha)


def _finite(out: EnergyBreakdown, B: float, alpha: float) -> EnergyBreakdown:
    if not all(map(math.isfinite, (out.transverse, out.longitudinal_kinetic,
                                   out.coulomb, out.coulomb_error))):
        raise ParameterError(f"energy at B={B:g}, alpha={alpha:g} is not a "
                             "finite double")
    for term, value in (("deficit E - B", out.deficit),
                        ("Coulomb energy", out.coulomb)):
        if alpha > 0 and abs(value) < np.finfo(float).tiny:
            raise ParameterError(f"{term} at B={B:g}, alpha={alpha:g} is "
                                 "below the normal doubles")
    return out


def trial_state(B: float, alpha: float = 1.0) -> PekarProductState:
    """Closed-form unit-mass minimizer at coupling ln(B)/2, the sech profile
    on the grid oned picks for it; alpha does not change it."""
    params = PhysParams(B, alpha)  # refuses B <= 1 before ln B sizes the grid
    f = closed_form_minimizer(OneDProblem(1.0, np.log(B) / 2.0))
    return PekarProductState(params, f)


def trial_energy(B: float, alpha: float) -> EnergyBreakdown:
    """Breakdown for the trial state, off the grid: the exact kinetic term
    (ln B)^2/48 and D = (1/2 pi^2) int_0^inf U(k;B) |rho_hat(k)|^2 dk, with
    rho_hat(k) = (pi k/b)/sinh(pi k/b) the sech density's transform at
    b = ln B/2, by _trial_rule; coulomb_error is its tested bound."""
    PhysParams(B, alpha)  # refuses B <= 1 and a bad alpha
    lnB = np.log(B)
    k1 = lnB / 32.0  # b/16, _trial_rule's unit
    nodes, weights = _trial_rule()
    u = effective_potential_fourier(k1 * nodes, B)
    d = float(np.sum(weights * u) * k1 / (2 * np.pi ** 2))
    coulomb = -alpha * d if alpha > 0 else 0.0
    return _finite(EnergyBreakdown(B, lnB * lnB / 48.0, coulomb,
                                   _TRIAL_RTOL * abs(coulomb)), B, alpha)


@read_only_table
def _trial_rule():
    """trial_energy's nodes in units of b/16 and weights times |rho_hat|^2,
    built once, read-only: log_end_octaves(8, 24), past whose last octave,
    [128, 256], |rho_hat|^2 < 3e-40.  The log end stops at b/16: numpy's
    24-point weights are up to 1.2e-13 off at panel ends, and a log end to
    b/4 moved the deficit by up to 1.4e-15."""
    nodes, weights = log_end_octaves(8, 24)
    x = (np.pi / 16.0) * nodes
    return nodes, weights * (x / np.sinh(x)) ** 2


def interaction_weights(grid: Grid1D, B: float) -> np.ndarray:
    """Fourier-side weight U(k;B) on the one-sided dual grid k_m = m dk.

    U is log-singular at k = 0, so the cells beside it, m <= _N_AVERAGE,
    hold averages: the one-sided cell [0, dk/2] by special.log_end_rule and
    the cells [k_m - dk/2, k_m + dk/2], m >= 1, on which U is analytic, by
    24-point Gauss-Legendre, all in one evaluation of U.
    """
    k = grid.wavenumbers()
    dk = np.pi / grid.half_width
    w = effective_potential_fourier(k, B)
    k0, w0 = log_end_rule(dk / 2.0)
    kc = k[1:_N_AVERAGE + 1]
    nodes, weights = gauss_legendre_rows(kc - dk / 2.0, kc + dk / 2.0, 24)
    u = effective_potential_fourier(np.concatenate([k0, nodes.ravel()]), B)
    w[0] = np.sum(w0 * u[:k0.size]) / (dk / 2.0)
    w[1:_N_AVERAGE + 1] = np.sum(
        weights * u[k0.size:].reshape(nodes.shape), axis=1) / dk
    return w


def _log_coupling(B: float, alpha: float) -> float:
    """The root b of b = alpha U(b/4; B)/2pi, by safeguarded Newton in y = ln b
    on g(y) = y - ln(alpha U(e^y/4)/2pi), which rises: g' = 1 + 2pi/U - 2k^2/B
    >= 1.  A root above b/4 = 20 sqrt(B) is refused: V saturates on so
    narrow a polaron, and b overshoots."""
    c = np.log(alpha) - np.log(2.0 * np.pi)
    lo, hi = -np.inf, np.log(80.0) + np.log(B) / 2.0
    y = min(hi, c + np.log(np.pi * np.log(B)))  # b ~ alpha ln B/2
    for _ in range(40):
        k = np.exp(y) / 4.0
        u = effective_potential_fourier(k, B)
        g = y - c - np.log(u)
        step = g / (1.0 + 2.0 * np.pi / u - 2.0 * (k / np.sqrt(B)) ** 2)
        if abs(step) <= 1e-12 * max(1.0, abs(y)):
            return float(np.exp(y))
        lo, hi = (y, hi) if g < 0 else (lo, y)
        y = y - step if lo < y - step < hi else 0.5 * (lo + hi)
    raise ParameterError(f"alpha = {alpha:g} at B = {B:g} is beyond the log "
                         "regime (b/4 > 20 sqrt B); lower alpha or raise B")


def pekar_minimize(params: PhysParams, tol: float = 1e-11):
    """Minimize the product-ansatz energy over unit-mass longitudinal factors:
    oned's unit-width flow at mu = b/4, b = _log_coupling(B, alpha), from the
    b = 4 sech 1/cosh(2t).  Returns (OneDSolution, EnergyBreakdown), the
    breakdown by the dual-path Coulomb integrals; the solution's energy is the
    flow's own, and the breakdown's deficit is the reported E - B."""
    B, alpha = params.B, params.alpha
    if alpha == 0.0:
        return OneDSolution(0.0, None, 0, 0.0), EnergyBreakdown(B, 0.0, 0.0, 0.0)
    mu = _log_coupling(B, alpha) / 4.0
    sol = solve_weighted(mu, 1.0, lambda grid: interaction_weights(grid, B),
                         alpha / (4 * np.pi ** 2), tol,
                         lambda t: 1.0 / np.cosh(2.0 * t))
    return sol, pekar_energy(PekarProductState(params, sol.minimizer))


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
    rhs = alpha ** 2 * low.deficit
    shrunk = Grid1D(f.grid.n, f.grid.half_width / alpha)
    f_scaled = Field1D(shrunk, np.sqrt(alpha) * f.values)
    high = pekar_energy(PekarProductState(PhysParams(B, alpha), f_scaled))
    rel = abs(high.deficit - rhs) / max(abs(rhs), 1e-300)
    return rel <= 1e-8, rel


@read_only_table
def _transverse_rule():
    """Shared nodes s and weighted numerators of the transverse integral:
    expm1(-s) on 21 geometric panels of [0, 1], e^{-s} on the octaves of
    [1, 48]; 408 nodes, built once, read-only."""
    n_geo = int(np.ceil(np.log(1.0 / _S_FLOOR) / np.log(_PANEL_BASE)))
    near = np.r_[0.0, _PANEL_BASE ** -np.arange(n_geo, -1, -1.0)]
    s1, w1 = gauss_legendre_panels(near, _RULE_ORDER)
    s2, w2 = gauss_legendre_panels(_FAR_EDGES, _FAR_ORDER)
    s = np.concatenate([s1, s2])
    return s, np.concatenate([w1 * np.expm1(-s1), w2 * np.exp(-s2)])


def _transverse_weight_quadrature(k3: np.ndarray, B: float) -> np.ndarray:
    """Transverse momentum integral int_0^inf e^{-u/B}/(u + k3^2) du (times pi)
    by fixed composite Gauss-Legendre rules; the independent route to the
    Fourier-side weight.

    Integrated in s = u/B, y = k3^2/B, at unit scale for every B: the sum
    int_0^1 expm1(-s)/(s + y) ds + int_1^48 e^{-s}/(s + y) ds runs over a
    node set shared by every k, and the log part ln(1 + 1/y) of
    int_0^1 ds/(s + y) is split off in closed form (ln B - 2 ln|k3| where
    1/y overflows; the dropped ln(1 + y) is below 1e-308 there).  The
    (k x s) Cauchy matrix is formed _ROWS k-rows at a time in one buffer, so
    the working set is one (_ROWS x s) block whatever the node count; each
    row's sum is the same matrix-vector product as for the whole matrix.
    _ROWS is a multiple of 4, as the product's kernel takes rows in fours,
    and a lone last row joins the block before it, since a one-row product
    is a dot product, which sums in another order.

    The rule has 408 nodes: 16-point panels of ratio 4 toward s = 0, which
    resolve the pole at s = -y for every y down to the floor 4^-20 ~ 9e-13,
    and 12-point octaves on [1, 48].  For smaller y the first panel
    [0, 4^-20] is not resolved, but its integrand is at most 1 in size, so
    it is off by at most 2e-12 against a weight e^y E1(y) > 20 ln 4 - gamma
    ~ 27 there, within 7.4e-14 relative, which the 1e-13 pin against mpmath
    covers; the tail past 48 is below e^-48 of the weight.  The rule is
    within 4.4e-16 of 40-digit mpmath on y in [1e-300, 1e300].
    """
    s, numer = _transverse_rule()
    k = np.asarray(k3, dtype=float)
    y = k ** 2 / B
    out = np.empty_like(y)
    tiny = y < _Y_MIN
    out[~tiny] = np.log1p(1.0 / y[~tiny])
    out[tiny] = np.log(B) - 2.0 * np.log(np.abs(k[tiny]))
    cuts = [*range(0, max(y.size - 1, 1), _ROWS), y.size]
    m = np.empty((min(y.size, _ROWS + 1), s.size))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        block = m[:hi - lo]
        np.add.outer(y[lo:hi], s, out=block)
        np.divide(1.0, block, out=block)
        out[lo:hi] += block @ numer
    return np.pi * out


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
# asymptotic fits


def fit_asymptotics(records: Sequence) -> AsymptoticFit:
    """Least squares for E(B) = B - c2 X^2 + c3 X Y + c4 X with X = ln B,
    Y = ln ln B, fitted to sweep records, of which only B and deficit are read.

    The binding deficit is from the stored energy components (E_total = B +
    E_kin3 + E_coulomb), not E_total - B: at B ~ e^30 the direct difference
    would lose the deficit to roundoff.
    """
    if len(records) < 4:
        raise FitError("need at least 4 sweep points for a 3-parameter fit")
    for r in records:
        if not (1 < r.B < np.inf and np.isfinite(r.deficit)):
            raise FitError(f"cannot fit the row at B = {float(r.B)!r}: need "
                           "a finite B > 1 and a finite E_kin3 + E_coulomb")
    B = np.array([r.B for r in records], dtype=float)
    if len(np.unique(B)) < 4:
        raise FitError("need at least 4 distinct B values")
    X = np.log(B)
    Y = np.log(X)
    y = -np.array([r.deficit for r in records])
    design = np.column_stack([X * X, -X * Y, -X])
    if np.linalg.matrix_rank(design) < 3:
        raise FitError("collinear regressors; widen the B window")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return AsymptoticFit(
        c2=float(coef[0]), c3=float(coef[1]), c4=float(coef[2]),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))))
