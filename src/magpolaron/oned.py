"""The effective one-dimensional polaron problem.

Closed-form ground state of  int |f'|^2 - b int f^4  at fixed mass, the
interpolation ratio whose floor 3^(1/8) it attains, and one numerical
minimizer, solve_weighted, for its Fourier-weighted generalization

    akin * int |f'|^2  -  lam * int w(k) |rho_hat(k)|^2 dk ,

where rho = f^2.  The caller states the physical problem, w as a function
of the grid, lam and the scale mu at which the minimizer has unit width;
this module alone picks where a 1D field is sampled, _GRID scaled to its
width, and maps lam to unit width.  The numerical scheme is preconditioned
nonlinear CG on the mass sphere with an exact, closed-form line search, in
spectral coordinates (Antoine, Levitt & Tang, J. Comput. Phys. 343 (2017)
92-109); even starts and weights of |k| alone keep the field centred.
Each solve allocates one workspace and every iteration writes into it: four
transforms and ~20 other numpy calls an iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, InvalidFieldError, ParameterError
from .grids import (Field1D, Grid1D, kinetic, mass, one_sided_fold, quartic,
                    read_only_table)

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
        if self.coupling_b > 0 and abs(energy) < np.finfo(float).tiny:
            raise ParameterError("-b^2 a^3/12 is below the normal doubles at "
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
    """Ground-state value -b^2 a^3 / 12, multiplied out on the mantissas of
    a and b and scaled by their binary exponents last, so that neither b^2
    nor a^3 leaves the normal doubles on its own (a = 1e100, b = 1e-160);
    OverflowError if the product does."""
    ma, ea = math.frexp(p.mass_a)
    mb, eb = math.frexp(p.coupling_b)
    return -math.ldexp(mb ** 2 * ma * ma * ma / 12.0, 2 * eb + 3 * ea)


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


@read_only_table
def _flow_arrays(grid: Grid1D):
    """Read-only: [g, g k^2, k^2] (g = h fold/n) on the float view, and the
    unit-mass Gaussian start f with rfft(f), rfft(f^2), bit for bit."""
    t, k2 = grid.points(), np.repeat(grid.wavenumbers() ** 2, 2)
    g = np.repeat(grid.spacing / grid.n * one_sided_fold(grid.n), 2)
    f = np.exp(-t * t / 2.0)
    f *= np.sqrt(1.0 / (grid.spacing * np.sum(f * f)))
    return np.array((g, g * k2, k2)), f, np.fft.rfft(f), np.fft.rfft(f * f)


def _along(c, th):
    """E(th) = K/N - A/N^2 and E'(th) on the curve (F + th D)/sqrt(N(th)),
    N = n0 + 2 th n1 + th^2 n2, K likewise, A = a0 + a1 th + ... + a4 th^4."""
    n0, n1, n2, k0, k1, k2, a0, a1, a2, a3, a4 = c
    N, dN = n0 + th * (2.0 * n1 + th * n2), 2.0 * (n1 + th * n2)
    K, dK = k0 + th * (2.0 * k1 + th * k2), 2.0 * (k1 + th * k2)
    A = a0 + th * (a1 + th * (a2 + th * (a3 + th * a4)))
    dA = a1 + th * (2.0 * a2 + th * (3.0 * a3 + th * 4.0 * a4))
    return (K / N - A / (N * N),
            (dK * N - K * dN - dA + 2.0 * A * dN / N) / (N * N))


def _line_minimum(c, theta):
    """(E(0), th, E(th)) at the first root of E' past 0: bracketed by doubling
    theta up to 50, then Illinois iteration to 1e-3 relative in th."""
    (e0, d_lo), lo, hi, side = _along(c, 0.0), 0.0, theta, 0
    e_hi, d_hi = _along(c, hi)
    while d_lo < 0 and d_hi < 0 and hi < 50.0:
        lo, d_lo, hi = hi, d_hi, 2.0 * hi
        e_hi, d_hi = _along(c, hi)
    while d_lo < 0 < d_hi and hi - lo > 1e-3 * hi:
        x = (lo * d_hi - hi * d_lo) / (d_hi - d_lo)
        e_x, d_x = _along(c, x)
        if d_x < 0:
            d_hi *= 0.5 if side < 0 else 1.0
            lo, d_lo, side = x, d_x, -1
        else:
            d_lo *= 0.5 if side > 0 else 1.0
            hi, e_hi, d_hi, side = x, e_x, d_x, 1
    return e0, hi, e_hi


def _minimize_on_sphere(akin: float, weights: np.ndarray, lam: float,
                        tol: float, f0: Optional[np.ndarray]):
    """Minimize akin*int f'^2 - lam*dk*sum_k w(|k|) |rho_hat(k)|^2 over all
    dual-grid k of _GRID on the unit sphere int f^2 = 1.

    weights = w on the one-sided dual grid _GRID.wavenumbers() (cutoff edge
    fractions already applied); f0, like the Gaussian default, is even on the
    periodic grid, which keeps the flow centred.  It stops once a step moves
    the energy by less than tol relative with the residuals before and after
    it below sqrt(tol) (1 + |E|), at the budget, or when the one Armijo test
    at the exact line minimum fails (the line search is exhausted; a NaN
    energy fails it), and returns (values, energy, iterations, residual) of
    the last accepted field, the residual its own; ConvergenceError unless
    it passes.

    The field is its spectrum F = rfft(f), with f alongside; h sum x y is
    (h/n) sum fold Re(X conj Y), a dot product on the float views.  The
    energy is akin sum g k^2 |F|^2 - 2 pi lam sum g w |P|^2, g = h fold/n,
    P = rfft(f^2); its gradient R = G - sigma F, G = akin f'' + W f with
    W = 4 pi lam irfft(w P), costs two transforms.  D is Polak-Ribiere+ CG
    on Z = R/(akin k^2 + sigma), sigma = <f, G> floored at 1e-3 max(|W|, 1),
    restarted at Z when beta <= 0 or <R, D> <= 0.  On (F + th D)/sqrt(N)
    the density is (P + 2 th Q1 + th^2 Q2)/N, [Q1, Q2] = rfft([f d, d^2]),
    so E(th) is closed form in Gram sums: an iteration costs four transforms.

    Each call allocates one workspace that every iteration writes into (the
    transforms by out=); sigma, the direction's six inner products and the
    7 x 5 Gram sums are one matrix product each, the updates two dots: an
    iteration is four transforms and ~20 other numpy calls.
    """
    n = _GRID.n
    g_rows, gauss, gauss_F, gauss_P = _flow_arrays(_GRID)
    g = g_rows[0]
    # float rows Z, Z_prev, D, F, P, Q1, Q2, R, T (scratch); g D (g R until
    # the Gram sums), g akin k^2 D, g F, g akin k^2 F, (g w/2) [P, Q1, Q2];
    # g akin k^2, akin k^2, wq = 4 pi lam w, g w/2, ks = akin k^2 + shift.
    # Samples d, f; u, v: [f d, d^2] for the Gram sums, [W, W f] for R
    X, Y = np.zeros((21, n + 2)), np.empty((4, n))
    Z, Z_prev, D, F, P, _, _, R, T, gD, gkD, gF, gkF = X[:13]
    g_kin, kin, wq, gw, ks = X[16:]
    _, _, Dc, Fc, Pc, _, _, Rc, Tc = S = X[:9].view(complex)
    d, f, u, v = Y
    np.multiply(g_rows[1:], akin, out=X[16:18])  # g akin k^2, akin k^2
    np.multiply(np.repeat(weights, 2), 4.0 * np.pi * lam, out=wq)
    np.multiply(np.multiply(wq, 0.5, out=gw), g, out=gw)
    # max|W| <= w_sum P[0]: W = irfft(wq P), |P_m| <= P_0 = sum f^2
    w_sum = (g @ wq) / (2.0 * _GRID.spacing)
    ZD, DQ, FP, FG, PQ, Qc = X[:4], X[2:7], X[3:5], X[3:8:4].T, X[4:7], S[5:7]
    ZD_T, DQ_T, gram, gRF, gFk, gPQ, df, uv = (
        ZD.T, DQ.T, X[9:16], X[9:12:2], X[11:13], X[13:16], Y[:2], Y[2:])
    # D on [Z, Z_prev, D, F]; F, P on [D, F, P, Q1, Q2]; f on [d, f] as F
    cd, cu = np.array((1.0, 0.0, 0.0, 0.0)), np.zeros((2, 5))
    cf = cu[0, :2]

    def gradient():  # R, g R, g F, g akin k^2 F and ks; returns ||R||
        np.multiply(wq, P, out=T)
        np.fft.irfft(Tc, n, out=u)
        np.fft.rfft(np.multiply(u, f, out=v), out=Rc)
        np.multiply(g, F, out=gF)
        np.multiply(g_kin, F, out=gkF)
        (_, fw), (fkf, _) = (gFk @ FG).tolist()
        sigma = fw - fkf  # <F, rfft(W f)> - <F, akin k^2 F>
        np.subtract(R, np.multiply(np.add(kin, sigma, out=ks), F, out=T),
                    out=R)
        if not sigma >= 2e-3 * max(w_sum * P[0], 1.0):  # else shift = sigma
            shift = max(sigma, 1e-3 * max(np.abs(u, out=v).max(), 1.0))
            if shift != sigma:
                np.add(kin, shift, out=ks)
        return math.sqrt(np.multiply(g, R, out=gD).dot(R))

    if f0 is None:
        f[:], Fc[:], Pc[:] = gauss, gauss_F, gauss_P
    else:
        f[:] = f0
        nrm = _GRID.spacing * np.sum(f * f)
        if nrm <= 0:
            raise InvalidFieldError("initial field must be nonzero")
        f *= np.sqrt(1.0 / nrm)
        Fc[:], Pc[:] = np.fft.rfft(f), np.fft.rfft(f * f)
    residual = gradient()
    theta, rz_prev = 1.0, np.inf
    for it in range(1, _MAX_ITER + 1):
        np.copyto(Z_prev, Z)
        np.divide(R, ks, out=Z)
        (rz, rzp, rd, rf), (fz, _, fd, _) = (gRF @ ZD_T).tolist()
        beta = max(0.0, (rz - rzp) / rz_prev)
        if not rz + beta * rd > 0:  # restart at <R, D> <= 0
            beta = 0.0
        proj = fz + beta * fd  # D = Z + beta D_prev - proj F, tangent
        cd[2], cd[3] = beta, -proj
        np.dot(cd, ZD, out=D)
        slope, rz_prev = rz + beta * rd - proj * rf, rz
        np.fft.irfft(Dc, n, out=d)
        np.multiply(f, d, out=u)
        np.multiply(d, d, out=v)
        np.fft.rfft(uv, out=Qc)
        np.multiply(g, D, out=gD)
        np.multiply(g_kin, D, out=gkD)
        np.multiply(gw, PQ, out=gPQ)
        # rows g [D, akin k^2 D, F, akin k^2 F], (g w/2) [P, Q1, Q2] by
        # columns D, F, P, Q1, Q2; p1 = <P, Q1>, q12 = <Q1, Q2>, ...
        ((n2, *_), (k2, *_), (n1, n0, *_), (k1, k0, *_), (_, _, a0, p1, p2),
         (*_, q11, q12), (*_, a4)) = gram.dot(DQ_T).tolist()
        c = (n0, n1, n2, k0, k1, k2, a0, 4 * p1, 4 * q11 + 2 * p2, 4 * q12, a4)
        E, theta, En = _line_minimum(c, theta)
        if not En <= E - 1e-4 * theta * slope + 1e-14 * (1 + abs(E)):
            break  # line search exhausted: gradient at the numerical floor
        rel_change = abs(En - E) / max(abs(En), 1e-300)
        scale = 1.0 / math.sqrt(n0 + theta * (2.0 * n1 + theta * n2))
        s2 = scale * scale
        cu[0, 0], cu[0, 1] = scale * theta, scale  # F = scale (F + theta D)
        cu[1, 2], cu[1, 3], cu[1, 4] = s2, 2.0 * theta * s2, theta * theta * s2
        np.dot(cu, DQ, out=FP)
        np.dot(cf, df, out=f)
        E, before = En, residual
        residual = gradient()
        if rel_change < tol and max(before, residual) < np.sqrt(tol) * (
                1 + abs(E)):
            break
    if not residual < np.sqrt(tol) * (1 + abs(E)):
        raise ConvergenceError(
            f"sphere minimizer stalled: residual {residual:.3e} after {it} "
            "iterations", iterations=it, residual=residual)
    return f.copy(), E, it, residual


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
    """Ground state of the quartic problem by the sphere minimizer.

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
