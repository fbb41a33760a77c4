"""Certified lower bound for the projected, cut-off quantized-field operator.

The bound is assembled term by term from explicit constants: kinetic
retention factors after successive momentum cutoffs, the effective
one-dimensional coupling and its total weight, localization and block-
grouping penalties, and the variational energy of the weighted 1D problem,
whose weight v^2 cut off at K3, prefactor and scale this module states and
oned's sphere flow (solve_weighted) samples and minimizes.  Every term is
carried exactly; no unnamed constant is absorbed.  The one genuinely
conditional step (extending the projected bound to the full operator) takes
its constant from the caller and is labeled as such.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError
from .oned import solve_weighted
from .pekar import PhysParams
from .special import EULER_GAMMA, exp_scaled_e1

_DBL_MAX = float(np.finfo(float).max)

ASSUMPTIONS = [
    "coherent-state replacement of grouped phonon blocks costs one energy "
    "unit per block (taken as given from the cited literature)",
    "block representatives are taken at block midpoints; the grouping bound "
    "holds uniformly in that choice",
    "localization bump chi(t) = sqrt(2) cos(pi t) on [-1/2, 1/2]; "
    "||chi'||^2 = pi^2",
]
#: the validity flags a valid certificate needs; the others are advisory
REQUIRED_FLAGS = ("kappa_positive", "kappa1_positive", "gamma_in_range",
                  "mode_count_at_least_one", "K_at_least_sqrtB",
                  "kappa_window")


@dataclass(frozen=True)
class CutoffParams:
    """Momentum cutoffs and decomposition parameters of the lower-bound chain."""

    K: float
    K3: float
    Kperp: float
    gamma: float
    L: float
    M: int

    def __post_init__(self):
        # the chain squares K3, Kperp, L and M: each square must be a
        # positive, finite double
        if not (self.K > 0 and self.K3 > 0
                and 0 < self.K3 * self.K3 <= _DBL_MAX):
            raise ParameterError("cutoffs must be positive, with K3^2 a "
                                 "positive finite double")
        if self.K3 > self.K or self.Kperp > self.K:
            raise ParameterError("K3 and Kperp must not exceed K")
        if not (self.Kperp >= 1 and self.Kperp * self.Kperp <= _DBL_MAX):
            raise ParameterError("Kperp must be at least 1, with Kperp^2 a "
                                 "finite double")
        if not (0 < self.gamma < 1):
            raise ParameterError("gamma must lie in (0, 1)")
        if not (self.L > 0 and 0 < self.L * self.L <= _DBL_MAX):
            raise ParameterError("L must be positive, with L^2 a positive "
                                 "finite double")
        if not (self.M >= 1 and self.M * self.M <= _DBL_MAX):
            raise ParameterError("M must be a positive integer, with M^2 a "
                                 "finite double")


@dataclass
class ConstantsLedger:
    kappa: float
    kappa1: float
    kappa2: float
    R: float
    localization_error: float
    block_error: float
    mode_count_error: float
    projection_constant: float
    firstcut_constant: float = 0.25


@dataclass
class LowerBoundCertificate:
    params: PhysParams
    cutoffs: CutoffParams
    ledger: ConstantsLedger
    I_value: float
    p0_bound: float
    conditional_full_bound: Optional[float] = None
    validity: dict = field(default_factory=dict)
    valid: bool = False

    def recompute_bound(self) -> float:
        """p0_bound from the ledger fields; must reproduce the stored value."""
        led = self.ledger
        return (led.kappa2 * self.params.B + self.I_value
                - led.mode_count_error - led.block_error
                - led.localization_error - led.projection_constant)


def _kappa(K: float, alpha: float) -> float:
    """Kinetic retention 1 - 8 alpha/(pi K) after the first cutoff, the raw
    value: it is positive only for K > 8 alpha/pi, which callers check."""
    return 1.0 - 8.0 * alpha / (np.pi * K)


def _kappa1(kappa_value: float, K3: float, B: float, alpha: float) -> float:
    """Retention after the longitudinal cutoff:
    kappa - (8 alpha/(pi K3)) e^x E1(x) with x = K3^2/(2B); where x
    underflows, e^x E1(x) = -gamma - ln x with ln x from ln K3 and ln B."""
    x = K3 * K3 / B / 2.0  # not / (2B): 2B overflows from ln B ~ 709.09
    e1 = (float(exp_scaled_e1(x)) if x > 0 else
          -EULER_GAMMA - 2.0 * np.log(K3) + np.log(B) + np.log(2.0))
    return kappa_value - (8.0 * alpha / (np.pi * K3)) * e1


def _kappa2(kappa_value: float, K3: float, Kperp: float, alpha: float) -> float:
    """Retention after the transverse cutoff: kappa - 2 alpha K3/(pi Kperp^2)."""
    with np.errstate(over="ignore"):  # pi Kperp^2 = inf: the term's limit 0
        return kappa_value - 2.0 * alpha * K3 / (np.pi * Kperp * Kperp)


def _coupling_v(k3, Kperp: float):
    """Effective 1D coupling sqrt(pi) (ln(Kperp^2+k3^2) - ln(1+k3^2))^(1/2)."""
    k3 = np.asarray(k3, dtype=float)
    val = np.log(Kperp ** 2 + k3 ** 2) - np.log1p(k3 ** 2)
    out = np.sqrt(np.pi * np.maximum(val, 0.0))
    return float(out) if out.ndim == 0 else out


def total_coupling_weight(K3: float, Kperp: float) -> float:
    """R = int_{|k3|<=K3} v(k3)^2 dk3 = 2 pi (F(K3, Kperp) - F(K3, 1)) with
    the antiderivative F(k, a) = k ln(a^2+k^2) - 2k + 2a arctan(k/a) of
    ln(a^2+k^2), which vanishes at k = 0."""
    def F(k, a):
        return k * np.log(a * a + k * k) - 2 * k + 2 * a * np.arctan(k / a)
    return float(2 * np.pi * (F(K3, Kperp) - F(K3, 1.0)))


def _localization_error(L: float) -> float:
    """pi^2/L^2 for the cosine localization bump."""
    return np.pi ** 2 / (L * L)


def _block_error(alpha: float, K3: float, L: float, gamma: float, M: int,
                 R: float) -> float:
    """Exact block-grouping penalty alpha K3^2 L^2 R / (4 pi^2 gamma M^2)."""
    return alpha * K3 ** 2 * L ** 2 * R / (4.0 * np.pi ** 2 * gamma * M ** 2)


def default_cutoffs(B: float, alpha: float,
                    K: Optional[float] = None) -> CutoffParams:
    """Standard parameter choices driven by B, for B >= 1e3 and
    ln B > 2^2.8 kappa ~ 6.96 kappa, where gamma < 1.

    K = B (ln B)^{-4/3} unless given, Kperp = sqrt(B),
    K3 = kappa^{-1/2} (ln B)^{3/2},
    L^2 = kappa^{1/5} K3^{-3/5} (ln Kperp)^{-3/5}, M = floor(1/L^2),
    gamma = kappa^{4/5} K3^{3/5} (ln Kperp)^{-7/5}.
    """
    PhysParams(B, alpha)  # refuses a bad B or alpha before the cutoffs do
    if B < 1e3:
        raise ParameterError("default cutoffs require B >= 1e3")
    lnB, Kperp = math.log(B), math.sqrt(B)  # Python floats: numpy's bits
    if K is None:
        K = B * lnB ** (-4.0 / 3.0)
    if K < Kperp:
        raise ParameterError("default cutoffs require K >= sqrt(B)")
    kap = _kappa(K, alpha)
    if kap <= 0:
        raise ParameterError("cutoff K must exceed 8*alpha/pi")
    K3 = kap ** -0.5 * lnB ** 1.5
    ln_kp = math.log(Kperp)
    L2 = kap ** 0.2 * K3 ** -0.6 * ln_kp ** -0.6
    M = max(1, math.floor(1.0 / L2))
    gamma = kap ** 0.8 * K3 ** 0.6 * ln_kp ** -1.4
    if not gamma < 1:  # gamma = 2^1.4 sqrt(kappa/ln B)
        raise ParameterError(f"default cutoffs require ln B > 2^2.8 kappa "
                             f"(gamma < 1): B = {B:g}, alpha = {alpha:g} "
                             f"give gamma = {gamma:.6g}")
    return CutoffParams(K=K, K3=K3, Kperp=Kperp, gamma=gamma,
                        L=math.sqrt(L2), M=M)


def analytic_infimum_floor(kappa1_value: float, gamma: float, Kperp: float,
                           alpha: float) -> float:
    """Closed-form lower envelope -alpha^2 (ln Kperp)^2/(12 kappa1 (1-gamma)^2)
    obtained by bounding the coupling by its peak value."""
    return -alpha ** 2 * np.log(Kperp) ** 2 / (
        12.0 * kappa1_value * (1.0 - gamma) ** 2)


def certify_projected(B: float, alpha: float,
                      cutoffs: Optional[CutoffParams] = None
                      ) -> LowerBoundCertificate:
    """Assemble the projected-operator lower bound with every term itemized.

    p0_bound = kappa2 B + I - M - block_error - pi^2/L^2 - (1 + alpha/2).
    I <= 0 is the variational energy of the weighted 1D problem (weight v^2,
    prefactor alpha/(4 pi^2 (1-gamma)), cut off at K3), by solve_weighted at
    every coupling; I = 0 without attraction (alpha = 0 or Kperp = 1).
    Out-of-range parameters mark the certificate invalid but the ledger is
    still returned.  Without cutoffs, default_cutoffs(B, alpha) applies.
    """
    params = PhysParams(B, alpha)
    lnB = math.log(B)
    if cutoffs is None:
        cutoffs = default_cutoffs(B, alpha)
    K = cutoffs.K

    kap = _kappa(K, alpha)  # positivity is flagged, not refused
    kap1 = _kappa1(kap, cutoffs.K3, B, alpha)
    kap2 = _kappa2(kap, cutoffs.K3, cutoffs.Kperp, alpha)
    R = total_coupling_weight(cutoffs.K3, cutoffs.Kperp)
    loc = _localization_error(cutoffs.L)
    blk = _block_error(alpha, cutoffs.K3, cutoffs.L, cutoffs.gamma, cutoffs.M, R)

    lam = alpha / (4.0 * np.pi ** 2 * (1.0 - cutoffs.gamma))
    v0_sq = _coupling_v(0.0, cutoffs.Kperp) ** 2  # v^2 peaks at k = 0
    if not kap1 > 0:
        I_value = np.nan
    elif lam * v0_sq == 0.0:
        I_value = 0.0  # no attraction: the infimum 0 is not attained
    else:
        # the constant-weight surrogate b = 2 pi lam v(0)^2/kappa1 sets the
        # scale mu = b/4, at most K3 so that K3 spans >= 40/pi dual cells
        # (dk = pi mu/40); v^2 is cut off at K3 by each dual cell's fraction
        def weight(grid):
            k, dk = grid.wavenumbers(), np.pi / grid.half_width
            frac = np.minimum(np.maximum((cutoffs.K3 - (k - dk / 2)) / dk,
                                         0.0), 1.0)
            return _coupling_v(k, cutoffs.Kperp) ** 2 * frac

        mu = min(2.0 * np.pi * lam * v0_sq / kap1 / 4.0, cutoffs.K3)
        sol = solve_weighted(mu, kap1, weight, lam, 1e-10)
        I_value = min(sol.energy, 0.0)

    ledger = ConstantsLedger(
        kappa=kap, kappa1=kap1, kappa2=kap2, R=R, localization_error=loc,
        block_error=blk, mode_count_error=float(cutoffs.M),
        projection_constant=1.0 + alpha / 2.0)
    p0 = (kap2 * B + I_value - cutoffs.M - blk - loc - (1.0 + alpha / 2.0))

    validity = {
        "kappa_positive": kap > 0,
        "kappa1_positive": kap1 > 0,
        "gamma_in_range": 0 < cutoffs.gamma < 1,
        "mode_count_at_least_one": cutoffs.M >= 1,
        "K_at_least_sqrtB": K >= math.sqrt(B),
        "kappa_window": lnB ** -0.5 <= kap <= lnB,
        # advisory flags: needed only for the absorbed asymptotic form
        "gamma_at_most_half": cutoffs.gamma <= 0.5,
        "kappa_gap_small": (kap - kap1) <= kap / 2.0,
        "B_over_K3sq_at_least_2": B / cutoffs.K3 ** 2 >= 2.0,
    }
    valid = all(validity[k] for k in REQUIRED_FLAGS) and math.isfinite(p0)
    return LowerBoundCertificate(
        params=params, cutoffs=cutoffs, ledger=ledger, I_value=I_value,
        p0_bound=float(p0), validity=validity, valid=valid)


def conditional_full_bound(cert: LowerBoundCertificate, C_M: float) -> float:
    """Extend the projected bound to the full operator, conditionally on the
    caller-supplied reduction constant:
    p0_bound - C_M (ln B)^2 sqrt(K/B) - firstcut_constant; ParameterError
    unless C_M and that penalty are finite doubles >= 0."""
    if not 0.0 <= C_M < math.inf:
        raise ParameterError(f"C_M must be a finite number >= 0, got {C_M}")
    lnB = float(np.log(cert.params.B))  # Python floats: overflow gives inf
    penalty = C_M * lnB ** 2 * math.sqrt(cert.cutoffs.K / cert.params.B)
    if not math.isfinite(penalty):
        raise ParameterError(f"C_M (ln B)^2 sqrt(K/B) at C_M = {C_M} is not "
                             "a finite double")
    return cert.p0_bound - (penalty + cert.ledger.firstcut_constant)


def certificate_to_dict(cert: LowerBoundCertificate) -> dict:
    """Flat dictionary with every cutoff and ledger term named; JSON-ready."""
    def _num(x):
        return None if x is None or not np.isfinite(x) else float(x)

    return {
        "B": cert.params.B,
        "alpha": cert.params.alpha,
        **vars(cert.cutoffs),  # flat float and int fields: no deep copy
        **vars(cert.ledger),
        "I_value": _num(cert.I_value),
        "p0_bound": _num(cert.p0_bound),
        "conditional_full_bound": _num(cert.conditional_full_bound),
        "validity": {key: bool(val) for key, val in cert.validity.items()},
        "valid": bool(cert.valid),
        "assumptions": list(ASSUMPTIONS),
    }
