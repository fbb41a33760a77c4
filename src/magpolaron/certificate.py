"""Certified lower bound for the projected, cut-off quantized-field operator.

The bound is assembled term by term from explicit constants: kinetic
retention factors after successive momentum cutoffs, the effective
one-dimensional coupling and its total weight, localization and block-
grouping penalties, and the variational energy of the weighted 1D problem.
Every term is carried exactly; no unnamed constant is absorbed.  The one
genuinely conditional step (extending the projected bound to the full
operator) takes its constant from the caller and is labeled as such.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError
from .oned import WeightedProblem, solve_weighted
from .pekar import PhysParams
from .special import exp_scaled_e1

#: guard constant in the kappa admissibility window (ln B)^(-1/2) <= kappa <= ln B
KAPPA_GUARD = 1.0

ASSUMPTIONS = [
    "coherent-state replacement of grouped phonon blocks costs one energy "
    "unit per block (taken as given from the cited literature)",
    "block representatives are taken at block midpoints; the grouping bound "
    "holds uniformly in that choice",
    "localization bump chi(t) = sqrt(2) cos(pi t) on [-1/2, 1/2]; "
    "||chi'||^2 = pi^2",
]


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
        if not self.K3 > 0 or not self.K > 0:
            raise ParameterError("cutoffs must be positive")
        if self.K3 > self.K or self.Kperp > self.K:
            raise ParameterError("K3 and Kperp must not exceed K")
        if self.Kperp < 1:
            raise ParameterError("Kperp must be at least 1")
        if not (0 < self.gamma < 1):
            raise ParameterError("gamma must lie in (0, 1)")
        if not self.L > 0:
            raise ParameterError("L must be positive")
        if self.M < 1:
            raise ParameterError("M must be a positive integer")


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
    assumptions: list = field(default_factory=lambda: list(ASSUMPTIONS))

    def recompute_bound(self) -> float:
        """p0_bound from the ledger fields; must reproduce the stored value."""
        led = self.ledger
        return (led.kappa2 * self.params.B + self.I_value
                - led.mode_count_error - led.block_error
                - led.localization_error - led.projection_constant)


def kappa(K: float, alpha: float) -> float:
    """Kinetic retention 1 - 8 alpha/(pi K) after the first cutoff."""
    if not K > 8 * alpha / np.pi:
        raise ParameterError("cutoff K must exceed 8*alpha/pi")
    return 1.0 - 8.0 * alpha / (np.pi * K)


def kappa1(kappa_value: float, K3: float, B: float, alpha: float) -> float:
    """Retention after the longitudinal cutoff:
    kappa - (8 alpha/(pi K3)) e^x E1(x) with x = K3^2/(2B)."""
    if not (K3 > 0 and B > 0):
        raise ParameterError("K3 and B must be positive")
    x = K3 * K3 / (2.0 * B)
    return kappa_value - (8.0 * alpha / (np.pi * K3)) * float(exp_scaled_e1(x))


def kappa2(kappa_value: float, K3: float, Kperp: float, alpha: float) -> float:
    """Retention after the transverse cutoff: kappa - 2 alpha K3/(pi Kperp^2)."""
    if Kperp < 1:
        raise ParameterError("Kperp must be at least 1")
    return kappa_value - 2.0 * alpha * K3 / (np.pi * Kperp * Kperp)


def coupling_v(k3, Kperp: float):
    """Effective 1D coupling sqrt(pi) (ln(Kperp^2+k3^2) - ln(1+k3^2))^(1/2)."""
    if Kperp < 1:
        raise ParameterError("Kperp must be at least 1")
    k3 = np.asarray(k3, dtype=float)
    val = np.log(Kperp ** 2 + k3 ** 2) - np.log1p(k3 ** 2)
    out = np.sqrt(np.pi * np.clip(val, 0.0, None))
    return float(out) if out.ndim == 0 else out


def total_coupling_weight(K3: float, Kperp: float) -> float:
    """R = int_{|k3|<=K3} v(k3)^2 dk3 = 2 pi (F(K3, Kperp) - F(K3, 1)) with
    the antiderivative F(k, a) = k ln(a^2+k^2) - 2k + 2a arctan(k/a) of
    ln(a^2+k^2), which vanishes at k = 0."""
    def F(k, a):
        return k * np.log(a * a + k * k) - 2 * k + 2 * a * np.arctan(k / a)
    return float(2 * np.pi * (F(K3, Kperp) - F(K3, 1.0)))


def localization_error(L: float) -> float:
    """pi^2/L^2 for the cosine localization bump."""
    if not L > 0:
        raise ParameterError("L must be positive")
    return np.pi ** 2 / (L * L)


def block_error(alpha: float, K3: float, L: float, gamma: float, M: int,
                R: float) -> float:
    """Exact block-grouping penalty alpha K3^2 L^2 R / (4 pi^2 gamma M^2)."""
    if not (0 < gamma < 1):
        raise ParameterError("gamma must lie in (0, 1)")
    if M < 1:
        raise ParameterError("M must be a positive integer")
    return alpha * K3 ** 2 * L ** 2 * R / (4.0 * np.pi ** 2 * gamma * M ** 2)


def default_cutoffs(B: float, alpha: float,
                    K: Optional[float] = None) -> CutoffParams:
    """Standard parameter choices driven by B.

    K = B (ln B)^{-4/3} unless given, Kperp = sqrt(B),
    K3 = kappa^{-1/2} (ln B)^{3/2},
    L^2 = kappa^{1/5} K3^{-3/5} (ln Kperp)^{-3/5}, M = floor(1/L^2),
    gamma = kappa^{4/5} K3^{3/5} (ln Kperp)^{-7/5}.
    """
    if B < 1e3:
        raise ParameterError("default cutoffs require B >= 1e3")
    if K is None:
        K = B * np.log(B) ** (-4.0 / 3.0)
    if K < np.sqrt(B):
        raise ParameterError("default cutoffs require K >= sqrt(B)")
    kap = kappa(K, alpha)
    if kap <= 0:
        raise ParameterError("kappa must be positive for the default choices")
    lnB = np.log(B)
    Kperp = np.sqrt(B)
    K3 = kap ** -0.5 * lnB ** 1.5
    ln_kp = np.log(Kperp)
    L2 = kap ** 0.2 * K3 ** -0.6 * ln_kp ** -0.6
    M = max(1, int(np.floor(1.0 / L2)))
    gamma = kap ** 0.8 * K3 ** 0.6 * ln_kp ** -1.4
    return CutoffParams(K=K, K3=K3, Kperp=Kperp, gamma=gamma,
                        L=float(np.sqrt(L2)), M=M)


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
    every coupling.
    Out-of-range parameters mark the certificate invalid but the ledger is
    still returned.  Without cutoffs, default_cutoffs(B, alpha) applies.
    """
    params = PhysParams(B, alpha)
    lnB = np.log(B)
    if cutoffs is None:
        cutoffs = default_cutoffs(B, alpha)
    K = cutoffs.K

    kap = 1.0 - 8.0 * alpha / (np.pi * K)  # raw value; positivity is flagged
    kap1 = kappa1(kap, cutoffs.K3, B, alpha)
    kap2 = kappa2(kap, cutoffs.K3, cutoffs.Kperp, alpha)
    R = total_coupling_weight(cutoffs.K3, cutoffs.Kperp)
    loc = localization_error(cutoffs.L)
    blk = block_error(alpha, cutoffs.K3, cutoffs.L, cutoffs.gamma, cutoffs.M, R)

    if kap1 > 0:
        lam = alpha / (4.0 * np.pi ** 2 * (1.0 - cutoffs.gamma))
        problem = WeightedProblem(
            kap1, lam, lambda k: coupling_v(k, cutoffs.Kperp) ** 2, cutoffs.K3)
        sol = solve_weighted(problem)
        I_value = min(sol.energy, 0.0)
    else:
        I_value = np.nan

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
        "K_at_least_sqrtB": K >= np.sqrt(B),
        "kappa_window": KAPPA_GUARD * lnB ** -0.5 <= kap <= lnB / KAPPA_GUARD,
        # advisory flags: needed only for the absorbed asymptotic form
        "gamma_at_most_half": cutoffs.gamma <= 0.5,
        "kappa_gap_small": (kap - kap1) <= kap / 2.0,
        "B_over_K3sq_at_least_2": B / cutoffs.K3 ** 2 >= 2.0,
    }
    valid = bool(validity["kappa_positive"] and validity["kappa1_positive"]
                 and validity["gamma_in_range"]
                 and validity["mode_count_at_least_one"]
                 and validity["K_at_least_sqrtB"] and validity["kappa_window"]
                 and np.isfinite(p0))
    return LowerBoundCertificate(
        params=params, cutoffs=cutoffs, ledger=ledger, I_value=I_value,
        p0_bound=float(p0), validity=validity, valid=valid)


def conditional_full_bound(cert: LowerBoundCertificate, C_M: float) -> float:
    """Extend the projected bound to the full operator, conditionally on the
    caller-supplied reduction constant:
    p0_bound - C_M (ln B)^2 sqrt(K/B) - firstcut_constant."""
    if C_M < 0:
        raise ParameterError("C_M must be nonnegative")
    lnB = np.log(cert.params.B)
    penalty = (C_M * lnB ** 2 * np.sqrt(cert.cutoffs.K / cert.params.B)
               + cert.ledger.firstcut_constant)
    return cert.p0_bound - penalty


def certificate_to_dict(cert: LowerBoundCertificate) -> dict:
    """Flat dictionary with every cutoff and ledger term named; JSON-ready."""
    def _num(x):
        return None if x is None or not np.isfinite(x) else float(x)

    return {
        "B": cert.params.B,
        "alpha": cert.params.alpha,
        **asdict(cert.cutoffs),
        **asdict(cert.ledger),
        "I_value": _num(cert.I_value),
        "p0_bound": _num(cert.p0_bound),
        "conditional_full_bound": _num(cert.conditional_full_bound),
        "validity": {key: bool(val) for key, val in cert.validity.items()},
        "valid": bool(cert.valid),
        "assumptions": list(cert.assumptions),
    }
