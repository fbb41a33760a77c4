"""The paper's lemma objects, as the test suite checks them.

The lowest-Landau-level projector kernel, the twisted kernel and norm bound
it leaves on plane waves, the transverse average of the Coulomb kernel over
an arbitrary radial density, diagonal domination on two-level Landau
mixtures, and the sharp Gagliardo-Nirenberg constant.  No production path
evaluates them; the tests compare each against 2D oracles or closed forms.
"""
from dataclasses import dataclass, field

import numpy as np
import scipy.special as _sc

from magpolaron.decomposition import longitudinal_double_integral
from magpolaron.errors import InvalidFieldError, ParameterError
from magpolaron.grids import Field1D, kinetic, mass, quartic
from magpolaron.special import gauss_legendre_panels, geometric_edges


# ----------------------------------------------------------------------------
# projector and twisted kernel


@dataclass(frozen=True)
class RadialTransverseDensity:
    """Radial transverse density samples on a quadrature grid; unit mass."""

    B: float
    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # radial quadrature weights (dr)

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if r.shape != v.shape or r.shape != w.shape:
            raise InvalidFieldError("radii, values, weights must share a shape")
        if np.any(v < -1e-12):
            raise InvalidFieldError("transverse density must be nonnegative")
        m = 2 * np.pi * np.sum(w * r * np.clip(v, 0.0, None))
        if abs(m - 1.0) > 1e-6:
            raise InvalidFieldError(f"transverse density mass {m} != 1")
        for name, arr in (("radii", r), ("values", v), ("weights", w)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_profile(cls, B: float, profile) -> "RadialTransverseDensity":
        """Samples on 8 Gauss-Legendre panels of order 50 out to 12/sqrt(B)."""
        nodes, w = gauss_legendre_panels(np.linspace(0.0, 12.0 / np.sqrt(B), 9),
                                         order=50)
        vals = np.asarray(profile(nodes), dtype=float)
        m = 2 * np.pi * np.sum(w * nodes * vals)
        return cls(B, nodes, vals / m, w)


def lll_projector_kernel(x_perp, y_perp, B: float) -> np.ndarray:
    """Kernel (B/2pi) e^{-B|x-y|^2/4} e^{iB(x1 y2 - x2 y1)/2} of the
    lowest-level projector; arrays broadcast over a trailing 2-axis."""
    if not B > 0:
        raise ParameterError("B must be positive")
    x = np.asarray(x_perp, dtype=float)
    y = np.asarray(y_perp, dtype=float)
    d2 = np.sum((x - y) ** 2, axis=-1)
    cross = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    return (B / (2 * np.pi)) * np.exp(-B * d2 / 4.0) * np.exp(1j * B * cross / 2.0)


def projected_phase_factor(k_perp, B: float) -> float:
    """Factor e^{-|k|^2/2B} produced when the projector sandwiches e^{ik.x};
    also the Gaussian expectation (g_B, e^{ik.x} g_B)."""
    if not B > 0:
        raise ParameterError("B must be positive")
    k = np.asarray(k_perp, dtype=float)
    return float(np.exp(-np.sum(k * k) / (2.0 * B)))


def twisted_kernel(x_perp, y_perp, k_perp, B: float) -> np.ndarray:
    """Kernel of the operator left over after the projector absorbs e^{ik.x}:
    P0(x,y) e^{k ^ (x-y)/2} e^{ik.(x+y)/2} with k ^ u = k1 u2 - k2 u1."""
    x = np.asarray(x_perp, dtype=float)
    y = np.asarray(y_perp, dtype=float)
    k = np.asarray(k_perp, dtype=float)
    wedge = k[0] * (x[..., 1] - y[..., 1]) - k[1] * (x[..., 0] - y[..., 0])
    plane = k[0] * (x[..., 0] + y[..., 0]) + k[1] * (x[..., 1] + y[..., 1])
    return lll_projector_kernel(x, y, B) * np.exp(wedge / 2.0) * np.exp(1j * plane / 2.0)


def twisted_norm_bound(k_perp, B: float) -> float:
    """Operator-norm bound 2 e^{|k|^2/4B} for the twisted kernel."""
    k = np.asarray(k_perp, dtype=float)
    return float(2.0 * np.exp(np.sum(k * k) / (4.0 * B)))


def effective_potential_general(rho: RadialTransverseDensity, z) -> np.ndarray:
    """Transverse average of the Coulomb kernel over an arbitrary radial
    density, evaluated at longitudinal offsets z.

    Uses the rotation-symmetric transform rho_hat(k) = 2 pi int rho(r) J0(kr) r dr
    and V(z) = int_0^inf rho_hat(k)^2 e^{-k|z|} dk, both by radial quadrature.
    """
    B = rho.B
    k_max = 10.0 * np.sqrt(B)
    # geometric panels resolve every decay scale of e^{-k|z|} down to
    # k_max * 1e-8 as well as the transform's own sqrt(B) scale
    edges = geometric_edges(k_max * 1e-8, k_max)
    k_nodes, k_w = gauss_legendre_panels(edges, order=16)
    bess = _sc.j0(np.outer(k_nodes, rho.radii))
    rho_hat = 2 * np.pi * bess @ (rho.weights * rho.radii * rho.values)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.exp(-np.outer(np.abs(z), k_nodes)) @ (k_w * rho_hat ** 2)
    return out if out.size > 1 else float(out[0])


# ----------------------------------------------------------------------------
# projection inequality on Landau mixtures


def ground_radial(B: float):
    """Radial amplitude of the ground transverse Gaussian."""
    def amp(r):
        r = np.asarray(r, dtype=float)
        return np.sqrt(B / (2 * np.pi)) * np.exp(-B * r * r / 4.0)
    return amp


def first_excited_radial(B: float):
    """Radial amplitude of the first excited zero-angular-momentum level,
    orthogonal to the ground Gaussian and normalized."""
    def amp(r):
        r = np.asarray(r, dtype=float)
        return np.sqrt(B / (2 * np.pi)) * (1.0 - B * r * r / 2.0) * np.exp(-B * r * r / 4.0)
    return amp


def offdiag_bound_check(eps: float, c0: float, c1: float, f: Field1D, B: float):
    """Check the diagonal-domination inequality on a two-level mixture.

    The transverse state is c0 * (ground Gaussian) + c1 * (radial first
    excited level), c0^2 + c1^2 = 1.  All three Coulomb energies are computed
    through the general radial-density potential.  Returns (passed, margin,
    lhs, rhs) with margin = rhs - lhs.
    """
    if not (0 < eps <= 1):
        raise ParameterError("eps must lie in (0, 1]")
    if abs(c0 * c0 + c1 * c1 - 1.0) > 1e-10:
        raise ParameterError("mixture coefficients must satisfy c0^2+c1^2=1")
    g = ground_radial(B)
    psi1 = first_excited_radial(B)
    scale = 1.0 / np.sqrt(B)

    def d_with(density_profile):
        rho = RadialTransverseDensity.from_profile(B, density_profile)
        return longitudinal_double_integral(
            f, lambda z: effective_potential_general(rho, z), scale)

    d_full = d_with(lambda r: (c0 * g(r) + c1 * psi1(r)) ** 2)
    d_low = c0 ** 4 * d_with(lambda r: g(r) ** 2)
    d_high = c1 ** 4 * d_with(lambda r: psi1(r) ** 2)

    lhs = d_full
    rhs = (1 + 3 * eps + 2 * eps * eps) * d_low \
        + (1 + eps) ** 2 * (1 + 2 * eps) * eps ** -3 * d_high
    margin = rhs - lhs
    return margin >= 0.0, margin, lhs, rhs


# ----------------------------------------------------------------------------
# sharp Gagliardo-Nirenberg constant


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
