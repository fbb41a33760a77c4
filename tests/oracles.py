"""Independent quadrature oracles used by the test suite.

These deliberately avoid the package's production evaluation paths: closed
forms are checked against adaptive or panel quadrature of their defining
integrals, transverse objects against 2D tensor Gauss-Legendre grids (the
twisted kernel is applied to states by brute-force quadrature to test its
norm bound), Coulomb energies against the analytic transform of the
sech-squared density and the sampled-kernel FFT path, and the off-grid
density transforms against their dense trigonometric sums over a power
spectrum formed here by its own rfft.  They may be slow; they exist only
under tests/.
"""
import mpmath
import numpy as np
from scipy import integrate, special

from magpolaron.errors import ResolutionError
from magpolaron.landau import effective_potential
from magpolaron.pekar import _transverse_rule

from lemmas import twisted_kernel, twisted_norm_bound


def sech_profile(a, b):
    def f(t):
        return (a * np.sqrt(b) / 2.0) / np.cosh(np.clip(a * b * t / 2.0, -700, 700))
    return f


def quad_mass(a, b):
    f = sech_profile(a, b)
    val, _ = integrate.quad(lambda t: f(t) ** 2, -np.inf, np.inf)
    return val


def quad_kinetic(a, b):
    scale = a * b / 2.0
    amp = a * np.sqrt(b) / 2.0

    def fp(t):
        arg = np.clip(scale * t, -350, 350)
        return -amp * scale * np.tanh(arg) / np.cosh(arg)
    val, _ = integrate.quad(lambda t: fp(t) ** 2, -np.inf, np.inf)
    return val


def quad_quartic(a, b):
    f = sech_profile(a, b)
    val, _ = integrate.quad(lambda t: f(t) ** 4, -np.inf, np.inf)
    return val


def quad_gn_ratio(fn, support=40.0):
    m, _ = integrate.quad(lambda t: fn(t) ** 2, -support, support)
    q, _ = integrate.quad(lambda t: fn(t) ** 4, -support, support)
    eps = 1e-6
    kin, _ = integrate.quad(
        lambda t: ((fn(t + eps) - fn(t - eps)) / (2 * eps)) ** 2,
        -support, support, limit=400)
    return kin ** 0.125 * m ** 0.375 / q ** 0.25


# ----------------------------------------------------------------------------
# transverse (2D) oracles


def gauss2d_nodes(L, order, inner=None):
    """Tensor Gauss-Legendre nodes on [-L, L]^2.

    With inner set, each axis uses geometric panels accumulating at 0 from
    inner up to L (singularity-aware); otherwise a single panel per axis.
    """
    if inner is None:
        edges = np.array([-L, 0.0, L])
    else:
        pos = [inner]
        while pos[-1] < L:
            pos.append(min(pos[-1] * 2.0, L))
        pos = np.array(pos)
        edges = np.concatenate([-pos[::-1], [0.0], pos])
        edges = np.unique(edges)
    xs, ws = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes1 = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    w1 = (half[:, None] * ws[None, :]).ravel()
    X, Y = np.meshgrid(nodes1, nodes1, indexing="ij")
    W = np.outer(w1, w1)
    return np.stack([X.ravel(), Y.ravel()], axis=-1), W.ravel()


def effective_potential_quad2d(z, B, order=16):
    """Transverse average of the Coulomb kernel by 2D tensor quadrature of the
    difference-density integral, with convergence doubling."""
    L = 12.0 / np.sqrt(B)

    def value(order_):
        pts, w = gauss2d_nodes(L, order_, inner=L * 1e-9)
        r2 = np.sum(pts * pts, axis=-1)
        integ = (B / (4 * np.pi)) * np.exp(-B * r2 / 4.0) / np.sqrt(r2 + z * z)
        return float(np.sum(w * integ))

    coarse, fine = value(order // 2), value(order)
    if abs(fine - coarse) > 1e-6 * max(abs(fine), 1.0):
        fine = value(2 * order)
    return fine


def transverse_reduction_residual(z, B, n1d=20):
    """Residual of the 4D -> 2D difference-density reduction at offset z:
    tensor quadrature of the full two-Gaussian double integral minus the
    reduced form.  Coarse by necessity (n1d^4 nodes)."""
    L = 7.0 / np.sqrt(B)
    xs, ws = np.polynomial.legendre.leggauss(n1d)
    x = xs * L
    w = ws * L
    gauss1d = np.exp(-B * x * x / 2.0)  # per-coordinate factor of |g|^2
    full = 0.0
    for i, x1 in enumerate(x):
        for j, x2 in enumerate(x):
            d2 = (x1 - x[:, None]) ** 2 + (x2 - x[None, :]) ** 2
            kern = 1.0 / np.sqrt(d2 + z * z)
            inner = np.sum((w * gauss1d)[:, None] * (w * gauss1d)[None, :] * kern)
            full += w[i] * gauss1d[i] * w[j] * gauss1d[j] * inner
    full *= (B / (2 * np.pi)) ** 2
    reduced = effective_potential_quad2d(z, B)
    return full - reduced


def twisted_norm_check(k_perp, B, states, nodes, weights):
    """Apply the twisted kernel to normalized transverse states by quadrature
    and compare against the norm bound.

    states: list of complex arrays sampled on `nodes` ((N,2) points with
    quadrature `weights`).  Returns (ok, margins) where margins are
    bound - measured norm for each state.
    """
    bound = twisted_norm_bound(k_perp, B)
    psi_mat = np.stack([np.asarray(s, dtype=complex) for s in states], axis=-1)
    weighted = weights[:, None] * psi_mat
    out = np.empty_like(psi_mat)
    chunk = max(1, int(2e6 // len(nodes)))
    for i in range(0, len(nodes), chunk):
        blk = twisted_kernel(nodes[i:i + chunk, None, :], nodes[None, :, :],
                             k_perp, B)
        out[i:i + chunk] = blk @ weighted
    norms_in = np.sqrt(np.sum(weights[:, None] * np.abs(psi_mat) ** 2, axis=0))
    norms_out = np.sqrt(np.sum(weights[:, None] * np.abs(out) ** 2, axis=0))
    margins = list(bound - norms_out / norms_in)
    return all(m >= 0 for m in margins), margins


def u_weight_quad(k3, B):
    """Radial quadrature of the transverse momentum integral behind the
    Fourier-side weight."""
    val, _ = integrate.quad(
        lambda r: 2 * np.pi * np.exp(-r * r / B) * r / (r * r + k3 * k3),
        0, np.inf, limit=200)
    return val


def transverse_weight_mp(k, B):
    """pi e^y E1(y), y = k^2/B, in 40-digit mpmath arithmetic: the transverse
    momentum integral int_0^inf e^{-u/B}/(u + k^2) du times pi."""
    with mpmath.workdps(40):
        y = mpmath.mpf(float(k)) ** 2 / mpmath.mpf(float(B))
        return float(mpmath.pi * mpmath.exp(y) * mpmath.e1(y))


def transverse_weight_one_matrix(k3, B):
    """The coherent route's transverse quadrature as one (k x s) Cauchy
    matrix product over pekar's node set: the reference its row blocks must
    reproduce bit for bit.  Defined where 1/y = B/k3^2 is a finite double."""
    s, numer = _transverse_rule()
    y = np.asarray(k3, dtype=float) ** 2 / B
    return np.pi * ((1.0 / (y[:, None] + s)) @ numer + np.log1p(1.0 / y))


def geometric_edges_loop(a, b):
    """Panel edges [0, a, 2a, 4a, ...] ending at b by doubling in a loop:
    the reference special.geometric_edges must reproduce bit for bit."""
    edges = [0.0, a]
    while edges[-1] < b:
        edges.append(min(edges[-1] * 2.0, b))
    return np.asarray(edges)


def trial_coulomb_mp(B):
    """(D, (ln B)^2/48 - D) of the sech trial state at b = ln B/2, in 30-digit
    mpmath arithmetic at the double B itself: D = (1/2 pi^2) int_0^inf
    pi e^x E1(x) |rho_hat(k)|^2 dk, x = k^2/B, over the density's transform
    rho_hat(k) = (pi k/b)/sinh(pi k/b), by tanh-sinh on [0, b/4, b, 4b, 16b,
    64b, inf]."""
    with mpmath.workdps(30):
        B = mpmath.mpf(float(B))
        b = mpmath.log(B) / 2

        def integrand(k):
            x = k * k / B
            rho_hat = (mpmath.pi * k / b) / mpmath.sinh(mpmath.pi * k / b)
            return mpmath.pi * mpmath.exp(x) * mpmath.e1(x) * rho_hat ** 2
        d = mpmath.quad(integrand, [0, b / 4, b, 4 * b, 16 * b, 64 * b,
                                    mpmath.inf]) / (2 * mpmath.pi ** 2)
        return float(d), float(b * b / 12 - d)


def kappa1_mp(kappa_value, K3, B, alpha):
    """kappa - (8 alpha/(pi K3)) e^x E1(x), x = K3^2/(2B), in 40-digit
    mpmath arithmetic, where neither 2B overflows nor x underflows."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(K3)) ** 2 / (2 * mpmath.mpf(float(B)))
        gap = 8 * alpha / (mpmath.pi * K3) * mpmath.exp(x) * mpmath.e1(x)
        return float(kappa_value - gap)


def weight_cell_average_mp(lo, hi, B):
    """(1/(hi - lo)) int_lo^hi pi e^x E1(x) dk, x = k^2/B, by 40-digit
    mpmath tanh-sinh quadrature; the log singularity at k = 0 sits at an
    endpoint.  maxdegree=10: at the default degree the quad is itself off
    by up to 2e-13."""
    with mpmath.workdps(40):
        b = mpmath.mpf(float(B))
        lo, hi = mpmath.mpf(float(lo)), mpmath.mpf(float(hi))

        def u(k):
            x = k * k / b
            return mpmath.pi * mpmath.exp(x) * mpmath.e1(x)
        return float(mpmath.quad(u, [lo, hi], maxdegree=10) / (hi - lo))


def coupling_weight_quad(K3, Kperp):
    """Adaptive quadrature of R = int_{|k|<=K3} pi (ln(Kperp^2+k^2) -
    ln(1+k^2)) dk."""
    val, _ = integrate.quad(
        lambda k: np.pi * (np.log(Kperp ** 2 + k * k) - np.log1p(k * k)),
        0.0, K3, limit=400, epsabs=1e-10, epsrel=1e-12)
    return 2.0 * val


def exp_scaled_e1_quad(x):
    """Adaptive quadrature of int_0^inf e^{-x t}/(1+t) dt = e^x E1(x)."""
    val, _ = integrate.quad(lambda t: np.exp(-x * t) / (1.0 + t), 0, np.inf,
                            limit=400)
    return val


def erfcx_quad(x):
    """e^{x^2} erfc(x) via quadrature of the tail integral."""
    val, _ = integrate.quad(lambda t: np.exp(-(t + x) * (t + x) + x * x),
                            0, np.inf, limit=200)
    return 2.0 / np.sqrt(np.pi) * val


# ----------------------------------------------------------------------------
# Coulomb energy of sech product states via the analytic density transform


def rho_hat_sech(k, a, b):
    """Transform of the sech-squared density: (pi k/b)/sinh(pi k/(a b))."""
    k = np.asarray(k, dtype=float)
    out = np.full_like(k, float(a))
    big = np.abs(k) > 1e-8
    arg = np.clip(np.pi * k[big] / (a * b), -700, 700)
    out[big] = (np.pi * k[big] / b) / np.sinh(arg)
    return out


def d_product_sech_quad(a, b, B):
    """D for the product state with longitudinal sech profile, by adaptive
    quadrature over the analytic density transform and the closed-form
    Fourier-side weight."""
    def u_weight(k):
        x = k * k / B
        if x < 1e-12:
            return np.pi * (-np.euler_gamma - np.log(max(x, 1e-300)))
        if x > 500:
            v = 0.0
            for j in range(80, 0, -1):
                v = j * j / (x + 2 * j + 1 - v)
            return np.pi / (x + 1 - v)
        return np.pi * np.exp(x) * special.exp1(x)

    def integrand(k):
        return float(rho_hat_sech(np.array([k]), a, b)[0] ** 2) * u_weight(k)

    v1, _ = integrate.quad(lambda s: integrand(np.exp(s)) * np.exp(s),
                           -40.0, 0.0, limit=400)
    v2, _ = integrate.quad(integrand, 1.0, np.inf, limit=400)
    return 2.0 * (v1 + v2) / (4 * np.pi ** 2)


def d_bilinear_gaussian_quad(c1, s1, c2, s2, B):
    """Bilinear Coulomb energy (1/2) iint rho1(x) rho2(y) V(x-y;B) dx dy for
    unit-mass Gaussian longitudinal densities centered at c_i with widths s_i,
    via their analytic transforms."""
    def rh(k, c, s):
        return np.exp(-0.5 * (s * k) ** 2)  # modulus; centers add a phase

    def integrand(k):
        x = k * k / B
        if x < 1e-12:
            u = np.pi * (-np.euler_gamma - np.log(max(x, 1e-300)))
        else:
            u = np.pi * np.exp(min(x, 500)) * special.exp1(min(x, 500)) \
                if x <= 500 else np.pi / x
        return rh(k, c1, s1) * rh(k, c2, s2) * np.cos(k * (c1 - c2)) * u

    v1, _ = integrate.quad(lambda s: integrand(np.exp(s)) * np.exp(s),
                           -40.0, 0.0, limit=400)
    v2, _ = integrate.quad(integrand, 1.0, np.inf, limit=400)
    return 2.0 * (v1 + v2) / (4 * np.pi ** 2)


# ----------------------------------------------------------------------------
# reference Coulomb path on the sampled kernel

GRID_KERNEL_GUARD = 1.0


def d_product_grid(f, B):
    """FFT convolution with the sampled potential on the padded grid.

    The potential has a corner at zero offset carrying slope -B/2 (and third
    derivative -B^2/2 one-sided), so the plain trapezoid value gets the two
    leading endpoint corrections; the residual scales like (h sqrt(B))^6,
    hence the resolution guard.
    """
    g = f.grid
    h = g.spacing
    if h * np.sqrt(B) > GRID_KERNEL_GUARD:
        raise ResolutionError(
            f"h*sqrt(B) = {h * np.sqrt(B):.3g} > {GRID_KERNEL_GUARD}: kernel "
            "sampling too coarse near zero offset; refine the grid")
    rho = f.values ** 2
    ft = np.fft.rfft(rho, 2 * g.n)  # zero-padded: no wrap-around
    corr = h * np.fft.irfft(ft.real ** 2 + ft.imag ** 2, 2 * g.n)
    lags = np.arange(2 * g.n)
    lags[g.n:] -= 2 * g.n
    z = np.abs(lags) * h
    trap = h * np.sum(corr * effective_potential(z, B))

    k_pos, measure = f.grid.wavenumbers(), folded_power(f)
    c0 = float(np.sum(measure))  # C(0)
    c2 = -float(np.sum(measure * k_pos ** 2))  # C''(0)
    correction = -(h ** 2) * B * c0 / 12.0 \
        + (h ** 4) * (B * B * c0 + 3.0 * B * c2) / 720.0
    return float(0.5 * (trap + correction))


# ----------------------------------------------------------------------------
# dense trigonometric sums behind the off-grid density transforms


def dense_fourier_at(rho_vals, grid, k):
    """rho_hat(k) = h * sum_j e^{-ik t_j} rho_j, t_j = (j - n/2) h, by the
    dense O(len(k) n) sum in 80-bit (np.longdouble) arithmetic: each phase
    k t_j is rounded once, to ~1e-19 relative; in doubles that rounding
    alone reached 2.4e-14 of h sum rho at n = 8192."""
    k = np.atleast_1d(np.asarray(k, dtype=float)).astype(np.longdouble)
    h = np.longdouble(grid.spacing)
    t = (np.arange(grid.n) - grid.n // 2) * h
    rho = np.asarray(rho_vals, dtype=np.longdouble)
    return (h * _dense_sum(lambda x: np.exp(-1j * x), k, t, rho)).astype(complex)


def folded_power(f):
    """fold_m |rho_hat_m|^2 / 2T on the one-sided dual grid m = 0..n/2,
    rho_hat = h rfft(f^2), the negative wavenumbers folded into m = 1..n/2-1:
    C(z) = sum_m power_m cos(m pi z / T), and C(0) = h sum rho^2."""
    g = f.grid
    rho_hat = g.spacing * np.fft.rfft(f.values ** 2)
    power = (rho_hat.real ** 2 + rho_hat.imag ** 2) / (2.0 * g.half_width)
    power[1:-1] *= 2.0
    return power


def dense_correlation_at(f, z):
    """C(z) = sum_m measure_m cos(m pi z / T) over folded_power by the
    dense sum in 80-bit arithmetic, pi being the double np.pi that the
    dual grid k_m = m pi / T is built from."""
    measure = folded_power(f)
    theta = np.asarray(z, dtype=np.longdouble) * (np.longdouble(np.pi)
                                                  / f.grid.half_width)
    m = np.arange(len(measure)).astype(np.longdouble)
    return _dense_sum(np.cos, theta, m,
                      measure.astype(np.longdouble)).astype(float)


def _dense_sum(kernel, rows, cols, coeffs):
    """sum_j kernel(rows_i * cols_j) coeffs_j for every row, in row chunks
    that keep each dense kernel block near 4e6 entries."""
    chunk = max(1, int(4e6 // len(cols)))
    return np.concatenate([np.zeros(0, dtype=coeffs.dtype)] + [
        kernel(np.outer(rows[i:i + chunk], cols)) @ coeffs
        for i in range(0, len(rows), chunk)])


# ----------------------------------------------------------------------------
# the masked forms of U and e^x E1(x) that the trimmed program forms replace


def exp_scaled_e1_masked(x):
    """e^x E1(x) for an array x > 0 by the masked form: scipy's exp1 below
    500, the 80-term continued fraction above; the reference the trimmed
    special.exp_scaled_e1 must reproduce bit for bit."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("exp_scaled_e1 requires x > 0")
    lo = x < 500.0
    if lo.all():
        return np.exp(x) * special.exp1(x)
    scalar = x.ndim == 0
    x, lo = np.atleast_1d(x), np.atleast_1d(lo)
    out = np.empty_like(x)
    out[lo] = np.exp(x[lo]) * special.exp1(x[lo])
    xh = x[~lo]
    v = np.zeros_like(xh)
    for j in range(80, 0, -1):
        v = j * j / (xh + 2 * j + 1 - v)
    out[~lo] = 1.0 / (xh + 1 - v)
    return out[0] if scalar else out


def effective_potential_fourier_masked(k3, B):
    """U(k;B) = pi e^{k^2/B} E1(k^2/B) by the masked array form, scalars
    included: the reference the trimmed landau.effective_potential_fourier
    must reproduce bit for bit."""
    k = np.abs(np.asarray(k3, dtype=float))
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    with np.errstate(over="ignore"):
        x = (k / np.sqrt(B)) ** 2
    tiny = x < 1e-12
    out = np.pi * exp_scaled_e1_masked(np.where(tiny, 1.0, x))
    if tiny.any():
        with np.errstate(divide="ignore"):
            lead = -np.euler_gamma - 2.0 * np.log(k[tiny]) + np.log(B)
        xt = x[tiny]
        nxt = np.multiply(xt, 1.0 + lead, out=np.zeros_like(xt), where=xt > 0)
        out[tiny] = np.pi * (lead + nxt)
    return float(out[0]) if scalar else out
