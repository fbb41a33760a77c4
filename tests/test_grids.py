import numpy as np
import pytest
from hypothesis import given, strategies as st

from magpolaron import (DomainTooSmallError, Field1D, Grid1D,
                        InvalidFieldError, ParameterError, kinetic, mass,
                        quartic)
from magpolaron import decomposition, grids, pekar, special
from magpolaron.decomposition import (fourier_side_energy,
                                      longitudinal_double_integral)
from magpolaron.grids import (FourierTaps, density_correlation_at,
                              density_fourier_at, one_sided_fold)

from conftest import bump_field, sech_field
import oracles


class TestGrid1D:
    def test_spacing_and_points(self):
        g = Grid1D(128, 8.0)
        assert g.spacing == pytest.approx(0.125)
        t = g.points()
        assert t[0] == -8.0
        assert t[-1] == pytest.approx(8.0 - g.spacing)

    @pytest.mark.parametrize("n", [63, 100, 32])
    def test_rejects_bad_sample_count(self, n):
        with pytest.raises(ValueError):
            Grid1D(n, 8.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            Grid1D(128, 0.0)

    def test_dual_spacing(self):
        # one-sided: n/2 + 1 wavenumbers from 0 to pi/h, as rfft returns them
        g = Grid1D(256, 10.0)
        k = g.wavenumbers()
        assert k.shape == (g.n // 2 + 1,)
        assert k[0] == 0.0
        assert k[-1] == pytest.approx(np.pi / g.spacing, rel=1e-15)
        assert np.allclose(np.diff(k), np.pi / g.half_width)


class TestFunctionals:
    def test_mass_sech_unit(self, grid, f11):
        assert mass(f11) == pytest.approx(1.0, abs=1e-10)

    def test_mass_zero_field(self, grid):
        assert mass(Field1D(grid, np.zeros(grid.n))) == 0.0

    def test_mass_sech_23(self, grid):
        f = sech_field(grid, 2.0, 3.0)
        assert mass(f) == pytest.approx(oracles.quad_mass(2, 3), abs=1e-10)
        assert mass(f) == pytest.approx(2.0, abs=1e-10)

    def test_kinetic_sech_11(self, f11):
        assert kinetic(f11) == pytest.approx(oracles.quad_kinetic(1, 1), abs=1e-8)
        assert kinetic(f11) == pytest.approx(1.0 / 12.0, abs=1e-8)

    def test_kinetic_sech_23(self, grid):
        f = sech_field(grid, 2.0, 3.0)
        assert kinetic(f) == pytest.approx(6.0, abs=1e-6)

    def test_kinetic_zero_field(self, grid):
        assert kinetic(Field1D(grid, np.zeros(grid.n))) == 0.0

    def test_quartic_values(self, grid, f11):
        assert quartic(f11) == pytest.approx(oracles.quad_quartic(1, 1), abs=1e-8)
        assert quartic(f11) == pytest.approx(1.0 / 6.0, abs=1e-8)
        f12 = sech_field(grid, 1.0, 2.0)
        assert quartic(f12) == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert quartic(Field1D(grid, np.zeros(grid.n))) == 0.0

    def test_nonfinite_samples_rejected(self, grid):
        bad = np.zeros(grid.n)
        bad[5] = np.nan
        with pytest.raises(InvalidFieldError):
            Field1D(grid, bad)

    def test_kinetic_requires_boundary_decay(self):
        g = Grid1D(256, 2.0)
        t = g.points()
        f = Field1D(g, np.exp(-t * t))  # e^{-4} at the edge: not decayed
        with pytest.raises(DomainTooSmallError):
            kinetic(f)

    def test_translation_invariance(self, grid):
        f = sech_field(grid, 1.0, 2.0)
        rolled = Field1D(grid, np.roll(f.values, 137))
        for op in (mass, kinetic, quartic):
            assert op(rolled) == pytest.approx(op(f), rel=1e-10)

    def test_refinement_stability(self):
        vals = {}
        for n in (4096, 8192):
            f = sech_field(Grid1D(n, 40.0), 1.0, 1.0)
            vals[n] = (mass(f), kinetic(f), quartic(f))
        for a, b in zip(vals[4096], vals[8192]):
            assert a == pytest.approx(b, rel=1e-10)


class TestDensityFourier:
    def test_zero_frequency_is_mass(self, grid, f11):
        m0 = density_fourier_at(f11.values ** 2, grid,
                                FourierTaps(grid.n, 0.0))[0]
        assert m0.real == pytest.approx(mass(f11), rel=1e-12)
        assert abs(m0.imag) < 1e-12

    def test_gaussian_transform(self):
        g = Grid1D(4096, 40.0)
        t = g.points()
        k = g.wavenumbers()  # k_m = m pi/T: the nodes u = m
        (m,) = np.nonzero(np.abs(k) <= 10.0)
        rho_hat = density_fourier_at(np.exp(-t * t) / np.sqrt(np.pi), g,
                                     FourierTaps(g.n, m))
        assert np.max(np.abs(rho_hat - np.exp(-k[m] ** 2 / 4.0))) < 1e-12

    def test_parseval_random(self, grid):
        # C(0) = h sum rho^2 on the Coulomb path's own transform
        rng = np.random.default_rng(11)
        f = bump_field(grid, rng)
        rhs = grid.spacing * np.sum(f.values ** 4)
        assert density_correlation_at(f, 0.0)[0] == pytest.approx(rhs,
                                                                  rel=1e-10)

    @given(seed=st.integers(0, 10_000))
    def test_parseval_property(self, grid, seed):
        rng = np.random.default_rng(seed)
        f = bump_field(grid, rng)
        rhs = grid.spacing * np.sum(f.values ** 4)
        assert density_correlation_at(f, 0.0)[0] == pytest.approx(rhs,
                                                                  rel=1e-10)


class TestOneSidedFold:
    """h sum x y = (h/n) sum fold Re(X conj Y) on the one-sided spectra.
    Smooth minimizers carry no Nyquist content, so no pinned output would
    notice a wrong end weight; these fields carry a constant and an
    alternating (-1)^j part, i.e. content at m = 0 and at m = n/2."""

    @staticmethod
    def field(n, rng):
        alt = (-1.0) ** np.arange(n)
        return rng.normal(size=n) + rng.uniform(1, 2) + rng.uniform(1, 2) * alt

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectral_inner_product(self, n, seed):
        rng = np.random.default_rng(seed)
        h = Grid1D(n, 7.0).spacing
        x, y = self.field(n, rng), self.field(n, rng)
        X, Y = np.fft.rfft(x), np.fft.rfft(y)

        def spectral(fold):  # the sphere flow's dot product on float views
            g = np.repeat(h / n * fold, 2)
            return np.dot(g * X.view(float), Y.view(float))

        lhs = h * np.sum(x * y)
        scale = h * np.linalg.norm(x) * np.linalg.norm(y)
        fold = one_sided_fold(n)
        assert abs(spectral(fold) - lhs) <= 1e-14 * scale
        for end in (0, -1):  # a doubled end weight misses by its own term
            wrong = fold.copy()
            wrong[end] = 2.0
            assert abs(spectral(wrong) - lhs) > 1e-2 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correlation_parseval_at_both_ends(self, seed):
        # C(0) counts m = 0 and the Nyquist m = n/2 once, the modes between
        # twice: a wrong end weight misses h sum rho^2
        grid = Grid1D(256, 7.0)
        f = Field1D(grid, self.field(grid.n, np.random.default_rng(seed)))
        rhs = grid.spacing * np.sum(f.values ** 4)
        assert density_correlation_at(f, 0.0)[0] == pytest.approx(rhs,
                                                                  rel=1e-14)


def _production_nodes(f, B):
    """The k nodes of the Fourier path and the z nodes of the real path, as
    the two Coulomb paths pass them to their weight and kernel."""
    seen = {}

    def record(name):
        def at(x):
            seen[name] = np.array(x)
            return np.zeros_like(x)
        return at

    fourier_side_energy(f, record("k"))
    longitudinal_double_integral(f, record("z"), 1.0 / np.sqrt(B))
    return seen["k"], seen["z"]


def _check_against_dense(f, u, z):
    """The fast off-grid transforms against the dense 80-bit sums, the
    Fourier one at k = u pi/T through FourierTaps(n, u):
    |d rho_hat| <= 4e-15 h sum|rho| and |d C| <= 4e-15 C(0)."""
    g = f.grid
    rho = f.values ** 2
    fast = density_fourier_at(rho, g, FourierTaps(g.n, u))
    dense = oracles.dense_fourier_at(rho, g, u * (np.pi / g.half_width))
    assert np.max(np.abs(fast - dense)) <= 4e-15 * g.spacing * np.sum(rho)
    c0 = np.sum(oracles.folded_power(f))
    fast_c = density_correlation_at(f, z)
    dense_c = oracles.dense_correlation_at(f, z)
    assert np.max(np.abs(fast_c - dense_c)) <= 4e-15 * c0


class TestTrigSum:
    """density_fourier_at (the complex fine grid) and density_correlation_at
    (the real one) against the dense trigonometric sums they replace; the
    Fourier nodes are u = k T/pi, |u| <= n/2."""

    @pytest.mark.parametrize("n", [64, 8192])
    @pytest.mark.parametrize("lnB", [10.0, 30.0])
    def test_production_nodes(self, n, lnB):
        # the sech trial state, at n = 8192 on its own grid's half-width
        # 120/b = 240/ln B: 24 at ln B = 10 and 8 at ln B = 30
        B = np.exp(lnB)
        half_width = 240.0 / lnB if n == 8192 else 8.0
        f = sech_field(Grid1D(n, half_width), 1.0, lnB / 2.0)
        k, z = _production_nodes(f, B)
        # the weight's nodes are the rule's u at k = u pi/T
        u = decomposition._fourier_rule(n)[0]
        assert np.array_equal(k, (np.pi / f.grid.half_width) * u)
        # interior Gauss-Legendre nodes: both paths stay inside their band
        assert np.all((u > 0) & (u < n // 2))
        assert np.all((z > 0) & (z < f.grid.half_width))
        _check_against_dense(f, u, z)

    @pytest.mark.parametrize("n", [64, 8192])
    def test_band_edges(self, n):
        g = Grid1D(n, 40.0)
        f = bump_field(g, np.random.default_rng(5))
        u = n // 2 * np.array([0.0, 1.0, -1.0, 0.5, -0.75, 1e-3, -0.999])
        z = np.array([0.0, g.half_width, 0.5 * g.half_width])
        _check_against_dense(f, u, z)

    @pytest.mark.parametrize("n", [64, 8192])
    def test_band_ends_exactly(self, n):
        # x = -2 pi u/n at u = -+n/2, and x = pi z / T at z = -+T with T a
        # power of two, are exactly -+pi, the last fine cell each way
        g = Grid1D(n, 8.0)
        f = bump_field(g, np.random.default_rng(7))
        u = np.array([n // 2, -(n // 2)], dtype=float)
        z = np.array([g.half_width, -g.half_width])
        assert (u * (-2.0 * np.pi / n)).tolist() == [-np.pi, np.pi]
        assert (z * (np.pi / g.half_width)).tolist() == [np.pi, -np.pi]
        _check_against_dense(f, u, z)

    @pytest.mark.parametrize("n", [64, 8192])
    def test_band_ends_rounded_outward(self, n):
        # at T = 25 the correlation's x at z = -+T rounds to one ulp past
        # -+pi, so -pi falls in the spare fine cell below the band; the
        # Fourier side's x at u = -+n/2 is -+pi at every T
        g = Grid1D(n, 25.0)
        f = bump_field(g, np.random.default_rng(9))
        u = np.array([n // 2, -(n // 2)], dtype=float)
        z = np.array([g.half_width, -g.half_width])
        assert np.all(np.abs(z * (np.pi / g.half_width)) > np.pi)
        _check_against_dense(f, u, z)

    @pytest.mark.parametrize("n", [64, 8192])
    def test_fine_cell_boundaries(self, n):
        # x = pi l / n falls on the edge of fine cell l of the 2n-cell grid,
        # at u = l / 2 and z = l h / 2, from one end of the band to the
        # other; rounding puts some just below the edge, so floor picks
        # either neighbour
        g = Grid1D(n, 8.0)
        rng = np.random.default_rng(11)
        f = bump_field(g, rng)
        cells = np.r_[-n, 1 - n, -1, 0, 1, n - 1, n, rng.integers(-n, n, 40)]
        _check_against_dense(f, cells / 2.0, cells * (g.spacing / 2))

    @pytest.mark.parametrize("n", [64, 8192])
    def test_single_node(self, n):
        g = Grid1D(n, 40.0)
        f = bump_field(g, np.random.default_rng(3))
        _check_against_dense(f, np.array([3.8]), np.array([1.7]))
        # a scalar node comes back as one value, on both grids
        rho = f.values ** 2
        assert density_fourier_at(rho, g, FourierTaps(n, 3.8)).shape == (1,)
        assert density_correlation_at(f, 1.7).shape == (1,)

    @pytest.mark.parametrize("n", [64, 8192])
    def test_nodes_off_the_band_raise(self, n):
        # the gather's padded window cannot wrap as an index mod 2n did: a
        # node past the band end is refused, by FourierTaps on the Fourier
        # side, not read from a wrong window
        g = Grid1D(n, 8.0)
        f = bump_field(g, np.random.default_rng(5))
        end = n // 2
        for u in (np.nextafter(end, np.inf), -np.nextafter(end, np.inf),
                  -1.5 * end, np.nan):
            with pytest.raises(ParameterError):
                FourierTaps(n, np.array([0.0, u]))
        for z in (np.nextafter(g.half_width, np.inf), -2.0 * g.half_width,
                  np.nan):
            with pytest.raises(ParameterError):
                density_correlation_at(f, np.array([0.0, z]))

    @pytest.mark.parametrize("n", [64, 8192])
    @given(seed=st.integers(0, 10_000))
    def test_random_fields_and_nodes(self, n, seed):
        g = Grid1D(n, 40.0)
        rng = np.random.default_rng(seed)
        f = bump_field(g, rng)
        u = rng.uniform(-1.0, 1.0, 64) * (n // 2)
        z = rng.uniform(0.0, g.half_width, 64)
        _check_against_dense(f, u, z)


class TestFixedTaps:
    """The Fourier rule's nodes k = u pi/T with taps built once per n:
    x = -k h = -2 pi u/n, whatever T.  Taps built per call from the rule's
    k on one grid, at k T/pi, give the same transform."""

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("half_width", [5.3, 8.0, 40.0, 1e-3])
    @pytest.mark.parametrize("b", [1.5, 4.0])
    def test_rule_nodes_match_the_per_call_transform(self, n, half_width, b):
        # decayed sech densities, their width a fixed share of the box
        g = Grid1D(n, half_width)
        rho = sech_field(g, 1.0, b * 8.0 / half_width).values ** 2
        u, _, taps = decomposition._fourier_rule(n)
        fixed = density_fourier_at(rho, g, taps)
        k = (np.pi / half_width) * u
        per_call = FourierTaps(n, k * half_width / np.pi)
        scale = g.spacing * np.sum(rho)  # rho_hat(0)
        assert np.max(np.abs(fixed - density_fourier_at(rho, g, per_call))) \
            <= 5e-16 * scale
        assert np.max(np.abs(fixed - oracles.dense_fourier_at(rho, g, k))) \
            <= 4e-15 * scale

    def test_band(self):
        for u in ([32.0, -32.0, 0.0], [31.999]):
            FourierTaps(64, np.array(u))
        for u in ([32.000001], [-33.0], [np.nan]):
            with pytest.raises(ParameterError):
                FourierTaps(64, np.array(u))

    def test_taps_serve_only_their_n(self):
        taps = FourierTaps(64, np.array([1.0, 2.5]))
        with pytest.raises(ParameterError):
            density_fourier_at(np.ones(128), Grid1D(128, 5.0), taps)


@pytest.mark.parametrize("rule", [
    lambda: (grids._deconvolution(64),), lambda: (grids._mode_squares(64),),
    special._log_end_unit, lambda: decomposition._fourier_rule(64)[:2],
    lambda: (decomposition._fourier_rule(1024)[2].rows,
             decomposition._fourier_rule(1024)[2].gauss),
    decomposition._kernel_remainder_rule,
    lambda: special._legendre_rule(16), lambda: special.log_end_octaves(8, 24),
    pekar._trial_rule, pekar._transverse_rule],
    ids=["deconvolution", "mode_squares", "log_end_unit", "fourier_rule",
         "fourier_taps", "kernel_remainder_rule", "legendre_rule",
         "log_end_octaves", "trial_rule", "transverse_rule"])
def test_rules_built_once_are_read_only(rule):
    # each call hands out the one cached array: a write would change every
    # later transform or quadrature, so it raises instead
    arrays = rule()
    assert all(a is b for a, b in zip(arrays, rule()))
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0
