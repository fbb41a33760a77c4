import numpy as np
import pytest
from hypothesis import given, strategies as st

from magpolaron import (DomainTooSmallError, Field1D, Grid1D,
                        InvalidFieldError, centroid, kinetic, mass, quartic,
                        shift_field, sweep_grid)
from magpolaron.decomposition import (fourier_side_energy,
                                      longitudinal_double_integral)
from magpolaron.grids import (density_correlation_at, density_fourier_at,
                              density_power)

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
        m0 = density_fourier_at(f11.values ** 2, grid, 0.0)[0]
        assert m0.real == pytest.approx(mass(f11), rel=1e-12)
        assert abs(m0.imag) < 1e-12

    def test_gaussian_transform(self):
        g = Grid1D(4096, 40.0)
        t = g.points()
        k = g.wavenumbers()
        k = k[np.abs(k) <= 10.0]
        rho_hat = density_fourier_at(np.exp(-t * t) / np.sqrt(np.pi), g, k)
        assert np.max(np.abs(rho_hat - np.exp(-k ** 2 / 4.0))) < 1e-12

    def test_parseval_random(self, grid):
        rng = np.random.default_rng(11)
        f = bump_field(grid, rng)
        _, measure = density_power(f)
        rhs = grid.spacing * np.sum(f.values ** 4)
        assert np.sum(measure) == pytest.approx(rhs, rel=1e-10)

    @given(seed=st.integers(0, 10_000))
    def test_parseval_property(self, grid, seed):
        rng = np.random.default_rng(seed)
        f = bump_field(grid, rng)
        _, measure = density_power(f)
        rhs = grid.spacing * np.sum(f.values ** 4)
        assert np.sum(measure) == pytest.approx(rhs, rel=1e-10)


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


def _check_against_dense(f, k, z, phase_slack=False):
    """The fast off-grid transforms against the dense sums: |d rho_hat| <=
    1e-14 h sum|rho| and |d C| <= 1e-14 C(0).

    With phase_slack the rho_hat bound also allows the dense sum's own
    first-order rounding of its phases k t_j, eps |k| h sum|rho_j t_j|: on
    bumps 4 off centre at n = 8192 that alone reaches 2e-14 h sum|rho| in
    the band (against an 80-bit sum, the fast transform stays below 3e-17)."""
    g = f.grid
    rho = f.values ** 2
    bound = 1e-14 * g.spacing * np.sum(np.abs(rho))
    if phase_slack:
        bound = bound + np.finfo(float).eps * np.abs(k) * g.spacing \
            * np.sum(np.abs(rho * g.points()))
    fast = density_fourier_at(rho, g, k)
    dense = oracles.dense_fourier_at(rho, g, k)
    assert np.all(np.abs(fast - dense) <= bound)
    c0 = np.sum(density_power(f)[1])
    fast_c = density_correlation_at(f, z)
    dense_c = oracles.dense_correlation_at(f, z)
    assert np.max(np.abs(fast_c - dense_c)) <= 1e-14 * c0


class TestTrigSum:
    """density_fourier_at and density_correlation_at against the dense
    trigonometric sums they replace."""

    @pytest.mark.parametrize("n", [64, 8192])
    @pytest.mark.parametrize("lnB", [10.0, 30.0])
    def test_production_nodes(self, n, lnB):
        # the sech trial state, on the sweep grid's width at n = 8192
        B = np.exp(lnB)
        half_width = sweep_grid(B, 1.0).half_width if n == 8192 else 8.0
        f = sech_field(Grid1D(n, half_width), 1.0, lnB / 2.0)
        k, z = _production_nodes(f, B)
        # interior Gauss-Legendre nodes: both paths stay inside their band
        assert np.all((k > 0) & (k < np.pi / f.grid.spacing))
        assert np.all((z > 0) & (z < f.grid.half_width))
        _check_against_dense(f, k, z)

    @pytest.mark.parametrize("n", [64, 8192])
    def test_band_edges(self, n):
        g = Grid1D(n, 40.0)
        f = bump_field(g, np.random.default_rng(5))
        nyquist = np.pi / g.spacing
        k = nyquist * np.array([0.0, 1.0, -1.0, 0.5, -0.75, 1e-3, -0.999])
        z = np.array([0.0, g.half_width, 0.5 * g.half_width])
        _check_against_dense(f, k, z)

    @pytest.mark.parametrize("n", [64, 8192])
    @given(seed=st.integers(0, 10_000))
    def test_random_fields_and_nodes(self, n, seed):
        g = Grid1D(n, 40.0)
        rng = np.random.default_rng(seed)
        f = bump_field(g, rng)
        k = rng.uniform(-1.0, 1.0, 64) * np.pi / g.spacing
        z = rng.uniform(0.0, g.half_width, 64)
        _check_against_dense(f, k, z, phase_slack=True)


class TestShift:
    def test_shift_moves_centroid(self, grid):
        f = sech_field(grid, 1.0, 2.0)
        moved = shift_field(f, -3.0)  # samples f(t - 3): centroid at +3
        assert centroid(moved) == pytest.approx(3.0, abs=1e-8)
        assert mass(moved) == pytest.approx(mass(f), rel=1e-12)
