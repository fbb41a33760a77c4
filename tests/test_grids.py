import numpy as np
import pytest
from hypothesis import given, strategies as st

from magpolaron import (DomainTooSmallError, Field1D, Grid1D,
                        InvalidFieldError, centroid, kinetic, mass, quartic,
                        shift_field, standard_grid)
from magpolaron.grids import density_fourier_at, density_power

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
        g = Grid1D(256, 10.0)
        k = np.sort(g.wavenumbers())
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
        g = standard_grid()
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


class TestShift:
    def test_shift_moves_centroid(self, grid):
        f = sech_field(grid, 1.0, 2.0)
        moved = shift_field(f, -3.0)  # samples f(t - 3): centroid at +3
        assert centroid(moved) == pytest.approx(3.0, abs=1e-8)
        assert mass(moved) == pytest.approx(mass(f), rel=1e-12)
