import numpy as np
import pytest

from magpolaron import (Field1D, Grid1D, ParameterError, ResolutionError,
                        coulomb_D_product, d_product_fourier, d_product_real,
                        decompose, kinetic, mass, quartic, trial_state)
from magpolaron.decomposition import (_kernel_remainder_coefficient,
                                      _main_coefficient,
                                      _smooth_remainder_bound)

from conftest import sech_field
from lemmas import first_excited_radial, ground_radial, offdiag_bound_check
from oracles import d_product_grid
import oracles


class TestDualPaths:
    # (a, b, B, n, T): grids chosen so the sampled-kernel path clears its
    # h*sqrt(B) guard with margin
    BATTERY = [
        (1.0, 1.0, 1.0, 8192, 40.0),
        (1.0, 2.0, 4.0, 8192, 40.0),
        (2.0, 3.0, 25.0, 8192, 20.0),
        (1.0, 5.0, 100.0, 16384, 12.0),
        (1.0, 10.0, 1e6, 65536, 8.0),
    ]

    @pytest.mark.parametrize("a,b,B,n,T", BATTERY)
    def test_real_vs_fourier(self, a, b, B, n, T):
        f = sech_field(Grid1D(n, T), a, b)
        d_r = d_product_real(f, B)
        d_f = d_product_fourier(f, B)
        assert d_r == pytest.approx(d_f, rel=1e-7)

    @pytest.mark.parametrize("a,b,B,n,T", BATTERY)
    def test_grid_vs_fourier(self, a, b, B, n, T):
        f = sech_field(Grid1D(n, T), a, b)
        assert d_product_grid(f, B) == pytest.approx(
            d_product_fourier(f, B), rel=1e-7)

    def test_against_analytic_transform_oracle(self):
        f = sech_field(Grid1D(4096, 40.0), 1.0, 2.0)
        ref = oracles.d_product_sech_quad(1.0, 2.0, 7.0)
        val, err = coulomb_D_product(f, 7.0)
        assert val == pytest.approx(ref, rel=1e-8)
        assert err < 1e-8 * abs(val) + 1e-12

    @pytest.mark.parametrize("lnB, real, fourier", [
        (6.0, 1.5545543259854213, 1.5545543259854218),
        (20.0, 14.82310190214459, 14.823101902144595),
        (30.0, 33.72098922726687, 33.72098922726688)])
    def test_paths_pinned_on_trial_state(self, lnB, real, fourier):
        # each path on its own, so that a hot-path change cannot move one
        # behind the other's back; the sweep pins hold only their average
        f = trial_state(np.exp(lnB)).f
        assert d_product_real(f, np.exp(lnB)) == pytest.approx(
            real, rel=2e-15, abs=0.0)
        assert d_product_fourier(f, np.exp(lnB)) == pytest.approx(
            fourier, rel=2e-15, abs=0.0)

    def test_grid_guard_raises(self):
        f = sech_field(Grid1D(4096, 40.0), 1.0, 1.0)  # h ~ 0.0195
        with pytest.raises(ResolutionError):
            d_product_grid(f, 1e8)

    def test_unresolved_density_raises(self):
        # a width-0.3 sech sampled at h = 0.3125: the two paths part by
        # 1.9e-6 of D, far above the 1e-9 gate
        g = Grid1D(64, 10.0)
        f = Field1D(g, 1.0 / np.cosh(g.points() / 0.3))
        gap = abs(d_product_real(f, 1e4) - d_product_fourier(f, 1e4))
        assert gap > 1e-6 * d_product_real(f, 1e4)
        with pytest.raises(ResolutionError, match="Coulomb paths disagree"):
            coulomb_D_product(f, 1e4)

    def test_zero_field(self, grid):
        f = Field1D(grid, np.zeros(grid.n))
        val, err = coulomb_D_product(f, 10.0)
        assert val == 0.0

    def test_local_limit_trend(self, f11):
        # D/quartic grows with slope 1/2 in ln B across decades
        ratios = {}
        for B in (1e4, 1e8, 1e12):
            ratios[B] = d_product_real(f11, B) / quartic(f11)
        s1 = (ratios[1e8] - ratios[1e4]) / np.log(1e4)
        s2 = (ratios[1e12] - ratios[1e8]) / np.log(1e4)
        assert s1 == pytest.approx(0.5, abs=5e-3)
        assert s2 == pytest.approx(0.5, abs=5e-3)
        assert ratios[1e4] < ratios[1e8] < ratios[1e12]


class TestMainCoefficient:
    def test_values(self):
        assert _main_coefficient(np.exp(4.0)) == pytest.approx(2 - np.log(4), rel=1e-12)
        assert _main_coefficient(np.exp(np.e)) == pytest.approx(np.e / 2 - 1, rel=1e-12)

    def test_monotone_from_e3(self):
        Bs = np.exp(np.linspace(3.0, 30.0, 60))
        vals = [_main_coefficient(B) for B in Bs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            _main_coefficient(np.e)


class TestRemainderBound:
    def test_flat_limit_is_half_log(self):
        # nearly flat unit-mass field: kinetic ~ 0, bound ~ ln(B)/2
        g = Grid1D(8192, 400.0)
        t = g.points()
        f = Field1D(g, (np.pi * 50.0 ** 2) ** -0.25 * np.exp(-t * t / (2 * 50.0 ** 2)))
        B = np.exp(10.0)
        assert mass(f) == pytest.approx(1.0, rel=1e-10)
        assert _smooth_remainder_bound(f, B) == pytest.approx(5.0, abs=1e-2)

    def test_plugin_value(self):
        B = np.exp(10.0)
        f = sech_field(Grid1D(8192, 20.0), 1.0, np.log(B) / 2.0)
        lnB = np.log(B)
        kin = kinetic(f)
        expected = lnB / 2 + 4 / np.sqrt(lnB) * kin ** 0.75
        assert _smooth_remainder_bound(f, B) == pytest.approx(expected, rel=1e-12)
        assert kin == pytest.approx(lnB ** 2 / 48.0, rel=1e-9)

    def test_monotone_in_kinetic(self, grid):
        B = np.exp(8.0)
        narrow = sech_field(grid, 1.0, 4.0)
        wide = sech_field(grid, 1.0, 1.0)
        assert kinetic(narrow) > kinetic(wide)
        assert _smooth_remainder_bound(narrow, B) > _smooth_remainder_bound(wide, B)


class TestDecomposition:
    @pytest.mark.parametrize("lnB", [6.0, 10.0])
    def test_closure_and_bound(self, lnB):
        B = np.exp(lnB)
        f = sech_field(Grid1D(8192, 30.0), 1.0, lnB / 2.0)
        ledger = decompose(f, B)
        assert abs(ledger.closure_defect()) < 1e-12
        assert ledger.r1_within_bound()
        assert np.isfinite(ledger.d_total)

    def test_matches_independent_oracle(self):
        lnB = 6.0
        B = np.exp(lnB)
        f = sech_field(Grid1D(8192, 30.0), 1.0, lnB / 2.0)
        ledger = decompose(f, B)
        assert ledger.d_total == pytest.approx(
            oracles.d_product_sech_quad(1.0, lnB / 2.0, B), rel=1e-8)

    def test_zero_field_remainder(self, grid):
        f = Field1D(grid, np.zeros(grid.n))
        assert decompose(f, np.exp(6.0)).r2 == 0.0

    @pytest.mark.parametrize("lnB", [6.0, 8.0, 10.0, 12.0])
    def test_bound_family(self, lnB):
        B = np.exp(lnB)
        for b in (1.0, lnB / 2.0, lnB):
            f = sech_field(Grid1D(8192, max(40.0 / b, 6.0)), 1.0, b)
            ledger = decompose(f, B)
            assert ledger.r1_within_bound()

    def test_projected_shape_check(self):
        # kernel remainder obeys r2 <= C m^{3/2} kin^{1/2} with stable C
        ratios = []
        for lnB in (6.0, 8.0, 10.0, 12.0):
            B = np.exp(lnB)
            f = sech_field(Grid1D(8192, 30.0), 1.0, lnB / 2.0)
            r2 = decompose(f, B).r2
            ratios.append(r2 / (mass(f) ** 1.5 * np.sqrt(kinetic(f))))
        assert max(ratios) < 1.0
        assert max(ratios) / min(ratios) < 2.0

    def test_kernel_coefficient_positive_and_stable(self):
        vals = [_kernel_remainder_coefficient(np.exp(x)) for x in (6.0, 10.0, 14.0)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))  # slowly decreasing


class TestQuadraticFormPositivity:
    def test_cross_term_dominated(self):
        # D(rho1,rho2)+D(rho2,rho1) <= D(rho1,rho1)+D(rho2,rho2) on Gaussian
        # longitudinal pairs sharing the transverse Gaussian (oracle route)
        rng = np.random.default_rng(23)
        B = 10.0
        for _ in range(5):
            c1, c2 = rng.uniform(-2, 2, 2)
            s1, s2 = rng.uniform(0.5, 2.0, 2)
            cross = 2 * oracles.d_bilinear_gaussian_quad(c1, s1, c2, s2, B)
            diag = (oracles.d_bilinear_gaussian_quad(c1, s1, c1, s1, B)
                    + oracles.d_bilinear_gaussian_quad(c2, s2, c2, s2, B))
            assert cross <= diag + 1e-10


class TestOffdiagBound:
    def test_trivial_when_no_excited_part(self, f11):
        passed, margin, lhs, rhs = offdiag_bound_check(0.5, 1.0, 0.0, f11, 1.0)
        assert passed
        # reduces to D <= (1+3eps+2eps^2) D
        assert rhs == pytest.approx((1 + 1.5 + 0.5) * lhs, rel=1e-8)

    def test_example_mixture(self, f11):
        c = 1.0 / np.sqrt(2.0)
        passed, margin, lhs, rhs = offdiag_bound_check(0.5, c, c, f11, 1.0)
        assert passed and margin > 0

    def test_orthogonality_of_levels(self):
        # the two radial amplitudes are orthogonal: the excited level carries
        # no ground-level component
        from scipy import integrate
        B = 1.0
        g = ground_radial(B)
        psi1 = first_excited_radial(B)
        val, _ = integrate.quad(
            lambda r: g(np.array([r]))[0] * psi1(np.array([r]))[0] * 2 * np.pi * r,
            0, np.inf)
        assert abs(val) < 1e-8

    def test_eps_validation(self, f11):
        with pytest.raises(ParameterError):
            offdiag_bound_check(0.0, 1.0, 0.0, f11, 1.0)
        with pytest.raises(ParameterError):
            offdiag_bound_check(0.5, 1.0, 0.5, f11, 1.0)
