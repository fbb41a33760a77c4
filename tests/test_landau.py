import numpy as np
import pytest
from scipy import special as sc

from magpolaron import (ParameterError, effective_potential,
                        effective_potential_fourier)
from magpolaron.special import exp_scaled_e1

from lemmas import (RadialTransverseDensity, effective_potential_general,
                    ground_radial, lll_projector_kernel,
                    projected_phase_factor, twisted_kernel,
                    twisted_norm_bound)
import oracles


def _nodes(B, order=96, inner=None):
    return oracles.gauss2d_nodes(12.0 / np.sqrt(B), order, inner=inner)


def _norm_nodes(B):
    # 72 points per axis on the standard [-12,12]/sqrt(B) oracle box:
    # validated to ~1e-14 on the Gaussian twisted-norm identity
    return oracles.gauss2d_nodes(12.0 / np.sqrt(B), 36)


class TestProjectorKernel:
    def test_diagonal(self):
        for B in (1.0, 7.5):
            val = lll_projector_kernel(np.array([0.3, -1.0]),
                                       np.array([0.3, -1.0]), B)
            assert val == pytest.approx(B / (2 * np.pi), rel=1e-14)

    def test_hermiticity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            assert lll_projector_kernel(x, y, 1.0) == pytest.approx(
                np.conj(lll_projector_kernel(y, x, 1.0)), rel=1e-14)

    def test_idempotency_by_quadrature(self):
        rng = np.random.default_rng(4)
        pts, w = _nodes(1.0)
        for _ in range(3):
            x, y = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
            lhs = np.sum(w * lll_projector_kernel(x[None, :], pts, 1.0)
                         * lll_projector_kernel(pts, y[None, :], 1.0))
            rhs = lll_projector_kernel(x, y, 1.0)
            assert abs(lhs - rhs) < 1e-8


class TestPhaseFactor:
    def test_zero_momentum(self):
        assert projected_phase_factor(np.zeros(2), 3.0) == 1.0

    def test_exponent_scale(self):
        B = 2.5
        k = np.array([np.sqrt(2 * B), 0.0])
        assert projected_phase_factor(k, B) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_gaussian_expectation_by_quadrature(self):
        B, k = 4.0, np.array([1.0, 1.0])
        pts, w = _nodes(B)
        g = ground_radial(B)(np.linalg.norm(pts, axis=-1))
        val = np.sum(w * g * g * np.exp(1j * (pts @ k)))
        assert val.real == pytest.approx(projected_phase_factor(k, B), abs=1e-8)
        assert abs(val.imag) < 1e-10

    def test_projection_identity_by_quadrature(self):
        # sandwiching a plane wave between projectors leaves the phase
        # factor times the twisted kernel
        B = 1.0
        k = np.array([0.7, -0.4])
        pts, w = _nodes(B)
        rng = np.random.default_rng(9)
        for _ in range(3):
            z, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            lhs = np.sum(w * lll_projector_kernel(z[None, :], pts, B)
                         * np.exp(1j * (pts @ k))
                         * lll_projector_kernel(pts, y[None, :], B))
            rhs = projected_phase_factor(k, B) * twisted_kernel(z, y, k, B)
            assert abs(lhs - rhs) < 1e-8


def _lll_state(pts, B, coeffs):
    zc = pts[:, 0] + 1j * pts[:, 1]
    out = np.zeros(len(pts), dtype=complex)
    for m, c in enumerate(coeffs):
        norm = np.sqrt(B / (2 * np.pi) / sc.factorial(m) * (B / 2) ** m)
        out = out + c * norm * zc ** m * np.exp(-B * np.abs(zc) ** 2 / 4)
    return out


@pytest.fixture(scope="module")
def twisted_margins():
    """Margins of oracles.twisted_norm_check at B = 1 for each k = (kx, 0)
    the tests use, over the ground state and five random lowest-level states
    (seed 17); the O(N^2) kernel is applied once per k."""
    B = 1.0
    pts, w = _norm_nodes(B)
    states = [ground_radial(B)(np.linalg.norm(pts, axis=-1))]
    rng = np.random.default_rng(17)
    for _ in range(5):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(_lll_state(pts, B, c))
    return {kx: oracles.twisted_norm_check(np.array([kx, 0.0]), B, states,
                                           pts, w)[1]
            for kx in (0.0, 1.0, 3.0)}


class TestTwistedNorm:
    def test_ground_state_zero_momentum(self, twisted_margins):
        margin = twisted_margins[0.0][0]
        assert margin >= 0
        # at zero momentum the twisted operator is the projector itself
        assert margin == pytest.approx(2.0 - 1.0, abs=1e-8)

    @pytest.mark.parametrize("kx", [1.0, 3.0])
    def test_ground_state_bound(self, twisted_margins, kx):
        margin = twisted_margins[kx][0]
        assert margin > 0
        # the Gaussian saturates half the bound exactly
        measured = twisted_norm_bound(np.array([kx, 0.0]), 1.0) - margin
        assert measured == pytest.approx(np.exp(kx * kx / 4.0), rel=1e-6)

    def test_random_lowest_level_states(self, twisted_margins):
        margins = twisted_margins[3.0][1:]
        assert all(m > 0 for m in margins)


class TestEffectivePotential:
    def test_origin_value(self):
        assert effective_potential(0.0, 1.0) == pytest.approx(
            np.sqrt(np.pi) / 2.0, rel=1e-12)
        assert effective_potential(0.0, 1.0) == pytest.approx(
            oracles.effective_potential_quad2d(0.0, 1.0), rel=1e-7)

    def test_coulomb_tail(self):
        assert 50.0 * effective_potential(50.0, 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_scale_law(self):
        lhs = effective_potential(0.3, 100.0)
        rhs = 10.0 * effective_potential(3.0, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_even_decreasing_and_below_coulomb(self):
        z = np.linspace(0.0, 12.0, 200)
        for B in (1.0, 50.0):
            v = effective_potential(z, B)
            assert np.all(v > 0)
            assert np.all(np.diff(v) < 0)
            assert np.allclose(effective_potential(-z, B), v)
            assert np.all(v[1:] <= 1.0 / z[1:] + 1e-14)

    def test_reduction_identity_4d(self):
        # difference-density reduction of the double transverse integral;
        # coarse 4D tensor quadrature, so only a structural tolerance
        res = oracles.transverse_reduction_residual(0.7, 1.0, n1d=32)
        assert abs(res) < 1e-3


class TestEffectivePotentialFourier:
    def test_unit_argument(self):
        val = effective_potential_fourier(1.0, 1.0)
        assert val == pytest.approx(np.pi * np.e * sc.exp1(1.0), rel=1e-12)
        assert val == pytest.approx(oracles.u_weight_quad(1.0, 1.0), rel=1e-9)

    def test_small_argument_expansion(self):
        B, k = 10.0, 1e-4
        val = effective_potential_fourier(k, B)
        series = np.pi * (np.log(B / k ** 2) - np.euler_gamma)
        assert val == pytest.approx(series, rel=1e-7)

    def test_radial_quadrature_match(self):
        for (k, B) in ((0.3, 1.0), (2.0, 4.0), (10.0, 1e6)):
            assert effective_potential_fourier(k, B) == pytest.approx(
                oracles.u_weight_quad(k, B), rel=1e-9)


class TestSpecialFunctionAccuracy:
    def test_scaled_e1_against_quadrature(self):
        xs = np.geomspace(1e-3, 2e3, 20)
        for x in xs:
            assert exp_scaled_e1(x) == pytest.approx(
                oracles.exp_scaled_e1_quad(x), rel=1e-11)

    def test_erfcx_against_quadrature(self):
        from magpolaron.special import erfcx
        for x in np.linspace(0.0, 8.0, 20):
            assert erfcx(x) == pytest.approx(oracles.erfcx_quad(x), rel=1e-12)


class TestGeneralPotential:
    def test_reproduces_gaussian_closed_form(self):
        B = 2.0
        rho = RadialTransverseDensity.from_profile(
            B, lambda r: ground_radial(B)(r) ** 2)
        for z in (0.0, 0.5, 2.0):
            assert effective_potential_general(rho, z) == pytest.approx(
                effective_potential(z, B), rel=1e-6)

    def test_point_mass_limit(self):
        B = 1e6
        rho = RadialTransverseDensity.from_profile(
            B, lambda r: ground_radial(B)(r) ** 2)
        assert effective_potential_general(rho, 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_even_in_offset(self):
        B = 3.0
        rho = RadialTransverseDensity.from_profile(
            B, lambda r: ground_radial(B)(r) ** 2)
        vals = effective_potential_general(rho, np.array([-1.3, 1.3]))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)


class TestTransverseKinetic:
    def test_validation(self):
        with pytest.raises(ParameterError):
            effective_potential(1.0, -1.0)
