import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st

import magpolaron
from magpolaron import oned
from magpolaron import (ConvergenceError, DomainTooSmallError, Field1D, Grid1D,
                        InvalidFieldError, OneDProblem, ParameterError,
                        PhysParams, SHARP_GN_Q4, WeightedProblem, centroid,
                        certify_projected, closed_form_energy,
                        closed_form_minimizer, distance_to_profile, gn_ratio,
                        kinetic, mass, pekar_minimize, quartic, solve_numeric,
                        solve_weighted)

from conftest import bump_field, sech_field
from lemmas import gn_gap, sharp_gn_constant
import oracles


class TestClosedForm:
    def test_center_value(self, grid):
        f = closed_form_minimizer(OneDProblem(1.0, 1.0), grid)
        assert f.values[grid.n // 2] == pytest.approx(0.5, rel=1e-12)

    def test_mass_matches_quadrature(self, grid):
        f = closed_form_minimizer(OneDProblem(2.0, 3.0), grid)
        assert mass(f) == pytest.approx(oracles.quad_mass(2, 3), abs=1e-9)

    def test_small_coupling_peak_shrinks(self):
        peaks = []
        for b, T in ((0.5, 160.0), (0.1, 800.0)):
            g = Grid1D(8192, T)
            f = closed_form_minimizer(OneDProblem(1.0, b), g)
            peak = float(np.max(f.values))
            assert peak == pytest.approx(np.sqrt(b) / 2.0, rel=1e-12)
            peaks.append(peak)
        assert peaks[1] < peaks[0]

    def test_domain_guard(self):
        with pytest.raises(DomainTooSmallError):
            closed_form_minimizer(OneDProblem(1.0, 0.5), Grid1D(4096, 40.0))

    def test_energy_values(self):
        assert closed_form_energy(OneDProblem(1, 1)) == pytest.approx(-1 / 12)
        assert closed_form_energy(OneDProblem(2, 3)) == pytest.approx(-6.0)
        assert closed_form_energy(OneDProblem(5, 0)) == 0.0

    def test_problem_validation(self):
        with pytest.raises(ParameterError):
            OneDProblem(0.0, 1.0)
        with pytest.raises(ParameterError):
            OneDProblem(1.0, -1.0)

    @pytest.mark.parametrize("a,b", [(1.0, np.nan), (1.0, np.inf),
                                     (np.inf, 1.0), (np.nan, 1.0),
                                     (1.0, 1e160), (1e120, 1.0),
                                     (1e-100, 1e200)])
    def test_nonfinite_or_overflowing_problem_refused(self, a, b):
        # the closed-form energy -b^2 a^3/12 must be a finite double
        with pytest.raises(ParameterError):
            OneDProblem(a, b)


class TestSolveNumeric:
    def test_unit_problem(self):
        sol = solve_numeric(OneDProblem(1.0, 1.0), 1e-8)
        assert sol.energy == pytest.approx(-1 / 12, abs=1e-6)
        assert mass(sol.minimizer) == pytest.approx(1.0, abs=1e-8)
        assert distance_to_profile(sol.minimizer, OneDProblem(1, 1)) < 1e-4

    def test_strong_coupling(self):
        sol = solve_numeric(OneDProblem(1.0, 10.0), 1e-10)
        assert sol.energy == pytest.approx(-100 / 12, rel=1e-4)

    def test_determinism_of_minimum(self, grid):
        # the unit problem's flow (lam = 1/(2 pi), flat weight) from two
        # random starts, passed as the flow's own f0, ends at one minimum
        rng = np.random.default_rng(5)
        energies = []
        for _ in range(2):
            init = np.abs(bump_field(grid, rng).values) + 1e-3
            _, energy, _, _ = oned._minimize_on_sphere(
                grid, 1.0, np.ones(grid.n // 2 + 1), 1.0 / (2 * np.pi), 1e-10,
                init)
            energies.append(energy)
        assert energies[0] == pytest.approx(energies[1], abs=1e-8)

    def test_degenerate_coupling(self):
        sol = solve_numeric(OneDProblem(1.0, 0.0), 1e-8)
        assert sol.degenerate
        assert sol.energy == 0.0
        assert sol.minimizer is None

    def test_energy_nonpositive_with_coupling(self):
        sol = solve_numeric(OneDProblem(1.0, 2.0), 1e-9)
        assert sol.energy <= 0.0

    def test_convergence_error_reports(self, monkeypatch):
        monkeypatch.setattr(oned, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            solve_numeric(OneDProblem(1.0, 1.0), 1e-14)
        assert err.value.residual is not None
        assert err.value.iterations == 2

    def test_exhausted_line_search_exit(self, grid):
        # NaN weights make every trial energy NaN, so the first line search
        # runs out; the flow stops there and reports that iteration
        weights = np.full(grid.n // 2 + 1, np.nan)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConvergenceError) as err:
            oned._minimize_on_sphere(grid, 1.0, weights, 1.0, 1e-8, None)
        assert err.value.iterations == 1

    @pytest.mark.parametrize("b", [1e-6, 0.1, 0.5])
    def test_weak_coupling_matches_closed_form(self, b):
        # the minimizer, of width ~1/b, is solved at unit width and mapped
        # back onto the grid (SPECTRAL_N, 40/mu), mu = b/4
        p = OneDProblem(1.0, b)
        sol = solve_numeric(p, 1e-10)
        assert sol.energy == pytest.approx(closed_form_energy(p), rel=1e-9)
        assert sol.minimizer.grid.half_width == pytest.approx(160.0 / b,
                                                              rel=1e-15)
        assert distance_to_profile(sol.minimizer, p) < 1e-4

    @pytest.mark.parametrize("a, b", [(100.0, 1.0), (1e-5, 1e10),
                                      (1e-150, 1e150), (2.0, 3.0)])
    def test_every_mass_is_the_unit_problem(self, a, b):
        # f(t) = sqrt(a mu) q(mu t), mu = a b/4, maps every (a, b) to one
        # unit-mass, unit-width problem: same iterations and relative error
        unit = solve_numeric(OneDProblem(1.0, 4.0), 1e-10)
        p = OneDProblem(a, b)
        sol = solve_numeric(p, 1e-10)
        assert sol.iterations == unit.iterations
        assert sol.energy / closed_form_energy(p) == pytest.approx(
            unit.energy / (-4.0 / 3.0), rel=1e-14)
        assert mass(sol.minimizer) == pytest.approx(a, rel=1e-12)

    def test_coupling_too_weak_for_a_double_grid_refused(self):
        # the returned grid's span 2 * 40 / mu must be a finite double
        with pytest.raises(ParameterError):
            solve_numeric(OneDProblem(1.0, 1e-306), 1e-10)

    @pytest.mark.parametrize("b", [1e-3, 1.0, 10.0])
    def test_residual_in_problem_units(self, b):
        # f(t) = sqrt(mu) q(mu t) gives ||r_f|| = mu^2 ||r_q||, and every
        # b at a = 1 runs the one unit problem q of b = 4
        unit = solve_numeric(OneDProblem(1.0, 4.0), 1e-10).gradient_residual
        sol = solve_numeric(OneDProblem(1.0, b), 1e-10)
        assert sol.gradient_residual / unit == pytest.approx((b / 4) ** 2,
                                                             rel=1e-12)

    def test_rescaled_minimizer_grid(self):
        sol = solve_numeric(OneDProblem(1.0, 10.0), 1e-10)
        # internal substitution maps the output onto half_width / (a b / 4)
        assert sol.minimizer.grid.half_width == pytest.approx(16.0, rel=1e-15)
        assert mass(sol.minimizer) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 10.0), (2.0, 1.0),
                                     (0.5, 2.0)])
    def test_energy_is_functional_of_minimizer(self, a, b):
        # the flow's energy -h sum f (f'' + W f / 2) is, by Parseval, the
        # functional itself, evaluated on the returned minimizer
        sol = solve_numeric(OneDProblem(a, b), 1e-10)
        m = sol.minimizer
        assert sol.energy == pytest.approx(kinetic(m) - b * quartic(m),
                                           rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 3.0), (0.5, 2.0)])
    def test_scaling_law(self, a, b):
        ref = solve_numeric(OneDProblem(1.0, 1.0), 1e-10).energy
        sol = solve_numeric(OneDProblem(a, b), 1e-10)
        assert sol.energy == pytest.approx(a ** 3 * b ** 2 * ref, rel=1e-6)


class TestSharpRatio:
    def test_extremizer_value(self, f11):
        assert gn_ratio(f11) == pytest.approx(SHARP_GN_Q4, abs=1e-6)

    def test_scale_invariance(self):
        r = []
        for (b, T) in ((2.0, 40.0), (8.0, 10.0)):
            f = sech_field(Grid1D(4096, T), 1.0, b)
            r.append(gn_ratio(f))
        assert r[0] == pytest.approx(r[1], rel=1e-10)

    def test_gaussian_exceeds_sharp(self, grid):
        t = grid.points()
        f = Field1D(grid, np.pi ** -0.25 * np.exp(-t * t / 2.0))
        expected = oracles.quad_gn_ratio(
            lambda s: np.pi ** -0.25 * np.exp(-s * s / 2.0))
        assert gn_ratio(f) == pytest.approx(expected, rel=1e-5)
        assert gn_ratio(f) == pytest.approx(np.pi ** 0.125, rel=1e-8)
        assert gn_ratio(f) > SHARP_GN_Q4

    def test_zero_field_rejected(self, grid):
        with pytest.raises(InvalidFieldError):
            gn_ratio(Field1D(grid, np.zeros(grid.n)))

    @given(seed=st.integers(0, 10_000))
    def test_ratio_floor_property(self, grid, seed):
        f = bump_field(grid, np.random.default_rng(seed))
        assert gn_ratio(f) >= SHARP_GN_Q4 - 1e-9

    def test_sharp_constant_q4(self):
        assert sharp_gn_constant(4.0) == pytest.approx(SHARP_GN_Q4, rel=1e-12)

    @pytest.mark.parametrize("q", [3.0, 6.0])
    def test_sharp_constant_matches_extremizer_quadrature(self, q):
        p = 2.0 / (q - 2.0)

        def extremal(t):
            return np.cosh(np.clip(t, -300, 300)) ** -p

        from scipy import integrate
        m, _ = integrate.quad(lambda t: extremal(t) ** 2, -np.inf, np.inf)
        nq, _ = integrate.quad(lambda t: extremal(t) ** q, -np.inf, np.inf)
        kin, _ = integrate.quad(
            lambda t: (p * np.tanh(t) * extremal(t)) ** 2, -np.inf, np.inf)
        theta = 0.5 - 1.0 / q
        ratio = kin ** (theta / 2) * m ** ((1 - theta) / 2) * nq ** (-1.0 / q)
        assert sharp_gn_constant(q) == pytest.approx(ratio, rel=1e-9)


class TestGap:
    def test_equality_at_minimizer(self, grid):
        for b in (1.0, 4.0):
            f = sech_field(grid, 1.0, b)
            assert abs(gn_gap(f, b)) < 1e-6

    def test_gaussian_positive(self, grid):
        t = grid.points()
        f = Field1D(grid, np.pi ** -0.25 * np.exp(-t * t / 2.0))
        assert gn_gap(f, 1.0) > 0.0

    def test_zero_coupling_is_kinetic(self, f11):
        assert gn_gap(f11, 0.0) == pytest.approx(kinetic(f11), rel=1e-12)

    @given(seed=st.integers(0, 10_000), b=st.floats(0.0, 50.0))
    def test_gap_floor_property(self, grid, seed, b):
        f = bump_field(grid, np.random.default_rng(seed))
        assert gn_gap(f, b) >= -1e-6


class TestSolveWeighted:
    def test_constant_weight_matches_closed_form(self):
        kappa1, lam, w0 = 0.8, 0.05, 3.0
        wp = WeightedProblem(kappa1, lam,
                             lambda k: np.full(np.shape(k), w0), 1e9)
        sol = solve_weighted(wp)
        b_tilde = 2 * np.pi * lam * w0 / kappa1
        assert sol.energy == pytest.approx(-(2 * np.pi * lam * w0) ** 2
                                           / (12 * kappa1), rel=1e-8)
        ref = solve_numeric(OneDProblem(1.0, b_tilde), 1e-11)
        assert sol.energy == pytest.approx(kappa1 * ref.energy, rel=1e-6)

    def test_zero_weight_degenerate(self):
        wp = WeightedProblem(1.0, 1.0, lambda k: np.zeros(np.shape(k)), 10.0)
        sol = solve_weighted(wp)
        assert sol.degenerate and sol.energy == 0.0

    def test_monotone_in_prefactor(self):
        energies = []
        for lam in (0.02, 0.04, 0.08):
            wp = WeightedProblem(1.0, lam,
                                 lambda k: 1.0 / (1.0 + np.asarray(k) ** 2) + 1.0,
                                 50.0)
            energies.append(solve_weighted(wp).energy)
        assert energies[0] >= energies[1] >= energies[2]

    def test_validation(self):
        with pytest.raises(ParameterError):
            WeightedProblem(0.0, 1.0, lambda k: np.ones(np.shape(k)), 1.0)
        with pytest.raises(ParameterError):
            WeightedProblem(1.0, -1.0, lambda k: np.ones(np.shape(k)), 1.0)

    def test_weak_constant_weight_matches_closed_form(self):
        # b_tilde = 2 pi lam w0 / kappa1 ~ 0.063: solved at unit width too
        kappa1, lam, w0 = 1.0, 0.01, 1.0
        wp = WeightedProblem(kappa1, lam,
                             lambda k: np.full(np.shape(k), w0), 1e9)
        sol = solve_weighted(wp)
        assert sol.energy == pytest.approx(-(2 * np.pi * lam * w0) ** 2
                                           / (12 * kappa1), rel=1e-8)

    def test_weight_must_be_finite_nonnegative(self):
        wp = WeightedProblem(1.0, 1.0, lambda k: -np.ones(np.shape(k)), 5.0)
        with pytest.raises(ParameterError):
            solve_weighted(wp)


class TestFlowStaysCentred:
    """The sphere flow has no translation reset: every start is even on the
    periodic grid, f(t_j) = f(t_{n-j}), and every weight depends on |k|
    only, so the minimizer keeps its density centroid at t = 0."""

    @pytest.fixture
    def flows(self, monkeypatch):
        runs = []
        flow = oned._minimize_on_sphere

        def recorded(grid, akin, weights, lam, tol, f0):
            out = flow(grid, akin, weights, lam, tol, f0)
            start = np.exp(-grid.points() ** 2 / 2.0) if f0 is None else f0
            runs.append((grid, np.asarray(start), out[0]))
            return out

        monkeypatch.setattr(oned, "_minimize_on_sphere", recorded)
        return runs

    @staticmethod
    def check(runs):
        assert runs
        for grid, start, values in runs:
            np.testing.assert_allclose(start[1:], start[:0:-1], rtol=0,
                                       atol=1e-15 * np.max(np.abs(start)))
            assert abs(centroid(Field1D(grid, values))) <= 1e-12 * grid.spacing

    @pytest.mark.parametrize("lnB", [0.5, 10.0, 30.0, 700.0])
    @pytest.mark.parametrize("alpha", [1.0, 5.0])
    def test_pekar_minimize(self, flows, alpha, lnB):
        pekar_minimize(PhysParams(np.exp(lnB), alpha))
        self.check(flows)

    def test_solve_numeric(self, flows):
        solve_numeric(OneDProblem(1.0, 1.0), 1e-8)
        self.check(flows)

    @pytest.mark.parametrize("alpha, lnB", [(0.5, 8.0), (2.0, 8.0),
                                            (1.0, 30.0)])
    def test_certify_projected(self, flows, alpha, lnB):
        certify_projected(np.exp(lnB), alpha)
        self.check(flows)


class TestSolverSignatures:
    def test_solvers_own_their_grid(self):
        # oned decides the grid and solve_weighted's tolerance; no caller
        # passes either
        assert list(inspect.signature(solve_numeric).parameters) == ["p", "tol"]
        assert list(inspect.signature(solve_weighted).parameters) == ["wp"]
        assert not hasattr(magpolaron, "standard_grid")
