import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st

import magpolaron
from magpolaron import certificate, oned, pekar
from magpolaron import (ConvergenceError, Field1D, Grid1D,
                        InvalidFieldError, OneDProblem, ParameterError,
                        PhysParams, SHARP_GN_Q4,
                        certify_projected, closed_form_energy,
                        closed_form_minimizer, distance_to_profile, gn_ratio,
                        kinetic, mass, pekar_minimize, quartic, solve_numeric,
                        solve_weighted)

from conftest import bump_field, sech_field
from lemmas import gn_gap, sharp_gn_constant
import oracles


class TestClosedForm:
    def test_center_value(self):
        f = closed_form_minimizer(OneDProblem(1.0, 1.0))
        assert f.values[f.grid.n // 2] == pytest.approx(0.5, rel=1e-12)

    def test_mass_matches_quadrature(self):
        f = closed_form_minimizer(OneDProblem(2.0, 3.0))
        assert mass(f) == pytest.approx(oracles.quad_mass(2, 3), abs=1e-9)

    def test_small_coupling_peak_shrinks(self):
        peaks = []
        for b in (0.5, 0.1):
            f = closed_form_minimizer(OneDProblem(1.0, b))
            peak = float(np.max(f.values))
            assert peak == pytest.approx(np.sqrt(b) / 2.0, rel=1e-12)
            assert f.boundary_decayed()
            peaks.append(peak)
        assert peaks[1] < peaks[0]

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 2.0), (3.0, 0.5),
                                      (1e-3, 1e-3), (100.0, 1.0)])
    def test_on_the_grid_solve_numeric_returns(self, a, b):
        # the profile and the flow's minimizer share one grid, (n, 40/mu)
        # at mu = a b/4, so T a b = 160 holds the sech by construction
        p = OneDProblem(a, b)
        f = closed_form_minimizer(p)
        assert f.grid == solve_numeric(p, 1e-10).minimizer.grid
        assert f.grid.half_width * a * b == pytest.approx(160.0, rel=1e-15)
        assert f.boundary_decayed()

    def test_distance_refuses_another_grid(self):
        # equal n on another half-width would compare samples at other t
        p = OneDProblem(1.0, 1.0)
        f = closed_form_minimizer(p)
        assert distance_to_profile(f, p) == 0.0
        other = Field1D(Grid1D(f.grid.n, 2.0 * f.grid.half_width), f.values)
        with pytest.raises(InvalidFieldError, match="grid"):
            distance_to_profile(other, p)

    def test_energy_values(self):
        assert closed_form_energy(OneDProblem(1, 1)) == pytest.approx(-1 / 12)
        assert closed_form_energy(OneDProblem(2, 3)) == pytest.approx(-6.0)
        assert closed_form_energy(OneDProblem(5, 0)) == 0.0
        # b^2 = 1e400 overflows and a^3 = 1e-300 is sub-normal on their own;
        # the energy -1e100/12 is a finite double
        assert closed_form_energy(OneDProblem(1e-100, 1e200)) == \
            pytest.approx(-1e100 / 12.0, rel=1e-15)

    def test_problem_validation(self):
        with pytest.raises(ParameterError):
            OneDProblem(0.0, 1.0)
        with pytest.raises(ParameterError):
            OneDProblem(1.0, -1.0)

    @pytest.mark.parametrize("a,b", [(1.0, np.nan), (1.0, np.inf),
                                     (np.inf, 1.0), (np.nan, 1.0),
                                     (1.0, 1e160), (1e120, 1.0),
                                     (1e-100, 1e305)])
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

    def test_determinism_of_minimum(self):
        # the unit problem's flow (lam = 1/(2 pi), flat weight) from two
        # random starts, passed as the flow's own f0, ends at one minimum
        rng = np.random.default_rng(5)
        grid = oned._GRID
        energies = []
        for _ in range(2):
            init = np.abs(bump_field(grid, rng).values) + 1e-3
            _, energy, _, _ = oned._minimize_on_sphere(
                1.0, np.ones(grid.n // 2 + 1), 1.0 / (2 * np.pi), 1e-10, init)
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

    def test_exhausted_line_search_exit(self):
        # NaN weights make every trial energy NaN, so the first line search
        # runs out; the flow stops there and reports that iteration
        weights = np.full(oned._GRID.n // 2 + 1, np.nan)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConvergenceError) as err:
            oned._minimize_on_sphere(1.0, weights, 1.0, 1e-8, None)
        assert err.value.iterations == 1

    @pytest.mark.parametrize("b", [1e-6, 0.1, 0.5])
    def test_weak_coupling_matches_closed_form(self, b):
        # the minimizer, of width ~1/b, is solved at unit width and mapped
        # back onto the grid (n, 40/mu) of oned._GRID = (n, 40), mu = b/4
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
        with pytest.raises(ParameterError, match="too small for a double"):
            solve_weighted(1e-307, 1.0, _flat(1.0), 1.0, 1e-10)

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


def _flat(w0):
    """The weight w0 on every dual cell of the grid solve_weighted picks."""
    return lambda grid: np.full(grid.n // 2 + 1, w0)


def _cut_lorentzian(grid):
    """The weight 1/(1 + k^2) + 1 on grid's one-sided dual grid, cut off at
    |k| <= 50."""
    k = grid.wavenumbers()
    return (1.0 / (1.0 + k ** 2) + 1.0) * (k <= 50.0)


def _constant_weight_solve(kappa1, lam, w0):
    """solve_weighted at the weight w0 on every dual cell, at the scale
    mu = b/4 of the surrogate b = 2 pi lam w0 / kappa1."""
    mu = 2 * np.pi * lam * w0 / kappa1 / 4.0
    return solve_weighted(mu, kappa1, _flat(w0), lam, 1e-10)


class TestSolveWeighted:
    def test_constant_weight_matches_closed_form(self):
        kappa1, lam, w0 = 0.8, 0.05, 3.0
        sol = _constant_weight_solve(kappa1, lam, w0)
        b_tilde = 2 * np.pi * lam * w0 / kappa1
        assert sol.energy == pytest.approx(-(2 * np.pi * lam * w0) ** 2
                                           / (12 * kappa1), rel=1e-8)
        ref = solve_numeric(OneDProblem(1.0, b_tilde), 1e-11)
        assert sol.energy == pytest.approx(kappa1 * ref.energy, rel=1e-6)

    def test_monotone_in_prefactor(self):
        # one scale for every prefactor: the weight 1/(1 + k^2) + 1 sampled
        # on the same physical dual grid, cut off at |k| <= 50
        energies = [solve_weighted(0.25, 1.0, _cut_lorentzian, lam,
                                   1e-10).energy for lam in (0.02, 0.04, 0.08)]
        assert energies[0] >= energies[1] >= energies[2]

    @pytest.mark.parametrize("mu", [3.0 / 8, 3.0 / 4, 3.0 / 2])
    def test_one_answer_at_every_scale(self, mu):
        # the caller states the physical problem, b int f^4 at b = 3 as the
        # flat weight with lam = b/(2 pi); oned maps it to unit width at
        # whatever scale mu is given
        sol = solve_weighted(mu, 1.0, _flat(1.0), 3.0 / (2 * np.pi), 1e-10)
        assert sol.energy == pytest.approx(-9.0 / 12.0, rel=1e-9, abs=0.0)

    def test_non_flat_weight_at_two_scales(self):
        # a weight of the physical k, sampled by oned on the grid it picks;
        # at tol 1e-12 the two flows agree to ~1e-14
        energies = [solve_weighted(mu, 1.0, _cut_lorentzian, 0.08, 1e-12).energy
                    for mu in (0.25, 0.5)]
        assert energies[0] == pytest.approx(energies[1], rel=1e-13, abs=0.0)

    def test_validation(self):
        # the entry refuses a tolerance outside (0, 1) for every caller
        for tol in (0.0, 1.0, -1e-8, np.inf, np.nan):
            with pytest.raises(ParameterError, match="tol"):
                solve_weighted(1.0, 1.0, _flat(1.0), 1.0, tol)

    def test_weak_constant_weight_matches_closed_form(self):
        # b_tilde = 2 pi lam w0 / kappa1 ~ 0.063: solved at unit width too
        kappa1, lam, w0 = 1.0, 0.01, 1.0
        sol = _constant_weight_solve(kappa1, lam, w0)
        assert sol.energy == pytest.approx(-(2 * np.pi * lam * w0) ** 2
                                           / (12 * kappa1), rel=1e-8)

    def test_weight_must_be_finite_nonnegative(self):
        for bad in (-1e-300, np.nan, np.inf):
            def weight(grid):
                w = np.ones(grid.n // 2 + 1)
                w[3] = bad
                return w

            with pytest.raises(ParameterError, match="weights"):
                solve_weighted(1.0, 1.0, weight, 1.0, 1e-10)


@pytest.fixture
def flows(monkeypatch):
    """Every _minimize_on_sphere call as (grid, akin, weights, lam, f0,
    output), grid the unit-width one it runs on."""
    runs = []
    flow = oned._minimize_on_sphere

    def recorded(akin, weights, lam, tol, f0):
        out = flow(akin, weights, lam, tol, f0)
        runs.append((oned._GRID, akin, weights, lam, f0, out))
        return out

    monkeypatch.setattr(oned, "_minimize_on_sphere", recorded)
    return runs


class TestFlowStaysCentred:
    """The sphere flow has no translation reset: every start is even on the
    periodic grid, f(t_j) = f(t_{n-j}), and every weight depends on |k|
    only, so the minimizer keeps its density centroid at t = 0."""

    @staticmethod
    def check(runs):
        assert runs
        for grid, _, _, _, f0, (values, _, _, _) in runs:
            start = np.asarray(
                np.exp(-grid.points() ** 2 / 2.0) if f0 is None else f0)
            np.testing.assert_allclose(start[1:], start[:0:-1], rtol=0,
                                       atol=1e-15 * np.max(np.abs(start)))
            rho = values * values
            centroid = np.sum(grid.points() * rho) / np.sum(rho)
            assert abs(centroid) <= 1e-12 * grid.spacing

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


_FLOW_CASES = {
    "flat": lambda: solve_numeric(OneDProblem(1.0, 1.0), 1e-8),
    "certify-e8-a2": lambda: certify_projected(np.exp(8.0), 2.0),
    "certify-e20-a1": lambda: certify_projected(np.exp(20.0), 1.0),
    "sweep-e20-a1": lambda: pekar_minimize(PhysParams(np.exp(20.0), 1.0)),
    "sweep-e0.5-a5": lambda: pekar_minimize(PhysParams(np.exp(0.5), 5.0)),
}


class TestSpectralFlow:
    """The flow carries the spectrum F = rfft(f) with the samples f beside
    it; the energy and the mass it returns must be those of its field."""

    @pytest.mark.parametrize("case", list(_FLOW_CASES))
    def test_energy_is_the_real_space_energy(self, flows, case):
        _FLOW_CASES[case]()
        ((grid, akin, weights, lam, _, (f, energy, _, _)),) = flows
        h, k2 = grid.spacing, grid.wavenumbers() ** 2
        lap = akin * np.fft.irfft(-k2 * np.fft.rfft(f), grid.n)
        W = 4.0 * np.pi * lam * np.fft.irfft(weights * np.fft.rfft(f * f),
                                             grid.n)
        real_space = -h * np.sum(f * (lap + 0.5 * W * f))
        assert abs(energy - real_space) <= 1e-14 * abs(real_space)
        assert abs(h * np.sum(f * f) - 1.0) <= 1e-14

    @pytest.mark.parametrize("case", ["certify-e20-a1", "sweep-e20-a1"])
    def test_transform_budget(self, monkeypatch, case):
        # four transforms per iteration, whatever the line search does: the
        # flow potential W and rfft(W f) of the gradient, d = irfft(D) and
        # one two-row rfft of [f d, d^2], from which every trial energy of
        # the line search is closed form; + 4: the start's spectrum, its
        # density and its gradient
        flow = oned._minimize_on_sphere
        inside, transforms, iterations = [], [], []

        def counted(fft):
            def call(*args, **kwargs):
                if inside:
                    transforms.append(fft)
                return fft(*args, **kwargs)
            return call

        def scoped(*args):
            inside.append(True)
            try:
                out = flow(*args)
            finally:
                inside.clear()
            iterations.append(out[2])
            return out

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        monkeypatch.setattr(oned, "_minimize_on_sphere", scoped)
        _FLOW_CASES[case]()
        (it,) = iterations
        assert len(transforms) <= 4 * it + 4


# the production ladders: the sweep's ln B = 10, 12, ..., 30 at alpha = 1 and
# the certificate's ln B = 8, 9, ..., 30 at alpha = 0.5, 1 and 2
_SWEEP_LADDER = [float(x) for x in range(10, 31, 2)]
_CERTIFY_LADDER = [(float(x), alpha) for x in range(8, 31)
                   for alpha in (0.5, 1.0, 2.0)]


class TestFlowDepth:
    """Nonlinear CG with an exact line search converges at tol 1e-15 on both
    ladders, where an energy-monotone gradient flow ran out its 5000
    iterations on every point; the default-tol answers lie within 10 tol of
    those tight solves, in at most 0.6 times that flow's iterations (173
    on the sweep ladder, 959 on the certificate's)."""

    def test_sweep_ladder(self):
        iterations = 0
        for lnB in _SWEEP_LADDER:
            params = PhysParams(np.exp(lnB), 1.0)
            sol, bd = pekar_minimize(params)
            _, tight = pekar_minimize(params, tol=1e-15)
            assert bd.deficit == pytest.approx(tight.deficit, rel=1e-10,
                                               abs=0.0)
            iterations += sol.iterations
        assert iterations <= 0.6 * 173

    def test_certify_ladder(self, monkeypatch):
        solve, tight, iterations = certificate.solve_weighted, [], []

        def at_tol(mu, akin, weight, lam, tol, *args):
            sol = solve(mu, akin, weight, lam, 1e-15 if tight else tol, *args)
            if not tight:
                iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(certificate, "solve_weighted", at_tol)
        for lnB, alpha in _CERTIFY_LADDER:
            default = certify_projected(np.exp(lnB), alpha).I_value
            tight.append(True)
            deep = certify_projected(np.exp(lnB), alpha).I_value
            tight.clear()
            assert default == pytest.approx(deep, rel=1e-9, abs=0.0)
        assert sum(iterations) <= 0.6 * 959


class TestWorkspace:
    """Each flow call allocates its own workspace and writes every iteration
    into it; the Gaussian start, its spectrum and its density's spectrum are
    cached per grid, read-only, bit for bit what a call would compute."""

    W = np.ones(oned._GRID.n // 2 + 1)

    def flow(self, weights=W, f0=None):
        return oned._minimize_on_sphere(1.0, weights, 1.0 / (2 * np.pi),
                                        1e-10, f0)

    def test_returned_field_is_its_own(self):
        first = self.flow()[0]
        kept = first.copy()
        assert first.flags.owndata and first.flags.writeable
        second = self.flow(2.0 * self.W)[0]
        assert not np.array_equal(second, kept)
        assert np.array_equal(first, kept)

    def test_cached_start_is_read_only_and_per_call_exact(self):
        grid = oned._GRID
        cached = oned._flow_arrays(grid)
        assert not any(a.flags.writeable for a in cached)
        t = grid.points()
        f = np.exp(-t * t / 2.0)
        f *= np.sqrt(1.0 / (grid.spacing * np.sum(f * f)))
        _, gauss, F, P = cached
        assert np.array_equal(gauss, f)
        assert np.array_equal(F, np.fft.rfft(f))
        assert np.array_equal(P, np.fft.rfft(f * f))
        # the cached start and the same Gaussian passed in: one flow
        cached_run, passed = self.flow(), self.flow(f0=np.exp(-t * t / 2.0))
        assert np.array_equal(cached_run[0], passed[0])
        assert cached_run[1:] == passed[1:]

    @pytest.mark.parametrize("width", [0.05, 0.2])
    def test_negative_multiplier_takes_the_floor(self, width):
        # at these narrow starts sigma < 0, so the shift is the floor
        # 1e-3 max(|W|, 1), formed from W itself; the flow still finds the
        # default start's minimum
        t = oned._GRID.points()
        _, energy, _, _ = self.flow(f0=np.exp(-t * t / (2 * width ** 2)))
        assert energy == pytest.approx(self.flow()[1], rel=1e-10, abs=0.0)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
    def test_potential_bound(self, seed, size):
        # max|W| <= (1/n) sum fold wq P_0 with P_0 = sum f^2 >= |P_m|: when
        # sigma clears 2e-3 max(this bound, 1), the shift is sigma without
        # forming |W|
        rng = np.random.default_rng(seed)
        grid = oned._GRID
        f = bump_field(grid, rng).values
        wq = size * rng.exponential(size=grid.n // 2 + 1)
        P = np.fft.rfft(f * f)
        W = np.fft.irfft(wq * P, grid.n)
        fold = np.concatenate(([1.0], np.full(grid.n // 2 - 1, 2.0), [1.0]))
        assert np.abs(W).max() <= (fold @ wq) / grid.n * P[0].real * (
            1.0 + 1e-12)

    def test_iteration_totals(self, flows):
        # the workspace rewrite moved no iteration count: 74 on the sweep
        # ladder, 470 on the certify ladder
        for lnB in _SWEEP_LADDER:
            pekar_minimize(PhysParams(np.exp(lnB), 1.0))
        assert sum(run[-1][2] for run in flows) == 74
        flows.clear()
        for lnB, alpha in _CERTIFY_LADDER:
            certify_projected(np.exp(lnB), alpha)
        assert sum(run[-1][2] for run in flows) == 470


class TestSolverSignatures:
    def test_solvers_own_their_grid(self):
        # oned decides the unit-width grid and samples the caller's weight
        # on it; a caller passes the scale mu and the physical problem
        assert list(inspect.signature(solve_numeric).parameters) == ["p", "tol"]
        assert list(inspect.signature(solve_weighted).parameters) == [
            "mu", "akin", "weight", "lam", "tol", "start", "a"]
        assert not hasattr(magpolaron, "standard_grid")


def _own_residual(f, akin, weights, lam):
    """||akin f'' + W f - m f|| of the returned field f, recomputed in real
    space on its own grid: W = 4 pi lam irfft(w rfft(f^2)) and m the
    multiplier h sum f (akin f'' + W f) / h sum f^2."""
    grid, v = f.grid, f.values
    h, k2 = grid.spacing, grid.wavenumbers() ** 2
    W = 4.0 * np.pi * lam * np.fft.irfft(weights * np.fft.rfft(v * v), grid.n)
    G = akin * np.fft.irfft(-k2 * np.fft.rfft(v), grid.n) + W * v
    r = G - (np.sum(v * G) / np.sum(v * v)) * v
    return float(np.sqrt(h * np.sum(r * r)))


class TestReturnedResidual:
    """The flow judges and reports the field it returns: its residual is
    that field's own, in the caller's units, and passes the bound
    sqrt(tol) (1 + |E|) of the unit problem."""

    def test_pekar_minimize(self):
        B = np.exp(10.0)
        sol, _ = pekar_minimize(PhysParams(B, 1.0))
        own = _own_residual(sol.minimizer, 1.0, pekar.interaction_weights(
            sol.minimizer.grid, B), 1.0 / (4 * np.pi ** 2))
        assert sol.gradient_residual == pytest.approx(own, rel=1e-6)

    def test_certify_projected(self, monkeypatch):
        solves = []

        def recording(mu, akin, weight, lam, tol, *args):
            sol = solve_weighted(mu, akin, weight, lam, tol, *args)
            solves.append((akin, weight, lam, sol))
            return sol

        monkeypatch.setattr(certificate, "solve_weighted", recording)
        certify_projected(np.exp(20.0), 1.0)
        ((akin, weight, lam, sol),) = solves
        own = _own_residual(sol.minimizer, akin, weight(sol.minimizer.grid),
                            lam)
        assert sol.gradient_residual == pytest.approx(own, rel=1e-6)

    def test_returned_field_passes_at_e100(self):
        # here the field before the last step passes the bound and the
        # field after it misses it by ~0.1%: the stop rule must read the
        # residual of the field it returns
        B, alpha, tol = np.exp(100.0), 5.0, 1e-11
        sol, _ = pekar_minimize(PhysParams(B, alpha), tol)
        mu = pekar._log_coupling(B, alpha) / 4.0
        own = _own_residual(sol.minimizer, 1.0, pekar.interaction_weights(
            sol.minimizer.grid, B), alpha / (4 * np.pi ** 2))
        # the unit problem's bound, in physical units f = sqrt(mu) q(mu t)
        assert own < np.sqrt(tol) * (mu * mu + abs(sol.energy))
