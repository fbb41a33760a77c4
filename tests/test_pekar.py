import dataclasses
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from magpolaron import (Field1D, FitError, Grid1D, OneDProblem, ParameterError,
                        PekarProductState, PhysParams, closed_form_energy,
                        coherent_infimum, d_product_fourier, d_product_real,
                        effective_potential_fourier, fit_asymptotics,
                        kinetic, mass, pekar_energy,
                        pekar_minimize, quartic, scaling_identity_check,
                        trial_energy, trial_state)
from magpolaron import certificate, cli, decomposition, oned, pekar
from magpolaron.cli import SweepRecord, sweep
from magpolaron.decomposition import _main_coefficient, fourier_side_energy
from magpolaron.special import gauss_legendre_panels, log_end_rule
from magpolaron.pekar import (_log_coupling, _transverse_weight_quadrature,
                              interaction_weights)

from conftest import sech_field
from oracles import (transverse_weight_mp, transverse_weight_one_matrix,
                     trial_coulomb_mp, weight_cell_average_mp)


def _flow_grid(B, alpha):
    """The physical grid pekar_minimize builds its weights on."""
    return oned._scaled_grid(_log_coupling(B, alpha) / 4.0)


#: half-widths of the grids the sweep used to size from alpha ln B,
#: 60/max(1, alpha ln B/4), kept for the cells checked on them
_OLD_SWEEP_HALF_WIDTH = {(0.1, 0.5): 60.0, (1.0, 10.0): 24.0, (5.0, 10.0): 4.8,
                         (1.0, 30.0): 8.0, (1.0, 700.0): 60.0 / 175.0}


def _cell_average_loop(km, dk, B):
    """The average of U over the cell at km formed on its own: the one-sided
    cell [0, dk/2] by log_end_rule, a cell [km - dk/2, km + dk/2], km > 0, by
    one 24-point Gauss-Legendre rule."""
    if km == 0.0:
        nodes, w = log_end_rule(dk / 2.0)
        return float(np.sum(w * effective_potential_fourier(nodes, B))
                     / (dk / 2.0))
    nodes, w = gauss_legendre_panels([km - dk / 2.0, km + dk / 2.0], order=24)
    return float(np.sum(w * effective_potential_fourier(nodes, B)) / dk)


class TestEnergy:
    def test_zero_coupling_exact(self, f11):
        state = PekarProductState(PhysParams(np.exp(6.0), 0.0), f11)
        bd = pekar_energy(state)
        assert bd.total == np.exp(6.0) + kinetic(f11)
        assert bd.coulomb == 0.0

    def test_breakdown_sums(self, f11):
        state = PekarProductState(PhysParams(np.exp(6.0), 1.0), f11)
        bd = pekar_energy(state)
        assert bd.total == bd.transverse + bd.longitudinal_kinetic + bd.coulomb
        assert bd.coulomb < 0

    def test_weak_coupling_attraction_vanishes(self):
        # widening family: the Coulomb term shrinks toward the flat limit
        couls = []
        for b, T in ((0.5, 160.0), (0.25, 320.0), (0.125, 640.0)):
            f = sech_field(Grid1D(8192, T), 1.0, b)
            state = PekarProductState(PhysParams(np.exp(6.0), 1.0), f)
            couls.append(-pekar_energy(state).coulomb)
        assert couls[0] > couls[1] > couls[2] > 0

    @pytest.mark.parametrize("B,alpha", [(np.inf, 1.0), (np.nan, 1.0),
                                         (1e4, np.inf), (1e4, np.nan)])
    def test_nonfinite_parameters_rejected(self, B, alpha):
        with pytest.raises(ParameterError):
            PhysParams(B, alpha)

    def test_normalization_enforced(self, grid):
        f = Field1D(grid, np.exp(-grid.points() ** 2))
        with pytest.raises(ParameterError):
            PekarProductState(PhysParams(10.0, 1.0), f)


class TestTrialState:
    def test_unit_mass_and_transverse(self):
        B = np.exp(10.0)
        st = trial_state(B)
        assert mass(st.f) == pytest.approx(1.0, abs=1e-10)
        assert pekar_energy(st).transverse == B

    def test_exact_kinetic_e12(self):
        bd = trial_energy(np.exp(12.0), 1.0)
        assert bd.longitudinal_kinetic == pytest.approx(3.0, rel=1e-12)
        st = trial_state(np.exp(12.0))
        assert kinetic(st.f) == pytest.approx(3.0, abs=1e-10)

    def test_quartic_e6(self):
        st = trial_state(np.exp(6.0))
        assert quartic(st.f) == pytest.approx(0.5, abs=1e-10)

    def test_binding_at_e10(self):
        bd = trial_energy(np.exp(10.0), 1.0)
        assert bd.total < np.exp(10.0)

    @pytest.mark.parametrize("lnB", [1.05, 10.0, 30.0])
    def test_one_decayed_field_for_every_alpha(self, lnB):
        # the sech profile at coupling ln B/2 does not depend on alpha, and
        # neither does its grid
        B = np.exp(lnB)
        fields = [trial_state(B, alpha).f for alpha in (0.5, 1.0, 5.0)]
        for f in fields:
            assert f.boundary_decayed()
            assert f.grid == fields[0].grid
            assert np.array_equal(f.values, fields[0].values)

    @pytest.mark.parametrize("lnB", [0.5, 1.0, 3.0, 6.0, 8.333837752801326,
                                     12.0, 23.0, 30.0, 100.0, 300.0, 700.0,
                                     709.0, 709.78])
    def test_trial_energy_matches_mpmath(self, lnB):
        # the closed-form transform's rule against 30-digit mpmath across
        # the accepted B range: D within the 1e-15 relative coulomb_error
        # reports, the deficit within it plus a few ulps of the exact
        # kinetic term (at ln B 8.33 and 23 that is 1.03e-15 of the deficit)
        B = float(np.exp(lnB))
        d_ref, deficit_ref = trial_coulomb_mp(B)
        bd = trial_energy(B, 1.0)
        assert bd.coulomb_error == 1e-15 * abs(bd.coulomb) > 0
        assert abs(-bd.coulomb - d_ref) <= bd.coulomb_error
        assert abs(bd.deficit - deficit_ref) <= (
            bd.coulomb_error + 4 * np.spacing(bd.longitudinal_kinetic))

    def test_trial_energy_refuses_nonfinite(self):
        with pytest.raises(ParameterError, match="not a finite double"):
            trial_energy(np.exp(10.0), 1e308)
        assert not np.signbit(trial_energy(np.exp(10.0), 0.0).coulomb)

    def test_coulomb_linear_in_alpha(self):
        # one field for every alpha: the Coulomb energy is exactly alpha * D
        B = np.exp(30.0)
        assert trial_energy(B, 5.0).coulomb == 5.0 * trial_energy(B, 1.0).coulomb


class TestMinimize:
    def test_below_trial(self):
        B = np.exp(10.0)
        sol, bd = pekar_minimize(PhysParams(B, 1.0), tol=1e-11)
        assert bd.total <= trial_energy(B, 1.0).total + 1e-8
        assert sol.energy <= 0.0
        assert mass(sol.minimizer) == pytest.approx(1.0, abs=1e-10)

    def test_zero_coupling_degenerate(self):
        sol, bd = pekar_minimize(PhysParams(np.exp(8.0), 0.0))
        assert sol.degenerate
        assert bd.total == np.exp(8.0)

    def test_delta_comparison_trend(self):
        # replacing the kernel by its local coefficient gives B - (C_B)^2/12;
        # the true minimum differs by a bounded multiple of ln B
        ratios = []
        for lnB in (10.0, 16.0, 22.0):
            B = np.exp(lnB)
            _, bd = pekar_minimize(PhysParams(B, 1.0), tol=1e-11)
            delta_model = closed_form_energy(OneDProblem(1.0, _main_coefficient(B)))
            ratios.append(abs((bd.total - B) - delta_model) / lnB)
        assert all(r < 0.25 for r in ratios)

    def test_binding_ratio_window(self):
        # (B - E_min)/(ln B)^2 stays positive, below 1.05/48 everywhere, and
        # is non-decreasing once the slow log corrections take over
        ratios = {}
        for lnB in (10.0, 24.0, 27.0, 30.0):
            B = np.exp(lnB)
            _, bd = pekar_minimize(PhysParams(B, 1.0), tol=1e-11)
            ratios[lnB] = (B - bd.total) / lnB ** 2
        assert all(r > 0 for r in ratios.values())
        assert all(r <= 1.05 / 48.0 for r in ratios.values())
        assert ratios[24.0] <= ratios[27.0] <= ratios[30.0]

    _PINNED = [(10.0, 7, -1.87776618083822),
               (20.0, 7, -6.825338356620785),
               (30.0, 7, -15.4637545451194)]

    @pytest.mark.parametrize("lnB, iters, deficit", _PINNED,
                             ids=[f"e{p[0]:g}" for p in _PINNED])
    def test_sweep_numbers_pinned(self, lnB, iters, deficit):
        # the minimizer's iteration count and deficit E - B, pinned so that
        # hot-path changes cannot drift them; ln B = 30 holds the weight with
        # its small-argument term x (1 - gamma - ln x), checked against
        # mpmath below
        sol, bd = pekar_minimize(PhysParams(np.exp(lnB), 1.0))
        assert sol.iterations == iters
        assert bd.deficit == pytest.approx(deficit, rel=1e-13, abs=0.0)

    def test_pinned_deficits_near_a_wider_grid(self, monkeypatch):
        # the flow's interaction is a periodic convolution, so each deficit
        # carries an image error of the period 2T; on oned's grid with 4x
        # the half-width and 4x the samples (same spacing) the pins move by
        # 8.6e-11, 1.8e-11 and 6.9e-12 relative
        wide = Grid1D(4 * oned._GRID.n, 4 * oned._GRID.half_width)
        monkeypatch.setattr(oned, "_GRID", wide)
        for lnB, iters, deficit in self._PINNED:
            sol, bd = pekar_minimize(PhysParams(np.exp(lnB), 1.0))
            assert sol.iterations == iters
            assert bd.deficit == pytest.approx(deficit, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("lnB", [0.5, 12.0, 30.0, 100.0, 700.0])
    def test_weight_small_argument_against_mpmath(self, lnB):
        # the closed form's branch below x = k^2/B = 1e-12, and just above
        # it, against 40-digit mpmath; the dual Coulomb paths at ln B = 30
        # differed by 1.5e-13 while the branch dropped x (1 - gamma - ln x)
        B = float(np.exp(lnB))
        x = np.r_[np.geomspace(1e-300, 1e-16, 15), np.geomspace(1e-15, 1e-10, 21)]
        k = np.sqrt(x * B)
        k = k[(k > 0) & np.isfinite(k)]
        ref = np.array([transverse_weight_mp(kk, B) for kk in k])
        rel = np.abs(effective_potential_fourier(k, B) / ref - 1.0)
        assert np.max(rel) <= 4e-15

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("lnB", [0.5, 10.0, 39.5, 700.0])
    def test_cell_averages_equal_the_cell_loop(self, alpha, lnB):
        # the one-pass cell averages repeat a per-cell loop's arithmetic,
        # on the grid pekar_minimize builds
        B = float(np.exp(lnB))
        grid = _flow_grid(B, alpha)
        dk = np.pi / grid.half_width
        loop = [_cell_average_loop(km, dk, B) for km in grid.wavenumbers()[:9]]
        assert interaction_weights(grid, B)[:9].tolist() == loop

    @staticmethod
    def _cells_against_mpmath(grid, B):
        # the cells m <= 8 beside k = 0 hold averages of the log-singular
        # weight over [max(k_m - dk/2, 0), k_m + dk/2]; on the m = 0 cell a
        # closed-form log part plus one 24-point rule on the smooth rest
        # was off by up to 7.4e-12 (alpha = 300, ln B = 0.5)
        k = grid.wavenumbers()[:9]
        dk = np.pi / grid.half_width
        ref = np.array([weight_cell_average_mp(max(km - dk / 2, 0.0),
                                               km + dk / 2, B) for km in k])
        rel = np.abs(interaction_weights(grid, B)[:9] / ref - 1.0)
        assert np.max(rel) <= 4e-15

    @pytest.mark.parametrize("alpha, lnB", [
        (0.1, 0.5), (1.0, 10.0), (5.0, 10.0), (1.0, 30.0), (1.0, 700.0)])
    def test_cell_averages_against_mpmath(self, alpha, lnB):
        # on the explicit grids Grid1D(1024, T) the sweep used to build
        grid = Grid1D(oned._GRID.n, _OLD_SWEEP_HALF_WIDTH[alpha, lnB])
        self._cells_against_mpmath(grid, float(np.exp(lnB)))

    @pytest.mark.parametrize("alpha, lnB", [
        (0.1, 0.5), (1.0, 0.5), (5.0, 0.5), (300.0, 0.5), (300.0, 10.0),
        (0.1, 10.0), (1.0, 10.0), (5.0, 10.0), (1.0, 30.0), (1.0, 700.0),
        (0.1, 39.5), (1.0, 39.5), (5.0, 39.5), (0.1, 700.0), (5.0, 700.0)])
    def test_cell_averages_against_mpmath_on_flow_grids(self, alpha, lnB):
        # on the grids pekar_minimize builds, (n, T/mu) at mu = b/4
        B = float(np.exp(lnB))
        self._cells_against_mpmath(_flow_grid(B, alpha), B)

    @pytest.mark.parametrize("lnB", [100.0, 300.0, 700.0, 709.0])
    def test_dual_paths_agree_at_large_B(self, lnB):
        # the real path's first panel must reach the kernel scale
        # 1/(4 sqrt B), 5e-23 at ln B = 100, or V's corner goes unresolved;
        # from ln B ~ 650 k^2/B underflows and from ~ 708.6 pi B overflows
        B = np.exp(lnB)
        sol, _ = pekar_minimize(PhysParams(B, 1.0))
        d_real = d_product_real(sol.minimizer, B)
        d_four = d_product_fourier(sol.minimizer, B)
        assert abs(d_real - d_four) <= 1e-13 * abs(d_four)


_EXTREME_COUPLINGS = [(alpha, lnB) for alpha in (1e-106, 1e-120, 1e-150)
                      for lnB in (0.5, 10.0, 100.0)
                      if float(np.exp(lnB)) / alpha ** 2 < np.inf]


# the largest alpha each ln B takes: below the log-regime refusal at 0.5 and
# 30 (83000 and 2.1e11 are refused), below the doubles at 709 (4.4e154 is)
_STRONGEST_COUPLINGS = [(8.2e4, 0.5), (2.09e11, 30.0), (4.3e154, 709.0)]


@pytest.mark.parametrize("alpha, lnB",
                         _EXTREME_COUPLINGS + _STRONGEST_COUPLINGS)
def test_real_path_panel_edges_increase(alpha, lnB, monkeypatch):
    # special.geometric_edges and gauss_legendre_panels take the real path's
    # edges on trust: on the flow's widest and narrowest grids they rise
    # strictly from 0 to T, the first panel ending in (0, T/2]
    seen, panels = [], decomposition.gauss_legendre_panels
    monkeypatch.setattr(decomposition, "gauss_legendre_panels",
                        lambda edges, order: seen.append(edges)
                        or panels(edges, order))
    sol, _ = pekar_minimize(PhysParams(float(np.exp(lnB)), alpha))
    (edges,) = seen
    T = sol.minimizer.grid.half_width
    assert edges[0] == 0.0 and edges[-1] == T
    assert np.all(edges[1:] > edges[:-1]) and 0 < edges[1] <= T / 2


class TestScalingIdentity:
    @pytest.mark.parametrize("alpha, lnB",
                             _EXTREME_COUPLINGS + [(1e120, 709.0)])
    def test_minimized_deficits_at_extreme_coupling(self, alpha, lnB):
        # deficit(B, alpha) = alpha^2 deficit(B/alpha^2, 1) on the
        # minimizers; f k^2 f in kinetic underflowed on the wide grids of
        # weak coupling (off by 5.8e-12 at alpha = 1e-106, 2x at 1e-120)
        # and overflowed on the narrow one at alpha = 1e120, which was refused
        B = float(np.exp(lnB))
        _, high = pekar_minimize(PhysParams(B, alpha))
        _, low = pekar_minimize(PhysParams(B / alpha ** 2, 1.0))
        assert high.longitudinal_kinetic > 0
        assert high.deficit == pytest.approx(alpha ** 2 * low.deficit,
                                             rel=1e-13, abs=0.0)

    def test_alpha_one_trivial(self, f11):
        passed, rel = scaling_identity_check(np.exp(6.0), 1.0, f11)
        assert passed and rel < 1e-12

    def test_alpha_two(self):
        g = Grid1D(4096, 20.0)
        f = sech_field(g, 1.0, 2.0)
        passed, rel = scaling_identity_check(np.exp(8.0), 2.0, f)
        assert passed, f"relative defect {rel}"

    def test_alpha_half(self):
        g = Grid1D(4096, 20.0)
        f = sech_field(g, 1.0, 2.0)
        passed, rel = scaling_identity_check(np.exp(6.0), 0.5, f)
        assert passed, f"relative defect {rel}"

    def test_compares_deficits_not_totals(self, monkeypatch):
        # at ln B = 30 a 1e-6 error in one side's Coulomb energy is ~1e-11 of
        # the total but ~1e-6 of the deficit E - B; the check must see it
        B = np.exp(30.0)
        f = trial_state(B / 4.0).f
        passed, rel = scaling_identity_check(B, 2.0, f)
        assert passed and rel < 1e-12
        exact = pekar.pekar_energy

        def skewed(state):
            bd = exact(state)
            if state.params.alpha != 1.0:
                bd.coulomb *= 1.0 + 1e-6
            return bd

        monkeypatch.setattr(pekar, "pekar_energy", skewed)
        passed, rel = scaling_identity_check(B, 2.0, f)
        assert not passed and rel > 1e-7


class TestCoherentRoute:
    def test_zero_coupling(self, f11):
        state = PekarProductState(PhysParams(np.exp(6.0), 0.0), f11)
        assert coherent_infimum(state) == np.exp(6.0) + kinetic(f11)

    def test_matches_energy(self, f11):
        state = PekarProductState(PhysParams(np.exp(6.0), 1.0), f11)
        e_direct = pekar_energy(state).total
        e_amp = coherent_infimum(state)
        assert e_amp == pytest.approx(e_direct, rel=1e-8)

    def test_zero_amplitude_suboptimal(self, f11):
        state = PekarProductState(PhysParams(np.exp(6.0), 1.0), f11)
        assert np.exp(6.0) + kinetic(f11) >= coherent_infimum(state)

    @pytest.mark.parametrize("lnB", [12.0, 20.0, 30.0, 650.0, 700.0, 709.78])
    def test_transverse_quadrature_pointwise(self, lnB):
        # with the trial grid's log-end nodes, where 1/y = B/k^2 overflows
        # from ln B ~ 640 (17 of 96 nodes at 650, 84 at 709.78)
        B = np.exp(lnB)
        k1 = np.pi / trial_state(B).f.grid.half_width
        k = np.concatenate([np.geomspace(1e-6, 1e4, 41), log_end_rule(k1)[0]])
        ratio = _transverse_weight_quadrature(k, B) / effective_potential_fourier(k, B)
        # the quadrature is pinned to 1e-13 against mpmath below, and the
        # closed form's small-argument branch keeps its x (1 - gamma - ln x)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-13

    def test_transverse_weight_against_mpmath(self):
        # every (B, k) pair with 1e-300 <= k^2/B <= 1e300 on the grid below,
        # against the defining integral's value at 40 digits
        worst = 0.0
        for lnB in [0.01, 1.0, 6.0, 12.0, 20.0, 30.0, 100.0, 300.0, 700.0]:
            B = float(np.exp(lnB))
            k = np.logspace(-25, 9, 35)
            k = k[(k * k / B >= 1e-300) & (k * k / B <= 1e300)]
            ref = np.array([transverse_weight_mp(kk, B) for kk in k])
            rel = np.abs(_transverse_weight_quadrature(k, B) / ref - 1.0)
            worst = max(worst, float(np.max(rel)))
        assert worst <= 1e-13

    def test_transverse_rule_size(self):
        # 21 geometric 16-point panels on [0, 1] and six 12-point octaves on
        # [1, 48]; its accuracy is the mpmath test above
        s, numer = pekar._transverse_rule()
        assert s.size == numer.size == 408 <= 512
        assert s.min() > 0 and s.max() < 48.0

    @pytest.mark.parametrize("n", [1, pekar._ROWS - 1, pekar._ROWS,
                                   pekar._ROWS + 1, 240, 2000])
    @pytest.mark.parametrize("lnB", [0.01, 6.0, 30.0, 300.0])
    def test_row_blocks_match_one_matrix(self, lnB, n):
        # a ragged last block must not move a bit
        B = np.exp(lnB)
        k = np.geomspace(1e-6, 1e4, n)
        assert np.array_equal(_transverse_weight_quadrature(k, B),
                              transverse_weight_one_matrix(k, B))

    def test_working_set_is_one_block(self):
        # the whole 2000 x 408 Cauchy matrix would be 6.5 MB: the route
        # peaked at 6,694,144 bytes here without the row blocks
        k = np.geomspace(1e-6, 1e4, 2000)
        _transverse_weight_quadrature(k[:1], 1e6)  # the cached node set
        tracemalloc.start()
        try:
            _transverse_weight_quadrature(k, 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    @pytest.mark.parametrize("lnB", [650.0, 700.0, 709.78])
    def test_attraction_at_the_top_of_the_B_range(self, lnB):
        # the coherent route's Coulomb attraction against the closed-form
        # weight's, where B/k^2 overflows on the log-end nodes
        state = trial_state(np.exp(lnB), 1.0)
        B = state.params.B
        attraction = fourier_side_energy(
            state.f, lambda k: _transverse_weight_quadrature(k, B))
        assert attraction == pytest.approx(d_product_fourier(state.f, B),
                                           rel=1e-13)
        assert np.isfinite(coherent_infimum(state))

    @pytest.mark.parametrize("lnB", [6.0, 12.0, 20.0, 30.0])
    def test_deficit_matches_energy_at_large_B(self, lnB):
        # the binding deficit E - B, not a total that B dominates; ulp(B)
        # bounds what coherent_infimum(...) - B can resolve
        state = trial_state(np.exp(lnB), 1.0)
        B = state.params.B
        e = pekar_energy(state)
        deficit = e.longitudinal_kinetic + e.coulomb
        gap = abs((coherent_infimum(state) - B) - deficit)
        assert gap <= 1e-12 * abs(deficit) + np.spacing(B)


class TestTransformBudget:
    """np.fft calls of the verification routes on the trial state: the
    kinetic term is one rfft by Parseval; a Coulomb evaluation is the real
    path's rfft and irfft and the Fourier path's one ifft (the fixed rule's
    taps cost none); the coherent route adds its kinetic term to one
    ifft."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        calls = []

        def counted(name, fft):
            def call(*args, **kwargs):
                calls.append(name)
                return fft(*args, **kwargs)
            return call

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name,
                                counted(name, getattr(np.fft, name)))
        return calls

    @pytest.mark.parametrize("lnB", [6.0, 20.0, 30.0])
    def test_each_route(self, transforms, lnB):
        B = np.exp(lnB)
        state = trial_state(B, 1.0)
        budget = [(lambda: kinetic(state.f), ["rfft"]),
                  (lambda: decomposition.coulomb_D_product(state.f, B),
                   ["rfft", "irfft", "ifft"]),
                  (lambda: coherent_infimum(state), ["rfft", "ifft"])]
        for route, expected in budget:
            transforms.clear()
            route()
            assert sorted(transforms) == sorted(expected)

    def test_crosscheck_op(self, transforms):
        # the benchmark's crosscheck operation: ledger, energy, coherent
        # route and the scaling identity; five kinetic terms, four Coulomb
        # evaluations and the coherent route's Fourier path
        B = np.exp(20.0)
        state = trial_state(B, 1.0)
        decomposition.decompose(state.f, B)
        pekar_energy(state)
        coherent_infimum(state)
        scaling_identity_check(B, 2.0, state.f)
        assert len(transforms) == 18
        assert transforms.count("ifft") == 5


class TestSweepAndFit:
    def test_sweep_records_consistent(self):
        records = sweep([np.exp(10.0), np.exp(12.0)], 1.0)
        assert [r.B for r in records] == sorted(r.B for r in records)
        for r in records:
            assert r.E_total == r.B + r.E_kin3 + r.E_coulomb
            assert r.E_total < r.B
            assert r.E_total <= r.trial_E + 1e-8

    def test_parallel_matches_serial(self):
        serial = sweep([np.exp(10.0), np.exp(12.0)], 1.0)
        parallel = sweep([np.exp(10.0), np.exp(12.0)], 1.0, workers=2)
        for a, b in zip(serial, parallel):
            assert a == b

    @pytest.mark.parametrize("workers,n_jobs,cpus,expected", [
        (64, 2, 4, 2), (64, 6, 4, 4), (3, 6, 4, 3), (64, 6, None, None),
        (1, 6, 4, None)])
    def test_pool_bounded_by_jobs_and_cpus(self, monkeypatch, workers, n_jobs,
                                           cpus, expected):
        # every child forks up front, so the sweep must not run more workers
        # than there are points or CPUs: expected workers, this process and
        # expected - 1 children, and no child on one worker (None)
        started = []
        start = multiprocessing.context.ForkProcess.start
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            lambda child: started.append(child) or start(child))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "_sweep_point", lambda job: SweepRecord(
            job[0], job[1], 0.0, 0.0, 0.0, 0.0, None, 0, 0.0))
        Bs = [np.exp(10.0 + x) for x in range(n_jobs)]
        records = sweep(Bs[::-1], 1.0, workers=workers)
        assert [r.B for r in records] == Bs
        assert len(started) == (expected or 1) - 1
        assert multiprocessing.active_children() == []

    def test_synthetic_recovery(self):
        X = np.arange(10.0, 31.0, 2.0)
        B = np.exp(X)
        deficit = X ** 2 / 48.0 - X * np.log(X) / 12.0 - 0.3 * X
        records = [SweepRecord(b, 1.0, b - d, 0.0, -d, 0.0, None, 0, 0.0)
                   for b, d in zip(B, deficit)]
        fit = fit_asymptotics(records)
        assert fit.c2 == pytest.approx(1 / 48.0, abs=1e-9)
        assert fit.c3 == pytest.approx(1 / 12.0, abs=1e-9)
        assert fit.c4 == pytest.approx(0.3, abs=1e-9)
        assert fit.residual_rms < 1e-10

    def test_fit_requires_four_points(self):
        records = [SweepRecord(np.exp(x), 1.0, 0.0, 0.0, 0.0, 0.0, None, 0, 0.0)
                   for x in (10.0, 12.0, 14.0)]
        with pytest.raises(FitError):
            fit_asymptotics(records)

    @pytest.mark.parametrize("field, value", [
        ("E_coulomb", np.nan), ("E_kin3", np.inf), ("B", np.inf),
        ("B", np.nan), ("B", 0.5), ("B", 1.0)])
    def test_fit_refuses_unfittable_row(self, field, value):
        # refused before any logarithm, naming the row's B
        records = [SweepRecord(np.exp(x), 1.0, 0.0, 1.0, -2.0, 0.0, None, 0,
                               0.0) for x in (10.0, 12.0, 14.0, 16.0)]
        records[2] = dataclasses.replace(records[2], **{field: value})
        with pytest.raises(FitError) as err:
            fit_asymptotics(records)
        assert f"B = {float(records[2].B)!r}" in str(err.value)

    def test_fit_rejects_degenerate_window(self):
        records = [SweepRecord(np.exp(10.0), 1.0, 0.0, 0.0, 0.0, 0.0, None, 0, 0.0)
                   for _ in range(5)]
        with pytest.raises(FitError):
            fit_asymptotics(records)


class TestGridPolicy:
    def test_doubling_spectral_n_moves_nothing(self, monkeypatch):
        # every solver grid scales its half-width to its minimizer's width,
        # so one sample count serves every (B, alpha): twice the samples on
        # the same half-widths move no sweep deficit, trial deficit or
        # certify I_value beyond 1e-14 relative, and no iteration count
        weighted_iters = []
        solve_weighted = certificate.solve_weighted

        def recording(*args, **kwargs):
            sol = solve_weighted(*args, **kwargs)
            weighted_iters.append(sol.iterations)
            return sol

        monkeypatch.setattr(certificate, "solve_weighted", recording)
        sweep_points = [(alpha, lnB) for alpha in (1.0, 5.0)
                        for lnB in (0.5, 2.0, 10.0, 30.0, 100.0, 700.0)]
        sweep_points += [(0.1, lnB) for lnB in (0.5, 2.0, 5.0, 10.0, 15.0, 30.0,
                                                100.0, 700.0)]
        sweep_points += [(50.0, 10.0), (300.0, 10.0)]
        cert_points = [(alpha, lnB) for alpha in (0.001, 0.1, 1.0)
                       for lnB in (8.0, 30.0, 100.0, 700.0)]
        cert_points += [(alpha, float(lnB)) for lnB in range(8, 31)
                        for alpha in (0.5, 1.0, 2.0)]

        def outputs():
            out = {}
            for alpha, lnB in sweep_points:
                sol, bd = pekar_minimize(PhysParams(np.exp(lnB), alpha))
                out["sweep", alpha, lnB] = bd.deficit, sol.iterations
            for lnB in (2.0, 10.0, 30.0, 100.0, 700.0):
                out["trial", lnB] = trial_energy(np.exp(lnB), 1.0).deficit, 0
            for alpha, lnB in cert_points:
                weighted_iters.clear()
                cert = certificate.certify_projected(np.exp(lnB), alpha)
                out["certify", alpha, lnB] = cert.I_value, list(weighted_iters)
            return out

        base = outputs()
        n2 = 2 * oned._GRID.n
        monkeypatch.setattr(oned, "_GRID", Grid1D(n2, oned._GRID.half_width))
        sol, _ = pekar_minimize(PhysParams(np.exp(30.0), 1.0))
        assert sol.minimizer.grid.n == n2
        assert trial_state(np.exp(30.0)).f.grid.n == n2
        fine = outputs()
        for key, (value, iters) in base.items():
            assert fine[key][1] == iters, key
            assert fine[key][0] == pytest.approx(value, rel=1e-14, abs=0.0), key
