import numpy as np
import pytest

from magpolaron import (Field1D, FitError, Grid1D, OneDProblem, ParameterError,
                        PekarProductState, PhysParams, SweepRecord,
                        closed_form_energy, coherent_infimum,
                        effective_potential_fourier, fit_asymptotics,
                        kinetic, main_coefficient, mass, pekar_energy,
                        pekar_minimize, quartic, scaling_identity_check,
                        standard_grid, sweep, sweep_grid, trial_energy,
                        trial_state)
from magpolaron.pekar import _transverse_weight_quadrature

from conftest import sech_field


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
            delta_model = closed_form_energy(OneDProblem(1.0, main_coefficient(B)))
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


class TestScalingIdentity:
    def test_alpha_one_trivial(self, f11):
        passed, rel = scaling_identity_check(np.exp(6.0), 1.0, f11)
        assert passed and rel < 1e-12

    def test_alpha_two(self):
        g = standard_grid(4096, 20.0)
        f = sech_field(g, 1.0, 2.0)
        passed, rel = scaling_identity_check(np.exp(8.0), 2.0, f)
        assert passed, f"relative defect {rel}"

    def test_alpha_half(self):
        g = standard_grid(4096, 20.0)
        f = sech_field(g, 1.0, 2.0)
        passed, rel = scaling_identity_check(np.exp(6.0), 0.5, f)
        assert passed, f"relative defect {rel}"


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

    @pytest.mark.parametrize("lnB", [12.0, 20.0, 30.0])
    def test_transverse_quadrature_pointwise(self, lnB):
        B = np.exp(lnB)
        k = np.geomspace(1e-6, 1e4, 41)
        ratio = _transverse_weight_quadrature(k, B) / effective_potential_fourier(k, B)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-8

    @pytest.mark.parametrize("lnB", [20.0, 30.0])
    def test_deficit_matches_energy_at_large_B(self, lnB):
        # the binding deficit E - B, not a total that B dominates; ulp(B)
        # bounds what coherent_infimum(...) - B can resolve
        state = trial_state(np.exp(lnB), 1.0)
        B = state.params.B
        e = pekar_energy(state)
        deficit = e.longitudinal_kinetic + e.coulomb
        gap = abs((coherent_infimum(state) - B) - deficit)
        assert gap <= 1e-8 * abs(deficit) + np.spacing(B)


class TestSweepAndFit:
    def test_sweep_records_consistent(self):
        records = sweep([10.0, 12.0], 1.0)
        assert [r.B for r in records] == sorted(r.B for r in records)
        for r in records:
            assert r.E_total == r.B + r.E_kin3 + r.E_coulomb
            assert r.E_total < r.B
            assert r.E_total <= r.trial_E + 1e-8

    def test_parallel_matches_serial(self):
        serial = sweep([10.0, 12.0], 1.0)
        parallel = sweep([10.0, 12.0], 1.0, workers=2)
        for a, b in zip(serial, parallel):
            assert a == b

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

    def test_fit_rejects_degenerate_window(self):
        records = [SweepRecord(np.exp(10.0), 1.0, 0.0, 0.0, 0.0, 0.0, None, 0, 0.0)
                   for _ in range(5)]
        with pytest.raises(FitError):
            fit_asymptotics(records)


class TestGridPolicy:
    def test_width_scales_inversely(self):
        wide = sweep_grid(np.exp(4.0), 1.0)
        narrow = sweep_grid(np.exp(30.0), 1.0)
        assert wide.half_width > narrow.half_width
        assert narrow.n == 8192
