import numpy as np
import pytest

from magpolaron import (Field1D, FitError, Grid1D, OneDProblem, ParameterError,
                        PekarProductState, PhysParams, SweepRecord,
                        closed_form_energy, coherent_infimum,
                        d_product_fourier, d_product_real,
                        effective_potential_fourier, fit_asymptotics,
                        kinetic, main_coefficient, mass, pekar_energy,
                        pekar_minimize, quartic, scaling_identity_check,
                        sweep, sweep_grid, trial_energy,
                        trial_state)
from magpolaron import certificate, oned, pekar
from magpolaron.grids import SPECTRAL_N
from magpolaron.pekar import _transverse_weight_quadrature

from conftest import sech_field
from oracles import transverse_weight_mp


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

    @pytest.mark.parametrize("lnB, iters, deficit", [
        (10.0, 15, -1.8777661796552338),
        (20.0, 17, -6.8253383555442415),
        (30.0, 17, -15.46375454418775),
    ])
    def test_sweep_numbers_pinned(self, lnB, iters, deficit):
        # the minimizer's iteration count and deficit E - B on the sweep
        # grid, pinned so that hot-path changes cannot drift them; ln B = 30
        # holds the weight with its small-argument term x (1 - gamma - ln x),
        # checked against mpmath below
        sol, _ = pekar_minimize(PhysParams(np.exp(lnB), 1.0))
        assert sol.iterations == iters
        assert sol.energy == pytest.approx(deficit, rel=1e-13, abs=0.0)

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


class TestScalingIdentity:
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

    @pytest.mark.parametrize("lnB", [12.0, 20.0, 30.0])
    def test_transverse_quadrature_pointwise(self, lnB):
        B = np.exp(lnB)
        k = np.geomspace(1e-6, 1e4, 41)
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

    @pytest.mark.parametrize("workers,n_jobs,cpus,expected", [
        (64, 2, 4, 2), (64, 6, 4, 4), (3, 6, 4, 3), (64, 6, None, None)])
    def test_pool_bounded_by_jobs_and_cpus(self, monkeypatch, workers, n_jobs,
                                           cpus, expected):
        # the pool forks every worker up front, so it must not ask for more
        # than there are points or CPUs; no real process is started here
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(pekar, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(pekar.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(pekar, "_sweep_point", lambda job: SweepRecord(
            np.exp(job[0]), job[1], 0.0, 0.0, 0.0, 0.0, None, 0, 0.0))
        records = sweep([10.0 + x for x in range(n_jobs)], 1.0, workers=workers)
        assert len(records) == n_jobs
        assert created == ([] if expected is None else [expected])

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
        assert narrow.n == SPECTRAL_N

    def test_doubling_spectral_n_moves_nothing(self, monkeypatch):
        # every solver grid scales its half-width to its minimizer's width,
        # so one SPECTRAL_N serves every (B, alpha): twice the samples on
        # the same half-widths move no sweep deficit, trial deficit or
        # certify I_value beyond 1e-14 relative, and no iteration count
        weighted_iters = []
        solve_weighted = certificate.solve_weighted

        def recording(wp):
            sol = solve_weighted(wp)
            weighted_iters.append(sol.iterations)
            return sol

        monkeypatch.setattr(certificate, "solve_weighted", recording)
        sweep_points = [(alpha, lnB) for alpha in (1.0, 5.0)
                        for lnB in (0.5, 2.0, 10.0, 30.0, 100.0, 700.0)]
        sweep_points += [(0.1, lnB) for lnB in (15.0, 30.0, 100.0, 700.0)]
        cert_points = [(alpha, lnB) for alpha in (0.001, 0.1, 1.0)
                       for lnB in (8.0, 30.0, 100.0, 700.0)]
        cert_points += [(alpha, float(lnB)) for lnB in range(8, 31)
                        for alpha in (0.5, 1.0, 2.0)]

        def outputs():
            out = {}
            for alpha, lnB in sweep_points:
                sol, _ = pekar_minimize(PhysParams(np.exp(lnB), alpha))
                out["sweep", alpha, lnB] = sol.energy, sol.iterations
            for lnB in (2.0, 10.0, 30.0, 100.0, 700.0):
                trial = trial_energy(np.exp(lnB), 1.0)
                out["trial", lnB] = trial.longitudinal_kinetic + trial.coulomb, 0
            for alpha, lnB in cert_points:
                weighted_iters.clear()
                cert = certificate.certify_projected(np.exp(lnB), alpha)
                out["certify", alpha, lnB] = cert.I_value, list(weighted_iters)
            return out

        base = outputs()
        n2 = 2 * SPECTRAL_N
        monkeypatch.setattr(pekar, "SPECTRAL_N", n2)
        monkeypatch.setattr(oned, "_GRID", Grid1D(n2, oned._GRID.half_width))
        assert sweep_grid(np.exp(30.0), 1.0).n == n2
        assert trial_state(np.exp(30.0)).f.grid.n == n2
        fine = outputs()
        for key, (value, iters) in base.items():
            assert fine[key][1] == iters, key
            assert fine[key][0] == pytest.approx(value, rel=1e-14, abs=0.0), key
