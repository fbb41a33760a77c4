"""Acceptance suite: one test per criterion, each printing a pass line with
its measured margins.  Tolerances are the contract values, not calibrated."""
import time

import numpy as np
import pytest

from magpolaron import (Grid1D, OneDProblem, PekarProductState, PhysParams,
                        SHARP_GN_Q4, analytic_infimum_floor,
                        certify_projected, coherent_infimum,
                        d_product_fourier, decompose, distance_to_profile,
                        effective_potential, fit_asymptotics, gn_ratio, mass,
                        pekar_energy, pekar_minimize, solve_numeric,
                        trial_energy, trial_state)
from magpolaron.cli import SweepRecord, sweep

from conftest import bump_field, sech_field
from lemmas import (gn_gap, lll_projector_kernel, offdiag_bound_check,
                    projected_phase_factor, twisted_kernel)
from oracles import d_product_grid
import oracles


def _report(num, detail):
    print(f"[PASS] criterion {num}: {detail}")


class TestAcceptance:
    def test_criterion_01_closed_form_unit_problem(self):
        t0 = time.time()
        sol = solve_numeric(OneDProblem(1.0, 1.0), 1e-10)
        energy_err = abs(sol.energy - (-1.0 / 12.0))
        dist = distance_to_profile(sol.minimizer, OneDProblem(1.0, 1.0))
        elapsed = time.time() - t0
        assert energy_err <= 1e-6
        assert dist <= 1e-4
        assert elapsed < 1.0
        _report(1, f"energy err {energy_err:.2e}, L2 dist {dist:.2e}, "
                   f"{elapsed:.2f}s")

    def test_criterion_02_scaling_family(self):
        t0 = time.time()
        worst = 0.0
        for (a, b) in ((2.0, 1.0), (1.0, 3.0), (0.5, 2.0), (1.0, 10.0)):
            sol = solve_numeric(OneDProblem(a, b), 1e-10)
            exact = -(a ** 3) * (b ** 2) / 12.0
            worst = max(worst, abs(sol.energy - exact) / abs(exact))
        elapsed = time.time() - t0
        assert worst <= 1e-5
        assert elapsed < 5.0
        _report(2, f"worst relative error {worst:.2e}, {elapsed:.2f}s")

    def test_criterion_03_sharp_constant(self, grid, f11):
        t0 = time.time()
        assert gn_ratio(f11) == pytest.approx(SHARP_GN_Q4, abs=1e-6)
        rng = np.random.default_rng(314159)
        worst_ratio, worst_gap = np.inf, np.inf
        for _ in range(200):
            f = bump_field(grid, rng)
            worst_ratio = min(worst_ratio, gn_ratio(f))
            worst_gap = min(worst_gap, gn_gap(f, rng.uniform(0.0, 50.0)))
        elapsed = time.time() - t0
        assert worst_ratio >= SHARP_GN_Q4 - 1e-9
        assert worst_gap >= -1e-6
        assert elapsed < 30.0
        _report(3, f"min ratio {worst_ratio:.9f} (floor {SHARP_GN_Q4:.9f}), "
                   f"min gap {worst_gap:.2e}, {elapsed:.1f}s")

    def test_criterion_04_effective_potential_oracles(self):
        t0 = time.time()
        worst_v = 0.0
        for B in (1.0, 100.0):
            for z in (0.0, 0.1, 1.0, 10.0):
                ref = oracles.effective_potential_quad2d(z, B)
                rel = abs(effective_potential(z, B) - ref) / abs(ref)
                worst_v = max(worst_v, rel)
        assert worst_v <= 1e-7
        worst_d = 0.0
        battery = [(1.0, 1.0, 1.0, 8192, 40.0),
                   (1.0, 2.0, 4.0, 8192, 40.0),
                   (2.0, 3.0, 25.0, 8192, 20.0),
                   (1.0, 5.0, 100.0, 16384, 12.0),
                   (1.0, 10.0, 1e6, 65536, 8.0)]
        for (a, b, B, n, T) in battery:
            f = sech_field(Grid1D(n, T), a, b)
            d_g = d_product_grid(f, B)
            d_f = d_product_fourier(f, B)
            worst_d = max(worst_d, abs(d_g - d_f) / abs(d_f))
        elapsed = time.time() - t0
        assert worst_d <= 1e-7
        assert elapsed < 120.0
        _report(4, f"potential worst rel {worst_v:.2e}, dual-path worst rel "
                   f"{worst_d:.2e}, {elapsed:.1f}s")

    def test_criterion_05_trial_state_chain(self):
        t0 = time.time()
        for lnB in (10.0, 14.0, 18.0):
            B = np.exp(lnB)
            st = trial_state(B, 1.0)
            assert mass(st.f) == pytest.approx(1.0, abs=1e-9)
            bd_trial = trial_energy(B, 1.0)
            assert bd_trial.transverse == B
            from magpolaron import kinetic
            assert kinetic(st.f) == pytest.approx(lnB ** 2 / 48.0, abs=1e-10)
            _, bd_min = pekar_minimize(PhysParams(B, 1.0), tol=1e-11)
            assert bd_min.total <= bd_trial.total + 1e-9
        elapsed = time.time() - t0
        assert elapsed < 30.0
        _report(5, f"minimum below trial at e^10, e^14, e^18, {elapsed:.1f}s")

    def test_criterion_06_decomposition_closure(self):
        t0 = time.time()
        margins = []
        for lnB in (6.0, 10.0):
            B = np.exp(lnB)
            f = sech_field(Grid1D(8192, 30.0), 1.0, lnB / 2.0)
            ledger = decompose(f, B)
            assert abs(ledger.closure_defect()) <= ledger.quadrature_error_estimate + 1e-12
            assert ledger.r1_within_bound()
            margins.append(ledger.r1_bound - abs(ledger.r1))
        elapsed = time.time() - t0
        assert elapsed < 60.0
        _report(6, f"closure holds; r1 margins {margins[0]:.3f}, "
                   f"{margins[1]:.3f}, {elapsed:.1f}s")

    def test_criterion_07_projection_inequalities(self, f11):
        t0 = time.time()
        root_half = 1.0 / np.sqrt(2.0)
        mixtures = [(root_half, root_half), (0.8, 0.6), (0.6, -0.8)]
        for (c0, c1) in mixtures:
            for eps in (0.5, 0.25):
                passed, margin, _, _ = offdiag_bound_check(eps, c0, c1, f11, 1.0)
                assert passed, f"mixture {(c0, c1)}, eps {eps}"
        # projector algebra at quadrature accuracy
        pts, w = oracles.gauss2d_nodes(12.0, 96)
        rng = np.random.default_rng(8)
        B = 1.0
        for _ in range(3):
            x, y = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
            lhs = np.sum(w * lll_projector_kernel(x[None, :], pts, B)
                         * lll_projector_kernel(pts, y[None, :], B))
            assert abs(lhs - lll_projector_kernel(x, y, B)) < 1e-8
            assert lll_projector_kernel(x, y, B) == pytest.approx(
                np.conj(lll_projector_kernel(y, x, B)), abs=1e-14)
        k = np.array([0.7, -0.4])
        z, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        lhs = np.sum(w * lll_projector_kernel(z[None, :], pts, B)
                     * np.exp(1j * (pts @ k))
                     * lll_projector_kernel(pts, y[None, :], B))
        rhs = projected_phase_factor(k, B) * twisted_kernel(z, y, k, B)
        assert abs(lhs - rhs) < 1e-8
        elapsed = time.time() - t0
        assert elapsed < 120.0
        _report(7, f"6 mixture inequalities + projector algebra, {elapsed:.1f}s")

    def test_criterion_08_classical_field_route(self):
        t0 = time.time()
        worst = 0.0
        cases = [(1.0, 1.2, 6.0), (1.0, 2.0, 6.0), (1.0, 3.0, 8.0),
                 (2.0, 1.5, 8.0), (1.0, 5.0, 10.0)]
        for (a_scale, b, lnB) in cases:
            g = Grid1D(4096, 40.0)
            f = sech_field(g, 1.0, b)  # unit mass regardless of b
            st = PekarProductState(PhysParams(np.exp(lnB), a_scale), f)
            e_direct = pekar_energy(st).total
            e_amp = coherent_infimum(st)
            worst = max(worst, abs(e_amp - e_direct) / abs(e_direct))
        elapsed = time.time() - t0
        assert worst <= 1e-8
        assert elapsed < 10.0
        _report(8, f"worst relative mismatch {worst:.2e}, {elapsed:.1f}s")

    def test_criterion_09_asymptotic_fit(self):
        t0 = time.time()
        records = sweep(list(np.exp(np.arange(10.0, 31.0, 2.0))), 1.0)
        fit = fit_asymptotics(records)
        assert abs(fit.c2 - 1.0 / 48.0) <= 0.25 / 48.0
        assert fit.c3 > 0
        X = np.arange(10.0, 31.0, 2.0)
        deficit = X ** 2 / 48.0 - X * np.log(X) / 12.0 - 0.3 * X
        synthetic = [SweepRecord(np.exp(x), 1.0, np.exp(x) - d, 0.0, -d, 0.0,
                                 None, 0, 0.0) for x, d in zip(X, deficit)]
        sfit = fit_asymptotics(synthetic)
        assert abs(sfit.c2 - 1.0 / 48.0) <= 1e-9
        assert abs(sfit.c3 - 1.0 / 12.0) <= 1e-9
        assert abs(sfit.c4 - 0.3) <= 1e-9
        elapsed = time.time() - t0
        assert elapsed < 180.0
        _report(9, f"c2 = {fit.c2:.6f} (target {1/48:.6f}, off "
                   f"{abs(fit.c2 * 48 - 1) * 100:.1f}%), c3 = {fit.c3:.4f} > 0, "
                   f"synthetic exact, {elapsed:.1f}s")

    def test_criterion_10_certificate_sanity(self):
        t0 = time.time()
        gaps = []
        for lnB in (12.0, 16.0, 20.0):
            B = np.exp(lnB)
            cert = certify_projected(B, 1.0)
            assert cert.valid
            floor = analytic_infimum_floor(
                cert.ledger.kappa1, cert.cutoffs.gamma, cert.cutoffs.Kperp, 1.0)
            assert cert.I_value >= floor
            _, bd = pekar_minimize(PhysParams(B, 1.0), tol=1e-10)
            assert cert.p0_bound <= bd.total
            gaps.append((B - cert.p0_bound) / lnB ** 2)
        assert gaps[0] > gaps[1] > gaps[2]
        elapsed = time.time() - t0
        assert elapsed < 120.0
        _report(10, f"valid certificates, sandwich and floor hold, gap ratios "
                    f"{gaps[0]:.3f} > {gaps[1]:.3f} > {gaps[2]:.3f}, "
                    f"{elapsed:.1f}s")

    def test_criterion_11_sweep_determinism(self, tmp_path):
        from magpolaron.cli import main
        t0 = time.time()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--alpha", "1", "--B", "e10,e12",
                     "--out", str(a)]) == 0
        assert main(["sweep", "--alpha", "1", "--B", "e10,e12",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        elapsed = time.time() - t0
        assert elapsed < 60.0
        _report(11, f"byte-identical sweep CSV, {elapsed:.1f}s")
