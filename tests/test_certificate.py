import dataclasses

import numpy as np
import pytest

from magpolaron import oned
from magpolaron import (CutoffParams, Grid1D, ParameterError, PhysParams,
                        analytic_infimum_floor, block_error,
                        certificate_to_dict, certify_projected,
                        conditional_full_bound, coupling_v, default_cutoffs,
                        kappa, kappa1, kappa2, localization_error,
                        pekar_minimize, total_coupling_weight)
from magpolaron.special import exp_scaled_e1

import oracles


class TestKappaChain:
    def test_kappa_half(self):
        alpha = 1.3
        assert kappa(16 * alpha / np.pi, alpha) == pytest.approx(0.5, rel=1e-12)

    def test_kappa_limit(self):
        assert kappa(1e12, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_kappa_standard_choice(self):
        B, alpha = np.exp(20.0), 1.0
        K = B * 20.0 ** (-4.0 / 3.0)
        # own arithmetic: 1 - kappa = 8 alpha (ln B)^(4/3) / (pi B)
        expected_gap = 8 * alpha * 20.0 ** (4.0 / 3.0) / (np.pi * B)
        assert 1.0 - kappa(K, alpha) == pytest.approx(expected_gap, rel=1e-12)
        assert expected_gap == pytest.approx(2.849e-7, rel=1e-3)

    def test_kappa_domain(self):
        with pytest.raises(ParameterError):
            kappa(8 / np.pi, 1.0)

    def test_kappa1_integral_identity(self):
        # the cutoff integral equals e^x E1(x); x=1 case against quadrature
        assert exp_scaled_e1(1.0) == pytest.approx(
            oracles.exp_scaled_e1_quad(1.0), rel=1e-11)
        assert exp_scaled_e1(1.0) == pytest.approx(0.5963473623, rel=1e-9)
        B, K3, alpha = 200.0, 20.0, 1.0  # x = 1
        val = kappa1(1.0, K3, B, alpha)
        assert val == pytest.approx(
            1.0 - 8 * alpha / (np.pi * K3) * 0.5963473623231946, rel=1e-12)

    def test_kappa1_dominated_decay(self):
        # K3^2 >> B: the correction collapses like 2B/K3^2
        B, K3 = 10.0, 1e4
        gap = 1.0 - kappa1(1.0, K3, B, 1.0)
        expected = (8 / (np.pi * K3)) * (2 * B / K3 ** 2)
        assert gap == pytest.approx(expected, rel=1e-3)

    def test_kappa1_coarse_bound_ratio(self):
        # kappa - kappa1 <= (C/K3) ln(B/K3^2) with a stable fitted C
        ratios = []
        for lnB in (12.0, 16.0, 20.0, 24.0):
            B = np.exp(lnB)
            K3 = lnB ** 1.5
            gap = 1.0 - kappa1(1.0, K3, B, 1.0)
            ratios.append(gap * K3 / np.log(B / K3 ** 2))
        assert max(ratios) < 4.0
        assert max(ratios) / min(ratios) < 1.5

    def test_kappa2_values(self):
        assert kappa2(0.9, 0.0, 10.0, 1.0) == 0.9
        assert kappa2(1.0, 10.0, 100.0, 1.0) == pytest.approx(
            1.0 - 20.0 / (np.pi * 1e4), rel=1e-12)

    def test_kappa2_default_scale(self):
        B = np.exp(20.0)
        cut = default_cutoffs(B, 1.0, B * 20.0 ** (-4.0 / 3.0))
        kap = kappa(B * 20.0 ** (-4.0 / 3.0), 1.0)
        gap = kap - kappa2(kap, cut.K3, cut.Kperp, 1.0)
        assert 0 < gap <= np.log(B) ** 3 / B


class TestCoupling:
    def test_peak_value(self):
        assert coupling_v(0.0, np.e) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_pointwise_bound(self):
        Kperp = 50.0
        k = np.linspace(0.0, 200.0, 20)
        assert np.all(coupling_v(k, Kperp) ** 2 <= 2 * np.pi * np.log(Kperp) + 1e-12)

    @pytest.mark.parametrize("lnB,alpha", [(8.0, 2.0), (12.0, 1.0),
                                           (20.0, 0.5), (30.0, 2.0)])
    def test_total_weight_closed_form_vs_quadrature(self, lnB, alpha):
        B = np.exp(lnB)
        cut = default_cutoffs(B, alpha, B * lnB ** (-4.0 / 3.0))
        assert total_coupling_weight(cut.K3, cut.Kperp) == pytest.approx(
            oracles.coupling_weight_quad(cut.K3, cut.Kperp), rel=1e-12)

    def test_total_weight_consistency_bound(self):
        K3, Kperp = 89.0, 1e4
        R = total_coupling_weight(K3, Kperp)
        assert R <= 2 * (2 * np.pi * K3 * np.log(Kperp))


class TestErrorTerms:
    def test_localization_at_pi(self):
        assert localization_error(np.pi) == pytest.approx(1.0, rel=1e-12)

    def test_block_error_mode_scaling(self):
        base = block_error(1.0, 50.0, 0.2, 0.5, 10, 1000.0)
        doubled = block_error(1.0, 50.0, 0.2, 0.5, 20, 1000.0)
        assert doubled == pytest.approx(base / 4.0, rel=1e-12)

    def test_block_error_monotone_in_gamma(self):
        vals = [block_error(1.0, 50.0, 0.2, g, 10, 1000.0)
                for g in (0.3, 0.6, 0.9)]
        assert vals[0] > vals[1] > vals[2]


class TestDefaultCutoffs:
    def test_values_at_e20(self):
        B = np.exp(20.0)
        K = B * 20.0 ** (-4.0 / 3.0)
        cut = default_cutoffs(B, 1.0, K)
        kap = kappa(K, 1.0)
        assert cut.Kperp == pytest.approx(np.exp(10.0), rel=1e-12)
        assert cut.K3 == pytest.approx(20.0 ** 1.5 / np.sqrt(kap), rel=1e-12)
        assert cut.M >= 1
        # the asymptotic-form condition gamma <= 1/2 is evaluated and (at
        # this B) genuinely fails; the certificate records it as advisory
        assert cut.gamma > 0.5
        cert = certify_projected(B, 1.0)
        assert cert.valid
        assert not cert.validity["gamma_at_most_half"]

    @pytest.mark.parametrize("lnB", [10.0, 14.0, 20.0])
    def test_mode_count_positive(self, lnB):
        B = np.exp(lnB)
        cut = default_cutoffs(B, 1.0, B * lnB ** (-4.0 / 3.0))
        assert cut.M >= 1

    def test_requires_large_B(self):
        with pytest.raises(ParameterError):
            default_cutoffs(100.0, 1.0, 1e3)

    def test_requires_wide_K(self):
        with pytest.raises(ParameterError):
            default_cutoffs(1e6, 1.0, 10.0)


class TestEffectiveInfimum:
    def test_above_analytic_floor(self):
        B = np.exp(16.0)
        cert = certify_projected(B, 1.0)
        floor = analytic_infimum_floor(
            cert.ledger.kappa1, cert.cutoffs.gamma, cert.cutoffs.Kperp, 1.0)
        assert floor <= cert.I_value <= 0.0

    def test_zero_coupling(self):
        cert = certify_projected(np.exp(12.0), 0.0)
        assert cert.I_value == 0.0

    def test_weak_coupling_certified(self):
        # b_tilde < 4 here: the weighted solve runs at unit width, not
        # refused for the width of its minimizer
        cert = certify_projected(np.exp(12.0), 0.001)
        assert cert.valid
        assert np.isfinite(cert.I_value) and cert.I_value < 0.0

    def test_weak_coupling_matches_wide_grid(self, monkeypatch):
        # at alpha = 0.01 the minimizer is ~60 wide at unit mass; a 4x wider
        # grid at the same spacing must not move I
        cert = certify_projected(np.exp(12.0), 0.01)
        monkeypatch.setattr(oned, "_GRID", Grid1D(4 * oned._GRID.n, 160.0))
        wide = certify_projected(np.exp(12.0), 0.01)
        assert cert.I_value == pytest.approx(wide.I_value, rel=1e-13, abs=0.0)

    def test_constant_weight_surrogate(self):
        # replacing the coupling by its peak reproduces the closed form
        from magpolaron import WeightedProblem, solve_weighted
        kap1, gamma, Kperp = 0.7, 0.4, np.exp(8.0)
        lam = 1.0 / (4 * np.pi ** 2 * (1 - gamma))
        w0 = 2 * np.pi * np.log(Kperp)
        wp = WeightedProblem(kap1, lam, lambda k: np.full(np.shape(k), w0), 1e9)
        sol = solve_weighted(wp)
        assert sol.energy == pytest.approx(
            analytic_infimum_floor(kap1, gamma, Kperp, 1.0), rel=1e-5)


class TestCertificate:
    @pytest.mark.parametrize("lnB, alpha, I_value, p0_bound", [
        (12.0, 1.0, -37.09442771583225, 162317.16912399614),
        (20.0, 2.0, -260.16264694031696, 485163877.08408004),
        (30.0, 0.5, -16.938595355301562, 10686474580144.71),
    ])
    def test_certify_numbers_pinned(self, lnB, alpha, I_value, p0_bound):
        # the weighted solve runs on oned's one grid to tol 1e-10; pinned so
        # that neither can drift
        cert = certify_projected(np.exp(lnB), alpha)
        assert cert.I_value == pytest.approx(I_value, rel=1e-13, abs=0.0)
        assert cert.p0_bound == p0_bound

    def test_alpha_zero_assembly(self):
        B = np.exp(12.0)
        cert = certify_projected(B, 0.0)
        led = cert.ledger
        expected = (led.kappa2 * B - led.mode_count_error
                    - led.localization_error - 1.0)
        assert cert.p0_bound == expected
        assert led.block_error == 0.0

    def test_envelope_at_e20(self):
        # own-oracle envelope: the exact error terms total well under
        # 120 x (alpha^2/48)(ln B)^2 at B = e^20
        B = np.exp(20.0)
        cert = certify_projected(B, 1.0)
        assert cert.valid
        assert B - cert.p0_bound <= 120.0 * (1.0 / 48.0) * 400.0
        assert B - cert.p0_bound > 0

    @pytest.mark.parametrize("lnB", [12.0, 16.0, 20.0])
    def test_sandwich_below_pekar_minimum(self, lnB):
        B = np.exp(lnB)
        cert = certify_projected(B, 1.0)
        _, breakdown = pekar_minimize(PhysParams(B, 1.0), tol=1e-10)
        assert cert.p0_bound < breakdown.total

    def test_ledger_exactness(self):
        cert = certify_projected(np.exp(16.0), 1.0)
        assert cert.recompute_bound() == cert.p0_bound

    def test_kappa_ordering(self):
        for lnB in (12.0, 20.0):
            cert = certify_projected(np.exp(lnB), 1.0)
            assert cert.ledger.kappa1 <= cert.ledger.kappa
            assert cert.ledger.kappa2 <= cert.ledger.kappa
            assert cert.ledger.kappa1 > 0

    def test_gap_ratio_decreasing(self):
        gaps = []
        for lnB in (12.0, 16.0, 20.0, 24.0):
            B = np.exp(lnB)
            cert = certify_projected(B, 1.0)
            gaps.append((B - cert.p0_bound) / lnB ** 2)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] >= 0.5 / 48.0

    def test_invalid_parameters_still_return_ledger(self):
        B = np.exp(12.0)
        # tiny K violates K >= sqrt(B) and makes kappa negative
        cut = CutoffParams(K=20.0, K3=10.0, Kperp=5.0, gamma=0.4, L=0.3, M=5)
        cert = certify_projected(B, 1.0, cutoffs=cut)
        assert not cert.valid
        assert cert.ledger.kappa < 1.0
        assert not cert.validity["K_at_least_sqrtB"]

    def test_serialization_roundtrip(self):
        import json
        cert = certify_projected(np.exp(12.0), 1.0)
        payload = certificate_to_dict(cert)
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["valid"] is True
        assert back["p0_bound"] == pytest.approx(cert.p0_bound, rel=1e-15)
        assert set(back["validity"]).issuperset(
            {"kappa1_positive", "gamma_in_range", "mode_count_at_least_one"})
        assert back["assumptions"]


class TestConditionalAndRough:
    def test_zero_constant(self):
        cert = certify_projected(np.exp(12.0), 1.0)
        assert conditional_full_bound(cert, 0.0) == cert.p0_bound - 0.25

    def test_firstcut_constant_from_ledger(self):
        cert = certify_projected(np.exp(12.0), 1.0)
        cert.ledger = dataclasses.replace(cert.ledger, firstcut_constant=0.5)
        assert conditional_full_bound(cert, 0.0) == cert.p0_bound - 0.5

    def test_penalty_shape(self):
        lnB = 16.0
        B = np.exp(lnB)
        cert = certify_projected(B, 1.0)  # K = B (ln B)^(-4/3)
        cm = 2.0
        penalty = cert.p0_bound - conditional_full_bound(cert, cm)
        # recovering the penalty by subtraction loses ~ulp(p0) ~ 1e-9
        assert penalty == pytest.approx(cm * lnB ** (4.0 / 3.0) + 0.25, abs=1e-7)

    def test_monotone_in_constant(self):
        cert = certify_projected(np.exp(12.0), 1.0)
        vals = [conditional_full_bound(cert, c) for c in (0.0, 1.0, 2.0)]
        assert vals[0] > vals[1] > vals[2]
