import dataclasses

import numpy as np
import pytest

from magpolaron import certificate, oned
from magpolaron import (CutoffParams, Grid1D, ParameterError, PhysParams,
                        analytic_infimum_floor, certificate_to_dict,
                        certify_projected, conditional_full_bound,
                        default_cutoffs, pekar_minimize, solve_weighted)
from magpolaron.certificate import (_block_error, _coupling_v, _kappa, _kappa1,
                                    _kappa2, _localization_error,
                                    total_coupling_weight)
from magpolaron.special import exp_scaled_e1

import oracles


class TestKappaChain:
    def test_kappa_half(self):
        alpha = 1.3
        assert _kappa(16 * alpha / np.pi, alpha) == pytest.approx(0.5, rel=1e-12)

    def test_kappa_limit(self):
        assert _kappa(1e12, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_kappa_standard_choice(self):
        B, alpha = np.exp(20.0), 1.0
        K = B * 20.0 ** (-4.0 / 3.0)
        # own arithmetic: 1 - kappa = 8 alpha (ln B)^(4/3) / (pi B)
        expected_gap = 8 * alpha * 20.0 ** (4.0 / 3.0) / (np.pi * B)
        assert 1.0 - _kappa(K, alpha) == pytest.approx(expected_gap, rel=1e-12)
        assert expected_gap == pytest.approx(2.849e-7, rel=1e-3)

    def test_kappa_domain(self):
        # kappa is the raw value; default_cutoffs refuses K <= 8 alpha/pi
        assert _kappa(200.0, 100.0) < 0
        with pytest.raises(ParameterError, match="8\\*alpha/pi"):
            default_cutoffs(np.exp(10.0), 100.0, 200.0)

    def test_kappa1_integral_identity(self):
        # the cutoff integral equals e^x E1(x); x=1 case against quadrature
        assert exp_scaled_e1(1.0) == pytest.approx(
            oracles.exp_scaled_e1_quad(1.0), rel=1e-11)
        assert exp_scaled_e1(1.0) == pytest.approx(0.5963473623, rel=1e-9)
        B, K3, alpha = 200.0, 20.0, 1.0  # x = 1
        val = _kappa1(1.0, K3, B, alpha)
        assert val == pytest.approx(
            1.0 - 8 * alpha / (np.pi * K3) * 0.5963473623231946, rel=1e-12)

    def test_kappa1_dominated_decay(self):
        # K3^2 >> B: the correction collapses like 2B/K3^2
        B, K3 = 10.0, 1e4
        gap = 1.0 - _kappa1(1.0, K3, B, 1.0)
        expected = (8 / (np.pi * K3)) * (2 * B / K3 ** 2)
        assert gap == pytest.approx(expected, rel=1e-3)

    def test_kappa1_coarse_bound_ratio(self):
        # kappa - kappa1 <= (C/K3) ln(B/K3^2) with a stable fitted C
        ratios = []
        for lnB in (12.0, 16.0, 20.0, 24.0):
            B = np.exp(lnB)
            K3 = lnB ** 1.5
            gap = 1.0 - _kappa1(1.0, K3, B, 1.0)
            ratios.append(gap * K3 / np.log(B / K3 ** 2))
        assert max(ratios) < 4.0
        assert max(ratios) / min(ratios) < 1.5

    def test_kappa1_where_the_ratio_underflows(self):
        # x = K3^2/(2B) = 2.6e-431 is 0 in doubles; e^x E1(x) = -gamma - ln x
        # from ln K3 and ln B, against 40-digit mpmath
        B, K3 = float(np.exp(300.0)), 1e-150
        assert K3 * K3 / B == 0.0
        assert _kappa1(1.0, K3, B, 1.0) == pytest.approx(
            oracles.kappa1_mp(1.0, K3, B, 1.0), rel=1e-14)

    @pytest.mark.parametrize("lnB", [708.7, 709.5, 709.78])
    def test_kappas_at_the_top_of_the_B_range(self, lnB):
        # pi Kperp^2 = pi B overflows from ln B ~ 708.64 and 2B from 709.09;
        # each term takes its value without a numpy warning
        B = float(np.exp(lnB))
        cut = default_cutoffs(B, 1.0)
        kap = _kappa(cut.K, 1.0)
        with np.errstate(all="raise"):
            assert _kappa2(kap, cut.K3, cut.Kperp, 1.0) == kap
            k1 = _kappa1(kap, cut.K3, B, 1.0)
        assert k1 == pytest.approx(oracles.kappa1_mp(kap, cut.K3, B, 1.0),
                                   rel=1e-15)

    def test_kappa2_values(self):
        assert _kappa2(0.9, 0.0, 10.0, 1.0) == 0.9
        assert _kappa2(1.0, 10.0, 100.0, 1.0) == pytest.approx(
            1.0 - 20.0 / (np.pi * 1e4), rel=1e-12)

    def test_kappa2_default_scale(self):
        B = np.exp(20.0)
        cut = default_cutoffs(B, 1.0, B * 20.0 ** (-4.0 / 3.0))
        kap = _kappa(B * 20.0 ** (-4.0 / 3.0), 1.0)
        gap = kap - _kappa2(kap, cut.K3, cut.Kperp, 1.0)
        assert 0 < gap <= np.log(B) ** 3 / B


class TestCoupling:
    def test_peak_value(self):
        assert _coupling_v(0.0, np.e) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_pointwise_bound(self):
        Kperp = 50.0
        k = np.linspace(0.0, 200.0, 20)
        assert np.all(_coupling_v(k, Kperp) ** 2 <= 2 * np.pi * np.log(Kperp) + 1e-12)

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
        assert _localization_error(np.pi) == pytest.approx(1.0, rel=1e-12)

    def test_block_error_mode_scaling(self):
        base = _block_error(1.0, 50.0, 0.2, 0.5, 10, 1000.0)
        doubled = _block_error(1.0, 50.0, 0.2, 0.5, 20, 1000.0)
        assert doubled == pytest.approx(base / 4.0, rel=1e-12)

    def test_block_error_monotone_in_gamma(self):
        vals = [_block_error(1.0, 50.0, 0.2, g, 10, 1000.0)
                for g in (0.3, 0.6, 0.9)]
        assert vals[0] > vals[1] > vals[2]


class TestDefaultCutoffs:
    def test_values_at_e20(self):
        B = np.exp(20.0)
        K = B * 20.0 ** (-4.0 / 3.0)
        cut = default_cutoffs(B, 1.0, K)
        kap = _kappa(K, 1.0)
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

    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_requires_gamma_below_one(self, alpha):
        # gamma = 2^1.4 sqrt(kappa/ln B) reaches 1 at ln B = 2^2.8 kappa,
        # 6.96 kappa: refused here, naming B and alpha, not by CutoffParams
        with pytest.raises(ParameterError, match=r"2\^2.8 kappa.*B = 1000, "
                           f"alpha = {alpha:g}"):
            default_cutoffs(1e3, alpha)
        assert default_cutoffs(1e3, 0.3).gamma < 1

    def test_requires_wide_K(self):
        with pytest.raises(ParameterError):
            default_cutoffs(1e6, 1.0, 10.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
    def test_refuses_bad_coupling(self, alpha):
        # NaN was refused for its K, and -1 got cutoffs
        with pytest.raises(ParameterError, match="alpha must be finite"):
            default_cutoffs(np.exp(12.0), alpha)


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

    def test_unit_Kperp_has_no_attraction(self):
        # v(k)^2 = pi ln((1 + k^2)/(1 + k^2)) = 0: no flow runs, I = 0
        B = np.exp(12.0)
        cut = dataclasses.replace(default_cutoffs(B, 1.0), Kperp=1.0)
        assert certify_projected(B, 1.0, cut).I_value == 0.0

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

    def test_cutoff_spans_the_dual_cells_on_the_ladder(self, monkeypatch):
        # mu <= K3 gives the flow's grid dk = pi mu/40 <= pi K3/40 over the
        # certify ladder (ln B 7.75..30.25, alpha 0.5, 1, 2), so K3 spans
        # 40/pi dual cells and the m = 0 cell lies inside it; with mu = b/4
        # alone K3/dk fell to 5.0 there
        ratios = []

        def capture(mu, akin, weight, lam, tol):
            grid = oned._scaled_grid(mu)
            ratios.append(cutoffs.K3 * grid.half_width / np.pi)
            assert weight(grid)[0] == _coupling_v(0.0, cutoffs.Kperp) ** 2
            return oned.OneDSolution(0.0, None, 0, 0.0)

        monkeypatch.setattr(certificate, "solve_weighted", capture)
        for lnB in np.arange(7.75, 30.5, 0.25):
            for alpha in (0.5, 1.0, 2.0):
                cutoffs = default_cutoffs(np.exp(lnB), alpha)
                certify_projected(np.exp(lnB), alpha, cutoffs)
        assert len(ratios) == 91 * 3
        assert min(ratios) >= 40.0 / np.pi * (1.0 - 1e-15)

    def test_constant_weight_surrogate(self):
        # replacing the coupling by its peak reproduces the closed form
        kap1, gamma, Kperp = 0.7, 0.4, np.exp(8.0)
        lam = 1.0 / (4 * np.pi ** 2 * (1 - gamma))
        w0 = 2 * np.pi * np.log(Kperp)
        mu = 2 * np.pi * lam * w0 / kap1 / 4.0
        sol = solve_weighted(
            mu, kap1, lambda grid: np.full(grid.n // 2 + 1, w0), lam, 1e-10)
        assert sol.energy == pytest.approx(
            analytic_infimum_floor(kap1, gamma, Kperp, 1.0), rel=1e-5)


class TestCertificate:
    @pytest.mark.parametrize("lnB, alpha, I_value, p0_bound", [
        # at (8, 2) the 4x wider grid gives -211.417 (mu = K3 here; at
        # mu = b/4 the cutoff spanned 5.9 dual cells and I was -214.591)
        (8.0, 2.0, -211.5831695479932, 2487.797361002132),
        (12.0, 1.0, -37.09442771621215, 162317.16912399576),
        (20.0, 2.0, -260.1626469474464, 485163877.08408004),
        (30.0, 0.5, -16.938595355317712, 10686474580144.71),
    ], ids=["e8-a2", "e12-a1", "e20-a2", "e30-a0.5"])
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


def _numpy_cutoffs(B, alpha):
    """default_cutoffs' formulas in numpy scalars: the reference its Python
    floats reproduce bit for bit."""
    K = B * np.log(B) ** (-4.0 / 3.0)
    kap, lnB, Kperp = _kappa(K, alpha), np.log(B), np.sqrt(B)
    K3 = kap ** -0.5 * lnB ** 1.5
    ln_kp = np.log(Kperp)
    L2 = kap ** 0.2 * K3 ** -0.6 * ln_kp ** -0.6
    return (K, K3, Kperp, kap ** 0.8 * K3 ** 0.6 * ln_kp ** -1.4,
            float(np.sqrt(L2)), max(1, int(np.floor(1.0 / L2))))


def _clip_weight(grid, cutoffs):
    """The certificate's weight v^2 frac in its np.clip form."""
    k, dk = grid.wavenumbers(), np.pi / grid.half_width
    frac = np.clip((cutoffs.K3 - (k - dk / 2)) / dk, 0.0, 1.0)
    val = np.log(cutoffs.Kperp ** 2 + k ** 2) - np.log1p(k ** 2)
    return np.sqrt(np.pi * np.clip(val, 0.0, None)) ** 2 * frac


class TestLedgerBits:
    """The scalar ledger runs in Python floats and the weight's cutoffs in
    np.maximum/np.minimum; every bit is the numpy and np.clip forms'."""

    LNB = [7.0, 8.0, 13.7, 20.0, 30.0, 100.0, 400.0, 709.0]

    @pytest.mark.parametrize("lnB", LNB)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_default_cutoffs(self, lnB, alpha):
        B = np.exp(lnB)
        cut = default_cutoffs(B, alpha)
        assert (cut.K, cut.K3, cut.Kperp, cut.gamma, cut.L, cut.M) == \
            _numpy_cutoffs(B, alpha)
        v0 = np.sqrt(np.pi * np.clip(np.log(cut.Kperp ** 2 + 0.0)
                                     - np.log1p(0.0), 0.0, None))
        assert _coupling_v(0.0, cut.Kperp) == float(v0)

    def test_weight(self, monkeypatch):
        weights = []

        def capture(mu, akin, weight, lam, tol):
            grid = oned._scaled_grid(mu)
            weights.append((weight(grid), _clip_weight(grid, cutoffs)))
            return oned.OneDSolution(0.0, None, 0, 0.0)

        monkeypatch.setattr(certificate, "solve_weighted", capture)
        for lnB in self.LNB:
            for alpha in (0.5, 1.0, 2.0, 4.0):
                cutoffs = default_cutoffs(np.exp(lnB), alpha)
                certify_projected(np.exp(lnB), alpha, cutoffs)
        assert len(weights) >= 3 * len(self.LNB)  # some kappa1 <= 0
        for got, ref in weights:
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_scalar_exp_scaled_e1(self):
        x = np.exp(np.linspace(-700.0, np.log(499.0), 4001))
        scalar = [float(exp_scaled_e1(float(v))) for v in x]
        assert scalar == exp_scaled_e1(x).tolist()
