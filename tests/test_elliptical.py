"""Tests for the elliptical closed forms and the scalar trichotomy."""

import math

import numpy as np
import pytest

import oracles
from rhoarb.elliptical import (EllipticalMarket, classify_trichotomy,
                               critical_alpha, gaussian_rho_z, phase_curve_rows,
                               sr_max)
from rhoarb.gaussian import Phi_inv
from rhoarb.market import ScenarioMarket
from rhoarb.measures import eval_es


def _gauss_market(sr_value: float, d: int = 1) -> EllipticalMarket:
    # Unit covariance with mean excess sr/sqrt(d) per asset gives SR_max = sr.
    mean = np.full(d, sr_value / math.sqrt(d))
    return EllipticalMarket(mean=mean, cov=np.eye(d), riskless_rate=0.0)


# -- maximal Sharpe ratio -----------------------------------------------------


def test_sr_max_single_asset():
    market = EllipticalMarket(mean=[0.2], cov=[[0.04]], riskless_rate=0.0)
    sr, tangency = sr_max(market)
    assert abs(sr - 1.0) < 1e-12
    assert np.allclose(tangency, [5.0], atol=1e-12)


def test_sr_max_two_assets_identity_cov():
    market = EllipticalMarket(mean=[0.3, 0.4], cov=np.eye(2), riskless_rate=0.0)
    sr, tangency = sr_max(market)
    assert abs(sr - 0.5) < 1e-12
    assert np.allclose(tangency, [1.2, 1.6], atol=1e-12)
    # Tangency is normalized to unit expected excess.
    assert abs(tangency @ (market.mean - market.riskless_rate) - 1.0) < 1e-12


def test_sr_max_matches_sphere_search():
    rng = np.random.default_rng(149)
    for _ in range(3):
        d = 3
        mean = rng.uniform(-0.1, 0.3, d)
        root = rng.uniform(-1.0, 1.0, (d, d))
        cov = root @ root.T + 0.5 * np.eye(d)
        r = 0.01
        try:
            market = EllipticalMarket(mean=mean, cov=cov, riskless_rate=r)
        except ValueError:
            continue
        sr, _ = sr_max(market)
        ref = oracles.sr_sphere_grid(mean, cov, r, seed=7)
        assert abs(sr - ref) < 1e-3


def test_tangency_collinear_under_mean_rescaling():
    cov = np.array([[0.09, 0.02], [0.02, 0.05]])
    m1 = EllipticalMarket(mean=[0.1, 0.06], cov=cov, riskless_rate=0.02)
    a = m1.mean - 0.02
    m3 = EllipticalMarket(mean=0.02 + 3.0 * a, cov=cov, riskless_rate=0.02)
    _, t1 = sr_max(m1)
    _, t3 = sr_max(m3)
    assert np.allclose(3.0 * t3, t1, atol=1e-12)


# -- standardized Gaussian risk ------------------------------------------------


def test_gaussian_rho_z_goldens():
    assert gaussian_rho_z("VAR", 0.5) == 0.0
    assert abs(gaussian_rho_z("VAR", 0.05) - 1.6448536) < 1e-7
    assert abs(gaussian_rho_z("ES", 0.025) - 2.337803) < 1e-6


def test_gaussian_rho_z_matches_scipy():
    for alpha in (0.01, 0.025, 0.05, 0.1, 0.5, 0.9):
        assert abs(gaussian_rho_z("VAR", alpha) + oracles.norm_ppf(alpha)) < 1e-9
        assert abs(gaussian_rho_z("ES", alpha) - oracles.norm_es(alpha)) < 1e-8


def test_gaussian_rho_z_validation():
    with pytest.raises(ValueError):
        gaussian_rho_z("ES", 0.0)
    with pytest.raises(ValueError):
        gaussian_rho_z("WC", 0.3)


def test_elliptical_input_validation():
    with pytest.raises(ValueError, match=r"mean must be \(d,\) and cov \(d, d\)"):
        EllipticalMarket(mean=[0.1, 0.2], cov=[[1.0]], riskless_rate=0.0)
    # classify_trichotomy needs alpha when rho_z is not fixed.
    with pytest.raises(ValueError, match="alpha is required"):
        classify_trichotomy(_gauss_market(1.0), "ES")


def test_zero_standardized_risk_is_strong_for_every_mean_and_covariance():
    market = EllipticalMarket(mean=[0.3, 0.4], cov=[[0.04, 0.01], [0.01, 0.09]],
                              riskless_rate=0.0, rho_z=0.0)
    verdict, rho1 = classify_trichotomy(market)
    assert rho1 == -1.0 == verdict.rho1
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"
    assert verdict.annotations == ("STRONG_FOR_EVERY_MEAN_AND_COVARIANCE",)
    cert = verdict.certificate
    assert cert["rho_z"] == 0.0 and cert["rho"] == -1.0
    assert cert["portfolio"] == cert["tangency"]


# -- trichotomy ----------------------------------------------------------------


def test_classify_high_sharpe_es_is_strong():
    verdict, rho1 = classify_trichotomy(_gauss_market(2.5), "ES", 0.025)
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"
    assert rho1 < 0.0


def test_classify_moderate_sharpe_es_is_safe():
    verdict, rho1 = classify_trichotomy(_gauss_market(1.0), "ES", 0.05)
    assert verdict.verdict == "NO_ARBITRAGE"
    assert abs(rho1 - 1.0627128) < 1e-6


def test_classify_negative_threshold_var():
    # VaR beyond the median has a negative threshold: strong arbitrage for
    # every mean and covariance, and no optimal portfolio in d >= 2.
    verdict, rho1 = classify_trichotomy(_gauss_market(0.8, d=2), "VAR", 0.6)
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"
    assert rho1 == -math.inf
    assert "OPTIMAL_PORTFOLIOS_DO_NOT_EXIST" in verdict.annotations
    assert "STRONG_FOR_EVERY_MEAN_AND_COVARIANCE" in verdict.annotations


def test_classify_boundary_is_rho_arbitrage():
    sr_value = gaussian_rho_z("ES", 0.1)
    verdict, rho1 = classify_trichotomy(_gauss_market(sr_value), "ES", 0.1)
    assert verdict.verdict == "RHO_ARBITRAGE"
    assert abs(rho1) < 1e-9
    assert "BOUNDARY" in verdict.annotations


def test_classify_uses_fixed_rho_z_override():
    market = EllipticalMarket(mean=[0.3], cov=[[0.09]], riskless_rate=0.0,
                              rho_z=3.0)
    verdict, rho1 = classify_trichotomy(market)
    assert verdict.verdict == "NO_ARBITRAGE"
    assert abs(rho1 - 2.0) < 1e-12  # -1 + 3.0 / 1.0


# -- critical level --------------------------------------------------------------


def test_critical_alpha_es_golden():
    a_star = critical_alpha(2.5, "ES")
    assert 0.0155 <= a_star <= 0.0165
    assert abs(gaussian_rho_z("ES", a_star) - 2.5) < 1e-7


def test_critical_alpha_var_matches_normal_cdf():
    a_star = critical_alpha(0.2, "VAR")
    assert abs(a_star - oracles.norm_cdf(-0.2)) < 1e-9


def test_critical_alpha_round_trip():
    for measure in ("ES", "VAR"):
        sr_value = gaussian_rho_z(measure, 0.07)
        assert abs(critical_alpha(sr_value, measure) - 0.07) < 1e-8


def test_critical_alpha_rejects_unattainable_sr():
    with pytest.raises(ValueError):
        critical_alpha(-1.0)
    with pytest.raises(ValueError):
        critical_alpha(1e9, "ES")


# -- phase curve ------------------------------------------------------------------


def test_phase_thresholds_strictly_decreasing():
    alphas = np.linspace(0.01, 0.99, 99)
    rows = phase_curve_rows(alphas)
    es_t = [row[1] for row in rows]
    var_t = [row[2] for row in rows]
    assert all(b < a for a, b in zip(es_t, es_t[1:]))
    assert all(b < a for a, b in zip(var_t, var_t[1:]))
    assert gaussian_rho_z("VAR", 0.5) == 0.0
    assert gaussian_rho_z("VAR", 0.499) > 0.0 > gaussian_rho_z("VAR", 0.501)


def test_phase_rows_carry_verdicts():
    rows = phase_curve_rows([0.01, 0.5, 0.9], sr_value=2.5)
    assert rows[0][3] == "NO_ARBITRAGE"          # ES threshold ~2.665 > 2.5
    assert rows[1][3] == "STRONG_RHO_ARBITRAGE"  # ES threshold ~0.798
    assert rows[2][4] == "STRONG_RHO_ARBITRAGE"  # VaR threshold < 0


# -- agreement with the scenario machinery ------------------------------------------


def test_es_location_scale_identity_on_discretized_gaussian():
    # ES(X) = -E[X] + ES(Z) sigma(X) for Gaussian X; check on a quantile
    # midpoint discretization, where the identity holds up to O(1/N) tail
    # truncation error.
    n = 8001
    mu, sigma = 0.08, 0.2
    u = (np.arange(n) + 0.5) / n
    x = mu + sigma * np.array([Phi_inv(v) for v in u])
    probs = np.full(n, 1.0 / n)
    for alpha in (0.1, 0.3):
        direct = eval_es(x, probs, alpha)
        mean = float(probs @ x)
        std = math.sqrt(float(probs @ (x - mean) ** 2))
        closed = -mean + gaussian_rho_z("ES", alpha) * std
        assert abs(direct - closed) < 1e-2 * max(1.0, abs(closed))


def test_validation_errors():
    with pytest.raises(ValueError):
        EllipticalMarket(mean=[0.1, 0.2], cov=[[1.0, 0.5], [0.2, 1.0]],
                         riskless_rate=0.0)
    with pytest.raises(ValueError):
        EllipticalMarket(mean=[0.1, 0.2], cov=[[1.0, 2.0], [2.0, 1.0]],
                         riskless_rate=0.0)
    with pytest.raises(ValueError):
        EllipticalMarket(mean=[0.03, 0.03], cov=np.eye(2), riskless_rate=0.03)
