"""Tests for the shortfall LP, rho1 computation, and primal classification."""

import math

import numpy as np
import pytest
from scipy import optimize

import oracles
from conftest import (binomial_market, duo_market, make_dominating_market,
                      make_random_market)
from oracles import build_ru_lp
from rhoarb.frontier import (FrontierResult, UnsupportedGlobalMinError, classify_primal,
                             compute_rho1, frontier_points)
from rhoarb.lp import lp_solve
from rhoarb.market import canonical_portfolio, excess_return
from rhoarb.measures import RiskSpec, eval_es, eval_evar, eval_tnorm, evaluate


# -- Rockafellar-Uryasev shortfall LP ------------------------------------------


def test_ru_lp_binomial_values():
    market = binomial_market()
    sol = lp_solve(build_ru_lp(market, 0.5, 1.0))
    assert sol.status == "OPTIMAL"
    assert abs(sol.value) < 1e-9
    sol = lp_solve(build_ru_lp(market, 0.75, 1.0))
    assert abs(sol.value + 2.0 / 3.0) < 1e-9


def test_ru_lp_zero_level_is_riskless():
    rng = np.random.default_rng(63)
    for _ in range(5):
        market = make_random_market(rng, n_max=6, d_max=3)
        sol = lp_solve(build_ru_lp(market, 0.35, 0.0))
        assert sol.status == "OPTIMAL"
        assert abs(sol.value) < 1e-9
        assert np.max(np.abs(sol.x[:market.n_assets])) < 1e-7


def test_ru_lp_matches_sort_evaluation():
    # LP optimum equals the sort-based ES of the returned portfolio.
    rng = np.random.default_rng(67)
    for _ in range(15):
        market = make_random_market(rng, n_max=8, d_max=3)
        alpha = float(rng.uniform(0.1, 0.9))
        sol = lp_solve(build_ru_lp(market, alpha, 1.0))
        assert sol.status == "OPTIMAL"
        pi = sol.x[:market.n_assets]
        direct = eval_es(excess_return(market, pi), market.probs, alpha)
        assert abs(sol.value - direct) < 1e-9


# -- compute_rho1 ----------------------------------------------------------------


def test_rho1_binomial_es_boundary():
    res = compute_rho1(binomial_market(), RiskSpec.es(0.5))
    assert abs(res.rho1) < 1e-12
    assert res.attained
    assert np.allclose(res.argmin, [2.0], atol=1e-9)


def test_rho1_duo_es_levels():
    res = compute_rho1(duo_market(), RiskSpec.es(0.25))
    assert abs(res.rho1 - 2.0) < 1e-12
    assert np.allclose(res.argmin, [2.0], atol=1e-9)
    res = compute_rho1(duo_market(), RiskSpec.es(0.75))
    assert abs(res.rho1) < 1e-12


def test_rho1_unsupported_measures_raise():
    with pytest.raises(UnsupportedGlobalMinError):
        compute_rho1(binomial_market(), RiskSpec.var(0.3))
    with pytest.raises(UnsupportedGlobalMinError):
        compute_rho1(binomial_market(), RiskSpec.entropic(0.5))


def test_rho1_single_asset_uses_direct_route():
    res = compute_rho1(binomial_market(), RiskSpec.es(0.5))
    assert res.route == "DIRECT"
    rng = np.random.default_rng(69)
    market = make_random_market(rng, n_max=6, d_max=3)
    while market.n_assets < 2:
        market = make_random_market(rng, n_max=6, d_max=3)
    assert compute_rho1(market, RiskSpec.es(0.5)).route == "LP"
    assert compute_rho1(market, RiskSpec.evar(0.5)).route == "ROOT"
    assert compute_rho1(market, RiskSpec.tnorm(2, 0.5)).route == "ROOT"


def test_rho1_homogeneity_in_level():
    # Direct LP solves at nu in {0.5, 2, 7} equal nu * rho1 within 1e-8.
    rng = np.random.default_rng(71)
    for _ in range(5):
        market = make_random_market(rng, n_max=8, d_max=3)
        alpha = float(rng.uniform(0.15, 0.85))
        rho1 = lp_solve(build_ru_lp(market, alpha, 1.0)).value
        for nu in (0.5, 2.0, 7.0):
            val = lp_solve(build_ru_lp(market, alpha, nu)).value
            assert abs(val - nu * rho1) < 1e-8


def test_rho1_es_monotone_as_alpha_decreases():
    # Smaller alpha is more conservative: rho1 is nonincreasing in alpha.
    rng = np.random.default_rng(73)
    alphas = (0.1, 0.25, 0.5, 0.75, 0.9)
    for _ in range(10):
        market = make_random_market(rng, n_max=8, d_max=3)
        vals = [compute_rho1(market, RiskSpec.es(a)).rho1 for a in alphas]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-9


def test_rho1_spectral_between_atom_values():
    rng = np.random.default_rng(77)
    for _ in range(5):
        market = make_random_market(rng, n_max=7, d_max=2)
        spec = RiskSpec.spectral([(0.25, 0.5), (0.75, 0.5)])
        mix = compute_rho1(market, spec).rho1
        lo = compute_rho1(market, RiskSpec.es(0.75)).rho1
        hi = compute_rho1(market, RiskSpec.es(0.25)).rho1
        assert lo - 1e-9 <= mix <= hi + 1e-9


def _slice_oracle_min(market, evaluator, tol=1e-10):
    """Independent rho1 for d = 2: Brent search on the one-parameter slice."""
    a = market.mean_returns - market.riskless_rate
    pi0 = canonical_portfolio(market, 1.0)
    normal = np.array([-a[1], a[0]]) / float(a @ a)

    def g(t):
        x = excess_return(market, pi0 + t * normal)
        return evaluator(x)

    res = optimize.minimize_scalar(g, bounds=(-200.0, 200.0), method="bounded",
                                   options={"xatol": tol})
    return float(res.fun)


def test_rho1_evar_matches_slice_search():
    rng = np.random.default_rng(79)
    done = 0
    while done < 4:
        market = make_random_market(rng, n_max=5, d_max=2)
        if market.n_assets != 2:
            continue
        alpha = float(rng.uniform(0.3, 0.9))
        res = compute_rho1(market, RiskSpec.evar(alpha))
        ref = _slice_oracle_min(
            market, lambda x: eval_evar(x, market.probs, alpha))
        assert abs(res.rho1 - ref) < 1e-5, (res.rho1, ref)
        done += 1


def test_rho1_tnorm_matches_slice_search():
    rng = np.random.default_rng(83)
    done = 0
    while done < 4:
        market = make_random_market(rng, n_max=5, d_max=2)
        if market.n_assets != 2:
            continue
        alpha = float(rng.uniform(0.3, 0.9))
        p = float(rng.uniform(1.5, 3.0))
        res = compute_rho1(market, RiskSpec.tnorm(p, alpha))
        ref = _slice_oracle_min(
            market, lambda x: eval_tnorm(x, market.probs, p, alpha))
        assert abs(res.rho1 - ref) < 1e-5, (res.rho1, ref)
        done += 1


# -- frontier boundary -------------------------------------------------------------


def _result(rho1, attained=True):
    return FrontierResult(rho1=rho1, attained=attained, argmin=None,
                          spec=RiskSpec.es(0.5), route="LP")


def test_frontier_points_positive_slope():
    pts = frontier_points(_result(2.0), [0.0, 1.0, 3.0])
    assert pts == [(0.0, 0.0), (1.0, 2.0), (3.0, 6.0)]
    assert _result(2.0).efficient_frontier_exists


def test_frontier_points_zero_slope():
    pts = frontier_points(_result(0.0), [0.0, 1.0, 2.0])
    assert pts == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    assert not _result(0.0).efficient_frontier_exists


def test_frontier_points_negative_slope():
    pts = frontier_points(_result(-0.5), [1.0, 2.0])
    assert pts == [(1.0, -0.5), (2.0, -1.0)]
    assert not _result(-0.5).efficient_frontier_exists


def test_frontier_points_rejects_bad_levels():
    for bad in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            frontier_points(_result(1.0), [0.0, bad])
    with pytest.raises(ValueError):
        frontier_points(_result(-math.inf), [1.0])


# -- classification -----------------------------------------------------------------


def test_classify_binomial_boundary_is_rho_arbitrage():
    verdict = classify_primal(compute_rho1(binomial_market(), RiskSpec.es(0.5)))
    assert verdict.verdict == "RHO_ARBITRAGE"
    assert "BOUNDARY" in verdict.annotations


def test_classify_binomial_strong():
    verdict = classify_primal(compute_rho1(binomial_market(), RiskSpec.es(0.75)))
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"


def test_classify_duo_no_arbitrage():
    verdict = classify_primal(compute_rho1(duo_market(), RiskSpec.es(0.25)))
    assert verdict.verdict == "NO_ARBITRAGE"
    assert verdict.rho1 == pytest.approx(2.0, abs=1e-9)


def test_classify_unattained_zero_infimum_is_no_arbitrage():
    # rho1 = 0 within tol with no minimizer: no optimal portfolio to scale.
    verdict = classify_primal(_result(1e-9, attained=False))
    assert verdict.verdict == "NO_ARBITRAGE"
    assert verdict.annotations == ("BOUNDARY", "INFIMUM_NOT_ATTAINED")


def test_classify_minus_inf_is_strong():
    verdict = classify_primal(_result(-math.inf, attained=False))
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"


def test_strong_certificate_portfolio_is_valid():
    # Whenever STRONG is returned the certificate portfolio must have
    # strictly negative risk and positive expected excess return.
    rng = np.random.default_rng(87)
    found = 0
    for _ in range(200):
        market = make_random_market(rng, n_max=7, d_max=3)
        alpha = float(rng.uniform(0.5, 0.95))
        spec = RiskSpec.es(alpha)
        verdict = classify_primal(compute_rho1(market, spec))
        if verdict.verdict != "STRONG_RHO_ARBITRAGE":
            continue
        pi = np.asarray(verdict.certificate["portfolio"])
        x = excess_return(market, pi)
        assert evaluate(spec, x, market.probs) < -1e-9
        assert float(market.probs @ x) > 0.0
        found += 1
    assert found >= 5


def test_wc_flags_first_kind_arbitrage():
    rng = np.random.default_rng(91)
    for _ in range(5):
        market = make_dominating_market(rng)
        verdict = classify_primal(compute_rho1(market, RiskSpec.wc()))
        assert verdict.verdict != "NO_ARBITRAGE"
