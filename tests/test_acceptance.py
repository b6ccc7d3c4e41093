"""End-to-end acceptance checks.

Each test is one gate: a closed-form model, an oracle comparison, or a
bulk agreement sweep.  Tolerances and runtime caps are asserted inside
the tests so a `pytest -v` run gives one pass/fail line per gate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import (binomial_market, make_dominating_market,
                      make_priced_market, make_random_market)
from oracles import build_ru_lp
from rhoarb.dual import classical_no_arbitrage, classify_dual, cross_validate, es_min_supnorm
from rhoarb.elliptical import EllipticalMarket, classify_trichotomy, critical_alpha, gaussian_rho_z
from rhoarb.frontier import _penalty_min, classify_primal, compute_rho1
from rhoarb.lp import LinearProgram, lp_solve
from rhoarb.market import ScenarioMarket
from rhoarb.measures import RiskSpec, eval_es, eval_var, eval_wc, evaluate

DUO_ENTROPY = 0.0566330122651324


def _random_vector(rng, n_max):
    n = int(rng.integers(2, n_max + 1))
    x = rng.uniform(-2.0, 2.0, size=n)
    probs = rng.uniform(0.05, 1.0, size=n)
    return x, probs / probs.sum()


# 1. Binomial model: the full classification grid in both routes.

def test_binomial_model_full_classification():
    start = time.perf_counter()
    market = binomial_market()
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
        res = compute_rho1(market, RiskSpec.es(alpha))
        assert abs(res.rho1) < 1e-9
        assert classify_primal(res).verdict == "RHO_ARBITRAGE"
    for alpha in (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9):
        res = compute_rho1(market, RiskSpec.es(alpha))
        assert abs(res.rho1 - (1.0 - 2.0 * alpha) / alpha) < 1e-9
        assert classify_primal(res).verdict == "STRONG_RHO_ARBITRAGE"
    sup = es_min_supnorm(market)
    assert abs(sup.t - 2.0) < 1e-9
    assert abs(classical_no_arbitrage(market).delta) < 1e-9
    assert time.perf_counter() - start < 1.0


# 2. Phase transition: the critical level of a steep Gaussian market.

def test_phase_transition_critical_level():
    start = time.perf_counter()
    a_star = critical_alpha(2.5, "ES")
    assert 0.0155 <= a_star <= 0.0165
    market = EllipticalMarket(mean=[0.5], cov=[[0.04]], riskless_rate=0.0)
    verdict, _ = classify_trichotomy(market, "ES", 0.025)
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"
    assert time.perf_counter() - start < 1.0


# 3. Gaussian thresholds against quadrature oracles.

def test_gaussian_thresholds_match_independent_oracles():
    for alpha in (0.01, 0.025, 0.05, 0.1, 0.5, 0.9):
        assert abs(gaussian_rho_z("VAR", alpha) - (-oracles.norm_ppf(alpha))) < 1e-7
        assert abs(gaussian_rho_z("ES", alpha) - oracles.norm_es(alpha)) < 1e-6


# 4. Primal and dual routes agree on a bulk random sweep.

def test_primal_dual_agreement_on_random_markets():
    start = time.perf_counter()
    rng = np.random.default_rng(20260401)
    for _ in range(200):
        market = make_random_market(rng)
        for alpha in (0.1, 0.3, 0.5, 0.9):
            cross = cross_validate(market, RiskSpec.es(alpha))
            assert cross.status in ("AGREE", "BOUNDARY_AGREE")
    assert time.perf_counter() - start < 30.0


# 5. Sorted-tail expected shortfall equals its shortfall linear program.

def test_es_sort_evaluation_equals_shortfall_lp():
    rng = np.random.default_rng(7151)
    for _ in range(1000):
        x, probs = _random_vector(rng, 50)
        alpha = float(rng.uniform(0.02, 0.98))
        n = x.size
        c = np.concatenate(([1.0], probs / alpha))
        A_le = np.hstack([-np.ones((n, 1)), -np.eye(n)])
        lower = np.concatenate(([-np.inf], np.zeros(n)))
        sol = lp_solve(LinearProgram(c=c, A_le=A_le, b_le=x, lower=lower))
        assert sol.status == "OPTIMAL"
        assert abs(eval_es(x, probs, alpha) - sol.value) < 1e-9


# 6. Coherence axioms and the measure ordering chain on random inputs.

def test_coherence_and_ordering_axioms():
    rng = np.random.default_rng(90210)
    tol = 1e-9
    for _ in range(500):
        x, probs = _random_vector(rng, 12)
        alpha = float(rng.uniform(0.05, 0.95))
        a2 = float(rng.uniform(0.05, 0.95))
        p_exp = float(rng.uniform(1.2, 4.0))
        specs = [RiskSpec.wc(), RiskSpec.var(alpha), RiskSpec.es(alpha),
                 RiskSpec.spectral(((alpha, 0.6), (a2, 0.4))),
                 RiskSpec.evar(alpha), RiskSpec.tnorm(p_exp, alpha)]
        bump = rng.uniform(0.0, 1.0, size=x.size)
        y = rng.uniform(-2.0, 2.0, size=x.size)
        cash = float(rng.uniform(-1.5, 1.5))
        lam = float(rng.uniform(0.1, 5.0))
        for spec in specs:
            rx = evaluate(spec, x, probs)
            assert evaluate(spec, x + bump, probs) <= rx + tol
            assert abs(evaluate(spec, x + cash, probs) - (rx - cash)) < tol
            assert abs(evaluate(spec, lam * x, probs) - lam * rx) < tol * max(1.0, lam)
            if spec.kind != "VAR":
                ry = evaluate(spec, y, probs)
                assert evaluate(spec, x + y, probs) <= rx + ry + tol
                assert rx >= float(probs @ (-x)) - tol
        assert eval_var(x, probs, alpha) <= eval_es(x, probs, alpha) + tol
        assert eval_es(x, probs, alpha) <= eval_wc(x) + tol


# 7. The frontier scales linearly in the return level.

def test_frontier_homogeneity_in_level():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        market = make_random_market(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        rho1 = compute_rho1(market, RiskSpec.es(alpha)).rho1
        for nu in (0.5, 2.0, 7.0):
            sol = lp_solve(build_ru_lp(market, alpha, nu))
            assert sol.status == "OPTIMAL"
            assert abs(sol.value - nu * rho1) < 1e-8


# 8. A finely discretized Gaussian market reproduces the closed form.

def test_discretized_gaussian_matches_closed_form():
    start = time.perf_counter()
    n = 20000
    mu, sigma, r = 0.08, 0.2, 0.02
    u = (np.arange(n) + 0.5) / n
    returns = mu + sigma * stats.norm.ppf(u)
    market = ScenarioMarket(probs=np.full(n, 1.0 / n), riskless_rate=r,
                            returns=[returns])
    sr = (mu - r) / sigma
    for alpha in (0.05, 0.1, 0.25):
        rho1 = compute_rho1(market, RiskSpec.es(alpha)).rho1
        closed = -1.0 + gaussian_rho_z("ES", alpha) / sr
        assert abs(rho1 - closed) / abs(closed) < 0.02
    assert time.perf_counter() - start < 10.0


# 9. Newton on the cumulant dual agrees with projected gradient descent.

def test_entropy_solver_agrees_with_projected_gradient():
    def gfun(z):
        zc = np.maximum(z, 1e-300)
        return np.where(z > 0.0, zc * np.log(zc), 0.0)

    def gprime(z):
        return np.log(np.maximum(z, 1e-300)) + 1.0

    rng = np.random.default_rng(31337)
    checked = 0
    for _ in range(20):
        market = make_random_market(rng, n_max=6, d_max=2)
        res = _penalty_min(RiskSpec.entropic(1.0), market.probs, market.excess_matrix.T)
        if res.status != "OK":
            continue
        grid_val, _ = oracles.projected_gradient_min(
            market.probs, market.excess_matrix, gfun, gprime)
        assert abs(res.value - grid_val) < 1e-5
        checked += 1
    assert checked >= 10

    duo = ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0,
                         returns=[[2.0, -1.0]])
    res = _penalty_min(RiskSpec.entropic(1.0), duo.probs, duo.excess_matrix.T)
    assert res.status == "OK"
    assert abs(res.value - DUO_ENTROPY) < 1e-6


# 10. Constructed markets land on the right side of the classical test.

def test_ftap_constructions_classify_correctly():
    rng = np.random.default_rng(555)
    for _ in range(50):
        dom = make_dominating_market(rng)
        assert abs(classical_no_arbitrage(dom).delta) < 1e-9
        res = compute_rho1(dom, RiskSpec.wc())
        assert classify_primal(res).verdict != "NO_ARBITRAGE"

        priced = make_priced_market(rng)
        assert classical_no_arbitrage(priced).delta > 1e-9
        cross = cross_validate(priced, RiskSpec.wc())
        assert cross.primal.verdict == "NO_ARBITRAGE"
        assert cross.dual.verdict == "NO_ARBITRAGE"
