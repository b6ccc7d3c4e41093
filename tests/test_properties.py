"""Invariances of the ES dual test, of rho1 and the verdicts, of a custom
penalty's least value, and of the EVaR and TNORM evaluators, and the
ratio bound the EVaR and TNORM slice minima rest on, as Hypothesis
properties.

min ||Z||_inf over the martingale densities, the dual verdict and the
primal/dual agreement status depend on the market only through the law
of the excess returns, and t* and both verdicts are unitless.  So they
must not change when the scenarios are listed in another order (which
also reorders the ties the sup-norm LP's basis hint breaks), when one
scenario is split into two with the same returns, or when returns and
the riskless rate are quoted in other units; nor must rho1, every
verdict, or v* = min E[g(Z)] over the martingale densities.  rho1 and
every verdict depend on the assets only through the span of their
excess returns, so they must not change when the assets are replaced by
invertible combinations of themselves.  Likewise a law-invariant,
positively homogeneous and cash-additive measure gives rho(c x + m) =
c rho(x) - m and ignores the order and the splitting of scenarios.
For EVaR and TNORM, every value of the ratio R(nu, lam) that
compute_rho1 minimizes bounds the risk of its portfolio from above.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (make_dominating_market, make_drift_market, make_random_market,
                      make_tanh_priced_market)
from rhoarb.dual import classify_dual, cross_validate
from rhoarb.market import ScenarioMarket, excess_return
from rhoarb.measures import RiskSpec, eval_evar, eval_tnorm, evaluate

KINDS = ("priced", "drift", "mild-drift", "random", "dominating")


def build(kind: str, seed: int) -> ScenarioMarket:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return make_random_market(rng, n_max=25, d_max=3)
    if kind == "dominating":
        return make_dominating_market(rng)
    N, d = int(rng.integers(20, 61)), int(rng.integers(2, 5))
    if kind == "priced":
        return make_tanh_priced_market(rng, N, d)
    return make_drift_market(rng, N, d, 2.0 if kind == "drift" else 0.3)


def es_answers(market: ScenarioMarket, alpha: float) -> tuple[float, str, str]:
    """(t*, dual verdict, cross_validate status) under ES at level alpha."""
    cv = cross_validate(market, RiskSpec.es(alpha))
    return cv.dual.certificate["t_star"], cv.dual.verdict, cv.status


def assert_same_answers(market: ScenarioMarket, other: ScenarioMarket, alpha: float) -> None:
    t, verdict, status = es_answers(market, alpha)
    t_other, verdict_other, status_other = es_answers(other, alpha)
    if math.isinf(t):
        assert math.isinf(t_other)
    else:
        assert abs(t_other - t) <= 1e-9 * t
    assert verdict_other == verdict
    assert status_other == status


markets = st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6))
levels = st.sampled_from((0.05, 0.25, 0.5))


@given(markets, levels, st.integers(0, 10**6))
def test_es_dual_invariant_under_scenario_permutation(drawn, alpha, seed):
    market = build(*drawn)
    order = np.random.default_rng(seed).permutation(market.n_scenarios)
    other = ScenarioMarket(probs=market.probs[order], riskless_rate=market.riskless_rate,
                           returns=market.returns[:, order])
    assert_same_answers(market, other, alpha)


@given(markets, levels, st.integers(0, 10**6), st.floats(0.1, 0.9))
def test_es_dual_invariant_under_scenario_split(drawn, alpha, pick, share):
    market = build(*drawn)
    i = pick % market.n_scenarios
    p = market.probs.copy()
    p[i] *= share
    other = ScenarioMarket(probs=np.append(p, market.probs[i] - p[i]),
                           riskless_rate=market.riskless_rate,
                           returns=np.hstack([market.returns, market.returns[:, [i]]]))
    assert_same_answers(market, other, alpha)


@given(markets, levels, st.integers(-6, 6))
def test_es_dual_invariant_under_units(drawn, alpha, k):
    market = build(*drawn)
    other = ScenarioMarket(probs=market.probs, riskless_rate=market.riskless_rate * 10.0 ** k,
                           returns=market.returns * 10.0 ** k)
    assert_same_answers(market, other, alpha)


ASSET_SPECS = {
    "ES": RiskSpec.es(0.1),
    "SPECTRAL": RiskSpec.spectral(((0.05, 0.3), (0.25, 0.7))),
    "WC": RiskSpec.wc(),
    "EVAR": RiskSpec.evar(0.25),
    "TNORM": RiskSpec.tnorm(2.0, 0.25),
}


@pytest.mark.parametrize("kind", ASSET_SPECS)
@given(markets, st.integers(0, 10**6))
def test_rho1_and_verdicts_invariant_under_change_of_assets(kind, drawn, seed):
    # R' - r = G (R - r) with G invertible: pi' . (R' - r) = (G' pi') . (R - r),
    # so both markets have the same excess returns on the same slices and
    # the same martingale densities.  G rotates and rescales the assets
    # (condition number up to 1e4).
    market = build(*drawn)
    rng = np.random.default_rng(seed)
    d = market.n_assets
    G = np.linalg.qr(rng.normal(size=(d, d)))[0] * 10.0 ** rng.uniform(-2.0, 2.0, size=d)
    r = market.riskless_rate
    other = ScenarioMarket(probs=market.probs, riskless_rate=r,
                           returns=r + G @ market.excess_matrix)
    spec = ASSET_SPECS[kind]
    cv, cv_other = cross_validate(market, spec), cross_validate(other, spec)
    assert abs(cv_other.rho1 - cv.rho1) <= 1e-9 * (1.0 + abs(cv.rho1))
    assert cv_other.primal.verdict == cv.primal.verdict
    assert cv_other.dual.verdict == cv.dual.verdict
    assert cv_other.status == cv.status


def changed(market: ScenarioMarket, change: str, seed: int, share: float,
            k: int) -> ScenarioMarket:
    """market with its scenarios permuted, one scenario split in two (share
    and 1 - share of its probability, same returns), or returns and the
    riskless rate quoted in units 10^k times smaller."""
    r, R, p = market.riskless_rate, market.returns, market.probs
    if change == "permutation":
        order = np.random.default_rng(seed).permutation(market.n_scenarios)
        return ScenarioMarket(probs=p[order], riskless_rate=r, returns=R[:, order])
    if change == "split":
        i = seed % market.n_scenarios
        q = p.copy()
        q[i] *= share
        return ScenarioMarket(probs=np.append(q, p[i] - q[i]), riskless_rate=r,
                              returns=np.hstack([R, R[:, [i]]]))
    return ScenarioMarket(probs=p, riskless_rate=r * 10.0 ** k, returns=R * 10.0 ** k)


SCENARIO_CHANGES = ("permutation", "split", "units")
scenario_changes = (st.integers(0, 10**6), st.floats(0.1, 0.9), st.integers(-6, 6))


@pytest.mark.parametrize("change", SCENARIO_CHANGES)
@pytest.mark.parametrize("kind", ASSET_SPECS)
@given(markets, *scenario_changes)
def test_rho1_and_verdicts_invariant_under_scenario_changes(kind, change, drawn, seed,
                                                            share, k):
    market = build(*drawn)
    other = changed(market, change, seed, share, k)
    spec = ASSET_SPECS[kind]
    cv, cv_other = cross_validate(market, spec), cross_validate(other, spec)
    assert abs(cv_other.rho1 - cv.rho1) <= 1e-9 * (1.0 + abs(cv.rho1))
    assert cv_other.primal.verdict == cv.primal.verdict
    assert cv_other.dual.verdict == cv.dual.verdict
    assert cv_other.status == cv.status


@pytest.mark.parametrize("change", SCENARIO_CHANGES)
@given(markets, *scenario_changes)
def test_custom_penalty_invariant_under_scenario_changes(change, drawn, seed, share, k):
    # v* = min E[sqrt(1 + Z^2)] over M.  A custom g takes its conjugate over
    # the box 0 <= z <= 1/p_omega, and splitting a scenario widens the box of
    # both halves, which must not move v*: every density of M lies inside.
    market = build(*drawn)
    other = changed(market, change, seed, share, k)
    spec = RiskSpec.custom(lambda z: np.sqrt(1.0 + z ** 2), 1.6,
                           g_prime=lambda z: z / np.sqrt(1.0 + z ** 2))
    res, res_other = classify_dual(market, spec), classify_dual(other, spec)
    v, v_other = res.certificate["v_star"], res_other.certificate["v_star"]
    if math.isinf(v):
        assert math.isinf(v_other)
    else:
        assert abs(v_other - v) <= 1e-9 * v
    assert res_other.verdict == res.verdict


# -- the EVaR and TNORM evaluators ------------------------------------------------

payoffs = st.tuples(st.integers(0, 10**6), st.booleans())
evaluator_levels = st.sampled_from((0.05, 0.25, 0.5, 0.9, 0.99, 0.999))


def payoff(seed: int, atom: bool) -> tuple[np.ndarray, np.ndarray]:
    """A payoff on 2-40 scenarios; with atom, a quarter of them share min x,
    which puts the small levels in the evaluators' worst-case corners."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    x = rng.normal(size=n)
    if atom:
        x[: max(1, n // 4)] = x.min()
    return x, rng.dirichlet(np.ones(n))


def risks(x: np.ndarray, probs: np.ndarray, alpha: float) -> np.ndarray:
    """EVaR and TNORM(p) for p in {1.1, 2, 6}, all at level alpha."""
    return np.array([eval_evar(x, probs, alpha)]
                    + [eval_tnorm(x, probs, p, alpha) for p in (1.1, 2.0, 6.0)])


@given(payoffs, evaluator_levels, st.integers(-6, 6), st.floats(-5.0, 5.0))
def test_evaluators_scale_and_shift(drawn, alpha, k, shift):
    x, probs = payoff(*drawn)
    c = 10.0 ** k
    m = c * shift
    got = risks(c * x + m, probs, alpha)
    want = c * risks(x, probs, alpha) - m
    assert np.abs(got - want).max() <= 1e-12 * (c * np.abs(x).max() + abs(m))


@given(payoffs, evaluator_levels, st.integers(0, 10**6))
def test_evaluators_invariant_under_scenario_permutation(drawn, alpha, seed):
    x, probs = payoff(*drawn)
    order = np.random.default_rng(seed).permutation(x.size)
    got = risks(x[order], probs[order], alpha)
    assert np.abs(got - risks(x, probs, alpha)).max() <= 1e-12 * np.abs(x).max()


@given(payoffs, evaluator_levels, st.integers(0, 10**6), st.floats(0.1, 0.9))
def test_evaluators_invariant_under_scenario_split(drawn, alpha, pick, share):
    x, probs = payoff(*drawn)
    i = pick % x.size
    p = probs.copy()
    p[i] *= share
    got = risks(np.append(x, x[i]), np.append(p, probs[i] - p[i]), alpha)
    assert np.abs(got - risks(x, probs, alpha)).max() <= 1e-12 * np.abs(x).max()


RATIO_SPECS = {
    "EVAR": (RiskSpec.evar(0.05), RiskSpec.evar(0.25), RiskSpec.evar(0.5)),
    "TNORM": (RiskSpec.tnorm(1.5, 0.25), RiskSpec.tnorm(2.0, 0.5), RiskSpec.tnorm(3.0, 0.1)),
}


def ratio_bound(market: ScenarioMarket, spec: RiskSpec, nu: float, lam: np.ndarray) -> float:
    """R(nu, lam) = (beta + f) / (-lam . a), written out: f is the cumulant
    log E exp(lam . e) and beta = -log alpha for EVaR; for TNORM(p, alpha),
    f = E[(nu + lam . e)+^p / p] - nu and beta = (1 / alpha)^q / q."""
    y = lam @ market.excess_matrix
    p = market.probs
    if spec.kind == "EVAR":
        top = float(y.max())
        f = top + math.log(float(p @ np.exp(y - top)))
        beta = -math.log(spec.alpha)
    else:
        q = spec.p / (spec.p - 1.0)
        f = float(p @ np.maximum(nu + y, 0.0) ** spec.p) / spec.p - nu
        beta = (1.0 / spec.alpha) ** q / q
    return (beta + f) / -float(lam @ market.mean_excess)


@pytest.mark.parametrize("kind", RATIO_SPECS)
@given(markets, st.integers(0, 10**6))
def test_ratio_bounds_the_risk_of_its_portfolio(kind, drawn, seed):
    # For every Z in the penalty ball {E[g(Z)] <= beta}, Fenchel's
    # inequality gives E[Z lam . e] = E[Z (nu + lam . e)] - nu <= beta + f,
    # so the risk of pi = lam / (lam . a), the sup over the ball of
    # E[-Z X_pi] = E[Z lam . e] / (-lam . a), is at most R whenever
    # lam . a < 0, at any (nu, lam) and not only near the minimum.
    market = build(*drawn)
    rng = np.random.default_rng(seed)
    a = market.mean_excess
    scale = float(np.abs(market.excess_matrix).max())
    for spec in RATIO_SPECS[kind]:
        for _ in range(10):
            lam = rng.normal(size=market.n_assets) * 10.0 ** rng.uniform(-1.0, 2.0) / scale
            lam = -lam if lam @ a > 0.0 else lam
            nu = float(rng.uniform(-2.0, 3.0))
            bound = ratio_bound(market, spec, nu, lam)
            risk = evaluate(spec, excess_return(market, lam / float(lam @ a)), market.probs)
            assert risk <= bound + 1e-9 * (1.0 + abs(risk)), (spec, nu, lam, risk, bound)
