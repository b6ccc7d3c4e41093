"""Shared market builders and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import rhoarb.dual
import rhoarb.frontier
from rhoarb.market import ScenarioMarket, validate_market

# Property tests draw the same examples on every run, so the suite stays
# deterministic, and keep its time bounded.
settings.register_profile("suite", derandomize=True, deadline=None, max_examples=30,
                          database=None)
settings.load_profile("suite")


@pytest.fixture
def frontier_lps(monkeypatch):
    """The programs rhoarb.frontier passes to lp_solve from here on."""
    calls = []
    solve = rhoarb.frontier.lp_solve
    monkeypatch.setattr(rhoarb.frontier, "lp_solve", lambda lp: calls.append(lp) or solve(lp))
    return calls


@pytest.fixture
def dual_lps(monkeypatch):
    """The programs rhoarb.dual passes to lp_solve from here on."""
    calls = []
    solve = rhoarb.dual.lp_solve
    monkeypatch.setattr(rhoarb.dual, "lp_solve", lambda lp: calls.append(lp) or solve(lp))
    return calls


def binomial_market() -> ScenarioMarket:
    """One risky asset, R in {1, 0} equal odds, r = 0."""
    return ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0,
                          returns=[[1.0, 0.0]])


def duo_market() -> ScenarioMarket:
    """One risky asset, R in {2, -1} equal odds, r = 0."""
    return ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0,
                          returns=[[2.0, -1.0]])


def make_random_market(rng: np.random.Generator, n_max: int = 10,
                       d_max: int = 3, r: float = 0.0) -> ScenarioMarket:
    """Valid random market: returns U[-1, 1], probabilities bounded away
    from zero, redrawn until the validation report is empty."""
    while True:
        d = int(rng.integers(1, d_max + 1))
        n = int(rng.integers(d + 1, n_max + 1))
        probs = rng.uniform(0.05, 1.0, n)
        probs = probs / probs.sum()
        returns = rng.uniform(-1.0, 1.0, (d, n))
        market = ScenarioMarket(probs=probs, riskless_rate=r, returns=returns)
        if not validate_market(market):
            return market


def make_priced_market(rng: np.random.Generator, n_max: int = 8,
                       d_max: int = 3) -> ScenarioMarket:
    """Arbitrage-free by construction: draws a strictly positive density Z
    and shifts raw returns so that E[Z (R_i - r)] = 0 holds exactly."""
    r = 0.0
    while True:
        d = int(rng.integers(1, d_max + 1))
        n = int(rng.integers(d + 2, n_max + 1))
        probs = rng.uniform(0.1, 1.0, n)
        probs = probs / probs.sum()
        z = rng.uniform(0.2, 2.0, n)
        z = z / (probs @ z)
        raw = rng.uniform(-1.0, 1.0, (d, n))
        returns = raw - ((probs * z) @ raw.T)[:, None] + r
        market = ScenarioMarket(probs=probs, riskless_rate=r, returns=returns)
        if not validate_market(market):
            return market


def make_tanh_priced_market(rng: np.random.Generator, N: int, d: int,
                            spread: float = 0.6, r: float = 0.01) -> ScenarioMarket:
    """Arbitrage-free with a risk premium: the pricing density falls with
    the return of a random portfolio, z = 1 - spread tanh(standardized
    return), normalized to E[z] = 1; each asset is then shifted so that
    E[z (R_i - r)] = 0.  max z < 1 + spread, so ES at any level below
    1/(1 + spread) finds no arbitrage."""
    p = rng.dirichlet(np.full(N, 5.0))
    R = rng.normal(0.0, 0.1, size=(d, N))
    y = rng.normal(size=d) @ R
    y = y - p @ y
    z = 1.0 - spread * np.tanh(y / np.sqrt(p @ y ** 2))
    z /= p @ z
    R = R - (R @ (p * z))[:, None] + r
    return ScenarioMarket(probs=p, riskless_rate=r, returns=R)


def make_dominating_market(rng: np.random.Generator, n_max: int = 8) -> ScenarioMarket:
    """First-kind arbitrage by construction: the single asset's return
    matches r on some scenarios and strictly exceeds it on the rest, so M
    is nonempty (densities supported on the matching scenarios) but never
    strictly positive."""
    while True:
        n = int(rng.integers(3, n_max + 1))
        probs = rng.uniform(0.1, 1.0, n)
        probs = probs / probs.sum()
        dominating = rng.uniform(0.2, 1.0, n)
        n_zero = int(rng.integers(1, n - 1))
        dominating[rng.permutation(n)[:n_zero]] = 0.0
        market = ScenarioMarket(probs=probs, riskless_rate=0.0,
                                returns=dominating[None, :])
        report = validate_market(market)
        if not report:
            return market


def make_drift_market(rng: np.random.Generator, N: int, d: int, sharpe: float,
                      r: float = 0.01, equal_odds: bool = False) -> ScenarioMarket:
    """High-drift market: each asset's return is r + 0.1 (sharpe + standard
    normal noise), so it earns about `sharpe` standard deviations over r.
    Probabilities are Dirichlet(20) draws, or 1/N with r = 0 when
    equal_odds.  Large drifts leave the martingale polytope empty; small
    ones leave a strictly positive pricing density."""
    if equal_odds:
        p, r = np.full(N, 1.0 / N), 0.0
    else:
        p = rng.dirichlet(np.full(N, 20.0))
    R = r + 0.1 * (sharpe + rng.normal(size=(d, N)))
    return ScenarioMarket(probs=p, riskless_rate=r, returns=R)
