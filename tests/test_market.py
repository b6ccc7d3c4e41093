"""Tests for scenario markets, validation, and portfolio maps."""

import numpy as np
import pytest

from conftest import (binomial_market, duo_market, make_dominating_market, make_drift_market,
                      make_priced_market, make_random_market, make_tanh_priced_market)
from rhoarb.dual import DENSITY_RTOL
from rhoarb.market import (DegenerateMarketError, ScenarioMarket,
                           canonical_portfolio, excess_return, expected_excess,
                           validate_market)


def test_binomial_market_is_valid():
    assert validate_market(binomial_market()) == []


def test_duplicate_assets_fail_rank_check():
    market = ScenarioMarket(probs=(0.5, 0.25, 0.25), riskless_rate=0.0,
                            returns=[[0.3, -0.1, 0.2], [0.3, -0.1, 0.2]])
    report = validate_market(market)
    assert any(entry.startswith("NONREDUNDANT") for entry in report)


def test_constant_return_equal_to_r_is_degenerate():
    market = ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.02,
                            returns=[[0.02, 0.02]])
    report = validate_market(market)
    assert any(entry.startswith("NONDEGENERATE") for entry in report)


def test_probability_violations_reported():
    market = ScenarioMarket(probs=(0.7, -0.1, 0.4), riskless_rate=0.0,
                            returns=[[0.5, -0.2, 0.1]])
    report = validate_market(market)
    assert any(entry.startswith("PROB_POSITIVE") for entry in report)

    market = ScenarioMarket(probs=(0.5, 0.47), riskless_rate=0.0,
                            returns=[[0.5, -0.2]])
    report = validate_market(market)
    assert any(entry.startswith("PROB_SUM") for entry in report)


def test_riskless_rate_below_minus_one_reported():
    market = ScenarioMarket(probs=(0.5, 0.5), riskless_rate=-1.5,
                            returns=[[0.5, -0.2]])
    report = validate_market(market)
    assert any(entry.startswith("RISKLESS_RATE") for entry in report)


@pytest.mark.parametrize("probs, returns", [
    ((0.25, 0.25, 0.25, np.nan), [[0.1, -0.1, 0.2, 0.0]]),
    ((0.25, 0.25, 0.25, 0.25), [[0.1, -0.1, np.inf, 0.0]]),
])
def test_non_finite_data_reported(probs, returns, recwarn):
    market = ScenarioMarket(probs=probs, riskless_rate=0.0, returns=returns)
    assert validate_market(market) == [
        "FINITE: a probability, a return or r is NaN or infinite"]
    assert not recwarn.list  # the rank and mean checks do not run on it


def test_validation_is_pure():
    market = ScenarioMarket(probs=(0.5, 0.47), riskless_rate=0.0,
                            returns=[[0.5, -0.2]])
    assert validate_market(market) == validate_market(market)


def test_market_shape_properties():
    market = binomial_market()
    assert market.n_scenarios == 2
    assert market.n_assets == 1
    assert np.allclose(market.mean_returns, [0.5])
    assert np.allclose(market.excess_matrix, [[1.0, 0.0]])


def test_market_arrays_are_immutable():
    market = binomial_market()
    with pytest.raises(ValueError):
        market.returns[0, 0] = 9.0
    with pytest.raises(ValueError):
        market.probs[0] = 0.9


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0,
                       returns=[[1.0, 0.0, 0.3]])


def test_excess_return_zero_portfolio():
    market = binomial_market()
    assert np.all(excess_return(market, np.zeros(1)) == 0.0)


def test_excess_return_binomial_pi_two():
    x = excess_return(binomial_market(), np.array([2.0]))
    assert np.allclose(x, [2.0, 0.0])


def test_excess_return_unit_vectors():
    rng = np.random.default_rng(3)
    market = make_random_market(rng, n_max=6, d_max=3)
    for i in range(market.n_assets):
        e_i = np.zeros(market.n_assets)
        e_i[i] = 1.0
        x = excess_return(market, e_i)
        assert np.allclose(x, market.returns[i] - market.riskless_rate)


def test_excess_return_is_linear():
    rng = np.random.default_rng(5)
    for _ in range(20):
        market = make_random_market(rng, n_max=8, d_max=3)
        a, b = rng.normal(size=2)
        p1 = rng.normal(size=market.n_assets)
        p2 = rng.normal(size=market.n_assets)
        lhs = excess_return(market, a * p1 + b * p2)
        rhs = a * excess_return(market, p1) + b * excess_return(market, p2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_expected_excess_values():
    market = binomial_market()
    assert expected_excess(market, np.zeros(1)) == 0.0
    assert abs(expected_excess(market, np.array([2.0])) - 1.0) < 1e-15

    rng = np.random.default_rng(9)
    market = make_random_market(rng, n_max=3, d_max=2)
    pi = rng.normal(size=market.n_assets)
    direct = float(market.probs @ excess_return(market, pi))
    assert abs(expected_excess(market, pi) - direct) < 1e-14


def test_canonical_portfolio_values():
    market = binomial_market()
    assert np.all(canonical_portfolio(market, 0.0) == 0.0)
    assert np.allclose(canonical_portfolio(market, 1.0), [2.0])

    # two assets with mean excess (0.1, 0.2): pi = (2, 4), E[X_pi] = 1
    market = ScenarioMarket(probs=(0.5, 0.25, 0.25), riskless_rate=0.0,
                            returns=[[0.3, -0.1, -0.1], [0.4, 0.2, -0.2]])
    assert np.allclose(market.mean_returns, [0.1, 0.2])
    pi = canonical_portfolio(market, 1.0)
    assert np.allclose(pi, [2.0, 4.0])
    assert abs(expected_excess(market, pi) - 1.0) < 1e-12


def test_canonical_portfolio_scales_linearly():
    rng = np.random.default_rng(13)
    for _ in range(10):
        market = make_random_market(rng, n_max=6, d_max=3)
        k = float(rng.uniform(0.1, 5.0))
        assert np.allclose(canonical_portfolio(market, k),
                           k * canonical_portfolio(market, 1.0), atol=1e-12)


def test_canonical_portfolio_degenerate_market_raises():
    market = ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.02,
                            returns=[[0.02, 0.02]])
    with pytest.raises(DegenerateMarketError):
        canonical_portfolio(market, 1.0)


def test_tangency_order_sorts_the_tangency_excess_stably_once():
    # Scenarios 1 and 3 have the same returns: the stable order keeps them
    # in index order.
    market = ScenarioMarket(probs=(0.2, 0.3, 0.1, 0.4), riskless_rate=0.01,
                            returns=[[0.3, -0.1, 0.2, -0.1], [0.0, 0.1, -0.2, 0.1]])
    order = market.tangency_order
    x = market.tangency @ market.excess_matrix
    assert sorted(order.tolist()) == [0, 1, 2, 3]
    assert np.all(np.diff(x[order]) >= 0.0)
    assert order.tolist().index(1) < order.tolist().index(3)
    assert market.tangency_order is order
    assert not order.flags.writeable
    # A riskless-looking asset leaves the covariance singular: the direction
    # is then a / (a . a), with a = mu - r.
    flat = ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0, returns=[[0.1, 0.1]])
    assert flat.tangency.tolist() == pytest.approx([10.0], rel=1e-15)
    assert sorted(flat.tangency_order.tolist()) == [0, 1]


def test_tangency_density_lies_in_m_on_every_generator_and_its_basis_point_twin():
    # Z_T = 1 + E[x] - x, x = pi_T . e, has E[Z_T] = 1 and prices every
    # asset: each row of M holds to DENSITY_RTOL of its own scale,
    # E|row| max Z_T, in any units of the returns.
    rng = np.random.default_rng(4242)
    draws = [binomial_market, duo_market,
             lambda: make_random_market(rng, n_max=12, d_max=3),
             lambda: make_priced_market(rng, n_max=10, d_max=3),
             lambda: make_tanh_priced_market(rng, int(rng.integers(8, 200)),
                                             int(rng.integers(1, 8))),
             lambda: make_dominating_market(rng),
             lambda: make_drift_market(rng, int(rng.integers(8, 200)), int(rng.integers(1, 8)),
                                       float(rng.uniform(0.2, 2.0))),
             lambda: make_drift_market(rng, 50, 3, 0.5, equal_odds=True)]
    for draw in draws:
        for _ in range(40):
            market = draw()
            for k in (1.0, 1e4):
                twin = ScenarioMarket(probs=market.probs, riskless_rate=market.riskless_rate * k,
                                      returns=market.returns * k)
                z = twin.tangency_density
                A, b = twin.polytope.A, twin.polytope.b
                assert abs(float(twin.probs @ z) - 1.0) <= 1e-14 * float(np.abs(z).max())
                assert np.all(np.abs(A @ z - b)
                              <= DENSITY_RTOL * float(np.abs(z).max()) * np.abs(A).sum(axis=1))
                assert twin.tangency_density is z and not z.flags.writeable
    # A singular covariance leaves the fallback direction, whose density
    # does not price the asset.
    flat = ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0, returns=[[0.1, 0.1]])
    assert flat.tangency_density.tolist() == pytest.approx([1.0, 1.0], rel=1e-15)
    assert flat.polytope.residual(flat.tangency_density) > 0.05
