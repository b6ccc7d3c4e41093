"""The EVaR slice minimum as the least value of the entropy ratio.

compute_rho1 finds rho_1 for EVAR as the infimum over lam . a < 0 of
R(lam) = (log E exp(lam . e) - log alpha) / (-lam . a), EVaR's own
formula jointly in the portfolio and z, by damped Newton.  The WC slice
minimum t_max guards the run lazily: its LP is solved only when the
first run from the Gaussian start does not converge.  These tests hold
it to its own portfolio's EVaR, to the entropy dual
D(t) = -min_lam log E exp(lam . (e + t a)) just below rho_1
(D <= -log alpha there), to a scipy minimization of the joint form
min over (pi, t > 0) of t (log E exp(-X_pi / t) - log alpha), to the WC
slice in the worst-case regime, to the invariances rho_1 has, to its step
budget and to the LPs it solves.  They also hold the cumulant Newton
solver it rests on to a converged status on a market whose minimizer has
tiny Gibbs entries, every penalty kernel to scale-freeness, and TNORM's
route to the risk of its own portfolio.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

import rhoarb.frontier as frontier
from conftest import make_dominating_market, make_drift_market, make_tanh_priced_market
from rhoarb.dual import classify_dual
from rhoarb.frontier import _penalty_min, classify_primal, compute_rho1
from rhoarb.market import ScenarioMarket, excess_return, validate_market
from rhoarb.measures import RiskSpec, eval_evar, eval_tnorm

ALPHAS = (0.005, 0.05, 0.1, 0.25, 0.5, 0.9)


def scipy_evar_rho1(market: ScenarioMarket, alpha: float) -> float:
    """The least of three upper bounds on the EVaR slice minimum.

    Two are BFGS minimizations of t (log E exp(-X_pi / t) - log alpha) over
    an orthonormal basis of the slice pi . a = 1 and u = log t, from the
    canonical portfolio at two starting t: the standard deviation s of its
    excess, and s / 1000.  In u the objective is not convex, and a start at
    large t can stall on the worst-case plateau t -> 0.  The third is the
    WC slice minimum by HiGHS (EVaR <= WC), which is exact in the
    worst-case regime, where the joint infimum is only approached as t -> 0.
    """
    E, p = market.excess_matrix, market.probs
    a = market.mean_returns - market.riskless_rate
    pi0 = a / float(a @ a)
    B = np.linalg.svd(a[None, :])[2][1:].T
    k = B.shape[1]
    log_alpha = math.log(alpha)

    def f(v):
        X = (pi0 + B @ v[:k]) @ E
        t = math.exp(v[k])
        y = -X / t
        w = p * np.exp(y - y.max())
        L = y.max() + math.log(w.sum())
        w /= w.sum()
        return t * (L - log_alpha), np.r_[-(B.T @ (E @ w)), t * (L - log_alpha) + w @ X]

    x0 = pi0 @ E
    s = math.sqrt(p @ (x0 - p @ x0) ** 2)
    found = []
    for t0 in (s, s / 1000.0):
        res = minimize(f, np.r_[np.zeros(k), math.log(t0)], jac=True, method="BFGS",
                       options={"gtol": 1e-9, "maxiter": 2000})
        found.append(float(res.fun))
    d, N = E.shape
    wc = linprog(np.r_[np.zeros(d), 1.0], A_ub=np.hstack([-E.T, -np.ones((N, 1))]),
                 b_ub=np.zeros(N), A_eq=np.r_[a, 0.0][None, :], b_eq=[1.0],
                 bounds=[(None, None)] * (d + 1), method="highs")
    assert wc.status == 0, wc.message
    return min(found + [float(wc.fun)])


def _sweep():
    """54 seeded markets: priced, drift and equal-odds drift, each at every
    alpha in ALPHAS on three of six sizes, N 20-200 and d 2-8."""
    sizes = ((20, 2), (40, 3), (60, 4), (120, 6), (200, 8), (80, 5))
    cases = []
    for i, (regime, alpha) in enumerate(
            (r, a) for r in ("priced", "drift", "equal-odds") for a in ALPHAS):
        for N, d in sizes[i % 2::2]:
            rng = np.random.default_rng([N, d, int(alpha * 1000)])
            if regime == "priced":
                market = make_tanh_priced_market(rng, N, d)
            elif regime == "drift":
                market = make_drift_market(rng, N, d, 1.0)
            else:
                market = make_drift_market(rng, N, d, 0.5, equal_odds=True)
            cases.append((regime, N, d, alpha, market))
    return cases


def test_seeded_sweep_meets_its_certificates():
    cases = _sweep()
    assert len(cases) >= 40
    for regime, N, d, alpha, market in cases:
        spec = RiskSpec.evar(alpha)
        res = compute_rho1(market, spec)
        label = (regime, N, d, alpha)
        assert res.route == "ROOT" and res.attained and not res.annotations, label
        rho1, tol = res.rho1, 1e-9 * (1.0 + abs(res.rho1))
        # The portfolio attains rho_1 and the reported gap is that check.
        risk = eval_evar(excess_return(market, res.argmin), market.probs, alpha)
        assert abs(risk - rho1) <= tol, (label, risk, rho1)
        assert -1e-12 <= res.gap <= tol, (label, res.gap)
        assert abs(float(res.argmin @ (market.mean_returns - market.riskless_rate)) - 1.0) < 1e-12
        # Just below rho_1 some density of entropy <= -log alpha still prices
        # the shifted excess.
        a = market.mean_returns - market.riskless_rate
        below = _penalty_min(RiskSpec.entropic(1.0), market.probs,
                             (market.excess_matrix + (rho1 - 1e-9) * a[:, None]).T)
        assert below.value <= -math.log(alpha), (label, below.value)
        ref = scipy_evar_rho1(market, alpha)
        assert abs(rho1 - ref) <= 1e-6 * max(1.0, abs(rho1)), (label, rho1, ref)
        if alpha == 0.005:
            # Worst-case regime: D <= -log alpha all the way up to t_max.
            wc = compute_rho1(market, RiskSpec.wc()).rho1
            assert abs(rho1 - wc) <= 1e-12 * (1.0 + abs(wc)), (label, rho1, wc)


def _scaled(market: ScenarioMarket, k: float) -> ScenarioMarket:
    return ScenarioMarket(probs=market.probs, riskless_rate=market.riskless_rate * k,
                          returns=market.returns * k)


@pytest.mark.parametrize("regime", ["priced", "drift"])
def test_rho1_invariant_under_units_and_scenario_order(regime):
    rng = np.random.default_rng(41)
    if regime == "priced":
        market = make_tanh_priced_market(rng, 40, 3)
    else:
        market = make_drift_market(rng, 40, 3, 1.0)
    perm = np.random.default_rng(43).permutation(market.n_scenarios)
    shuffled = ScenarioMarket(probs=market.probs[perm], riskless_rate=market.riskless_rate,
                              returns=market.returns[:, perm])
    for alpha in (0.05, 0.25, 0.5):
        spec = RiskSpec.evar(alpha)
        base = compute_rho1(market, spec).rho1
        others = [compute_rho1(_scaled(market, 10.0 ** k), spec).rho1 for k in (-6, -4, 4, 6)]
        others.append(compute_rho1(shuffled, spec).rho1)
        for rho1 in others:
            assert abs(rho1 - base) <= 1e-9 * (1.0 + abs(base)), (alpha, rho1, base)


def test_unconverged_root_reports_its_portfolio_risk(monkeypatch):
    # With a budget of one Newton step the route stops after its first
    # run or solve.  It still returns a portfolio, rho_1 is that
    # portfolio's own EVaR, and rho_1 - gap stays below the true minimum:
    # no penalty solve showed a feasible shift, so it is -1.
    market = make_tanh_priced_market(np.random.default_rng(47), 60, 4)
    spec = RiskSpec.evar(0.1)
    exact = compute_rho1(market, spec).rho1
    monkeypatch.setattr(frontier, "ROOT_MAX_ITER", 1)
    res = compute_rho1(market, spec)
    assert res.annotations == ("MAX_ITER",) and not res.attained
    assert res.rho1 == eval_evar(excess_return(market, res.argmin), market.probs, 0.1)
    assert res.rho1 - res.gap <= exact + 1e-12 <= res.rho1 + 1e-12
    assert abs(res.rho1 - res.gap + 1.0) <= 1e-15


def test_iterates_near_t_max_come_back_to_the_minimum(frontier_lps):
    # rho_1 sits 0.12 below t_max, and R at the Gaussian start lies above
    # t_max.  The first run from there goes off toward t_max, where R
    # flattens onto the WC risk of the portfolio, and does not converge.
    # So the route solves the WC slice LP, once; the guard at t_max then
    # brings R below t_max, and R only falls after that.
    market = make_drift_market(np.random.default_rng(7), 60, 3, 0.7)
    t_max = compute_rho1(market, RiskSpec.wc()).rho1
    assert abs(t_max - 0.989058239771) <= 1e-11
    frontier_lps.clear()
    res = compute_rho1(market, RiskSpec.evar(0.1))
    assert res.route == "ROOT" and res.attained and not res.annotations
    assert abs(res.rho1 - 0.870641859250) <= 1e-11
    assert res.gap <= 1e-12
    assert len(frontier_lps) == 1


def test_a_converged_first_run_solves_no_lp(frontier_lps):
    # The first run's residual is the gradient of the kernel shifted by
    # t = R.  Once it closes, V(R) = beta, and R >= rho_1 at every iterate
    # rules out the lower root: R = rho_1 with no t_max and no LP.
    market = make_drift_market(np.random.default_rng(53), 50, 4, 1.0)
    res = compute_rho1(market, RiskSpec.evar(0.25))
    assert res.route == "ROOT" and res.attained and not res.annotations
    assert res.iterations <= frontier.ROOT_RUN_STEPS
    assert res.gap <= 1e-12 * (1.0 + abs(res.rho1))
    assert not frontier_lps


def test_a_start_rounded_onto_t_minus_one_takes_the_guard(frontier_lps):
    # alpha one ulp below 1 makes beta ~1e-16, and an asset whose excess
    # return is 0.01 with noise of 3e-11 makes a' S^-1 a ~ 1.3e17: the
    # Gaussian start t = -1 + 4e-17 rounds to -1, where D = 0 and the ratio
    # has no value.  The route skips the first run and starts under the WC
    # guard.
    rng = np.random.default_rng(1)
    N = 40
    R = np.vstack([0.02 + 3e-11 * rng.normal(size=N), 0.01 + 0.1 * rng.normal(size=N)])
    market = ScenarioMarket(probs=np.full(N, 1.0 / N), riskless_rate=0.01, returns=R)
    assert not validate_market(market)
    res = compute_rho1(market, RiskSpec.evar(math.nextafter(1.0, 0.0)))
    assert res.route == "ROOT" and res.attained and not res.annotations
    assert abs(res.rho1 + 1.0) <= 1e-9
    assert len(frontier_lps) == 1


@pytest.mark.parametrize("regime", ["priced", "drift"])
def test_step_budget_on_the_bench_shapes(regime, frontier_lps):
    # Markets of the shapes the entropic benchmark runs (N 40-60, d 4):
    # one Newton run on the ratio takes a few steps where a root in t
    # took ~28 Newton steps over ~6 penalty solves, and most first runs
    # converge with no WC slice LP (27 of the 30 cases in each regime).
    specs = [RiskSpec.evar(0.1), RiskSpec.evar(0.25), RiskSpec.evar(0.5),
             RiskSpec.tnorm(2.0, 0.25), RiskSpec.tnorm(2.0, 0.5)]
    steps = []
    without_lp = 0
    for seed in range(6):
        rng = np.random.default_rng([seed, 20])
        N = int(rng.integers(40, 61))
        if regime == "priced":
            market = make_tanh_priced_market(rng, N, 4)
        else:
            market = make_drift_market(rng, N, 4, 1.0)
        for spec in specs:
            frontier_lps.clear()
            res = compute_rho1(market, spec)
            assert res.attained and not res.annotations, (seed, spec)
            steps.append(res.iterations)
            without_lp += not frontier_lps
    assert np.mean(steps) <= 14, steps
    assert without_lp >= 25, without_lp


def test_primal_certificate_carries_gap_and_iterations():
    market = make_drift_market(np.random.default_rng(53), 50, 4, 1.0)
    res = compute_rho1(market, RiskSpec.evar(0.25))
    cert = classify_primal(res).certificate
    assert cert["gap"] == res.gap
    assert cert["iterations"] == res.iterations > 0


# -- penalty Newton: converged and scale-free ------------------------------------


def test_newton_converged_minimizer_with_tiny_gibbs_entries_is_ok():
    # The least Gibbs entry is ~3e-11, far below any absolute floor, yet the
    # gradient closes and the Newton step vanishes: an interior minimizer.
    market = make_drift_market(np.random.default_rng([106, 7, 4]), 50, 4, 1.0)
    res = _penalty_min(RiskSpec.entropic(1.0), market.probs, market.excess_matrix.T)
    assert res.status == "OK"
    assert res.z.min() < 1e-9
    assert res.gradient_norm < 1e-11
    verdicts = {0.05: "NO_ARBITRAGE", 0.1: "NO_ARBITRAGE",
                0.25: "STRONG_RHO_ARBITRAGE", 0.5: "STRONG_RHO_ARBITRAGE"}
    for alpha, want in verdicts.items():
        verdict = classify_dual(market, RiskSpec.evar(alpha))
        assert verdict.verdict == want
        assert "DIVERGENT" not in verdict.annotations


def test_newton_without_positive_density_stays_divergent():
    # M is nonempty but holds no strictly positive density: the infimum
    # sits on a boundary face and the iterates run off toward it.
    rng = np.random.default_rng(59)
    for _ in range(10):
        market = make_dominating_market(rng)
        res = _penalty_min(RiskSpec.entropic(1.0), market.probs, market.excess_matrix.T)
        assert res.status == "DIVERGENT"


def test_every_penalty_kernel_is_scale_free():
    # Each kernel runs on the rows divided by max |e|, so rescaling the
    # excess rescales lam and leaves the value and the Newton path alone.
    market = make_tanh_priced_market(np.random.default_rng(61), 40, 3)
    X = market.excess_matrix.T
    balls = [RiskSpec.entropic(1.0), *(RiskSpec.power(q, 1.0) for q in (1.5, 2.0, 3.0)),
             RiskSpec.custom(lambda z: z ** 2 / 2.0, 1.0, g_prime=lambda z: z)]
    for pen in balls:
        base = _penalty_min(pen, market.probs, X)
        assert base.status == "OK", pen.g_kind
        for k in (-6, 6):
            res = _penalty_min(pen, market.probs, X * 10.0 ** k)
            assert res.status == "OK", (pen.g_kind, k)
            assert abs(res.value - base.value) <= 1e-12 * base.value, (pen.g_kind, k)
            assert np.allclose(res.lam * 10.0 ** k, base.lam, rtol=1e-8), (pen.g_kind, k)
            assert res.iterations == base.iterations, (pen.g_kind, k)


# -- TNORM: rho_1 is the risk of its own portfolio --------------------------------


def test_tnorm_rho1_is_the_risk_of_its_portfolio():
    rng = np.random.default_rng(67)
    spec = RiskSpec.tnorm(2.0, 0.25)
    for _ in range(20):
        market = make_tanh_priced_market(rng, 20, 3)
        res = compute_rho1(market, spec)
        risk = eval_tnorm(excess_return(market, res.argmin), market.probs, 2.0, 0.25)
        assert abs(res.rho1 - risk) <= 1e-12 * abs(risk)
        assert res.gap >= 0.0
