"""The TNORM slice minimum and the POWER penalty through the power conjugate.

compute_rho1 finds rho_1 for TNORM(p, alpha) as the infimum over
lam . a < 0 of the ratio R(nu, lam) = (beta + E[(nu + lam . e)+^p / p] - nu)
/ (-lam . a), beta = (1 / alpha)^q / q, by damped Newton; its kernel is
the POWER dual of frontier._penalty_min, the damped Newton method on the
concave max over (nu, lam) of nu - E[(nu + lam . e)+^p / p].  The WC
slice minimum t_max guards the run lazily: its LP is solved only when
the first run from the Gaussian start does not converge.  These tests
hold the route to its own portfolio's TNORM, to the POWER dual just
below rho_1 (its least penalty is <= beta there), to a scipy
minimization of the joint convex form min over (pi, s) of
||(s - X_pi)+||_p / alpha - s, to the invariances rho_1 has, and to its
answers and LP calls where Newton on the ratio alone creeps or stops
short; the dual POWER test to away-step Frank-Wolfe
(oracles.frank_wolfe_min); and the shared Newton loop to its recession
stop.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

import oracles
from conftest import make_drift_market, make_random_market, make_tanh_priced_market
from rhoarb.dual import MartingalePolytope, classical_no_arbitrage, classify_dual
from rhoarb.frontier import ROOT_MAX_ITER, _penalty_min, compute_rho1
from rhoarb.market import ScenarioMarket, excess_return
from rhoarb.measures import RiskSpec, eval_tnorm

P_EXPS = (1.5, 2.0, 3.0)
ALPHAS = (0.05, 0.25, 0.5, 0.9)


def scipy_tnorm_rho1(market: ScenarioMarket, p_exp: float, alpha: float) -> float:
    """The lesser of two upper bounds on the TNORM slice minimum.

    One is L-BFGS-B on min over (v, s) of ||(s - X)+||_p / alpha - s with
    X = (pi0 + B v) . e over an orthonormal basis B of the slice pi . a = 1,
    a convex, once differentiable function away from X = s.  The other is
    the WC slice minimum by HiGHS (TNORM <= WC), which is exact in the
    worst-case regime, where the minimum sits on the kink s = min X.
    """
    E, p = market.excess_matrix, market.probs
    a = market.mean_returns - market.riskless_rate
    pi0 = a / float(a @ a)
    B = np.linalg.svd(a[None, :])[2][1:].T
    BE = B.T @ E
    k = B.shape[1]

    def f(v):
        X = pi0 @ E + v[:k] @ BE
        y = np.maximum(v[k] - X, 0.0)
        norm = float(p @ y ** p_exp) ** (1.0 / p_exp)
        if norm == 0.0:
            return -v[k], np.r_[np.zeros(k), -1.0]
        w = p * y ** (p_exp - 1.0) / norm ** (p_exp - 1.0) / alpha
        return norm / alpha - v[k], np.r_[-(BE @ w), w.sum() - 1.0]

    x0 = pi0 @ E
    res = minimize(f, np.r_[np.zeros(k), float(p @ x0)], jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 5000})
    d, N = E.shape
    wc = linprog(np.r_[np.zeros(d), 1.0], A_ub=np.hstack([-E.T, -np.ones((N, 1))]),
                 b_ub=np.zeros(N), A_eq=np.r_[a, 0.0][None, :], b_eq=[1.0],
                 bounds=[(None, None)] * (d + 1), method="highs")
    assert wc.status == 0, wc.message
    return min(float(res.fun), float(wc.fun))


def _sweep():
    """36 seeded markets: priced, drift and equal-odds drift, each at every
    (p, alpha) pair on one of six sizes, N 20-200 and d 2-8."""
    sizes = ((20, 2), (40, 3), (60, 4), (120, 6), (200, 8), (80, 5))
    cases = []
    pairs = [(pe, al) for pe in P_EXPS for al in ALPHAS]
    for i, (regime, (p_exp, alpha)) in enumerate(
            (r, pa) for r in ("priced", "drift", "equal-odds") for pa in pairs):
        N, d = sizes[i % len(sizes)]
        rng = np.random.default_rng([N, d, int(alpha * 1000), int(p_exp * 10)])
        if regime == "priced":
            market = make_tanh_priced_market(rng, N, d)
        elif regime == "drift":
            market = make_drift_market(rng, N, d, 1.0)
        else:
            market = make_drift_market(rng, N, d, 0.5, equal_odds=True)
        cases.append((regime, N, d, p_exp, alpha, market))
    return cases


def test_seeded_sweep_meets_its_certificates():
    cases = _sweep()
    assert len(cases) == 36
    for regime, N, d, p_exp, alpha, market in cases:
        spec = RiskSpec.tnorm(p_exp, alpha)
        res = compute_rho1(market, spec)
        label = (regime, N, d, p_exp, alpha)
        assert res.route == "ROOT" and res.attained and not res.annotations, label
        rho1, tol = res.rho1, 1e-9 * (1.0 + abs(res.rho1))
        risk = eval_tnorm(excess_return(market, res.argmin), market.probs, p_exp, alpha)
        assert abs(risk - rho1) <= tol, (label, risk, rho1)
        # The ratio at the final iterate bounds that risk from above.
        assert 0.0 <= res.gap <= tol, (label, res.gap)
        a = market.mean_returns - market.riskless_rate
        assert abs(float(res.argmin @ a) - 1.0) < 1e-12
        # Just below rho_1 some density in the q-norm ball of radius
        # 1 / alpha still prices the shifted excess.
        below = _penalty_min(spec.penalty_ball, market.probs,
                             (market.excess_matrix + (rho1 - 1e-9) * a[:, None]).T)
        assert below.value <= spec.penalty_ball.beta, (label, below.value)
        ref = scipy_tnorm_rho1(market, p_exp, alpha)
        assert abs(rho1 - ref) <= 1e-6 * max(1.0, abs(rho1)), (label, rho1, ref)


def test_levels_near_one_read_the_root_end_point():
    # At alpha = 0.999 the evaluator's minimizing shift lies far above
    # max X; a shift search bracketed near the data stopped short of it and
    # read rho_1 = -0.82046 with a gap of 9.1e-3 here.
    market = make_tanh_priced_market(np.random.default_rng(2), 40, 3)
    res = compute_rho1(market, RiskSpec.tnorm(3.0, 0.999))
    assert res.route == "ROOT" and res.attained and not res.annotations
    assert abs(res.rho1 - -0.8296040877060733) <= 1e-9
    assert 0.0 <= res.gap <= 1e-9 * (1.0 + abs(res.rho1))
    # The same on 105 seeded priced, drift and equal-odds drift markets.
    for seed in range(105):
        rng = np.random.default_rng([seed, 7])
        N, d = int(rng.integers(20, 121)), int(rng.integers(2, 6))
        if seed % 3 == 0:
            market = make_tanh_priced_market(rng, N, d)
        else:
            market = make_drift_market(rng, N, d, 1.0 if seed % 3 == 1 else 0.5,
                                       equal_odds=seed % 3 == 2)
        for alpha in (0.9, 0.99, 0.999):
            res = compute_rho1(market, RiskSpec.tnorm(float(rng.choice(P_EXPS)), alpha))
            assert res.route == "ROOT" and res.attained and not res.annotations, seed
            assert 0.0 <= res.gap <= 1e-9 * (1.0 + abs(res.rho1)), (seed, alpha, res.gap)


def _scaled(market: ScenarioMarket, k: float) -> ScenarioMarket:
    return ScenarioMarket(probs=market.probs, riskless_rate=market.riskless_rate * k,
                          returns=market.returns * k)


@pytest.mark.parametrize("regime", ["priced", "drift"])
def test_rho1_invariant_under_units_and_scenario_order(regime):
    rng = np.random.default_rng(71)
    if regime == "priced":
        market = make_tanh_priced_market(rng, 40, 3)
    else:
        market = make_drift_market(rng, 40, 3, 1.0)
    perm = np.random.default_rng(73).permutation(market.n_scenarios)
    shuffled = ScenarioMarket(probs=market.probs[perm], riskless_rate=market.riskless_rate,
                              returns=market.returns[:, perm])
    for p_exp, alpha in ((1.5, 0.25), (2.0, 0.5), (3.0, 0.05)):
        spec = RiskSpec.tnorm(p_exp, alpha)
        base = compute_rho1(market, spec).rho1
        others = [compute_rho1(_scaled(market, 10.0 ** k), spec).rho1 for k in (-6, -4, 4, 6)]
        others.append(compute_rho1(shuffled, spec).rho1)
        for rho1 in others:
            assert abs(rho1 - base) <= 1e-9 * (1.0 + abs(base)), (p_exp, alpha, rho1, base)


# -- the POWER penalty on the dual route ------------------------------------------


def test_power_dual_matches_frank_wolfe():
    rng = np.random.default_rng(79)
    compared = 0
    for i in range(24):
        market = make_random_market(rng, n_max=10, d_max=3)
        if classical_no_arbitrage(market).status != "OPTIMAL":
            continue
        q = (3.0, 2.0, 1.5)[i % 3]
        res = _penalty_min(RiskSpec.power(q, 1.0), market.probs, market.excess_matrix.T)
        assert res.status == "OK" and res.gradient_norm <= 1e-9
        poly = MartingalePolytope.of(market)
        assert poly.residual(res.z) <= 1e-9
        z, v, gap, _ = oracles.frank_wolfe_min(poly, market.probs,
                                               lambda z: np.abs(z) ** q / q,
                                               lambda z: np.abs(z) ** (q - 1.0))
        # The dual value bounds the minimum from below, the Frank-Wolfe
        # iterate's penalty from above.
        assert res.value <= v + 1e-12 * v
        if gap <= 1e-8:
            assert abs(res.value - v) <= 1e-9 * v, (i, res.value, v)
            compared += 1
    assert compared >= 10


def test_dual_routes_and_solver_numbers():
    market = make_tanh_priced_market(np.random.default_rng(83), 30, 3)
    power = classify_dual(market, RiskSpec.power(2.0, 10.0))
    custom = classify_dual(market, RiskSpec.custom(lambda z: z ** 2 / 2.0, 10.0))
    assert "M_EMPTY" not in power.annotations + custom.annotations
    power, custom = power.certificate, custom.certificate
    assert 0 < power["iterations"] and power["gap"] <= 1e-9
    assert custom["iterations"] > 0
    assert abs(custom["v_star"] - power["v_star"]) <= 1e-12 * power["v_star"]
    cert = classify_dual(market, RiskSpec.tnorm(2.0, 0.5)).certificate
    assert cert["iterations"] > 0 and cert["gap"] <= 1e-9
    assert abs(cert["witness"]["penalty"] - cert["v_star"]) <= 1e-9 * cert["v_star"]


# -- the shared Newton loop: recession stop -------------------------------------


def _unpriceable_draw():
    """Draw 283 of make_random_market(default_rng(31), n_max=8, d_max=3): a
    7x3 market that no density prices, where the cumulant falls linearly
    along a recession direction while its gradient stays near 0.48."""
    rng = np.random.default_rng(31)
    for _ in range(283):
        make_random_market(rng, n_max=8, d_max=3)
    return make_random_market(rng, n_max=8, d_max=3)


def test_newton_stops_on_a_recession_direction():
    market = _unpriceable_draw()
    assert (market.n_scenarios, market.n_assets) == (7, 3)
    assert classical_no_arbitrage(market).status == "INFEASIBLE"
    res = _penalty_min(RiskSpec.entropic(1.0), market.probs, market.excess_matrix.T)
    assert res.status == "DIVERGENT" and res.iterations <= 50
    assert res.value == math.inf
    for q in (1.5, 2.0, 3.0):
        res = _penalty_min(RiskSpec.power(q, 1.0), market.probs, market.excess_matrix.T)
        assert res.status == "DIVERGENT" and res.iterations <= 50
        assert res.value == math.inf


def test_power_start_is_exact_for_p2_while_the_density_stays_positive():
    # At p = 2 the least E[Z^2 / 2] near t = -1 is a quadratic in t while
    # Z > 0, so the Gaussian start is the minimizer of the ratio: the
    # Newton run stops at its first gradient test, with no step.
    market = make_drift_market(np.random.default_rng(3), 50, 4, 1.0)
    res = compute_rho1(market, RiskSpec.tnorm(2.0, 0.9))
    assert res.route == "ROOT" and res.iterations == 0
    assert res.gap <= 1e-12 * (1.0 + abs(res.rho1))
    q = 2.0
    beta = (1.0 / 0.9) ** q / q
    a = market.mean_returns - market.riskless_rate
    v = _penalty_min(RiskSpec.power(q, beta), market.probs,
                     (market.excess_matrix + res.rho1 * a[:, None]).T)
    assert v.z.min() > 0.0 and abs(v.value - beta) <= 1e-12 * beta


# -- the ratio run where plain Newton on the ratio goes wrong -------------------


def test_guard_at_t_max_keeps_the_ratio_run_off_its_plateau():
    # rho_1 = 0.138 sits just below t_max = 0.151, and R at the Gaussian
    # start lies above t_max.  Newton on the ratio alone, with no escape
    # bound, ran off to |x| ~ 1e6, where R flattens onto the WC risk of the
    # portfolio, crept there for 500 steps and ended 2e-4 high.  The first
    # run, capped at ROOT_RUN_STEPS, converges here with no WC slice LP;
    # had it not, the guard would first bring R below t_max, whose
    # sublevel sets are bounded.
    rng = np.random.default_rng([6, 99])
    rng.integers(20, 121), rng.integers(2, 6)  # the draws of N and d come first
    market = make_drift_market(rng, 20, 2, 1.0)
    res = compute_rho1(market, RiskSpec.tnorm(1.5, 0.25))
    assert res.route == "ROOT" and res.attained and not res.annotations
    assert abs(res.rho1 - 0.13836023999330516) <= 1e-9 * (1.0 + abs(res.rho1))
    assert res.gap <= 1e-12


def test_large_multipliers_near_p1_are_no_escape(frontier_lps):
    # At p = 1.2 the minimizer sits at |x| ~ 2e7 in the scaled rows, and
    # an exact Dinkelbach step from the right went past the kernels'
    # escape bound 1e8 on its way.  The ratio and the penalty solves below
    # t_max have bounded sublevel sets, so they run on; with the bound,
    # both stopped at once there and the route ended MAX_ITER 0.012 high.
    # The first run, which does keep the bound, does not converge, so the
    # route solves the WC slice LP once.
    rng = np.random.default_rng([47, 23])
    N, d = int(rng.integers(10, 200)), int(rng.integers(2, 8))
    market = make_tanh_priced_market(rng, N, d)
    assert (N, d) == (192, 7)
    res = compute_rho1(market, RiskSpec.tnorm(1.2, 0.1))
    assert res.route == "ROOT" and res.attained and not res.annotations
    assert abs(res.rho1 - 3.7084730725593804) <= 1e-9 * (1.0 + abs(res.rho1))
    assert res.gap <= 1e-9 * (1.0 + abs(res.rho1))
    assert len(frontier_lps) == 1


def test_stopped_short_near_p1_reports_a_rigorous_gap(frontier_lps):
    # At p = 1.1 the density Z = s+^(p - 1) needs s ~ 1e-12 beside
    # s ~ 100: the gradient of the shifted kernel stalls
    # near 1e-8 and no penalty solve converges.  Runs capped at
    # ROOT_RUN_STEPS, each followed by an exact Dinkelbach step, still take
    # R to the L-BFGS-B reference (one uncapped run crept 500 steps and
    # ended 8e-8 high), and rho_1 - gap = -1 bounds the minimum below.  On
    # the priced market the route spends its whole budget, and the exact
    # Dinkelbach step, once capped by what is left of it, no longer
    # overruns it (513 steps).  Each first run fails, so each solves the
    # WC slice LP once.
    cases = [(make_drift_market(np.random.default_rng(0), 40, 3, 1.0), -0.3276092239842),
             (make_tanh_priced_market(np.random.default_rng([2, 5]), 40, 3), 2.3081565157472)]
    for market, ref in cases:
        frontier_lps.clear()
        res = compute_rho1(market, RiskSpec.tnorm(1.1, 0.3))
        assert len(frontier_lps) == 1
        assert res.annotations == ("MAX_ITER",) and not res.attained
        assert res.iterations <= ROOT_MAX_ITER
        assert abs(res.rho1 - ref) <= 1e-6
        assert abs(res.rho1 - res.gap + 1.0) <= 1e-15
        risk = eval_tnorm(excess_return(market, res.argmin), market.probs, 1.1, 0.3)
        assert res.rho1 == risk
