"""The (J + d)-row slice LP and the (d + 1)-row martingale programs.

ES, SPECTRAL and WC reach rho_1 through the dual form of the slice minimum,
and the ES/WC dual tests through Charnes-Cooper scaled programs over M.
These tests hold them to HiGHS on the shortfall (Rockafellar-Uryasev) and
epigraph forms, to the invariances rho_1 must have, and to the
direct-form martingale LPs, and the SPECTRAL dual test (the box-scale LP,
then the classical LP) to direct forms with explicit margin and scale
rows.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import chi2

import rhoarb.dual
import rhoarb.lp as lp_module
from conftest import (binomial_market, duo_market, make_dominating_market, make_drift_market,
                      make_priced_market, make_random_market, make_tanh_priced_market)
from oracles import build_ru_lp, es_strict_check, spectral_box_scale
from rhoarb.dual import (MartingalePolytope, _decide_classical, _proves_empty,
                         classical_no_arbitrage, classify_dual, cross_validate, es_min_supnorm)
from rhoarb.elliptical import EllipticalMarket, critical_alpha, gaussian_rho_z, sr_max
from rhoarb.frontier import CLASSIFY_TOL, compute_rho1
from rhoarb.gaussian import Phi_inv, phi
from rhoarb.lp import INFEASIBLE, OPTIMAL
from rhoarb.market import ScenarioMarket, excess_return
from rhoarb.measures import RiskSpec, evaluate

SPECS = {
    "ES": RiskSpec.es(0.1),
    "SPECTRAL": RiskSpec.spectral([(0.05, 0.3), (0.25, 0.7)]),
    "WC": RiskSpec.wc(),
}


def highs_rho1(market: ScenarioMarket, spec: RiskSpec) -> float:
    """rho_1 by HiGHS: the shortfall LP for ES/SPECTRAL, the epigraph LP for WC."""
    if spec.kind == "WC":
        d, N = market.n_assets, market.n_scenarios
        c = np.r_[np.zeros(d), 1.0]
        A_ub = np.hstack([-market.excess_matrix.T, -np.ones((N, 1))])
        A_eq = np.r_[market.mean_returns - market.riskless_rate, 0.0][None, :]
        res = linprog(c, A_ub=A_ub, b_ub=np.zeros(N), A_eq=A_eq, b_eq=[1.0],
                      bounds=[(None, None)] * (d + 1), method="highs")
    else:
        atoms = spec.alpha if spec.kind == "ES" else spec.spectrum
        lp = build_ru_lp(market, atoms, 1.0)
        res = linprog(lp.c, A_ub=lp.A_le, b_ub=lp.b_le, A_eq=lp.A_eq, b_eq=lp.b_eq,
                      bounds=list(zip(lp.lower, lp.upper)), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _scaled(market: ScenarioMarket, k: float) -> ScenarioMarket:
    return ScenarioMarket(probs=market.probs, riskless_rate=market.riskless_rate * k,
                          returns=market.returns * k)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_rho1_and_verdicts_invariant_under_units(kind):
    # Quoting returns and r in other units leaves rho_1 and both verdicts
    # unchanged; the portfolio scales inversely.
    spec = SPECS[kind]
    market = make_tanh_priced_market(np.random.default_rng(5), 40, 3)
    base = cross_validate(market, spec)
    pi = compute_rho1(market, spec).argmin
    assert base.status == "AGREE"
    for k in (-6, -4, 4, 6):
        scale = 10.0 ** k
        cv = cross_validate(_scaled(market, scale), spec)
        assert cv.status == base.status
        assert cv.primal.verdict == base.primal.verdict
        assert cv.dual.verdict == base.dual.verdict
        assert abs(cv.rho1 - base.rho1) <= 1e-9 * (1.0 + abs(base.rho1))
        pi_k = np.asarray(cv.primal.certificate["portfolio"])
        assert np.allclose(pi_k * scale, pi, rtol=1e-7, atol=1e-9 * np.abs(pi).max())


def test_seeded_priced_markets_sweep():
    # Priced markets of assorted sizes: no operation raises, the two routes
    # never disagree, and rho_1 equals HiGHS on the primal forms.
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    for i in range(42):
        N = int(rng.integers(50, 251))
        d = int(rng.integers(3, 11))
        market = make_tanh_priced_market(rng, N, d)
        spec = SPECS[sorted(SPECS)[i % 3]]
        cv = cross_validate(market, spec)
        assert cv.status != "DISAGREE", (i, N, d, spec.kind)
        ref = highs_rho1(market, spec)
        assert abs(cv.rho1 - ref) <= 1e-6 * (1.0 + abs(ref)), (i, N, d, spec.kind)
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_slice_portfolio_attains_rho1(kind):
    # The negated asset-row duals are a minimizer: on the unit slice, with
    # risk equal to rho_1.
    spec = SPECS[kind]
    rng = np.random.default_rng(77)
    for _ in range(5):
        market = make_random_market(rng, n_max=30, d_max=5)
        if market.n_assets < 2:
            continue
        res = compute_rho1(market, spec)
        assert res.route == "LP" and res.attained
        a = market.mean_returns - market.riskless_rate
        assert abs(float(res.argmin @ a) - 1.0) < 1e-12
        risk = evaluate(spec, excess_return(market, res.argmin), market.probs)
        assert abs(risk - res.rho1) <= 1e-9 * (1.0 + abs(res.rho1))
        assert abs(res.rho1 - highs_rho1(market, spec)) <= 1e-9 * (1.0 + abs(res.rho1))


def test_frontier_iterations_are_reported_and_deterministic():
    market = make_tanh_priced_market(np.random.default_rng(9), 60, 4)
    for spec in (*SPECS.values(), RiskSpec.evar(0.5)):
        first, again = compute_rho1(market, spec), compute_rho1(market, spec)
        assert first.iterations > 0
        assert first.iterations == again.iterations
    assert compute_rho1(duo_market(), RiskSpec.es(0.25)).iterations == 0


# -- martingale-polytope programs against their direct forms -------------------


def _highs(c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None)):
    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                   method="highs")


def test_martingale_programs_match_direct_forms():
    rng = np.random.default_rng(4242)
    seen = 0
    for i in range(30):
        if i % 2:
            market = make_random_market(rng, n_max=25, d_max=4)
        else:
            market = make_tanh_priced_market(rng, int(rng.integers(10, 40)), 3)
        poly = MartingalePolytope.of(market)
        A, b = poly.A, poly.b
        N = market.n_scenarios
        rows = A.shape[0]
        # min ||z||_inf over M, as z <= t.
        ref = _highs(np.r_[np.zeros(N), 1.0], np.hstack([A, np.zeros((rows, 1))]), b,
                     np.hstack([np.eye(N), -np.ones((N, 1))]), np.zeros(N))
        sup = es_min_supnorm(market)
        if ref.status == 2:
            assert sup.status == "INFEASIBLE" and sup.t == math.inf
            continue
        assert abs(sup.t - ref.fun) <= 1e-9 * ref.fun
        assert sup.witness.residual < 1e-9 and abs(sup.witness.sup_norm - sup.t) < 1e-9 * sup.t
        # max delta with delta <= z <= 1/alpha - delta.
        for alpha in (0.1, 0.4, 0.7):
            ref = _highs(np.r_[np.zeros(N), -1.0], np.hstack([A, np.zeros((rows, 1))]), b,
                         np.vstack([np.hstack([-np.eye(N), np.ones((N, 1))]),
                                    np.hstack([np.eye(N), np.ones((N, 1))])]),
                         np.r_[np.zeros(N), np.full(N, 1.0 / alpha)])
            strict = es_strict_check(market, alpha)
            if ref.status == 2:
                assert strict.status == "INFEASIBLE"
                continue
            assert abs(strict.delta + ref.fun) <= 1e-9 / alpha
            z = strict.witness.z
            assert z.min() >= strict.delta - 1e-12
            assert z.max() <= 1.0 / alpha - strict.delta + 1e-12
            assert strict.witness.residual < 1e-9
        # max delta with delta <= z.
        ref = _highs(np.r_[np.zeros(N), -1.0], np.hstack([A, np.zeros((rows, 1))]), b,
                     np.hstack([-np.eye(N), np.ones((N, 1))]), np.zeros(N))
        cl = classical_no_arbitrage(market)
        assert abs(cl.delta + ref.fun) <= 1e-9
        assert cl.witness.min_entry >= cl.delta - 1e-12
        assert cl.witness.residual < 1e-9
        seen += 1
    assert seen >= 20


def test_classical_lp_matches_highs_past_the_tangency_proof():
    # The boxed, hinted classical LP on 1000 markets of the five generators
    # that the tangency portfolio does not prove empty, against HiGHS on
    # the direct form max delta with delta <= z, z in M: the same status,
    # and delta* to 1e-12.  Some are M-empty (the dual run ends on a Farkas
    # ray), some have delta* = 0.  The classical test of the dual verdicts
    # decides each market too.  Where it skips the LP, HiGHS finds delta*
    # at least its density's min entry, or no density at all where a Newton
    # direction proved M empty; where it runs the LP, it has the LP's answer.
    rng = np.random.default_rng(2468)
    draws = [
        lambda: make_random_market(rng, n_max=12, d_max=3),
        lambda: make_priced_market(rng, n_max=10, d_max=3),
        lambda: make_dominating_market(rng),
        lambda: make_tanh_priced_market(rng, int(rng.integers(8, 40)), int(rng.integers(1, 5))),
        lambda: make_drift_market(rng, int(rng.integers(8, 40)), int(rng.integers(1, 5)),
                                  float(rng.uniform(0.2, 2.0))),
    ]
    statuses = []
    skipped = {OPTIMAL: 0, INFEASIBLE: 0}
    worst = 0.0
    while len(statuses) < 1000:
        market = draws[len(statuses) % len(draws)]()
        if _proves_empty(market.tangency_excess) is not None:
            continue
        poly = market.polytope
        N = market.n_scenarios
        ref = _highs(np.r_[np.zeros(N), -1.0], np.hstack([poly.A, np.zeros((poly.A.shape[0], 1))]),
                     poly.b, np.hstack([-np.eye(N), np.ones((N, 1))]), np.zeros(N))
        cl = classical_no_arbitrage(market)
        statuses.append(cl.status)
        test = _decide_classical(market, CLASSIFY_TOL)
        if test.lp:
            assert (test.status, test.delta, test.iterations) == (cl.status, cl.delta, cl.iterations)
        else:
            skipped[test.status] += 1
        if ref.status == 2:
            assert cl.status == "INFEASIBLE" and test.status == "INFEASIBLE"
            if not test.lp:
                x = test.portfolio @ market.excess_matrix
                assert test.excess_min == float(x.min()) > 1e-9 * float(np.abs(x).max())
            continue
        assert ref.status == 0 and cl.status == "OPTIMAL" and test.status == "OPTIMAL"
        worst = max(worst, abs(cl.delta + ref.fun) / max(-ref.fun, 1e-3))
        assert cl.witness.residual < 1e-9
        if not test.lp:
            assert -ref.fun >= test.delta - 1e-12 and test.delta > CLASSIFY_TOL
            assert test.witness.min_entry == test.delta and test.witness.residual < 1e-9
    assert 20 <= statuses.count("INFEASIBLE") <= 200
    assert worst <= 1e-12
    assert skipped[OPTIMAL] >= 600 and skipped[INFEASIBLE] >= 20


def test_strict_box_unbounded_scale_is_the_constant_density():
    # alpha = 1/2 on a market with E[R] = r: Z = 1 is in M and the program's
    # scale s is unbounded; delta* = 1/(2 alpha) = 1.
    market = ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0, returns=[[1.0, -1.0]])
    res = es_strict_check(market, 0.5)
    assert res.status == "OPTIMAL"
    assert res.delta == 1.0
    assert np.all(res.witness.z == 1.0)
    assert es_strict_check(binomial_market(), 0.5).delta < 1e-12


# -- the box-scale LP against direct forms with margin and scale rows ----------


def highs_spectral_margin(market: ScenarioMarket, atoms) -> float | None:
    """max t with t <= zeta_j <= 1/alpha_j - t, E[zeta_j] = 1 for each atom
    below level 1, the mixture sum_j w_j zeta_j (level-1 atoms at 1) in M,
    t in [0, 1]; None when infeasible (no strong-form mixture).
    """
    p = market.probs
    N = market.n_scenarios
    E = market.excess_matrix * p[None, :]
    free = [(1.0 / a, w) for a, w in atoms if a < 1.0]
    w_pin = sum(w for a, w in atoms if a >= 1.0)
    J, n = len(free), len(free) * N + 1
    eye = sparse.identity(J * N, format="csr")
    t_col = sparse.csr_matrix(np.ones((J * N, 1)))
    A_ub = sparse.vstack([sparse.hstack([-eye, t_col]), sparse.hstack([eye, t_col])])
    b_ub = np.concatenate([np.zeros(J * N), np.repeat([cap for cap, _ in free], N)])
    A_eq = sparse.vstack(
        [sparse.hstack([sparse.kron(sparse.identity(J), p[None, :]),
                        sparse.csr_matrix((J, 1))]),
         sparse.hstack([sparse.csr_matrix(np.hstack([w * E for _, w in free])),
                        sparse.csr_matrix((E.shape[0], 1))])])
    b_eq = np.concatenate([np.ones(J), -w_pin * E.sum(axis=1)])
    c = np.zeros(n)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (n - 1) + [(0, 1)], method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -float(res.fun)


SPECTRA = (((0.05, 0.3), (0.25, 0.7)), ((0.2, 0.5), (0.6, 0.5)),
           ((0.1, 0.4), (0.5, 0.3), (1.0, 0.3)), ((0.4, 1.0),))


def _check_spectral_against_highs(market, atoms):
    v = classify_dual(market, RiskSpec.spectral(atoms))
    cert = v.certificate
    t_star = highs_spectral_margin(market, atoms)
    # t* = kappa* / alpha_1, kappa* the least common scale of the boxes.
    a1 = min((a for a, _ in atoms if a < 1.0), default=1.0)
    kappa = spectral_box_scale(market, atoms)
    assert cert["box_upper"] == 1.0 / a1
    if kappa == math.inf:
        assert cert["t_star"] == math.inf
    else:
        assert abs(cert["t_star"] - kappa / a1) <= 1e-9 * kappa / a1
    assert (v.verdict != "STRONG_RHO_ARBITRAGE") == (t_star is not None)
    if t_star is None:
        return "strong"
    assert cert["witness"]["residual"] < 1e-8
    if 0.0 < t_star < 1e-6:
        return "boundary"
    assert (v.verdict == "NO_ARBITRAGE") == (t_star > 1e-9)
    if v.verdict != "NO_ARBITRAGE":
        return "strict-fails"
    deltas = [cert[key] for key in ("delta_classical", "delta_lower") if key in cert]
    assert cert["t_star"] < cert["box_upper"] and len(deltas) == 1 and deltas[0] > 1e-9
    z = np.asarray(cert["witness"]["z"])
    assert z.min() > 0.0 and spectral_box_scale(market, atoms, z) < 1.0
    return "strict"


def test_spectral_box_mixture_matches_highs_margin_rows():
    # Strong-form feasibility and the sign of the strict margin, from the
    # (J + d)-row box-scale program and the classical LP, against HiGHS on
    # the form with one t <= zeta and one zeta <= cap - t row per scenario
    # and atom; t* against HiGHS on the direct form of the box scale.
    rng = np.random.default_rng(6060)
    seen = {"strong": 0, "strict-fails": 0, "strict": 0, "boundary": 0}
    for i in range(36):
        kind = i % 3
        if kind == 0:
            market = make_tanh_priced_market(rng, int(rng.integers(20, 120)),
                                             int(rng.integers(2, 5)))
        elif kind == 1:
            market = make_drift_market(rng, int(rng.integers(20, 120)),
                                       int(rng.integers(2, 5)), float(rng.uniform(0.1, 1.5)))
        else:
            market = make_random_market(rng, n_max=6, d_max=3)
        seen[_check_spectral_against_highs(market, SPECTRA[i % len(SPECTRA)])] += 1
    for market in (binomial_market(), duo_market()):
        for atoms in SPECTRA:
            seen[_check_spectral_against_highs(market, atoms)] += 1
    assert seen["strong"] and seen["strict-fails"] and seen["strict"] >= 10
    market = make_tanh_priced_market(np.random.default_rng(1000), 1000, 3)
    assert _check_spectral_against_highs(market, SPECTRA[0]) == "strict"


def test_spectral_dual_solves_the_box_scale_lp_then_the_classical_lp(monkeypatch):
    # The box-scale LP first; then, unless t* decides STRONG, the classical
    # LP where no density decides delta* before it.  On the priced market
    # the tangency or the Gibbs density does; on the binomial market P is
    # empty, so only the LP can.
    calls = []
    solve = rhoarb.dual.lp_solve

    def counted(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(rhoarb.dual, "lp_solve", counted)
    priced = make_tanh_priced_market(np.random.default_rng(11), 200, 4)
    for market in (priced, binomial_market()):
        for atoms in SPECTRA:
            calls.clear()
            v = classify_dual(market, RiskSpec.spectral(atoms))
            n_free, d = sum(1 for a, _ in atoms if a < 1.0), market.n_assets
            strong = v.verdict == "STRONG_RHO_ARBITRAGE"
            classical = [] if strong or market is priced else [d + 1]
            assert [lp.A_eq.shape[0] for lp in calls] == [n_free + d] + classical
            assert calls[0].A_le.shape[0] == 0
            assert ("delta_lower" in v.certificate) == (market is priced and not strong)
        assert v.verdict == ("NO_ARBITRAGE" if market is priced else "RHO_ARBITRAGE")


# -- the basis hint of the slice and box-scale LPs --------------------------------


@pytest.mark.parametrize("N, d, spec, zero_start", [
    (150, 6, RiskSpec.es(0.25), 180),
    (100, 4, RiskSpec.spectral([(0.1, 0.5), (0.5, 0.5)]), 203),
])
def test_crash_start_cuts_slice_pivots(N, d, spec, zero_start):
    # zero_start is the slice LP's pivot and flip count when every density
    # starts at 0.  The dual run from the basis hint (densities near the
    # tangency portfolio's alpha_j quantiles) must save at least 40% of it,
    # and change rho_1 by rounding only.
    market = make_drift_market(np.random.default_rng(0), N, d, 2.0)
    res = compute_rho1(market, spec)
    assert res.rho1 < 0.0
    assert res.iterations <= 0.6 * zero_start
    assert abs(res.rho1 - highs_rho1(market, spec)) <= 1e-9 * (1.0 + abs(res.rho1))


def highs_min_supnorm(market: ScenarioMarket) -> float:
    """min ||Z||_inf over M by HiGHS, with one z <= t row per scenario; inf if M is empty."""
    poly = MartingalePolytope.of(market)
    rows, N = poly.A.shape
    res = _highs(np.r_[np.zeros(N), 1.0], np.hstack([poly.A, np.zeros((rows, 1))]), poly.b,
                 np.hstack([np.eye(N), -np.ones((N, 1))]), np.zeros(N))
    if res.status == 2:
        return math.inf
    assert res.status == 0, res.message
    return float(res.fun)


def test_supnorm_crash_cuts_pivots():
    # 312 and 12 are the sup-norm LP's pivot and flip counts from y = 0.
    # The dual run from the basis hint (densities near the tangency
    # portfolio's break-even tail) must save at least half of the first,
    # and change t* by rounding only.
    market = make_tanh_priced_market(np.random.default_rng(0), 200, 6)
    res = es_min_supnorm(market)
    assert res.iterations <= 0.5 * 312
    assert abs(res.t - highs_min_supnorm(market)) <= 1e-9 * res.t
    # Here the tangency portfolio earns more than r in every scenario: M is
    # empty, the tails are empty, and the hint's start, y = 0 with
    # sigma = 0, is already optimal.
    market = make_drift_market(np.random.default_rng(0), 150, 6, 2.0)
    assert (market.tangency @ market.excess_matrix).min() > 0.0
    res = es_min_supnorm(market)
    assert res.status == "INFEASIBLE" and highs_min_supnorm(market) == math.inf
    assert res.iterations == 0


def test_every_lp_of_a_valid_market_runs_from_the_dual_start(monkeypatch, frontier_lps):
    # Every program the routes build is boxed but for one column and carries
    # a hint, so no LP of cross_validate takes the primal start: not from
    # the outset, and not as the fallback of a dual run.  Among them are WC's
    # slice LP, both on the LP route and as the guard of the ROOT route, which
    # the TNORM run on the first drift market needs.
    tableaux, starts = [], []
    init, primal_start = lp_module._Tableau.__init__, lp_module._Tableau.primal_start
    monkeypatch.setattr(lp_module._Tableau, "__init__",
                        lambda self, lp: tableaux.append(lp) or init(self, lp))
    monkeypatch.setattr(lp_module._Tableau, "primal_start",
                        lambda self, *args: starts.append(self) or primal_start(self, *args))
    rng = np.random.default_rng(2525)
    markets = [binomial_market(), duo_market(),
               make_drift_market(np.random.default_rng(0), 60, 4, 1.0),
               make_drift_market(rng, 100, 4, 2.0), make_drift_market(rng, 60, 3, 0.3),
               make_drift_market(rng, 50, 3, 0.5, equal_odds=True),
               make_tanh_priced_market(rng, 150, 5), make_dominating_market(rng)]
    markets += [make_random_market(rng, 12, 3) for _ in range(4)]
    markets += [make_priced_market(rng, 10, 3) for _ in range(4)]
    specs = [RiskSpec.wc(), RiskSpec.es(0.1), RiskSpec.spectral([(0.05, 0.3), (0.25, 0.7)]),
             RiskSpec.evar(0.1), RiskSpec.tnorm(2.0, 0.25)]
    guards = 0
    for market in markets:
        classical_no_arbitrage(market)  # which the dual tests solve only where no density decides
        for spec in specs:
            before = len(frontier_lps)
            cross_validate(market, spec)
            guards += spec.kind == "TNORM" and len(frontier_lps) > before
    assert guards and len(tableaux) > 100
    assert not starts


def test_spectral_slice_at_ten_thousand_scenarios_takes_few_dual_iterations():
    # The SPECTRAL slice LP of the bench priced market at 10^4 x 30
    # (tests.conftest.make_tanh_priced_market is its generator) within twice
    # the 397 iterations of HiGHS's dual simplex.  HiGHS's objective is off
    # by 2.4e-7 there, so the check is on the evaluated risk of the returned
    # portfolio, against primal_risk: that of the portfolio the primal
    # simplex returns for the same program (7947 pivots from a start with
    # each density at its cap on 90% of its atom's tangency tail).
    market = make_tanh_priced_market(np.random.default_rng([10_000, 30, 7]), 10_000, 30)
    spec = RiskSpec.spectral([(0.05, 0.3), (0.25, 0.7)])
    start = time.perf_counter()
    res = compute_rho1(market, spec)
    elapsed = time.perf_counter() - start
    assert res.iterations <= 2 * 397
    risk = evaluate(spec, excess_return(market, res.argmin), market.probs)
    primal_risk = 3.1491527984751526
    assert abs(risk - primal_risk) <= 1e-12 * primal_risk
    assert abs(res.rho1 - risk) <= 1e-12 * risk
    assert elapsed < 5.0


def moment_matched_gaussian(N: int, d: int, seed: int, r: float = 0.01):
    """(market, SR, pi*): N draws of a d-asset Gaussian market, moment-matched
    so that the sample mean and covariance (weights 1/N) are the model's;
    then the tangency portfolio pi* and the Sharpe ratio SR are the model's
    too."""
    rng = np.random.default_rng(seed)
    A = 0.1 * rng.normal(size=(d, d))
    cov = A @ A.T + 0.01 * np.eye(d)
    mean = r + rng.normal(0.05, 0.05, d)
    sr, tangency = sr_max(EllipticalMarket(mean=mean, cov=cov, riskless_rate=r))
    W = rng.normal(size=(d, N))
    W -= W.mean(axis=1, keepdims=True)
    W = np.linalg.solve(np.linalg.cholesky(W @ W.T / N), W)
    market = ScenarioMarket(probs=np.full(N, 1.0 / N), riskless_rate=r,
                            returns=mean[:, None] + np.linalg.cholesky(cov) @ W)
    return market, sr, tangency


def es_estimator_sd2(alpha: float) -> float:
    """N times the asymptotic variance of the empirical ES_alpha of N(0, 1):
    (Var(Z | Z <= q) + (1 - alpha)(q - E[Z | Z <= q])^2) / alpha, q = Phi^-1(alpha)."""
    q = Phi_inv(alpha)
    lam = phi(q) / alpha                               # -E[Z | Z <= q]
    return (1.0 - q * lam - lam ** 2 + (1.0 - alpha) * (q + lam) ** 2) / alpha


def test_gaussian_sample_matches_the_elliptical_closed_form():
    # N = 10^4 draws of a d = 10 Gaussian market (moment_matched_gaussian).
    # Under the model rho_1 = -1 + rho(Z)/SR, rho(Z) = ES_alpha of N(0, 1).
    #  - pi* is on the slice, so rho_1 <= ES_emp(X_pi*), the empirical ES of
    #    1 + W/SR with W standardized normal.
    #  - Moving off pi* by s along a standardized direction V uncorrelated
    #    with W changes ES_emp by g s + rho(Z) SR s^2 / 2 with
    #    g = -E_emp[V 1{tail of W}]/alpha ~ N(0, 1/(alpha N)); over the d - 1
    #    directions the slice minimum gains chi2_{d-1}/(2 alpha N rho(Z) SR),
    #    bounded here by its 99.9% quantile.
    #  - ES_emp(W) - rho(Z) has asymptotic standard deviation sigma/sqrt(N),
    #    sigma^2 = es_estimator_sd2(alpha); the test allows 4 of them, divided by SR.
    N, d, alpha = 10_000, 10, 0.05
    market, sr, tangency = moment_matched_gaussian(N, d, 404)
    spec = RiskSpec.es(alpha)
    rho_z = gaussian_rho_z("ES", alpha)
    closed_form = -1.0 + rho_z / sr

    start = time.perf_counter()
    res = compute_rho1(market, spec)
    elapsed = time.perf_counter() - start
    at_tangency = evaluate(spec, excess_return(market, tangency), market.probs)
    gain = chi2.ppf(0.999, d - 1) / (2.0 * alpha * N * rho_z * sr)
    assert -1e-9 <= at_tangency - res.rho1 <= gain
    assert abs(at_tangency - closed_form) <= 4.0 * math.sqrt(es_estimator_sd2(alpha) / N) / sr
    assert elapsed < 5.0


def test_gaussian_sample_critical_es_level_from_the_supnorm():
    # The paper's ES criterion at N = 10^4: the sample market flips to ES
    # arbitrage at the level alpha_hat = 1/t*, where its rho_1 is 0; the
    # model flips at alpha* = critical_alpha(SR, "ES"), where ES_alpha*(Z) = SR.
    # With the bounds of the test above at the level alpha_hat, rho_1 = 0
    # puts ES_emp(W) in [SR, SR (1 + gain)], and ES_emp(W) is within
    # 4 sigma/sqrt(N) of ES_alpha_hat(Z), sigma and gain taken at alpha_hat.
    # ES_alpha(Z) = phi(q)/alpha falls with alpha at the rate
    # (q + phi(q)/alpha)/alpha and is convex for alpha below 0.7, so that
    # rate is least at the larger level, and by the mean value theorem
    #     |alpha_hat - alpha*| <= (4 sigma/sqrt(N) + SR gain) / (rate at max(alpha_hat, alpha*)).
    N, d = 10_000, 10
    market, sr, _ = moment_matched_gaussian(N, d, 404)
    alpha_star = critical_alpha(sr, "ES")
    alpha_hat = 1.0 / es_min_supnorm(market).t
    top = max(alpha_hat, alpha_star)
    assert top < 0.7
    q = Phi_inv(top)
    rate = (q + phi(q) / top) / top
    gain = chi2.ppf(0.999, d - 1) / (2.0 * alpha_hat * N * gaussian_rho_z("ES", alpha_hat) * sr)
    sampling = 4.0 * math.sqrt(es_estimator_sd2(alpha_hat) / N) + sr * gain
    assert abs(alpha_hat - alpha_star) <= sampling / rate

    start = time.perf_counter()
    verdict = classify_dual(market, RiskSpec.es(0.05))
    elapsed = time.perf_counter() - start
    assert verdict.verdict == "NO_ARBITRAGE"
    assert elapsed < 5.0


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_dual_certificate_counts_its_lp_iterations(monkeypatch, kind):
    # The dual verdict's certificate carries the iterations of every LP it
    # solved.  Each count is raised by one, so the sum is positive even
    # where a hinted start is optimal at iteration 0.  On the priced market
    # a density decides delta* without the classical LP; on the binomial
    # market, where delta* = 0, the classical LP runs.
    counted = []
    solve = rhoarb.dual.lp_solve

    def counting(lp):
        sol = solve(lp)
        sol = dataclasses.replace(sol, iterations=sol.iterations + 1)
        counted.append(sol.iterations)
        return sol

    monkeypatch.setattr(rhoarb.dual, "lp_solve", counting)
    box = kind != "WC"  # ES and SPECTRAL solve the box-scale LP first
    for market, expected, lps in ((make_tanh_priced_market(np.random.default_rng(12), 80, 4),
                                   "NO_ARBITRAGE", box),
                                  (binomial_market(), "RHO_ARBITRAGE", box + 1)):
        counted.clear()
        verdict = classify_dual(market, SPECS[kind])
        assert verdict.verdict == expected
        assert len(counted) == lps
        assert verdict.certificate["iterations"] == sum(counted) >= lps
        assert ("delta_classical" in verdict.certificate) == (lps > box)
