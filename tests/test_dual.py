"""Tests for the martingale-density programs and the dual classification."""

import math

import numpy as np
import pytest

import oracles
import rhoarb.dual
import rhoarb.frontier
from conftest import (binomial_market, duo_market, make_dominating_market,
                      make_drift_market, make_priced_market, make_random_market,
                      make_tanh_priced_market)
from oracles import box_mixture, es_strict_check, spectral_box_scale
from rhoarb.dual import (MartingalePolytope, _proves_empty, classical_no_arbitrage,
                         classify_dual, cross_validate, es_min_supnorm)
from rhoarb.frontier import CLASSIFY_TOL, classify_primal, compute_rho1
from rhoarb.market import ScenarioMarket, excess_return
from rhoarb.measures import RiskSpec, conjugate, evaluate

DUO_ENTROPY = 0.0566330122651324  # E[Z log Z] at Z = (2/3, 4/3), equal odds


def classical_deltas(cert: dict) -> list[float]:
    """delta_classical (the classical LP ran) or delta_lower (a density
    decided without it): at most one is in a certificate."""
    return [cert[key] for key in ("delta_classical", "delta_lower") if key in cert]


def unpriceable_market() -> ScenarioMarket:
    # Both returns strictly exceed r, so no nonnegative density prices the
    # asset and M is empty.
    return ScenarioMarket(probs=(0.5, 0.5), riskless_rate=0.0,
                          returns=[[1.0, 0.5]])


# -- polytope and witnesses ----------------------------------------------------


def test_polytope_row_count_and_rhs():
    rng = np.random.default_rng(101)
    for _ in range(5):
        market = make_random_market(rng, n_max=7, d_max=3)
        poly = MartingalePolytope.of(market)
        assert poly.A.shape == (market.n_assets + 1, market.n_scenarios)
        assert poly.b[0] == 1.0
        assert np.all(poly.b[1:] == 0.0)


def test_witness_scalars_match_the_vector():
    rng = np.random.default_rng(103)
    for _ in range(10):
        market = make_random_market(rng, n_max=8, d_max=3)
        res = classical_no_arbitrage(market)
        if res.witness is None:
            continue
        w = res.witness
        assert w.residual < 1e-8
        assert w.min_entry == float(w.z.min())
        assert w.sup_norm == float(np.abs(w.z).max())
        sup = es_min_supnorm(market)
        assert sup.witness.residual < 1e-8
        assert abs(sup.witness.sup_norm - sup.t) < 1e-8


# -- classical first-kind test -----------------------------------------------


def test_classical_binomial_delta_zero():
    res = classical_no_arbitrage(binomial_market())
    assert res.status == "OPTIMAL"
    assert abs(res.delta) < 1e-9
    assert np.allclose(res.witness.z, [0.0, 2.0], atol=1e-9)


def test_classical_duo_delta_two_thirds():
    res = classical_no_arbitrage(duo_market())
    assert abs(res.delta - 2.0 / 3.0) < 1e-9
    assert np.allclose(res.witness.z, [2.0 / 3.0, 4.0 / 3.0], atol=1e-9)


def test_classical_dominating_market_flags_first_kind():
    rng = np.random.default_rng(107)
    for _ in range(5):
        market = make_dominating_market(rng)
        res = classical_no_arbitrage(market)
        assert res.status == "OPTIMAL"
        assert abs(res.delta) < 1e-9
        verdict = classify_primal(compute_rho1(market, RiskSpec.wc()))
        assert verdict.verdict != "NO_ARBITRAGE"


# -- minimal sup-norm ---------------------------------------------------------


def test_supnorm_binomial():
    res = es_min_supnorm(binomial_market())
    assert abs(res.t - 2.0) < 1e-9
    assert np.allclose(res.witness.z, [0.0, 2.0], atol=1e-9)


def test_supnorm_duo():
    res = es_min_supnorm(duo_market())
    assert abs(res.t - 4.0 / 3.0) < 1e-9


def test_supnorm_empty_set_is_infinite():
    res = es_min_supnorm(unpriceable_market())
    assert res.status == "INFEASIBLE"
    assert res.t == math.inf
    assert res.witness is None
    for alpha in (0.1, 0.5, 0.9):
        verdict = classify_dual(unpriceable_market(), RiskSpec.es(alpha))
        assert verdict.verdict == "STRONG_RHO_ARBITRAGE"
        assert "M_EMPTY" in verdict.annotations


# -- strict ES box ------------------------------------------------------------


def test_strict_es_binomial_always_zero():
    for alpha in (0.1, 0.4, 0.5, 0.8):
        res = es_strict_check(binomial_market(), alpha)
        assert abs(res.delta) < 1e-9


def test_strict_es_duo_margins():
    res = es_strict_check(duo_market(), 0.25)
    assert abs(res.delta - 2.0 / 3.0) < 1e-9
    assert np.allclose(res.witness.z, [2.0 / 3.0, 4.0 / 3.0], atol=1e-8)
    res = es_strict_check(duo_market(), 0.75)
    assert abs(res.delta) < 1e-9


def test_strict_es_rejects_bad_alpha():
    with pytest.raises(ValueError):
        es_strict_check(duo_market(), 1.0)


# -- M empty from the tangency portfolio ---------------------------------------


@pytest.mark.parametrize("spec", [
    RiskSpec.wc(), RiskSpec.es(0.25), RiskSpec.spectral([(0.1, 0.5), (0.5, 0.5)]),
    RiskSpec.evar(0.25), RiskSpec.tnorm(2.0, 0.25), RiskSpec.entropic(0.5),
    RiskSpec.power(2.0, 2.0), RiskSpec.custom(lambda z: np.sqrt(1.0 + z ** 2), 1.6),
], ids=lambda spec: spec.g_kind or spec.kind)
def test_tangency_proof_of_an_empty_m_solves_no_lp(spec, monkeypatch):
    # pi_T . e is 12 and 6 on the two scenarios: min 6 > 0 proves M empty,
    # and every test returns that proof before any LP.
    calls = []
    solve = rhoarb.dual.lp_solve
    monkeypatch.setattr(rhoarb.dual, "lp_solve", lambda lp: calls.append(lp) or solve(lp))
    verdict = classify_dual(unpriceable_market(), spec)
    assert not calls
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"
    assert verdict.annotations == ("M_EMPTY",)
    cert = verdict.certificate
    assert cert["iterations"] == 0 and "delta_classical" not in cert
    assert cert["tangency_excess_min"] == pytest.approx(6.0, rel=1e-12)
    market = unpriceable_market()
    assert cert["arbitrage_portfolio"] == market.tangency.tolist()
    assert float((market.tangency @ market.excess_matrix).min()) == cert["tangency_excess_min"]


# -- g-entropic penalties ------------------------------------------------------


def test_gentropic_duo_entropy_value_and_threshold():
    res = classify_dual(duo_market(), RiskSpec.entropic(-math.log(0.9)))
    assert abs(res.certificate["v_star"] - DUO_ENTROPY) < 1e-8
    assert res.verdict == "NO_ARBITRAGE"
    assert abs(res.certificate["witness"]["penalty"] - DUO_ENTROPY) < 1e-6
    # Budget below the minimal entropy: strong arbitrage.
    res = classify_dual(duo_market(), RiskSpec.entropic(-math.log(0.96)))
    assert res.verdict == "STRONG_RHO_ARBITRAGE"


def test_gentropic_binomial_entropy_divergent():
    res = classify_dual(binomial_market(), RiskSpec.entropic(1.0))
    assert abs(res.certificate["v_star"] - math.log(2.0)) < 1e-9
    assert "DIVERGENT" in res.annotations
    assert res.verdict != "NO_ARBITRAGE"  # P empty: never arbitrage-free
    for alpha in (0.2, 0.5, 0.9):
        verdict = classify_dual(binomial_market(), RiskSpec.evar(alpha))
        assert verdict.verdict != "NO_ARBITRAGE"


def test_gentropic_duo_power_value_and_threshold():
    res = classify_dual(duo_market(), RiskSpec.power(2.0, 1.0))
    assert abs(res.certificate["v_star"] - 5.0 / 9.0) < 1e-6
    # TNORM p = 2 budget is 1/(2 alpha^2); the no-arbitrage region ends at
    # alpha = 3/sqrt(10).
    a_star = 3.0 / math.sqrt(10.0)
    assert classify_dual(duo_market(), RiskSpec.tnorm(2.0, 0.9)).verdict == "NO_ARBITRAGE"
    assert classify_dual(
        duo_market(), RiskSpec.tnorm(2.0, 0.96)).verdict == "STRONG_RHO_ARBITRAGE"
    assert 0.9 < a_star < 0.96


def test_gentropic_empty_set_is_infinite():
    res = classify_dual(unpriceable_market(), RiskSpec.entropic(5.0))
    assert res.certificate["v_star"] == math.inf
    assert res.verdict == "STRONG_RHO_ARBITRAGE"
    assert "M_EMPTY" in res.annotations


def test_evar_no_arbitrage_on_a_priced_market_solves_no_lp(dual_lps):
    # The Gibbs density is strictly positive, so a converged minimizer with
    # v* < beta is the strictly positive density in the ball by itself.
    market = make_tanh_priced_market(np.random.default_rng(7), 60, 3)
    verdict = classify_dual(market, RiskSpec.evar(0.1))
    assert verdict.verdict == "NO_ARBITRAGE" and verdict.annotations == ()
    assert not dual_lps
    assert "delta_classical" not in verdict.certificate
    assert verdict.certificate["witness"]["min_entry"] > CLASSIFY_TOL


@pytest.mark.parametrize("spec", [RiskSpec.wc(), RiskSpec.es(0.1),
                                  RiskSpec.spectral([(0.05, 0.3), (0.25, 0.7)])],
                         ids=["WC", "ES", "SPECTRAL"])
def test_lp_measures_on_a_priced_market_solve_no_classical_lp(spec, dual_lps):
    # The bench's priced shape (its generator is make_tanh_priced_market):
    # the tangency density is strictly positive and in M, so it decides
    # delta* > tol; WC solves no LP, ES and SPECTRAL only the box-scale LP.
    market = make_tanh_priced_market(np.random.default_rng(1006), 120, 6)
    verdict = classify_dual(market, spec)
    assert verdict.verdict == "NO_ARBITRAGE" and verdict.annotations == ()
    # The box-scale LP's scale column is unbounded; the classical LP caps delta at 1.
    assert len(dual_lps) == (spec.kind != "WC")
    assert all(lp.upper[-1] == math.inf for lp in dual_lps)
    cert = verdict.certificate
    assert "delta_classical" not in cert and cert["newton_iterations"] == 0
    z = market.tangency_density
    assert cert["delta_lower"] == float(z.min()) > CLASSIFY_TOL
    assert classical_no_arbitrage(market).delta >= cert["delta_lower"]
    assert cert["witness"]["min_entry"] > 0.0 and cert["witness"]["residual"] <= 1e-9
    if spec.kind == "WC":
        assert cert["witness"]["z"] == z.tolist() and cert["iterations"] == 0


def test_wc_at_ten_thousand_scenarios_is_decided_by_the_gibbs_density(dual_lps):
    # The bench's 10^4 x 30 priced scale cell: the tangency density has
    # negative entries there, and the entropy's Gibbs density decides
    # delta* > tol in a few Newton steps, where the classical LP would take
    # ~180 iterations.
    market = make_tanh_priced_market(np.random.default_rng([10_000, 30, 7]), 10_000, 30)
    assert market.tangency_density.min() < 0.0
    verdict = classify_dual(market, RiskSpec.wc())
    assert verdict.verdict == "NO_ARBITRAGE" and verdict.annotations == ()
    assert not dual_lps
    cert = verdict.certificate
    assert cert["iterations"] == 0 and 0 < cert["newton_iterations"] <= 10
    assert cert["delta_lower"] == cert["witness"]["min_entry"] > CLASSIFY_TOL
    assert cert["witness"]["residual"] <= 1e-9


@pytest.mark.parametrize("spec", [RiskSpec.evar(0.99), RiskSpec.tnorm(2.0, 0.99)],
                         ids=["EVAR", "TNORM"])
def test_strong_penalty_verdict_on_a_nonempty_m_solves_no_lp(spec, dual_lps):
    market = make_tanh_priced_market(np.random.default_rng(7), 60, 3)
    verdict = classify_dual(market, spec)
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE" and verdict.annotations == ()
    assert verdict.certificate["v_star"] > verdict.certificate["beta"]
    assert not dual_lps
    assert "delta_classical" not in verdict.certificate


def test_tnorm_witness_with_zero_entries_solves_the_classical_lp_and_mixes(dual_lps):
    # The power density max(s, 0) vanishes on 27 of the 40 scenarios, so
    # delta* > 0 and the mixture with the classical witness decide.
    market = make_drift_market(np.random.default_rng(0), 40, 3, 1.0)
    spec = RiskSpec.tnorm(2.0, 0.25)
    res = rhoarb.frontier._penalty_min(spec.penalty_ball, market.probs,
                                       market.excess_matrix.T)
    assert res.status == "OK" and np.count_nonzero(res.z <= 0.0) == 27
    verdict = classify_dual(market, spec)
    assert verdict.verdict == "NO_ARBITRAGE"
    assert len(dual_lps) == 1
    cert = verdict.certificate
    assert cert["delta_classical"] > 1e-9 and "delta_lower" not in cert
    # Newton's steps and the LP's iterations are counted apart.
    assert cert["iterations"] == res.iterations
    assert cert["lp_iterations"] == classical_no_arbitrage(market).iterations
    assert cert["witness"]["min_entry"] > 0.0 and cert["witness"]["residual"] < 1e-9
    assert cert["v_star"] <= cert["witness"]["penalty"] < cert["beta"]


@pytest.mark.parametrize("spec", [RiskSpec.evar(0.1), RiskSpec.tnorm(2.0, 0.25), RiskSpec.wc()],
                         ids=["EVAR", "TNORM", "WC"])
def test_empty_m_past_the_tangency_proof_solves_no_lp(spec, dual_lps):
    # No density prices this 50x4 drift market, but pi_T . e takes both
    # signs.  Newton does not converge (the penalty's own run, or WC's
    # entropy solve), and its multipliers run off along -pi for a pi that
    # earns more than r in every scenario: that proves M empty, and no LP
    # runs.
    market = make_drift_market(np.random.default_rng(2), 50, 4, 1.0)
    assert _proves_empty(market.tangency_excess) is None
    verdict = classify_dual(market, spec)
    assert not dual_lps
    assert verdict.verdict == "STRONG_RHO_ARBITRAGE"
    assert verdict.annotations == ("M_EMPTY",)
    cert = verdict.certificate
    x = np.asarray(cert["arbitrage_portfolio"]) @ market.excess_matrix
    assert cert["excess_min"] == float(x.min()) > 1e-9 * float(np.abs(x).max())
    assert {"delta_classical", "delta_lower", "lp_iterations"}.isdisjoint(cert)
    if spec.kind == "WC":
        assert cert["iterations"] == 0 and cert["newton_iterations"] > 0
    else:
        assert cert["v_star"] == math.inf and cert["iterations"] > 0


def test_empty_m_that_newton_cannot_prove_goes_to_the_lp(dual_lps):
    # TNORM(1.2, 0.2) on M-empty drift markets: on most, the power run's
    # direction proves M empty; on some (6 of 27 here) it does not clear
    # the emptiness margin, and the classical LP proves it.  That
    # certificate keeps Newton's steps and the LP's iterations apart.
    rng = np.random.default_rng(2)
    spec = RiskSpec.tnorm(1.2, 0.2)
    seen = by_newton = 0
    for _ in range(60):
        market = make_drift_market(rng, int(rng.integers(20, 80)), 4, 1.0)
        if (_proves_empty(market.tangency_excess) is not None
                or classical_no_arbitrage(market).status != "INFEASIBLE"):
            continue
        dual_lps.clear()
        verdict = classify_dual(market, spec)
        cert = verdict.certificate
        assert verdict.verdict == "STRONG_RHO_ARBITRAGE" and verdict.annotations == ("M_EMPTY",)
        if dual_lps:
            assert len(dual_lps) == 1 and cert["delta_classical"] == 0.0
            assert cert["lp_iterations"] == classical_no_arbitrage(market).iterations
            assert "arbitrage_portfolio" not in cert
            seen += 1
        else:
            assert "delta_classical" not in cert and cert["excess_min"] > 0.0
            by_newton += 1
        assert cert["iterations"] > 0
    assert seen and by_newton


def test_gentropic_budget_must_exceed_the_penalty_at_one():
    # Z = 1 has penalty g(1): a budget at or below it is no dual set at all,
    # and RiskSpec rejects it.
    for make, g1 in ((RiskSpec.entropic, 0.0), (lambda b: RiskSpec.power(2.0, b), 0.5),
                     (lambda b: RiskSpec.power(4.0, b), 0.25),
                     (lambda b: RiskSpec.custom(lambda z: (z - 1.0) ** 2, b), 0.0)):
        for beta in (g1, g1 - 0.1):
            with pytest.raises(ValueError):
                make(beta)


def test_gentropic_power_matches_grid_oracle():
    rng = np.random.default_rng(109)
    q = 2.0
    gfun = lambda z: z ** q / q
    done = 0
    while done < 6:
        market = make_random_market(rng, n_max=4, d_max=2)
        cl = classical_no_arbitrage(market)
        if cl.status != "OPTIMAL":
            continue
        v_star = classify_dual(market, RiskSpec.power(q, 1e9)).certificate["v_star"]
        ref, _ = oracles.penalty_grid_min(market.probs, market.excess_matrix, gfun)
        assert abs(v_star - ref) < 1e-5, (v_star, ref)
        done += 1


def test_custom_penalty_matches_the_closed_form_kernels():
    # A CUSTOM g runs the conjugate kernel on its conjugate over the box
    # 0 <= z <= 1/p, found by bisection on g' (given, or a central difference
    # of g).  On z^q / q and z log z it must give the closed-form kernels'
    # numbers: the POWER conjugate and the ENTROPY cumulant.
    rng = np.random.default_rng(113)
    markets = ([make_random_market(rng, n_max=10, d_max=3) for _ in range(4)]
               + [make_tanh_priced_market(rng, 15, 3) for _ in range(2)]
               + [make_drift_market(rng, 15, 3, 0.5) for _ in range(2)])
    entropy = lambda z: z * np.log(np.maximum(z, 1e-300))
    for market in markets:
        pairs = [(RiskSpec.entropic(10.0), RiskSpec.custom(entropy, 10.0,
                                                            g_prime=lambda z: np.log(z) + 1.0))]
        for q in (1.5, 2.0, 3.0, 6.0):
            g = lambda z, q=q: z ** q / q
            pairs += [(RiskSpec.power(q, 10.0), RiskSpec.custom(g, 10.0)),
                      (RiskSpec.power(q, 10.0),
                       RiskSpec.custom(g, 10.0, g_prime=lambda z, q=q: z ** (q - 1.0)))]
        for closed, custom in pairs:
            ref, res = classify_dual(market, closed), classify_dual(market, custom)
            v_ref, v = ref.certificate["v_star"], res.certificate["v_star"]
            assert "M_EMPTY" not in res.annotations
            assert abs(v - v_ref) <= 1e-12 * v_ref, (closed, v, v_ref)
            assert res.verdict == ref.verdict
            if "DIVERGENT" not in ref.annotations:
                assert "DIVERGENT" not in res.annotations, (closed, res.certificate["gap"])


def test_custom_penalties_match_frank_wolfe():
    # g whose plain conjugate is infinite somewhere (sqrt(1 + z^2) above
    # s = 1), whose g' is flat (Huber-like) or unbounded (-log z at 0), or
    # whose g' is negative at 1 ((z - 1)^2): the box 0 <= z <= 1/p keeps g*
    # finite and every root of g'(z) = s bracketed.  The reference is
    # away-step Frank-Wolfe over M, run until its gap is at most 1e-8 (its
    # LP oracle needs a finite gradient at the vertices, hence the clip).
    market = make_tanh_priced_market(np.random.default_rng(83), 30, 3)
    cases = [
        (lambda z: np.sqrt(1.0 + z ** 2), lambda z: z / np.sqrt(1.0 + z ** 2), 1.6),
        (lambda z: np.where(z < 2.0, z ** 2 / 4.0, z - 1.0),
         lambda z: np.where(z < 2.0, z / 2.0, 1.0), 0.5),
        (lambda z: -np.log(z), lambda z: -1.0 / np.maximum(z, 1e-12), 0.5),
        (lambda z: (z - 1.0) ** 2, lambda z: 2.0 * (z - 1.0), 0.5),
    ]
    for g, g_prime, beta in cases:
        res = classify_dual(market, RiskSpec.custom(g, beta))
        z, v, gap, _ = oracles.frank_wolfe_min(market.polytope, market.probs, g, g_prime)
        assert gap <= 1e-8
        assert not res.annotations
        cert = res.certificate
        assert abs(cert["v_star"] - v) <= 1e-9 * abs(v), (cert["v_star"], v)
        assert cert["witness"]["residual"] <= 1e-9


def test_custom_penalty_newton_starts_at_the_unit_density(monkeypatch):
    # lam = 0 and nu = g'(1) put every scenario at Z = 1 on the first call
    # of the conjugate, with g' given or a central difference of g (then to
    # the rounding of that difference); POWER starts there too, at nu = 1.
    densities = []

    def recording(spec, probs):
        conj, floor = conjugate(spec, probs)

        def record(s):
            out = conj(s)
            densities.append(out[1])
            return out
        return record, floor

    monkeypatch.setattr(rhoarb.frontier, "conjugate", recording)
    market = make_tanh_priced_market(np.random.default_rng(83), 30, 3)
    for spec in (RiskSpec.custom(lambda z: np.sqrt(1.0 + z ** 2), 1.6),
                 RiskSpec.custom(lambda z: -np.log(z), 0.5, g_prime=lambda z: -1.0 / z),
                 RiskSpec.custom(lambda z: np.where(z < 2.0, z ** 2 / 4.0, z - 1.0), 0.5,
                                 g_prime=lambda z: np.where(z < 2.0, z / 2.0, 1.0)),
                 RiskSpec.power(1.5, 2.0)):
        densities.clear()
        res = classify_dual(market, spec)
        assert not res.annotations
        assert np.abs(densities[0] - 1.0).max() <= 1e-8


# -- spectral mixtures ----------------------------------------------------------


def test_spectral_point_mass_reduces_to_es():
    # One atom (alpha, 1) is ES at alpha: the same LP, so the same t*,
    # pivots, witness and verdict.
    rng = np.random.default_rng(2031)
    for market in (binomial_market(), duo_market(),
                   make_tanh_priced_market(rng, 60, 3), make_drift_market(rng, 60, 3, 1.0)):
        sup = es_min_supnorm(market)
        for alpha in (0.05, 0.25, 0.5, 0.75):
            one = es_min_supnorm(market, ((alpha, 1.0),))
            assert (one.t, one.iterations) == (sup.t, sup.iterations)
            assert one.witness.z.tobytes() == sup.witness.z.tobytes()
            es = classify_dual(market, RiskSpec.es(alpha))
            mix = classify_dual(market, RiskSpec.spectral([(alpha, 1.0)]))
            assert mix.verdict == es.verdict
            assert mix.certificate["t_star"] == es.certificate["t_star"]
            assert mix.certificate["iterations"] == es.certificate["iterations"]


def test_spectral_binomial_never_arbitrage_free():
    spectra = ([(0.25, 0.5), (0.5, 0.5)], [(0.3, 1.0)],
               [(0.2, 0.25), (0.4, 0.25), (0.9, 0.5)])
    for spectrum in spectra:
        verdict = classify_dual(binomial_market(), RiskSpec.spectral(spectrum))
        assert verdict.verdict != "NO_ARBITRAGE"
    # Caps >= 2 admit the unique density, so the strong form holds exactly.
    v = classify_dual(binomial_market(), RiskSpec.spectral([(0.25, 0.5), (0.5, 0.5)]))
    assert v.verdict == "RHO_ARBITRAGE"
    assert v.certificate["t_star"] <= v.certificate["box_upper"]


def test_spectral_duo_matches_grid_oracle():
    atoms = ((0.25, 0.5), (0.8, 0.5))
    v = classify_dual(duo_market(), RiskSpec.spectral(atoms))
    cert = v.certificate
    target = np.array([2.0 / 3.0, 4.0 / 3.0])
    # The grid oracle's residual scales with its mesh width, so feasible
    # cases land near 1e-5 while infeasible ones stay at order 0.1.
    mismatch = oracles.spectral_mixture_feasible(
        np.array([0.5, 0.5]), target, atoms)
    assert mismatch < 1e-3
    assert v.verdict == "NO_ARBITRAGE"
    deltas = classical_deltas(cert)
    assert cert["t_star"] < cert["box_upper"] - 1e-9 and len(deltas) == 1 and deltas[0] > 1e-9
    # Strictly inside: the grid finds the mixture with every box shrunk.
    mismatch = oracles.spectral_mixture_feasible(
        np.array([0.5, 0.5]), target, atoms, delta=1e-3)
    assert mismatch < 1e-3
    assert np.allclose(cert["witness"]["z"], target, atol=1e-8)


def test_spectral_witness_is_in_m():
    rng = np.random.default_rng(113)
    for _ in range(5):
        market = make_random_market(rng, n_max=6, d_max=2)
        v = classify_dual(market, RiskSpec.spectral([(0.3, 0.4), (0.7, 0.6)]))
        if "witness" in v.certificate:
            assert v.certificate["witness"]["residual"] < 1e-8
        if v.verdict == "NO_ARBITRAGE":
            assert v.certificate["witness"]["min_entry"] > 0.0


def test_spectral_sweep_matches_the_box_mixture_rule():
    # The SPECTRAL dual decides by the box-scale LP, t* < 1/alpha_1, and
    # the classical LP; the reference decides by the margin of the former
    # box-mixture LP.  Over M convex the two agree.  A witness fits its
    # boxes at the scale alpha_1 t* (below 1 and strictly positive for
    # NO_ARBITRAGE); M_EMPTY marks an empty M when no level-1 atom pins
    # Z >= w_pin or the tangency portfolio proves it empty, and BOUNDARY a
    # t* within tol of 1/alpha_1.
    rng = np.random.default_rng(2029)
    makers = (lambda: make_random_market(rng, n_max=10, d_max=3),
              lambda: make_priced_market(rng, n_max=10, d_max=3),
              lambda: make_tanh_priced_market(rng, int(rng.integers(12, 40)), 3),
              lambda: make_drift_market(rng, int(rng.integers(12, 40)), 3,
                                        float(rng.choice([0.3, 1.0, 2.0]))),
              lambda: make_dominating_market(rng, n_max=9))
    spectra = (((0.05, 0.3), (0.25, 0.7)), ((0.1, 0.4), (0.5, 0.3), (1.0, 0.3)),
               ((0.2, 0.25), (0.4, 0.25), (0.9, 0.5)))
    seen = {"NO_ARBITRAGE": 0, "RHO_ARBITRAGE": 0, "STRONG_RHO_ARBITRAGE": 0}
    for _ in range(16):
        for make in makers:
            market = make()
            cl = classical_no_arbitrage(market)
            m_empty = cl.status == "INFEASIBLE"
            for atoms in spectra:
                v = classify_dual(market, RiskSpec.spectral(atoms))
                cert = v.certificate
                _, margin, witness, _ = box_mixture(market, atoms)
                if witness is None:
                    expected = "STRONG_RHO_ARBITRAGE"
                elif margin > 1e-9:
                    expected = "NO_ARBITRAGE"
                else:
                    expected = "RHO_ARBITRAGE"
                assert v.verdict == expected
                assert {"delta", "delta_prime", "strong_feasible"}.isdisjoint(cert)
                # A level-1 atom hides an empty M from the box-scale LP,
                # but not from the tangency portfolio's proof.
                pinned = atoms[-1][0] == 1.0 and _proves_empty(market.tangency_excess) is None
                assert ("M_EMPTY" in v.annotations) == (m_empty and not pinned)
                assert ("BOUNDARY" in v.annotations) == (
                    abs(cert["t_star"] - cert["box_upper"]) <= CLASSIFY_TOL)
                # The classical test runs exactly where t* does not decide
                # STRONG, and leaves delta_classical (LP) or delta_lower.
                deltas = classical_deltas(cert)
                assert len(deltas) == (cert["t_star"] <= cert["box_upper"] + 1e-9)
                if expected == "NO_ARBITRAGE":
                    assert deltas[0] > 1e-9
                if "delta_lower" in cert:
                    assert cl.delta >= cert["delta_lower"] - 1e-12 > CLASSIFY_TOL
                if "witness" in cert:
                    z = np.asarray(cert["witness"]["z"])
                    assert cert["witness"]["residual"] <= 1e-9
                    scale = spectral_box_scale(market, atoms, z)
                    if expected == "NO_ARBITRAGE":
                        assert z.min() > 0.0 and scale < 1.0
                    else:
                        assert abs(scale - atoms[0][0] * cert["t_star"]) <= 1e-7 * scale
                else:
                    assert cert["t_star"] == math.inf
                seen[expected] += 1
    assert seen["RHO_ARBITRAGE"] >= 5
    assert seen["NO_ARBITRAGE"] >= 50 and seen["STRONG_RHO_ARBITRAGE"] >= 50


def test_level_one_spectrum_is_strong():
    # E[-X] at level 1 has the dual set {1}: a market with E[R] != r is a
    # strong arbitrage, and t* >= 1 = 1/alpha_1, so strict never holds.
    rng = np.random.default_rng(2033)
    for market in (binomial_market(), duo_market(), make_priced_market(rng),
                   make_drift_market(rng, 30, 3, 1.0)):
        for atoms in ([(1.0, 1.0)], [(1.0, 0.5), (1.0, 0.5)]):
            v = classify_dual(market, RiskSpec.spectral(atoms))
            assert v.verdict == "STRONG_RHO_ARBITRAGE"
            assert v.certificate["box_upper"] == 1.0
            assert v.certificate["t_star"] > 1.0


# -- dual classification ---------------------------------------------------------


def test_classify_dual_binomial_es_goldens():
    v = classify_dual(binomial_market(), RiskSpec.es(0.4))
    assert v.verdict == "RHO_ARBITRAGE"
    assert abs(v.certificate["t_star"] - 2.0) < 1e-9
    v = classify_dual(binomial_market(), RiskSpec.es(0.6))
    assert v.verdict == "STRONG_RHO_ARBITRAGE"


def test_classify_dual_duo_no_arbitrage_with_witness():
    v = classify_dual(duo_market(), RiskSpec.es(0.25))
    assert v.verdict == "NO_ARBITRAGE"
    assert np.allclose(v.certificate["witness"]["z"], [2.0 / 3.0, 4.0 / 3.0],
                       atol=1e-8)


def test_classify_dual_var_unsupported():
    from rhoarb.measures import UnsupportedDualError
    with pytest.raises(UnsupportedDualError):
        classify_dual(duo_market(), RiskSpec.var(0.3))


def test_classify_dual_es_monotone_in_alpha():
    rank = {"NO_ARBITRAGE": 0, "RHO_ARBITRAGE": 1, "STRONG_RHO_ARBITRAGE": 2}
    rng = np.random.default_rng(127)
    alphas = np.linspace(0.05, 0.95, 10)
    for _ in range(10):
        market = make_random_market(rng, n_max=8, d_max=3)
        ranks = [rank[classify_dual(market, RiskSpec.es(a)).verdict]
                 for a in alphas]
        for lo, hi in zip(ranks, ranks[1:]):
            assert hi >= lo


def test_es_equivalence_strict_vs_classical_and_supnorm():
    # delta*(alpha) > 0 iff classical delta > 0 and t* < 1/alpha; draws that
    # sit within 1e-6 of either threshold are skipped as boundary noise.
    rng = np.random.default_rng(131)
    checked = 0
    while checked < 40:
        market = make_random_market(rng, n_max=9, d_max=3)
        alpha = float(rng.uniform(0.05, 0.95))
        cl = classical_no_arbitrage(market)
        sup = es_min_supnorm(market)
        if cl.status != "OPTIMAL":
            continue
        if abs(sup.t - 1.0 / alpha) < 1e-6 or (0.0 < cl.delta < 1e-6):
            continue
        strict = es_strict_check(market, alpha)
        expected = cl.delta > 1e-9 and sup.t < 1.0 / alpha
        assert (strict.delta > 1e-9) == expected
        checked += 1


def test_es_sweep_matches_the_box_mixture_rule():
    # The ES dual decides strictness by the classical LP, t* < 1/alpha and
    # delta_classical > 0; the reference decides it by the one-atom
    # box-mixture margin delta* > 0.  Over M convex the two agree, and
    # the NO_ARBITRAGE witness is strictly positive, strictly inside the box.
    rng = np.random.default_rng(2027)
    makers = (lambda: make_random_market(rng, n_max=10, d_max=3),
              lambda: make_priced_market(rng, n_max=10, d_max=3),
              lambda: make_tanh_priced_market(rng, int(rng.integers(12, 40)), 3),
              lambda: make_drift_market(rng, int(rng.integers(12, 40)), 3,
                                        float(rng.choice([0.3, 1.0, 2.0]))),
              lambda: make_dominating_market(rng, n_max=9))
    seen = {"NO_ARBITRAGE": 0, "RHO_ARBITRAGE": 0, "STRONG_RHO_ARBITRAGE": 0}
    for _ in range(24):
        for make in makers:
            market = make()
            sup = es_min_supnorm(market)
            for alpha in (0.05, 0.25, 0.5):
                v = classify_dual(market, RiskSpec.es(alpha))
                cert = v.certificate
                if sup.status == "INFEASIBLE" or sup.t > 1.0 / alpha + 1e-9:
                    expected = "STRONG_RHO_ARBITRAGE"
                elif es_strict_check(market, alpha).delta > 1e-9:
                    expected = "NO_ARBITRAGE"
                else:
                    expected = "RHO_ARBITRAGE"
                assert v.verdict == expected
                assert "delta_star" not in cert
                deltas = classical_deltas(cert)
                assert len(deltas) == (expected != "STRONG_RHO_ARBITRAGE")
                if expected == "NO_ARBITRAGE":
                    assert deltas[0] > 1e-9
                if "delta_lower" in cert:
                    delta = classical_no_arbitrage(market).delta
                    assert delta >= cert["delta_lower"] - 1e-12 > CLASSIFY_TOL
                if expected == "NO_ARBITRAGE":
                    z = np.asarray(cert["witness"]["z"])
                    assert z.min() > 0.0 and z.max() < 1.0 / alpha
                    assert cert["witness"]["residual"] <= 1e-9
                seen[expected] += 1
    assert seen["RHO_ARBITRAGE"] >= 20
    assert min(seen.values()) >= 20


def test_dual_strong_has_primal_certificate():
    rng = np.random.default_rng(137)
    found = 0
    for _ in range(120):
        market = make_random_market(rng, n_max=7, d_max=3)
        alpha = float(rng.uniform(0.4, 0.95))
        spec = RiskSpec.es(alpha)
        if classify_dual(market, spec).verdict != "STRONG_RHO_ARBITRAGE":
            continue
        res = compute_rho1(market, spec)
        if abs(res.rho1) <= 1e-7:
            continue  # boundary band
        assert res.rho1 < 0.0
        x = excess_return(market, res.argmin)
        assert evaluate(spec, x, market.probs) < 0.0
        found += 1
    assert found >= 5


# -- cross-validation --------------------------------------------------------------


def test_cross_validate_binomial_grid():
    switch = []
    for alpha in np.arange(0.1, 0.95, 0.1):
        cv = cross_validate(binomial_market(), RiskSpec.es(float(alpha)))
        assert cv.status in ("AGREE", "BOUNDARY_AGREE")
        switch.append(cv.primal.verdict)
    assert switch[:4] == ["RHO_ARBITRAGE"] * 4          # alpha 0.1 .. 0.4
    assert switch[5:] == ["STRONG_RHO_ARBITRAGE"] * 4   # alpha 0.6 .. 0.9


def test_cross_validate_priced_market_agrees_no():
    rng = np.random.default_rng(139)
    for _ in range(5):
        market = make_priced_market(rng)
        cv = cross_validate(market, RiskSpec.wc())
        assert cv.status == "AGREE"
        assert cv.primal.verdict == "NO_ARBITRAGE"
        assert cv.dual.verdict == "NO_ARBITRAGE"


def test_cross_validate_report_round_trip():
    cv = cross_validate(duo_market(), RiskSpec.es(0.25))
    data = cv.to_dict()
    assert data["status"] == cv.status
    assert data["primal"]["verdict"] == "NO_ARBITRAGE"
    assert data["dual"]["verdict"] == "NO_ARBITRAGE"
    assert data["rho1"] == pytest.approx(2.0, abs=1e-9)
