"""Tests for risk measure evaluation, specs, and penalty balls."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oracles
from conftest import binomial_market, duo_market
from rhoarb.dual import classify_dual
from rhoarb.lp import LinearProgram, lp_solve
from rhoarb.measures import (RiskSpec, UnsupportedDualError, UnsupportedPrimalError,
                             eval_es, eval_evar, eval_spectral, eval_tnorm, eval_var,
                             eval_wc, evaluate, penalty)

P2 = np.array([0.5, 0.5])
X20 = np.array([2.0, 0.0])


def random_rv(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    probs = rng.uniform(0.05, 1.0, n)
    return rng.uniform(-3.0, 3.0, n), probs / probs.sum()


# -- worst case ----------------------------------------------------------------


def test_wc_values():
    assert eval_wc(X20) == 0.0
    assert eval_wc(np.array([1.5, 1.5, 1.5])) == -1.5
    assert eval_wc(np.array([4.0, -2.0])) == 2.0


# -- value at risk -------------------------------------------------------------


def test_var_binomial_values():
    assert eval_var(X20, P2, 0.25) == 0.0
    assert eval_var(X20, P2, 0.75) == -2.0


def test_var_constants():
    for c in (-1.5, 0.0, 2.25):
        assert eval_var(np.full(3, c), np.array([0.2, 0.5, 0.3]), 0.4) == -c


def test_var_matches_definition_scan():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, probs = random_rv(rng)
        alpha = float(rng.uniform(0.02, 0.98))
        assert abs(eval_var(x, probs, alpha)
                   - oracles.var_scan(x, probs, alpha)) < 1e-12


# -- expected shortfall ----------------------------------------------------------


def test_es_binomial_values():
    assert abs(eval_es(X20, P2, 0.5)) < 1e-15
    assert abs(eval_es(X20, P2, 0.75) + 2.0 / 3.0) < 1e-15


def test_es_constants():
    for c in (-1.5, 0.0, 2.25):
        assert abs(eval_es(np.full(3, c), np.array([0.2, 0.5, 0.3]), 0.3) + c) < 1e-15


def test_es_matches_step_integral_oracle():
    rng = np.random.default_rng(19)
    for _ in range(300):
        x, probs = random_rv(rng)
        alpha = float(rng.uniform(0.02, 0.99))
        ref = oracles.es_step_integral(x, probs, alpha)
        assert abs(eval_es(x, probs, alpha) - ref) < 1e-12


def test_es_equals_box_lp_maximum():
    # ES is the support function of {0 <= Z <= 1/alpha, E[Z] = 1}.
    rng = np.random.default_rng(21)
    for _ in range(40):
        x, probs = random_rv(rng, n_max=6)
        alpha = float(rng.uniform(0.05, 0.95))
        sol = lp_solve(LinearProgram(c=probs * x, A_eq=[probs], b_eq=[1.0],
                                     upper=np.full(x.size, 1.0 / alpha)))
        assert sol.status == "OPTIMAL"
        assert abs(eval_es(x, probs, alpha) - (-sol.value)) < 1e-8


# -- spectral ---------------------------------------------------------------------


def test_spectral_point_mass_reduces_to_es():
    rng = np.random.default_rng(25)
    for _ in range(50):
        x, probs = random_rv(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        assert abs(eval_spectral(x, probs, ((alpha, 1.0),))
                   - eval_es(x, probs, alpha)) < 1e-14


def test_spectral_two_atom_golden():
    val = eval_spectral(X20, P2, ((0.25, 0.5), (0.75, 0.5)))
    assert abs(val + 1.0 / 3.0) < 1e-15


def test_spectral_point_mass_at_one_is_expectation():
    rng = np.random.default_rng(27)
    for _ in range(30):
        x, probs = random_rv(rng)
        assert abs(eval_spectral(x, probs, ((1.0, 1.0),))
                   - float(probs @ (-x))) < 1e-14


# -- one worst-first sort for ES and SPECTRAL ---------------------------------------

TIED_SPECTRUM = ((0.1, 0.3), (0.5, 0.5), (1.0, 0.2))
TIED_LEVELS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0)
# Any one-pass sum over 10^4 tied scenarios rounds differently in another
# order: the stable-order reference applied to a permuted copy of the same
# payoff moves by up to ~1e-14 (1 + |value|), so that is the scale here.
TIED_TOL = 1e-13


def tied_rv(rng, n=10_000):
    return rng.choice([-1.0, 0.0, 2.0], size=n), rng.dirichlet(np.ones(n))


def stable_es(x, probs, alpha):
    """ES read from a stable worst-first sort: tied scenarios keep their order."""
    order = np.argsort(x, kind="stable")
    losses, weights = -x[order], probs[order]
    cum = np.cumsum(weights)
    k = min(int(np.searchsorted(cum, alpha, side="left")), x.size - 1)
    covered = float(cum[k - 1]) if k > 0 else 0.0
    return (float(losses[:k] @ weights[:k]) + (alpha - covered) * float(losses[k])) / alpha


def stable_spectral(x, probs, spectrum):
    return sum(w * (float(probs @ (-x)) if a >= 1.0 else stable_es(x, probs, a))
               for a, w in spectrum)


def tied_close(value, ref):
    return abs(value - ref) <= TIED_TOL * (1.0 + abs(ref))


def test_spectral_is_its_es_mixture_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(50):
        x, probs = random_rv(rng, n_max=400)
        assert np.unique(x).size == x.size
        levels = np.sort(rng.uniform(0.01, 0.99, int(rng.integers(1, 5))))
        weights = rng.dirichlet(np.ones(levels.size))
        spectrum = tuple(zip(levels.tolist(), weights.tolist()))
        total = 0.0
        for a, w in spectrum:
            total += w * eval_es(x, probs, a)
        assert eval_spectral(x, probs, spectrum) == total


def test_es_and_spectral_on_tied_payoffs_match_a_stable_order():
    rng = np.random.default_rng(43)
    for _ in range(5):
        x, probs = tied_rv(rng)
        for alpha in TIED_LEVELS:
            assert tied_close(eval_es(x, probs, alpha), stable_es(x, probs, alpha))
        assert tied_close(eval_spectral(x, probs, TIED_SPECTRUM),
                          stable_spectral(x, probs, TIED_SPECTRUM))


def test_es_and_spectral_on_tied_payoffs_ignore_scenario_order_and_splits():
    rng = np.random.default_rng(47)
    for _ in range(5):
        x, probs = tied_rv(rng)
        perm = rng.permutation(x.size)
        j = int(rng.integers(x.size))
        split_x = np.append(x, x[j])
        split_p = np.append(probs, 0.5 * probs[j])
        split_p[j] *= 0.5
        for xs, ps in ((x[perm], probs[perm]), (split_x, split_p)):
            for alpha in TIED_LEVELS:
                assert tied_close(eval_es(xs, ps, alpha), eval_es(x, probs, alpha))
            assert tied_close(eval_spectral(xs, ps, TIED_SPECTRUM),
                              eval_spectral(x, probs, TIED_SPECTRUM))


def test_spectral_sorts_the_payoff_once(monkeypatch):
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    x, probs = random_rv(np.random.default_rng(53))
    eval_spectral(x, probs, ((0.2, 0.25), (0.6, 0.5), (1.0, 0.25)))
    assert len(sorts) == 1


# -- entropic value at risk --------------------------------------------------------


def test_evar_constants():
    for c in (-3.0, 0.5):
        val = eval_evar(np.full(4, c), np.full(4, 0.25), 0.3)
        assert abs(val + c) < 1e-9


def test_evar_alpha_to_one_limit():
    rng = np.random.default_rng(29)
    x, probs = random_rv(rng)
    val = eval_evar(x, probs, 1.0 - 1e-9)
    assert abs(val - float(probs @ (-x))) < 1e-4


def test_evar_golden_against_grid():
    val = eval_evar(np.array([1.0, -1.0]), P2, 0.1)
    ref = oracles.evar_grid(np.array([1.0, -1.0]), P2, 0.1)
    assert abs(val - ref) < 1e-6


def test_evar_random_against_grid():
    rng = np.random.default_rng(33)
    for _ in range(10):
        x, probs = random_rv(rng, n_max=6)
        alpha = float(rng.uniform(0.1, 0.9))
        ref = oracles.evar_grid(x, probs, alpha, n=300_000)
        assert abs(eval_evar(x, probs, alpha) - ref) < 1e-6


# -- transformed norm ---------------------------------------------------------------


def test_tnorm_constants():
    for c in (-2.0, 1.0):
        val = eval_tnorm(np.full(3, c), np.array([0.2, 0.3, 0.5]), 2.0, 0.4)
        assert abs(val + c) < 1e-9


def test_tnorm_golden_against_grid():
    x = np.array([1.0, -1.0])
    val = eval_tnorm(x, P2, 2.0, 0.5)
    ref = oracles.tnorm_grid(x, P2, 0.5, 2.0)
    assert abs(val - ref) < 1e-6


def test_tnorm_p_to_one_approaches_es():
    rng = np.random.default_rng(37)
    for _ in range(10):
        x, probs = random_rv(rng, n_max=8)
        alpha = float(rng.uniform(0.2, 0.8))
        near = eval_tnorm(x, probs, 1.0001, alpha)
        assert abs(near - eval_es(x, probs, alpha)) < 1e-3


def test_tnorm_random_against_grid():
    rng = np.random.default_rng(41)
    for _ in range(10):
        x, probs = random_rv(rng, n_max=6)
        alpha = float(rng.uniform(0.1, 0.9))
        p = float(rng.uniform(1.3, 4.0))
        ref = oracles.tnorm_grid(x, probs, alpha, p)
        assert abs(eval_tnorm(x, probs, p, alpha) - ref) < 1e-6


def _polished_min(h, lo, hi):
    """Least value of a convex h: a bounded search over [lo, hi], then one in
    the offset from its answer, where the search's tolerance is absolute."""
    s0 = float(minimize_scalar(h, bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-12 * (hi - lo), "maxiter": 2000}).x)
    w = 1e-6 * (hi - lo)
    res = minimize_scalar(lambda d: h(s0 + d), bounds=(-w, w), method="bounded",
                          options={"xatol": 1e-18 * (hi - lo), "maxiter": 2000})
    return min(float(res.fun), h(s0), h(lo))


def test_evaluators_match_a_wide_search_near_level_one():
    # As alpha -> 1 the minimizing shift of TNORM runs off far above max x
    # (and EVaR's z towards 0); the shift is searched here over 1e4 spans.
    rng = np.random.default_rng(53)
    for _ in range(20):
        x, probs = random_rv(rng)
        x = x * 10.0 ** rng.uniform(-3.0, 3.0)
        m, span, tol = float(x.min()), float(np.ptp(x)), 1e-12 * float(np.abs(x).max())
        u = (x - m) / span
        for alpha in (0.99, 0.999):
            for p in (1.1, 2.0, 6.0):
                ref = _polished_min(
                    lambda s: float(probs @ np.maximum(s - x, 0.0) ** p) ** (1.0 / p) / alpha - s,
                    m, float(x.max()) + 1e4 * span / alpha)
                assert abs(eval_tnorm(x, probs, p, alpha) - ref) <= tol, (p, alpha)
            ref = _polished_min(
                lambda z: -m + span * (math.log(float(probs @ np.exp(-z * u)))
                                       - math.log(alpha)) / z, 1e-9, 1e4)
            assert abs(eval_evar(x, probs, alpha) - ref) <= tol, alpha


def test_evaluators_return_the_worst_case_exactly_at_their_corners():
    # The minimum is the worst case -min x exactly when the atom at min x
    # carries P0 >= alpha (EVaR) or P0^(1/p) >= alpha (TNORM); past those
    # levels it falls strictly below.
    x, probs = np.array([0.3, -1.25, 2.0, -1.25]), np.array([0.2, 0.3, 0.3, 0.2])
    assert eval_evar(x, probs, 0.5) == 1.25
    assert eval_evar(x, probs, 0.45) == 1.25
    assert eval_evar(x, probs, 0.51) < 1.25
    assert eval_tnorm(x, probs, 2.0, math.sqrt(0.5)) == 1.25
    assert eval_tnorm(x, probs, 2.0, 0.6) == 1.25
    assert eval_tnorm(x, probs, 2.0, 0.71) < 1.25
    assert eval_tnorm(x, probs, 6.0, 0.89) == 1.25
    assert eval_tnorm(x, probs, 6.0, 0.9) < 1.25


# -- ordering and axioms (compact; the full suites live in acceptance) -----------


def test_var_es_wc_ordering_chain():
    rng = np.random.default_rng(43)
    for _ in range(50):
        x, probs = random_rv(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        v = eval_var(x, probs, alpha)
        e = eval_es(x, probs, alpha)
        w = eval_wc(x)
        assert v <= e + 1e-12
        assert e <= w + 1e-12


def test_subadditivity_spot_check():
    rng = np.random.default_rng(47)
    spec = RiskSpec.es(0.3)
    for _ in range(20):
        n = 6
        probs = np.full(n, 1.0 / n)
        x = rng.uniform(-2.0, 2.0, n)
        y = rng.uniform(-2.0, 2.0, n)
        lhs = evaluate(spec, x + y, probs)
        assert lhs <= evaluate(spec, x, probs) + evaluate(spec, y, probs) + 1e-9


# -- evaluate dispatch and specs ---------------------------------------------------


def test_evaluate_dispatches_all_kinds():
    x, probs = np.array([1.0, -0.5, 0.25]), np.array([0.25, 0.5, 0.25])
    assert evaluate(RiskSpec.wc(), x, probs) == eval_wc(x)
    assert evaluate(RiskSpec.var(0.3), x, probs) == eval_var(x, probs, 0.3)
    assert evaluate(RiskSpec.es(0.3), x, probs) == eval_es(x, probs, 0.3)
    spec = RiskSpec.spectral([(0.25, 0.4), (0.8, 0.6)])
    assert evaluate(spec, x, probs) == eval_spectral(x, probs, spec.spectrum)
    assert evaluate(RiskSpec.evar(0.3), x, probs) == eval_evar(x, probs, 0.3)
    assert evaluate(RiskSpec.tnorm(2.0, 0.3), x, probs) == eval_tnorm(x, probs, 2.0, 0.3)


def test_gentropic_has_no_primal_evaluation():
    with pytest.raises(UnsupportedPrimalError):
        evaluate(RiskSpec.entropic(0.5), np.array([1.0, -1.0]), P2)


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        RiskSpec.es(0.0)
    with pytest.raises(ValueError):
        RiskSpec.var(1.0)
    with pytest.raises(ValueError):
        RiskSpec.tnorm(1.0, 0.5)
    with pytest.raises(ValueError):
        RiskSpec.spectral([(0.25, 0.5), (0.75, 0.6)])   # weights above 1
    with pytest.raises(ValueError):
        RiskSpec.entropic(0.0)                          # beta must exceed g(1)
    for make, message in (
            (lambda: RiskSpec(kind="FOO"), "unknown kind"),
            (lambda: RiskSpec.spectral([]), "at least one atom"),
            (lambda: RiskSpec.spectral([(1.5, 1.0)]), "outside"),
            (lambda: RiskSpec.spectral([(0.25, 1.0), (0.5, 0.0)]), "must be positive"),
            (lambda: RiskSpec(kind="GENTROPIC", g_kind="FOO", beta=1.0), "g_kind must be one of"),
            (lambda: RiskSpec.power(1.0, 2.0), "POWER needs q > 1"),
            (lambda: RiskSpec(kind="GENTROPIC", g_kind="CUSTOM", beta=1.0), "needs a callable g"),
            (lambda: RiskSpec.from_json_dict({"kind": "FOO"}), "unknown risk kind"),
            (lambda: RiskSpec.from_json_dict({"kind": "GENTROPIC", "g_kind": "CUSTOM",
                                              "beta": 1.0}), "only ENTROPY/POWER")):
        with pytest.raises(ValueError, match=message):
            make()


def test_spectral_atoms_are_normalized_sorted():
    spec = RiskSpec.spectral([(0.75, 0.5), (0.25, 0.5)])
    assert spec.spectrum == ((0.25, 0.5), (0.75, 0.5))


def test_spec_json_round_trip():
    specs = [RiskSpec.wc(), RiskSpec.var(0.1), RiskSpec.es(0.05),
             RiskSpec.spectral([(0.25, 0.5), (1.0, 0.5)]),
             RiskSpec.evar(0.2), RiskSpec.tnorm(2.5, 0.3),
             RiskSpec.entropic(0.7), RiskSpec.power(2.0, 8.0)]
    for spec in specs:
        data = json.loads(json.dumps(spec.to_json_dict()))
        again = RiskSpec.from_json_dict(data)
        assert again.to_json_dict() == spec.to_json_dict()


def test_custom_spec_not_serializable():
    spec = RiskSpec.custom(lambda z: (z - 1.0) ** 2, 0.5)
    with pytest.raises(ValueError):
        spec.to_json_dict()


# -- penalty balls -------------------------------------------------------------------


def test_evar_penalty_ball_is_the_entropy_ball():
    alpha = 0.2
    ball = RiskSpec.evar(alpha).penalty_ball
    assert (ball.kind, ball.g_kind) == ("GENTROPIC", "ENTROPY")
    assert abs(ball.beta + math.log(alpha)) < 1e-15
    assert penalty(ball, [1.0])[0] == 0.0 <= ball.beta  # Z = 1 is admissible


def test_tnorm_penalty_ball_is_the_q_norm_ball():
    p, alpha = 3.0, 0.25
    q = p / (p - 1.0)
    ball = RiskSpec.tnorm(p, alpha).penalty_ball
    assert (ball.kind, ball.g_kind) == ("GENTROPIC", "POWER")
    assert abs(ball.q - q) < 1e-15
    assert abs(ball.beta - (1.0 / alpha) ** q / q) < 1e-12
    assert abs(penalty(ball, [1.0])[0] - 1.0 / q) < 1e-15
    assert penalty(ball, [1.0])[0] <= ball.beta  # Z = 1 is admissible
    z = np.array([0.0, 0.5, 2.0])
    assert np.allclose(penalty(ball, z), z ** q / q, rtol=1e-15, atol=0.0)


def test_gentropic_spec_is_its_own_penalty_ball():
    spec = RiskSpec.power(2.0, 3.0)
    assert spec.penalty_ball is spec


def test_es_descriptor_box():
    spec = RiskSpec.es(0.5)
    assert spec.kind == "ES"
    box_upper = classify_dual(binomial_market(), spec).certificate["box_upper"]
    assert abs(box_upper - 2.0) < 1e-15
    assert box_upper >= 1.0  # Z = 1 is admissible
    with pytest.raises(ValueError):
        spec.penalty_ball


def test_wc_descriptor_unbounded_box():
    spec = RiskSpec.wc()
    assert spec.kind == "WC"
    assert "box_upper" not in classify_dual(binomial_market(), spec).certificate
    with pytest.raises(ValueError):
        spec.penalty_ball


def test_spectral_descriptor_atoms():
    spec = RiskSpec.spectral([(0.25, 0.5), (0.75, 0.5)])
    assert spec.kind == "SPECTRAL"
    assert spec.spectrum == ((0.25, 0.5), (0.75, 0.5))
    assert abs(sum(w for _, w in spec.spectrum) - 1.0) < 1e-15  # Z = 1 is admissible
    with pytest.raises(ValueError):
        spec.penalty_ball


def test_box_split_pins_level_one_atoms_only_beside_lower_ones():
    # (blocks, w_pin): WC's one block at level 0, ES's at alpha; a spectrum
    # keeps its atoms below level 1 as blocks and pins the weight of its
    # level-1 atoms, unless it has no other atom.
    assert RiskSpec.wc().boxes == (((0.0, 1.0),), 0.0)
    assert RiskSpec.es(0.1).boxes == (((0.1, 1.0),), 0.0)
    spec = RiskSpec.spectral([(1.0, 0.25), (0.05, 0.3), (0.25, 0.3), (1.0, 0.15)])
    assert spec.boxes == (((0.05, 0.3), (0.25, 0.3)), 0.4)
    assert RiskSpec.spectral([(0.25, 0.5), (0.75, 0.5)]).boxes == (((0.25, 0.5), (0.75, 0.5)), 0.0)
    assert RiskSpec.spectral([(1.0, 0.5), (1.0, 0.5)]).boxes == (((1.0, 0.5), (1.0, 0.5)), 0.0)
    for spec in (RiskSpec.var(0.1), RiskSpec.evar(0.1), RiskSpec.power(2.0, 3.0)):
        with pytest.raises(ValueError, match="no box dual set"):
            spec.boxes


def test_var_has_no_dual_descriptor():
    spec = RiskSpec.var(0.1)
    with pytest.raises(UnsupportedDualError):
        classify_dual(duo_market(), spec)
    with pytest.raises(ValueError):
        spec.penalty_ball
