"""Tests for the bracketed root, the cumulant Newton solver, and Kelley."""

import math

import numpy as np
import pytest

import oracles
from conftest import make_random_market
from rhoarb.frontier import _penalty_min
from rhoarb.lp import LinearProgram, lp_solve
from oracles import BadOracleError, kelley_minimize
from rhoarb.measures import RiskSpec
from rhoarb.solvers import ROOT_RTOL, increasing_root

ENTROPY = RiskSpec.entropic(1.0)


def test_increasing_root_expands_and_pins_the_sign_change():
    # Smooth, beyond the first bracket: the upper end doubles to reach 2^(1/3).
    root = increasing_root(lambda s: s ** 3 - 2.0, 0.0, 0.1)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 2.0 * ROOT_RTOL * root
    # A jump at 0.3 and a flat stretch: bisection closes the bracket on the jump.
    root = increasing_root(lambda s: -1.0 if s < 0.3 else 1e-3 * (s - 0.3) + 1e-9, 0.0, 1.0)
    assert abs(root - 0.3) <= 2.0 * ROOT_RTOL * 0.3
    assert increasing_root(lambda s: s - 0.25, 0.0, 0.25) == 0.25
    with pytest.raises(ValueError):
        increasing_root(lambda s: -1.0, 0.0, 1.0)


def test_cumulant_symmetric_market_is_flat():
    # R in {+1, -1} equal odds, r = 0: P is itself a martingale measure.
    res = _penalty_min(ENTROPY, np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))
    assert res.status == "OK"
    assert abs(res.value) < 1e-12
    assert np.max(np.abs(res.lam)) < 1e-6
    assert np.allclose(res.z, 1.0, atol=1e-9)


def test_cumulant_binomial_diverges_to_boundary_value():
    # The only martingale density (0, 2) has a zero atom, outside the
    # strictly positive exponential family: the infimum log 2 is reported
    # with a DIVERGENT flag instead of a minimizer.
    res = _penalty_min(ENTROPY, np.array([0.5, 0.5]), np.array([[1.0], [0.0]]))
    assert res.status == "DIVERGENT"
    assert abs(res.value - math.log(2.0)) < 1e-9
    assert res.z[0] < 1e-6
    assert abs(res.z[1] - 2.0) < 1e-6


def test_cumulant_duo_market_hand_value():
    res = _penalty_min(ENTROPY, np.array([0.5, 0.5]), np.array([[2.0], [-1.0]]))
    hand = 0.5 * (2.0 / 3.0) * math.log(2.0 / 3.0) \
        + 0.5 * (4.0 / 3.0) * math.log(4.0 / 3.0)
    assert res.status == "OK"
    assert abs(res.value - hand) < 1e-10
    assert np.allclose(res.z, [2.0 / 3.0, 4.0 / 3.0], atol=1e-8)


def test_cumulant_matches_projected_gradient_oracle():
    rng = np.random.default_rng(23)
    gfun = lambda z: z * np.log(np.maximum(z, 1e-300))
    gprime = lambda z: np.log(z) + 1.0
    done = 0
    while done < 10:
        market = make_random_market(rng, n_max=5, d_max=2)
        res = _penalty_min(ENTROPY, market.probs, market.excess_matrix.T)
        if res.status != "OK":
            continue
        ref, _ = oracles.projected_gradient_min(market.probs,
                                                market.excess_matrix,
                                                gfun, gprime)
        assert abs(res.value - ref) < 1e-5, (res.value, ref)
        done += 1


def test_cumulant_value_nonnegative_on_valid_markets():
    # Relative entropy is nonnegative, and nondegeneracy excludes Z = 1,
    # so on valid markets the minimum is strictly positive (or DIVERGENT).
    rng = np.random.default_rng(31)
    for _ in range(30):
        market = make_random_market(rng, n_max=8, d_max=3)
        res = _penalty_min(ENTROPY, market.probs, market.excess_matrix.T)
        assert res.value > -1e-12
        if res.status == "OK":
            assert res.value > 0.0
            assert res.gradient_norm <= 1e-9


def test_kelley_two_fixed_cuts_single_point_slice():
    cuts = (np.array([1.0]), np.array([-1.0]))

    def oracle(pi):
        vals = [float(pi @ c) for c in cuts]
        i = int(np.argmax(vals))
        return vals[i], cuts[i]

    res = kelley_minimize(oracle, np.array([1.0]), 1.0)
    assert res.status == "OK"
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.pi[0] - 1.0) < 1e-9


def test_kelley_binomial_es_via_box_lp_oracle():
    # Support-function oracle solved as a tiny LP over the ES box at
    # alpha = 0.5; the slice pins pi = 2 and the minimum is 0.
    probs = np.array([0.5, 0.5])
    excess = np.array([[1.0, 0.0]])
    alpha = 0.5

    def oracle(pi):
        x = excess.T @ pi
        sol = lp_solve(LinearProgram(c=probs * x, A_eq=[probs], b_eq=[1.0],
                                     upper=np.full(2, 1.0 / alpha)))
        z = sol.x
        cut = -(probs * z) @ excess.T
        return float(cut @ pi), cut

    res = kelley_minimize(oracle, np.array([0.5]), 1.0)
    assert res.status == "OK"
    assert abs(res.value) < 1e-9
    assert abs(res.pi[0] - 2.0) < 1e-9


def test_kelley_master_bound_monotone_underestimate():
    # Fixed finite cut family: the master bound (value - gap) must climb
    # monotonically and never exceed the true minimum 0.6.
    family = (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([0.6, 0.6]))

    def oracle(pi):
        vals = [float(pi @ c) for c in family]
        i = int(np.argmax(vals))
        return vals[i], family[i]

    slice_vec = np.array([1.0, 1.0])
    bounds = []
    for k in range(1, 7):
        res = kelley_minimize(oracle, slice_vec, 1.0, box=10.0, max_iter=k)
        bounds.append(res.value - res.gap)
        if res.status == "OK":
            break
    assert all(b <= 0.6 + 1e-9 for b in bounds)
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    final = kelley_minimize(oracle, slice_vec, 1.0, box=10.0)
    assert final.status == "OK"
    assert abs(final.value - 0.6) < 1e-9


def test_kelley_rejects_inconsistent_oracle():
    def oracle(pi):
        return float(pi[0]) + 1.0, np.array([1.0])

    with pytest.raises(BadOracleError):
        kelley_minimize(oracle, np.array([1.0]), 1.0)
