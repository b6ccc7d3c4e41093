"""Tests for the bounded-variable two-phase simplex solver."""

import types

import numpy as np
import pytest

from scipy import optimize

import oracles
import rhoarb.dual
import rhoarb.lp as lp_module
from conftest import make_drift_market, make_tanh_priced_market
from rhoarb.dual import classical_no_arbitrage, es_min_supnorm
from rhoarb.frontier import _slice_lp
from rhoarb.lp import LinearProgram, lp_solve
from rhoarb.measures import RiskSpec

ATOL = 1e-8


def test_min_x_above_one():
    lp = LinearProgram(c=[1.0], lower=[1.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value - 1.0) < ATOL
    assert abs(sol.x[0] - 1.0) < ATOL


def test_unbounded_below():
    lp = LinearProgram(c=[-1.0])
    sol = lp_solve(lp)
    assert sol.status == "UNBOUNDED"
    assert sol.value == -np.inf


def test_infeasible_bounds_cross():
    lp = LinearProgram(c=[1.0], A_le=[[1.0]], b_le=[0.0], lower=[1.0])
    sol = lp_solve(lp)
    assert sol.status == "INFEASIBLE"
    assert np.isnan(sol.value)


def test_known_optimum_with_inequalities():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4 (as a minimization)
    lp = LinearProgram(c=[-1.0, -1.0],
                       A_le=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                       b_le=[2.0, 3.0, 4.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value + 4.0) < ATOL


def test_equality_constraints():
    # min x1 + 2 x2 + 3 x3 s.t. x1 + x2 + x3 = 1, x1 - x2 = 0
    lp = LinearProgram(c=[1.0, 2.0, 3.0],
                       A_eq=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                       b_eq=[1.0, 0.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value - 1.5) < ATOL
    assert np.allclose(sol.x, [0.5, 0.5, 0.0], atol=ATOL)


def test_free_and_negative_variables():
    # min |x - 1| via free x and two shortfall variables
    lp = LinearProgram(c=[0.0, 1.0, 1.0],
                       A_eq=[[1.0, -1.0, 1.0]], b_eq=[1.0],
                       lower=[-np.inf, 0.0, 0.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value) < ATOL
    assert abs(sol.x[0] - 1.0) < ATOL


def test_upper_bounds_respected():
    lp = LinearProgram(c=[-1.0, -1.0], lower=[0.0, 0.0], upper=[2.0, 3.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value + 5.0) < ATOL
    assert np.allclose(sol.x, [2.0, 3.0], atol=ATOL)


def test_beale_cycling_example_terminates():
    # A classic degenerate instance that cycles under naive pivoting.
    lp = LinearProgram(
        c=[-0.75, 150.0, -0.02, 6.0],
        A_le=[[0.25, -60.0, -0.04, 9.0],
              [0.5, -90.0, -0.02, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        b_le=[0.0, 0.0, 1.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value + 0.05) < ATOL


def test_redundant_equality_rows_are_dropped():
    lp = LinearProgram(c=[1.0, 1.0],
                       A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value - 1.0) < ATOL


def test_optimal_solutions_are_feasible_and_consistent():
    # OPTIMAL implies residual < 1e-8 and objective equals c.x to 1e-9.
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        lp = LinearProgram(c=rng.normal(size=n),
                           A_le=rng.normal(size=(m, n)),
                           b_le=rng.uniform(0.5, 2.0, m),
                           upper=np.full(n, 10.0))
        sol = lp_solve(lp)
        assert sol.status == "OPTIMAL"
        assert sol.residual < 1e-8
        assert abs(sol.value - float(lp.c @ sol.x)) < 1e-9


def test_random_lps_match_vertex_enumeration():
    # Bounded feasible LPs with x >= 0: compare against brute force.
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 120:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.2, 2.0, m)
        c = rng.normal(size=n)
        full_A = np.vstack([A, -np.eye(n), np.eye(n)])
        full_b = np.concatenate([b, np.zeros(n), np.full(n, 50.0)])
        ref, _ = oracles.lp_vertex_enum(c, full_A, full_b)
        if not np.isfinite(ref):
            continue
        sol = lp_solve(LinearProgram(c=c, A_le=A, b_le=b, upper=np.full(n, 50.0)))
        assert sol.status == "OPTIMAL"
        assert abs(sol.value - ref) < 1e-8, (sol.value, ref)
        checked += 1


def test_input_validation():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 2.0], A_le=[[1.0]], b_le=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[1.0, 2.0])


# -- bounded-variable simplex: pricing switch, duals, bounds, scaling ----------


BEALE = dict(c=[-0.75, 150.0, -0.02, 6.0],
             A_le=[[0.25, -60.0, -0.04, 9.0],
                   [0.5, -90.0, -0.02, 3.0],
                   [0.0, 0.0, 1.0, 0.0]],
             b_le=[0.0, 0.0, 1.0])


@pytest.mark.parametrize("run", [1, 2, 50])
def test_beale_reaches_optimum_through_bland_switch(monkeypatch, run):
    # Beale's example starts on a degenerate vertex; with a short run
    # allowance the solver must hand over to Bland's rule and still finish.
    bland_calls = []
    entering = lp_module._Tableau._entering

    def spy(self, bland):
        bland_calls.append(bland)
        return entering(self, bland)

    monkeypatch.setattr(lp_module, "DEGENERATE_RUN", run)
    monkeypatch.setattr(lp_module._Tableau, "_entering", spy)
    sol = lp_solve(LinearProgram(**BEALE))
    assert sol.status == "OPTIMAL"
    assert abs(sol.value + 0.05) < ATOL
    assert np.allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=ATOL)
    if run == 1:
        assert any(bland_calls)


def test_duals_match_highs_marginals():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        me = int(rng.integers(1, 4))
        mi = int(rng.integers(0, 3))
        n = me + mi + int(rng.integers(2, 8))
        upper = rng.uniform(0.5, 2.0, n)
        x0 = rng.uniform(0.1, 0.4, n)
        A_eq = rng.normal(size=(me, n))
        A_le = rng.normal(size=(mi, n))
        lp = LinearProgram(c=rng.normal(size=n), A_eq=A_eq, b_eq=A_eq @ x0,
                           A_le=A_le, b_le=A_le @ x0 + 0.1, upper=upper)
        ref = optimize.linprog(lp.c, A_ub=A_le if mi else None, b_ub=lp.b_le if mi else None,
                               A_eq=A_eq, b_eq=lp.b_eq, bounds=list(zip(np.zeros(n), upper)),
                               method="highs")
        assert ref.status == 0
        sol = lp_solve(lp)
        assert sol.status == "OPTIMAL"
        assert abs(sol.value - ref.fun) < 1e-9 * (1.0 + abs(ref.fun))
        scale = 1.0 + np.abs(ref.eqlin.marginals).max()
        assert np.abs(sol.duals - ref.eqlin.marginals).max() < 1e-8 * scale
        checked += 1
    assert checked == 60


def test_duals_are_value_sensitivities():
    # min x1 + 2 x2 s.t. x1 + x2 = b, x1 <= 0.3: raising b by h buys h of x2.
    lp = LinearProgram(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], upper=[0.3, np.inf])
    sol = lp_solve(lp)
    assert sol.duals.shape == (1,)
    assert abs(sol.duals[0] - 2.0) < ATOL
    assert lp_solve(LinearProgram(c=[1.0], lower=[1.0])).duals.shape == (0,)


def test_variables_at_upper_bounds_are_exact():
    # The costs fill x5, x4, x3, x2 to their (non-dyadic) upper bounds and
    # leave the rest to x1; the bounds must survive the scaling bit for bit.
    upper = np.array([0.1, 1.0 / 3.0, 2.7, 1e-7 / 3.0, 12345.678])
    total = upper[1:].sum() + 0.05
    lp = LinearProgram(c=-np.arange(1.0, 6.0), A_eq=[np.ones(5)], b_eq=[total], upper=upper)
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert np.all(sol.x[1:] == upper[1:])
    assert abs(sol.x[0] - 0.05) < 1e-9


@pytest.mark.parametrize("k", [-6, -3, 3, 6])
def test_rescaled_program_takes_the_same_path(k):
    # Equality rows and one variable rescaled by powers of ten: tolerances
    # are relative, so the point and the duals follow the rescaling.
    rng = np.random.default_rng(31)
    n, me, mi = 12, 3, 4
    A_eq = rng.normal(size=(me, n))
    A_le = rng.normal(size=(mi, n))
    x0 = rng.uniform(0.1, 0.5, n)
    base = LinearProgram(c=rng.normal(size=n), A_eq=A_eq, b_eq=A_eq @ x0,
                         A_le=A_le, b_le=A_le @ x0 + 0.2, upper=np.full(n, 2.0))
    s = 10.0 ** k
    col = np.ones(n)
    col[0] = s                                  # v_0 = s * v'_0
    scaled = LinearProgram(c=base.c * col, A_eq=s * A_eq * col, b_eq=s * base.b_eq,
                           A_le=A_le * col, b_le=base.b_le, upper=base.upper / col)
    ref, got = lp_solve(base), lp_solve(scaled)
    assert got.status == ref.status == "OPTIMAL"
    assert abs(got.value - ref.value) < 1e-9 * (1.0 + abs(ref.value))
    assert np.allclose(got.x * col, ref.x, rtol=1e-9, atol=1e-12)
    assert np.allclose(got.duals * s, ref.duals, rtol=1e-8, atol=1e-12)


# -- starting points -------------------------------------------------------------


def test_start_at_upper_bounds_is_already_optimal():
    # The optimum puts both variables at their upper bounds; starting there
    # leaves nothing to pivot or flip.
    lp = LinearProgram(c=[-1.0, -1.0], upper=[2.0, 3.0], start=[2.0, 3.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert sol.iterations == 0
    assert np.all(sol.x == [2.0, 3.0])


def test_interior_start_is_priced_both_ways():
    # From the middle of the box x0 must fall to its lower bound and x1 rise
    # to its upper one.
    lp = LinearProgram(c=[1.0, -1.0], A_le=[[1.0, 1.0]], b_le=[1.5],
                       upper=[1.0, 1.0], start=[0.5, 0.5])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value + 1.0) < ATOL
    assert np.allclose(sol.x, [0.0, 1.0], atol=ATOL)


def test_start_that_violates_rows_runs_phase_one_from_it():
    # The start overshoots the equality row and breaks the inequality row:
    # Phase I repairs both from there and Phase II reaches the optimum of the
    # default start.
    lp = dict(c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
              A_le=[[1.0, -1.0, 0.0]], b_le=[0.0], upper=[1.0, 1.0, 1.0])
    ref = lp_solve(LinearProgram(**lp))
    sol = lp_solve(LinearProgram(**lp, start=[1.0, 0.0, 1.0]))
    assert ref.status == sol.status == "OPTIMAL"
    assert abs(sol.value - 1.5) < ATOL
    assert abs(sol.value - ref.value) < ATOL
    assert np.allclose(sol.x, [0.5, 0.5, 0.0], atol=ATOL)


@pytest.mark.parametrize("start", [[1.5, 0.0], [-0.1, 0.0], [0.0], [np.nan, 0.0],
                                   [np.inf, 0.0]])
def test_start_outside_the_bounds_is_rejected(start):
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 1.0], lower=[0.0, -np.inf], upper=[1.0, np.inf],
                      start=start)


def test_starts_reach_the_highs_optimum():
    # The seeded sweep of random bounded programs, solved from the default
    # start, from every upper bound and from a random interior point: the
    # optimum is the same from each, and equals HiGHS's.
    rng = np.random.default_rng(2024)
    for _ in range(60):
        me = int(rng.integers(1, 4))
        mi = int(rng.integers(0, 3))
        n = me + mi + int(rng.integers(2, 8))
        upper = rng.uniform(0.5, 2.0, n)
        x0 = rng.uniform(0.1, 0.4, n)
        A_eq = rng.normal(size=(me, n))
        A_le = rng.normal(size=(mi, n))
        lp = dict(c=rng.normal(size=n), A_eq=A_eq, b_eq=A_eq @ x0,
                  A_le=A_le, b_le=A_le @ x0 + 0.1, upper=upper)
        ref = optimize.linprog(lp["c"], A_ub=A_le if mi else None,
                               b_ub=lp["b_le"] if mi else None, A_eq=A_eq, b_eq=lp["b_eq"],
                               bounds=list(zip(np.zeros(n), upper)), method="highs")
        assert ref.status == 0
        base = lp_solve(LinearProgram(**lp))
        for start in (upper, rng.uniform(0.0, 1.0, n) * upper):
            sol = lp_solve(LinearProgram(**lp, start=start))
            assert sol.status == "OPTIMAL"
            assert abs(sol.value - base.value) < 1e-9 * (1.0 + abs(base.value))
            assert abs(sol.value - ref.fun) < 1e-9 * (1.0 + abs(ref.fun))
            assert sol.residual < 1e-9


# -- the scalar ratio test against the vectorized reference ----------------------


def ratio_state(rng, m):
    """(tableau state, column g) for one ratio test on m rows: near-ties in
    the ratios and exact ties in |g|, infinite bounds, entries below the
    pivot threshold, and basics at or just past their bounds."""
    g = rng.normal(size=m) * 10.0 ** rng.integers(-3, 3, size=m)
    g = np.where(rng.random(m) < 0.3, np.copysign(np.abs(g).max(initial=1.0), g), g)
    g[rng.random(m) < 0.2] *= 1e-11                  # below PIVOT_TOL * max|g|
    g[rng.random(m) < 0.05] = 0.0
    finite = rng.normal(size=m)
    bl = np.where(rng.random(m) < 0.2, -np.inf, finite)
    bu = np.where(rng.random(m) < 0.3, np.inf, finite + rng.uniform(0.0, 2.0, m))
    bound = np.where(g > 0.0, bl, bu)
    xB = np.where(bl > -np.inf, bl, np.minimum(finite, bu - 1.0)) + rng.uniform(0.0, 1.0, m)
    # A block of rows stepping to their bounds within a few ulps of one
    # ratio, rows sitting on their bound, rows past it by less than the
    # Harris tolerance.
    theta = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    tie = np.isfinite(bound) & (rng.random(m) < 0.5)
    wiggle = 1.0 + rng.integers(-3, 4, size=m) * 2.0 ** -52
    xB = np.where(tie, bound + theta * g * wiggle, xB)
    past = np.isfinite(bound) & (rng.random(m) < 0.1)
    xB = np.where(past, bound - np.sign(g) * 1e-13, xB)
    state = types.SimpleNamespace(m=m, xB=xB, bl=bl, bu=bu,
                                  basis=rng.permutation(3 * m + 1)[:m])
    return state, g


def test_scalar_ratio_test_matches_the_vectorized_reference():
    rng = np.random.default_rng(1313)
    blocked = open_ = 0
    for _ in range(3000):
        m = int(rng.choice([0, 1, 2, 3, 5, 7, 13, 50]))
        state, g = ratio_state(rng, m)
        for bland in (False, True):
            row, theta = lp_module._Tableau._ratio(state, g, bland)
            ref_row, ref_theta = oracles.lp_ratio_reference(state, g, bland)
            assert row == ref_row, (m, bland)
            assert float(theta).hex() == float(ref_theta).hex(), (m, bland)
            blocked += row >= 0
            open_ += row < 0
    assert blocked > 1000 and open_ > 100


def bench_shaped_programs(monkeypatch):
    """The slice, sup-norm, box-scale, classical and box-mixture LPs of
    priced and high-drift markets shaped like those of the lp_cross
    benchmark."""
    programs = []

    def record(lp):
        programs.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(rhoarb.dual, "lp_solve", record)
    monkeypatch.setattr(oracles, "lp_solve", record)
    atoms = ((0.05, 0.3), (0.25, 0.7))
    for market in (make_tanh_priced_market(np.random.default_rng(1), 80, 4),
                   make_tanh_priced_market(np.random.default_rng(2), 150, 5),
                   make_drift_market(np.random.default_rng(3), 150, 6, 2.0),
                   make_drift_market(np.random.default_rng(4), 100, 4, 2.0)):
        for spec in (RiskSpec.es(0.1), RiskSpec.spectral(atoms), RiskSpec.wc()):
            programs.append(_slice_lp(market, spec)[0])
        es_min_supnorm(market)
        es_min_supnorm(market, atoms)
        classical_no_arbitrage(market)
        oracles.box_mixture(market, atoms)
    monkeypatch.undo()
    return programs


def solution_bits(sol):
    return (sol.status, sol.iterations, float(sol.value).hex(),
            None if sol.x is None else sol.x.tobytes(),
            None if sol.duals is None else sol.duals.tobytes())


def test_reference_ratio_test_takes_the_same_pivot_path(monkeypatch):
    programs = bench_shaped_programs(monkeypatch)
    assert len(programs) == 28
    got = [solution_bits(lp_solve(lp)) for lp in programs]
    monkeypatch.setattr(lp_module._Tableau, "_ratio", oracles.lp_ratio_reference)
    want = [solution_bits(lp_solve(lp)) for lp in programs]
    assert got == want
    assert sum(bits[1] for bits in got) > 500
