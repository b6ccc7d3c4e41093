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


# -- starting points: the default start and the basis hint ----------------------


def test_start_at_upper_bounds_is_already_optimal():
    # The hint makes x2 basic; both other variables have negative reduced
    # costs, so the dual start puts them at their upper bounds, which is the
    # optimum: nothing to pivot or flip.
    lp = LinearProgram(c=[-1.0, -1.0, 0.0], A_eq=[[1.0, 1.0, -1.0]], b_eq=[0.0],
                       upper=[2.0, 3.0, np.inf], hint=[2])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert sol.iterations == sol.flips == 0
    assert np.all(sol.x == [2.0, 3.0, 5.0])


def test_interior_start_is_priced_both_ways():
    # Boxes around 0 start at 0, inside their range: x0 must fall to its
    # lower bound and x1 rise to its upper one.
    lp = LinearProgram(c=[1.0, -1.0], A_le=[[1.0, 1.0]], b_le=[1.5],
                       lower=[-1.0, -1.0], upper=[1.0, 1.0])
    sol = lp_solve(lp)
    assert sol.status == "OPTIMAL"
    assert abs(sol.value + 2.0) < ATOL
    assert np.allclose(sol.x, [-1.0, 1.0], atol=ATOL)


def test_hint_start_that_violates_rows_runs_the_dual_from_it():
    # The basis {x2, x1} puts x0 at its upper bound and leaves x2 = -1: the
    # dual run repairs that and reaches the primal run's optimum.
    lp = dict(c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], b_eq=[1.0, 0.0],
              upper=[1.0, 1.0, 1.0])
    ref = lp_solve(LinearProgram(**lp))
    sol = lp_solve(LinearProgram(**lp, hint=[2, 1]))
    assert ref.status == sol.status == "OPTIMAL"
    assert sol.iterations >= 1
    assert abs(sol.value - 1.5) < ATOL
    assert abs(sol.value - ref.value) < ATOL
    assert np.allclose(sol.x, [0.5, 0.5, 0.0], atol=ATOL)


@pytest.mark.parametrize("start", [[2], [-1], [0, 2], [-2, 1], [1, 0, 7]])
def test_start_outside_the_bounds_is_rejected(start):
    # A hint start names variables by index; one outside 0..n-1 is rejected.
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 1.0], lower=[0.0, -np.inf], upper=[1.0, np.inf], hint=start)


@pytest.mark.parametrize("hint", [[0, 0], [0.5], [[0, 1]], ["0"]])
def test_malformed_hint_is_rejected(hint):
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 1.0], upper=[1.0, 1.0], hint=hint)


def test_hint_falls_back_to_the_primal_run():
    # No column can enter the row that x0 + x1 = 3 leaves infeasible: that
    # row proves the program infeasible (see the Farkas tests below).  A
    # hint with a dependent column short of a basis, and a start that would
    # put an unbounded column at infinity, fall back to the primal run.
    lp = dict(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[3.0], upper=[1.0, 1.0])
    assert lp_solve(LinearProgram(**lp, hint=[0])).status == "INFEASIBLE"
    lp = dict(c=[1.0, 1.0, 0.0], A_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]], b_eq=[1.0, 3.0],
              upper=[1.0, 1.0, 5.0])
    ref = lp_solve(LinearProgram(**lp))
    for hint in ([0, 1], [2, 0]):
        sol = lp_solve(LinearProgram(**lp, hint=hint))
        assert sol.status == ref.status == "OPTIMAL"
        assert abs(sol.value - ref.value) < ATOL
    lp = dict(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0], upper=[np.inf, 1.0])
    sol = lp_solve(LinearProgram(**lp, hint=[1]))
    assert sol.status == "OPTIMAL" and abs(sol.value + 1.0) < ATOL and sol.flips == 0


def test_infeasible_boxed_program_ends_on_a_farkas_ray(monkeypatch):
    # Every column boxed: the row that no column can enter is a Farkas ray,
    # and the program is infeasible without a primal start.  x0 + x1 = 3
    # under x <= 1, and the classical LP of a 50x4 drift market that no
    # density prices although its tangency portfolio does not show it.
    def no_primal_start(self, *args):
        raise AssertionError("the primal start ran")

    monkeypatch.setattr(lp_module._Tableau, "primal_start", no_primal_start)
    sol = lp_solve(LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[3.0],
                                 upper=[1.0, 1.0], hint=[0]))
    assert sol.status == "INFEASIBLE" and sol.x is None and sol.iterations == 0
    market = make_drift_market(np.random.default_rng(2), 50, 4, 1.0)
    res = classical_no_arbitrage(market)
    assert res.status == "INFEASIBLE" and res.delta == 0.0 and res.witness is None
    assert res.iterations >= 1


def test_farkas_check_with_an_open_range_falls_back(monkeypatch):
    # x0 + x1 + 1e-10 x3 = 3 and x2 + x3 = 1/2, x0, x1, x2 in [0, 1] and
    # x3 >= 0.  From the basis {x0, x2} the first row is infeasible, and
    # x3's entry there is below the pivot tolerance, so no column enters
    # it; x3's infinite bound leaves that row's range open above 3, so it
    # proves nothing.  The primal run decides: the second row caps x3 at
    # 1/2, so the program is infeasible.
    checks, starts = [], []
    farkas, primal_start = lp_module._Tableau.farkas, lp_module._Tableau.primal_start

    def spy_farkas(self, row):
        checks.append(farkas(self, row))
        return checks[-1]

    def spy_start(self, *args):
        starts.append(True)
        return primal_start(self, *args)

    monkeypatch.setattr(lp_module._Tableau, "farkas", spy_farkas)
    monkeypatch.setattr(lp_module._Tableau, "primal_start", spy_start)
    lp = dict(c=[0.0, 0.0, 0.0, 0.0], A_eq=[[1.0, 1.0, 0.0, 1e-10], [0.0, 0.0, 1.0, 1.0]],
              b_eq=[3.0, 0.5], upper=[1.0, 1.0, 1.0, np.inf])
    sol = lp_solve(LinearProgram(**lp, hint=[0, 2]))
    assert checks == [False] and starts == [True]
    assert sol.status == "INFEASIBLE"
    assert lp_solve(LinearProgram(**lp)).status == "INFEASIBLE"


def test_starts_reach_the_highs_optimum():
    # The seeded sweep of random bounded programs, solved from the default
    # start and from two hints (the variables in order and reversed): the
    # optimum is the same from each, and equals HiGHS's.  A program with an
    # inequality row whose slack the dual start would put at an infinite
    # bound falls back to the primal run.
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
        for hint in (np.arange(n), np.arange(n)[::-1]):
            sol = lp_solve(LinearProgram(**lp, hint=hint))
            assert sol.status == "OPTIMAL"
            assert abs(sol.value - base.value) < 1e-9 * (1.0 + abs(base.value))
            assert abs(sol.value - ref.fun) < 1e-9 * (1.0 + abs(ref.fun))
            assert sol.residual < 1e-9


def boxed_program(rng, degenerate: bool):
    """(LinearProgram fields, hint) of a random equality program whose
    columns are all boxed but one, free or bounded below only, which the
    hint names first.  A degenerate program puts the cost on that column
    alone, as the slice and box-scale LPs do, and adds a capacity row that
    only the upper bounds of its columns meet, as a saturated block of the
    box-scale LP does."""
    m = int(rng.integers(2, 6))
    n = m + int(rng.integers(3, 25))
    lower, upper = np.zeros(n), rng.uniform(0.5, 2.0, n)
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 1.0, n) * upper
    f = int(rng.integers(n))
    upper[f] = np.inf
    if rng.random() < 0.5:
        lower[f], x0[f] = -np.inf, rng.normal()
    c = rng.normal(size=n)
    if degenerate:
        c = np.where(np.arange(n) == f, 1.0, 0.0)
        cap = rng.permutation(np.flatnonzero(np.arange(n) != f))[:int(rng.integers(1, n // 2 + 1))]
        A[0] = 0.0
        A[0, cap] = rng.uniform(0.5, 1.5, cap.size)
        x0[cap] = upper[cap]
    others = rng.permutation(np.flatnonzero(np.arange(n) != f))
    return dict(c=c, A_eq=A, b_eq=A @ x0, lower=lower, upper=upper), np.r_[f, others]


def test_dual_run_matches_the_primal_run_and_is_scale_free(monkeypatch):
    # Random boxed programs with one free or unbounded column, half of them
    # degenerate: from the hint and from the default start they reach the
    # same value to 1e-9 and a feasible point.  Rows scaled by powers of two
    # each, the variables by one power of two and the costs by another take
    # the same path to the same bits.  (A power of two on one variable
    # alone can move a row's largest entry, and with it the row's scale.)
    runs = []
    dual_run = lp_module._Tableau.dual_run

    def spy(self):
        status = dual_run(self)
        runs.append(self.perturbed)
        return status

    monkeypatch.setattr(lp_module._Tableau, "dual_run", spy)
    rng = np.random.default_rng(1717)
    flips = 0
    for k in range(120):
        fields, hint = boxed_program(rng, degenerate=k % 2 == 1)
        ref = lp_solve(LinearProgram(**fields))
        got = lp_solve(LinearProgram(**fields, hint=hint))
        assert got.status == ref.status == "OPTIMAL"
        assert abs(got.value - ref.value) <= 1e-9 * (1.0 + abs(ref.value))
        assert got.residual <= 1e-9
        flips += got.flips
        r = 2.0 ** rng.integers(-8, 9, size=fields["A_eq"].shape[0])
        s, t = 2.0 ** rng.integers(-8, 9, size=2)
        scaled = lp_solve(LinearProgram(
            c=t * s * fields["c"], A_eq=r[:, None] * fields["A_eq"] * s, b_eq=r * fields["b_eq"],
            lower=fields["lower"] / s, upper=fields["upper"] / s, hint=hint))
        assert (scaled.iterations, scaled.flips) == (got.iterations, got.flips)
        assert scaled.value == t * got.value
        assert np.array_equal(scaled.x * s, got.x)
    assert len(runs) == 2 * 120                 # every hinted program ran the dual
    assert any(runs) and not all(runs)         # and some of them were perturbed
    assert flips > 100


def test_dual_run_fixes_a_row_with_zero_slack(monkeypatch):
    # A level-1 atom's block of the slice LP is fixed by its bounds
    # (E[zeta] = 1 under zeta <= 1).  The long step that fixes its row
    # leaves a slope of rounding size, which must count as zero, not as a
    # row no column can fix: that would hand the LP to the primal run.
    statuses = []
    dual_run = lp_module._Tableau.dual_run

    def spy(self):
        statuses.append(dual_run(self))
        return statuses[-1]

    monkeypatch.setattr(lp_module._Tableau, "dual_run", spy)
    market = make_tanh_priced_market(np.random.default_rng(1003), 150, 5)
    lp, _ = _slice_lp(market, RiskSpec.spectral(((0.1, 0.4), (0.5, 0.3), (1.0, 0.3))))
    got = lp_solve(lp)
    assert statuses == ["OPTIMAL"]
    ref = lp_solve(LinearProgram(c=lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, lower=lp.lower,
                                 upper=lp.upper))
    assert got.status == ref.status == "OPTIMAL"
    assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
    assert got.iterations < 0.25 * ref.iterations


def test_dual_run_finishes_on_the_saturated_spectral_box_scale_lp(monkeypatch):
    # The box-scale LP of SPECTRAL {(0.05, .3), (0.25, .7)} on this priced
    # market saturates its second block at sigma* = 0.05/0.25: the dual
    # degeneracy on which the dual run cycles without its perturbation.  It
    # finishes, and matches the primal run.
    programs = []

    def record(lp):
        programs.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(rhoarb.dual, "lp_solve", record)
    market = make_tanh_priced_market(np.random.default_rng([1000, 10, 7]), 1000, 10)
    res = es_min_supnorm(market, ((0.05, 0.3), (0.25, 0.7)))
    assert abs(res.t - 5.0) <= 1e-12 * 5.0
    lp = programs[0]
    got = lp_solve(lp)
    ref = lp_solve(LinearProgram(c=lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, upper=lp.upper))
    assert got.status == ref.status == "OPTIMAL"
    assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
    assert got.iterations < 0.1 * ref.iterations


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
    benchmark, plus each market's classical and WC slice LPs without caps
    or hint, which run the primal simplex from its default start."""
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
        wc = programs[-1]
        programs.append(LinearProgram(c=wc.c, A_eq=wc.A_eq, b_eq=wc.b_eq, lower=wc.lower))
        es_min_supnorm(market)
        es_min_supnorm(market, atoms)
        classical_no_arbitrage(market)
        poly = market.polytope
        programs.append(LinearProgram(
            c=np.r_[np.zeros(market.n_scenarios), -1.0], b_eq=poly.b,
            A_eq=np.hstack([poly.A, poly.A.sum(axis=1, keepdims=True)])))
        oracles.box_mixture(market, atoms)
    monkeypatch.undo()
    return programs


def solution_bits(sol):
    return (sol.status, sol.iterations, sol.flips, float(sol.value).hex(),
            None if sol.x is None else sol.x.tobytes(),
            None if sol.duals is None else sol.duals.tobytes())


def test_reference_ratio_test_takes_the_same_pivot_path(monkeypatch):
    # The primal ratio test runs in the unhinted WC slice and classical LPs
    # from their default start, and in the clean-up after each dual run.
    programs = bench_shaped_programs(monkeypatch)
    assert len(programs) == 36
    scans = []
    ratio = lp_module._Tableau._ratio

    def counted(self, g, bland):
        scans.append(bland)
        return ratio(self, g, bland)

    monkeypatch.setattr(lp_module._Tableau, "_ratio", counted)
    got = [solution_bits(lp_solve(lp)) for lp in programs]
    monkeypatch.setattr(lp_module._Tableau, "_ratio", oracles.lp_ratio_reference)
    want = [solution_bits(lp_solve(lp)) for lp in programs]
    assert got == want
    assert len(scans) > 200
