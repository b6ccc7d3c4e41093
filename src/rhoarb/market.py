"""Finite scenario markets, portfolios, and excess returns.

A market is a one-period model on N scenarios with strictly positive
probabilities, one riskless asset earning r > -1, and d risky assets whose
returns are tabulated per scenario.  A portfolio is the vector of fractions
of wealth in the risky assets; the riskless fraction is implied and never
stored.  The excess return of pi is X_pi = pi . (R - r 1), scenario by
scenario.  MartingalePolytope is the equality system of the densities that
price the market, shared by the primal slice LP and the dual tests; a market
builds it, its Gaussian tangency portfolio, that portfolio's excess return,
its minimal-variance density and the scenario order of it once
(ScenarioMarket.polytope, ScenarioMarket.tangency,
ScenarioMarket.tangency_excess, ScenarioMarket.tangency_density,
ScenarioMarket.tangency_order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]
Portfolio = Vector    # shape (d,): risky fractions of wealth
ScenarioRV = Vector   # shape (N,): one payoff per scenario

PROB_SUM_TOL = 1e-12
RANK_TOL = 1e-10
DEGENERACY_TOL = 1e-12


class DegenerateMarketError(ValueError):
    """Raised when mu = r 1 so no portfolio has nonzero expected excess."""


def _frozen_array(a, dtype=np.float64) -> Vector:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScenarioMarket:
    """Immutable one-period market on finitely many scenarios.

    Attributes
    ----------
    probs : shape (N,) scenario probabilities.
    riskless_rate : return r of the riskless asset.
    returns : shape (d, N), row i holds asset i's return per scenario.
    """

    probs: Vector
    riskless_rate: float
    returns: Vector

    def __post_init__(self) -> None:
        probs = _frozen_array(self.probs)
        returns = _frozen_array(self.returns)
        if probs.ndim != 1:
            raise ValueError("probs must be 1-D")
        if returns.ndim != 2:
            raise ValueError("returns must be 2-D (assets x scenarios)")
        if returns.shape[1] != probs.size:
            raise ValueError("returns must have one column per scenario")
        if probs.size == 0 or returns.shape[0] == 0:
            raise ValueError("market needs at least one scenario and one asset")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "riskless_rate", float(self.riskless_rate))

    @property
    def n_scenarios(self) -> int:
        return self.probs.size

    @property
    def n_assets(self) -> int:
        return self.returns.shape[0]

    @property
    def mean_returns(self) -> Vector:
        """mu, the probability-weighted mean return of each asset."""
        return self.returns @ self.probs

    @property
    def mean_excess(self) -> Vector:
        """mu - r 1, the expected excess return of each asset."""
        return self.mean_returns - self.riskless_rate

    @property
    def excess_matrix(self) -> Vector:
        """R - r 1, shape (d, N)."""
        return self.returns - self.riskless_rate

    @cached_property
    def polytope(self) -> "MartingalePolytope":
        """The martingale polytope of this market, built on first use."""
        return MartingalePolytope.of(self)

    @cached_property
    def tangency(self) -> Vector:
        """S^-1 (mu - r), with S the covariance of the excess returns: the
        Gaussian tangency direction; (mu - r) / |mu - r|^2 when S is
        singular.  Each use needs only some direction: any portfolio that
        earns more than r in every scenario proves M empty, a basis hint
        moves only the pivot path, and the dual tests check the tangency
        density's residual before they use it."""
        a = self.mean_excess
        dev = self.excess_matrix - a[:, None]
        try:
            return _frozen_array(np.linalg.solve((dev * self.probs) @ dev.T, a))
        except np.linalg.LinAlgError:
            return _frozen_array(a / float(a @ a))

    @cached_property
    def tangency_excess(self) -> Vector:
        """pi_T . (R - r 1), the excess return of the tangency portfolio in
        each scenario."""
        return _frozen_array(self.tangency @ self.excess_matrix)

    @cached_property
    def tangency_density(self) -> Vector:
        """Z_T = 1 + E[x] - x with x = tangency_excess: the minimal-variance
        density of the tangency portfolio (Hansen & Jagannathan, JPE 99(2),
        1991).  E[Z_T] = 1, and E[Z_T e] = a - S pi_T, which is 0 for
        pi_T = S^-1 a; so Z_T lies in M wherever it is nonnegative.  The
        fallback direction of a singular S leaves it off M."""
        x = self.tangency_excess
        return _frozen_array(1.0 + float(self.probs @ x) - x)

    @cached_property
    def tangency_order(self) -> NDArray[np.intp]:
        """Scenarios from the worst to the best excess return of the
        tangency portfolio (a stable sort)."""
        return _frozen_array(np.argsort(self.tangency_excess, kind="stable"), dtype=np.intp)

    @cached_property
    def _tangency_middles(self) -> Vector:
        """Probability mass below the middle of each scenario's own
        probability, scenarios in tangency_order."""
        p = self.probs[self.tangency_order]
        return _frozen_array(np.cumsum(p) - 0.5 * p)

    def tail_hint(self, masses) -> NDArray[np.intp]:
        """Columns j N + omega of J blocks of scenario densities, ordered by
        how far scenario omega lies, along tangency_order, from the end of
        block j's worst tail of probability masses[j] (measured from the
        middle of the scenario's own probability; a stable sort): the basis
        hint of the slice and box-scale LPs, whose optima cap each block on
        such a tail."""
        dist = np.abs(self._tangency_middles - np.asarray(masses, dtype=np.float64)[:, None])
        block, pos = np.divmod(np.argsort(dist, axis=None, kind="stable"), self.n_scenarios)
        return block * self.n_scenarios + self.tangency_order[pos]


@dataclass(frozen=True, eq=False)
class MartingalePolytope:
    """Equality system A z = b cutting the martingale densities M out of the
    nonnegative orthant.

    Row 0 is E[Z] = 1; row i prices asset i: sum_omega p_omega z_omega
    (R_i,omega - r) = 0.
    """

    A: Vector
    b: Vector

    @classmethod
    def of(cls, market: ScenarioMarket) -> "MartingalePolytope":
        p = market.probs
        A = np.vstack([p[None, :], market.excess_matrix * p[None, :]])
        b = np.zeros(A.shape[0])
        b[0] = 1.0
        A.setflags(write=False)
        b.setflags(write=False)
        return cls(A=A, b=b)

    def residual(self, z: Vector) -> float:
        return float(np.abs(self.A @ z - self.b).max())


def _rank_pivoted(mat: Vector, tol: float) -> int:
    """Row rank by Gaussian elimination with partial pivoting."""
    a = np.array(mat, dtype=np.float64)
    m, n = a.shape
    rank = 0
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        a[[row, piv]] = a[[piv, row]]
        a[row + 1:] -= np.outer(a[row + 1:, col] / a[row, col], a[row])
        rank += 1
        row += 1
    return rank


def validate_market(market: ScenarioMarket) -> list[str]:
    """Return a list of violation entries, empty when the market is usable.

    Each entry is "CODE: detail" with CODE one of PROB_POSITIVE, PROB_SUM,
    RISKLESS_RATE, FINITE, NONREDUNDANT, NONDEGENERATE.  The last two need
    finite data and do not run without it.  Nonredundancy asks the d+1 rows
    {(1+r) 1, (1+R_i)} to be linearly independent; nondegeneracy asks mu != r 1.
    """
    report: list[str] = []
    p = market.probs
    if np.any(p <= 0.0):
        bad = int(np.argmin(p))
        report.append(f"PROB_POSITIVE: scenario {bad} has probability {p[bad]!r}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        report.append(f"PROB_SUM: probabilities sum to {total!r}")
    if not market.riskless_rate > -1.0:
        report.append(f"RISKLESS_RATE: r = {market.riskless_rate!r} is not > -1")
    if not (np.isfinite(market.riskless_rate) and np.isfinite(p).all()
            and np.isfinite(market.returns).all()):
        report.append("FINITE: a probability, a return or r is NaN or infinite")
        return report
    gross = np.vstack([np.full(market.n_scenarios, 1.0 + market.riskless_rate),
                       1.0 + market.returns])
    if _rank_pivoted(gross, RANK_TOL) < market.n_assets + 1:
        report.append("NONREDUNDANT: some asset is a combination of the others "
                      "and the riskless asset")
    if np.abs(market.mean_excess).max() <= DEGENERACY_TOL:
        report.append("NONDEGENERATE: every asset has mean return equal to r")
    return report


def excess_return(market: ScenarioMarket, pi: Portfolio) -> ScenarioRV:
    """X_pi = pi . (R - r 1), one value per scenario."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (market.n_assets,):
        raise ValueError(f"portfolio must have shape ({market.n_assets},)")
    return pi @ market.excess_matrix


def expected_excess(market: ScenarioMarket, pi: Portfolio) -> float:
    """E[X_pi] = pi . (mu - r 1)."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (market.n_assets,):
        raise ValueError(f"portfolio must have shape ({market.n_assets},)")
    return float(pi @ market.mean_excess)


def canonical_portfolio(market: ScenarioMarket, nu: float) -> Portfolio:
    """The multiple of mu - r 1 with expected excess exactly nu.

    This is the least-norm element of the slice Pi_nu; it exists whenever
    the market is nondegenerate.
    """
    a = market.mean_excess
    if np.abs(a).max() <= DEGENERACY_TOL:
        raise DegenerateMarketError("mu = r 1: expected-excess slices are empty")
    return nu * a / float(a @ a)
