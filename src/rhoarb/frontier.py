"""Primal route: minimal risk on expected-excess slices and what it implies.

rho_nu is the infimum of rho(X_pi) over the slice Pi_nu = {pi : E[X_pi] = nu}.
Positive homogeneity collapses the whole frontier to the two numbers
rho_0 = 0 (expectation-bounded measures attain it at pi = 0) and rho_1:
rho_nu = nu rho_1 for nu > 0.  The sign of rho_1 decides everything:

    rho_1 > 0    no rho-arbitrage, the efficient frontier exists
    rho_1 = 0    rho-arbitrage (boundary)
    rho_1 < 0    strong rho-arbitrage, scaling blows past every risk budget

ES, SPECTRAL and WC solve the slice minimum in its dual form: one LP over
the measure's box-bounded densities with J + d equality rows (J mixture
atoms, d assets), whose asset-row multipliers are the minimizing
portfolio.  EVAR finds rho_1 as the root of the least relative entropy
of a martingale density for the shifted excess e + t (mu - r), a convex
function of the shift t, by safeguarded Newton steps in t between -1 and
the WC slice minimum; the cumulant multipliers at the root give the
portfolio.  TNORM runs a Kelley cutting-plane loop with tight
dual-density cuts.  VaR is not positively-homogeneous-convex and has no
global minimizer route here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .lp import OPTIMAL, LinearProgram, lp_solve
from .market import (ScenarioMarket, canonical_portfolio, excess_return)
from .measures import RiskSpec, evaluate
from .solvers import (KelleyResult, kelley_minimize, minimize_1d_convex,
                      newton_cumulant_min)

Vector = NDArray[np.float64]

BOX_DEFAULT = 1e6      # Kelley's starting box on |pi|
BOX_GROWTH = 100.0
CLASSIFY_TOL = 1e-7
STRICT_NEG_TOL = 1e-9
EVAR_ROOT_TOL = 1e-12  # relative Newton step in t at which the EVaR root is taken
EVAR_ROOT_MAX_ITER = 60


class UnsupportedGlobalMinError(ValueError):
    """UNSUPPORTED_GLOBAL_MIN: no slice-minimization route for this measure."""


@dataclass(frozen=True, eq=False)
class FrontierResult:
    """Minimal risk at unit expected excess and how it was obtained.

    rho1 may be -inf (Kelley's box kept binding after enlargement).
    attained is False exactly when the infimum is not achieved by any
    portfolio or the solver stopped short (then argmin is the best iterate
    seen, for diagnostics).  rho0 is always 0.0 for the supported measures:
    pi = 0 attains it.  route is DIRECT (d = 1 canonical slice), LP
    (ES/SPECTRAL/WC), ROOT (EVAR) or KELLEY (TNORM); iterations counts the
    LP's simplex iterations, the root's steps in t or Kelley's master
    solves (0 on the DIRECT route).  gap is the risk of argmin, evaluated
    afresh, minus rho1 on a converged ROOT route; otherwise it is rho1 minus
    a lower bound: the root bracket's lower end when the root stopped short
    (MAX_ITER), Kelley's final master bound on the KELLEY route; 0 on
    DIRECT and LP.
    """

    rho1: float
    attained: bool
    argmin: Vector | None
    spec: RiskSpec
    route: str
    status: str
    rho0: float = 0.0
    gap: float = 0.0
    annotations: tuple[str, ...] = ()
    iterations: int = 0

    @property
    def efficient_frontier_exists(self) -> bool:
        return math.isfinite(self.rho1) and self.rho1 > 0.0


@dataclass(frozen=True, eq=False)
class ArbitrageVerdict:
    """Classification outcome with its certificate.

    verdict is NO_ARBITRAGE, RHO_ARBITRAGE, or STRONG_RHO_ARBITRAGE; route
    records which theory produced it (PRIMAL, DUAL, ELLIPTICAL).  The
    certificate carries a portfolio (primal; with the solver's iteration
    count and gap), a dual witness summary, or closed-form scalars;
    annotations flag BOUNDARY and other caveats.
    """

    verdict: str
    route: str
    certificate: dict = field(default_factory=dict)
    rho1: float | None = None
    annotations: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "route": self.route,
               "annotations": list(self.annotations)}
        if self.rho1 is not None:
            out["rho1"] = self.rho1
        if self.certificate:
            out["certificate"] = self.certificate
        return out


def build_ru_lp(market: ScenarioMarket, alpha, nu: float) -> LinearProgram:
    """Shortfall LP for ES (scalar alpha) or a spectral mixture.

    Variables (pi, s_j, u_j.) per atom j of the mixture ((alpha, 1),) for
    plain ES: minimize sum_j w_j (s_j + E[u_j] / alpha_j) subject to
    u_j,omega >= -X_pi(omega) - s_j, u_j >= 0, and E[X_pi] = nu.  At the
    optimum this equals the spectral risk of X_pi because each inner block
    is the shortfall representation of ES^{alpha_j}.  compute_rho1 solves
    the dual form instead (_slice_lp); this primal form, with one row per
    scenario and atom, stays as an independent formulation to check it by.
    """
    if np.isscalar(alpha):
        atoms = ((float(alpha), 1.0),)
    else:
        atoms = tuple((float(a), float(w)) for a, w in alpha)
    d, N = market.n_assets, market.n_scenarios
    J = len(atoms)
    E = market.excess_matrix
    p = market.probs
    nvar = d + J + J * N

    c = np.zeros(nvar)
    for j, (a, w) in enumerate(atoms):
        c[d + j] = w
        c[d + J + j * N: d + J + (j + 1) * N] = (w / a) * p

    A_eq = np.zeros((1, nvar))
    A_eq[0, :d] = market.mean_returns - market.riskless_rate
    b_eq = np.asarray([nu])

    # Rows -X_pi - s_j - u_j,omega <= 0 for every atom j and scenario omega.
    A_le = np.zeros((J * N, nvar))
    b_le = np.zeros(J * N)
    for j in range(J):
        rows = slice(j * N, (j + 1) * N)
        A_le[rows, :d] = -E.T
        A_le[rows, d + j] = -1.0
        A_le[rows.start + np.arange(N), d + J + j * N + np.arange(N)] = -1.0

    lower = np.concatenate([np.full(d + J, -np.inf), np.zeros(J * N)])
    return LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le, lower=lower)


def _slice_lp(market: ScenarioMarket, spec: RiskSpec) -> tuple[LinearProgram, int]:
    """Dual form of the ES/SPECTRAL/WC slice minimum; returns (lp, J).

    With a = mu - r and D_j = {zeta : 0 <= zeta <= 1/alpha_j, E[zeta] = 1}
    (no upper bound for WC), rho(X) = sum_j w_j max over D_j of
    E[-zeta_j X].  The D_j are compact, so the minimax theorem gives

        rho_1 = max{-c : zeta_j in D_j, sum_j w_j E[zeta_j (R - r)] = c a}.

    Variables (zeta_1, ..., zeta_J, c), minimize c.  Rows 0..J-1 are
    E[zeta_j] = 1, rows J..J+d-1 the assets.  Stationarity in the free c
    gives a . y_assets = -1, so minus the asset-row multipliers is a
    portfolio on Pi_1, and LP duality makes it a minimizer.  zeta = 1 is
    feasible with c = 1 and the D_j are bounded, so the program always has
    an optimum: rho_1 >= -1, never -inf, for these measures.
    """
    if spec.kind == "WC":
        atoms = ((0.0, 1.0),)
    elif spec.kind == "ES":
        atoms = ((spec.alpha, 1.0),)
    else:
        atoms = spec.spectrum
    d, N = market.n_assets, market.n_scenarios
    J = len(atoms)
    p = market.probs
    weighted = market.excess_matrix * p[None, :]
    A_eq = np.zeros((J + d, J * N + 1))
    upper = np.full(J * N + 1, np.inf)
    for j, (alpha, w) in enumerate(atoms):
        block = slice(j * N, (j + 1) * N)
        A_eq[j, block] = p
        A_eq[J:, block] = w * weighted
        if alpha > 0.0:
            upper[block] = 1.0 / alpha
    A_eq[J:, -1] = -(market.mean_returns - market.riskless_rate)
    b_eq = np.concatenate([np.ones(J), np.zeros(d)])
    lower = np.zeros(J * N + 1)
    lower[-1] = -np.inf
    c = np.zeros(J * N + 1)
    c[-1] = 1.0
    return LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper), J


def _tnorm_cut_oracle(market: ScenarioMarket, p_exp: float, alpha: float):
    """Tight-cut oracle for TNORM: the norm-attaining density at each pi.

    With q conjugate to p, the maximizer of E[-Z X] over {||Z||_q <= 1/alpha,
    Z in D} is Z* proportional to ((s* - x)+)^(p-1) at the optimal shift s*;
    E[Z*] = 1 after normalization and ||Z*||_q = 1/alpha at the optimum.  A
    bisected mix toward Z = 1 repairs any numerical norm overshoot.
    """
    E = market.excess_matrix
    p = market.probs
    q = p_exp / (p_exp - 1.0)
    bound = 1.0 / alpha

    def qnorm(z: Vector) -> float:
        zmax = float(np.abs(z).max())
        if zmax == 0.0:
            return 0.0
        return zmax * float(p @ (np.abs(z) / zmax) ** q) ** (1.0 / q)

    def oracle(pi: Vector) -> tuple[float, Vector]:
        x = pi @ E
        span = float(x.max() - x.min())
        if span <= 1e-14:
            zd = np.ones_like(x)
        else:
            def h(s: float) -> float:
                y = np.maximum(s - x, 0.0)
                ymax = float(y.max())
                if ymax == 0.0:
                    return -s
                return ymax * float(p @ (y / ymax) ** p_exp) ** (1.0 / p_exp) / alpha - s

            lo = float(x.min()) - 1.0
            hi = float(x.max()) + max(span, 1.0) / alpha
            s_star, _ = minimize_1d_convex(h, (lo, hi), tol=1e-11)
            y = np.maximum(s_star - x, 0.0)
            den = float(p @ y ** (p_exp - 1.0))
            if den <= 1e-300:
                # s* collapsed onto min x (happens iff pmin^(1/p) >= alpha);
                # the attaining density then sits on the min atoms, where it
                # meets the q-norm bound, not on the unit density.
                mask = x <= x.min() + 1e-14 * max(1.0, span)
                zd = mask / float(p[mask].sum())
            else:
                zd = y ** (p_exp - 1.0) / den
            if qnorm(zd) > bound:
                t_lo, t_hi = 0.0, 1.0  # theta = 1 keeps zd, 0 is the unit density
                for _ in range(80):
                    t = 0.5 * (t_lo + t_hi)
                    if qnorm(t * zd + (1.0 - t)) > bound:
                        t_hi = t
                    else:
                        t_lo = t
                zd = t_lo * zd + (1.0 - t_lo)
        cut = -E @ (p * zd)
        return float(pi @ cut), cut

    return oracle


def _kelley_route(market: ScenarioMarket, spec: RiskSpec, nu: float,
                  box: float, tol: float) -> KelleyResult:
    oracle = _tnorm_cut_oracle(market, spec.p, spec.alpha)
    a = market.mean_returns - market.riskless_rate
    use_box = max(box, 2.0 * nu / float(np.abs(a).max()))
    return kelley_minimize(oracle, a, level=nu, box=use_box, tol=tol)


def _evar_route(market: ScenarioMarket, spec: RiskSpec, nu: float) -> FrontierResult:
    """EVaR slice minimum as the root of the entropy dual in the shift t.

    The EVaR dual set is {Z in D : E[Z log Z] <= beta}, beta = -log alpha,
    so the minimax argument of _slice_lp makes rho_1 the largest t for which
    a density of entropy <= beta prices the shifted excess e + t a, with
    a = mu - r.  The least such entropy is (Csiszar)

        D(t) = -min_lam log E exp(lam . (e + t a)),

    convex in t (E[Z (e + t a)] = 0 is linear in (Z, t)), D(-1) = 0 at
    Z = 1, and D'(t) = -lam* . a.  No density prices e + t a above the WC
    slice minimum t_max, so rho_1 is the root of D(t) = beta in [-1, t_max].

    A Newton step from t is also a certificate: with lam* at t, the
    portfolio pi = lam* / (lam* . a) has EVaR at most t + (beta - D(t)) / D'(t)
    (take z = -lam* . a in EVaR's infimum over z).  The iteration stops when
    that step is negligible and reports its end point as rho_1 with that
    portfolio.  Steps that leave the bracket, and inner solves that do not
    converge, are replaced by bisection.  If D <= beta holds up to t_max,
    rho_1 = t_max and the WC slice portfolio attains it.  gap is the EVaR of
    the returned portfolio, evaluated afresh, minus rho_1.
    """
    beta = -math.log(spec.alpha)
    E = market.excess_matrix
    p = market.probs
    a = market.mean_returns - market.riskless_rate
    lp, J = _slice_lp(market, RiskSpec.wc())
    wc = lp_solve(lp)
    if wc.status != OPTIMAL:
        raise RuntimeError(f"slice LP returned {wc.status}")
    t_max = -float(wc.value)
    wc_pi = -wc.duals[J:]
    lo, hi, top_open = -1.0, t_max, True

    def result(pi: Vector, evals: int, rho1: float | None = None) -> FrontierResult:
        pi = pi * (nu / float(pi @ a))
        risk = evaluate(spec, excess_return(market, pi), p) / nu
        if rho1 is not None:
            return FrontierResult(rho1=rho1, attained=True, argmin=pi, spec=spec,
                                  route="ROOT", status=OPTIMAL, gap=risk - rho1,
                                  iterations=evals)
        # Stopped short of the root: report the portfolio's own risk, and its
        # distance from the bracket's lower end as the gap.
        return FrontierResult(rho1=risk, attained=False, argmin=pi, spec=spec,
                              route="ROOT", status=OPTIMAL, gap=risk - lo,
                              annotations=("MAX_ITER",), iterations=evals)

    # Start from the Gaussian root: near t = -1, D(t) ~ (t + 1)^2 / (2 a' S^-1 a)
    # with S the covariance of e, reached at lam = -(t + 1) S^-1 a.
    dev = E - a[:, None]
    try:
        tilt = np.linalg.solve((dev * p) @ dev.T, a)
        t = -1.0 + math.sqrt(2.0 * beta / float(a @ tilt))
    except (np.linalg.LinAlgError, ValueError):
        tilt, t = np.zeros_like(a), math.inf
    if not t < hi:
        t = 0.5 * (lo + hi)
    lam = -(t + 1.0) * tilt
    best_pi, best_bound = wc_pi, t_max
    evals = overshoots = 0
    while evals < EVAR_ROOT_MAX_ITER:
        res = newton_cumulant_min(p, (E + t * a[:, None]).T, lam0=lam)
        evals += 1
        over = res.value - beta
        if over > 0.0:
            hi, top_open = t, False
        else:
            lo = t
        if hi - lo <= EVAR_ROOT_TOL * (1.0 + abs(hi)):
            if top_open:  # D <= beta all the way up to t_max
                return result(wc_pi, evals, t_max)
            break  # the inner solves never closed near the root
        slope = -float(res.lam @ a)
        t_new = math.nan
        if res.status == "OK" and slope > 0.0:
            step = -over / slope
            if abs(step) <= EVAR_ROOT_TOL * (1.0 + abs(t)):
                return result(-res.lam, evals, t + step)
            lam = res.lam
            t_new = t + step
            if t_new < best_bound:
                best_pi, best_bound = -res.lam, t_new
            if t_new >= hi:
                # From the left, convexity makes Newton overshoot; past the
                # bracket, step in u = -log(t_max - t) instead, which stays
                # below t_max.  A second such overshoot asks whether D stays
                # <= beta all the way up.
                overshoots += 1
                if top_open and overshoots >= 2:
                    top = newton_cumulant_min(p, (E + t_max * a[:, None]).T, lam0=lam)
                    evals += 1
                    if top.value <= beta:
                        return result(wc_pi, evals, t_max)
                    top_open = False
                width = t_max - t
                t_new = t_max - width * math.exp(-step / width)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t = t_new
    return result(best_pi, evals)


def compute_rho1(market: ScenarioMarket, spec: RiskSpec, *, box: float = BOX_DEFAULT,
                 tol: float = 1e-9) -> FrontierResult:
    """Minimal risk over the unit expected-excess slice Pi_1.

    d = 1 takes the direct route (the slice is the canonical singleton);
    ES/SPECTRAL/WC solve one LP (_slice_lp), which needs no box; EVAR finds
    the root of its entropy dual in the shift t (_evar_route), bracketed by
    the WC slice LP; TNORM runs cutting planes to tolerance tol in a box on
    |pi|, enlarged once geometrically before rho_1 = -inf is declared.
    VAR raises UnsupportedGlobalMinError, GENTROPIC has no primal route.
    """
    return _compute_rho_nu(market, spec, 1.0, box=box, tol=tol)


def _compute_rho_nu(market: ScenarioMarket, spec: RiskSpec, nu: float, *,
                    box: float, tol: float) -> FrontierResult:
    if spec.kind == "VAR":
        raise UnsupportedGlobalMinError(
            "UNSUPPORTED_GLOBAL_MIN: VaR slice minima are not computed")
    if spec.kind == "GENTROPIC":
        raise UnsupportedGlobalMinError(
            "UNSUPPORTED_GLOBAL_MIN: GENTROPIC is dual-side only; "
            "use EVAR/TNORM for the primal route")

    if market.n_assets == 1:
        pi = canonical_portfolio(market, nu)
        val = evaluate(spec, excess_return(market, pi), market.probs)
        return FrontierResult(rho1=val / nu, attained=True, argmin=pi, spec=spec,
                              route="DIRECT", status="OPTIMAL")

    if spec.kind in ("ES", "SPECTRAL", "WC"):
        lp, J = _slice_lp(market, spec)
        sol = lp_solve(lp)
        if sol.status != OPTIMAL:
            raise RuntimeError(f"slice LP returned {sol.status}")
        pi = -sol.duals[J:]
        pi *= nu / float(pi @ (market.mean_returns - market.riskless_rate))
        return FrontierResult(rho1=-float(sol.value), attained=True, argmin=pi,
                              spec=spec, route="LP", status=OPTIMAL,
                              iterations=sol.iterations)

    if spec.kind == "EVAR":
        return _evar_route(market, spec, nu)

    # TNORM: cutting planes, one box enlargement before giving up.
    res = _kelley_route(market, spec, nu, box, tol)
    iterations = res.iterations
    if res.status == "BOX_ACTIVE":
        res = _kelley_route(market, spec, nu, box * BOX_GROWTH, tol)
        iterations += res.iterations
        if res.status == "BOX_ACTIVE":
            return FrontierResult(rho1=-math.inf, attained=False, argmin=res.pi,
                                  spec=spec, route="KELLEY", status="BOX_ACTIVE",
                                  gap=res.gap, annotations=("BOX_ACTIVE",),
                                  iterations=iterations)
    # The cut oracle's repaired densities can understate the risk at a query,
    # so rho_1 is the risk of the returned portfolio itself, and gap its
    # distance from the final master bound.
    risk = evaluate(spec, excess_return(market, res.pi), market.probs)
    annotations = () if res.status == "OK" else (res.status,)
    return FrontierResult(rho1=risk / nu, attained=res.status == "OK",
                          argmin=res.pi, spec=spec, route="KELLEY", status=OPTIMAL,
                          gap=(risk - (res.value - res.gap)) / nu,
                          annotations=annotations, iterations=iterations)


def classify_primal(result: FrontierResult, tol: float = CLASSIFY_TOL) -> ArbitrageVerdict:
    """Trichotomy from the sign of rho_1.

    Strong iff rho_1 < 0.  At rho_1 = 0 (within tol) there is rho-arbitrage
    when the slice minimum is attained; an unattained zero infimum leaves no
    optimal portfolio to scale, so no rho-arbitrage (boundary annotated
    either way).  The unreachable branch rho_0 != 0 (empty zero-slice
    optimizer set) would force rho-arbitrage outright.
    """
    rho1 = result.rho1
    annotations = list(result.annotations)
    certificate: dict = {}
    if result.argmin is not None:
        certificate["portfolio"] = np.asarray(result.argmin).tolist()
        certificate["rho"] = rho1
        certificate["expected_excess"] = 1.0
        certificate["iterations"] = result.iterations
        certificate["gap"] = result.gap

    if rho1 == -math.inf or rho1 < -tol:
        verdict = "STRONG_RHO_ARBITRAGE"
    elif rho1 <= tol:
        annotations.append("BOUNDARY")
        if result.rho0 != 0.0:
            verdict = "RHO_ARBITRAGE"  # empty zero-slice case, unreachable here
        elif result.attained:
            verdict = "RHO_ARBITRAGE"
        else:
            verdict = "NO_ARBITRAGE"
            annotations.append("INFIMUM_NOT_ATTAINED")
    else:
        verdict = "NO_ARBITRAGE"

    return ArbitrageVerdict(verdict=verdict, route="PRIMAL", certificate=certificate,
                            rho1=rho1, annotations=tuple(annotations))


def frontier_points(result: FrontierResult, levels) -> list[tuple[float, float]]:
    """Points (nu, rho_nu) of the lower frontier boundary at the given levels.

    rho_0 = 0 at nu = 0 and rho_nu = nu rho_1 for nu > 0.  Negative levels
    are rejected; an infinite rho_1 leaves the frontier undefined beyond 0.
    """
    pts: list[tuple[float, float]] = []
    for nu in levels:
        nu = float(nu)
        if nu < 0.0:
            raise ValueError("frontier levels must be >= 0")
        if nu == 0.0:
            pts.append((0.0, result.rho0))
            continue
        if not math.isfinite(result.rho1):
            raise ValueError("rho_1 = -inf: the frontier is undefined beyond nu = 0")
        pts.append((nu, nu * result.rho1))
    return pts
