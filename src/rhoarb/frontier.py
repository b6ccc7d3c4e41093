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
portfolio.  EVAR and TNORM find rho_1 as the root of the least penalty
(relative entropy, or E[Z^q / q] for TNORM) of a martingale density for
the shifted excess e + t (mu - r), a convex function of the shift t, by
safeguarded Newton steps in t between -1 and the WC slice minimum; the
dual multipliers at the root give the portfolio.  VaR is not
positively-homogeneous-convex and has no global minimizer route here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .lp import OPTIMAL, LinearProgram, SimplexError, lp_solve
from .market import ScenarioMarket, canonical_portfolio, excess_return
from .measures import RiskSpec, _numeric_prime, conjugate, evaluate, penalty
from .solvers import CumulantResult, newton_conjugate_min, newton_cumulant_min

Vector = NDArray[np.float64]

CLASSIFY_TOL = 1e-7
STRICT_NEG_TOL = 1e-9
EVAR_ROOT_TOL = 1e-12  # relative Newton step in t at which the EVaR or TNORM root is taken
EVAR_ROOT_MAX_ITER = 60


class UnsupportedGlobalMinError(ValueError):
    """UNSUPPORTED_GLOBAL_MIN: no slice-minimization route for this measure."""


@dataclass(frozen=True, eq=False)
class FrontierResult:
    """Minimal risk at unit expected excess and how it was obtained.

    rho1 is finite on every route: it is at least -1, the expected loss at
    unit expected excess.  attained is False exactly when the solver
    stopped short (then argmin is the best iterate seen, for diagnostics).
    rho_0 is 0 for the supported measures (pi = 0 attains it) and is not
    stored.  route is DIRECT (d = 1 canonical slice), LP (ES/SPECTRAL/WC)
    or ROOT (EVAR/TNORM); iterations counts the LP's simplex iterations or the
    root's steps in t (0 on the DIRECT route).  On the ROOT route rho1 is
    the risk of argmin, evaluated afresh, and gap is its distance from the
    root's end point, an upper bound on that risk from the dual side; when
    the root stopped short (MAX_ITER) gap is rho1 minus the largest shift
    that a converged inner solve showed feasible, a lower bound on the
    minimum.  gap is 0 on DIRECT and LP.
    """

    rho1: float
    attained: bool
    argmin: Vector | None
    spec: RiskSpec
    route: str
    status: str
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
    count and gap), a dual witness summary (with the iterations of the
    dual's LPs or Newton solve), or closed-form scalars; annotations flag
    BOUNDARY and other caveats.
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

    At the optimum each zeta_j sits at its cap 1/alpha_j on the worst
    alpha_j-tail of the minimizing portfolio, and at 0 beyond it, so the
    basic columns are c and densities near the tail boundaries.  Every
    column but c is boxed, and the program carries a basis hint for the
    dual simplex (lp module): c first, then the densities in order of how
    far their scenario lies from the alpha_j quantile of the Gaussian
    tangency portfolio's excess return (ScenarioMarket.tail_hint).  The
    hint moves only the pivot path; full pricing certifies the optimum.
    WC has no cap and runs the primal simplex from 0.
    """
    if spec.kind == "WC":
        atoms = ((0.0, 1.0),)
    elif spec.kind == "ES":
        atoms = ((spec.alpha, 1.0),)
    else:
        atoms = spec.spectrum
    d, N = market.n_assets, market.n_scenarios
    J = len(atoms)
    poly = market.polytope
    p, weighted = poly.A[0], poly.A[1:]  # weighted @ v = E[v (R - r)]
    A_eq = np.zeros((J + d, J * N + 1))
    upper = np.full(J * N + 1, np.inf)
    for j, (alpha, w) in enumerate(atoms):
        block = slice(j * N, (j + 1) * N)
        A_eq[j, block] = p
        A_eq[J:, block] = w * weighted
        if alpha > 0.0:
            upper[block] = 1.0 / alpha
    A_eq[J:, -1] = -market.mean_excess
    b_eq = np.concatenate([np.ones(J), np.zeros(d)])
    lower = np.zeros(J * N + 1)
    lower[-1] = -np.inf
    c = np.zeros(J * N + 1)
    c[-1] = 1.0
    hint = None if spec.kind == "WC" else market.tail_hint([alpha for alpha, _ in atoms])
    if hint is not None:
        hint = np.concatenate(([J * N], hint))
    return LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper,
                         hint=hint), J


def _penalty_min(pen: RiskSpec, probs: Vector, rows: Vector, lam0: Vector | None = None,
                 nu0: float | None = None) -> CumulantResult:
    """Least E[g(Z)] over the densities Z that price the rows (shape (N, d)).

    pen is a penalty ball.  ENTROPY runs newton_cumulant_min, every other g
    newton_conjugate_min on measures.conjugate, warm-started at lam0 (and
    nu0, which only the conjugate kernel has).  The default start lam = 0,
    nu = g'(1) is Z = 1; g'(1) is 1 for POWER.
    """
    if pen.g_kind == "ENTROPY":
        return newton_cumulant_min(probs, rows, lam0=lam0)
    conj, floor = conjugate(pen, probs)
    if nu0 is None:
        nu0 = 1.0 if pen.g_kind == "POWER" else float(
            (pen.g_prime or _numeric_prime(pen.g))(np.ones(1))[0])
    return newton_conjugate_min(probs, rows, conj, floor, lam0=lam0, nu0=nu0)


def _root_route(market: ScenarioMarket, spec: RiskSpec) -> FrontierResult:
    """EVaR or TNORM slice minimum as the root of a penalty dual in the shift t.

    Both dual sets are penalty balls {Z in D : E[g(Z)] <= beta}, read from
    spec.penalty_ball: EVaR's with g(z) = z log z, TNORM(p)'s with
    g(z) = z^q / q, the q-norm ball of radius 1 / alpha.  The minimax
    argument of _slice_lp makes rho_1 the largest t for which a density of
    penalty <= beta prices the shifted excess e + t a, with a = mu - r.
    The least such penalty V(t) is the minimum of _penalty_min on the rows
    e + t a: newton_cumulant_min for EVaR (Csiszar's I-projection,
    V(t) = -min_lam log E exp(lam . (e + t a))), newton_conjugate_min
    for TNORM.  V is convex in t (E[Z (e + t a)] = 0 is linear in (Z, t)),
    V(-1) = g(1) at Z = 1, and V'(t) = -lam* . a by the envelope
    theorem.  No density prices e + t a above the WC slice minimum t_max,
    so rho_1 is the root of V(t) = beta in [-1, t_max].

    A Newton step from t is also a certificate: with lam* at t, the
    portfolio pi = lam* / (lam* . a) has risk at most t + (beta - V(t)) / V'(t).
    For EVaR take z = -lam* . a in its infimum over z; for TNORM take the
    shift s with (s - X_pi)+^(p-1) proportional to Z*, and use that
    (q V)^(1/p) / alpha - q V is concave in V with slope -1 at beta.  The
    iteration stops when that step is negligible and returns that
    portfolio; rho_1 is its risk evaluated afresh, and gap is the distance
    of that risk from the step's end point, which agree to rounding and the
    evaluator's tolerance.  Steps that leave the bracket, and inner solves
    that do not converge, are replaced by bisection.  If V <= beta holds up
    to t_max, the root is t_max and the WC slice portfolio attains it.
    """
    E = market.excess_matrix
    p = market.probs
    a = market.mean_excess
    pen = spec.penalty_ball
    beta = pen.beta
    g1 = float(penalty(pen, [1.0])[0])
    g2 = pen.q - 1.0 if pen.g_kind == "POWER" else 1.0  # g''(1)

    def solve(t: float, lam: Vector, nu0: float) -> CumulantResult:
        return _penalty_min(pen, p, (E + t * a[:, None]).T, lam, nu0)

    lp, J = _slice_lp(market, RiskSpec.wc())
    wc = lp_solve(lp)
    if wc.status != OPTIMAL:
        raise SimplexError(f"slice LP returned {wc.status}")
    t_max = -float(wc.value)
    wc_pi = -wc.duals[J:]
    # lo_sure is the largest t at which a converged solve put V(t) <= beta,
    # a lower bound on rho_1; a solve that did not converge reports a value
    # below V, so it moves only the bracket's lo.
    lo, hi, top_open, lo_sure = -1.0, t_max, True, -1.0

    def result(pi: Vector, evals: int, bound: float | None = None) -> FrontierResult:
        # rho_1 is the risk of the returned portfolio, evaluated afresh; gap
        # is its distance from the root's bound on that risk or, when the
        # root stopped short, its height above lo_sure.
        pi = pi * (1.0 / float(pi @ a))
        risk = evaluate(spec, excess_return(market, pi), p)
        if bound is not None:
            return FrontierResult(rho1=risk, attained=True, argmin=pi, spec=spec,
                                  route="ROOT", status=OPTIMAL, gap=abs(risk - bound),
                                  iterations=evals)
        return FrontierResult(rho1=risk, attained=False, argmin=pi, spec=spec,
                              route="ROOT", status=OPTIMAL, gap=risk - lo_sure,
                              annotations=("MAX_ITER",), iterations=evals)

    # Start from the Gaussian root.  With S the covariance of e, the least
    # penalty near t = -1 is V(t) ~ g(1) + g''(1) (t + 1)^2 a' S^-1 a / 2,
    # reached at Z = 1 + (e - a) . w with w = -(t + 1) S^-1 a.  g''(1) is 1
    # for the entropy and q - 1 for the power penalty; the dual variables
    # there are lam = g''(1) w and, for the power penalty, nu = 1 - (t + 1) lam . a.
    tilt = market.tangency
    curvature = 0.0 if tilt is None else float(a @ tilt)
    if curvature > 0.0:
        t = -1.0 + math.sqrt(2.0 * (beta - g1) / (g2 * curvature))
    else:
        tilt, t = np.zeros_like(a), math.inf
    if not t < hi:
        t = 0.5 * (lo + hi)
    lam = -g2 * (t + 1.0) * tilt
    nu0 = 1.0 - (t + 1.0) * float(lam @ a)
    best_pi, best_bound, last_pi = wc_pi, t_max, wc_pi
    evals = overshoots = 0
    while evals < EVAR_ROOT_MAX_ITER:
        res = solve(t, lam, nu0)
        evals += 1
        over = res.value - beta
        slope = -float(res.lam @ a)
        if slope > 0.0 and math.isfinite(res.value):
            last_pi = -res.lam
        if over > 0.0:
            hi, top_open = t, False
        else:
            lo = t
            if res.status == "OK":
                lo_sure = t
        if hi - lo <= EVAR_ROOT_TOL * (1.0 + abs(hi)):
            if top_open:  # V <= beta all the way up to t_max
                return result(wc_pi, evals, t_max)
            break  # the inner solves never closed near the root
        t_new = math.nan
        if res.status == "OK" and slope > 0.0:
            step = -over / slope
            if abs(step) <= EVAR_ROOT_TOL * (1.0 + abs(t)):
                return result(-res.lam, evals, t + step)
            lam, nu0 = res.lam, getattr(res, "nu", nu0)  # only ConjugateResult has nu
            t_new = t + step
            if t_new < best_bound:
                best_pi, best_bound = -res.lam, t_new
            if t_new >= hi:
                # From the left, convexity makes Newton overshoot; past the
                # bracket, step in u = -log(t_max - t) instead, which stays
                # below t_max.  A second such overshoot asks whether V stays
                # <= beta all the way up.
                overshoots += 1
                if top_open and overshoots >= 2:
                    top = solve(t_max, lam, nu0)
                    evals += 1
                    if top.value <= beta:
                        return result(wc_pi, evals, t_max)
                    top_open = False
                width = t_max - t
                t_new = t_max - width * math.exp(-step / width)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t = t_new
    # Stopped short: the last solve, near the root if the bracket closed,
    # may give a better portfolio than the last converged Newton step.
    return min((result(pi, evals) for pi in (best_pi, last_pi)), key=lambda r: r.rho1)


def compute_rho1(market: ScenarioMarket, spec: RiskSpec) -> FrontierResult:
    """Minimal risk over the unit expected-excess slice Pi_1.

    d = 1 takes the direct route (the slice is the canonical singleton);
    ES/SPECTRAL/WC solve one LP (_slice_lp); EVAR and TNORM find the root
    of their penalty dual in the shift t (_root_route), bracketed by the
    WC slice LP.  VAR raises UnsupportedGlobalMinError, GENTROPIC has no
    primal route.
    """
    if spec.kind == "VAR":
        raise UnsupportedGlobalMinError(
            "UNSUPPORTED_GLOBAL_MIN: VaR slice minima are not computed")
    if spec.kind == "GENTROPIC":
        raise UnsupportedGlobalMinError(
            "UNSUPPORTED_GLOBAL_MIN: GENTROPIC is dual-side only; "
            "use EVAR/TNORM for the primal route")

    if market.n_assets == 1:
        pi = canonical_portfolio(market, 1.0)
        val = evaluate(spec, excess_return(market, pi), market.probs)
        return FrontierResult(rho1=val, attained=True, argmin=pi, spec=spec,
                              route="DIRECT", status="OPTIMAL")

    if spec.kind in ("ES", "SPECTRAL", "WC"):
        lp, J = _slice_lp(market, spec)
        sol = lp_solve(lp)
        if sol.status != OPTIMAL:
            raise SimplexError(f"slice LP returned {sol.status}")
        pi = -sol.duals[J:]
        pi *= 1.0 / float(pi @ market.mean_excess)
        return FrontierResult(rho1=-float(sol.value), attained=True, argmin=pi,
                              spec=spec, route="LP", status=OPTIMAL,
                              iterations=sol.iterations)

    return _root_route(market, spec)


def classify_primal(result: FrontierResult, tol: float = CLASSIFY_TOL) -> ArbitrageVerdict:
    """Trichotomy from the sign of rho_1.

    Strong iff rho_1 < 0.  At rho_1 = 0 (within tol) there is rho-arbitrage
    when the slice minimum is attained; an unattained zero infimum leaves no
    optimal portfolio to scale, so no rho-arbitrage (boundary annotated
    either way).
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
        if result.attained:
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
            pts.append((0.0, 0.0))
            continue
        if not math.isfinite(result.rho1):
            raise ValueError("rho_1 = -inf: the frontier is undefined beyond nu = 0")
        pts.append((nu, nu * result.rho1))
    return pts
