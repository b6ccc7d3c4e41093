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
atoms below level 1, d assets), whose asset-row multipliers are the
minimizing portfolio; a level-1 atom, whose only density is 1, is the
mean term of the asset rows (RiskSpec.boxes).  EVAR and TNORM minimize a
ratio bound over the multipliers of their penalty dual (relative entropy,
or E[Z^q / q] for TNORM): every value of the ratio bounds the risk of a
portfolio from above, and its infimum is rho_1.  One damped Newton run
finds it.  The WC slice minimum, the largest shift t for which a
martingale density prices the shifted excess e + t (mu - r), guards that
run lazily: its LP is solved only when the first run does not converge.
VaR is not positively-homogeneous-convex and has no global minimizer
route here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from .lp import OPTIMAL, LinearProgram, SimplexError, lp_solve
from .market import ScenarioMarket, canonical_portfolio, excess_return
from .measures import RiskSpec, _numeric_prime, conjugate, evaluate, penalty
from .solvers import (LAMBDA_ESCAPE, NEWTON_GRAD_TOL, CumulantResult, _conjugate_kernel, _cumulant_kernel,
                      _damped_newton, _ratio_kernel, _scaled_rows, _shifted_kernel)

Vector = NDArray[np.float64]

CLASSIFY_TOL = 1e-7
ROOT_MAX_ITER = 500    # Newton steps of the ROOT route, ratio runs and penalty solves, before it stops
ROOT_RUN_STEPS = 20    # ratio steps after which an open run takes an exact Dinkelbach step


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
    or ROOT (EVAR/TNORM); iterations counts the LP's simplex iterations or,
    on ROOT, the Newton steps of the ratio runs and of the penalty solves
    at fixed shifts that guard them (0 on the DIRECT route).  On the ROOT
    route rho1 is the risk of argmin, evaluated afresh, and gap is its
    distance from the ratio bound on that risk at the final iterate; when
    the run stopped short (MAX_ITER) gap is rho1 + 1, its height above
    the lower bound -1.  gap is 0 on DIRECT and LP.
    """

    rho1: float
    attained: bool
    argmin: Vector | None
    spec: RiskSpec
    route: str
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

    With a = mu - r, the blocks (alpha_j, w_j) and the weight w_pin of the
    level-1 atoms of spec.boxes, and D_j = {zeta : 0 <= zeta <= 1/alpha_j,
    E[zeta] = 1}, rho(X) = w_pin E[-X] + sum_j w_j max over D_j of
    E[-zeta_j X].  The D_j are compact, so the minimax theorem gives

        rho_1 = max{-c : zeta_j in D_j,
                    sum_j w_j E[zeta_j (R - r)] + w_pin a = c a}.

    Variables (zeta_1, ..., zeta_J, c), minimize c.  Rows 0..J-1 are
    E[zeta_j] = 1, one per block; rows J..J+d-1 are the assets, with
    right-hand side -w_pin a (+0, not -0, when w_pin = 0).  Stationarity in the free c
    gives a . y_assets = -1, so minus the asset-row multipliers is a
    portfolio on Pi_1, and LP duality makes it a minimizer.  zeta = 1 is
    feasible with c = 1 and the D_j are bounded, so the program always has
    an optimum: rho_1 >= -1, never -inf, for these measures.

    WC's dual set is every density: zeta >= 0 with E[zeta] = 1.  That
    already holds zeta_omega <= 1/p_omega, so its block is capped there,
    which removes no feasible point and changes no optimum.

    At the optimum each zeta_j sits at its cap 1/alpha_j on the worst
    alpha_j-tail of the minimizing portfolio, and at 0 beyond it, so the
    basic columns are c and densities near the tail boundaries.  Every
    column but c is boxed, and the program carries a basis hint for the
    dual simplex (lp module): c first, then the densities in order of how
    far their scenario lies from the alpha_j quantile of the Gaussian
    tangency portfolio's excess return (ScenarioMarket.tail_hint).  The
    hint moves only the pivot path; full pricing certifies the optimum.
    """
    blocks, w_pin = spec.boxes
    d, N = market.n_assets, market.n_scenarios
    J = len(blocks)
    poly = market.polytope
    p, weighted = poly.A[0], poly.A[1:]  # weighted @ v = E[v (R - r)]
    A_eq = np.zeros((J + d, J * N + 1))
    upper = np.full(J * N + 1, np.inf)
    for j, (alpha, w) in enumerate(blocks):
        block = slice(j * N, (j + 1) * N)
        A_eq[j, block] = p
        A_eq[J:, block] = w * weighted
        upper[block] = 1.0 / alpha if alpha > 0.0 else 1.0 / p
    A_eq[J:, -1] = -market.mean_excess
    b_eq = np.concatenate([np.ones(J), np.zeros(d)])
    if w_pin:
        b_eq[J:] = -w_pin * market.mean_excess
    lower = np.zeros(J * N + 1)
    lower[-1] = -np.inf
    c = np.zeros(J * N + 1)
    c[-1] = 1.0
    hint = np.concatenate(([J * N], market.tail_hint([alpha for alpha, _ in blocks])))
    return LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper,
                         hint=hint), J


def _lp_route(market: ScenarioMarket, spec: RiskSpec) -> FrontierResult:
    """ES/SPECTRAL/WC slice minimum and the portfolio of one _slice_lp solve."""
    lp, J = _slice_lp(market, spec)
    sol = lp_solve(lp)
    if sol.status != OPTIMAL:
        raise SimplexError(f"slice LP returned {sol.status}")
    pi = -sol.duals[J:]
    pi *= 1.0 / float(pi @ market.mean_excess)
    return FrontierResult(rho1=-float(sol.value), attained=True, argmin=pi, spec=spec,
                          route="LP", iterations=sol.iterations)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The smooth dual of the least penalty E[g(Z)] over the densities Z
    that price the rows (shape (N, d)), for _damped_newton.

    of(pen, probs, rows) picks it from pen.g_kind: the cumulant
    log E exp(lam . e) for ENTROPY, the conjugate E[g*(nu + lam . e)] - nu
    (measures.conjugate) for every other g, on the rows divided once by
    scale = max |e|.  floor is the least value the kernel has when a
    density prices the rows (log min p, or minus the largest penalty of a
    density); start is the unit density Z = 1 (lam = 0, nu = g'(1)), and
    density(state) the density Z of an iterate.  The conjugate's minimizer
    need not be unique on a face of M (rows where g* is flat add no
    curvature), so it runs without the step test.
    """

    value: Callable[[Vector], tuple[float, Any]]
    derivatives: Callable[[Any], tuple[Vector, Vector]]
    floor: float
    scale: float
    start: Vector
    density: Callable[[Any], Vector]
    step_test: bool

    @classmethod
    def of(cls, pen: RiskSpec, probs: Vector, rows: Vector) -> "_Kernel":
        p = np.asarray(probs, dtype=np.float64)
        E, scale = _scaled_rows(rows)
        d = E.shape[1]
        if pen.g_kind == "ENTROPY":
            return cls(*_cumulant_kernel(p, E), floor=float(np.log(p).min()), scale=scale,
                       start=np.zeros(d), density=lambda w: w / p, step_test=True)
        conj, floor = conjugate(pen, p)
        start = np.zeros(d + 1)
        start[0] = 1.0 if pen.g_kind == "POWER" else float(
            (pen.g_prime or _numeric_prime(pen.g))(np.ones(1))[0])
        return cls(*_conjugate_kernel(p, E, conj), floor=floor, scale=scale, start=start,
                   density=lambda state: state[0], step_test=False)

    def lift(self, lam: Vector, nu: float) -> Vector:
        """The kernel's point with multipliers lam (scaled) and, on the
        conjugate, constant nu: the cumulant has none."""
        return lam if self.start.size == lam.size else np.concatenate(([nu], lam))


def _penalty_min(pen: RiskSpec, probs: Vector, rows: Vector) -> CumulantResult:
    """Least E[g(Z)] over the densities Z that price the rows (shape (N, d)).

    pen is a penalty ball; Newton minimizes its _Kernel from the unit
    density.
    """
    k = _Kernel.of(pen, probs, rows)
    run = _damped_newton(k.value, k.derivatives, k.start, floor=k.floor, step_test=k.step_test)
    return CumulantResult(lam=run.x[-np.shape(rows)[1]:] / k.scale, value=-run.value,
                          z=k.density(run.state), status=run.status,
                          gradient_norm=run.gradient_norm, iterations=run.iterations)


def _root_route(market: ScenarioMarket, spec: RiskSpec) -> FrontierResult:
    """EVaR or TNORM slice minimum as the least value of a penalty ratio.

    Both dual sets are penalty balls {Z in D : E[g(Z)] <= beta}, read from
    spec.penalty_ball: EVaR's with g(z) = z log z, TNORM(p)'s with
    g(z) = z^q / q, the q-norm ball of radius 1 / alpha.  The minimax
    argument of _slice_lp makes rho_1 the largest t with V(t) <= beta, V(t)
    the least penalty of a density that prices the shifted excess e + t a,
    a = mu - r.  By duality V(t) = -min over x of f(x) + t c . x, with f the
    _Kernel of the ball on the unshifted rows: the cumulant
    log E exp(lam . e) (x = lam, c = a) or the conjugate
    E[g*(nu + lam . e)] - nu (x = (nu, lam), c = (0, a)).  So rho_1 is the
    infimum of R(x) = (beta + f(x)) / D over D = -c . x > 0 (for EVaR, of
    EVaR's own formula jointly in the portfolio and z = D), and R(x)
    bounds the risk of the portfolio pi = lam / (lam . a) from above.

    Damped Newton with the Dinkelbach step (solvers._ratio_kernel)
    minimizes R from the Gaussian root.  A run has converged when its
    residual, the gradient of the kernel shifted by t = R, is below
    NEWTON_GRAD_TOL.  The first run, of at most ROOT_RUN_STEPS steps and
    with the kernels' escape bound LAMBDA_ESCAPE, needs no guard.  If it
    converges, its x minimizes that convex kernel, whose value there is
    -beta, so V(R) = beta; and R >= rho_1 at every x rules out the lower
    root, so R = rho_1.  It cannot converge above t_max, the WC slice
    minimum, above which no density prices e + t a: there the shifted
    kernel has a recession direction of strictly negative slope, so its
    gradient is bounded away from 0, and the escape bound ends a run that
    follows that direction.

    Only when the first run does not converge is t_max solved for (the WC
    slice LP), and the route starts again from the Gaussian root, moved
    below t_max, under its guard: if R >= t_max there, the kernel shifted
    by t_max is minimized until it falls below -beta, which proves
    V(t_max) > beta and reaches an x with R < t_max.  If it never does,
    V <= beta up to t_max, so rho_1 = t_max and the WC slice portfolio
    attains it.  R only falls from then on, and its sublevel sets below
    t_max are bounded.  A run that stalls, or is still open after
    ROOT_RUN_STEPS steps, takes an exact Dinkelbach step: the kernel
    shifted by t = R minimized from the run's end, whose minimizer lowers R
    by the Newton step in t, (beta - V(R)) / V'(R).  Below t_max neither
    has a recession direction, so neither stops at the escape bound: near
    p = 1 the minimizer can lie beyond it.  Every Newton step, the first
    run's too, counts against ROOT_MAX_ITER.
    """
    a = market.mean_excess
    p = market.probs
    d = market.n_assets
    pen = spec.penalty_ball
    beta = pen.beta
    g1 = float(penalty(pen, [1.0])[0])
    g2 = 1.0 if pen.g_kind == "ENTROPY" else pen.q - 1.0  # g''(1)

    k = _Kernel.of(pen, p, market.excess_matrix.T)
    c = k.lift(a / k.scale, 0.0)
    ratio, ratio_derivatives, residual = _ratio_kernel(k.value, k.derivatives, beta, c)
    newton = functools.partial(_damped_newton, ratio, ratio_derivatives, floor=-math.inf,
                               step_test=False, residual=residual)

    def solve(t: float, x: Vector, stop: float, escape: float = math.inf,
              max_iter: int | None = None):
        # The kernel on the rows e + t a, whose minimum is -V(t), minimized
        # from x; the run stops early once it falls below stop.
        return _damped_newton(*_shifted_kernel(k.value, k.derivatives, t, c), x, floor=stop,
                              step_test=k.step_test, escape=escape, max_iter=max_iter)

    def result(pi: Vector, steps: int, bound: float | None = None) -> FrontierResult:
        # rho_1 is the risk of the returned portfolio, evaluated afresh; gap
        # is its distance from the bound R on that risk or, when the run
        # stopped short (no bound), its height above -1.
        pi = pi * (1.0 / float(pi @ a))
        risk = evaluate(spec, excess_return(market, pi), p)
        short = bound is None
        return FrontierResult(rho1=risk, attained=not short, argmin=pi, spec=spec, route="ROOT",
                              gap=risk + 1.0 if short else abs(risk - bound),
                              annotations=("MAX_ITER",) if short else (), iterations=steps)

    # Start from the Gaussian root.  With S the covariance of e, the least
    # penalty near t = -1 is V(t) ~ g(1) + g''(1) (t + 1)^2 a' S^-1 a / 2,
    # reached at Z = 1 + (e - a) . w with w = -(t + 1) S^-1 a.  g''(1) is 1
    # for the entropy and q - 1 for the power penalty; the dual variables
    # there are lam = g''(1) w and, on the unshifted rows, nu = g'(1) - lam . a.
    tilt = market.tangency

    def start(t: float) -> Vector:
        lam = -g2 * (t + 1.0) * tilt
        return k.lift(lam * k.scale, k.start[0] - float(lam @ a))

    t = -1.0 + math.sqrt(2.0 * (beta - g1) / (g2 * float(a @ tilt)))
    steps = 0
    if t > -1.0:  # a start rounded onto t = -1 has D = 0 and no ratio
        run = newton(start(t), escape=LAMBDA_ESCAPE, max_iter=min(ROOT_RUN_STEPS, ROOT_MAX_ITER))
        steps = run.iterations
        if run.status == "OK" and run.gradient_norm < NEWTON_GRAD_TOL:
            return result(-run.x[-d:], steps, run.value)
        if steps >= ROOT_MAX_ITER:
            return result(-run.x[-d:], steps)

    # It did not converge: start again below t_max, under its guard.
    wc = _lp_route(market, RiskSpec.wc())
    t_max = wc.rho1
    if not t < t_max:
        t = 0.5 * (t_max - 1.0)
    x = start(t)
    if ratio(x)[0] >= t_max:
        # Minimize at t_max until the value falls below -beta, which proves
        # V(t_max) > beta and reaches an x with R < t_max.  What is left of
        # the budget caps it; a solve cut there reads as one that never fell
        # below -beta.
        top = solve(t_max, x, -beta, LAMBDA_ESCAPE, ROOT_MAX_ITER - steps)
        steps += top.iterations
        if top.value > -math.inf:  # V <= beta all the way up to t_max
            return result(wc.argmin, steps, t_max)
        x = top.x
    while steps < ROOT_MAX_ITER:
        run = newton(x, escape=math.inf, max_iter=min(ROOT_MAX_ITER - steps, ROOT_RUN_STEPS))
        steps += run.iterations
        x, R = run.x, run.value
        if run.gradient_norm < NEWTON_GRAD_TOL:
            return result(-x[-d:], steps, R)
        if steps >= ROOT_MAX_ITER:
            break
        # The run stalled or is still open: take an exact Dinkelbach step.
        res = solve(R, x, k.floor, max_iter=ROOT_MAX_ITER - steps)
        steps += res.iterations
        if not ratio(res.x)[0] < R:
            if res.status == "OK":  # V(R) is exact and R cannot fall further
                return result(-x[-d:], steps, R)
            break
        x = res.x
    return result(-x[-d:], steps)


def compute_rho1(market: ScenarioMarket, spec: RiskSpec) -> FrontierResult:
    """Minimal risk over the unit expected-excess slice Pi_1.

    d = 1 takes the direct route (the slice is the canonical singleton);
    ES/SPECTRAL/WC solve one LP (_lp_route); EVAR and TNORM minimize the
    ratio bound of their penalty dual (_root_route), and solve the WC
    slice LP as a guard only when their first Newton run does not
    converge.  VAR raises UnsupportedGlobalMinError, GENTROPIC has no
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
        return FrontierResult(rho1=val, attained=True, argmin=pi, spec=spec, route="DIRECT")

    if spec.kind in ("ES", "SPECTRAL", "WC"):
        return _lp_route(market, spec)

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

    if rho1 < -tol:
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


def frontier_levels(levels) -> list[float]:
    """The levels as floats; ValueError on a negative or non-finite one."""
    out = [float(nu) for nu in levels]
    for nu in out:
        if not 0.0 <= nu < math.inf:
            raise ValueError(f"frontier levels must be finite and >= 0, got {nu!r}")
    return out


def frontier_points(result: FrontierResult, levels) -> list[tuple[float, float]]:
    """Points (nu, rho_nu) of the lower frontier boundary at the given levels.

    rho_0 = 0 at nu = 0 and rho_nu = nu rho_1 for nu > 0.  Negative and
    non-finite levels are rejected (frontier_levels); an infinite rho_1
    leaves the frontier undefined beyond 0.
    """
    pts: list[tuple[float, float]] = []
    for nu in frontier_levels(levels):
        if nu == 0.0:
            pts.append((0.0, 0.0))
            continue
        if not math.isfinite(result.rho1):
            raise ValueError("rho_1 = -inf: the frontier is undefined beyond nu = 0")
        pts.append((nu, nu * result.rho1))
    return pts
