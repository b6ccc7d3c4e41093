"""Dual route: martingale-density tests for risk arbitrage.

The martingale polytope of a market is

    M = { Z >= 0 : E[Z] = 1, E[Z (R_i - r)] = 0 for every asset i },

its strictly positive part P = M with Z > 0.  Classical no-arbitrage is
"P nonempty": delta* > 0 for the max-min-entry LP.  For every coherent
measure the dual criterion has one shape: no strong rho-arbitrage iff M
meets the dual set, and no rho-arbitrage iff some Z in P lies strictly
inside it.  So each test is a strong-form value against a bound, then
the classical delta* > 0:

    WC        no bound: every density is in the dual set
    ES        t* = min sup-norm over M, against 1/alpha
    SPECTRAL  t* = kappa* / alpha_1, kappa* the least common scale of the
              boxes zeta_j <= kappa / alpha_j at which a mixture
              Z = sum_j w_j zeta_j lies in M, against 1/alpha_1
    GENTROPIC v* = min_{Z in M} E[g(Z)], against beta

classify_dual runs one pipeline for all of them: the tangency portfolio
pi_T, which proves M empty when pi_T . e > 0 in every scenario
(_proves_empty), then the strong-form program, then the classical test
where the verdict needs delta* (_decide_classical), and one tail
(_verdict) that turns the value, the bound and delta* into the verdict.
M is convex, so mixing a little of the strictly positive density that
decided the classical test into a minimizer strictly inside the dual set
keeps it inside and makes it strictly positive (_mix_positive).

The classical test solves the LP only where nothing cheaper decides.
Any density in M whose entries all exceed the tolerance shows delta*
above it, and two come nearly free: the tangency density
Z_T = 1 + E[x] - x, x = pi_T . e, which prices every asset
(ScenarioMarket.tangency_density), and the density of a converged Newton
solve: the penalty test's own, or else the entropy's Gibbs density,
which is strictly positive.  A diverged solve's multipliers run off
along an arbitrage when M is empty, which _proves_empty then confirms.
Only where none of these decides does the max-min-entry LP run
(classical_no_arbitrage).  The classical and sup-norm LPs keep the d + 1
rows of M.  Every column of the classical LP is boxed (caps that no
density in M reaches), so it runs the dual simplex from a
tangency-ordered hint, and an empty M ends it on a Farkas ray (lp
module).

ES and SPECTRAL share one box-scale LP (es_min_supnorm), with one block
of N variables and one row per atom below level 1, plus one row per
asset; with one atom it is the sup-norm LP.  Every penalty minimizes
through an unconstrained smooth dual in d + 1 or fewer variables by
damped Newton (no gap on finite scenario spaces): the entropy through
the cumulant log E exp(lam . e), every other g through its conjugate,
E[g*(nu + lam . e)] - nu.  A custom g takes its conjugate over the box
0 <= z <= 1/p_omega, which holds every density in M
(measures.conjugate).

Every certificate speaks one vocabulary: lp_iterations and
newton_iterations count all the simplex iterations and Newton steps the
test ran; delta_classical (the LP's delta*) or delta_lower (a deciding
density's min entry) records the classical test; arbitrage_portfolio and
excess_min record a portfolio that proved M empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .frontier import (ArbitrageVerdict, CLASSIFY_TOL, _penalty_min, compute_rho1,
                       classify_primal)
from .lp import INFEASIBLE, OPTIMAL, LinearProgram, SimplexError, lp_solve
from .market import MartingalePolytope, ScenarioMarket
from .measures import RiskSpec, UnsupportedDualError, penalty
from .solvers import CumulantResult

Vector = NDArray[np.float64]

ZERO_TOL = 1e-9          # LP vertex quantities at or below this count as zero
EMPTY_SCALE = 1e-12      # Charnes-Cooper scale s* = 1/t* at or below this: M is empty
EMPTY_MARGIN = 1e-9      # least min pi . e, relative to max |pi . e|, that proves M empty
DENSITY_RTOL = 1e-12     # row residual of the tangency density, per E|row| max Z, that puts it in M
ENTROPY = RiskSpec.entropic(1.0)  # the classical test's entropy kernel; it reads no radius


@dataclass(frozen=True, eq=False)
class DualWitness:
    """A density certificate: the vector plus the numbers proofs cite."""

    z: Vector
    min_entry: float
    sup_norm: float
    residual: float
    penalty: float | None = None

    @classmethod
    def of(cls, poly: MartingalePolytope, z: Vector,
           penalty: float | None = None) -> "DualWitness":
        z = np.asarray(z, dtype=np.float64)
        return cls(z=z, min_entry=float(z.min()), sup_norm=float(np.abs(z).max()),
                   residual=poly.residual(z), penalty=penalty)

    def to_dict(self) -> dict:
        out = {"z": self.z.tolist(), "min_entry": self.min_entry,
               "sup_norm": self.sup_norm, "residual": self.residual}
        if self.penalty is not None:
            out["penalty"] = self.penalty
        return out


def _proves_empty(x: Vector) -> float | None:
    """min x when the excess x = pi . e of a portfolio proves M empty, else None.

    Every Z in M prices each asset, E[Z e] = 0, so it prices every
    portfolio too: E[Z pi . e] = 0.  If pi . e > 0 in every scenario, no
    Z >= 0 with E[Z] = 1 does that, and M is empty.  The least excess must
    clear the rounding of the product, EMPTY_MARGIN times the largest
    |pi . e|.  This costs one pass over the scenarios, so the tests run it
    on the tangency portfolio before any LP, and on a diverged Newton
    run's direction before the classical LP (_decide_classical).
    """
    low = float(x.min())
    return low if low > EMPTY_MARGIN * float(np.abs(x).max()) else None


@dataclass(frozen=True, eq=False)
class ClassicalResult:
    status: str                      # OPTIMAL or INFEASIBLE (M empty)
    delta: float                     # delta* (LP), else the deciding density's min entry; 0 if empty
    witness: DualWitness | None      # the LP's optimum or the density that decided; None if empty
    iterations: int = 0              # simplex iterations of the classical LP; 0 where it did not run
    entries: dict = field(default_factory=dict)  # what the test adds to a dual certificate


def _empty(pi: Vector, low: float) -> ClassicalResult:
    """M empty, proved by the portfolio pi with least excess low (_proves_empty)."""
    return ClassicalResult(status=INFEASIBLE, delta=0.0, witness=None,
                           entries={"arbitrage_portfolio": pi.tolist(), "excess_min": low})


def classical_no_arbitrage(market: ScenarioMarket) -> ClassicalResult:
    """Max-min-entry LP over M; delta > 0 iff P is nonempty (FTAP form).

    With Z = delta + w, w >= 0: maximize delta subject to
    A w + delta A1 = b, so the program keeps the d + 1 rows of M.

    Every column is boxed: delta <= 1 and w_omega <= 1/p_omega.  The caps
    remove no feasible point, since Z = delta + w >= 0 with E[Z] = 1 has
    delta <= 1 and Z_omega <= 1/p_omega.  So the program runs the dual
    simplex (lp module) from the hint delta first, then the scenarios from
    the worst to the best excess of the tangency portfolio
    (ScenarioMarket.tangency_order), and an empty M ends the dual run on
    a Farkas ray.  The dual tests solve it only where no density or
    portfolio decides first (_decide_classical).
    """
    poly = market.polytope
    p = poly.A[0]
    N = p.size
    c = np.zeros(N + 1)
    c[N] = -1.0
    A_eq = np.hstack([poly.A, poly.A.sum(axis=1, keepdims=True)])
    hint = np.concatenate(([N], market.tangency_order))
    sol = lp_solve(LinearProgram(c=c, A_eq=A_eq, b_eq=poly.b,
                                 upper=np.concatenate((1.0 / p, [1.0])), hint=hint))
    if sol.status == INFEASIBLE:
        return ClassicalResult(status=INFEASIBLE, delta=0.0, witness=None,
                               iterations=sol.iterations, entries={"delta_classical": 0.0})
    if sol.status != OPTIMAL:
        raise SimplexError(f"classical LP returned {sol.status}")
    delta = float(sol.x[N])
    return ClassicalResult(status=OPTIMAL, delta=delta,
                           witness=DualWitness.of(poly, delta + sol.x[:N]),
                           iterations=sol.iterations, entries={"delta_classical": delta})


def _decide_classical(market: ScenarioMarket, tol: float,
                      run: CumulantResult | None = None) -> ClassicalResult:
    """Whether delta* > tol, with the classical LP as the last resort.

    It decides in this order, and stops at the first step that decides:

    1. The tangency density Z_T (ScenarioMarket.tangency_density).  When
       the residual of each row of M is within DENSITY_RTOL of the row's
       own scale, E|row| max Z_T, it lies in M, and every entry above
       max(tol, ZERO_TOL) shows delta* >= min Z_T > tol.  The fallback
       direction of a singular S fails the residual.
    2. A Newton run: run, a penalty test's own, or else one entropy solve
       (frontier._penalty_min).  A converged density with every entry
       above max(tol, ZERO_TOL) shows delta* > tol the same way; the
       entropy's Gibbs density exp(lam . e - K) is strictly positive, and
       the cumulant has a minimizer iff P is nonempty (Frittelli, Math.
       Finance 10(1), 2000).  A diverged run's multipliers run off along
       -pi for an arbitrage pi when M is empty: the kernel falls without
       bound along every lam with lam . e < 0 in every scenario.  So -lam
       proves M empty when it passes _proves_empty.
    3. The max-min-entry LP (classical_no_arbitrage).

    Each shortcut fires only where it proves what the LP would find: an
    OPTIMAL delta* > tol, or INFEASIBLE; then iterations is 0.  entries
    is what the test adds to a certificate: delta_classical where the LP
    ran, else delta_lower, the deciding density's min entry (delta* >=
    delta_lower), or the arbitrage portfolio and its least excess where
    one proved M empty; and newton_iterations where it ran its own
    entropy solve.
    """
    floor = max(tol, ZERO_TOL)
    poly = market.polytope

    def decided(z: Vector) -> ClassicalResult:
        witness = DualWitness.of(poly, z)
        return ClassicalResult(status=OPTIMAL, delta=witness.min_entry, witness=witness,
                               entries={"delta_lower": witness.min_entry})

    z = market.tangency_density
    if z.min() > floor and np.all(np.abs(poly.A @ z - poly.b)
                                  <= DENSITY_RTOL * float(z.max()) * np.abs(poly.A).sum(axis=1)):
        return decided(z)
    own = {}
    if run is None:
        run = _penalty_min(ENTROPY, market.probs, market.excess_matrix.T)
        own = {"newton_iterations": run.iterations}
    low = None if run.status == "OK" else _proves_empty(-run.lam @ market.excess_matrix)
    if run.status == "OK" and run.z.min() > floor:
        cl = decided(run.z)
    elif low is not None:
        cl = _empty(-run.lam, low)
    else:
        cl = classical_no_arbitrage(market)
    return replace(cl, entries={**cl.entries, **own})


@dataclass(frozen=True, eq=False)
class SupnormResult:
    status: str                      # OPTIMAL or INFEASIBLE
    t: float                         # min over M of ||Z||_inf; +inf if M empty
    witness: DualWitness | None
    iterations: int = 0              # simplex iterations of its LP (LPSolution.iterations)


def es_min_supnorm(market: ScenarioMarket, spectrum=None) -> SupnormResult:
    """t* = min ||Z||_inf over M, or the least box scale of a spectral mixture.

    A spectrum, (level, weight) atoms sorted by level as RiskSpec keeps
    them, has the dual set of densities Z = w_pin + sum_j w_j zeta_j with
    E[zeta_j] = 1 and 0 <= zeta_j <= 1/alpha_j: j runs over the atoms below
    level 1, and w_pin is the weight of the level-1 atoms, whose zeta is 1.
    (With no atom below level 1, j runs over the level-1 atoms and
    w_pin = 0.)  Scaling every box by kappa, the program has one block
    y_j in [0, 1]^N per atom and the scale sigma = E[y_1] of the first:

        E[y_j] - (alpha_j / alpha_1) sigma = 0                 (each atom)
        sum_j (w_j alpha_1)/(w_1 alpha_j) E[y_j e] + (w_pin/w_1) sigma E[e] = 0,

    the J + d rows; it maximizes sigma, with zeta_j = alpha_1 y_j /
    (alpha_j sigma) and t* = 1/sigma* = kappa*/alpha_1.  So the mixture
    fits its boxes iff t* <= 1/alpha_1, and the witness is
    Z = w_pin + sum_j (w_j/alpha_j)(alpha_1/sigma) y_j.  The default, one
    atom, is the Charnes-Cooper scaling Z = y / s of min ||Z||_inf over M:
    max s subject to A y = s b, with the d + 1 rows of M; no strong
    ES-arbitrage iff t* <= 1/alpha.  sigma* = 0 means no mixture lies in M
    (M is empty unless w_pin > 0).

    Every column but sigma is boxed, and the program carries a basis hint
    for the dual simplex (lp module): sigma first, then the y_j in order of
    how far their scenario lies from the end of block j's tail at the
    break-even mass below (ScenarioMarket.tail_hint).  The mass comes from
    the program with only the pricing row of the Gaussian tangency
    portfolio pi_T (ScenarioMarket.tangency) kept.  With excess
    x = pi_T . e and one atom, that row relaxes M to
    M_1 = {Z >= 0 : E[Z] = 1, E[Z x] = 0}, and the program to max E[y]
    subject to E[y x] = 0, y in [0, 1]^N: a fractional knapsack.  Its
    optimum takes y = 1 on the scenarios in ascending order of x
    (ScenarioMarket.tangency_order) as long as the partial sums
    S_k = sum_{i <= k} p_(i) x_(i) stay <= 0, then one fractional y; the
    mass is that of the k* scenarios with S_k* <= 0, where Z = 1 / P_k*
    minimizes ||Z||_inf over M_1 up to one scenario.  With J atoms the
    relaxation is a J-block knapsack with nested worst tails: at each
    breakpoint u = P_k of the first block, block j takes the worst
    scenarios up to probability u alpha_j/alpha_1, and the mass is the
    largest u at which the weighted pricing-row sum stays <= 0 (block j's
    tail ends at u alpha_j/alpha_1).  With no such u, pi_T is an arbitrage
    of M_1 and the tails are empty.  The hint moves only the pivot path;
    full pricing and the refactor at the optimum certify t*.
    """
    atoms = tuple(spectrum or ((1.0, 1.0),))
    blocks = [(a, w) for a, w in atoms if a < 1.0]
    w_pin = sum((w for a, w in atoms if a >= 1.0), 0.0) if blocks else 0.0
    blocks = blocks or list(atoms)
    a1, w1 = blocks[0]
    ratio = [a / a1 for a, _ in blocks]
    coef = np.array([(w * a1) / (w1 * a) for a, w in blocks])
    poly = market.polytope
    p, mart = poly.A[0], poly.A[1:]
    J, (d, N) = len(blocks), mart.shape
    A_eq = np.zeros((J + d, J * N + 1))
    for j in range(J):
        A_eq[j, j * N:(j + 1) * N] = p
        A_eq[j, -1] = -ratio[j]
        A_eq[J:, j * N:(j + 1) * N] = coef[j] * mart
    if w_pin:
        A_eq[J:, -1] = (w_pin / w1) * market.mean_excess
    c = np.zeros(J * N + 1)
    c[-1] = -1.0
    upper = np.concatenate([np.ones(J * N), [np.inf]])
    order = market.tangency_order
    x = market.tangency_excess[order]
    P, C = np.cumsum(p[order]), np.cumsum(p[order] * x)
    P0, C0 = np.concatenate(([0.0], P)), np.concatenate(([0.0], C))
    # The weighted pricing-row sum at each breakpoint u = P_k of block 1.
    row = C + (w_pin / w1) * float(market.tangency @ market.mean_excess) * P
    for j in range(1, J):
        i = np.minimum(np.searchsorted(P, P * ratio[j]), N - 1)
        row = row + coef[j] * (C0[i] + (P * ratio[j] - P0[i]) * x[i])
    even = np.flatnonzero((row <= 0.0) & (P * ratio[-1] <= P[-1]))
    mass = P[even[-1]] if even.size else 0.0
    hint = np.concatenate(([J * N], market.tail_hint([mass * r for r in ratio])))
    sol = lp_solve(LinearProgram(c=c, A_eq=A_eq, b_eq=np.zeros(J + d), upper=upper,
                                 hint=hint))
    if sol.status != OPTIMAL:
        raise SimplexError(f"sup-norm LP returned {sol.status}")
    s = float(sol.x[-1])
    if s <= EMPTY_SCALE:
        return SupnormResult(status=INFEASIBLE, t=math.inf, witness=None,
                             iterations=sol.iterations)
    z = coef @ sol.x[:-1].reshape(J, N) / (s / w1)
    return SupnormResult(status=OPTIMAL, t=1.0 / s,
                         witness=DualWitness.of(poly, z + w_pin if w_pin else z),
                         iterations=sol.iterations)


def _mix_positive(z: Vector, z_pos: Vector, value: float, value_pos: float,
                  bound: float) -> Vector:
    """(1 - eta) z + eta z_pos for a convex f with f(z) = value < bound and
    f(z_pos) = value_pos: eta = min(1/2, room / (2 excess)) keeps
    f <= value + room / 2 < bound, and a strictly positive z_pos makes the
    mixture strictly positive."""
    room = bound - value
    eta = min(0.5, room / (2.0 * max(value_pos - value, 1e-12))) if value_pos > value else 0.5
    return (1.0 - eta) * z + eta * z_pos


# -- classification ----------------------------------------------------------


def classify_dual(market: ScenarioMarket, spec: RiskSpec,
                  tol: float = CLASSIFY_TOL) -> ArbitrageVerdict:
    """Trichotomy by the dual criteria for the measure's dual set.

    One pipeline (module docstring) for every measure but VaR, which has
    no dual density set and raises UnsupportedDualError.  Every
    certificate carries lp_iterations and newton_iterations, 0 where none
    ran.  ES and SPECTRAL add t_star and box_upper, the penalty tests
    v_star, beta and, unless M is empty, gap; t_star and v_star are inf on
    an empty M.  delta_classical is there exactly when the classical LP
    ran, else delta_lower where a density decided (delta* >= delta_lower >
    tol).  An M_EMPTY verdict that a portfolio proved carries it as
    arbitrage_portfolio, with its least excess as excess_min.  A density
    witness is there wherever a test found one.  BOUNDARY is annotated
    when the deciding comparison sits within tol of its threshold.
    """
    if spec.kind == "VAR":
        raise UnsupportedDualError("UNSUPPORTED_DUAL: VaR admits no dual density set")
    if spec.kind == "WC":
        cert: dict = {}
    elif spec.kind in ("ES", "SPECTRAL"):
        atoms = spec.spectrum or ((spec.alpha, 1.0),)
        cert = {"t_star": math.inf, "box_upper": 1.0 / min(a for a, _ in atoms)}
    else:
        cert = {"v_star": math.inf, "beta": spec.penalty_ball.beta}
    cert.update(lp_iterations=0, newton_iterations=0)
    low = _proves_empty(market.tangency_excess)
    if low is not None:
        return _verdict(market, cert, _empty(market.tangency, low), tol)
    if spec.kind == "WC":
        cl = _decide_classical(market, tol)
        return _verdict(market, cert, cl, tol, witness=cl.witness)
    if spec.kind in ("ES", "SPECTRAL"):
        return _classify_es(market, atoms, cert, tol)
    return _classify_penalty(market, spec.penalty_ball, cert, tol)


def _verdict(market: ScenarioMarket, cert: dict, cl: ClassicalResult | None, tol: float,
             value: float = 0.0, bound: float = math.inf, witness: DualWitness | None = None,
             found: dict | None = None, value_of: Callable[[Vector], float] | None = None,
             ann: tuple = ()) -> ArbitrageVerdict:
    """The verdict of every dual test from its strong form and classical test.

    value is the strong-form minimum (t*, v*) and bound its threshold; WC
    has none, and takes the default 0 < inf.  witness is the minimizer, or
    WC's classical density; found are the strong-form entries the
    certificate takes unless M is empty; value_of maps a density to the
    strong form's units; ann are the strong form's own annotations.  cl is
    None where the strong form decides alone: a strong verdict, or a
    minimizer whose entries all exceed max(tol, ZERO_TOL).

    An INFEASIBLE classical test is STRONG_RHO_ARBITRAGE with M_EMPTY.
    Otherwise value > bound is strong arbitrage; value < bound and
    delta* > 0 no arbitrage, with the classical density mixed into a
    minimizer that has a zero entry (_mix_positive); and the rest
    RHO_ARBITRAGE.  BOUNDARY marks |value - bound| <= tol or, with no
    bound, a delta* within tol of 0.
    """
    if cl is not None:
        cert["lp_iterations"] += cl.iterations
        cert.update(cl.entries)
        if cl.status == INFEASIBLE:
            return ArbitrageVerdict(verdict="STRONG_RHO_ARBITRAGE", route="DUAL",
                                    certificate=cert, annotations=("M_EMPTY",))
    cert.update(found or {})
    if abs(value - bound) <= tol if math.isfinite(bound) else ZERO_TOL < cl.delta <= tol:
        ann += ("BOUNDARY",)
    if not value <= bound + ZERO_TOL:
        verdict = "STRONG_RHO_ARBITRAGE"
    elif value < bound - ZERO_TOL and (cl is None or cl.delta > ZERO_TOL):
        verdict = "NO_ARBITRAGE"
        if witness.min_entry <= 0.0:
            z = _mix_positive(witness.z, cl.witness.z, value, value_of(cl.witness.z), bound)
            witness = DualWitness.of(market.polytope, z, penalty=None if witness.penalty is None
                                     else value_of(z))
    else:
        verdict = "RHO_ARBITRAGE"
    if witness is not None:
        cert["witness"] = witness.to_dict()
    return ArbitrageVerdict(verdict=verdict, route="DUAL", certificate=cert, annotations=ann)


def _classify_es(market: ScenarioMarket, atoms, cert: dict, tol: float) -> ArbitrageVerdict:
    """ES (the spectrum ((alpha, 1),)) or SPECTRAL: no arbitrage iff some
    Z > 0 in M lies strictly inside every box of the mixture.

    The strong form is t* (es_min_supnorm) against 1/alpha_1, alpha_1 the
    lowest level below 1 (1 if there is none), and the classical test runs
    unless t* decides STRONG.  The classical density, put in every box,
    zeta_j = Z_cl, needs the scale ||Z_cl||_inf alpha_J, alpha_J the
    highest level below 1: that is ||Z_cl||_inf alpha_J / alpha_1 in units
    of t*.  A level-1 atom keeps Z >= w_pin, so the minimizer has no zero
    entry, and sigma* = 0 does not mean M is empty.
    """
    levels = [a for a, _ in atoms if a < 1.0] or [1.0]
    bound = cert["box_upper"]
    sup = es_min_supnorm(market, atoms)
    cert["lp_iterations"] = sup.iterations
    empty = sup.status == INFEASIBLE and not atoms[0][0] < 1.0 <= atoms[-1][0]
    # The sup-norm optimum lies in M, so no portfolio proves M empty here.
    cl = _decide_classical(market, tol) if sup.t <= bound + ZERO_TOL else None
    return _verdict(market, cert, cl, tol, sup.t, bound, sup.witness, {"t_star": sup.t},
                    lambda z: float(np.abs(z).max()) * (levels[-1] / levels[0]),
                    ("M_EMPTY",) if empty else ())


def _classify_penalty(market: ScenarioMarket, pen: RiskSpec, cert: dict,
                      tol: float) -> ArbitrageVerdict:
    """EVAR, TNORM or GENTROPIC: the penalty ball {E[g(Z)] <= beta} of pen.

    The strong form is v* = min E[g(Z)] over M from the smooth dual
    (frontier._penalty_min), which has no gap on finite scenario spaces:
    the cumulant for ENTROPY, the conjugate for POWER and CUSTOM.  v* >
    beta, or NaN, is strong arbitrage.  The certificate carries the Newton
    steps and the scaled gradient norm as gap.

    The classical test runs on this Newton run, and only where the verdict
    needs it: when Newton did not converge, since M may then be empty, or
    when v* <= beta and the minimizer has an entry at or below
    max(tol, ZERO_TOL), since delta* and the mixture may then decide.
    Otherwise a strong verdict needs no delta*, and a converged minimizer
    in M with every entry above max(tol, ZERO_TOL) (the entropy's Gibbs
    density is always positive) shows delta* >= min Z > tol by itself.
    """
    beta = pen.beta

    def expected_penalty(z: Vector) -> float:
        return float(market.probs @ penalty(pen, np.maximum(z, 0.0)))

    res = _penalty_min(pen, market.probs, market.excess_matrix.T)
    v_star = res.value
    # E[z log z] = lam . E[z e] - K = -K to the gradient
    z_pen = v_star if pen.g_kind == "ENTROPY" else expected_penalty(res.z)
    witness = DualWitness.of(market.polytope, res.z, penalty=z_pen)
    cert["newton_iterations"] = res.iterations
    cl = None
    if res.status != "OK" or (v_star <= beta + ZERO_TOL
                              and witness.min_entry <= max(tol, ZERO_TOL)):
        cl = _decide_classical(market, tol, res)
    return _verdict(market, cert, cl, tol, v_star, beta, witness,
                    {"v_star": v_star, "gap": res.gradient_norm}, expected_penalty,
                    ("DIVERGENT",) if res.status == "DIVERGENT" else ())


# -- two-route agreement -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class CrossValidation:
    """Primal and dual verdicts side by side.

    status is AGREE, BOUNDARY_AGREE (verdicts at or straddling a knife
    edge within the band), or DISAGREE (a genuine contradiction; both
    certificates attached for inspection).
    """

    status: str
    primal: ArbitrageVerdict
    dual: ArbitrageVerdict
    rho1: float
    primal_margin: float
    dual_margin: float
    band: float

    def to_dict(self) -> dict:
        return {"status": self.status, "rho1": self.rho1,
                "primal_margin": self.primal_margin,
                "dual_margin": self.dual_margin, "band": self.band,
                "primal": self.primal.to_dict(), "dual": self.dual.to_dict()}


def _dual_margin(verdict: ArbitrageVerdict) -> float:
    """Distance of the deciding dual comparisons from their thresholds.

    Confident zeros (a vertex-exact delta = 0) are not near-threshold
    evidence, so they do not shrink the margin.  Where the classical LP
    did not run, delta_lower <= delta* stands in for delta*, so the
    margin reads no larger than the LP's would.
    """
    cert = verdict.certificate
    candidates: list[float] = []
    if "t_star" in cert and math.isfinite(cert["t_star"]):
        candidates.append(abs(cert["t_star"] - cert["box_upper"]))
    if "v_star" in cert and math.isfinite(cert["v_star"]):
        candidates.append(abs(cert["v_star"] - cert["beta"]))
    delta = cert.get("delta_classical", cert.get("delta_lower", 0.0))
    if delta > ZERO_TOL:
        candidates.append(delta)
    return min(candidates) if candidates else math.inf


def cross_validate(market: ScenarioMarket, spec: RiskSpec,
                   tol: float = CLASSIFY_TOL) -> CrossValidation:
    """Run both routes and compare verdicts within the boundary band."""
    primal_res = compute_rho1(market, spec)
    pv = classify_primal(primal_res, tol)
    dv = classify_dual(market, spec, tol)
    p_margin = abs(primal_res.rho1)
    d_margin = _dual_margin(dv)
    if pv.verdict == dv.verdict:
        status = "BOUNDARY_AGREE" if (p_margin <= tol and d_margin <= tol) else "AGREE"
    elif p_margin <= tol or d_margin <= tol:
        status = "BOUNDARY_AGREE"
    else:
        status = "DISAGREE"
    return CrossValidation(status=status, primal=pv, dual=dv, rho1=primal_res.rho1,
                           primal_margin=p_margin, dual_margin=d_margin, band=tol)
