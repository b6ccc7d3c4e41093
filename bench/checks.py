"""Independent checks of the program's answers, run outside the timed region.

No reference here comes from rhoarb: linear programs are written out in this
file and solved by scipy's HiGHS, risk measures are evaluated by this file's
own code, convex slice problems go to scipy.optimize, and Gaussian constants
come from statistics.NormalDist.  What the theory guarantees (unit expected
excess of a certificate, a witness inside the martingale polytope and the
measure's dual set, the paper's ES criterion for priced markets) is checked
as stated.  A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

import numpy as np
from scipy.optimize import linprog, minimize, minimize_scalar
from scipy.special import logsumexp

ND = NormalDist()
EXIT = {"NO_ARBITRAGE": 0, "RHO_ARBITRAGE": 2, "STRONG_RHO_ARBITRAGE": 3}

LP_RTOL = 1e-6        # rhoarb's simplex against HiGHS, relative to 1 + |value|
RISK_RTOL = 1e-6      # a certificate's recomputed risk against rho1
SLICE_TOL = 1e-6      # |E[X_pi] - 1| of a portfolio certificate
POLY_TOL = 1e-6       # martingale residual of a density witness
# Kelley's answers against the risk of scipy's slice minimizer and of the
# certificate.  TNORM is looser: its cut oracle returns E[-Z X] for a
# repaired density Z, seen up to 1.8e-4 relative below the risk of the
# portfolio it certifies.
KELLEY_RTOL = {"EVAR": 1e-6, "TNORM": 2e-3}
SIGN_BAND = 1e-5      # |rho1| below this is a boundary case: no sign is asserted


class CheckError(AssertionError):
    """An answer that disagrees with an independent computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * (1.0 + abs(b))


# -- risk measures, evaluated here ----------------------------------------------


def es(x, p, alpha: float) -> float:
    """Mean loss over the worst alpha of probability."""
    order = np.argsort(x)
    loss, prob = -x[order], p[order]
    before = np.concatenate([[0.0], np.cumsum(prob)[:-1]])
    take = np.clip(alpha - before, 0.0, prob)
    return float(loss @ take) / alpha


def spectral(x, p, atoms) -> float:
    return sum(w * (float(p @ -x) if a >= 1.0 else es(x, p, a)) for a, w in atoms)


def evar_min(x, p, alpha: float) -> tuple[float, float]:
    """(EVaR, minimizing t): inf over t > 0 of t (log E exp(-x / t) - log alpha).

    A scan in log t brackets the minimum, Brent polishes it; the worst case
    -min x is the t -> 0 limit.
    """
    scale = float(np.abs(x).max()) or 1.0

    def g(u: float) -> float:
        t = scale * math.exp(u)
        return t * (float(logsumexp(-x / t, b=p)) - math.log(alpha))

    grid = np.linspace(-20.0, 20.0, 161)
    k = int(np.argmin([g(u) for u in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = minimize_scalar(g, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 500})
    best = min((float(res.fun), float(res.x)), (g(grid[k]), float(grid[k])))
    if -float(x.min()) < best[0]:
        return float(-x.min()), 0.0
    return best[0], scale * math.exp(best[1])


def evar(x, p, alpha: float) -> float:
    return evar_min(x, p, alpha)[0]


def tnorm_min(x, p, p_exp: float, alpha: float) -> tuple[float, float]:
    """(TNORM, minimizing s): min over s of ||(s - x)+||_p / alpha - s, convex in s."""
    span = float(x.max() - x.min()) or 1.0

    def h(s: float) -> float:
        y = np.maximum(s - x, 0.0)
        return float(p @ y ** p_exp) ** (1.0 / p_exp) / alpha - s

    res = minimize_scalar(h, bounds=(float(x.min()) - span, float(x.max()) + span / alpha),
                          method="bounded", options={"xatol": 1e-12 * span, "maxiter": 1000})
    return float(res.fun), float(res.x)


def tnorm(x, p, p_exp: float, alpha: float) -> float:
    return tnorm_min(x, p, p_exp, alpha)[0]


def risk(spec: dict, x, p) -> float:
    kind = spec["kind"]
    if kind == "WC":
        return float(-x.min())
    if kind == "ES":
        return es(x, p, spec["alpha"])
    if kind == "SPECTRAL":
        return spectral(x, p, spec["atoms"])
    if kind == "EVAR":
        return evar(x, p, spec["alpha"])
    if kind == "TNORM":
        return tnorm(x, p, float(spec["p"]), spec["alpha"])
    raise ValueError(kind)


# -- linear programs, written here and solved by HiGHS --------------------------


def _excess(market):
    E = np.asarray(market.returns) - market.riskless_rate        # (d, N)
    p = np.asarray(market.probs)
    return E, p, E @ p


def highs_rho1(market, spec: dict) -> float:
    """Least risk on the slice E[X_pi] = 1, with no box on pi.

    ES and spectral take the Rockafellar-Uryasev form (one shortfall block
    per atom), WC the epigraph form; an unbounded program means -inf.
    """
    E, p, a = _excess(market)
    d, N = E.shape
    if spec["kind"] == "WC":
        c = np.r_[np.zeros(d), 1.0]
        A_ub = np.hstack([-E.T, -np.ones((N, 1))])
        b_ub = np.zeros(N)
        bounds = [(None, None)] * (d + 1)
        A_eq = np.r_[a, 0.0][None, :]
    else:
        atoms = ([(spec["alpha"], 1.0)] if spec["kind"] == "ES"
                 else [(float(x), float(w)) for x, w in spec["atoms"]])
        J = len(atoms)
        nv = d + J + J * N
        c = np.zeros(nv)
        A_ub = np.zeros((J * N, nv))
        for j, (al, w) in enumerate(atoms):
            c[d + j] = w
            c[d + J + j * N: d + J + (j + 1) * N] = w * p / al
            rows = slice(j * N, (j + 1) * N)
            A_ub[rows, :d] = -E.T
            A_ub[rows, d + j] = -1.0
            A_ub[rows, d + J + j * N: d + J + (j + 1) * N] = -np.eye(N)
        b_ub = np.zeros(J * N)
        bounds = [(None, None)] * (d + J) + [(0.0, None)] * (J * N)
        A_eq = np.zeros((1, nv))
        A_eq[0, :d] = a
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds,
                  method="highs")
    if res.status == 3:
        return -math.inf
    expect(res.status == 0, f"HiGHS slice LP: {res.message}")
    return float(res.fun)


def _polytope(market):
    E, p, _ = _excess(market)
    A = np.vstack([p, E * p])
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    return A, b


def highs_min_supnorm(market) -> float:
    """t* = min ||z||_inf over the martingale densities; +inf when there are none."""
    A, b = _polytope(market)
    N = A.shape[1]
    c = np.r_[np.zeros(N), 1.0]
    res = linprog(c, A_ub=np.hstack([np.eye(N), -np.ones((N, 1))]), b_ub=np.zeros(N),
                  A_eq=np.hstack([A, np.zeros((A.shape[0], 1))]), b_eq=b,
                  bounds=[(0.0, None)] * (N + 1), method="highs")
    if res.status == 2:
        return math.inf
    expect(res.status == 0, f"HiGHS sup-norm LP: {res.message}")
    return float(res.fun)


def highs_spectral_feasible(market, atoms) -> bool:
    """Is some z = sum_j w_j zeta_j, zeta_j in the level-alpha_j ES box, a
    martingale density?  (The spectral strong form; infeasible means strong
    rho-arbitrage.)"""
    E, p, _ = _excess(market)
    d, N = E.shape
    J = len(atoms)
    A_eq = np.zeros((J + d, J * N))
    bounds = []
    for j, (al, w) in enumerate(atoms):
        A_eq[j, j * N:(j + 1) * N] = p
        A_eq[J:, j * N:(j + 1) * N] = w * E * p
        bounds += [(0.0, 1.0 / al)] * N
    res = linprog(np.zeros(J * N), A_eq=A_eq, b_eq=np.r_[np.ones(J), np.zeros(d)],
                  bounds=bounds, method="highs")
    return res.status == 0


def in_spectral_set(z, p, atoms) -> bool:
    """Is z = sum_j w_j zeta_j with 0 <= zeta_j <= 1/alpha_j and E[zeta_j] = 1?"""
    N = z.size
    J = len(atoms)
    A_eq = np.zeros((J + N, J * N))
    b_eq = np.r_[np.ones(J), z]
    bounds = []
    for j, (al, w) in enumerate(atoms):
        A_eq[j, j * N:(j + 1) * N] = p
        A_eq[J:, j * N:(j + 1) * N] = w * np.eye(N)
        bounds += [(0.0, 1.0 / al * (1 + 1e-9) + 1e-9)] * N
    res = linprog(np.zeros(J * N), A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    return res.status == 0


# -- convex slice problems for the entropic measures ------------------------------


def _slice_basis(a):
    """pi = pi0 + B y parametrizes {pi : a . pi = 1}."""
    pi0 = a / float(a @ a)
    _, _, vt = np.linalg.svd(a[None, :])
    return pi0, vt[1:].T


def scipy_rho1(market, spec: dict) -> float:
    """Least EVaR or TNORM(p = 2) on the unit-mean slice, by scipy.optimize.

    EVaR: BFGS on the joint form min over (pi, log t) of t (log E exp(-X_pi
    / t) - log alpha), from two starting t.  TNORM: SLSQP on min over (pi, s, u) of ||u||_2 / alpha - s
    with u >= 0 and u >= s - X_pi, a smooth form of ||(s - X_pi)+||_2, from
    two starting shifts.  The value returned is the risk of the best
    portfolio found, evaluated here: an upper bound on the least risk, close
    to it when the solve converged.
    """
    E, p, a = _excess(market)
    pi0, B = _slice_basis(a)
    alpha = spec["alpha"]
    x0 = pi0 @ E
    k = B.shape[1]
    if spec["kind"] == "EVAR":
        log_alpha = math.log(alpha)

        def f(v):
            X = (pi0 + B @ v[:k]) @ E
            u = min(max(float(v[k]), -200.0), 200.0)     # keep t a normal float
            t = math.exp(u)
            L = float(logsumexp(-X / t, b=p))
            w = p * np.exp(-X / t - L)
            gt = (L - log_alpha + float(w @ X) / t) if u == v[k] else 0.0
            return t * (L - log_alpha), np.r_[-(B.T @ (E @ w)), t * gt]
        found = []
        t_at_pi0 = max(evar_min(x0, p, alpha)[1], 1e-12)
        for t0 in (float(np.sqrt(p @ (x0 - p @ x0) ** 2)), t_at_pi0):
            v = np.r_[np.zeros(k), math.log(t0)]
            for _ in range(3):
                v = minimize(f, v, jac=True, method="BFGS",
                             options={"gtol": 1e-12, "maxiter": 5000}).x
            found.append(risk(spec, (pi0 + B @ v[:k]) @ E, p))
        return min(found)
    if float(spec["p"]) != 2.0:
        raise ValueError("scipy_rho1 covers TNORM with p = 2")
    N = p.size
    EB = E.T @ B                                            # (N, k)

    def f(v):
        u = v[k + 1:]
        n = math.sqrt(float(p @ u ** 2))
        g = np.zeros_like(v)
        g[k] = -1.0
        if n > 0.0:
            g[k + 1:] = p * u / (alpha * n)
        return n / alpha - v[k], g
    cons = {"type": "ineq",
            "fun": lambda v: v[k + 1:] - v[k] + x0 + EB @ v[:k],
            "jac": lambda v: np.hstack([EB, -np.ones((N, 1)), np.eye(N)])}
    found = []
    for s0 in (float(p @ x0), float(np.quantile(x0, alpha))):
        v = np.r_[np.zeros(k), s0, np.maximum(s0 - x0, 0.0)]
        for _ in range(2):
            v = minimize(f, v, jac=True, method="SLSQP", constraints=[cons],
                         bounds=[(None, None)] * (k + 1) + [(0.0, None)] * N,
                         options={"ftol": 1e-15, "maxiter": 2000}).x
        found.append(risk(spec, (pi0 + B @ v[:k]) @ E, p))
    return min(found)


# -- answers -----------------------------------------------------------------------


def cross_answer(cv) -> dict:
    """What a cross_validate result asserts, as plain data."""
    return {"status": cv.status, "rho1": float(cv.rho1),
            "primal_verdict": cv.primal.verdict, "dual_verdict": cv.dual.verdict,
            "primal_cert": dict(cv.primal.certificate),
            "dual_cert": dict(cv.dual.certificate),
            "annotations": list(cv.primal.annotations) + list(cv.dual.annotations)}


def _sign_verdict(rho1: float) -> str | None:
    if rho1 == -math.inf or rho1 < -SIGN_BAND:
        return "STRONG_RHO_ARBITRAGE"
    if rho1 > SIGN_BAND:
        return "NO_ARBITRAGE"
    return None


def _dual_bound(spec: dict):
    """(penalty of z, budget) of the measure's dual set, None for WC/ES/SPECTRAL."""
    if spec["kind"] == "EVAR":
        def pen(z, p):
            zp = np.where(z > 0, z, 1.0)
            return float(p @ np.where(z > 0, z * np.log(zp), 0.0))
        return pen, -math.log(spec["alpha"])
    if spec["kind"] == "TNORM":
        q = float(spec["p"]) / (float(spec["p"]) - 1.0)
        return (lambda z, p: float(p @ np.abs(z) ** q) / q), (1.0 / spec["alpha"]) ** q / q
    return None


def check_witness(market, spec: dict, ans: dict) -> None:
    """The dual certificate's density: in the polytope, in or out of the
    dual set as the verdict says, with its norm or penalty recomputed."""
    cert, verdict = ans["dual_cert"], ans["dual_verdict"]
    p = np.asarray(market.probs)
    if "witness" not in cert:
        expect(verdict == "STRONG_RHO_ARBITRAGE", f"{verdict} without a density witness")
        if spec["kind"] == "SPECTRAL":
            expect(not highs_spectral_feasible(market, spec["atoms"]),
                   "no witness, yet HiGHS finds a martingale density in the spectral set")
        else:
            expect(highs_min_supnorm(market) == math.inf,
                   "no witness, yet HiGHS finds a martingale density")
        return
    w = cert["witness"]
    z = np.asarray(w["z"], dtype=float)
    A, b = _polytope(market)
    scale = 1.0 + float(np.abs(A).max() * np.abs(z).max())
    expect(float(np.abs(A @ z - b).max()) <= POLY_TOL * scale,
           f"witness off the martingale polytope (residual {float(np.abs(A @ z - b).max()):.3e})")
    expect(float(z.min()) >= -POLY_TOL, f"witness has a negative entry {float(z.min()):.3e}")
    expect(close(float(np.abs(z).max()), w["sup_norm"], 1e-12), "witness sup-norm misreported")
    expect(close(float(z.min()), w["min_entry"], 1e-12, 1e-15), "witness min entry misreported")
    kind = spec["kind"]
    no_arb = verdict == "NO_ARBITRAGE"
    if no_arb:
        expect(float(z.min()) > 0.0, "NO_ARBITRAGE witness is not strictly positive")
    if kind == "ES":
        bound = 1.0 / spec["alpha"]
        if no_arb:
            expect(float(z.max()) < bound, "NO_ARBITRAGE witness outside the open ES box")
        elif verdict == "STRONG_RHO_ARBITRAGE":
            expect(cert["t_star"] > bound, "strong ES verdict with t* inside the box")
    elif kind == "SPECTRAL":
        if verdict != "STRONG_RHO_ARBITRAGE":
            expect(in_spectral_set(z, p, spec["atoms"]), "witness outside the spectral dual set")
    elif kind in ("EVAR", "TNORM"):
        pen, beta = _dual_bound(spec)
        v = pen(z, p)
        expect(close(v, w["penalty"], 1e-7, 1e-10), "witness penalty misreported")
        if no_arb:
            expect(v < beta, "NO_ARBITRAGE witness penalty exceeds the budget")
        elif verdict == "STRONG_RHO_ARBITRAGE":
            expect(cert["v_star"] > beta, "strong verdict with the penalty minimum within budget")


def check_portfolio(market, spec: dict, ans: dict) -> None:
    """The primal certificate: unit expected excess, risk = rho1, sign = verdict."""
    cert = ans["primal_cert"]
    expect("portfolio" in cert, "no portfolio certificate")
    E, p, a = _excess(market)
    pi = np.asarray(cert["portfolio"], dtype=float)
    expect(abs(float(a @ pi) - 1.0) <= SLICE_TOL, f"certificate mean excess {float(a @ pi)!r} != 1")
    r = risk(spec, pi @ E, p)
    rho1 = ans["rho1"]
    if math.isfinite(rho1):
        expect(close(r, rho1, KELLEY_RTOL.get(spec["kind"], RISK_RTOL)),
               f"certificate risk {r!r} != rho1 {rho1!r}")
    want = _sign_verdict(rho1)
    if want == "NO_ARBITRAGE":
        expect(r > 0.0, "NO_ARBITRAGE certificate has nonpositive risk")
    elif want == "STRONG_RHO_ARBITRAGE":
        expect(r < 0.0, "strong certificate has nonnegative risk")


def check_cross(market, spec: dict, ans: dict, ref: dict, density=None) -> None:
    """Checks common to both cross-validation workloads; ref holds rho1 (and
    t_star for ES) from this file's solvers, and for Kelley at MAX_ITER the
    reported gap."""
    expect(ans["status"] != "DISAGREE", "primal and dual routes DISAGREE")
    rho1 = ans["rho1"]
    gap = ref.get("gap")
    if gap is None:
        expect(close(rho1, ref["rho1"], ref.get("rtol", LP_RTOL)),
               f"rho1 {rho1!r} != reference {ref['rho1']!r}")
    else:  # Kelley stopped early: rho1 is an upper bound within the gap
        tol = ref["rtol"] * (1.0 + abs(ref["rho1"]))
        expect(ref["rho1"] - tol <= rho1 <= ref["rho1"] + gap + tol,
               f"rho1 {rho1!r} outside [reference, reference + gap {gap!r}]")
    want = _sign_verdict(ref["rho1"])
    if want is not None:
        expect(ans["primal_verdict"] == want, f"primal verdict {ans['primal_verdict']} "
               f"but reference rho1 = {ref['rho1']!r}")
    if "t_star" in ref:
        expect(close(ans["dual_cert"]["t_star"], ref["t_star"], LP_RTOL),
               f"t* {ans['dual_cert']['t_star']!r} != HiGHS {ref['t_star']!r}")
    if density is not None:
        # The market is priced by a known positive density inside the dual
        # set's interior: the paper's criterion leaves no rho-arbitrage.
        p = np.asarray(market.probs)
        kind = spec["kind"]
        if kind == "ES":
            inside = float(density.max()) < 1.0 / spec["alpha"]
        elif kind == "SPECTRAL":
            inside = float(density.max()) < min(1.0 / a for a, _ in spec["atoms"])
        elif kind == "WC":
            inside = True
        else:
            pen, beta = _dual_bound(spec)
            inside = pen(density, p) < beta
        if inside:
            expect(ans["primal_verdict"] == "NO_ARBITRAGE" == ans["dual_verdict"],
                   "market priced by an interior density is not NO_ARBITRAGE")
    check_portfolio(market, spec, ans)
    check_witness(market, spec, ans)


def lp_reference(market, spec: dict) -> dict:
    ref = {"rho1": highs_rho1(market, spec)}
    if spec["kind"] == "ES":
        ref["t_star"] = highs_min_supnorm(market)
    return ref


def entropic_reference(market, spec: dict) -> dict:
    return {"rho1": scipy_rho1(market, spec), "rtol": KELLEY_RTOL[spec["kind"]]}


# -- cli_closed_form ------------------------------------------------------------------


def _normal_tnorm2(s: float, alpha: float) -> float:
    """||(s - Z)+||_2 / alpha - s for standard normal Z:
    E[(s - Z)+^2] = (s^2 + 1) Phi(s) + s phi(s)."""
    return math.sqrt((s * s + 1.0) * ND.cdf(s) + s * ND.pdf(s)) / alpha - s


def gaussian_rho(spec: dict, cells) -> tuple[float, float]:
    """(rho(Z) for a standard normal Z, bound on rho(Z) - rho(cells)).

    The cells are the normal's conditional means on N equal-probability
    cells.  WC is the lowest cell's value, ES and spectral levels are
    multiples of 1/N, so those are exact.  EVaR and TNORM can only fall on
    the cells (convex order); plugging the cells' own minimizer t or s
    into the normal's objective bounds the fall.
    """
    kind = spec["kind"]
    N = cells.size
    p = np.full(N, 1.0 / N)

    def es_z(a):
        return ND.pdf(ND.inv_cdf(a)) / a if a < 1.0 else 0.0
    if kind == "WC":
        return N * ND.pdf(ND.inv_cdf(1.0 / N)), 0.0
    if kind == "ES":
        return es_z(spec["alpha"]), 0.0
    if kind == "SPECTRAL":
        return sum(w * es_z(a) for a, w in spec["atoms"]), 0.0
    alpha = spec["alpha"]
    if kind == "EVAR":
        disc, t = evar_min(cells, p, alpha)
        return math.sqrt(-2.0 * math.log(alpha)), t * (0.5 / t ** 2 - math.log(alpha)) - disc
    disc, s = tnorm_min(cells, p, 2.0, alpha)
    res = minimize_scalar(lambda v: _normal_tnorm2(v, alpha), bounds=(-10.0, 10.0),
                          method="bounded", options={"xatol": 1e-12})
    return float(res.fun), _normal_tnorm2(s, alpha) - disc


def _read_frontier(text: str, fmt: str) -> tuple[float, list[tuple[float, float, bool]]]:
    if fmt == "json":
        data = json.loads(text)
        pts = [(pt["nu"], pt["rho_nu"], data["efficient"]) for pt in data["points"]]
        return float(data["rho1"]), pts
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    expect(rows[0] == ["nu", "rho_nu", "efficient"], "frontier CSV header")
    pts = [(float(a), float(b), c == "true") for a, b, c in rows[1:]]
    return dict((nu, r) for nu, r, _ in pts)[1.0], pts


def check_frontier(meta: dict, code: int, text: str) -> None:
    spec, sr, N = meta["risk"], meta["sr"], meta["N"]
    rho1, pts = _read_frontier(text, meta["format"])
    if "_ref" not in meta:      # the same file and measure repeat every round
        cells = meta["cells"]
        x = (sr + cells) / sr
        meta["_ref"] = (risk(spec, x, np.full(N, 1.0 / N)),) + gaussian_rho(spec, cells)
    # Discrete reference: the same cells, evaluated here.
    disc, rz, short = meta["_ref"]
    expect(close(rho1, disc, 1e-7), f"rho1 {rho1!r} != this file's evaluation {disc!r}")
    # Closed form: rho1 = -1 + rho(Z) / SR, within the discretization bound.
    closed = -1.0 + rz / sr
    lo = closed - short / sr - 1e-9 * (1 + abs(closed))
    hi = closed + 1e-9 * (1 + abs(closed))
    expect(lo <= rho1 <= hi, f"rho1 {rho1!r} vs closed form {closed!r} (cell shortfall {short})")
    verdict = "NO_ARBITRAGE" if rho1 > 0 else "STRONG_RHO_ARBITRAGE"
    expect(code == EXIT[verdict], f"exit code {code} for {verdict}")
    for nu, rho_nu, efficient in pts:
        expect(close(rho_nu, nu * rho1, 1e-12), "frontier point off the line nu * rho1")
        expect(efficient == (rho1 > 0), "efficient flag disagrees with the sign of rho1")


def _es_threshold(a: float) -> float:
    return ND.pdf(ND.inv_cdf(a)) / a


def _var_threshold(a: float) -> float:
    return -ND.inv_cdf(a)


def _check_alpha_star(alpha_star: float, sr: float, threshold) -> None:
    # Bisection to width 1e-10 in alpha; the threshold falls strictly.
    h = 2e-10
    expect(threshold(alpha_star - h) >= sr - 1e-9 and threshold(alpha_star + h) <= sr + 1e-9,
           f"rho(Z) at alpha* = {alpha_star!r} does not cross SR = {sr!r}")


def check_elliptical(meta: dict, code: int, text: str) -> None:
    data = json.loads(text)
    mu, cov, r = meta["mu"], meta["cov"], meta["r"]
    a = mu - r
    L = np.linalg.cholesky(cov)
    y = np.linalg.solve(L, a)
    sr = math.sqrt(float(y @ y))
    expect(close(data["sr_max"], sr, 1e-10), f"SR {data['sr_max']!r} != {sr!r}")
    threshold = _es_threshold if meta["measure"] == "ES" else _var_threshold
    rz = threshold(meta["alpha"])
    expect(close(data["verdict"]["certificate"]["rho_z"], rz, 1e-9), "rho(Z) misreported")
    expect(close(data["rho1"], -1.0 + rz / sr, 1e-9), "rho1 != -1 + rho(Z)/SR")
    verdict = "NO_ARBITRAGE" if sr < rz else "STRONG_RHO_ARBITRAGE"
    expect(data["verdict"]["verdict"] == verdict, f"verdict {data['verdict']['verdict']}")
    expect(code == EXIT[verdict], f"exit code {code} for {verdict}")
    tangency = np.asarray(data["tangency"])
    expect(abs(float(a @ tangency) - 1.0) <= 1e-9, "tangency portfolio off the unit slice")
    _check_alpha_star(data["alpha_star"], sr, threshold)


def check_phase_curve(meta: dict, code: int, text: str) -> None:
    sr = meta["sr"]
    if meta["format"] == "json":
        data = json.loads(text)
        rows = [(r["alpha"], r["es_threshold"], r["var_threshold"], r["verdict_es"],
                 r["verdict_var"]) for r in data["rows"]]
        stars = {"es": data["alpha_star_es"], "var": data["alpha_star_var"]}
    else:
        lines = text.splitlines()
        stars = {}
        for ln in lines:
            if ln.startswith("# alpha_star_"):
                key, _, val = ln[len("# alpha_star_"):].partition("=")
                stars[key] = None if val == "NA" else float(val)
        body = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
        expect(body[0] == ["alpha", "es_threshold", "var_threshold", "verdict_es", "verdict_var"],
               "phase-curve CSV header")
        rows = [(float(a), float(e), float(v), ve, vv) for a, e, v, ve, vv in body[1:]]
    expect(code == 0, f"phase-curve exit code {code}")
    prev = math.inf
    for alpha, es_t, var_t, v_es, v_var in rows:
        expect(close(es_t, _es_threshold(alpha), 1e-9), f"ES threshold at {alpha}")
        expect(close(var_t, _var_threshold(alpha), 1e-9, 1e-12), f"VaR threshold at {alpha}")
        expect(es_t < prev, f"ES thresholds do not fall strictly at {alpha}")
        prev = es_t
        for t, v in ((es_t, v_es), (var_t, v_var)):
            if t <= 0.0 or sr > t + 1e-6:
                expect(v == "STRONG_RHO_ARBITRAGE", f"verdict {v} at alpha {alpha}")
            elif sr < t - 1e-6:
                expect(v == "NO_ARBITRAGE", f"verdict {v} at alpha {alpha}")
    _check_alpha_star(stars["es"], sr, _es_threshold)
    _check_alpha_star(stars["var"], sr, _var_threshold)


CLI_CHECKS = {"frontier": check_frontier, "elliptical": check_elliptical,
              "phase-curve": check_phase_curve}


# -- self-test -------------------------------------------------------------------------


def self_test() -> list[str]:
    """Run the checks on the duo market R in {2, -1} with equal odds under
    ES(0.25), whose rho1 is 2 by hand: pi = 2 gives X in {4, -2}, and the
    worst quarter of probability loses 2.  The checks must accept rhoarb's
    answer and reject each perturbed copy of it.  Returns failures."""
    import rhoarb

    market = rhoarb.ScenarioMarket(probs=[0.5, 0.5], riskless_rate=0.0, returns=[[2.0, -1.0]])
    spec = {"kind": "ES", "alpha": 0.25}
    problems = []
    ref = lp_reference(market, spec)
    if ref["rho1"] != 2.0 and not close(ref["rho1"], 2.0, 1e-12):
        problems.append(f"HiGHS reference rho1 {ref['rho1']!r} != 2")
    ans = cross_answer(rhoarb.cross_validate(market, rhoarb.RiskSpec.from_json_dict(spec)))
    try:
        check_cross(market, spec, ans, ref, density=np.array([2 / 3, 4 / 3]))
    except CheckError as exc:
        problems.append(f"correct duo answer rejected: {exc}")

    def perturbed(edit):
        bad = json.loads(json.dumps(ans))
        edit(bad)
        return bad

    cases = {
        "rho1 + 1e-3": lambda b: b.update(rho1=b["rho1"] + 1e-3),
        "verdict flipped": lambda b: b.update(primal_verdict="STRONG_RHO_ARBITRAGE"),
        "routes disagree": lambda b: b.update(status="DISAGREE"),
        "portfolio x 1.01": lambda b: b["primal_cert"].update(
            portfolio=[v * 1.01 for v in b["primal_cert"]["portfolio"]]),
        "t* + 1e-3": lambda b: b["dual_cert"].update(t_star=b["dual_cert"]["t_star"] + 1e-3),
        "witness off the polytope": lambda b: b["dual_cert"]["witness"].update(
            z=[b["dual_cert"]["witness"]["z"][0] + 1e-3, b["dual_cert"]["witness"]["z"][1]]),
    }
    for name, edit in cases.items():
        try:
            check_cross(market, spec, perturbed(edit), ref, density=np.array([2 / 3, 4 / 3]))
        except CheckError:
            continue
        problems.append(f"perturbed duo answer accepted: {name}")
    return problems
