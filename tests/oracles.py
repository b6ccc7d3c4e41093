"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity by a different algorithm than the
library (definitional scans, exact step-function integrals, dense grids,
vertex enumeration, gradient descent under an exact projection found by
enumerating active sets, scipy quadrature, the primal shortfall LP, Kelley
cutting planes) so agreement is meaningful evidence and not a tautology.
Three exceptions keep former code of the library as the reference for its
replacement: box_mixture, the former ES and SPECTRAL strict test (the
Charnes-Cooper box-mixture LP, whose one-atom case is es_strict_check),
for the box-scale plus classical rule; lp_ratio_reference, the vectorized
ratio test, for the scalar one; and frank_wolfe_min, the former away-step
Frank-Wolfe over M with LP vertex oracles, for the conjugate Newton kernel
of the penalty minima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy import integrate, optimize, sparse, special, stats

from rhoarb.dual import DualWitness
from rhoarb.lp import (INFEASIBLE, OPTIMAL, PIVOT_TOL, PRIMAL_TOL, UNBOUNDED, LinearProgram,
                       lp_solve)
from rhoarb.market import MartingalePolytope, ScenarioMarket

Vector = NDArray[np.float64]

FEAS_EPS = 1e-9
ORACLE_CONSISTENCY_TOL = 1e-7


# -- tail measures by definition ----------------------------------------------


def var_scan(x, probs, alpha):
    """inf{m : P[-X > m] <= alpha} evaluated over every candidate level."""
    x = np.asarray(x, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    losses = -x
    candidates = np.unique(losses)
    best = np.inf
    for m in candidates:
        exceed = float(probs[losses > m + 1e-15].sum())
        if exceed <= alpha + 1e-15:
            best = min(best, m)
    return best


def es_step_integral(x, probs, alpha):
    """(1/alpha) * integral of the loss quantile over (0, alpha], exactly.

    The quantile of the loss is a step function: on [c_{k-1}, c_k) it sits
    at the k-th largest loss, where c_k are cumulative probabilities in
    descending-loss order.  The integral is a finite sum of rectangle areas.
    """
    x = np.asarray(x, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(x, kind="stable")  # ascending x = descending loss
    losses = -x[order]
    weights = probs[order]
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    total = 0.0
    for k in range(losses.size):
        width = min(cum[k + 1], alpha) - cum[k]
        if width > 0.0:
            total += losses[k] * width
    return total / alpha


def evar_grid(x, probs, alpha, n=1_000_000):
    """Dense log-spaced grid over z > 0 plus a Brent refinement."""
    x = np.asarray(x, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    logp = np.log(probs)

    def f(z):
        return (special.logsumexp(logp - z * x) - np.log(alpha)) / z

    grid = np.logspace(-10, 10, n)
    lse = special.logsumexp(logp[None, :] - grid[:, None] * x[None, :], axis=1)
    vals = (lse - np.log(alpha)) / grid
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, n - 1)]
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-13})
    return min(float(vals[i]), float(res.fun))


def tnorm_grid(x, probs, alpha, p, n=200_000):
    """Dense grid over the shift s plus a Brent refinement."""
    x = np.asarray(x, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)

    def f(s):
        pos = np.maximum(s - x, 0.0)
        return float((probs @ pos**p) ** (1.0 / p) / alpha - s)

    span = float(np.max(x) - np.min(x))
    lo = float(np.min(x)) - 1.0
    hi = float(np.max(x)) + (span + 1.0) / alpha + 1.0
    grid = np.linspace(lo, hi, n)
    pos = np.maximum(grid[:, None] - x[None, :], 0.0)
    vals = (pos**p @ probs) ** (1.0 / p) / alpha - grid
    i = int(np.argmin(vals))
    res = optimize.minimize_scalar(f, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, n - 1)]),
                                   method="bounded", options={"xatol": 1e-13})
    return min(float(vals[i]), float(res.fun))


# -- linear programming by vertex enumeration ----------------------------------


def lp_vertex_enum(c, A, b):
    """min c.x subject to A x <= b by enumerating basic feasible points.

    The caller folds variable bounds into A; the feasible set must be
    bounded with at least one vertex.  Returns (value, argmin).
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    best_val, best_x = np.inf, None
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        v = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ v <= b + 1e-8):
            val = float(c @ v)
            if val < best_val - 1e-12:
                best_val, best_x = val, v
    return best_val, best_x


def lp_ratio_reference(self, g, bland):
    """The vectorized ratio test of lp._Tableau, kept verbatim as the
    reference for its scalar scan; a method, to be set on _Tableau."""
    if not self.m:
        return -1, np.inf
    den = np.abs(g)
    rows = np.flatnonzero(den > PIVOT_TOL * max(1.0, float(den.max())))
    g, den = g[rows], den[rows]
    bound = np.where(g > 0.0, self.bl[rows], self.bu[rows])
    # Step to each blocking bound; a basic value already past its bound
    # (by at most the Harris tolerance) blocks at once.
    ratio = np.maximum((self.xB[rows] - bound) / g, 0.0)
    if bland:
        best = float(ratio.min(initial=np.inf))
        if best == np.inf:
            return -1, best
        tied = rows[ratio <= best + 1e-12 * (1.0 + best)]
        return int(tied[np.argmin(self.basis[tied])]), best
    # Harris: the largest pivot among rows blocking within the relaxed step.
    cap = float((ratio + PRIMAL_TOL * (1.0 + np.abs(bound)) / den).min(initial=np.inf))
    if cap == np.inf:
        return -1, cap
    k = int(np.argmax(np.where(ratio <= cap, den, -1.0)))
    return int(rows[k]), float(ratio[k])


# -- penalty minimization over the martingale polytope --------------------------


def nonnegative_affine_projector(A, b):
    """The Euclidean projection onto {z >= 0, A z = b}, as a function of v.

    The projection is the projection onto {A z = b, z_S = 0} for its own
    zero set S, and it is the nearest point of {z >= 0, A z = b}; so it is
    the nearest feasible point among the projections for every S.  Those
    are affine in v, z = P_S v + c_S, and are built once for all 2^N sets
    (N <= 10).
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    N = A.shape[1]
    if N > 10:
        raise ValueError(f"enumerating 2^{N} zero sets is too many")
    free = np.array(list(itertools.product((0.0, 1.0), repeat=N)))      # (2^N, N)
    AF = A[None, :, :] * free[:, None, :]                                 # A D_S
    inv = np.linalg.pinv(AF @ AF.transpose(0, 2, 1))
    back = AF.transpose(0, 2, 1) @ inv                                    # D_S A' (A D_S A')^+
    P = free[:, :, None] * np.eye(N) - back @ AF
    c = back @ b
    scale = 1.0 + np.abs(b).max()

    def project(v):
        Z = P @ v + c
        feasible = Z.min(axis=1) >= -1e-12 * scale
        ok = feasible & (np.abs(Z @ A.T - b).max(axis=1) <= 1e-10 * scale)
        if not ok.any():
            raise ValueError("{z >= 0, A z = b} is empty")
        dist = np.where(ok, ((Z - v) ** 2).sum(axis=1), np.inf)
        return np.maximum(Z[int(np.argmin(dist))], 0.0)

    return project


def projected_gradient_min(probs, excess, gfun, gprime, steps=4000):
    """min E[g(Z)] over {Z >= 0, E[Z] = 1, E[Z a_i] = 0} by projected descent.

    Adaptive step: a projected move is kept only if it lowers the
    objective; otherwise the step length is halved in place.  The
    projection is exact (nonnegative_affine_projector), so N stays small.
    """
    probs = np.asarray(probs, dtype=np.float64)
    excess = np.atleast_2d(np.asarray(excess, dtype=np.float64))
    A = np.vstack([probs, excess * probs])
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    project = nonnegative_affine_projector(A, b)

    def f(z):
        return float(probs @ gfun(np.maximum(z, 1e-300)))

    z = project(np.ones_like(probs))
    lr = 0.25
    best = f(z)
    for _ in range(steps):
        grad = probs * gprime(np.maximum(z, 1e-12))
        trial = project(z - lr * grad)
        val = f(trial)
        if val < best - 1e-15:
            z, best = trial, val
            lr = min(lr * 1.2, 1.0)
        else:
            lr *= 0.5
            if lr < 1e-13:
                break
    return best, z


def frank_wolfe_min(poly: MartingalePolytope, probs: Vector, gfun: Callable,
                    gprime: Callable, tol: float = 1e-8,
                    max_iter: int = 2000) -> tuple[Vector, float, float, int]:
    """Away-step Frank-Wolfe for min E[g(Z)] over the polytope.

    LP vertex oracles keep iterates inside M exactly; away steps restore
    the linear rate that plain FW loses at boundary optima.  Returns
    (z, value, fw_gap, iterations); value - fw_gap lower-bounds the minimum.
    """
    N = probs.size

    def fval(z: Vector) -> float:
        return float(probs @ gfun(np.maximum(z, 0.0)))

    def grad(z: Vector) -> Vector:
        return probs * gprime(np.maximum(z, 0.0))

    start = lp_solve(LinearProgram(c=np.zeros(N), A_eq=poly.A, b_eq=poly.b))
    if start.status != OPTIMAL:
        raise RuntimeError("Frank-Wolfe called on an empty polytope")
    z = start.x.copy()
    def key(v: Vector) -> bytes:
        return np.round(v, 12).tobytes()
    vertices: dict[bytes, Vector] = {key(z): z.copy()}
    weights: dict[bytes, float] = {key(z): 1.0}
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        gz = grad(z)
        lmo = lp_solve(LinearProgram(c=gz, A_eq=poly.A, b_eq=poly.b))
        if lmo.status != OPTIMAL:
            raise RuntimeError("LMO solve failed inside Frank-Wolfe")
        s = lmo.x
        gap = float(gz @ (z - s))
        if gap <= tol:
            break
        away_key = max(weights, key=lambda k: float(gz @ vertices[k]))
        v_away = vertices[away_key]
        w_away = weights[away_key]
        use_away = (float(gz @ (v_away - z)) > gap) and (1.0 - w_away > 1e-12)
        if use_away:
            d = z - v_away
            gamma_max = w_away / (1.0 - w_away)
        else:
            d = s - z
            gamma_max = 1.0
        slope_end = float(grad(z + gamma_max * d) @ d)
        if slope_end <= 0.0:
            gamma = gamma_max
        else:
            lo_g, hi_g = 0.0, gamma_max
            for _ in range(80):
                mid = 0.5 * (lo_g + hi_g)
                if float(grad(z + mid * d) @ d) <= 0.0:
                    lo_g = mid
                else:
                    hi_g = mid
            gamma = lo_g
        if gamma <= 0.0:
            break
        z = z + gamma * d
        if use_away:
            factor = 1.0 + gamma
            weights = {k: w * factor for k, w in weights.items()}
            weights[away_key] -= gamma
        else:
            factor = 1.0 - gamma
            weights = {k: w * factor for k, w in weights.items()}
            sk = key(s)
            vertices.setdefault(sk, s.copy())
            weights[sk] = weights.get(sk, 0.0) + gamma
        weights = {k: w for k, w in weights.items() if w > 1e-15}
        vertices = {k: vertices[k] for k in weights}
    return z, fval(z), max(gap, 0.0), it



def penalty_grid_min(probs, excess, gfun, levels=9, n=240):
    """min E[g(Z)] over the martingale polytope by nullspace grid refinement.

    Parametrizes the affine feasible set through an orthonormal nullspace
    basis and sweeps a shrinking box around the best point.  Intended for
    N <= 4 only.
    """
    probs = np.asarray(probs, dtype=np.float64)
    excess = np.atleast_2d(np.asarray(excess, dtype=np.float64))
    A = np.vstack([probs, excess * probs])
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    z_part, *_ = np.linalg.lstsq(A, b, rcond=None)
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-12 * s[0]))
    null = vt[rank:].T
    k = null.shape[1]
    if k == 0:
        z = np.maximum(z_part, 0.0)
        return float(probs @ gfun(np.maximum(z, 1e-300))), z

    radius = float(np.sqrt(probs.size) / probs.min() + np.linalg.norm(z_part) + 1.0)
    center = np.zeros(k)
    best_val, best_z = np.inf, None
    for _ in range(levels):
        axes = [np.linspace(center[j] - radius, center[j] + radius, n)
                for j in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        zs = z_part[None, :] + mesh @ null.T
        feas = np.all(zs >= -1e-12, axis=1)
        if not np.any(feas):
            radius *= 2.0
            continue
        zs = np.maximum(zs[feas], 1e-300)
        vals = gfun(zs) @ probs
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_z = float(vals[i]), zs[i]
            center = mesh[feas][i]
        radius /= 3.0
    return best_val, best_z


def spectral_mixture_feasible(probs, target_z, atoms, delta=0.0, n=2001):
    """Brute-force: can target_z be written as sum_j w_j zeta_j with each
    zeta_j in the ES box at level alpha_j (shrunk by delta on both sides)
    and E[zeta_j] = 1?  Two-scenario spaces only; grids the one free
    parameter of every zeta_j.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size != 2:
        raise ValueError("two-scenario helper")
    grids = []
    for alpha_j, _ in atoms:
        cap = 1.0 / alpha_j
        t = np.linspace(delta, cap - delta, n)
        other = (1.0 - probs[0] * t) / probs[1]
        ok = (other >= delta - 1e-12) & (other <= cap - delta + 1e-12)
        grids.append(np.stack([t[ok], other[ok]], axis=1))
    weights = [w for _, w in atoms]
    if any(g.size == 0 for g in grids):
        return np.inf
    # Every combination of grid points, broadcast one axis per atom and
    # summed in atom order, in blocks of the first atom's points.
    best = np.inf
    first = weights[0] * grids[0]
    for lo in range(0, len(first), 256):
        mix = first[lo:lo + 256]
        for w, g in zip(weights[1:], grids[1:]):
            mix = mix[..., None, :] + w * g
        best = min(best, float(np.abs(mix - target_z).max(axis=-1).min()))
    return best


def spectral_box_scale(market, atoms, z=None) -> float:
    """Least kappa with Z = w_pin + sum_j w_j zeta_j, E[zeta_j] = 1 and
    0 <= zeta_j <= kappa / alpha_j, by HiGHS on this direct form.

    j runs over the atoms below level 1 and w_pin is the weight of the
    level-1 atoms (with no atom below 1, j runs over all of them and
    w_pin = 0).  Z is the given density z, or any density in the martingale
    polytope of the market when z is None; inf when no such Z exists.
    """
    p = market.probs
    N = p.size
    free = [(a, w) for a, w in atoms if a < 1.0]
    w_pin = sum(w for a, w in atoms if a >= 1.0) if free else 0.0
    free = free or list(atoms)
    J = len(free)
    if z is None:
        E = market.excess_matrix * p[None, :]
        mix = sparse.hstack([sparse.csr_matrix(w * E) for _, w in free])
        rhs = -w_pin * E.sum(axis=1)
    else:
        mix = sparse.hstack([w * sparse.identity(N) for _, w in free])
        rhs = np.asarray(z, dtype=np.float64) - w_pin
    A_eq = sparse.vstack([sparse.hstack([sparse.kron(sparse.identity(J), p[None, :]),
                                         sparse.csr_matrix((J, 1))]),
                          sparse.hstack([mix, sparse.csr_matrix((mix.shape[0], 1))])])
    caps = np.repeat([1.0 / a for a, _ in free], N)
    A_ub = sparse.hstack([sparse.identity(J * N), sparse.csr_matrix(-caps[:, None])])
    c = np.zeros(J * N + 1)
    c[-1] = 1.0
    res = optimize.linprog(c, A_ub=A_ub, b_ub=np.zeros(J * N), A_eq=A_eq,
                           b_eq=np.concatenate([np.ones(J), rhs]),
                           bounds=[(0, None)] * (J * N + 1), method="highs")
    if res.status == 2:
        return math.inf
    assert res.status == 0, res.message
    return float(res.fun)


def box_mixture(market: ScenarioMarket,
                atoms) -> tuple[float, float, DualWitness | None, int]:
    """Largest relative margin eps of a mixture Z = sum_j w_j zeta_j in M.

    Atoms with alpha_j >= 1 are pinned to zeta_j = 1 (total weight w_pin);
    every free atom has cap_j = 1/alpha_j, E[zeta_j] = 1 and
    zeta_j in [cap_j eps, cap_j (1 - eps)].  Charnes-Cooper scaling
    zeta_j = cap_j ((s - 1)/2 + y_j) / s with y_j in [0, 1]^N and s >= 1
    (so eps = (s - 1)/(2 s)) makes every row linear: maximize s subject to

        cap_j E[y_j] + s (cap_j/2 - 1) = cap_j/2           (each free atom)
        sum_j w_j cap_j E[y_j e] + s (h + w_pin) E[e] = h E[e],

    h = sum_j w_j cap_j / 2, the J_free + d rows.  Infeasible is the strong
    form failing; s* = 1 is eps = 0; an unbounded s is eps = 1/2, every
    zeta_j the constant cap_j / 2.

    Returns (eps*, margin, witness, iterations): margin = eps* min_j cap_j
    bounds every zeta_j from below (0 with no free atom), the witness is the
    mixture, None when the strong form fails, and iterations counts the
    LP's simplex pivots and bound flips.
    """
    poly = market.polytope
    p, mart = poly.A[0], poly.A[1:]  # mart @ v = E[v e]
    d, N = mart.shape
    free = [(1.0 / a, w) for a, w in atoms if a < 1.0]
    w_pin = sum((w for a, w in atoms if a >= 1.0), 0.0)
    J = len(free)
    h = sum(w * cap for cap, w in free) / 2.0
    mean_e = mart.sum(axis=1)
    A_eq = np.zeros((J + d, J * N + 1))
    b_eq = np.empty(J + d)
    for j, (cap, w) in enumerate(free):
        A_eq[j, j * N:(j + 1) * N] = cap * p
        A_eq[j, -1] = cap / 2.0 - 1.0
        b_eq[j] = cap / 2.0
        A_eq[J:, j * N:(j + 1) * N] = w * cap * mart
    A_eq[J:, -1] = (h + w_pin) * mean_e
    b_eq[J:] = h * mean_e
    c = np.zeros(J * N + 1)
    c[-1] = -1.0
    lower = np.concatenate([np.zeros(J * N), [1.0]])
    upper = np.concatenate([np.ones(J * N), [np.inf]])
    sol = lp_solve(LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper))
    if sol.status == INFEASIBLE:
        return 0.0, 0.0, None, sol.iterations
    if sol.status == UNBOUNDED:
        eps, y, s = 0.5, np.zeros(J * N), math.inf
    else:
        s = float(sol.x[-1])
        eps, y = 0.5 * (s - 1.0) / s, sol.x[:-1]
    z = np.full(N, w_pin)
    for j, (cap, w) in enumerate(free):
        z += w * cap * (eps + y[j * N:(j + 1) * N] / s)
    margin = eps * min((cap for cap, _ in free), default=0.0)
    return eps, margin, DualWitness.of(poly, z), sol.iterations


@dataclass(frozen=True, eq=False)
class StrictBoxResult:
    status: str
    delta: float                     # best two-sided margin; 0.0 when infeasible
    witness: DualWitness | None
    iterations: int = 0              # simplex pivots and bound flips of its LP


def es_strict_check(market, alpha: float) -> StrictBoxResult:
    """Max delta with delta <= Z <= 1/alpha - delta over Z in M.

    delta* > 0 iff some strictly positive density prices the market with
    sup-norm strictly below 1/alpha, i.e. no ES-arbitrage at level alpha.
    This is the one-atom box mixture: delta* = eps* / alpha, and an
    unbounded scale is the constant density 1/(2 alpha) in M.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    _, margin, witness, iterations = box_mixture(market, ((alpha, 1.0),))
    if witness is None:
        return StrictBoxResult(status=INFEASIBLE, delta=0.0, witness=None,
                               iterations=iterations)
    return StrictBoxResult(status=OPTIMAL, delta=margin, witness=witness,
                           iterations=iterations)


# -- Gaussian references --------------------------------------------------------


def norm_ppf(u):
    return float(stats.norm.ppf(u))


def norm_cdf(x):
    return float(stats.norm.cdf(x))


def norm_es(alpha):
    """ES of the standard normal by quadrature of the quantile integral."""
    val, _ = integrate.quad(stats.norm.ppf, 0.0, alpha, limit=300)
    return -val / alpha


def sr_sphere_grid(mean, cov, r, seed=0, n=200_000):
    """Max Sharpe ratio by random directions with shrinking refinement."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    excess = mean - r
    rng = np.random.default_rng(seed)

    def ratio(dirs):
        num = dirs @ excess
        den = np.sqrt(np.einsum("ij,jk,ik->i", dirs, cov, dirs))
        return num / den

    dirs = rng.normal(size=(n, mean.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = ratio(dirs)
    best = float(np.max(vals))
    center = dirs[int(np.argmax(vals))]
    for scale in (0.1, 0.01, 0.001, 0.0001):
        cloud = center[None, :] + scale * rng.normal(size=(20_000, mean.size))
        cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
        vals = ratio(cloud)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, center = float(vals[i]), cloud[i]
    return best


# -- the shortfall LP and Kelley cutting planes ----------------------------------


def build_ru_lp(market, alpha, nu: float) -> LinearProgram:
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


def pinned_slice_lp(market, atoms) -> LinearProgram:
    """The dual slice LP of a spectrum with one density block per atom.

    Variables (zeta_1, ..., zeta_J, c), minimize c; row j is E[zeta_j] = 1,
    and the asset rows sum_j w_j E[zeta_j (R - r)] - c (mu - r) = 0.  A
    level-1 atom's block is pinned at 1 by its bounds and its own row.
    compute_rho1 folds such an atom into the asset rows' right-hand side
    (frontier._slice_lp); this form keeps it, with the same tail-ordered
    basis hint, as the formulation to check the fold by.
    """
    d, N = market.n_assets, market.n_scenarios
    J = len(atoms)
    p, weighted = market.polytope.A[0], market.polytope.A[1:]
    A_eq = np.zeros((J + d, J * N + 1))
    upper = np.full(J * N + 1, np.inf)
    for j, (alpha, w) in enumerate(atoms):
        block = slice(j * N, (j + 1) * N)
        A_eq[j, block] = p
        A_eq[J:, block] = w * weighted
        upper[block] = 1.0 / alpha
    A_eq[J:, -1] = -market.mean_excess
    lower = np.zeros(J * N + 1)
    lower[-1] = -np.inf
    hint = np.concatenate(([J * N], market.tail_hint([alpha for alpha, _ in atoms])))
    return LinearProgram(c=np.r_[np.zeros(J * N), 1.0], A_eq=A_eq,
                         b_eq=np.r_[np.ones(J), np.zeros(d)], lower=lower, upper=upper,
                         hint=hint)


class BadOracleError(RuntimeError):
    """BAD_ORACLE: an oracle's value disagrees with its own cut at the query."""


@dataclass(frozen=True, eq=False)
class KelleyResult:
    """Outcome of the cutting-plane minimization.

    value is the best oracle value seen (an upper bound on the minimum),
    gap = value - master bound at termination.  status "OK" means the gap
    closed, "BOX_ACTIVE" means the optimizer pressed against the box, and
    "MAX_ITER" means the iteration cap hit first.
    """

    pi: Vector
    value: float
    gap: float
    status: str
    iterations: int


def kelley_minimize(oracle: Callable[[Vector], tuple[float, Vector]], slice_vec: Vector,
                    level: float = 1.0, *, box: float = 1e6, tol: float = 1e-9,
                    max_iter: int = 300) -> KelleyResult:
    """Minimize rho(pi) = sup_k pi . c_k over {pi . slice_vec = level, |pi| <= box}.

    oracle(pi) must return (value, c) with value == pi . c at the query point
    (the cut is tight there); a mismatch beyond 1e-7 relative raises
    BadOracleError.  Convexity of rho makes every cut a global underestimator,
    so the master LP bound increases monotonically toward the true minimum.
    """
    a = np.asarray(slice_vec, dtype=np.float64)
    d = a.size
    pi = level * a / float(a @ a)
    if np.abs(pi).max() > box:
        raise ValueError("slice portfolio exceeds the box; enlarge box")
    cuts: list[Vector] = []
    best_val = math.inf
    best_pi = pi.copy()
    lower = np.concatenate([np.full(d, -box), [-np.inf]])
    upper = np.concatenate([np.full(d, box), [np.inf]])
    c_obj = np.zeros(d + 1)
    c_obj[d] = 1.0
    A_eq = np.concatenate([a, [0.0]])[None, :]
    gap = math.inf
    status = "MAX_ITER"
    it = 0
    for it in range(1, max_iter + 1):
        val, cut = oracle(pi)
        cut = np.asarray(cut, dtype=np.float64)
        if abs(val - float(pi @ cut)) > ORACLE_CONSISTENCY_TOL * (1.0 + abs(val)):
            raise BadOracleError(
                f"BAD_ORACLE: value {val!r} vs cut value {float(pi @ cut)!r}")
        if val < best_val:
            best_val = val
            best_pi = pi.copy()
        cuts.append(cut)
        A_le = np.column_stack([np.array(cuts), -np.ones(len(cuts))])
        sol = lp_solve(LinearProgram(c=c_obj, A_eq=A_eq, b_eq=[level],
                                     A_le=A_le, b_le=np.zeros(len(cuts)),
                                     lower=lower, upper=upper))
        if sol.status != OPTIMAL:
            raise RuntimeError(f"kelley master LP returned {sol.status}")
        gap = best_val - sol.value
        pi = sol.x[:d]
        if gap <= tol * (1.0 + abs(best_val)):
            status = "OK"
            break
    # A closed gap at an interior best point certifies the slice-global
    # minimum (convexity); only then is a box-touching master vertex benign.
    at_box_best = np.abs(best_pi).max() >= box * (1.0 - 1e-9)
    at_box_last = np.abs(pi).max() >= box * (1.0 - 1e-9)
    if at_box_best or (status != "OK" and at_box_last):
        status = "BOX_ACTIVE"
    return KelleyResult(pi=best_pi, value=best_val, gap=gap, status=status, iterations=it)
