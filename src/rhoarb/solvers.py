"""Scalar and structured minimizers used by the frontier and dual routes.

Three kernels live here: a golden-section search for one-dimensional convex
(or unimodal) objectives with geometric bracket expansion, a damped Newton
method for the cumulant-type function behind the entropy dual (the EVaR
slice root evaluates it along a shift), and a Kelley cutting-plane loop for
minimizing a sup-of-linear risk functional over an expected-excess slice.
All of them are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
WIDTH_EPS = 4.0 * float(np.finfo(np.float64).eps)
LAMBDA_ESCAPE = 1e8          # scaled Newton iterate norm beyond this means divergence
GRAD_ACCEPT = 1e-9           # scaled gradient norm a converged minimizer must reach
STEP_ACCEPT = 1e-6           # final Newton step / (1 + |lam|) above this: still escaping
ORACLE_CONSISTENCY_TOL = 1e-7


class BracketError(RuntimeError):
    """NO_BRACKET: the objective keeps decreasing past every expanded edge."""


class BadOracleError(RuntimeError):
    """BAD_ORACLE: an oracle's value disagrees with its own cut at the query."""


def _golden(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    x1 = b - INVPHI * (b - a)
    x2 = a + INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    # The relative floor keeps the loop finite when the endpoints are so
    # large that tol sits below their ulp spacing and the width cannot shrink.
    while b - a > tol + WIDTH_EPS * (abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVPHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def minimize_1d_convex(f: Callable[[float], float], bracket: tuple[float, float],
                       tol: float = 1e-9, max_expand: int = 6) -> tuple[float, float]:
    """Minimize a convex/unimodal f, expanding the bracket if the minimum
    sits outside it.

    Returns (argmin, value).  Raises BracketError when f is still decreasing
    at the edge after max_expand geometric doublings (no minimizer).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    for _ in range(max_expand + 1):
        width = hi - lo
        xm, fm = _golden(f, lo, hi, tol)
        edge = max(10.0 * tol, 1e-6 * width)
        if xm > hi - edge and f(hi + width) < f(hi):
            hi += 2.0 * width
            continue
        if xm < lo + edge and f(lo - width) < f(lo):
            lo -= 2.0 * width
            continue
        return xm, fm
    raise BracketError("NO_BRACKET: no minimizer within the expanded bracket")


@dataclass(frozen=True, eq=False)
class CumulantResult:
    """Outcome of the cumulant minimization.

    value is -min K, i.e. the candidate divergence minimum; z is the Gibbs
    density at the final iterate (E[z] = 1 by construction); lam is in the
    units of the excess rows.  gradient_norm is the max-norm of E[z e]
    divided by max |e|, so it does not depend on the units of e.  status is
    "OK" for a converged interior minimizer and "DIVERGENT" when the
    iterates run off to infinity (the infimum sits on a boundary face) or
    the gradient did not close.
    """

    lam: Vector
    value: float
    z: Vector
    status: str
    gradient_norm: float
    iterations: int


def newton_cumulant_min(probs: Vector, excess: Vector, *, lam0: Vector | None = None,
                        grad_tol: float = 1e-11, max_iter: int = 500) -> CumulantResult:
    """Minimize K(lam) = log E[exp(lam . e)] over lam in R^d.

    probs has shape (N,), excess has shape (N, d) with rows e_omega; lam0
    (in the units of e) warm-starts the iteration, which otherwise starts
    at 0.  The rows are divided by max |e| first, so the Armijo (1e-4) and
    Hessian-ridge (1e-12) constants and every test below are relative to
    the data.  The Hessian is the Gibbs covariance of the rows, positive
    definite whenever the rows plus the constant span d+1 dimensions.

    DIVERGENT is decided from the scaled iterate: the gradient must be at
    most GRAD_ACCEPT, and the Newton step at the final iterate must be
    negligible against it.  At an interior minimizer that step is
    quadratically small; along a recession direction Newton keeps stepping
    by ~1 / (the gap of the off-face rows) while the gradient decays
    geometrically, so the iterate is still running away when the gradient
    test passes.
    """
    p = np.asarray(probs, dtype=np.float64)
    scale = float(np.abs(excess).max())
    if not scale > 0.0:
        scale = 1.0
    E = np.asarray(excess, dtype=np.float64) / scale
    N, d = E.shape
    logp = np.log(p)
    lam = np.zeros(d) if lam0 is None else np.asarray(lam0, dtype=np.float64) * scale
    # Decreases of K smaller than this are rounding, not a failed descent.
    k_round = 8.0 * float(np.finfo(np.float64).eps)

    def eval_at(l: Vector) -> tuple[float, Vector]:
        a = logp + E @ l
        m = a.max()
        w = np.exp(a - m)
        s = w.sum()
        w /= s
        return m + math.log(s), w

    def newton_step(w: Vector, grad: Vector) -> Vector:
        H = E.T @ (w[:, None] * E) - np.outer(grad, grad)
        H[np.diag_indices_from(H)] += 1e-12
        try:
            return np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return -grad

    K, w = eval_at(lam)
    grad = E.T @ w
    it = 0
    for it in range(1, max_iter + 1):
        if float(np.abs(grad).max()) < grad_tol or np.abs(lam).max() > LAMBDA_ESCAPE:
            break
        step = newton_step(w, grad)
        slope = float(grad @ step)
        if slope >= 0.0:  # not a descent direction, fall back to gradient
            step = -grad
            slope = -float(grad @ grad)
        t = 1.0
        K_new, w_new = K, w
        while t >= 1e-14:
            K_new, w_new = eval_at(lam + t * step)
            if K_new <= K + 1e-4 * t * slope + k_round * (1.0 + abs(K)):
                break
            t *= 0.5
        else:
            break  # stalled line search; classify with current iterate
        lam = lam + t * step
        K, w = K_new, w_new
        grad = E.T @ w

    z = w / p  # Gibbs density: z_omega = exp(lam.e_omega) / E[exp(lam.e)]
    gnorm = float(np.abs(grad).max())
    lam_norm = float(np.abs(lam).max())
    running = float(np.abs(newton_step(w, grad)).max()) > STEP_ACCEPT * (1.0 + lam_norm)
    diverged = lam_norm > LAMBDA_ESCAPE or gnorm > GRAD_ACCEPT or running
    status = "DIVERGENT" if diverged else "OK"
    return CumulantResult(lam=lam / scale, value=-K, z=z, status=status,
                          gradient_norm=gnorm, iterations=it)


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
    from .lp import LinearProgram, lp_solve, OPTIMAL

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
