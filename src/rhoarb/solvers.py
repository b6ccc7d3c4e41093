"""Scalar roots and structured minimizers used by the measures and routes.

One bracketed root search for increasing scalar functions (Illinois false
position with a bisection safeguard), which finds the minimizers of the
EVaR and TNORM evaluators through their first-order conditions and the
elliptical critical level; one damped Newton loop and the two kernels of
the smooth duals of the penalty minima min E[g(Z)] over martingale
densities: the cumulant log E exp(lam . e) of the entropy penalty, and
the conjugate E[g*(nu + lam . e)] - nu of any other penalty, where
g*(s) = max over z of s z - g(z) comes from measures.conjugate (for a
custom g over the box 0 <= z <= 1/p_omega, which holds every density).
frontier._Kernel picks the kernel of a penalty and its start; the penalty
test and the EVaR and TNORM slice minima run the loop on it, on a ratio
of it (_ratio_kernel) and on it along a shift (_shifted_kernel).  Both
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

LAMBDA_ESCAPE = 1e8          # scaled Newton iterate norm beyond this means divergence
GRAD_ACCEPT = 1e-9           # scaled gradient norm a converged minimizer must reach
STEP_ACCEPT = 1e-6           # final Newton step / (1 + |lam|) above this: still escaping
FLAT_STEPS = 10              # Newton steps in a row that leave f flat end the loop
ROOT_RTOL = 1e-13            # relative bracket width at which increasing_root stops
NEWTON_GRAD_TOL = 1e-11      # scaled gradient norm at which the Newton loop stops
NEWTON_MAX_ITER = 500        # Newton steps after which the loop stops


def increasing_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The point where an increasing f changes sign above lo (lo itself if f(lo) >= 0).

    While f(hi) < 0 the bracket moves up to [hi, hi + 2 (hi - lo)], so its
    width doubles; then Illinois false position narrows [lo, hi] until
    hi - lo <= ROOT_RTOL max(|lo|, |hi|).  False position alone can keep
    one end for many steps on a convex f, and crawls where f has a kink or
    a near-jump, so a bracket still wider than half of what it was three
    steps before is bisected instead.  Raises ValueError when hi overflows
    before f changes sign.
    """
    f_lo, f_hi = f(lo), f(hi)
    while f_hi < 0.0:
        lo, f_lo, hi = hi, f_hi, hi + 2.0 * (hi - lo)
        if not math.isfinite(hi):
            raise ValueError("no sign change of f below the float range")
        f_hi = f(hi)
    if f_lo >= 0.0:
        return lo
    widths = [math.inf] * 3  # bracket widths before each of the last three steps
    side = 0  # +1 if the last step moved hi, -1 if it moved lo
    while hi - lo > ROOT_RTOL * max(abs(lo), abs(hi)) and f_hi != 0.0:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if hi - lo > 0.5 * widths[0] or not lo < x < hi:
            x = 0.5 * (lo + hi)
        widths = widths[1:] + [hi - lo]
        fx = f(x)
        if fx < 0.0:
            if side == -1:
                f_hi *= 0.5  # Illinois: an end kept twice in a row counts half
            lo, f_lo, side = x, fx, -1
        else:
            if side == 1:
                f_lo *= 0.5
            hi, f_hi, side = x, fx, 1
    return hi if f_hi == 0.0 else 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class CumulantResult:
    """Outcome of a penalty minimization min E[g(Z)] over the densities Z
    that price the rows, by Newton on its smooth dual (frontier._Kernel).

    value is the least penalty: -min K for the cumulant
    K(lam) = log E exp(lam . e) of the entropy, and
    max over (nu, lam) of nu - E[g*(nu + lam . e)] for any other g.  z is
    the density at the final iterate: the Gibbs density, with E[z] = 1 by
    construction, or (g*)'(nu + lam . e), with E[z] = 1 only to the
    gradient tolerance.  lam is in the units of the excess rows.
    gradient_norm is the max-norm of the gradient on the rows divided by
    max |e| (E[z e], with E[z] - 1 first for the conjugate), so it does not
    depend on the units of e.  status is "OK" for a converged minimizer and
    "DIVERGENT" when the iterates run off to infinity (the infimum sits on
    a boundary face, or no density prices the rows at all) or the gradient
    did not close.  value is +inf when the kernel fell below the least
    value it has if a density prices the rows: then none does.  iterations
    counts the Newton steps taken.
    """

    lam: Vector
    value: float
    z: Vector
    status: str
    gradient_norm: float
    iterations: int


@dataclass(frozen=True, eq=False)
class _NewtonRun:
    x: Vector
    value: float
    state: Any
    gradient_norm: float
    status: str
    iterations: int


def _damped_newton(value: Callable[[Vector], tuple[float, Any]],
                   derivatives: Callable[[Any], tuple[Vector, Vector]],
                   x0: Vector, *, floor: float, step_test: bool = True,
                   max_iter: int | None = None, escape: float = LAMBDA_ESCAPE,
                   residual: Callable[[Any, Vector], float] | None = None) -> _NewtonRun:
    """Minimize a convex f given on scaled rows by damped Newton steps.

    value(x) returns (f(x), state) and derivatives(state) the gradient and
    Hessian there; residual(state, gradient), the max-norm of the gradient
    by default, is what the gradient tests below read, max_iter
    (NEWTON_MAX_ITER by default) caps the steps, which the run counts as
    its iterations, and escape (LAMBDA_ESCAPE by default) is the scaled
    iterate norm beyond which the loop stops and reads DIVERGENT; a
    function without recession directions passes math.inf, since its
    minimizer may lie that far out.  The kernels divide
    their rows by max |e| first (_scaled_rows), so the Armijo (1e-4) and
    Hessian-ridge (1e-12) constants and every test below are relative to
    the data.  floor is the least value f can take when a minimizer exists
    (M nonempty); an iterate below it is following a recession direction,
    so the loop stops there instead of stepping on while f falls linearly
    and the gradient stays large, and reports the value -inf.  FLAT_STEPS
    steps in a row that lower f by no more than rounding also end the
    loop: the gradient can no longer close there.

    DIVERGENT is decided from the scaled iterate: it must not have passed
    the floor or escape, the gradient must be at most GRAD_ACCEPT,
    and, with step_test, the Newton step at the final iterate must be
    negligible against it.  At an interior minimizer that step is
    quadratically small; along a recession direction Newton keeps stepping
    by ~1 / (the gap of the off-face rows) while the gradient decays
    geometrically, so the iterate is still running away when the gradient
    test passes.  A kernel whose minimum is attained but need not be
    unique turns step_test off: there a large step only moves along the
    set of minimizers.
    """
    # Decreases of f smaller than this are rounding, not a failed descent.
    f_round = 8.0 * float(np.finfo(np.float64).eps)
    floor -= 1e-9 * (1.0 + abs(floor))

    def newton_step(grad: Vector, H: Vector) -> Vector:
        H = H.copy()
        H.flat[::H.shape[0] + 1] += 1e-12
        try:
            return np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return -grad

    if residual is None:
        def residual(state: Any, grad: Vector) -> float:
            return float(np.abs(grad).max())

    x = np.asarray(x0, dtype=np.float64)
    f, state = value(x)
    grad, H = derivatives(state)
    receded = False
    flat = 0  # consecutive steps that lowered f by no more than rounding
    steps = 0
    for _ in range(NEWTON_MAX_ITER if max_iter is None else max_iter):
        if residual(state, grad) < NEWTON_GRAD_TOL or np.abs(x).max() > escape:
            break
        if f < floor:
            receded = True
            break
        step = newton_step(grad, H)
        slope = float(grad @ step)
        if slope >= 0.0:  # not a descent direction, fall back to gradient
            step = -grad
            slope = -float(grad @ grad)
        t = 1.0
        f_new, state_new = f, state
        while t >= 1e-14:
            f_new, state_new = value(x + t * step)
            if f_new <= f + 1e-4 * t * slope + f_round * (1.0 + abs(f)):
                break
            t *= 0.5
        else:
            break  # stalled line search; classify with current iterate
        flat = flat + 1 if f_new >= f - f_round * (1.0 + abs(f)) else 0
        x = x + t * step
        steps += 1
        f, state = f_new, state_new
        grad, H = derivatives(state)
        if flat >= FLAT_STEPS:
            break  # f sits at its rounding floor; classify with this iterate

    gnorm = residual(state, grad)
    x_norm = float(np.abs(x).max())
    running = step_test and (float(np.abs(newton_step(grad, H)).max())
                             > STEP_ACCEPT * (1.0 + x_norm))
    diverged = receded or x_norm > escape or gnorm > GRAD_ACCEPT or running
    return _NewtonRun(x=x, value=-math.inf if receded else f, state=state,
                      gradient_norm=gnorm,
                      status="DIVERGENT" if diverged else "OK", iterations=steps)


def _scaled_rows(excess: Vector) -> tuple[Vector, float]:
    scale = float(np.abs(excess).max())
    if not scale > 0.0:
        scale = 1.0
    return np.asarray(excess, dtype=np.float64) / scale, scale


def _cumulant_kernel(p: Vector, E: Vector) -> tuple[Callable, Callable]:
    """value and derivatives of K(lam) = log E[exp(lam . e)] on the rows E
    (shape (N, d)), for _damped_newton; the state is the Gibbs weights
    p exp(lam . e) / E[exp(lam . e)]."""
    logp = np.log(p)

    def value(l: Vector) -> tuple[float, Vector]:
        a = logp + E @ l
        m = a.max()
        w = np.exp(a - m)
        s = w.sum()
        w /= s
        return m + math.log(s), w

    def derivatives(w: Vector) -> tuple[Vector, Vector]:
        grad = E.T @ w
        return grad, E.T @ (w[:, None] * E) - np.outer(grad, grad)

    return value, derivatives


def _conjugate_kernel(pr: Vector, E: Vector,
                      conjugate: Callable[[Vector], tuple[float, Vector, Vector]]
                      ) -> tuple[Callable, Callable]:
    """value and derivatives of F(nu, lam) = E[g*(nu + lam . e)] - nu on the
    rows E (shape (N, d)), for _damped_newton; the state is the density
    (g*)'(s) and the curvature (g*)''(s) at s = nu + lam . e."""
    rows = np.hstack([np.ones((E.shape[0], 1)), E])

    def value(x: Vector) -> tuple[float, tuple[Vector, Vector]]:
        g_star, z, curv = conjugate(rows @ x)
        return g_star - x[0], (z, curv)

    def derivatives(state: tuple[Vector, Vector]) -> tuple[Vector, Vector]:
        z, curv = state
        grad = rows.T @ (pr * z)
        grad[0] -= 1.0
        return grad, rows.T @ ((pr * curv)[:, None] * rows)

    return value, derivatives


def _shifted_kernel(value: Callable, derivatives: Callable, t: float,
                    c: Vector) -> tuple[Callable, Callable]:
    """value and derivatives of f(x) + t c . x, from those of a kernel f.

    With c = a for the cumulant and c = (0, a) for the conjugate kernel,
    that is the kernel on the shifted rows e + t a (nu moves by t lam . a).
    """
    def shifted(x: Vector) -> tuple[float, Any]:
        f, state = value(x)
        return f + t * float(c @ x), state

    def shifted_derivatives(state: Any) -> tuple[Vector, Vector]:
        grad, H = derivatives(state)
        return grad + t * c, H

    return shifted, shifted_derivatives


def _ratio_kernel(value: Callable, derivatives: Callable, beta: float,
                  c: Vector) -> tuple[Callable, Callable, Callable]:
    """value, derivatives and residual of R(x) = (beta + f(x)) / D,
    D = -c . x, for _damped_newton, from those of a kernel f; R is +inf
    where D <= 0.

    The Newton matrix is H / D, H the Hessian of f.  Its step
    -H^-1 (grad f + R c) is Dinkelbach's step for min R with one Newton
    step per update: a descent direction wherever H is positive definite,
    and exact Newton at a minimizer, where grad R = 0 and the Hessian of R
    is H / D.  The residual is D |grad R| = |grad f + R c|, the gradient of
    the kernel on the rows shifted by t = R: grad R alone shrinks as D
    grows, far from the minimizer too.
    """
    def ratio(x: Vector) -> tuple[float, Any]:
        D = -float(c @ x)
        if not D > 0.0:
            return math.inf, None
        f, state = value(x)
        R = (beta + f) / D
        return R, (state, D, R)

    def ratio_derivatives(st: tuple) -> tuple[Vector, Vector]:
        state, D, R = st
        grad, H = derivatives(state)
        return (grad + R * c) / D, H / D

    def residual(st: tuple, grad: Vector) -> float:
        return st[1] * float(np.abs(grad).max())

    return ratio, ratio_derivatives, residual
