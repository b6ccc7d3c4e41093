"""Risk measures on scenario payoffs and the penalty balls of their dual sets.

Conventions: x is the payoff vector (gains positive), probs the scenario
probabilities.  Losses are -x, so every measure here satisfies cash
additivity rho(x + c) = rho(x) - c and positive homogeneity.  Supported
kinds:

    WC        worst case, max(-x)
    VAR       value at risk at level alpha (evaluation only, no dual)
    ES        expected shortfall at level alpha
    SPECTRAL  finite mixture sum_j w_j ES^{alpha_j}, levels in (0, 1]
    EVAR      entropic value at risk at level alpha
    TNORM     truncated-norm measure min_s ||(s - x)+||_p / alpha - s
    GENTROPIC g-entropic family, dual-side only (penalty E[g(Z)] <= beta)

A level-1 spectral atom is ES^1 = E[-x].  ES and SPECTRAL read one
worst-first sort of the payoff per evaluation (_worst_first), whatever the
number of spectral atoms; tied scenarios carry equal losses, so the order
in which the sort leaves them does not change a value beyond rounding.
The GENTROPIC kind never gets a primal evaluator here; EVAR and TNORM are
its two closed-form instances and are evaluated directly.

RiskSpec.penalty_ball maps EVAR, TNORM and GENTROPIC to the GENTROPIC spec
of their dual set {Z : E[g(Z)] <= beta}, penalty(spec, z) is that set's g,
and conjugate(spec, probs) its conjugate g*(s) = max over z of s z - g(z),
on which the least penalty over the martingale densities is minimized by
Newton (frontier._penalty_min).
A POWER g has the closed form s+^p / p; a CUSTOM g is maximized over the
box 0 <= z <= 1/p_omega, which holds every density (E[Z] = 1, Z >= 0),
so the box changes no minimum and keeps g* finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .solvers import increasing_root

Vector = NDArray[np.float64]

KINDS = ("WC", "VAR", "ES", "SPECTRAL", "EVAR", "TNORM", "GENTROPIC")
G_KINDS = ("ENTROPY", "POWER", "CUSTOM")
WEIGHT_SUM_TOL = 1e-12


class UnsupportedDualError(ValueError):
    """UNSUPPORTED_DUAL: the measure has no usable dual representation."""


class UnsupportedPrimalError(ValueError):
    """The measure has no direct evaluator (dual-side only)."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


@dataclass(frozen=True, eq=False)
class RiskSpec:
    """Frozen description of one risk measure.

    Use the classmethod constructors; the JSON mapping mirrors them:
    {"kind": "ES", "alpha": 0.05}, {"kind": "SPECTRAL", "atoms": [[a, w], ...]},
    {"kind": "TNORM", "p": 2, "alpha": 0.1}, {"kind": "EVAR", "alpha": 0.1},
    {"kind": "GENTROPIC", "g_kind": "ENTROPY"|"POWER", "beta": b, "q": q},
    {"kind": "WC"}, {"kind": "VAR", "alpha": 0.05}.
    """

    kind: str
    alpha: float | None = None
    spectrum: tuple[tuple[float, float], ...] | None = None
    p: float | None = None
    g_kind: str | None = None
    beta: float | None = None
    q: float | None = None
    g: Callable[[Vector], Vector] | None = None
    g_prime: Callable[[Vector], Vector] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind in ("VAR", "ES", "EVAR", "TNORM"):
            object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        if self.kind == "TNORM":
            p = float(self.p)
            if not (p > 1.0 and math.isfinite(p)):
                raise ValueError("TNORM needs finite p > 1")
            object.__setattr__(self, "p", p)
        if self.kind == "SPECTRAL":
            atoms = tuple(sorted((float(a), float(w)) for a, w in self.spectrum))
            if not atoms:
                raise ValueError("SPECTRAL needs at least one atom")
            for a, w in atoms:
                if not 0.0 < a <= 1.0:
                    raise ValueError(f"spectral level {a!r} outside (0, 1]")
                if w <= 0.0:
                    raise ValueError(f"spectral weight {w!r} must be positive")
            if abs(sum(w for _, w in atoms) - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError("spectral weights must sum to 1")
            object.__setattr__(self, "spectrum", atoms)
        if self.kind == "GENTROPIC":
            if self.g_kind not in G_KINDS:
                raise ValueError(f"g_kind must be one of {G_KINDS}")
            beta = float(self.beta)
            if self.g_kind == "POWER":
                q = float(self.q)
                if not q > 1.0:
                    raise ValueError("POWER needs q > 1")
                object.__setattr__(self, "q", q)
            if self.g_kind == "CUSTOM" and self.g is None:
                raise ValueError("CUSTOM needs a callable g")
            g1 = float(penalty(self, [1.0])[0])
            if not beta > g1:
                raise ValueError(f"beta must exceed g(1) = {g1!r}")
            object.__setattr__(self, "beta", beta)

    # -- constructors -----------------------------------------------------

    @classmethod
    def wc(cls) -> "RiskSpec":
        return cls(kind="WC")

    @classmethod
    def var(cls, alpha: float) -> "RiskSpec":
        return cls(kind="VAR", alpha=alpha)

    @classmethod
    def es(cls, alpha: float) -> "RiskSpec":
        return cls(kind="ES", alpha=alpha)

    @classmethod
    def spectral(cls, atoms) -> "RiskSpec":
        return cls(kind="SPECTRAL", spectrum=tuple((a, w) for a, w in atoms))

    @classmethod
    def evar(cls, alpha: float) -> "RiskSpec":
        return cls(kind="EVAR", alpha=alpha)

    @classmethod
    def tnorm(cls, p: float, alpha: float) -> "RiskSpec":
        return cls(kind="TNORM", p=p, alpha=alpha)

    @classmethod
    def entropic(cls, beta: float) -> "RiskSpec":
        return cls(kind="GENTROPIC", g_kind="ENTROPY", beta=beta)

    @classmethod
    def power(cls, q: float, beta: float) -> "RiskSpec":
        return cls(kind="GENTROPIC", g_kind="POWER", q=q, beta=beta)

    @classmethod
    def custom(cls, g, beta: float, g_prime=None) -> "RiskSpec":
        return cls(kind="GENTROPIC", g_kind="CUSTOM", g=g, g_prime=g_prime, beta=beta)

    @cached_property
    def penalty_ball(self) -> "RiskSpec":
        """The GENTROPIC spec of this measure's dual set {Z : E[g(Z)] <= beta}.

        EVAR's is the relative-entropy ball entropic(-log alpha); TNORM(p)'s
        is the q-norm ball of radius 1/alpha, power(q, (1/alpha)^q / q) with
        q = p / (p - 1); a GENTROPIC spec is its own.  Every other kind
        raises ValueError: its dual set is no penalty ball.
        """
        if self.kind == "EVAR":
            return RiskSpec.entropic(-math.log(self.alpha))
        if self.kind == "TNORM":
            q = self.p / (self.p - 1.0)
            return RiskSpec.power(q, (1.0 / self.alpha) ** q / q)
        if self.kind == "GENTROPIC":
            return self
        raise ValueError(f"{self.kind} has no penalty-ball dual set")

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "WC":
            return {"kind": "WC"}
        if self.kind in ("VAR", "ES", "EVAR"):
            return {"kind": self.kind, "alpha": self.alpha}
        if self.kind == "TNORM":
            return {"kind": "TNORM", "p": self.p, "alpha": self.alpha}
        if self.kind == "SPECTRAL":
            return {"kind": "SPECTRAL", "atoms": [[a, w] for a, w in self.spectrum]}
        if self.g_kind == "CUSTOM":
            raise ValueError("CUSTOM penalties are not serializable")
        out = {"kind": "GENTROPIC", "g_kind": self.g_kind, "beta": self.beta}
        if self.g_kind == "POWER":
            out["q"] = self.q
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "RiskSpec":
        kind = data.get("kind")
        if kind == "WC":
            return cls.wc()
        if kind == "VAR":
            return cls.var(data["alpha"])
        if kind == "ES":
            return cls.es(data["alpha"])
        if kind == "EVAR":
            return cls.evar(data["alpha"])
        if kind == "TNORM":
            return cls.tnorm(data["p"], data["alpha"])
        if kind == "SPECTRAL":
            return cls.spectral(data["atoms"])
        if kind == "GENTROPIC":
            if data.get("g_kind") == "ENTROPY":
                return cls.entropic(data["beta"])
            if data.get("g_kind") == "POWER":
                return cls.power(data["q"], data["beta"])
            raise ValueError("only ENTROPY/POWER g-entropic specs load from JSON")
        raise ValueError(f"unknown risk kind {kind!r}")


# -- evaluators -----------------------------------------------------------


def _validated(x, probs) -> tuple[Vector, Vector]:
    x = np.asarray(x, dtype=np.float64).ravel()
    p = np.asarray(probs, dtype=np.float64).ravel()
    if x.size != p.size or x.size == 0:
        raise ValueError("x and probs must be nonempty with equal length")
    return x, p


def eval_wc(x) -> float:
    """Worst case: the largest loss max(-x)."""
    x = np.asarray(x, dtype=np.float64)
    return float(-x.min())


def eval_var(x, probs, alpha: float) -> float:
    """VaR at level alpha: inf{ m : P[-x > m] <= alpha }.

    Exact on finite supports: the answer is the least observed loss at
    which the strict upper tail has dropped to alpha.
    """
    alpha = _check_alpha(alpha)
    x, p = _validated(x, probs)
    losses = -x
    order = np.argsort(losses)
    lo_sorted = losses[order]
    tail = 1.0 - np.cumsum(p[order])  # P[loss > lo_sorted[k]]
    hit = tail <= alpha + 1e-15
    return float(lo_sorted[hit.argmax() if hit.any() else -1])


def _worst_first(x: Vector, p: Vector) -> tuple[Vector, Vector, Vector]:
    """The losses -x and their probabilities worst first, and the running
    probability of the worst scenarios: one sort that every ES level reads.

    Tied scenarios carry equal losses, so their order (numpy's default
    sort is not stable) changes a value read from this view only by the
    rounding of its sums.
    """
    order = np.argsort(x)
    p_sorted = p[order]
    return -x[order], p_sorted, np.cumsum(p_sorted)


def _es_of(view: tuple[Vector, Vector, Vector], alpha: float) -> float:
    """ES at level alpha read from a worst-first view: full scenarios until
    their probability passes alpha, and the boundary scenario weighted by
    the leftover alpha - covered."""
    lo_sorted, p_sorted, cum = view
    k = int(np.searchsorted(cum, alpha, side="left"))
    if k >= lo_sorted.size:  # cumsum roundoff at alpha ~ 1
        k = lo_sorted.size - 1
    covered = float(cum[k - 1]) if k > 0 else 0.0
    acc = float(lo_sorted[:k] @ p_sorted[:k]) + (alpha - covered) * float(lo_sorted[k])
    return acc / alpha


def eval_es(x, probs, alpha: float) -> float:
    """Expected shortfall: the mean of the worst alpha-slice of the loss,
    read from one worst-first sort of the payoff (_worst_first); the order
    of tied scenarios does not change the value beyond rounding.
    """
    x, p = _validated(x, probs)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    return _es_of(_worst_first(x, p), alpha)


def eval_spectral(x, probs, spectrum) -> float:
    """Mixture sum_j w_j ES^{alpha_j}; a level-1 atom contributes E[-x].

    Every atom below level 1 reads the same worst-first view, so the
    payoff is sorted once however many atoms there are, and the sum equals
    sum_j w_j eval_es(x, probs, alpha_j) bit for bit.
    """
    x, p = _validated(x, probs)
    view = None
    total = 0.0
    for a, w in spectrum:
        if a >= 1.0:
            total += w * float(p @ (-x))
        else:
            if view is None:
                view = _worst_first(x, p)
            total += w * _es_of(view, a)
    return total


def eval_evar(x, probs, alpha: float) -> float:
    """Entropic VaR: inf_{z>0} (log E[exp(-z x)] - log alpha) / z.

    The objective's slope has the sign of KL(Q_z || P) + log alpha, where
    Q_z is the Gibbs tilt dQ_z/dP ~ exp(-z x); KL increases in z (slope
    z Var_Q(x)) from 0 to -log P[x = min x].  So when P[x = min x] >= alpha
    the infimum is the z -> inf limit, the worst case -min x, returned
    exactly; otherwise the minimizer is the root of KL(Q_z || P) = -log
    alpha, found on x - min x scaled to [0, 1].
    """
    alpha = _check_alpha(alpha)
    x, p = _validated(x, probs)
    m = float(x.min())
    span = float(x.max()) - m
    if not span > 0.0 or float(p[x == m].sum()) >= alpha:
        return -m
    u = (x - m) / span
    pu = p * u
    log_alpha = math.log(alpha)

    def tilt(z: float) -> tuple[float, float]:
        # (KL(Q_z || P), log E[exp(-z u)]) for the tilt dQ_z/dP ~ exp(-z u)
        w = u * -z
        np.exp(w, out=w)
        s = float(p @ w)
        return -z * float(pu @ w) / s - math.log(s), math.log(s)

    z = increasing_root(lambda z: tilt(z)[0] + log_alpha, 0.0, 1.0)
    return -m + span * (tilt(z)[1] - log_alpha) / z


def eval_tnorm(x, probs, p_exp: float, alpha: float) -> float:
    """Truncated-norm measure: min_s ||(s - x)+||_p / alpha - s.

    With y = (s - x)+ the objective's slope is r(s) - 1, where
    r(s) = E[y^(p-1)] / ||y||_p^(p-1) increases from P[x = min x]^(1/p)
    (s -> min x) to 1 (s -> inf).  So when P[x = min x]^(1/p) >= alpha
    the minimum is the worst case -min x, returned exactly; otherwise the
    minimizer solves r(s) = alpha on (min x, inf).  With span = max x -
    min x the root runs in t = span / (s - min x) on u = (x - min x) / span,
    where y / (s - min x) = (1 - t u)+ and r rises as t falls to 0.
    """
    alpha = _check_alpha(alpha)
    p_exp = float(p_exp)
    if not (p_exp > 1.0 and math.isfinite(p_exp)):
        raise ValueError("p must be finite and > 1")
    x, p = _validated(x, probs)
    m = float(x.min())
    span = float(x.max()) - m
    if not span > 0.0 or float(p[x == m].sum()) ** (1.0 / p_exp) >= alpha:
        return -m
    u = (x - m) / span

    def shape(t: float) -> tuple[float, float]:
        # (r, ||v||_p) for v = (1 - t u)+, the shortfall y over s - min x
        v = u * -t
        v += 1.0
        np.maximum(v, 0.0, out=v)
        w = v ** (p_exp - 1.0)
        low = float(p @ w)
        w *= v
        norm = float(p @ w) ** (1.0 / p_exp)
        return low / norm ** (p_exp - 1.0), norm

    t = increasing_root(lambda t: alpha - shape(t)[0], 0.0, 1.0)
    return -m + span * (shape(t)[1] / alpha - 1.0) / t


def evaluate(spec: RiskSpec, x, probs) -> float:
    """Dispatch to the evaluator for spec; GENTROPIC has none."""
    if spec.kind == "WC":
        return eval_wc(x)
    if spec.kind == "VAR":
        return eval_var(x, probs, spec.alpha)
    if spec.kind == "ES":
        return eval_es(x, probs, spec.alpha)
    if spec.kind == "SPECTRAL":
        return eval_spectral(x, probs, spec.spectrum)
    if spec.kind == "EVAR":
        return eval_evar(x, probs, spec.alpha)
    if spec.kind == "TNORM":
        return eval_tnorm(x, probs, spec.p, spec.alpha)
    raise UnsupportedPrimalError(
        "GENTROPIC measures are dual-side only; use EVAR/TNORM for evaluation")


def penalty(spec: RiskSpec, z) -> Vector:
    """g(z) of a GENTROPIC spec: z log z (0 at z = 0), |z|^q / q, or the custom g."""
    z = np.asarray(z, dtype=np.float64)
    if spec.g_kind == "ENTROPY":
        out = np.zeros_like(z)
        pos = z > 0.0
        out[pos] = z[pos] * np.log(z[pos])
        return out
    if spec.g_kind == "POWER":
        return np.abs(z) ** spec.q / spec.q
    return spec.g(z)


def _numeric_prime(gfun: Callable) -> Callable:
    def prime(z: Vector) -> Vector:
        z = np.asarray(z, dtype=np.float64)
        h = 1e-6
        lo = np.maximum(z - h, 0.0)
        hi = z + h
        return (gfun(hi) - gfun(lo)) / (hi - lo)
    return prime


def conjugate(spec: RiskSpec, probs) -> tuple[Callable[[Vector], tuple[float, Vector, Vector]],
                                               float]:
    """The conjugate g*(s) = max over z of s z - g(z) of a POWER or CUSTOM
    spec, and the floor of its dual.

    The returned function maps s (one entry per scenario) to E[g*(s)]
    under probs, the density (g*)'(s), which is the maximizing z, and the
    curvature (g*)''(s).  The floor is minus the largest penalty a density
    can have, which puts all its mass 1/p_omega on one scenario: max over
    omega of p_omega g(1/p_omega) + (1 - p_omega) g(0), (min p)^(1-q) / q
    for POWER.  POWER has the closed form g*(s) = s+^p / p,
    p = q / (q - 1), with density s+^(p-1).  CUSTOM maximizes over the box
    0 <= z <= 1/p_omega: every density in M has E[Z] = 1 and Z >= 0, so
    Z <= 1/p_omega, and the box changes no minimum over M while it keeps
    g* finite for every s.  The maximizer solves g'(z) = s (g' from
    spec.g_prime, else a central difference of g) by a 64-halving
    bisection of the box, and sits at 0 or 1/p_omega where g' does not
    cross s there; its curvature is 1/g''(z) inside the box (g'' a central
    difference of g'), 0 on its ends.
    """
    pr = np.asarray(probs, dtype=np.float64)
    if spec.g_kind == "POWER":
        p_exp = spec.q / (spec.q - 1.0)

        def power(s: Vector) -> tuple[float, Vector, Vector]:
            s = np.maximum(s, 0.0)
            pos = s > 0.0
            # s+^(p-2) is unbounded at the kink for p < 2; the clip keeps it finite.
            curv = np.zeros_like(s)
            curv[pos] = (p_exp - 1.0) * np.maximum(s[pos], 1e-150) ** (p_exp - 2.0)
            return float(pr @ s ** p_exp) / p_exp, s ** (p_exp - 1.0), curv

        return power, -float(pr.min()) ** (1.0 - spec.q) / spec.q
    g = spec.g
    g_prime = spec.g_prime or _numeric_prime(g)
    g_second = _numeric_prime(g_prime)
    top = 1.0 / pr
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_lo, slope_hi = g_prime(np.zeros_like(pr)), g_prime(top)
        floor = -float(np.max(pr * g(top) + (1.0 - pr) * g(np.zeros(1))))

    def custom(s: Vector) -> tuple[float, Vector, Vector]:
        # Bisection keeps g'(z) < s (or z = 0) with the root in [z, z + 2 w].
        z, w = np.zeros_like(pr), top.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(64):
                w *= 0.5
                mid = z + w
                np.copyto(z, mid, where=g_prime(mid) < s)
            z = np.where(slope_hi <= s, top, z)
            inside = (slope_lo < s) & (s < slope_hi)
            bend = g_second(z)
            curv = np.where(inside & (bend > 0.0), 1.0 / bend, 0.0)
            return float(pr @ (s * z - g(z))), z, curv

    return custom, floor
